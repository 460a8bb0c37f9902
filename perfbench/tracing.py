"""Span tracing of entropykit's public calls, installed from outside the
library by replacing module and class attributes with timing wrappers.

A span is (name, start, end, parent span, verdict id).  Spans are kept in
compact in-memory arrays while the traced verdicts run and are reduced only
at the end, so the traced run does no I/O.  A layer's self time is its
spans' duration minus the duration of their direct child spans, which also
handles recursive calls (diff inside diff, mul inside mul).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path) for span wrappers.  A dotted path
# names a class attribute; functions re-exported or imported by name into
# other entropykit modules are replaced everywhere they are bound.
SPANS = (
    ("expr.mul", "entropykit.expr", "Expr.__mul__"),
    ("expr.mul", "entropykit.expr", "Expr.__rmul__"),
    ("expr.pow", "entropykit.expr", "Expr.__pow__"),
    ("expr.parse", "entropykit.expr", "parse"),
    ("expr.diff", "entropykit.expr", "Expr.diff"),
    ("expr.subs", "entropykit.expr", "Expr.subs"),
    ("expr.evaluate", "entropykit.expr", "Expr.evaluate"),
    ("expr.is_zero", "entropykit.expr", "is_zero"),
    ("forms.pullback", "entropykit.forms", "pullback"),
    ("forms.wedge", "entropykit.forms", "Form.wedge"),
    ("forms.d", "entropykit.forms", "Form.d"),
    ("forms.contact_check", "entropykit.forms", "contact_check"),
    ("forms.frobenius_check", "entropykit.forms", "frobenius_check"),
    ("thermo.inclusion", "entropykit.thermo", "LegendreSpec.inclusion"),
    ("thermo.path_integral", "entropykit.thermo", "path_integral"),
    ("thermo.first_law_balance", "entropykit.thermo", "first_law_balance"),
    ("thermo.cycle_audit", "entropykit.thermo", "cycle_audit"),
    ("thermo.adiabatic_entropy_check", "entropykit.thermo", "adiabatic_entropy_check"),
    ("thermo.check_legendre", "entropykit.thermo", "check_legendre"),
    ("thermo.maxwell_relations", "entropykit.thermo", "maxwell_relations"),
    ("thermo.legendre_transform", "entropykit.thermo", "legendre_transform"),
    ("access.le", "entropykit.access", "EntropyOracle.le"),
    ("access.le", "entropykit.access", "EdgeRelation.le"),
    ("access.le", "entropykit.access", "MemoizedOracle.le"),
    ("access.check_axioms", "entropykit.access", "check_axioms"),
    ("access.comparison_hypothesis", "entropykit.access", "comparison_hypothesis"),
    ("access.construct_entropy", "entropykit.access", "construct_entropy"),
    ("access.verify_entropy", "entropykit.access", "verify_entropy"),
    ("access.calibrate", "entropykit.access", "calibrate"),
    ("galois.poset", "entropykit.galois", "Poset.__init__"),
    ("galois.right_adjoint", "entropykit.galois", "right_adjoint"),
    ("galois.left_adjoint", "entropykit.galois", "left_adjoint"),
    ("galois.check_galois", "entropykit.galois", "check_galois"),
    ("galois.closure_report", "entropykit.galois", "closure_report"),
    ("documents.load", "entropykit.documents", "load_document"),
    ("cli.run", "entropykit.cli", "run"),
    ("cli.render", "entropykit.cli", "Report.render"),
)

# (counter name, module, attribute path) for call counters without spans:
# these run too often, or too deep inside other spans, to be worth timing.
COUNTERS = (
    ("galois.le.calls", "entropykit.galois", "Poset.le"),
    ("access.composites.built", "entropykit.access", "CompositeState.__init__"),
    ("access.constraints.built", "entropykit.access", "Constraint.__init__"),
)

# Metrics printed by a traced run, in order.  Names end in .calls, .self_s
# or a counter name; see README.md for which end-to-end metric each should
# move.
CALLS_AND_SELF = (
    "expr.mul", "expr.pow", "expr.parse", "expr.diff", "expr.subs",
    "expr.evaluate", "expr.is_zero", "forms.pullback", "forms.wedge", "forms.d",
    "thermo.inclusion", "thermo.quad", "access.le", "galois.poset",
    "documents.load",
)
SELF_ONLY = (
    "thermo.path_integral", "thermo.first_law_balance", "thermo.cycle_audit",
    "thermo.adiabatic_entropy_check", "forms.contact_check",
    "forms.frobenius_check", "thermo.check_legendre", "thermo.maxwell_relations",
    "thermo.legendre_transform", "access.check_axioms",
    "access.comparison_hypothesis", "access.construct_entropy",
    "access.verify_entropy", "access.calibrate", "galois.right_adjoint",
    "galois.left_adjoint", "galois.check_galois", "galois.closure_report",
    "cli.run", "cli.render",
)
COUNT_ONLY = (
    "thermo.quad.evals", "expr.is_zero.sampled_frac", "galois.le.calls",
    "access.composites.built", "access.constraints.built",
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNT_ONLY:
        units[name] = "fraction" if name.endswith("_frac") else "count"
    units["setup.scipy_loaded"] = "flag"
    units["trace.overhead_frac"] = "fraction"
    return units


class Spans:
    """Append-only span store; a span's index is its identity."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.verdict = array("i")

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, start: float, parent: int, verdict: int) -> int:
        self.name_id.append(name_id)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        self.verdict.append(verdict)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)


def _own_times(spans: Spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    n = len(spans)
    own = [spans.end[i] - spans.start[i] for i in range(n)]
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            own[p] -= spans.end[i] - spans.start[i]
    return own


def self_times(spans: Spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds)."""
    own_time = _own_times(spans)
    calls = [0] * len(spans.names)
    own = [0.0] * len(spans.names)
    for i, t in enumerate(own_time):
        k = spans.name_id[i]
        calls[k] += 1
        own[k] += t
    return {name: (calls[k], own[k]) for k, name in enumerate(spans.names)}


def verdict_breakdown(spans: Spans, verdict: int) -> dict[str, float]:
    """Self seconds per span name within one verdict."""
    out: dict[str, float] = {}
    for i, t in enumerate(_own_times(spans)):
        if spans.verdict[i] == verdict:
            name = spans.names[spans.name_id[i]]
            out[name] = out.get(name, 0.0) + t
    return out


def slowest_verdict(spans: Spans) -> tuple[int, float]:
    """(verdict id, seconds) of the verdict whose top-level spans took longest."""
    totals: dict[int, float] = {}
    for i in range(len(spans)):
        if spans.parent[i] < 0:
            v = spans.verdict[i]
            totals[v] = totals.get(v, 0.0) + spans.end[i] - spans.start[i]
    return max(totals.items(), key=lambda kv: kv[1])


def _resolve(module_name: str, path: str):
    """(owner object, attribute) for a dotted path, or None when the module
    is not loaded or the attribute no longer exists."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1]


class Tracer:
    """Installs wrappers while active; restores every original on exit.

    Wrappers only record while ``recording`` is set, so input building and
    known-answer checks between verdicts stay out of the figures.
    """

    def __init__(self, callers=()):
        # modules outside entropykit that call it through names of their own
        self.callers = tuple(callers)
        self.spans = Spans()
        self.counts: dict[str, int] = {}
        self.recording = False
        self.verdict = -1
        self.missing: list[str] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.zero_tests = 0
        self.zero_sampled = 0

    # -- wrapper factories ---------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        name_id = self.spans.intern(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = spans.open(name_id, perf_counter(), stack[-1], tracer.verdict)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.recording:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe_zero(self, result):
        self.zero_tests += 1
        # A sampled verdict is PROBABLY_ZERO, or a nonzero verdict that
        # carries the sample point that exposed it.
        if not result.certain or result.witness is not None:
            self.zero_sampled += 1

    def _quad(self, fn):
        counts = self.counts
        counts.setdefault("thermo.quad.evals", 0)
        tracer = self

        def quad(func, *args, **kwargs):
            if not tracer.recording:
                return fn(func, *args, **kwargs)

            def counted(*fargs):
                counts["thermo.quad.evals"] += 1
                return func(*fargs)

            return fn(counted, *args, **kwargs)

        return self._span("thermo.quad", quad)

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        if isinstance(owner, type):
            return
        # the same function bound under any name in another entropykit module
        # or in a calling module
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "entropykit" or name.startswith("entropykit.")
        ]
        for module in modules + list(self.callers):
            if module is None or module is owner:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._restore.append((module, name, original))

    def _install(self, module: str, path: str, make):
        found = _resolve(module, path)
        if found is None:
            if module in sys.modules:
                self.missing.append(f"{module}:{path}")
            return
        owner, attr = found
        original = vars(owner)[attr]
        self._replace(owner, attr, original, make(original))

    def __enter__(self):
        for name, module, path in SPANS:
            observe = self._observe_zero if name == "expr.is_zero" else None
            self._install(module, path, lambda fn: self._span(name, fn, observe))
        for name, module, path in COUNTERS:
            self._install(module, path, lambda fn: self._counter(name, fn))
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None:
            original = integrate.quad
            integrate.quad = self._quad(original)
            self._restore.append((integrate, "quad", original))
        return self

    def __exit__(self, *exc):
        self.recording = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures over everything recorded."""
        totals = self_times(self.spans)
        out: dict[str, float] = {}
        for name in CALLS_AND_SELF:
            calls, own = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = totals.get(name, (0, 0.0))[1]
        for name in COUNT_ONLY:
            out[name] = self.counts.get(name, 0)
        out["expr.is_zero.sampled_frac"] = (
            self.zero_sampled / self.zero_tests if self.zero_tests else 0.0
        )
        return out
