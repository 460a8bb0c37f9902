"""Command-line front end: load a system document, run a named check, and
emit a deterministic report.

Exit codes: 0 all verdicts pass, 1 at least one failure, 2 usage or parse
error, 3 no failures but at least one verdict rests on sampling
(probably-zero) rather than structural certainty.

CERTAIN or SAMPLED comes from expr.first_nonzero, or from
forms._nonvanishing, which samples a factor only where expr.term_sign
cannot prove it one-signed; a verdict's status comes from one place,
Report.set_status.

A command imports what it calls from forms, thermo, access or galois when
it runs, and documents loads the layers its sections build, so a run loads
only what its command and document reach.  Each such import names the
module (``from .thermo import ...``): ``from . import thermo`` would load
it unseen by ``-X importtime``, whose log the layer tests read.  No module
imports this one: run as ``python -m entropykit.cli`` it is ``__main__``,
and a second import would build it twice.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .documents import (
    CONFIG_KEYS, INPUT_ERRORS, Document, DocumentError, Settings, at_line, load_document,
    read_text,
)
from .expr import Confidence

if TYPE_CHECKING:
    from .galois import MonotoneMap

COMMANDS = {}


def command(name):
    def register(fn):
        COMMANDS[name] = fn
        return fn

    return register


class UsageError(Exception):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class Report:
    def __init__(self):
        self.blocks = []  # list of (status, [(key, value), ...])

    def block(self, check: str):
        self.blocks.append([None, [("check", check)]])
        return len(self.blocks) - 1

    def add(self, idx: int, key: str, value):
        self.blocks[idx][1].append((key, _fmt(value)))

    def set_status(self, idx: int, ok: bool, *confidences):
        """The one rule for a verdict's status: inconclusive (exit 3) if any
        confidence it rests on is SAMPLED, whether it passes or fails; else
        pass or fail by ok.  A None confidence, a check not run, counts for
        nothing."""
        sampled = Confidence.SAMPLED in confidences
        self.blocks[idx][0] = "inconclusive" if sampled else "pass" if ok else "fail"

    def exit_code(self) -> int:
        statuses = {s for s, _ in self.blocks}
        return 1 if "fail" in statuses else 3 if "inconclusive" in statuses else 0

    def render(self, fmt: str) -> str:
        sections = [
            [f"{k}: {v}" for k, v in rows] + ([f"status: {status}"] if status else [])
            for status, rows in self.blocks
        ]
        sections.append([
            "check: summary",
            f"blocks: {len(self.blocks)}",
            f"failures: {sum(1 for s, _ in self.blocks if s == 'fail')}",
            f"exit: {self.exit_code()}",
        ])
        rule = ["-" * 40] if fmt == "text" else []
        return "\n\n".join("\n".join(rule + lines) for lines in sections) + "\n"


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _thermo_parts(doc: Document):
    _require(doc.thermo_chart is not None, "document has no thermodynamic chart")
    _require(doc.spec is not None, "document has no [spec] section")
    return doc.thermo_chart, doc.spec


# ---------------------------------------------------------------------------
# form-level commands
# ---------------------------------------------------------------------------


def _declared_forms(doc: Document):
    if doc.forms:
        return list(doc.forms.items())
    if doc.thermo_chart is not None:
        from .thermo import first_law_form

        return [("theta", first_law_form(doc.thermo_chart))]
    raise UsageError("document declares no forms")


def _form_fault(doc: Document, name: str, message: str) -> DocumentError:
    """message about declared form name, at its line (a thermo chart's
    derived θ is a 1-form on 2n+1 coordinates, so it meets none)."""
    return DocumentError(f"form {name}: {message}", doc.path, doc.lines["form", name])


@command("contact-check")
def cmd_contact_check(doc: Document, settings: Settings, report: Report):
    from .forms import contact_check

    for name, form in _declared_forms(doc):
        dim = form.chart.dimension
        if dim % 2 == 0:
            raise _form_fault(doc, name, f"chart dimension {dim} is even; no contact rank")
        if form.degree != 1:
            raise _form_fault(doc, name, "not a 1-form")
        result = contact_check(form, (dim - 1) // 2, settings.zero)
        idx = report.block("contact-check")
        report.add(idx, "form", name)
        report.add(idx, "verdict", result.status.value)
        report.add(idx, "certainty", result.confidence.value)
        report.add(idx, "top-coefficient", result.top_coefficient)
        report.set_status(idx, result.contact, result.confidence)


@command("frobenius")
def cmd_frobenius(doc: Document, settings: Settings, report: Report):
    from .forms import frobenius_check

    for name, form in _declared_forms(doc):
        if form.degree != 1:
            raise _form_fault(doc, name, "not a 1-form")
        result = frobenius_check(form, settings.zero)
        idx = report.block("frobenius")
        report.add(idx, "form", name)
        report.add(idx, "verdict", result.status.value)
        report.add(idx, "certainty", result.confidence.value)
        report.add(idx, "obstruction", result.obstruction)
        report.set_status(idx, result.integrable, result.confidence)


@command("legendre-check")
def cmd_legendre_check(doc: Document, settings: Settings, report: Report):
    from .thermo import check_legendre

    tc, spec = _thermo_parts(doc)
    result = check_legendre(tc, spec, settings.zero)
    idx = report.block("legendre-check")
    report.add(idx, "verdict", "OK" if result.ok else "FAIL")
    report.add(idx, "certainty", result.confidence.value)
    for name in tc.intensives:
        report.add(idx, f"state-equation {name}", result.equations_of_state[name])
    if result.energy is not None:
        key = "reconstructed-energy" if result.reconstructed else "energy"
        report.add(idx, key, result.energy)
    for pi, xj, pj, xi, residual in result.failures:
        report.add(
            idx,
            "mixed-partial-failure",
            f"∂{pi}/∂{xj} vs ∂{pj}/∂{xi}: residual {residual}",
        )
    report.set_status(idx, result.ok, result.confidence)


@command("maxwell")
def cmd_maxwell(doc: Document, settings: Settings, report: Report):
    from .thermo import maxwell_relations

    _require(doc.thermo_chart is not None, "document has no thermodynamic chart")
    identities = maxwell_relations(doc.thermo_chart, doc.spec, settings.zero)
    for ident in identities:
        idx = report.block("maxwell")
        report.add(idx, "identity", ident.text)
        report.add(idx, "verdict", ident.verdict or "GENERIC")
        if ident.confidence is not None:
            report.add(idx, "certainty", ident.confidence.value)
        report.set_status(idx, ident.verdict != "FAIL", ident.confidence)


@command("potential")
def cmd_potential(doc: Document, settings: Settings, report: Report):
    from .thermo import legendre_transform

    _require(doc.thermo_chart is not None, "document has no thermodynamic chart")
    _require(bool(doc.transforms), "document has no [transform] section")
    for swaps, new_name in doc.transforms:
        result = legendre_transform(doc.thermo_chart, list(swaps), new_name=new_name)
        idx = report.block("potential")
        report.add(idx, "name", result.potential_name)
        report.add(idx, "potential", result.potential)
        report.add(idx, "form", result.form)
        report.add(idx, "contact", result.contact.status.value)
        report.add(idx, "symmetry", result.symmetry.status.value)
        if result.symmetry.factor is not None:
            report.add(idx, "multiplier", result.symmetry.factor)
        ok = result.contact.contact and result.symmetry.symmetry
        report.set_status(idx, ok, result.contact.confidence, result.symmetry.confidence)


# ---------------------------------------------------------------------------
# numeric path commands
# ---------------------------------------------------------------------------


def _path_verdicts(doc: Document, settings: Settings, verdict):
    """(name, verdict on it) for each declared path in turn, the verdict
    given the run's tol (None where no tol is given).  A parameter
    with no value is placed at the first such parameter's line, and an error
    met on a path, a value past the float range too, at the path's line."""
    tc, spec = _thermo_parts(doc)
    _require(bool(doc.paths), "document has no [paths] section")
    missing = sorted(k for k, v in doc.param_values.items() if v is None)
    if missing:
        raise DocumentError(
            f"numeric command needs values for parameters {missing}",
            doc.path, min(doc.lines["param", k] for k in missing),
        )
    params = dict(doc.param_values)
    for name, path in doc.paths.items():
        with at_line(doc, doc.lines["path", name], f"path {name}: "):
            result = verdict(tc, spec, path, params, settings.given.get("tol"))
        yield name, result


@command("path")
def cmd_path(doc: Document, settings: Settings, report: Report):
    from .thermo import first_law_balance

    for name, balance in _path_verdicts(doc, settings, first_law_balance):
        idx = report.block("path")
        report.add(idx, "path", name)
        report.add(idx, "delta-energy", balance.delta_energy)
        report.add(idx, "delta-heat", balance.delta_heat)
        report.add(idx, "delta-work", balance.delta_work)
        report.add(idx, "balance-residual", balance.residual)
        report.set_status(idx, balance.ok)


@command("cycle-audit")
def cmd_cycle_audit(doc: Document, settings: Settings, report: Report):
    from .thermo import cycle_audit

    for name, audit in _path_verdicts(doc, settings, cycle_audit):
        idx = report.block("cycle-audit")
        report.add(idx, "cycle", name)
        report.add(idx, "heat", audit.heat)
        report.add(idx, "work", audit.work)
        report.add(idx, "balance-residual", audit.balance_residual)
        report.add(idx, "balance", "OK" if audit.balance_ok else "FAIL")
        report.add(idx, "heat-sample-min", audit.heat_sample_min)
        report.add(
            idx, "kelvin", "KELVIN_VIOLATION" if audit.kelvin_violation else "OK"
        )
        for leg in audit.legs:
            claim = f" claim={leg.claim}" if leg.claim else ""
            honored = (
                ""
                if leg.claim_honored is None
                else f" claim-honored={'yes' if leg.claim_honored else 'no'}"
            )
            report.add(
                idx,
                f"leg {leg.index}",
                f"max|Q|={_fmt(leg.max_abs_heat)}{claim}{honored}",
            )
        dishonored = any(leg.claim_honored is False for leg in audit.legs)
        ok = audit.balance_ok and not audit.kelvin_violation and not dishonored
        report.set_status(idx, ok)


# ---------------------------------------------------------------------------
# order-theoretic commands
# ---------------------------------------------------------------------------


def _relation(doc: Document):
    _require(doc.relation is not None, "document has no [relation] section")
    return doc.relation


@command("axioms")
def cmd_axioms(doc: Document, settings: Settings, report: Report):
    from .access import AxiomStatus, check_axioms

    rel = _relation(doc)
    _require(bool(doc.spaces), "document has no [states] section")
    result = check_axioms(rel, list(doc.spaces.values()), settings.axiom)
    for axiom in result.results:
        idx = report.block("axiom")
        report.add(idx, "axiom", axiom.name)
        report.add(idx, "verdict", axiom.status.value)
        if axiom.witness is not None:
            report.add(idx, "witness", ", ".join(str(w) for w in axiom.witness))
        for caveat in axiom.caveats:
            report.add(idx, "caveat", caveat)
        report.set_status(idx, axiom.status is not AxiomStatus.FAIL)


@command("ch")
def cmd_ch(doc: Document, settings: Settings, report: Report):
    from .access import comparison_hypothesis

    rel = _relation(doc)
    _require(bool(doc.spaces), "document has no [states] section")
    for label, space in doc.spaces.items():
        result = comparison_hypothesis(rel, space)
        idx = report.block("comparison-hypothesis")
        report.add(idx, "space", label)
        report.add(idx, "verdict", "TOTAL" if result.total else "NOT_TOTAL")
        for x, y in result.incomparable:
            report.add(idx, "incomparable", f"{x} vs {y}")
        report.set_status(idx, result.total)


@command("entropy-construct")
def cmd_entropy_construct(doc: Document, settings: Settings, report: Report):
    from .access import ConstructionImpossible, answer_table, construct_entropy, verify_entropy

    rel = _relation(doc)
    _require(bool(doc.spaces), "document has no [states] section")
    for label, space in doc.spaces.items():
        idx = report.block("entropy-construct")
        report.add(idx, "space", label)
        le = answer_table(rel, space)
        try:
            S = construct_entropy(rel, space, settings.axiom, le)
        except ConstructionImpossible as err:
            report.add(idx, "verdict", "CONSTRUCTION_IMPOSSIBLE")
            report.add(idx, "witness", ", ".join(str(w) for w in err.witness))
            report.set_status(idx, False)
            continue
        report.add(idx, "method", S.method)
        if S.degenerate:
            report.add(idx, "degenerate", "yes")
        if S.grid_step is not None:
            report.add(idx, "grid-step", S.grid_step)
        for name in space.names():
            report.add(idx, f"S({name})", S.values[name])
        verdict = verify_entropy(S, rel, space, settings.axiom, le)
        report.add(idx, "verified", "yes" if verdict.ok else "no")
        report.set_status(idx, verdict.ok)


@command("entropy-verify")
def cmd_entropy_verify(doc: Document, settings: Settings, report: Report):
    from .access import verify_entropy

    rel = _relation(doc)
    _require(bool(doc.entropies), "document has no [entropy] section")
    for name, (label, S) in doc.entropies.items():
        result = verify_entropy(S, rel, doc.spaces[label], settings.axiom)
        idx = report.block("entropy-verify")
        report.add(idx, "entropy", name)
        report.add(idx, "space", label)
        for part in (result.monotonicity, result.additivity, result.extensivity):
            value = part.status.value
            if part.witness is not None:
                value += f" ({', '.join(str(w) for w in part.witness)})"
            report.add(idx, part.name, value)
        report.set_status(idx, result.ok)


@command("calibrate")
def cmd_calibrate(doc: Document, settings: Settings, report: Report):
    from .access import calibrate

    _require(bool(doc.entropies), "document has no [entropy] section")
    _require(doc.cross is not None, "document has no [cross] section")
    if doc.cross.universe() is None:  # an oracle: no finite set of states
        message = "calibrate needs [cross] edges, not an oracle"
        raise DocumentError(message, doc.path, doc.lines["oracle", "cross"])
    systems = [
        (doc.spaces[label], S) for label, S in doc.entropies.values()
    ]
    valued = {space.label for space, _ in systems}
    for label in doc.spaces:  # each space's states are all cross nodes
        if label not in valued:
            message = f"space {label!r} has no entropy function"
            raise DocumentError(message, doc.path, doc.lines["space", label])
    result = calibrate(systems, doc.cross, margin=settings.margin)
    idx = report.block("calibrate")
    report.add(idx, "verdict", "FEASIBLE" if result.ok else "INFEASIBLE")
    if result.ok:
        for (space, _), (a, b) in zip(systems, result.coefficients):
            report.add(idx, f"a({space.label})", a)
            report.add(idx, f"B({space.label})", b)
    else:
        for item in result.witness:
            report.add(idx, "conflict", item)
    report.set_status(idx, result.ok)


# ---------------------------------------------------------------------------
# categorical commands
# ---------------------------------------------------------------------------


def _poset_maps(doc: Document, names) -> list[MonotoneMap]:
    """The named maps, each checked once between posets each built once; a
    fault is raised at the line that declares it."""
    from .galois import MonotoneMap, Poset

    posets = {}
    maps = []
    for name in names:
        _require(name in doc.maps, f"no map named {name!r}")
        src, dst, mapping = doc.maps[name]
        line = doc.lines["map", name]
        for end in (src, dst):
            if end not in doc.posets:
                raise DocumentError(f"no poset named {end!r}", doc.path, line)
        for end in (src, dst):
            if end not in posets:
                with at_line(doc, doc.lines["poset", end]):
                    posets[end] = Poset(*doc.posets[end])
        with at_line(doc, line):
            maps.append(MonotoneMap(posets[src], posets[dst], mapping))
    return maps


@command("galois")
def cmd_galois(doc: Document, settings: Settings, report: Report):
    from .galois import check_galois, closure_report

    F, G = _poset_maps(doc, ["F", "G"])
    result = check_galois(F, G)
    idx = report.block("galois")
    report.add(idx, "verdict", "PASS" if result.ok else "FAIL")
    if result.ok:
        report.add(idx, "unit", "OK" if result.unit_ok else "FAIL")
        report.add(idx, "counit", "OK" if result.counit_ok else "FAIL")
        closure = closure_report(F, G)
        report.add(idx, "closure-operator", "OK" if closure.ok else "FAIL")
    else:
        a, b, direction = result.witness
        report.add(idx, "witness", f"a={a}, b={b}: {direction}")
    report.set_status(idx, result.ok)


@command("adjoint")
def cmd_adjoint(doc: Document, settings: Settings, report: Report):
    from .galois import check_galois, right_adjoint

    # a declared G is checked as galois checks it, though the search replaces it
    F = _poset_maps(doc, ["F", "G"] if "G" in doc.maps else ["F"])[0]
    result = right_adjoint(F)
    idx = report.block("adjoint")
    if not result.found:
        report.add(idx, "verdict", "NONE")
        report.add(idx, "witness", result.witness)
        report.set_status(idx, False)
        return
    report.add(idx, "verdict", "FOUND")
    for b in result.map.source.carrier:
        report.add(idx, f"G({b})", result.map(b))
    check = check_galois(F, result.map)
    report.add(idx, "galois", "PASS" if check.ok else "FAIL")
    report.set_status(idx, check.ok)


@command("landauer")
def cmd_landauer(doc: Document, settings: Settings, report: Report):
    from .galois import MapError, landauer_check

    _require(len(doc.entropies) >= 2, "landauer needs two entropy systems")
    _require("F" in doc.maps and "G" in doc.maps, "landauer needs maps F and G")
    (label1, s1), (label2, s2) = list(doc.entropies.values())[:2]
    for name, ends in (("F", (label1, label2)), ("G", (label2, label1))):
        if doc.maps[name][:2] != ends:
            message = "maps F and G must run between the two entropy spaces"
            raise DocumentError(message, doc.path, doc.lines["map", name])
    systems = (doc.spaces[label1], s1), (doc.spaces[label2], s2)
    try:
        result = landauer_check(*systems, doc.maps["F"][2], doc.maps["G"][2])
    except MapError as err:
        raise DocumentError(str(err), doc.path, doc.lines["map", err.name]) from None
    idx = report.block("landauer")
    report.add(idx, "verdict", "PASS" if result.ok else "FAIL")
    if result.stage:
        report.add(idx, "stage", result.stage)
    if result.witness is not None:
        report.add(idx, "witness", ", ".join(str(w) for w in result.witness))
    for state, s_abstract, s_real in result.rows:
        report.add(idx, f"realization-entropy {state}", f"abstract={s_abstract} realized={s_real}")
    report.set_status(idx, result.ok)


# ---------------------------------------------------------------------------
# batch mode and entry point
# ---------------------------------------------------------------------------


def _run_single(command_name: str, doc: Document, flags: Settings, report: Report) -> None:
    idx = report.block("document")
    report.add(idx, "path", doc.path)
    report.add(idx, "command", command_name)
    COMMANDS[command_name](doc, flags.under(doc.config), report)


# Errors that report a bad input or document; anything else is a defect.
# INPUT_ERRORS covers every layer's errors without loading a layer.
_INPUT_ERRORS = (UsageError, DocumentError, OSError, *INPUT_ERRORS)


def _error_message(err: Exception) -> str:
    """err as one line: a line break in its text (QUADPACK's messages have
    several) becomes one space with the blanks around it.  Running out of
    memory is no defect of the program: it reads "out of memory"."""
    if isinstance(err, _INPUT_ERRORS):
        text = str(err)
    elif isinstance(err, MemoryError):
        text = "out of memory"
    else:
        text = f"internal error: {type(err).__name__}" + (f": {err}" if str(err) else "")
    return re.sub(r"[ \t]*\n[ \t]*", " ", text)


def _run_batch(manifest_path: str, flags: Settings, fmt: str, out) -> int:
    """Run each manifest entry in turn.  Each document is read and parsed
    once, at the first entry that names its path, and later entries run on
    the same Document; one that fails to load is not kept, so each entry
    that names it reports the same error."""
    base = os.path.dirname(manifest_path)
    entries = []
    # lines as a text file yields them: a form feed breaks no line here
    lines = io.StringIO(read_text(manifest_path), newline=None)
    for line_no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            message = f"manifest line needs 'COMMAND DOC EXPECTED_EXIT': {body!r}"
            raise DocumentError(message, manifest_path, line_no)
        try:
            expected = int(parts[2])
        except ValueError:
            message = f"expected exit must be an integer, got {parts[2]!r}"
            raise DocumentError(message, manifest_path, line_no) from None
        entries.append((parts[0], os.path.join(base, parts[1]), expected))
    docs: dict[str, Document] = {}  # entry's document path -> its parse
    all_ok = True
    chunks = []
    for command_name, doc_path, expected in entries:
        report = Report()
        try:
            _require(command_name in COMMANDS, f"unknown command {command_name!r}")
            if doc_path not in docs:
                docs[doc_path] = load_document(doc_path)
            _run_single(command_name, docs[doc_path], flags, report)
            code = report.exit_code()
        except Exception as err:  # one failing entry must not end the batch
            idx = report.block("error")
            report.add(idx, "message", _error_message(err))
            code = 2
        matched = code == expected
        all_ok = all_ok and matched
        chunks.append(report.render(fmt))
        tail = (
            f"check: batch-entry\ndocument: {os.path.basename(doc_path)}"
            f"\ncommand: {command_name}\nexit: {code}\nexpected: {expected}"
            f"\nmatched: {'yes' if matched else 'no'}\n"
        )
        chunks.append(tail)
    out.write("\n".join(chunks))
    out.write(f"\ncheck: batch-summary\nentries: {len(entries)}"
              f"\nall-matched: {'yes' if all_ok else 'no'}\n")
    return 0 if all_ok else 1


def lambda_grid(text: str) -> tuple[Fraction, ...]:
    """--lambda-grid's comma-separated scales; argparse names this function
    in the usage error for a bad value."""
    try:
        return tuple(Fraction(v) for v in text.split(","))
    except ZeroDivisionError:  # argparse turns only ValueError into a usage error
        raise ValueError(text) from None


@functools.cache  # every command is registered at import; parsing leaves it as built
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropykit",
        description="Symbolic thermodynamics checks over system documents",
    )
    parser.add_argument("command", choices=sorted([*COMMANDS, "batch"]))
    parser.add_argument("document", help="system document (or manifest for batch)")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--lambda-grid", type=lambda_grid, default=None)
    parser.add_argument("--eps-steps", type=int, default=None)
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--out", default=None)
    return parser


def run(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    sink = io.StringIO() if opts.out else out
    try:
        if opts.seed is None:
            seed = os.environ.get("ENTROPYKIT_SEED", "0")
            try:
                opts.seed = int(seed)
            except ValueError:
                raise UsageError(f"ENTROPYKIT_SEED must be an integer, got {seed!r}") from None
        given = {k: v for k, v in vars(opts).items() if k in CONFIG_KEYS and v is not None}
        # every command refuses a bad flag before reading input
        flags = Settings(opts.seed, given).check()
        if opts.command == "batch":
            code = _run_batch(opts.document, flags, opts.format, sink)
        else:
            report = Report()
            _run_single(opts.command, load_document(opts.document), flags, report)
            sink.write(report.render(opts.format))
            code = report.exit_code()
    except Exception as err:  # a defect gets a message, as in batch, not a traceback
        sink.write(f"error: {_error_message(err)}\n")
        code = 2
    if opts.out:
        try:
            with open(opts.out, "w", encoding="utf-8") as handle:
                handle.write(sink.getvalue())
        except OSError as err:
            out.write(f"error: {err}\n")
            return 2
    return code


def main():  # pragma: no cover - thin wrapper
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
