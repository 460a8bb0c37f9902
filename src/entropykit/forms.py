"""Differential forms with symbolic coefficients: wedge, d, pullback, and
the integrability/non-degeneracy predicates (Frobenius, contact, integrating
factor, contact symmetry).

Forms are stored sparsely: a degree-k form keeps coefficients only on
strictly increasing k-tuples of coordinate indices.  wedge and d collect
every piece that lands on an index and merge them into its coefficient once;
d differentiates a coefficient, and pullback a map component, only in the
coordinates it contains (the others add nothing).  contact_check's chain
θ ∧ (dθ)^k carries only the entries that can still reach the top index.

Verdicts carry a confidence flag because transcendental coefficients make
exact zero testing inconclusive; CERTAIN means every underlying zero test
was structural, SAMPLED means at least one relied on random-point
evaluation.  Every residual check (here and in thermo) reduces its verdict
to "does each of these coefficients vanish?" and decides CERTAIN vs SAMPLED
in expr.first_nonzero.  A factor that must not vanish (contact_check's top
coefficient, an integrating factor, a symmetry's multiplier) goes to
_nonvanishing, which is CERTAIN where expr.term_sign proves it one-signed
on the positive domain and samples it, SAMPLED, everywhere else.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Union

from .expr import (
    Chart,
    Confidence,
    Expr,
    ExprError,
    ZeroTestConfig,
    DEFAULT_ZERO_CONFIG,
    first_nonzero,
    record,
    sample_values,
    term_sign,
)


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Sign and sorted union of two increasing index tuples, None on overlap."""
    if set(left) & set(right):
        return None
    merged = left + right
    sign = 1
    # insertion sort, counting swaps
    lst = list(merged)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(lst)


class Form:
    """Antisymmetric differential form of fixed degree over a chart.

    Form(...) checks every index tuple and coefficient chart.  The forms
    that arithmetic, wedge, d and contact_check's chain build from other
    forms, thermo.first_law_form from its chart's coordinates and
    thermo.check_legendre's residual from its spec's base chart, come from
    Form._built (through Form._summed for wedge and d), which skips those
    checks (its inputs passed them) and only drops zero coefficients.
    """

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart: Chart, degree: int, coeffs: Mapping[tuple[int, ...], Expr]):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not match degree {degree}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing")
            if any(i < 0 or i >= chart.dimension for i in idx):
                raise ValueError(f"index tuple {idx} outside chart")
            if coeff.chart != chart:
                raise ExprError("coefficient on the wrong chart")
            if not coeff.is_zero_expr():
                clean[idx] = coeff
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _built(cls, chart: Chart, degree: int, coeffs: dict) -> "Form":
        """A form from valid index tuples and coefficients on chart."""
        out = object.__new__(cls)
        object.__setattr__(out, "chart", chart)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "coeffs", {i: c for i, c in coeffs.items() if c.terms})
        return out

    @classmethod
    def _summed(cls, chart: Chart, degree: int, pieces: dict) -> "Form":
        """A form whose coefficient at each index is the sum of its list of
        pieces, merged once."""
        return cls._built(chart, degree, {
            idx: es[0] if len(es) == 1 else Expr._sum(chart, es)
            for idx, es in pieces.items()
        })

    def __setattr__(self, *a):
        raise AttributeError("Form is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "Form":
        return cls(chart, degree, {})

    @classmethod
    def from_expr(cls, e: Expr) -> "Form":
        return cls(e.chart, 0, {(): e})

    @classmethod
    def d_coord(cls, chart: Chart, name: str) -> "Form":
        return cls(chart, 1, {(chart.index(name),): chart.one()})

    @classmethod
    def one_form(cls, chart: Chart, components: Mapping[str, Expr]) -> "Form":
        return cls(
            chart, 1, {(chart.index(n),): e for n, e in components.items()}
        )

    # -- basic structure ----------------------------------------------------

    def coefficient(self, names_or_indices) -> Expr:
        idx = tuple(
            self.chart.index(i) if isinstance(i, str) else i
            for i in names_or_indices
        )
        return self.coeffs.get(idx, self.chart.zero())

    def items(self):
        return sorted(self.coeffs.items())

    def is_zero_form(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.items() == other.items()
        )

    def __hash__(self):
        return hash((self.chart, self.degree, tuple(self.items())))

    def _check_mate(self, other: "Form"):
        if self.chart != other.chart:
            raise ExprError("chart mismatch between forms")
        if self.degree != other.degree:
            raise ValueError("degree mismatch between forms")

    def __add__(self, other: "Form") -> "Form":
        self._check_mate(other)
        merged = dict(self.coeffs)
        for idx, coeff in other.coeffs.items():
            old = merged.get(idx)
            merged[idx] = coeff if old is None else old + coeff
        return Form._built(self.chart, self.degree, merged)

    def __neg__(self) -> "Form":
        return Form._built(self.chart, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, factor: Union[Expr, int, Fraction]) -> "Form":
        if not isinstance(factor, Expr):
            factor = self.chart.const(factor)
        return Form._built(
            self.chart, self.degree, {i: factor * c for i, c in self.coeffs.items()}
        )

    def wedge(self, other: "Form") -> "Form":
        if self.chart != other.chart:
            raise ExprError("chart mismatch between forms")
        pieces: dict[tuple[int, ...], list[Expr]] = {}
        for li, lc in self.coeffs.items():
            for ri, rc in other.coeffs.items():
                merged = _merge_indices(li, ri)
                if merged is None:
                    continue
                sign, idx = merged
                piece = lc * rc
                pieces.setdefault(idx, []).append(piece if sign > 0 else -piece)
        return Form._summed(self.chart, self.degree + other.degree, pieces)

    def d(self) -> "Form":
        """Exterior derivative; a coordinate the coefficient does not
        contain adds nothing, so it is not differentiated."""
        chart = self.chart
        pieces: dict[tuple[int, ...], list[Expr]] = {}
        for idx, coeff in self.coeffs.items():
            symbols = coeff.free_symbols()
            for j, name in enumerate(chart.coords):
                if name not in symbols:
                    continue
                merged = _merge_indices((j,), idx)
                if merged is None:
                    continue
                dc = coeff.diff(name)
                if dc.is_zero_expr():
                    continue
                sign, new_idx = merged
                pieces.setdefault(new_idx, []).append(dc if sign > 0 else -dc)
        return Form._summed(chart, self.degree + 1, pieces)

    def __str__(self):
        if not self.coeffs:
            return "0"
        if self.degree == 0:
            return str(self.coeffs[()])
        parts = []
        for idx, coeff in self.items():
            basis = "∧".join(f"d{self.chart.coords[i]}" for i in idx)
            if len(coeff.terms) == 1:
                negative = coeff.terms[0].coeff < 0
                mag = -coeff if negative else coeff
                body = basis if mag.as_constant() == 1 else f"{mag}*{basis}"
                parts.append(("- " if negative else "+ ") + body)
            else:
                parts.append(f"+ ({coeff})*{basis}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


@record
class SmoothMap:
    """Map between charts given by one source-chart expression per target
    coordinate; parameters pass through by name."""

    def __init__(self, source: Chart, target: Chart, components: Mapping[str, Expr]):
        comps = dict(components)
        vars(self).update(source=source, target=target, components=comps)
        if set(comps) != set(target.coords):
            raise ExprError("smooth map must define every target coordinate")
        for name, e in comps.items():
            if e.chart != source:
                raise ExprError(f"component for {name!r} is not on the source chart")

    def __call__(self, name: str) -> Expr:
        return self.components[name]


def pullback(f: SmoothMap, a: Form) -> Form:
    """Pull a form on f's target chart back to f's source chart."""
    if a.chart != f.target:
        raise ExprError("form does not live on the map's target chart")
    src = f.source
    mapping = dict(f.components)
    # Only the target coordinates the form's index tuples name are
    # differentiated, each partial once and only in the source coordinates
    # the component contains (every other partial is exactly zero).
    differentials = {}
    for i in sorted({i for idx in a.coeffs for i in idx}):
        comp = f.components[f.target.coords[i]]
        symbols = comp.free_symbols()
        differentials[i] = Form.one_form(
            src, {x: comp.diff(x) for x in src.coords if x in symbols}
        )
    out = Form.zero(src, a.degree)
    for idx, coeff in a.coeffs.items():
        piece = Form.from_expr(coeff.subs(mapping, src))
        for i in idx:
            piece = piece.wedge(differentials[i])
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class FrobeniusStatus(Enum):
    INTEGRABLE = "INTEGRABLE"
    NOT_INTEGRABLE = "NOT_INTEGRABLE"


@record
class FrobeniusResult:
    def __init__(
        self,
        status: FrobeniusStatus,
        confidence: Confidence,
        obstruction: Form,  # q ∧ dq
        witness: Optional[tuple[tuple[int, ...], Expr]] = None,
    ):
        vars(self).update(
            status=status, confidence=confidence, obstruction=obstruction, witness=witness
        )

    @property
    def integrable(self) -> bool:
        return self.status is FrobeniusStatus.INTEGRABLE


def frobenius_check(q: Form, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG) -> FrobeniusResult:
    """Single-form Frobenius criterion: q admits an integrating factor iff
    q ∧ dq vanishes identically."""
    if q.degree != 1:
        raise ValueError("frobenius_check expects a 1-form")
    obstruction = q.wedge(q.d())
    witness, confidence = first_nonzero(obstruction.items(), config)
    status = FrobeniusStatus.INTEGRABLE if witness is None else FrobeniusStatus.NOT_INTEGRABLE
    return FrobeniusResult(status, confidence, obstruction, witness)


class ContactStatus(Enum):
    CONTACT = "CONTACT"
    DEGENERATE = "DEGENERATE"


@record
class ContactResult:
    def __init__(
        self,
        status: ContactStatus,
        confidence: Confidence,
        top_coefficient: Expr,
        witness: Optional[dict] = None,
    ):
        vars(self).update(
            status=status, confidence=confidence, top_coefficient=top_coefficient,
            witness=witness,
        )

    @property
    def contact(self) -> bool:
        return self.status is ContactStatus.CONTACT


def _nonvanishing(e: Expr, config: ZeroTestConfig):
    """(verdict, confidence, witness): does e stay away from zero?

    The zero expression vanishes, and an e whose terms give it one sign on
    the positive domain (expr.term_sign: a nonzero constant, or a sum of
    same-sign terms over coordinates, parameters, exp atoms and powers of
    positive bases) never does, both CERTAIN; everything else is sampled.
    """
    if e.is_zero_expr():
        return False, Confidence.CERTAIN, None
    if term_sign(e):
        return True, Confidence.CERTAIN, None
    for point, value in sample_values(e, config):
        if abs(value) <= config.tol:
            return False, Confidence.SAMPLED, point
    return True, Confidence.SAMPLED, None


def contact_check(theta: Form, n: int, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG) -> ContactResult:
    """Non-degeneracy of a candidate contact form: θ ∧ (dθ)^n ≠ 0 on a
    (2n+1)-dimensional chart.

    An index that no coefficient of dθ carries can reach the top index only
    through θ, so the chain keeps only the entries of θ and of each
    θ ∧ (dθ)^k whose index tuple holds every such index; the entries it
    drops could never reach the top index, and the ones it keeps get the
    same products in the same order."""
    if theta.degree != 1:
        raise ValueError("contact_check expects a 1-form")
    if theta.chart.dimension != 2 * n + 1:
        raise ValueError(
            f"chart dimension {theta.chart.dimension} does not match 2n+1 for n={n}"
        )
    chart = theta.chart
    dtheta = theta.d()
    needed = set(range(chart.dimension)).difference(*dtheta.coeffs)

    def reaching(form: Form) -> Form:
        kept = {i: c for i, c in form.coeffs.items() if needed.issubset(i)}
        return Form._built(chart, form.degree, kept)

    power = reaching(theta)
    for _ in range(n):
        power = reaching(power.wedge(dtheta))
    top = power.coefficient(tuple(range(chart.dimension)))
    ok, confidence, witness = _nonvanishing(top, config)
    status = ContactStatus.CONTACT if ok else ContactStatus.DEGENERATE
    return ContactResult(status, confidence, top, witness)


class FactorStatus(Enum):
    OK = "OK"
    FAIL = "FAIL"
    SINGULAR_FACTOR = "SINGULAR_FACTOR"


@record
class IntegratingFactorResult:
    def __init__(
        self,
        status: FactorStatus,
        confidence: Confidence,
        residual: Optional[Form] = None,
        witness: Optional[object] = None,
    ):
        vars(self).update(
            status=status, confidence=confidence, residual=residual, witness=witness
        )

    @property
    def ok(self) -> bool:
        return self.status is FactorStatus.OK


def verify_integrating_factor(
    q: Form, T: Expr, S: Expr, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG
) -> IntegratingFactorResult:
    """Check the decomposition q = T dS for a given factor and potential."""
    if q.degree != 1:
        raise ValueError("verify_integrating_factor expects a 1-form")
    ok, t_conf, witness = _nonvanishing(T, config)
    if not ok:
        return IntegratingFactorResult(
            FactorStatus.SINGULAR_FACTOR, t_conf, witness=witness
        )
    residual = q - Form.from_expr(S).d().scale(T)
    witness, confidence = first_nonzero(residual.items(), config, t_conf)
    status = FactorStatus.OK if witness is None else FactorStatus.FAIL
    return IntegratingFactorResult(status, confidence, residual, witness)


class SymmetryStatus(Enum):
    SYMMETRY = "SYMMETRY"
    NOT_SYMMETRY = "NOT_SYMMETRY"


@record
class SymmetryResult:
    def __init__(
        self,
        status: SymmetryStatus,
        confidence: Confidence,
        factor: Optional[Expr] = None,
        witness: Optional[object] = None,
    ):
        vars(self).update(status=status, confidence=confidence, factor=factor, witness=witness)

    @property
    def symmetry(self) -> bool:
        return self.status is SymmetryStatus.SYMMETRY


def contact_symmetry_check(
    phi: SmoothMap, omega: Form, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG
) -> SymmetryResult:
    """Does φ preserve the contact distribution, i.e. φ*ω = λ·ω with a
    non-vanishing multiplier λ?  The multiplier is recovered as a ratio of
    coefficients and cross-checked on every basis index."""
    if omega.degree != 1:
        raise ValueError("contact_symmetry_check expects a 1-form")
    if omega.is_zero_form():
        raise ValueError("the zero form has no contact distribution")
    if phi.source != omega.chart or phi.target != omega.chart:
        raise ExprError("map must be an endomap of the form's chart")
    pulled = pullback(phi, omega)

    def pivot_rank(item):
        idx, coeff = item
        if coeff.as_constant() is not None:
            return (0, idx)
        if len(coeff.terms) == 1:
            return (1, idx)
        return (2, idx)

    pivot_idx, pivot_coeff = min(omega.items(), key=pivot_rank)
    lam = pulled.coefficient(pivot_idx) * pivot_coeff ** Fraction(-1)
    ok, lam_conf, lam_witness = _nonvanishing(lam, config)
    if not ok:
        return SymmetryResult(
            SymmetryStatus.NOT_SYMMETRY, lam_conf, factor=lam,
            witness=("factor vanishes", lam_witness),
        )
    residuals = (
        (idx, pulled.coefficient(idx) - lam * omega.coefficient(idx))
        for idx in sorted(set(pulled.coeffs) | set(omega.coeffs))
    )
    witness, confidence = first_nonzero(residuals, config, lam_conf)
    status = SymmetryStatus.SYMMETRY if witness is None else SymmetryStatus.NOT_SYMMETRY
    return SymmetryResult(status, confidence, lam, witness)
