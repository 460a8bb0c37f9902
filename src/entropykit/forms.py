"""Differential forms with symbolic coefficients: wedge, d, pullback, and
the integrability/non-degeneracy predicates (Frobenius, contact, integrating
factor, contact symmetry).

Forms are stored sparsely: a degree-k form keeps coefficients only on
strictly increasing k-tuples of coordinate indices.  Verdicts carry a
confidence flag because transcendental coefficients make exact zero testing
inconclusive; CERTAIN means every underlying zero test was structural,
SAMPLED means at least one relied on random-point evaluation.  Every
residual check (here and in thermo) reduces its verdict to "does each of
these coefficients vanish?" and decides CERTAIN vs SAMPLED in one place,
first_nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .expr import (
    Chart,
    Expr,
    ExprError,
    ZeroTestConfig,
    DEFAULT_ZERO_CONFIG,
    ZeroVerdict,
    is_zero,
    sample_values,
)


class Confidence(Enum):
    CERTAIN = "certain"
    SAMPLED = "sampled"


def first_nonzero(
    items: Iterable[tuple[object, Expr]],
    config: ZeroTestConfig,
    confidence: Confidence = Confidence.CERTAIN,
):
    """(witness, confidence) for (key, coefficient) pairs tested in order.

    The first certainly nonzero coefficient is the witness (key, coefficient)
    and the verdict is CERTAIN, whatever came before.  When every coefficient
    vanishes the witness is None and the verdict keeps the confidence so far,
    lowered to SAMPLED if any zero test sampled.  Nothing after the witness
    is tested, nor built when items is a generator.
    """
    for key, coeff in items:
        r = is_zero(coeff, config)
        if r.verdict is ZeroVerdict.CERTAIN_NONZERO:
            return (key, coeff), Confidence.CERTAIN
        if not r.certain:
            confidence = Confidence.SAMPLED
    return None, confidence


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
    that arithmetic, wedge and d build from other forms come from
    Form._built, which skips those checks (its inputs passed them) and only
    drops zero coefficients.
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
        out: dict[tuple[int, ...], Expr] = {}
        for li, lc in self.coeffs.items():
            for ri, rc in other.coeffs.items():
                merged = _merge_indices(li, ri)
                if merged is None:
                    continue
                sign, idx = merged
                piece = lc * rc if sign > 0 else -(lc * rc)
                old = out.get(idx)
                out[idx] = piece if old is None else old + piece
        return Form._built(self.chart, self.degree + other.degree, out)

    def d(self) -> "Form":
        """Exterior derivative."""
        chart = self.chart
        out: dict[tuple[int, ...], Expr] = {}
        for idx, coeff in self.coeffs.items():
            for j, name in enumerate(chart.coords):
                dc = coeff.diff(name)
                if dc.is_zero_expr():
                    continue
                merged = _merge_indices((j,), idx)
                if merged is None:
                    continue
                sign, new_idx = merged
                piece = dc if sign > 0 else -dc
                old = out.get(new_idx)
                out[new_idx] = piece if old is None else old + piece
        return Form._built(chart, self.degree + 1, out)

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


def wedge(a: Form, b: Form) -> Form:
    return a.wedge(b)


@dataclass(frozen=True)
class SmoothMap:
    """Map between charts given by one source-chart expression per target
    coordinate; parameters pass through by name."""

    source: Chart
    target: Chart
    components: Mapping[str, Expr]

    def __post_init__(self):
        comps = dict(self.components)
        if set(comps) != set(self.target.coords):
            raise ExprError("smooth map must define every target coordinate")
        for name, e in comps.items():
            if e.chart != self.source:
                raise ExprError(f"component for {name!r} is not on the source chart")
        object.__setattr__(self, "components", comps)

    @classmethod
    def identity(cls, chart: Chart) -> "SmoothMap":
        return cls(chart, chart, {n: chart.var(n) for n in chart.coords})

    def __call__(self, name: str) -> Expr:
        return self.components[name]

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self ∘ inner (apply inner first)."""
        if inner.target != self.source:
            raise ExprError("charts do not line up for composition")
        mapping = dict(inner.components)
        return SmoothMap(
            inner.source,
            self.target,
            {n: e.subs(mapping, inner.source) for n, e in self.components.items()},
        )

    def evaluate(self, env) -> dict:
        return {n: self.components[n].evaluate(env) for n in self.target.coords}


def pullback(f: SmoothMap, a: Form) -> Form:
    """Pull a form on f's target chart back to f's source chart."""
    if a.chart != f.target:
        raise ExprError("form does not live on the map's target chart")
    src = f.source
    mapping = dict(f.components)
    if a.degree == 0:
        return Form.from_expr(a.coefficient(()).subs(mapping, src))
    # Only the target coordinates the form's index tuples name are
    # differentiated, each partial once (Form drops zero coefficients).
    differentials = {
        i: Form.one_form(
            src, {x: f.components[f.target.coords[i]].diff(x) for x in src.coords}
        )
        for i in sorted({i for idx in a.coeffs for i in idx})
    }
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


@dataclass(frozen=True)
class FrobeniusResult:
    status: FrobeniusStatus
    confidence: Confidence
    obstruction: Form  # q ∧ dq
    witness: Optional[tuple[tuple[int, ...], Expr]] = None

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


@dataclass(frozen=True)
class ContactResult:
    status: ContactStatus
    confidence: Confidence
    top_coefficient: Expr
    witness: Optional[dict] = None

    @property
    def contact(self) -> bool:
        return self.status is ContactStatus.CONTACT


def _nonvanishing(e: Expr, config: ZeroTestConfig):
    """(verdict, confidence, witness): does e stay away from zero on samples?

    A nonzero constant or a single monomial never vanishes on the positive
    domain; everything else is sampled.
    """
    if e.is_zero_expr():
        return False, Confidence.CERTAIN, None
    if len(e.terms) == 1 and all(isinstance(b, str) for b, _ in e.terms[0].factors):
        return True, Confidence.CERTAIN, None
    for point, value in sample_values(e, config):
        if abs(value) <= config.tol:
            return False, Confidence.SAMPLED, point
    return True, Confidence.SAMPLED, None


def contact_check(theta: Form, n: int, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG) -> ContactResult:
    """Non-degeneracy of a candidate contact form: θ ∧ (dθ)^n ≠ 0 on a
    (2n+1)-dimensional chart."""
    if theta.degree != 1:
        raise ValueError("contact_check expects a 1-form")
    if theta.chart.dimension != 2 * n + 1:
        raise ValueError(
            f"chart dimension {theta.chart.dimension} does not match 2n+1 for n={n}"
        )
    dtheta = theta.d()
    power = theta
    for _ in range(n):
        power = power.wedge(dtheta)
    top = power.coefficient(tuple(range(theta.chart.dimension)))
    ok, confidence, witness = _nonvanishing(top, config)
    status = ContactStatus.CONTACT if ok else ContactStatus.DEGENERATE
    return ContactResult(status, confidence, top, witness)


class FactorStatus(Enum):
    OK = "OK"
    FAIL = "FAIL"
    SINGULAR_FACTOR = "SINGULAR_FACTOR"


@dataclass(frozen=True)
class IntegratingFactorResult:
    status: FactorStatus
    confidence: Confidence
    residual: Optional[Form] = None
    witness: Optional[object] = None

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


@dataclass(frozen=True)
class DarbouxShape:
    """Result of the literal canonical-shape test θ = dX₀ − Σ σ_i P_i dX_i."""

    canonical: bool
    potential: Optional[str] = None
    pairs: tuple = ()  # (momentum name, base name, sign)
    reason: Optional[str] = None


def darboux_shape(theta: Form) -> DarbouxShape:
    """Verify that a 1-form is already in canonical contact shape.

    Exactly one coefficient must be the constant 1 (the potential
    differential); every other nonzero coefficient must be ± a bare
    momentum coordinate, with potential, base and momentum roles disjoint
    and each momentum used once.  No coordinate search is attempted.
    """
    if theta.degree != 1:
        raise ValueError("darboux_shape expects a 1-form")
    chart = theta.chart
    potential = None
    pairs = []
    momenta = set()
    bases = set()
    for idx, coeff in theta.items():
        name = chart.coords[idx[0]]
        if coeff.as_constant() == 1:
            if potential is not None:
                return DarbouxShape(False, reason="two unit coefficients")
            potential = name
            continue
        c = coeff.as_constant()
        if c is not None:
            return DarbouxShape(False, reason=f"constant coefficient on d{name}")
        if len(coeff.terms) != 1:
            return DarbouxShape(False, reason=f"composite coefficient on d{name}")
        term = coeff.terms[0]
        if (
            term.coeff not in (1, -1)
            or len(term.factors) != 1
            or not isinstance(term.factors[0][0], str)
            or term.factors[0][1] != 1
        ):
            return DarbouxShape(False, reason=f"coefficient on d{name} is not ± a coordinate")
        momentum = term.factors[0][0]
        if momentum not in chart.coords:
            return DarbouxShape(False, reason=f"{momentum!r} is a parameter, not a coordinate")
        if momentum in momenta:
            return DarbouxShape(False, reason=f"momentum {momentum!r} used twice")
        momenta.add(momentum)
        bases.add(name)
        pairs.append((momentum, name, -int(term.coeff)))
    if potential is None:
        return DarbouxShape(False, reason="no unit potential differential")
    roles = {potential} | momenta | bases
    if potential in momenta or potential in bases or momenta & bases:
        return DarbouxShape(False, reason="coordinate roles overlap")
    if len(roles) != chart.dimension:
        return DarbouxShape(False, reason="coordinates left over outside the shape")
    return DarbouxShape(True, potential, tuple(sorted(pairs)))


class SymmetryStatus(Enum):
    SYMMETRY = "SYMMETRY"
    NOT_SYMMETRY = "NOT_SYMMETRY"


@dataclass(frozen=True)
class SymmetryResult:
    status: SymmetryStatus
    confidence: Confidence
    factor: Optional[Expr] = None
    witness: Optional[object] = None

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
