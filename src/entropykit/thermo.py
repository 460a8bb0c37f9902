"""Thermodynamic layer over the exterior calculus: First-Law contact form,
Legendre submanifolds and equations of state, Maxwell relations, potentials,
process-path integrals and Second-Law audits.

Sign convention, fixed once: θ = dX₀ − Σ σ_i P_i dX_i with the heat pair
entering as σ = +1 (so θ = dU − TdS + pdV on the standard chart) and
Q = σ_h P_h dX_h, W = −Σ_{i≠h} σ_i P_i dX_i, giving θ = dX₀ − Q + W.

A Legendre spec is the graph Φ(X) = (E(X), X, P(X)) over the extensive
coordinates, so `check_legendre` reads Φ*θ = Σ_i (∂E/∂X_i − σ_i P_i) dX_i
off it: on a potential spec (P_i = σ_i ∂E/∂X_i) that is the zero form by
construction, and on a state-equation spec one difference per pair.  Its
Maxwell identities ∂P_i/∂X_j = σ_iσ_j ∂P_j/∂X_i are, on a potential spec,
the symmetry of E's second derivatives (Schwarz's theorem), so they hold
with certainty and are never differentiated or zero-tested; only a
state-equation spec's identities are computed, and only they may sample.

Every path verdict takes one leg walk, `_walk`: it checks that the path
joins up in the chart's extensive coordinates (and, for a cycle, that the
ends this check returns meet), starts one `_Graph` of Φ's components, and
hands the verdict each leg with the compiled dt-coefficient of each form
pulled back along it.  The graph builds each state equation on its first
read, so a verdict builds only those its forms read, once each; and
`adiabatic_entropy_check` reads Φ*Q = σ_h P_h dX_h off it, with no
pullback.  The audits compare float samples with
SAMPLE_TOL and residuals with BALANCE_TOL; a run's tol replaces both.
Path integrals run `quadpack.qags`, a port of QUADPACK's QAGS
(Piessens, de Doncker-Kapenga, Überhuber and Kahaner, 1983) that gives the
same bits as scipy.integrate.quad.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .expr import (
    Chart,
    Confidence,
    DomainError,
    Expr,
    InputError,
    ZeroTestConfig,
    DEFAULT_ZERO_CONFIG,
    first_nonzero,
    ln,
    record,
)
from .forms import (
    ContactResult,
    ContactStatus,
    Form,
    SmoothMap,
    SymmetryResult,
    SymmetryStatus,
    verify_integrating_factor,
)


class ThermoError(InputError):
    pass


T_CHART_NAME = "t"


@record
class ThermoChart:
    """Energy coordinate plus (intensive, extensive, sign) pairs.

    heat names the pair carrying the heat form (the (T, S) pair on the
    standard chart); None means no heat bookkeeping is available.
    """

    def __init__(
        self,
        energy: str,
        pairs: tuple[tuple[str, str, int], ...],
        params: tuple[str, ...] = (),
        heat: Optional[int] = 0,
    ):
        pairs = tuple((p, x, int(s)) for p, x, s in pairs)
        vars(self).update(energy=energy, pairs=pairs, params=tuple(params), heat=heat)
        if not pairs:
            raise ThermoError("a thermodynamic chart needs at least one pair")
        for _, _, s in pairs:
            if s not in (1, -1):
                raise ThermoError("pair signs must be +1 or -1")
        if heat is not None and not 0 <= heat < len(pairs):
            raise ThermoError("heat pair index out of range")
        # Chart() validates uniqueness of all 2n+1 names.
        self.chart

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def extensives(self) -> tuple[str, ...]:
        return tuple(x for _, x, _ in self.pairs)

    @property
    def intensives(self) -> tuple[str, ...]:
        return tuple(p for p, _, _ in self.pairs)

    @cached_property
    def chart(self) -> Chart:
        return Chart((self.energy,) + self.extensives + self.intensives, self.params)

    @cached_property
    def base_chart(self) -> Chart:
        return Chart(self.extensives, self.params)

    @cached_property
    def t_chart(self) -> Chart:
        return Chart((T_CHART_NAME,), self.params)


def first_law_form(tc: ThermoChart) -> Form:
    """θ = dX₀ − Σ σ_i P_i dX_i on the full 2n+1 chart."""
    chart = tc.chart
    coeffs = {(chart.index(tc.energy),): chart.one()}
    for p, x, s in tc.pairs:
        coeffs[(chart.index(x),)] = chart.var(p) * -s
    return Form._built(chart, 1, coeffs)


def heat_form(tc: ThermoChart) -> Form:
    if tc.heat is None:
        raise ThermoError("chart does not designate a heat pair")
    p, x, s = tc.pairs[tc.heat]
    chart = tc.chart
    return Form.d_coord(chart, x).scale(chart.var(p) * s)


def work_form(tc: ThermoChart) -> Form:
    if tc.heat is None:
        raise ThermoError("chart does not designate a heat pair")
    chart = tc.chart
    w = Form.zero(chart, 1)
    for i, (p, x, s) in enumerate(tc.pairs):
        if i == tc.heat:
            continue
        w = w - Form.d_coord(chart, x).scale(chart.var(p) * s)
    return w


# ---------------------------------------------------------------------------
# Legendre specifications
# ---------------------------------------------------------------------------


@record
class LegendreSpec:
    """Candidate submanifold: either the potential X₀ as a function of the
    extensive coordinates, or one expression per intensive coordinate
    (optionally plus X₀)."""

    def __init__(
        self, potential: Optional[Expr] = None, equations: Optional[Mapping[str, Expr]] = None
    ):
        if equations is not None:
            equations = dict(equations)
        vars(self).update(potential=potential, equations=equations)
        if potential is None and equations is None:
            raise ThermoError("spec needs a potential or state equations")

    @classmethod
    def from_potential(cls, e: Expr) -> "LegendreSpec":
        return cls(potential=e)

    @classmethod
    def from_state_equations(
        cls, equations: Mapping[str, Expr], energy: Optional[Expr] = None
    ) -> "LegendreSpec":
        return cls(potential=energy, equations=equations)

    def _validate(self, tc: ThermoChart):
        base = tc.base_chart
        if self.equations is not None:
            if set(self.equations) != set(tc.intensives):
                raise ThermoError(
                    "state equations must cover exactly the intensive coordinates"
                )
            for name, e in self.equations.items():
                if e.chart != base:
                    raise ThermoError(f"equation for {name!r} is not on the base chart")
        if self.potential is not None and self.potential.chart != base:
            raise ThermoError("potential is not on the base chart")

    def state_equations(self, tc: ThermoChart) -> dict[str, Expr]:
        """Given or induced (P_i = σ_i ∂X₀/∂X_i) equations of state."""
        self._validate(tc)
        if self.equations is not None:
            return dict(self.equations)
        return {
            p: self.potential.diff(x) * s for p, x, s in tc.pairs
        }

    def energy_expr(self, tc: ThermoChart) -> Expr:
        """The potential, reconstructing it by line integration if absent."""
        self._validate(tc)
        if self.potential is not None:
            return self.potential
        return _reconstruct_energy(tc, self.state_equations(tc))

    def inclusion(self, tc: ThermoChart) -> SmoothMap:
        """Φ: extensive chart → full chart cut out by these equations, every
        component of its _Graph built."""
        graph = _Graph(tc, self)
        for p in tc.intensives:
            graph[p]  # builds a potential spec's state equation
        return SmoothMap(tc.base_chart, tc.chart, graph)


class _Graph(dict):
    """The components of Φ(X) = (E(X), X, P(X)), by full-chart coordinate.
    On a potential spec each state equation P_i = σ_i ∂E/∂X_i is built on
    its first read, so a path verdict builds only those its forms read, once
    each (LegendreSpec.inclusion reads them all).  The energy is built up
    front: a state-equation spec reconstructs it here, so a spec whose
    energy cannot be rebuilt stops every path verdict, whatever its forms
    read."""

    def __init__(self, tc: ThermoChart, spec: LegendreSpec):
        base = tc.base_chart
        super().__init__({x: base.var(x) for x in tc.extensives})
        self[tc.energy] = self.energy = spec.energy_expr(tc)
        if spec.equations is not None:
            self.update(spec.equations)
        self.pairs = {p: (x, s) for p, x, s in tc.pairs}

    def __missing__(self, name: str) -> Expr:
        x, s = self.pairs[name]
        self[name] = self.energy.diff(x) * s
        return self[name]


def _antiderivative(e: Expr, x: str) -> Expr:
    """Term-wise antiderivative in x; each term must be a monomial in x."""
    chart = e.chart
    summands = []
    xvar = chart.var(x)
    for term in e.terms:
        power = Fraction(0)
        rest = chart.const(term.coeff)
        for b, q in term.factors:
            if isinstance(b, str) and b == x:
                power = q
                continue
            piece = Expr._monomial(chart, Fraction(1), [(b, q)])
            if x in piece.free_symbols():
                raise ThermoError(
                    f"cannot symbolically integrate {e} along {x}"
                )
            rest = rest * piece
        if power == -1:
            summands.append(rest * ln(xvar))
        else:
            summands.append(rest * xvar ** (power + 1) / (power + 1))
    return Expr._sum(chart, summands)


def _reconstruct_energy(tc: ThermoChart, eqs: Mapping[str, Expr]) -> Expr:
    """X₀ from exact state equations: line integral along coordinate axes
    from the all-ones reference point (X₀(1,…,1) = 0)."""
    base = tc.base_chart
    total = base.zero()
    for i, (pname, xname, sign) in enumerate(tc.pairs):
        pin = {}
        for j, (_, xj, _) in enumerate(tc.pairs):
            pin[xj] = base.one() if j > i else base.var(xj)
        integrand = eqs[pname].subs(pin) * sign
        anti = _antiderivative(integrand, xname)
        total = total + anti - anti.subs({xname: base.one()})
    return total


# ---------------------------------------------------------------------------
# Legendre and Maxwell checks
# ---------------------------------------------------------------------------


@record
class LegendreReport:
    def __init__(
        self,
        ok: bool,
        confidence: Confidence,
        equations_of_state: dict[str, Expr],
        energy: Optional[Expr],
        reconstructed: bool,
        failures: tuple = (),  # ((P_i, X_j, P_j, X_i, residual), ...)
        residual: Optional[Form] = None,
    ):
        vars(self).update(
            ok=ok, confidence=confidence, equations_of_state=equations_of_state,
            energy=energy, reconstructed=reconstructed, failures=failures, residual=residual,
        )


def check_legendre(
    tc: ThermoChart,
    spec: LegendreSpec,
    config: ZeroTestConfig = DEFAULT_ZERO_CONFIG,
) -> LegendreReport:
    """Does this candidate define a Legendre submanifold (Φ*θ = 0)?

    Potential-form specs also report the induced equations of state;
    state-equation specs are checked through the mixed-partial conditions,
    reconstructing X₀ when they pass.

    Φ is the graph X ↦ (E(X), X, P(X)), so the residual is read off it as
    Φ*θ = Σ_i (∂E/∂X_i − σ_i P_i) dX_i, with no general pullback.  On a
    potential spec P_i = σ_i ∂E/∂X_i and σ_i² = 1, so every coefficient
    cancels term by term, and the mixed partials agree by Schwarz's theorem:
    the residual is the zero form and the verdict is OK and CERTAIN, with
    no second derivative taken and no zero test.  Only a state-equation
    spec's mixed partials and residual are computed, and only they sample.
    """
    eqs = spec.state_equations(tc)
    identities = _maxwell(tc, spec, config)
    failures = tuple(
        i.lhs + i.rhs + (i.residual,) for i in identities if i.verdict == "FAIL"
    )
    if failures:
        return LegendreReport(False, Confidence.CERTAIN, eqs, None, False, failures)
    sampled = any(i.confidence is Confidence.SAMPLED for i in identities)
    confidence = Confidence.SAMPLED if sampled else Confidence.CERTAIN
    try:
        energy = spec.energy_expr(tc)
        reconstructed = spec.potential is None
    except ThermoError:
        energy = None
        reconstructed = False
    if energy is None:
        return LegendreReport(True, confidence, eqs, None, False)
    base = tc.base_chart
    if spec.equations is None:
        residual = Form.zero(base, 1)
    else:
        residual = Form._built(base, 1, {
            (base.index(x),): energy.diff(x) - eqs[p] * s for p, x, s in tc.pairs
        })
    witness, confidence = first_nonzero(residual.items(), config, confidence)
    return LegendreReport(
        witness is None, confidence, eqs, energy, reconstructed, residual=residual
    )


@record
class MaxwellIdentity:
    def __init__(
        self,
        lhs: tuple[str, str],  # (P_i, X_j)
        sign: int,  # ∂P_i/∂X_j = sign · ∂P_j/∂X_i
        rhs: tuple[str, str],
        residual: Optional[Expr] = None,
        verdict: Optional[str] = None,  # "OK" | "FAIL" | None when no spec given
        confidence: Optional[Confidence] = None,
    ):
        vars(self).update(
            lhs=lhs, sign=sign, rhs=rhs, residual=residual, verdict=verdict,
            confidence=confidence,
        )

    @property
    def text(self) -> str:
        s = "-" if self.sign < 0 else ""
        return (
            f"∂{self.lhs[0]}/∂{self.lhs[1]} = {s}∂{self.rhs[0]}/∂{self.rhs[1]}"
        )


def maxwell_relations(
    tc: ThermoChart,
    spec: Optional[LegendreSpec] = None,
    config: ZeroTestConfig = DEFAULT_ZERO_CONFIG,
) -> list[MaxwellIdentity]:
    """Identities forced by Φ*dθ = 0, one per basis 2-form dX_i∧dX_j.

    Without a spec only the identities are emitted; with one, each carries
    an exactness verdict.  On a potential spec P_i = σ_i ∂X₀/∂X_i, so each
    identity is the symmetry of X₀'s second derivatives (Schwarz's theorem):
    it holds by construction, CERTAIN with a zero residual, and no state
    equation is built or zero-tested.  Only state-equation specs are
    differentiated and zero-tested, and only they may sample.
    """
    if spec is not None:
        spec._validate(tc)
    return _maxwell(tc, spec, config)


def _maxwell(
    tc: ThermoChart, spec: Optional[LegendreSpec], config: ZeroTestConfig
) -> list[MaxwellIdentity]:
    """maxwell_relations for a validated spec (or none), in pair order."""
    eqs = None if spec is None else spec.equations
    out = []
    for i, (pi, xi, si) in enumerate(tc.pairs):
        for pj, xj, sj in tc.pairs[i + 1 :]:
            checked = ()  # residual, verdict, confidence
            if eqs is not None:
                residual = eqs[pi].diff(xj) * si - eqs[pj].diff(xi) * sj
                witness, confidence = first_nonzero([(None, residual)], config)
                checked = (residual, "OK" if witness is None else "FAIL", confidence)
            elif spec is not None:  # a potential: ∂²X₀/∂X_j∂X_i = ∂²X₀/∂X_i∂X_j
                checked = (tc.base_chart.zero(), "OK", Confidence.CERTAIN)
            out.append(MaxwellIdentity((pi, xj), si * sj, (pj, xi), *checked))
    return out


# ---------------------------------------------------------------------------
# Legendre transformations (thermodynamic potentials)
# ---------------------------------------------------------------------------


@record
class LegendreTransformResult:
    def __init__(
        self,
        chart: ThermoChart,
        potential_name: str,
        potential: Expr,  # template over the original full chart
        form: Form,  # θ̃ on the transformed chart
        map: SmoothMap,  # contact symmetry on the original chart
        symmetry: SymmetryResult,
        contact: ContactResult,
    ):
        vars(self).update(
            chart=chart, potential_name=potential_name, potential=potential, form=form,
            map=map, symmetry=symmetry, contact=contact,
        )


def legendre_transform(
    tc: ThermoChart,
    pairs_to_swap: Sequence[Union[int, str]],
    new_name: Optional[str] = None,
) -> LegendreTransformResult:
    """Swap the roles of the selected intensive/extensive pairs.

    Each swapped pair (P, X, σ) contributes −σPX to the potential and
    re-enters the transformed form as the pair (X, P, −σ).  Both verdicts
    hold by construction (Mrugała et al. 1991), so neither is tested:

    - the coordinate change φ is a contact symmetry with multiplier 1,
      φ*θ = θ, since every swapped term pulls back to σ³ X dP = σ X dP;
    - θ̃ is a contact form, θ̃ ∧ (dθ̃)^n = n! ∏ σ̃_i dẼ∧dX̃_1∧dP̃_1∧…, which
      is (−1)^(n(n−1)/2) n! ∏ σ̃_i times the top form in the chart's order
      (Ẽ, X̃…, P̃…).

    forms.contact_symmetry_check and forms.contact_check return the same
    results.
    """
    swap_idx = set()
    for item in pairs_to_swap:
        if isinstance(item, int):
            if not 0 <= item < tc.n:
                raise ThermoError(f"no pair with index {item}")
            swap_idx.add(item)
        else:
            for k, (p, x, _) in enumerate(tc.pairs):
                if item in (p, x):
                    swap_idx.add(k)
                    break
            else:
                raise ThermoError(f"no pair named {item!r}")
    chart = tc.chart
    if new_name is None:
        new_name = tc.energy + "".join(
            "_" + tc.pairs[k][1] for k in sorted(swap_idx)
        )
    new_pairs = []
    for k, (p, x, s) in enumerate(tc.pairs):
        new_pairs.append((x, p, -s) if k in swap_idx else (p, x, s))
    new_heat = tc.heat if tc.heat not in swap_idx else None
    new_tc = ThermoChart(new_name, tuple(new_pairs), tc.params, heat=new_heat)

    potential = chart.var(tc.energy)
    comps = {n: chart.var(n) for n in chart.coords}
    for k in swap_idx:
        p, x, s = tc.pairs[k]
        potential = potential - chart.var(p) * chart.var(x) * s
        comps[x] = chart.var(p) * s
        comps[p] = -chart.var(x) * s
    comps[tc.energy] = potential
    n = new_tc.n
    top = (-1) ** (n * (n - 1) // 2) * math.factorial(n) * math.prod(s for _, _, s in new_pairs)
    return LegendreTransformResult(
        new_tc,
        new_name,
        potential,
        first_law_form(new_tc),
        SmoothMap(chart, chart, comps),
        SymmetryResult(SymmetryStatus.SYMMETRY, Confidence.CERTAIN, chart.one()),
        ContactResult(ContactStatus.CONTACT, Confidence.CERTAIN, new_tc.chart.const(top)),
    )


# ---------------------------------------------------------------------------
# Process paths and numeric audits
# ---------------------------------------------------------------------------


@record
class PathSegment:
    """One smooth leg t ∈ [0,1] → extensive coordinates."""

    def __init__(
        self,
        components: Mapping[str, Expr],
        claim: Optional[str] = None,  # e.g. "adiabatic" for audited claims
    ):
        vars(self).update(components=dict(components), claim=claim)


@record
class ProcessPath:
    def __init__(self, base_chart: Chart, segments: tuple[PathSegment, ...]):
        segments = tuple(segments)
        vars(self).update(base_chart=base_chart, segments=segments)
        if not segments:
            raise ThermoError("a process path needs at least one segment")
        tchart = self.t_chart
        for seg in segments:
            if set(seg.components) != set(base_chart.coords):
                raise ThermoError("segment must define every extensive coordinate")
            for e in seg.components.values():
                if e.chart != tchart:
                    raise ThermoError("segment components must be functions of t")

    @cached_property
    def t_chart(self) -> Chart:
        return Chart((T_CHART_NAME,), self.base_chart.params)

    def point(self, seg: PathSegment, t, params) -> dict:
        env = dict(params)
        env[T_CHART_NAME] = t
        return {n: seg.components[n].evaluate(env) for n in self.base_chart.coords}

    def check_continuity(self, params) -> tuple[dict, dict]:
        """Raise unless every segment starts where the one before it ends;
        return the path's first and last points."""
        ends = []
        for seg in self.segments:
            start = self.point(seg, Fraction(0), params)
            for n in self.base_chart.coords if ends else ():
                if abs(float(ends[-1][n]) - float(start[n])) > JOIN_TOL:
                    raise ThermoError(f"segments do not join continuously at {n}")
            ends += [start, self.point(seg, Fraction(1), params)]
        return ends[0], ends[-1]

    @staticmethod
    def line(base_chart: Chart, start: Mapping, end: Mapping) -> PathSegment:
        tchart = Chart((T_CHART_NAME,), base_chart.params)
        t = tchart.var(T_CHART_NAME)
        comps = {}
        for n in base_chart.coords:
            a, b = Fraction(start[n]), Fraction(end[n])
            comps[n] = tchart.const(a) + t * (b - a)
        return PathSegment(comps)


# the path audits' thresholds: a heat sample below SAMPLE_TOL counts as
# zero, and a First-Law residual below BALANCE_TOL balances; a run's tol
# replaces both
SAMPLE_TOL = 1e-9
BALANCE_TOL = 1e-8
# every path quadrature's tolerances and subdivision limit (scipy.integrate.quad's)
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1.49e-8
QUAD_LIMIT = 10_000
# how far apart, per coordinate, segments may join and a cycle's ends may lie
JOIN_TOL = 1e-12
CLOSURE_TOL = 1e-9


class QuadratureError(ThermoError):
    pass


@record
class PathIntegral:
    def __init__(self, value: float, error: float):
        vars(self).update(value=value, error=error)


def _leg_coefficient(
    comps: Mapping[str, Expr], path: ProcessPath, seg: PathSegment, form: Form
) -> Expr:
    """dt-coefficient of a 1-form pulled back along one segment γ of a path
    on the Legendre manifold, t ↦ Φ(γ(t)), for Φ's components comps (by
    full-chart coordinate): the same Expr as
    pullback(Φ ∘ segment map, form).coefficient((0,)), composing only the
    components the form reads (its index coordinates and the free symbols
    of its coefficients).  A coefficient whose index coordinate is fixed
    along the leg contributes exactly zero, so it is not composed at all."""

    def on_leg(name: str) -> Expr:
        return comps[name].subs(seg.components, path.t_chart)

    coords = form.chart.coords
    total = path.t_chart.zero()
    for (i,), coeff in form.coeffs.items():
        rate = on_leg(coords[i]).diff(T_CHART_NAME)
        if not rate.terms:
            continue
        mapping = {n: on_leg(n) for n in coeff.free_symbols() if n in coords}
        total = total + coeff.subs(mapping, path.t_chart) * rate
    return total


def _integrate_segment(integrand):
    """∫₀¹ integrand(t) dt for a leg coefficient compiled by Expr.compile."""
    # Imported on first use, so that a command which never integrates does
    # not load (or, without a bytecode cache, compile) the quadrature.
    from .quadpack import message, qags

    def f(tval: float) -> float:
        try:
            return float(integrand(tval))
        except DomainError as w:
            # deep subdivision near a singularity drives nodes out of the domain
            raise QuadratureError(
                f"integrand left its domain near t={tval}: {w}"
            ) from None

    value, err, ier, _ = qags(f, 0.0, 1.0, QUAD_ABS_TOL, QUAD_REL_TOL, QUAD_LIMIT)
    if ier:
        raise QuadratureError(f"quadrature did not converge: {message(ier, QUAD_LIMIT)}")
    return value, err


def _walk(tc: ThermoChart, spec: LegendreSpec, path: ProcessPath, params, cycle=False):
    """The one walk of every path verdict: check that the path joins up (and,
    for a cycle, that the ends check_continuity returns meet) in the chart's
    extensive coordinates, then start the one _Graph of Φ's components,
    each built on its first read.  Returns the graph and legs(*forms), which
    yields each segment with the compiled dt-coefficient of each form (built
    after the checks)."""
    start, end = path.check_continuity(params)
    if cycle and not all(
        abs(float(start[n]) - float(end[n])) <= CLOSURE_TOL for n in path.base_chart.coords
    ):
        raise ThermoError("cycle_audit requires a closed path")
    if path.base_chart != tc.base_chart:
        raise ThermoError("path does not live in the chart's extensive coordinates")
    graph = _Graph(tc, spec)

    def legs(*forms):
        for seg in path.segments:
            yield seg, [
                _leg_coefficient(graph, path, seg, form).compile(params, T_CHART_NAME)
                for form in forms
            ]

    return graph, legs


def _integral(legs, form: Form) -> PathIntegral:
    """∫ of one form over a walk's legs; a verdict with several forms takes
    them in turn, so ΔU is integrated before a missing heat pair raises."""
    total = total_err = 0.0
    for _, (coeff,) in legs(form):
        value, err = _integrate_segment(coeff)
        total += value
        total_err += err
    return PathIntegral(total, total_err)


def path_integral(
    tc: ThermoChart,
    spec: LegendreSpec,
    path: ProcessPath,
    form: Form,
    params: Mapping[str, Fraction],
) -> PathIntegral:
    """∫ over the path of the form's pullback onto the Legendre manifold."""
    if form.chart != tc.chart or form.degree != 1:
        raise ThermoError("integrand must be a 1-form on the full chart")
    _, legs = _walk(tc, spec, path, params)
    return _integral(legs, form)


@record
class FirstLawBalance:
    def __init__(
        self, delta_energy: float, delta_heat: float, delta_work: float, residual: float,
        ok: bool,
    ):
        vars(self).update(
            delta_energy=delta_energy, delta_heat=delta_heat, delta_work=delta_work,
            residual=residual, ok=ok,
        )


def first_law_balance(
    tc: ThermoChart,
    spec: LegendreSpec,
    path: ProcessPath,
    params: Mapping[str, Fraction],
    tol: Optional[float] = None,
) -> FirstLawBalance:
    """ΔU = ΔQ − ΔW checked by independent quadratures of dX₀, Q and W; the
    residual balances below tol, or below BALANCE_TOL where tol is None."""
    _, legs = _walk(tc, spec, path, params)
    du = _integral(legs, Form.d_coord(tc.chart, tc.energy)).value
    dq = _integral(legs, heat_form(tc)).value
    dw = _integral(legs, work_form(tc)).value
    residual = abs(du - (dq - dw))
    balance_tol = BALANCE_TOL if tol is None else tol
    return FirstLawBalance(du, dq, dw, residual, residual < balance_tol)


# the audits' sample points on each leg, t = k/63 (each rounded once)
_SAMPLE_TS = tuple(k / 63 for k in range(64))


def _sampler(coeff, t0: float):
    """coeff, a leg coefficient compiled in t, or where it is constant in t
    a function that returns its float.  Expr.compile gives a float wherever
    the value depends on the float t, so a value at t0 that is not a float
    is the leg's exact constant: it is converted here once, not per sample."""
    value = coeff(t0)
    if type(value) is float:
        return coeff
    value = float(value)
    return lambda t: value


@record
class LegAudit:
    def __init__(
        self, index: int, claim: Optional[str], max_abs_heat: float,
        claim_honored: Optional[bool],  # None where the leg claims nothing
    ):
        vars(self).update(
            index=index, claim=claim, max_abs_heat=max_abs_heat, claim_honored=claim_honored
        )


@record
class CycleAuditReport:
    def __init__(
        self,
        heat: float,
        work: float,
        balance_residual: float,
        balance_ok: bool,
        kelvin_violation: bool,
        heat_sample_min: float,
        legs: tuple[LegAudit, ...],
    ):
        vars(self).update(
            heat=heat, work=work, balance_residual=balance_residual, balance_ok=balance_ok,
            kelvin_violation=kelvin_violation, heat_sample_min=heat_sample_min, legs=legs,
        )


def cycle_audit(
    tc: ThermoChart,
    spec: LegendreSpec,
    cycle: ProcessPath,
    params: Mapping[str, Fraction],
    tol: Optional[float] = None,
) -> CycleAuditReport:
    """Audit a closed cycle: ∮Q = ∮W (exactness of dX₀), per-leg adiabatic
    claims, and the Kelvin configuration (heat absorbed everywhere while net
    work is extracted) that the Second Law forbids.  tol replaces both
    SAMPLE_TOL and BALANCE_TOL; None keeps them."""
    sample_tol, balance_tol = (SAMPLE_TOL, BALANCE_TOL) if tol is None else (tol, tol)
    q_total = w_total = 0.0
    q_min = float("inf")
    audits = []
    _, legs = _walk(tc, spec, cycle, params, cycle=True)
    for i, (seg, (heat, work)) in enumerate(legs(heat_form(tc), work_form(tc))):
        q_total += _integrate_segment(heat)[0]
        w_total += _integrate_segment(work)[0]
        heat_at = _sampler(heat, _SAMPLE_TS[0])
        samples = [heat_at(t) for t in _SAMPLE_TS]
        q_min = min(q_min, min(samples))
        max_abs = max(abs(v) for v in samples)
        honored = max_abs < sample_tol if seg.claim == "adiabatic" else None
        audits.append(LegAudit(i, seg.claim, max_abs, honored))
    residual = abs(q_total - w_total)
    kelvin = q_min >= -sample_tol and w_total > balance_tol
    return CycleAuditReport(
        q_total,
        w_total,
        residual,
        residual < balance_tol,
        kelvin,
        q_min,
        tuple(audits),
    )


class AdiabaticStatus(Enum):
    QUASI_STATIC_ADIABATIC = "QUASI_STATIC_ADIABATIC"
    S_INCREASING = "S_INCREASING"
    S_DECREASING = "S_DECREASING"
    S_NONMONOTONE = "S_NONMONOTONE"


@record
class AdiabaticReport:
    def __init__(
        self,
        status: AdiabaticStatus,
        max_abs_heat: float,
        entropy_drift: float,  # max |S(t) - S(0)|
        entropy_start: float,
        entropy_end: float,
        leaves_leaf: bool,
        violations: tuple = (),  # sample indices breaking monotonicity
    ):
        vars(self).update(
            status=status, max_abs_heat=max_abs_heat, entropy_drift=entropy_drift,
            entropy_start=entropy_start, entropy_end=entropy_end, leaves_leaf=leaves_leaf,
            violations=violations,
        )


def _graph_heat(tc: ThermoChart, graph: Mapping[str, Expr]) -> Form:
    """Φ*Q read off the graph: Q = σ_h P_h dX_h pulls back to
    σ_h P_h(X) dX_h on the base chart, the same Form as
    pullback(spec.inclusion(tc), heat_form(tc))."""
    p, x, s = tc.pairs[tc.heat]
    base = tc.base_chart
    return Form._built(base, 1, {(base.index(x),): graph[p] * s})


def adiabatic_entropy_check(
    tc: ThermoChart,
    spec: LegendreSpec,
    path: ProcessPath,
    entropy: Expr,
    params: Mapping[str, Fraction],
) -> AdiabaticReport:
    """Sample the heat pullback and the entropy along a path.

    Requires Q = T dS to certify on the manifold for the supplied entropy
    (T the heat-pair intensive restricted to the manifold); a path whose
    sampled heat vanishes must then stay on one S = const leaf, and any
    heat flow moves it transversally across leaves.
    """
    if entropy.chart != tc.base_chart:
        raise ThermoError("entropy must be a function of the extensive coordinates")
    graph, legs = _walk(tc, spec, path, params)
    qf = heat_form(tc)
    p, _, _ = tc.pairs[tc.heat]
    cert = verify_integrating_factor(_graph_heat(tc, graph), graph[p], entropy)
    if not cert.ok:
        raise ThermoError(
            f"Q = T dS not certified for the supplied entropy ({cert.status.value})"
        )
    samples = []  # (heat, S) at each t; a leg's t = 0 repeats the last leg's end
    for k, (seg, (heat,)) in enumerate(legs(qf)):
        s_on_t = entropy.subs(seg.components, path.t_chart).compile(params, T_CHART_NAME)
        ts = _SAMPLE_TS[1:] if k else _SAMPLE_TS
        heat_at, s_at = _sampler(heat, ts[0]), _sampler(s_on_t, ts[0])
        samples += [(heat_at(t), s_at(t)) for t in ts]
    heat_samples, s_samples = zip(*samples)
    max_heat = max(abs(v) for v in heat_samples)
    drift = max(abs(v - s_samples[0]) for v in s_samples)
    adiabatic = max_heat < SAMPLE_TOL
    diffs = [b - a for a, b in zip(s_samples, s_samples[1:])]
    violations = ()
    if adiabatic:
        status = AdiabaticStatus.QUASI_STATIC_ADIABATIC
    elif all(d > 0.0 for d in diffs):
        status = AdiabaticStatus.S_INCREASING
    elif all(d < 0.0 for d in diffs):
        status = AdiabaticStatus.S_DECREASING
    else:
        status = AdiabaticStatus.S_NONMONOTONE
        violations = tuple(i for i, d in enumerate(diffs) if d <= 0.0)
    leaves_leaf = not adiabatic or drift >= SAMPLE_TOL
    return AdiabaticReport(
        status, max_heat, drift, s_samples[0], s_samples[-1], leaves_leaf, violations
    )
