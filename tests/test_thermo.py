import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from entropykit.expr import Chart, Expr, parse
from entropykit.forms import Confidence, ContactStatus, Form, SymmetryStatus
from entropykit.thermo import (
    AdiabaticStatus,
    EndpointPair,
    LegendreSpec,
    PathSegment,
    ProcessPath,
    ThermoChart,
    ThermoError,
    adiabatic_entropy_check,
    check_legendre,
    cycle_audit,
    endpoint_entropy_check,
    first_law_balance,
    first_law_form,
    heat_form,
    legendre_transform,
    maxwell_relations,
    path_integral,
    work_form,
)

STD = ThermoChart("U", (("T", "S", 1), ("p", "V", -1)), params=("N", "R"), heat=0)
PARAMS = {"N": F(1), "R": F(1)}

# Ideal gas in the energy representation: U(S, V) with T = 2U/(3NR), pV = NRT.
IDEAL_GAS = LegendreSpec.from_potential(
    parse("exp(2*S/(3*N*R)) * V^(-2/3)", STD.base_chart)
)


def ideal_gas_energy(s, v):
    return math.exp(2.0 * float(s) / 3.0) * float(v) ** (-2.0 / 3.0)


def segment(**exprs):
    tchart = Chart(("t",), STD.base_chart.params)
    return PathSegment({k: parse(v, tchart) for k, v in exprs.items()}, None)


def line_path(*waypoints):
    segs = [
        ProcessPath.line(STD.base_chart, a, b)
        for a, b in zip(waypoints, waypoints[1:])
    ]
    return ProcessPath(STD.base_chart, tuple(segs))


# -- first law form -------------------------------------------------------------


def test_first_law_form_standard_chart():
    theta = first_law_form(STD)
    chart = STD.chart
    assert theta == (
        Form.d_coord(chart, "U")
        - Form.d_coord(chart, "S").scale(chart.var("T"))
        + Form.d_coord(chart, "V").scale(chart.var("p"))
    )


def test_first_law_form_single_pair_is_contact():
    tc = ThermoChart("U", (("T", "S", 1),))
    from entropykit.forms import contact_check

    assert contact_check(first_law_form(tc), 1).contact


def test_first_law_form_with_chemical_potential():
    tc = ThermoChart(
        "U", (("T", "S", 1), ("p", "V", -1), ("mu", "N_p", -1)), heat=0
    )
    theta = first_law_form(tc)
    chart = tc.chart
    assert theta.coefficient(("S",)) == -chart.var("T")
    assert theta.coefficient(("V",)) == chart.var("p")
    assert theta.coefficient(("N_p",)) == chart.var("mu")
    from entropykit.forms import contact_check

    assert contact_check(theta, 3).contact


def test_heat_plus_work_decomposition():
    # θ = dU − Q + W must hold exactly
    theta = first_law_form(STD)
    recomposed = Form.d_coord(STD.chart, "U") - heat_form(STD) + work_form(STD)
    assert theta == recomposed


# -- Legendre check ---------------------------------------------------------------


def test_check_legendre_potential_form_induces_state_equations():
    rng = random.Random(2)
    base = STD.base_chart
    for _ in range(10):
        u = base.zero()
        for _ in range(4):
            term = base.const(F(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4)):
                term = term * base.var(rng.choice(("S", "V")))
            u = u + term
        spec = LegendreSpec.from_potential(u)
        report = check_legendre(STD, spec)
        assert report.ok
        assert report.confidence is Confidence.CERTAIN
        assert report.equations_of_state["T"] == u.diff("S")
        assert report.equations_of_state["p"] == -u.diff("V")
        assert all(i.verdict == "OK" for i in maxwell_relations(STD, spec))


ENTROPY_REP = ThermoChart(
    "S", (("inv_T", "U", 1), ("p_T", "V", 1)), params=("N", "R"), heat=None
)


def test_check_legendre_ideal_gas_entropy_representation():
    base = ENTROPY_REP.base_chart
    spec = LegendreSpec.from_state_equations(
        {"inv_T": parse("3*N*R/(2*U)", base), "p_T": parse("N*R/V", base)}
    )
    report = check_legendre(ENTROPY_REP, spec)
    assert report.ok
    assert report.confidence is Confidence.CERTAIN
    assert not report.failures
    assert report.reconstructed
    assert report.energy == parse("3/2*N*R*ln(U) + N*R*ln(V)", base)


def test_malformed_specs_are_rejected():
    base = STD.base_chart
    with pytest.raises(ThermoError):
        LegendreSpec.from_state_equations({"T": parse("V", base)}).state_equations(STD)
    with pytest.raises(ThermoError):
        LegendreSpec.from_potential(parse("x", Chart(("x",)))).state_equations(STD)
    with pytest.raises(ThermoError):
        LegendreSpec()


def test_check_legendre_rejects_inconsistent_state_equations():
    base = STD.base_chart
    spec = LegendreSpec.from_state_equations(
        {"T": parse("V", base), "p": parse("V", base)}
    )
    report = check_legendre(STD, spec)
    assert not report.ok
    (pi, xj, pj, xi, residual) = report.failures[0]
    assert (pi, xj, pj, xi) == ("T", "V", "p", "S")
    # witness: ∂T/∂V = 1 while −∂p/∂S = 0
    assert residual == base.one()



# exp(ln(V)) equals V on the positive domain, but the normal form keeps it, so
# only sampling can judge a mixed partial built from it.
SAMPLED_SPEC = LegendreSpec.from_state_equations(
    {"T": parse("exp(ln(V))", STD.base_chart), "p": parse("0 - S", STD.base_chart)}
)


def test_check_legendre_with_sampled_mixed_partials_is_sampled():
    report = check_legendre(STD, SAMPLED_SPEC)
    assert report.ok and report.failures == ()
    assert report.confidence is Confidence.SAMPLED
    assert report.energy == parse("S*V - 1", STD.base_chart)
    # with no energy to pull back, the mixed partials alone decide
    base = STD.base_chart
    spec = LegendreSpec.from_state_equations(
        {"T": parse("exp(ln(V)) + exp(S)", base), "p": parse("0 - S", base)}
    )
    report = check_legendre(STD, spec)
    assert report.ok and report.energy is None and report.residual is None
    assert report.confidence is Confidence.SAMPLED


def test_check_legendre_certain_failures_are_certain_and_in_pair_order():
    tc = ThermoChart("U", (("T", "S", 1), ("p", "V", -1), ("mu", "M", -1)), heat=0)
    base = tc.base_chart
    spec = LegendreSpec.from_state_equations(
        {
            "T": parse("exp(ln(M)) + V", base),  # (T, p) fails; (T, mu) is sampled
            "p": parse("0", base),
            "mu": parse("V - S", base),  # (p, mu) fails
        }
    )
    report = check_legendre(tc, spec)
    assert not report.ok
    assert report.confidence is Confidence.CERTAIN
    assert report.failures == (
        ("T", "V", "p", "S", base.one()),
        ("p", "M", "mu", "V", base.one()),
    )
    verdicts = [(i.verdict, i.confidence) for i in maxwell_relations(tc, spec)]
    assert verdicts == [
        ("FAIL", Confidence.CERTAIN),
        ("OK", Confidence.SAMPLED),
        ("FAIL", Confidence.CERTAIN),
    ]

# -- Maxwell relations ---------------------------------------------------------------


def test_maxwell_identity_for_generic_submanifold():
    identities = maxwell_relations(STD)
    assert len(identities) == 1
    assert identities[0].text == "∂T/∂V = -∂p/∂S"
    assert identities[0].verdict is None


def test_maxwell_tautology_for_potential_form():
    u = parse("S^3*V + 2*S*V^2 + V", STD.base_chart)
    identities = maxwell_relations(STD, LegendreSpec.from_potential(u))
    assert all(i.verdict == "OK" for i in identities)
    assert all(i.confidence is Confidence.CERTAIN for i in identities)


def test_maxwell_ideal_gas_both_representations():
    for tc, spec in (
        (STD, IDEAL_GAS),
        (
            ENTROPY_REP,
            LegendreSpec.from_state_equations(
                {
                    "inv_T": parse("3*N*R/(2*U)", ENTROPY_REP.base_chart),
                    "p_T": parse("N*R/V", ENTROPY_REP.base_chart),
                }
            ),
        ),
    ):
        identities = maxwell_relations(tc, spec)
        assert identities and all(i.verdict == "OK" for i in identities)


def test_maxwell_flags_violation():
    base = STD.base_chart
    spec = LegendreSpec.from_state_equations(
        {"T": parse("V", base), "p": parse("V", base)}
    )
    identities = maxwell_relations(STD, spec)
    assert identities[0].verdict == "FAIL"


def test_maxwell_residuals_are_pullback_coefficients():
    # the emitted residuals must be the literal coefficients of Φ*dθ
    from entropykit.forms import SmoothMap, pullback

    tc = ThermoChart(
        "U", (("T", "S", 1), ("p", "V", -1), ("mu", "M", -1)), heat=0
    )
    base = tc.base_chart
    rng = random.Random(53)
    for _ in range(10):
        eqs = {}
        for name in tc.intensives:
            e = base.zero()
            for _ in range(3):
                term = base.const(rng.randint(-3, 3))
                for _ in range(rng.randint(0, 2)):
                    term = term * base.var(rng.choice(base.coords))
                e = e + term
            eqs[name] = e
        spec = LegendreSpec.from_state_equations(eqs)
        comps = {x: base.var(x) for x in tc.extensives}
        comps[tc.energy] = base.zero()
        comps.update(eqs)
        phi = SmoothMap(base, tc.chart, comps)
        pulled = pullback(phi, first_law_form(tc).d())
        for ident in maxwell_relations(tc, spec):
            i = base.index(ident.rhs[1])
            j = base.index(ident.lhs[1])
            assert pulled.coefficient((i, j)) == ident.residual


# -- Legendre transforms ----------------------------------------------------------------


def expect_form(tc, spec_text):
    chart = tc.chart
    form = Form.zero(chart, 1)
    for name, coeff in spec_text.items():
        form = form + Form.d_coord(chart, name).scale(parse(coeff, chart))
    return form


def test_enthalpy_transform():
    r = legendre_transform(STD, ["V"], new_name="H")
    assert r.potential == parse("U + p*V", STD.chart)
    assert r.chart.pairs == (("T", "S", 1), ("V", "p", 1))
    assert r.form == expect_form(
        r.chart, {"H": "1", "S": "0 - T", "p": "0 - V"}
    )
    assert r.contact.status is ContactStatus.CONTACT
    assert r.symmetry.status is SymmetryStatus.SYMMETRY
    assert r.symmetry.factor == STD.chart.one()


def test_free_energy_transform():
    r = legendre_transform(STD, ["S"], new_name="F")
    assert r.potential == parse("U - T*S", STD.chart)
    assert r.form == expect_form(r.chart, {"F": "1", "T": "S", "V": "p"})
    assert r.contact.contact and r.symmetry.symmetry


def test_gibbs_transform():
    r = legendre_transform(STD, ["S", "V"], new_name="G")
    assert r.potential == parse("U + p*V - T*S", STD.chart)
    assert r.form == expect_form(
        r.chart, {"G": "1", "T": "S", "p": "0 - V"}
    )
    assert r.contact.contact and r.symmetry.symmetry


def test_empty_swap_returns_inputs():
    r = legendre_transform(STD, [])
    assert r.chart == STD
    assert r.form == first_law_form(STD)


def test_unknown_pair_rejected():
    with pytest.raises(ThermoError):
        legendre_transform(STD, ["Q"])


def test_transform_is_involution_per_pair():
    first = legendre_transform(STD, ["V"], new_name="H")
    second = legendre_transform(first.chart, ["p"])
    assert second.chart.pairs == STD.pairs
    back = second.potential.subs(
        {
            "H": parse("U + p*V", STD.chart),
            "S": STD.chart.var("S"),
            "p": STD.chart.var("p"),
            "T": STD.chart.var("T"),
            "V": STD.chart.var("V"),
        },
        STD.chart,
    )
    assert back == STD.chart.var("U")
    assert second.form.coefficient(("S",)) == -second.chart.chart.var("T")
    assert second.form.coefficient(("V",)) == second.chart.chart.var("p")


# -- path integrals -----------------------------------------------------------------


def test_closed_cycle_integral_of_exact_form_vanishes():
    cycle = line_path(
        {"S": F(1), "V": F(1)},
        {"S": F(2), "V": F(1)},
        {"S": F(2), "V": F(2)},
        {"S": F(1), "V": F(2)},
        {"S": F(1), "V": F(1)},
    )
    du = Form.d_coord(STD.chart, "U")
    r = path_integral(STD, IDEAL_GAS, cycle, du, PARAMS)
    assert abs(r.value) < 1e-9
    # d of any smooth state function is exact as well
    df = Form.from_expr(parse("U*V + T^2", STD.chart)).d()
    r2 = path_integral(STD, IDEAL_GAS, cycle, df, PARAMS)
    assert abs(r2.value) < 1e-9


def test_energy_difference_is_path_independent():
    a = {"S": F(1), "V": F(1)}
    b = {"S": F(5, 2), "V": F(2)}
    direct = line_path(a, b)
    dogleg = line_path(a, {"S": F(1), "V": F(2)}, {"S": F(5, 2), "V": F(1)}, b)
    du = Form.d_coord(STD.chart, "U")
    r1 = path_integral(STD, IDEAL_GAS, direct, du, PARAMS)
    r2 = path_integral(STD, IDEAL_GAS, dogleg, du, PARAMS)
    assert abs(r1.value - r2.value) < 1e-8
    oracle = ideal_gas_energy(b["S"], b["V"]) - ideal_gas_energy(a["S"], a["V"])
    assert abs(r1.value - oracle) < 1e-8


def test_first_law_balance_on_random_paths():
    rng = random.Random(41)
    for _ in range(10):
        pts = [
            {
                "S": F(rng.randint(2, 10), 4),
                "V": F(rng.randint(2, 10), 4),
            }
            for _ in range(rng.randint(2, 4))
        ]
        balance = first_law_balance(STD, IDEAL_GAS, line_path(*pts), PARAMS)
        assert balance.ok, balance
        du_oracle = ideal_gas_energy(pts[-1]["S"], pts[-1]["V"]) - ideal_gas_energy(
            pts[0]["S"], pts[0]["V"]
        )
        assert abs(balance.delta_energy - du_oracle) < 1e-8


def test_path_integral_refuses_endpoint_pairs():
    process = EndpointPair({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)})
    with pytest.raises(ThermoError):
        path_integral(STD, IDEAL_GAS, process, heat_form(STD), PARAMS)
    delta, ok = endpoint_entropy_check(
        STD.base_chart.var("S"), process, PARAMS
    )
    assert delta == pytest.approx(1.0)
    assert ok


# -- cycle audit -----------------------------------------------------------------------


def carnot_rectangle(s1, s2, v1, v2):
    return line_path(
        {"S": s1, "V": v1},
        {"S": s2, "V": v1},
        {"S": s2, "V": v2},
        {"S": s1, "V": v2},
        {"S": s1, "V": v1},
    )


def test_cycle_audit_balances_heat_and_work():
    rng = random.Random(43)
    for _ in range(8):
        s1 = F(rng.randint(2, 6), 4)
        s2 = s1 + F(rng.randint(1, 6), 4)
        v1 = F(rng.randint(2, 6), 4)
        v2 = v1 + F(rng.randint(1, 6), 4)
        report = cycle_audit(STD, IDEAL_GAS, carnot_rectangle(s1, s2, v1, v2), PARAMS)
        assert report.balance_ok
        assert not report.kelvin_violation
        # independent area oracle: ∮W = ∮T dS = ΔU at V1 minus ΔU at V2
        oracle = (
            ideal_gas_energy(s2, v1)
            - ideal_gas_energy(s1, v1)
            - (ideal_gas_energy(s2, v2) - ideal_gas_energy(s1, v2))
        )
        assert abs(report.work - oracle) < 1e-6


def test_cycle_audit_honest_cooling_plus_candidate_adiabat():
    # cooling at constant volume, then a claimed adiabat back:
    # the return leg cannot be adiabatic and no violation is reported.
    tchart = Chart(("t",), STD.base_chart.params)
    cooling = ProcessPath.line(
        STD.base_chart, {"S": F(2), "V": F(1)}, {"S": F(1), "V": F(1)}
    )
    back = PathSegment(
        {
            "S": parse("1 + t", tchart),
            "V": parse("1 + 4*t*(1 - t)", tchart),
        },
        claim="adiabatic",
    )
    cycle = ProcessPath(STD.base_chart, (cooling, back))
    report = cycle_audit(STD, IDEAL_GAS, cycle, PARAMS)
    assert not report.kelvin_violation
    assert report.balance_ok
    claimed = [leg for leg in report.legs if leg.claim == "adiabatic"]
    assert claimed and claimed[0].claim_honored is False
    assert claimed[0].max_abs_heat > 1e-3


FAKE = ThermoChart("U", (("T", "S", 1), ("p", "V", -1)), heat=0)


def test_cycle_audit_flags_planted_kelvin_violation():
    # unphysical state equations (not a Legendre submanifold): temperature
    # changes sign so heat is absorbed on every leg while net work is positive
    base = FAKE.base_chart
    spec = LegendreSpec.from_state_equations(
        {"T": parse("S*(3 - 2*V)", base), "p": parse("S*V", base)}
    )
    assert not check_legendre(FAKE, spec).ok
    cycle = ProcessPath(
        base,
        tuple(
            ProcessPath.line(base, a, b)
            for a, b in [
                ({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)}),
                ({"S": F(2), "V": F(1)}, {"S": F(2), "V": F(2)}),
                ({"S": F(2), "V": F(2)}, {"S": F(1), "V": F(2)}),
                ({"S": F(1), "V": F(2)}, {"S": F(1), "V": F(1)}),
            ]
        ),
    )
    report = cycle_audit(FAKE, spec, cycle, {})
    assert report.kelvin_violation
    assert report.heat_sample_min >= -1e-9
    assert report.work > 1.0
    # the inconsistency also shows up as a heat/work imbalance
    assert not report.balance_ok


def test_cycle_audit_requires_closed_path():
    with pytest.raises(ThermoError):
        cycle_audit(
            STD,
            IDEAL_GAS,
            line_path({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)}),
            PARAMS,
        )


# -- adiabatic / entropy checks ------------------------------------------------------------


S_COORD = STD.base_chart.var("S")


def test_constant_entropy_path_is_adiabatic_leaf():
    path = line_path({"S": F(3, 2), "V": F(1)}, {"S": F(3, 2), "V": F(3)})
    report = adiabatic_entropy_check(STD, IDEAL_GAS, path, S_COORD, PARAMS)
    assert report.status is AdiabaticStatus.QUASI_STATIC_ADIABATIC
    assert report.max_abs_heat < 1e-9
    assert report.entropy_drift < 1e-9
    assert not report.leaves_leaf


def heating_path(u0, u1, v0):
    # heating at constant volume, parametrized linearly in energy
    tchart = Chart(("t",), STD.base_chart.params)
    s = f"3/2*ln({u0} + ({u1} - {u0})*t) + ln({v0})"
    return ProcessPath(
        STD.base_chart,
        (PathSegment({"S": parse(s, tchart), "V": parse(str(v0), tchart)}),),
    )


def test_heating_at_constant_volume_increases_entropy():
    report = adiabatic_entropy_check(
        STD, IDEAL_GAS, heating_path(1, 3, 2), S_COORD, PARAMS
    )
    assert report.status is AdiabaticStatus.S_INCREASING
    assert report.leaves_leaf
    assert report.entropy_end > report.entropy_start


def test_reversed_cooling_decreases_entropy():
    report = adiabatic_entropy_check(
        STD, IDEAL_GAS, heating_path(3, 1, 2), S_COORD, PARAMS
    )
    assert report.status is AdiabaticStatus.S_DECREASING
    assert report.leaves_leaf


def test_uncertified_entropy_is_rejected():
    bogus = parse("S^2 + V", STD.base_chart)
    path = line_path({"S": F(1), "V": F(1)}, {"S": F(1), "V": F(2)})
    with pytest.raises(ThermoError):
        adiabatic_entropy_check(STD, IDEAL_GAS, path, bogus, PARAMS)


def test_divergent_integral_raises_quadrature_error():
    from entropykit.thermo import QuadratureError

    # S → ∞ as t → 1/2 makes U ~ (t - 1/2)^(-4): not integrable over the segment
    tchart = Chart(("t",), STD.base_chart.params)
    blow_up = ProcessPath(
        STD.base_chart,
        (
            PathSegment(
                {
                    "S": parse("0 - 3*ln((t - 1/2)^2)", tchart),
                    "V": parse("1", tchart),
                }
            ),
        ),
    )
    with pytest.raises(QuadratureError):
        path_integral(
            STD, IDEAL_GAS, blow_up, Form.d_coord(STD.chart, "U"), PARAMS
        )


def test_divergent_integral_names_the_divergence():
    from entropykit.thermo import QuadratureError

    # U ~ (t - 1/3)^(-2) blows up between the quadrature nodes (t = 1/2 is one)
    tchart = Chart(("t",), STD.base_chart.params)
    blow_up = ProcessPath(
        STD.base_chart,
        (PathSegment({"S": parse("0 - 3*ln((t - 1/3)^2)", tchart),
                      "V": parse("1", tchart)}),),
    )
    with pytest.raises(
        QuadratureError,
        match="^quadrature did not converge: The integral is probably divergent",
    ):
        path_integral(STD, IDEAL_GAS, blow_up, Form.d_coord(STD.chart, "U"), PARAMS)


# -- the QUADPACK port against scipy.integrate.quad ---------------------------------
# quadpack.qags runs the routines scipy.integrate.quad runs (dqagse, dqk21,
# dqpsrt, dqelg) in the same order of floating-point operations, so every
# figure must agree to the bit, on success and on failure, at the relative
# tolerance the path integrals use.


def hard_integrands():
    def guard(g):
        # QUADPACK never evaluates the end points of [0, 1]; a singular g is
        # guarded there anyway
        return lambda t: g(t) if 0.0 < t < 1.0 else 0.0

    return {
        "smooth": lambda t: math.exp(t) * math.cos(3.0 * t),
        "sqrt": lambda t: math.sqrt(t),
        "log": guard(math.log),
        "inverse-power": guard(lambda t: t ** -0.9),
        "oscillatory": lambda t: math.sin(200.0 * t) * t,
        "step": lambda t: 1.0 if t > 0.3 else 0.0,
        "divergent": lambda t: 1.0 / (t - 1.0 / 3.0) ** 2,
        "divergent-at-end": guard(lambda t: 1.0 / t),
        "peak": lambda t: 1.0 / (1.0 + 2500.0 * (t - 0.5) ** 2),
        "zero": lambda t: 0.0,
        "nan": lambda t: math.nan if 0.4 < t < 0.41 else t,
        # rounding noise on a singular integrand
        "noisy-log": guard(lambda t: math.log(t) * (1.0 + 1e-6 * math.sin(1e12 * t))),
        "noisy-sqrt": guard(lambda t: t ** -0.5 * (1.0 + 1e-5 * math.sin(1e6 * t))),
    }


def assert_quad_matches_scipy(f, limit, epsabs=1e-10):
    from entropykit import quadpack

    from entropykit.thermo import QUAD_REL_TOL

    integrate = pytest.importorskip("scipy.integrate")
    want = integrate.quad(
        f, 0.0, 1.0, epsabs=epsabs, epsrel=QUAD_REL_TOL, limit=limit, full_output=1
    )
    value, err, ier, last = quadpack.qags(f, 0.0, 1.0, epsabs, QUAD_REL_TOL, limit)
    assert math.isnan(value) if math.isnan(want[0]) else value == want[0]
    assert math.isnan(err) if math.isnan(want[1]) else err == want[1]
    assert last == want[2]["last"]
    # scipy appends its message only when QUADPACK did not converge
    assert (ier != 0) == (len(want) == 4)
    if ier:
        assert quadpack.message(ier, limit) == want[3]
    return ier


@pytest.mark.parametrize("limit", [1, 5, 50, 10_000])
@pytest.mark.parametrize("name", sorted(hard_integrands()))
def test_quadpack_port_matches_scipy_on_hard_integrands(name, limit):
    assert_quad_matches_scipy(hard_integrands()[name], limit)


def test_quadpack_port_reports_every_failure_as_scipy_does():
    # the hard integrands reach every error code QUADPACK gives on valid input
    integrands = hard_integrands()
    codes = {
        assert_quad_matches_scipy(integrands[name], limit)
        for name in integrands for limit in (1, 5, 50, 10_000)
    }
    assert codes == {0, 1, 2, 3, 4, 5}


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.sampled_from([0.0, 1.0, 2.0, 0.5, -0.5, 1.0 / 3.0, -0.9, 1.5]),
    st.integers(-12, 12),
    st.sampled_from([5, 50, 10_000]),
)
@settings(max_examples=150, deadline=None)
def test_quadpack_port_matches_scipy_on_poly_exp_power(coeffs, power, rate, limit):
    def f(t):
        poly = 0.0
        for c in reversed(coeffs):
            poly = poly * t + c
        return poly * math.exp(rate * t / 4.0) * t ** power

    assert_quad_matches_scipy(f, limit)


def test_segment_quadrature_error_carries_scipy_message():
    from entropykit.thermo import (
        QUAD_ABS_TOL, QUAD_LIMIT, QuadratureError, _integrate_segment,
    )

    integrate = pytest.importorskip("scipy.integrate")

    def f(t):
        return 1.0 / (t - 1.0 / 3.0) ** 2

    want = integrate.quad(
        f, 0.0, 1.0, epsabs=QUAD_ABS_TOL, limit=QUAD_LIMIT, full_output=1
    )
    with pytest.raises(QuadratureError) as err:
        _integrate_segment(f)
    assert str(err.value) == f"quadrature did not converge: {want[3]}"


# -- one pullback route for the path code ----------------------------------------------


def poly_spec(rng):
    # U = Σ c S^i V^j with i ≥ 1, as in the polynomial potentials of the paths bench
    text = " + ".join(
        f"{F(rng.randint(1, 9), rng.randint(1, 4))}*S^{i}*V^({j})"
        for i, j in rng.choice((((1, -1), (2, 0), (3, 1)), ((1, 1), (2, -1), (2, 2))))
    )
    return LegendreSpec.from_potential(parse(text, STD.base_chart))


def random_state(rng):
    return {"S": F(rng.randint(2, 12), 4), "V": F(rng.randint(2, 12), 4)}


def test_leg_coefficients_match_pullback_through_composed_map():
    # Each leg's dt-coefficient is the very Expr the composed-map pullback gives.
    from entropykit.forms import pullback
    from entropykit.thermo import _leg_coefficient

    rng = random.Random(53)
    forms = [
        Form.d_coord(STD.chart, "U"),
        heat_form(STD),
        work_form(STD),
        Form.from_expr(parse("U*V + T^2", STD.chart)).d(),
    ]
    for spec in (IDEAL_GAS, poly_spec(rng), poly_spec(rng)):
        a, b, via = random_state(rng), random_state(rng), random_state(rng)
        s1, v1 = F(rng.randint(2, 8), 4), F(rng.randint(2, 8), 4)
        s2, v2 = s1 + F(rng.randint(1, 6), 4), v1 + F(rng.randint(1, 6), 4)
        for path in (line_path(a, b), line_path(a, via, b), carnot_rectangle(s1, s2, v1, v2)):
            inclusion = spec.inclusion(STD)
            for seg in path.segments:
                full_map = spec.inclusion(STD).compose(path.segment_map(seg))
                for form in forms:
                    got = _leg_coefficient(inclusion, path, seg, form)
                    want = pullback(full_map, form).coefficient((0,))
                    assert got.key() == want.key()
                    assert str(got) == str(want)


def test_path_code_builds_one_inclusion_and_composes_only_what_it_reads(monkeypatch):
    from entropykit.expr import Expr

    inclusions = []
    composed = []
    real_inclusion = LegendreSpec.inclusion
    real_subs = Expr.subs

    def counting_inclusion(self, tc):
        phi = real_inclusion(self, tc)
        inclusions.append(phi)
        return phi

    def counting_subs(self, mapping, chart=None):
        # a composition substitutes a segment into an inclusion component
        if chart is not None and chart.coords == ("t",):
            for phi in inclusions:
                for name, comp in phi.components.items():
                    if self is comp:
                        segment = tuple(sorted((k, str(v)) for k, v in mapping.items()))
                        composed.append((name, segment))
        return real_subs(self, mapping, chart)

    monkeypatch.setattr(LegendreSpec, "inclusion", counting_inclusion)
    monkeypatch.setattr(Expr, "subs", counting_subs)
    detour = line_path(
        {"S": F(1), "V": F(1)}, {"S": F(2), "V": F(3, 2)}, {"S": F(5, 2), "V": F(2)}
    )
    isentropic = line_path({"S": F(3, 2), "V": F(1)}, {"S": F(3, 2), "V": F(3)})
    for run in (
        lambda: first_law_balance(STD, IDEAL_GAS, detour, PARAMS),
        lambda: adiabatic_entropy_check(STD, IDEAL_GAS, isentropic, S_COORD, PARAMS),
        lambda: cycle_audit(STD, IDEAL_GAS, carnot_rectangle(F(1), F(2), F(1), F(2)), PARAMS),
    ):
        inclusions.clear()
        composed.clear()
        run()
        assert len(inclusions) == 1
        assert composed and len(composed) == len(set(composed))
    inclusions.clear()
    composed.clear()
    path_integral(STD, IDEAL_GAS, detour, Form.d_coord(STD.chart, "U"), PARAMS)
    assert {name for name, _ in composed} == {"U"}
    assert len(composed) == len(detour.segments)


def test_first_law_balance_keeps_path_checks(monkeypatch):
    process = EndpointPair({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)})
    with pytest.raises(ThermoError) as from_integral:
        path_integral(STD, IDEAL_GAS, process, heat_form(STD), PARAMS)
    for audit in (
        lambda: first_law_balance(STD, IDEAL_GAS, process, PARAMS),
        lambda: cycle_audit(STD, IDEAL_GAS, process, PARAMS),
        lambda: adiabatic_entropy_check(
            STD, IDEAL_GAS, process, parse("S", STD.base_chart), PARAMS
        ),
    ):
        with pytest.raises(ThermoError) as from_audit:
            audit()
        assert str(from_audit.value) == str(from_integral.value)
    broken = ProcessPath(
        STD.base_chart,
        (
            ProcessPath.line(STD.base_chart, {"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)}),
            ProcessPath.line(STD.base_chart, {"S": F(3), "V": F(1)}, {"S": F(3), "V": F(2)}),
        ),
    )
    with pytest.raises(ThermoError, match="do not join"):
        first_law_balance(STD, IDEAL_GAS, broken, PARAMS)
    checks = []
    real_check = ProcessPath.check_continuity

    def counting_check(self, params):
        checks.append(self)
        return real_check(self, params)

    monkeypatch.setattr(ProcessPath, "check_continuity", counting_check)
    first_law_balance(STD, IDEAL_GAS, line_path({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(2)}), PARAMS)
    assert len(checks) == 1


# -- compiled leg integrands ------------------------------------------------------------


def same_value(got, want):
    """Same type and the same value, a float to the bit."""
    if isinstance(want, float):
        return type(got) is float and got.hex() == want.hex()
    return type(got) is type(want) and got == want


@given(st.integers(0, 10_000), st.lists(st.floats(0, 1), min_size=1, max_size=4),
       st.lists(st.integers(0, 63), min_size=1, max_size=4))
@settings(max_examples=25, deadline=None)
def test_compiled_leg_coefficients_match_evaluate(seed, floats, steps):
    # The quadrature nodes and the audit samples t = k/63 are all floats.
    from entropykit.thermo import _SAMPLE_TS, _leg_coefficient

    assert _SAMPLE_TS == tuple(float(F(k, 63)) for k in range(64))

    rng = random.Random(seed)
    spec = IDEAL_GAS if seed % 2 else poly_spec(rng)
    params = {"N": F(rng.randint(2, 4), 2), "R": F(rng.randint(2, 3), 2)}
    a, b, via = random_state(rng), random_state(rng), random_state(rng)
    s1, v1 = F(rng.randint(2, 8), 4), F(rng.randint(2, 8), 4)
    path = rng.choice((
        line_path(a, b), line_path(a, via, b),
        carnot_rectangle(s1, s1 + F(rng.randint(1, 6), 4), v1, v1 + F(rng.randint(1, 6), 4)),
    ))
    inclusion = spec.inclusion(STD)
    ts = floats + [0.0, 1.0] + [_SAMPLE_TS[k] for k in steps]
    for seg in path.segments:
        for form in (Form.d_coord(STD.chart, "U"), heat_form(STD), work_form(STD)):
            coeff = _leg_coefficient(inclusion, path, seg, form)
            compiled = coeff.compile(params, "t")
            for t in ts:
                want = coeff.evaluate({**params, "t": t})
                assert same_value(compiled(t), want), (str(coeff), t)


def test_path_code_evaluates_no_integrand_node_by_node(monkeypatch):
    # Expr.evaluate still reads the path's endpoints; every leg integrand runs compiled.
    walked = []
    real_evaluate = Expr.evaluate

    def watching_evaluate(self, env):
        if "t" in self.free_symbols():
            walked.append(self)
        return real_evaluate(self, env)

    monkeypatch.setattr(Expr, "evaluate", watching_evaluate)
    detour = line_path(
        {"S": F(1), "V": F(1)}, {"S": F(2), "V": F(3, 2)}, {"S": F(5, 2), "V": F(2)}
    )
    cycle = carnot_rectangle(F(1), F(2), F(1), F(2))
    heating = ProcessPath(STD.base_chart, (segment(S="1 + t", V="2"),))
    first_law_balance(STD, IDEAL_GAS, detour, PARAMS)
    cycle_audit(STD, IDEAL_GAS, cycle, PARAMS)
    adiabatic_entropy_check(STD, IDEAL_GAS, heating, S_COORD, PARAMS)
    components = {
        id(e) for path in (detour, cycle, heating)
        for seg in path.segments for e in seg.components.values()
    }
    assert walked and all(id(e) in components for e in walked)
