import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    assert_same_contact,
    assert_same_form,
    assert_same_identities,
    reference_contact_check,
    reference_first_law_form,
    reference_maxwell,
    reference_pullback,
)
from entropykit import forms, thermo
from entropykit.documents import load_document
from entropykit.expr import DEFAULT_ZERO_CONFIG, Chart, Expr, parse
from entropykit.forms import (
    Confidence,
    ContactStatus,
    Form,
    SymmetryStatus,
    contact_check,
    contact_symmetry_check,
)
from entropykit.thermo import (
    AdiabaticStatus,
    LegendreSpec,
    PathSegment,
    ProcessPath,
    ThermoChart,
    ThermoError,
    adiabatic_entropy_check,
    check_legendre,
    cycle_audit,
    first_law_balance,
    first_law_form,
    heat_form,
    legendre_transform,
    maxwell_relations,
    path_integral,
    work_form,
)

CORPUS = Path(__file__).resolve().parent.parent / "docs" / "corpus"
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


ATOMS = ["{a}^2*{b}", "exp({a}/N)", "ln({a})*{b}", "({a} + {b})^(1/2)", "N*{a}^(-2/3)"]
# products inside exp, sums inside ln and under powers, and nested roots
WIDE_ATOMS = ATOMS + [
    "exp({a}*{b})", "ln({a} + {b})", "({a} + {b})^(-1)", "exp({a})^2",
    "(({a} + {b})^(1/2) + N*{b})^(1/3)",
]


@st.composite
def thermo_cases(draw, atoms=ATOMS):
    """A chart of 1-5 (P_i, X_i, ±1) pairs, a potential on its extensive
    coordinates built from 1-3 atoms, and a nonempty set of pairs to swap."""
    n = draw(st.integers(1, 5))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    heat = draw(st.sampled_from([None, *range(n)]))
    tc = ThermoChart(
        "U", tuple((f"P{i}", f"X{i}", s) for i, s in enumerate(signs)), ("N",), heat
    )
    xs = tc.extensives
    potential = " + ".join(
        draw(st.sampled_from(atoms)).format(a=draw(st.sampled_from(xs)), b=draw(st.sampled_from(xs)))
        for _ in range(draw(st.integers(1, 3)))
    )
    swap = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return tc, parse(potential, tc.base_chart), sorted(swap)


@pytest.mark.differential
@given(thermo_cases())
@settings(max_examples=150, deadline=None)
def test_first_law_form_matches_the_chained_reference(case):
    # θ built in one step is the chained θ, in the same order; so is the
    # contact verdict on it (test_legendre_residual_matches_the_pullback_reference
    # draws these cases for the Legendre residual Φ*θ, and
    # test_legendre_transform_verdicts_match_the_general_checks for a
    # transform's θ̃ and its verdicts)
    tc, _, swap = case
    theta, want = first_law_form(tc), reference_first_law_form(tc)
    assert_same_form(theta, want)
    reference = reference_contact_check(want, tc.n, DEFAULT_ZERO_CONFIG)
    assert_same_contact(contact_check(theta, tc.n), reference)


@pytest.mark.differential
@given(thermo_cases())
@settings(max_examples=150, deadline=None)
def test_legendre_transform_verdicts_match_the_general_checks(case):
    # the symmetry and contact verdicts, built from the swap, are what the
    # ratio test on φ*θ and the full chain θ̃ ∧ (dθ̃)^n return
    tc, _, swap = case
    transformed = legendre_transform(tc, swap)
    want_new = reference_first_law_form(transformed.chart)
    assert_same_form(transformed.form, want_new)
    reference = reference_contact_check(want_new, tc.n, DEFAULT_ZERO_CONFIG)
    assert_same_contact(transformed.contact, reference)
    got, want = transformed.symmetry, contact_symmetry_check(transformed.map, first_law_form(tc))
    assert (got.status, got.confidence, got.witness) == (want.status, want.confidence, want.witness)
    assert (got.factor.key(), str(got.factor)) == (want.factor.key(), str(want.factor))
    assert got == want


def test_legendre_transform_neither_pulls_back_nor_wedges(monkeypatch):
    tc = ThermoChart("U", tuple((f"P{i}", f"X{i}", (-1) ** i) for i in range(4)), ("N",), 0)

    def refuse(*args):
        raise AssertionError("legendre_transform ran a general check")

    assert not hasattr(thermo, "pullback")  # thermo imports no pullback to call
    for name in ("pullback", "contact_check", "contact_symmetry_check"):
        monkeypatch.setattr(forms, name, refuse)
    monkeypatch.setattr(Form, "wedge", refuse)
    result = legendre_transform(tc, [0, 2, 3])
    assert result.contact.contact and result.symmetry.symmetry
    assert result.contact.confidence is result.symmetry.confidence is Confidence.CERTAIN
    assert str(result.contact.top_coefficient) == "-24"


def test_contact_check_of_a_four_pair_first_law_form_makes_32_products(monkeypatch):
    # no term of dθ carries dU, so the chain keeps only dU ∧ (dθ)^k: 4, 12,
    # 12 and 4 products, where wedging every entry made 80
    tc = ThermoChart("U", tuple((f"P{i}", f"X{i}", (-1) ** i) for i in range(4)))
    theta = first_law_form(tc)
    products = []
    real_mul = Expr.__mul__

    def counting_mul(self, other):
        products.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(Expr, "__mul__", counting_mul)
    result = contact_check(theta, 4)
    assert len(products) == 32
    assert result.contact and str(result.top_coefficient) == "24"


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


def assert_residual_is_the_pullback(tc, spec):
    """check_legendre's residual, read off the graph, is Φ*θ pulled back
    with every partial along the inclusion of its equations and energy."""
    report = check_legendre(tc, spec)
    if report.energy is None:  # a Maxwell failure, or no energy to rebuild
        assert report.residual is None
        return report
    phi = LegendreSpec.from_state_equations(
        report.equations_of_state, energy=report.energy
    ).inclusion(tc)
    assert_same_form(report.residual, reference_pullback(phi, reference_first_law_form(tc)))
    return report


@pytest.mark.differential
@given(thermo_cases())
@settings(max_examples=150, deadline=None)
def test_legendre_residual_matches_the_pullback_reference(case):
    # each potential spec three ways: as a potential (the reference is then
    # the zero form), as its state equations with X₀ rebuilt, and as its
    # state equations with the potential given
    tc, potential, _ = case
    report = assert_residual_is_the_pullback(tc, LegendreSpec.from_potential(potential))
    assert report.ok and report.residual == Form.zero(tc.base_chart, 1)
    eqs = report.equations_of_state
    assert_residual_is_the_pullback(tc, LegendreSpec.from_state_equations(eqs))
    given_energy = LegendreSpec.from_state_equations(eqs, energy=potential)
    assert assert_residual_is_the_pullback(tc, given_energy).ok


def test_legendre_residual_of_fixed_specs_matches_the_pullback_reference():
    doc = load_document(str(CORPUS / "ideal_gas_entropy.doc"))
    assert assert_residual_is_the_pullback(doc.thermo_chart, doc.spec).reconstructed
    assert assert_residual_is_the_pullback(STD, SAMPLED_SPEC).confidence is Confidence.SAMPLED
    # a given energy that is not the potential leaves a nonzero residual
    wrong = LegendreSpec.from_state_equations(
        SAMPLED_SPEC.equations, energy=parse("S*V + S", STD.base_chart)
    )
    assert not assert_residual_is_the_pullback(STD, wrong).ok


def test_check_legendre_on_a_potential_spec_pulls_nothing_back(monkeypatch):
    # the residual of a potential spec is zero by construction: no θ is
    # built and nothing is pulled back
    tc = ThermoChart("U", (("T", "S", 1), ("p", "V", -1), ("mu", "M", -1)), ("N",), 0)
    spec = LegendreSpec.from_potential(parse("S^2*V + N*M*ln(V) + S*M^3", tc.base_chart))
    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(forms, "pullback", counting("pullback", forms.pullback))
    assert not hasattr(thermo, "pullback")  # thermo imports no pullback to call
    monkeypatch.setattr(
        thermo, "first_law_form", counting("first_law_form", thermo.first_law_form)
    )
    report = check_legendre(tc, spec)
    assert calls == []
    assert report.ok and report.confidence is Confidence.CERTAIN
    assert report.residual == Form.zero(tc.base_chart, 1)

# -- Maxwell relations ---------------------------------------------------------------


def assert_identities_are_the_reference(tc, potential):
    """maxwell_relations on the potential spec, on its state equations, on
    them with the first perturbed by the last extensive coordinate, and on
    no spec, each equal to the identities differentiated twice."""
    spec = LegendreSpec.from_potential(potential)
    eqs = spec.state_equations(tc)
    perturbed = dict(eqs)
    perturbed[tc.intensives[0]] = eqs[tc.intensives[0]] + tc.base_chart.var(tc.extensives[-1])
    specs = (
        spec, LegendreSpec.from_state_equations(eqs),
        LegendreSpec.from_state_equations(perturbed), None,
    )
    got = [maxwell_relations(tc, s) for s in specs]
    for identities, s in zip(got, specs):
        assert_same_identities(identities, reference_maxwell(tc, s, DEFAULT_ZERO_CONFIG))
    return got[0]


@pytest.mark.differential
@given(thermo_cases(WIDE_ATOMS))
@settings(max_examples=150, deadline=None)
def test_maxwell_identities_match_the_twice_differentiated_reference(case):
    # a potential spec's identities, decided by Schwarz's theorem, are what
    # differentiating its state equations twice and zero-testing returns
    tc, potential, _ = case
    identities = assert_identities_are_the_reference(tc, potential)
    assert len(identities) == tc.n * (tc.n - 1) // 2
    assert all(
        (i.verdict, i.confidence, i.residual) == ("OK", Confidence.CERTAIN, tc.base_chart.zero())
        for i in identities
    )


def test_maxwell_identities_of_fixed_specs_match_the_twice_differentiated_reference():
    for name, count in (("ideal_gas.doc", 1), ("three_pair.doc", 3)):
        doc = load_document(str(CORPUS / name))
        identities = assert_identities_are_the_reference(doc.thermo_chart, doc.spec.potential)
        assert len(identities) == count
    assert_same_identities(
        maxwell_relations(STD, SAMPLED_SPEC),
        reference_maxwell(STD, SAMPLED_SPEC, DEFAULT_ZERO_CONFIG),
    )
    # a spec on another chart is refused as before, though nothing is built
    with pytest.raises(ThermoError, match="potential is not on the base chart"):
        maxwell_relations(STD, LegendreSpec.from_potential(parse("x", Chart(("x",)))))
    # one pair has no identity to decide
    one_pair = ThermoChart("U", (("T", "S", 1),))
    assert assert_identities_are_the_reference(one_pair, parse("S^3", one_pair.base_chart)) == []


def test_maxwell_relations_on_a_potential_spec_neither_differentiates_nor_zero_tests(
    monkeypatch,
):
    # the mixed partials of a potential agree by Schwarz's theorem: no state
    # equation is built and nothing is zero-tested; check_legendre builds
    # the n state equations it prints and takes no second derivative
    tc = ThermoChart("U", (("T", "S", 1), ("p", "V", -1), ("mu", "M", -1)), ("N",), 0)
    spec = LegendreSpec.from_potential(parse("S^2*V + N*M*V^(1/2) + S*M^3", tc.base_chart))
    calls = []
    real_diff = Expr.diff

    def counting_diff(self, name):
        calls.append(name)
        return real_diff(self, name)

    def refuse(*args):
        raise AssertionError("maxwell_relations zero-tested a potential spec")

    monkeypatch.setattr(Expr, "diff", counting_diff)
    monkeypatch.setattr(thermo, "first_nonzero", refuse)
    identities = maxwell_relations(tc, spec)
    assert calls == []
    assert [(i.lhs, i.sign, i.rhs) for i in identities] == [
        (("T", "V"), -1, ("p", "S")), (("T", "M"), -1, ("mu", "S")), (("p", "M"), 1, ("mu", "V")),
    ]
    assert all((i.verdict, i.confidence) == ("OK", Confidence.CERTAIN) for i in identities)
    monkeypatch.undo()
    monkeypatch.setattr(Expr, "diff", counting_diff)
    report = check_legendre(tc, spec)
    assert calls == ["S", "V", "M"]
    assert report.ok and report.confidence is Confidence.CERTAIN and report.failures == ()


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
    assert (r.potential_name, r.potential) == ("U", STD.chart.var("U"))
    assert r.form == first_law_form(STD)
    assert r.contact.contact and r.symmetry.symmetry
    # a new name renames the energy coordinate, as on any other swap
    named = legendre_transform(STD, [], new_name="E")
    assert (named.potential_name, named.chart.energy) == ("E", "E")
    assert named.chart.pairs == STD.pairs


def test_unknown_pair_rejected():
    with pytest.raises(ThermoError):
        legendre_transform(STD, ["Q"])
    with pytest.raises(ThermoError, match="no pair with index 5"):
        legendre_transform(STD, [5])


def test_a_pair_is_selected_by_index_as_by_name():
    assert legendre_transform(STD, [1]) == legendre_transform(STD, ["V"])


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


def test_readme_library_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    # each print line ends in "# <printed text>", optionally ", <remark>"
    expected = [
        line.split("# ", 1)[1].split(",", 1)[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert expected == ["True", "∂T/∂V = -∂p/∂S", "U + V*p"]


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
# unphysical state equations (not a Legendre submanifold): temperature
# changes sign so heat is absorbed on every leg of KELVIN_CYCLE while net
# work is positive
KELVIN_SPEC = LegendreSpec.from_state_equations(
    {"T": parse("S*(3 - 2*V)", FAKE.base_chart), "p": parse("S*V", FAKE.base_chart)}
)
KELVIN_CYCLE = ProcessPath(
    FAKE.base_chart,
    tuple(
        ProcessPath.line(FAKE.base_chart, {"S": F(s1), "V": F(v1)}, {"S": F(s2), "V": F(v2)})
        for (s1, v1), (s2, v2) in [((1, 1), (2, 1)), ((2, 1), (2, 2)), ((2, 2), (1, 2)),
                                   ((1, 2), (1, 1))]
    ),
)


def test_cycle_audit_flags_planted_kelvin_violation():
    assert not check_legendre(FAKE, KELVIN_SPEC).ok
    report = cycle_audit(FAKE, KELVIN_SPEC, KELVIN_CYCLE, {})
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


def test_cycle_audit_checks_continuity_once_before_closure(monkeypatch):
    checks = []
    real_check = ProcessPath.check_continuity

    def counting_check(self, params):
        checks.append(self)
        return real_check(self, params)

    monkeypatch.setattr(ProcessPath, "check_continuity", counting_check)
    # the gap at the second leg's start raises before the open ends are seen
    gap = line_path({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)})
    gap = ProcessPath(gap.base_chart, gap.segments + line_path(
        {"S": F(3), "V": F(1)}, {"S": F(3), "V": F(2)}, {"S": F(1), "V": F(1)}).segments)
    with pytest.raises(ThermoError, match="do not join"):
        cycle_audit(STD, IDEAL_GAS, gap, PARAMS)
    assert checks == [gap]
    checks.clear()
    rectangle = carnot_rectangle(F(1), F(2), F(1), F(2))
    assert cycle_audit(STD, IDEAL_GAS, rectangle, PARAMS).balance_ok
    assert checks == [rectangle]


# the least float above 1.5, kelvin_trap's First-Law and cycle residual
ABOVE_RESIDUAL = math.nextafter(1.5, 2.0)


@pytest.mark.parametrize(
    "sample_tol, balance_tol, tol",
    [(1e-9, 1e-8, None), (2.5, 1.0, None), (1.0, 2.5, None), (1e-9, 1e-8, 0.0),
     (1e-9, 1e-8, 1.5), (1e-9, 1e-8, ABOVE_RESIDUAL), (1e-9, 1e-8, 2.5)],
)
def test_path_audits_compare_with_the_module_thresholds_or_the_given_tol(
    monkeypatch, sample_tol, balance_tol, tol
):
    # tol=None reads SAMPLE_TOL and BALANCE_TOL (set here), and a given tol
    # replaces both; kelvin_trap's legs have max|Q| 2, 0, 2, 0 and heat and
    # work 3 and 1.5, so each threshold moves some verdict
    assert (thermo.SAMPLE_TOL, thermo.BALANCE_TOL) == (1e-9, 1e-8)
    monkeypatch.setattr(thermo, "SAMPLE_TOL", sample_tol)
    monkeypatch.setattr(thermo, "BALANCE_TOL", balance_tol)
    if tol is not None:
        sample_tol = balance_tol = tol
    balance = first_law_balance(FAKE, KELVIN_SPEC, KELVIN_CYCLE, {}, tol)
    assert balance.residual == 1.5
    assert balance.ok is (1.5 < balance_tol)
    claimed = ProcessPath(FAKE.base_chart, tuple(
        PathSegment(seg.components, "adiabatic") for seg in KELVIN_CYCLE.segments))
    audit = cycle_audit(FAKE, KELVIN_SPEC, claimed, {}, tol)
    assert (audit.heat, audit.work, audit.balance_residual) == (3.0, 1.5, 1.5)
    assert audit.balance_ok is (1.5 < balance_tol)
    assert [leg.max_abs_heat for leg in audit.legs] == [2.0, 0.0, 2.0, 0.0]
    assert [leg.claim_honored for leg in audit.legs] == [
        2.0 < sample_tol, 0.0 < sample_tol, 2.0 < sample_tol, 0.0 < sample_tol]
    assert audit.kelvin_violation is (1.5 > balance_tol)
    # the entropy check's samples read SAMPLE_TOL alone
    report = adiabatic_entropy_check(STD, IDEAL_GAS, carnot_rectangle(
        F(1), F(2), F(1), F(2)), S_COORD, PARAMS)
    assert (report.status is AdiabaticStatus.QUASI_STATIC_ADIABATIC) is (
        report.max_abs_heat < thermo.SAMPLE_TOL)


def test_a_leg_constant_in_t_is_converted_to_float_once(monkeypatch):
    # a compiled leg coefficient free of t returns its exact constant at
    # every t; the audits' samples take its float once, and every sample
    # is a float as it comes
    from entropykit.thermo import _SAMPLE_TS, _sampler

    tchart = Chart(("t",), ("a",))
    constant = parse("a/3 + 1", tchart).compile({"a": F(1, 2)}, "t")
    moving = parse("a*t + 1", tchart).compile({"a": F(1, 2)}, "t")
    conversions = []
    to_float = F.__float__
    monkeypatch.setattr(F, "__float__", lambda q: conversions.append(q) or to_float(q))
    at = _sampler(constant, _SAMPLE_TS[0])
    samples = [at(t) for t in _SAMPLE_TS] + [moving(t) for t in _SAMPLE_TS]
    assert samples[: len(_SAMPLE_TS)] == [7 / 6] * len(_SAMPLE_TS)
    assert {type(v) for v in samples} == {float}
    assert conversions == [F(7, 6)]
    assert _sampler(moving, _SAMPLE_TS[0]) is moving


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
    from _oracles import compose_smooth_maps
    from entropykit.forms import SmoothMap, pullback
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
            inclusion = spec.inclusion(STD).components
            for seg in path.segments:
                full_map = compose_smooth_maps(
                    spec.inclusion(STD),
                    SmoothMap(path.t_chart, path.base_chart, seg.components),
                )
                for form in forms:
                    got = _leg_coefficient(inclusion, path, seg, form)
                    want = pullback(full_map, form).coefficient((0,))
                    assert got.key() == want.key()
                    assert str(got) == str(want)


def test_path_code_builds_each_state_equation_once_where_a_form_reads_it(monkeypatch):
    from entropykit.expr import Expr

    graphs = []
    built = []
    composed = []
    real_init = thermo._Graph.__init__
    real_missing = thermo._Graph.__missing__
    real_subs = Expr.subs

    def watching_init(self, tc, spec):
        real_init(self, tc, spec)
        graphs.append(self)

    def counting_missing(self, name):
        built.append(name)
        return real_missing(self, name)

    def counting_subs(self, mapping, chart=None):
        # a composition substitutes a segment into a component of Φ
        if chart is not None and chart.coords == ("t",):
            for graph in graphs:
                for name, comp in graph.items():
                    if self is comp:
                        segment = tuple(sorted((k, str(v)) for k, v in mapping.items()))
                        composed.append((name, segment))
        return real_subs(self, mapping, chart)

    def refuse(self, tc):
        raise AssertionError("a path verdict built the whole inclusion")

    monkeypatch.setattr(thermo._Graph, "__init__", watching_init)
    monkeypatch.setattr(thermo._Graph, "__missing__", counting_missing)
    monkeypatch.setattr(LegendreSpec, "inclusion", refuse)
    monkeypatch.setattr(Expr, "subs", counting_subs)
    detour = line_path(
        {"S": F(1), "V": F(1)}, {"S": F(2), "V": F(3, 2)}, {"S": F(5, 2), "V": F(2)}
    )
    isentropic = line_path({"S": F(3, 2), "V": F(1)}, {"S": F(3, 2), "V": F(3)})
    rectangle = carnot_rectangle(F(1), F(2), F(1), F(2))
    # each state equation is built at most once per verdict, and only where a
    # form reads it: ΔQ reads T and ΔW reads p, the certificate Q = T dS only T
    for run, want in (
        (lambda: first_law_balance(STD, IDEAL_GAS, detour, PARAMS), ["T", "p"]),
        (lambda: adiabatic_entropy_check(STD, IDEAL_GAS, isentropic, S_COORD, PARAMS), ["T"]),
        (lambda: cycle_audit(STD, IDEAL_GAS, rectangle, PARAMS), ["T", "p"]),
    ):
        graphs.clear()
        built.clear()
        composed.clear()
        run()
        assert len(graphs) == 1
        assert built == want
        assert composed and len(composed) == len(set(composed))
    # a leg along which a form's coordinate is fixed contributes zero, so its
    # coefficient is not composed: T only where S moves, p only where V moves
    legs = [tuple(sorted((k, str(v)) for k, v in seg.components.items()))
            for seg in rectangle.segments]
    assert [leg for name, leg in composed if name == "T"] == [legs[0], legs[2]]
    assert [leg for name, leg in composed if name == "p"] == [legs[1], legs[3]]
    # and no heat leg of an isentrope composes T
    composed.clear()
    adiabatic_entropy_check(STD, IDEAL_GAS, isentropic, S_COORD, PARAMS)
    assert {name for name, _ in composed} == {"S"}
    # ∫dU reads the energy alone: neither T nor p is built
    graphs.clear()
    built.clear()
    composed.clear()
    path_integral(STD, IDEAL_GAS, detour, Form.d_coord(STD.chart, "U"), PARAMS)
    assert built == []
    assert {name for name, _ in composed} == {"U"}
    assert len(composed) == len(detour.segments)


def test_a_spec_whose_energy_cannot_be_rebuilt_stops_every_path_verdict():
    # exp(S*V) has no term-wise antiderivative in S, so X₀ cannot be rebuilt:
    # each verdict stops with that error, also one whose forms never read X₀
    base = STD.base_chart
    spec = LegendreSpec.from_state_equations({"T": parse("exp(S*V)", base), "p": base.var("V")})
    path = line_path({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(2)})
    rectangle = carnot_rectangle(F(1), F(2), F(1), F(2))
    for run in (
        lambda: path_integral(STD, spec, path, Form.d_coord(STD.chart, "V"), PARAMS),
        lambda: first_law_balance(STD, spec, path, PARAMS),
        lambda: cycle_audit(STD, spec, rectangle, PARAMS),
        lambda: adiabatic_entropy_check(STD, spec, path, S_COORD, PARAMS),
    ):
        with pytest.raises(ThermoError, match="cannot symbolically integrate"):
            run()


@pytest.mark.differential
@given(thermo_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_heat_read_off_the_graph_is_the_pullback(case, data):
    # Φ*Q = σ_h P_h dX_h, key for key the pullback of Q along the whole
    # inclusion: on a potential spec, on its state equations with and
    # without the potential given, and with the heat equation zero
    tc, potential, _ = case
    if tc.heat is None:
        tc = ThermoChart(tc.energy, tc.pairs, tc.params, data.draw(st.integers(0, tc.n - 1)))
    spec = LegendreSpec.from_potential(potential)
    eqs = spec.state_equations(tc)
    zero_heat = {**eqs, tc.pairs[tc.heat][0]: tc.base_chart.zero()}
    for s in (
        spec, LegendreSpec.from_state_equations(eqs),
        LegendreSpec.from_state_equations(eqs, energy=potential),
        LegendreSpec.from_state_equations(zero_heat, energy=potential),
    ):
        try:
            graph = thermo._Graph(tc, s)
        except ThermoError:  # an energy that cannot be rebuilt
            continue
        want = forms.pullback(s.inclusion(tc), heat_form(tc))
        assert_same_form(thermo._graph_heat(tc, graph), want)


def test_first_law_balance_keeps_path_checks(monkeypatch):
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
    inclusion = spec.inclusion(STD).components
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


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_path_verdicts_match_a_per_form_per_leg_reference(seed):
    # Every float of the four path verdicts, to the bit, against a reference
    # that composes, compiles and integrates each form along each leg in turn.
    from entropykit.thermo import _SAMPLE_TS, _integrate_segment, _leg_coefficient

    rng = random.Random(seed)
    spec = IDEAL_GAS if seed % 2 else poly_spec(rng)
    params = {"N": F(rng.randint(2, 4), 2), "R": F(rng.randint(2, 3), 2)}
    a, b, via = random_state(rng), random_state(rng), random_state(rng)
    s1, v1 = F(rng.randint(2, 8), 4), F(rng.randint(2, 8), 4)
    s2, v2 = s1 + F(rng.randint(1, 6), 4), v1 + F(rng.randint(1, 6), 4)
    points = rng.choice((
        [a, b], [a, via, b],
        [{"S": s1, "V": v1}, {"S": s2, "V": v1}, {"S": s2, "V": v2}, {"S": s1, "V": v2},
         {"S": s1, "V": v1}],
    ))
    path = line_path(*points)
    forms = (Form.d_coord(STD.chart, "U"), heat_form(STD), work_form(STD))
    inclusion = spec.inclusion(STD).components
    legs = [
        [_leg_coefficient(inclusion, path, seg, form).compile(params, "t") for form in forms]
        for seg in path.segments
    ]

    def integral(k):
        value = err = 0.0
        for coeffs in legs:
            leg_value, leg_err = _integrate_segment(coeffs[k])
            value += leg_value
            err += leg_err
        return value, err

    def bits(*values):
        return [v.hex() for v in values]

    for k, form in enumerate(forms):
        got = path_integral(STD, spec, path, form, params)
        assert bits(got.value, got.error) == bits(*integral(k))
    du, dq, dw = (integral(k)[0] for k in range(3))
    balance = first_law_balance(STD, spec, path, params)
    assert bits(balance.delta_energy, balance.delta_heat, balance.delta_work, balance.residual) \
        == bits(du, dq, dw, abs(du - (dq - dw)))

    heat = [[float(coeffs[1](t)) for t in _SAMPLE_TS] for coeffs in legs]
    if points[0] == points[-1]:
        audit = cycle_audit(STD, spec, path, params)
        assert bits(audit.heat, audit.work, audit.balance_residual, audit.heat_sample_min) \
            == bits(dq, dw, abs(dq - dw), min(min(h) for h in heat))
        assert [bits(leg.max_abs_heat) for leg in audit.legs] \
            == [bits(max(abs(v) for v in h)) for h in heat]
    else:
        with pytest.raises(ThermoError, match="requires a closed path"):
            cycle_audit(STD, spec, path, params)

    report = adiabatic_entropy_check(STD, spec, path, S_COORD, params)
    heat_samples, s_samples = [], []
    for k, (seg, h) in enumerate(zip(path.segments, heat)):
        s_on_t = S_COORD.subs(seg.components, path.t_chart).compile(params, "t")
        for t, q in zip(_SAMPLE_TS, h):
            if k == 0 or t != 0:
                heat_samples.append(q)
                s_samples.append(float(s_on_t(t)))
    max_heat = max(abs(v) for v in heat_samples)
    drift = max(abs(v - s_samples[0]) for v in s_samples)
    assert bits(report.max_abs_heat, report.entropy_drift, report.entropy_start,
                report.entropy_end) == bits(max_heat, drift, s_samples[0], s_samples[-1])
    diffs = [y - x for x, y in zip(s_samples, s_samples[1:])]
    increasing = [i for i, d in enumerate(diffs) if d > 0.0]
    decreasing = [i for i, d in enumerate(diffs) if d < 0.0]
    if max_heat < 1e-9:
        want = (AdiabaticStatus.QUASI_STATIC_ADIABATIC, drift >= 1e-9, ())
    elif len(increasing) == len(diffs):
        want = (AdiabaticStatus.S_INCREASING, True, ())
    elif len(decreasing) == len(diffs):
        want = (AdiabaticStatus.S_DECREASING, True, ())
    else:
        violations = tuple(i for i, d in enumerate(diffs) if d <= 0.0)
        want = (AdiabaticStatus.S_NONMONOTONE, True, violations)
    assert (report.status, report.leaves_leaf, report.violations) == want
