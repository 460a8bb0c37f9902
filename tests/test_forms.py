import itertools
import random
from fractions import Fraction as F

import pytest

from entropykit import forms
from entropykit.expr import Chart, ExprError, parse
from entropykit.forms import (
    Confidence,
    ContactStatus,
    FactorStatus,
    Form,
    FrobeniusStatus,
    SmoothMap,
    SymmetryStatus,
    contact_check,
    contact_symmetry_check,
    frobenius_check,
    pullback,
    verify_integrating_factor,
    wedge,
)

XYZ = Chart(("x", "y", "z"))
GIBBS = Chart(("U", "S", "V", "T", "p"))


def dx(chart, name):
    return Form.d_coord(chart, name)


def f0(chart, text):
    return Form.from_expr(parse(text, chart))


# -- independent multilinear evaluation oracle ---------------------------------


def det(matrix):
    n = len(matrix)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def eval_form(form, point, vectors):
    """Value of a k-form on k tangent vectors via the determinant formula."""
    assert len(vectors) == form.degree
    total = F(0)
    for idx, coeff in form.items():
        matrix = [[v[i] for v in vectors] for i in idx]
        total += coeff.evaluate(point) * det(matrix)
    return total


def shuffle_wedge_value(a, b, point, vectors):
    """(a ∧ b)(v...) by the shuffle-sum definition, independent of wedge()."""
    p, q = a.degree, b.degree
    total = F(0)
    for combo in itertools.combinations(range(p + q), p):
        rest = [i for i in range(p + q) if i not in combo]
        perm = list(combo) + rest
        sign = 1
        for i in range(p + q):
            for j in range(i + 1, p + q):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * eval_form(a, point, [vectors[i] for i in combo]) * eval_form(
            b, point, [vectors[i] for i in rest]
        )
    return total


def random_vectors(rng, dim, k):
    return [[F(rng.randint(-5, 5)) for _ in range(dim)] for _ in range(k)]


def random_point(rng, chart):
    return {n: F(rng.randint(1, 40), rng.randint(1, 8)) for n in chart.coords}


def random_poly_form(rng, chart, degree):
    idxs = list(itertools.combinations(range(chart.dimension), degree))
    coeffs = {}
    for idx in idxs:
        if rng.random() < 0.7:
            e = chart.const(rng.randint(-4, 4))
            for _ in range(rng.randint(0, 2)):
                e = e * chart.var(rng.choice(chart.coords))
            coeffs[idx] = e
    return Form(chart, degree, coeffs)


# -- construction --------------------------------------------------------------------


def mixed_form(rng, chart, degree):
    """A random form whose coefficients mix constants, monomials, sums,
    ln/exp atoms and opaque powers."""
    atoms = ["2", "(-1/3)", "x", "y*z", "x + y", "ln(x)", "exp(y)", "(x + z)^(1/2)"]
    coeffs = {}
    for idx in itertools.combinations(range(chart.dimension), degree):
        if rng.random() < 0.7:
            coeffs[idx] = parse(" + ".join(rng.sample(atoms, rng.randint(1, 3))), chart)
    return Form(chart, degree, coeffs)


def test_internal_builds_match_the_checking_constructor():
    # wedge, d, +, - and scale skip Form's index and chart checks; each
    # result must be what the checking constructor builds from its own
    # coefficients, with no zero coefficient left in
    rng = random.Random(23)
    for _ in range(40):
        p = rng.randint(0, 2)
        q = rng.randint(0, 3 - p)
        a, b = mixed_form(rng, XYZ, p), mixed_form(rng, XYZ, q)
        a2 = mixed_form(rng, XYZ, p)
        factor = parse(rng.choice(["0", "1", "-2", "x*y", "ln(z) + 1"]), XYZ)
        for got in (a.wedge(b), a.d(), b.d(), a + a2, a - a2, a - a, -a,
                    a.scale(factor), a.scale(F(3, 4)), a.scale(0)):
            checked = Form(got.chart, got.degree, got.coeffs)
            assert got == checked
            assert list(got.coeffs) == list(checked.coeffs)
            assert str(got) == str(checked)


@pytest.mark.parametrize("degree, idx, chart, error, message", [
    (2, (1, 0), XYZ, ValueError, "strictly increasing"),
    (2, (1, 1), XYZ, ValueError, "strictly increasing"),
    (1, (0, 1), XYZ, ValueError, "does not match degree"),
    (1, (3,), XYZ, ValueError, "outside chart"),
    (1, (0,), Chart(("x", "y", "w")), ExprError, "wrong chart"),
])
def test_form_refuses_bad_indices_and_foreign_coefficients(degree, idx, chart, error, message):
    with pytest.raises(error, match=message):
        Form(XYZ, degree, {idx: chart.var("x")})


# -- wedge -----------------------------------------------------------------------


def test_wedge_self_annihilates():
    assert dx(XYZ, "x").wedge(dx(XYZ, "x")).is_zero_form()


def test_wedge_graded_commutativity_on_basis():
    ab = dx(XYZ, "x").wedge(dx(XYZ, "y"))
    ba = dx(XYZ, "y").wedge(dx(XYZ, "x"))
    assert ab == -ba


def test_wedge_contact_times_area_gives_volume():
    theta = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("y"))
    area = dx(XYZ, "x").wedge(dx(XYZ, "y"))
    vol = theta.wedge(area)
    assert vol.coefficient((0, 1, 2)) == XYZ.one()
    rng = random.Random(3)
    for _ in range(10):
        pt = random_point(rng, XYZ)
        vs = random_vectors(rng, 3, 3)
        assert eval_form(vol, pt, vs) == shuffle_wedge_value(theta, area, pt, vs)


def test_wedge_matches_shuffle_oracle_on_random_forms():
    rng = random.Random(5)
    for _ in range(25):
        p = rng.randint(0, 2)
        q = rng.randint(0, 3 - p)
        a = random_poly_form(rng, XYZ, p)
        b = random_poly_form(rng, XYZ, q)
        w = a.wedge(b)
        pt = random_point(rng, XYZ)
        vs = random_vectors(rng, 3, p + q)
        assert eval_form(w, pt, vs) == shuffle_wedge_value(a, b, pt, vs)


def test_wedge_bilinear_and_associative():
    rng = random.Random(9)
    for _ in range(15):
        a = random_poly_form(rng, XYZ, 1)
        b = random_poly_form(rng, XYZ, 1)
        c = random_poly_form(rng, XYZ, 1)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


# -- exterior derivative ------------------------------------------------------------


def test_d_of_product_zero_form():
    d = f0(XYZ, "x*y").d()
    assert d == Form.one_form(XYZ, {"x": XYZ.var("y"), "y": XYZ.var("x")})


def test_d_of_minus_y_dx_with_finite_difference_oracle():
    omega = dx(XYZ, "x").scale(parse("0 - y", XYZ))
    d = omega.d()
    assert d == Form(XYZ, 2, {(0, 1): XYZ.one()})
    # exact central differences: dω(u,v) = D_u[ω(v)] - D_v[ω(u)] for linear coeffs
    rng = random.Random(1)
    h = F(1, 8)
    for _ in range(10):
        pt = random_point(rng, XYZ)
        u, v = random_vectors(rng, 3, 2)

        def along(vec, w, t):
            moved = {
                n: pt[n] + t * vec[i] for i, n in enumerate(XYZ.coords)
            }
            return eval_form(omega, moved, [w])

        lhs = eval_form(d, pt, [u, v])
        rhs = (along(u, v, h) - along(u, v, -h)) / (2 * h) - (
            along(v, u, h) - along(v, u, -h)
        ) / (2 * h)
        assert lhs == rhs


def test_d_of_first_law_form():
    theta = (
        dx(GIBBS, "U")
        - dx(GIBBS, "S").scale(GIBBS.var("T"))
        + dx(GIBBS, "V").scale(GIBBS.var("p"))
    )
    d = theta.d()
    # -dT∧dS + dp∧dV reindexed over (U,S,V,T,p)
    assert d == Form(GIBBS, 2, {(1, 3): GIBBS.one(), (2, 4): -GIBBS.one()})


def test_dd_is_zero_on_random_forms():
    rng = random.Random(13)
    for degree in (0, 1, 2):
        for _ in range(10):
            a = random_poly_form(rng, XYZ, degree)
            assert a.d().d().is_zero_form()


def test_graded_leibniz():
    rng = random.Random(17)
    for _ in range(15):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2 - p)
        a = random_poly_form(rng, XYZ, p)
        b = random_poly_form(rng, XYZ, q)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b)
        signed = a.wedge(b.d())
        rhs = rhs + (signed if p % 2 == 0 else -signed)
        assert lhs == rhs


# -- pullback ----------------------------------------------------------------------


SV = Chart(("S", "V"), params=("N", "R"))


def inclusion_from_potential(u_text):
    u = parse(u_text, SV)
    return SmoothMap(
        SV,
        GIBBS,
        {
            "U": u,
            "S": SV.var("S"),
            "V": SV.var("V"),
            "T": u.diff("S"),
            "p": -u.diff("V"),
        },
    )


def test_pullback_of_du_is_chain_rule():
    phi = inclusion_from_potential("S^2*V + 3*V")
    pulled = pullback(phi, dx(GIBBS, "U"))
    u = parse("S^2*V + 3*V", SV)
    assert pulled == Form.one_form(SV, {"S": u.diff("S"), "V": u.diff("V")})


def test_pullback_kills_first_law_form_on_state_equations():
    theta = (
        dx(GIBBS, "U")
        - dx(GIBBS, "S").scale(GIBBS.var("T"))
        + dx(GIBBS, "V").scale(GIBBS.var("p"))
    )
    phi = inclusion_from_potential("S^3 + S*V^2 + 2*V")
    assert pullback(phi, theta).is_zero_form()


def test_pullback_commutes_with_wedge_and_d():
    rng = random.Random(23)
    for _ in range(12):
        comps = {
            n: parse(
                f"{rng.randint(1, 3)}*S^{rng.randint(1, 2)} + {rng.randint(1, 3)}*V",
                SV,
            )
            for n in GIBBS.coords
        }
        f = SmoothMap(SV, GIBBS, comps)
        a = random_poly_form(rng, GIBBS, 1)
        b = random_poly_form(rng, GIBBS, 1)
        assert pullback(f, a.wedge(b)) == pullback(f, a).wedge(pullback(f, b))
        assert pullback(f, a.d()) == pullback(f, a).d()


def test_pullback_functoriality():
    rng = random.Random(29)
    AB = Chart(("a", "b"))
    for _ in range(8):
        f = SmoothMap(
            AB,
            SV,
            {
                "S": parse(f"a^2 + {rng.randint(1, 4)}*b", AB),
                "V": parse(f"{rng.randint(1, 4)}*a + b^2", AB),
            },
        )
        g = SmoothMap(
            SV,
            XYZ,
            {
                "x": parse("S*V", SV),
                "y": parse(f"S + {rng.randint(1, 4)}", SV),
                "z": parse("V^2", SV),
            },
        )
        a = random_poly_form(rng, XYZ, rng.randint(0, 2))
        assert pullback(f, pullback(g, a)) == pullback(g.compose(f), a)


def pullback_every_differential(f, a):
    """pullback that differentiates every target component, read or not."""
    src = f.source
    mapping = dict(f.components)
    if a.degree == 0:
        return Form.from_expr(a.coefficient(()).subs(mapping, src))
    differentials = {
        name: Form.one_form(src, {x: f.components[name].diff(x) for x in src.coords})
        for name in f.target.coords
    }
    out = Form.zero(src, a.degree)
    for idx, coeff in a.coeffs.items():
        piece = Form.from_expr(coeff.subs(mapping, src))
        for i in idx:
            piece = piece.wedge(differentials[f.target.coords[i]])
        out = out + piece
    return out


def test_pullback_differentiates_only_indexed_components(monkeypatch):
    from entropykit.expr import Expr

    differentiated = []
    real_diff = Expr.diff

    def recording_diff(self, name):
        differentiated.append(self)
        return real_diff(self, name)

    monkeypatch.setattr(Expr, "diff", recording_diff)
    rng = random.Random(37)
    for degree in (0, 1, 2, 0, 1, 2):
        comps = {
            n: parse(
                f"{rng.randint(1, 3)}*S^{rng.randint(1, 2)}*exp(V/{rng.randint(1, 3)})"
                f" + ln(V + {rng.randint(1, 4)})*S",
                SV,
            )
            for n in GIBBS.coords
        }
        f = SmoothMap(SV, GIBBS, comps)
        dense = random_poly_form(rng, GIBBS, degree)
        sparse = Form(
            GIBBS,
            degree,
            {
                idx: dense.coeffs[idx]
                for idx in sorted(dense.coeffs)[: rng.randint(1, 2)]
            },
        )
        for a in (dense, sparse):
            want = pullback_every_differential(f, a)
            differentiated.clear()
            got = pullback(f, a)
            assert got == want
            assert [(i, c.key(), str(c)) for i, c in got.items()] == [
                (i, c.key(), str(c)) for i, c in want.items()
            ]
            read = {GIBBS.coords[i] for idx in a.coeffs for i in idx}
            assert {n for n, c in comps.items() if any(e is c for e in differentiated)} == read


# -- frobenius -------------------------------------------------------------------


def test_frobenius_integrable_scaled_exact():
    q = dx(XYZ, "y").scale(XYZ.var("x"))
    r = frobenius_check(q)
    assert r.status is FrobeniusStatus.INTEGRABLE
    assert r.confidence is Confidence.CERTAIN
    assert r.obstruction.is_zero_form()


def test_frobenius_cartan_form_not_integrable():
    q = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("y"))
    r = frobenius_check(q)
    assert r.status is FrobeniusStatus.NOT_INTEGRABLE
    assert r.obstruction == Form(XYZ, 3, {(0, 1, 2): XYZ.one()})


def test_frobenius_exact_form_trivially_integrable():
    assert frobenius_check(dx(GIBBS, "S")).integrable
    rng = random.Random(31)
    for _ in range(10):
        df = random_poly_form(rng, XYZ, 0).d()
        assert frobenius_check(df).integrable


# -- contact -----------------------------------------------------------------------


def test_contact_cartan_form():
    theta = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("y"))
    r = contact_check(theta, 1)
    assert r.status is ContactStatus.CONTACT
    assert r.top_coefficient == XYZ.one()
    assert r.confidence is Confidence.CERTAIN


def test_contact_degenerate_exact_form():
    r = contact_check(dx(XYZ, "z"), 1)
    assert r.status is ContactStatus.DEGENERATE
    assert r.confidence is Confidence.CERTAIN


def test_contact_first_law_form_dimension_five():
    theta = (
        dx(GIBBS, "U")
        - dx(GIBBS, "S").scale(GIBBS.var("T"))
        + dx(GIBBS, "V").scale(GIBBS.var("p"))
    )
    r = contact_check(theta, 2)
    assert r.status is ContactStatus.CONTACT
    assert r.top_coefficient == GIBBS.const(2)


def test_contact_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        contact_check(dx(XYZ, "z"), 2)


def test_darboux_shape_recognizes_canonical_forms():
    from entropykit.forms import darboux_shape

    theta = (
        dx(GIBBS, "U")
        - dx(GIBBS, "S").scale(GIBBS.var("T"))
        + dx(GIBBS, "V").scale(GIBBS.var("p"))
    )
    shape = darboux_shape(theta)
    assert shape.canonical
    assert shape.potential == "U"
    assert set(shape.pairs) == {("T", "S", 1), ("p", "V", -1)}
    cartan = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("y"))
    assert darboux_shape(cartan).canonical


def test_darboux_shape_rejects_non_canonical_forms():
    from entropykit.forms import darboux_shape

    assert not darboux_shape(dx(XYZ, "y").scale(XYZ.var("x"))).canonical
    squared = dx(GIBBS, "U") - dx(GIBBS, "S").scale(parse("T^2", GIBBS))
    assert not darboux_shape(squared).canonical
    reused = (
        dx(GIBBS, "U")
        - dx(GIBBS, "S").scale(GIBBS.var("T"))
        - dx(GIBBS, "V").scale(GIBBS.var("T"))
    )
    assert not darboux_shape(reused).canonical
    overlapping = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("x"))
    assert not darboux_shape(overlapping).canonical


def test_darboux_canonical_form_is_contact_for_small_n():
    for n in (1, 2, 3):
        names = ["X0"] + [f"X{i}" for i in range(1, n + 1)] + [
            f"P{i}" for i in range(1, n + 1)
        ]
        chart = Chart(tuple(names))
        theta = dx(chart, "X0")
        for i in range(1, n + 1):
            theta = theta - dx(chart, f"X{i}").scale(chart.var(f"P{i}"))
        r = contact_check(theta, n)
        assert r.status is ContactStatus.CONTACT
        assert r.confidence is Confidence.CERTAIN
        assert frobenius_check(theta).status is FrobeniusStatus.NOT_INTEGRABLE


def test_contact_forms_are_maximally_non_integrable():
    rng = random.Random(61)
    contacts = 0
    for _ in range(40):
        theta = random_poly_form(rng, XYZ, 1)
        if theta.is_zero_form():
            continue
        r = contact_check(theta, 1)
        if r.status is ContactStatus.CONTACT and r.confidence is Confidence.CERTAIN:
            contacts += 1
            assert frobenius_check(theta).status is FrobeniusStatus.NOT_INTEGRABLE
    assert contacts > 3


# -- integrating factor ---------------------------------------------------------------


def test_integrating_factor_literal_identity():
    q = dx(XYZ, "y").scale(XYZ.var("x"))
    r = verify_integrating_factor(q, XYZ.var("x"), XYZ.var("y"))
    assert r.status is FactorStatus.OK
    assert r.confidence is Confidence.CERTAIN


def test_integrating_factor_fails_on_non_integrable_form():
    q = dx(XYZ, "z") - dx(XYZ, "x").scale(XYZ.var("y"))
    assert frobenius_check(q).status is FrobeniusStatus.NOT_INTEGRABLE
    for t_text, s_text in [("1", "z"), ("x", "y"), ("x + y", "z - x*y"), ("z", "x^2")]:
        r = verify_integrating_factor(q, parse(t_text, XYZ), parse(s_text, XYZ))
        assert r.status is FactorStatus.FAIL
    rng = random.Random(37)
    for _ in range(15):
        t = random_poly_form(rng, XYZ, 0).coefficient(()) + XYZ.const(5)
        s = random_poly_form(rng, XYZ, 0).coefficient(())
        r = verify_integrating_factor(q, t, s)
        assert r.status in (FactorStatus.FAIL, FactorStatus.SINGULAR_FACTOR)


def test_integrating_factor_ideal_gas_heat_form():
    uv = Chart(("U", "V"), params=("N", "R"))
    q = Form.one_form(uv, {"U": uv.one(), "V": parse("2/3*U/V", uv)})
    T = parse("2*U/(3*N*R)", uv)
    S = parse("3/2*N*R*ln(U) + N*R*ln(V)", uv)
    r = verify_integrating_factor(q, T, S)
    assert r.status is FactorStatus.OK
    assert r.confidence is Confidence.CERTAIN


def test_integrating_factor_rejects_vanishing_factor():
    q = dx(XYZ, "y").scale(XYZ.var("x"))
    r = verify_integrating_factor(q, XYZ.zero(), XYZ.var("y"))
    assert r.status is FactorStatus.SINGULAR_FACTOR


# -- contact symmetries ----------------------------------------------------------------


JET = Chart(("x", "y", "p"), params=("alpha", "beta"))


def cartan(chart=JET):
    return Form.d_coord(chart, "y") - Form.d_coord(chart, "x").scale(chart.var("p"))


def test_translation_is_contact_symmetry():
    phi = SmoothMap(
        JET,
        JET,
        {
            "x": parse("x + alpha", JET),
            "y": parse("y + beta", JET),
            "p": JET.var("p"),
        },
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.SYMMETRY
    assert r.factor == JET.one()


def test_legendre_map_is_contact_symmetry():
    phi = SmoothMap(
        JET,
        JET,
        {
            "x": JET.var("p"),
            "y": parse("y - x*p", JET),
            "p": -JET.var("x"),
        },
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.SYMMETRY
    assert r.factor == JET.one()


def test_vertical_doubling_is_not_a_symmetry():
    phi = SmoothMap(
        JET,
        JET,
        {"x": JET.var("x"), "y": parse("2*y", JET), "p": JET.var("p")},
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.NOT_SYMMETRY


def test_scaling_symmetry_recovers_factor():
    phi = SmoothMap(
        JET,
        JET,
        {"x": JET.var("x"), "y": parse("3*y", JET), "p": parse("3*p", JET)},
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.SYMMETRY
    assert r.factor == JET.const(3)


def test_symmetry_check_rejects_zero_form():
    with pytest.raises(ValueError):
        contact_symmetry_check(SmoothMap.identity(JET), Form.zero(JET, 1))


# -- certainty propagation --------------------------------------------------------------
# exp(ln(u)) equals u on the positive domain, but the normal form keeps it, so
# only sampling can judge a residual built from it.


def test_integrating_factor_with_sampled_residual_is_sampled():
    q = dx(XYZ, "x").scale(XYZ.var("y"))
    r = verify_integrating_factor(q, parse("exp(ln(y))", XYZ), XYZ.var("x"))
    assert r.status is FactorStatus.OK
    assert r.confidence is Confidence.SAMPLED
    assert r.witness is None


def test_integrating_factor_certain_failure_overrides_sampled_factor():
    q = dx(XYZ, "x").scale(parse("2*y", XYZ))
    r = verify_integrating_factor(q, parse("exp(ln(y))", XYZ), XYZ.var("x"))
    assert r.status is FactorStatus.FAIL
    assert r.confidence is Confidence.CERTAIN
    assert r.witness == ((0,), parse("2*y - exp(ln(y))", XYZ))


def test_frobenius_with_sampled_obstruction_is_sampled():
    q = dx(XYZ, "z") + dx(XYZ, "y").scale(parse("(exp(ln(x)) - x)*z", XYZ))
    r = frobenius_check(q)
    assert r.status is FrobeniusStatus.INTEGRABLE
    assert r.confidence is Confidence.SAMPLED
    assert r.witness is None


def counting_zero_tests(monkeypatch):
    tested = []
    real = forms.is_zero

    def counting(e, config=forms.DEFAULT_ZERO_CONFIG):
        tested.append(e)
        return real(e, config)

    monkeypatch.setattr(forms, "is_zero", counting)
    return tested


def test_contact_symmetry_with_sampled_multiplier_is_sampled(monkeypatch):
    tested = counting_zero_tests(monkeypatch)
    phi = SmoothMap(
        JET, JET, {"x": JET.var("x"), "y": parse("exp(ln(y))", JET), "p": JET.var("p")}
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.SYMMETRY
    assert r.confidence is Confidence.SAMPLED
    assert r.factor == parse("exp(ln(y))/y", JET)
    assert len(tested) == 2  # one residual per basis index


def test_contact_symmetry_stops_at_first_certain_nonzero_residual(monkeypatch):
    tested = counting_zero_tests(monkeypatch)
    doubling = SmoothMap(
        JET, JET, {"x": JET.var("x"), "y": parse("2*y", JET), "p": JET.var("p")}
    )
    r = contact_symmetry_check(doubling, cartan())
    assert r.status is SymmetryStatus.NOT_SYMMETRY
    assert r.confidence is Confidence.CERTAIN
    assert r.witness == ((0,), JET.var("p"))
    assert tested == [JET.var("p")]
    # a sampled multiplier does not make a certain residual failure sampled
    tested.clear()
    phi = SmoothMap(
        JET, JET, {"x": JET.var("x"), "y": parse("exp(ln(y))", JET), "p": parse("2*p", JET)}
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.NOT_SYMMETRY
    assert r.confidence is Confidence.CERTAIN
    assert r.witness[0] == (0,)
    assert len(tested) == 1
