import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    assert_same_contact,
    assert_same_form,
    compose_smooth_maps,
    reference_arithmetic,
    reference_contact_check,
    reference_pullback,
)
from entropykit import expr
from entropykit.expr import DEFAULT_ZERO_CONFIG, Chart, Expr, ExprError, parse, term_sign
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
)
from entropykit.forms import _merge_indices, _nonvanishing
from test_expr import assert_same_terms, signed_sums

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


def folded_wedge(a, b):
    """a ∧ b with each product added into its index as it comes."""
    out = {}
    for li, lc in a.coeffs.items():
        for ri, rc in b.coeffs.items():
            merged = _merge_indices(li, ri)
            if merged is not None:
                sign, idx = merged
                piece = lc * rc if sign > 0 else -(lc * rc)
                out[idx] = out[idx] + piece if idx in out else piece
    return {i: c for i, c in out.items() if c.terms}


def folded_d(a):
    """d a with every coordinate differentiated and each derivative added
    into its index as it comes."""
    out = {}
    for idx, coeff in a.coeffs.items():
        for j, name in enumerate(a.chart.coords):
            dc = coeff.diff(name)
            merged = _merge_indices((j,), idx)
            if merged is not None and dc.terms:
                sign, new_idx = merged
                piece = dc if sign > 0 else -dc
                out[new_idx] = out[new_idx] + piece if new_idx in out else piece
    return {i: c for i, c in out.items() if c.terms}


def assert_same_coefficients(got, want):
    assert sorted(got.coeffs) == sorted(want)
    for idx, coeff in got.coeffs.items():
        assert_same_terms(coeff, want[idx])


def test_wedge_and_d_merge_each_coefficient_once_as_the_fold_does():
    # every piece of an index merged at once gives the terms, coefficient
    # types, keys and printed form of adding them in one by one under the
    # Fraction merges
    rng = random.Random(41)
    for _ in range(40):
        p = rng.randint(0, 2)
        a, b = mixed_form(rng, XYZ, p), mixed_form(rng, XYZ, rng.randint(0, 3 - p))
        a = a.scale(parse(rng.choice(["1", "3/10", "x/6 - y/4"]), XYZ))
        with reference_arithmetic():
            wedge, d = folded_wedge(a, b), folded_d(a)
        assert_same_coefficients(a.wedge(b), wedge)
        assert_same_coefficients(a.d(), d)


def test_wedge_pieces_that_cancel_leave_no_index():
    # θ ∧ θ: the pieces at each index cancel, so every index leaves the form
    a, b = parse("x/2 + y/3", XYZ), parse("x/6 - z/10", XYZ)
    theta = Form.one_form(XYZ, {"x": a, "y": b, "z": parse("y", XYZ)})
    assert theta.wedge(theta).coeffs == {}
    # (x/2 dx + x dy + dz) ∧ (y/2 dx + y dy): x/2*y and -x*y/2 meet at (x, y)
    # and cancel there; the pieces at (x, z) and (y, z) stay
    left = Form.one_form(XYZ, {"x": parse("x/2", XYZ), "y": parse("x", XYZ), "z": XYZ.one()})
    right = Form.one_form(XYZ, {"x": parse("y/2", XYZ), "y": parse("y", XYZ)})
    got = left.wedge(right)
    assert sorted(got.coeffs) == [(0, 2), (1, 2)]
    assert str(got) == "-1/2*y*dx∧dz - y*dy∧dz"


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


def test_d_differentiates_only_the_coordinates_a_coefficient_contains(monkeypatch):
    calls = []
    real_diff = Expr.diff

    def recording_diff(self, name):
        calls.append((str(self), name))
        return real_diff(self, name)

    monkeypatch.setattr(Expr, "diff", recording_diff)
    omega = Form.one_form(XYZ, {"y": parse("x*z + y", XYZ), "z": parse("exp(y)", XYZ)})
    assert str(omega.d()) == "z*dx∧dy + (-x + exp(y))*dy∧dz"
    # y on dy and z on dz add nothing to d: their derivatives are not taken
    assert [c for c in calls if c[0] in ("x*z + y", "exp(y)")] == [
        ("x*z + y", "x"), ("x*z + y", "z"), ("exp(y)", "y")
    ]


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
        assert pullback(f, pullback(g, a)) == pullback(compose_smooth_maps(g, f), a)


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
            want = reference_pullback(f, a)
            differentiated.clear()
            got = pullback(f, a)
            assert got == want
            assert_same_form(got, want)
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


def test_contact_with_a_one_signed_top_coefficient_is_certain():
    # exp(x) dz - y dx: the top coefficient exp(x) is positive by its terms
    theta = Form.one_form(XYZ, {"z": parse("exp(x)", XYZ), "x": parse("-y", XYZ)})
    r = contact_check(theta, 1)
    assert (r.status, r.confidence) == (ContactStatus.CONTACT, Confidence.CERTAIN)
    assert str(r.top_coefficient) == "exp(x)"


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


def test_a_small_factor_of_one_sign_is_certain():
    # 10^-12*exp(x) is below every sample tolerance but never vanishes: its
    # terms prove it positive, so nothing is sampled
    xy = Chart(("x", "y"))
    T = parse("1/1000000000000*exp(x)", xy)
    r = verify_integrating_factor(dx(xy, "y").scale(T), T, xy.var("y"))
    assert (r.status, r.confidence) == (FactorStatus.OK, Confidence.CERTAIN)


@pytest.mark.differential
@given(signed_sums(one_signed=True), signed_sums(), st.integers(-12, 12))
@settings(max_examples=150, deadline=None)
def test_scaling_a_one_signed_factor_keeps_the_decomposition_certain(T, S, k):
    # q = T dS at every scale 10^k: q·10^k = (T·10^k) dS stays OK and certain
    assert term_sign(T)
    q = Form.from_expr(S).d().scale(T)
    c = F(10) ** k
    for form, factor in ((q, T), (q.scale(c), T * c)):
        r = verify_integrating_factor(form, factor, S)
        assert (r.status, r.confidence) == (FactorStatus.OK, Confidence.CERTAIN), (str(T), k)


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


def test_a_map_to_one_point_has_a_vanishing_factor():
    # φ*ω = 0 for the constant map, so the multiplier is exactly 0
    chart = Chart(("x", "z", "p"))
    phi = SmoothMap(chart, chart, {"x": chart.one(), "z": chart.one(), "p": chart.zero()})
    omega = dx(chart, "z") - dx(chart, "x").scale(chart.var("p"))
    r = contact_symmetry_check(phi, omega)
    assert (r.status, r.confidence) == (SymmetryStatus.NOT_SYMMETRY, Confidence.CERTAIN)
    assert r.witness == ("factor vanishes", None)


def test_symmetry_check_rejects_zero_form():
    with pytest.raises(ValueError):
        identity = SmoothMap(JET, JET, {n: JET.var(n) for n in JET.coords})
        contact_symmetry_check(identity, Form.zero(JET, 1))


# -- certainty propagation --------------------------------------------------------------
# exp(ln(u)) equals u on the positive domain, but the normal form keeps it, so
# only sampling can judge a residual built from it.  exp(ln(u)) is positive by
# its terms; 2*exp(ln(u)) - u, which equals u, has terms of both signs, so only
# sampling can judge that it never vanishes.

SAMPLED_Y = "2*exp(ln(y)) - y"


def assert_sampled_factor(e):
    assert _nonvanishing(e, DEFAULT_ZERO_CONFIG)[1:] == (Confidence.SAMPLED, None)


def test_integrating_factor_with_sampled_residual_is_sampled():
    q = dx(XYZ, "x").scale(XYZ.var("y"))
    r = verify_integrating_factor(q, parse("exp(ln(y))", XYZ), XYZ.var("x"))
    assert r.status is FactorStatus.OK
    assert r.confidence is Confidence.SAMPLED
    assert r.witness is None


def test_integrating_factor_certain_failure_overrides_sampled_factor():
    q = dx(XYZ, "x").scale(parse("2*y", XYZ))
    T = parse(SAMPLED_Y, XYZ)
    assert_sampled_factor(T)
    r = verify_integrating_factor(q, T, XYZ.var("x"))
    assert r.status is FactorStatus.FAIL
    assert r.confidence is Confidence.CERTAIN
    assert r.witness == ((0,), parse("3*y - 2*exp(ln(y))", XYZ))


def test_frobenius_with_sampled_obstruction_is_sampled():
    q = dx(XYZ, "z") + dx(XYZ, "y").scale(parse("(exp(ln(x)) - x)*z", XYZ))
    r = frobenius_check(q)
    assert r.status is FrobeniusStatus.INTEGRABLE
    assert r.confidence is Confidence.SAMPLED
    assert r.witness is None


def counting_zero_tests(monkeypatch):
    tested = []
    real = expr.is_zero

    def counting(e, config=expr.DEFAULT_ZERO_CONFIG):
        tested.append(e)
        return real(e, config)

    monkeypatch.setattr(expr, "is_zero", counting)
    return tested


def test_contact_symmetry_with_sampled_multiplier_is_sampled(monkeypatch):
    tested = counting_zero_tests(monkeypatch)
    phi = SmoothMap(
        JET, JET, {"x": JET.var("x"), "y": parse(SAMPLED_Y, JET), "p": JET.var("p")}
    )
    r = contact_symmetry_check(phi, cartan())
    assert r.status is SymmetryStatus.SYMMETRY
    assert r.confidence is Confidence.SAMPLED
    assert r.factor == parse("2*exp(ln(y))/y - 1", JET)
    assert_sampled_factor(r.factor)
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
        JET, JET, {"x": JET.var("x"), "y": parse(SAMPLED_Y, JET), "p": parse("2*p", JET)}
    )
    r = contact_symmetry_check(phi, cartan())
    assert_sampled_factor(r.factor)
    assert r.status is SymmetryStatus.NOT_SYMMETRY
    assert r.confidence is Confidence.CERTAIN
    assert r.witness[0] == (0,)
    assert len(tested) == 1


# -- contact checks and pullbacks against their frozen references --------------

# contact_check carries only the entries of θ ∧ (dθ)^k that can still reach the
# top index, and pullback takes a map component's partials only in the source
# coordinates it contains; the references in _oracles wedge every entry and
# take every partial.  Coordinates are x0..x6 (sources) and y0..y6 (targets),
# with one parameter k.

XS = {d: Chart(tuple(f"x{i}" for i in range(d)), params=("k",)) for d in range(1, 8)}
YS = {d: Chart(tuple(f"y{i}" for i in range(d)), params=("k",)) for d in range(1, 8)}
ATOMS = ("{a}", "{a}^2", "{a}*{b}", "exp({a})", "ln({a})", "({a} + {b})^(1/2)",
         "({a} + 2*{b})^(-1/3)", "{a}^(3/2)")


@st.composite
def coefficients(draw, chart, names, max_terms=2, positive=False):
    """A coefficient in the coordinates names and the parameter k: a
    constant, or a sum of products of polynomial, exp, ln and opaque-power
    atoms (with positive multipliers only if positive, so that it can stand
    inside ln or a root)."""
    scales = ["1", "3/5", "k"] if positive else ["1", "(-3)", "2/7", "(-k)"]
    if not names:
        return parse(draw(st.sampled_from(scales)), chart)
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        factors = [draw(st.sampled_from(scales))]
        for _ in range(draw(st.integers(1, 2))):
            a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            factors.append(draw(st.sampled_from(ATOMS)).format(a=a, b=b))
        terms.append("*".join(factors))
    return parse(" + ".join(terms), chart)


@st.composite
def contact_candidates(draw):
    """(θ, n) on a (2n+1)-chart.  Each index in a drawn set gets a
    coefficient in its own coordinate alone or a constant, and no other
    coefficient contains its coordinate, so no term of dθ carries it; the
    other coefficients each contain a drawn handful of the other coordinates,
    so dθ comes out sparse or dense."""
    n = draw(st.integers(0, 3))
    chart = XS[2 * n + 1]
    coords = chart.coords
    carried_by_none = draw(st.sets(st.integers(0, 2 * n), max_size=2))
    live = [c for i, c in enumerate(coords) if i not in carried_by_none]
    dense = draw(st.booleans())
    coeffs = {}
    for i, name in enumerate(coords):
        if not (dense or draw(st.booleans())):
            continue
        if i in carried_by_none:
            names = [name] if draw(st.booleans()) else []
        else:
            names = draw(st.lists(st.sampled_from(live), max_size=3, unique=True))
        coeffs[i,] = draw(coefficients(chart, names, max_terms=2 if n < 2 else 1))
    return Form(chart, 1, coeffs), n


@pytest.mark.differential
@given(contact_candidates())
@settings(max_examples=200, deadline=None)
def test_contact_check_matches_the_full_chain_reference(case):
    theta, n = case
    assert_same_contact(
        contact_check(theta, n), reference_contact_check(theta, n, DEFAULT_ZERO_CONFIG)
    )


@st.composite
def pullback_cases(draw):
    """A smooth map from a 1- to 4-dimensional chart onto a 1- to
    7-dimensional one, whose components each contain a drawn few source
    coordinates (none for a constant), and a form of degree 0-3 on a few
    index tuples of the target with coefficients in its coordinates."""
    src = XS[draw(st.integers(1, 4))]
    dst = YS[draw(st.integers(1, 7))]
    comps = {}
    for name in dst.coords:
        names = draw(st.lists(st.sampled_from(src.coords), max_size=2, unique=True))
        comps[name] = draw(coefficients(src, names, positive=True))
    degree = draw(st.integers(0, min(3, dst.dimension)))
    combos = list(itertools.combinations(range(dst.dimension), degree))
    coeffs = {}
    for idx in draw(st.lists(st.sampled_from(combos), min_size=1, max_size=4, unique=True)):
        names = draw(st.lists(st.sampled_from(dst.coords), max_size=2, unique=True))
        coeffs[idx] = draw(coefficients(dst, names, max_terms=1))
    return SmoothMap(src, dst, comps), Form(dst, degree, coeffs)


@pytest.mark.differential
@given(pullback_cases())
@settings(max_examples=200, deadline=None)
def test_pullback_matches_the_every_partial_reference(case):
    f, a = case
    assert_same_form(pullback(f, a), reference_pullback(f, a))
