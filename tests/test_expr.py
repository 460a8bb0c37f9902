import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import entropykit
from _oracles import reference_arithmetic, reference_evaluate
from entropykit.expr import (
    Chart,
    DomainError,
    Expr,
    ExprError,
    MAX_EXPANSION_TERMS,
    ParseError,
    UnknownSymbolError,
    ZeroVerdict,
    exp,
    is_zero,
    ln,
    parse,
    term_sign,
)
# the canonical order and the cached term keys are checked directly
from entropykit.expr import _Pow, _Term, _base_key, _nth_root, _pieces, _term_key

XY = Chart(("x", "y"))
GIBBS = Chart(("U", "S", "V", "T", "p"))


def rational(rng, bound=12):
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def positive_rational(rng, bound=12):
    return F(rng.randint(1, 10 * bound), rng.randint(1, bound))


# -- parsing ------------------------------------------------------------------


def test_parse_monomial_with_params():
    ch = Chart(("T",), params=("N", "R"))
    e = parse("3/2*N*R*T", ch)
    assert e == ch.const(F(3, 2)) * ch.var("N") * ch.var("R") * ch.var("T")


def test_parse_cancellation_to_zero():
    assert parse("x*y - y*x", XY).is_zero_expr()


def test_parse_gibbs_body_is_three_terms():
    e = parse("U + p*V - T*S", GIBBS)
    assert len(e.terms) == 3
    assert e == GIBBS.var("U") + GIBBS.var("p") * GIBBS.var("V") - GIBBS.var(
        "T"
    ) * GIBBS.var("S")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", XY)
    assert err.value.col == 5
    with pytest.raises(UnknownSymbolError) as err:
        parse("x + q", XY)
    assert err.value.name == "q"
    with pytest.raises(ParseError):
        parse("x / 0", XY)
    with pytest.raises(ParseError):
        parse("x / (2 - 2)", XY)


def test_parser_nesting_is_bounded():
    from entropykit.expr import MAX_NESTING, ln

    n = MAX_NESTING
    assert parse("(" * n + "x" + ")" * n, XY) == XY.var("x")
    calls = parse("ln(" * (n - 1) + "(x)" + ")" * (n - 1), XY)
    want = XY.var("x")
    for _ in range(n - 1):
        want = ln(want)
    assert calls == want
    with pytest.raises(ParseError) as err:
        parse("y +\n" + "(" * (n + 1) + "x" + ")" * (n + 1), XY)
    assert (err.value.line, err.value.col) == (2, n + 1)
    with pytest.raises(ParseError) as err:
        parse("exp(" * n + "ln(x)" + ")" * n, XY)
    assert (err.value.line, err.value.col) == (1, 4 * n + 1)


def test_ln_of_a_non_positive_constant_is_refused():
    xyz = Chart(("x", "y", "z"))
    for text, shown in (("ln(x - x)", "0"), ("ln(1 - 2)", "-1"), ("y*ln(-1/2)", "-1/2")):
        with pytest.raises(ExprError, match=rf"ln of a non-positive constant: ln\({shown}\)"):
            parse(text, xyz)
    assert parse("ln(3 - 2)", xyz).is_zero_expr()
    assert str(parse("ln(1/2)", xyz)) == "ln(1/2)"


def test_power_budgets_hold_at_their_edges(monkeypatch):
    from entropykit import expr

    xyz = Chart(("x", "y", "z"))
    monkeypatch.setattr(expr, "MAX_EXPANSION_TERMS", 10)
    assert len(parse("(x+y+z)^3", xyz).terms) == 10
    with pytest.raises(ExprError, match="sum of 3 terms to the power 4 exceeds"):
        parse("(x+y+z)^4", xyz)
    with pytest.raises(ExprError, match="budget of 10 terms"):
        parse("((x+y)^(1/2))^22", xyz)  # the expansion after combining powers
    assert len(parse("(x+y+z)^(-4)", xyz).terms) == 1  # stays opaque
    # 3 has 2 bits: 3^5000 has at most 10000, 3^5001 and 3^(15004/3) more
    assert parse("3^5000", xyz).as_constant() == F(3) ** 5000
    assert parse("(1/3)^(-5000)", xyz).as_constant() == F(3) ** 5000
    for text in ("3^5001", "(1/3)^(-5001)", "9^(7502/3)", "2^10000000000"):
        with pytest.raises(ExprError, match="exceeds the budget of 10000 bits"):
            parse(text, xyz)
    assert parse("1^10000000000 + (-1)^10000000001", xyz).as_constant() == 0
    # a numeric power has the same budget; past it, its value is a float
    # (3^5001 overflows, (1/3)^5001 underflows), and ±1 is exempt again
    within, past = parse("x^5000", xyz), parse("x^5001", xyz)
    assert within.evaluate({"x": F(3)}) == F(3) ** 5000
    assert type(past.evaluate({"x": F(1, 3)})) is float
    assert past.evaluate({"x": F(1, 3)}) == 0.0
    with pytest.raises(DomainError, match="power overflow"):
        past.evaluate({"x": F(-3)})
    assert parse("x^(-1000000001)", xyz).evaluate({"x": F(-1)}) == F(-1)
    # a power past the budget is taken of the reciprocal where q < 0; a base
    # past the float range (x = 10^-400 here) raises the same DomainError
    tiny = parse("x^(-5001)", xyz)
    assert tiny.evaluate({"x": F(3)}) == 0.0
    with pytest.raises(DomainError, match="power overflow"):
        tiny.evaluate({"x": F(1, 10**400)})
    for e in (within, past, tiny):
        for v in (3.0, -1 / 3, 1.0, 1e-300, 0.0):
            assert outcome(lambda: e.compile({}, "x")(v)) == outcome(
                lambda: e.evaluate({"x": v}))


def test_power_of_a_base_past_the_float_range():
    # at x = 10 the opaque base has about 1330 bits, past the float range,
    # and 30 times that is past MAX_POWER_BITS; the power is below the
    # smallest float, not an OverflowError
    xyz = Chart(("x", "y", "z"))
    e = parse("(x^400 + 1)^(-30)", xyz)
    point = {"x": F(10)}
    assert float(e.evaluate(point)) == 0.0
    assert outcome(lambda: e.compile({}, "x")(10.0)) == outcome(
        lambda: e.evaluate({"x": 10.0}))


def test_parse_power_forms():
    assert parse("x^2", XY) == XY.var("x") * XY.var("x")
    assert parse("x^(1/2) * x^(1/2)", XY) == XY.var("x")
    assert parse("x^(-1) * x", XY) == XY.one()
    assert parse("(8/27)^(2/3)", XY) == XY.const(F(4, 9))
    # past the float range a root is found by integer Newton steps
    assert parse("(2^2000)^(1/2)", XY) == parse("2^1000", XY)
    assert parse("(2^2000 + 1)^(1/2)", XY).as_constant() is None  # stays opaque


def test_unparenthesised_exponent_is_a_signed_integer():
    # a bare exponent ends at its digits: the division after it divides the
    # power, and only ^(p/q) is a rational exponent
    x, y = XY.var("x"), XY.var("y")
    assert parse("x^2/3", XY) == x**2 * XY.const(F(1, 3))
    assert parse("x^2/3", XY) != parse("x^(2/3)", XY)
    assert parse("x^2/y", XY) == x**2 * y ** (-1)
    assert parse("x^-2/3", XY) == x ** (-2) * XY.const(F(1, 3))
    assert parse("2^3/4", XY) == XY.const(2)
    # the parenthesised and the signed forms keep their meaning
    assert parse("x^(2/3)", XY) == x ** F(2, 3)
    assert parse("x^(-2/3)", XY) == x ** F(-2, 3)
    assert parse("x^(-2)", XY) == parse("x^-2", XY) == x ** (-2)
    with pytest.raises(ParseError, match="expected an integer denominator"):
        parse("x^(2/y)", XY)
    with pytest.raises(ParseError, match="zero denominator in exponent"):
        parse("x^(2/0)", XY)


def test_opaque_power_algebra():
    ch = Chart(("x", "y"))
    x, y = ch.var("x"), ch.var("y")
    assert (x + y) ** F(1, 2) * (x + y) ** F(3, 2) == (x + y) ** 2
    assert ((x + y) ** F(-2)) ** F(-1, 2) == x + y
    assert (x + y) ** F(-1, 2) * (x + y) ** F(-1, 2) == (x + y) ** (-1)
    assert (x + y) ** 0 == ch.one()
    # quotients by multi-term sums stay opaque; equality falls to sampling
    spread = (x + y) ** F(-1) * (x + y) ** 2
    assert is_zero(spread - (x + y)).verdict is ZeroVerdict.PROBABLY_ZERO
    # rational powers distribute over monomials, extracting exact roots
    pch = Chart(("u",), params=("N",))
    assert parse("(4*N^2*u^4)^(1/2)", pch) == parse("2*N*u^2", pch)
    d = ((x + y) ** F(1, 2)).diff("x")
    assert abs(float(d.evaluate({"x": F(1), "y": F(3)})) - 0.25) < 1e-12
    g = (x * x + y) ** F(1, 2) * ln(x + 2 * y)
    assert g.diff("x").diff("y") == g.diff("y").diff("x")


def test_reserved_function_names():
    with pytest.raises(ExprError):
        Chart(("ln",))
    e = parse("ln(x) + exp(y)", XY)
    assert str(e) == "ln(x) + exp(y)"


# -- differentiation ----------------------------------------------------------


def difference_quotient(f, point, name, h=None):
    """High-precision central difference of a closed-form mpmath function."""
    import mpmath as mp

    with mp.workdps(50):
        h = h or mp.mpf(10) ** -15
        hi = {k: mp.mpf(v.numerator) / v.denominator for k, v in point.items()}
        lo = dict(hi)
        hi[name] += h
        lo[name] -= h
        return float((f(**hi) - f(**lo)) / (2 * h))


def test_derivative_of_log_against_difference_quotient():
    import mpmath as mp

    ch = Chart(("U",), params=("N", "R"))
    e = parse("3/2*N*R*ln(U)", ch)
    d = e.diff("U")
    assert d == parse("3/2*N*R*U^(-1)", ch)
    oracle = lambda U, N, R: mp.mpf(3) / 2 * N * R * mp.log(U)
    rng = random.Random(7)
    for _ in range(8):
        point = {n: positive_rational(rng) for n in ("U", "N", "R")}
        got = float(d.evaluate(point))
        assert abs(got - difference_quotient(oracle, point, "U")) < 1e-9


def test_derivative_of_independent_coordinate():
    assert GIBBS.var("U").diff("V").is_zero_expr()


def test_derivative_requires_a_chart_coordinate():
    ch = Chart(("T",), params=("N",))
    with pytest.raises(ExprError):
        ch.var("T").diff("N")  # parameters are constants, not coordinates


def test_derivative_of_linear_term():
    e = parse("U + p*V - T*S", GIBBS)
    assert e.diff("S") == -GIBBS.var("T")


def test_derivative_of_general_tree_against_difference_quotient():
    import mpmath as mp

    e = parse("exp(x*y) * ln(x + 3) + x^(3/2) * y^(-2)", XY)
    oracle = lambda x, y: mp.e ** (x * y) * mp.log(x + 3) + x ** mp.mpf("1.5") / y**2
    rng = random.Random(11)
    for name in ("x", "y"):
        d = e.diff(name)
        for _ in range(8):
            point = {
                n: F(rng.randint(1, 24), rng.randint(1, 6)) for n in ("x", "y")
            }
            got = float(d.evaluate(point))
            want = difference_quotient(oracle, point, name)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))


# -- zero testing ---------------------------------------------------------------


def test_zero_verdicts():
    assert is_zero(XY.zero()).verdict is ZeroVerdict.CERTAIN_ZERO
    assert is_zero(XY.var("x")).verdict is ZeroVerdict.CERTAIN_NONZERO
    x = Chart(("x",)).var("x")
    assert is_zero(exp(ln(x)) - x).verdict is ZeroVerdict.PROBABLY_ZERO


def test_zero_test_sees_through_transcendental_nonzero():
    x = Chart(("x",)).var("x")
    r = is_zero(exp(ln(x)) - x - x.chart.const(F(1, 2)))
    assert r.verdict is ZeroVerdict.CERTAIN_NONZERO
    assert r.witness is not None


def test_zero_test_is_deterministic():
    x = Chart(("x",)).var("x")
    e = exp(ln(x)) - x - x.chart.const(F(1, 2))
    assert is_zero(e).witness == is_zero(e).witness


def test_zero_test_resamples_out_of_domain_points():
    # ln(x - 1) is undefined on a sizable part of the sampling window (0, 10]
    ch = Chart(("x",))
    e = exp(ln(parse("x - 1", ch))) - parse("x - 1", ch)
    assert is_zero(e).verdict is ZeroVerdict.PROBABLY_ZERO


def test_zero_test_reports_failure_after_max_retries():
    from entropykit.expr import SamplingError

    ch = Chart(("x",))
    never_valid = ln(parse("x - 20", ch)) + ch.var("x")
    with pytest.raises(SamplingError):
        is_zero(never_valid)


# -- evaluation -----------------------------------------------------------------


def test_exact_evaluation_stays_rational():
    v = parse("x^2*y - 1/3", XY).evaluate({"x": F(3, 2), "y": F(4)})
    assert v == F(26, 3)
    assert isinstance(v, F)


def test_evaluation_domain_errors():
    with pytest.raises(DomainError):
        ln(XY.var("x")).evaluate({"x": F(-1)})
    with pytest.raises(DomainError):
        parse("x^(-1)", XY).evaluate({"x": F(0)})


# -- algebraic properties ---------------------------------------------------------


def random_polynomial(rng, chart, degree=3, terms=4):
    e = chart.const(rational(rng))
    names = chart.coords
    for _ in range(terms):
        t = chart.const(rational(rng))
        for _ in range(rng.randint(0, degree)):
            t = t * chart.var(rng.choice(names))
        e = e + t
    return e


def random_expr(rng, chart, depth=2):
    e = random_polynomial(rng, chart)
    if depth > 0 and rng.random() < 0.5:
        inner = random_polynomial(rng, chart, degree=2, terms=2)
        e = e + chart.const(rational(rng)) * ln(inner * inner + chart.one())
    if depth > 0 and rng.random() < 0.3:
        e = e + exp(chart.const(rational(rng, 3)) * chart.var(rng.choice(chart.coords)))
    return e


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(seed):
    rng = random.Random(seed)
    e = random_expr(rng, XY)
    assert parse(str(e), XY) == e


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_differentiation_is_linear(seed):
    rng = random.Random(seed)
    a, b = rational(rng), rational(rng)
    e1, e2 = random_expr(rng, XY), random_expr(rng, XY)
    combo = XY.const(a) * e1 + XY.const(b) * e2
    assert combo.diff("x") == XY.const(a) * e1.diff("x") + XY.const(b) * e2.diff("x")


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_product_rule_exact_on_polynomials(seed):
    rng = random.Random(seed)
    e1, e2 = random_polynomial(rng, XY), random_polynomial(rng, XY)
    lhs = (e1 * e2).diff("x")
    rhs = e1.diff("x") * e2 + e1 * e2.diff("x")
    assert lhs == rhs


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(seed):
    rng = random.Random(seed)
    e = random_expr(rng, XY)
    assert e.diff("x").diff("y") == e.diff("y").diff("x")


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_canonical_equality_is_stable_under_reassociation(seed):
    rng = random.Random(seed)
    parts = [random_polynomial(rng, XY, degree=2, terms=2) for _ in range(3)]
    left = (parts[0] + parts[1]) + parts[2]
    right = parts[0] + (parts[1] + parts[2])
    assert left == right
    assert hash(left) == hash(right)
    assert (parts[0] * parts[1]) * parts[2] == parts[0] * (parts[1] * parts[2])


# -- single-pass canonicalization --------------------------------------------------
#
# The references below fold their sums one piece at a time with +, so every
# partial sum is re-canonicalized, and normalize every product of two terms
# with Expr._monomial; the operations under test merge sorted factor lists
# and canonicalize once.  Exact Fraction sums do not depend on order, so both
# must give the same terms in the same order.


def folded_product(p, q):
    out = p.chart.zero()
    for t1 in p.terms:
        for t2 in q.terms:
            out = out + Expr._monomial(
                p.chart, t1.coeff * t2.coeff, t1.factors + t2.factors
            )
    return out


def folded_power(p, k):
    """p**k by repeated squaring, each product a folded_product; a one-term
    p is raised factor by factor, as Expr.__pow__ does, so a power of an
    opaque power keeps its base: ((x + y)^(1/2))^3 is (x + y)^(3/2), where
    squaring would expand (x + y)^(1/2)*(x + y)^(1/2) to x + y."""
    if len(p.terms) == 1:
        (t,) = p.terms
        return Expr._monomial(p.chart, t.coeff ** k, [(b, x * k) for b, x in t.factors])
    if k == 1:
        return p
    half = folded_power(p, k // 2)
    out = folded_product(half, half)
    return folded_product(out, p) if k % 2 else out


def base_diff(p, b, name):
    """The derivative of one factor's base, a coordinate's as well."""
    if isinstance(b, str):
        return p.chart.one() if b == name else p.chart.zero()
    return p._base_diff(b, name)


def folded_diff(p, name):
    out = p.chart.zero()
    for t in p.terms:
        for i, (b, x) in enumerate(t.factors):
            rest = Expr._monomial(
                p.chart,
                t.coeff * x,
                [f for j, f in enumerate(t.factors) if j != i] + [(b, x - 1)],
            )
            out = out + folded_product(rest, base_diff(p, b, name))
    return out


def monomial_route_diff(p, name):
    """Expr.diff as it was before coordinate factors were built directly:
    every factor's rest through _monomial, times its base's derivative, and
    one _build of all the pieces."""
    pieces = []
    for t in p.terms:
        for i, (b, x) in enumerate(t.factors):
            db = base_diff(p, b, name)
            if db.is_zero_expr():
                continue
            rest = Expr._monomial(
                p.chart,
                t.coeff * x,
                [f for j, f in enumerate(t.factors) if j != i] + [(b, x - 1)],
            )
            pieces.extend((rest * db).terms)
    return Expr._build(p.chart, _pieces(pieces, p.chart))


def folded_subs(p, mapping, chart=None):
    """p.subs(mapping, chart) as a fold over every factor in order, an
    unmapped symbol's too."""
    chart = chart or p.chart
    out = chart.zero()
    for t in p.terms:
        val = chart.const(t.coeff)
        for b, x in t.factors:
            if isinstance(b, str) and b not in mapping:
                base = chart.var(b)
            else:
                base = p._base_subs(b, mapping, chart)
            val = folded_product(val, base ** x)
        out = out + val
    return out


ATOMS = ["x", "y", "x + y", "ln(x + 1)", "ln(2*y)", "exp(y)", "exp(x*y)"]
EXPONENTS = [F(1), F(2), F(3), F(-1), F(1, 2), F(-2, 3), F(3, 2)]
SUBSTITUTES = ["y^2 + 1/2", "exp(x)", "x*y", "(x + 1)^(1/2)", "3"]


@st.composite
def small_sums(draw):
    e = XY.zero()
    for _ in range(draw(st.integers(1, 4))):
        t = XY.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for _ in range(draw(st.integers(0, 3))):
            atom = parse(draw(st.sampled_from(ATOMS)), XY)
            t = t * atom ** draw(st.sampled_from(EXPONENTS))
        e = e + t
    return e


def term_order_key(t, chart):
    """The canonical term order: factors by base, higher exponent first, and
    a term after every term whose factors extend it."""
    return [(0, _base_key(b, chart), -x) for b, x in t.factors] + [(1,)]


def assert_same_canonical_form(got, want):
    keys = [term_order_key(t, got.chart) for t in got.terms]
    assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)
    assert all(t.coeff for t in got.terms)
    assert got.terms == want.terms
    assert str(got) == str(want)


def assert_keys_are_fresh(e):
    """Every key a term carries is the one a fresh term computes."""
    for t in e.terms:
        assert t.key is None or t.key == _term_key(_Term(t.coeff, t.factors), e.chart)


@given(small_sums(), small_sums(), st.sampled_from(XY.coords),
       st.sampled_from(SUBSTITUTES), st.integers(2, 4),
       st.fractions(-5, 5, max_denominator=6))
@settings(max_examples=80, deadline=None)
@example(parse("(x + y)^(1/2)", XY), XY.zero(), "x", "3", 3, F(1))
@example(
    parse("x^6 + 5*x^5*y + 10*x^4*y^2 + 10*x^3*y^3 + 5*x^2*y^4 + x^2 + x*y^5"
          " + 2*x*y + x + y^2 + 1", XY),
    XY.zero(), "x", "y^2 + 1/2", 4, F(-3, 2),
)
def test_single_pass_matches_pairwise_fold(p, q, name, substitute, k, c):
    assert_same_canonical_form(p * q, folded_product(p, q))
    assert_same_canonical_form(p * p, folded_product(p, p))
    # a constant or zero operand skips the merge and sort: check those
    # shortcuts against one _build of the raw scaled or concatenated terms
    const, zero = XY.const(c), XY.zero()
    for got, want in [
        (const * p, [_Term(c * t.coeff, t.factors) for t in p.terms]),
        (p * const, [_Term(t.coeff * c, t.factors) for t in p.terms]),
        (p * 1, [_Term(t.coeff, t.factors) for t in p.terms]),
        (p + zero, list(p.terms + zero.terms)),
        (zero + p, list(zero.terms + p.terms)),
        (p - zero, list(p.terms + zero.terms)),
    ]:
        assert_same_canonical_form(got, Expr._build(XY, _pieces(want, XY)))
        assert_keys_are_fresh(got)
    n = len(p.terms)
    if n > 1 and math.comb(n + k - 1, n - 1) > MAX_EXPANSION_TERMS:
        # C(14, 10) = 1001 products for 11 terms to the 4th: the single pass
        # refuses what the unbudgeted fold still computes
        with pytest.raises(ExprError, match="exceeds the budget"):
            p ** k
    else:
        assert_same_canonical_form(p ** k, folded_power(p, k))
    assert_same_canonical_form(p.diff(name), folded_diff(p, name))
    mapping = {name: parse(substitute, XY)}
    assert_same_canonical_form(p.subs(mapping), folded_subs(p, mapping))


SV = Chart(("S", "V"), ("N", "R"))
T_LINE = Chart(("t",), ("N", "R"))
SV_ATOMS = ["S", "V", "N", "R", "S + V", "ln(S + 1)", "ln(2*V*N)", "exp(V)",
            "exp(S*R)", "(S + N)^(1/2)", "(V*R + 2)^(1/3)"]
AFFINE = st.tuples(st.fractions(-3, 3, max_denominator=4),
                   st.fractions(-3, 3, max_denominator=4))


@st.composite
def sv_sums(draw):
    e = SV.zero()
    for _ in range(draw(st.integers(1, 4))):
        t = SV.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for _ in range(draw(st.integers(0, 3))):
            atom = parse(draw(st.sampled_from(SV_ATOMS)), SV)
            t = t * atom ** draw(st.sampled_from(EXPONENTS))
        e = e + t
    return e


@given(sv_sums(), AFFINE, AFFINE)
@settings(max_examples=150, deadline=None)
@example(parse("S^(-1)*N + V*(S + N)^(1/2)", SV), (F(0), F(0)), (F(2), F(1)))
@example(parse("exp(S*R)*ln(S + 1)*V^2*R + N", SV), (F(-1), F(0)), (F(-3, 2), F(0)))
def test_subs_onto_a_new_chart_matches_the_per_factor_fold(p, s, v):
    # S and V go to a + b*t (constant where b = 0, zero where both are), N and
    # R pass through: the same canonical form, or the same error, as folding
    # every factor in order
    t = T_LINE.var("t")
    mapping = {name: T_LINE.const(a) + t * b for name, (a, b) in (("S", s), ("V", v))}
    got = outcome(lambda: p.subs(mapping, T_LINE))
    want = outcome(lambda: folded_subs(p, mapping, T_LINE))
    if want[0] == "raises":
        assert got == want
    else:
        assert got[0] == "returns"
        assert_same_canonical_form(got[2], want[2])


@pytest.mark.parametrize(
    "text, mapping, chart, message",
    [
        ("N*S*V + exp(V)", {"S": "t", "V": "t"}, Chart(("t",), ("R",)),
         "'N' is not declared on this chart"),
        ("N*S*V + exp(V)", {"S": "t"}, T_LINE, "'V' is not declared on this chart"),
        ("N*S*V + exp(V)", {"S": "t", "V": None}, T_LINE,
         "substituted expression is on the wrong chart"),
        # errors come in factor order: S before the undeclared V
        ("N*S*V", {"S": None}, T_LINE, "substituted expression is on the wrong chart"),
        ("S^(-1)*V", {"S": "0"}, T_LINE, "zero raised to a negative power"),
    ],
)
def test_subs_onto_a_new_chart_names_what_it_cannot_place(text, mapping, chart, message):
    p = parse(text, SV)
    # None stands for an expression on the source chart, not the target
    mapping = {
        name: SV.var(name) if sub is None else parse(sub, chart)
        for name, sub in mapping.items()
    }
    for run in (p.subs, lambda m, c: folded_subs(p, m, c)):
        with pytest.raises(ExprError) as info:
            run(mapping, chart)
        assert str(info.value) == message


def test_operands_on_an_equal_chart_object_combine_and_others_are_refused():
    twin = Chart(("x", "y"))
    assert twin is not XY
    p, q = parse("x + 2*y", XY), parse("x*y", twin)
    assert str(p * q) == "x^2*y + 2*x*y^2"
    assert str(p + q) == "x*y + x + 2*y"
    assert (q * 1) is q and (q + XY.zero()) is q
    other = Chart(("x", "z"))
    for op in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ExprError, match="chart mismatch"):
            op(p, other.one())
        with pytest.raises(ExprError, match="chart mismatch"):
            op(p, other.zero())


POLY = Chart(("x", "y", "z"), ("a",))


@st.composite
def polynomials(draw):
    """Sums of monomials in coordinates and a parameter, with negative and
    fractional exponents."""
    e = POLY.zero()
    for _ in range(draw(st.integers(1, 5))):
        t = POLY.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for name in draw(st.lists(st.sampled_from(POLY.coords + POLY.params), max_size=4)):
            t = t * POLY.var(name) ** draw(st.sampled_from(EXPONENTS))
        e = e + t
    return e


@given(st.one_of(polynomials(), small_sums()), st.data())
@settings(max_examples=150, deadline=None)
def test_diff_matches_monomial_route_and_keys_its_terms(p, data):
    name = data.draw(st.sampled_from(p.chart.coords))
    got = p.diff(name)
    want = monomial_route_diff(p, name)
    assert got.terms == want.terms
    assert str(got) == str(want)
    # the key a coordinate factor's derivative carries is the one a fresh
    # term computes
    for t in got.terms:
        assert t.key == _term_key(_Term(t.coeff, t.factors), got.chart)


def test_powers_of_sums_with_opaque_powers_keep_their_printed_form():
    # equal _Pow bases meet with summed exponents, so the order of products
    # decides whether (a + b)^(1/2)*(a + b) stays (a + b)^(3/2) or expands, and
    # whether (2)^(1/2)*(2)^(1/2) folds; a power of a sum built another way
    # (from multinomial coefficients, say) must keep these forms of squaring
    abc = Chart(("a", "b", "c"))
    assert str(parse("((a+b)^(1/2) + c)^3", abc)) == (
        "3*a*c + a*(a + b)^(1/2) + 3*b*c + b*(a + b)^(1/2) + c^3"
        " + 3*c^2*(a + b)^(1/2)"
    )
    assert str(parse("(2^(1/2)*a + 3^(1/2))^4", abc)) == (
        "4*a^4 + 8*a^3*(2)^(1/2)*(3)^(1/2) + 36*a^2"
        " + 12*a*(2)^(1/2)*(3)^(1/2) + 9"
    )
    # a square builds each pair of distinct terms once, with twice the
    # coefficient, also a pair whose shared _Pow base goes through _monomial
    assert str(parse("((a+b)^(1/2)*c + (a+b)^(1/2) + 1)^2", abc)) == (
        "a*c^2 + 2*a*c + a + b*c^2 + 2*b*c + b + 2*c*(a + b)^(1/2)"
        " + 2*(a + b)^(1/2) + 1"
    )


def test_trinomial_power_expands_exactly():
    ch = Chart(("x", "y", "z"))
    e = parse("(x+y+z)^20", ch)
    assert len(e.terms) == math.comb(22, 2) == 231
    point = {"x": F(1, 3), "y": F(-2, 5), "z": F(7, 2)}
    assert e.evaluate(point) == sum(point.values()) ** 20


def test_import_and_quadrature_leave_scipy_unloaded():
    corpus = Path(__file__).resolve().parent.parent / "docs" / "corpus"
    script = f"""
import sys
import entropykit
from entropykit.documents import load_document
from entropykit.forms import Form
from entropykit.thermo import path_integral

print("scipy" in sys.modules)
doc = load_document({str(corpus / "ideal_gas.doc")!r})
tc = doc.thermo_chart
r = path_integral(tc, doc.spec, doc.paths["direct"], Form.d_coord(tc.chart, "U"),
                  doc.param_values)
print("scipy" in sys.modules)
print(repr(r.value))
"""
    src = str(Path(entropykit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded, loaded_after, value = done.stdout.split()
    assert loaded == loaded_after == "False"
    # U = exp(2S/3) V^(-2/3) from (S, V) = (1, 1) to (5/2, 2)
    want = math.exp(5 / 3) * 2 ** (-2 / 3) - math.exp(2 / 3)
    assert abs(float(value) - want) < 1e-8


# -- compiled evaluation ----------------------------------------------------------

TAB = Chart(("t",), ("a", "b"))
# ln, exp and opaque powers, with atoms that leave the domain for some t or
# for some parameter values (ln(a) with a ≤ 0, exp(exp(exp(t))) for t ≳ 6)
T_ATOMS = ["t", "a", "b", "t + a", "t - 1/2", "ln(t + 1)", "ln(t - b)", "ln(a)",
           "exp(t)", "exp(a*t^3)", "exp(exp(exp(t)))", "(t + b)^(1/3)",
           "exp(b) + t", "(a + 2)^(1/2)", "t^2 + b*t - 1"]
T_EXPONENTS = [F(1), F(2), F(3), F(-1), F(-2), F(1, 2), F(-2, 3), F(3, 2)]


@st.composite
def t_sums(draw):
    e = TAB.zero()
    for _ in range(draw(st.integers(1, 4))):
        t = TAB.const(draw(st.fractions(-5, 5, max_denominator=6)))
        for _ in range(draw(st.integers(0, 3))):
            atom = parse(draw(st.sampled_from(T_ATOMS)), TAB)
            t = t * atom ** draw(st.sampled_from(T_EXPONENTS))
        e = e + t
    return e


def outcome(fn):
    """What a call gives: its value's type and exact value (a float by its
    bits), or its error's type and message."""
    try:
        value = fn()
    except Exception as err:
        return "raises", type(err), str(err)
    return "returns", type(value), value.hex() if isinstance(value, float) else value


def assert_compiled_matches_evaluate(e, params, var, values):
    compiled = e.compile(params, var)  # building never raises
    for v in values:
        want = outcome(lambda: e.evaluate({**params, var: v}))
        assert outcome(lambda: compiled(v)) == want, (str(e), params, v)


T_VALUES = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 710.0, 1e300, 1 / 63]),
)
PARAM_VALUES = st.one_of(
    st.fractions(-2, 3, max_denominator=5), st.floats(-2, 3, allow_nan=False)
)


@given(t_sums(), st.fractions(-2, 3, max_denominator=5), PARAM_VALUES,
       st.lists(T_VALUES, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_compiled_expr_matches_evaluate(e, a, b, values):
    assert_compiled_matches_evaluate(e, {"a": a, "b": b}, "t", values)


def test_compiled_expr_defers_every_domain_error_to_the_call():
    cases = [
        ("ln(a)*t + 1", {"a": F(-1)}, [0.5, 1.5]),  # ln of a non-positive value
        ("t*exp(exp(exp(a)))", {"a": F(7)}, [0.5, 1.5]),  # exp overflow
        ("t + a^(-1)", {"a": F(0)}, [0.5, 1.5]),  # zero base, negative exponent
        ("t*(a - 3)^(1/2)", {"a": F(1)}, [0.5]),  # negative base, fractional exponent
        ("t*(t + 1)^(1/2) + t^" + "9" * 400, {}, [0.5, 2.0]),  # float(q) overflows
        ("(t + 1)^(2/3)*ln(t)", {}, [0.0, -1.0, 1e308]),
        ("t*c", {}, [0.5, 1.5]),  # no value bound for c
    ]
    for text, params, values in cases:
        e = parse(text, Chart(("t",), ("a", "c")))
        assert_compiled_matches_evaluate(e, params, "t", values)
        assert outcome(lambda: e.compile(params, "t")(values[0]))[0] == "raises"


def test_compiled_expr_stays_exact_on_rationals():
    # a leg free of t keeps evaluate's exact constant, even at a float t
    f = parse("a + 1/2", TAB).compile({"a": F(1, 3)}, "t")
    assert f(0.25) == F(5, 6) and type(f(0.25)) is F


# -- exact evaluation against a frozen reference ------------------------------------

# evaluate keeps its exact parts as int pairs; reference_evaluate folds over
# Fractions throughout.  The compiled functions cannot stand in for it, since
# they are checked against evaluate itself
EV = Chart(("x", "y"), ("a",))
EV_ATOMS = ["x", "y", "a", "x + y", "x - a", "ln(x)", "ln(x + y)", "exp(y)",
            "exp(a*x)", "(x + 1)^(1/2)", "(x*y + a)^(-1)", "(x + y)^(2/3)",
            "ln(exp(x) + a)", "(y^2 + a)^(-3)"]
EV_EXPONENTS = [1, 2, 3, -1, -2, -3, 5001, F(1, 2), F(-2, 3), F(3, 2)]
# coefficients past the float range now and then
EV_COEFFS = st.sampled_from([10**400, F(-1, 10**400)] + [None] * 6).flatmap(
    lambda c: st.fractions(-5, 5, max_denominator=6) if c is None else st.just(c)
)
EV_VALUES = st.one_of(
    st.fractions(-3, 3, max_denominator=7),
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.sampled_from([0, 0.0, -0.0, 2, F(10**200), F(-1, 3**700), 1e300, -1e-300]),
)


@st.composite
def ev_sums(draw):
    e = EV.zero()
    for _ in range(draw(st.integers(0, 4))):
        t = EV.const(draw(EV_COEFFS))
        for _ in range(draw(st.integers(0, 3))):
            atom = parse(draw(st.sampled_from(EV_ATOMS)), EV)
            try:
                t = t * atom ** draw(st.sampled_from(EV_EXPONENTS))
            except ExprError:  # an expansion or constant budget
                pass
        e = e + t
    return e


def assert_evaluate_matches_reference(e, point):
    want = outcome(lambda: reference_evaluate(e, point))
    assert outcome(lambda: e.evaluate(point)) == want, (str(e), point)
    return want


@pytest.mark.differential
@given(ev_sums(), st.fixed_dictionaries({name: EV_VALUES for name in ("x", "y", "a")}))
@settings(max_examples=400, deadline=None)
def test_evaluate_matches_the_fraction_fold(e, point):
    # the same type and value (a float by its bits, so -0.0 is not 0.0), or
    # the same error class and text
    assert_evaluate_matches_reference(e, point)


XYZ = Chart(("x", "y", "z"))


@pytest.mark.parametrize(
    "text, point, want",
    [
        # |q|·bits exactly at MAX_POWER_BITS stays exact; one past is a float
        ("x^5000", {"x": F(3)}, ("returns", F, F(3) ** 5000)),
        ("x^(-5000)", {"x": F(-3)}, ("returns", F, F(1, 3**5000))),
        ("x^10", {"x": F(2**999 + 1, 3)}, ("returns", F, F(2**999 + 1, 3) ** 10)),
        ("x^5001", {"x": F(1, 3)}, ("returns", float, "0x0.0p+0")),
        ("x^11", {"x": F(2**999 + 1)}, ("raises", DomainError, "power overflow")),
        ("x^5001*y", {"x": 3, "y": F(0)}, ("raises", DomainError, "power overflow")),
        # 0^-1 before a float factor and after one: the same error, and the
        # first error in factor order where the float factor raises too
        ("x^(-1)*y", {"x": F(0), "y": 1.5},
         ("raises", DomainError, "zero base with negative exponent")),
        ("x*y^(-1)", {"x": 1.5, "y": 0},
         ("raises", DomainError, "zero base with negative exponent")),
        ("x^(-1)*ln(y)", {"x": F(0), "y": -1.0},
         ("raises", DomainError, "zero base with negative exponent")),
        ("x^(1/2)*y^(-1)", {"x": -1.0, "y": F(0)},
         ("raises", DomainError, "negative base with fractional exponent")),
        # a negative base to a negative odd power: the sign moves to the
        # numerator, also where a float factor follows
        ("x^(-3)", {"x": F(-2, 3)}, ("returns", F, F(-27, 8))),
        ("x^(-3)*y", {"x": F(-2, 3), "y": 1.0}, ("returns", float, (-3.375).hex())),
        ("x^(-1)*y + 1", {"x": F(-1, 3), "y": 0.0}, ("returns", float, (1.0).hex())),
        # no denominator turns negative, or the zero exact sum would read
        # -0.0 here, and -0.0 + -1*0.0 is -0.0
        ("x^(-1)*y - z", {"x": F(-1), "y": F(0), "z": 0.0},
         ("returns", float, (0.0).hex())),
        # an exact part past the float range meets a float factor: Fraction's
        # conversion error, or an int coefficient's own
        ("x^400*y", {"x": F(10), "y": 1.5},
         ("raises", OverflowError, "integer division result too large for a float")),
        ("10^400*y", {"y": 1.5},
         ("raises", OverflowError, "int too large to convert to float")),
        ("10^400*y", {"y": F(3, 2)}, ("returns", F, F(3, 2) * 10**400)),
        ("y + 10^400", {"y": 1.5},
         ("raises", OverflowError, "int too large to convert to float")),
        ("y + 10^400*z", {"y": 1.5, "z": F(1)},
         ("raises", OverflowError, "integer division result too large for a float")),
        ("x^400*y^(-400) + z", {"x": F(10), "y": F(10), "z": 0.5},
         ("returns", float, (1.5).hex())),
        # float factors before, between and after exact ones; exact terms
        # before the first float term
        ("x*y^2*z^(-1)", {"x": 0.1, "y": F(1, 3), "z": 0.7},
         ("returns", float, (0.1 * float(F(1, 9)) * (1 / 0.7)).hex())),
        ("x^2*y*z^3", {"x": F(2, 7), "y": 0.3, "z": F(-5, 3)},
         ("returns", float, (float(F(4, 49)) * 0.3 * float(F(-125, 27))).hex())),
        ("x^2 + y + z + 1/3", {"x": F(1, 7), "y": F(2, 9), "z": 0.1},
         ("returns", float, (float(F(1, 49) + F(2, 9)) + 0.1 + float(F(1, 3))).hex())),
        # the sum starts from the exact 0, so a -0.0 term sums to 0.0
        ("x + y", {"x": F(0), "y": -0.0}, ("returns", float, (0.0).hex())),
        ("x*y", {"x": -0.0, "y": F(1)}, ("returns", float, (0.0).hex())),
        # the empty sum is the Fraction 0, not the int
        ("0", {}, ("returns", F, F(0))),
    ],
)
def test_evaluate_edge_cases(text, point, want):
    e = parse(text, XYZ)
    assert assert_evaluate_matches_reference(e, point) == want


def test_nested_bases_evaluate_through_evaluate(monkeypatch):
    # the bench counts Expr.evaluate calls: one per expression, nested ln,
    # exp and opaque-power bases included
    calls = []
    evaluate = Expr.evaluate

    def counted(self, env):
        calls.append(str(self))
        return evaluate(self, env)

    monkeypatch.setattr(Expr, "evaluate", counted)
    e = parse("x*ln(x + y) + exp(ln(y))*(x + y)^(1/2) + (x^2 + 1)^(-1)", XY)
    e.evaluate({"x": F(1), "y": 2.0})
    assert sorted(calls) == sorted([str(e), "x + y", "y", "ln(y)", "x + y", "x^2 + 1"])


# -- products and sums against a frozen reference -----------------------------------

# Expr.__mul__ and Expr.__add__ merge coefficients as unreduced int pairs;
# within reference_arithmetic they are the Fraction merges they replaced.


def assert_same_terms(got, want):
    """Term by term the same coefficient, of the same type, the same factors
    and key; and the same printed form."""
    def described(e):
        return [(type(t.coeff), t.coeff, t.factors, t.key) for t in e.terms]

    assert described(got) == described(want), (str(got), str(want))
    assert str(got) == str(want)


def assert_arithmetic_matches_reference(op):
    with reference_arithmetic():
        want = outcome(op)
    got = outcome(op)
    if want[0] == "raises":  # an expansion budget, or zero to a negative power
        assert got == want
    else:
        assert got[0] == "returns"
        assert_same_terms(got[2], want[2])
    return got


@pytest.mark.differential
@given(st.sampled_from([small_sums, polynomials, t_sums]), st.data())
@settings(max_examples=300, deadline=None)
def test_products_and_sums_match_the_fraction_merge(sums, data):
    p, q = data.draw(sums()), data.draw(sums())
    c1, c2 = (data.draw(st.fractions(-7, 7, max_denominator=10)) for _ in range(2))
    k = data.draw(st.sampled_from([2, 3, 4, -1, F(1, 2), F(-3, 2)]))
    for op in (lambda: p * q, lambda: p * p, lambda: p + q, lambda: p - q,
               lambda: p ** k, lambda: (p * c1 + q) * (q * c2 - p)):
        assert_arithmetic_matches_reference(op)


X, Y = XY.var("x"), XY.var("y")
ROOT = (X + Y) ** F(1, 2)


@pytest.mark.parametrize("op, want", [
    # a sum that cancels is the empty sum; a whole sum of halves the int 1
    (lambda: X / 2 - X / 2, "0"),
    (lambda: X / 2 + X / 2, "x"),
    # denominators 6 and 10 meet over their lcm 30: 8/30 reduces to 4/15,
    # in a sum and among a product's pairs (1/2*1/5 and 1/2*1/3)
    (lambda: X / 6 + X / 10, "4/15*x"),
    (lambda: (X / 2 + Y / 2) * (X / 3 + Y / 5), "1/6*x^2 + 4/15*x*y + 1/10*y^2"),
    # negative numerators, to a Fraction and to a whole number
    (lambda: (X / 3 - Y / 2) * (X / 2 - Y / 3), "1/6*x^2 - 13/36*x*y + 1/6*y^2"),
    (lambda: -X / 4 - 3 * X / 4, "-x"),
    # squares: each pair of distinct terms once, with twice the numerator
    (lambda: (X / 2 + Y / 3) ** 2, "1/4*x^2 + 1/3*x*y + 1/9*y^2"),
    (lambda: (X / 2 - Y / 3 + F(1, 6)) * (X / 2 - Y / 3 + F(1, 6)),
     "1/4*x^2 - 1/3*x*y + 1/6*x + 1/9*y^2 - 1/9*y + 1/36"),
    # pairs whose shared _Pow base goes through _monomial: its pieces merge
    # with those already accumulated (x/2 with -x/12 here)
    (lambda: ROOT * ROOT, "x + y"),
    (lambda: (X / 3 + ROOT / 2) * (ROOT - F(1, 4)),
     "1/3*x*(x + y)^(1/2) + 5/12*x + 1/2*y - 1/8*(x + y)^(1/2)"),
    (lambda: (ROOT / 2 - X) ** 2, "x^2 - x*(x + y)^(1/2) + 1/4*x + 1/4*y"),
])
def test_products_and_sums_edge_cases(op, want):
    got = assert_arithmetic_matches_reference(op)[2]
    assert str(got) == want
    assert all(type(t.coeff) is int or t.coeff.denominator != 1 for t in got.terms)


# -- number representation ----------------------------------------------------------


def numbers_of(e):
    """Every coefficient and exponent of e, with those of its ln, exp and
    opaque-power arguments."""
    for t in e.terms:
        yield t.coeff
        for b, x in t.factors:
            yield x
            if not isinstance(b, str):
                yield from numbers_of(b.base if isinstance(b, _Pow) else b.arg)


def assert_whole_numbers_are_ints(e):
    for q in numbers_of(e):
        assert type(q) is int or (type(q) is F and q.denominator != 1), (str(e), repr(q))


def fraction_value(e, point):
    """A sum of symbol powers at a point, computed over Fraction in
    evaluate's order: a whole power exactly, any other in floating point."""
    total = F(0)
    for t in e.terms:
        val = F(t.coeff)
        for b, x in t.factors:
            val = val * F(point[b]) ** F(x)
        total = total + val
    return total


@given(st.sampled_from([small_sums, polynomials, t_sums]), st.data())
@settings(max_examples=150, deadline=None)
def test_whole_coefficients_and_exponents_are_ints(sums, data):
    p, q = data.draw(sums()), data.draw(sums())
    chart = p.chart
    name = data.draw(st.sampled_from(chart.coords))
    k = data.draw(st.sampled_from(T_EXPONENTS + [F(4, 2), F(-6, 3)]))
    ops = [lambda: p * q, lambda: p * p, lambda: p + q, lambda: p - q,
           lambda: p ** k, lambda: p.diff(name), lambda: p.subs({name: q})]
    point = {n: data.draw(st.fractions(1, 5, max_denominator=7))
             for n in chart.coords + chart.params}
    for op in ops:
        try:
            got = op()
        except ExprError:  # an expansion budget, or zero to a negative power
            continue
        assert_whole_numbers_are_ints(got)
        if all(isinstance(b, str) for t in got.terms for b, _ in t.factors):
            value, want = got.evaluate(point), fraction_value(got, point)
            assert type(value) is type(want) and value == want, (str(got), point)
            if all(type(x) is int for t in got.terms for _, x in t.factors):
                assert type(value) is F


def test_whole_number_hazards():
    x = XY.var("x")
    # an int to a negative int power is a float in Python; here it is 1/8
    eighth = parse("2^(-3)", XY)
    assert eighth == XY.const(2) ** -3
    assert type(eighth.as_constant()) is F and eighth.as_constant() == F(1, 8)
    # a fractional power of a whole coefficient, and whole exponents from
    # fractional ones
    for e in (parse("(4*x^2)^(-1/2)", XY), parse("1/(2*x)", XY), 1 / (2 * x)):
        assert e.terms == (_Term(F(1, 2), (("x", -1),)),)
        assert type(e.terms[0].factors[0][1]) is int
        assert str(e) == "1/2*x^(-1)"
    for e in (x**2 / x**2, parse("(x^2)/(x^2)", XY), parse("2^(1/2)*2^(1/2)", XY) / 2,
              parse("(x+y)^(-1)*(x+y)^(1/2)*(x+y)^(1/2)", XY), XY.const(F(4, 4))):
        assert e.terms == (_Term(1, ()),) and type(e.terms[0].coeff) is int
    assert parse("x^(4/2)", XY).terms == (_Term(1, (("x", 2),)),)
    for e in (eighth, x**2 / x**2, 1 / (2 * x), parse("x^(4/2)", XY)):
        assert_whole_numbers_are_ints(e)
        value = e.evaluate({"x": F(3)})
        assert type(value) is F
    assert eighth.evaluate({}) == F(1, 8) and (x**2 / x**2).evaluate({"x": F(3)}) == 1


@given(st.integers(2, 9), st.data())
@settings(max_examples=200, deadline=None)
def test_nth_root_is_exact_for_perfect_powers_up_to_300_bits(k, data):
    r = data.draw(st.integers(1, 2 ** (300 // k)))
    n = r**k
    assert _nth_root(n, k) == r
    # (r + 1)^k - r^k > 1 for r >= 1 and k >= 2
    assert _nth_root(n + 1, k) is None


def test_fractional_power_of_a_large_perfect_square_is_exact():
    # a float first guess at the root of r^2 misses r past about 2^106
    r = 889862090649785494436976022
    assert _nth_root(r**2, 2) == r and _nth_root(r**2 + 1, 2) is None
    e = parse(f"({r}^2)^(1/2) - {r}", XY)
    assert e.is_zero_expr()
    assert is_zero(e).verdict is ZeroVerdict.CERTAIN_ZERO


def test_root_of_an_index_past_the_base_size_is_left_opaque():
    # an n >= 2 has no k-th root once k reaches its bit length; the root
    # search once raised 2 to the k-th power here, running out of memory
    assert _nth_root(2, 10**20) is None
    assert str(parse("2^(1/99999999999999999999)", XY)) == "(2)^(1/99999999999999999999)"


# -- term signs on the positive orthant ----------------------------------------------

SIGNS = Chart(("x", "y"), ("a",))
# factors whose base is positive on the orthant, and (last) ones that are not
POSITIVE_ATOMS = ("{u}", "{u}^(-2)", "{u}^(3/2)", "a", "exp({u} - 2*{v})", "exp(-{u}*a)",
                  "({u} + 2*{v})^(-1/2)", "({u} + a*{v}^2)^(1/3)",
                  "(({u} + {v})^(1/2) + exp(-{v}))^(-3/2)")
OTHER_ATOMS = ("ln({u})", "({u} - {v})^(1/3)", "(1 - {u})^(-1)", "(exp({u}) - 2)^(1/2)")
MAGNITUDES = ("1", "2/7", "5", "1/1000000000000")


@st.composite
def signed_sums(draw, one_signed=False):
    """A sum of 1-3 monomials over SIGNS: a coefficient times 0-3 atoms.
    With one_signed every coefficient has one sign and every atom a positive
    base; otherwise signs are drawn per term, shared by half the sums, and
    some atoms may be ln or a power of a base of either sign."""
    atoms = POSITIVE_ATOMS if one_signed else POSITIVE_ATOMS + OTHER_ATOMS
    shared = draw(st.sampled_from(["", "-"]))
    same = one_signed or draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        sign = shared if same else draw(st.sampled_from(["", "-"]))
        factors = [sign + draw(st.sampled_from(MAGNITUDES))]
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.sampled_from(SIGNS.coords)), draw(st.sampled_from(SIGNS.coords))
            factors.append(draw(st.sampled_from(atoms)).format(u=u, v=v))
        terms.append("(" + ")*(".join(factors) + ")")
    return parse(" + ".join(terms), SIGNS)


ORTHANT_POINTS = st.fixed_dictionaries({
    name: st.builds(F, st.integers(1, 1000), st.integers(100, 1000)) for name in ("x", "y", "a")
})


@pytest.mark.differential
@given(signed_sums(), st.lists(ORTHANT_POINTS, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_term_sign_is_the_sign_of_every_value(e, points):
    # wherever the terms decide a sign, exact (or float) evaluation at
    # rational points of the orthant has it
    sign = term_sign(e)
    assert sign in (-1, 0, 1)
    if sign:
        for point in points:
            value = e.evaluate(point)
            assert (value > 0 if sign > 0 else value < 0), (str(e), point, value)


CLAIM_HEAT = (
    "1/15000000000000*N^(-1)*R^(-1)"
    "*exp(1/15000000000000*t*N^(-1)*R^(-1) + 2/3*N^(-1)*R^(-1))"
)


@pytest.mark.parametrize(
    "text, chart, want",
    [
        # ln takes either sign: ln(x) < 0 below x = 1
        ("ln(x)", XY, 0),
        ("x - 1", XY, 0),
        # expands to x^2 - 2*x*y + y^2, terms of both signs
        ("(x - y)^2", XY, 0),
        ("(x - y)^(1/3)", XY, 0),
        ("0", XY, 0),
        ("-2*exp(x)*y^(1/2)", XY, -1),
        ("(x + y)^(-1/2)", XY, 1),
        ("x^2 + 1/1000000000000", XY, 1),
        # the adiabatic-claim document's leg-0 heat coefficient
        (CLAIM_HEAT, Chart(("t",), ("N", "R")), 1),
    ],
)
def test_term_sign_pinned_cases(text, chart, want):
    assert term_sign(parse(text, chart)) == want
