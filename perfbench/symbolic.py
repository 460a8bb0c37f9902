"""Workload `symbolic`: exact expression and form algebra with no quadrature
and no accessibility orders.

Each round has a fixed mix, so the seed changes values but not the mix:
charts with 2, 3 and 4 pairs (polynomial and exp/ln potentials) through the
Legendre, Maxwell, potential and contact checks; Frobenius and contact
checks on f·dg and Cartan forms; sampled zero tests; and parsing of
expansion-heavy powers such as (a+b+c)^k.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from entropykit.expr import Chart, ZeroVerdict, is_zero, parse
from entropykit.forms import (
    Confidence,
    ContactStatus,
    Form,
    FrobeniusStatus,
    contact_check,
    frobenius_check,
)
from entropykit.thermo import (
    LegendreSpec,
    ThermoChart,
    check_legendre,
    first_law_form,
    legendre_transform,
    maxwell_relations,
)

TRACE_ROUNDS = 2
CHARTS_PER_KIND = 2
# (variables, degree) of the expansions: their costs step by about 1.25x
# from 20 ms to 160 ms.  With 97 verdicts a round, the 95th percentile
# falls among expansions of neighbouring cost, and the median among the
# charts' contact and Maxwell verdicts, so neither sits on a jump between
# two groups of very different cost.  (a+b+c)^12 alone took 40% of a round
# and made the workload's figures swing most with the machine's slow spells.
EXPANSIONS = (
    (3, 9), (2, 32), (4, 5), (3, 8), (2, 28),
    (2, 24), (3, 7), (2, 20), (4, 4), (3, 6), (2, 16),
)
FORM_DIMENSIONS = (3, 5)
ABCD = Chart(("a", "b", "c", "d"))


def _coeff(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 5))


def _chart_case(rng, n: int, transcendental: bool) -> dict:
    xs = [f"X{i}" for i in range(n)]
    terms = []
    for _ in range(3):
        names = rng.sample(xs, rng.randint(1, 2))
        terms.append(
            f"{_coeff(rng)}*" + "*".join(f"{x}^{rng.randint(1, 2)}" for x in names)
        )
    if transcendental:
        i, j = rng.sample(range(n), 2)
        terms.append(f"{_coeff(rng)}*exp({xs[i]}/{rng.randint(3, 6)})*{xs[j]}^(1/2)")
        terms.append(f"{_coeff(rng)}*ln({xs[rng.randrange(n)]})")
    i, j = rng.sample(range(n), 2)
    return {
        "n": n,
        "signs": [rng.choice((1, -1)) for _ in range(n)],
        "potential": " + ".join(terms),
        "perturbed": i,
        "perturbation": f"{_coeff(rng)}*{xs[j]}^{rng.randint(1, 2)}",
        "failing_pair": (min(i, j), max(i, j)),
        "swaps": sorted(rng.sample(range(n), rng.randint(1, n))),
    }


def _form_case(rng, dim: int) -> dict:
    xs = [f"x{i}" for i in range(dim)]
    a, b, c, d = (rng.choice(xs) for _ in range(4))
    return {
        "dim": dim,
        "f": f"{_coeff(rng)}*{a}*{b} + {_coeff(rng)}*exp({c}/{rng.randint(3, 6)})",
        "g": f"{_coeff(rng)}*{a}^2*{d} + ln({b}) + {_coeff(rng)}*{c}",
        "scale": f"{_coeff(rng)}*x0^{rng.randint(0, 2)}",
    }


def _zero_cases(rng) -> list[tuple[str, bool]]:
    """Sampled identities on the positive domain, each also planted with a
    nonzero term.  Exponents stay small so float rounding at sample points
    is far below the zero-test tolerance."""
    u = f"a/{rng.randint(3, 6)}"
    v = f"b/{rng.randint(3, 6)}"
    m1 = f"a^{rng.randint(1, 3)}*c"
    m2 = f"b^{rng.randint(1, 2)}"
    p = f"{_coeff(rng)}*a + {_coeff(rng)}*b*c + {_coeff(rng)}"
    identities = [
        f"{_coeff(rng)}*(exp({u})*exp({v}) - exp({u} + {v}))",
        f"{_coeff(rng)}*(ln({m1}*{m2}) - ln({m1}) - ln({m2}))",
        f"exp({u})^2 - exp(2*({u}))",
        f"({p})^2 - ({p})*({p})",
    ]
    cases = [(text, True) for text in identities]
    for text in identities:
        cases.append((f"{text} + {_coeff(rng)}*{rng.choice('abc')}", False))
    return cases


def generate(seed: int, count: int, stream: str = "run") -> list[dict]:
    rounds = []
    for r in range(count):
        rng = random.Random(f"symbolic:{stream}:{seed}:{r}")
        rounds.append(
            {
                "charts": [
                    _chart_case(rng, n, transcendental)
                    for n in (2, 3, 4)
                    for transcendental in (False, True)
                    for _ in range(CHARTS_PER_KIND)
                ],
                "forms": [_form_case(rng, dim) for dim in FORM_DIMENSIONS],
                "zeros": _zero_cases(rng),
                "expansions": [
                    (k, [_coeff(rng) for _ in range(nvars)],
                     {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in "abcd"})
                    for nvars, k in EXPANSIONS
                ],
            }
        )
    return rounds


# ---------------------------------------------------------------------------
# verdicts: each prepare() builds fresh inputs and returns (call, check)
# ---------------------------------------------------------------------------


def _thermo_chart(case) -> ThermoChart:
    return ThermoChart(
        "U", tuple((f"P{i}", f"X{i}", s) for i, s in enumerate(case["signs"]))
    )


def _potential_spec(case):
    tc = _thermo_chart(case)
    return tc, LegendreSpec.from_potential(parse(case["potential"], tc.base_chart))


def _perturbed_spec(case):
    tc, spec = _potential_spec(case)
    eqs = spec.state_equations(tc)
    name = f"P{case['perturbed']}"
    eqs[name] = eqs[name] + parse(case["perturbation"], tc.base_chart)
    return tc, LegendreSpec.from_state_equations(eqs)


def _chart_tasks(case) -> list:
    n = case["n"]
    i, j = case["failing_pair"]

    def legendre_pass():
        tc, spec = _potential_spec(case)
        return lambda: check_legendre(tc, spec), lambda r: r.ok

    def legendre_fail():
        tc, spec = _perturbed_spec(case)
        return lambda: check_legendre(tc, spec), lambda r: (
            not r.ok and [f[:4] for f in r.failures] == [(f"P{i}", f"X{j}", f"P{j}", f"X{i}")]
        )

    def maxwell_pass():
        tc, spec = _potential_spec(case)
        return lambda: maxwell_relations(tc, spec), lambda ids: (
            len(ids) == n * (n - 1) // 2 and all(m.verdict == "OK" for m in ids)
        )

    def maxwell_fail():
        tc, spec = _perturbed_spec(case)
        return lambda: maxwell_relations(tc, spec), lambda ids: (
            [m.lhs for m in ids if m.verdict == "FAIL"] == [(f"P{i}", f"X{j}")]
            and all(m.verdict in ("OK", "FAIL") for m in ids)
        )

    def potential():
        tc = _thermo_chart(case)
        one = tc.chart.one()
        return lambda: legendre_transform(tc, case["swaps"]), lambda r: (
            r.contact.contact and r.symmetry.symmetry and r.symmetry.factor == one
        )

    def contact():
        tc = _thermo_chart(case)
        theta = first_law_form(tc)
        return lambda: contact_check(theta, n), lambda r: (
            r.status is ContactStatus.CONTACT and r.confidence is Confidence.CERTAIN
        )

    return [
        ("legendre-pass", legendre_pass),
        ("legendre-fail", legendre_fail),
        ("maxwell-pass", maxwell_pass),
        ("maxwell-fail", maxwell_fail),
        ("potential", potential),
        ("contact-first-law", contact),
    ]


def _form_tasks(case) -> list:
    dim = case["dim"]
    m = (dim - 1) // 2

    def cartan():
        # h·(dz − Σ y_i dx_i): a contact form, never integrable
        chart = Chart(
            tuple(f"x{i}" for i in range(m)) + tuple(f"y{i}" for i in range(m)) + ("z",)
        )
        theta = Form.d_coord(chart, "z")
        for i in range(m):
            theta = theta - Form.d_coord(chart, f"x{i}").scale(chart.var(f"y{i}"))
        return theta.scale(parse(case["scale"], chart))

    def integrable():
        chart = Chart(tuple(f"x{i}" for i in range(dim)))
        q = Form.from_expr(parse(case["g"], chart)).d().scale(parse(case["f"], chart))
        return lambda: frobenius_check(q), lambda r: r.status is FrobeniusStatus.INTEGRABLE

    def not_integrable():
        theta = cartan()
        return lambda: frobenius_check(theta), lambda r: (
            r.status is FrobeniusStatus.NOT_INTEGRABLE
        )

    def cartan_contact():
        theta = cartan()
        return lambda: contact_check(theta, m), lambda r: r.status is ContactStatus.CONTACT

    return [
        ("frobenius-fdg", integrable),
        ("frobenius-cartan", not_integrable),
        ("contact-cartan", cartan_contact),
    ]


def _zero_task(text: str, identity: bool):
    def prepare():
        e = parse(text, ABCD)
        if identity:
            return lambda: is_zero(e), lambda r: r.zero
        return lambda: is_zero(e), lambda r: r.verdict is ZeroVerdict.CERTAIN_NONZERO

    return ("is-zero", prepare)


def _expansion_task(k: int, coeffs, point):
    names = "abcd"[: len(coeffs)]
    text = "(" + " + ".join(f"{c}*{v}" for c, v in zip(coeffs, names)) + f")^{k}"

    def check(e) -> bool:
        # all coefficients positive: no cancellation, C(k+n-1, n-1) monomials
        if len(e.terms) != math.comb(k + len(coeffs) - 1, len(coeffs) - 1):
            return False
        exact = sum(c * point[v] for c, v in zip(coeffs, names)) ** k
        return e.evaluate(point) == exact

    def prepare():
        return lambda: parse(text, ABCD), check

    return (f"expand-{len(coeffs)}-{k}", prepare)


def tasks(desc) -> list:
    out = []
    for case in desc["charts"]:
        out.extend(_chart_tasks(case))
    for case in desc["forms"]:
        out.extend(_form_tasks(case))
    for text, identity in desc["zeros"]:
        out.append(_zero_task(text, identity))
    for k, coeffs, point in desc["expansions"]:
        out.append(_expansion_task(k, coeffs, point))
    return out
