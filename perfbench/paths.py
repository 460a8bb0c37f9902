"""Workload `paths`: small expressions evaluated many times along process
paths (quadrature, sampling, pullback through the Legendre inclusion).

Each round runs one ideal-gas spec and one polynomial spec through direct
and detour path integrals, a First-Law balance, a rectangle cycle audit and
two adiabatic checks (an isentropic path and a heating path), plus one
isochoric heat integral on the ideal gas.  The odd count of 13 verdicts a
round puts the median inside one kind (the ideal-gas detour) instead of on
the boundary between two.  Every figure
is compared with a closed form computed here without entropykit.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from entropykit.expr import Chart, parse
from entropykit.forms import Form
from entropykit.thermo import (
    AdiabaticStatus,
    LegendreSpec,
    PathSegment,
    ProcessPath,
    ThermoChart,
    adiabatic_entropy_check,
    cycle_audit,
    first_law_balance,
    heat_form,
    path_integral,
)

TRACE_ROUNDS = 4
REL_TOL = 1e-8
IDEAL_GAS = "exp(2*S/(3*N*R)) * V^(-2/3)"
# (S, V) exponents of the polynomial potentials, taken in turn by round, so
# every seed runs the same shapes and only the coefficients differ.
EXPONENT_PATTERNS = (
    ((1, -1), (2, 0), (3, 1)),
    ((1, 1), (2, -1), (2, 2)),
    ((1, 0), (3, -1), (1, 2)),
)


def _chart(ideal: bool) -> ThermoChart:
    params = ("N", "R") if ideal else ()
    return ThermoChart("U", (("T", "S", 1), ("p", "V", -1)), params=params, heat=0)


def _point(rng) -> dict:
    return {"S": Fraction(rng.randint(2, 12), 4), "V": Fraction(rng.randint(2, 12), 4)}


def _spec_case(rng, ideal: bool, pattern=()) -> dict:
    a, b, via = _point(rng), _point(rng), _point(rng)
    while via == a or via == b:
        via = _point(rng)
    s1 = Fraction(rng.randint(2, 8), 4)
    v1 = Fraction(rng.randint(2, 8), 4)
    s0 = Fraction(rng.randint(2, 12), 4)
    v_points = sorted({Fraction(rng.randint(2, 12), 4) for _ in range(3)})
    if len(v_points) < 2:
        v_points.append(v_points[0] + 1)
    case = {
        "ideal": ideal,
        "a": a,
        "b": b,
        "via": via,
        "rect": (s1, s1 + Fraction(rng.randint(1, 6), 4), v1, v1 + Fraction(rng.randint(1, 6), 4)),
        "isentropic": (s0, v_points),
    }
    if ideal:
        case["params"] = {"N": Fraction(rng.choice((2, 3, 4)), 2), "R": Fraction(rng.choice((2, 3)), 2)}
        u0 = Fraction(rng.randint(4, 12), 4)
        # S increases along t through a logarithm, as for heating at fixed V
        case["heating"] = (
            f"{s0} + ln({u0} + {Fraction(rng.randint(1, 8), 2)}*t) - ln({u0})",
            Fraction(rng.randint(2, 12), 4),
        )
    else:
        case["params"] = {}
        # U = Σ c S^i V^j with i ≥ 1 and c > 0, so T = ∂U/∂S > 0
        case["monomials"] = [
            (Fraction(rng.randint(1, 9), rng.randint(1, 4)), i, j) for i, j in pattern
        ]
        case["heating"] = (f"{s0} + {Fraction(rng.randint(1, 8), 4)}*t", Fraction(rng.randint(2, 12), 4))
    return case


def generate(seed: int, count: int, stream: str = "run") -> list[dict]:
    rounds = []
    for r in range(count):
        rng = random.Random(f"paths:{stream}:{seed}:{r}")
        pattern = EXPONENT_PATTERNS[r % len(EXPONENT_PATTERNS)]
        rounds.append({"cases": [_spec_case(rng, True), _spec_case(rng, False, pattern)]})
    return rounds


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def energy(case, s, v) -> float:
    if case["ideal"]:
        nr = case["params"]["N"] * case["params"]["R"]
        return math.exp(2 * float(s) / (3 * float(nr))) * float(v) ** (-2.0 / 3.0)
    return float(sum(c * Fraction(s) ** i * Fraction(v) ** j for c, i, j in case["monomials"]))


def _close(value: float, exact: float) -> bool:
    return abs(value - exact) <= REL_TOL * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _build(case):
    tc = _chart(case["ideal"])
    base = tc.base_chart
    if case["ideal"]:
        text = IDEAL_GAS
    else:
        text = " + ".join(f"{c}*S^{i}*V^({j})" for c, i, j in case["monomials"])
    return tc, LegendreSpec.from_potential(parse(text, base)), dict(case["params"])


def _path(tc, *points) -> ProcessPath:
    base = tc.base_chart
    return ProcessPath(
        base, tuple(ProcessPath.line(base, p, q) for p, q in zip(points, points[1:]))
    )


def _rect(tc, s1, s2, v1, v2) -> ProcessPath:
    return _path(
        tc,
        {"S": s1, "V": v1}, {"S": s2, "V": v1}, {"S": s2, "V": v2},
        {"S": s1, "V": v2}, {"S": s1, "V": v1},
    )


def _case_tasks(case) -> list:
    a, b, via = case["a"], case["b"], case["via"]
    delta_u = energy(case, b["S"], b["V"]) - energy(case, a["S"], a["V"])
    s1, s2, v1, v2 = case["rect"]
    area = (
        energy(case, s2, v1) - energy(case, s1, v1)
        - (energy(case, s2, v2) - energy(case, s1, v2))
    )

    def direct():
        tc, spec, params = _build(case)
        path = _path(tc, a, b)
        du = Form.d_coord(tc.chart, "U")
        return lambda: path_integral(tc, spec, path, du, params), lambda r: _close(r.value, delta_u)

    def detour():
        tc, spec, params = _build(case)
        path = _path(tc, a, via, b)
        du = Form.d_coord(tc.chart, "U")
        return lambda: path_integral(tc, spec, path, du, params), lambda r: _close(r.value, delta_u)

    def isochoric_heat():
        # along V = const the heat ∫T dS is exactly ΔU
        tc, spec, params = _build(case)
        v = a["V"]
        path = _path(tc, {"S": a["S"], "V": v}, {"S": b["S"], "V": v})
        exact = energy(case, b["S"], v) - energy(case, a["S"], v)
        return lambda: path_integral(tc, spec, path, heat_form(tc), params), lambda r: (
            _close(r.value, exact)
        )

    def balance():
        tc, spec, params = _build(case)
        path = _path(tc, a, via, b)
        return lambda: first_law_balance(tc, spec, path, params), lambda r: (
            r.ok and r.residual < 1e-8 and _close(r.delta_energy, delta_u)
        )

    def cycle():
        tc, spec, params = _build(case)
        rect = _rect(tc, s1, s2, v1, v2)
        return lambda: cycle_audit(tc, spec, rect, params), lambda r: (
            r.balance_ok and not r.kelvin_violation
            and _close(r.heat, area) and _close(r.work, area)
        )

    def isentropic():
        tc, spec, params = _build(case)
        s0, v_points = case["isentropic"]
        path = _path(tc, *({"S": s0, "V": v} for v in v_points))
        entropy = tc.base_chart.var("S")
        return lambda: adiabatic_entropy_check(tc, spec, path, entropy, params), lambda r: (
            r.status is AdiabaticStatus.QUASI_STATIC_ADIABATIC and r.entropy_drift < 1e-9
        )

    def heating():
        tc, spec, params = _build(case)
        s_text, v0 = case["heating"]
        tchart = Chart(("t",), tc.base_chart.params)
        path = ProcessPath(
            tc.base_chart,
            (PathSegment({"S": parse(s_text, tchart), "V": tchart.const(v0)}),),
        )
        entropy = tc.base_chart.var("S")
        return lambda: adiabatic_entropy_check(tc, spec, path, entropy, params), lambda r: (
            r.status is AdiabaticStatus.S_INCREASING and not r.violations
        )

    kind = "ideal" if case["ideal"] else "poly"
    extra = [("heat-isochoric-ideal", isochoric_heat)] if case["ideal"] else []
    return extra + [
        (f"path-direct-{kind}", direct),
        (f"path-detour-{kind}", detour),
        (f"balance-{kind}", balance),
        (f"cycle-{kind}", cycle),
        (f"isentropic-{kind}", isentropic),
        (f"heating-{kind}", heating),
    ]


def tasks(desc) -> list:
    out = []
    for case in desc["cases"]:
        out.extend(_case_tasks(case))
    return out
