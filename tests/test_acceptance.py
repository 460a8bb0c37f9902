"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and time budget."""

import io
import itertools
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

from _oracles import (
    random_monotone_map,
    random_oracle_space,
    random_poset,
    right_adjoint_exists_bruteforce,
)

from entropykit.access import (
    AxiomConfig,
    AxiomStatus,
    CompositeState,
    EdgeRelation,
    EntropyFn,
    StateSpace,
    calibrate,
    check_axioms,
    comparison_hypothesis,
    construct_entropy,
    derived_relations,
    Relation,
    verify_entropy,
)
from entropykit.cli import run as cli_run
from entropykit.expr import Chart, parse
from entropykit.forms import (
    Confidence,
    ContactStatus,
    Form,
    FrobeniusStatus,
    contact_check,
    frobenius_check,
)
from entropykit.galois import check_galois, closure_report, right_adjoint
from entropykit.thermo import (
    AdiabaticStatus,
    LegendreSpec,
    PathSegment,
    ProcessPath,
    ThermoChart,
    adiabatic_entropy_check,
    check_legendre,
    cycle_audit,
    first_law_balance,
    first_law_form,
    heat_form,
    legendre_transform,
    maxwell_relations,
    path_integral,
)

CORPUS = Path(__file__).resolve().parent.parent / "docs" / "corpus"

STD = ThermoChart("U", (("T", "S", 1), ("p", "V", -1)), params=("N", "R"), heat=0)
PARAMS = {"N": F(1), "R": F(1)}
IDEAL_GAS = LegendreSpec.from_potential(
    parse("exp(2*S/(3*N*R)) * V^(-2/3)", STD.base_chart)
)
TCHART = Chart(("t",), STD.base_chart.params)


def ideal_gas_energy(s, v):
    return math.exp(2.0 * float(s) / 3.0) * float(v) ** (-2.0 / 3.0)


def criterion(num, label, seconds):
    def wrap(fn):
        def inner():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {num:02d} [{label}]: FAIL")
                raise
            elapsed = time.monotonic() - t0
            assert elapsed < seconds, f"over budget: {elapsed:.2f}s >= {seconds}s"
            print(f"criterion {num:02d} [{label}]: PASS ({elapsed:.2f}s)")

        inner.__name__ = fn.__name__
        return inner

    return wrap


def rect_path(s1, s2, v1, v2):
    mk = ProcessPath.line
    base = STD.base_chart
    return ProcessPath(
        base,
        (
            mk(base, {"S": s1, "V": v1}, {"S": s2, "V": v1}),
            mk(base, {"S": s2, "V": v1}, {"S": s2, "V": v2}),
            mk(base, {"S": s2, "V": v2}, {"S": s1, "V": v2}),
            mk(base, {"S": s1, "V": v2}, {"S": s1, "V": v1}),
        ),
    )


@criterion(1, "maxwell golden identity", 1.0)
def test_criterion_01_maxwell_identity():
    identities = maxwell_relations(STD)  # symbolic T(S,V), p(S,V): no spec
    assert len(identities) == 1
    assert identities[0].text == "∂T/∂V = -∂p/∂S"
    assert identities[0].lhs == ("T", "V")
    assert identities[0].sign == -1
    assert identities[0].rhs == ("p", "S")
    out = io.StringIO()
    code = cli_run(
        ["maxwell", str(CORPUS / "maxwell_generic.doc"), "--format", "structured"],
        out,
    )
    text = out.getvalue()
    assert code == 0
    assert text.count("identity:") == 1
    assert "identity: ∂T/∂V = -∂p/∂S" in text


ENTROPY_REP = ThermoChart(
    "S", (("inv_T", "U", 1), ("p_T", "V", 1)), params=("N", "R"), heat=None
)


@criterion(2, "ideal-gas consistency", 1.0)
def test_criterion_02_ideal_gas_consistency():
    base = ENTROPY_REP.base_chart
    spec = LegendreSpec.from_state_equations(
        {"inv_T": parse("3*N*R/(2*U)", base), "p_T": parse("N*R/V", base)}
    )
    report = check_legendre(ENTROPY_REP, spec)
    assert report.ok
    assert report.confidence is Confidence.CERTAIN  # exact rational arithmetic
    assert not report.failures
    assert report.energy == parse("3/2*N*R*ln(U) + N*R*ln(V)", base)
    for ident in maxwell_relations(ENTROPY_REP, spec):
        assert ident.verdict == "OK"
        assert ident.confidence is Confidence.CERTAIN


@criterion(3, "potentials table", 1.0)
def test_criterion_03_potentials_table():
    chart = STD.chart
    rows = [
        (["V"], "H", "U + p*V", {"H": "1", "S": "0 - T", "p": "0 - V"}),
        (["S"], "F", "U - T*S", {"F": "1", "T": "S", "V": "p"}),
        (["S", "V"], "G", "U + p*V - T*S", {"G": "1", "T": "S", "p": "0 - V"}),
    ]
    for swaps, name, potential_text, form_spec in rows:
        r = legendre_transform(STD, swaps, new_name=name)
        assert r.potential == parse(potential_text, chart)
        expected = Form.zero(r.chart.chart, 1)
        for coord, coeff in form_spec.items():
            expected = expected + Form.d_coord(r.chart.chart, coord).scale(
                parse(coeff, r.chart.chart)
            )
        assert r.form == expected
        assert r.contact.status is ContactStatus.CONTACT
        assert r.symmetry.symmetry and r.symmetry.factor == chart.one()


@criterion(4, "contact/frobenius suite", 1.0)
def test_criterion_04_contact_frobenius():
    theta = first_law_form(STD)
    c = contact_check(theta, 2)
    assert c.status is ContactStatus.CONTACT
    assert c.confidence is Confidence.CERTAIN
    q = heat_form(STD)  # T dS
    r = frobenius_check(q)
    assert r.status is FrobeniusStatus.INTEGRABLE
    assert r.confidence is Confidence.CERTAIN
    xyz = Chart(("x", "y", "z"))
    cartan = Form.d_coord(xyz, "z") - Form.d_coord(xyz, "x").scale(xyz.var("y"))
    r2 = frobenius_check(cartan)
    assert r2.status is FrobeniusStatus.NOT_INTEGRABLE
    assert r2.obstruction == Form(xyz, 3, {(0, 1, 2): xyz.one()})


def random_point(rng):
    return {"S": F(rng.randint(2, 12), 4), "V": F(rng.randint(2, 12), 4)}


@criterion(5, "first-law numerics", 10.0)
def test_criterion_05_first_law_numerics():
    rng = random.Random(505)
    du_form = Form.d_coord(STD.chart, "U")
    for _ in range(20):
        a, b, via = random_point(rng), random_point(rng), random_point(rng)
        direct = ProcessPath(
            STD.base_chart, (ProcessPath.line(STD.base_chart, a, b),)
        )
        detour = ProcessPath(
            STD.base_chart,
            (
                ProcessPath.line(STD.base_chart, a, via),
                ProcessPath.line(STD.base_chart, via, b),
            ),
        )
        du1 = path_integral(STD, IDEAL_GAS, direct, du_form, PARAMS).value
        du2 = path_integral(STD, IDEAL_GAS, detour, du_form, PARAMS).value
        assert abs(du1 - du2) < 1e-8
        balance = first_law_balance(STD, IDEAL_GAS, detour, PARAMS)
        assert abs(
            balance.delta_energy - (balance.delta_heat - balance.delta_work)
        ) < 1e-8


S_COORD = STD.base_chart.var("S")


@criterion(6, "second-law leaf property", 10.0)
def test_criterion_06_leaf_property():
    rng = random.Random(606)
    for _ in range(20):
        s = F(rng.randint(2, 12), 4)
        v_points = sorted({F(rng.randint(2, 12), 4) for _ in range(3)})
        if len(v_points) < 2:
            v_points.append(v_points[0] + 1)
        segs = tuple(
            ProcessPath.line(
                STD.base_chart, {"S": s, "V": va}, {"S": s, "V": vb}
            )
            for va, vb in zip(v_points, v_points[1:])
        )
        path = ProcessPath(STD.base_chart, segs)
        report = adiabatic_entropy_check(STD, IDEAL_GAS, path, S_COORD, PARAMS)
        assert report.status is AdiabaticStatus.QUASI_STATIC_ADIABATIC
        assert report.max_abs_heat < 1e-9  # every one of the 64 samples/segment
        assert report.entropy_drift < 1e-9
    for _ in range(20):
        u0 = F(rng.randint(4, 12), 4)
        u1 = u0 + F(rng.randint(1, 8), 2)
        v0 = F(rng.randint(2, 12), 4)
        s_expr = parse(f"3/2*ln({u0} + ({u1 - u0})*t) + ln({v0})", TCHART)
        path = ProcessPath(
            STD.base_chart,
            (PathSegment({"S": s_expr, "V": parse(str(v0), TCHART)}),),
        )
        report = adiabatic_entropy_check(STD, IDEAL_GAS, path, S_COORD, PARAMS)
        assert report.status is AdiabaticStatus.S_INCREASING
        assert not report.violations


@criterion(7, "cycle audit", 10.0)
def test_criterion_07_cycle_audit():
    rng = random.Random(707)
    for _ in range(20):
        s1 = F(rng.randint(2, 8), 4)
        s2 = s1 + F(rng.randint(1, 6), 4)
        v1 = F(rng.randint(2, 8), 4)
        v2 = v1 + F(rng.randint(1, 6), 4)
        report = cycle_audit(STD, IDEAL_GAS, rect_path(s1, s2, v1, v2), PARAMS)
        assert abs(report.heat - report.work) < 1e-8
        assert not report.kelvin_violation
    # Carnot-style rectangle against the closed-form area oracle
    s1, s2, v1, v2 = F(1), F(2), F(1), F(2)
    report = cycle_audit(STD, IDEAL_GAS, rect_path(s1, s2, v1, v2), PARAMS)
    assert not report.kelvin_violation
    oracle = (
        ideal_gas_energy(s2, v1)
        - ideal_gas_energy(s1, v1)
        - (ideal_gas_energy(s2, v2) - ideal_gas_energy(s1, v2))
    )
    assert abs(report.work - oracle) < 1e-6
    # the planted all-heat-to-work configuration must be flagged
    fake = ThermoChart("U", (("T", "S", 1), ("p", "V", -1)), heat=0)
    spec = LegendreSpec.from_state_equations(
        {
            "T": parse("S*(3 - 2*V)", fake.base_chart),
            "p": parse("S*V", fake.base_chart),
        }
    )
    trap = ProcessPath(
        fake.base_chart,
        tuple(
            ProcessPath.line(fake.base_chart, a, b)
            for a, b in [
                ({"S": F(1), "V": F(1)}, {"S": F(2), "V": F(1)}),
                ({"S": F(2), "V": F(1)}, {"S": F(2), "V": F(2)}),
                ({"S": F(2), "V": F(2)}, {"S": F(1), "V": F(2)}),
                ({"S": F(1), "V": F(2)}, {"S": F(1), "V": F(1)}),
            ]
        ),
    )
    flagged = cycle_audit(fake, spec, trap, {})
    assert flagged.kelvin_violation


# Hidden entropies are integers in [0, 31]: with the 1/64 two-reference grid
# and the ε schedule down to 1/64, integer gaps can neither collapse under
# the grid nor defeat the finite stability schedule.
N_SPACES = 1000
GRID = (F(1, 2), F(1), F(2))


@criterion(8, "axiomatic property suite (with order canonicity)", 60.0)
def test_criterion_08_and_09_axiomatic_suite():
    rng = random.Random(808)
    for i in range(N_SPACES):
        space, oracle, hidden = random_oracle_space(rng, i)
        config = AxiomConfig(lambda_grid=GRID, seed=i)
        report = check_axioms(oracle, [space], config)
        for result in report.results:
            assert result.status is AxiomStatus.PASS, (hidden, result)
        assert "LIMIT_APPROXIMATED" in report["stability"].caveats
        assert comparison_hypothesis(oracle, space).total
        S = construct_entropy(oracle, space, config)
        verdict = verify_entropy(S, oracle, space, config)
        assert verdict.ok, (hidden, verdict)
        # criterion 9: the induced total pre-order matches the hidden one
        for x, y in itertools.combinations(space.names(), 2):
            assert (S.values[x] <= S.values[y]) == (hidden[x] <= hidden[y])
            assert (S.values[y] <= S.values[x]) == (hidden[y] <= hidden[x])


@criterion(10, "affine calibration", 5.0)
def test_criterion_10_calibration():
    names = ["g0", "g1", "g2", "g3"]
    sp1 = StateSpace("G1", ("x",), {n: (F(i),) for i, n in enumerate(names)})
    sp2 = StateSpace("G2", ("x",), {n: (F(i),) for i, n in enumerate(names)})
    s1 = EntropyFn("G1", {n: F(i) for i, n in enumerate(names)})
    s2 = EntropyFn("G2", {n: 2 * F(i) + 3 for i, n in enumerate(names)})
    pure = CompositeState.pure
    nodes = [pure("G1", n) for n in names] + [pure("G2", n) for n in names]
    edges = []
    for n in names:
        edges.append((pure("G1", n), pure("G2", n)))
        edges.append((pure("G2", n), pure("G1", n)))
    for a, b in zip(names, names[1:]):
        edges.append((pure("G1", a), pure("G1", b)))
        edges.append((pure("G2", a), pure("G2", b)))
    cross = EdgeRelation(nodes, edges).closure()
    systems = [(sp1, s1), (sp2, s2)]
    result = calibrate(systems, cross)
    assert result.ok
    assert result.coefficients[0] == (F(1), F(0))
    assert result.coefficients[1] == (F(1, 2), F(-3, 2))
    for n in names:  # glued entropies coincide exactly on identified states
        assert result.glued_value(systems, pure("G1", n)) == result.glued_value(
            systems, pure("G2", n)
        )
    for x, y in itertools.combinations(cross.universe(), 2):
        rel = derived_relations(cross, x, y)
        gx = result.glued_value(systems, x)
        gy = result.glued_value(systems, y)
        if rel is Relation.EQUIVALENT:
            assert gx == gy
        elif rel is Relation.STRICT:
            assert gx < gy
        elif rel is Relation.ACCESSIBLE:
            assert gy < gx
    # planted contradictory strict cycle
    bad_edges = list(edges) + [(pure("G1", "g1"), pure("G1", "g0"))]
    bad = EdgeRelation(nodes, bad_edges)
    clash = calibrate(systems, bad)
    assert not clash.ok
    assert clash.witness


@criterion(11, "galois adjoint suite", 60.0)
def test_criterion_11_galois_suite():
    rng = random.Random(1111)
    with_adjoint = 0
    for _ in range(500):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        src = random_poset(rng, tuple(f"a{k}" for k in range(n)))
        dst = random_poset(rng, tuple(f"b{k}" for k in range(m)))
        candidate = random_monotone_map(rng, src, dst)
        result = right_adjoint(candidate)
        assert result.found == right_adjoint_exists_bruteforce(candidate)
        if result.found:
            with_adjoint += 1
            assert check_galois(candidate, result.map).ok
            assert closure_report(candidate, result.map).ok
    assert with_adjoint > 50  # the sweep must exercise real adjunctions


@criterion(12, "deterministic structured reports", 60.0)
def test_criterion_12_determinism():
    def run_corpus(seed):
        out = io.StringIO()
        code = cli_run(
            [
                "batch",
                str(CORPUS / "manifest.txt"),
                "--format",
                "structured",
                "--seed",
                str(seed),
            ],
            out,
        )
        assert code == 0
        return out.getvalue()

    first = run_corpus(0)
    second = run_corpus(0)
    assert first == second
    assert first.encode() == second.encode()  # byte identical
    assert run_corpus(42) == run_corpus(42)
