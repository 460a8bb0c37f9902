"""Workload `orders`: accessibility pre-orders and Galois connections with
no symbolic expressions at all.

Each round runs four scalable oracle spaces of 3 to 8 states with hidden
integer entropies through the axioms, the Comparison Hypothesis, entropy
construction and verification; eight Galois cases on down-set lattices of
random posets, with join-preserving (planted adjunction) and random
monotone maps, each one verdict through adjoint search, the adjunction
check and the closure report; and one feasible and one planted-clash
calibration.  Known answers come from the hidden entropies and from
pre-orders closed here with Warshall's algorithm, independently of
entropykit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from entropykit.access import (
    AxiomConfig,
    AxiomStatus,
    CompositeState,
    EdgeRelation,
    EntropyFn,
    EntropyOracle,
    StateSpace,
    calibrate,
    check_axioms,
    comparison_hypothesis,
    construct_entropy,
    verify_entropy,
)
from entropykit.galois import (
    MonotoneMap,
    Poset,
    check_galois,
    closure_report,
    left_adjoint,
    right_adjoint,
)

TRACE_ROUNDS = 3
# Integer entropies in [0, 31] keep every gap above the 1/64 reference grid
# and the ε schedule down to 1/64, so construction and stability are exact.
VALUE_RANGE = 31
GRID = (Fraction(1, 2), Fraction(1), Fraction(2))
# A round's oracle spaces by state count: a fixed multiset keeps the cost of
# a round steady, and the two 8-state axiom checks hold the 95th percentile.
SPACE_SIZES = (3, 5, 8, 8)
LATTICE_POINTS = (6, 8)  # down-set lattices of posets on 6 to 8 points
GALOIS_PLANTED = (True,) * 4 + (False,) * 4  # planted adjunctions, random maps
CALIBRATION_SYSTEMS = 2  # Fourier–Motzkin cost explodes and varies wildly from 3
CALIBRATION_STATES = 5


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _space_case(rng, size: int) -> dict:
    hidden = [rng.randint(0, VALUE_RANGE) for _ in range(size)]
    while len(set(hidden)) < 2:
        hidden = [rng.randint(0, VALUE_RANGE) for _ in range(size)]
    lo, hi = rng.sample(range(size), 2)
    while hidden[lo] == hidden[hi]:
        lo, hi = rng.sample(range(size), 2)
    return {"hidden": hidden, "swap": (lo, hi), "seed": rng.randrange(1 << 30)}


def _downset_lattice(rng, size: int) -> tuple[int, list[tuple[int, int]]]:
    """The lattice of down-sets of a random poset on `size` points, as
    (element count, covering edges).  Elements are numbered by down-set size,
    a linear extension, so the empty set is 0 and the whole set is last."""
    below = [0] * size  # bitmask of points strictly below each point
    for j in range(size):
        for i in range(j):
            if rng.random() < 0.4:
                below[j] |= (1 << i) | below[i]
    downsets = sorted(
        (mask for mask in range(1 << size)
         if all(below[p] & ~mask == 0 for p in range(size) if mask >> p & 1)),
        key=lambda mask: (bin(mask).count("1"), mask),
    )
    index = {mask: k for k, mask in enumerate(downsets)}
    edges = [
        (index[mask], index[mask | 1 << p])
        for mask in downsets
        for p in range(size)
        if not mask >> p & 1 and (mask | 1 << p) in index
    ]
    return len(downsets), edges


def closure(n: int, edges) -> list[list[bool]]:
    """Reflexive-transitive closure by Warshall's algorithm."""
    le = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        le[i][j] = True
    for k in range(n):
        for i in range(n):
            if le[i][k]:
                row_k = le[k]
                row_i = le[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return le


def _monotone(rng, src_le, dst_le) -> list[int]:
    """A random monotone map, built in index order (a linear extension of
    the source): each image is any upper bound of the images below it."""
    n, m = len(src_le), len(dst_le)
    image: list[int] = []
    for x in range(n):
        below = [image[y] for y in range(x) if src_le[y][x]]
        choices = [d for d in range(m) if all(dst_le[b][d] for b in below)]
        image.append(rng.choice(choices))
    return image


def _join_preserving(rng, a_le, b_le, a_edges) -> list[int]:
    """F(x) = join of the images of the join-irreducibles below x, for a
    random monotone choice on join-irreducibles: F preserves all joins, so
    it has a right adjoint."""
    n, m = len(a_le), len(b_le)
    covers = [sum(1 for _, j in a_edges if j == x) for x in range(n)]
    image: list[int] = [0] * n  # the bottom of a down-set lattice is 0
    for x in range(1, n):
        if covers[x] == 1:  # join-irreducible: one lower cover
            below = [image[y] for y in range(x) if a_le[y][x]]
            choices = [d for d in range(m) if all(b_le[b][d] for b in below)]
            image[x] = rng.choice(choices)
        else:
            uppers = [
                d for d in range(m)
                if all(b_le[image[y]][d] for y in range(x) if a_le[y][x])
            ]
            image[x] = next(d for d in uppers if all(b_le[d][u] for u in uppers))
    return image


def _galois_case(rng, planted: bool) -> dict:
    n, a_edges = _downset_lattice(rng, rng.randint(*LATTICE_POINTS))
    m, b_edges = _downset_lattice(rng, rng.randint(*LATTICE_POINTS))
    a_le, b_le = closure(n, a_edges), closure(m, b_edges)
    f = _join_preserving(rng, a_le, b_le, a_edges) if planted else _monotone(rng, a_le, b_le)
    return {
        "n": n,
        "m": m,
        "a_edges": a_edges,
        "b_edges": b_edges,
        "f": f,
        "g": _monotone(rng, b_le, a_le),
    }


def _calibration_case(rng) -> dict:
    systems = []
    for i in range(CALIBRATION_SYSTEMS):
        values = rng.sample(range(21), CALIBRATION_STATES)
        if i == 0:
            a, b = Fraction(1), Fraction(0)
        else:
            a, b = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))), Fraction(rng.randint(-5, 5))
        systems.append({"values": values, "a": a, "b": b})
    clash_system = rng.randrange(CALIBRATION_SYSTEMS)
    lo, hi = rng.sample(range(CALIBRATION_STATES), 2)
    values = systems[clash_system]["values"]
    if values[lo] > values[hi]:
        lo, hi = hi, lo
    return {"systems": systems, "clash": (clash_system, lo, hi)}


def generate(seed: int, count: int, stream: str = "run") -> list[dict]:
    rounds = []
    for r in range(count):
        rng = random.Random(f"orders:{stream}:{seed}:{r}")
        rounds.append(
            {
                "spaces": [_space_case(rng, size) for size in SPACE_SIZES],
                # lattices are built when the round runs, to keep setup_s
                # about entropykit rather than about this generator
                "galois_seed": f"orders:galois:{stream}:{seed}:{r}",
                "calibration": _calibration_case(rng),
            }
        )
    return rounds


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def right_partners(a_le, b_le, f) -> list[list[int]]:
    """For each b, every v with (F(a) ≤ b ⇔ a ≤ v) for all a."""
    n, m = len(a_le), len(b_le)
    return [
        [v for v in range(n) if all(b_le[f[a]][b] == a_le[a][v] for a in range(n))]
        for b in range(m)
    ]


def left_partners(a_le, b_le, g) -> list[list[int]]:
    """For each a, every u with (u ≤ b ⇔ a ≤ G(b)) for all b."""
    n, m = len(a_le), len(b_le)
    return [
        [u for u in range(m) if all(b_le[u][b] == a_le[a][g[b]] for b in range(m))]
        for a in range(n)
    ]


def _is_adjunction(a_le, b_le, f, g) -> bool:
    return all(
        b_le[f[a]][b] == a_le[a][g[b]] for a in range(len(a_le)) for b in range(len(b_le))
    )


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def _space(case, label: str):
    names = [f"s{k}" for k in range(len(case["hidden"]))]
    space = StateSpace(label, ("x",), {n: (Fraction(k),) for k, n in enumerate(names)}, scalable=True)
    oracle = EntropyOracle({label: {n: Fraction(v) for n, v in zip(names, case["hidden"])}})
    return space, oracle, AxiomConfig(lambda_grid=GRID, seed=case["seed"])


def _space_tasks(case, label: str) -> list:
    hidden = case["hidden"]
    names = [f"s{k}" for k in range(len(hidden))]

    def axioms():
        space, oracle, config = _space(case, label)
        return lambda: check_axioms(oracle, [space], config), lambda r: (
            all(x.status is AxiomStatus.PASS for x in r.results)
            and "LIMIT_APPROXIMATED" in r["stability"].caveats
        )

    def ch():
        space, oracle, _ = _space(case, label)
        return lambda: comparison_hypothesis(oracle, space), lambda r: r.total

    def construct():
        space, oracle, config = _space(case, label)

        def check(S) -> bool:
            return all(
                (S.values[x] <= S.values[y]) == (hx <= hy)
                for x, hx in zip(names, hidden)
                for y, hy in zip(names, hidden)
            )

        return lambda: construct_entropy(oracle, space, config), check

    def verify_hidden():
        space, oracle, config = _space(case, label)
        S = EntropyFn(label, dict(zip(names, hidden)))
        return lambda: verify_entropy(S, oracle, space, config), lambda r: r.ok

    def verify_swapped():
        space, oracle, config = _space(case, label)
        values = list(hidden)
        lo, hi = case["swap"]
        values[lo], values[hi] = values[hi], values[lo]
        S = EntropyFn(label, dict(zip(names, values)))
        return lambda: verify_entropy(S, oracle, space, config), lambda r: (
            not r.ok and r.monotonicity.status is AxiomStatus.FAIL
        )

    return [
        ("axioms", axioms),
        ("ch", ch),
        ("construct", construct),
        ("verify-hidden", verify_hidden),
        ("verify-swapped", verify_swapped),
    ]


def _galois_task(case):
    """One verdict from relation data to the adjunction: build both posets
    and F, search the right adjoint G, check (F, G) and search the left
    adjoint of G.  Without a right adjoint, G is a random monotone map."""
    n, m = case["n"], case["m"]
    a_le, b_le = closure(n, case["a_edges"]), closure(m, case["b_edges"])
    f, g = case["f"], case["g"]
    has_right = all(right_partners(a_le, b_le, f))
    has_left = all(left_partners(a_le, b_le, g))

    def index_map(mapping) -> list[int]:
        return [int(mapping[key][1:]) for key in sorted(mapping, key=lambda s: int(s[1:]))]

    def call():
        A = Poset([f"a{k}" for k in range(n)], [(f"a{i}", f"a{j}") for i, j in case["a_edges"]])
        B = Poset([f"b{k}" for k in range(m)], [(f"b{i}", f"b{j}") for i, j in case["b_edges"]])
        F = MonotoneMap(A, B, {f"a{k}": f"b{f[k]}" for k in range(n)})
        right = right_adjoint(F)
        G = right.map if right.found else MonotoneMap(B, A, {f"b{k}": f"a{g[k]}" for k in range(m)})
        report = closure_report(F, G) if right.found else None
        return right, check_galois(F, G), report, left_adjoint(G)

    def check(results) -> bool:
        right, galois, report, left = results
        if right.found != has_right:
            return False
        if right.found:
            g_right = index_map(right.map.mapping)
            return (
                _is_adjunction(a_le, b_le, f, g_right)
                and galois.ok and report.ok and left.found
                and _is_adjunction(a_le, b_le, index_map(left.map.mapping), g_right)
            )
        # F has no right adjoint, so no G at all can be its partner
        return not galois.ok and left.found == has_left and (
            not left.found or _is_adjunction(a_le, b_le, index_map(left.map.mapping), g)
        )

    return ("galois", lambda: (call, check))


def _calibration_tasks(case) -> list:
    systems = case["systems"]
    labels = [f"C{i}" for i in range(len(systems))]

    def glued(i, k) -> Fraction:
        sys_ = systems[i]
        return sys_["a"] * sys_["values"][k] + sys_["b"]

    states = [(i, k) for i in range(len(systems)) for k in range(CALIBRATION_STATES)]

    def build(planted: bool):
        pure = CompositeState.pure
        spaces = [
            (
                StateSpace(labels[i], ("x",), {f"q{k}": (Fraction(k),) for k in range(CALIBRATION_STATES)}),
                EntropyFn(labels[i], {f"q{k}": v for k, v in enumerate(s["values"])}),
            )
            for i, s in enumerate(systems)
        ]
        nodes = [pure(labels[i], f"q{k}") for i, k in states]
        edges = [
            (nodes[x], nodes[y])
            for x, (i, k) in enumerate(states)
            for y, (j, l) in enumerate(states)
            if x != y and glued(i, k) <= glued(j, l)
        ]
        if planted:
            i, lo, hi = case["clash"]
            edges.append((pure(labels[i], f"q{hi}"), pure(labels[i], f"q{lo}")))
        return spaces, EdgeRelation(nodes, edges)

    def feasible():
        spaces, cross = build(False)

        def check(r) -> bool:
            if not r.ok or r.coefficients[0] != (1, 0):
                return False
            if any(a <= 0 for a, _ in r.coefficients):
                return False
            fitted = {
                (i, k): r.coefficients[i][0] * systems[i]["values"][k] + r.coefficients[i][1]
                for i, k in states
            }
            for x in states:
                for y in states:
                    gx, gy = glued(*x), glued(*y)
                    if (gx < gy) != (fitted[x] < fitted[y]) or (gx == gy) != (fitted[x] == fitted[y]):
                        return False
            return True

        return lambda: calibrate(spaces, cross), check

    def clash():
        spaces, cross = build(True)
        return lambda: calibrate(spaces, cross), lambda r: not r.ok and bool(r.witness)

    return [("calibrate-feasible", feasible), ("calibrate-clash", clash)]


def tasks(desc) -> list:
    out = []
    for k, case in enumerate(desc["spaces"]):
        out.extend(_space_tasks(case, f"G{k}"))
    rng = random.Random(desc["galois_seed"])
    for planted in GALOIS_PLANTED:
        out.append(_galois_task(_galois_case(rng, planted)))
    out.extend(_calibration_tasks(desc["calibration"]))
    return out
