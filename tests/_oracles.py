"""Shared independent oracles and random generators for the tests."""

import contextlib
import itertools
from fractions import Fraction

from entropykit.expr import (
    MAX_POWER_BITS,
    DomainError,
    Expr,
    ExprError,
    _TERM_END,
    _exp_value,
    _float_pow,
    _key_entry,
    _ln_value,
    _term_key,
    _whole,
    _Exp,
    _Ln,
    _Pow,
    _Term,
)
from entropykit.forms import SmoothMap
from entropykit.galois import (
    AdjointResult,
    GaloisError,
    GaloisResult,
    LandauerReport,
    MonotoneMap,
    MonotoneResult,
    Poset,
    check_galois,
    check_monotone,
)


def galois_partner_sets(F):
    """For each b, every value v with (∀a: F(a) ≤ b ⇔ a ≤ v).

    The adjunction condition couples G(b) only to b, so a map G qualifies
    iff G(b) lies in this set for every b; any qualifying G is automatically
    monotone.  Candidates come pre-pruned by the counit (F(G(b)) ≤ b).
    """
    A, B = F.source, F.target
    fwd = {
        (a, b): B.le(F(a), b) for a in A.carrier for b in B.carrier
    }
    sets = {}
    for b in B.carrier:
        sets[b] = tuple(
            v
            for v in A.carrier
            if B.le(F(v), b)
            and all(fwd[a, b] == A.le(a, v) for a in A.carrier)
        )
    return sets


def right_adjoint_exists_bruteforce(F) -> bool:
    """Existence of a Galois partner, decided by trying every candidate value."""
    return all(galois_partner_sets(F).values())


def brute_force_right_adjoints(F):
    """Every mapping G with check_galois(F, G) passing, by enumeration."""
    sets = galois_partner_sets(F)
    B = F.target
    if not all(sets.values()):
        return []
    found = []
    for combo in itertools.product(*(sets[b] for b in B.carrier)):
        mapping = dict(zip(B.carrier, combo))
        G = MonotoneMap(B, F.source, mapping)
        assert check_galois(F, G).ok
        found.append(G)
    return found


def brute_force_right_adjoints_unpruned(F):
    """Literal enumeration of all |A|^|B| maps; cross-checks the column scan."""
    A, B = F.source, F.target
    found = []
    for combo in itertools.product(A.carrier, repeat=len(B.carrier)):
        mapping = dict(zip(B.carrier, combo))
        if not check_monotone(B, A, mapping).ok:
            continue
        G = MonotoneMap(B, A, mapping)
        if check_galois(F, G).ok:
            found.append(G)
    return found


def random_poset(rng, labels):
    edges = [
        (a, b)
        for a, b in itertools.permutations(labels, 2)
        if rng.random() < 0.3
    ]
    return Poset(labels, edges)


def random_monotone_map(rng, src, dst, tries=200):
    for _ in range(tries):
        mapping = {x: rng.choice(dst.carrier) for x in src.carrier}
        if check_monotone(src, dst, mapping).ok:
            return MonotoneMap(src, dst, mapping)
    return MonotoneMap(src, dst, {x: dst.carrier[0] for x in src.carrier})


def calibration_case(seed, systems, states, clashes=0):
    """`systems` entropy systems of `states` states each, and a cross relation
    ordering all of them by a hidden gluing a_i·S_i + B_i (a_0 = 1, B_0 = 0);
    each planted clash adds an edge against one system's own order."""
    import random
    from fractions import Fraction

    from entropykit.access import CompositeState, EdgeRelation, EntropyFn, StateSpace

    rng = random.Random(f"calibrate:{seed}:{systems}:{states}:{clashes}")
    pure = CompositeState.pure
    labels = [f"G{i}" for i in range(systems)]
    spaces, glued = [], {}
    for i, label in enumerate(labels):
        values = sorted(rng.sample(range(-40, 40), states))
        a = Fraction(rng.randint(1, 6), rng.randint(1, 3)) if i else Fraction(1)
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 3)) if i else Fraction(0)
        names = [f"q{k}" for k in range(states)]
        spaces.append((
            StateSpace(label, ("x",), {n: (Fraction(k),) for k, n in enumerate(names)}),
            EntropyFn(label, {n: Fraction(v, 4) for n, v in zip(names, values)}),
        ))
        for n, v in zip(names, values):
            glued[pure(label, n)] = a * Fraction(v, 4) + b
    nodes = list(glued)
    edges = [(x, y) for x in nodes for y in nodes if x != y and glued[x] <= glued[y]]
    for _ in range(clashes):
        label = rng.choice(labels)
        lo, hi = sorted(rng.sample(range(states), 2))
        edges.append((pure(label, f"q{hi}"), pure(label, f"q{lo}")))
    return spaces, EdgeRelation(nodes, edges)


def random_oracle_space(rng, index, value_range=31):
    """A scalable space of 2-8 states and an entropy oracle on hidden integer
    entropies in [0, value_range]; returns (space, oracle, hidden)."""
    from fractions import Fraction

    from entropykit.access import EntropyOracle, StateSpace

    size = rng.randint(2, 8)
    names = tuple(f"s{k}" for k in range(size))
    hidden = {n: rng.randint(0, value_range) for n in names}
    space = StateSpace(
        f"G{index}",
        ("x",),
        {n: (Fraction(k),) for k, n in enumerate(names)},
        scalable=True,
    )
    oracle = EntropyOracle({space.label: {n: Fraction(v) for n, v in hidden.items()}})
    return space, oracle, hidden


# ---------------------------------------------------------------------------
# Pairwise references: the Galois checks written with one Poset.le call per
# pair, scanning carriers in order.  The up-set routes in entropykit.galois
# must return the very same witnesses and representatives.
# ---------------------------------------------------------------------------


def pairwise_check_monotone(src, dst, mapping):
    for x in src.carrier:
        if x not in mapping:
            raise GaloisError(f"mapping is not total: {x!r} unmapped")
        if mapping[x] not in dst.carrier:
            raise GaloisError(f"{mapping[x]!r} is outside the target carrier")
    for x, y in itertools.product(src.carrier, repeat=2):
        if src.le(x, y) and not dst.le(mapping[x], mapping[y]):
            return MonotoneResult(False, (x, y))
    return MonotoneResult(True)


def pairwise_check_galois(F, G):
    A, B = F.source, F.target
    for a in A.carrier:
        for b in B.carrier:
            forward = B.le(F(a), b)
            backward = A.le(a, G(b))
            if forward != backward:
                direction = "F(a) ≤ b but a ≰ G(b)" if forward else "a ≤ G(b) but F(a) ≰ b"
                return GaloisResult(False, (a, b, direction))
    unit = all(A.le(a, G(F(a))) for a in A.carrier)
    counit = all(B.le(F(G(b)), b) for b in B.carrier)
    return GaloisResult(True, None, unit, counit)


def pairwise_poset_from_entropy(space, S):
    """The entropy pre-order with every pair S(x) ≤ S(y) as a generating edge."""
    names = space.names()
    return Poset(names, [(x, y) for x in names for y in names if S.value(x) <= S.value(y)])


def reference_landauer_check(sys1, sys2, f_mapping, g_mapping):
    """landauer_check on the pairwise entropy posets, with each map's
    monotonicity and the adjunction decided by the pairwise scans."""
    (space1, s1), (space2, s2) = sys1, sys2
    p1, p2 = pairwise_poset_from_entropy(space1, s1), pairwise_poset_from_entropy(space2, s2)
    for role, src, dst, mapping in (
        ("realization", p1, p2, f_mapping), ("abstraction", p2, p1, g_mapping)
    ):
        mono = pairwise_check_monotone(src, dst, mapping)
        if not mono.ok:
            return LandauerReport(False, None, witness=mono.witness, stage=f"{role} map not monotone")
    F, G = MonotoneMap(p1, p2, f_mapping), MonotoneMap(p2, p1, g_mapping)
    result = pairwise_check_galois(F, G)
    rows = tuple((c, s1.value(c), s2.value(F(c))) for c in p1.carrier)
    if not result.ok:
        return LandauerReport(False, result, rows, result.witness, "adjunction fails")
    return LandauerReport(True, result, rows)


def antisymmetric(poset):
    """No two distinct elements are equivalent."""
    return all(
        not (poset.le(x, y) and poset.le(y, x))
        for x, y in itertools.combinations(poset.carrier, 2)
    )


def pairwise_least(poset, xs):
    return next((x for x in xs if all(poset.le(x, y) for y in xs)), None)


def pairwise_greatest(poset, xs):
    return next((x for x in xs if all(poset.le(y, x) for y in xs)), None)


def pairwise_join(poset, x, y):
    """The first upper bound of x and y below all of their upper bounds, or
    None."""
    above = [z for z in poset.carrier if poset.le(x, z) and poset.le(y, z)]
    return pairwise_least(poset, above)


def pairwise_total(poset):
    """Every two elements are comparable."""
    return all(
        poset.le(x, y) or poset.le(y, x)
        for x, y in itertools.combinations(poset.carrier, 2)
    )


def pairwise_right_adjoint(F):
    A, B = F.source, F.target
    mapping = {}
    for b in B.carrier:
        greatest = pairwise_greatest(A, [a for a in A.carrier if B.le(F(a), b)])
        if greatest is None:
            return AdjointResult(None, b)
        mapping[b] = greatest
    return AdjointResult(MonotoneMap(B, A, mapping))


def pairwise_left_adjoint(G):
    B, A = G.source, G.target
    mapping = {}
    for a in A.carrier:
        least = pairwise_least(B, [b for b in B.carrier if A.le(a, G(b))])
        if least is None:
            return AdjointResult(None, a)
        mapping[a] = least
    return AdjointResult(MonotoneMap(A, B, mapping))


def warshall_closure(nodes, edges):
    """The reflexive-transitive closure of edges on nodes, as a set of
    pairs, by Warshall's algorithm on a boolean matrix."""
    index = {x: i for i, x in enumerate(nodes)}
    n = len(nodes)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[index[a]][index[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row, via = reach[i], reach[k]
                for j in range(n):
                    row[j] = row[j] or via[j]
    return {(nodes[i], nodes[j]) for i in range(n) for j in range(n) if reach[i][j]}


def first_intransitive_triple(pool, le):
    """The first (x, y, z) of pool³ in index order with le(x, y) and
    le(y, z) but not le(x, z), asking le of every triple; None if none."""
    return next(
        (
            (x, y, z)
            for x, y, z in itertools.product(pool, repeat=3)
            if le(x, y) and le(y, z) and not le(x, z)
        ),
        None,
    )


def random_preorder(rng, labels):
    """A pre-order on shuffled labels whose equivalence classes are planted:
    labels fall into random blocks, each block is closed into a cycle, and
    random edges run between blocks."""
    labels = list(labels)
    rng.shuffle(labels)
    blocks = []
    for x in labels:
        if blocks and rng.random() < 0.4:
            blocks[rng.randrange(len(blocks))].append(x)
        else:
            blocks.append([x])
    edges = []
    for block in blocks:
        if len(block) > 1:
            edges.extend(zip(block, block[1:] + block[:1]))
    for p, q in itertools.permutations(blocks, 2):
        if rng.random() < 0.25:
            edges.append((rng.choice(p), rng.choice(q)))
    return Poset(labels, edges)


def reference_construct_entropy(A, space, config):
    """construct_entropy as it once was: the rank entropy, or the reference
    grid built by repeated addition of the step, each reference composed as
    lo.scale(1 − λ).compose(hi.scale(λ)), scanned from the top."""
    from fractions import Fraction

    from entropykit.access import ConstructionImpossible, EntropyFn, _pure_order

    pures, le, ch = _pure_order(A, space)
    if not ch.total:
        raise ConstructionImpossible("comparison hypothesis fails", ch.incomparable[0])
    for i, x in enumerate(pures):
        if not le[i][i]:
            raise ConstructionImpossible("relation is not reflexive", (x,))
    groups = {}
    for i in range(len(pures)):
        first = next((c for c in groups if le[i][c] and le[c][i]), i)
        groups.setdefault(first, []).append(i)
    ranked = sorted(groups, key=lambda r: sum(le[c][r] for c in groups))
    names = space.names()
    if not (A.supports_scaling and space.scalable):
        rank_of = {names[i]: Fraction(k) for k, r in enumerate(ranked) for i in groups[r]}
        return EntropyFn(space.label, rank_of, method="rank")
    if len(ranked) == 1:
        return EntropyFn(
            space.label, {n: Fraction(0) for n in names}, method="reference",
            degenerate=True, grid_step=config.grid_step,
        )
    lo, hi = pures[ranked[0]], pures[ranked[-1]]

    def reference(lam):
        if lam == 0:
            return lo
        if lam == 1:
            return hi
        return lo.scale(1 - lam).compose(hi.scale(lam))

    grid = []
    lam = Fraction(0)
    while lam < 1:
        grid.append(lam)
        lam += config.grid_step
    grid.append(Fraction(1))
    references = [(lam, reference(lam)) for lam in reversed(grid)]
    values = {
        name: next((lam for lam, ref in references if A.le(ref, x)), Fraction(0))
        for name, x in zip(names, pures)
    }
    return EntropyFn(space.label, values, method="reference", grid_step=config.grid_step)


def reference_check_axioms(A, spaces, config):
    """check_axioms as it once was: consistency, scaling, splitting and
    stability each list their cases, keep those a known universe holds
    (``testable``) and take the first that fails as the witness, written out
    four times.  The one case runner of entropykit.access must give the very
    same report and put the very same queries to A.le, in the same order."""
    import random

    from entropykit import access
    from entropykit.access import (
        _BY_CONSTRUCTION,
        _NO_INSTANCES,
        _STABILITY_CAVEATS,
        _UNSCALED,
        AxiomReport,
        EntropyOracle,
        _bounded_product,
        _composite_pool,
        _intransitive_triple,
        _pures,
        _result,
    )

    scaled = A.supports_scaling and all(sp.scalable for sp in spaces)
    if type(A) is EntropyOracle and spaces:
        for x in _pures(*spaces):
            A._sum(x)  # raises for the first state with no value
        return AxiomReport(_BY_CONSTRUCTION if scaled else _BY_CONSTRUCTION[:3] + _UNSCALED)
    rng = random.Random(config.seed)
    universe = A.universe()
    if universe is None:
        known = None
        pures = _pures(*spaces)
        pure_idx = range(len(pures))
        pool = pures + (_composite_pool(pures, config, rng) if scaled else [])
    else:
        known = set(universe)
        pool = list(universe)
        pure_idx = [
            i for i, p in enumerate(pool) if len(p.parts) == 1 and p.parts[0][0] == 1
        ]
        pures = [pool[i] for i in pure_idx]
    idx = range(len(pool))
    le = [[A.le(x, y) for y in pool] for x in pool]  # le[i][j]: pool[i] ≺ pool[j]

    def testable(cases, composites) -> list:
        """The cases whose composites(*case), built one at a time, the known
        universe holds; every case, with nothing built, when it is unknown."""
        if known is None:
            return cases
        return [c for c in cases if all(x in known for x in composites(*c))]

    witness = next(((pool[i],) for i in idx if not le[i][i]), None)
    results = [_result("reflexivity", witness, True)]

    found = None
    if len(pool) ** 3 > access.MAX_TRIPLES:  # the first failing drawn triple stays the witness
        triples = _bounded_product((idx, idx, idx), access.MAX_TRIPLES, rng)
        found = next(
            ((i, j, k) for i, j, k in triples if le[i][j] and le[j][k] and not le[i][k]), None
        )
    if found is None:
        found = _intransitive_triple(le)
    witness = None if found is None else tuple(pool[i] for i in found)
    results.append(_result("transitivity", witness, True))

    # consistency: X ≺ X' and Y ≺ Y' ⇒ (X,Y) ≺ (X',Y')
    def joined(p, q):
        return (pool[a].compose(pool[b]) for a, b in zip(p, q))

    accessible = [(i, j) for i in idx for j in idx if le[i][j]]
    cases = testable(
        _bounded_product((accessible, accessible), access.MAX_CONSISTENCY_PAIRS, rng), joined
    )
    witness = next(
        (
            (pool[i], pool[ip], pool[k], pool[kp])
            for (i, ip), (k, kp) in cases
            if not A.le(*joined((i, ip), (k, kp)))
        ),
        None,
    )
    results.append(_result("consistency", witness, cases, () if cases else _NO_INSTANCES))

    if not scaled:
        return AxiomReport(tuple(results) + _UNSCALED)

    # scaling invariance: λ > 0 and X ≺ Y ⇒ λX ≺ λY
    def grown(lam, i, j):
        return pool[i].scale(lam), pool[j].scale(lam)

    cases = testable(
        [(lam, i, j) for lam in config.lambda_grid for i in pure_idx for j in pure_idx],
        grown,
    )
    witness = next(
        (
            (lam, pool[i], pool[j])
            for lam, i, j in cases
            if le[i][j] and not A.le(*grown(lam, i, j))
        ),
        None,
    )
    results.append(_result("scaling-invariance", witness, cases))

    # splitting recombination: X ∼ (λX, (1−λ)X) for λ in (0,1)
    def split(lam, x):
        return (x.scale(lam).compose(x.scale(1 - lam)),)

    fractions_01 = [l for l in config.lambda_grid if 0 < l < 1] or [Fraction(1, 2)]
    cases = testable([(lam, x) for lam in fractions_01 for x in pures], split)
    witness = next(
        (
            (lam, x)
            for lam, x in cases
            for s in split(lam, x)
            if not (A.le(x, s) and A.le(s, x))
        ),
        None,
    )
    results.append(_result("splitting-recombination", witness, cases))

    # stability: (X, εZ) ≺ (Y, εZ') for all scheduled ε ⇒ X ≺ Y
    schedule = [Fraction(1, 2**k) for k in range(1, config.eps_steps + 1)]

    def eps_sides(i, j, z, zp):
        for eps in schedule:
            yield pool[i].compose(z.scale(eps)), pool[j].compose(zp.scale(eps))

    cases = testable(
        _bounded_product((idx, idx, pures, pures), access.MAX_STABILITY_QUADRUPLES, rng),
        lambda *q: itertools.chain.from_iterable(eps_sides(*q)),
    )
    witness = next(
        (
            (pool[i], pool[j], z, zp)
            for i, j, z, zp in cases
            if not le[i][j] and all(itertools.starmap(A.le, eps_sides(i, j, z, zp)))
        ),
        None,
    )
    results.append(_result("stability", witness, cases, _STABILITY_CAVEATS))
    return AxiomReport(tuple(results))


# ---------------------------------------------------------------------------
# Calibration as it once was: every row in Fractions, each row normalized by
# its leading coefficient, each cross state's glued row built per pair and
# every description written out.  The integer elimination in
# entropykit.access must return the very same point and witness.
# ---------------------------------------------------------------------------


class _ReferenceInfeasible(Exception):
    def __init__(self, provenance):
        self.provenance = provenance


def _reference_tighten(rows):
    best = {}
    for coeffs, const, provenance in rows:
        lead = next((a for a in coeffs if a != 0), None)
        if lead is None:
            if const > 0:
                raise _ReferenceInfeasible(provenance)
            continue
        scale = abs(lead)
        coeffs = tuple(a / scale for a in coeffs)
        const = const / scale
        kept = best.get(coeffs)
        if kept is None or const > kept[1]:
            best[coeffs] = (coeffs, const, provenance)
    return list(best.values())


def _reference_fm_solve(rows, nvars):
    from fractions import Fraction

    stages = []
    current = _reference_tighten(rows)
    for var in range(nvars):
        stages.append(current)
        nxt = [c for c in current if c[0][var] == 0]
        pos = [c for c in current if c[0][var] > 0]
        neg = [c for c in current if c[0][var] < 0]
        for p in pos:
            for q in neg:
                provenance = p[2] | q[2]
                if len(provenance) > var + 2:
                    continue
                scale_p, scale_q = -q[0][var], p[0][var]
                coeffs = tuple(scale_p * a + scale_q * b for a, b in zip(p[0], q[0]))
                nxt.append((coeffs, scale_p * p[1] + scale_q * q[1], provenance))
        current = _reference_tighten(nxt)
    for c in current:
        if c[1] > 0:
            raise _ReferenceInfeasible(c[2])
    assignment = [None] * nvars
    for var in range(nvars - 1, -1, -1):
        lower = upper = None
        for coeffs, const, _ in stages[var]:
            coef = coeffs[var]
            if coef == 0:
                continue
            rest = const
            for j in range(var + 1, nvars):
                rest += coeffs[j] * assignment[j]
            bound = -rest / coef
            if coef > 0:
                upper = bound if upper is None else min(upper, bound)
            else:
                lower = bound if lower is None else max(lower, bound)
        if lower is not None and upper is not None:
            assignment[var] = (lower + upper) / 2
        elif lower is not None:
            assignment[var] = lower + 1
        elif upper is not None:
            assignment[var] = upper - 1
        else:
            assignment[var] = Fraction(0)
    return assignment


def reference_calibrate(systems, cross, margin=None):
    """calibrate on Fraction rows, as it was before the integer elimination."""
    from fractions import Fraction

    from entropykit.access import (
        DEFAULT_MARGIN,
        CalibrationResult,
        Relation,
        derived_relations,
    )

    margin = DEFAULT_MARGIN if margin is None else margin
    labels = [space.label for space, _ in systems]
    uni = cross.universe()
    nvars = 2 * (len(systems) - 1)
    index = {lbl: i for i, lbl in enumerate(labels)}

    def glued_row(x):
        coeffs = [Fraction(0)] * nvars
        const = Fraction(0)
        for lam, lbl, name in x.parts:
            i = index[lbl]
            s_val = systems[i][1].value(name)
            if i == 0:
                const += lam * s_val
            else:
                coeffs[2 * (i - 1)] += lam * s_val
                coeffs[2 * (i - 1) + 1] += lam
        return coeffs, const

    rows, descriptions = [], []

    def add(coeffs, const, description):
        rows.append((tuple(coeffs), const, frozenset({len(descriptions)})))
        descriptions.append(description)

    for i in range(1, len(systems)):
        coeffs = [Fraction(0)] * nvars
        coeffs[2 * (i - 1)] = Fraction(-1)
        add(coeffs, margin, f"a[{labels[i]}] > 0")
    for x, y in itertools.combinations(uni, 2):
        rel = derived_relations(cross, x, y)
        if rel is Relation.INCOMPARABLE:
            continue
        cx, kx = glued_row(x)
        cy, ky = glued_row(y)
        diff = [a - b for a, b in zip(cx, cy)]
        const = kx - ky
        if rel is Relation.EQUIVALENT:
            add(diff, const, f"{x} ∼ {y}")
            add([-d for d in diff], -const, f"{x} ∼ {y}")
        elif rel is Relation.STRICT:
            add(diff, const + margin, f"{x} ≺≺ {y}")
        else:
            add([-d for d in diff], -const + margin, f"{y} ≺≺ {x}")
    try:
        point = _reference_fm_solve(rows, nvars)
    except _ReferenceInfeasible as bad:
        return CalibrationResult(
            False, witness=tuple(sorted(descriptions[i] for i in bad.provenance))
        )
    coeffs = [(Fraction(1), Fraction(0))]
    for i in range(1, len(systems)):
        coeffs.append((point[2 * (i - 1)], point[2 * (i - 1) + 1]))
    return CalibrationResult(True, tuple(coeffs))


def compose_smooth_maps(outer, inner):
    """outer ∘ inner (apply inner first), by substituting inner's components
    into outer's."""
    assert inner.target == outer.source
    mapping = dict(inner.components)
    return SmoothMap(
        inner.source,
        outer.target,
        {n: e.subs(mapping, inner.source) for n, e in outer.components.items()},
    )


def reference_evaluate(e, env):
    """Expr.evaluate as a fold over Fractions: each term's coefficient times
    its factor powers left to right, then the terms, starting from
    Fraction(0).  Nested ln, exp and opaque-power bases evaluate through this
    function too, so it shares only the domain checks with the library."""
    total = Fraction(0)
    for t in e.terms:
        val = t.coeff
        for b, x in t.factors:
            val = val * _reference_pow_value(_reference_base_value(b, env), x)
        total = total + val
    return total


def _reference_base_value(b, env):
    if isinstance(b, str):
        try:
            return env[b]
        except KeyError:
            raise ExprError(f"no value bound for symbol {b!r}") from None
    if isinstance(b, _Ln):
        return _ln_value(reference_evaluate(b.arg, env))
    if isinstance(b, _Exp):
        return _exp_value(reference_evaluate(b.arg, env))
    return reference_evaluate(b.base, env)


def _reference_pow_value(base, q):
    if type(q) is int and isinstance(base, (int, Fraction)):
        if base == 0 and q < 0:
            raise DomainError("zero base with negative exponent")
        if type(base) is not Fraction:
            base = Fraction(base)
        bits = max(base.numerator.bit_length(), base.denominator.bit_length())
        if bits <= 1 or abs(q) * bits <= MAX_POWER_BITS:
            return base**q
        if q < 0:
            base, q = 1 / base, -q
        try:
            fb = float(base)
        except OverflowError:
            raise DomainError("power overflow") from None
        return _float_pow(fb, q)
    return _float_pow(float(base), q)


# ---------------------------------------------------------------------------
# Products and sums as they once were: every pair product's coefficient a
# Fraction (or int) product, and every merge in the build a Fraction sum
# brought back to an int where whole.  Expr.__mul__ and Expr.__add__ must
# give the very same terms, coefficient types, keys and printed forms.
# ---------------------------------------------------------------------------


def reference_build(chart, terms):
    merged: dict = {}
    for t in terms:
        if t.coeff == 0:
            continue
        k = _term_key(t, chart)
        old = merged.get(k)
        if old is not None:
            c = old.coeff + t.coeff
            t = _Term(c if type(c) is int else _whole(c), old.factors, k)
        merged[k] = t
    live = sorted(k for k, t in merged.items() if t.coeff)
    return Expr(chart, tuple(merged[k] for k in live))


def _reference_mul_terms(t1, t2):
    f1, f2 = t1.factors, t2.factors
    coeff = t1.coeff * t2.coeff
    if type(coeff) is not int:
        coeff = _whole(coeff)
    if not f1:
        return _Term(coeff, f2, t2.key)
    if not f2:
        return _Term(coeff, f1, t1.key)
    k1, k2 = t1.key, t2.key
    n1, n2 = len(f1), len(f2)
    factors = []
    keys = []
    i = j = 0
    while i < n1 and j < n2:
        e1, e2 = k1[i], k2[j]
        if e1[1] < e2[1]:
            factors.append(f1[i])
            keys.append(e1)
            i += 1
        elif e2[1] < e1[1]:
            factors.append(f2[j])
            keys.append(e2)
            j += 1
        else:
            b = f2[j][0]
            if isinstance(b, _Pow):
                return None
            x = f1[i][1] + f2[j][1]
            if type(x) is not int:
                x = _whole(x)
            if x:
                factors.append((b, x))
                keys.append(_key_entry(e1[1], x))
            i += 1
            j += 1
    if i < n1:
        factors.extend(f1[i:])
        keys.extend(k1[i:n1])
    elif j < n2:
        factors.extend(f2[j:])
        keys.extend(k2[j:n2])
    keys.append(_TERM_END[0])
    return _Term(coeff, tuple(factors), tuple(keys))


def _reference_square_pairs(terms):
    for i, t1 in enumerate(terms):
        yield t1, t1
        twice = _Term(_whole(2 * t1.coeff), t1.factors, t1.key)
        for t2 in terms[i + 1:]:
            yield twice, t2


def reference_mul(self, other):
    other = self._lift(other)
    if len(other.terms) == 1 and not other.terms[0].factors:
        return self._scaled(other.terms[0].coeff)
    if len(self.terms) == 1 and not self.terms[0].factors:
        return other._scaled(self.terms[0].coeff)
    chart = self.chart
    for t in self.terms + other.terms:
        _term_key(t, chart)
    if other is self:
        pairs = _reference_square_pairs(self.terms)
    else:
        pairs = itertools.product(self.terms, other.terms)
    pieces = []
    for t1, t2 in pairs:
        t = _reference_mul_terms(t1, t2)
        if t is None:
            pieces.extend(Expr._monomial(
                chart, t1.coeff * t2.coeff, t1.factors + t2.factors
            ).terms)
        else:
            pieces.append(t)
    return reference_build(chart, pieces)


def reference_add(self, other):
    other = self._lift(other)
    if not other.terms:
        return self
    if not self.terms:
        return other
    return reference_build(self.chart, self.terms + other.terms)


ARITHMETIC = {"__mul__": reference_mul, "__rmul__": reference_mul,
              "__add__": reference_add, "__radd__": reference_add}


@contextlib.contextmanager
def reference_arithmetic():
    """Within it, every product and sum of two Exprs is reference_mul's or
    reference_add's: the products of a power by squaring and of _monomial's
    expansions too."""
    saved = {name: Expr.__dict__[name] for name in ARITHMETIC}
    for name, fn in ARITHMETIC.items():
        setattr(Expr, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(Expr, name, fn)
