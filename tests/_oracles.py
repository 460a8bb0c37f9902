"""Shared independent oracles and random generators for order-theoretic tests."""

import itertools

from entropykit.galois import (
    AdjointResult,
    GaloisError,
    GaloisResult,
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
