"""Shared independent oracles and random generators for order-theoretic tests."""

import itertools

from entropykit.galois import MonotoneMap, Poset, check_galois, check_monotone


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
