import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from entropykit.access import CompositeState, EdgeRelation, EntropyFn, StateSpace
from entropykit.galois import (
    GaloisError,
    MonotoneMap,
    Poset,
    check_galois,
    check_monotone,
    closure_report,
    landauer_check,
    left_adjoint,
    poset_from_entropy,
    right_adjoint,
)


from _oracles import (
    antisymmetric,
    brute_force_right_adjoints,
    brute_force_right_adjoints_unpruned,
    pairwise_check_galois,
    pairwise_check_monotone,
    pairwise_greatest,
    pairwise_least,
    pairwise_left_adjoint,
    pairwise_poset_from_entropy,
    pairwise_right_adjoint,
    random_monotone_map,
    random_poset,
    random_preorder,
    reference_landauer_check,
    warshall_closure,
)


def space(label, names):
    return StateSpace(label, ("x",), {n: (F(i),) for i, n in enumerate(names)})


# -- posets ---------------------------------------------------------------------


def test_poset_closure_and_flags():
    p = Poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert p.le("a", "c")
    assert antisymmetric(p) and p.total
    q = Poset(("a", "b"), [("a", "b"), ("b", "a")])
    assert not antisymmetric(q)


def test_poset_from_constant_entropy_is_complete():
    sp = space("G", ["a", "b", "c"])
    S = EntropyFn("G", {n: F(1) for n in sp.names()})
    p = poset_from_entropy(sp, S)
    assert all(p.le(x, y) for x in p.carrier for y in p.carrier)


def test_poset_from_injective_entropy_is_sorted_chain():
    sp = space("G", ["a", "b", "c", "d"])
    S = EntropyFn("G", {"a": F(3), "b": F(1), "c": F(7), "d": F(0)})
    p = poset_from_entropy(sp, S)
    assert p.total and antisymmetric(p)
    order = sorted(sp.names(), key=lambda n: S.value(n))
    for x, y in zip(order, order[1:]):
        assert p.le(x, y) and not p.le(y, x)


def test_poset_from_entropy_is_order_invariant():
    sp = space("G", ["a", "b", "c"])
    S = EntropyFn("G", {"a": F(0), "b": F(2), "c": F(2)})
    squashed = EntropyFn(
        "G", {n: 5 * S.value(n) + 7 for n in sp.names()}
    )
    assert poset_from_entropy(sp, S) == poset_from_entropy(sp, squashed)


def random_entropy_system(rng, label, size):
    """A space of size states and an entropy on it drawn from a small pool of
    negative, zero and fractional values, so that ties are common."""
    names = [f"{label}{k}" for k in range(size)]
    rng.shuffle(names)
    values = {n: F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for n in names}
    return space(label, names), EntropyFn(label, values)


def test_sorted_entropy_order_matches_the_pairwise_one():
    rng = random.Random(28)
    for size in range(1, 31):
        for _ in range(4):
            sp, S = random_entropy_system(rng, "s", size)
            p, q = poset_from_entropy(sp, S), pairwise_poset_from_entropy(sp, S)
            assert p.carrier == q.carrier == sp.names()
            assert p == q and p.relation == q.relation and p.total


def test_landauer_check_matches_the_pairwise_reference():
    rng = random.Random(2028)
    stages = Counter()
    for _ in range(300):
        sys1 = random_entropy_system(rng, "c", rng.randint(1, 8))
        sys2 = random_entropy_system(rng, "d", rng.randint(1, 8))
        p1 = pairwise_poset_from_entropy(*sys1)
        p2 = pairwise_poset_from_entropy(*sys2)
        if rng.random() < 0.5:
            f_mapping = random_monotone_map(rng, p1, p2).mapping
        else:
            f_mapping = {c: rng.choice(p2.carrier) for c in p1.carrier}
        monotone = check_monotone(p1, p2, f_mapping).ok
        right = right_adjoint(MonotoneMap(p1, p2, f_mapping)) if monotone else None
        pick = rng.random()
        if right is not None and right.found and pick < 0.4:
            g_mapping = right.map.mapping
        elif pick < 0.7:
            g_mapping = random_monotone_map(rng, p2, p1).mapping
        else:
            g_mapping = {d: rng.choice(p1.carrier) for d in p2.carrier}
        got = landauer_check(sys1, sys2, f_mapping, g_mapping)
        want = reference_landauer_check(sys1, sys2, f_mapping, g_mapping)
        assert (got.ok, got.stage, got.witness, got.rows) == (
            want.ok, want.stage, want.witness, want.rows
        )
        stages[got.stage] += 1
    # every outcome is met: a pass, each map not monotone, a failed adjunction
    assert set(stages) == {
        None, "realization map not monotone", "abstraction map not monotone", "adjunction fails"
    }


# -- monotone maps -----------------------------------------------------------------


def test_check_monotone_basics():
    chain = Poset.chain(("0", "1"))
    assert check_monotone(chain, chain, {"0": "0", "1": "1"}).ok
    assert check_monotone(chain, chain, {"0": "1", "1": "1"}).ok
    r = check_monotone(chain, chain, {"0": "1", "1": "0"})
    assert not r.ok and r.witness == ("0", "1")
    with pytest.raises(GaloisError):
        MonotoneMap(chain, chain, {"0": "1", "1": "0"})
    with pytest.raises(GaloisError, match="'2' is outside the source carrier"):
        check_monotone(chain, chain, {"0": "0", "2": "1", "1": "1"})


# -- galois connections ---------------------------------------------------------------


def chain_instance():
    A = Poset.chain(("0", "1", "2"))
    B = Poset.chain(("0", "1"))
    F = MonotoneMap(A, B, {"0": "0", "1": "0", "2": "1"})
    G = MonotoneMap(B, A, {"0": "1", "1": "2"})
    return A, B, F, G


def test_check_galois_identity_pair():
    p = Poset(("a", "b", "c"), [("a", "b"), ("a", "c")])
    ident = MonotoneMap.identity(p)
    r = check_galois(ident, ident)
    assert r.ok and r.unit_ok and r.counit_ok


def test_check_galois_chain_example_brute_forced():
    A, B, F, G = chain_instance()
    r = check_galois(F, G)
    assert r.ok
    # brute-force the biconditional over all six pairs
    for a in A.carrier:
        for b in B.carrier:
            assert B.le(F(a), b) == A.le(a, G(b))


def test_check_galois_reports_first_violation():
    A, B, F, _ = chain_instance()
    bad = MonotoneMap(B, A, {"0": "0", "1": "2"})
    r = check_galois(F, bad)
    assert not r.ok
    assert r.witness == ("1", "0", "F(a) ≤ b but a ≰ G(b)")


def test_closure_and_kernel_operators_on_pass():
    _, _, F, G = chain_instance()
    assert closure_report(F, G).ok


# -- adjoint search ---------------------------------------------------------------------


def test_right_adjoint_on_chain_example():
    A, B, F, G = chain_instance()
    r = right_adjoint(F)
    assert r.found
    assert r.map.mapping == G.mapping
    assert check_galois(F, r.map).ok


def test_right_adjoint_of_identity():
    p = Poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    r = right_adjoint(MonotoneMap.identity(p))
    assert r.found
    assert all(r.map(x) == x for x in p.carrier)


def test_right_adjoint_missing_on_antichain_collapse():
    A = Poset(("a1", "a2"), [])
    B = Poset(("pt",), [])
    F = MonotoneMap(A, B, {"a1": "pt", "a2": "pt"})
    r = right_adjoint(F)
    assert not r.found
    assert r.witness == "pt"


def test_left_adjoint_recovers_partner_and_duals():
    A, B, F, G = chain_instance()
    r = left_adjoint(G)
    assert r.found
    assert r.map.mapping == F.mapping
    ident = MonotoneMap.identity(A)
    assert left_adjoint(ident).map.mapping == ident.mapping
    # least elements missing: G maps the point into a 2-antichain
    anti = Poset(("x", "y"), [])
    pt = Poset(("pt",), [])
    G2 = MonotoneMap(anti, pt, {"x": "pt", "y": "pt"})
    r2 = left_adjoint(G2)
    assert not r2.found and r2.witness == "pt"


def test_pruned_oracle_matches_full_enumeration_on_small_instances():
    rng = random.Random(5)
    labels = ("a", "b", "c")
    for _ in range(20):
        src = random_poset(rng, labels)
        dst = random_poset(rng, ("x", "y", "z"))
        F = random_monotone_map(rng, src, dst)
        pruned = {tuple(sorted(g.mapping.items())) for g in brute_force_right_adjoints(F)}
        full = {
            tuple(sorted(g.mapping.items()))
            for g in brute_force_right_adjoints_unpruned(F)
        }
        assert pruned == full


def test_right_adjoint_agrees_with_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        src = random_poset(rng, tuple(f"a{i}" for i in range(n)))
        dst = random_poset(rng, tuple(f"b{i}" for i in range(m)))
        F = random_monotone_map(rng, src, dst)
        result = right_adjoint(F)
        partners = brute_force_right_adjoints(F)
        assert result.found == bool(partners)
        if result.found:
            assert check_galois(F, result.map).ok
            # essential uniqueness: all partners agree pointwise up to ∼
            for g in partners:
                for b in dst.carrier:
                    assert src.equivalent(g(b), result.map(b))


def test_adjoint_functors_preserve_existing_joins():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        src = random_poset(rng, ("a", "b", "c", "d"))
        dst = random_poset(rng, ("x", "y", "z"))
        F = random_monotone_map(rng, src, dst)
        if not right_adjoint(F).found:
            continue
        for p, q in itertools.combinations(src.carrier, 2):
            j = src.join(p, q)
            if j is None:
                continue
            image_join = dst.join(F(p), F(q))
            assert image_join is not None
            assert dst.equivalent(F(j), image_join)
            checked += 1
    assert checked > 10


# -- up-set routes against the pairwise scans ---------------------------------------------


def adjoint_key(result):
    return (result.witness, None if result.map is None else result.map.mapping)


def test_up_set_routes_return_the_pairwise_witnesses_and_representatives():
    # exact witnesses and exact representatives, not equality up to ∼: on
    # pre-orders with planted equivalence classes, only a route that picks
    # the first qualifying element in carrier order agrees every time
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(300):
        src = random_preorder(rng, [f"a{i}" for i in range(rng.randint(1, 7))])
        dst = random_preorder(rng, [f"b{i}" for i in range(rng.randint(1, 7))])
        seen["classes"] += not antisymmetric(src)
        anything = {x: rng.choice(dst.carrier) for x in src.carrier}
        result = check_monotone(src, dst, anything)
        assert result == pairwise_check_monotone(src, dst, anything)
        seen["unmonotone"] += not result.ok
        for poset in (src, dst):
            xs = [rng.choice(poset.carrier) for _ in range(rng.randint(0, 5))]
            assert poset.least(xs) == pairwise_least(poset, xs)
            assert poset.greatest(xs) == pairwise_greatest(poset, xs)
        F = random_monotone_map(rng, src, dst)
        G = random_monotone_map(rng, dst, src)
        right, left = right_adjoint(F), left_adjoint(G)
        assert adjoint_key(right) == adjoint_key(pairwise_right_adjoint(F))
        assert adjoint_key(left) == adjoint_key(pairwise_left_adjoint(G))
        seen["right", right.found] += 1
        seen["left", left.found] += 1
        for partner in (G, right.map):
            if partner is not None:
                galois = check_galois(F, partner)
                assert galois == pairwise_check_galois(F, partner)
                seen["bad_pair"] += not galois.ok
    # every branch ran often: classes, failing maps, found and missing
    # adjoints, failing pairs
    assert len(seen) == 7 and min(seen.values()) >= 30, seen


def test_mask_closure_matches_warshall():
    # random relations with cycles and self-loops, read through every Poset
    # query and through EdgeRelation.closure
    rng = random.Random(27)
    for _ in range(150):
        n = rng.randint(0, 30)
        labels = [f"e{i}" for i in range(n)]
        density = rng.choice((0.02, 0.06, 0.15))
        edges = [(a, b) for a in labels for b in labels if rng.random() < density]
        closed = warshall_closure(labels, edges)

        def le(x, y):
            return (x, y) in closed

        def least(xs):
            return next((x for x in xs if all(le(x, y) for y in xs)), None)

        def greatest(xs):
            return next((x for x in xs if all(le(y, x) for y in xs)), None)

        p = Poset(labels, edges)
        assert p.relation == closed
        outside = labels + ["zz"]
        assert all(p.le(x, y) == le(x, y) for x in outside for y in outside)
        for _ in range(10):
            x, y = rng.choice(outside), rng.choice(outside)
            above = [z for z in labels if le(x, z) and le(y, z)]
            assert p.join(x, y) == least(above)
        lists = [[], ["zz"]] + [
            [rng.choice(labels) for _ in range(rng.randint(1, 6))] for _ in range(8) if labels
        ]
        if labels:
            lists += [[labels[0]] * 3, [rng.choice(labels), "zz"]]
        for xs in lists:
            assert p.least(xs) == least(xs)
            assert p.greatest(xs) == greatest(xs)
        shuffled = rng.sample(labels, n)
        q = Poset(shuffled, rng.sample(edges, len(edges)))
        assert p == q and q == p and hash(p) == hash(q)
        missing = [(a, b) for a in labels for b in labels if not le(a, b)]
        if missing:
            r = Poset(shuffled, edges + [rng.choice(missing)])
            assert p != r and r != p
        nodes = [CompositeState.pure("G", x) for x in labels]
        node = dict(zip(labels, nodes))
        relation = EdgeRelation(nodes, [(node[a], node[b]) for a, b in edges])
        assert relation.closure().edges == {(node[a], node[b]) for a, b in closed}


def test_first_failing_edge_is_not_the_monotone_witness():
    # the generating edge y < z fails first in edge order, but the pairwise
    # scan meets x ≤ z (a closed pair, not an edge) first
    src = Poset(("x", "y", "z"), [("y", "z"), ("x", "y")])
    dst = Poset.chain(("0", "1"))
    mapping = {"x": "1", "y": "1", "z": "0"}
    result = check_monotone(src, dst, mapping)
    assert result == pairwise_check_monotone(src, dst, mapping)
    assert result.witness == ("x", "z")


@pytest.mark.parametrize(
    "g, witness",
    [
        # unit a ≤ GF(a) holds, counit FG(0) = 1 ≰ 0 fails
        ({"0": "1", "1": "1"}, ("1", "0", "a ≤ G(b) but F(a) ≰ b")),
        # unit 1 ≰ GF(1) = 0 fails, counit holds
        ({"0": "0", "1": "0"}, ("1", "1", "F(a) ≤ b but a ≰ G(b)")),
    ],
    ids=["counit-fails", "unit-fails"],
)
def test_a_failing_unit_or_counit_gives_the_pairwise_witness(g, witness):
    chain = Poset.chain(("0", "1"))
    F = MonotoneMap.identity(chain)
    G = MonotoneMap(chain, chain, g)
    result = check_galois(F, G)
    assert result == pairwise_check_galois(F, G)
    assert result.witness == witness


def test_poset_equality_reads_the_closed_relation():
    p = Poset(("a", "b", "c"), [("a", "b"), ("b", "c")])
    q = Poset(("c", "b", "a"), [("b", "c"), ("a", "b"), ("a", "c")])
    assert p == q and hash(p) == hash(q)
    assert p.relation == q.relation
    assert p != Poset(("a", "b", "c"), [("a", "b")])
    assert p != Poset(("a", "b"), [("a", "b")])


# -- landauer realization -----------------------------------------------------------------


def test_landauer_identity_realization():
    sp = space("G", ["a", "b"])
    S = EntropyFn("G", {"a": F(0), "b": F(1)})
    ident = {"a": "a", "b": "b"}
    report = landauer_check((sp, S), (sp, S), ident, ident)
    assert report.ok
    assert report.rows == (("a", F(0), F(0)), ("b", F(1), F(1)))


def test_landauer_bit_realized_in_physical_system():
    bit = space("bit", ["zero", "one"])
    s_bit = EntropyFn("bit", {"zero": F(0), "one": F(1)})
    phys = space("phys", ["p0", "p1", "p2", "p3"])
    s_phys = EntropyFn(
        "phys", {"p0": F(0), "p1": F(1, 2), "p2": F(1), "p3": F(2)}
    )
    f_mapping = {"zero": "p0", "one": "p2"}
    p_bit = poset_from_entropy(bit, s_bit)
    p_phys = poset_from_entropy(phys, s_phys)
    F_map = MonotoneMap(p_bit, p_phys, f_mapping)
    g = right_adjoint(F_map)
    assert g.found
    report = landauer_check((bit, s_bit), (phys, s_phys), f_mapping, g.map.mapping)
    assert report.ok
    assert report.galois.unit_ok and report.galois.counit_ok
    # realization-level bookkeeping: the physical entropy booked per bit state
    assert report.rows == (
        ("zero", F(0), F(0)),
        ("one", F(1), F(1)),
    )


def test_landauer_rejects_order_reversing_realization():
    sp = space("G", ["a", "b"])
    S = EntropyFn("G", {"a": F(0), "b": F(1)})
    report = landauer_check(
        (sp, S), (sp, S), {"a": "b", "b": "a"}, {"a": "a", "b": "b"}
    )
    assert not report.ok
    assert report.stage == "realization map not monotone"
    assert report.witness == ("a", "b")
