import itertools
import os
import random
import subprocess
import sys
import zlib
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import entropykit
from _oracles import (
    calibration_case,
    first_intransitive_triple,
    random_oracle_space,
    reference_calibrate,
    reference_check_axioms,
    reference_construct_entropy,
)
from entropykit import access
from entropykit.documents import load_document
from entropykit.expr import Chart, parse
from entropykit.galois import Poset
from entropykit.access import (
    AccessError,
    Accessibility,
    AxiomConfig,
    AxiomResult,
    AxiomStatus,
    CompositeState,
    ConstructionImpossible,
    EdgeRelation,
    EntropyFn,
    EntropyOracle,
    MemoizedOracle,
    Relation,
    StateSpace,
    calibrate,
    check_axioms,
    comparison_hypothesis,
    construct_entropy,
    derived_relations,
    verify_entropy,
    _composite_pool,
)

CORPUS = Path(__file__).resolve().parent.parent / "docs" / "corpus"


def space(label, names, scalable=False):
    return StateSpace(
        label, ("x",), {n: (F(i),) for i, n in enumerate(names)}, scalable
    )


def pure(label, name):
    return CompositeState.pure(label, name)


def edge_relation(label, names, edges, close=True):
    nodes = [pure(label, n) for n in names]
    rel = EdgeRelation(nodes, [(pure(label, a), pure(label, b)) for a, b in edges])
    return rel.closure() if close else rel


def exhaustive_stability(monkeypatch):
    """Test every stability quadruple of a pool with no drawn composites, so
    a near tie's false FAIL is found."""
    monkeypatch.setattr(access, "MAX_STABILITY_QUADRUPLES", 10_000)
    monkeypatch.setattr(access, "COMPOSITE_SAMPLES", 0)


def oracle_for(label, values):
    return EntropyOracle({label: {n: F(v) for n, v in values.items()}})


# -- derived relations ---------------------------------------------------------


def test_check_axioms_refuses_a_space_with_no_states():
    # the space itself refuses an empty states mapping, so check_axioms
    # never draws from an empty pool
    with pytest.raises(AccessError, match="state space 'G' has no states"):
        StateSpace("G", ("x",), {}, scalable=True)


def test_one_state_is_the_smallest_state_space():
    # with no states, comparison_hypothesis called the space total and
    # construct_entropy raised IndexError; one state is comparable with
    # itself and gets the degenerate entropy 0
    with pytest.raises(AccessError, match="has no states"):
        StateSpace("G", ("x",), {})
    sp = StateSpace("G", ("x",), {"a": (F(0),)}, scalable=True)
    oracle = oracle_for("G", {"a": 3})
    assert comparison_hypothesis(oracle, sp).total
    S = construct_entropy(oracle, sp)
    assert S.degenerate and S.values == {"a": F(0)}


def test_derived_relations_classification():
    rel = edge_relation("G", ["a", "b"], [("a", "b")])
    a, b = pure("G", "a"), pure("G", "b")
    assert derived_relations(rel, a, b) is Relation.STRICT
    assert derived_relations(rel, b, a) is Relation.ACCESSIBLE
    sym = edge_relation("G", ["a", "b"], [("a", "b"), ("b", "a")])
    assert derived_relations(sym, a, b) is Relation.EQUIVALENT
    loose = edge_relation("G", ["a", "b"], [])
    assert derived_relations(loose, a, b) is Relation.INCOMPARABLE


# scales repeat and come in several forms (2/4, 0.5); states repeat too
positive_scales = st.one_of(
    st.sampled_from([1, F(1, 2), F(2, 4), 0.5, F(1, 3), 2, F(3, 2)]),
    st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12),
)
bad_scales = st.one_of(
    st.sampled_from([0, 0.0, -1, F(-1, 2)]),
    st.fractions(min_value=-2, max_value=0, max_denominator=12),
)
part_lists = st.lists(
    st.tuples(positive_scales, st.sampled_from("GH"), st.sampled_from("abc")),
    min_size=1, max_size=5,
)


def reference_parts(parts):
    """The canonical parts: Fraction scales, sorted by (label, name, scale)."""
    clean = [(F(lam), lbl, name) for lam, lbl, name in parts]
    return tuple(sorted(clean, key=lambda p: (p[1], p[2], p[0])))


@given(
    part_lists, part_lists, st.one_of(positive_scales, bad_scales),
    bad_scales, st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_composite_states_are_order_insensitive_multisets(xs, ys, lam, bad, rng):
    ab = pure("G", "a").compose(pure("G", "b"))
    ba = pure("G", "b").compose(pure("G", "a"))
    assert ab == ba
    assert ab.scale(F(1, 2)).parts[0][0] == F(1, 2)
    with_bad = list(xs)
    with_bad.insert(rng.randrange(len(xs) + 1), (bad, "G", "a"))
    with pytest.raises(AccessError, match="^scales must be positive$"):
        CompositeState(with_bad)
    x, y = CompositeState(xs), CompositeState(ys)
    shuffled = list(xs)
    rng.shuffle(shuffled)
    assert x == CompositeState(shuffled) and hash(x) == hash(CompositeState(shuffled))
    assert x.parts == reference_parts(xs)
    assert all(type(l) is F for l, _, _ in x.parts)
    # equality and hash agree with the multiset of (Fraction, label, name)
    assert (x == y) == (reference_parts(xs) == reference_parts(ys))
    if x == y:
        assert hash(x) == hash(y)
    joined = CompositeState(x.parts + y.parts)
    xy = x.compose(y)
    assert xy.parts == joined.parts and str(xy) == str(joined)
    assert xy == joined == y.compose(x) and hash(xy) == hash(joined)
    if F(lam) <= 0:
        with pytest.raises(AccessError, match="^scales must be positive$"):
            x.scale(lam)
        with pytest.raises(AccessError, match="^scales must be positive$"):
            CompositeState([(F(lam) * l, s, n) for l, s, n in x.parts])
    else:
        scaled = CompositeState([(F(lam) * l, s, n) for l, s, n in x.parts])
        assert x.scale(lam).parts == scaled.parts
        assert str(x.scale(lam)) == str(scaled)
        assert x.scale(lam) == scaled and hash(x.scale(lam)) == hash(scaled)


@given(
    part_lists, part_lists,
    st.lists(st.fractions(-4, 4, max_denominator=9), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_entropy_oracle_compares_exact_totals(xs, ys, values):
    table = {
        lbl: {n: values[3 * i + j] for j, n in enumerate("abc")}
        for i, lbl in enumerate("GH")
    }
    oracle = EntropyOracle(table)
    x, y = CompositeState(xs), CompositeState(ys)

    def reference_total(parts):
        return sum(F(l) * table[lbl][n] for l, lbl, n in parts)

    assert oracle.total(x) == reference_total(xs)
    assert oracle.le(x, y) == (reference_total(xs) <= reference_total(ys))
    assert oracle.le(y, x) == (reference_total(ys) <= reference_total(xs))
    assert oracle.total(x.compose(y)) == reference_total(xs + ys)


# -- closure ---------------------------------------------------------------------


def brute_reachability(names, edges):
    reach = {(a, a) for a in names}
    reach.update(edges)
    for _ in names:
        reach.update(
            (a, d) for (a, b) in list(reach) for (c, d) in list(reach) if b == c
        )
    return reach


def test_closure_is_idempotent_and_minimal():
    cases = [(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])]
    rng = random.Random(95)
    for _ in range(40):
        names = [f"s{i}" for i in range(rng.randint(1, 7))]
        p = rng.random()
        cases.append(
            (names, [(a, b) for a in names for b in names if rng.random() < p])
        )
    for names, edges in cases:
        raw = edge_relation("G", names, edges, close=False)
        closed = raw.closure()
        assert closed.closure().edges == closed.edges
        reach = brute_reachability(names, edges)
        assert closed.edges == {(pure("G", a), pure("G", b)) for a, b in reach}
        # galois.Poset closes its relation with the same routine
        assert Poset(names, edges).relation == reach


# -- axioms -----------------------------------------------------------------------


def test_closed_edges_pass_reflexivity_and_transitivity():
    rel = edge_relation("G", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    report = check_axioms(rel, [space("G", ["a", "b", "c"])])
    assert report["reflexivity"].status is AxiomStatus.PASS
    assert report["transitivity"].status is AxiomStatus.PASS
    assert report["scaling-invariance"].status is AxiomStatus.NOT_APPLICABLE


def test_raw_edges_fail_transitivity_with_witness():
    rel = edge_relation("G", ["a", "b", "c"], [("a", "b"), ("b", "c")], close=False)
    report = check_axioms(rel, [space("G", ["a", "b", "c"])])
    assert report["transitivity"].status is AxiomStatus.FAIL
    assert report["transitivity"].witness == (
        pure("G", "a"),
        pure("G", "b"),
        pure("G", "c"),
    )


def test_entropy_oracle_passes_all_six_axioms():
    sp = space("G", ["a", "b", "c", "d"], scalable=True)
    oracle = oracle_for("G", {"a": 0, "b": 2, "c": 2, "d": 5})
    report = check_axioms(oracle, [sp])
    for r in report.results:
        assert r.status is AxiomStatus.PASS, r
    assert "LIMIT_APPROXIMATED" in report["stability"].caveats


def test_entropy_oracle_axioms_by_brute_force():
    # independent brute force over all ≤2-component composites on a λ grid
    sp = space("G", ["a", "b", "c"], scalable=True)
    oracle = oracle_for("G", {"a": 0, "b": 1, "c": 3})
    grid = [F(1, 2), F(1), F(2)]
    pures = [pure("G", n) for n in sp.names()]
    composites = list(pures)
    for x, y in itertools.product(pures, repeat=2):
        for lx, ly in itertools.product(grid, repeat=2):
            composites.append(x.scale(lx).compose(y.scale(ly)))
    for x in composites:
        assert oracle.le(x, x)
    for x, y, z in itertools.product(composites[:12], repeat=3):
        if oracle.le(x, y) and oracle.le(y, z):
            assert oracle.le(x, z)
    for x, y in itertools.product(pures, repeat=2):
        if oracle.le(x, y):
            for lam in grid:
                assert oracle.le(x.scale(lam), y.scale(lam))
            for xp, yp in itertools.product(pures, repeat=2):
                if oracle.le(xp, yp):
                    assert oracle.le(x.compose(xp), y.compose(yp))
    for x in pures:
        split = x.scale(F(1, 2)).compose(x.scale(F(1, 2)))
        assert oracle.le(x, split) and oracle.le(split, x)


def test_stability_can_fail_on_near_ties_and_is_flagged_approximate(monkeypatch):
    # δ = 1/128 survives every scheduled ε ≥ 1/64 against Δ = 1, so the finite
    # schedule accepts the premise while the conclusion fails; the entropy
    # oracle itself is stable by construction and says so
    sp = space("G", ["lo", "mid", "hi"], scalable=True)
    oracle = oracle_for("G", {"lo": 0, "mid": F(1, 128), "hi": 1})
    exhaustive_stability(monkeypatch)
    report = check_axioms(Delegating(oracle), [sp])
    assert report["stability"].status is AxiomStatus.FAIL
    assert "LIMIT_APPROXIMATED" in report["stability"].caveats
    x, y, z, zp = report["stability"].witness
    assert oracle.total(x) > oracle.total(y)
    structural = check_axioms(oracle, [sp])["stability"]
    assert structural.status is AxiomStatus.PASS and structural.witness is None
    assert structural.caveats == ("LIMIT_APPROXIMATED",)


def test_consistency_on_explicit_composite_nodes():
    a, b = pure("G", "a"), pure("G", "b")
    aa, bb = a.compose(a), b.compose(b)
    good = EdgeRelation(
        [a, b, aa, bb],
        [(a, a), (b, b), (aa, aa), (bb, bb), (a, b), (aa, bb)],
    )
    report = check_axioms(good, [space("G", ["a", "b"])])
    assert report["consistency"].status is AxiomStatus.PASS
    bad = EdgeRelation(
        [a, b, aa, bb], [(a, a), (b, b), (aa, aa), (bb, bb), (a, b)]
    )
    report = check_axioms(bad, [space("G", ["a", "b"])])
    assert report["consistency"].status is AxiomStatus.FAIL


def test_sampled_transitivity_failure_keeps_its_witness():
    # 10³ triples exceed MAX_TRIPLES, so transitivity samples them; the
    # pinned witness changes if the triples are drawn differently
    names = [f"s{k}" for k in range(10)]
    nodes = [pure("G", n) for n in names]
    raw = EdgeRelation(nodes, [(x, x) for x in nodes] + list(zip(nodes, nodes[1:])))
    report = check_axioms(raw, [space("G", names)], AxiomConfig(seed=7))
    assert report["reflexivity"].status is AxiomStatus.PASS
    assert report["transitivity"].status is AxiomStatus.FAIL
    assert report["transitivity"].witness == (
        pure("G", "s2"), pure("G", "s3"), pure("G", "s4")
    )


def noisy_oracle(values):
    """An entropy order with every tenth off-diagonal answer flipped, by a
    hash of the query that does not depend on the interpreter's hash seed."""
    exact = oracle_for("G", values)

    def le(x, y):
        flip = x != y and zlib.crc32(f"{x} {y}".encode()) % 10 == 0
        return exact.le(x, y) != flip

    return MemoizedOracle(le)


def test_noisy_oracle_fails_stability_with_its_witness():
    sp = space("G", ["a", "b", "c", "d"], scalable=True)
    oracle = noisy_oracle({"a": 0, "b": 1, "c": 1, "d": 3})
    report = check_axioms(oracle, [sp], AxiomConfig(seed=3))
    half, two, three = F(1, 2), F(2), F(3)
    a, b, c, d = (pure("G", n) for n in "abcd")
    assert report["reflexivity"].status is AxiomStatus.PASS
    assert report["transitivity"].witness == (
        a.scale(half).compose(c.scale(two)),
        a.scale(half).compose(d.scale(three)),
        a.scale(half).compose(a.scale(three)),
    )
    assert report["scaling-invariance"].witness == (two, a, d)
    assert report["splitting-recombination"].status is AxiomStatus.PASS
    stability = report["stability"]
    assert stability.status is AxiomStatus.FAIL
    assert stability.witness == (
        c.scale(half).compose(d.scale(three)),
        d.scale(two).compose(d.scale(three)),
        a,
        b,
    )
    assert stability.caveats == ("LIMIT_APPROXIMATED",)


def scalable_edge_relation(values, extra):
    """Entropy-ordered edges over the pure states, their λ-splits and extra
    composites; the universe is exactly those nodes."""
    oracle = oracle_for("G", values)
    nodes = [pure("G", n) for n in values]
    nodes += [x.scale(F(1, 2)).compose(x.scale(F(1, 2))) for x in nodes]
    nodes += extra
    edges = [(x, y) for x in nodes for y in nodes if oracle.le(x, y)]
    return EdgeRelation(nodes, edges, supports_scaling=True)


def test_known_universe_tests_only_what_it_holds():
    values = {"a": 0, "b": 1}
    sp = space("G", list(values), scalable=True)
    config = AxiomConfig(lambda_grid=(F(2),), eps_steps=1)
    pures = [pure("G", n) for n in values]
    scaled = [x.scale(2) for x in pures]
    sides = [x.compose(z.scale(F(1, 2))) for x in pures for z in pures]

    full = check_axioms(scalable_edge_relation(values, scaled + sides), [sp], config)
    assert full["scaling-invariance"].status is AxiomStatus.PASS
    assert full["splitting-recombination"].status is AxiomStatus.PASS
    assert full["stability"].status is AxiomStatus.PASS

    bare = check_axioms(scalable_edge_relation(values, []), [sp], config)
    assert bare["scaling-invariance"].status is AxiomStatus.NOT_APPLICABLE
    assert bare["splitting-recombination"].status is AxiomStatus.PASS
    assert bare["stability"].status is AxiomStatus.NOT_APPLICABLE
    assert bare["stability"].caveats == ("LIMIT_APPROXIMATED",)


def thinned_scaled_relation(values, seed):
    """The entropy order on the pure states, their ½-splits, λX for λ in
    {1/2, 2} and their pairwise composites, with about one edge in eight
    between distinct nodes dropped by a hash of the edge and the seed."""
    oracle = oracle_for("G", values)
    pures = [pure("G", n) for n in values]
    nodes = pures + [x.scale(F(1, 2)).compose(x.scale(F(1, 2))) for x in pures]
    nodes += [x.scale(lam) for lam in (F(1, 2), F(2)) for x in pures]
    nodes += [x.compose(y) for i, x in enumerate(pures) for y in pures[i:]]
    edges = [
        (x, y) for x in nodes for y in nodes
        if oracle.le(x, y) and (x == y or zlib.crc32(f"{seed} {x} {y}".encode()) % 8)
    ]
    return EdgeRelation(nodes, edges, supports_scaling=True)


NA = "NOT_APPLICABLE"


@pytest.mark.parametrize(
    "seed, quadruples, queries, expected",
    [
        (0, 80, 697, [("PASS", None), ("FAIL", "2·G.a, (G.b, G.d), (G.d, G.d)"),
                      ("PASS", None), ("PASS", None), ("FAIL", "1/2, G.b"), (NA, None)]),
        (1, 80, 702, [("PASS", None),
                      ("FAIL", "(1/2·G.a, 1/2·G.a), (G.a, G.a), (G.c, G.d)"),
                      (NA, None), ("PASS", None), ("PASS", None), ("PASS", None)]),
        (8, 80, 695, [("PASS", None), ("FAIL", "G.a, 1/2·G.b, 1/2·G.c"),
                      ("FAIL", "G.c, 1/2·G.d, G.a, 1/2·G.d"), ("FAIL", "2, G.a, G.b"),
                      ("FAIL", "1/2, G.d"), (NA, None)]),
        (4, 10_000, 682, [("PASS", None), ("FAIL", "(G.a, G.a), (G.a, G.b), (G.b, G.b)"),
                          (NA, None), ("FAIL", "1/2, G.a, G.b"), ("FAIL", "1/2, G.a"),
                          ("FAIL", "1/2·G.a, 1/2·G.b, G.a, G.b")]),
        (10, 10_000, 689, [("PASS", None), ("FAIL", "G.c, G.b, (G.a, G.d)"), (NA, None),
                           ("FAIL", "1/2, G.a, G.b"), ("PASS", None),
                           ("FAIL", "1/2·G.c, 1/2·G.d, G.c, G.d")]),
    ],
)
def test_known_universe_composed_checks_keep_their_witnesses_and_queries(
    seed, quadruples, queries, expected, monkeypatch
):
    # a scaled universe that holds the composites of some cases of every
    # composed check, so each can FAIL, PASS or be NOT_APPLICABLE on it
    monkeypatch.setattr(access, "MAX_STABILITY_QUADRUPLES", quadruples)
    rel = thinned_scaled_relation({"a": 0, "b": 1, "c": 1, "d": 3}, seed)
    asked = []
    answer = rel.le
    rel.le = lambda x, y: asked.append((x, y)) or answer(x, y)
    config = AxiomConfig(lambda_grid=(F(1, 2), F(2)), eps_steps=1, seed=seed)
    report = check_axioms(rel, [space("G", "abcd", scalable=True)], config)
    assert [
        (r.status.value, r.witness and ", ".join(map(str, r.witness)))
        for r in report.results
    ] == expected
    assert len(asked) == queries


def test_check_axioms_asks_each_pool_pair_once():
    exact = oracle_for("G", {"a": 0, "b": 1, "c": 1, "d": 3})
    asked = Counter()

    class Counting(Accessibility):
        supports_scaling = True

        def le(self, x, y):
            asked[x, y] += 1
            return exact.le(x, y)

    sp = space("G", ["a", "b", "c", "d"], scalable=True)
    # scales 2 and 3 keep every later query (λX, splits, ε-sides, consistency
    # composites) off the pool, so pool pairs can come only from the table
    config = AxiomConfig(lambda_grid=(F(2), F(3)))
    assert check_axioms(Counting(), [sp], config).ok
    pures = [pure("G", n) for n in sp.names()]
    pool = pures + _composite_pool(pures, config, random.Random(config.seed))
    copies = Counter(pool)  # a composite drawn twice is asked once per copy
    for x in copies:
        for y in copies:
            assert asked[x, y] == copies[x] * copies[y], (x, y)


class Logged(Accessibility):
    """A noisy entropy order on an unknown universe: every answer of the
    exact order whose query hashes to 0 mod ``noise`` is flipped, the
    diagonal's too.  Each query is logged."""

    def __init__(self, values, noise, salt, supports_scaling):
        self.exact = EntropyOracle(values)
        self.noise, self.salt = noise, salt
        self.supports_scaling = supports_scaling
        self.asked = []

    def le(self, x, y):
        self.asked.append((x, y))
        flip = zlib.crc32(f"{self.salt} {x} {y}".encode()) % self.noise == 0
        return self.exact.le(x, y) != flip


class LoggedEdges(EdgeRelation):
    """An edge relation on known nodes whose queries are logged."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def le(self, x, y):
        self.asked.append((x, y))
        return super().le(x, y)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sampled_from([3, 7, 40, 10**9]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 16),
    st.sampled_from([(F(1, 2), F(2), F(3)), (F(2), F(3)), (F(1, 3), F(2, 3), F(3, 2))]),
    st.integers(1, 3),
)
@settings(max_examples=120, deadline=None)
def test_check_axioms_matches_the_four_loop_reference(
    seed, size, noise, known, scaled, extra, lambda_grid, eps_steps
):
    # pools of 2 to 12 pure states (or up to 36 with the drawn composites)
    # fall on both sides of MAX_TRIPLES, and known universes of 2 to 22 nodes
    # on both sides of MAX_CONSISTENCY_PAIRS and MAX_STABILITY_QUADRUPLES;
    # flipped answers make each check FAIL somewhere
    rng = random.Random(seed)
    labels = ("G", "H") if size > 3 and rng.random() < 0.5 else ("G",)
    names = {lbl: [f"s{k}" for k in range(size) if k % len(labels) == i]
             for i, lbl in enumerate(labels)}
    spaces = [space(lbl, names[lbl], scalable=rng.random() < 0.8) for lbl in labels]
    values = {lbl: {n: F(rng.randint(0, 12), rng.choice((1, 2, 4))) for n in names[lbl]}
              for lbl in labels}
    config = AxiomConfig(lambda_grid=lambda_grid, eps_steps=eps_steps, seed=seed)

    def build():
        if not known:
            return Logged(values, noise, seed, scaled)
        pures = [pure(lbl, n) for lbl in labels for n in names[lbl]][:6]
        eps = [F(1, 2**k) for k in range(1, eps_steps + 1)]
        candidates = [x.scale(F(1, 2)).compose(x.scale(F(1, 2))) for x in pures]
        candidates += [x.scale(lam) for lam in lambda_grid for x in pures]
        candidates += [x.compose(y) for i, x in enumerate(pures) for y in pures[i:]]
        candidates += [x.compose(z.scale(e)) for x in pures for z in pures for e in eps]
        nodes = pures + random.Random(seed).sample(candidates, min(extra, len(candidates)))
        answers = Logged(values, noise, seed, scaled)
        return LoggedEdges(
            nodes, [(x, y) for x in nodes for y in nodes if answers.le(x, y)], scaled
        )

    ours, theirs = build(), build()
    report = check_axioms(ours, spaces, config)
    assert report == reference_check_axioms(theirs, spaces, config)
    assert ours.asked == theirs.asked


STRUCTURAL_STABILITY = AxiomResult(
    "stability", AxiomStatus.PASS, caveats=("LIMIT_APPROXIMATED",)
)


class Delegating(Accessibility):
    """An entropy oracle asked through le alone, so that composed queries
    take the base class's route: build both composites, then ask le."""

    supports_scaling = True

    def __init__(self, oracle):
        self.oracle = oracle

    def le(self, x, y):
        return self.oracle.le(x, y)


@pytest.mark.parametrize(
    "lambda_grid",
    [AxiomConfig().lambda_grid, (F(1, 3), F(2, 3), F(3, 2))],
    ids=["default", "non-dyadic"],
)
def test_entropy_oracle_route_matches_the_composed_route(lambda_grid, monkeypatch):
    # (1/3)X and (2/3)X put one state in a composite at two scales
    cases = []
    for seed in range(20):
        rng = random.Random(seed)
        names = [f"s{k}" for k in range(3 + seed % 8)]  # 3 to 10 states
        values = {n: F(rng.randint(0, 12), rng.choice((1, 2, 3, 4))) for n in names}
        config = AxiomConfig(lambda_grid=lambda_grid, seed=seed)
        cases.append((space("G", names, scalable=True), values, config))
    # the near-tie setup, where stability fails with a witness
    near_tie = AxiomConfig(lambda_grid=lambda_grid)
    cases.append(
        (space("G", ["lo", "mid", "hi"], scalable=True),
         {"lo": 0, "mid": F(1, 128), "hi": 1}, near_tie)
    )
    for sp, values, config in cases:
        if config is near_tie:  # the last case
            exhaustive_stability(monkeypatch)
        oracle = oracle_for("G", values)
        bare = check_axioms(oracle, [sp], config)
        composed = check_axioms(Delegating(oracle_for("G", values)), [sp], config)
        assert bare.results[:5] == composed.results[:5], (values, config)
        assert bare["stability"] == STRUCTURAL_STABILITY
        if composed["stability"] != bare["stability"]:
            # only a false FAIL of the finite ε schedule: X ⊀ Y
            sampled = composed["stability"]
            assert sampled.status is AxiomStatus.FAIL, (values, config)
            x, y, _, _ = sampled.witness
            assert oracle.total(x) > oracle.total(y), (values, config)
    assert composed["stability"].status is AxiomStatus.FAIL  # the near tie


@given(
    st.lists(st.integers(0, 31), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_structural_report_matches_the_sampled_route_on_integer_values(values, seed):
    # integer entropies in [0, 31]: two pool totals differ by at least 1/2,
    # more than any ε-side (at most 31/64), so the ε schedule is exact here
    names = [f"s{k}" for k in range(len(values))]
    sp = space("G", names, scalable=True)
    table = dict(zip(names, values))
    config = AxiomConfig(lambda_grid=(F(1, 2), F(1), F(2)), seed=seed)
    structural = check_axioms(oracle_for("G", table), [sp], config)
    assert structural == check_axioms(Delegating(oracle_for("G", table)), [sp], config)
    assert structural["stability"] == STRUCTURAL_STABILITY


@pytest.mark.parametrize(
    "values, missing",
    [
        ({"G": {"a": 0, "b": 1}}, "G.c"),
        ({"G": {"b": 1}}, "G.a"),
        ({"G": {"a": 0, "b": 1, "c": 2}}, "H.a"),
    ],
)
@pytest.mark.parametrize("scalable", [False, True])
def test_unvalued_state_raises_the_same_error_on_both_routes(values, missing, scalable):
    spaces = [space("G", ["a", "b", "c"], scalable), space("H", ["a"], scalable)]
    message = rf"^no entropy value for {missing}$"
    with pytest.raises(AccessError, match=message):
        check_axioms(EntropyOracle(values), spaces)
    with pytest.raises(AccessError, match=message):
        check_axioms(Delegating(EntropyOracle(values)), spaces)


@pytest.mark.parametrize("scalables", [(False,), (True, False)], ids=["one", "mixed"])
def test_structural_route_without_scaled_composites(scalables):
    spaces = [space(lbl, ["a", "b"], s) for lbl, s in zip("GH", scalables)]
    oracle = EntropyOracle({lbl: {"a": 0, "b": 1} for lbl in "GH"})
    report = check_axioms(oracle, spaces)
    assert report == check_axioms(Delegating(oracle), spaces)
    assert [r.status for r in report.results[:3]] == [AxiomStatus.PASS] * 3
    for r in report.results[3:]:
        assert r.status is AxiomStatus.NOT_APPLICABLE and r.witness is None
        assert r.caveats == ("backend does not support scaled composites",)


def test_entropy_oracle_with_no_spaces_keeps_the_sampled_route():
    oracle = oracle_for("G", {"a": 0})
    for A in (oracle, Delegating(oracle)):
        with pytest.raises(AccessError, match="^cannot draw from an empty pool$"):
            check_axioms(A, [])


class Capped(EntropyOracle):
    """An entropy oracle whose order saturates at 3: not additive."""

    def le(self, x, y):
        return min(self.total(x), 3) <= min(self.total(y), 3)


def test_a_subclass_that_overrides_le_is_sampled_through_its_own_le(monkeypatch):
    capped = Capped({"G": {"a": 0, "b": 2, "c": 5}})
    b, c = pure("G", "b"), pure("G", "c")
    # composed queries are asked of le, so the checks read one order
    assert capped.le(c.compose(c), b.compose(c))
    sp = space("G", ["a", "b", "c"], scalable=True)
    for seed in range(3):
        config = AxiomConfig(seed=seed)
        assert check_axioms(capped, [sp], config) == check_axioms(
            Delegating(capped), [sp], config
        )

    class Plain(EntropyOracle):
        pass

    # the route is gated on the exact class, so even a bare subclass samples
    exhaustive_stability(monkeypatch)
    tie = Plain({"G": {"lo": 0, "mid": F(1, 128), "hi": 1}})
    report = check_axioms(tie, [space("G", ["lo", "mid", "hi"], True)])
    assert report["stability"].status is AxiomStatus.FAIL


@given(st.integers(9, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_transitivity_on_a_large_universe_is_decided_exhaustively(n, data):
    # past MAX_TRIPLES (n ≥ 9) the sampled triples can miss a violation; a
    # closed relation minus one edge usually has exactly one or a few
    names = [f"s{k}" for k in range(n)]
    ordered = [(a, b) for a in names for b in names if names.index(a) <= names.index(b)]
    dropped = data.draw(st.sampled_from(ordered))
    edges = [e for e in ordered if e != dropped]
    rel = edge_relation("G", names, edges, close=False)
    seed = data.draw(st.integers(0, 5))
    report = check_axioms(rel, [space("G", names)], AxiomConfig(seed=seed))
    held = set(edges)
    violations = [
        (a, b, c) for a, b, c in itertools.product(names, repeat=3)
        if (a, b) in held and (b, c) in held and (a, c) not in held
    ]
    result = report["transitivity"]
    if not violations:
        assert result.status is AxiomStatus.PASS
        return
    assert result.status is AxiomStatus.FAIL
    assert tuple(p.parts[0][2] for p in result.witness) in violations


@given(st.integers(1, 8), st.sampled_from(["open", "closed", "oracle"]), st.data())
@settings(max_examples=150, deadline=None)
def test_transitivity_witness_is_the_first_failing_triple_of_a_small_pool(n, backend, data):
    # at most 8³ = MAX_TRIPLES triples: none is drawn, and the whole-table
    # scan alone gives the witness of every backend
    names = [f"s{k}" for k in range(n)]
    pairs = list(itertools.product(names, repeat=2))
    held = {pq for pq in pairs if data.draw(st.booleans())}
    if backend == "oracle":
        A = MemoizedOracle(lambda x, y: (x.parts[0][2], y.parts[0][2]) in held)
        pool = [pure("G", a) for a in names]
    else:
        A = edge_relation("G", names, held, close=backend == "closed")
        pool = list(A.universe())
    result = check_axioms(A, [space("G", names)])["transitivity"]
    assert result.witness == first_intransitive_triple(pool, A.le)
    assert result.status is (AxiomStatus.PASS if result.witness is None else AxiomStatus.FAIL)


@pytest.mark.parametrize("seed", range(6))
def test_transitivity_scans_the_whole_pool_of_a_sampled_backend(seed):
    # i ≤ j except (0, 2) as a black box: 12³ triples are past MAX_TRIPLES,
    # and the sampled ones found the one violation only on seed 1
    def fn(x, y):
        i, j = (int(p.parts[0][2][1:]) for p in (x, y))
        return i <= j and (i, j) != (0, 2)

    names = [f"s{k}" for k in range(12)]
    report = check_axioms(MemoizedOracle(fn), [space("G", names)], AxiomConfig(seed=seed))
    result = report["transitivity"]
    assert result.status is AxiomStatus.FAIL
    assert result.witness == (pure("G", "s0"), pure("G", "s1"), pure("G", "s2"))


@pytest.mark.parametrize("scalable", [False, True])
def test_ch_and_construction_ask_each_pure_pair_once(scalable):
    exact = oracle_for("G", {"a": 0, "b": 1, "c": 1, "d": 3, "e": 2})
    log = []

    class Counting(Accessibility):
        supports_scaling = True

        def le(self, x, y):
            log.append((x, y))
            return exact.le(x, y)

    sp = space("G", ["a", "b", "c", "d", "e"], scalable=scalable)
    pures = [pure("G", n) for n in sp.names()]
    every_pair = Counter(itertools.product(pures, repeat=2))
    assert comparison_hypothesis(Counting(), sp).total
    assert Counter(log) == every_pair
    log.clear()
    S = construct_entropy(Counting(), sp)
    assert S.method == ("reference" if scalable else "rank")
    table, grid = log[: len(every_pair)], log[len(every_pair):]
    assert Counter(table) == every_pair
    # what follows is the reference grid: each (reference, state) at most once,
    # scanned from the top, so a state stops at its first reference below it
    assert bool(grid) == scalable
    assert all(y in pures for _, y in grid)
    assert len(set(grid)) == len(grid)
    assert len(grid) < len(pures) * 65  # 65 points on the default 1/64 grid


# -- comparison hypothesis -----------------------------------------------------------


def test_ch_on_chain_and_antichain():
    chain = edge_relation("G", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert comparison_hypothesis(chain, space("G", ["a", "b", "c"])).total
    anti = edge_relation("G", ["a", "b"], [])
    r = comparison_hypothesis(anti, space("G", ["a", "b"]))
    assert not r.total
    assert r.incomparable == ((pure("G", "a"), pure("G", "b")),)


def test_ch_total_for_entropy_oracle():
    sp = space("G", ["a", "b", "c", "d", "e"])
    oracle = oracle_for("G", {"a": 3, "b": 1, "c": 4, "d": 1, "e": 5})
    assert comparison_hypothesis(oracle, sp).total


def test_quotient_order_is_a_partial_order():
    # derived relations are antisymmetric once equivalent states collapse
    rng = random.Random(19)
    for _ in range(30):
        names = [f"s{i}" for i in range(rng.randint(2, 6))]
        edges = [
            (a, b)
            for a in names
            for b in names
            if a != b and rng.random() < 0.4
        ]
        rel = edge_relation("G", names, edges)
        classes: list[list] = []
        for n in names:
            x = pure("G", n)
            for cls in classes:
                if derived_relations(rel, x, cls[0]) is Relation.EQUIVALENT:
                    cls.append(x)
                    break
            else:
                classes.append([x])
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                if i == j:
                    continue
                both = rel.le(ci[0], cj[0]) and rel.le(cj[0], ci[0])
                assert not both  # distinct classes are never mutually accessible


# -- entropy construction -------------------------------------------------------------


def test_construct_entropy_rank_on_two_chain():
    rel = edge_relation("G", ["a", "b"], [("a", "b")])
    sp = space("G", ["a", "b"])
    S = construct_entropy(rel, sp)
    assert S.values == {"a": F(0), "b": F(1)}
    assert verify_entropy(S, rel, sp).ok
    # brute force: every monotone labelling with values in 0..2 orders a below b,
    # and the rank choice is among them
    valid = []
    for va, vb in itertools.product(range(3), repeat=2):
        if (va <= vb) == rel.le(pure("G", "a"), pure("G", "b")) and (
            vb <= va
        ) == rel.le(pure("G", "b"), pure("G", "a")):
            valid.append((va, vb))
    assert valid and all(va < vb for va, vb in valid)
    assert (0, 1) in valid


def test_construct_entropy_collapses_equivalent_cycle():
    rel = edge_relation("G", ["a", "b"], [("a", "b"), ("b", "a")])
    S = construct_entropy(rel, space("G", ["a", "b"]))
    assert S.values["a"] == S.values["b"]


def test_construct_entropy_matches_hidden_order():
    rng = random.Random(71)
    for _ in range(40):
        names = [f"s{i}" for i in range(rng.randint(2, 6))]
        hidden = {n: rng.randint(0, 7) for n in names}
        sp = StateSpace(
            "G", ("x",), {n: (F(i),) for i, n in enumerate(names)}, scalable=True
        )
        oracle = oracle_for("G", hidden)
        S = construct_entropy(oracle, sp)
        for x, y in itertools.combinations(names, 2):
            assert (S.values[x] <= S.values[y]) == (hidden[x] <= hidden[y])
            assert (S.values[y] <= S.values[x]) == (hidden[y] <= hidden[x])
        assert verify_entropy(S, oracle, sp).ok


def test_construct_entropy_requires_comparability():
    rel = edge_relation("G", ["a", "b"], [])
    with pytest.raises(ConstructionImpossible) as err:
        construct_entropy(rel, space("G", ["a", "b"]))
    assert err.value.witness == (pure("G", "a"), pure("G", "b"))


def test_construct_entropy_grid_on_relation_not_monotone_in_lambda():
    # the value is the largest grid λ whose reference lies below the state,
    # whatever the pattern below it; figures recorded from the full upward scan
    hidden = {"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}

    def fn(x, y):
        target = hidden[y.parts[0][2]]
        if len(x.parts) == 1:
            return hidden[x.parts[0][2]] <= target
        lam = next(l for l, _, n in x.parts if n == "e")  # ((1−λ)·a, λ·e)
        return (lam.numerator * 7 + target) % 5 == 0

    sp = StateSpace(
        "G", ("x",), {n: (F(i),) for i, n in enumerate(hidden)}, scalable=True
    )
    S = construct_entropy(MemoizedOracle(fn), sp)
    assert S.values == {
        "a": F(15, 16), "b": F(57, 64), "c": F(57, 64), "d": F(59, 64), "e": F(1)
    }
    S = construct_entropy(MemoizedOracle(fn), sp, AxiomConfig(grid_step=F(1, 8)))
    assert S.values == {"a": F(5, 8), "b": F(7, 8), "c": F(7, 8), "d": F(0), "e": F(1)}


def test_construct_entropy_degenerate_scaled_space():
    sp = space("G", ["a", "b"], scalable=True)
    oracle = oracle_for("G", {"a": 2, "b": 2})
    S = construct_entropy(oracle, sp)
    assert S.degenerate
    assert set(S.values.values()) == {F(0)}


GRID_STEPS = [F(1, 64), F(1, 8), F(3, 10), F(2, 3), F(1), F(5, 2), F(7, 64), F(1, 3)]


class Logging(Delegating):
    """Puts each query to another backend and records it, in order."""

    def __init__(self, oracle):
        super().__init__(oracle)
        self.asked = []

    def le(self, x, y):
        self.asked.append((x, y))
        return super().le(x, y)


def scrambled_grid(hidden):
    """Pure states ordered by hidden values; a reference's answer follows
    the digits of its scales, so the grid values below a state follow no
    pattern in λ."""

    def fn(x, y):
        target = hidden[y.parts[0][2]]
        if len(x.parts) == 1:
            return hidden[x.parts[0][2]] <= target
        digits = sum(
            (k + 1) * (lam.numerator + 2 * lam.denominator)
            for k, (lam, _, _) in enumerate(x.parts)
        )
        return (digits + target) % 3 == 0

    return MemoizedOracle(fn)


@pytest.mark.parametrize("step", GRID_STEPS)
def test_construct_entropy_matches_the_grid_built_by_repeated_addition(step):
    # the grid built point by point from two parts asks the very queries, in
    # the same order, of the grid once built with scale, compose and a sum
    rng = random.Random(f"grid:{step}")
    config = AxiomConfig(grid_step=step)
    cases = [(space("G", ["a", "b"], True), {"a": 3, "b": 0})]  # top name sorts first
    cases += [random_oracle_space(rng, i)[::2] for i in range(25)]
    for sp, hidden in cases:
        backends = (
            lambda: oracle_for(sp.label, hidden),
            lambda: MemoizedOracle(oracle_for(sp.label, hidden).le),
            lambda: scrambled_grid(hidden),
        )
        for make in backends:
            ours, theirs = Logging(make()), Logging(make())
            S = construct_entropy(ours, sp, config)
            assert S == reference_construct_entropy(theirs, sp, config)
            assert ours.asked == theirs.asked
        exact = reference_construct_entropy(oracle_for(sp.label, hidden), sp, config)
        assert construct_entropy(oracle_for(sp.label, hidden), sp, config) == exact


class Scanning(EntropyOracle):
    """The exact oracle under another class: construct_entropy reads the
    totals of the exact class alone, so this one scans the reference grid."""


@pytest.mark.parametrize(
    "step, trials",
    [(F(1, 64), 60), (F(3, 10), 60), (F(1, 7), 60), (F(2, 3), 60), (F(1), 60), (F(1, 10000), 12)],
)
def test_construct_entropy_from_the_totals_matches_the_scan(step, trials):
    # negative and non-integer values, scalable and unscalable spaces, and
    # every fourth space degenerate (all values equal)
    rng = random.Random(f"totals:{step}")
    config = AxiomConfig(grid_step=step)
    for trial in range(trials):
        names = [f"s{k}" for k in range(rng.randint(2, 9))]
        if trial % 4 == 0:
            values = dict.fromkeys(names, F(rng.randint(-9, 9), rng.randint(1, 5)))
        else:
            values = {n: F(rng.randint(-40, 40), rng.randint(1, 6)) for n in names}
        sp = space("G", names, scalable=trial % 3 != 0)
        S = construct_entropy(oracle_for("G", values), sp, config)
        scanned = construct_entropy(Scanning({"G": values}), sp, config)
        assert (S.values, S.method, S.degenerate, S.grid_step) == (
            scanned.values, scanned.method, scanned.degenerate, scanned.grid_step
        )


def test_construct_entropy_scans_for_a_subclass_and_names_an_unvalued_state():
    values = {"a": 0, "b": F(-1, 3), "c": F(5, 2), "d": 1}
    sp = space("G", list(values), scalable=True)

    class Counting(EntropyOracle):
        asked = 0

        def le(self, x, y):
            self.asked += 1
            return super().le(x, y)

    counting = Counting({"G": values})
    S = construct_entropy(counting, sp)
    assert counting.asked > len(values) ** 2  # a subclass that overrides le scans
    assert S == construct_entropy(oracle_for("G", values), sp)
    unvalued = {"a": 0, "b": 1, "d": 2}
    for A in (oracle_for("G", unvalued), Scanning({"G": unvalued})):
        with pytest.raises(AccessError, match=r"^no entropy value for G\.c$"):
            construct_entropy(A, sp)


def test_compose_scale_and_each_reference_build_one_composite(monkeypatch):
    # CompositeState.__init__ is the one constructor, so every composite is
    # checked, sorted and keyed the same way
    built = 0
    real_init = CompositeState.__init__

    def counting_init(self, parts):
        nonlocal built
        built += 1
        real_init(self, parts)

    a, b = pure("G", "a"), pure("G", "b")
    monkeypatch.setattr(CompositeState, "__init__", counting_init)
    assert b.scale(2).compose(a) == CompositeState(((1, "G", "a"), (2, "G", "b")))
    assert built == 3  # scale, compose and the expected value
    with pytest.raises(AccessError, match="^scales must be positive$"):
        a.scale(0)
    values = {"a": 0, "b": F(-1, 3), "c": F(5, 2)}
    sp = space("G", list(values), scalable=True)
    A = MemoizedOracle(oracle_for("G", values).le)
    table = access.answer_table(A, sp)
    for step, refs in [(F(1, 2), 1), (F(1, 4), 3), (F(3, 10), 3), (F(1, 64), 63)]:
        built = 0
        construct_entropy(A, sp, AxiomConfig(grid_step=step), table)
        assert built == len(values) + refs  # the pure states, then one per reference


one_space_parts = st.lists(
    st.tuples(positive_scales, st.just("G"), st.sampled_from("abc")),
    min_size=1, max_size=5,
)


@given(
    one_space_parts, one_space_parts, positive_scales,
    st.lists(st.fractions(-4, 4, max_denominator=9), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_entropy_fn_value_is_additive_and_extensive(xs, ys, lam, values):
    # why verify_entropy's additivity and extensivity need no draw
    S = EntropyFn("G", dict(zip("abc", values)))
    x, y = CompositeState(xs), CompositeState(ys)
    assert S.value(x.compose(y)) == S.value(x) + S.value(y)
    assert S.value(x.scale(lam)) == F(lam) * S.value(x)


# -- entropy verification --------------------------------------------------------------


def test_verify_entropy_passes_additivity_and_extensivity_without_a_draw():
    rel = edge_relation("G", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    sp = space("G", ["a", "b", "c"])
    S = EntropyFn("G", {"a": F(0), "b": F(1), "c": F(2)})
    reports = {verify_entropy(S, rel, sp, AxiomConfig(seed=seed)) for seed in range(4)}
    (report,) = reports
    assert report.ok
    for part in (report.additivity, report.extensivity):
        assert part.status is AxiomStatus.PASS and part.witness is None
    # a state S does not value, or a space it is not on, still raises
    with pytest.raises(KeyError):
        verify_entropy(EntropyFn("G", {"a": F(0), "b": F(1)}), rel, sp)
    with pytest.raises(AccessError, match="is not in space 'H'"):
        verify_entropy(EntropyFn("H", {"a": F(0)}), rel, sp)


def test_verify_entropy_flags_planted_swap():
    rel = edge_relation("G", ["a", "b", "c"], [("a", "b"), ("b", "c")])
    sp = space("G", ["a", "b", "c"])
    bad = EntropyFn("G", {"a": F(1), "b": F(0), "c": F(2)})
    report = verify_entropy(bad, rel, sp)
    assert report.monotonicity.status is AxiomStatus.FAIL
    assert report.monotonicity.witness is not None


def test_verify_entropy_flags_constant_on_strict_pair():
    rel = edge_relation("G", ["a", "b"], [("a", "b")])
    sp = space("G", ["a", "b"])
    const = EntropyFn("G", {"a": F(0), "b": F(0)})
    report = verify_entropy(const, rel, sp)
    assert report.monotonicity.status is AxiomStatus.FAIL
    x, y, reason = report.monotonicity.witness
    assert reason == "S ≤ without ≺"


# -- calibration -------------------------------------------------------------------------


def two_system_instance():
    names = ["g0", "g1", "g2", "g3"]
    sp1 = StateSpace("G1", ("x",), {n: (F(i),) for i, n in enumerate(names)})
    sp2 = StateSpace("G2", ("x",), {n: (F(i),) for i, n in enumerate(names)})
    s1 = EntropyFn("G1", {n: F(i) for i, n in enumerate(names)})
    s2 = EntropyFn("G2", {n: 2 * F(i) + 3 for i, n in enumerate(names)})
    nodes = [pure("G1", n) for n in names] + [pure("G2", n) for n in names]
    edges = []
    for n in names:
        edges.append((pure("G1", n), pure("G2", n)))
        edges.append((pure("G2", n), pure("G1", n)))
    for i in range(len(names) - 1):
        edges.append((pure("G1", names[i]), pure("G1", names[i + 1])))
        edges.append((pure("G2", names[i]), pure("G2", names[i + 1])))
    cross = EdgeRelation(nodes, edges).closure()
    return [(sp1, s1), (sp2, s2)], cross


def test_calibrate_recovers_affine_rescaling():
    systems, cross = two_system_instance()
    result = calibrate(systems, cross)
    assert result.ok
    assert result.coefficients[0] == (F(1), F(0))
    assert result.coefficients[1] == (F(1, 2), F(-3, 2))
    # glued entropies coincide on identified states and respect every cross pair
    for n in ("g0", "g1", "g2", "g3"):
        assert result.glued_value(systems, pure("G1", n)) == result.glued_value(
            systems, pure("G2", n)
        )
    margin = F(1, 10**6)
    for x, y in itertools.combinations(cross.universe(), 2):
        rel = derived_relations(cross, x, y)
        gx, gy = result.glued_value(systems, x), result.glued_value(systems, y)
        if rel is Relation.EQUIVALENT:
            assert gx == gy
        elif rel is Relation.STRICT:
            assert gy - gx >= margin  # strict pairs separated by the margin
        elif rel is Relation.ACCESSIBLE:
            assert gx - gy >= margin


def test_calibrate_single_system_is_normalized_identity():
    sp = StateSpace("G", ("x",), {"a": (F(0),), "b": (F(1),)})
    S = EntropyFn("G", {"a": F(0), "b": F(1)})
    cross = EdgeRelation([pure("G", "a"), pure("G", "b")], []).closure()
    result = calibrate([(sp, S)], cross)
    assert result.ok
    assert result.coefficients == ((F(1), F(0)),)


def test_calibrate_three_systems():
    # affine gluing across three gradings of the same physical states
    names = ["g0", "g1", "g2"]

    def grading(label, fn):
        sp = StateSpace(label, ("x",), {n: (F(i),) for i, n in enumerate(names)})
        return sp, EntropyFn(label, {n: fn(F(i)) for i, n in enumerate(names)})

    systems = [
        grading("G1", lambda v: v),
        grading("G2", lambda v: 2 * v + 3),
        grading("G3", lambda v: v / 2 - 1),
    ]
    nodes, edges = [], []
    for label in ("G1", "G2", "G3"):
        nodes += [pure(label, n) for n in names]
    for n in names:
        for a, b in [("G1", "G2"), ("G2", "G3"), ("G1", "G3")]:
            edges += [(pure(a, n), pure(b, n)), (pure(b, n), pure(a, n))]
    for i in range(len(names) - 1):
        for label in ("G1", "G2", "G3"):
            edges.append((pure(label, names[i]), pure(label, names[i + 1])))
    cross = EdgeRelation(nodes, edges).closure()
    result = calibrate(systems, cross)
    assert result.ok
    assert result.coefficients[1] == (F(1, 2), F(-3, 2))
    assert result.coefficients[2] == (F(2), F(2))
    for n in names:
        glued = {
            result.glued_value(systems, pure(lbl, n)) for lbl in ("G1", "G2", "G3")
        }
        assert len(glued) == 1


def test_calibrate_reports_contradiction_witness():
    systems, _ = two_system_instance()
    a1, a2 = pure("G1", "g0"), pure("G2", "g0")
    b1, b2 = pure("G1", "g1"), pure("G2", "g1")
    nodes = [a1, a2, b1, b2]
    edges = [
        (a1, a1), (a2, a2), (b1, b1), (b2, b2),
        (a1, a2), (a2, a1),  # identify the low states
        (b1, b2), (b2, b1),  # identify the high states
        (b1, a1),  # contradicts S1(g1) > S1(g0)
    ]
    cross = EdgeRelation(nodes, edges)
    result = calibrate(systems, cross)
    assert not result.ok
    assert result.witness
    assert any("≺≺" in w for w in result.witness)


# (seed, systems, states, planted clashes), then the verdict, the point and the
# witness that the elimination found before Chernikov's rule pruned its rows;
# calibrate_two.doc and calibrate_clash.doc are pinned by the golden batch files
CALIBRATION_PINS = [
    ((1, 2, 4, 0), True,
     ((F(1), F(0)), (F(34511307019, 8482500000), F(-2192624623, 145000000))), ()),
    ((2, 3, 3, 0), True,
     ((F(1), F(0)), (F(57183343, 22000000), F(-90249943, 88000000)),
      (F(5750001, 1375000), F(0))), ()),
    ((0, 3, 4, 0), True,
     ((F(1), F(0)), (F(124000053, 92000000), F(575500477, 92000000)),
      (F(10750001, 3500000), F(0))), ()),
    ((3, 2, 5, 1), False, (), ("G1.q1 ≺≺ G1.q2", "G1.q2 ∼ G1.q3")),
    ((1, 3, 4, 2), False, (), ("G0.q0 ∼ G0.q3",)),
    ((4, 3, 3, 1), False, (), ("G1.q1 ∼ G1.q2", "a[G1] > 0")),
    ((5, 3, 4, 3), False, (), ("G0.q1 ∼ G0.q2",)),
]


@pytest.mark.parametrize("case, ok, coefficients, witness", CALIBRATION_PINS)
def test_calibrate_keeps_its_points_and_witnesses(case, ok, coefficients, witness):
    result = calibrate(*calibration_case(*case))
    assert (result.ok, result.coefficients, result.witness) == (ok, coefficients, witness)


def _calibrate_in_fresh_process(case, timeout):
    tests = Path(__file__).resolve().parent
    src = Path(entropykit.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(tests), env.get("PYTHONPATH")]))
    script = (
        "from _oracles import calibration_case\n"
        "from entropykit.access import calibrate\n"
        f"result = calibrate(*calibration_case{case!r})\n"
        "print(result.ok, result.coefficients, result.witness)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_calibrate_three_systems_of_six_states_in_bounded_time():
    # every positive row met every negative one at each stage: this took
    # about a minute before the elimination dropped redundant rows
    assert _calibrate_in_fresh_process((0, 3, 6), 20).startswith("True ")


# four systems of five states: the elimination's stages hold thousands of rows
CALIBRATION_LARGE_PINS = [
    ((0, 4, 5), (
        (F(1), F(0)),
        (F(143950593, 322000000), F(-1164091459, 257600000)),
        (F(100731214681, 8568000000), F(41813031577, 1428000000)),
        (F(143949977, 35000000), F(41174993, 2500000)),
    )),
    ((2, 4, 5), (
        (F(1), F(0)),
        (F(10750001, 2250000), F(0)),
        (F(511587543461, 513273600000), F(-87231626523, 30016000000)),
        (F(7441754231, 16884000000), F(-13190523, 14000000)),
    )),
]


@pytest.mark.parametrize("case, coefficients", CALIBRATION_LARGE_PINS)
def test_calibrate_four_systems_of_five_states_in_bounded_time(case, coefficients):
    assert _calibrate_in_fresh_process(case, 30) == f"True {coefficients!r} ()\n"


def _calibration_outcome(result):
    return result.ok, result.coefficients, result.witness


@pytest.mark.parametrize("systems", [1, 2, 3])
def test_calibrate_matches_the_fraction_elimination(systems):
    for states, clashes, seed in itertools.product(range(2, 7), range(3), range(10)):
        case = calibration_case(seed, systems, states, clashes)
        assert _calibration_outcome(calibrate(*case)) == _calibration_outcome(
            reference_calibrate(*case)
        ), (seed, systems, states, clashes)


@pytest.mark.parametrize("name", ["calibrate_two.doc", "calibrate_clash.doc"])
def test_calibrate_matches_the_fraction_elimination_on_the_corpus(name):
    doc = load_document(str(CORPUS / name))
    systems = [(doc.spaces[label], S) for label, S in doc.entropies.values()]
    assert _calibration_outcome(calibrate(systems, doc.cross)) == _calibration_outcome(
        reference_calibrate(systems, doc.cross)
    )


def test_entropy_oracle_from_expression():
    chart = Chart(("u", "v"))
    sp = StateSpace(
        "G",
        ("u", "v"),
        {"a": (F(1), F(2)), "b": (F(3), F(1))},
    )
    oracle = EntropyOracle.from_expression([sp], parse("u + 2*v", chart))
    assert oracle.values["G"] == {"a": F(5), "b": F(5)}
    assert derived_relations(oracle, pure("G", "a"), pure("G", "b")) is Relation.EQUIVALENT
