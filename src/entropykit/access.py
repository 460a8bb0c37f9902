"""Axiomatic entropy on finite state spaces: adiabatic-accessibility
pre-orders, axiom verification, the Comparison Hypothesis, entropy
construction, and cross-system affine calibration.

States are composed as scaled multisets (λ₁X₁, λ₂X₂, …) with positive
rational scales, so every comparison stays exact.  A composite hashes and
compares by an integer key built once with it, its parts as (label, name,
numerator, denominator), so memo and set lookups never do Fraction
arithmetic; ``EntropyOracle`` keeps each total as an unreduced integer pair
and compares two totals by cross-multiplication.  An entropy oracle's order
satisfies every accessibility axiom by construction, so ``check_axioms``
decides it without a query; other backends are sampled.  Relations come in
two backends: explicit edge lists (closed on demand) and decision-procedure
oracles, of which the entropy-backed oracle is the workhorse for synthetic
test systems.

One depth-first closure, ``reachable_sets``, gives each node its up-set; it
serves ``EdgeRelation.closure`` (through ``reachable_pairs``) and
``galois.Poset``.  The CH, entropy construction and ``check_axioms`` read
answer tables ``le[i][j] = A.le(xs[i], xs[j])``: each ordered pair asked once.

Every seeded sample is drawn by one helper, ``_draw``, which makes the same
``getrandbits`` calls as ``random.choice``: the composite pool, the sampled
triples, consistency pairs and stability quadruples of ``check_axioms``.  So
the draws, the witnesses and the rng state afterwards are those of
``choice``, without one Python-level ``choice`` call per element.
``construct_entropy`` and ``verify_entropy`` draw nothing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .expr import Expr, ExprError


class AccessError(Exception):
    pass


class OracleMismatchError(AccessError):
    """A memoized oracle answered the same query differently."""


class ConstructionImpossible(AccessError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class StateSpace:
    label: str
    coords: tuple[str, ...]
    states: Mapping[str, tuple[Fraction, ...]]
    scalable: bool = False

    def __post_init__(self):
        if not self.states:
            raise AccessError(f"state space {self.label!r} has no states")
        clean = {}
        for name, vec in self.states.items():
            vec = tuple(Fraction(v) for v in vec)
            if len(vec) != len(self.coords):
                raise AccessError(f"state {name!r} has the wrong dimension")
            clean[name] = vec
        object.__setattr__(self, "states", clean)
        object.__setattr__(self, "coords", tuple(self.coords))

    def names(self) -> tuple[str, ...]:
        return tuple(self.states)


_PART_ORDER = itemgetter(1, 2, 0)  # (space label, state name, scale)


class CompositeState:
    """Multiset of (scale, space label, state name) with positive scales.

    ``parts`` lists the parts sorted by (label, name, scale).  Each composite
    also keeps, from when it is built, an integer key: the same parts as
    (label, name, numerator, denominator).  Hash and equality read that key,
    so memo and set lookups compare strings and ints and never Fractions.
    Immutable by convention.
    """

    __slots__ = ("parts", "_key", "_hash")

    def __init__(self, parts):
        clean = []
        for lam, lbl, name in parts:
            if type(lam) is not Fraction:
                lam = Fraction(lam)
            if lam.numerator <= 0:  # the denominator is always positive
                raise AccessError("scales must be positive")
            clean.append((lam, lbl, name))
        if not clean:
            raise AccessError("a composite state needs at least one part")
        clean.sort(key=_PART_ORDER)
        self._set(tuple(clean))

    def _set(self, parts: tuple) -> None:
        self.parts = parts
        self._key = key = tuple(
            (lbl, name, lam.numerator, lam.denominator) for lam, lbl, name in parts
        )
        self._hash = hash(key)

    @classmethod
    def _of_sorted(cls, parts: tuple) -> "CompositeState":
        """A composite from parts already checked and in canonical order."""
        out = object.__new__(cls)
        out._set(parts)
        return out

    def __eq__(self, other):
        if not isinstance(other, CompositeState):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    @classmethod
    def pure(cls, space: str, name: str, scale=1) -> "CompositeState":
        return cls(((Fraction(scale), space, name),))

    def compose(self, other: "CompositeState") -> "CompositeState":
        return CompositeState._of_sorted(
            tuple(sorted(self.parts + other.parts, key=_PART_ORDER))
        )

    def scale(self, lam) -> "CompositeState":
        if type(lam) is not Fraction:
            lam = Fraction(lam)
        if lam.numerator <= 0:
            raise AccessError("scales must be positive")
        # a positive factor keeps the parts in order
        return CompositeState._of_sorted(
            tuple((lam * l, s, n) for l, s, n in self.parts)
        )

    def __str__(self):
        body = ", ".join(
            (f"{s}.{n}" if l == 1 else f"{l}·{s}.{n}") for l, s, n in self.parts
        )
        return f"({body})" if len(self.parts) > 1 else body

    __repr__ = __str__


def reachable_sets(nodes, edges) -> dict:
    """Reflexive-transitive closure as up-sets: each node maps to the set of
    nodes reachable from it by edges, itself included (depth-first from
    every node; edge endpoints must be nodes)."""
    succ = {n: set() for n in nodes}
    for a, b in edges:
        succ[a].add(b)
    up = {}
    for start in nodes:
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        up[start] = seen
    return up


def reachable_pairs(nodes, edges) -> set:
    """Every (a, b) with b reachable from a: ``reachable_sets`` as pairs."""
    return {
        (start, reach)
        for start, seen in reachable_sets(nodes, edges).items()
        for reach in seen
    }


# ---------------------------------------------------------------------------
# Accessibility backends
# ---------------------------------------------------------------------------


class Accessibility:
    """Base interface: the pre-order query X ≺ Y."""

    supports_scaling: bool = False

    def le(self, x: CompositeState, y: CompositeState) -> bool:
        raise NotImplementedError

    def universe(self) -> Optional[tuple[CompositeState, ...]]:
        """Explicitly known nodes, or None for intensionally defined relations."""
        return None


class EdgeRelation(Accessibility):
    """Relation given by explicit directed edges on known nodes."""

    def __init__(
        self,
        nodes: Iterable[CompositeState],
        edges: Iterable[tuple[CompositeState, CompositeState]],
        supports_scaling: bool = False,
    ):
        self.nodes = tuple(dict.fromkeys(nodes))
        self._node_set = set(self.nodes)
        self.supports_scaling = supports_scaling
        self.edges = set()
        for a, b in edges:
            if a not in self._node_set or b not in self._node_set:
                raise AccessError("edge endpoint outside the declared nodes")
            self.edges.add((a, b))

    def le(self, x, y) -> bool:
        if x not in self._node_set or y not in self._node_set:
            raise AccessError(f"state outside the relation's universe: {x} or {y}")
        return (x, y) in self.edges

    def universe(self):
        return self.nodes

    def closure(self) -> "EdgeRelation":
        """Reflexive-transitive closure of the edges."""
        closed = reachable_pairs(self.nodes, self.edges)
        return EdgeRelation(self.nodes, closed, self.supports_scaling)


class MemoizedOracle(Accessibility):
    """Wrap a decision procedure; answers are cached and, when recheck is
    set, re-queried to detect nondeterminism."""

    supports_scaling = True

    def __init__(self, fn: Callable[[CompositeState, CompositeState], bool],
                 recheck: bool = False):
        self.fn = fn
        self.recheck = recheck
        self.memo: dict = {}

    def le(self, x, y) -> bool:
        key = (x, y)
        if key in self.memo:
            if self.recheck and self.fn(x, y) != self.memo[key]:
                raise OracleMismatchError(f"oracle changed its answer on {x} ≺ {y}")
            return self.memo[key]
        answer = bool(self.fn(x, y))
        self.memo[key] = answer
        return answer


class EntropyOracle(Accessibility):
    """X ≺ Y iff the additive, extensive total of a hidden per-state entropy
    does not decrease."""

    supports_scaling = True

    def __init__(self, values: Mapping[str, Mapping[str, Fraction]]):
        self.values = {
            lbl: {n: Fraction(v) for n, v in per.items()} for lbl, per in values.items()
        }
        self._totals: dict[tuple, tuple[int, int]] = {}

    @classmethod
    def from_expression(cls, spaces: Sequence[StateSpace], entropy: Expr) -> "EntropyOracle":
        values = {}
        for space in spaces:
            chart = entropy.chart
            if set(chart.coords) != set(space.coords):
                raise AccessError("entropy expression does not match state coordinates")
            per = values[space.label] = {}
            for name, vec in space.states.items():
                try:
                    per[name] = entropy.evaluate(dict(zip(space.coords, vec)))
                except ExprError as err:
                    raise AccessError(
                        f"entropy expression fails at state {space.label}.{name}: {err}"
                    ) from err
        return cls(values)

    def _sum(self, x: CompositeState) -> tuple[int, int]:
        """x's total as an unreduced (numerator, denominator), denominator > 0,
        cached under x's key."""
        cached = self._totals.get(x._key)
        if cached is not None:
            return cached
        num, den = 0, 1
        for lbl, name, lam_num, lam_den in x._key:
            try:
                value = self.values[lbl][name]
            except KeyError:
                raise AccessError(f"no entropy value for {lbl}.{name}") from None
            d = lam_den * value.denominator
            num = num * d + lam_num * value.numerator * den
            den *= d
        out = self._totals[x._key] = (num, den)
        return out

    def total(self, x: CompositeState) -> Fraction:
        return Fraction(*self._sum(x))

    def le(self, x, y) -> bool:
        # a/b <= c/d iff a·d <= c·b, as both denominators are positive
        totals = self._totals
        xn, xd = totals.get(x._key) or self._sum(x)
        yn, yd = totals.get(y._key) or self._sum(y)
        return xn * yd <= yn * xd


# ---------------------------------------------------------------------------
# Derived relations and the Comparison Hypothesis
# ---------------------------------------------------------------------------


class Relation(Enum):
    STRICT = "STRICT"  # X ≺≺ Y
    EQUIVALENT = "EQUIVALENT"  # X ∼ Y
    ACCESSIBLE = "ACCESSIBLE"  # comparable in the reverse direction only (Y ≺≺ X)
    INCOMPARABLE = "INCOMPARABLE"


def derived_relations(A: Accessibility, x: CompositeState, y: CompositeState) -> Relation:
    forward = A.le(x, y)
    back = A.le(y, x)
    if forward and back:
        return Relation.EQUIVALENT
    if forward:
        return Relation.STRICT
    if back:
        return Relation.ACCESSIBLE
    return Relation.INCOMPARABLE


@dataclass(frozen=True)
class CHResult:
    total: bool
    incomparable: tuple[tuple[CompositeState, CompositeState], ...]


def _pures(space: StateSpace) -> list[CompositeState]:
    return [CompositeState.pure(space.label, n) for n in space.names()]


def answer_table(A: Accessibility, space: StateSpace) -> list[list[bool]]:
    """le[i][j] = A.le(X_i, X_j) over the space's pure states in name order,
    each ordered pair asked once; construct_entropy and verify_entropy read
    it when given, instead of asking again."""
    pures = _pures(space)
    return [[A.le(x, y) for y in pures] for x in pures]


def _pure_order(A: Accessibility, space: StateSpace, le=None):
    """The space's pure states, their answer table le[i][j] and the CH result."""
    pures = _pures(space)
    if le is None:
        le = answer_table(A, space)
    bad = tuple(
        (pures[i], pures[j])
        for i, j in itertools.combinations(range(len(pures)), 2)
        if not (le[i][j] or le[j][i])
    )
    return pures, le, CHResult(not bad, bad)


def comparison_hypothesis(A: Accessibility, space: StateSpace) -> CHResult:
    """Are all pairs of (pure) states of the space comparable?"""
    return _pure_order(A, space)[2]


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------


class AxiomStatus(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class AxiomResult:
    name: str
    status: AxiomStatus
    witness: Optional[tuple] = None
    caveats: tuple[str, ...] = ()


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    def __getitem__(self, name: str) -> AxiomResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(r.status is not AxiomStatus.FAIL for r in self.results)


# past these counts, transitivity, consistency and stability check a seeded sample
MAX_TRIPLES = 600
MAX_CONSISTENCY_PAIRS = 400
MAX_STABILITY_QUADRUPLES = 80
COMPOSITE_SAMPLES = 24  # drawn composites in a scalable pool with no known universe
# the finest reference grid: grid_step below 1/MAX_GRID_POINTS is refused
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class AxiomConfig:
    lambda_grid: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(2), Fraction(3))
    eps_steps: int = 6
    seed: int = 0
    grid_step: Fraction = Fraction(1, 64)

    def __post_init__(self):
        if not self.lambda_grid or any(lam <= 0 for lam in self.lambda_grid):
            listed = " ".join(str(lam) for lam in self.lambda_grid) or "nothing"
            raise AccessError(f"lambda_grid needs positive scales, got {listed}")
        if self.eps_steps < 1:
            raise AccessError(f"eps_steps must be at least 1, got {self.eps_steps}")
        if self.grid_step <= 0:
            raise AccessError(f"grid_step must be positive, got {self.grid_step}")
        if self.grid_step * MAX_GRID_POINTS < 1:  # more than that many points below 1
            raise AccessError(
                f"grid_step must be at least 1/{MAX_GRID_POINTS}, got {self.grid_step}"
            )


DEFAULT_AXIOM_CONFIG = AxiomConfig()
DEFAULT_MARGIN = Fraction(1, 10**6)  # calibrate's margin on strict inequalities

AXIOM_NAMES = (
    "reflexivity",
    "transitivity",
    "consistency",
    "scaling-invariance",
    "splitting-recombination",
    "stability",
)
_STABILITY_CAVEATS = ("LIMIT_APPROXIMATED",)
_UNSCALED = tuple(  # scaling, splitting and stability without scaled composites
    AxiomResult(
        name, AxiomStatus.NOT_APPLICABLE,
        caveats=("backend does not support scaled composites",),
    )
    for name in AXIOM_NAMES[3:]
)
_BY_CONSTRUCTION = tuple(  # an entropy oracle's report: every axiom holds
    AxiomResult(
        name, AxiomStatus.PASS,
        caveats=_STABILITY_CAVEATS if name == "stability" else (),
    )
    for name in AXIOM_NAMES
)


def _intransitive_triple(le) -> Optional[tuple[int, int, int]]:
    """The first (i, j, k) in index order with le[i][j] and le[j][k] but not
    le[i][k], or None: with each row's up-set as an int bitmask, the table
    is transitive iff every j in i's up-set has its up-set inside i's."""
    up = [sum(1 << j for j, yes in enumerate(row) if yes) for row in le]
    for i, mine in enumerate(up):
        rest = mine
        while rest:
            j = (rest & -rest).bit_length() - 1  # the lowest index left
            outside = up[j] & ~mine
            if outside:
                return i, j, (outside & -outside).bit_length() - 1
            rest &= rest - 1
    return None


def _pure_pool(spaces: Sequence[StateSpace]) -> list[CompositeState]:
    return [
        CompositeState.pure(sp.label, n) for sp in spaces for n in sp.names()
    ]


def _draw(pools, count: int, rng: random.Random) -> list[tuple]:
    """count tuples of one element from each pool, drawn as
    ``tuple(map(rng.choice, pools))`` would draw them: for a pool of n
    elements, getrandbits(n.bit_length()) until the result is below n.  So
    every draw and the rng state afterwards are those of ``rng.choice``."""
    plan = []
    for pool in pools:
        n = len(pool)
        if not n:  # getrandbits(0) is always 0, so the redraw would never end
            raise AccessError("cannot draw from an empty pool")
        plan.append((pool, n, n.bit_length()))
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        row = []
        for pool, n, k in plan:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            row.append(pool[r])
        out.append(tuple(row))
    return out


def _composite_pool(pures, config: AxiomConfig, rng: random.Random) -> list[CompositeState]:
    grid = config.lambda_grid
    return [
        a.scale(la).compose(b.scale(lb))
        for a, b, la, lb in _draw((pures, pures, grid, grid), COMPOSITE_SAMPLES, rng)
    ]


def _bounded_product(pools, cap: int, rng: random.Random) -> list[tuple]:
    """Full cartesian product when small, otherwise cap random samples."""
    count = 1
    for p in pools:
        count *= len(p)
        if count > cap:
            return _draw(pools, cap, rng)
    return list(itertools.product(*pools))


def check_axioms(
    A: Accessibility,
    spaces: Sequence[StateSpace],
    config: AxiomConfig = DEFAULT_AXIOM_CONFIG,
) -> AxiomReport:
    """Verify the accessibility axioms on a finite test pool.

    An ``EntropyOracle`` (the exact class; a subclass may override ``le``)
    orders states by an additive, extensive total, so every axiom holds by
    construction and the report is decided without a query or a draw:
    reflexivity and transitivity from the total order on rationals,
    consistency, scaling and splitting from additivity and homogeneity, and
    stability because S(X) + εS(Z) ≤ S(Y) + εS(Z′) for every ε → 0⁺ forces
    S(X) ≤ S(Y).  Only the pure states' values are read, so an unvalued
    state still raises.

    Other backends are sampled.  Every ordered pair of the test pool is put
    to ``A.le`` exactly once, up front; reflexivity, transitivity,
    consistency, scaling and stability read their pool premises from that
    table.  On a pool too large for every triple, transitivity scans the
    whole table once the sampled triples pass, so its verdict holds for
    every triple of the pool.  Consistency's conclusions and stability's
    ε-sides put two composed states to ``A.le``; the ε-sides are queried
    lazily, and only for pairs with X ⊀ Y, stopping at the first side that
    fails.

    Scaling, splitting and stability only make sense for backends that
    support scaled composites; on plain edge relations they come back
    NOT_APPLICABLE.  Stability quantifies a limit ε → 0⁺, which a finite
    run can only approximate; its verdict always carries the
    LIMIT_APPROXIMATED caveat.
    """
    scaled = A.supports_scaling and all(sp.scalable for sp in spaces)
    if type(A) is EntropyOracle and spaces:
        for x in _pure_pool(spaces):
            A._sum(x)  # raises for the first state with no value
        return AxiomReport(_BY_CONSTRUCTION if scaled else _BY_CONSTRUCTION[:3] + _UNSCALED)
    rng = random.Random(config.seed)
    universe = A.universe()
    if universe is not None:
        pool = list(universe)
        pure_idx = [
            i for i, p in enumerate(pool) if len(p.parts) == 1 and p.parts[0][0] == 1
        ]
        pures = [pool[i] for i in pure_idx]
    else:
        pures = _pure_pool(spaces)
        pure_idx = range(len(pures))
        pool = pures + (_composite_pool(pures, config, rng) if scaled else [])
    idx = range(len(pool))
    le = [[A.le(x, y) for y in pool] for x in pool]  # le[i][j]: pool[i] ≺ pool[j]
    results = []

    # reflexivity
    witness = next((pool[i] for i in idx if not le[i][i]), None)
    results.append(
        AxiomResult(
            "reflexivity",
            AxiomStatus.FAIL if witness is not None else AxiomStatus.PASS,
            (witness,) if witness is not None else None,
        )
    )

    # transitivity
    triples = _bounded_product((idx, idx, idx), MAX_TRIPLES, rng)
    witness = next(
        (
            (pool[i], pool[j], pool[k])
            for i, j, k in triples
            if le[i][j] and le[j][k] and not le[i][k]
        ),
        None,
    )
    if witness is None and len(triples) < len(pool) ** 3:
        found = _intransitive_triple(le)
        if found is not None:
            witness = tuple(pool[i] for i in found)
    results.append(
        AxiomResult(
            "transitivity",
            AxiomStatus.FAIL if witness else AxiomStatus.PASS,
            witness,
        )
    )

    # consistency: X ≺ X' and Y ≺ Y' ⇒ (X,Y) ≺ (X',Y')
    known = set(universe) if universe is not None else None
    accessible = [(i, j) for i in idx for j in idx if le[i][j]]
    testable = _bounded_product(
        (accessible, accessible), MAX_CONSISTENCY_PAIRS, rng
    )
    if known is not None:
        joined: dict = {}  # (i, k) -> pool[i] composed with pool[k], built once

        def join(i, k):
            out = joined.get((i, k))
            if out is None:
                out = joined[i, k] = pool[i].compose(pool[k])
            return out

        testable = [
            (p, q)
            for p, q in testable
            if join(p[0], q[0]) in known and join(p[1], q[1]) in known
        ]
    if not testable:
        results.append(
            AxiomResult(
                "consistency", AxiomStatus.NOT_APPLICABLE,
                caveats=("no composable instances in the relation's universe",),
            )
        )
    else:
        witness = None
        for (i, ip), (k, kp) in testable:
            if not A.le(pool[i].compose(pool[k]), pool[ip].compose(pool[kp])):
                witness = (pool[i], pool[ip], pool[k], pool[kp])
                break
        results.append(
            AxiomResult(
                "consistency",
                AxiomStatus.FAIL if witness else AxiomStatus.PASS,
                witness,
            )
        )

    if not scaled:
        return AxiomReport(tuple(results) + _UNSCALED)

    def testable(*composites) -> bool:
        return known is None or all(c in known for c in composites)

    # scaling invariance: λ > 0 and X ≺ Y ⇒ λX ≺ λY
    witness = None
    tested = 0
    for lam in config.lambda_grid:
        grown = {i: pool[i].scale(lam) for i in pure_idx}
        for i, j in itertools.product(pure_idx, repeat=2):
            if known is not None and not testable(grown[i], grown[j]):
                continue
            tested += 1
            if le[i][j] and not A.le(grown[i], grown[j]):
                witness = (lam, pool[i], pool[j])
                break
        if witness:
            break
    results.append(
        AxiomResult(
            "scaling-invariance",
            AxiomStatus.FAIL
            if witness
            else (AxiomStatus.PASS if tested else AxiomStatus.NOT_APPLICABLE),
            witness,
        )
    )

    # splitting recombination: X ∼ (λX, (1−λ)X) for λ in (0,1)
    fractions_01 = [l for l in config.lambda_grid if 0 < l < 1] or [Fraction(1, 2)]
    witness = None
    tested = 0
    for lam in fractions_01:
        for x in pures:
            split = x.scale(lam).compose(x.scale(1 - lam))
            if not testable(split):
                continue
            tested += 1
            if not (A.le(x, split) and A.le(split, x)):
                witness = (lam, x)
                break
        if witness:
            break
    results.append(
        AxiomResult(
            "splitting-recombination",
            AxiomStatus.FAIL
            if witness
            else (AxiomStatus.PASS if tested else AxiomStatus.NOT_APPLICABLE),
            witness,
        )
    )

    # stability: (X, εZ) ≺ (Y, εZ') for all scheduled ε ⇒ X ≺ Y
    schedule = [Fraction(1, 2**k) for k in range(1, config.eps_steps + 1)]
    quads = _bounded_product(
        (idx, idx, pures, pures), MAX_STABILITY_QUADRUPLES, rng
    )
    shrunk: dict = {}  # pure Z -> [εZ for ε in schedule], built once per call

    def small(z):
        out = shrunk.get(z)
        if out is None:
            out = shrunk[z] = [z.scale(eps) for eps in schedule]
        return out

    witness = None
    tested = 0
    for i, j, z, zp in quads:
        x, y = pool[i], pool[j]
        eps_pairs = list(zip(small(z), small(zp)))
        if known is not None and not all(
            testable(x.compose(ez), y.compose(ezp)) for ez, ezp in eps_pairs
        ):
            continue
        tested += 1
        if not le[i][j] and all(
            A.le(x.compose(ez), y.compose(ezp)) for ez, ezp in eps_pairs
        ):
            witness = (x, y, z, zp)
            break
    results.append(
        AxiomResult(
            "stability",
            AxiomStatus.FAIL
            if witness
            else (AxiomStatus.PASS if tested else AxiomStatus.NOT_APPLICABLE),
            witness,
            caveats=_STABILITY_CAVEATS,
        )
    )
    return AxiomReport(tuple(results))


# ---------------------------------------------------------------------------
# Entropy construction and verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyFn:
    """Per-state entropy values, extended to composites additively and
    extensively."""

    space: str
    values: Mapping[str, Fraction]
    method: str = "rank"
    degenerate: bool = False
    grid_step: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(
            self, "values", {n: Fraction(v) for n, v in self.values.items()}
        )

    def value(self, x) -> Fraction:
        if isinstance(x, str):
            return self.values[x]
        out = Fraction(0)
        for lam, lbl, name in x.parts:
            if lbl != self.space:
                raise AccessError(f"state {name!r} is not in space {self.space!r}")
            out += lam * self.values[name]
        return out


def construct_entropy(
    A: Accessibility,
    space: StateSpace,
    config: AxiomConfig = DEFAULT_AXIOM_CONFIG,
    le: Optional[list[list[bool]]] = None,
) -> EntropyFn:
    """Build an entropy representing the accessibility order on one space.

    Requires the comparison hypothesis; plain backends get the class-rank
    entropy, scalable ones the two-reference construction: S(X) is the
    largest grid λ with ((1−λ)X₀, λX₁) ≺ X for a fixed strict pair X₀ ≺≺ X₁.
    The grid is λ = k·step for k < ⌈1/step⌉, then λ = 1; each reference is
    built once, straight from its two parts, and the grid is scanned from
    the top, stopping at the first reference ≺ X.  le is the space's
    answer_table, asked here when not given.
    """
    pures, le, ch = _pure_order(A, space, le)
    if not ch.total:
        raise ConstructionImpossible(
            f"comparison hypothesis fails on {space.label!r}", ch.incomparable[0]
        )
    for i, x in enumerate(pures):
        if not le[i][i]:
            raise ConstructionImpossible("relation is not reflexive", (x,))
    groups: dict[int, list[int]] = {}  # equivalence classes by first member
    for i in range(len(pures)):
        first = next((c for c in groups if le[i][c] and le[c][i]), i)
        groups.setdefault(first, []).append(i)
    # rank each class by how many classes lie below it
    ranked = sorted(groups, key=lambda r: sum(le[c][r] for c in groups))
    names = space.names()
    rank_of = {names[i]: Fraction(k) for k, r in enumerate(ranked) for i in groups[r]}

    scaled = A.supports_scaling and space.scalable
    if not scaled:
        return EntropyFn(space.label, rank_of, method="rank")
    if len(ranked) == 1:
        return EntropyFn(
            space.label,
            {n: Fraction(0) for n in names},
            method="reference",
            degenerate=True,
            grid_step=config.grid_step,
        )
    lo = pures[ranked[0]]
    hi = pures[ranked[-1]]
    label, lo_name, hi_name = space.label, names[ranked[0]], names[ranked[-1]]
    swapped = hi_name < lo_name  # parts sort by name, as both share the label

    def reference(lam: Fraction) -> CompositeState:
        """((1−λ)X₀, λX₁) for 0 < λ < 1, built straight from its two parts."""
        low, high = (1 - lam, label, lo_name), (lam, label, hi_name)
        return CompositeState._of_sorted((high, low) if swapped else (low, high))

    step = Fraction(config.grid_step)
    inner = [k * step for k in range(1, math.ceil(1 / step))]  # 0 < k·step < 1
    references = [(Fraction(1), hi)]
    references += [(lam, reference(lam)) for lam in reversed(inner)]
    references.append((Fraction(0), lo))
    values = {
        name: next((lam for lam, ref in references if A.le(ref, x)), Fraction(0))
        for name, x in zip(names, pures)
    }
    return EntropyFn(
        space.label, values, method="reference", grid_step=config.grid_step
    )


_ADDITIVE = AxiomResult("additivity", AxiomStatus.PASS)  # by EntropyFn.value
_EXTENSIVE = AxiomResult("extensivity", AxiomStatus.PASS)


@dataclass(frozen=True)
class VerifyReport:
    monotonicity: AxiomResult
    additivity: AxiomResult
    extensivity: AxiomResult

    @property
    def ok(self) -> bool:
        return all(
            r.status is AxiomStatus.PASS
            for r in (self.monotonicity, self.additivity, self.extensivity)
        )


def verify_entropy(
    S: EntropyFn,
    A: Accessibility,
    space: StateSpace,
    config: AxiomConfig = DEFAULT_AXIOM_CONFIG,
    le: Optional[list[list[bool]]] = None,
) -> VerifyReport:
    """Check X ≺ Y ⇔ S(X) ≤ S(Y) exhaustively over the space's states.

    The iff is checked on the state space itself: grid-built entropies
    represent that order exactly, while their additive extension to
    composites is only grid-accurate by construction.  Given the space's
    answer_table le, it reads the order there instead of asking A.

    Additivity and extensivity PASS with no witness and no draw:
    ``EntropyFn.value`` is defined as Σ λ·S(part) over a composite's parts
    in exact Fractions, so S((X, Y)) = S(X) + S(Y) and S(λX) = λS(X) always
    hold.  Reading each pure state's value still raises for a state S does
    not value or a space S is not on.  No check reads config; it stays in
    the signature for callers that pass le after it.
    """
    pures = _pures(space)
    values = [S.value(x) for x in pures]
    witness = None
    for i, x in enumerate(pures):
        for j, y in enumerate(pures):
            xy = A.le(x, y) if le is None else le[i][j]
            if xy != (values[i] <= values[j]):
                witness = (x, y, "≺ but S decreases" if xy else "S ≤ without ≺")
                break
        if witness:
            break
    mono = AxiomResult(
        "monotonicity",
        AxiomStatus.FAIL if witness else AxiomStatus.PASS,
        witness,
    )
    return VerifyReport(mono, _ADDITIVE, _EXTENSIVE)


# ---------------------------------------------------------------------------
# Affine calibration across systems (exact rational feasibility)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Σ coeffs·vars + const ≤ 0, remembering its origin."""

    coeffs: tuple[Fraction, ...]
    const: Fraction
    provenance: frozenset[int]


class _Infeasible(Exception):
    def __init__(self, provenance):
        self.provenance = provenance


def _tighten(constraints) -> list[Constraint]:
    """Normalize rows and keep only the tightest constraint per halfspace
    direction; without this, equivalence-heavy systems blow the elimination
    up combinatorially."""
    best: dict[tuple, Constraint] = {}
    for c in constraints:
        lead = next((a for a in c.coeffs if a != 0), None)
        if lead is None:
            if c.const > 0:
                raise _Infeasible(c.provenance)
            continue
        scale = abs(lead)
        coeffs = tuple(a / scale for a in c.coeffs)
        const = c.const / scale
        kept = best.get(coeffs)
        if kept is None or const > kept.const:
            best[coeffs] = Constraint(coeffs, const, c.provenance)
    return list(best.values())


def _fm_solve(constraints: list[Constraint], nvars: int) -> list[Fraction]:
    """Fourier–Motzkin elimination with provenance; returns a feasible point."""
    stages = []
    current = _tighten(constraints)
    for var in range(nvars):
        stages.append(current)
        nxt = []
        pos = [c for c in current if c.coeffs[var] > 0]
        neg = [c for c in current if c.coeffs[var] < 0]
        for c in current:
            if c.coeffs[var] == 0:
                nxt.append(c)
        for p in pos:
            for q in neg:
                provenance = p.provenance | q.provenance
                if len(provenance) > var + 2:
                    # Chernikov's rule: after var + 1 eliminations a row built
                    # from more than var + 2 input rows is implied by the rest,
                    # so each stage keeps its polyhedron and its bounds
                    continue
                scale_p = -q.coeffs[var]
                scale_q = p.coeffs[var]
                coeffs = tuple(
                    scale_p * a + scale_q * b for a, b in zip(p.coeffs, q.coeffs)
                )
                nxt.append(
                    Constraint(coeffs, scale_p * p.const + scale_q * q.const, provenance)
                )
        current = _tighten(nxt)
    for c in current:
        if c.const > 0:
            raise _Infeasible(c.provenance)
    assignment: list[Optional[Fraction]] = [None] * nvars
    for var in range(nvars - 1, -1, -1):
        lower = None
        upper = None
        for c in stages[var]:
            coef = c.coeffs[var]
            if coef == 0:
                continue
            rest = c.const
            for j in range(var + 1, nvars):
                rest += c.coeffs[j] * assignment[j]
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


@dataclass(frozen=True)
class CalibrationResult:
    ok: bool
    coefficients: tuple[tuple[Fraction, Fraction], ...] = ()  # (a_i, B_i) per system
    witness: tuple = ()  # conflicting cross-pair descriptions when infeasible

    def glued_value(self, systems, x: CompositeState) -> Fraction:
        by_label = {space.label: (i, S) for i, (space, S) in enumerate(systems)}
        out = Fraction(0)
        for lam, lbl, name in x.parts:
            i, S = by_label[lbl]
            a, b = self.coefficients[i]
            out += lam * (a * S.value(name) + b)
        return out


def check_margin(margin) -> None:
    """Refuse a margin that would let strict cross pairs stop being strict."""
    if margin <= 0:
        raise AccessError(f"margin must be positive, got {margin}")


def calibrate(
    systems: Sequence[tuple[StateSpace, EntropyFn]],
    cross: Accessibility,
    margin: Fraction = DEFAULT_MARGIN,
) -> CalibrationResult:
    """Find positive multipliers a_i and offsets B_i making the glued entropy
    a_Γ S_Γ + B_Γ monotone across the cross-space relation.

    Normalized by a₁ = 1, B₁ = 0.  Strict cross pairs become strict
    inequalities with the given margin, equivalences become equalities; the
    result is any feasible point, or INFEASIBLE with the subset of cross
    pairs whose inequalities collided.
    """
    check_margin(margin)
    if not systems:
        raise AccessError("nothing to calibrate")
    labels = [space.label for space, _ in systems]
    uni = cross.universe()
    if uni is None:
        raise AccessError("cross relation has no finite universe")
    # variables: a_1, B_1, ..., a_{m-1}, B_{m-1} (system 0 pinned to identity)
    nvars = 2 * (len(systems) - 1)
    index = {lbl: i for i, lbl in enumerate(labels)}

    def glued_row(x: CompositeState):
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

    constraints: list[Constraint] = []
    descriptions: list[str] = []

    def add(coeffs, const, description):
        constraints.append(
            Constraint(tuple(coeffs), const, frozenset({len(descriptions)}))
        )
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
        else:  # reverse strict
            add([-d for d in diff], -const + margin, f"{y} ≺≺ {x}")

    try:
        point = _fm_solve(constraints, nvars)
    except _Infeasible as bad:
        return CalibrationResult(
            False, witness=tuple(sorted(descriptions[i] for i in bad.provenance))
        )
    coeffs = [(Fraction(1), Fraction(0))]
    for i in range(1, len(systems)):
        coeffs.append((point[2 * (i - 1)], point[2 * (i - 1) + 1]))
    return CalibrationResult(True, tuple(coeffs))
