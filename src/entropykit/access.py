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
decides it without a query, and ``construct_entropy`` reads its values off
the totals without building the reference grid; other backends are sampled
and scanned.  Relations come in
two backends: explicit edge lists (closed on demand) and decision-procedure
oracles, of which the entropy-backed oracle is the workhorse for synthetic
test systems.

One closure, ``closure_masks``, gives each node its up-set and down-set as
int bitmasks over node indices, from one pass of Tarjan's strongly
connected components; it serves ``EdgeRelation.closure`` and
``galois.Poset``.  The CH, entropy construction and ``check_axioms`` read
answer tables ``le[i][j] = A.le(xs[i], xs[j])``: each ordered pair asked
once.

Each composed axiom check of a sampled backend lists its cases, keeps those
whose composites a known universe holds, and reports the first case that
fails; one helper, ``_result``, turns that into FAIL, PASS or
NOT_APPLICABLE for every axiom and for ``verify_entropy``'s monotonicity.

Every seeded sample of ``check_axioms`` (the composite pool, the sampled
triples, consistency pairs and stability quadruples) is a row
``tuple(map(rng.choice, pools))`` from one ``random.Random(config.seed)``,
so a seed fixes the draws and the witnesses.  ``construct_entropy`` and
``verify_entropy`` draw nothing.

``calibrate`` solves for the affine constants by Fourier–Motzkin
elimination on integer rows.  It builds each cross state's glued row once,
scales every row and the margin by the lcm of their denominators, and then
combines, compares and reduces rows with int arithmetic only: a direction
is keyed by its primitive vector (coefficients over their gcd), and a row's
provenance, the set of input rows it came from, is an int bitmask.  Only
back-substitution, which reads the point off the stages, uses Fractions.
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

from .expr import Expr, ExprError, InputError


class AccessError(InputError):
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
    ``__init__`` is the one constructor: ``compose``, ``scale`` and the
    construction's references all build through it, so every composite is
    checked and sorted the same way.  Immutable by convention.
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
        self.parts = tuple(clean)
        self._key = key = tuple(
            (lbl, name, lam.numerator, lam.denominator) for lam, lbl, name in clean
        )
        self._hash = hash(key)

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
        return CompositeState(self.parts + other.parts)

    def scale(self, lam) -> "CompositeState":
        lam = Fraction(lam)
        return CompositeState((lam * l, s, n) for l, s, n in self.parts)

    def __str__(self):
        body = ", ".join(
            (f"{s}.{n}" if l == 1 else f"{l}·{s}.{n}") for l, s, n in self.parts
        )
        return f"({body})" if len(self.parts) > 1 else body

    __repr__ = __str__


def closure_masks(size: int, edges, seeds=None, components=None):
    """Reflexive-transitive closure of ``edges`` (index pairs on nodes
    ``0 .. size-1``) as int bitmasks: ``up[i]`` ORs ``seeds[j]`` over every j
    reachable from i, itself included, and ``down[i]`` over every j that
    reaches i.  The default seed of node j is bit j, which makes ``up[i]``
    the up-set of i and ``down[i]`` its down-set.  Returns
    ``(up, down, components)``.

    The strongly connected components come out of ``_components`` after
    every component they reach, so one pass in that order pulls each
    component's up-mask from its successors, and one pass in the reverse
    order pushes each component's down-mask on to its successors.  Passing
    the ``components`` of an earlier call on the same edges skips the
    search."""
    succ = [[] for _ in range(size)]
    for i, j in edges:
        succ[i].append(j)
    if seeds is None:
        seeds = [1 << i for i in range(size)]
    if components is None:
        components = _components(succ)
    up = [0] * size
    for members in components:
        mask = 0
        for i in members:
            mask |= seeds[i]
            for j in succ[i]:
                mask |= up[j]  # 0 while j is in this component
        for i in members:
            up[i] = mask
    down = [0] * size  # until its component's turn, what was pushed on to i
    for members in reversed(components):
        mask = 0
        for i in members:
            mask |= seeds[i] | down[i]
        for i in members:
            down[i] = mask
            for j in succ[i]:
                down[j] |= mask
    return up, down, components


def _components(succ) -> list[list[int]]:
    """The strongly connected components of the graph ``i -> succ[i]``,
    each listed after every component it reaches (iterative Tarjan 1972)."""
    size = len(succ)
    number = [-1] * size  # visiting order; -1 while unvisited, size once placed
    low = [0] * size
    stack, components, count = [], [], 0
    for root in range(size):
        if number[root] >= 0:
            continue
        number[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if number[w] < 0:
                    number[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if number[w] < low[v]:  # w is on the stack, as a placed w reads size
                    low[v] = number[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == number[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        number[w] = size
                        members.append(w)
                        if w == v:
                            break
                    components.append(members)
    return components


def set_bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        nodes = self.nodes
        index = {x: i for i, x in enumerate(nodes)}
        up, _, _ = closure_masks(len(nodes), [(index[a], index[b]) for a, b in self.edges])
        closed = ((a, nodes[j]) for a, above in zip(nodes, up) for j in set_bits(above))
        return EdgeRelation(nodes, closed, self.supports_scaling)


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


def _pures(*spaces: StateSpace) -> list[CompositeState]:
    """Each space's pure states, in space and then name order."""
    return [CompositeState.pure(sp.label, n) for sp in spaces for n in sp.names()]


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
MAX_EPS_STEPS = 1_000  # the smallest stability ε is 2^-MAX_EPS_STEPS


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
        if self.eps_steps > MAX_EPS_STEPS:
            raise AccessError(f"eps_steps must be at most {MAX_EPS_STEPS}, got {self.eps_steps}")
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


def _result(name: str, witness, tested, caveats: tuple[str, ...] = ()) -> AxiomResult:
    """FAIL with its witness, else PASS if any case was tested, else
    NOT_APPLICABLE: the one place an axiom verdict gets its status."""
    if witness is not None:
        status = AxiomStatus.FAIL
    else:
        status = AxiomStatus.PASS if tested else AxiomStatus.NOT_APPLICABLE
    return AxiomResult(name, status, witness, caveats)


_STABILITY_CAVEATS = ("LIMIT_APPROXIMATED",)
_NO_INSTANCES = ("no composable instances in the relation's universe",)
_UNSCALED = tuple(  # scaling, splitting and stability without scaled composites
    _result(name, None, False, ("backend does not support scaled composites",))
    for name in AXIOM_NAMES[3:]
)
_BY_CONSTRUCTION = tuple(  # an entropy oracle's report: every axiom holds
    _result(name, None, True, _STABILITY_CAVEATS if name == "stability" else ())
    for name in AXIOM_NAMES
)


def _intransitive_triple(le) -> Optional[tuple[int, int, int]]:
    """The first (i, j, k) in index order with le[i][j] and le[j][k] but not
    le[i][k], or None: with each row's up-set as an int bitmask, the table
    is transitive iff every j in i's up-set has its up-set inside i's."""
    up = [sum(1 << j for j, yes in enumerate(row) if yes) for row in le]
    for i, mine in enumerate(up):
        for j in set_bits(mine):
            outside = up[j] & ~mine
            if outside:
                return i, j, next(set_bits(outside))
    return None


def _composite_pool(pures, config: AxiomConfig, rng: random.Random) -> list[CompositeState]:
    if not pures:
        raise AccessError("cannot draw from an empty pool")
    pools = (pures, pures, config.lambda_grid, config.lambda_grid)
    return [
        a.scale(la).compose(b.scale(lb))
        for a, b, la, lb in (map(rng.choice, pools) for _ in range(COMPOSITE_SAMPLES))
    ]


def _bounded_product(pools, cap: int, rng: random.Random) -> list[tuple]:
    """Full cartesian product when small, otherwise cap random samples."""
    if math.prod(map(len, pools)) > cap:
        return [tuple(map(rng.choice, pools)) for _ in range(cap)]
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
    to ``A.le`` exactly once, up front, and the checks read their pool
    premises from that table.  Transitivity scans the whole table once, for
    every triple of the pool; past MAX_TRIPLES the first failing one of a
    seeded sample of triples, if any, is its witness.  Consistency, scaling,
    splitting and stability each take three steps:

    1. list the check's cases (drawn, where there are too many);
    2. keep those whose composites a known universe holds (``testable``;
       on an unknown universe every case is kept and nothing is built);
    3. take the first case that fails as the witness, asking ``A.le`` only
       there, case by case; stability asks the ε-sides of a pair with
       X ⊀ Y one by one and stops at the first that fails.

    ``_result`` turns the witness, and whether any case was kept, into
    FAIL, PASS or NOT_APPLICABLE.  Scaling, splitting and stability only
    make sense for backends that support scaled composites; on plain edge
    relations they come back NOT_APPLICABLE.  Stability quantifies a limit
    ε → 0⁺, which a finite run can only approximate; its verdict always
    carries the LIMIT_APPROXIMATED caveat.
    """
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
    if len(pool) ** 3 > MAX_TRIPLES:  # the first failing drawn triple stays the witness
        triples = _bounded_product((idx, idx, idx), MAX_TRIPLES, rng)
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
        _bounded_product((accessible, accessible), MAX_CONSISTENCY_PAIRS, rng), joined
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
        _bounded_product((idx, idx, pures, pures), MAX_STABILITY_QUADRUPLES, rng),
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
    The grid is λ = k·step for k < ⌈1/step⌉, then λ = 1.  A scalable backend
    whose known universe lacks a reference composite cannot be asked about
    it, and gets the class-rank entropy too, as ``check_axioms`` skips the
    cases such a universe cannot hold.  le is the space's answer_table,
    asked here when not given.

    An ``EntropyOracle`` (the exact class, as in ``check_axioms``) reads
    S(X) off its totals: with λ* = (S(X) − S(X₀)) / (S(X₁) − S(X₀)) it is 1
    when λ* ≥ 1, else ⌊λ*/step⌋·step.  That is where the scan stops, since
    an additive, extensive total has ((1−λ)X₀, λX₁) ≺ X iff
    λ(S(X₁) − S(X₀)) ≤ S(X) − S(X₀), i.e. iff λ ≤ λ*, and S(X₁) > S(X₀)
    as X₀ ≺≺ X₁.  Every other backend scans: each reference is built once
    and the grid is read from the top, stopping at the first reference ≺ X.
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
    step = Fraction(config.grid_step)
    if type(A) is EntropyOracle:
        s_lo = A.total(lo)
        span = A.total(hi) - s_lo  # > 0, as lo ≺≺ hi
        values = {}
        for name, x in zip(names, pures):
            lam = (A.total(x) - s_lo) / span
            values[name] = Fraction(1) if lam >= 1 else lam // step * step
    else:
        label, lo_name, hi_name = space.label, names[ranked[0]], names[ranked[-1]]
        inner = [k * step for k in range(1, math.ceil(1 / step))]  # 0 < k·step < 1
        references = [(Fraction(1), hi)]
        references += [  # ((1−λ)X₀, λX₁)
            (lam, CompositeState(((1 - lam, label, lo_name), (lam, label, hi_name))))
            for lam in reversed(inner)
        ]
        references.append((Fraction(0), lo))
        universe = A.universe()
        if universe is not None and not set(universe).issuperset(r for _, r in references):
            return EntropyFn(space.label, rank_of, method="rank")
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
    n = range(len(pures))
    witness = next(
        (
            (pures[i], pures[j], "≺ but S decreases" if xy else "S ≤ without ≺")
            for i in n
            for j in n
            if (xy := (A.le(pures[i], pures[j]) if le is None else le[i][j]))
            != (values[i] <= values[j])
        ),
        None,
    )
    return VerifyReport(_result("monotonicity", witness, True), _ADDITIVE, _EXTENSIVE)


# ---------------------------------------------------------------------------
# Affine calibration across systems (exact rational feasibility)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """Σ coeffs·vars + const ≤ 0 on integer coefficients, remembering its origin."""

    coeffs: tuple[int, ...]
    const: int
    provenance: frozenset[int]


class _Infeasible(Exception):
    def __init__(self, provenance):
        self.provenance = provenance


def _tighten(rows) -> list[tuple]:
    """Keep only the tightest row per halfspace direction; without this,
    equivalence-heavy systems blow the elimination up combinatorially.

    A row is (int coeffs, int const, provenance).  Its direction is its
    primitive vector coeffs // g, g = gcd(coeffs), and of two rows in one
    direction the tighter has the larger const / g, compared by
    cross-multiplying; a kept row is replaced only by a strictly tighter one.
    Each kept row is divided by the gcd of its coefficients and const.
    """
    best: dict[tuple, tuple] = {}
    for coeffs, const, provenance in rows:
        g = math.gcd(*coeffs)
        if g == 0:
            if const > 0:
                raise _Infeasible(provenance)
            continue
        key = coeffs if g == 1 else tuple(a // g for a in coeffs)
        kept = best.get(key)
        if kept is not None:
            (_, kept_const, _), kept_g = kept
            if const * kept_g <= kept_const * g:
                continue
        h = math.gcd(g, const)
        if h != 1:
            coeffs, const, g = tuple(a // h for a in coeffs), const // h, g // h
        best[key] = ((coeffs, const, provenance), g)
    return [row for row, _ in best.values()]


def _fm_solve(constraints: list[Constraint], nvars: int) -> list[Fraction]:
    """Fourier–Motzkin elimination over integer rows, with provenance;
    returns a feasible point.

    A stage row is (int coeffs, int const, provenance), its provenance the
    bitmask of the input rows it came from.  Rows p and q with opposite
    signs at the eliminated variable v combine as (−q_v)·p + p_v·q: a
    positive multiple of the combination of p / |p_v| and q / |q_v|, so it
    bounds the same halfspace and stays integer.  Each bound of the
    back-substitution, −rest / coef, is unchanged by a positive scaling of
    its row, so the point does not depend on how rows were scaled.  The last
    stage's rows are all zero: ``_tighten`` raises on any that is infeasible."""
    stages = []
    current = _tighten(
        (c.coeffs, c.const, sum(1 << i for i in c.provenance)) for c in constraints
    )
    for var in range(nvars):
        stages.append(current)
        nxt = [row for row in current if row[0][var] == 0]
        pos = [row for row in current if row[0][var] > 0]
        neg = [row for row in current if row[0][var] < 0]
        for p_coeffs, p_const, p_prov in pos:
            scale_q = p_coeffs[var]
            for q_coeffs, q_const, q_prov in neg:
                provenance = p_prov | q_prov
                if provenance.bit_count() > var + 2:
                    # Chernikov's rule: after var + 1 eliminations a row built
                    # from more than var + 2 input rows is implied by the rest,
                    # so each stage keeps its polyhedron and its bounds
                    continue
                scale_p = -q_coeffs[var]
                coeffs = tuple(
                    scale_p * a + scale_q * b for a, b in zip(p_coeffs, q_coeffs)
                )
                nxt.append((coeffs, scale_p * p_const + scale_q * q_const, provenance))
        current = _tighten(nxt)
    assignment: list[Optional[Fraction]] = [None] * nvars
    for var in range(nvars - 1, -1, -1):
        lower = None
        upper = None
        for coeffs, const, _ in stages[var]:
            coef = coeffs[var]
            if coef == 0:
                continue
            rest = Fraction(const)
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

    Each cross state's glued row is built once.  Every row and the margin
    are scaled by D, the lcm of all their denominators, so the elimination
    runs on integer rows: a_i > 0 is the row −D at a_i with const margin·D.
    A pair's description is written out only when it is part of an
    INFEASIBLE witness.
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
    for x in uni:
        for _, lbl, _ in x.parts:
            if lbl not in index:
                raise AccessError(
                    f"cross state {x} lies in space {lbl!r}, which has no entropy function"
                )

    def glued_row(x: CompositeState) -> list[Fraction]:
        """S(x)'s coefficients at a_1, B_1, … and its constant, last."""
        row = [Fraction(0)] * (nvars + 1)
        for lam, lbl, name in x.parts:
            i = index[lbl]
            s_val = systems[i][1].value(name)
            if i == 0:
                row[nvars] += lam * s_val
            else:
                row[2 * (i - 1)] += lam * s_val
                row[2 * (i - 1) + 1] += lam
        return row

    glued = {x: glued_row(x) for x in uni}
    common = math.lcm(
        margin.denominator, *(v.denominator for row in glued.values() for v in row)
    )
    for x, row in glued.items():
        glued[x] = [v.numerator * (common // v.denominator) for v in row]
    gap = margin.numerator * (common // margin.denominator)

    constraints: list[Constraint] = []
    descriptions: list[tuple] = []  # (left, relation, right), joined on demand

    def add(row, const, description):
        constraints.append(Constraint(tuple(row), const, frozenset({len(descriptions)})))
        descriptions.append(description)

    for i in range(1, len(systems)):
        row = [0] * nvars
        row[2 * (i - 1)] = -common
        add(row, gap, (f"a[{labels[i]}]", ">", 0))
    for x, y in itertools.combinations(uni, 2):
        rel = derived_relations(cross, x, y)
        if rel is Relation.INCOMPARABLE:
            continue
        diff = [a - b for a, b in zip(glued[x], glued[y])]
        const = diff.pop()
        if rel is Relation.EQUIVALENT:
            add(diff, const, (x, "∼", y))
            add([-d for d in diff], -const, (x, "∼", y))
        elif rel is Relation.STRICT:
            add(diff, const + gap, (x, "≺≺", y))
        else:  # reverse strict
            add([-d for d in diff], -const + gap, (y, "≺≺", x))

    try:
        point = _fm_solve(constraints, nvars)
    except _Infeasible as bad:
        return CalibrationResult(
            False,
            witness=tuple(sorted(
                "{} {} {}".format(*d)
                for i, d in enumerate(descriptions)
                if bad.provenance >> i & 1
            )),
        )
    coeffs = [(Fraction(1), Fraction(0))]
    for i in range(1, len(systems)):
        coeffs.append((point[2 * (i - 1)], point[2 * (i - 1) + 1]))
    return CalibrationResult(True, tuple(coeffs))
