"""Finite pre-orders as thin categories: monotone maps, Galois connections
(adjoint pairs), and the realization check between entropy systems.

Pre-orders are first class: adiabatic equivalence makes the thermodynamic
order a genuine pre-order, so "greatest element" always means greatest up
to equivalence and any representative may be returned.  Carriers are small
by design and every check is exhaustive.

``Poset`` closes its relation with ``access.reachable_sets``, the
depth-first closure under ``EdgeRelation.closure``, and keeps each element's
up-set and down-set from it.  ``check_monotone``, ``check_galois``,
``least``/``greatest`` and both adjoint searches read those sets: a subset
or membership test per element, not a ``Poset.le`` call per pair.  Every
witness and representative is still the first in carrier (or list) order,
so the results are those of the pairwise scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .access import EntropyFn, StateSpace, reachable_sets


class GaloisError(Exception):
    pass


_NOTHING = frozenset()  # the up- and down-set of anything outside the carrier


class Poset:
    """Finite pre-ordered set; the relation is closed reflexively and
    transitively at construction.

    Each element keeps its up-set (the elements above it, itself included)
    and its down-set, both from the closure's depth-first search; the checks
    below ask membership and subset questions of those sets instead of one
    ``le`` per pair."""

    __slots__ = ("carrier", "_up", "_down", "_relation")

    def __init__(self, carrier: Sequence, relation):
        carrier = tuple(carrier)
        if len(set(carrier)) != len(carrier):
            raise GaloisError("carrier elements must be distinct")
        members = set(carrier)
        edges = list(relation)
        for a, b in edges:
            if a not in members or b not in members:
                raise GaloisError(f"relation edge ({a}, {b}) outside carrier")
        up = reachable_sets(carrier, edges)
        down = {x: set() for x in carrier}
        for x, above in up.items():
            for y in above:
                down[y].add(x)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "_up", up)  # sets, never changed after this
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_relation", None)

    def __setattr__(self, *a):
        raise AttributeError("Poset is immutable")

    @property
    def relation(self) -> frozenset:
        """The closed relation as (x, y) pairs, x ≤ y; built on first use."""
        if self._relation is None:
            pairs = frozenset((x, y) for x, above in self._up.items() for y in above)
            object.__setattr__(self, "_relation", pairs)
        return self._relation

    def le(self, x, y) -> bool:
        return y in self._up.get(x, _NOTHING)

    def equivalent(self, x, y) -> bool:
        return self.le(x, y) and self.le(y, x)

    @property
    def antisymmetric(self) -> bool:
        return all(
            not (self.le(x, y) and self.le(y, x))
            for x, y in itertools.combinations(self.carrier, 2)
        )

    @property
    def total(self) -> bool:
        return all(
            self.le(x, y) or self.le(y, x)
            for x, y in itertools.combinations(self.carrier, 2)
        )

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self is other or self._up == other._up

    def __hash__(self):
        return hash((frozenset(self.carrier), self.relation))

    def __repr__(self):
        edges = sorted(
            (a, b) for a, b in self.relation if a != b
        )
        return f"Poset({list(self.carrier)}, {edges})"

    @classmethod
    def chain(cls, labels: Sequence) -> "Poset":
        labels = tuple(labels)
        return cls(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])

    @classmethod
    def antichain(cls, labels: Sequence) -> "Poset":
        return cls(tuple(labels), [])

    def least(self, xs: Sequence):
        """The first of xs below all of xs, or None."""
        need = frozenset(xs)
        up = self._up
        return next((x for x in xs if need <= up.get(x, _NOTHING)), None)

    def greatest(self, xs: Sequence):
        """The first of xs above all of xs, or None."""
        need = frozenset(xs)
        down = self._down
        return next((x for x in xs if need <= down.get(x, _NOTHING)), None)

    def join(self, x, y):
        """A least upper bound up to equivalence, or None."""
        above = self._up.get(x, _NOTHING) & self._up.get(y, _NOTHING)
        return self.least([z for z in self.carrier if z in above])


def poset_from_entropy(space: StateSpace, S: EntropyFn) -> Poset:
    """The (total) pre-order the entropy values induce on the states."""
    names = space.names()
    rel = [
        (x, y) for x in names for y in names if S.value(x) <= S.value(y)
    ]
    return Poset(names, rel)


@dataclass(frozen=True)
class MonotoneResult:
    ok: bool
    witness: Optional[tuple] = None  # (x, y) with x ≤ y but F(x) ≰ F(y)


def check_monotone(src: Poset, dst: Poset, mapping: Mapping) -> MonotoneResult:
    """x ≤ y ⇒ F(x) ≤ F(y).  The witness is the first failing x in carrier
    order with its first failing y, the pair a scan of carrier × carrier
    finds first."""
    for x in src.carrier:
        if x not in mapping:
            raise GaloisError(f"mapping is not total: {x!r} unmapped")
        if mapping[x] not in dst._up:
            raise GaloisError(f"{mapping[x]!r} is outside the target carrier")
    image = mapping.__getitem__
    for x in src.carrier:
        above = src._up[x]
        reached = dst._up[mapping[x]]
        if not reached.issuperset(map(image, above)):
            y = next(y for y in src.carrier if y in above and mapping[y] not in reached)
            return MonotoneResult(False, (x, y))
    return MonotoneResult(True)


@dataclass(frozen=True)
class MonotoneMap:
    source: Poset
    target: Poset
    mapping: Mapping

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        result = check_monotone(self.source, self.target, self.mapping)
        if not result.ok:
            raise GaloisError(
                f"map is not monotone: {result.witness[0]!r} ≤ {result.witness[1]!r} "
                "is not preserved"
            )

    def __call__(self, x):
        return self.mapping[x]

    @classmethod
    def identity(cls, poset: Poset) -> "MonotoneMap":
        return cls(poset, poset, {x: x for x in poset.carrier})

    def compose(self, inner: "MonotoneMap") -> "MonotoneMap":
        if inner.target != self.source:
            raise GaloisError("posets do not line up for composition")
        return MonotoneMap(
            inner.source, self.target, {x: self(inner(x)) for x in inner.source.carrier}
        )


@dataclass(frozen=True)
class GaloisResult:
    ok: bool
    witness: Optional[tuple] = None  # (a, b, direction)
    unit_ok: Optional[bool] = None  # a ≤ G(F(a))
    counit_ok: Optional[bool] = None  # F(G(b)) ≤ b


def check_galois(F: MonotoneMap, G: MonotoneMap) -> GaloisResult:
    """Exhaustive adjunction check: F(a) ≤ b ⇔ a ≤ G(b) for all pairs."""
    if F.source != G.target or F.target != G.source:
        raise GaloisError("F and G must run between the same two posets")
    A, B = F.source, F.target
    f, g = F.mapping, G.mapping
    preimage = {a: [] for a in A.carrier}  # a -> the b with G(b) = a
    for b in B.carrier:
        preimage[g[b]].append(b)
    for a in A.carrier:
        forward = B._up[f[a]]  # the b with F(a) ≤ b
        backward = {b for v in A._up[a] for b in preimage[v]}  # the b with a ≤ G(b)
        if forward != backward:
            b = next(b for b in B.carrier if (b in forward) != (b in backward))
            direction = "F(a) ≤ b but a ≰ G(b)" if b in forward else "a ≤ G(b) but F(a) ≰ b"
            return GaloisResult(False, (a, b, direction))
    unit = all(g[f[a]] in A._up[a] for a in A.carrier)
    counit = all(b in B._up[f[g[b]]] for b in B.carrier)
    return GaloisResult(True, None, unit, counit)


@dataclass(frozen=True)
class AdjointResult:
    map: Optional[MonotoneMap]
    witness: Optional[object] = None  # element whose candidate set failed

    @property
    def found(self) -> bool:
        return self.map is not None


def right_adjoint(F: MonotoneMap) -> AdjointResult:
    """G(b) = a greatest element of {a : F(a) ≤ b}, when one exists for
    every b (greatest in the pre-order sense; any representative)."""
    A, B = F.source, F.target
    f = F.mapping
    mapping = {}
    for b in B.carrier:
        below = B._down[b]
        greatest = A.greatest([a for a in A.carrier if f[a] in below])
        if greatest is None:
            return AdjointResult(None, b)
        mapping[b] = greatest
    return AdjointResult(MonotoneMap(B, A, mapping))


def left_adjoint(G: MonotoneMap) -> AdjointResult:
    """F(a) = a least element of {b : a ≤ G(b)}, dual to right_adjoint."""
    B, A = G.source, G.target
    g = G.mapping
    mapping = {}
    for a in A.carrier:
        above = A._up[a]
        least = B.least([b for b in B.carrier if g[b] in above])
        if least is None:
            return AdjointResult(None, a)
        mapping[a] = least
    return AdjointResult(MonotoneMap(A, B, mapping))


@dataclass(frozen=True)
class ClosureReport:
    inflationary: bool  # a ≤ GF(a)
    monotone: bool
    idempotent: bool  # GF(GF(a)) ∼ GF(a)
    kernel_deflationary: bool  # FG(b) ≤ b
    kernel_idempotent: bool

    @property
    def ok(self) -> bool:
        return all(
            (
                self.inflationary,
                self.monotone,
                self.idempotent,
                self.kernel_deflationary,
                self.kernel_idempotent,
            )
        )


def closure_report(F: MonotoneMap, G: MonotoneMap) -> ClosureReport:
    """G∘F should be a closure operator and F∘G a kernel operator whenever
    (F, G) is a Galois pair; assertable exhaustively on finite carriers."""
    A, B = F.source, F.target
    gf = {a: G(F(a)) for a in A.carrier}
    fg = {b: F(G(b)) for b in B.carrier}
    return ClosureReport(
        inflationary=all(A.le(a, gf[a]) for a in A.carrier),
        monotone=check_monotone(A, A, gf).ok,
        idempotent=all(A.equivalent(gf[gf[a]], gf[a]) for a in A.carrier),
        kernel_deflationary=all(B.le(fg[b], b) for b in B.carrier),
        kernel_idempotent=all(B.equivalent(fg[fg[b]], fg[b]) for b in B.carrier),
    )


@dataclass(frozen=True)
class LandauerReport:
    ok: bool
    galois: Optional[GaloisResult]
    rows: tuple = ()  # (state, S1(state), S2(F state)) bookkeeping per state
    witness: Optional[tuple] = None
    stage: Optional[str] = None  # which precondition failed


def landauer_check(
    sys1: tuple[StateSpace, EntropyFn],
    sys2: tuple[StateSpace, EntropyFn],
    f_mapping: Mapping,
    g_mapping: Mapping,
) -> LandauerReport:
    """Is the first entropy system realized in the second?

    The realization map F and abstraction map G must be monotone for the
    entropy-induced orders and form a Galois connection:
    S₂(Fc) ≤ S₂(d) ⇔ S₁(c) ≤ S₁(Gd).  The report lists, per abstract
    state c, the entropy S₂(Fc) booked at the realization level.
    """
    space1, s1 = sys1
    space2, s2 = sys2
    p1 = poset_from_entropy(space1, s1)
    p2 = poset_from_entropy(space2, s2)
    mono_f = check_monotone(p1, p2, f_mapping)
    if not mono_f.ok:
        return LandauerReport(
            False, None, witness=mono_f.witness, stage="realization map not monotone"
        )
    mono_g = check_monotone(p2, p1, g_mapping)
    if not mono_g.ok:
        return LandauerReport(
            False, None, witness=mono_g.witness, stage="abstraction map not monotone"
        )
    F = MonotoneMap(p1, p2, f_mapping)
    G = MonotoneMap(p2, p1, g_mapping)
    result = check_galois(F, G)
    rows = tuple(
        (c, s1.value(c), s2.value(F(c))) for c in p1.carrier
    )
    if not result.ok:
        return LandauerReport(False, result, rows, result.witness, "adjunction fails")
    return LandauerReport(True, result, rows)
