"""Finite pre-orders as thin categories: monotone maps, Galois connections
(adjoint pairs), and the realization check between entropy systems.

Pre-orders are first class: adiabatic equivalence makes the thermodynamic
order a genuine pre-order, so "greatest element" always means greatest up
to equivalence and any representative may be returned.  Every check is
exact over the whole carrier.

``Poset`` closes its relation once with ``access.closure_masks`` and keeps
each element's up-set and down-set as int bitmasks over carrier indices,
with the generating edges as index pairs.  The checks read those masks:
``check_monotone`` tests only the generating edges (the order is their
reflexive-transitive closure and the target is transitive), and
``check_galois`` tests the unit a ≤ GF(a) and the counit FG(b) ≤ b, which for
monotone maps is the adjunction (Davey & Priestley, *Introduction to
Lattices and Order*).  The adjoint searches close F's (or G's) preimage
masks along the other poset's order and read each representative off a
table of the masks.  Where a fast test fails, a scan in carrier order over
the masks finds the witness, so every witness and representative is still
the first in carrier (or list) order: the results are those of the pairwise
scans.

``poset_from_entropy`` sorts the states by entropy and links each to the
next, and back as well where the two values tie: about n generating edges
whose closure is the total pre-order S(x) ≤ S(y), in the space's own
carrier order.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .access import EntropyFn, StateSpace, closure_masks, set_bits
from .expr import InputError, record


class GaloisError(InputError):
    pass


class MapError(GaloisError):
    """A map that is not total, leaves its target, names an element outside
    its source or, with a ``witness`` pair, breaks the order; ``name`` is the
    map's name where the check that raised it knows one."""

    def __init__(self, message, witness=None, name=None):
        super().__init__(message)
        self.witness, self.name = witness, name


class Poset:
    """Finite pre-ordered set; the relation is closed reflexively and
    transitively at construction.

    ``_index`` numbers the carrier, ``_edges`` keeps the generating edges as
    index pairs, and ``_up[i]`` / ``_down[i]`` are the bitmasks of the
    elements above and below element i, itself included; ``_components``
    keeps the closure's strongly connected components for closing other
    masks along the same order.  ``relation`` builds the closed relation as
    pairs on each call."""

    __slots__ = ("carrier", "_index", "_edges", "_up", "_down", "_components")

    def __init__(self, carrier: Sequence, relation):
        carrier = tuple(carrier)
        index = {x: i for i, x in enumerate(carrier)}
        if len(index) != len(carrier):
            raise GaloisError("carrier elements must be distinct")
        edges = []
        for a, b in relation:
            if a not in index or b not in index:
                raise GaloisError(f"relation edge ({a}, {b}) outside carrier")
            edges.append((index[a], index[b]))
        up, down, components = closure_masks(len(carrier), edges)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_edges", tuple(edges))
        object.__setattr__(self, "_up", up)  # never changed after this
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_components", components)

    def __setattr__(self, *a):
        raise AttributeError("Poset is immutable")

    @property
    def relation(self) -> frozenset:
        """The closed relation as (x, y) pairs, x ≤ y; built on each call."""
        carrier = self.carrier
        return frozenset(
            (x, carrier[j]) for x, above in zip(carrier, self._up) for j in set_bits(above)
        )

    def le(self, x, y) -> bool:
        index = self._index
        try:
            return self._up[index[x]] >> index[y] & 1 == 1
        except KeyError:  # x or y outside the carrier
            return False

    def equivalent(self, x, y) -> bool:
        return self.le(x, y) and self.le(y, x)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        if self is other or self.carrier == other.carrier:
            return self._up == other._up
        if self._index.keys() != other._index.keys():
            return False
        # the other's generating edges, closed in this carrier's numbering
        to_mine = [self._index[x] for x in other.carrier]
        edges = [(to_mine[i], to_mine[j]) for i, j in other._edges]
        return self._up == closure_masks(len(self.carrier), edges)[0]

    def __hash__(self):
        # the size of each element's up- and down-set does not depend on
        # the carrier order, so equal posets hash alike
        return hash(frozenset(zip(
            self.carrier, map(int.bit_count, self._up), map(int.bit_count, self._down)
        )))

    def __repr__(self):
        edges = sorted(
            (a, b) for a, b in self.relation if a != b
        )
        return f"Poset({list(self.carrier)}, {edges})"


def poset_from_entropy(space: StateSpace, S: EntropyFn) -> Poset:
    """The (total) pre-order the entropy values induce on the states."""
    names = space.names()
    value = {x: S.value(x) for x in names}
    ranked = sorted(names, key=value.__getitem__)
    rel = []
    for x, y in zip(ranked, ranked[1:]):
        rel += [(x, y), (y, x)] if value[x] == value[y] else [(x, y)]
    return Poset(names, rel)


@record
class MonotoneResult:
    def __init__(
        self,
        ok: bool,
        witness: Optional[tuple] = None,  # (x, y) with x ≤ y but F(x) ≰ F(y)
    ):
        vars(self).update(ok=ok, witness=witness)


def _image(src: Poset, dst: Poset, mapping: Mapping) -> list[int]:
    """The index in dst of each src element's image, in carrier order."""
    index = dst._index
    return [index[mapping[x]] for x in src.carrier]


def _closed_preimages(image: list[int], dst: Poset) -> tuple[list[int], list[int]]:
    """For each element t of dst, the bitmask of the source elements whose
    image is above t, and the bitmask of those whose image is below t."""
    preimages = [0] * len(dst.carrier)
    for i, t in enumerate(image):
        preimages[t] |= 1 << i
    up, down, _ = closure_masks(len(dst.carrier), dst._edges, preimages, dst._components)
    return up, down


def check_monotone(src: Poset, dst: Poset, mapping: Mapping) -> MonotoneResult:
    """x ≤ y ⇒ F(x) ≤ F(y).  The witness is the first failing x in carrier
    order with its first failing y, the pair a scan of carrier × carrier
    finds first.  The mapping must send each source element, and nothing
    else, into the target."""
    for x in src.carrier:
        if x not in mapping:
            raise MapError(f"mapping is not total: {x!r} unmapped")
        if mapping[x] not in dst._index:
            raise MapError(f"{mapping[x]!r} is outside the target carrier")
    if len(mapping) != len(src.carrier):
        extra = next(x for x in mapping if x not in src._index)
        raise MapError(f"{extra!r} is outside the source carrier")
    image = _image(src, dst, mapping)
    up = dst._up
    if not all(up[image[i]] >> image[j] & 1 for i, j in src._edges):
        reached = _closed_preimages(image, dst)[0]  # the y with F(y) ≥ t
        for x, above, t in zip(src.carrier, src._up, image):
            missed = above & ~reached[t]
            if missed:
                return MonotoneResult(False, (x, src.carrier[next(set_bits(missed))]))
    return MonotoneResult(True)


@record
class MonotoneMap:
    def __init__(self, source: Poset, target: Poset, mapping: Mapping):
        mapping = dict(mapping)
        vars(self).update(source=source, target=target, mapping=mapping)
        result = check_monotone(source, target, mapping)
        if not result.ok:
            x, y = result.witness
            raise MapError(f"map is not monotone: {x!r} ≤ {y!r} is not preserved", (x, y))

    def __call__(self, x):
        return self.mapping[x]


@record
class GaloisResult:
    def __init__(
        self,
        ok: bool,
        witness: Optional[tuple] = None,  # (a, b, direction)
        unit_ok: Optional[bool] = None,  # a ≤ G(F(a))
        counit_ok: Optional[bool] = None,  # F(G(b)) ≤ b
    ):
        vars(self).update(ok=ok, witness=witness, unit_ok=unit_ok, counit_ok=counit_ok)


def check_galois(F: MonotoneMap, G: MonotoneMap) -> GaloisResult:
    """The adjunction F(a) ≤ b ⇔ a ≤ G(b) for all pairs.  For monotone F
    and G it holds exactly when the unit a ≤ GF(a) and the counit
    FG(b) ≤ b do; when one fails, the first failing pair in carrier order
    is the witness."""
    if F.source != G.target or F.target != G.source:
        raise GaloisError("F and G must run between the same two posets")
    A, B = F.source, F.target
    f, g = _image(A, B, F.mapping), _image(B, A, G.mapping)
    unit = all(up >> g[t] & 1 for up, t in zip(A._up, f))
    counit = all(B._up[f[s]] >> j & 1 for j, s in enumerate(g))
    if not (unit and counit):
        backward = _closed_preimages(g, A)[0]  # the b with a ≤ G(b)
        for a, t, back in zip(A.carrier, f, backward):
            forward = B._up[t]  # the b with F(a) ≤ b
            if forward != back:
                j = next(set_bits(forward ^ back))
                if forward >> j & 1:
                    direction = "F(a) ≤ b but a ≰ G(b)"
                else:
                    direction = "a ≤ G(b) but F(a) ≰ b"
                return GaloisResult(False, (a, B.carrier[j], direction))
    return GaloisResult(True, None, unit, counit)


@record
class AdjointResult:
    def __init__(
        self,
        map: Optional[MonotoneMap],
        witness: Optional[object] = None,  # element whose candidate set failed
    ):
        vars(self).update(map=map, witness=witness)

    @property
    def found(self) -> bool:
        return self.map is not None


def right_adjoint(F: MonotoneMap) -> AdjointResult:
    """G(b) = a greatest element of {a : F(a) ≤ b}, when one exists for
    every b (greatest in the pre-order sense; the first in carrier order).

    As F is monotone, {a : F(a) ≤ b} is a down-set, and an element is
    greatest in a down-set exactly when its own down-set is the whole of
    it: the representative is the lowest index with that down-mask."""
    A, B = F.source, F.target
    below = _closed_preimages(_image(A, B, F.mapping), B)[1]  # the a with F(a) ≤ b
    return _adjoint(B, A, below, A._down)


def left_adjoint(G: MonotoneMap) -> AdjointResult:
    """F(a) = a least element of {b : a ≤ G(b)}, dual to right_adjoint."""
    B, A = G.source, G.target
    above = _closed_preimages(_image(B, A, G.mapping), A)[0]  # the b with a ≤ G(b)
    return _adjoint(A, B, above, B._up)


def _adjoint(source: Poset, target: Poset, candidates: list[int], masks: list[int]):
    """Send each source element to the lowest target index whose mask is
    its candidate mask; without one, the first such source element is the
    witness."""
    first = {}
    for i, mask in enumerate(masks):
        first.setdefault(mask, i)
    mapping = {}
    for x, wanted in zip(source.carrier, candidates):
        i = first.get(wanted)
        if i is None:
            return AdjointResult(None, x)
        mapping[x] = target.carrier[i]
    return AdjointResult(MonotoneMap(source, target, mapping))


@record
class ClosureReport:
    def __init__(
        self,
        inflationary: bool,  # a ≤ GF(a)
        monotone: bool,
        idempotent: bool,  # GF(GF(a)) ∼ GF(a)
        kernel_deflationary: bool,  # FG(b) ≤ b
        kernel_idempotent: bool,
    ):
        vars(self).update(
            inflationary=inflationary, monotone=monotone, idempotent=idempotent,
            kernel_deflationary=kernel_deflationary, kernel_idempotent=kernel_idempotent,
        )

    @property
    def ok(self) -> bool:
        return (self.inflationary and self.monotone and self.idempotent
                and self.kernel_deflationary and self.kernel_idempotent)


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


@record
class LandauerReport:
    def __init__(
        self,
        ok: bool,
        galois: Optional[GaloisResult],
        rows: tuple = (),  # (state, S1(state), S2(F state)) bookkeeping per state
        witness: Optional[tuple] = None,
        stage: Optional[str] = None,  # which precondition failed
    ):
        vars(self).update(ok=ok, galois=galois, rows=rows, witness=witness, stage=stage)


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
    state c, the entropy S₂(Fc) booked at the realization level.  Each map
    is checked once, F first; a map that is not total or leaves its spaces
    raises a MapError named 'F' or 'G'.
    """
    (space1, s1), (space2, s2) = sys1, sys2
    p1, p2 = poset_from_entropy(space1, s1), poset_from_entropy(space2, s2)
    maps = []
    for name, role, source, target, mapping in (
        ("F", "realization", p1, p2, f_mapping), ("G", "abstraction", p2, p1, g_mapping)
    ):
        try:
            maps.append(MonotoneMap(source, target, mapping))
        except MapError as err:
            if err.witness is None:
                raise MapError(str(err), name=name) from None
            stage = f"{role} map not monotone"
            return LandauerReport(False, None, witness=err.witness, stage=stage)
    F, G = maps
    result = check_galois(F, G)
    rows = tuple((c, s1.value(c), s2.value(F(c))) for c in p1.carrier)
    if not result.ok:
        return LandauerReport(False, result, rows, result.witness, "adjunction fails")
    return LandauerReport(True, result, rows)
