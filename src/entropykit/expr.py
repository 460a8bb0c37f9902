"""Exact symbolic scalar expressions over a fixed coordinate chart.

Expressions are kept in a canonical expanded form: a sum of terms, each a
rational coefficient times a product of base factors raised to rational
exponents.  A base factor is a coordinate, a named positive parameter, an
ln/exp atom, or an opaque power of a multi-term expression.  All symbolic
arithmetic is exact: every coefficient and exponent is an int where it is
whole and a fractions.Fraction only where it is not (_whole), so the common
products and sums of whole numbers are int operations.  An int and the
Fraction of the same value compare, hash and print alike, so keys, order
and printed forms do not depend on which one a term holds.

Each operation (sum, parsed sum, product, derivative, substitution) collects
all the terms of its result first and then merges and sorts them once, in
Expr._build.  The merge runs on int numerators and denominators: like terms
with one denominator add their numerators, others add over the lcm of the
two denominators (one gcd, as Expr.evaluate sums), and each term of the
result gets one coefficient at the end, an int where it is whole, else one
reduced Fraction.  A term keeps its merge and sort key once it is computed.
A product of an m-term and an n-term sum merges the already sorted factors
of each of its m*n pairs of terms and reuses their keys, and multiplies
their numerators and denominators as ints, unreduced; the square of an
n-term sum builds each of its n*(n+1)/2 distinct pairs once, with twice the
numerator where the two terms differ, and an integer power of a sum is a
chain of such products, by repeated squaring.  Substitution builds a
term's unmapped coordinates and parameters as one monomial, and
substitutes, raises and multiplies in only its mapped symbols and its
ln/exp/opaque-power bases.  Three cases skip the merge and sort, since an
operand is already canonical: a product with a constant scales the other
operand's coefficients and keeps its terms' keys and order (a product by 1
is the other operand itself), a sum with zero is the other operand (so a
difference with zero is it or its negation), and a substitution into one
term is that term's product.

Numeric values come from Expr.evaluate, exact where the expression and the
point allow it (a Fraction) and floating point past ln, exp, fractional
powers and integer powers beyond MAX_POWER_BITS.  Its value is that of a
fold over Fractions, term by term and factor by factor, of the same type
and to the bit, errors included; but while the fold is exact it keeps each
term's product and the sum as an unreduced int numerator and denominator,
and builds one Fraction per call, at the end.  Expr.compile turns an
expression with all but one symbol fixed into a one-argument function, as
quadrature and path sampling need: it computes what does not depend on the
free symbol once, and its result has the type and the bits of evaluate's at
every point, errors included.

Every verdict is a claim on the open positive orthant: the canonical form
rewrites (x^a)^b to x^(a*b) and (x*y)^q to x^q*y^q, which hold only for
positive x and y, and is_zero samples only positive points.  A document's
parameter value of 0 or less is refused; path legs are not yet checked
against this, so a leg through a non-positive coordinate is evaluated on
the rewritten expression.

is_zero decides whether an expression vanishes, structurally or by seeded
sampling.  first_nonzero turns a residual's zero tests into a Confidence:
CERTAIN when every test it ran was structural or found a nonzero value,
SAMPLED when a vanishing verdict rests on samples; forms._nonvanishing
does the same for a factor that must not vanish.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union


class InputError(Exception):
    """Base of each layer's error for a bad input (ExprError, ThermoError,
    AccessError, GaloisError): a guard catches all of them through this one
    class, without loading a layer that could not have raised."""


class ExprError(InputError):
    """Base error for expression construction and evaluation."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"unknown identifier '{name}'", line, col)
        self.name = name


class DomainError(ExprError):
    """Numeric evaluation left the real domain (ln of non-positive, 0^-n, ...)."""


class SamplingError(ExprError):
    """Random sampling kept hitting domain errors; zero test is unresolved."""


# A coefficient or an exponent: an int where it is whole, else a Fraction.
Rational = Union[int, Fraction]


def _whole(q: Rational) -> Rational:
    """q as an int where it is whole; an int or a Fraction q is canonical
    after this (int + - * int is an int, so only a result with a Fraction
    operand, or a Fraction built from input, needs it)."""
    if type(q) is int or q.denominator != 1:
        return q
    return q.numerator


def record(cls):
    """Make cls an immutable value class.  Its ``__init__`` stores each of
    its parameters under the parameter's name (one ``vars(self).update``);
    this adds an ``__eq__`` (same class, equal parameter values), a
    ``__hash__`` and a ``__repr__`` over those values, in parameter order,
    and a ``__setattr__`` and ``__delattr__`` that refuse.  A method the
    class defines itself is kept.  The methods are closures over the names
    read from ``__init__``'s code, so defining a record compiles nothing."""
    code = cls.__init__.__code__
    names = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__):
        # a class that defines __eq__ alone has __hash__ = None
        if vars(cls).get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = ("ln", "exp")


@record
class Chart:
    """Ordered coordinate names plus named positive parameters.

    Coordinate order is significant: it fixes the canonical sort of
    monomials and the basis orientation of differential forms.
    """

    def __init__(self, coords: tuple[str, ...], params: tuple[str, ...] = ()):
        coords = tuple(coords)
        params = tuple(params)
        vars(self).update(coords=coords, params=params)
        seen = set()
        for name in coords + params:
            if not _IDENT_RE.match(name):
                raise ExprError(f"bad identifier {name!r}")
            if name in _RESERVED:
                raise ExprError(f"{name!r} is reserved for the function syntax")
            if name in seen:
                raise ExprError(f"duplicate name {name!r}")
            seen.add(name)

    def __eq__(self, other):
        if self is other:  # most comparisons are of one chart with itself
            return True
        if other.__class__ is Chart:
            return self.coords == other.coords and self.params == other.params
        return NotImplemented

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self.coords or name in self.params

    # Convenience constructors for hand-built expressions.
    def var(self, name: str) -> "Expr":
        if name not in self:
            raise ExprError(f"{name!r} is not declared on this chart")
        return Expr(self, (_Term(1, ((name, 1),)),))

    def const(self, value) -> "Expr":
        if type(value) is not int:
            value = _whole(Fraction(value))
        if value == 0:
            return Expr(self, ())
        return Expr(self, (_Term(value, ()),))

    def zero(self) -> "Expr":
        return Expr(self, ())

    def one(self) -> "Expr":
        return self.const(1)


@record
class _Ln:
    def __init__(self, arg: Expr):
        vars(self).update(arg=arg)


@record
class _Exp:
    def __init__(self, arg: Expr):
        vars(self).update(arg=arg)


@record
class _Pow:
    """Opaque power base: a multi-term (or irreducible constant) expression.

    The exponent lives in the factor pair, not here, so equal bases merge
    by exponent addition.
    """

    def __init__(self, base: Expr):
        vars(self).update(base=base)


_Base = Union[str, _Ln, _Exp, _Pow]


class _Term:
    """coeff times the product of its factors, each (base, exponent) in
    canonical order.  coeff and each exponent are Rationals: an int where
    whole, a Fraction where not.

    key is the term's merge and sort key in Expr._build: one _key_entry per
    factor, then _TERM_END.  It depends only on the chart's coordinates, and
    a term stays on charts with the same coordinates, so it is computed at
    most once (by _term_key or by the operation that built the term) and
    then reused.  Terms compare by coeff and factors alone.
    """

    __slots__ = ("coeff", "factors", "key")

    def __init__(self, coeff: Rational, factors: tuple[tuple[_Base, Rational], ...],
                 key: Optional[tuple] = None):
        self.coeff = coeff
        self.factors = factors
        self.key = key

    def __eq__(self, other):
        if not isinstance(other, _Term):
            return NotImplemented
        return self.coeff == other.coeff and self.factors == other.factors

    def __hash__(self):
        return hash((self.coeff, self.factors))

    def __repr__(self):
        return f"_Term({self.coeff!r}, {self.factors!r})"


def _base_key(base: _Base, chart: Chart):
    if isinstance(base, str):
        if base in chart.coords:
            return (0, chart.index(base))
        return (1, base)
    if isinstance(base, _Ln):
        return (2, 0, base.arg.key())
    if isinstance(base, _Exp):
        return (2, 1, base.arg.key())
    return (3, base.base.key())


# Ends every term's sort key; it sorts after any factor entry (0, ...).
_TERM_END = ((1,),)


def _key_entry(base_key, x: Rational) -> tuple:
    """The key entry of a factor with exponent x: (0, base_key, -x)."""
    return (0, base_key, -x)


def _term_key(t: _Term, chart: Chart) -> tuple:
    k = t.key
    if k is None:
        k = t.key = tuple(
            _key_entry(_base_key(b, chart), x) for b, x in t.factors
        ) + _TERM_END
    return k


def _pieces(terms: Iterable[_Term], chart: Chart):
    """Each term as a piece of Expr._build: (n, d, factors, key), its
    coefficient n/d as an int pair with d > 0, and its key."""
    for t in terms:
        n, d = t.coeff.as_integer_ratio()
        yield n, d, t.factors, _term_key(t, chart)


def _mul_terms(p1: tuple, p2: tuple) -> Optional[tuple]:
    """The product of two pieces as one piece: the coefficient (n1*n2,
    d1*d2), unreduced, and the merge of their sorted factors and keys; None
    where a base of both is a _Pow (_monomial decides what the summed
    exponent makes of it)."""
    n1, d1, f1, k1 = p1
    n2, d2, f2, k2 = p2
    if not f1:
        return n1 * n2, d1 * d2, f2, k2
    if not f2:
        return n1 * n2, d1 * d2, f1, k1
    m1, m2 = len(f1), len(f2)
    factors = []
    keys = []
    i = j = 0
    while i < m1 and j < m2:
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
    if i < m1:
        factors.extend(f1[i:])
        keys.extend(k1[i:m1])
    elif j < m2:
        factors.extend(f2[j:])
        keys.extend(k2[j:m2])
    keys.append(_TERM_END[0])
    return n1 * n2, d1 * d2, tuple(factors), tuple(keys)


def _square_pairs(pieces: list):
    """The pairs of pieces whose products sum to the square of their sum:
    each piece with itself, and each pair i < j once with twice piece i's
    numerator, since piece j times piece i is the same product (_mul_terms
    merges symmetrically and _monomial sums exponents by key)."""
    for i, p1 in enumerate(pieces):
        yield p1, p1
        n, d, factors, key = p1
        twice = (2 * n, d, factors, key)
        for p2 in pieces[i + 1:]:
            yield twice, p2


def _products(chart: Chart, pairs):
    """The piece of each pair's product, one at a time, so that Expr._build
    merges it before the next is made; a pair that shares a _Pow base
    gives the pieces of its _monomial."""
    for p1, p2 in pairs:
        p = _mul_terms(p1, p2)
        if p is None:
            n1, d1, f1, _ = p1
            n2, d2, f2, _ = p2
            mono = Expr._monomial(chart, Fraction(n1 * n2, d1 * d2), f1 + f2)
            yield from _pieces(mono.terms, chart)
        else:
            yield p


def _expr_key(e: "Expr"):
    return tuple(
        (
            tuple(
                (_base_key(b, e.chart), (x.numerator, x.denominator))
                for b, x in t.factors
            ),
            (t.coeff.numerator, t.coeff.denominator),
        )
        for t in e.terms
    )


def _nth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a non-negative integer, or None.

    Integer Newton from an upper bound, 2^ceil(bits/k), descends to the floor
    of the root at any size (a float first guess misses perfect powers past
    about 2^106).  A root r >= 2 has r^k >= 2^k, so an n >= 2 of at most k
    bits has none, and r^(k-1) stays within n's size."""
    if n < 2:
        return n
    bits = n.bit_length()
    if bits <= k:
        return None
    r = 1 << -(-bits // k)
    while True:
        step = ((k - 1) * r + n // r ** (k - 1)) // k
        if step >= r:
            break
        r = step
    return r if r**k == n else None


# Powers are checked against these budgets before any work is done: an
# integer power of a sum expands to at most MAX_EXPANSION_TERMS terms (the
# slowest such expansion, of a two-term sum, takes seconds), and a power of
# a constant has at most MAX_POWER_BITS bits in its numerator or denominator.
# Numeric evaluation computes an integer power of a rational value exactly
# only within MAX_POWER_BITS, and in floating point past it.
MAX_EXPANSION_TERMS = 1000
MAX_POWER_BITS = 10_000


def _const_pow(c: Rational, q: Rational) -> tuple[Rational, Optional[Rational]]:
    """c**q split into (exact rational part, leftover base or None); c ≠ 0.

    An int c to a negative int q goes through Fraction, as int ** -n is a
    float."""
    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
    # |c^q| needs at most |q|·bits bits; ±1 stays ±1 whatever q is
    if bits > 1 and abs(q.numerator) * bits > MAX_POWER_BITS * q.denominator:
        raise ExprError(
            f"constant power ({c})^({q}) exceeds the budget of {MAX_POWER_BITS} bits"
        )
    if type(q) is int:
        return _whole(c**q if q > 0 else Fraction(c) ** q), None
    if c < 0:
        raise ExprError("negative constant under a fractional power")
    pn = _nth_root(c.numerator, q.denominator)
    pd = _nth_root(c.denominator, q.denominator)
    if pn is not None and pd is not None:
        return _whole(Fraction(pn, pd) ** q.numerator), None
    return 1, c


class Expr:
    """Canonical immutable symbolic expression; construct via Chart helpers,
    parse(), or arithmetic on existing expressions."""

    __slots__ = ("chart", "terms", "_key", "_str")

    def __init__(self, chart: Chart, terms: tuple[_Term, ...]):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_str", None)

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    # -- canonical identity ------------------------------------------------

    def key(self):
        if self._key is None:
            object.__setattr__(self, "_key", (_expr_key(self)))
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self.chart == other.chart and self.key() == other.key()

    def __hash__(self):
        return hash((self.chart, self.key()))

    # -- queries -----------------------------------------------------------

    def is_zero_expr(self) -> bool:
        return not self.terms

    def as_constant(self) -> Optional[Rational]:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and not self.terms[0].factors:
            return self.terms[0].coeff
        return None

    def free_symbols(self) -> frozenset[str]:
        out: set[str] = set()

        def walk(e: "Expr"):
            for t in e.terms:
                for b, _ in t.factors:
                    if isinstance(b, str):
                        out.add(b)
                    elif isinstance(b, (_Ln, _Exp)):
                        walk(b.arg)
                    else:
                        walk(b.base)

        walk(self)
        return frozenset(out)

    # -- construction core ---------------------------------------------------

    @staticmethod
    def _build(chart: Chart, pieces: Iterable[tuple]) -> "Expr":
        """Merge like terms and sort them into canonical order.

        Each piece is a term as (n, d, factors, key) (_pieces, _mul_terms):
        its coefficient n/d, unreduced, with d > 0.  Pieces with one key
        merge as int pairs: equal denominators add their numerators, others
        go over their lcm, through one gcd.  Each surviving term gets one
        coefficient at the end, an int where it is whole, else one reduced
        Fraction.  The merge key doubles as the sort key: factors by base,
        higher exponent first, and a term after any term whose factors
        extend it.
        """
        merged: dict = {}
        for n, d, factors, k in pieces:
            old = merged.get(k)
            if old is None:
                merged[k] = [n, d, factors]
            elif old[1] == d:
                old[0] += n
            else:
                od = old[1]
                g = math.gcd(od, d)
                old[0] = old[0] * (d // g) + n * (od // g)
                old[1] = od // g * d
        terms = []
        for k in sorted(merged):
            n, d, factors = merged[k]
            if n:
                terms.append(_Term(n if d == 1 else _whole(Fraction(n, d)), factors, k))
        return Expr(chart, tuple(terms))

    @staticmethod
    def _sum(chart: Chart, exprs: Iterable["Expr"]) -> "Expr":
        """The sum of expressions on chart, merged and sorted once."""
        terms = itertools.chain.from_iterable(e.terms for e in exprs)
        return Expr._build(chart, _pieces(terms, chart))

    @staticmethod
    def _monomial(chart: Chart, coeff: Rational, pairs) -> "Expr":
        """One coeff ≠ 0 times a product of powers, normalized (may expand);
        coeff and the exponents may be any Rationals, whole Fractions too."""
        fmap: dict = {}
        keyed: dict = {}
        for b, x in pairs:
            k = _base_key(b, chart)
            keyed[k] = b
            fmap[k] = fmap.get(k, 0) + x
        factors = []
        expansions = []
        for k in sorted(fmap):
            b, x = keyed[k], _whole(fmap[k])
            if x == 0:
                continue
            if isinstance(b, _Pow):
                inner = b.base.as_constant()
                if inner is not None:
                    part, left = _const_pow(inner, x)
                    coeff *= part
                    if left is not None:
                        factors.append((_Pow(b.base.chart.const(left)), x))
                    continue
                if type(x) is int and x > 0:
                    expansions.append(b.base**x)
                    continue
            factors.append((b, x))
        out = Expr(chart, (_Term(_whole(coeff), tuple(factors)),))
        for ex in expansions:
            out = out * ex
        return out

    def _lift(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ExprError("chart mismatch between expressions")
            return other
        return self.chart.const(other)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Expr._sum(self.chart, (self, other))

    __radd__ = __add__

    def __neg__(self):
        return Expr(
            self.chart, tuple(_Term(-t.coeff, t.factors, t.key) for t in self.terms)
        )

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def _scaled(self, c: Rational) -> "Expr":
        """self times the coefficient c of a constant term, never 0 in
        canonical form: scaling moves no term's key, so the terms keep their
        keys and order."""
        if c == 1:
            return self
        chart = self.chart
        return Expr(chart, tuple(
            _Term(_whole(t.coeff * c), t.factors, _term_key(t, chart))
            for t in self.terms
        ))

    def __mul__(self, other):
        other = self._lift(other)
        if len(other.terms) == 1 and not other.terms[0].factors:
            return self._scaled(other.terms[0].coeff)
        if len(self.terms) == 1 and not self.terms[0].factors:
            return other._scaled(self.terms[0].coeff)
        chart = self.chart
        left = list(_pieces(self.terms, chart))
        if other is self:
            pairs = _square_pairs(left)
        else:
            pairs = itertools.product(left, _pieces(other.terms, chart))
        return Expr._build(chart, _products(chart, pairs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        c = other.as_constant()
        if c is not None:
            if c == 0:
                raise ExprError("division by zero constant")
            return self._scaled(_whole(Fraction(1, c)))
        return self * other ** -1

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, exponent):
        q = exponent if type(exponent) is int else _whole(Fraction(exponent))
        chart = self.chart
        if q == 0:
            return chart.one()
        if q == 1:
            return self
        if not self.terms:
            if q < 0:
                raise ExprError("zero raised to a negative power")
            return chart.zero()
        if len(self.terms) == 1:
            t = self.terms[0]
            part, left = _const_pow(t.coeff, q)
            pairs = [(b, x * q) for b, x in t.factors]
            if left is not None:
                pairs.append((_Pow(chart.const(left)), q))
            return Expr._monomial(chart, part, pairs)
        if type(q) is int and q > 0:
            n = len(self.terms)
            if math.comb(n + q - 1, n - 1) > MAX_EXPANSION_TERMS:
                raise ExprError(
                    f"expanding a sum of {n} terms to the power {q} exceeds "
                    f"the budget of {MAX_EXPANSION_TERMS} terms"
                )
            half = self ** (q // 2)
            out = half * half
            if q % 2:
                out = out * self
            return out
        return Expr._monomial(chart, 1, [(_Pow(self), q)])

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Expr":
        """Exact partial derivative with respect to a chart coordinate."""
        if name not in self.chart.coords:
            raise ExprError(f"{name!r} is not a coordinate of this chart")
        chart = self.chart
        pieces = []
        for t in self.terms:
            for i, (b, x) in enumerate(t.factors):
                if isinstance(b, str):
                    if b != name:
                        continue
                    # d/dname of name^x: the term with exponent x - 1, built
                    # and keyed directly (the other factors are canonical)
                    n, d = t.coeff.as_integer_ratio()
                    xn, xd = x.as_integer_ratio()
                    k = _term_key(t, chart)
                    x1 = x - 1
                    if x1:
                        factors = t.factors[:i] + ((b, x1),) + t.factors[i + 1:]
                        key = k[:i] + (_key_entry(k[i][1], x1),) + k[i + 1:]
                    else:
                        factors = t.factors[:i] + t.factors[i + 1:]
                        key = k[:i] + k[i + 1:]
                    pieces.append((n * xn, d * xd, factors, key))
                    continue
                db = self._base_diff(b, name)
                if db.is_zero_expr():
                    continue
                rest = Expr._monomial(
                    chart,
                    t.coeff * x,
                    [p for j, p in enumerate(t.factors) if j != i]
                    + [(b, x - 1)],
                )
                pieces.extend(_pieces((rest * db).terms, chart))
        return Expr._build(chart, pieces)

    def _base_diff(self, b: _Base, name: str) -> "Expr":
        """Derivative of an ln, exp or opaque power base."""
        chart = self.chart
        if isinstance(b, _Ln):
            return b.arg.diff(name) * b.arg ** -1
        if isinstance(b, _Exp):
            return b.arg.diff(name) * Expr._monomial(chart, 1, [(b, 1)])
        return b.base.diff(name)

    # -- substitution and evaluation ------------------------------------------

    def subs(self, mapping: Mapping[str, "Expr"], chart: Optional[Chart] = None) -> "Expr":
        """Substitute expressions for symbols, optionally landing on a new chart.

        Unmapped symbols must exist on the output chart (parameters usually
        pass through by name).
        """
        out_chart = chart if chart is not None else self.chart
        vals = []
        for t in self.terms:
            # the unmapped symbols pass through as one monomial, multiplied
            # in last (a string factor meets no _Pow, so the order of products
            # cannot change the result, and errors keep the factor order)
            kept = []
            val = None
            for b, x in t.factors:
                if isinstance(b, str) and b not in mapping:
                    if b not in out_chart:
                        raise ExprError(f"{b!r} is not declared on this chart")
                    kept.append((b, x))
                    continue
                p = self._base_subs(b, mapping, out_chart) ** x
                val = p if val is None else val * p
            mono = Expr._monomial(out_chart, t.coeff, kept)
            val = mono if val is None else mono * val
            if len(self.terms) == 1:
                return val  # a product is canonical already
            vals.append(val)
        return Expr._sum(out_chart, vals)

    def _base_subs(self, b: _Base, mapping, out_chart: Chart) -> "Expr":
        """What a mapped symbol or an ln, exp or opaque power base becomes."""
        if isinstance(b, str):
            e = mapping[b]
            if e.chart != out_chart:
                raise ExprError("substituted expression is on the wrong chart")
            return e
        if isinstance(b, _Ln):
            return ln(b.arg.subs(mapping, out_chart))
        if isinstance(b, _Exp):
            return exp(b.arg.subs(mapping, out_chart))
        return b.base.subs(mapping, out_chart)

    def evaluate(self, env: Mapping[str, Union[Fraction, float, int]]):
        """Numeric value at a point: exact (a Fraction) when the tree allows
        it, else a float.

        The value, with its type and its bits, is that of folding each
        term's coefficient and factor powers left to right, and then the
        terms onto Fraction(0), over Fractions.  While that fold is exact, a
        term's product and the sum are unreduced int pairs instead (the
        sum's denominator is the lcm of the terms' denominators, not their
        product), and one Fraction is built at the end.  Where a factor
        power is a float (_inexact_pow), the term goes on from float(its
        exact part), n / d, which is float(Fraction(n, d)) to the bit and
        raises the same OverflowError; so does the sum at its first float
        term.  An int coefficient that meets a float factor first converts
        as int * float does, as in the fold.
        """
        sn, sd = 0, 1  # the exact sum of the terms so far, sd > 0
        total = None  # the sum, from its first float term on
        for t in self.terms:
            c = t.coeff
            n, d = (c, 1) if type(c) is int else c.as_integer_ratio()
            val = None  # the term's product, from its first float factor on
            first = True  # no factor folded yet: the product is c itself
            for b, x in t.factors:
                v = self._base_value(b, env)
                p = _exact_pow(v, x)
                if p is None:
                    f = _inexact_pow(v, x)
                    val = val * f if val is not None else (c if first else n / d) * f
                elif val is None:
                    n *= p[0]
                    d *= p[1]
                else:
                    val = val * (p[0] / p[1])
                first = False
            if val is not None:
                total = sn / sd + val if total is None else total + val
            elif total is not None:
                total = total + (c if first else n / d)
            elif d == sd:
                sn += n
            else:
                g = math.gcd(sd, d)
                sn = sn * (d // g) + n * (sd // g)
                sd = sd // g * d
        return Fraction(sn, sd) if total is None else total

    def _base_value(self, b: _Base, env):
        if isinstance(b, str):
            try:
                return env[b]
            except KeyError:
                raise ExprError(f"no value bound for symbol {b!r}") from None
        if isinstance(b, _Ln):
            return _ln_value(b.arg.evaluate(env))
        if isinstance(b, _Exp):
            return _exp_value(b.arg.evaluate(env))
        return b.base.evaluate(env)

    def compile(self, params: Mapping[str, Union[Fraction, float, int]], var: str):
        """The function v ↦ self.evaluate({**params, var: v}) on a float v,
        built once.

        It returns what that call returns, of the same type and to the bit,
        and raises the same errors, when it runs and never when it is built.
        What does not depend on var is computed here, once: a term's leading
        run of such factors folds into its coefficient (evaluate multiplies
        left to right, so only a leading run may fold), later ones become
        constant factors, and the terms before the first one that depends on
        var are summed.  Those constants are kept as float: every value that
        depends on a float v is a float, and Python computes a rational c
        times or plus a float x as float(c) times or plus x.  So a Fraction v
        does not get evaluate's exact value.
        """
        return _compile_sum(self, params, var)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        if self._str is None:
            object.__setattr__(self, "_str", self._render())
        return self._str

    __repr__ = __str__

    def _render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, t in enumerate(self.terms):
            body = self._render_term(t)
            if i == 0:
                parts.append(body if t.coeff > 0 else "-" + body)
            else:
                parts.append((" + " if t.coeff > 0 else " - ") + body)
        return "".join(parts)

    def _render_term(self, t: _Term) -> str:
        mag = abs(t.coeff)
        pieces = [self._render_factor(b, x) for b, x in t.factors]
        if not pieces:
            return str(mag)
        if mag != 1:
            pieces.insert(0, str(mag))
        return "*".join(pieces)

    def _render_factor(self, b: _Base, x: Rational) -> str:
        if isinstance(b, str):
            base = b
        elif isinstance(b, _Ln):
            base = f"ln({b.arg})"
        elif isinstance(b, _Exp):
            base = f"exp({b.arg})"
        else:
            base = f"({b.base})"
        if x == 1:
            return base
        if x.denominator == 1 and x > 0:
            return f"{base}^{x}"
        return f"{base}^({x})"


# The domain checks of numeric evaluation, shared by Expr.evaluate and the
# functions Expr.compile builds.


def _ln_value(v):
    if v <= 0:
        raise DomainError("ln of a non-positive value")
    return math.log(v)


def _exp_value(v):
    try:
        return math.exp(v)
    except OverflowError:
        raise DomainError("exp overflow") from None


def _exact_pow(base, q: Rational) -> Optional[tuple[int, int]]:
    """base ** q as an unreduced int pair (numerator, denominator > 0) for a
    rational base and an int q whose result has at most MAX_POWER_BITS bits
    (as in _const_pow); None for any other, which _inexact_pow takes."""
    if type(q) is not int or not isinstance(base, (int, Fraction)):
        return None
    n, d = (base, 1) if type(base) is int else base.as_integer_ratio()
    bits = max(n.bit_length(), d.bit_length())
    if bits > 1 and abs(q) * bits > MAX_POWER_BITS:
        return None
    if q == 1:
        return n, d
    if q >= 0:
        return n**q, d**q
    if n == 0:
        raise DomainError("zero base with negative exponent")
    if n < 0:
        n, d = -n, -d
    return d**-q, n**-q


def _pow_value(base, q: Rational):
    """base ** q: exact (a Fraction) where _exact_pow allows it, else a float."""
    p = _exact_pow(base, q)
    return _inexact_pow(base, q) if p is None else Fraction(*p)


def _inexact_pow(base, q: Rational) -> float:
    """base ** q in floating point, where _exact_pow gives None."""
    if type(q) is int and isinstance(base, (int, Fraction)):
        base = Fraction(base)
        if q < 0:
            base, q = 1 / base, -q
        # q > 0 is whole, so a base past the float range has a power past it
        try:
            fb = float(base)
        except OverflowError:
            raise DomainError("power overflow") from None
        return _float_pow(fb, q)
    return _float_pow(float(base), q)


def _float_pow(fb: float, q: Rational, qf: Optional[float] = None) -> float:
    """fb ** q in floating point; qf is float(q) when the caller has it."""
    if fb == 0.0:
        if q < 0:
            raise DomainError("zero base with negative exponent")
        return 0.0 if q > 0 else 1.0
    try:
        if fb < 0.0:
            if q.denominator == 1:
                return fb ** int(q)
            raise DomainError("negative base with fractional exponent")
        return fb ** (float(q) if qf is None else qf)
    except OverflowError:
        raise DomainError("power overflow") from None


# ---------------------------------------------------------------------------
# Compiled evaluation (Expr.compile)
# ---------------------------------------------------------------------------

# What computing a part of an expression ahead of time can raise; such a part
# is left to run with the compiled function, which then raises it in turn.
_EVAL_ERRORS = (ExprError, ArithmeticError)


def _as_float(c):
    """float(c), or c itself where that overflows, so that the operation it
    meets raises as it would on c."""
    try:
        return float(c)
    except OverflowError:
        return c


def _depends(b: _Base, var: str) -> bool:
    if isinstance(b, str):
        return b == var
    return var in (b.base if isinstance(b, _Pow) else b.arg).free_symbols()


def _compile_sum(e: Expr, params, var: str):
    """v ↦ e.evaluate({**params, var: v}) for a float v."""
    total = Fraction(0)
    parts = []  # (constant, None) or (None, function of v), in term order
    for t in e.terms:
        value, fn = _compile_term(e, t, params, var)
        if fn is None and not parts:
            try:
                total = total + value
                continue
            except _EVAL_ERRORS:
                pass
        parts.append((None, fn) if fn else (_as_float(value), None))
    if not parts:
        return lambda v: total
    start = _as_float(total)

    def run(v):
        out = start
        for k, f in parts:
            out = out + (k if f is None else f(v))
        return out

    return run


def _compile_term(e: Expr, t: _Term, params, var: str):
    """(value, None) for a term computed here, else (None, function of v)."""
    c = t.coeff
    n, d = (c, 1) if type(c) is int else c.as_integer_ratio()
    val = None  # as in Expr.evaluate
    factors = t.factors
    i = 0
    for b, x in factors:
        if _depends(b, var):
            break
        try:
            v = e._base_value(b, params)
            p = _exact_pow(v, x)
            if p is None:
                f = _inexact_pow(v, x)
                val = val * f if val is not None else (c if i == 0 else n / d) * f
            elif val is None:
                n *= p[0]
                d *= p[1]
            else:
                val = val * (p[0] / p[1])
        except _EVAL_ERRORS:
            break
        i += 1
    if val is None:
        val = c if i == 0 else Fraction(n, d)
    if i == len(factors):
        return val, None
    steps = [_compile_factor(e, b, x, params, var) for b, x in factors[i:]]
    start = _as_float(val)

    def run(v):
        out = start
        for k, f in steps:
            out = out * (k if f is None else f(v))
        return out

    return None, run


def _compile_factor(e: Expr, b: _Base, x: Rational, params, var: str):
    """(b ** x, None) when it is computed here, else (None, function of v)."""
    if not _depends(b, var):
        try:
            p = _pow_value(e._base_value(b, params), x)
            return _as_float(p), None
        except _EVAL_ERRORS:
            return None, lambda v: _pow_value(e._base_value(b, params), x)
    try:
        xf = float(x)
    except OverflowError:
        xf = None
    if isinstance(b, str):  # var itself
        return None, lambda v: _float_pow(v, x, xf)
    base = _compile_base(b, params, var)
    return None, lambda v: _float_pow(base(v), x, xf)


def _compile_base(b: _Base, params, var: str):
    if isinstance(b, _Pow):
        return _compile_sum(b.base, params, var)
    arg = _compile_sum(b.arg, params, var)
    if isinstance(b, _Ln):
        return lambda v: _ln_value(arg(v))
    return lambda v: _exp_value(arg(v))


def ln(e: Expr) -> Expr:
    c = e.as_constant()
    if c is not None and c <= 0:
        raise ExprError(f"ln of a non-positive constant: ln({c})")
    if c == 1:
        return e.chart.zero()
    return Expr._monomial(e.chart, 1, [(_Ln(e), 1)])


def exp(e: Expr) -> Expr:
    if e.is_zero_expr():
        return e.chart.one()
    return Expr._monomial(e.chart, 1, [(_Exp(e), 1)])


# ---------------------------------------------------------------------------
# Zero testing
# ---------------------------------------------------------------------------


class ZeroVerdict(Enum):
    CERTAIN_ZERO = "certain-zero"
    CERTAIN_NONZERO = "certain-nonzero"
    PROBABLY_ZERO = "probably-zero"

    @property
    def zero(self) -> bool:
        return self is not ZeroVerdict.CERTAIN_NONZERO

    @property
    def certain(self) -> bool:
        return self is not ZeroVerdict.PROBABLY_ZERO


MAX_SAMPLES = 10_000  # the most points a zero test draws


@record
class ZeroTestConfig:
    def __init__(self, samples: int = 16, tol: float = 1e-9, seed: int = 0):
        vars(self).update(samples=samples, tol=tol, seed=seed)
        if samples < 1:
            raise ExprError(f"samples must be at least 1, got {samples}")
        if samples > MAX_SAMPLES:
            raise ExprError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
        if not tol >= 0:  # also refuses nan, which no sample would exceed
            raise ExprError(f"tol must be non-negative, got {tol}")
        if tol == math.inf:  # which every sample would pass
            raise ExprError(f"tol must be finite, got {tol}")


# bounds of the zero tests' sample points and of their domain-error redraws
MAX_NUMERATOR = 1000
MAX_DENOMINATOR = 1000
SAMPLE_HIGH = 10
MAX_RETRIES = 100

DEFAULT_ZERO_CONFIG = ZeroTestConfig()


@record
class ZeroResult:
    def __init__(
        self, verdict: ZeroVerdict, witness: Optional[dict] = None, value: Optional[float] = None
    ):
        vars(self).update(verdict=verdict, witness=witness, value=value)

    @property
    def zero(self) -> bool:
        return self.verdict.zero

    @property
    def certain(self) -> bool:
        return self.verdict.certain


def _purely_rational(e: Expr) -> bool:
    return all(
        isinstance(b, str) for t in e.terms for b, _ in t.factors
    )


def stable_rng(e: Expr, seed: int) -> random.Random:
    """RNG seeded from the canonical form, stable across runs and processes."""
    from hashlib import sha256  # only sampled zero tests load it

    digest = sha256(
        f"{seed}|{e.chart.coords}|{e.chart.params}|{e}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_point(rng: random.Random, names) -> dict:
    """Uniform positive rational sample point with bounded numerator and
    denominator (rejection keeps values inside (0, SAMPLE_HIGH])."""
    point = {}
    for name in sorted(names):
        while True:
            num = rng.randint(1, MAX_NUMERATOR)
            den = rng.randint(1, MAX_DENOMINATOR)
            if num <= SAMPLE_HIGH * den:
                break
        point[name] = Fraction(num, den)
    return point


def sample_values(e: Expr, config: ZeroTestConfig):
    """Yield config.samples pairs (point, float value of e) at seeded random
    points; a point outside e's domain, or where the value overflows a
    float, is redrawn, up to MAX_RETRIES times."""
    names = e.free_symbols()
    rng = stable_rng(e, config.seed)
    good = 0
    retries = 0
    while good < config.samples:
        point = sample_point(rng, names)
        try:
            value = float(e.evaluate(point))
        except (DomainError, OverflowError):
            retries += 1
            if retries > MAX_RETRIES:
                raise SamplingError(
                    f"zero test on {e} failed: {retries} domain errors"
                ) from None
            continue
        good += 1
        yield point, value


def is_zero(e: Expr, config: ZeroTestConfig = DEFAULT_ZERO_CONFIG) -> ZeroResult:
    """Decide whether an expression is identically zero on the positive domain.

    Canonically empty expressions are certainly zero; a nonzero canonical
    form built purely from symbol powers is certainly nonzero (distinct
    monomials are independent).  Anything involving ln/exp or opaque powers
    falls back to sampling at random rational points.
    """
    if not e.terms:
        return ZeroResult(ZeroVerdict.CERTAIN_ZERO)
    if _purely_rational(e):
        return ZeroResult(ZeroVerdict.CERTAIN_NONZERO)
    for point, value in sample_values(e, config):
        if abs(value) > config.tol:
            return ZeroResult(ZeroVerdict.CERTAIN_NONZERO, point, value)
    return ZeroResult(ZeroVerdict.PROBABLY_ZERO)


class Confidence(Enum):
    CERTAIN = "certain"
    SAMPLED = "sampled"


def first_nonzero(
    items: Iterable[tuple[object, Expr]],
    config: ZeroTestConfig,
    confidence: Confidence = Confidence.CERTAIN,
):
    """(witness, confidence) for (key, coefficient) pairs tested in order.

    The first certainly nonzero coefficient is the witness (key, coefficient)
    and the verdict is CERTAIN, whatever came before.  When every coefficient
    vanishes the witness is None and the verdict keeps the confidence so far,
    lowered to SAMPLED if any zero test sampled.  Nothing after the witness
    is tested, nor built when items is a generator.
    """
    for key, coeff in items:
        r = is_zero(coeff, config)
        if r.verdict is ZeroVerdict.CERTAIN_NONZERO:
            return (key, coeff), Confidence.CERTAIN
        if not r.certain:
            confidence = Confidence.SAMPLED
    return None, confidence


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])"
)


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if not m.lastgroup == "ws":
            tokens.append((m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


# Parentheses and ln/exp calls nest at most this deep: the parser recurses
# once per level, so deeper input would exhaust the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.chart = chart
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        _, _, line, col = self.peek()
        raise ParseError(message, line, col)

    def accept_op(self, *ops) -> Optional[str]:
        kind, lexeme, _, _ = self.peek()
        if kind == "op" and lexeme in ops:
            self.advance()
            return lexeme
        return None

    def expect_op(self, op: str):
        if not self.accept_op(op):
            self.error(f"expected {op!r}")

    def parse(self) -> Expr:
        e = self.expr()
        kind, lexeme, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {lexeme!r} after expression", line, col)
        return e

    def nested(self, line: int, col: int) -> Expr:
        """The expression inside one more level of parentheses or a call."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", line, col)
        self.depth += 1
        e = self.expr()
        self.depth -= 1
        return e

    def expr(self) -> Expr:
        """A sum of terms, merged and sorted once for all of them."""
        negate = bool(self.accept_op("-"))
        e = self.term()
        if negate:
            e = -e
        op = self.accept_op("+", "-")
        if not op:
            return e
        summands = [e]
        while op:
            rhs = self.term()
            summands.append(rhs if op == "+" else -rhs)
            op = self.accept_op("+", "-")
        return Expr._sum(self.chart, summands)

    def term(self) -> Expr:
        e = self.factor()
        while True:
            op = self.accept_op("*", "/")
            if not op:
                return e
            _, _, line, col = self.peek()
            rhs = self.factor()
            if op == "*":
                e = e * rhs
            else:
                if rhs.as_constant() == 0:
                    raise ParseError("division by zero", line, col)
                e = e / rhs

    def factor(self) -> Expr:
        e = self.base()
        if self.accept_op("^"):
            return e ** self.exponent()
        return e

    def exponent(self) -> Rational:
        """A signed integer, or in parentheses a signed rational: x^2/3 is
        (x^2)/3, and x^(2/3) the power."""
        parens = bool(self.accept_op("("))
        sign = -1 if self.accept_op("-") else 1
        kind, lexeme, _, _ = self.peek()
        if kind != "num":
            self.error("expected a rational exponent")
        self.advance()
        num = int(lexeme)
        den = 1
        if parens and self.accept_op("/"):
            kind, lexeme, line, col = self.peek()
            if kind != "num":
                self.error("expected an integer denominator")
            self.advance()
            den = int(lexeme)
            if den == 0:
                raise ParseError("zero denominator in exponent", line, col)
        if parens:
            self.expect_op(")")
        return sign * num if den == 1 else _whole(Fraction(sign * num, den))

    def base(self) -> Expr:
        kind, lexeme, line, col = self.advance()
        if kind == "num":
            return self.chart.const(int(lexeme))
        if kind == "ident":
            if lexeme in _RESERVED:
                self.expect_op("(")
                arg = self.nested(line, col)
                self.expect_op(")")
                return ln(arg) if lexeme == "ln" else exp(arg)
            if lexeme not in self.chart:
                raise UnknownSymbolError(lexeme, line, col)
            return self.chart.var(lexeme)
        if kind == "op" and lexeme == "(":
            e = self.nested(line, col)
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected {lexeme!r}", line, col)


def parse(text: str, chart: Chart) -> Expr:
    """Parse an expression string over the chart's coordinates and parameters."""
    return _Parser(text, chart).parse()
