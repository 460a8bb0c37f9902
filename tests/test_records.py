"""The record classes against frozen dataclasses of the same fields.

``expr.record`` gives each immutable value class of entropykit the methods
a frozen dataclass would have.  Here every decorated class gets a
``dataclasses.make_dataclass`` twin with its fields, in its order, and the
two must agree at seeded field values on ==, !=, hash, repr and refused
assignment and deletion.  Each class's own validation is checked by its
messages.
"""

import math
import random
from dataclasses import make_dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from entropykit import access, expr, forms, galois, thermo
from entropykit.access import AccessError, AxiomConfig, EntropyFn, StateSpace
from entropykit.expr import MAX_SAMPLES, Chart, ExprError, ZeroTestConfig
from entropykit.forms import SmoothMap
from entropykit.galois import MapError, MonotoneMap, Poset
from entropykit.thermo import LegendreSpec, PathSegment, ProcessPath, ThermoChart, ThermoError


def is_record(cls) -> bool:
    return getattr(cls.__setattr__, "__qualname__", "") == "record.<locals>.__setattr__"


RECORDS = [
    cls
    for module in (expr, forms, thermo, access, galois)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__ and is_record(cls)
]


def fields(cls) -> tuple:
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]


def test_every_former_dataclass_is_a_record():
    # all of expr 6, forms 5, thermo 12, access 9 and galois 6; Document is a
    # plain mutable class
    assert len(RECORDS) == 38
    assert "Document" not in {cls.__name__ for cls in RECORDS}


def generic(rng):
    """A seeded hashable value for a field whose class checks nothing."""
    return rng.choice([
        lambda: rng.randint(-5, 5),
        lambda: F(rng.randint(-9, 9), rng.randint(1, 9)),
        lambda: rng.choice(["a", "b", "OK", ""]),
        lambda: rng.random() < 0.5,
        lambda: None,
        lambda: (rng.randint(0, 3), "s"),
        lambda: frozenset({rng.randint(0, 3)}),
        lambda: rng.choice([0.5, 1e-9, -0.0]),
    ])()


def chart(rng, coords=("x", "y", "z")):
    return Chart(tuple(rng.sample(coords, rng.randint(1, len(coords)))),
                 rng.choice([(), ("a",), ("a", "b")]))


def expression(rng, ch):
    name = rng.choice(ch.coords)
    return ch.var(name) * rng.randint(1, 3) + ch.const(F(rng.randint(0, 4), rng.randint(1, 3)))


def smooth_map(rng):
    source, target = chart(rng), chart(rng, ("u", "v"))
    return dict(source=source, target=target,
                components={n: expression(rng, source) for n in target.coords})


def thermo_chart(rng):
    pairs = [("T", "S", rng.choice([1, -1])), ("p", "V", rng.choice([1, -1]))][:rng.randint(1, 2)]
    return dict(energy="U", pairs=tuple(pairs), params=rng.choice([(), ("R",)]),
                heat=rng.choice([None, *range(len(pairs))]))


def legendre_spec(rng):
    base = Chart(("S", "V"))
    if rng.random() < 0.5:
        return dict(potential=expression(rng, base), equations=None)
    return dict(potential=rng.choice([None, expression(rng, base)]),
                equations={"T": expression(rng, base), "p": expression(rng, base)})


def path_segment(rng):
    t = Chart(("t",))
    return dict(components={"S": expression(rng, t), "V": expression(rng, t)},
                claim=rng.choice([None, "adiabatic"]))


def process_path(rng):
    return dict(base_chart=Chart(("S", "V")),
                segments=tuple(PathSegment(**path_segment(rng)) for _ in range(rng.randint(1, 3))))


def state_space(rng):
    n = rng.randint(1, 3)
    return dict(label=rng.choice("GH"), coords=tuple("uvw"[:n]),
                states={f"s{k}": tuple(rng.randint(0, 9) for _ in range(n))
                        for k in range(rng.randint(1, 4))},
                scalable=rng.random() < 0.5)


def entropy_fn(rng):
    return dict(space=rng.choice("GH"),
                values={f"s{k}": F(rng.randint(0, 9), rng.randint(1, 4)) for k in range(3)},
                method=rng.choice(["rank", "grid"]), degenerate=rng.random() < 0.5,
                grid_step=rng.choice([None, F(1, 64)]))


def monotone_map(rng):
    chain = Poset(range(4), [(i, i + 1) for i in range(3)])
    top = rng.randint(0, 3)
    return dict(source=chain, target=chain, mapping={i: min(i, top) for i in range(4)})


# the classes that check or normalise their fields get values they accept
FACTORIES = {
    "Chart": lambda rng: dict(coords=chart(rng).coords, params=chart(rng).params),
    "_Ln": lambda rng: dict(arg=expression(rng, chart(rng))),
    "_Exp": lambda rng: dict(arg=expression(rng, chart(rng))),
    "_Pow": lambda rng: dict(base=expression(rng, chart(rng))),
    "ZeroTestConfig": lambda rng: dict(
        samples=rng.randint(1, MAX_SAMPLES), tol=rng.choice([0.0, 1e-9, 0.5]),
        seed=rng.randint(0, 9)),
    "SmoothMap": smooth_map,
    "ThermoChart": thermo_chart,
    "LegendreSpec": legendre_spec,
    "PathSegment": path_segment,
    "ProcessPath": process_path,
    "StateSpace": state_space,
    "AxiomConfig": lambda rng: dict(
        lambda_grid=tuple(F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))),
        eps_steps=rng.randint(1, 1000), seed=rng.randint(0, 9),
        grid_step=F(1, rng.randint(1, 10_000))),
    "EntropyFn": entropy_fn,
    "MonotoneMap": monotone_map,
}


def draw(cls, rng) -> dict:
    factory = FACTORIES.get(cls.__name__)
    if factory is not None:
        return factory(rng)
    return {name: generic(rng) for name in fields(cls)}


def twin_of(cls):
    twin = make_dataclass(cls.__name__, fields(cls), frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as err:
        return type(err)


@pytest.mark.differential
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_records_match_their_frozen_dataclass_twins(cls, seed):
    rng = random.Random(seed)
    twin = twin_of(cls)
    kwargs, other_kwargs = draw(cls, rng), draw(cls, rng)
    a, b, c = cls(**kwargs), cls(**kwargs), cls(**other_kwargs)
    ta, tb, tc = (twin(**{n: getattr(x, n) for n in fields(cls)}) for x in (a, b, c))

    assert repr(a) == repr(ta)
    assert repr(c) == repr(tc)
    for x, y, tx, ty in ((a, a, ta, ta), (a, b, ta, tb), (a, c, ta, tc), (c, a, tc, ta)):
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)
    assert hash_or_error(a) == hash_or_error(ta)
    if hash_or_error(ta) is not TypeError:
        assert hash(a) == hash(b)

    # other classes, plain tuples and the twin itself never equal a record
    values = tuple(getattr(a, n) for n in fields(cls))
    for stranger in (values, None, object()):
        assert (a == stranger) is (ta == stranger) is (stranger == a) is False
        assert (a != stranger) is (ta != stranger) is (stranger != a) is True
    assert (a == ta) is (ta == a) is False
    assert (a != ta) is (ta != a) is True

    for name in (fields(cls)[0], "undeclared"):
        for target in (a, ta):
            with pytest.raises(AttributeError):
                setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(a) == repr(ta)  # nothing changed


def test_a_record_keeps_the_methods_its_class_defines():
    x = Chart(("x", "y"))
    assert Chart.__eq__.__qualname__ == "Chart.__eq__"
    assert x == Chart(("x", "y")) and x != Chart(("y", "x")) and x != Chart(("x", "y"), ("a",))
    assert Chart.__hash__ is not None and hash(x) == hash(Chart(["x", "y"]))
    assert Chart(["x"]).coords == ("x",)  # normalised to a tuple


def test_a_record_equals_only_its_own_class():
    # the same fields on another record class, and a subclass, are different values
    assert forms.ContactResult(1, 2, 3) != forms.SymmetryResult(1, 2, 3)

    class Sub(thermo.PathIntegral):
        pass

    assert thermo.PathIntegral(1.0, 0.0) != Sub(1.0, 0.0)
    assert Sub(1.0, 0.0) == Sub(1.0, 0.0)


REFUSED = [
    (lambda: ZeroTestConfig(samples=0), ExprError, "samples must be at least 1, got 0"),
    (lambda: ZeroTestConfig(samples=MAX_SAMPLES + 1), ExprError,
     f"samples must be at most {MAX_SAMPLES}, got {MAX_SAMPLES + 1}"),
    (lambda: ZeroTestConfig(tol=-1.0), ExprError, "tol must be non-negative, got -1.0"),
    (lambda: ZeroTestConfig(tol=math.nan), ExprError, "tol must be non-negative, got nan"),
    (lambda: ZeroTestConfig(tol=math.inf), ExprError, "tol must be finite, got inf"),
    (lambda: Chart(("ln",)), ExprError, "'ln' is reserved for the function syntax"),
    (lambda: Chart(("x", "x")), ExprError, "duplicate name 'x'"),
    (lambda: Chart(("x",), ("x",)), ExprError, "duplicate name 'x'"),
    (lambda: Chart(("1x",)), ExprError, "bad identifier '1x'"),
    (lambda: SmoothMap(Chart(("x",)), Chart(("u", "v")), {"u": Chart(("x",)).var("x")}),
     ExprError, "smooth map must define every target coordinate"),
    (lambda: SmoothMap(Chart(("x",)), Chart(("u",)), {"u": Chart(("y",)).var("y")}),
     ExprError, "component for 'u' is not on the source chart"),
    (lambda: ThermoChart("U", ()), ThermoError, "a thermodynamic chart needs at least one pair"),
    (lambda: ThermoChart("U", (("T", "S", 2),)), ThermoError, "pair signs must be +1 or -1"),
    (lambda: ThermoChart("U", (("T", "S", 1),), heat=1), ThermoError,
     "heat pair index out of range"),
    (lambda: ThermoChart("U", (("T", "U", 1),)), ExprError, "duplicate name 'U'"),
    (lambda: LegendreSpec(), ThermoError, "spec needs a potential or state equations"),
    (lambda: ProcessPath(Chart(("S",)), ()), ThermoError,
     "a process path needs at least one segment"),
    (lambda: ProcessPath(Chart(("S", "V")), [PathSegment({"S": Chart(("t",)).var("t")})]),
     ThermoError, "segment must define every extensive coordinate"),
    (lambda: ProcessPath(Chart(("S",)), [PathSegment({"S": Chart(("s",)).var("s")})]),
     ThermoError, "segment components must be functions of t"),
    (lambda: StateSpace("G", ("u",), {}), AccessError, "state space 'G' has no states"),
    (lambda: StateSpace("G", ("u",), {"a": (1, 2)}), AccessError,
     "state 'a' has the wrong dimension"),
    (lambda: AxiomConfig(eps_steps=0), AccessError, "eps_steps must be at least 1, got 0"),
    (lambda: AxiomConfig(eps_steps=1001), AccessError, "eps_steps must be at most 1000, got 1001"),
    (lambda: AxiomConfig(lambda_grid=()), AccessError,
     "lambda_grid needs positive scales, got nothing"),
    (lambda: AxiomConfig(lambda_grid=(F(1), F(-2))), AccessError,
     "lambda_grid needs positive scales, got 1 -2"),
    (lambda: AxiomConfig(grid_step=F(0)), AccessError, "grid_step must be positive, got 0"),
    (lambda: AxiomConfig(grid_step=F(1, 10_001)), AccessError,
     "grid_step must be at least 1/10000, got 1/10001"),
    (lambda: MonotoneMap(Poset("ab", ["ab"]), Poset("ab", ["ab"]), {"a": "b", "b": "a"}),
     MapError, "map is not monotone: 'a' ≤ 'b' is not preserved"),
]


@pytest.mark.parametrize("build, error, message", REFUSED, ids=[m for _, _, m in REFUSED])
def test_each_folded_validation_keeps_its_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_normalised_fields():
    m = SmoothMap(Chart(("x",)), Chart(("u",)), [("u", Chart(("x",)).var("x"))])
    assert type(m.components) is dict
    assert ThermoChart("U", [("T", "S", True)]).pairs == (("T", "S", 1),)
    path = ProcessPath(Chart(("S",)), [PathSegment({"S": Chart(("t",)).var("t")})])
    assert type(path.segments) is tuple
    assert StateSpace("G", ["u"], {"a": (1,)}).states == {"a": (F(1),)}
    assert EntropyFn("G", {"a": 1}).values == {"a": F(1)}
    assert LegendreSpec(equations=[("T", Chart(("S",)).var("S"))]).equations.keys() == {"T"}
    assert MonotoneMap(Poset("a", []), Poset("a", []), [("a", "a")]).mapping == {"a": "a"}


def test_a_thermo_chart_equals_and_hashes_alike_whatever_sequence_holds_its_params():
    as_list = ThermoChart("U", (("T", "S", 1),), ["R"])
    as_tuple = ThermoChart("U", (("T", "S", 1),), ("R",))
    assert as_list.params == ("R",)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
