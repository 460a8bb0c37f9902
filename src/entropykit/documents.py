"""System document parsing: one line-oriented sectioned format shared by all
subcommands.

A document declares any subset of: a chart (plain coordinates or a
thermodynamic energy/pairs chart), parameter values, a Legendre spec,
differential forms, named process paths, state spaces, an accessibility
relation, entropy functions, posets, maps, Legendre transforms to run, a
cross-system relation, and a config block.  Section order is free.

A keyword is always a row's first word, read by one of two readers.
``_blocks`` cuts [forms], [paths] and [states] into declarations (a
``form``, ``path`` or ``space`` row and the rows under it), each parsed in
full before the next is read.  ``_after`` reads each row of [entropy],
[posets], [maps] and [transform] as ``fn``, ``poset``, ``map`` or ``swap``
and the rest.  Other rows are ``key = value``, or, in [relation] and
[cross], ``edge`` and ``node`` rows.

Every error names its file and line.  The guard ``at_line`` raises any of
``INPUT_ERRORS``, the library's errors for a bad input, again as a
``DocumentError`` at the line of the declaration being built or checked;
``Document.lines`` holds each named declaration's line by (keyword, name).
``INPUT_ERRORS`` names the layers' errors through their common base
``expr.InputError``, so the guard loads no layer.

Only ``expr`` is loaded with this module.  Each other layer is imported by
the first section that builds its objects (a thermodynamic chart, [spec]
and [paths] load ``thermo``, [forms] ``forms``, [states], [relation],
[entropy] and [cross] ``access``), and ``Settings`` builds each setting on
its first read, so a run loads only the layers its document and command
reach.
"""

from __future__ import annotations

import io
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from .expr import Chart, Expr, InputError, ZeroTestConfig, check_names, parse as parse_expr

if TYPE_CHECKING:
    from .access import Accessibility
    from .thermo import LegendreSpec, ThermoChart


class DocumentError(Exception):
    def __init__(self, message: str, path: str = "<doc>", line: int = 0):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


INPUT_ERRORS = (InputError, ValueError, OverflowError)


class at_line:
    """Raises an input error met in its body again as a DocumentError at doc's line."""

    def __init__(self, doc: "Document", line: int, prefix: str = ""):
        self.doc, self.line, self.prefix = doc, line, prefix

    def __enter__(self):
        pass

    def __exit__(self, kind, err, tb):
        if isinstance(err, INPUT_ERRORS):
            raise DocumentError(self.prefix + str(err), self.doc.path, self.line) from None


class Document:
    """A parsed system document, read-only once ``parse_document`` returns:
    ``batch`` shares one Document among the entries that name its path, so
    only this module's parsers write to it.  The objects it holds memoise
    only pure answers (``EntropyOracle``'s totals, ``ThermoChart``'s
    charts), which no later reader can tell from a fresh parse."""

    def __init__(self, path: str = "<doc>"):
        self.path = path
        self.chart: Optional[Chart] = None
        self.thermo_chart: Optional[ThermoChart] = None
        self.param_values: dict = {}
        self.spec: Optional[LegendreSpec] = None
        self.forms: dict = {}
        self.paths: dict = {}
        self.spaces: dict = {}
        self.relation: Optional[Accessibility] = None
        self.entropies: dict = {}  # name -> (space label, EntropyFn)
        self.posets: dict = {}  # name -> (carrier, edges)
        self.maps: dict = {}  # name -> (src, dst, mapping)
        self.transforms: list = []  # (swap names, new name)
        self.cross: Optional[Accessibility] = None
        self.config: dict = {}
        self.lines: dict = {}  # (keyword, name) -> its line, as ('map', 'F')

    def expr_chart(self, line: int) -> Chart:
        if self.thermo_chart is not None:
            return self.thermo_chart.chart
        if self.chart is not None:
            return self.chart
        raise DocumentError("document declares no chart", self.path, line)

    def base_chart(self, line: int) -> Chart:
        if self.thermo_chart is not None:
            return self.thermo_chart.base_chart
        if self.chart is not None:
            return self.chart
        raise DocumentError("document declares no chart", self.path, line)


def _fraction(text: str, path: str, line: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise DocumentError(f"bad rational {text!r}", path, line) from None


def _number(kind, key: str, text: str, path: str, line: int):
    try:
        return kind(text)
    except ValueError:
        raise DocumentError(
            f"bad {kind.__name__} {text!r} for {key}", path, line
        ) from None


def _new(doc: "Document", seen, what: str, name, line_no: int):
    """name, refused at line_no when seen holds it already: a second
    declaration would silently replace the first."""
    if name in seen:
        raise DocumentError(f"{what} {name!r} given twice", doc.path, line_no)
    return name


def _head(body: str) -> tuple[str, str]:
    """A line's first word and the rest of it ("" and "" for a blank one)."""
    word, *rest = body.split(None, 1) or [""]
    return word, rest[0] if rest else ""


def _name(doc: "Document", seen, what: str, text: str, line_no: int) -> str:
    """A declaration's name: one word, new in seen."""
    words = text.split()
    if not words:
        raise DocumentError(f"{what} needs a name", doc.path, line_no)
    if len(words) > 1:
        raise DocumentError(f"{what} name {' '.join(words)!r} is not one word", doc.path, line_no)
    return _new(doc, seen, what, words[0], line_no)


def _blocks(rows, keyword: str):
    """rows cut into declarations: each row whose first word is keyword
    starts one, as ((line, text after keyword), rows under it).  Rows above
    the first such row come first, under the header None."""
    blocks = [(None, [])]
    for line_no, body in rows:
        word, rest = _head(body)
        if word == keyword:
            blocks.append(((line_no, rest), []))
        else:
            blocks[-1][1].append((line_no, body))
    return blocks if blocks[0][1] else blocks[1:]


def _after(doc: "Document", shape: str, body: str, line_no: int) -> str:
    """The text after a row's first word, which must be shape's first word;
    any other exits 2 with "expected 'shape'"."""
    word, rest = _head(body)
    if word != shape.split()[0]:
        raise DocumentError(f"expected {shape!r}", doc.path, line_no)
    return rest


def parse_document(text: str, path: str = "<doc>") -> Document:
    doc = Document(path=path)
    section = None
    # collected rows per section; forms/paths/etc. need two passes since
    # expressions refer to the chart and params declared elsewhere
    pending: dict[str, list[tuple[int, str]]] = {name: [] for name in _SECTIONS}
    header: dict[str, int] = {}  # section -> the line of its first header
    # lines as a text file yields them: only \n, \r\n and \r end one, so a
    # form feed or U+2028 in a comment breaks no line
    for line_no, raw in enumerate(io.StringIO(text, newline=None), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip().lower()
            if section not in pending:
                raise DocumentError(f"unknown section [{section}]", path, line_no)
            header.setdefault(section, line_no)
            continue
        if section is None:
            raise DocumentError("content before first [section]", path, line_no)
        pending[section].append((line_no, body))

    _parse_params(doc, pending["params"])
    _parse_chart(doc, pending["chart"], header.get("chart", 0))
    _parse_config(doc, pending["config"])
    _parse_spec(doc, pending["spec"], header.get("spec", 0))
    _parse_forms(doc, pending["forms"], header.get("forms", 0))
    _parse_paths(doc, pending["paths"], header.get("paths", 0))
    _parse_states(doc, pending["states"])
    doc.relation = _parse_relation(doc, pending["relation"], "relation")
    _parse_entropy(doc, pending["entropy"])
    _parse_posets(doc, pending["posets"])
    _parse_maps(doc, pending["maps"])
    _parse_transforms(doc, pending["transform"])
    doc.cross = _parse_relation(doc, pending["cross"], "cross")
    return doc


_SECTIONS = (
    "chart", "params", "spec", "forms", "paths", "states", "relation",
    "entropy", "posets", "maps", "transform", "cross", "config",
)


def read_text(path: str) -> str:
    """path's text as UTF-8, a leading byte-order mark skipped; a byte that
    is not UTF-8 raises a DocumentError at its line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as err:  # err.object is data past any mark
        line = err.object.count(b"\n", 0, err.start) + 1
        message = f"not UTF-8: byte 0x{err.object[err.start]:02x} ({err.reason})"
        raise DocumentError(message, path, line) from None


def load_document(path: str) -> Document:
    return parse_document(read_text(path), path)


def _key_value(body: str, path: str, line_no: int) -> tuple[str, str]:
    if "=" not in body:
        raise DocumentError(f"expected 'key = value', got {body!r}", path, line_no)
    key, value = body.split("=", 1)
    return key.strip(), value.strip()


def _assignments(doc: Document, text: str, line_no: int) -> dict[str, str]:
    """A comma list 'KEY = VALUE, ...' as {key: value}, keys with single
    spaces; empty pieces are skipped, and a key given twice exits here."""
    out = {}
    for piece in text.split(","):
        if piece.strip():
            key, value = _key_value(piece.strip(), doc.path, line_no)
            out[_new(doc, out, "key", " ".join(key.split()), line_no)] = value
    return out


def _parse_params(doc: Document, rows):
    for line_no, body in rows:
        if "=" in body:
            key, value = _key_value(body, doc.path, line_no)
            value = _fraction(value, doc.path, line_no)
            # the algebra takes every parameter positive: (c^2)^(1/2) is c
            if value <= 0:
                raise DocumentError(
                    f"param {key} must be positive, got {value}", doc.path, line_no
                )
        else:
            key, value = body, None
        doc.param_values[_new(doc, doc.param_values, "param", key, line_no)] = value
        doc.lines["param", key] = line_no


def _parse_chart(doc: Document, rows, header: int):
    params = tuple(doc.param_values)
    energy = heat = coords = None
    pairs = []
    seen = set()  # coords, energy and heat: each given once
    # (line, names declared there): params first, then the coords row or
    # each pair row in order; the energy row joins last
    names = [(doc.lines["param", k], (k,)) for k in params]
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
        if key != "pair":
            seen.add(_new(doc, seen, "chart key", key, line_no))
        if key == "coords":
            coords = tuple(value.split())
            if not coords:
                raise DocumentError("coords needs at least one name", doc.path, line_no)
            names.append((line_no, coords))
        elif key == "energy":
            energy, energy_line = value, line_no
        elif key == "pair":
            parts = value.split()
            if len(parts) != 3 or parts[2] not in ("+", "-"):
                raise DocumentError(
                    "pair needs 'INTENSIVE EXTENSIVE +|-'", doc.path, line_no
                )
            pairs.append((parts[0], parts[1], 1 if parts[2] == "+" else -1))
            names.append((line_no, parts[:2]))
        elif key == "heat":
            if not value:
                raise DocumentError("heat needs a pair's name or none", doc.path, line_no)
            heat, heat_line = value, line_no
        else:
            raise DocumentError(f"unknown chart key {key!r}", doc.path, line_no)
        if coords is not None and (pairs or seen & {"energy", "heat"}):
            message = "a chart takes coords or an energy and pairs, not both"
            raise DocumentError(message, doc.path, line_no)
    if coords is not None:
        _check_names(doc, names)
        doc.chart = Chart(coords, params)
    elif energy is not None or pairs or heat is not None:
        from .thermo import ThermoChart

        if energy is None or not pairs:
            raise DocumentError(
                "thermo chart needs both energy and pairs", doc.path, header
            )
        if heat is None:
            heat_idx: Optional[int] = 0
        elif heat.lower() == "none":
            heat_idx = None
        else:
            heat_idx = next(
                (i for i, (p, x, _) in enumerate(pairs) if heat in (p, x)), -1
            )
            if heat_idx < 0:
                raise DocumentError(
                    f"heat pair {heat!r} not found", doc.path, heat_line
                )
        _check_names(doc, names + [(energy_line, (energy,))])
        with at_line(doc, header):
            doc.thermo_chart = ThermoChart(energy, tuple(pairs), params, heat=heat_idx)


def _check_names(doc: Document, rows):
    """Exit 2 at the first of rows, (line, names declared there), that
    declares a name against Chart's rule: not an identifier, a function of
    the syntax, or a name of its own or an earlier row."""
    taken = set()
    for line_no, names in rows:
        with at_line(doc, line_no):
            check_names(names, taken)


CONFIG_KEYS = {  # each [config] key, with the setting of Settings it feeds
    "eps_steps": "axiom", "grid_step": "axiom", "lambda_grid": "axiom",
    "samples": "zero", "tol": "zero", "margin": "margin",
}


class Settings:
    """What the checks of a run read, from the given [config] keys and
    flags: ``zero`` (a ZeroTestConfig), ``axiom`` (an AxiomConfig) and
    calibrate's ``margin``; a key not given keeps its default.  Each is
    built on its first read and kept, so a run loads only the layers its
    checks read.  The path verdicts read a given ``tol`` from ``given``."""

    def __init__(self, seed: int, given: dict):
        self.seed, self.given = seed, given

    def check(self) -> "Settings":
        """Build each setting a given key feeds: a bad value raises here,
        before any check runs."""
        fed = {CONFIG_KEYS[key] for key in self.given}
        for name in ("zero", "axiom", "margin"):
            if name in fed:
                getattr(self, name)
        return self

    def under(self, config: dict) -> "Settings":
        """These settings over a document's [config], a given key winning;
        themselves, with what they have built, when config is empty."""
        return Settings(self.seed, {**config, **self.given}) if config else self

    def _fields(self, name: str) -> dict:
        return {k: v for k, v in self.given.items() if CONFIG_KEYS[k] == name}

    @cached_property
    def zero(self) -> ZeroTestConfig:
        return ZeroTestConfig(seed=self.seed, **self._fields("zero"))

    @cached_property
    def axiom(self):
        from .access import AxiomConfig

        return AxiomConfig(seed=self.seed, **self._fields("axiom"))

    @cached_property
    def margin(self) -> Fraction:
        from .access import DEFAULT_MARGIN, check_margin

        margin = self.given.get("margin", DEFAULT_MARGIN)
        check_margin(margin)
        return margin


def _parse_config(doc: Document, rows):
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
        _new(doc, doc.config, "config key", key, line_no)
        if key in ("eps_steps", "samples"):
            doc.config[key] = _number(int, key, value, doc.path, line_no)
        elif key in ("tol",):
            doc.config[key] = _number(float, key, value, doc.path, line_no)
        elif key in ("margin", "grid_step"):
            doc.config[key] = _fraction(value, doc.path, line_no)
        elif key == "lambda_grid":
            doc.config[key] = tuple(
                _fraction(v, doc.path, line_no) for v in value.split()
            )
        else:
            raise DocumentError(f"unknown config key {key!r}", doc.path, line_no)
        with at_line(doc, line_no):
            Settings(0, {key: doc.config[key]}).check()


def _expr(doc: Document, text: str, chart: Chart, line_no: int) -> Expr:
    with at_line(doc, line_no):
        return parse_expr(text, chart)


def _parse_spec(doc: Document, rows, header: int):
    """The Legendre spec, checked against the thermodynamic chart if there
    is one; an error of the spec as a whole is located at its header."""
    if not rows:
        return
    from .thermo import LegendreSpec, ThermoError

    base = doc.base_chart(header)
    potential = None
    equations = {}
    energy = None
    seen = set()
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
        seen.add(_new(doc, seen, "spec key", " ".join(key.split()), line_no))
        word, intensive = _head(key)
        if key == "potential":
            potential = _expr(doc, value, base, line_no)
        elif key == "energy":
            energy = _expr(doc, value, base, line_no)
        elif word == "state" and intensive:
            equations[intensive] = _expr(doc, value, base, line_no)
        else:
            raise DocumentError(f"unknown spec key {key!r}", doc.path, line_no)
        if potential is not None and (equations or energy is not None):
            message = "a spec takes a potential or state equations, not both"
            raise DocumentError(message, doc.path, line_no)
    with at_line(doc, header):
        if potential is not None:
            doc.spec = LegendreSpec.from_potential(potential)
        elif equations:
            doc.spec = LegendreSpec.from_state_equations(equations, energy=energy)
        else:
            raise ThermoError("spec needs a potential or state equations")
        if doc.thermo_chart is not None:
            doc.spec._validate(doc.thermo_chart)


def _parse_forms(doc: Document, rows, header: int):
    if not rows:
        return
    from .forms import Form

    chart = doc.expr_chart(header)
    for head, body in _blocks(rows, "form"):
        if head is None:
            raise DocumentError("component line before any 'form NAME:'", doc.path, body[0][0])
        form_line, rest = head
        name_text, _, first = rest.partition(":")
        name = _name(doc, doc.forms, "form", name_text, form_line)
        coeffs: dict = {}
        for line_no, text in [(form_line, first), *body]:
            for names, expr_text in _assignments(doc, text, line_no).items():
                try:
                    idx = tuple(chart.index(n) for n in names.split())
                except ValueError:
                    raise DocumentError(
                        f"unknown coordinate in {names!r}", doc.path, line_no
                    ) from None
                if idx in coeffs:
                    raise DocumentError(f"form component {names!r} given twice", doc.path, line_no)
                coeffs[idx] = _expr(doc, expr_text, chart, line_no)
        degrees = {len(idx) for idx in coeffs}
        if len(degrees) > 1:
            raise DocumentError(
                f"form {name!r} mixes degrees {sorted(degrees)}", doc.path, form_line
            )
        with at_line(doc, form_line):
            doc.forms[name] = Form(chart, degrees.pop() if degrees else 1, coeffs)
        doc.lines["form", name] = form_line


def _parse_paths(doc: Document, rows, header: int):
    if not rows:
        return
    if doc.thermo_chart is None:
        raise DocumentError("paths need a thermodynamic chart", doc.path, header)
    from .thermo import PathSegment, ProcessPath

    for head, body in _blocks(rows, "path"):
        if head is not None:
            path_line, rest = head
            name_text, _, trail = rest.partition(":")
            name = _name(doc, doc.paths, "path", name_text, path_line)
            if trail.strip():
                raise DocumentError(f"unexpected text after 'path {name}:'", doc.path, path_line)
            doc.lines["path", name] = path_line
        segments = []
        for line_no, text in body:
            word, rest = _head(text)
            if word != "segment":
                raise DocumentError(f"unexpected line in [paths]: {text!r}", doc.path, line_no)
            if head is None:
                raise DocumentError("segment before any 'path NAME:'", doc.path, line_no)
            claim = None
            if rest.startswith("claim="):
                claim_token, rest = _head(rest)
                claim = claim_token[len("claim="):]
                if claim != "adiabatic":  # the one claim a cycle audit checks
                    raise DocumentError(
                        f"unknown claim {claim!r}, expected 'adiabatic'", doc.path, line_no
                    )
            comps = {
                key: _expr(doc, value, doc.thermo_chart.t_chart, line_no)
                for key, value in _assignments(doc, rest, line_no).items()
            }
            segments.append(PathSegment(comps, claim))
        if not segments:
            raise DocumentError(f"path {name!r} has no segments", doc.path, path_line)
        with at_line(doc, path_line):
            doc.paths[name] = ProcessPath(doc.thermo_chart.base_chart, tuple(segments))


def _parse_states(doc: Document, rows):
    if not rows:
        return
    from .access import StateSpace

    for head, body in _blocks(rows, "space"):
        if head is not None:
            space_line, rest = head
            tokens = rest.split()
            if len(tokens) < 3 or tokens[1] != "coords":
                message = "expected 'space LABEL coords NAMES... [scalable]'"
                raise DocumentError(message, doc.path, space_line)
            label = _new(doc, doc.spaces, "space", tokens[0], space_line)
            scalable = tokens[-1] == "scalable"
            with at_line(doc, space_line):  # names an oracle expression can read
                coords = Chart(tokens[2 : len(tokens) - scalable]).coords
            if not coords:
                raise DocumentError(f"space {label!r} has no coordinates", doc.path, space_line)
        states: dict = {}
        for line_no, text in body:
            word, rest = _head(text)
            if word != "state":
                raise DocumentError(f"unexpected line in [states]: {text!r}", doc.path, line_no)
            if head is None:
                raise DocumentError("state before any 'space' line", doc.path, line_no)
            key, value = _key_value(rest, doc.path, line_no)
            name = _name(doc, states, "state", key, line_no)
            states[name] = tuple(_fraction(v, doc.path, line_no) for v in value.split())
            if len(states[name]) != len(coords):
                raise DocumentError(f"state {name!r} has the wrong dimension", doc.path, line_no)
        if not states:
            raise DocumentError(f"space {label!r} has no states", doc.path, space_line)
        doc.spaces[label] = StateSpace(label, coords, states, scalable)
        doc.lines["space", label] = space_line


def _resolve_state(doc: Document, token: str, line_no: int) -> tuple[str, str]:
    """The (space label, state name) a state token names."""
    token = token.strip()
    if "." in token:
        label, name = token.split(".", 1)
        if label not in doc.spaces or name not in doc.spaces[label].states:
            raise DocumentError(f"unknown state {token!r}", doc.path, line_no)
        return label, name
    hits = [lbl for lbl, sp in doc.spaces.items() if token in sp.states]
    if len(hits) != 1:
        raise DocumentError(
            f"state {token!r} is {'ambiguous' if hits else 'unknown'}",
            doc.path,
            line_no,
        )
    return hits[0], token


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(body: str, path: str, line_no: int) -> bool:
    key, value = _key_value(body, path, line_no)
    if value.lower() not in _FLAGS:
        raise DocumentError(
            f"{key} must be true/false, yes/no or 1/0, got {value!r}", path, line_no
        )
    return _FLAGS[value.lower()]


def _parse_relation(doc: Document, rows, section: str) -> Optional[Accessibility]:
    """A [relation] or [cross] section's relation; an oracle's line goes to
    doc.lines.  'edge' and 'node' are first words; 'closure', 'scaling' and
    'oracle' are keys, each exactly the text before '='."""
    if not rows:
        return None
    from .access import CompositeState, EdgeRelation, EntropyOracle

    pure = CompositeState.pure
    edges = []
    nodes = []
    flags = {"closure": True, "scaling": False}
    given = set()
    oracle_text = None
    oracle_line = 0
    for line_no, body in rows:
        word, rest = _head(body)
        key = body.partition("=")[0].strip() if "=" in body else None
        if oracle_line or (key == "oracle" and line_no != rows[0][0]):
            raise DocumentError("an oracle relation takes no other line", doc.path, line_no)
        if word == "edge":
            ends = rest.split()
            if len(ends) != 2:
                raise DocumentError("expected 'edge FROM TO'", doc.path, line_no)
            edges.append(tuple(pure(*_resolve_state(doc, end, line_no)) for end in ends))
        elif word == "node":
            nodes.append(pure(*_resolve_state(doc, rest, line_no)))
        elif key in flags:
            given.add(_new(doc, given, "relation key", key, line_no))
            flags[key] = _flag(body, doc.path, line_no)
        elif key == "oracle":
            _, oracle_text = _key_value(body, doc.path, line_no)
            oracle_line = doc.lines["oracle", section] = line_no
        else:
            raise DocumentError(
                f"unexpected line in relation section: {body!r}", doc.path, line_no
            )
    if oracle_text is not None:
        spaces = list(doc.spaces.values())
        if not spaces:
            raise DocumentError("oracle relation needs [states]", doc.path, oracle_line)
        with at_line(doc, oracle_line):
            expr = parse_expr(oracle_text, Chart(spaces[0].coords))
            return EntropyOracle.from_expression(spaces, expr)
    states = [pure(lbl, n) for lbl, sp in doc.spaces.items() for n in sp.names()]
    ends = [end for edge in edges for end in edge]
    rel = EdgeRelation([*nodes, *ends, *states], edges, supports_scaling=flags["scaling"])
    return rel.closure() if flags["closure"] else rel


def _parse_entropy(doc: Document, rows):
    if not rows:
        return
    from .access import EntropyFn

    for line_no, body in rows:
        rest = _after(doc, "fn NAME on SPACE : state = value, ...", body, line_no)
        head, _, assigns = rest.partition(":")
        tokens = head.split()
        if len(tokens) != 3 or tokens[1] != "on":
            raise DocumentError("expected 'fn NAME on SPACE : ...'", doc.path, line_no)
        name, label = _new(doc, doc.entropies, "fn", tokens[0], line_no), tokens[2]
        if label not in doc.spaces:
            raise DocumentError(f"unknown space {label!r}", doc.path, line_no)
        values = {
            key: _fraction(value, doc.path, line_no)
            for key, value in _assignments(doc, assigns, line_no).items()
        }
        names = set(doc.spaces[label].names())
        for fault, odd in (
            ("misses states", names - values.keys()),
            (f"values states outside {label!r}:", values.keys() - names),
        ):
            if odd:
                raise DocumentError(f"entropy {name!r} {fault} {sorted(odd)}", doc.path, line_no)
        doc.entropies[name] = (label, EntropyFn(label, values))


def _parse_posets(doc: Document, rows):
    for line_no, body in rows:
        rest = _after(doc, "poset NAME : carrier : edges", body, line_no)
        try:
            name_text, carrier_text, edge_text = rest.split(":", 2)
        except ValueError:
            raise DocumentError(
                "expected 'poset NAME : a b c : a<b, b<c'", doc.path, line_no
            ) from None
        name = _name(doc, doc.posets, "poset", name_text, line_no)
        carrier = tuple(carrier_text.split())
        edges = []
        for piece in edge_text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "<" not in piece:
                raise DocumentError(f"bad edge {piece!r}, use 'a<b'", doc.path, line_no)
            a, b = piece.split("<", 1)
            edges.append((a.strip(), b.strip()))
        doc.posets[name] = (carrier, edges)
        doc.lines["poset", name] = line_no


def _parse_maps(doc: Document, rows):
    for line_no, body in rows:
        rest = _after(doc, "map NAME : SRC -> DST : a = x, ...", body, line_no)
        try:
            name_text, arrow, assigns = rest.split(":", 2)
        except ValueError:
            raise DocumentError(
                "expected 'map NAME : SRC -> DST : a = x, ...'", doc.path, line_no
            ) from None
        name = _name(doc, doc.maps, "map", name_text, line_no)
        ends = [end.split() for end in arrow.split("->")]
        if len(ends) != 2 or any(len(end) != 1 for end in ends):
            raise DocumentError("map needs 'SRC -> DST', each one word", doc.path, line_no)
        (src,), (dst,) = ends
        doc.maps[name] = (src, dst, _assignments(doc, assigns, line_no))
        doc.lines["map", name] = line_no


def _parse_transforms(doc: Document, rows):
    for line_no, body in rows:
        rest = _after(doc, "swap NAMES... : name NEW", body, line_no)
        head, _, name_part = rest.partition(":")
        words = name_part.split()  # none, or 'name NEW'
        if words and (len(words) != 2 or words[0] != "name"):
            raise DocumentError("expected ': name NEW' after swap", doc.path, line_no)
        swaps = head.split()
        if not swaps:
            raise DocumentError("swap line names no pairs", doc.path, line_no)
        if words and doc.thermo_chart is not None:
            with at_line(doc, line_no):  # the chart the transform builds on NEW
                Chart((words[1],) + doc.thermo_chart.chart.coords[1:], doc.thermo_chart.params)
        doc.transforms.append((tuple(swaps), words[1] if words else None))
