"""System document parsing: one line-oriented sectioned format shared by all
subcommands.

A document declares any subset of: a chart (plain coordinates or a
thermodynamic energy/pairs chart), parameter values, a Legendre spec,
differential forms, named process paths, state spaces, an accessibility
relation, entropy functions, posets, maps, Legendre transforms to run, a
cross-system relation, and a config block.  Section order is free; lines
are independent except that form, path and space declarations collect the
component lines that follow them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .access import (
    AccessError,
    Accessibility,
    AxiomConfig,
    CompositeState,
    EdgeRelation,
    EntropyFn,
    EntropyOracle,
    StateSpace,
    check_margin,
)
from .expr import Chart, Expr, ExprError, ZeroTestConfig, parse as parse_expr
from .forms import Form
from .thermo import LegendreSpec, PathSegment, ProcessPath, ThermoChart


class DocumentError(Exception):
    def __init__(self, message: str, path: str = "<doc>", line: int = 0):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass
class Document:
    path: str = "<doc>"
    chart: Optional[Chart] = None
    thermo_chart: Optional[ThermoChart] = None
    param_values: dict = field(default_factory=dict)
    spec: Optional[LegendreSpec] = None
    forms: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    path_lines: dict = field(default_factory=dict)  # path name -> its 'path' line
    spaces: dict = field(default_factory=dict)
    relation: Optional[Accessibility] = None
    entropies: dict = field(default_factory=dict)  # name -> (space label, EntropyFn)
    posets: dict = field(default_factory=dict)  # name -> (carrier, edges)
    poset_lines: dict = field(default_factory=dict)  # poset name -> its 'poset' line
    maps: dict = field(default_factory=dict)  # name -> (src, dst, mapping)
    map_lines: dict = field(default_factory=dict)  # map name -> its 'map' line
    transforms: list = field(default_factory=list)  # (swap names, new name)
    cross: Optional[Accessibility] = None
    cross_line: int = 0  # the [cross] 'oracle' line, if the relation is an oracle
    config: dict = field(default_factory=dict)

    def expr_chart(self) -> Chart:
        if self.thermo_chart is not None:
            return self.thermo_chart.chart
        if self.chart is not None:
            return self.chart
        raise DocumentError("document declares no chart", self.path)

    def base_chart(self) -> Chart:
        if self.thermo_chart is not None:
            return self.thermo_chart.base_chart
        if self.chart is not None:
            return self.chart
        raise DocumentError("document declares no chart", self.path)


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


class _Lines:
    def __init__(self, text: str, path: str):
        self.rows = []
        for i, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].rstrip()
            if body.strip():
                self.rows.append((i, body.strip()))
        self.path = path


def parse_document(text: str, path: str = "<doc>") -> Document:
    doc = Document(path=path)
    lines = _Lines(text, path)
    section = None
    # collected raw rows per section; forms/paths/etc. need two passes since
    # expressions refer to the chart and params declared elsewhere
    pending: dict[str, list[tuple[int, str]]] = {}
    for line_no, body in lines.rows:
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip().lower()
            pending.setdefault(section, [])
            continue
        if section is None:
            raise DocumentError("content before first [section]", path, line_no)
        pending[section].append((line_no, body))

    known = {
        "chart",
        "params",
        "spec",
        "forms",
        "paths",
        "states",
        "relation",
        "entropy",
        "posets",
        "maps",
        "transform",
        "cross",
        "config",
    }
    for name in pending:
        if name not in known:
            raise DocumentError(f"unknown section [{name}]", path)

    _parse_params(doc, pending.get("params", []))
    _parse_chart(doc, pending.get("chart", []))
    _parse_config(doc, pending.get("config", []))
    _parse_spec(doc, pending.get("spec", []))
    _parse_forms(doc, pending.get("forms", []))
    _parse_paths(doc, pending.get("paths", []))
    _parse_states(doc, pending.get("states", []))
    doc.relation = _parse_relation(doc, pending.get("relation", []))
    _parse_entropy(doc, pending.get("entropy", []))
    _parse_posets(doc, pending.get("posets", []))
    _parse_maps(doc, pending.get("maps", []))
    _parse_transforms(doc, pending.get("transform", []))
    doc.cross = _parse_relation(doc, pending.get("cross", []))
    for line_no, body in pending.get("cross", []):
        if body.startswith("oracle"):
            doc.cross_line = line_no
    return doc


def load_document(path: str) -> Document:
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read(), path)


def _key_value(body: str, path: str, line_no: int) -> tuple[str, str]:
    if "=" not in body:
        raise DocumentError(f"expected 'key = value', got {body!r}", path, line_no)
    key, value = body.split("=", 1)
    return key.strip(), value.strip()


def _parse_params(doc: Document, rows):
    for line_no, body in rows:
        if "=" in body:
            key, value = _key_value(body, doc.path, line_no)
            doc.param_values[key] = _fraction(value, doc.path, line_no)
        else:
            doc.param_values.setdefault(body.strip(), None)


def _parse_chart(doc: Document, rows):
    params = tuple(doc.param_values)
    energy = None
    pairs = []
    heat: Optional[str] = ""
    coords = None
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
        if key == "coords":
            coords = tuple(value.split())
        elif key == "energy":
            energy = value
        elif key == "pair":
            parts = value.split()
            if len(parts) != 3 or parts[2] not in "+-":
                raise DocumentError(
                    "pair needs 'INTENSIVE EXTENSIVE +|-'", doc.path, line_no
                )
            pairs.append((parts[0], parts[1], 1 if parts[2] == "+" else -1))
        elif key == "heat":
            heat = value
        else:
            raise DocumentError(f"unknown chart key {key!r}", doc.path, line_no)
    try:
        if coords is not None:
            doc.chart = Chart(coords, params)
        elif energy is not None or pairs:
            if energy is None or not pairs:
                raise DocumentError(
                    "thermo chart needs both energy and pairs", doc.path
                )
            if heat == "":
                heat_idx: Optional[int] = 0
            elif heat.lower() == "none":
                heat_idx = None
            else:
                heat_idx = next(
                    (i for i, (p, x, _) in enumerate(pairs) if heat in (p, x)), -1
                )
                if heat_idx < 0:
                    raise DocumentError(f"heat pair {heat!r} not found", doc.path)
            doc.thermo_chart = ThermoChart(energy, tuple(pairs), params, heat=heat_idx)
    except ExprError as err:
        raise DocumentError(str(err), doc.path) from None


CONFIG_KEYS = {  # each [config] key, with the settings it feeds (they reject a bad value)
    "eps_steps": AxiomConfig, "grid_step": AxiomConfig, "lambda_grid": AxiomConfig,
    "samples": ZeroTestConfig, "tol": ZeroTestConfig, "margin": check_margin,
}


def _parse_config(doc: Document, rows):
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
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
        try:
            CONFIG_KEYS[key](**{key: doc.config[key]})
        except (AccessError, ExprError) as err:
            raise DocumentError(str(err), doc.path, line_no) from None


def _expr(doc: Document, text: str, chart: Chart, line_no: int) -> Expr:
    try:
        return parse_expr(text, chart)
    except ExprError as err:
        raise DocumentError(str(err), doc.path, line_no) from None


def _parse_spec(doc: Document, rows):
    if not rows:
        return
    base = doc.base_chart()
    potential = None
    equations = {}
    energy = None
    for line_no, body in rows:
        key, value = _key_value(body, doc.path, line_no)
        if key == "potential":
            potential = _expr(doc, value, base, line_no)
        elif key == "energy":
            energy = _expr(doc, value, base, line_no)
        elif key.startswith("state "):
            equations[key.split(None, 1)[1]] = _expr(doc, value, base, line_no)
        else:
            raise DocumentError(f"unknown spec key {key!r}", doc.path, line_no)
    if potential is not None and not equations:
        doc.spec = LegendreSpec.from_potential(potential)
    elif equations:
        doc.spec = LegendreSpec.from_state_equations(equations, energy=energy)
    else:
        raise DocumentError("spec section is empty", doc.path)


def _parse_forms(doc: Document, rows):
    if not rows:
        return
    chart = doc.expr_chart()
    current: Optional[str] = None
    coeffs: dict = {}

    def flush(line_no):
        if current is None:
            return
        degrees = {len(idx) for idx in coeffs}
        if len(degrees) > 1:
            raise DocumentError(
                f"form {current!r} mixes degrees {sorted(degrees)}", doc.path, line_no
            )
        degree = degrees.pop() if degrees else 1
        doc.forms[current] = Form(chart, degree, dict(coeffs))

    for line_no, body in rows:
        if body.startswith("form "):
            flush(line_no)
            head, _, rest = body.partition(":")
            current = head[5:].strip()
            if not current:
                raise DocumentError("form needs a name", doc.path, line_no)
            coeffs = {}
            if rest.strip():
                _form_components(doc, chart, coeffs, rest, line_no)
        elif current is not None:
            _form_components(doc, chart, coeffs, body, line_no)
        else:
            raise DocumentError("component line before any 'form NAME:'", doc.path, line_no)
    flush(0)


def _form_components(doc, chart, coeffs, text, line_no):
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise DocumentError(
                f"form component needs 'COORDS... = expr', got {piece!r}",
                doc.path,
                line_no,
            )
        names, expr_text = piece.split("=", 1)
        try:
            idx = tuple(chart.index(n) for n in names.split())
        except ValueError:
            raise DocumentError(
                f"unknown coordinate in {names!r}", doc.path, line_no
            ) from None
        coeffs[idx] = _expr(doc, expr_text, chart, line_no)


def _parse_paths(doc: Document, rows):
    if not rows:
        return
    if doc.thermo_chart is None:
        raise DocumentError("paths need a thermodynamic chart", doc.path)
    tchart = doc.thermo_chart.t_chart
    base = doc.thermo_chart.base_chart
    current = None
    segments: list[PathSegment] = []

    def flush():
        if current is not None:
            if not segments:
                raise DocumentError(f"path {current!r} has no segments", doc.path)
            doc.paths[current] = ProcessPath(base, tuple(segments))

    for line_no, body in rows:
        if body.startswith("path "):
            flush()
            current = body[5:].partition(":")[0].strip()
            if not current:
                raise DocumentError("path needs a name", doc.path, line_no)
            doc.path_lines[current] = line_no
            segments = []
        elif body.startswith("segment"):
            if current is None:
                raise DocumentError("segment before any 'path NAME:'", doc.path, line_no)
            rest = body[len("segment"):].strip()
            claim = None
            if rest.startswith("claim="):
                claim_token, rest = rest.split(None, 1)
                claim = claim_token[len("claim="):]
            comps = {}
            for piece in rest.split(","):
                if "=" not in piece:
                    raise DocumentError(
                        f"segment component needs 'COORD = expr', got {piece!r}",
                        doc.path,
                        line_no,
                    )
                name, expr_text = piece.split("=", 1)
                comps[name.strip()] = _expr(doc, expr_text, tchart, line_no)
            segments.append(PathSegment(comps, claim))
        else:
            raise DocumentError(f"unexpected line in [paths]: {body!r}", doc.path, line_no)
    flush()


def _parse_states(doc: Document, rows):
    current_label = None
    current_coords = None
    current_scalable = False
    space_line = 0
    states: dict = {}

    def flush():
        if current_label is not None:
            if not states:
                raise DocumentError(
                    f"space {current_label!r} has no states", doc.path, space_line
                )
            doc.spaces[current_label] = StateSpace(
                current_label, current_coords, dict(states), current_scalable
            )

    for line_no, body in rows:
        if body.startswith("space "):
            flush()
            tokens = body.split()
            if len(tokens) < 4 or tokens[2] != "coords":
                raise DocumentError(
                    "expected 'space LABEL coords NAMES... [scalable]'",
                    doc.path,
                    line_no,
                )
            current_label = tokens[1]
            current_scalable = tokens[-1] == "scalable"
            current_coords = tuple(tokens[3 : len(tokens) - (1 if current_scalable else 0)])
            if not current_coords:
                raise DocumentError(
                    f"space {current_label!r} has no coordinates", doc.path, line_no
                )
            space_line = line_no
            states = {}
        elif body.startswith("state "):
            if current_label is None:
                raise DocumentError("state before any 'space' line", doc.path, line_no)
            key, value = _key_value(body[6:], doc.path, line_no)
            states[key] = tuple(
                _fraction(v, doc.path, line_no) for v in value.split()
            )
            if len(states[key]) != len(current_coords):
                raise DocumentError(
                    f"state {key!r} has the wrong dimension", doc.path, line_no
                )
        else:
            raise DocumentError(f"unexpected line in [states]: {body!r}", doc.path, line_no)
    flush()


def _resolve_state(doc: Document, token: str, line_no: int) -> CompositeState:
    token = token.strip()
    if "." in token:
        label, name = token.split(".", 1)
        if label not in doc.spaces or name not in doc.spaces[label].states:
            raise DocumentError(f"unknown state {token!r}", doc.path, line_no)
        return CompositeState.pure(label, name)
    hits = [
        lbl for lbl, sp in doc.spaces.items() if token in sp.states
    ]
    if len(hits) != 1:
        raise DocumentError(
            f"state {token!r} is {'ambiguous' if hits else 'unknown'}",
            doc.path,
            line_no,
        )
    return CompositeState.pure(hits[0], token)


_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _flag(body: str, path: str, line_no: int) -> bool:
    key, value = _key_value(body, path, line_no)
    if value.lower() not in _FLAGS:
        raise DocumentError(
            f"{key} must be true/false, yes/no or 1/0, got {value!r}", path, line_no
        )
    return _FLAGS[value.lower()]


def _parse_relation(doc: Document, rows) -> Optional[Accessibility]:
    if not rows:
        return None
    edges = []
    nodes = []
    close = True
    scaling = False
    oracle_text = None
    oracle_line = 0
    for line_no, body in rows:
        if oracle_line or (body.startswith("oracle") and line_no != rows[0][0]):
            raise DocumentError("an oracle relation takes no other line", doc.path, line_no)
        if body.startswith("edge "):
            parts = body.split()
            if len(parts) != 3:
                raise DocumentError("expected 'edge FROM TO'", doc.path, line_no)
            edges.append(
                (
                    _resolve_state(doc, parts[1], line_no),
                    _resolve_state(doc, parts[2], line_no),
                )
            )
        elif body.startswith("node "):
            nodes.append(_resolve_state(doc, body[5:], line_no))
        elif body.startswith("closure"):
            close = _flag(body, doc.path, line_no)
        elif body.startswith("scaling"):
            scaling = _flag(body, doc.path, line_no)
        elif body.startswith("oracle"):
            _, oracle_text = _key_value(body, doc.path, line_no)
            oracle_line = line_no
        else:
            raise DocumentError(
                f"unexpected line in relation section: {body!r}", doc.path, line_no
            )
    if oracle_text is not None:
        spaces = list(doc.spaces.values())
        if not spaces:
            raise DocumentError("oracle relation needs [states]", doc.path, oracle_line)
        coords = spaces[0].coords
        chart = Chart(coords)
        expr = _expr(doc, oracle_text, chart, oracle_line)
        try:
            return EntropyOracle.from_expression(spaces, expr)
        except AccessError as err:
            raise DocumentError(str(err), doc.path, oracle_line) from None
    for a, b in edges:
        for node in (a, b):
            if node not in nodes:
                nodes.append(node)
    for lbl, sp in doc.spaces.items():
        for name in sp.names():
            node = CompositeState.pure(lbl, name)
            if node not in nodes:
                nodes.append(node)
    rel = EdgeRelation(nodes, edges, supports_scaling=scaling)
    return rel.closure() if close else rel


def _parse_entropy(doc: Document, rows):
    for line_no, body in rows:
        if not body.startswith("fn "):
            raise DocumentError(
                "expected 'fn NAME on SPACE : state = value, ...'", doc.path, line_no
            )
        head, _, assigns = body.partition(":")
        tokens = head.split()
        if len(tokens) != 4 or tokens[2] != "on":
            raise DocumentError(
                "expected 'fn NAME on SPACE : ...'", doc.path, line_no
            )
        name, label = tokens[1], tokens[3]
        if label not in doc.spaces:
            raise DocumentError(f"unknown space {label!r}", doc.path, line_no)
        values = {}
        for piece in assigns.split(","):
            if not piece.strip():
                continue
            key, value = _key_value(piece, doc.path, line_no)
            values[key] = _fraction(value, doc.path, line_no)
        missing = set(doc.spaces[label].names()) - set(values)
        if missing:
            raise DocumentError(
                f"entropy {name!r} misses states {sorted(missing)}", doc.path, line_no
            )
        doc.entropies[name] = (label, EntropyFn(label, values))


def _parse_posets(doc: Document, rows):
    for line_no, body in rows:
        if not body.startswith("poset "):
            raise DocumentError("expected 'poset NAME : carrier : edges'", doc.path, line_no)
        try:
            head, carrier_text, edge_text = body.split(":", 2)
        except ValueError:
            raise DocumentError(
                "expected 'poset NAME : a b c : a<b, b<c'", doc.path, line_no
            ) from None
        name = head[6:].strip()
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
        doc.poset_lines[name] = line_no


def _parse_maps(doc: Document, rows):
    for line_no, body in rows:
        if not body.startswith("map "):
            raise DocumentError(
                "expected 'map NAME : SRC -> DST : a = x, ...'", doc.path, line_no
            )
        try:
            head, arrow, assigns = body.split(":", 2)
        except ValueError:
            raise DocumentError(
                "expected 'map NAME : SRC -> DST : a = x, ...'", doc.path, line_no
            ) from None
        name = head[4:].strip()
        if "->" not in arrow:
            raise DocumentError("map needs 'SRC -> DST'", doc.path, line_no)
        src, dst = (s.strip() for s in arrow.split("->", 1))
        mapping = {}
        for piece in assigns.split(","):
            if not piece.strip():
                continue
            key, value = _key_value(piece, doc.path, line_no)
            mapping[key] = value
        doc.maps[name] = (src, dst, mapping)
        doc.map_lines[name] = line_no


def _parse_transforms(doc: Document, rows):
    for line_no, body in rows:
        if not body.startswith("swap "):
            raise DocumentError("expected 'swap NAMES... : name NEW'", doc.path, line_no)
        head, _, name_part = body.partition(":")
        swaps = head[5:].split()
        new_name = None
        name_part = name_part.strip()
        if name_part:
            if not name_part.startswith("name "):
                raise DocumentError("expected ': name NEW' after swap", doc.path, line_no)
            new_name = name_part[5:].strip()
        if not swaps:
            raise DocumentError("swap line names no pairs", doc.path, line_no)
        doc.transforms.append((tuple(swaps), new_name))
