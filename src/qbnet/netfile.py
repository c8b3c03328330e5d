"""Text formats for nets and evidence-case tables.

Net files are line-oriented UTF-8 with LF endings:

    qbnet 1
    kind quantum
    meta catalog fig19-loop
    meta theta_u pi/5
    node psi
    components psi._minus psi._plus
    states (0,1) (1,0)
    parents
    entry (0,1) [0.5,0.5]
    entry (1,0) [0.70710678118654746,0]
    node z.minus
    ...

States are always written as parenthesized occupation tuples. Each entry
line names the node state, then one state per declared parent, then the
value: a plain number for classical nets or a [re,im] pair for quantum
ones. Zero entries are omitted. Numbers use 17 significant digits so a
double round-trips exactly; pi fractions like pi/5 or -3*pi/4, which
``angle_string`` writes, are accepted wherever a number is, and meta values
are kept verbatim, so symbolic angles survive emission unchanged.

Evidence-case files are CSV: a header row of "case" plus component names,
then one row per case, an ``EvidenceCase``. A blank cell means
unconstrained, an integer is a sharp value, and a braced list like {0,1} is
a fuzzy value set. The same value cells spell the constraint lists of the
command line, ``comp,comp=V,comp={V,...}``, and the labels of the printed
reports, ``comp=V compin{V,...}``; this module reads and writes them all.

Both emitters are deterministic: the same net or case list always yields
byte-identical text.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Sequence

from .classical import CBNet
from .core import NodeBlock, value_set
from .errors import CyclicGraph, InvalidState, ParseError
from .quantum import QBNet

FORMAT_HEADER = "qbnet 1"

_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\*)?pi(?:/(\d+))?$")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_value(value, quantum: bool) -> str:
    if quantum:
        z = complex(value)
        return f"[{_fmt(z.real)},{_fmt(z.imag)}]"
    return _fmt(float(value))


def format_state(state: Sequence[int]) -> str:
    """A state or value combo as (0,1)."""
    return "(" + ",".join(str(int(x)) for x in state) + ")"


def parse_number(token: str, line=None) -> float:
    """A finite decimal number or a simple pi fraction such as -3*pi/4."""
    try:
        value = float(token)
    except ValueError:
        m = _PI_RE.match(token)
        if not m:
            raise ParseError(f"not a number: {token!r}", line) from None
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise ParseError(f"zero denominator in {token!r}", line)
        try:
            value = sign * num * math.pi / den
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise ParseError(f"not a finite number: {token!r}", line)
    return value


def angle_string(x: float) -> str:
    """Render an angle, using exact pi fractions when they apply.

    Small rational multiples of pi come out as "pi/5", "-3*pi/4", "2*pi"
    and so on; anything else is the decimal value.
    """
    if x == 0:
        return "0"
    for den in range(1, 13):
        num = x * den / math.pi
        rounded = round(num)
        if rounded != 0 and abs(num - rounded) < 1e-12:
            g = math.gcd(rounded, den)
            n, d = rounded // g, den // g
            head = "pi" if abs(n) == 1 else f"{abs(n)}*pi"
            sign = "-" if n < 0 else ""
            return f"{sign}{head}" if d == 1 else f"{sign}{head}/{d}"
    return repr(float(x))


def _parse_value(token: str, quantum: bool, line):
    if token.startswith("["):
        if not token.endswith("]"):
            raise ParseError(f"unterminated value pair {token!r}", line)
        parts = token[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"value pair needs two numbers, got {token!r}", line)
        return complex(parse_number(parts[0], line), parse_number(parts[1], line))
    value = parse_number(token, line)
    return complex(value, 0.0) if quantum else value


def _parse_state(token: str, line) -> tuple[int, ...]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ParseError(f"state must look like (0,1), got {token!r}", line)
    body = token[1:-1]
    if not body:
        raise ParseError("empty state tuple", line)
    try:
        return tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ParseError(f"non-integer occupation in {token!r}", line)


# ---------------------------------------------------------------------------
# Net emission


def emit_net(net) -> str:
    """Serialize a net; parse_net(emit_net(net)) rebuilds identical tables.
    ValueError names the node, component or meta key that no file reads back."""
    named = [("meta key", key) for key in net.meta] + [("node", n) for n in net.graph.nodes]
    named += [("component", a) for n in net.graph.nodes for a in net.space.components(n)]
    for what, name in named:
        if str(name).split() != [str(name)]:
            raise ValueError(f"{what} {name!r} is empty or holds whitespace")
    quantum = net.kind == "quantum"
    lines = [FORMAT_HEADER, f"kind {net.kind}"]
    if net.pre_net:
        lines.append("pre-net true")
    for key in sorted(net.meta):
        value = str(net.meta[key])
        if value != value.strip() or len(value.splitlines()) > 1:
            raise ValueError(f"meta {key!r}: value {value!r} is not one line without outer spaces")
        lines.append(f"meta {key} {value}" if value else f"meta {key}")
    for node in net.node_order():
        states = net.space.states(node)
        parents = net.parents(node)
        lines.append(f"node {node}")
        lines.append("components " + " ".join(net.space.components(node)))
        lines.append("states " + " ".join(format_state(s) for s in states))
        lines.append(("parents " + " ".join(parents)).rstrip())
        cells = itertools.product(*[net.space.states(p) for p in parents], states)
        for (*combo, state), value in zip(cells, net.factor(node).flat):
            if value == 0:
                continue
            tokens = [format_state(s) for s in (state, *combo)]
            lines.append("entry " + " ".join(tokens + [_fmt_value(value, quantum)]))
    return "\n".join(lines) + "\n"


def write_net(net, path) -> None:
    text = emit_net(net)  # before the file opens, so a refused net leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Net parsing


_NONEMPTY = {"components": "name", "states": "state"}  # sections refused empty: their noun


def parse_net(text: str):
    """Build a net from file text; structural mistakes raise ParseError."""
    nodes: dict[str, dict] = {}  # name -> {"line", "entries", and each section read}
    kind = None
    pre_net, pre_net_line = False, None
    meta: dict[str, str] = {}
    current: dict | None = None
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != FORMAT_HEADER:
                raise ParseError(f"expected {FORMAT_HEADER!r} first", lineno)
            saw_header = True
            continue
        tokens = line.split()
        word = tokens[0]
        if word == "kind":
            if len(tokens) != 2 or tokens[1] not in ("classical", "quantum"):
                raise ParseError("kind must be classical or quantum", lineno)
            if kind is not None:
                raise ParseError("duplicate kind line", lineno)
            kind = tokens[1]
        elif word == "pre-net":
            if len(tokens) != 2 or tokens[1] not in ("true", "false"):
                raise ParseError("pre-net must be true or false", lineno)
            if pre_net_line is not None:
                raise ParseError("duplicate pre-net line", lineno)
            pre_net, pre_net_line = tokens[1] == "true", lineno
        elif word == "meta":
            if len(tokens) < 2:
                raise ParseError("meta needs a key", lineno)
            if tokens[1] in meta:
                raise ParseError(f"duplicate meta key {tokens[1]!r}", lineno)
            meta[tokens[1]] = line.split(None, 2)[2] if len(tokens) > 2 else ""
        elif word == "node":
            if len(tokens) != 2:
                raise ParseError("node needs exactly one name", lineno)
            if tokens[1] in nodes:
                raise ParseError(f"duplicate node {tokens[1]!r}", lineno)
            current = nodes[tokens[1]] = {"line": lineno, "entries": []}
        elif word in ("components", "states", "parents", "entry"):
            if current is None:
                raise ParseError(f"{word} before any node line", lineno)
            if word == "entry":
                if len(tokens) < 3:
                    raise ParseError("entry needs a state and a value", lineno)
                state = _parse_state(tokens[1], lineno)
                combo = tuple(_parse_state(t, lineno) for t in tokens[2:-1])
                value = _parse_value(tokens[-1], kind == "quantum", lineno)
                current["entries"].append((state, combo, value, lineno))
            elif word in current:
                raise ParseError(f"duplicate {word} line", lineno)
            else:
                items = tuple(_parse_state(t, lineno) if word == "states" else t for t in tokens[1:])
                if not items and word in _NONEMPTY:
                    raise ParseError(f"{word} line needs at least one {_NONEMPTY[word]}", lineno)
                current[word] = items
        else:
            raise ParseError(f"unknown directive {word!r}", lineno)

    if kind is None:
        raise ParseError("missing kind line", len(text.splitlines()) or 1)
    if pre_net and kind == "quantum":
        raise ParseError("pre-net true needs kind classical", pre_net_line)
    if not nodes:
        raise ParseError("no nodes declared", len(text.splitlines()) or 1)

    seen_components: set[str] = set()
    for name, node in nodes.items():
        for section in (s for s in ("states", "parents") if s not in node):
            raise ParseError(f"node {name!r} has no {section} line", node["line"])
        states, parents = node["states"], node["parents"]
        width = {len(s) for s in states}
        if len(width) != 1:
            raise ParseError(f"node {name!r} mixes state widths", node["line"])
        if len(set(states)) != len(states):
            raise ParseError(f"node {name!r} has duplicate states", node["line"])
        width = width.pop()
        if "components" not in node and width != 1:
            raise ParseError(
                f"node {name!r} has {width} components but no components line",
                node["line"],
            )
        components = node.setdefault("components", (name,))
        if len(components) != width:
            raise ParseError(
                f"node {name!r}: component count does not match state width",
                node["line"],
            )
        for alpha in components:
            if alpha in seen_components:
                raise ParseError(
                    f"node {name!r}: component name {alpha!r} is not globally unique",
                    node["line"],
                )
            seen_components.add(alpha)
        for parent in parents:
            if parent not in nodes:
                raise ParseError(
                    f"node {name!r} lists unknown parent {parent!r}", node["line"]
                )
        if name in parents:
            raise ParseError(f"node {name!r} lists itself as a parent", node["line"])
        if len(set(parents)) != len(parents):
            raise ParseError(f"node {name!r} lists a parent twice", node["line"])

    blocks = []
    for name, node in nodes.items():
        parent_states = [nodes[p]["states"] for p in node["parents"]]
        values = {}  # (state, parent states) -> value
        for state, combo, value, lineno in node["entries"]:
            if isinstance(value, complex) and kind != "quantum":
                raise ParseError("a [re,im] value needs kind quantum", lineno)
            if state not in node["states"]:
                raise ParseError(
                    f"entry state {format_state(state)} not in the states line", lineno
                )
            if len(combo) != len(parent_states):
                raise ParseError(
                    f"entry needs {len(parent_states)} parent states, got {len(combo)}",
                    lineno,
                )
            for parent, states, s in zip(node["parents"], parent_states, combo):
                if s not in states:
                    raise ParseError(
                        f"parent state {format_state(s)} not declared for {parent!r}", lineno
                    )
            if (state, combo) in values:
                raise ParseError("duplicate entry", lineno)
            values[state, combo] = value
        blocks.append(
            NodeBlock(
                name,
                list(node["states"]),
                lambda state, combo, values=values: values.get((state, combo), 0),
                parents=node["parents"],
                components=node["components"],
            )
        )

    if kind == "quantum":
        return QBNet.from_blocks(blocks, meta=meta)
    try:
        return CBNet.from_blocks(blocks, meta=meta, pre_net=pre_net)
    except CyclicGraph:
        if pre_net_line is not None:  # the file said pre-net false
            raise ParseError("pre-net false on a graph with a directed cycle", pre_net_line)
        # keep the net constructible so the validator can report the cycle
        return CBNet.from_blocks(blocks, meta=meta, pre_net=True)


def read_net(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_net(fh.read())


# ---------------------------------------------------------------------------
# Constraints and evidence cases


def format_value_cell(v) -> str:
    """A sharp integer as itself, any other value or values as {v,...}; an
    empty set raises InvalidState, since no cell reads back as one."""
    if isinstance(v, Integral):
        return str(int(v))
    values = value_set(v)
    if not values:
        raise InvalidState(f"{v!r} is an empty value set")
    return "{" + ",".join(str(x) for x in sorted(values)) + "}"


def describe_constraints(constraints: Iterable[tuple[str, object]]) -> str:
    """(component, value) pairs as a report label: a=1 bin{0,1}."""
    return " ".join(
        f"{alpha}{'=' if isinstance(v, Integral) else 'in'}{format_value_cell(v)}"
        for alpha, v in constraints
    )


@dataclass(frozen=True)
class EvidenceCase:
    """One row of an evidence-case table.

    ``constraints`` pairs component names with either a sharp integer value
    or an iterable of allowed values; unconstrained components are simply
    absent (the blank columns of the table).
    """

    number: int
    constraints: tuple = ()

    def as_sets(self) -> dict[str, frozenset]:
        """{component: allowed values}; ValueError naming the first component
        constrained twice."""
        sets = {alpha: value_set(v) for alpha, v in self.constraints}
        if len(sets) != len(self.constraints):
            names = [alpha for alpha, _ in self.constraints]
            for twice in (a for i, a in enumerate(names) if a in names[:i]):
                raise ValueError(f"component {twice!r} constrained twice")
        return sets

    def describe(self) -> str:
        return describe_constraints(self.constraints) or "(no evidence)"


def emit_cases(components: Sequence[str], cases: Iterable[EvidenceCase]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case", *components])
    for case in cases:
        fixed = dict(case.constraints)
        cells = [format_value_cell(fixed[alpha]) if alpha in fixed else "" for alpha in components]
        writer.writerow([str(case.number), *cells])
    return buf.getvalue()


def parse_value_cell(cell: str, line=None):
    """One evidence value: None when blank, an int, or a {v,...} frozenset."""
    cell = cell.strip()
    if not cell:
        return None
    if cell.startswith("{"):
        if not cell.endswith("}"):
            raise ParseError(f"unterminated value set {cell!r}", line)
        try:
            return frozenset(int(x) for x in cell[1:-1].split(","))
        except ValueError:
            raise ParseError(f"bad value set {cell!r}", line) from None
    try:
        return int(cell)
    except ValueError:
        raise ParseError(f"value must be blank, int, or {{...}}: {cell!r}", line) from None


# a term runs to the next comma outside braces; an unclosed brace runs to the end
_TERM_RE = re.compile(r"(?:[^,{]|\{[^}]*\}?)+")


def parse_constraints(text: str) -> dict[str, int | frozenset | None]:
    """Comma-separated terms ``comp``, ``comp=V`` or ``comp={V,...}`` as
    {comp: None, an int or a frozenset} in the order given. Commas inside
    braces do not split; blank terms are skipped; a term with no component
    or a blank value, or a component named twice, raises ParseError."""
    out: dict[str, int | frozenset | None] = {}
    for term in _TERM_RE.findall(text):
        comp, eq, cell = term.partition("=")
        comp = comp.strip()
        if not (comp or eq):
            continue
        if not comp:
            raise ParseError(f"term {term.strip()!r} names no component")
        if comp in out:
            raise ParseError(f"component {comp!r} constrained twice")
        value = parse_value_cell(cell) if eq else None
        if eq and value is None:
            raise ParseError(f"term {term.strip()!r} needs a value")
        out[comp] = value
    return out


def parse_cases(text: str) -> tuple[tuple[str, ...], list[EvidenceCase]]:
    """Header components and the parsed cases, in file order."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [(i + 1, r) for i, r in enumerate(rows) if any(cell.strip() for cell in r)]
    if not rows:
        return (), []
    header_line, header = rows[0]
    if not header or header[0].strip() != "case":
        raise ParseError("header row must start with 'case'", header_line)
    components = tuple(c.strip() for c in header[1:])
    if any(not c for c in components):
        raise ParseError("empty component name in header", header_line)
    for twice in (c for i, c in enumerate(components) if c in components[:i]):
        raise ParseError(f"component {twice!r} named twice in header", header_line)
    cases = []
    for lineno, row in rows[1:]:
        if len(row) > len(components) + 1:
            raise ParseError("more cells than header columns", lineno)
        try:
            number = int(row[0])
        except ValueError:
            raise ParseError(f"case number must be an integer, got {row[0]!r}", lineno)
        constraints = []
        for alpha, cell in zip(components, row[1:]):
            value = parse_value_cell(cell, lineno)
            if value is not None:
                constraints.append((alpha, value))
        cases.append(EvidenceCase(number, tuple(constraints)))
    return components, cases


def read_cases(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cases(fh.read())
