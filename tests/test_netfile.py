import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnet import catalog, netfile
from qbnet.classical import CBNet, total_mass, validate
from qbnet.core import NodeBlock
from qbnet.errors import CyclicGraph, InvalidState, ParseError
from qbnet.netfile import (
    EvidenceCase,
    angle_string,
    emit_cases,
    emit_net,
    format_value_cell,
    parse_cases,
    parse_constraints,
    parse_net,
    parse_number,
    read_net,
    write_net,
)
from qbnet.quantum import QBNet

from conftest import random_cbnet, random_qbnet


def assert_same_net(a, b):
    # emission canonicalizes node declaration order, so compare as sets;
    # labelling, tables, and column layout must match exactly
    assert type(a) is type(b)
    assert sorted(a.graph.nodes) == sorted(b.graph.nodes)
    assert a.meta == b.meta
    assert a.pre_net == b.pre_net
    if not a.pre_net:
        assert a.chronological == b.chronological
    for node in a.graph.nodes:
        assert a.parents(node) == b.parents(node)
        assert a.space.states(node) == b.space.states(node)
        assert a.space.components(node) == b.space.components(node)
        ta, tb = a.table(node), b.table(node)
        assert ta.dtype == tb.dtype
        assert np.array_equal(ta, tb)


def test_catalog_nets_round_trip_exactly():
    for entry in catalog.list_entries():
        net = catalog.build(entry.id)
        assert_same_net(net, parse_net(emit_net(net)))


def test_random_nets_round_trip_exactly():
    for seed in range(30):
        assert_same_net(random_cbnet(seed), parse_net(emit_net(random_cbnet(seed))))
        assert_same_net(random_qbnet(seed), parse_net(emit_net(random_qbnet(seed))))
    # structural zeros exercise the omitted-entry path
    for seed in range(30, 40):
        net = random_cbnet(seed, zero_frac=0.4)
        assert_same_net(net, parse_net(emit_net(net)))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_nets(draw):
    """Classical or quantum nets of up to four nodes, each with one to three
    components, its own state count and parents taken from earlier nodes in
    any order; table entries are any finite number, or a structural zero."""
    quantum = draw(st.booleans())
    value = st.complex_numbers(allow_nan=False, allow_infinity=False) if quantum else FINITE
    value = st.one_of(st.just(0), value)
    blocks = []
    for i in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 3))
        state = st.tuples(*[st.integers(0, 3)] * width)
        states = draw(st.lists(state, min_size=1, max_size=4, unique=True))
        parents = draw(st.lists(st.sampled_from(blocks), unique_by=lambda b: b.name)) if i else []
        n_cols = math.prod(len(p.states) for p in parents)
        cells = draw(st.lists(value, min_size=len(states) * n_cols, max_size=len(states) * n_cols))
        blocks.append(
            NodeBlock(
                f"n{i}",
                states,
                np.array(cells).reshape(len(states), n_cols),
                parents=tuple(p.name for p in parents),
                components=tuple(f"n{i}.c{k}" for k in range(width)),
            )
        )
    return (QBNet if quantum else CBNet).from_blocks(blocks)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_nets())
def test_emit_then_parse_reproduces_tables_bit_for_bit(net):
    again = parse_net(emit_net(net))
    assert_same_net(net, again)
    for node in net.graph.nodes:
        # a zero entry of either sign is left out of the file and reads back as +0
        want = np.where(net.factor(node) == 0, 0, net.factor(node))
        assert want.tobytes() == again.factor(node).tobytes()


def test_emission_is_byte_stable():
    net = catalog.build("fig19-loop")
    text = emit_net(net)
    assert text == emit_net(net)
    assert text == emit_net(parse_net(text))
    assert "\r" not in text
    assert text.endswith("\n")


def test_symbolic_angles_survive_in_meta():
    text = emit_net(catalog.build("fig19-loop"))
    assert "meta theta_u pi/5" in text
    reparsed = parse_net(text)
    assert reparsed.meta["theta_u"] == "pi/5"


def test_recombining_net_file_carries_its_phase():
    net = catalog.build("fig28")
    text = emit_net(net)
    assert f"meta phase {net.meta['phase']}" in text
    again = parse_net(text)
    assert again.meta["phase"] == net.meta["phase"]


def test_cyclic_classical_file_parses_as_pre_net():
    net = catalog.build("fig4-cycle")
    text = emit_net(net)
    assert "pre-net true" in text
    again = parse_net(text)
    assert again.pre_net
    assert total_mass(again) == 2.0
    report = validate(again)
    assert not report.ok
    assert any("cycle" in p for p in report.problems)
    # even without the flag, a cyclic file must come back as a diagnosable net
    stripped = text.replace("pre-net true\n", "")
    fallback = parse_net(stripped)
    assert fallback.pre_net
    assert not validate(fallback).ok


def test_file_io_helpers(tmp_path):
    net = catalog.build("fig23")
    path = tmp_path / "net.qbn"
    write_net(net, path)
    assert_same_net(net, read_net(path))
    assert path.read_bytes() == emit_net(net).encode()


def coin_and_copy(order, pre_net=False, meta=None, name="coin", component="coin"):
    """A coin and a copy of it, as blocks declared in ``order``."""
    blocks = {
        "coin": NodeBlock(name, [0, 1], [0.25, 0.75], components=(component,)),
        "copy": NodeBlock("copy", [0, 1], np.eye(2), parents=(name,)),
    }
    return CBNet.from_blocks([blocks[n] for n in order], meta=meta, pre_net=pre_net)


def test_an_acyclic_pre_net_is_emitted_in_chronological_order():
    first = coin_and_copy(("copy", "coin"), pre_net=True)
    second = coin_and_copy(("coin", "copy"), pre_net=True)
    assert first.graph.nodes != second.graph.nodes
    text = emit_net(first)
    assert text == emit_net(second)
    assert text.index("node coin") < text.index("node copy")
    for net in (first, second):
        assert_same_net(net, parse_net(text))


UNWRITABLE = {
    "spaced node": ({"name": "my coin"}, "node 'my coin' is empty or holds whitespace"),
    "spaced component": ({"component": "x y"}, "component 'x y' is empty or holds whitespace"),
    "spaced meta key": ({"meta": {"my key": "v"}}, "meta key 'my key' is empty or holds whitespace"),
    "empty meta key": ({"meta": {"": "v"}}, "meta key '' is empty or holds whitespace"),
    "two-line meta value": (
        {"meta": {"k": "v\nw"}},
        "meta 'k': value 'v\\nw' is not one line without outer spaces",
    ),
    "meta value split by a line separator": (
        {"meta": {"k": "v\u2028w"}},
        "meta 'k': value 'v\\u2028w' is not one line without outer spaces",
    ),
    "meta value with outer spaces": (
        {"meta": {"k": " v"}},
        "meta 'k': value ' v' is not one line without outer spaces",
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_emission_refuses_text_that_would_not_read_back(case, tmp_path):
    kwargs, message = UNWRITABLE[case]
    net = coin_and_copy(("coin", "copy"), **kwargs)
    with pytest.raises(ValueError) as err:
        emit_net(net)
    assert str(err.value) == message
    path = tmp_path / "net.qbn"
    with pytest.raises(ValueError):
        write_net(net, path)
    assert not path.exists()


def test_a_meta_value_with_inner_spaces_reads_back_verbatim():
    net = coin_and_copy(("coin", "copy"), meta={"title": "a  coin\tand its copy", "empty": ""})
    assert parse_net(emit_net(net)).meta == net.meta


HAND_WRITTEN = """\
# a coin and a copy of it
qbnet 1
kind classical
meta title coin-copy
node coin
components coin
states (0) (1)
parents
entry (0) 0.25
entry (1) 0.75
node copy
components copy
states (0) (1)
parents coin
entry (0) (0) 1
entry (1) (1) 1
"""


def test_hand_written_file_parses():
    net = parse_net(HAND_WRITTEN)
    assert net.graph.nodes == ("coin", "copy")
    assert net.meta == {"title": "coin-copy"}
    assert np.array_equal(net.table("coin"), [[0.25], [0.75]])
    assert np.array_equal(net.table("copy"), np.eye(2))
    assert validate(net).ok


def test_entry_column_order_tracks_parent_declaration():
    # two parents: the second one varies fastest across columns
    text = "\n".join(
        [
            "qbnet 1",
            "kind classical",
            "node a",
            "states (0) (1)",
            "parents",
            "entry (0) 0.5",
            "entry (1) 0.5",
            "node b",
            "states (0) (1)",
            "parents",
            "entry (0) 0.5",
            "entry (1) 0.5",
            "node c",
            "states (0)",
            "parents a b",
            "entry (0) (1) (0) 7",
            "",
        ]
    )
    net = parse_net(text)
    assert np.array_equal(net.table("c"), [[0.0, 0.0, 7.0, 0.0]])


# c under parents a (2 states) and b (3 states): value of (c, a, b), listed
# in no particular order
TWO_PARENT_VALUES = {
    (1, 1, 2): 12.0, (0, 0, 1): 1.0, (1, 0, 0): 6.0, (0, 1, 2): 5.0,
    (0, 1, 0): 3.0, (1, 0, 2): 8.0, (0, 0, 0): 0.5, (1, 1, 1): 11.0,
    (0, 0, 2): 2.0, (1, 1, 0): 9.0, (0, 1, 1): 4.0, (1, 0, 1): 7.0,
}


def two_parent_text(kind):
    value = (lambda v: f"[{v},{-v}]") if kind == "quantum" else str
    lines = ["qbnet 1", f"kind {kind}"]
    for name, n in (("a", 2), ("b", 3)):
        lines += [f"node {name}", "states " + " ".join(f"({i})" for i in range(n)), "parents"]
        lines += [f"entry ({i}) {value(1.0)}" for i in range(n)]
    lines += ["node c", "states (0) (1)", "parents a b"]
    lines += [f"entry ({k}) ({i}) ({j}) {value(v)}" for (k, i, j), v in TWO_PARENT_VALUES.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_factor_axes_are_parents_then_node(kind):
    want = {key: complex(v, -v) if kind == "quantum" else v for key, v in TWO_PARENT_VALUES.items()}
    net = parse_net(two_parent_text(kind))
    factor, table = net.factor("c"), net.table("c")
    assert factor.shape == (2, 3, 2) and table.shape == (2, 6)
    for (k, i, j), v in want.items():
        assert factor[i, j, k] == table[k, 3 * i + j] == v
        assert net.entry("c", (k,), [(i,), (j,)]) == v
    for arr in (factor, table):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    # a 2-D table handed to NodeBlock lands on the same axes
    cls = QBNet if kind == "quantum" else CBNet
    grid = np.arange(12.0).reshape(2, 6)
    built = cls.from_blocks(
        [
            NodeBlock("a", [0, 1], [1.0, 0.0]),
            NodeBlock("b", [0, 1, 2], [1.0, 0.0, 0.0]),
            NodeBlock("c", [0, 1], grid, parents=("a", "b")),
        ]
    )
    for k, i, j in TWO_PARENT_VALUES:
        assert built.factor("c")[i, j, k] == grid[k, 3 * i + j]
    assert np.array_equal(built.table("c"), grid)


def test_pi_literals_in_entry_values():
    assert parse_number("pi") == math.pi
    assert parse_number("pi/5") == math.pi / 5
    assert parse_number("-3*pi/4") == -3 * math.pi / 4
    assert parse_number("2*pi") == 2 * math.pi
    text = HAND_WRITTEN.replace("entry (0) 0.25", "entry (0) pi/4").replace(
        "entry (1) 0.75", "entry (1) 0.5"
    )
    assert parse_net(text).table("coin")[0, 0] == math.pi / 4
    with pytest.raises(ParseError):
        parse_number("pie")


@pytest.mark.parametrize("token", ["nan", "-inf", "inf", "1e400", "[nan,0.5]", "[0.5,1e400]"])
def test_non_finite_entries_are_parse_errors(token):
    kind = "quantum" if token.startswith("[") else "classical"
    text = f"qbnet 1\nkind {kind}\nnode a\nstates (0)\nparents\nentry (0) {token}\n"
    with pytest.raises(ParseError, match="not a finite number") as err:
        parse_net(text)
    assert err.value.line == 6


def test_overflowing_pi_fraction_is_a_parse_error():
    with pytest.raises(ParseError, match="not a finite number"):
        parse_number("9" * 400 + "*pi")


def _pi_text(f: Fraction) -> str:
    head = "pi" if abs(f.numerator) == 1 else f"{abs(f.numerator)}*pi"
    text = ("-" if f < 0 else "") + head
    return text if f.denominator == 1 else f"{text}/{f.denominator}"


def test_an_angle_is_written_as_its_reduced_pi_fraction():
    for n in range(-48, 49):
        for d in range(1, 13):
            want = _pi_text(Fraction(n, d)) if n else "0"
            assert angle_string(n * math.pi / d) == want, (n, d)
    for x in (0.123, 1.0, -2.5, 1e-3, math.e):
        assert angle_string(x) == repr(x)
    assert catalog.angle_string is angle_string


def test_every_written_pi_fraction_reads_back_exactly():
    reduced = {Fraction(n, d) for n in range(-48, 49) for d in range(1, 13)} - {0}
    assert len(reduced) == 720
    for f in reduced:
        x = f.numerator * math.pi / f.denominator
        assert parse_number(angle_string(x)) == x, f


def test_the_cli_imports_neither_fractions_nor_decimal():
    env = dict(os.environ, PYTHONPATH=str(Path(netfile.__file__).parents[1]))
    code = "import sys, qbnet.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def quantum_lines(*extra):
    return "\n".join(
        [
            "qbnet 1",
            "kind quantum",
            "node a",
            "states (0) (1)",
            "parents",
            "entry (0) [0.6,0]",
            "entry (1) [0,0.8]",
            *extra,
            "",
        ]
    )


def test_quantum_values_parse_as_pairs():
    net = parse_net(quantum_lines())
    assert isinstance(net, QBNet)
    assert net.table("a")[1, 0] == 0.8j
    # a bare real is promoted to a complex entry
    net2 = parse_net(quantum_lines().replace("[0.6,0]", "0.6"))
    assert net2.table("a")[0, 0] == 0.6 + 0j


HEAD = "qbnet 1\nkind classical\n"
BAD_INPUTS = [
    ("kind classical\nnode a\n", 1, "expected 'qbnet 1' first"),
    ("qbnet 1\nnode a\nstates (0)\nparents\nentry (0) 1\n", 5, "missing kind line"),
    ("qbnet 1\nkind sideways\n", 2, "kind must be classical or quantum"),
    (HEAD + "kind quantum\n", 3, "duplicate kind line"),
    (HEAD + "meta\n", 3, "meta needs a key"),
    # each header directive is read once
    (HEAD + "meta k 1\nmeta k 2\n", 4, "duplicate meta key 'k'"),
    (HEAD + "pre-net false\npre-net true\n", 4, "duplicate pre-net line"),
    (HEAD + "pre-net\n", 3, "pre-net must be true or false"),
    (HEAD + "pre-net yes\n", 3, "pre-net must be true or false"),
    (HEAD + "pre-net true false\n", 3, "pre-net must be true or false"),
    # only a file without a pre-net line falls back to one on a cycle
    (
        HEAD + "pre-net false\nnode u\nstates (0)\nparents w\nnode w\nstates (0)\nparents u\n",
        3,
        "pre-net false on a graph with a directed cycle",
    ),
    # checked once the kind is known, which may come after it
    (
        "qbnet 1\npre-net true\nkind quantum\nnode a\nstates (0)\nparents\n",
        2,
        "pre-net true needs kind classical",
    ),
    (HEAD + "states (0)\n", 3, "states before any node line"),
    (HEAD + "node a b\n", 3, "node needs exactly one name"),
    (HEAD + "node a\nnode a\n", 4, "duplicate node 'a'"),
    # a repeated section is refused before its list is read
    (HEAD + "node a\ncomponents a\ncomponents\n", 5, "duplicate components line"),
    (HEAD + "node a\nstates (0)\nstates zero\n", 5, "duplicate states line"),
    (HEAD + "node a\nparents\nparents\n", 5, "duplicate parents line"),
    (HEAD + "node a\ncomponents\n", 4, "components line needs at least one name"),
    (HEAD + "node a\nstates\n", 4, "states line needs at least one state"),
    (HEAD + "node a\nstates zero\n", 4, "state must look like (0,1), got 'zero'"),
    (HEAD + "node a\nstates ()\n", 4, "empty state tuple"),
    (HEAD + "node a\nstates (0,x)\n", 4, "non-integer occupation in '(0,x)'"),
    (HEAD + "node a\nentry (0)\n", 4, "entry needs a state and a value"),
    (HEAD + "node a\nstates (0) (1,1)\nparents\n", 3, "node 'a' mixes state widths"),
    (
        HEAD + "node a\ncomponents x y\nstates (0)\nparents\n",
        3,
        "node 'a': component count does not match state width",
    ),
    (HEAD + "node a\nstates (0)\nparents ghost\n", 3, "node 'a' lists unknown parent 'ghost'"),
    (HEAD + "node a\nstates (0)\nparents\nentry (0) 1\nentry (0) 1\n", 7, "duplicate entry"),
    (
        HEAD + "node a\nstates (0)\nparents\nentry (1) 1\n",
        6,
        "entry state (1) not in the states line",
    ),
    (
        HEAD + "node a\nstates (0)\nparents\nentry (0) (0) 1\n",
        6,
        "entry needs 0 parent states, got 1",
    ),
    (HEAD + "node a\nstates (0)\nparents\nentry (0) huh\n", 6, "not a number: 'huh'"),
    (HEAD + "node a\nstates (0)\nparents\nentry (0) pi/0\n", 6, "zero denominator in 'pi/0'"),
    (HEAD + "whatever now\n", 3, "unknown directive 'whatever'"),
    (
        "qbnet 1\nkind quantum\nnode a\nstates (0)\nparents\nentry (0) [1,2,3]\n",
        6,
        "value pair needs two numbers, got '[1,2,3]'",
    ),
    (
        "qbnet 1\nkind quantum\nnode a\nstates (0)\nparents\nentry (0) [1,0\n",
        6,
        "unterminated value pair '[1,0'",
    ),
    (HEAD + "node a\nstates (0) (1) (0)\nparents\n", 3, "node 'a' has duplicate states"),
    (
        HEAD + "node a\nstates (0)\nparents\nnode b\ncomponents a\nstates (0)\nparents\n",
        6,
        "node 'b': component name 'a' is not globally unique",
    ),
    (
        HEAD + "node a\ncomponents x x\nstates (0,0)\nparents\n",
        3,
        "node 'a': component name 'x' is not globally unique",
    ),
    (HEAD + "node a\nstates (0,1)\nparents\n", 3, "node 'a' has 2 components but no components line"),
    (HEAD + "node a\nstates (0)\nparents a\n", 3, "node 'a' lists itself as a parent"),
    (
        HEAD + "node a\nstates (0)\nparents\nnode b\nstates (0)\nparents a a\n",
        6,
        "node 'b' lists a parent twice",
    ),
    (
        HEAD + "node a\nstates (0)\nparents\nentry (0) [1,0]\n",
        6,
        "a [re,im] value needs kind quantum",
    ),
]


@pytest.mark.parametrize("text,line,message", BAD_INPUTS)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_net(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_missing_sections_are_reported():
    for section, body in (("states", "parents\n"), ("parents", "states (0)\n")):
        with pytest.raises(ParseError) as err:
            parse_net(HEAD + "node a\n" + body)
        assert str(err.value) == f"line 3: node 'a' has no {section} line"
        assert err.value.line == 3
    with pytest.raises(ParseError, match="no nodes"):
        parse_net(HEAD)


CATALOG_TEXTS = {e.id: emit_net(catalog.build(e.id)) for e in catalog.list_entries()}
ODD_TOKENS = [
    "nan", "inf", "pi/0", "()", "(0)", "(1)", "(0,1)", "(1,1)", "[1,0]", "[0.5]",
    "[1,2,3]", "-1", "2", "true", "quantum", "classical", "psi", "z.plus", "u",
]


@st.composite
def mutated_catalog_texts(draw):
    """Emitted catalog text with up to four lines dropped, duplicated,
    swapped, or with one token replaced by any token of the file or an odd one."""
    lines = CATALOG_TEXTS[draw(st.sampled_from(sorted(CATALOG_TEXTS)))].splitlines()
    pool = sorted({t for line in lines for t in line.split()}) + ODD_TOKENS
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(pool))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(mutated_catalog_texts())
def test_mutated_catalog_text_parses_or_raises_a_parse_error(text):
    try:
        parse_net(text)
    except ParseError as err:
        assert err.line is not None
    except CyclicGraph:
        assert "kind quantum" in text  # a cyclic classical file parses as a pre-net


def test_cases_round_trip():
    net = catalog.build("fig19-loop")
    comps = catalog.query_components(net)
    cases = catalog.default_cases(net)
    text = emit_cases(comps, cases)
    header, again = parse_cases(text)
    assert header == comps
    assert [c.number for c in again] == [c.number for c in cases]
    for before, after in zip(cases, again):
        assert before.as_sets() == after.as_sets()
    assert text == emit_cases(header, again)


@pytest.mark.parametrize(
    "values",
    [frozenset({0, 1}), {0, 1}, (1, 0), [0, 1], frozenset({1}), (1,), [1]],
    ids=["frozenset", "set", "tuple", "list", "frozenset1", "tuple1", "list1"],
)
def test_a_value_set_renders_the_same_from_any_iterable(values):
    cell = "{" + ",".join(str(v) for v in sorted(values)) + "}"
    case = EvidenceCase(7, (("z.plus", values), ("u.plus", 1)))
    assert case.describe() == f"z.plusin{cell} u.plus=1"
    text = emit_cases(("z.plus", "u.plus"), [case])
    quoted = f'"{cell}"' if "," in cell else cell
    assert text == f"case,z.plus,u.plus\n7,{quoted},1\n"
    header, (again,) = parse_cases(text)
    assert again.as_sets() == case.as_sets()
    assert again.describe() == case.describe()


CASE_COMPONENTS = ("z.plus", "z.minus", "u.plus")
CASE_VALUES = st.one_of(
    st.integers(-2, 3),
    st.booleans(),
    st.integers(0, 3).map(np.int64),
    st.sets(st.integers(0, 3), max_size=3).flatmap(
        lambda s: st.sampled_from([s, frozenset(s), tuple(sorted(s)), list(s)])
    ),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(CASE_COMPONENTS), CASE_VALUES, max_size=3))
def test_written_cases_and_constraint_lists_read_back(fixed):
    case = EvidenceCase(3, tuple((a, fixed[a]) for a in CASE_COMPONENTS if a in fixed))
    if not all(case.as_sets().values()):
        # no cell reads back as an empty set, so the writers refuse one
        with pytest.raises(InvalidState):
            emit_cases(CASE_COMPONENTS, [case])
        with pytest.raises(InvalidState):
            case.describe()
        return
    _, (again,) = parse_cases(emit_cases(CASE_COMPONENTS, [case]))
    assert again.as_sets() == case.as_sets()
    assert again.describe() == case.describe()
    terms = ",".join(f"{alpha}={format_value_cell(v)}" for alpha, v in case.constraints)
    assert EvidenceCase(0, tuple(parse_constraints(terms).items())).as_sets() == case.as_sets()


def test_the_case_record_lives_in_netfile_without_the_catalog():
    assert catalog.EvidenceCase is EvidenceCase
    with open(netfile.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert "catalog" not in {name.split(".")[-1] for name in names}


def test_cases_cells():
    text = 'case,z.plus,z.minus,u.plus\n1,,,\n2,0,,"{0,1}"\n7,1,0,\n'
    header, cases = parse_cases(text)
    assert header == ("z.plus", "z.minus", "u.plus")
    assert cases[0].as_sets() == {}
    assert cases[1].as_sets() == {
        "z.plus": frozenset({0}),
        "u.plus": frozenset({0, 1}),
    }
    assert cases[2].as_sets() == {"z.plus": frozenset({1}), "z.minus": frozenset({0})}
    assert parse_cases("") == ((), [])


def test_a_case_constraining_a_component_twice_is_refused():
    for cells in ((("z.plus", 1), ("z.plus", 0)), (("z.plus", 1), ("u.plus", 0), ("z.plus", 1))):
        with pytest.raises(ValueError) as err:
            EvidenceCase(1, cells).as_sets()
        assert str(err.value) == "component 'z.plus' constrained twice"
    with pytest.raises(InvalidState):  # a value that is not whole is refused first
        EvidenceCase(1, (("z.plus", 0.5), ("z.plus", 0))).as_sets()


def test_both_constrained_twice_refusals_name_the_first_repeat():
    cells = (("a", 1), ("b", 1), ("b", 0), ("a", 0))  # 'b' repeats first, 'a' no more often
    with pytest.raises(ValueError) as err:
        EvidenceCase(1, cells).as_sets()
    assert str(err.value) == "component 'b' constrained twice"
    with pytest.raises(ParseError) as err:
        parse_constraints(",".join(f"{alpha}={v}" for alpha, v in cells))
    assert str(err.value) == "component 'b' constrained twice"


def test_cases_errors():
    with pytest.raises(ParseError, match="start with 'case'"):
        parse_cases("number,a\n1,0\n")
    with pytest.raises(ParseError) as err:
        parse_cases("case,a\none,0\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="blank, int"):
        parse_cases("case,a\n1,maybe\n")
    for cell in ("{}", "{1,}", "{0,1", "{x}"):
        with pytest.raises(ParseError, match="value set") as err:
            parse_cases(f'case,a\n1,"{cell}"\n')
        assert err.value.line == 2
    with pytest.raises(ParseError, match="component 'a' named twice in header") as err:
        parse_cases("\ncase,a,b,a\n1,1,0,0\n")
    assert err.value.line == 2
