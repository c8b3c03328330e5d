"""Command-line surface.

Subcommands: validate, query, cases, paths, catalog, lattice. Numbers are
printed with 12 significant digits and all output is deterministic, so the
same invocation always produces byte-identical text.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error,
3 impossible evidence.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import io
import os
import sys

import numpy as np

from . import catalog
from .classical import validate
from .core import Weights, check_query, value_blocks
from .errors import (
    ContradictoryEvidence,
    InvalidParams,
    InvalidState,
    ParseError,
    QBNetError,
    UnknownEntry,
)
from .lattice import LatticeSpec, potential_preset, propagate
from .netfile import (describe_constraints, emit_net, format_state, parse_constraints,
                      parse_number, read_cases, read_net)
from .pathsum import classify_paths, path_row
from .quantum import QBNet, parent_cb_net, validate_quantum

CONTRADICTION_MARK = "** contradictory evidence: no output **"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_CONTRADICTION = 3


def _num(x) -> str:
    """12 significant digits; a complex number as re+imj."""
    if isinstance(x, complex):
        return f"{_num(x.real)}{x.imag:+.12g}j"
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    net = read_net(args.net)
    report = validate_quantum(net) if isinstance(net, QBNet) else validate(net)
    if report.ok:
        print(f"{args.net}: ok ({net.kind}, {len(net.graph.nodes)} nodes)")
    for problem in report.problems:
        print(f"violation: {problem}")
    for note in report.notes:
        print(f"note: {note}")
    return EXIT_OK if report.ok else EXIT_INVALID


# ---------------------------------------------------------------------------
# query


def cmd_query(args) -> int:
    net = read_net(args.net)
    hypothesis = parse_constraints(args.hypothesis)
    if not hypothesis:
        raise ParseError("empty hypothesis")
    for comp, v in hypothesis.items():
        if isinstance(v, frozenset):
            raise ParseError(f"hypothesis pin for {comp!r} must be an integer, not a value set")
    evidence = parse_constraints(args.evidence)
    for comp, v in evidence.items():
        if v is None:
            raise ParseError(f"evidence term {comp!r} needs comp=value")
    if args.mode == "quantum" and not isinstance(net, QBNet):
        raise InvalidParams("quantum mode needs a quantum net file")
    if args.mode == "classical" and isinstance(net, QBNet):
        net = parent_cb_net(net)
    # unlike the library, the CLI lets evidence constrain hypothesis
    # components too: combos outside the evidence just get zero weight
    rest = {a: v for a, v in evidence.items() if a not in hypothesis}
    try:
        check_query(net, hypothesis, rest)
    except InvalidState as err:
        raise ParseError(str(err)) from None
    comps = tuple(hypothesis)
    # zero-weight evidence raises here, before anything is printed
    probs, f_qna = (path_row(net, comps, evidence) if args.mode == "pathsum"
                    else Weights(net, comps, evidence).row(comps))
    for block, p in zip(value_blocks(net, comps), probs):
        if all(hypothesis[a] in (None, v) for a, v in block.items()):
            print(f"{describe_constraints(block.items())}  {_num(p)}")
    if args.fqna:
        print(f"f_qna  {_num(f_qna)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cases


def _print_case_table(result) -> None:
    case = result.case
    print(f"case {case.number}: {case.describe()}")
    for err in result.errors:
        print(f"  error: {err}")
    if result.no_output:
        print(f"  {CONTRADICTION_MARK}")
        print()
        return
    groups = [
        ("single hypotheses", [r for r in result.rows if len(r.components) == 1]),
        ("pair hypotheses", [r for r in result.rows if len(r.components) == 2]),
    ]
    for title, rows in groups:
        if not rows:
            continue
        print(f"  {title}")
        header = ["hypothesis"]
        for kind in ("CB", "QB"):
            header += [f"{kind} {format_state(c)}" for c in rows[0].combos] + [f"{kind} f_qna"]
        table = [header]
        for row in rows:
            cells = [" ".join(row.components)]
            cells += [_num(p) for p in row.cb] + [_num(row.cb_fqna)]
            cells += [_num(p) for p in row.qb] + [_num(row.qb_fqna)]
            table.append(cells)
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for cells in table:
            print("    " + "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    print()


def _case_csv_rows(result):
    head = [result.case.number, result.case.describe()]
    if result.errors:
        for err in result.errors:
            yield [*head, "", "error", "", "", err]
        return
    if result.no_output:
        yield [*head, "", "no-output", "", "", ""]
        return
    for row in result.rows:
        name = " ".join(row.components)
        for kind, probs, fq in (("CB", row.cb, row.cb_fqna), ("QB", row.qb, row.qb_fqna)):
            for combo, p in zip(row.combos, probs):
                yield [*head, name, kind, format_state(combo), _num(p), ""]
            yield [*head, name, kind, "f_qna", _num(fq), ""]


def cmd_cases(args) -> int:
    net = read_net(args.net)
    if not isinstance(net, QBNet):
        raise InvalidParams("the cases runner needs a quantum net file")
    if args.cases:
        header, cases = read_cases(args.cases)
        for alpha in header:
            net.space.owner(alpha)
    else:
        cases = None
    results = catalog.run_evidence_cases(net, cases=cases, hypotheses=args.hypotheses)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["case", "evidence", "hypothesis", "kind", "value", "number", "note"])
        for result in results:
            writer.writerows(_case_csv_rows(result))
    else:
        for result in results:
            _print_case_table(result)
    return EXIT_OK


# ---------------------------------------------------------------------------
# paths


def cmd_paths(args) -> int:
    net = read_net(args.net)
    classes = classify_paths(net)
    ext = net.external_components
    quantum = net.kind == "quantum"
    print(f"node order: {' '.join(net.node_order())}")
    print(f"{len(classes)} final configurations")
    for final in sorted(classes):
        paths = classes[final]
        label = describe_constraints(zip(ext, final))
        total = sum(p.value for p in paths)
        if quantum:
            print(f"final {label}  amplitude {_num(total)}  weight {_num(abs(total) ** 2)}")
        else:
            print(f"final {label}  probability {_num(total)}")
        for p in paths:
            print(f"  path {' '.join(map(format_state, p.states))}  value {_num(p.value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog


def _coerce_param(token: str):
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return parse_number(token)
    except ParseError:
        pass
    try:
        value = complex(token)
    except ValueError:
        raise ParseError(f"cannot read parameter value {token!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"not a finite number: {token!r}")
    return value


def cmd_catalog(args) -> int:
    if args.action == "list":
        for entry in catalog.list_entries():
            print(f"{entry.id:24s} {entry.kind:9s} {entry.summary}")
        return EXIT_OK
    if not args.id:
        raise ParseError("catalog build needs an entry id")
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ParseError(f"parameter {item!r} needs name=value")
        key, value = item.split("=", 1)
        params[key.strip()] = _coerce_param(value.strip())
    net = catalog.build(args.id, **params)
    text = emit_net(net)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lattice


def cmd_lattice(args) -> int:
    spec = LatticeSpec.make(args.nx, args.dx, args.nt, args.dt, mass=args.mass, hbar=args.hbar)
    # the spec's checks speak before the preset's check of its length n_x * dx
    potential = potential_preset(args.potential, spec.length, args.strength)
    spec = dataclasses.replace(spec, potential=potential)
    probs = np.abs(propagate(spec, kernel=args.kernel)) ** 2  # finite: propagate checks
    total = probs.sum()
    print(
        f"lattice {args.nx} sites x {args.nt} steps, kernel {args.kernel}, "
        f"potential {args.potential}"
    )
    print(f"total {_num(total)}")
    for s, x in enumerate(spec.sites()):
        print(f"site {s}  x {_num(x)}  p {_num(probs[s])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbnet", description="classical and quantum net toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net file")
    p.add_argument("net")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("query", help="conditional probability of a hypothesis")
    p.add_argument("net")
    p.add_argument("--hypothesis", required=True, metavar="COMP[=V][,COMP[=V]...]")
    p.add_argument("--evidence", default="", metavar="COMP=V|COMP={V,...},...")
    p.add_argument(
        "--mode", choices=("classical", "quantum", "pathsum"), default="quantum"
    )
    p.add_argument("--fqna", action="store_true", help="also print the noise factor")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("cases", help="batch evidence cases into a report")
    p.add_argument("net")
    p.add_argument("cases", nargs="?", help="CSV case file; defaults to the built-in grid")
    p.add_argument("--hypotheses", choices=("singles", "pairs", "both"), default="both")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(fn=cmd_cases)

    p = sub.add_parser("paths", help="list per-configuration paths and sums")
    p.add_argument("net")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("catalog", help="list or build bundled nets")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("id", nargs="?")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("lattice", help="single-particle box propagation")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--kernel", choices=("exact", "gaussian"), default="exact")
    p.add_argument("--potential", choices=("free", "harmonic", "well"), default="free")
    p.add_argument("--strength", type=float, default=1.0)
    p.set_defaults(fn=cmd_lattice)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream reader (head, less) closed early; park stdout on
        # devnull so the interpreter's exit flush cannot trip again
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, io.UnsupportedOperation):
            pass
        return EXIT_OK
    except ContradictoryEvidence:
        print(CONTRADICTION_MARK)
        return EXIT_CONTRADICTION
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except KeyError as err:
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return EXIT_PARSE
    except (UnknownEntry, InvalidParams, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except QBNetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
