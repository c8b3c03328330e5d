"""cli-session: the qbnet command as a user runs it, one process per call.

One op is one ``python -m qbnet ...`` child. Interpreter start-up and the
imports behind ``qbnet.cli`` take about 0.2 s of each call and inference
well under a millisecond, so import and parse changes show here and engine
changes should not.

Set-up writes all sixteen catalog nets to files. A block is twenty calls
in a fixed mix (validate, query in the quantum, classical and path-sum
modes with sharp and set evidence, paths, cases on the two-magnet nets,
catalog build, and bad input expecting exit code 2 or 3) whose nets and
arguments are drawn from the seed and whose order is shuffled. The three
cases calls are the slowest of each block, so every run's p90 falls among
them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import re
import sys

import numpy as np

from common import ChildResult, discard, rng, run_child, workdir
from reference import TOL, PathTable, close, value_set

CONTRADICTION = "** contradictory evidence: no output **"
TWO_MAGNET = ("fig18", "fig19-loop")
SLOTS = (
    ("validate",) * 3
    + ("quantum",) * 4
    + ("classical",) * 3
    + ("pathsum",) * 2
    + ("paths",) * 2
    + ("cases",) * 3
    + ("build",)
    + ("bad",) * 2
)
MIN_OPS = 100


class Op:
    """One command line plus what its check needs to know."""

    __slots__ = ("kind", "argv", "net_id", "spec")

    def __init__(self, kind, argv, net_id=None, spec=None):
        self.kind, self.argv, self.net_id, self.spec = kind, tuple(argv), net_id, spec


def _fmt_evidence(evidence) -> str:
    parts = []
    for alpha, v in evidence.items():
        if isinstance(v, frozenset):
            parts.append(f"{alpha}={{{','.join(str(x) for x in sorted(v))}}}")
        else:
            parts.append(f"{alpha}={v}")
    return ",".join(parts)


class Session:
    name = "cli-session"
    min_ops = MIN_OPS

    def __init__(self, seed: int):
        from qbnet import catalog, netfile

        self.seed = seed
        self.catalog = catalog
        self.dir = workdir(self.name)
        self.nets, self.files = {}, {}
        for entry in catalog.list_entries():
            net = catalog.build(entry.id)
            path = self.dir / f"{entry.id}.qbn"
            netfile.write_net(net, path)
            self.nets[entry.id] = net
            self.files[entry.id] = str(path)
        self.quantum_ids = [i for i, n in self.nets.items() if n.kind == "quantum"]
        self._tables: dict = {}
        self._cases: dict = {}
        self._maxrss_kb = 0

    # -- inputs ----------------------------------------------------------

    def _values(self, net_id, alpha):
        return self.nets[net_id].space.component_values(alpha)

    def _query(self, r, mode) -> Op:
        net_id = r.choice(self.quantum_ids if mode == "quantum" else list(self.nets))
        comps = list(self.catalog.query_components(self.nets[net_id]))
        hyp = r.sample(comps, 2 if r.random() < 0.4 else 1)
        fixed = {}
        if r.random() < 0.3:
            alpha = r.choice(hyp)
            fixed[alpha] = r.choice(self._values(net_id, alpha))
        rest = [c for c in comps if c not in hyp]
        evidence = {}
        for alpha in r.sample(rest, min(len(rest), r.randint(0, 2))):
            values = self._values(net_id, alpha)
            if len(values) > 1 and r.random() < 0.3:
                evidence[alpha] = frozenset(r.sample(values, r.randint(1, len(values))))
            else:
                evidence[alpha] = r.choice(values)
        fqna = r.random() < 0.5
        return self._query_op(net_id, mode, hyp, fixed, evidence, fqna)

    def _query_op(self, net_id, mode, hyp, fixed, evidence, fqna) -> Op:
        text = ",".join(f"{a}={fixed[a]}" if a in fixed else a for a in hyp)
        argv = ["query", self.files[net_id], "--hypothesis", text, "--mode", mode]
        if evidence:
            argv += ["--evidence", _fmt_evidence(evidence)]
        if fqna:
            argv.append("--fqna")
        return Op("query", argv, net_id, (mode, tuple(hyp), fixed, evidence, fqna))

    def _bad(self, r) -> Op:
        net_id = r.choice(self.quantum_ids)
        path = self.files[net_id]
        kind = r.randrange(6)
        if kind == 0:
            return Op("bad", ["query", path, "--hypothesis", "no.such"], net_id, 2)
        if kind == 1:
            return Op("bad", ["query", path, "--hypothesis", "u.plus", "--evidence", "z.plus=one"],
                      net_id, 2)
        if kind == 2:
            return Op("bad", ["query", path, "--hypothesis", "u.minus=99"], net_id, 2)
        if kind == 3:
            return Op("bad", ["validate", str(self.dir / "missing.qbn")], net_id, 2)
        if kind == 4:
            return Op("bad", ["catalog", "build", "fig99"], None, 2)
        # a single particle cannot take both source beams: exit code 3
        mode = r.choice(("quantum", "classical", "pathsum"))
        return self._query_op(net_id, mode, ["u.plus"], {}, {"z.plus": 1, "z.minus": 1}, False)

    def block(self, b: int) -> list:
        r = rng(self.seed, self.name, b)
        ops = []
        for slot in SLOTS:
            if slot in ("quantum", "classical", "pathsum"):
                ops.append(self._query(r, slot))
            elif slot == "validate":
                net_id = r.choice(list(self.nets))
                ops.append(Op("validate", ["validate", self.files[net_id]], net_id))
            elif slot == "paths":
                net_id = r.choice(list(self.nets))
                ops.append(Op("paths", ["paths", self.files[net_id]], net_id))
            elif slot == "cases":
                net_id = r.choice(TWO_MAGNET)
                fmt = r.choice(("table", "csv"))
                ops.append(Op("cases", ["cases", self.files[net_id], "--format", fmt], net_id, fmt))
            elif slot == "build":
                entry = r.choice(list(self.nets))
                ops.append(Op("build", ["catalog", "build", entry], entry))
            else:
                ops.append(self._bad(r))
        r.shuffle(ops)
        return ops

    # -- running ---------------------------------------------------------

    def run(self, op: Op) -> ChildResult:
        res = run_child([sys.executable, "-m", "qbnet", *op.argv], scratch=self.dir)
        self._maxrss_kb = max(self._maxrss_kb, res.maxrss_kb)
        return res

    def run_inprocess(self, op: Op) -> ChildResult:
        """The same argv through ``qbnet.cli.main`` in this process."""
        from qbnet import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return ChildResult(code, out.getvalue(), err.getvalue())

    def peak_rss_kb(self) -> int | None:
        return self._maxrss_kb

    def close(self) -> None:
        discard(self.dir)

    # -- checks ----------------------------------------------------------

    def _table(self, net_id, parent=False) -> PathTable:
        key = (net_id, parent)
        if key not in self._tables:
            from qbnet import netfile

            self._tables[key] = PathTable(netfile.read_net(self.files[net_id]), parent=parent)
        return self._tables[key]

    def check(self, op: Op, res: ChildResult) -> str | None:
        if "Traceback" in res.stderr:
            return f"{' '.join(op.argv)}: traceback"
        return getattr(self, f"_check_{op.kind}")(op, res)

    def _check_bad(self, op, res):
        if res.code != op.spec or not res.stderr:
            return f"{' '.join(op.argv)}: exit {res.code}, expected {op.spec} with a message"
        return None

    def _check_query(self, op, res):
        mode, hyp, fixed, evidence, fqna = op.spec
        parent = mode == "classical" and self.nets[op.net_id].kind == "quantum"
        combos, weights, total, base = self._table(op.net_id, parent).distribution(hyp, evidence)
        where = " ".join(op.argv)
        if total == 0.0 or base == 0.0:
            if res.code != 3 or res.stdout.strip() != CONTRADICTION:
                return f"{where}: exit {res.code}, expected 3 for zero-weight evidence"
            return None
        want = [
            (" ".join(f"{a}={v}" for a, v in zip(hyp, combo)), w / total)
            for combo, w in zip(combos, weights)
            if all(fixed.get(a, v) == v for a, v in zip(hyp, combo))
        ]
        if fqna:
            want.append(("f_qna", total / base))
        got = [line.rsplit("  ", 1) for line in res.stdout.splitlines()]
        if res.code != 0 or len(got) != len(want):
            return f"{where}: exit {res.code} with {len(got)} lines, expected 0 with {len(want)}"
        for (label, number), (w_label, w_value) in zip(got, want):
            if label != w_label or not close(float(number), w_value):
                return f"{where}: {label} {number}, path-sum route gives {w_label} {w_value!r}"
        return None

    def _check_validate(self, op, res):
        net = self.nets[op.net_id]
        valid = _reference_valid(net, self._table(op.net_id))
        path = self.files[op.net_id]
        if valid:
            want = f"{path}: ok ({net.kind}, {len(net.graph.nodes)} nodes)\n"
            ok = res.code == 0 and res.stdout == want
        else:
            lines = res.stdout.splitlines()
            ok = res.code == 1 and lines and all(x.startswith("violation: ") for x in lines)
        return None if ok else f"validate {op.net_id}: exit {res.code}, valid={valid}"

    def _check_paths(self, op, res):
        net = self.nets[op.net_id]
        table = self._table(op.net_id)
        ref = table.final_weights()
        ext = net.external_components
        finals = [m for m in map(_FINAL.match, res.stdout.splitlines()) if m]
        n_paths = sum(1 for line in res.stdout.splitlines() if line.startswith("  path "))
        if res.code != 0 or len(finals) != len(ref) or n_paths != table.n_paths:
            return f"paths {op.net_id}: exit {res.code}, {len(finals)} finals, {n_paths} paths"
        for m in finals:
            pairs = dict(p.split("=") for p in m.group(1).split())
            key = tuple(int(pairs[a]) for a in ext)
            if key not in ref or not close(float(m.group(2)), ref[key]):
                return f"paths {op.net_id}: final {m.group(1)!r} {m.group(2)} differs"
        return None

    def _check_build(self, op, res):
        from qbnet import netfile

        if res.code != 0:
            return f"catalog build {op.net_id}: exit {res.code}"
        got, want = netfile.parse_net(res.stdout), self.catalog.build(op.net_id)
        same = got.kind == want.kind and set(got.graph.nodes) == set(want.graph.nodes) and all(
            got.space.components(n) == want.space.components(n)
            and got.space.states(n) == want.space.states(n)
            and got.parents(n) == want.parents(n)
            and np.array_equal(got.table(n), want.table(n))
            for n in want.graph.nodes
        )
        return None if same else f"catalog build {op.net_id}: text does not round-trip"

    def _check_cases(self, op, res):
        if res.code != 0:
            return f"cases {op.net_id}: exit {res.code}"
        want = self._cases_reference(op.net_id)
        got = _parse_csv_cases(res.stdout) if op.spec == "csv" else _parse_table_cases(res.stdout)
        if len(got) != len(want):
            return f"cases {op.net_id} ({op.spec}): {len(got)} rows, expected {len(want)}"
        for (case, label, nums), (w_case, w_label, w_nums) in zip(got, want):
            if (case, label) != (w_case, w_label) or (nums is None) != (w_nums is None) or (
                nums is not None
                and (len(nums) != len(w_nums) or not all(map(close, nums, w_nums)))
            ):
                return f"cases {op.net_id} ({op.spec}): case {case} {label} differs"
        return None

    def _cases_reference(self, net_id):
        """(case, hypothesis label, numbers) rows, or numbers None for a
        no-output case; numbers are CB probs, CB f_qna, QB probs, QB f_qna."""
        if net_id in self._cases:
            return self._cases[net_id]
        net = self.nets[net_id]
        qb, cb = self._table(net_id), self._table(net_id, parent=True)
        comps = self.catalog.query_components(net)
        hyps = [(a,) for a in comps] + list(itertools.combinations(comps, 2))
        rows = []
        for case in self.catalog.default_cases(net):
            evidence = {a: value_set(v) for a, v in case.constraints}
            if qb.chi(evidence) == 0.0 or cb.chi(evidence) == 0.0:
                rows.append((case.number, None, None))
                continue
            for hyp in hyps:
                nums = []
                for table in (cb, qb):
                    _, weights, total, base = table.distribution(hyp, evidence)
                    nums += [w / total for w in weights] + [total / base]
                rows.append((case.number, " ".join(hyp), nums))
        self._cases[net_id] = rows
        return rows


_FINAL = re.compile(r"^final (.*?)  (?:amplitude \S+  weight|probability) (\S+)$")


def _reference_valid(net, table: PathTable) -> bool:
    """Column normalization, acyclicity and, for quantum nets, unit total and
    external weight from the path list."""
    for node in net.graph.nodes:
        t = net.table(node)
        sums = (np.abs(t) ** 2).sum(axis=0) if net.kind == "quantum" else t.sum(axis=0)
        if net.kind != "quantum" and (t < 0).any():
            return False
        if not np.all(np.abs(sums - 1.0) <= TOL):
            return False
    seen, active = set(), set()

    def cyclic(node) -> bool:
        if node in active:
            return True
        if node in seen:
            return False
        active.add(node)
        found = any(cyclic(p) for p in net.parents(node))
        active.discard(node)
        seen.add(node)
        return found

    if any(cyclic(n) for n in net.graph.nodes):
        return False
    if net.kind == "quantum":
        total = float((np.abs(table.values) ** 2).sum())
        return close(total, 1.0) and close(sum(table.final_weights().values()), 1.0)
    return True


def _parse_csv_cases(text):
    rows, index = [], {}
    for case, _desc, hyp, kind, _value, number, _note in list(csv.reader(io.StringIO(text)))[1:]:
        if kind == "no-output":
            rows.append((int(case), None, None))
            continue
        key = (int(case), hyp)
        if key not in index:
            index[key] = len(rows)
            rows.append((int(case), hyp, []))
        rows[index[key]][2].append(float(number))
    return rows


def _parse_table_cases(text):
    rows, case = [], None
    for line in text.splitlines():
        if line.startswith("case "):
            case = int(line[5:].split(":", 1)[0])
        elif line.strip() == CONTRADICTION:
            rows.append((case, None, None))
        elif line.startswith("    ") and not line.startswith("    hypothesis"):
            cells = re.split(r" {2,}", line.strip())
            rows.append((case, cells[0], [float(c) for c in cells[1:]]))
    return rows


def setup(seed: int) -> Session:
    return Session(seed)
