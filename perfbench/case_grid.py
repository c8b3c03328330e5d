"""case-grid: many small warm queries through the evidence-case runner.

One op is ``catalog.run_evidence_cases(net, cases=[case])`` with single and
pair hypotheses, on one of the nine quantum catalog nets, built at set-up
with their enumeration cache warm. Each op makes about 60 quantum and 60
classical chi calls on joints of at most 1152 states and rebuilds the
parent classical net, so per-query and per-call overheads dominate.

A block is every net's default cases plus seeded value-set cases on one to
three query components, shuffled. Value-set cases on several components
cost about twice a default case, so each net gets only a few, with a fixed
count per component number: they stay above every run's p90 instead of
moving it from seed to seed.
"""

from __future__ import annotations

import itertools

from common import rng
from reference import PathTable, close

# number of constrained components of each net's value-set cases
VALUE_SET_WIDTHS = (1, 1, 2, 2, 3, 3)
MIN_OPS = 100
# one op in this many is also matched row by row against the path-sum route
SAMPLE_EVERY = 16


class Session:
    name = "case-grid"
    min_ops = MIN_OPS

    def __init__(self, seed: int):
        from qbnet import catalog

        self.seed = seed
        self.catalog = catalog
        self.nets = {
            e.id: catalog.build(e.id) for e in catalog.list_entries() if e.kind == "quantum"
        }
        for net in self.nets.values():
            net.enumeration()
        self.default = {i: catalog.default_cases(net) for i, net in self.nets.items()}
        self._tables: dict = {}
        self._checked = 0

    def _value_set_case(self, r, net_id, number, width):
        net = self.nets[net_id]
        comps = self.catalog.query_components(net)
        picked = r.sample(comps, width)
        constraints = []
        for alpha in picked:
            values = net.space.component_values(alpha)
            chosen = frozenset(r.sample(values, r.randint(1, len(values))))
            constraints.append((alpha, chosen))
        return self.catalog.EvidenceCase(number, tuple(constraints))

    def block(self, b: int) -> list:
        r = rng(self.seed, self.name, b)
        ops = []
        for net_id, cases in self.default.items():
            ops += [(net_id, case) for case in cases]
            ops += [
                (net_id, self._value_set_case(r, net_id, len(cases) + 1 + k, width))
                for k, width in enumerate(VALUE_SET_WIDTHS)
            ]
        r.shuffle(ops)
        return ops

    def run(self, op):
        net_id, case = op
        return self.catalog.run_evidence_cases(self.nets[net_id], cases=[case])

    run_inprocess = run

    def _table(self, net_id, parent):
        key = (net_id, parent)
        if key not in self._tables:
            self._tables[key] = PathTable(self.nets[net_id], parent=parent)
        return self._tables[key]

    def check(self, op, result) -> str | None:
        net_id, case = op
        net = self.nets[net_id]
        if len(result) != 1:
            return f"{net_id} case {case.number}: {len(result)} results for one case"
        res = result[0]
        if res.errors:
            return f"{net_id} case {case.number}: {res.errors[0]}"
        comps = self.catalog.query_components(net)
        n_sets = len(comps) + len(comps) * (len(comps) - 1) // 2
        if not res.no_output and len(res.rows) != n_sets:
            return f"{net_id} case {case.number}: {len(res.rows)} rows, expected {n_sets}"
        external = set(net.external_components)
        for row in res.rows:
            bad = (
                not close(sum(row.cb), 1.0)
                or not close(sum(row.qb), 1.0)
                or not close(row.cb_fqna, 1.0)
                or (set(row.components) <= external and not close(row.qb_fqna, 1.0))
            )
            if bad:
                return f"{net_id} case {case.number} {row.components}: row fails its sum rules"
        self._checked += 1
        if self._checked % SAMPLE_EVERY:
            return None
        return self._against_paths(net_id, case, res)

    def _against_paths(self, net_id, case, res) -> str | None:
        qb, cb = self._table(net_id, False), self._table(net_id, True)
        evidence = case.as_sets()
        if qb.chi(evidence) == 0.0 or cb.chi(evidence) == 0.0:
            return None if res.no_output else f"{net_id} case {case.number}: expected no output"
        if res.no_output:
            return f"{net_id} case {case.number}: no output, but the evidence has weight"
        comps = self.catalog.query_components(self.nets[net_id])
        hyps = [(a,) for a in comps] + list(itertools.combinations(comps, 2))
        for row, hyp in zip(res.rows, hyps):
            if row.components != hyp:
                return f"{net_id} case {case.number}: row {row.components}, expected {hyp}"
            for table, probs, fqna in ((qb, row.qb, row.qb_fqna), (cb, row.cb, row.cb_fqna)):
                _, weights, total, base = table.distribution(hyp, evidence)
                want = [w / total for w in weights] + [total / base]
                if not all(close(a, b) for a, b in zip(list(probs) + [fqna], want)):
                    return f"{net_id} case {case.number} {hyp}: differs from the path-sum route"
        return None

    def peak_rss_kb(self) -> int | None:
        return None

    def close(self) -> None:
        pass


def setup(seed: int) -> Session:
    return Session(seed)
