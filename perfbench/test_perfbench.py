"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q

Traced counts must repeat exactly for a seed, the reference checks must
reject a wrong answer, and BENCHMARK.json must name what run.py prints.
"""

from __future__ import annotations

import importlib
import json

import pytest

import common

common.require_sources()

import run  # noqa: E402

# a short prefix of each workload's ops keeps the test quick
PREFIX = {"cli-session": 20, "case-grid": 40, "lattice-cap": 3}


def traced_counts(workload: str, seed: int) -> dict:
    module = importlib.import_module(run.WORKLOADS[workload])
    tracer, session = run.traced_setup(module, seed)
    try:
        ops = run.first_ops(session, PREFIX[workload])
        run.trace_ops(tracer, session, ops)
    finally:
        session.close()
    summary = tracer.summary("op")
    return {
        "calls": dict(summary["calls"]),
        "sizes": dict(summary["counts"]),
        "max_joint": tracer.max_joint,
        "setup_calls": dict(tracer.summary("setup")["calls"]),
    }


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, seed=7)
    assert first["calls"]
    assert traced_counts(workload, seed=7) == first


def test_patching_reaches_every_binding_and_restores():
    from qbnet import catalog, core, fuzzy, quantum

    from tracing import Tracer

    originals = (quantum.chi, catalog.chi, fuzzy.chi, core.BaseNet.__dict__["enumeration"])
    tracer = Tracer()
    with tracer.patched():
        assert catalog.chi is quantum.chi is fuzzy.chi
        assert quantum.chi is not originals[0]
        assert quantum.filter_mask is core.filter_mask
    assert (quantum.chi, catalog.chi, fuzzy.chi, core.BaseNet.__dict__["enumeration"]) == originals


def _first(workload, seed=3):
    module = importlib.import_module(run.WORKLOADS[workload])
    session = module.setup(seed)
    return session, run.first_ops(session, 1)[0]


def test_lattice_check_rejects_a_wrong_distribution():
    session, op = _first("lattice-cap")
    res = session.run(op)
    assert session.check(op, res) is None
    res[0] += 1e-6
    assert session.check(op, res)


def test_case_grid_check_rejects_a_wrong_row():
    import dataclasses

    from case_grid import SAMPLE_EVERY

    session, _ = _first("case-grid")
    op = ("fig19-loop", session.default["fig19-loop"][0])
    res = session.run(op)
    for _ in range(SAMPLE_EVERY):
        assert session.check(op, res) is None
    row = res[0].rows[0]
    res[0].rows[0] = dataclasses.replace(row, qb=(row.qb[0] + 1e-6, *row.qb[1:]))
    assert session.check(op, res)


def test_cli_check_rejects_a_wrong_number():
    session, _ = _first("cli-session")
    try:
        for op in run.first_ops(session, 20):
            res = session.run_inprocess(op)
            assert session.check(op, res) is None, " ".join(op.argv)
            if op.kind == "query" and res.code == 0:
                line = res.stdout.splitlines()[0]
                label, number = line.rsplit("  ", 1)
                res.stdout = res.stdout.replace(line, f"{label}  {float(number) + 1e-6}", 1)
                assert session.check(op, res)
    finally:
        session.close()


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
