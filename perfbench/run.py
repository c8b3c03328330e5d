"""qbnet benchmark: end-to-end numbers per workload, per-layer numbers traced.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout; qbnet is loaded from ``src``. Every
workload is a closed loop with one client: the next op starts when the
previous one has returned, and at most one child process runs at a time.
A run measures whole blocks of ops until ``--seconds`` have passed and it
holds enough ops (100 for cli-session and case-grid, two blocks for
lattice-cap). Each answer is checked
against a reference as soon as its op returns; checking is timed apart
and left out of the measured time and of ``setup_s``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays a
fixed prefix of the same ops three times in this process: untraced,
traced (spans at every qbnet function) and under tracemalloc, and prints
the per-layer metrics; the spans go to ``perfbench/out``. The last line of
standard output is always one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import common
from common import BENCH_DIR, OUT, ROOT, percentile

WORKLOADS = {
    "cli-session": "cli_session",
    "case-grid": "case_grid",
    "lattice-cap": "lattice_cap",
}
# ops replayed by a traced run: whole blocks where a block is short
TRACE_OPS = {"cli-session": 60, "case-grid": 200, "lattice-cap": 15}
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# also printed by an untimed run. The median is not on the last line: on a
# shared 2-core VM whose CPU speed switches between two levels ~1.5x apart
# about once a second, the median of case-grid, where most ops cost the
# same, jumps between the two modes from run to run. p99 is printed only where runs hold 1000+ ops; error_rate is
# zero at a correct commit and is carried by "failed" / "attempted".
ROW_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# the per-layer metrics the last line carries; every one is defined on
# every workload and no time among them is zero on any workload
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.modules_loaded": "count",
    "netfile.bytes_parsed": "bytes",
    "classical.chi_calls": "count",
    "quantum.chi_calls": "count",
    "quantum.chi_self_ms": "ms",
    "core.enumerations": "count",
    "core.enumerate_ms": "ms",
    "core.joint_states": "count",
    "core.enumerated_nodes": "count",
    "core.bytes_computed": "bytes",
    "core.cap_headroom": "ratio",
    "core.mask_calls": "count",
    "core.mask_ms": "ms",
    "core.peak_traced_mb": "MB",
    "pathsum.paths": "count",
    "pathsum.path_chi_calls": "count",
    "graph.ms": "ms",
}


def environment(seed: int) -> dict:
    import numpy
    from qbnet.core import max_states

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in common.BLAS_THREADS},
        "git_revision": git_revision(),
        "max_states": max_states(),
        "QBNET_MAX_STATES_unset": common.CAP_OVERRIDE,
        "seed": seed,
    }


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(workload: str, seed: int, scratch) -> float:
    """Median set-up time over fresh interpreters, each timing its own
    imports, input generation and net building."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        res = common.run_child(argv, scratch)
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    module = importlib.import_module(WORKLOADS[workload])
    session = module.setup(seed)
    elapsed = time.perf_counter() - t0
    session.close()
    print(repr(elapsed))


def check_one(session, op, res) -> str | None:
    """Why the op failed, or None: it failed if it raised, or if its answer
    missed its reference."""
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    try:
        return session.check(op, res)
    except Exception as exc:  # a malformed answer fails its op, not the run
        return f"check raised {type(exc).__name__}: {exc}"


def timed_run(workload: str, module, seed: int, seconds: float) -> dict:
    scratch = common.workdir("probe")
    setup_s = setup_seconds(workload, seed, scratch)
    common.discard(scratch)
    session = module.setup(seed)
    failures, latencies = [], []
    check_s = 0.0
    block = 0
    start = time.perf_counter()
    while True:
        for op in session.block(block):
            t0 = time.perf_counter()
            try:
                res = session.run(op)
            except Exception as exc:  # counted as a failed op
                res = exc
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            # checked at once and dropped, so held answers cannot add to peak RSS
            reason = check_one(session, op, res)
            check_s += time.perf_counter() - t1
            if reason:
                failures.append(reason)
        block += 1
        measured = time.perf_counter() - start - check_s
        if measured >= seconds and len(latencies) >= session.min_ops:
            break
    peak_kb = session.peak_rss_kb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    session.close()
    n = len(latencies)

    ms = [x * 1e3 for x in latencies]
    values = {
        "setup_s": setup_s,
        "ops_per_s": n / measured,
        "latency_p90_ms": percentile(ms, 90),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    row = {**values, "latency_p50_ms": statistics.median(ms), "error_rate": len(failures) / n}
    if workload == "case-grid":
        row["latency_p99_ms"] = percentile(ms, 99)
    print(f"{workload} seed {seed}: {n} ops in {block} blocks, {measured:.2f} s measured")
    for name, unit in ROW_UNITS.items():
        if name in row:
            print(f"  {name:<16} {row[name]:12.4f} {unit}")
    print(f"  {len(failures)} of {n} ops failed; checks took {check_s:.3f} s,"
          " outside setup_s and the measured time")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    print("row " + json.dumps(row))
    return result(n, failures, values, END_TO_END)


def first_ops(session, n: int) -> list:
    """The first n ops of the run's op sequence."""
    ops = []
    block = 0
    while len(ops) < n:
        ops += session.block(block)
        block += 1
    return ops[:n]


def traced_setup(module, seed: int):
    """A Tracer and the workload's session, its set-up traced."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.patched(), tracer.root("setup"):
        session = module.setup(seed)
    return tracer, session


def trace_ops(tracer, session, ops) -> list:
    """Run each op in this process under one root span, patched."""
    results = []
    with tracer.patched():
        for op in ops:
            with tracer.root("op"):
                results.append(session.run_inprocess(op))
    return results


def traced_run(workload: str, module, seed: int) -> dict:
    from qbnet.core import max_states

    from tracing import import_probe, layer_metrics

    tracer, session = traced_setup(module, seed)
    ops = first_ops(session, TRACE_OPS[workload])

    t0 = time.perf_counter()
    untraced = [session.run_inprocess(op) for op in ops]
    untraced_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    traced = trace_ops(tracer, session, ops)
    traced_s = time.perf_counter() - t0

    tracemalloc.start()
    for op in ops:
        session.run_inprocess(op)
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    scratch = common.workdir("probe")
    probe = import_probe(scratch)
    common.discard(scratch)
    failures = [
        reason
        for op, res in zip(ops + ops, untraced + traced)
        if (reason := check_one(session, op, res))
    ]
    session.close()

    summary = tracer.summary("op")
    values = layer_metrics(summary)
    values.update(probe)
    values["core.peak_traced_mb"] = peak_mb
    values["core.cap_headroom"] = tracer.max_joint / max_states()
    overhead = {
        "ops": len(ops),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
    }
    setup_summary = tracer.summary("setup")
    setup_layers = {k: v * 1e-6 for k, v in setup_summary["layer_self_ns"].items()}

    print(f"{workload} seed {seed}: traced replay of {len(ops)} ops in this process")
    print(f"  untraced {untraced_s:.4f} s, traced {traced_s:.4f} s, "
          f"tracing overhead {overhead['overhead_pct']:+.1f}%")
    print("  per op (times in ms; counts are exact and repeat for a seed):")
    for name, value in values.items():
        mark = "" if name in PER_LAYER else "  (not on the last line)"
        if name == "core.bytes_computed":
            mark += "  (computed from array sizes)"
        print(f"    {name:<26} {value:16.6f}{mark}")
    print("  self time per layer, per op (ms): " + ", ".join(
        f"{k} {v * 1e-6 / summary['roots']:.4f}"
        for k, v in sorted(summary["layer_self_ns"].items())))
    print("  set-up self time per layer (ms): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(setup_layers.items())))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path, {
        "workload": workload,
        "environment": environment(seed),
        "per_layer": values,
        "computed": ["core.bytes_computed"],
        "overhead": overhead,
        "setup_layer_self_ms": setup_layers,
        "calls": dict(summary["calls"]),
    })
    print(f"  spans written to {path.relative_to(ROOT)}")
    for reason in failures[:10]:
        print(f"  FAILED {reason}")
    return result(2 * len(ops), failures, values, PER_LAYER)


def result(attempted: int, failures: list, values: dict, spec: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh runner, one row each."""
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        row = next((json.loads(x[4:]) for x in lines if x.startswith("row ")), {})
        rows.append((workload, json.loads(lines[-1]), row))
    if args.trace:
        print("  ".join(["metric", *WORKLOADS]))
        for name, unit in PER_LAYER.items():
            cells = [f"{res['metrics'][name]['value']:.6g}" for _, res, _ in rows]
            print("  ".join([f"{name} [{unit}]", *cells]))
    else:
        print("  ".join(["workload", *(f"{n} [{u}]" for n, u in ROW_UNITS.items())]))
        for workload, _, row in rows:
            print("  ".join([workload, *(f"{row[n]:.4f}" if n in row else "-" for n in ROW_UNITS)]))
    summary = {
        "correct": all(r["correct"] for _, r, _ in rows),
        "attempted": sum(r["attempted"] for _, r, _ in rows),
        "failed": sum(r["failed"] for _, r, _ in rows),
        "metrics": {},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    common.require_sources()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        res = traced_run(args.workload, module, args.seed)
    else:
        res = timed_run(args.workload, module, args.seed, args.seconds)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
