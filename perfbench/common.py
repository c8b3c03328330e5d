"""Shared plumbing for the qbnet benchmark: paths, child processes, statistics.

Importing this module pins BLAS to one thread and clears QBNET_MAX_STATES,
for this process and every child it starts, before numpy or qbnet load.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# numpy's OpenBLAS would otherwise start threads inside eigh and matmul on a
# small machine, and the benchmark measures one closed-loop client.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
# The default joint-state cap is part of what the benchmark measures.
CAP_OVERRIDE = os.environ.pop("QBNET_MAX_STATES", None)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def require_sources() -> None:
    """Exit with code 2 unless the qbnet sources sit beside the benchmark."""
    if not (SRC / "qbnet" / "__init__.py").is_file():
        print(f"perfbench: no qbnet sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for qbnet child interpreters: sources on the path, one BLAS
    thread, default cap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QBNET_MAX_STATES", None)
    return env


def workdir(tag: str) -> Path:
    """A fresh scratch directory inside the checkout."""
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))


def discard(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def rng(seed: int, *stream) -> random.Random:
    """Deterministic generator for one named stream of one seed."""
    return random.Random(":".join(str(s) for s in (seed, *stream)))


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int | None = None
    seconds: float | None = None


def run_child(argv, scratch: Path, cwd: Path = ROOT) -> ChildResult:
    """Run one child to completion and reap it with wait4, so its own peak
    RSS is known. stderr goes to a file in ``scratch`` so a chatty child
    cannot block on a full pipe."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            cwd=cwd, env=child_env(),
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_text = err.read().decode("utf-8", "replace")
    return ChildResult(
        proc.returncode, out.decode("utf-8", "replace"), err_text, usage.ru_maxrss, seconds
    )


def percentile(values, p: int) -> float:
    """The p-th percentile, by statistics.quantiles' default method."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[p - 1]
