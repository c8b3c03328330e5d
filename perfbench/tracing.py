"""Per-layer spans recorded from outside the package.

``Tracer.patched()`` wraps the public functions of every qbnet module, and
a few methods, in place. It patches every module binding of a function,
not just the defining module, so calls made through ``from .x import y``
land in their span too. Spans (name, start, end, parent) are kept in
memory; self time is a span's duration minus the part its child spans
cover. Size counters are taken at the same boundaries.

The layers are the modules under ``src/qbnet``; ``spin`` is counted with
``catalog``, which tabulates its tables.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

from common import run_child

LAYER_OF = {"spin": "catalog"}
# leaf helpers called once per table entry or token: a span each would cost
# more than the work, so their time stays in the caller's self time
UNWRAPPED = frozenset({"max_states", "parse_number", "angle_string", "overlap", "spin_state"})


def _short(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def layer(span_name: str) -> str:
    mod = span_name.split(".", 1)[0]
    return LAYER_OF.get(mod, mod)


def _after_enumeration(tracer, args, _result):
    en = args[0]
    c = tracer.counts[tracer.phase]
    c["core.joint_states"] += en.njoint
    c["core.enumerated_nodes"] += len(en.order)
    # values, the flat index and the external-group index, one entry per state
    c["core.bytes_computed"] += en.njoint * (
        en.values.itemsize + en._flat.itemsize + en.ext_group.itemsize
    )
    tracer.max_joint = max(tracer.max_joint, en.njoint)


def _after_paths(tracer, _args, result):
    tracer.counts[tracer.phase]["pathsum.paths"] += len(result)


def _after_parse(tracer, args, _result):
    tracer.counts[tracer.phase]["netfile.bytes_parsed"] += len(args[0].encode("utf-8"))


def _after_mask(tracer, _args, result):
    if result is not None:
        tracer.counts[tracer.phase]["core.mask_calls"] += 1


HOOKS = {
    "core._Enumeration": _after_enumeration,
    "pathsum.enumerate_paths": _after_paths,
    "netfile.parse_net": _after_parse,
    "core.filter_mask": _after_mask,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.phase = "setup"
        self.counts = defaultdict(Counter)
        self.max_joint = 0

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, phase: str):
        """A span of the benchmark's own around one op or the set-up."""
        self.phase = phase
        idx = len(self.names)
        self.names.append(phase)
        self.parents.append(-1)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self.stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Wrap every public qbnet function at each of its module bindings,
        plus the enumeration and construction methods; restore on exit."""
        import qbnet.cli  # noqa: F401  (loads every layer)
        from qbnet import core, graph

        modules = [m for n, m in sys.modules.items() if n == "qbnet" or n.startswith("qbnet.")]
        wrappers: dict = {}
        restore = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("qbnet.")
                    and not obj.__name__.startswith(("_", "<"))
                    and obj.__name__ not in UNWRAPPED
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{_short(obj.__module__)}.{obj.__name__}", obj)
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        methods = [
            (core._Enumeration, "__init__", "core._Enumeration"),
            (core.BaseNet, "enumeration", "core.enumeration"),
            (core.BaseNet, "from_blocks", "core.from_blocks"),
            (graph.LabelledGraph, "__init__", "graph.LabelledGraph"),
        ]
        for cls, attr, name in methods:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Calls, total and self nanoseconds per span name, and self
        nanoseconds per layer, over the spans under roots of ``phase``."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        root = [0] * n
        for i in range(n):
            p = self.parents[i]
            root[i] = i if p < 0 else root[p]
            if p >= 0:
                covered[p] += dur[i]
        calls, total, self_ns = Counter(), Counter(), Counter()
        layer_self = Counter()
        roots = 0
        root_ns = 0
        for i in range(n):
            if self.names[root[i]] != phase:
                continue
            name = self.names[i]
            if root[i] == i:
                roots += 1
                root_ns += dur[i]
                layer_self["bench"] += dur[i] - covered[i]
                continue
            calls[name] += 1
            total[name] += dur[i]
            self_ns[name] += dur[i] - covered[i]
            layer_self[layer(name)] += dur[i] - covered[i]
        return {
            "roots": roots, "root_ns": root_ns, "calls": calls, "total_ns": total,
            "self_ns": self_ns, "layer_self_ns": layer_self, "counts": self.counts[phase],
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span, with the analysis in ``extra``."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_names": list(index),
                    "span_columns": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [
                        [index[nm], s, e, p]
                        for nm, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
                    ],
                },
                fh,
                separators=(",", ":"),
            )


def layer_metrics(s: dict) -> dict:
    """The per-layer metrics, per op, from one phase summary."""
    n = s["roots"]
    ms = 1e-6 / n
    calls, total, own, lay, counts = (
        s["calls"], s["total_ns"], s["self_ns"], s["layer_self_ns"], s["counts"]
    )
    return {
        "cli.main_self_ms": lay["cli"] * ms,
        "netfile.parse_ms": lay["netfile"] * ms,
        "netfile.bytes_parsed": counts["netfile.bytes_parsed"] / n,
        "catalog.build_ms": total["catalog.build"] * ms,
        "catalog.cases_self_ms": (
            own["catalog.run_evidence_cases"] + own["catalog.default_cases"]
            + own["catalog.query_components"]
        ) * ms,
        "classical.parent_net_ms": total["quantum.parent_cb_net"] * ms,
        "classical.chi_calls": calls["classical.chi_classical"] / n,
        "classical.chi_self_ms": own["classical.chi_classical"] * ms,
        "quantum.chi_calls": calls["quantum.chi"] / n,
        "quantum.chi_self_ms": own["quantum.chi"] * ms,
        "core.enumerations": calls["core._Enumeration"] / n,
        "core.enumerate_ms": total["core._Enumeration"] * ms,
        "core.joint_states": counts["core.joint_states"] / n,
        "core.enumerated_nodes": counts["core.enumerated_nodes"] / n,
        "core.bytes_computed": counts["core.bytes_computed"] / n,
        "core.mask_calls": counts["core.mask_calls"] / n,
        "core.mask_ms": own["core.filter_mask"] * ms,
        "pathsum.paths": counts["pathsum.paths"] / n,
        "pathsum.enumerate_ms": total["pathsum.enumerate_paths"] * ms,
        "pathsum.path_chi_calls": calls["pathsum.path_chi"] / n,
        "lattice.build_ms": total["lattice.build_lattice_net"] * ms,
        "graph.ms": lay["graph"] * ms,
        "graph.share_pct": 100.0 * lay["graph"] / s["root_ns"],
    }


def import_probe(scratch, repeats: int = 5) -> dict:
    """``import qbnet.cli`` in a fresh interpreter against a bare one:
    the median wall-time difference and the module counts."""
    bare = [sys.executable, "-c", "import sys; print(len(sys.modules))"]
    full = [sys.executable, "-c", "import sys, qbnet.cli; print(len(sys.modules))"]
    t_bare, t_full = [], []
    for _ in range(repeats):
        b = run_child(bare, scratch)
        f = run_child(full, scratch)
        if b.code or f.code:
            raise RuntimeError(f"import probe failed: {f.stderr or b.stderr}")
        t_bare.append(b.seconds)
        t_full.append(f.seconds)
    return {
        "cli.import_ms": (statistics.median(t_full) - statistics.median(t_bare)) * 1e3,
        "cli.modules_loaded": int(f.stdout),
        "bare_modules_loaded": int(b.stdout),
    }
