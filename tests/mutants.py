"""A kill list for the test suite: python3 tests/mutants.py [name ...]

Each mutant is one exact-text edit to a file of the ``qbnet`` package, or
a tuple of them made in turn, and the tests that must catch it. For each,
``src/`` is copied to a temporary directory, the edit is made there, and
the mutant's tests run with ``pytest -x`` against that copy. A mutant
whose tests fail is killed, one whose tests pass survived, and one with an
old text that is not in its file exactly once, or an edit that changes
nothing, is stale. The tests first run once against an unedited copy,
where they must pass. The run prints one line per mutant and exits 1
unless every mutant is killed.

Run it by hand from the root of a checkout; pytest does not collect it.
A change to ``core``, ``lattice``, ``catalog``, ``netfile`` or ``pathsum``
runs it and reports the count.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ENGINE = "tests/test_engine.py::"
RUNNER_ROWS = ENGINE + "test_the_runner_normalizes_each_row_as_weights_row_does"
SAME_BITS = ENGINE + "test_every_read_form_gives_a_row_the_same_bits"
CAP_FALLBACK = ENGINE + "test_cap_fallback_gives_the_same_answers"
DIGESTS = "tests/test_cli.py::test_cases_stdout_is_byte_identical_to_its_digest"
INDICATORS = ENGINE + "test_the_evidence_indicators_a_shape_keeps_serve_every_net_of_it"
OPEN_EVIDENCE = ENGINE + "test_evidence_on_open_nodes_masks_one_cached_contraction"
WARM_SITES = ENGINE + "test_warm_per_site_conditionals_are_read_memo_hits"
TWICE = ENGINE + "test_a_set_naming_a_component_twice_is_refused"
READ_KEY = "key = (self._nodes, spec, self._given, self.cap)"
LATTICE = "tests/test_lattice.py::"
KEYED = LATTICE + "test_each_part_of_the_hamiltonian_keys_its_step_matrix"
ONCE = LATTICE + "test_a_built_in_kernel_runs_once_per_hamiltonian"
LRU = LATTICE + "test_the_step_memo_keeps_its_128_most_recently_used_matrices"
PAST_32 = LATTICE + "test_a_preset_chain_past_32_sites_is_not_kept"
STEP_MEMO = "@functools.lru_cache(maxsize=128)\ndef _step_matrix("
STEP_KEY = "key = (kernel, spec.n_x, spec.dx, spec.dt, spec.mass, spec.hbar, spec.potential)"
NETFILE = "tests/test_netfile.py::"
BAD_INPUT = NETFILE + "test_parse_errors_carry_line_numbers"
PATHSUM = "tests/test_pathsum.py::"
FINAL_KEY = "final = tuple(v for j in external for v in path.states[j])"
CLI = "tests/test_cli.py::"
PARAMS = CLI + "test_catalog_build_refuses_a_malformed_or_repeated_param"

# (name, file under src/qbnet, old text, new text, tests that must fail); old
# and new may be equal-length tuples of texts, edited in turn
MUTANTS = [
    # the one reader and its read memo
    ("the last read ignores the evidence", "core.py",
     READ_KEY, READ_KEY.replace("self._given", "frozenset()"), [RUNNER_ROWS]),
    ("the last read ignores the spec", "core.py",
     READ_KEY, READ_KEY.replace(" spec,", ""),
     [ENGINE + "test_weights_agree_with_per_block_chi_and_path_sums"]),
    ("the last read ignores the cap", "core.py",
     READ_KEY, READ_KEY.replace(", self.cap)", ")"),
     [ENGINE + "test_a_memo_hit_then_a_lower_cap_gives_the_fallback_answers"]),
    ("the last read ignores the open nodes", "core.py",
     READ_KEY, READ_KEY.replace("self._nodes, ", "(), "),
     [ENGINE + "test_a_read_has_a_fresh_nets_bits_whatever_the_net_read_before"]),
    ("weights open at construction", "core.py",
     "self._wide = False  # (open nodes, tensor) once a read misses; None past the cap",
     "self._wide = self._opened()",
     [WARM_SITES]),
    ("a repeated component reaches the layout", "core.py",
     "        _named_once(tuple(a for a, _ in item))\n",
     "        pass\n",
     [TWICE]),
    ("a hypothesis value kept uncoerced", "core.py",
     "w = v if type(v) is int else _whole(v)",
     "w = v",
     ["tests/test_pathsum.py::test_every_route_rejects_an_unrealizable_hypothesis_value"]),
    ("a batch-dependent matmul kernel", "core.py",
     'amps = np.einsum("ri,ri->r", *[amps.reshape(ends[-1], -1)] * 2)',
     "amps = (amps * amps).reshape(ends[-1], -1) @ np.ones(len(amps) // ends[-1])",
     [RUNNER_ROWS, SAME_BITS]),
    ("a layout at the cap counts as past it", "core.py",
     "if ends[-1] * size > cap:",
     "if ends[-1] * size >= cap:",
     [CAP_FALLBACK]),
    ("no item-by-item read past the cap", "core.py",
     "if not layout and len(spec) == 1:  # one chi call per block",
     "if not layout and spec:  # one chi call per block",
     [CAP_FALLBACK]),
    # the public conditional and the cap it reads
    ("the cap read once at import", "core.py",
     "_ENVIRON = os.environ._data",
     "_ENVIRON = dict(os.environ._data)",
     [ENGINE + "test_a_lower_cap_between_two_runner_calls_takes_effect"]),
    ("a conditional returns another combo's share", "core.py",
     "[net.space._combos(comps).index(combo)]",
     "[net.space._combos(comps).index(combo) - 1]",
     [ENGINE + "test_a_conditional_is_its_combo_over_its_rows_total_bit_for_bit"]),
    # query-layer arithmetic the path-sum route no longer runs, so its
    # agreement tests see it
    ("a conditional normalizes by a partial total", "core.py",
     "    total = sum(weights)\n    if total == 0.0:\n",
     "    total = sum(weights[1:])\n    if total == 0.0:\n",
     [PATHSUM + "test_conditionals_agree_including_contradictions"]),
    ("an unpinned component reaches the weights", "core.py",
     "    if None in combo:\n", "    if False:\n",
     [PATHSUM + "test_every_route_rejects_an_unrealizable_hypothesis_value"]),
    ("f_qna read as chi(E) over the combos' total", "core.py",
     "([x / total for x in w], total / chi_e)", "([x / total for x in w], chi_e / total)",
     [ENGINE + "test_a_row_is_the_conditionals_and_f_qna"]),
    # one factor per distinct table and dims, a copy of the caller's table
    ("a factor shared by table alone, without dims", "core.py",
     "key = id(table), dims", "key = id(table)",
     [ENGINE + "test_one_table_given_for_nodes_of_other_parent_shapes_gets_a_factor_each"]),
    ("a shared table kept without its copy", "core.py",
     "factor = arr.T.reshape(dims).copy()", "factor = arr.T.reshape(dims)",
     [ENGINE + "test_a_writable_table_given_for_two_nodes_is_copied_at_build"]),
    # one state space per structure
    ("a space reused whatever the graph's parents", "core.py",
     "if tuple(space.parents) != graph.nodes or list(space.parents.values()) != parents:",
     "if False:",
     [ENGINE + "test_a_graph_with_other_parents_gets_the_space_of_its_own_structure",
      ENGINE + "test_a_cyclic_pre_net_built_directly_keeps_its_graphs_declared_order"]),
    ("a state list keyed by its raw tuple", "core.py",  # as it was, normalized inside
     ("self.states = states", "return _shared(tuple(map(_as_state, states)))"),
     ("self.states = tuple(map(_as_state, states))",
      "try:\n            return _shared(tuple(states))\n        except TypeError:\n"
      "            return _shared(tuple(map(_as_state, states)))"),
     [ENGINE + "test_equal_state_lists_give_equal_state_spaces"]),
    # the refusals pinned by their whole text
    ("unknown evidence checked after the pinned values", "core.py",
     "    for alpha in evidence:\n        if alpha not in owner:\n            space.owner(alpha)\n",
     "",
     [ENGINE + "test_an_unknown_evidence_component_is_refused_first_on_every_route"]),
    ("a step past einsum's labels reaches einsum", "core.py",
     "if len(union) > len(_LABELS):", "if len(union) > len(_LABELS) + 1:",
     [ENGINE + "test_the_build_entry_and_plan_refusals_keep_their_texts"]),
    # one read per query
    ("the classical fuzzy reader reads chi(E) apart", "fuzzy.py",
     "total, weight = weights.blocks([{}, hypothesis.sets])",
     "total, weight = weights.blocks([{}])[0], weights.blocks([hypothesis.sets])[0]",
     [ENGINE + "test_each_public_query_builds_at_most_one_layout_per_net_kind"]),
    # the case runner and the step kernels
    ("a case constraining a component twice is answered", "netfile.py",
     "if len(sets) != len(self.constraints):",
     "if False:",
     ["tests/test_catalog.py::"
      "test_runner_records_a_case_constraining_a_component_twice_and_carries_on",
      "tests/test_netfile.py::test_a_case_constraining_a_component_twice_is_refused"]),
    ("the layout ignores hypotheses", "catalog.py",
     'sets = tuple({"singles": singles, "pairs": pairs, "both": singles + pairs}[hypotheses])',
     "sets = tuple(singles + pairs)",
     [DIGESTS]),
    ("no layout cache", "catalog.py",
     "@functools.lru_cache(maxsize=256)\ndef _layout(",
     "def _layout(",
     ["tests/test_catalog.py::test_fresh_builds_of_one_net_share_one_hypothesis_layout"]),
    ("a row init swaps cb and qb", "catalog.py",
     "vars(self).update(components=components, combos=combos, cb=cb, qb=qb,",
     "vars(self).update(components=components, combos=combos, cb=qb, qb=cb,",
     [DIGESTS]),
    ("normalize by a reciprocal", "core.py",
     "([x / total for x in w], total / chi_e)",
     "([x * (1 / total) for x in w], total / chi_e)",
     [RUNNER_ROWS]),
    ("math.fsum totals", "core.py",
     "(total := sum(w))",
     "(total := math.fsum(w))",
     [RUNNER_ROWS]),
    ("an unhashable kernel escapes", "lattice.py",
     "except (KeyError, TypeError):",
     "except KeyError:",
     ["tests/test_lattice.py::test_an_unknown_or_unhashable_kernel_is_refused"]),
    ("a mutable hypothesis row", "catalog.py",
     "@dataclass(frozen=True, init=False)\nclass HypothesisRow:",
     "@dataclass(init=False)\nclass HypothesisRow:",
     ["tests/test_catalog.py::test_hypothesis_rows_stay_frozen_hashable_dataclasses"]),
    # the evidence indicators a state space keeps
    ("a writeable indicator", "core.py",
     "        at.flags.writeable = False\n",
     "",
     [INDICATORS]),
    ("an indicator ignores its axis", "core.py",
     "at = at.reshape([-1 if j == axis else 1 for j in range(ndim)])",
     "at = at.reshape([1] * (ndim - 1) + [-1])",
     [OPEN_EVIDENCE]),
    ("an indicator holds the first value only", "core.py",
     "at = np.isin(self._lists[node].array[:, k], list(values))",
     "at = self._lists[node].array[:, k] == next(iter(values), None)",
     [INDICATORS]),
    ("contract passes a value uncoerced", "core.py",
     "ops[slot] * space.indicator(alpha, value_set(allowed), 0, 1)",
     "ops[slot] * space.indicator(alpha, allowed, 0, 1)",
     [ENGINE + "test_a_value_that_is_not_an_integer_is_refused_on_every_route"]),
    # the step kernel memo: its key is its arguments, so a part left out of
    # the key is a part passed as a constant
    *((f"{part} is not in the step key", "lattice.py", STEP_KEY,
       STEP_KEY.replace(f" {part},", f" {const},"), [KEYED])
      for part, const in (("spec.n_x", "4"), ("spec.dx", "0.5"), ("spec.dt", "0.2"),
                          ("spec.mass", "1.0"), ("spec.hbar", "1.0"))),
    ("the kernel is not in the step key", "lattice.py",
     STEP_KEY, STEP_KEY.replace("(kernel, ", '("exact", '), [KEYED]),
    ("the preset is not in the step key", "lattice.py",
     STEP_KEY, STEP_KEY.replace(", spec.potential)", ", zero_potential)"), [KEYED]),
    ("the amplitude memo keyed without n_t", "lattice.py",
     "_final_amplitudes(key, spec.n_t)", "_final_amplitudes(key, 4)",
     [LATTICE + "test_the_final_amplitudes_are_kept_per_step_matrix_and_n_t"]),
    ("any callable treated as a preset", "lattice.py",
     "if not user and isinstance(spec.potential, _Preset) and",
     "if not user and callable(spec.potential) and",
     [LATTICE + "test_a_time_dependent_potential_runs_the_kernel_at_every_step",
      LATTICE + "test_a_wrapped_preset_is_sampled_at_every_step"]),
    ("the strength is not in the preset's equality", "lattice.py",
     "    strength: float = 0.0\n",
     "    strength: float = 0.0\n    __eq__ = lambda a, b: a[:2] == b[:2]\n"
     "    __hash__ = lambda a: hash(a[:2])\n",
     [KEYED]),
    ("a writeable step matrix", "lattice.py",
     "    matrix.flags.writeable = False\n",
     "",
     [ONCE]),
    ("the 32-site gate lifted", "lattice.py",
     "and spec.n_x <= 32:",
     "and spec.n_x <= 2 * 32:",
     [PAST_32]),
    ("an unbounded step memo", "lattice.py",
     STEP_MEMO, STEP_MEMO.replace("128", "None"),
     [LRU, ENGINE + "test_the_memos_table_names_every_memo"]),
    ("no step memo", "lattice.py",
     STEP_MEMO, "def _step_matrix(",
     [ONCE]),
    ("a chain memo that returns a plain list", "lattice.py",
     '_state_list("t1", [(0,) * s + (1,) + (0,) * (n_x - s - 1) for s in range(n_x)])',
     "[(0,) * s + (1,) + (0,) * (n_x - s - 1) for s in range(n_x)]",
     [LATTICE + "test_a_build_hashes_the_one_hot_list_once"]),
    ("an unbounded memo", "lattice.py",
     "@functools.lru_cache(maxsize=16)\ndef _chain(",
     "@functools.lru_cache(maxsize=None)\ndef _chain(",
     [ENGINE + "test_the_memos_table_names_every_memo"]),
    ("no preset length refusal", "lattice.py",
     "if not (isinstance(length, numbers.Real) and 0.0 < length < math.inf):",
     "if False:",
     [LATTICE + "test_potential_presets_refuse_a_length_that_is_not_finite_and_positive"]),
    ("a number that is not real passes", "lattice.py",
     "if not isinstance(value, (float, int, numbers.Real)):",
     "if False:",
     [LATTICE + "test_a_number_that_is_not_real_is_refused_naming_its_field"]),
    # catalog builds, the spin phase and the command's parameters
    ("a one-step walk refused", "catalog.py",
     "if n < 1:", "if n < 2:",
     ["tests/test_catalog.py::test_a_one_step_walk_builds"]),
    ("a two-cycle state relabelled", "catalog.py",
     'NodeBlock("u", [0, 1], delta, parents=("w",))',
     'NodeBlock("u", [0, 2], delta, parents=("w",))',
     ["tests/test_catalog.py::test_the_two_cycle_nodes_take_the_states_zero_and_one"]),
    ("the consistency phase from a ratio", "spin.py",
     "prod = psi.psi01 * psi.psi10.conjugate()", "prod = psi.psi01 / psi.psi10.conjugate()",
     ["tests/test_spin.py::test_consistency_phase_at_a_complex_psi10"]),
    ("a --param item without = reaches the split", "cli.py",
     'if "=" not in item:', "if False:", [PARAMS]),
    ("a --param value split at every =", "cli.py",
     'item.split("=", 1)', 'item.split("=")', [PARAMS]),
    ("a repeated --param kept", "cli.py",
     "        if key in params:\n", "        if False:\n", [PARAMS]),
    # the net-file reader and writer
    ("a section may repeat", "netfile.py",
     "            elif word in current:\n", "            elif False:\n",
     [BAD_INPUT]),
    ("parents is no longer required", "netfile.py",
     '("states", "parents")', '("states",)',
     [NETFILE + "test_missing_sections_are_reported"]),
    ("an entry state outside the states line is kept", "netfile.py",
     'if state not in node["states"]:', "if False:",
     [BAD_INPUT]),
    ("emission in declared order", "netfile.py",
     "for node in net.node_order():", "for node in net.graph.nodes:",
     [NETFILE + "test_an_acyclic_pre_net_is_emitted_in_chronological_order"]),
    ("a spaced meta key emitted as is", "netfile.py",
     'named = [("meta key", key) for key in net.meta] + ', "named = [] + ",
     [NETFILE + "test_emission_refuses_text_that_would_not_read_back"]),
    ("a repeated meta key kept", "netfile.py",
     "            if tokens[1] in meta:\n", "            if False:\n",
     [BAD_INPUT]),
    ("a cyclic file that says pre-net false read as a pre-net", "netfile.py",
     "if pre_net_line is not None:  # the file said pre-net false", "if False:",
     [BAD_INPUT]),
    # the path-sum route and the kind checks
    ("a final key built from every node", "pathsum.py",
     FINAL_KEY, FINAL_KEY.replace("for j in external", "for j in pos.values()"),
     [PATHSUM + "test_the_two_routes_key_each_random_nets_configurations_alike"]),
    ("the path filter ignored", "pathsum.py",
     "if all(path.states[j][k] in vs for j, k, vs in matchers):", "if True:",
     [PATHSUM + "test_quantum_dual_route_amplitudes"]),
    ("joint_amplitude answers a classical net", "quantum.py",
     '    expect_kind(net, "quantum", "joint_amplitude")\n', "",
     ["tests/test_quantum.py::test_a_net_of_the_wrong_kind_is_refused"]),
]


def run(path: str, old: str, new: str, tests: list[str]) -> str:
    """killed, survived, stale, or error (pytest could not run the tests);
    with ``old`` empty, the tests run against an unedited copy."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if old:
            target = src / "qbnet" / path
            text = target.read_text()
            for old, new in zip(*((old, new) if isinstance(old, tuple) else ((old,), (new,)))):
                if text.count(old) != 1 or new == old:
                    return "stale"
                text = text.replace(old, new)
            target.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        env.pop("QBNET_MAX_STATES", None)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    start, results = time.perf_counter(), []
    tests = sorted({test for m in chosen for test in m[4]})
    if run("", "", "", tests) != "survived":
        print("the tests do not pass unmutated:", *tests, file=sys.stderr)
        return 1
    for name, path, old, new, tests in chosen:
        results.append(run(path, old, new, tests))
        print(f"{results[-1]:8}  {name}", flush=True)
    killed = results.count("killed")
    print(f"{killed} of {len(results)} killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
