import contextlib
import hashlib
import io
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbnet import catalog
from qbnet.cli import main
from qbnet.netfile import emit_cases, emit_net, read_net

from test_netfile import CATALOG_TEXTS, mutated_catalog_texts


@pytest.fixture()
def fig19_file(tmp_path):
    path = tmp_path / "fig19.qbn"
    path.write_text(emit_net(catalog.build("fig19-loop")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_file(capsys, fig19_file):
    code, out, _ = run(capsys, "validate", fig19_file)
    assert code == 0
    assert "ok" in out


def test_validate_reports_bad_column(capsys, tmp_path):
    text = emit_net(catalog.build("fig9-and"))
    text = text.replace("entry (0) (0) (0) 1", "entry (0) (0) (0) 0.90000000000000002")
    path = tmp_path / "bad.qbn"
    path.write_text(text)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert out.count("violation:") == 1
    assert "column 0 sums to 0.9" in out


def test_validate_rejects_a_nan_entry(capsys, tmp_path):
    text = emit_net(catalog.build("fig19-loop"))
    lines = text.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("entry "))
    head, _ = lines[n].rsplit(" ", 1)
    lines[n] = f"{head} [nan,0.5]\n"
    path = tmp_path / "nan.qbn"
    path.write_text("".join(lines))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert f"line {n + 1}: not a finite number: 'nan'" in err


def test_validate_rejects_a_pair_value_in_a_classical_file(capsys, tmp_path):
    text = emit_net(catalog.build("fig9-and"))
    lines = text.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("entry "))
    head, _ = lines[n].rsplit(" ", 1)
    lines[n] = f"{head} [0.5,0]\n"
    path = tmp_path / "pair.qbn"
    path.write_text("".join(lines))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert f"line {n + 1}: a [re,im] value needs kind quantum" in err


def test_validate_cyclic_file(capsys, tmp_path):
    path = tmp_path / "cycle.qbn"
    path.write_text(emit_net(catalog.build("fig4-cycle")))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "cycle" in out


def test_parse_failures_exit_2(capsys, tmp_path):
    path = tmp_path / "junk.qbn"
    path.write_text("not a net\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.qbn"))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: {str(tmp_path / 'missing.qbn')!r}\n"


def test_query_prints_twelve_digit_distribution(capsys, fig19_file):
    code, out, _ = run(capsys, "query", fig19_file, "--hypothesis", "u.plus")
    assert code == 0
    assert out == "u.plus=0  0.292186531111\nu.plus=1  0.707813468889\n"


QUANTUM_ENTRIES = [e.id for e in catalog.list_entries() if e.kind == "quantum"]


@pytest.mark.parametrize("entry_id", QUANTUM_ENTRIES)
def test_query_pathsum_mode_matches_digit_for_digit(capsys, tmp_path, entry_id):
    net = catalog.build(entry_id)
    path = tmp_path / f"{entry_id}.qbn"
    path.write_text(emit_net(net))
    for alpha in catalog.query_components(net):
        # evidence on an exit moves f_qna off 1 wherever the hypothesis is
        # internal and interferes there (fig19-loop's z.plus: 1.71)
        for evidence in ((), ("--evidence", "u.plus=0")):
            query = ("query", str(path), "--hypothesis", alpha, *evidence, "--fqna")
            _, reference, _ = run(capsys, *query)
            code, out, _ = run(capsys, *query, "--mode", "pathsum")
            assert code == 0
            assert out == reference


def test_query_on_a_classical_net_file(capsys, tmp_path):
    path = tmp_path / "fig9.qbn"
    path.write_text(emit_net(catalog.build("fig9-and")))
    query = ("query", str(path), "--hypothesis", "x", "--evidence", "z=0", "--fqna")
    code, out, err = run(capsys, *query)  # quantum is the default mode
    assert (code, out, err) == (2, "", "error: quantum mode needs a quantum net file\n")
    assert run(capsys, *query, "--mode", "quantum") == (code, out, err)
    code, out, _ = run(capsys, *query, "--mode", "classical")
    assert code == 0
    assert out == "x=0  0.666666666667\nx=1  0.333333333333\nf_qna  1\n"  # P(z=0) = 3/4
    assert run(capsys, *query, "--mode", "pathsum") == (0, out, "")


def test_query_classical_mode_uses_the_parent_net(capsys, fig19_file):
    code, out, _ = run(
        capsys, "query", fig19_file, "--hypothesis", "u.plus", "--mode", "classical"
    )
    assert code == 0
    assert out == "u.plus=0  0.5\nu.plus=1  0.5\n"


def test_query_with_evidence_and_fqna(capsys, fig19_file):
    code, out, _ = run(
        capsys,
        "query",
        fig19_file,
        "--hypothesis",
        "z.plus=0",
        "--evidence",
        "u.plus=0",
        "--fqna",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z.plus=0  0.904508497187"
    assert lines[1] == "f_qna  1.71123562095"


def test_query_fuzzy_evidence(capsys, fig19_file):
    code, out, _ = run(
        capsys,
        "query",
        fig19_file,
        "--hypothesis",
        "z.plus",
        "--evidence",
        "u.plus={0,1}",
    )
    assert code == 0
    assert "z.plus=0  0.5" in out


def test_query_contradiction_exits_3(capsys, fig19_file):
    code, out, _ = run(
        capsys,
        "query",
        fig19_file,
        "--hypothesis",
        "u.plus",
        "--evidence",
        "z.plus=0,z.minus=0",
    )
    assert code == 3
    assert "no output" in out
    assert not any(ch.isdigit() for ch in out.replace("output", ""))


def test_query_usage_errors_exit_2(capsys, fig19_file):
    code, _, err = run(capsys, "query", fig19_file, "--hypothesis", "ghost")
    assert code == 2
    assert "ghost" in err
    code, _, err = run(capsys, "query", fig19_file, "--hypothesis", "u.plus=7")
    assert code == 2
    assert "outside" in err
    for evidence in ("u.plus", "z.plus={}", "z.plus={1,}", "z.plus={0,1", "z.plus={x}"):
        code, _, err = run(
            capsys, "query", fig19_file, "--hypothesis", "u.plus", "--evidence", evidence
        )
        assert code == 2
        assert err.startswith("parse error:")


MALFORMED_CONSTRAINTS = {
    "--hypothesis": ("u.plus=", "=1", "u.plus,u.plus", "u.plus={0,1}", "u.plus=1.5"),
    "--evidence": ("z.plus=", "z.plus=1,z.plus=0", "=1", "z.plus=}1"),
}


def test_constraint_lists_refuse_malformed_terms_and_ignore_spaces(capsys, fig19_file):
    for flag, value in ((f, v) for f, values in MALFORMED_CONSTRAINTS.items() for v in values):
        argv = {"--hypothesis": "u.plus", "--evidence": "", flag: value}
        code, out, _ = run(capsys, "query", fig19_file, *(f"{k}={v}" for k, v in argv.items()))
        assert (code, out) == (2, ""), (flag, value)
    query = ("query", fig19_file, "--hypothesis", "u.plus", "--fqna", "--evidence")
    spaced = run(capsys, *query, " z.plus = {0, 1} , z.minus=1")
    assert spaced == run(capsys, *query, "z.plus={0,1},z.minus=1")
    assert spaced[0] == 0 and "u.plus=1" in spaced[1]


def test_cases_report_structure(capsys, fig19_file):
    code, out, _ = run(capsys, "cases", fig19_file)
    assert code == 0
    assert out.count("case ") == 33
    assert "case 10: z.plus=0 z.minus=0" in out
    assert out.count("no output") == 4
    assert "0.292186531111" in out
    assert "1.71123562095" in out  # the u-evidence noise factor
    # twin runs are byte-identical
    code, again, _ = run(capsys, "cases", fig19_file)
    assert again == out


def test_cases_csv_carries_the_same_numbers(capsys, fig19_file):
    _, table, _ = run(capsys, "cases", fig19_file)
    code, out, _ = run(capsys, "cases", fig19_file, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case,evidence,hypothesis,kind,value,number,note"
    # every probability printed in the table shows up in the csv and back
    table_numbers = {tok for tok in table.split() if tok.replace(".", "").isdigit()}
    csv_numbers = {
        cell for line in lines[1:] for cell in line.split(",")
        if cell.replace(".", "").isdigit()
    }
    case_labels = {str(n) for n in range(1, 34)}
    assert table_numbers - case_labels <= csv_numbers
    for needle in ("0.292186531111", "0.707813468889", "0.904508497187"):
        assert needle in table and needle in out
    assert "no-output" in out


def test_cases_file_subset(capsys, tmp_path, fig19_file):
    net = catalog.build("fig19-loop")
    comps = catalog.query_components(net)
    chosen = [c for c in catalog.default_cases(net) if c.number in (1, 2, 4, 10, 12)]
    cases_path = tmp_path / "cases.csv"
    cases_path.write_text(emit_cases(comps, chosen))
    code, out, _ = run(capsys, "cases", fig19_file, str(cases_path))
    assert code == 0
    assert out.count("case ") == 5
    assert "case 10" in out and "no output" in out


def test_cases_empty_file(capsys, tmp_path, fig19_file):
    empty = tmp_path / "none.csv"
    empty.write_text("")
    code, out, _ = run(capsys, "cases", fig19_file, str(empty))
    assert code == 0
    assert out == ""


def test_a_case_file_naming_a_component_twice_is_refused(capsys, tmp_path, fig19_file):
    dup = tmp_path / "dup.csv"
    dup.write_text("case,z.plus,z.plus\n1,1,0\n")
    code, out, err = run(capsys, "cases", fig19_file, str(dup))
    assert (code, out) == (2, "")
    assert err == "parse error: line 1: component 'z.plus' named twice in header\n"


# SHA-256 of ``qbnet cases`` stdout for each quantum catalog net at default
# parameters, by (net, --format, --hypotheses)
CASES_DIGESTS = {
    ("fig18", "table", "both"): "9410ef8a539050ad0615d22812253b095c0c9975a484cff0510d82013e570454",
    ("fig18", "table", "singles"): "0bb25264121900f11b84d3f4987fc091c40b81097d784ee611245b84fbcb11cf",
    ("fig18", "csv", "both"): "f7a34efd780e7f1095f38b80347e21feae84c1b09fd83f764a93abbc799a66c0",
    ("fig18", "csv", "singles"): "436f0feec6efa11c95b42b2eac654162c03c13405749755a6b9469fb4c3e9a65",
    ("fig19-loop", "table", "both"): "610ac71c1b79555507d042064c3bbc20b1577343fa03e473bb8463511b03dcb7",
    ("fig19-loop", "table", "singles"): "33eeeb7f439078ec4dc6034f20cb8875b7ad0cd75bc27cf2d1f2588bc87b4e03",
    ("fig19-loop", "csv", "both"): "919637bc8ee2374d381ba4a5a0a4e95edb40533c0c54595c0ae9a222efe8a49f",
    ("fig19-loop", "csv", "singles"): "9813082d667963af7f31946f0943a35ee76990eb8fc55f2209430c3606ddf851",
    ("fig23", "table", "both"): "976c1d3b65c9b721b29ee3a7f647d6b00f0697d5e5e1cdc1d0fc553f2daa7a80",
    ("fig23", "table", "singles"): "869616a2d36a98dd744054ff77c0dd60338c102ec39dd7a640e70638b0f46586",
    ("fig23", "csv", "both"): "762b0ecd1366ce30722b35db2972353424b5bfd886ae96af13f5fd09ec014d76",
    ("fig23", "csv", "singles"): "812feec97f66ebef77d334747a1dd32189e1f3bd952729db523cf88cc94d1950",
    ("fig24", "table", "both"): "38cf3d2fd638047fb51e50d249f902ec1bacb302ea26a35cd17da1d2adac3a14",
    ("fig24", "table", "singles"): "251fc52dd080f0bb5e1d391e5e0ddacc6149b06446f393c1b541fb2a3ccc39ef",
    ("fig24", "csv", "both"): "42831d97f3d345e37522ccd72f94c2115e0b2d1f95ce630cbc9b4c8de23e4b55",
    ("fig24", "csv", "singles"): "691d071e6756b3488206951078a7d3a8bea6f72e9adad60af561179bd303ef95",
    ("fig25", "table", "both"): "c94b9101f2303e7bc70f804b14a55fcb61f9c11dea18dbddc9a47c95fb2ee836",
    ("fig25", "table", "singles"): "a3c951128180c68b2a02ca925fc61069fda6348b150fb6dcaff2f9ee28ae4234",
    ("fig25", "csv", "both"): "16caeb19d136b70079982f4b8cc9b9ea4d1b5ad66f055c6546a0dbf464ff255c",
    ("fig25", "csv", "singles"): "08289f3966de75b281179f614e4250490127f07aa37dda12df3a5c6d1d2cbb83",
    ("fig26", "table", "both"): "0087bb041774959a3be93b05857aebafa45239772feb1194322f1f74040766ea",
    ("fig26", "table", "singles"): "d4941d34d1153b2304d7eb9f3dc677ec752c78df4de95e05024b176241293efe",
    ("fig26", "csv", "both"): "7b2385bf66f60e4f221e76ece85406bef9a012025c62128b49ca7fb79a7e5625",
    ("fig26", "csv", "singles"): "d9d334c1e8f206b2eca4a52e7904a5ceaccc1d6e5b772135575834e1efddeb47",
    ("fig27", "table", "both"): "74c54e8cf8e8edb979464c88e7c34c0d3c2a09f39c4c01d15f31861bb06c8e7f",
    ("fig27", "table", "singles"): "e53e0c3166917c43f0a81aa9e61b39c297b419850c3c904c1f725e9db6e7f3cd",
    ("fig27", "csv", "both"): "e5e1b7be0e73f13856be816ab7171690628bce5eed21c3d9d9583858d245aef2",
    ("fig27", "csv", "singles"): "95522e239306ef729cface584d25ffdb18479afa0638100d8180b02825c7aea8",
    ("fig28", "table", "both"): "409fd7f9a0b6696825b292f0f6f5666cf08be05d943f92100a99d2ab82d3d125",
    ("fig28", "table", "singles"): "f8f3484b2cf45ed0c8d90aceba2748a89d29b2c20b9365b3a9893f2720a25426",
    ("fig28", "csv", "both"): "7b3f2f4562382f377256684fe8f9b6a2d7f3bf364142c007bc35bbe932d4a5b7",
    ("fig28", "csv", "singles"): "60c224b216132e57ed0dc7a27ba0cdea3dd5428e0c66fd41db4e4b6a7bda4979",
    ("fig29", "table", "both"): "206754a5144afe300c6b128029931b29e768a071b2b097b6485a7ad0c9413315",
    ("fig29", "table", "singles"): "b9ccb0387dfa68c51cd2a788c5247e046293fc1eaff89e439c38211de531dc55",
    ("fig29", "csv", "both"): "67b43eb2bff98303103a9f6568fd5644579aba7ee2612267facb1c3253341fd8",
    ("fig29", "csv", "singles"): "7189dc067fa6416f9a5045c3452da0455b2ad6a97f7d77a4406f6675ed4650ad",
}


@pytest.mark.parametrize("entry_id, fmt, hypotheses", CASES_DIGESTS)
def test_cases_stdout_is_byte_identical_to_its_digest(capsys, tmp_path, entry_id, fmt, hypotheses):
    path = tmp_path / f"{entry_id}.qbn"
    path.write_text(emit_net(catalog.build(entry_id)))
    code, out, err = run(capsys, "cases", str(path), "--format", fmt, "--hypotheses", hypotheses)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CASES_DIGESTS[entry_id, fmt, hypotheses]


def test_cases_digests_cover_every_quantum_catalog_net():
    quantum = {e.id for e in catalog.list_entries() if e.kind == "quantum"}
    assert {key[0] for key in CASES_DIGESTS} == quantum and len(CASES_DIGESTS) == 4 * len(quantum)


def test_cases_on_classical_net_is_refused(capsys, tmp_path):
    path = tmp_path / "and.qbn"
    path.write_text(emit_net(catalog.build("fig9-and")))
    code, _, err = run(capsys, "cases", str(path))
    assert code == 2
    assert "quantum" in err


def test_paths_lists_classes_and_amplitudes(capsys, fig19_file):
    code, out, _ = run(capsys, "paths", fig19_file)
    assert code == 0
    assert "2 final configurations" in out
    assert out.count("  path ") == 4
    assert "0.694036270372+0.475528258148j" in out
    assert "weight 0.707813468889" in out


def test_paths_on_a_classical_net(capsys, tmp_path):
    path = tmp_path / "and.qbn"
    path.write_text(emit_net(catalog.build("fig9-and")))
    code, out, _ = run(capsys, "paths", str(path))
    assert code == 0
    assert "probability" in out and "amplitude" not in out


def test_paths_respects_the_state_cap(capsys, fig19_file, monkeypatch):
    monkeypatch.setenv("QBNET_MAX_STATES", "10")
    code, _, err = run(capsys, "paths", fig19_file)
    assert code == 1
    assert "cap" in err


def test_validate_prints_the_notes_of_skipped_sums(capsys, tmp_path, monkeypatch):
    path = tmp_path / "fig26.qbn"
    path.write_text(emit_net(catalog.build("fig26")))
    monkeypatch.setenv("QBNET_MAX_STATES", "4")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"{path}: ok (quantum, 9 nodes)",
        "note: whole-net sums skipped: contraction step over nodes v.minus, v.plus, u"
        " spans 12 index states, over the cap of 4",
    ]


def test_a_cap_that_is_not_an_integer_is_refused(capsys, fig19_file, monkeypatch):
    monkeypatch.setenv("QBNET_MAX_STATES", "abc")
    code, out, err = run(capsys, "query", fig19_file, "--hypothesis", "u.plus")
    assert (code, out) == (2, "")
    assert err == "error: QBNET_MAX_STATES must be a positive integer, got 'abc'\n"


def test_catalog_list_census(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 14
    ids = {line.split()[0] for line in lines}
    for needed in ("fig9-and", "fig14-walk", "fig18", "fig19-loop", "fig28", "fig29"):
        assert needed in ids


def test_catalog_build_round_trips(capsys, tmp_path):
    out_path = tmp_path / "fig28.qbn"
    code, out, _ = run(capsys, "catalog", "build", "fig28", "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "meta phase -0.7071067811865476+0.7071067811865476j" in text
    rebuilt = read_net(str(out_path))
    reference = catalog.build("fig28")
    for node in reference.graph.nodes:
        assert np.array_equal(rebuilt.table(node), reference.table(node))


def test_catalog_build_takes_typed_params(capsys):
    code, out, _ = run(
        capsys,
        "catalog",
        "build",
        "fig19-loop",
        "--param",
        "theta_u=pi/7",
        "--param",
        "psi01=0.6+0j",
        "--param",
        "psi10=0.8+0j",
    )
    assert code == 0
    assert "meta psi01 0.6" in out
    code, _, err = run(capsys, "catalog", "build", "nothere")
    assert code == 2
    assert "nothere" in err
    code, _, err = run(
        capsys, "catalog", "build", "fig19-loop", "--param", "theta_u=huh"
    )
    assert code == 2
    # non-finite values, wrong types and unknown names: exit 2, no traceback
    for entry_id, param in (
        ("fig19-loop", "theta_u=nan"),
        ("fig19-loop", "theta_u=inf"),
        ("fig19-loop", "theta_u=1+1j"),
        ("fig19-loop", "psi01=nan"),
        ("fig28", "xi=nan"),
        ("fig28", "xi=1+1j"),
        ("fig9-and", "p_x=inf"),
        ("fig9-and", "p_x=1+1j"),
        ("fig14-walk", "n=2.5"),
        ("fig9-and", "bogus=1"),
        ("fig27", "psi01=1e200"),
        ("fig18", "psi10=1e155"),
        ("fig18", f"psi01={10**400}"),
    ):
        code, out, err = run(capsys, "catalog", "build", entry_id, "--param", param)
        assert code == 2, (entry_id, param)
        assert out == ""
        assert err.startswith(("parse error: ", "error: ")), err


@pytest.mark.parametrize(
    "params, message",
    [
        (["p_x=0.1", "p_x=0.9"], "duplicate parameter 'p_x'"),
        (["p_x =0.1", "p_y=0.5", " p_x=0.9"], "duplicate parameter 'p_x'"),
        (["p_x=0.1=2"], "cannot read parameter value '0.1=2'"),
        (["p_x"], "parameter 'p_x' needs name=value"),
    ],
    ids=["repeated", "repeated-spaced", "value-holding-equals", "no-equals"],
)
def test_catalog_build_refuses_a_malformed_or_repeated_param(capsys, params, message):
    argv = [arg for param in params for arg in ("--param", param)]
    code, out, err = run(capsys, "catalog", "build", "fig9-and", *argv)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("mode", ["quantum", "classical", "pathsum"])
def test_query_refuses_an_unknown_evidence_component_before_a_bad_pin(capsys, fig19_file, mode):
    code, out, err = run(capsys, "query", fig19_file, "--hypothesis", "u.plus=7",
                         "--evidence", "z.plus=0,nope=0", "--mode", mode)
    assert (code, out, err) == (2, "", "error: unknown component 'nope'\n")


def test_lattice_probability_table(capsys):
    code, out, _ = run(
        capsys,
        "lattice",
        "--nx", "5", "--nt", "3", "--dx", "0.5", "--dt", "0.2",
        "--potential", "harmonic", "--strength", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "total 1"
    sites = [line for line in lines if line.startswith("site ")]
    assert len(sites) == 5
    probs = [float(line.split()[-1]) for line in sites]
    assert abs(sum(probs) - 1.0) < 1e-9


def test_lattice_gaussian_kernel_runs(capsys):
    code, out, _ = run(
        capsys,
        "lattice",
        "--nx", "4", "--nt", "2", "--dx", "0.4", "--dt", "0.1",
        "--kernel", "gaussian",
    )
    assert code == 0
    assert "kernel gaussian" in out


@pytest.mark.parametrize(
    "args, needle",
    [
        ("--nx 3 --nt 1 --dx 1 --dt inf", "dt must be finite"),
        ("--nx 3 --nt 1 --dx inf --dt 1", "dx must be finite"),
        ("--nx 2 --nt 1 --dx 1 --dt 1 --hbar inf", "hbar must be finite"),
        ("--nx 2 --nt 1 --dx 1 --dt 1 --mass inf", "mass must be finite"),
        ("--nx 2 --nt 1 --dx 1 --dt 1 --potential well --strength inf", "strength must be finite"),
        ("--nx 2 --nt 1 --dx 1 --dt 1 --potential harmonic --strength nan", "must be finite"),
        (
            "--nx 3 --nt 2 --dx 1 --dt 1 --kernel gaussian --potential well --strength=-inf",
            "strength must be finite",
        ),
    ],
)
def test_lattice_rejects_non_finite_inputs(capsys, args, needle):
    code, out, err = run(capsys, "lattice", *args.split())
    assert code == 2
    assert out == ""  # no nan or inf table
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize(
    "args, needle",
    [
        ("--nx 3 --nt 1 --dx 1e-200 --dt 1", "hop term"),
        ("--nx 3 --nt 1 --dx 1e200 --dt 1 --kernel gaussian", "dtheta"),
        ("--nx 3 --nt 1 --dx 1 --dt 1 --hbar 1e200", "hop term"),
        ("--nx 3 --nt 1 --dx 1 --dt 1 --mass 1e-320", "hop term"),
        ("--nx 3 --nt 1 --dx 1 --dt 1 --mass 5e-309", "Hamiltonian"),
        ("--nx 6 --nt 2 --dx 1 --dt 1e308", "step amplitudes"),
        ("--nx 1 --nt 1 --dx 1 --dt 1e-320 --kernel gaussian", "dtheta"),
        ("--nx 8 --nt 2 --dx 1e100 --dt 1 --kernel gaussian", "site probabilities"),
        ("--nx 8 --nt 3 --dx 1e150 --dt 1 --kernel gaussian", "site probabilities"),
    ],
)
def test_lattice_rejects_extreme_derived_quantities(capsys, args, needle):
    code, out, err = run(capsys, "lattice", *args.split())
    assert code == 2
    assert out == ""  # no nan or inf table
    assert err.startswith("error: ") and needle in err
    assert "must be finite" in err


@pytest.mark.parametrize(
    "args, message",
    [
        # the spec's checks speak before the preset's, so dx is named before strength
        ("--nx 3 --nt 1 --dx inf --dt 1 --strength inf", "dx must be finite"),
        # n_x * dx overflows: the preset refuses that length before a kernel runs
        (
            "--nx 3 --nt 1 --dx 1e308 --dt 1",
            "potential length must be finite and positive, got inf",
        ),
    ],
)
def test_lattice_checks_the_spec_before_the_preset_length(capsys, args, message):
    code, out, err = run(capsys, "lattice", *args.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_closed_pipe_exits_quietly(fig19_file):
    # piping into head must not leave a traceback behind
    script = f"{sys.executable} -m qbnet cases {fig19_file} --format csv | head -2"
    proc = subprocess.run(
        script + "; exit ${PIPESTATUS[0]}",
        shell=True,
        executable="/bin/bash",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# Any argv: an exit code, never a traceback, never a non-finite number


EXTREMES = ["5e-324", "1e-320", "1e-200", "1e-160", "1e-10", "0.5", "1", "3", "1e10", "1e100",
            "1e150", "1e155", "1e200", "1e300", "1e308"]
FLOATS = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(min_value=0.0, exclude_min=True).map(repr),
    st.floats().map(repr),
)
NUMBERS = st.one_of(FLOATS, st.sampled_from(["0", "-1", "nan", "-inf", "1+1j", "pi/3", "x", ""]))
PARAMS = st.sampled_from(
    ["p_x", "p_y", "when_false", "n_lambda", "p_t1", "p_t2", "n", "p_plus", "psi01", "psi10",
     "theta_z", "theta_u", "theta_v", "xi", "bogus"]
)
# small integers only: n and n_lambda size the tables they build
PARAM_VALUES = st.one_of(NUMBERS, st.sampled_from(["0", "1", "2", "3"]))
NET_TEXTS = st.one_of(st.sampled_from(sorted(CATALOG_TEXTS.values())), mutated_catalog_texts())


@st.composite
def cli_calls(draw, command):
    """(argv, files): argv for the subcommand, naming files under "{dir}"."""
    if command == "cases":
        text = draw(st.one_of(st.sampled_from(["fig18", "fig27"]).map(CATALOG_TEXTS.get), NET_TEXTS))
    else:
        text = draw(NET_TEXTS)
    files = {"net.qbn": text}
    net = "{dir}/net.qbn"
    names = re.findall(r"^components (.*)$", text, re.MULTILINE)
    comps = st.sampled_from(sorted({c for line in names for c in line.split()}) + ["nope"])
    values = st.sampled_from(["0", "1", "0", "1", "2", "{0,1}", "{}", "x"])
    if command in ("validate", "paths"):
        return [command, net], files
    if command == "query":
        # names may repeat; pins include a value set, a blank and spaced spellings
        hyp = draw(st.sampled_from([",", " , "])).join(
            c + draw(st.sampled_from(["", "", "=0", "=1", "={0,1}", "=7", "=", " = 1 "]))
            for c in draw(st.lists(comps, min_size=1, max_size=2))
        )
        # evidence terms may also be a bare name, nameless or pinned twice over
        evidence = ",".join(
            draw(st.sampled_from([f"{c}={v}", f"{c}={v}", c, "=1", f"{c}=1=2"]))
            for c, v in draw(st.lists(st.tuples(comps, values), max_size=2))
        )
        mode = draw(st.sampled_from(["classical", "quantum", "pathsum"]))
        argv = ["query", net, f"--hypothesis={hyp}", f"--evidence={evidence}", f"--mode={mode}"]
        return argv + draw(st.sampled_from([[], ["--fqna"]])), files
    if command == "cases":
        header = draw(st.lists(comps, min_size=1, max_size=3))
        rows = [
            ",".join([draw(st.sampled_from(["1", "2", "x"]))]
                     + [draw(st.sampled_from(["", "0", "1", '"{0,1}"', "2"])) for _ in header])
            for _ in range(draw(st.integers(0, 3)))
        ]
        files["cases.csv"] = "\n".join([",".join(["case", *header]), *rows]) + "\n"
        fmt = draw(st.sampled_from(["table", "csv"]))
        return ["cases", net, "{dir}/cases.csv", "--hypotheses=singles", f"--format={fmt}"], files
    if command == "catalog":
        if draw(st.integers(0, 9)) == 0:
            return ["catalog", "list"], files
        entry = draw(st.sampled_from([e.id for e in catalog.list_entries()] + ["fig9", "nope"]))
        params = draw(st.lists(st.tuples(PARAMS, PARAM_VALUES), max_size=3))
        argv = ["catalog", "build", entry, *(f"--param={k}={v}" for k, v in params)]
        return argv + draw(st.sampled_from([[], ["-o", "{dir}/out.qbn"]])), files
    # the propagation is dense: n_x**2 floats per step, so keep the box small
    argv = [
        "lattice",
        f"--nx={draw(st.integers(0, 8))}",
        f"--nt={draw(st.integers(1, 3))}",
        *(f"--{flag}={draw(FLOATS)}" for flag in ("dx", "dt")),
        f"--kernel={draw(st.sampled_from(['exact', 'gaussian']))}",
        f"--potential={draw(st.sampled_from(['free', 'harmonic', 'well']))}",
    ]
    for flag in ("mass", "hbar", "strength"):
        if draw(st.booleans()):
            argv.append(f"--{flag}={draw(FLOATS)}")
    return argv, files


NON_FINITE = re.compile(r"(?<![A-Za-z_])(nan|inf)(?:j\b|(?![A-Za-z_]))", re.IGNORECASE)


@pytest.mark.parametrize("command", ["validate", "query", "cases", "paths", "catalog", "lattice"])
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_cli_never_escapes_and_never_prints_a_non_finite_number(tmp_path_factory, command, data):
    argv, files = data.draw(cli_calls(command))
    work = tmp_path_factory.getbasetemp() / "cli-fuzz"
    work.mkdir(exist_ok=True)
    for name, text in files.items():
        (work / name).write_text(text)
    argv = [a.replace("{dir}", str(work)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    # a mutated net file may name a node "nan" or "inf"; only numbers count
    names = {t for text in files.values() for t in re.split(r"[\s,=]+", text)}
    bad = [m.group(0) for m in NON_FINITE.finditer(out.getvalue()) if m.group(1) not in names]
    assert not bad, (argv, out.getvalue())
