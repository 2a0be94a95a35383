"""CLI reports, exit codes, and determinism, driven through run()."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from polyctrl.cli import build_parser, run
from test_formats import mutated_corpus

CUBIC_TEXT = "tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1 1.0\n"
SHARED_TEXT = "tensor 4 2\nmatrix 2 1\n1 1 1.0\n2 1 1.0\n"
PATTERN_TEXT = "tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\n"
HYPERGRAPH_TEXT = "hypergraph 2 1\n3 -> 1,2\n"
ACCESS_TEXT = "hypergraph 3 1\n4 -> 1\n1 -> 2\n"


def write(tmp_path, text, name="input.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- analyze ---

def test_analyze_controllable_system(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert report["format_version"] == "1"
    assert report["command"] == "analyze"
    assert report["input"] == {
        "kind": "system",
        "k": 4,
        "n": 2,
        "m": 1,
        "tensor_nnz": 1,
        "control_nnz": 1,
    }
    assert report["structural"]["controllable"] is True
    assert report["structural"]["dilation_witness"] is None
    assert report["structural"]["inaccessible"] == []
    assert "numeric" not in report
    assert "timings_ms" not in report


def test_analyze_dilated_system(tmp_path, capsys):
    path = write(tmp_path, SHARED_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert report["structural"]["controllable"] is False
    assert report["structural"]["dilation_witness"] == [1, 2]


def test_analyze_numeric_on_explicit_system(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json", "--numeric"])
    assert code == 0
    assert report["numeric"]["rank"] == 2
    assert report["numeric"]["strongly_controllable"] is True
    assert report["numeric"]["seed"] is None


def test_analyze_numeric_on_pattern_samples_a_realization(tmp_path, capsys):
    path = write(tmp_path, PATTERN_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json", "--numeric", "--seed", "3"])
    assert code == 0
    assert report["numeric"]["seed"] == 3
    assert report["numeric"]["rank"] == 2


def test_analyze_hypergraph_input(tmp_path, capsys):
    path = write(tmp_path, HYPERGRAPH_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json"])
    assert code == 0
    assert report["input"] == {"kind": "hypergraph", "n": 2, "m": 1, "edges": 1}
    assert report["structural"]["controllable"] is False


def test_analyze_numeric_refuses_hypergraph(tmp_path, capsys):
    path = write(tmp_path, HYPERGRAPH_TEXT)
    code = run(["analyze", path, "--json", "--numeric"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    envelope = json.loads(captured.err)
    assert envelope["error"]["kind"] == "input"
    assert envelope["error"]["message"].startswith("this command needs tensor/matrix input")


def test_analyze_timings_flag(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code, report = run_json(capsys, ["analyze", path, "--json", "--timings"])
    assert code == 0
    assert "structural" in report["timings_ms"]
    assert report["timings_ms"]["structural"] >= 0.0
    assert report["timings_ms"]["parse"] >= 0.0


def test_human_output_skips_format_version(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    assert run(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "format_version" not in out
    assert "controllable: True" in out
    assert "structural:" in out


# --- other commands ---

def test_dilation_command(tmp_path, capsys):
    path = write(tmp_path, HYPERGRAPH_TEXT)
    code, report = run_json(capsys, ["dilation", path, "--json"])
    assert code == 0
    assert report["command"] == "dilation"
    assert report["dilated"] is True
    assert report["witness"] == [1, 2]
    assert report["matching"] == [[0, 1]]


def test_access_command(tmp_path, capsys):
    path = write(tmp_path, ACCESS_TEXT)
    code, report = run_json(capsys, ["access", path, "--json"])
    assert code == 0
    assert report["accessible"] == [1, 2, 4]
    assert report["inaccessible"] == [3]


def test_rank_command(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code, report = run_json(capsys, ["rank", path, "--json"])
    assert code == 0
    assert report["rank"] == 2
    assert report["n"] == 2
    assert report["strongly_controllable"] is True
    assert report["seed"] is None


def test_lie_rank_command(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code, report = run_json(capsys, ["lie-rank", path, "--json"])
    assert code == 0
    assert report["rank"] == 2
    assert report["full_rank"] is True
    assert report["saturated"] is True


def test_validate_command(tmp_path, capsys):
    code, report = run_json(
        capsys, ["validate", "--json", "--trials", "3", "--n", "2", "--seed", "1"]
    )
    assert code == 0
    assert report["trials"] == 3
    assert len(report["detail"]) == 3
    assert report["agreements"] + len(report["disagreements"]) == 3
    assert report["all_agree"] is (report["disagreements"] == [])


def test_gen_round_trips_through_the_parser(tmp_path, capsys):
    from polyctrl.formats import parse_system
    from polyctrl.system import SparsityPattern

    code = run(["gen", "--n", "3", "--k", "4", "--m", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    pattern = parse_system(out)
    assert isinstance(pattern, SparsityPattern)
    assert (pattern.order, pattern.dim, pattern.inputs) == (4, 3, 2)
    # default support sizes are n tensor entries and m control entries
    assert len(pattern.tensor_support) == 3
    assert len(pattern.control_support) == 2


def test_gen_respects_support_overrides(capsys):
    code = run(["gen", "--n", "3", "--k", "4", "--m", "1", "--tensor-nnz", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert sum(1 for line in out.splitlines() if len(line.split()) == 4) == 5


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(CUBIC_TEXT))
    code, report = run_json(capsys, ["analyze", "-", "--json"])
    assert code == 0
    assert report["structural"]["controllable"] is True


# --- exact --json bytes ---

def report_text(report):
    # the --json layout: two-space indent, sorted keys, one trailing newline
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


CUBIC_INPUT = {"kind": "system", "k": 4, "n": 2, "m": 1, "tensor_nnz": 1, "control_nnz": 1}
CUBIC_STRUCTURAL = {
    "controllable": True,
    "dilated": False,
    "dilation_witness": None,
    "inaccessible": [],
    "matching": [[0, 1], [1, 2]],
}
CUBIC_RANK = {
    "rank": 2,
    "n": 2,
    "strongly_controllable": True,
    "iterations": 1,
    "tolerance": 4.440892098500626e-16,
    "seed": None,
}
PINNED_REPORTS = [
    (["analyze"], CUBIC_TEXT, {"input": CUBIC_INPUT, "structural": CUBIC_STRUCTURAL}),
    (
        ["analyze", "--numeric"],
        CUBIC_TEXT,
        {"input": CUBIC_INPUT, "structural": CUBIC_STRUCTURAL, "numeric": CUBIC_RANK},
    ),
    (
        ["dilation"],
        HYPERGRAPH_TEXT,
        {
            "input": {"kind": "hypergraph", "n": 2, "m": 1, "edges": 1},
            "dilated": True,
            "witness": [1, 2],
            "matching": [[0, 1]],
        },
    ),
    (
        ["access"],
        ACCESS_TEXT,
        {
            "input": {"kind": "hypergraph", "n": 3, "m": 1, "edges": 2},
            "accessible": [1, 2, 4],
            "inaccessible": [3],
        },
    ),
    (["rank"], CUBIC_TEXT, {"input": CUBIC_INPUT, **CUBIC_RANK}),
    (
        ["lie-rank"],
        CUBIC_TEXT,
        {
            "input": CUBIC_INPUT,
            "rank": 2,
            "n": 2,
            "full_rank": True,
            "saturated": True,
            "seed": None,
        },
    ),
]


@pytest.mark.parametrize("argv, text, fields", PINNED_REPORTS)
def test_input_command_json_bytes(tmp_path, capsys, argv, text, fields):
    path = write(tmp_path, text)
    assert run([argv[0], path, "--json", *argv[1:]]) == 0
    expected = {"format_version": "1", "command": argv[0], **fields}
    assert capsys.readouterr().out == report_text(expected)


def test_generated_pattern_json_bytes(tmp_path, capsys):
    # 36 tensor entries, read in bulk and grouped with numpy
    assert run(["gen", "--n", "8", "--k", "4", "--m", "2", "--seed", "3", "--tensor-nnz", "36"]) == 0
    path = write(tmp_path, capsys.readouterr().out)
    assert run(["analyze", path, "--json"]) == 0
    expected = {
        "format_version": "1",
        "command": "analyze",
        "input": {"kind": "pattern", "k": 4, "n": 8, "m": 2, "tensor_nnz": 36, "control_nnz": 2},
        "structural": {
            "controllable": True,
            "dilated": False,
            "dilation_witness": None,
            "inaccessible": [],
            "matching": [[0, 5], [1, 4], [2, 8], [3, 7], [4, 6], [6, 1], [11, 3], [12, 2]],
        },
    }
    assert capsys.readouterr().out == report_text(expected)


def test_validate_json_bytes(capsys):
    assert run(["validate", "--trials", "3", "--n", "2", "--seed", "1", "--json"]) == 0
    detail = [
        {"index": i, "controllable": True, "ranks": [2, 2, 2], "n": 2, "agree": True}
        for i in range(3)
    ]
    expected = {
        "format_version": "1",
        "command": "validate",
        "trials": 3,
        "n": 2,
        "k": 4,
        "m": 1,
        "seed": 1,
        "tolerance": 1e-10,
        "agreements": 3,
        "disagreements": [],
        "all_agree": True,
        "detail": detail,
    }
    assert capsys.readouterr().out == report_text(expected)


def test_validate_disagreement_carries_the_pattern_text(monkeypatch, capsys):
    def odd_trials_disagree(pattern, seed, tol, controllable):
        return controllable, [0] * 3, seed % 20 == 0

    monkeypatch.setattr("polyctrl.cli.verdict_against_rank", odd_trials_disagree)
    code, report = run_json(capsys, ["validate", "--json", "--trials", "4", "--n", "3"])
    assert code == 0
    assert report["disagreements"] == [1, 3]
    for trial in report["detail"]:
        assert ("pattern" in trial) is (trial["index"] in (1, 3))
    # the text replays with ``analyze -``
    text = report["detail"][1]["pattern"]
    assert text.startswith("tensor 4 3\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, replay = run_json(capsys, ["analyze", "-", "--json"])
    assert code == 0
    assert replay["input"]["kind"] == "pattern"
    assert replay["structural"]["controllable"] is report["detail"][1]["controllable"]


def test_validate_timings_are_opt_in(capsys):
    argv = ["validate", "--json", "--trials", "3", "--n", "2", "--seed", "1"]
    assert run(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    code, timed = run_json(capsys, argv + ["--timings"])
    assert code == 0
    phases = timed.pop("timings_ms")
    assert sorted(phases) == ["patterns", "realizations", "structural"]
    assert all(value >= 0.0 for value in phases.values())
    assert timed == plain


def test_gen_bytes(capsys):
    assert run(["gen", "--n", "3", "--k", "4", "--m", "2", "--seed", "5", "--json"]) == 0
    expected = "tensor 4 3\n2 2 2 1\n3 1 1 2\n3 3 1 3\nmatrix 3 2\n1 1\n2 1\n"
    assert capsys.readouterr().out == expected


# --- sha256 pins of larger reports ---

def sha256_of_output(capsys, argv):
    assert run(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


VALIDATE_PINS = {
    (5, 4, 2, 1): "bc4b5e8b89f082a8fe41500cad5822d5be940418202687c0ffecb9dfb0842d22",
    (5, 4, 2, 7): "f86d8a8e0b9b82788a4f4e2e41a68503aa22bdf9c18f954461f4b00652acc506",
    (8, 2, 2, 1): "78b8ae644f496ba233b1ba54295693be12ac99951598a997af5b3d39a3a9c05c",
    (8, 2, 2, 7): "927d67a43557195819cfc149f93863347e88c60bce09b11f468a6acb1d64070e",
}


@pytest.mark.parametrize("n, k, m, seed", sorted(VALIDATE_PINS))
def test_validate_json_sha256(capsys, n, k, m, seed):
    argv = ["validate", "--json", "--trials", "200", "--n", str(n), "--k", str(k),
            "--m", str(m), "--seed", str(seed)]
    assert sha256_of_output(capsys, argv) == VALIDATE_PINS[n, k, m, seed]


def test_validate_json_sha256_with_divergent_stacks(capsys):
    # at the automatic cutoff two of these stacks diverge and rerun in parts
    argv = ["validate", "--json", "--trials", "200", "--n", "8", "--k", "2", "--m", "2",
            "--seed", "1", "--tol", "0"]
    assert sha256_of_output(capsys, argv) == (
        "c1d103c123b0028ba084e4f9f42223766da0f0fdb9cc917ba0de524a252f54b9"
    )


def chain_text(n, k, seed):
    """x_{i+1}' = +-x_i^(k-1) driven at vertex 1, signs drawn from the seed."""
    signs = np.random.default_rng([seed, n, k]).choice([-1.0, 1.0], size=n).tolist()
    lines = [f"tensor {k} {n}"]
    lines += [" ".join([str(i)] * (k - 1) + [str(i + 1), repr(signs[i])]) for i in range(1, n)]
    lines += [f"matrix {n} 1", f"1 1 {signs[0]!r}"]
    return "\n".join(lines) + "\n"


def cascade_pattern_text(layers=(2, 3, 5, 7, 5), m=2, k=4, seed=1):
    """A k-mode cascade pattern: inputs feed vertices 1..m, and each vertex of
    a later layer heads two entries whose tails take one vertex from the
    layer before and the rest from earlier layers."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum([1, m, *layers])
    n = int(starts[-1]) - 1
    entries = set()
    for t in range(1, len(starts) - 1):
        for head in range(starts[t], starts[t + 1]):
            while len(entries) < 2 * (head - m):
                first = int(rng.integers(starts[t - 1], starts[t]))
                rest = rng.integers(1, starts[t], size=k - 2).tolist()
                entries.add(tuple(sorted([first, *rest])) + (head,))
    lines = [f"tensor {k} {n}", *(" ".join(map(str, idx)) for idx in sorted(entries))]
    lines += [f"matrix {n} {m}", *(f"{j} {j}" for j in range(1, m + 1))]
    return "\n".join(lines) + "\n"


RANK_PINS = {
    "cubic-chain-18": (lambda: chain_text(18, 4, 1), []),
    "cascade-24": (cascade_pattern_text, ["--seed", "5"]),
    "linear-chain-200": (lambda: chain_text(200, 2, 1), []),
}
RANK_SHA256 = {
    "cubic-chain-18": "d3677b3c22689c73e1e2a643f17726dd4a0e87871dad10dcce67427322965b2c",
    "cascade-24": "2f4b2532c6ce700910c87cd7ff35c749ea6a3c7d97c5bd9cd2f13177d6fb5cb1",
    "linear-chain-200": "8ef91f6eaf2ed5343702ffce295bb0e74dbe218d5e35dd7e9ead0e3debb40618",
}


@pytest.mark.parametrize("name", sorted(RANK_PINS))
def test_rank_json_sha256(tmp_path, capsys, name):
    text, flags = RANK_PINS[name]
    path = write(tmp_path, text())
    assert sha256_of_output(capsys, ["rank", path, "--json", *flags]) == RANK_SHA256[name]


# --- determinism ---

# An 8-dimensional k=2 system whose rank at the automatic cutoff once
# depended on the order of its tensor lines.
LINE_ORDER_TENSOR = [
    "1 6 -1.692605659460007",
    "4 8 0.5105337942282643",
    "5 5 -0.7074265496231302",
    "8 7 1.4856295630426448",
]
LINE_ORDER_MATRIX = """matrix 8 2
1 2 -0.6508718215260448
3 1 -1.7790107625609806
4 1 -0.9681522668042554
4 2 -0.7551136535310243
5 1 -1.9454485095878602
5 2 -0.618121452305533
6 2 -0.6993992247912473
7 1 -1.3012730893761748
8 2 -1.685681080215515
"""


def test_rank_report_ignores_tensor_line_order(tmp_path, capsys):
    def report(order):
        lines = [LINE_ORDER_TENSOR[i] for i in order]
        path = write(tmp_path, "\n".join(["tensor 2 8", *lines, LINE_ORDER_MATRIX]))
        assert run(["rank", path, "--json"]) == 0
        return capsys.readouterr().out

    expected = report([0, 1, 2, 3])
    for order in ([3, 0, 2, 1], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        assert report(order) == expected, order


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    outputs = []
    for _ in range(2):
        assert run(["analyze", path, "--json", "--numeric"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_validate_is_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert run(["validate", "--json", "--trials", "2", "--n", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_gen_is_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert run(["gen", "--n", "4", "--k", "4", "--m", "2", "--seed", "9"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# --- failure paths ---

def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "tensor 3 2\nmatrix 2 1\n")
    code = run(["analyze", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: line 1")


def test_missing_file_exit_code(capsys):
    code = run(["analyze", "/nonexistent/input.txt", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "cannot read /nonexistent/input.txt: No such file or directory"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "1"])
def test_bad_tolerance_exit_code(tmp_path, capsys, tol):
    path = write(tmp_path, CUBIC_TEXT)
    code = run(["rank", path, "--json", "--tol", tol])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "input"


@pytest.mark.parametrize(
    "command, text",
    [
        ("dilation", "hypergraph 3000000000 1\n3 -> 1\n"),
        # one vertex above the count whose tables fit the cap
        ("analyze", "hypergraph 1198372 1\n1198373 -> 1\n"),
        ("analyze", "tensor 2 3000000000\n1 2\nmatrix 3000000000 1\n1 1\n"),
        # a dense control matrix, read with its values or drawn for a pattern
        ("rank", "tensor 2 2\n1 2 1.0\nmatrix 2 9999999999999\n1 1 1.0\n"),
        ("rank", "tensor 2 2\n1 2 1.0\nmatrix 2 99999999999999999999\n1 1 1.0\n"),
        ("rank", "tensor 2 2\n1 2\nmatrix 2 9999999999999\n1 1\n"),
        ("rank", "tensor 2 2\n1 2\nmatrix 2 99999999999999999999\n1 1\n"),
        # n beyond int64, refused before n is added to the control rows
        *(
            (command, "tensor 2 9223372036854775808\n1 1\nmatrix 9223372036854775808 1\n1 1\n")
            for command in ("analyze", "dilation", "access")
        ),
        # an order whose tuple of k column bounds no reader builds
        ("analyze", "tensor 99999999999999999998 2\nmatrix 2 1\n1 1\n"),
        ("analyze", "tensor 67108866 2\nmatrix 2 1\n1 1\n"),
    ],
)
def test_huge_vertex_count_is_a_capacity_error(tmp_path, capsys, command, text):
    # refused before any table with one slot per vertex is built
    path = write(tmp_path, text)
    code = run([command, path, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "capacity"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--n", "3000000000", "--k", "2", "--m", "1"], "pattern has 3000000001 vertices"),
        (
            ["validate", "--n", "3000000000", "--k", "2", "--m", "1", "--trials", "1"],
            "pattern has 3000000001 vertices",
        ),
        (
            ["gen", "--n", "10000", "--k", "2", "--m", "1", "--tensor-nnz", "40000000"],
            "pattern support needs 80000002 cells",
        ),
        (
            ["validate", "--n", "3", "--k", "100000000", "--m", "1", "--trials", "1"],
            "pattern support needs",
        ),
        (
            ["gen", "--n", "2", "--k", "9999999999999999998", "--m", "1"]
            + ["--tensor-nnz", "0", "--control-nnz", "1"],
            "tensor order needs 9999999999999999998 cells",
        ),
        # refused before a support size is drawn below n * m
        (
            ["validate", "--n", "99999999999999999999", "--k", "2", "--m", "1", "--trials", "1"],
            "pattern has 100000000000000000000 vertices",
        ),
    ],
)
def test_huge_generated_pattern_is_a_capacity_error(capsys, argv, message):
    # refused before the first entry is drawn
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "capacity"
    assert error["message"].startswith(message)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_coefficient_exit_code(tmp_path, capsys, value):
    path = write(tmp_path, f"tensor 2 2\n1 2 {value}\nmatrix 2 1\n1 1 1.0\n")
    code = run(["rank", path, "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith("line 2")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e300", "1e-170"])
def test_rank_of_a_chain_does_not_depend_on_its_scale(tmp_path, capsys, scale):
    # the squares of these coefficients overflow or underflow
    path = write(tmp_path, f"tensor 2 3\n1 2 {scale}\n2 3 {scale}\nmatrix 3 1\n1 1 1.0\n")
    code = run(["rank", path, "--json"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    report = json.loads(captured.out)
    assert (report["rank"], report["strongly_controllable"]) == (3, True)


def test_capacity_exit_code(tmp_path, capsys):
    path = write(tmp_path, CUBIC_TEXT)
    code = run(["rank", path, "--json", "--cap", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["kind"] == "capacity"


def test_rank_runs_a_k4_chain_at_n300(tmp_path, capsys):
    # a valid k=4 chain at n=300: its dense unfolding would hold 300**4 cells
    # (64 GiB), but the rank iteration evaluates the field from the entries
    n = 300
    chain = "".join(f"{i} {i} {i} {i + 1}\n" for i in range(1, n))
    path = write(tmp_path, f"tensor 4 {n}\n{chain}matrix {n} 1\n1 1\n")
    code, report = run_json(capsys, ["rank", path, "--json"])
    assert code == 0
    assert (report["rank"], report["iterations"]) == (n, n - 1)
    assert report["strongly_controllable"] is True


def test_rank_cap_bounds_the_reduction(tmp_path, capsys):
    # n = 4, k = 4, one entry: a 4 x 4 basis plus one batch of 4 points,
    # 4 cells each and 3 gathered tail cells, is 16 + (4 + 3) * 4 = 44 cells
    path = write(tmp_path, "tensor 4 4\n1 1 1 2\nmatrix 4 1\n1 1\n")
    assert run(["rank", path, "--json", "--cap", "44"]) == 0
    capsys.readouterr()
    code = run(["rank", path, "--json", "--cap", "43"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "capacity",
        "message": "rank reduction needs 44 cells, cap is 43",
    }


def test_memory_error_is_a_capacity_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 60.3 GiB")

    monkeypatch.setattr("polyctrl.cli.strong_controllability", exhausted)
    path = write(tmp_path, CUBIC_TEXT)
    code = run(["rank", path, "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"] == {
        "kind": "capacity",
        "message": "Unable to allocate 60.3 GiB",
    }


def test_rank_refuses_hypergraph(tmp_path, capsys):
    path = write(tmp_path, HYPERGRAPH_TEXT)
    for command in ("rank", "lie-rank"):
        code = run([command, path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: this command needs tensor/matrix input, not a hypergraph\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "--trials", "-1"], "--trials must be >= 0, got -1"),
        (["gen", "--n", "3", "--k", "3", "--m", "1"], "tensor order k=3 is odd"),
        (["gen", "--n", "3", "--k", "4", "--m", "1", "--tensor-nnz", "-1"], "support sizes"),
        (["gen", "--n", "0", "--k", "4", "--m", "1"], "dimension n must be >= 1, got 0"),
        (["validate", "--trials", "3", "--n", "0"], "dimension n must be >= 1, got 0"),
        (["validate", "--n", "3", "--m", "0"], "input count m must be >= 1, got 0"),
        (["validate", "--trials", "0", "--n", "0", "--k", "3"], "dimension n must be >= 1, got 0"),
        (["validate", "--k", "0", "--trials", "0"], "tensor order k must be >= 2, got 0"),
        (["validate", "--k", "-2", "--trials", "0"], "tensor order k must be >= 2, got -2"),
        (["gen", "--n", "2", "--k", "0", "--m", "1"], "tensor order k must be >= 2, got 0"),
        (["validate", "--trials", "0", "--tol", "-1"], "tolerance must be in [0, 1), got -1.0"),
    ],
)
def test_bad_generator_arguments_exit_code(capsys, argv, message):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(message)


def test_closed_stdout_ends_quietly(tmp_path, capsys):
    # a k=2 chain at n=6000: its report is about four times the 64 KiB a pipe
    # buffers, so the CLI is still writing when the reader goes away
    n = 6000
    chain = "".join(f"{i} {i + 1}\n" for i in range(1, n))
    path = write(tmp_path, f"tensor 2 {n}\n{chain}matrix {n} 1\n1 1\n")
    assert run(["analyze", path, "--json"]) == 0
    assert len(capsys.readouterr().out) > 65536

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from polyctrl.cli import main; main()", "analyze", path, "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def mutated_hypergraph_texts(count=50, seed=14):
    """``count`` valid hypergraph texts, each with one seeded fault: a bad
    '->', an empty vertex group, or a vertex that is 0 or out of range."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(0, 2)
        tails = rng.sample(range(1, n + m + 1), rng.randint(1, n + m))
        lines = [f"{t} -> {rng.randint(1, n)}" for t in tails]
        at = rng.randrange(len(lines))
        tail, head = lines[at].split(" -> ")
        kind = rng.randrange(3)
        if kind == 0:
            faults = [f"{tail} {head}", f"{tail} -> -> {head}", f"{tail} - > {head}",
                      f"{tail} => {head}", f"{tail} <- {head}"]
        elif kind == 1:
            faults = [f"-> {head}", f"{tail} ->", f", -> {head}", f"{tail} -> ,", "->"]
        else:
            bad = rng.choice(["0", "-1", str(n + 1), str(n + m + 1), "99999999999999999999"])
            faults = [f"{bad} -> {head}", f"{tail} -> {bad}", f"{tail},{bad} -> {head}"]
        lines[at] = rng.choice(faults)
        texts.append(f"hypergraph {n} {m}\n" + "\n".join(lines) + "\n")
    return texts


def test_no_command_raises_on_mutated_input(monkeypatch, capsys):
    # every input ends in exit 0, 2 or 3, never in a traceback
    texts = mutated_corpus(200, seed=7) + mutated_hypergraph_texts()
    # one parser serves every run: building it costs more than most runs
    parser = build_parser()
    monkeypatch.setattr("polyctrl.cli.build_parser", lambda: parser)
    codes = set()
    for text in texts:
        for command in (["analyze", "--numeric"], ["dilation"], ["access"], ["rank"],
                        ["lie-rank"]):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            try:
                code = run([command[0], "-", "--json", *command[1:]])
            except Exception as exc:
                pytest.fail(f"{command} raised {exc!r} on {text!r}")
            assert code in (0, 2, 3), (command, text)
            codes.add(code)
            capsys.readouterr()
    assert codes >= {0, 2}


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_module_entry_point_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "polyctrl.cli", "analyze", "/nonexistent", "--json"],
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["message"].startswith("cannot read /nonexistent")
