"""Tests of the benchmark's own parts: generators, checker and tracer.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from polyctrl.cli import run  # noqa: E402
from polyctrl.numeric import strong_controllability  # noqa: E402
from polyctrl.structural import structural_verdict  # noqa: E402
from polyctrl.formats import parse_input  # noqa: E402


def cli_report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return json.loads(out.getvalue())


def written(pattern, tmp_path, name="p.txt"):
    path = str(tmp_path / name)
    inputs.write_pattern(pattern, path)
    return path


def test_generators_are_deterministic_per_seed(tmp_path):
    def text(pattern, name):
        with open(written(pattern, tmp_path, name), encoding="ascii") as handle:
            return handle.read()

    for make in (
        lambda seed: inputs.cascade(60, 4, 3, 120, seed, valued=False),
        lambda seed: inputs.cascade(24, 4, 2, 24, seed, valued=True, layers=(2, 3, 5, 7, 5)),
        lambda seed: inputs.chain(18, 4, seed),
        lambda seed: inputs.chain(30, 2, seed),
    ):
        assert text(make(7), "a") == text(make(7), "b")
        assert text(make(7), "a") != text(make(8), "b")


def test_random_family_from_gen_is_deterministic(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(inputs.__file__), "..", "src"))
    cli = [sys.executable, "-c", "from polyctrl.cli import main; main()"]
    paths = [str(tmp_path / f"r{i}.txt") for i in range(3)]
    for path, seed in zip(paths, (5, 5, 6)):
        inputs._gen_random(cli, env, 40, seed, path)
    texts = [open(path, encoding="ascii").read() for path in paths]
    assert texts[0] == texts[1] != texts[2]


@pytest.mark.parametrize("seed", range(5))
def test_cascades_are_controllable(tmp_path, seed):
    pattern = inputs.cascade(300, 4, 3, 600, seed, valued=False)
    verdict = structural_verdict(parse_input(open(written(pattern, tmp_path)).read()))
    assert verdict.controllable

    layered = inputs.cascade(12, 4, 2, 12, seed, valued=True, layers=(2, 3, 5))
    system = parse_input(open(written(layered, tmp_path, "l.txt")).read())
    report = strong_controllability(system)
    assert report.rank == 12 and report.iterations == 3


def test_checker_accepts_real_reports_and_rejects_corrupted_ones(tmp_path):
    path = written(inputs.cascade(200, 4, 3, 400, 1, valued=False), tmp_path)
    report = cli_report(["analyze", path, "--json"])
    assert check.check_analyze(report, path, controllable=True) == []

    corruptions = []
    bad = copy.deepcopy(report)
    bad["structural"]["inaccessible"] = [5]
    corruptions.append(bad)
    bad = copy.deepcopy(report)
    e, v = bad["structural"]["matching"][10]
    bad["structural"]["matching"][10] = [e, v % 200 + 1]
    corruptions.append(bad)
    bad = copy.deepcopy(report)
    bad["structural"]["matching"].pop()
    corruptions.append(bad)
    bad = copy.deepcopy(report)
    bad["structural"].update(dilated=True, dilation_witness=[1, 2], controllable=False)
    corruptions.append(bad)
    bad = copy.deepcopy(report)
    bad["input"]["tensor_nnz"] += 1
    corruptions.append(bad)
    for bad in corruptions:
        assert check.check_analyze(bad, path) != []


def test_checker_on_dilated_random_pattern(tmp_path):
    path = str(tmp_path / "r.txt")
    with redirect_stdout(io.StringIO()) as out:
        run(["gen", "--n", "300", "--k", "4", "--m", "3", "--seed", "2", "--tensor-nnz", "900"])
    with open(path, "w", encoding="ascii") as handle:
        handle.write(out.getvalue())
    report = cli_report(["analyze", path, "--json"])
    assert report["structural"]["dilated"]
    assert check.check_analyze(report, path) == []
    bad = copy.deepcopy(report)
    bad["structural"]["dilation_witness"] = list(range(1, 301))
    assert check.check_analyze(bad, path) != []
    bad = copy.deepcopy(report)
    bad["structural"]["inaccessible"] = bad["structural"]["inaccessible"][1:]
    assert check.check_analyze(bad, path) != []


def test_checker_on_rank_and_validate_reports(tmp_path):
    path = written(inputs.chain(40, 2, 3), tmp_path)
    report = cli_report(["rank", path, "--json"])
    assert check.check_rank(report, path, n=40, kalman=True) == []
    assert check.check_rank(dict(report, rank=39), path, n=40, kalman=True) != []

    argv = ["validate", "--json", "--trials", "20", "--n", "4", "--k", "4", "--m", "2",
            "--seed", "3"]
    report = cli_report(argv)
    params = {"trials": 20, "n": 4, "k": 4, "m": 2, "seed": 3}
    assert check.check_validate(report, **params) == []
    assert check.check_validate(dict(report, agreements=report["agreements"] - 1), **params)
    bad = copy.deepcopy(report)
    bad["detail"][0]["ranks"] = [9]
    assert check.check_validate(bad, **params) != []


def test_traced_cli_writes_nested_spans(tmp_path):
    path = written(inputs.cascade(20, 4, 2, 10, 0, valued=False), tmp_path)
    spans_path = str(tmp_path / "spans.json")
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(here, "..", "src"))
    proc = subprocess.run([sys.executable, os.path.join(here, "traced_cli.py"), spans_path,
                           "analyze", path, "--json"], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert check.check_analyze(json.loads(proc.stdout), path, controllable=True) == []
    with open(spans_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["missing"] == []
    spans = trace["spans"]
    assert [span[0] for span in spans] == [
        "cli.run", "formats.parse_input", "hypergraph.build_hypergraph",
        "structural.analyze_hypergraph", "structural.detect_dilation",
        "structural.accessible_set"]
    assert [span[3] for span in spans] == [None, 0, 0, 0, 3, 3]
    own = tracer.self_times(spans)
    run_span = spans[0]
    children = sum(span[2] - span[1] for span in spans if span[3] == 0)
    assert own["cli.run"] == pytest.approx(run_span[2] - run_span[1] - children)
    assert trace["counts"]["structural.matched"] == 20
    assert trace["counts"]["structural.accessible"] == 20
    assert trace["counts"]["structural.analyze_hypergraph.calls"] == 1


def test_missing_target_yields_no_span():
    trace = tracer.Tracer()
    missing = trace.install((("gone", "polyctrl.structural", "no_such_function", None),
                             ("gone.module", "polyctrl.no_such_module", "run", None)))
    assert missing == ["gone", "gone.module"]
    assert trace.spans == [] and tracer.self_times(trace.spans) == {}


def test_metric_names_match_benchmark_json():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    import run as bench_run

    assert [m["name"] for m in spec["per_layer"]] == [*bench_run.LAYER_METRICS, "trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
