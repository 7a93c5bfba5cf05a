"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ptop.cli  # noqa: E402
import run  # noqa: E402
from spans import LAYER_METRICS, Tracer  # noqa: E402
import workloads  # noqa: E402
from ptop import SplitMix64, WeightTable, complete, verify_pairwise  # noqa: E402
from workloads import SETUPS, library_function  # noqa: E402

SEED = 3


def tiny_run(name: str, trace: bool, work: Path) -> dict:
    return run.measure(name, SEED, 0, trace, work, tiny=True)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_runs_clean_and_traced_matches_untraced(name, tmp_path):
    plain = tiny_run(name, False, tmp_path)
    traced = tiny_run(name, True, tmp_path)
    for outcome in (plain, traced):
        assert outcome["result"]["correct"], outcome["result"]
        assert outcome["result"]["failed"] == 0
    assert None not in plain["detail"]["digests"]
    assert traced["detail"]["digests"] == plain["detail"]["digests"]
    assert traced["result"]["attempted"] == 2 * plain["result"]["attempted"]


def test_result_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    plain = tiny_run("lib-complete", False, tmp_path)["result"]["metrics"]
    traced = tiny_run("lib-complete", True, tmp_path)["result"]["metrics"]
    assert list(plain) == [m["name"] for m in spec["end_to_end"]]
    assert [m["unit"] for m in spec["end_to_end"]] == [v["unit"] for v in plain.values()]
    assert list(traced) == [m["name"] for m in spec["per_layer"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def run_cycle(checker, runner, ops):
    for index, op in enumerate(ops):
        runner(index, op)


def test_corrupted_cli_answer_counts_as_failed(tmp_path):
    workload = SETUPS["cli-startup"](SEED, tmp_path, True)
    workload.ops[0].stdout += "extra\n"
    workload.ops[4].out_text = "ptop 1\n"
    checker = run.Checker(workload.ops, None)
    run_cycle(checker, run.cli_runner(checker, tmp_path, main=ptop.cli.main), workload.ops)
    assert (checker.failed, checker.attempted) == (2, len(workload.ops))


def test_corrupted_cli_answer_fails_as_a_child_process(tmp_path):
    workload = SETUPS["cli-startup"](SEED, tmp_path, True)
    ops = workload.ops[:2]
    ops[1].code = 0 if ops[1].code else 1
    checker = run.Checker(ops, None)
    child_rss_mb = []
    run_cycle(checker, run.cli_runner(checker, tmp_path, child_rss_mb=child_rss_mb), ops)
    assert (checker.failed, checker.attempted) == (1, 2)
    assert len(child_rss_mb) == 2 and min(child_rss_mb) > 0


def test_corrupted_library_answer_counts_as_failed(tmp_path):
    workload = SETUPS["lib-structure"](SEED, tmp_path, True)
    calls = {op.func: library_function(op.func) for op in workload.ops}
    checker = run.Checker(workload.ops, None)
    run_cycle(checker, run.lib_runner(checker, calls), workload.ops)
    assert checker.failed == 0
    pins = {op.label: d for op, d in zip(workload.ops, checker.digests)}
    pins[workload.ops[1].label] = "0" * 16
    broken = workload.ops[2]
    broken.check = lambda args, result: False
    checker = run.Checker(workload.ops, pins)
    run_cycle(checker, run.lib_runner(checker, calls), workload.ops)
    assert checker.failed == 2


@pytest.mark.parametrize("n", [3, 6])
def test_library_checks_reject_short_reports_and_loose_completions(n):
    rng = SplitMix64(SEED)
    for w in (workloads.sparse_table(n, rng), workloads.dense_table(n, rng)):
        reports = verify_pairwise(w)
        assert len(reports) > 1 and workloads.check_verify((w,), reports)
        for wrong in ([], reports[1:], reports[:-1], reports[::-1]):
            assert not workloads.check_verify((w,), wrong)
        assert workloads.check_complete((w,), complete(w))
        assert not workloads.check_complete((w,), WeightTable(n, (1.0,) * (1 << n)))


def test_self_time_subtracts_children_and_splits_nested_scans():
    tracer = Tracer()
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("core.as_pspace", 1.0, 4.0, 0, 0),
        ("levels.decompose", 5.0, 9.0, 0, 0),
        ("levels.level_cut", 5.5, 8.5, 2, 0),
        ("core.verify_pairwise", 6.0, 8.0, 3, 0),
        ("core.verify_pairwise", 9.0, 9.5, 0, 0),
    ]
    self_time = tracer.self_times()
    assert self_time["cli.main"] == pytest.approx(10 - 3 - 4 - 0.5)
    assert self_time["levels.decompose"] == pytest.approx(1)
    assert self_time["levels.level_cut"] == pytest.approx(1)
    assert self_time["core.verify_pairwise.nested"] == pytest.approx(2)
    assert self_time["core.verify_pairwise"] == pytest.approx(0.5)
    metrics = tracer.layer_metrics(cycles=2)
    assert metrics["core.verify_pairwise.nested_s"] == pytest.approx(1)
    assert metrics["core.as_pspace.calls"] == pytest.approx(0.5)


def test_patched_names_are_restored():
    before = ptop.cli.as_pspace, ptop.levels.verify_pairwise
    tracer = Tracer()
    with tracer.patched():
        assert ptop.cli.as_pspace is not before[0]
    assert (ptop.cli.as_pspace, ptop.levels.verify_pairwise) == before


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-startup", "--seconds", "1"]) == 2
    assert "no ptop sources" in capsys.readouterr().err
