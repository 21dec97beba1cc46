"""The benchmark's own checks, at toy size (run: ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.engine.runner
import repro.engine.study
import run
from layers import read_spans
from workloads import TOY, WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=WORKLOADS)
def outcomes(request):
    """One untraced and one traced toy run of a workload."""
    name = request.param
    return {
        trace: run.run(name, seed=3, seconds=0.0, trace=trace, sizes=TOY)
        for trace in (False, True)
    }


def test_runs_pass_their_correctness_gate(outcomes):
    for outcome in outcomes.values():
        assert outcome["report"]["problems"] == []
        assert outcome["result"]["correct"] is True
        assert outcome["result"]["failed"] == 0
        assert outcome["result"]["attempted"] >= 1


def test_tracing_does_not_change_outputs(outcomes):
    untraced, traced = outcomes[False]["report"], outcomes[True]["report"]
    assert traced["traced_identity"] == traced["identity"] == untraced["identity"]
    shared = set(traced["counts"]) & set(untraced["counts"])
    assert shared
    assert {key: traced["counts"][key] for key in shared} == {
        key: untraced["counts"][key] for key in shared
    }


def test_every_declared_metric_is_emitted_with_its_unit(outcomes):
    for trace, declared in ((False, BENCHMARK["end_to_end"]), (True, BENCHMARK["per_layer"])):
        metrics = outcomes[trace]["result"]["metrics"]
        assert set(metrics) == {entry["name"] for entry in declared}
        for entry in declared:
            value = metrics[entry["name"]]
            assert value["unit"] == entry["unit"]
            assert isinstance(value["value"], (int, float))
    for entry in BENCHMARK["end_to_end"]:
        assert outcomes[False]["result"]["metrics"][entry["name"]]["value"] > 0


def test_traced_run_accounts_for_the_study_and_writes_spans(outcomes):
    report = outcomes[True]["report"]
    metrics = report["metrics"]
    assert metrics["sim.build_world.calls"]["value"] >= 1
    assert metrics["engine.execute_s"]["value"] > 0
    assert 0.9 < metrics["bench.accounted_frac"]["value"] <= 1.0
    header, spans = read_spans(run.ROOT / report["spans"]["file"])
    assert len(spans) == report["spans"]["count"]
    layers = {span["layer"] for span in spans}
    assert {"bench.study", "engine.shard", "luminati", "dnssim"} <= layers
    assert all(span["unit"] for span in spans)


def test_wrappers_are_removed_after_a_traced_run(outcomes):
    assert repro.engine.runner.run_shard.__name__ == "run_shard"
    assert not hasattr(repro.engine.runner.run_shard, "__wrapped__")
    assert not hasattr(repro.engine.study.compute_plans, "__wrapped__")


def test_run_without_program_source_fails_without_a_result(tmp_path: Path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
