"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest -q benchmark/tests
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "long_session": {"turns": 3},
    "edit_burst": {"turns": 2, "files": 2, "lines_per_file": 800},
    "flat_history": {"turns": 3},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(workload: str, seed: int = 7) -> workloads.Plan:
    return workloads.build(workload, seed, **TINY[workload])


@pytest.fixture(autouse=True)
def restore_env(monkeypatch, tmp_path):
    """Runner sets GIT_CEILING_DIRECTORIES and run.main prepends to sys.path."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(workloads.SIZES, workload, TINY[workload])
    monkeypatch.setattr(run, "RUN_DIR", tmp_path)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line for line in lines[:-1]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_generators_are_seeded():
    for workload in TINY:
        assert tiny(workload, 1).entries == tiny(workload, 1).entries
        assert tiny(workload, 1).entries != tiny(workload, 2).entries


def test_role_mismatch_counts_as_a_failed_session(tmp_path):
    good = tiny("long_session")
    bad = copy.deepcopy(good)
    hand = next(e for e in bad.entries if e["role"] == "hand")
    hand["role"] = "brain"
    sessions = harness.measure(harness.Runner(bad, tmp_path / "bad"), 0, trace=False)
    sessions += harness.measure(harness.Runner(good, tmp_path / "good"), 0, trace=False)
    result = harness.end_to_end(sessions)  # each measure() ran a warm-up and one timed session
    assert (result.attempted, result.failed) == (4, 2)
    assert all("expects a brain call, got hand" in s.problems[0] for s in sessions[:2])
    assert result.metrics["prompt_tokens.brain"] == sessions[3].prompt_tokens["brain"]


def test_checks_compare_the_workdir_with_the_model(tmp_path):
    plan = tiny("edit_burst")
    name = sorted(plan.final_files)[0]
    plan.final_files[name] += "# not written by any edit\n"
    session = harness.Runner(plan, tmp_path).run()
    assert session.problems == ["workdir files differ from the generator's model"]


@pytest.mark.parametrize("workload", ["long_session", "edit_burst"])
def test_layer_self_times_add_up_to_the_traced_wall_time(workload, tmp_path):
    sessions = harness.measure(harness.Runner(tiny(workload), tmp_path), 0, trace=True)
    traced = [s for s in sessions if s.traced]
    assert traced and all(s.ok for s in sessions)
    layers = traced[0].layers
    parts = layers["unattributed.ms"] + sum(layers[f"{layer}.self_ms"] for layer in harness.tracing.LAYERS)
    assert parts == pytest.approx(layers["session.wall_ms"], rel=1e-9)
