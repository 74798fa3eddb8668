"""End-to-end CLI tests: every path runs offline against the scripted mock."""

from __future__ import annotations

import dataclasses
import json
import subprocess
from pathlib import Path

import pytest

from agentloop import orchestrator
from agentloop.cli import build_parser, main, parse_args
from agentloop.memory import lint_transcript
from agentloop.orchestrator import RunConfig
from agentloop.toolkit import SNAPSHOT_INDEX, snapshot_patch

from conftest import FIXTURES, brain_entry, trivial_run_entries, write_script

ADD_REQUEST = "Create add.py so that `python3 test_add.py` exits with status 0."


def run_argv(workdir: Path, script: Path, *extra: str) -> list[str]:
    return ["run", ADD_REQUEST, "--workdir", str(workdir), "--mock", str(script), *extra]


@pytest.fixture
def trivial_script(tmp_path):
    return write_script(tmp_path / "trivial.json", trivial_run_entries())


@pytest.fixture
def unsatisfied_script(tmp_path):
    return write_script(tmp_path / "never.json", trivial_run_entries(stop="NOT YET"))


# --- run ---

def test_run_add_fixture_solves(add_workdir, capsys):
    code = main(run_argv(add_workdir, FIXTURES / "add_fixture.json"))
    out = capsys.readouterr().out
    assert code == 0
    assert "status: solved" in out
    assert "turns: 2" in out
    artifacts = add_workdir.parent / (add_workdir.name + "-artifacts")
    patch = (artifacts / "final.patch").read_text()
    assert "+++ b/add.py" in patch
    assert lint_transcript(artifacts / "transcript.jsonl") == []
    report = json.loads((artifacts / "cost_report.json").read_text())
    assert report["total_cost"] == 0


def test_run_iteration_cap_exit_code(tmp_path, unsatisfied_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    argv = ["run", "do the thing", "--workdir", str(workdir), "--mock", str(unsatisfied_script),
            "--max-iterations", "1"]
    assert main(argv) == 2


def test_run_budget_exit_code(tmp_path, trivial_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    pricing = tmp_path / "pricing.json"
    pricing.write_text('{"mock-brain": [0.0, 200000.0], "mock-hand": [0.0, 200000.0]}')
    argv = ["run", "do the thing", "--workdir", str(workdir), "--mock", str(trivial_script),
            "--pricing", str(pricing), "--max-cost", "10.0"]
    assert main(argv) == 3


def test_run_prices_each_role_by_its_model_flag(tmp_path, trivial_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    pricing = tmp_path / "pricing.json"
    pricing.write_text('{"planner": [1.0, 0.0], "doer": [2.0, 0.0]}')
    argv = ["run", "do the thing", "--workdir", str(workdir), "--mock", str(trivial_script),
            "--pricing", str(pricing), "--brain-model", "planner", "--hand-model", "doer",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    report = json.loads((tmp_path / "out" / "cost_report.json").read_text())
    assert {(e["role"], e["model"]) for e in report["entries"]} == {("brain", "planner"), ("hand", "doer")}
    for model, rate in (("planner", 1.0), ("doer", 2.0)):
        totals = report["totals_by_model"][model]
        assert totals["cost"] == pytest.approx(totals["prompt_tokens"] * rate / 1e6)


def test_run_missing_pricing_with_real_backend(tmp_path):
    workdir = tmp_path / "w"
    argv = ["run", "fix", "--workdir", str(workdir), "--backend-url", "http://backend.local"]
    assert main(argv) == 64


def test_run_no_backend(tmp_path):
    argv = ["run", "fix", "--workdir", str(tmp_path / "w")]
    assert main(argv) == 64


def test_run_requires_single_request_source(tmp_path, trivial_script):
    issue = tmp_path / "issue.txt"
    issue.write_text("fix the bug\n")
    both = ["run", "fix", "--issue-file", str(issue), "--workdir", str(tmp_path / "w"),
            "--mock", str(trivial_script)]
    assert main(both) == 64
    neither = ["run", "--workdir", str(tmp_path / "w2"), "--mock", str(trivial_script)]
    assert main(neither) == 64


def test_run_issue_file(tmp_path, trivial_script, capsys):
    issue = tmp_path / "issue.txt"
    issue.write_text("do the thing\n")
    workdir = tmp_path / "w"
    argv = ["run", "--issue-file", str(issue), "--workdir", str(workdir),
            "--mock", str(trivial_script)]
    assert main(argv) == 0
    assert "status: solved" in capsys.readouterr().out


def test_run_missing_workdir_flag(trivial_script):
    assert main(["run", "fix", "--mock", str(trivial_script)]) == 64


def test_run_missing_mock_file(tmp_path):
    argv = ["run", "fix", "--workdir", str(tmp_path / "w"), "--mock", str(tmp_path / "nope.json")]
    assert main(argv) == 64


def test_run_config_file_and_flag_override(tmp_path, capsys):
    two_turn = trivial_run_entries(stop="NOT YET") + trivial_run_entries(stop="NOT YET")[1:]
    script = write_script(tmp_path / "two.json", two_turn)
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(f"max_iterations = 1\nmock = {script}\n")

    workdir1 = tmp_path / "w1"
    assert main(["run", "go", "--workdir", str(workdir1), "--config", str(cfg)]) == 2
    assert "turns: 1" in capsys.readouterr().out

    workdir2 = tmp_path / "w2"
    argv = ["run", "go", "--workdir", str(workdir2), "--config", str(cfg),
            "--max-iterations", "2"]
    assert main(argv) == 2
    assert "turns: 2" in capsys.readouterr().out  # the flag overrode the file


def test_run_unknown_config_key(tmp_path):
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("warp_speed = 9\n")
    argv = ["run", "go", "--workdir", str(tmp_path / "w"), "--config", str(cfg)]
    assert main(argv) == 64


@pytest.mark.parametrize("config_line, flags, mock", [
    ("max_iterations = many", [], "script"),
    ("dispatch_mode = bogus", [], "script"),
    ("", ["--voting", "0"], "script"),
    ("", ["--max-iterations", "x"], "script"),
    ("", ["--dispatch-mode", "bogus"], "script"),
    ("", [], "missing"),
    ("", ["--pricing", "missing-pricing.json"], "script"),
    ("", [], None),
    ("", ["--timeout", "inf"], "script"),
    ("", ["--timeout", "nan"], "script"),
    ("", ["--timeout", "0"], "script"),
    ("", ["--timeout", "-1"], "script"),
    ("", ["--max-cost", "nan"], "script"),
], ids=["file-not-int", "file-bad-choice", "flag-rejected-by-runconfig", "flag-not-int",
        "flag-bad-choice", "missing-mock-script", "missing-pricing-file", "no-backend",
        "timeout-inf", "timeout-nan", "timeout-zero", "timeout-negative", "max-cost-nan"])
def test_run_usage_errors_exit_64(tmp_path, trivial_script, capsys, config_line, flags, mock,
                                  monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative missing files resolve here
    cfg = tmp_path / "loop.cfg"
    cfg.write_text(config_line + "\n")
    backend = {"script": ["--mock", str(trivial_script)], "missing": ["--mock", "missing.json"]}
    argv = ["run", ADD_REQUEST, "--workdir", str(tmp_path / "w"), *backend.get(mock, []),
            "--config", str(cfg), *flags]
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith("config error: ")
    # rejected before the run touches anything
    assert not (tmp_path / "w").exists()
    assert not (tmp_path / "w-artifacts").exists()


def test_run_refused_inside_another_repository_creates_no_directory(
    tmp_path, trivial_script, capsys
):
    outer = tmp_path / "outer"
    outer.mkdir()
    subprocess.run(["git", "init", "-q", str(outer)], check=True)
    (outer / "kept").mkdir()  # existed before the run: kept though empty
    for workdir in (outer / "sub" / "deeper", outer / "kept"):
        assert main(["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]) == 1
        assert "lies inside the git repository" in capsys.readouterr().err
        assert not workdir.parent.joinpath(workdir.name + "-artifacts").exists()
    assert sorted(p.name for p in outer.iterdir()) == [".git", "kept"]


# every key the config file accepted before the run parser became the only settings list
OLD_CONFIG_KEYS = {
    "workdir": "w", "mock": "m.json", "backend_url": "http://b", "brain_model": "bm",
    "hand_model": "hm", "max_iterations": "5", "max_cost": "2.5", "self_corrections": "1",
    "timeout": "9", "dispatch_mode": "flat", "memory_retrieval": "off", "voting": "3",
    "budget_per_iteration": "on", "pricing": "p.json", "transcript": "t.jsonl",
    "patch_out": "f.patch", "cost_report": "c.json", "out_dir": "o",
}


def test_every_run_setting_has_a_flag_and_every_old_config_key_parses(tmp_path):
    unset = vars(parse_args(["run"]))
    for field in dataclasses.fields(RunConfig):
        assert field.name in unset, f"RunConfig.{field.name} has no run flag"
        assert unset[field.name] is None, f"the {field.name} flag has a default; RunConfig owns it"

    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in OLD_CONFIG_KEYS.items()))
    args = vars(parse_args(["run", "go", "--config", str(cfg)]))
    dest = {"self_corrections": "self_correction_limit", "timeout": "sandbox_timeout",
            "voting": "voting_rounds"}
    parsed = {key: args[dest.get(key, key)] for key in OLD_CONFIG_KEYS}
    assert parsed == {
        **OLD_CONFIG_KEYS, "max_iterations": 5, "max_cost": 2.5, "self_corrections": 1,
        "timeout": 9.0, "voting": 3, "memory_retrieval": False, "budget_per_iteration": True,
    }


def test_parser_is_built_once_and_keeps_nothing_between_parses(tmp_path):
    assert build_parser() is build_parser()
    cfg = tmp_path / "loop.cfg"
    cfg.write_text("max_iterations = 5\n")
    assert parse_args(["run", "go", "--config", str(cfg)]).max_iterations == 5
    assert parse_args(["run", "go"]).max_iterations is None


def test_run_lockfile_blocks_concurrent_use(tmp_path, trivial_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    from agentloop.toolkit import ensure_repo

    ensure_repo(workdir)
    lock = workdir / ".git" / "agentloop.lock"
    lock.write_text("locked\n")
    argv = ["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]
    assert main(argv) == 64
    lock.unlink()
    assert main(argv) == 0


def test_run_refuses_workdir_inside_another_repository(tmp_path, trivial_script, capsys):
    outer = tmp_path / "outer"
    workdir = outer / "sub"
    workdir.mkdir(parents=True)
    (workdir / "f.txt").write_text("x\n")
    subprocess.run(["git", "init", "-q", str(outer)], check=True)
    argv = ["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]
    assert main(argv) == 1
    assert "inside the git repository" in capsys.readouterr().err
    assert not (workdir / ".git").exists()
    head = subprocess.run(["git", "-C", str(outer), "rev-parse", "HEAD"], capture_output=True)
    assert head.returncode != 0  # no base commit was made in the enclosing repository


def test_run_dying_on_fixture_mismatch_leaves_no_lock_or_index(tmp_path, capsys, monkeypatch):
    workdir = tmp_path / "w"
    workdir.mkdir()
    index = workdir / ".git" / SNAPSHOT_INDEX
    index_after_snapshot = []

    def snapshot(*args):
        patch = snapshot_patch(*args)
        index_after_snapshot.append(index.exists())
        return patch

    monkeypatch.setattr(orchestrator, "snapshot_patch", snapshot)
    # turn 1 completes (taking a snapshot); turn 2's first prompt misses the expected text
    entries = trivial_run_entries(stop="NOT YET")
    entries.append(brain_entry("ANALYSIS: never used", expect="text the prompt lacks"))
    script = write_script(tmp_path / "mismatch.json", entries)
    argv = ["run", "go", "--workdir", str(workdir), "--mock", str(script)]
    assert main(argv) == 1
    assert "not found in prompt" in capsys.readouterr().err
    assert index_after_snapshot == [True]
    assert not index.exists()
    assert not (workdir / ".git" / "agentloop.lock").exists()


# --- edit ---

@pytest.fixture
def edit_setup(tmp_path):
    target = tmp_path / "f.txt"
    target.write_text("alpha\nbeta\ngamma\n")
    content = tmp_path / "new.txt"
    content.write_text("BETA\n")
    return tmp_path, content


def test_edit_applies(edit_setup, capsys):
    workdir, content = edit_setup
    argv = ["edit", "f.txt", "2", "2", "beta", "beta", str(content), "--workdir", str(workdir)]
    assert main(argv) == 0
    assert (workdir / "f.txt").read_text() == "alpha\nBETA\ngamma\n"


def test_edit_mismatch_prints_hint_json(edit_setup, capsys):
    workdir, content = edit_setup
    before = (workdir / "f.txt").read_text()
    argv = ["edit", "f.txt", "1", "1", "beta", "beta", str(content), "--workdir", str(workdir)]
    assert main(argv) == 4
    hint = json.loads(capsys.readouterr().out)
    assert hint == {"anchor": "start", "given_line": 1, "candidate_lines": [2]}
    assert (workdir / "f.txt").read_text() == before


def test_edit_missing_file(edit_setup):
    workdir, content = edit_setup
    argv = ["edit", "nope.txt", "1", "1", "a", "a", str(content), "--workdir", str(workdir)]
    assert main(argv) == 66


def test_edit_missing_content_file(edit_setup):
    workdir, _ = edit_setup
    argv = ["edit", "f.txt", "1", "1", "a", "a", str(workdir / "absent.txt"),
            "--workdir", str(workdir)]
    assert main(argv) == 66


def test_edit_line_out_of_range(edit_setup):
    workdir, content = edit_setup
    argv = ["edit", "f.txt", "1", "99", "alpha", "gamma", str(content), "--workdir", str(workdir)]
    assert main(argv) == 65


def test_edit_bad_range(edit_setup):
    workdir, content = edit_setup
    argv = ["edit", "f.txt", "3", "1", "gamma", "alpha", str(content), "--workdir", str(workdir)]
    assert main(argv) == 64


# --- analyze-cost ---

def test_analyze_cost_sampled_defaults(capsys):
    assert main(["analyze-cost", "--sampled-defaults"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reference_claim"] == {"input_saving": 0.7981, "output_saving": 0.8306}
    assert report["simulator"]["input_saving"] > 0.70
    assert report["simulator"]["output_saving"] > 0.70
    assert report["params"]["n"] == 2.53


def test_analyze_cost_unit_point(capsys):
    assert main(["analyze-cost", "-n", "1", "-m", "1", "-k", "1", "--avg", "all=1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["simulator"]["input_before"] == 21
    assert report["simulator"]["output_before"] == 6


def test_analyze_cost_rejects_bad_k():
    assert main(["analyze-cost", "-n", "1", "-m", "1", "-k", "0", "--avg", "all=1"]) == 64


def test_analyze_cost_rejects_unknown_avg_key():
    assert main(["analyze-cost", "-n", "1", "-m", "1", "-k", "1", "--avg", "bogus=3"]) == 64


def test_analyze_cost_requires_params():
    assert main(["analyze-cost"]) == 64
