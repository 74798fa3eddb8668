"""End-to-end CLI tests: every path runs offline against the scripted mock."""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from agentloop import cli, orchestrator, toolkit
from agentloop.cli import build_parser, main, parse_args
from agentloop.backends import ScriptedBackend
from agentloop.memory import MemoryKind, lint_phase_order, lint_transcript, load_transcript
from agentloop.orchestrator import RunConfig
from agentloop.toolkit import ensure_repo, snapshot_patch

from conftest import (
    FIXTURES,
    MAIN_STORE,
    PRIVATE_STORE,
    TEST_ADD_PY,
    brain_entry,
    build_turn,
    count_git,
    git_subcommand,
    simple_task_body,
    trivial_run_entries,
    write_script,
)

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


def _git_files(repo: Path) -> set[Path]:
    return {path for path in (repo / ".git" / "objects").rglob("*") if path.is_file()}


def _committed_repo(path: Path) -> Path:
    """A repository at path with one commit that holds test_add.py."""
    path.mkdir(parents=True)
    (path / "test_add.py").write_text(TEST_ADD_PY, encoding="utf-8")
    identity = ["-c", "user.name=user", "-c", "user.email=user@localhost"]
    for args in (["init", "-q"], ["add", "-A"], [*identity, "commit", "-q", "-m", "start"]):
        subprocess.run(["git", "-C", str(path), *args], check=True)
    return path


def _shared_clone(path: Path) -> Path:
    """A clone of a one-commit repository whose objects it reads through objects/info/alternates."""
    origin = _committed_repo(path.parent / "origin")
    subprocess.run(["git", "clone", "-q", "--shared", str(origin), str(path)], check=True)
    return path


@pytest.mark.parametrize("make", [
    lambda tmp: _committed_repo(tmp / "w"),
    lambda tmp: _shared_clone(tmp / "w"),
    lambda tmp: _committed_repo(tmp / "a:b" / "w"),
], ids=["one-commit", "shared-clone", "colon-in-path"])
def test_run_leaves_the_object_store_as_it_found_it(tmp_path, make):
    workdir = make(tmp_path)
    before = _git_files(workdir)
    assert main(run_argv(workdir, FIXTURES / "add_fixture.json")) == 0
    assert "+++ b/add.py" in (workdir.parent / "w-artifacts" / "final.patch").read_text()
    assert _git_files(workdir) == before
    assert not (workdir / ".git" / "agentloop").exists()


def _info_files(repo: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in (repo / ".git" / "info").rglob("*") if path.is_file()}


def test_run_leaves_the_repository_configuration_as_it_found_it(tmp_path):
    workdir = _committed_repo(tmp_path / "w")
    (workdir / ".git" / "info").mkdir(exist_ok=True)
    (workdir / ".git" / "info" / "exclude").write_text("*.bak\n")  # the user's own line
    before = _info_files(workdir)
    assert main(run_argv(workdir, FIXTURES / "add_fixture.json")) == 0
    assert _info_files(workdir) == before


def test_a_command_that_imports_a_module_adds_no_bytecode_to_any_patch(tmp_path):
    # an existing repository has no excludes from the run; commands write no bytecode
    workdir = _committed_repo(tmp_path / "w")
    command = 'echo "X = 1" > m.py && python3 -c "import m"'
    script = write_script(tmp_path / "import.json", [
        brain_entry("REQUIREMENT: m imports"),
        *build_turn(
            analyses=["write m.py and import it."],
            task_body=simple_task_body("Import m", "write and import m.py", "exit status 0"),
            attempts=[([f"run_command({json.dumps(command)})", "DONE: imported"], "pass - imported")],
            summary="wrote and imported m.py.",
            stop="SATISFIED",
        ),
    ])
    assert main(run_argv(workdir, script)) == 0
    artifacts = workdir.parent / "w-artifacts"
    summaries = [r.content for r in load_transcript(artifacts / "transcript.jsonl") if r.kind is MemoryKind.SUMMARY]
    final = (artifacts / "final.patch").read_text()
    assert "+++ b/m.py" in summaries[0] and "+++ b/m.py" in final
    assert not [text for text in [*summaries, final] if ".pyc" in text or "__pycache__" in text]


def test_a_killed_runs_snapshot_directory_does_not_stop_the_next_runs_snapshots(add_workdir):
    ensure_repo(add_workdir)
    leftover = add_workdir / ".git" / "agentloop"
    (leftover / "objects").mkdir(parents=True)
    (leftover / "index.lock").write_bytes(b"")  # a run killed during git add -A
    (leftover / "index").write_bytes(b"DIRC half an index")
    assert main(run_argv(add_workdir, FIXTURES / "add_fixture.json")) == 0
    records = load_transcript(add_workdir.parent / "workdir-artifacts" / "transcript.jsonl")
    assert not [r for r in records if r.content.startswith("turn aborted")]
    summaries = [r.content for r in records if r.kind is MemoryKind.SUMMARY]
    assert "+++ b/add.py" in summaries[0]
    assert not leftover.exists()


def _summaries(artifacts: Path) -> list[str]:
    return [r.content for r in load_transcript(artifacts / "transcript.jsonl") if r.kind is MemoryKind.SUMMARY]


def _files(tree: Path) -> dict[str, bytes]:
    return {str(p.relative_to(tree)): p.read_bytes() for p in tree.rglob("*") if p.is_file() and ".git" not in p.parts}


def _assert_final_patch_reproduces_the_worktree(workdir: Path, artifacts: Path, tmp_path: Path) -> None:
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "-q", str(workdir), str(clone)], check=True, capture_output=True)
    subprocess.run(["git", "-C", str(clone), "apply", str(artifacts / "final.patch")], check=True)
    assert _files(clone) == _files(workdir)


def test_an_edit_made_before_the_run_is_in_no_summary_but_in_the_final_patch(tmp_path):
    workdir = _committed_repo(tmp_path / "w")
    (workdir / "pre.py").write_text("x = 1\n")
    subprocess.run(["git", "-C", str(workdir), "add", "pre.py"], check=True)
    subprocess.run(["git", "-C", str(workdir), "-c", "user.name=u", "-c", "user.email=u@localhost",
                    "commit", "-q", "-m", "pre"], check=True)
    (workdir / "pre.py").write_text("x = 2\n")  # the user's uncommitted edit
    assert main(run_argv(workdir, FIXTURES / "add_fixture.json")) == 0
    artifacts = workdir.parent / "w-artifacts"
    summaries = _summaries(artifacts)
    assert "+++ b/add.py" in summaries[0]
    assert not [summary for summary in summaries if "pre.py" in summary]
    final = (artifacts / "final.patch").read_text()
    assert "+++ b/add.py" in final and "+++ b/pre.py" in final  # the patch starts at HEAD's tree
    _assert_final_patch_reproduces_the_worktree(workdir, artifacts, tmp_path)


def test_a_repository_with_no_commit_gets_none_and_its_final_patch_adds_every_file(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    subprocess.run(["git", "-C", str(workdir), "init", "-q"], check=True)
    (workdir / "test_add.py").write_text(TEST_ADD_PY, encoding="utf-8")
    assert main(run_argv(workdir, FIXTURES / "add_fixture.json")) == 0
    unborn = subprocess.run(["git", "-C", str(workdir), "rev-parse", "-q", "--verify", "HEAD"], capture_output=True)
    assert unborn.returncode != 0 and unborn.stdout == b""  # HEAD still names no commit
    artifacts = workdir.parent / "w-artifacts"
    summaries = _summaries(artifacts)
    assert "+++ b/add.py" in summaries[0] and "test_add.py" not in summaries[0]
    final = (artifacts / "final.patch").read_text()
    assert "+++ b/add.py" in final and "+++ b/test_add.py" in final  # the patch starts at the empty tree
    _assert_final_patch_reproduces_the_worktree(workdir, artifacts, tmp_path)


def test_a_run_whose_command_removes_the_snapshot_directory_goes_on(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [brain_entry("REQUIREMENT: write three files")]
    commands = ["echo 1 > a.txt", "rm -rf .git/agentloop; echo 2 > b.txt", "echo 3 > c.txt"]
    for turn, command in enumerate(commands):
        entries += build_turn(
            analyses=[f"run command {turn}."],
            task_body=simple_task_body(f"Run command {turn}", "run it", "exit status 0"),
            attempts=[([f"run_command({json.dumps(command)})", "DONE: ran"], "pass - ran")],
            summary=f"ran command {turn}.",
            stop="SATISFIED" if turn == len(commands) - 1 else "NOT YET",
        )
    script = write_script(tmp_path / "remove.json", entries)
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(script)]) == 0
    artifacts = tmp_path / "w-artifacts"
    records = load_transcript(artifacts / "transcript.jsonl")
    assert not [r for r in records if r.content.startswith("turn aborted")]
    summaries = _summaries(artifacts)
    assert "[git patch]\n" in summaries[0] and "+++ b/a.txt" in summaries[0]
    # turn 0's snapshot went with the directory: turn 1's patch starts at the base, and says so
    assert "[git patch since the run's base: the previous snapshot was removed]\n" in summaries[1]
    assert "+++ b/a.txt" in summaries[1] and "+++ b/b.txt" in summaries[1]
    assert "[git patch]\n" in summaries[2] and "+++ b/c.txt" in summaries[2] and "b.txt" not in summaries[2]
    _assert_final_patch_reproduces_the_worktree(workdir, artifacts, tmp_path)
    assert not (workdir / ".git" / "agentloop").exists()


def test_run_streams_each_artifact_in_the_bytes_of_its_one_string_form(tmp_path, trivial_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    argv = ["run", "do the thing ✓", "--workdir", str(workdir), "--mock", str(trivial_script),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    transcript = (tmp_path / "out" / "transcript.jsonl").read_text(encoding="utf-8")
    lines = transcript.splitlines()
    assert "✓" in lines[0] and len(lines) > 1
    assert transcript == "\n".join(json.dumps(json.loads(line), ensure_ascii=False) for line in lines) + "\n"
    report = (tmp_path / "out" / "cost_report.json").read_text(encoding="utf-8")
    assert report == json.dumps(json.loads(report), indent=2) + "\n"


def test_run_iteration_cap_exit_code(tmp_path, unsatisfied_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    argv = ["run", "do the thing", "--workdir", str(workdir), "--mock", str(unsatisfied_script),
            "--max-iterations", "1"]
    assert main(argv) == 2


def test_a_run_whose_script_runs_out_ends_at_once(tmp_path, unsatisfied_script, capsys):
    workdir, capped = tmp_path / "w", tmp_path / "capped"
    workdir.mkdir()
    capped.mkdir()
    entries = len(json.loads(unsatisfied_script.read_text()))
    argv = ["run", "go", "--workdir", str(workdir), "--mock", str(unsatisfied_script), "--max-iterations", "6"]
    assert main(argv) == 1  # turn 2's first call finds no entry; no turn goes on without one
    assert f"script exhausted after {entries} completions (brain call)" in capsys.readouterr().err
    # the transcript and cost report are written, and hold what the one scripted turn made
    argv = ["run", "go", "--workdir", str(capped), "--mock", str(unsatisfied_script), "--max-iterations", "1"]
    assert main(argv) == 2
    artifacts, whole = tmp_path / "w-artifacts", tmp_path / "capped-artifacts"
    for name in ("transcript.jsonl", "cost_report.json"):
        assert (artifacts / name).read_bytes() == (whole / name).read_bytes()
    records = load_transcript(artifacts / "transcript.jsonl")
    assert not [r for r in records if r.content.startswith("turn aborted")]
    assert len(json.loads((artifacts / "cost_report.json").read_text())["entries"]) == entries


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


# sha256 of cost_report.json for the add fixture on a fresh workdir, pinned
# from the ledger that built each entry as a frozen dataclass and priced it by
# looking its model up in the pricing table
PINNED_COST_REPORT_SHA256 = "042485317a125ef1f75e79070b8481200a92ee4b5fca207f0f6f985fcfa7050d"


def test_cost_report_is_byte_identical_for_the_add_fixture(add_workdir, tmp_path):
    pricing = tmp_path / "pricing.json"
    pricing.write_text('{"mock-brain": [2.5, 10.0], "mock-hand": [0.15, 0.6]}')
    out = tmp_path / "out"
    assert main(run_argv(add_workdir, FIXTURES / "add_fixture.json", "--pricing", str(pricing),
                         "--out-dir", str(out))) == 0
    assert hashlib.sha256((out / "cost_report.json").read_bytes()).hexdigest() == PINNED_COST_REPORT_SHA256


@pytest.mark.parametrize("rates", ["[NaN, NaN]", "[-1e9, -1e9]", "[1]", "oops"])
def test_run_refuses_a_pricing_table_that_would_switch_the_cap_off(tmp_path, trivial_script, capsys, rates):
    pricing = tmp_path / "pricing.json"
    pricing.write_text(f'{{"mock-brain": {rates}, "mock-hand": [0.0, 0.0]}}')
    argv = ["run", "do the thing", "--workdir", str(tmp_path / "w"), "--mock", str(trivial_script),
            "--pricing", str(pricing), "--max-cost", "0.0001"]
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith(f"config error: bad pricing file {pricing}: ")
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("model_flag", ["--brain-model", "--hand-model"])
def test_run_refuses_a_pricing_table_that_lacks_a_model_of_the_run(tmp_path, trivial_script, capsys, model_flag):
    pricing = tmp_path / "pricing.json"
    pricing.write_text('{"mock-brain": [2.5, 10.0], "mock-hand": [0.2, 0.8]}')
    argv = ["run", "do the thing", "--workdir", str(tmp_path / "w"), "--mock", str(trivial_script),
            "--pricing", str(pricing), model_flag, "gpt-4o", "--max-cost", "0.000001"]
    assert main(argv) == 64
    assert capsys.readouterr().err == "config error: pricing table has no rates for model 'gpt-4o'\n"
    assert not (tmp_path / "w").exists()


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
    ensure_repo(workdir)
    lock = workdir / ".git" / "agentloop.lock"
    holder = os.open(lock, os.O_CREAT | os.O_WRONLY)
    fcntl.flock(holder, fcntl.LOCK_EX)  # another run holds the lock
    argv = ["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]
    try:
        assert main(argv) == 64
    finally:
        os.close(holder)  # the file stays, as a killed holder leaves it
    assert main(argv) == 0
    assert not lock.exists()


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
    index = workdir / ".git" / "agentloop" / "index"
    index_after_snapshot = []

    def snapshot(*args, **kwargs):
        patch = snapshot_patch(*args, **kwargs)
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
    assert not index.parent.exists()
    assert not (workdir / ".git" / "agentloop.lock").exists()
    with pytest.raises(ChildProcessError):  # the run's diff process was reaped
        os.waitpid(-1, os.WNOHANG)
    # the records and charges up to the mismatch are kept; no patch of a run that died
    monkeypatch.undo()
    capped = tmp_path / "capped"  # the same first turn, ended by the iteration cap
    capped.mkdir()
    reference = write_script(tmp_path / "capped.json", entries[:-1])
    argv = ["run", "go", "--workdir", str(capped), "--mock", str(reference), "--max-iterations", "1"]
    assert main(argv) == 2
    artifacts, whole = tmp_path / "w-artifacts", tmp_path / "capped-artifacts"
    for name in ("transcript.jsonl", "cost_report.json"):
        assert (artifacts / name).read_bytes() == (whole / name).read_bytes()
    assert len(json.loads((artifacts / "cost_report.json").read_text())["entries"]) == len(entries) - 1
    assert not (artifacts / "final.patch").exists()


def _writing_run_entries(stop: str = "SATISFIED") -> list[dict]:
    """A one-turn run that writes f.txt, so its summary runs a diff."""
    return [brain_entry("REQUIREMENT: finish the job")] + build_turn(
        analyses=["write a file."],
        task_body=simple_task_body("Write f.txt", "run echo", "the file exists"),
        attempts=[(['run_command("echo x > f.txt")', "DONE: written"], "pass - done")],
        summary="wrote f.txt.",
        stop=stop,
    )


def test_setup_starts_only_ensure_repos_git_processes(tmp_path, monkeypatch):
    # no process may start between cli.main and the first backend call but
    # ensure_repo's five git commands; the run's one diff process starts later
    gits, spawned, popened, at_first_call = [], [], [], []
    real_git, real_spawn = toolkit._git, os.posix_spawn
    monkeypatch.setattr(toolkit, "_git", lambda workdir, *args, **kw: gits.append(args) or real_git(workdir, *args, **kw))
    monkeypatch.setattr(os, "posix_spawn", lambda path, argv, *a, **kw: spawned.append(argv) or real_spawn(path, argv, *a, **kw))

    class Counting(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            popened.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Counting)
    real_complete = ScriptedBackend.complete

    def complete(backend, *args, **kwargs):
        if not at_first_call:
            at_first_call.append((len(gits), len(spawned), len(popened)))
        return real_complete(backend, *args, **kwargs)

    monkeypatch.setattr(ScriptedBackend, "complete", complete)
    handler = signal.getsignal(signal.SIGTERM)
    workdir = tmp_path / "w"
    workdir.mkdir()
    script = write_script(tmp_path / "write.json", _writing_run_entries())
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(script)]) == 0
    assert at_first_call == [(5, 5, 0)]
    assert [git_subcommand(args) for args in gits[:5]] == ["rev-parse", "init", "add", "commit", "rev-parse"]
    assert [argv[3:] for argv in spawned[:5]] == [list(args) for args in gits[:5]]
    differs = [argv for argv in spawned if argv[3:] == ["diff-tree", "--stdin", "-p", "-M"]]
    assert len(differs) == 1
    with pytest.raises(ChildProcessError):  # none is alive, or unreaped, once main returns
        os.waitpid(-1, os.WNOHANG)
    assert signal.getsignal(signal.SIGTERM) == handler


def _processes() -> dict[int, tuple[str, int, int]]:
    """Each process's state, parent and process group, read from /proc."""
    found = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue
            found[int(entry.name)] = (fields[0], int(fields[1]), int(fields[2]))
    return found


def _live(pids) -> list[int]:
    # a zombie awaits only its reaper
    processes = _processes()
    return [pid for pid in pids if pid in processes and processes[pid][0] != "Z"]


def _start_slow_run(tmp_path: Path, workdir: Path) -> tuple[subprocess.Popen, Path]:
    """Start ``agentloop run`` in a child interpreter; return the child and
    the file where its second turn's command, which then waits, writes its
    process group id."""
    started = tmp_path / "started"
    # turn 1's snapshot starts the diff process; turn 2's command waits
    entries = _writing_run_entries(stop="NOT YET") + build_turn(
        analyses=["run the slow command."],
        task_body=simple_task_body("Wait", "run sleep", "exit status 0"),
        attempts=[([f'run_command("echo $$ > {started}; sleep 60; echo late")', "DONE: waited"], "pass - done")],
        summary="waited.",
        stop="SATISFIED",
    )
    script = write_script(tmp_path / "slow.json", entries)
    src = str(Path(toolkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from agentloop.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "run", "go", "--workdir", str(workdir), "--mock", str(script)]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True), started


def _command_group(child: subprocess.Popen, started: Path) -> int:
    """The process group of the slow run's waiting command, once it runs."""
    deadline = time.monotonic() + 30
    while not (started.is_file() and started.read_text().strip()):
        assert child.poll() is None and time.monotonic() < deadline, child.communicate()
        time.sleep(0.02)
    return int(started.read_text())


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads processes from /proc")
def test_sigterm_mid_command_ends_the_run_as_ctrl_c_does(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    child, started = _start_slow_run(tmp_path, workdir)
    group = None
    try:
        group = _command_group(child, started)
        members = [pid for pid, (_, _, pgrp) in _processes().items() if pgrp == group]
        differs = [
            pid for pid, (_, parent, _) in _processes().items()
            if parent == child.pid and b"diff-tree" in Path(f"/proc/{pid}/cmdline").read_bytes()
        ]
        assert _live(members) and len(_live(differs)) == 1
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=30)
        deadline = time.monotonic() + 1
        while _live(members + differs) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _live(members + differs) == []
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        if group is not None:  # a failed run must not leave its command behind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)
    assert child.returncode == 143
    assert "terminated" in err
    assert not (workdir / ".git" / "agentloop.lock").exists()
    assert not (workdir / ".git" / "agentloop").exists()
    transcript = load_transcript(tmp_path / "w-artifacts" / "transcript.jsonl")
    # the first turn passes the grammar; the second was cut in its command,
    # after its analysis and task, and lint_phase_order flags any turn
    # without a summary
    assert lint_phase_order(transcript) == ["turn 1: kind sequence 'at' breaks phase order"]
    assert transcript[-1].kind is MemoryKind.TASK


def test_a_sigkilled_run_does_not_block_the_next(tmp_path, trivial_script):
    workdir = tmp_path / "w"
    workdir.mkdir()
    child, started = _start_slow_run(tmp_path, workdir)
    group = None
    try:
        group = _command_group(child, started)
        child.kill()  # no finally runs: the lock file and the snapshots' directory stay
        child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        if group is not None:  # the command runs in its own session and outlives the run
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)
    assert child.returncode == -signal.SIGKILL
    git_dir = workdir / ".git"
    assert (git_dir / "agentloop.lock").is_file() and (git_dir / "agentloop" / "index").is_file()
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]) == 0
    assert not (git_dir / "agentloop.lock").exists() and not (git_dir / "agentloop").exists()


def test_a_fresh_workdir_is_placed_by_one_git_lookup(tmp_path, trivial_script, monkeypatch):
    workdir = tmp_path / "new" / "w"
    commands = count_git(monkeypatch)
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]) == 0
    assert commands[: commands.index("init")] == ["rev-parse"]  # --show-toplevel, once
    # ensure_repo's five processes write to the repository's store, the snapshot's to the run's own
    assert commands.stores == [MAIN_STORE] * 5 + [PRIVATE_STORE] * (len(commands) - 5)


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_only_a_repository_the_run_did_not_make_gets_a_start_snapshot(tmp_path, trivial_script, monkeypatch, existing):
    workdir = tmp_path / "w"
    if existing:
        _committed_repo(workdir)
    commands = count_git(monkeypatch)
    before_first_call = []
    complete = ScriptedBackend.complete

    def first_call_noted(backend, *args, **kwargs):
        if not before_first_call:
            before_first_call.append(list(commands))
        return complete(backend, *args, **kwargs)

    monkeypatch.setattr(ScriptedBackend, "complete", first_call_noted)
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(trivial_script)]) == 0
    if existing:  # placement and HEAD's tree, then the start snapshot: staging and write-tree, no diff
        assert before_first_call == [["rev-parse", "rev-parse", "add", "write-tree"]]
    else:  # the base commit is the worktree as the run found it: nothing to snapshot
        assert before_first_call == [["rev-parse", "init", "add", "commit", "rev-parse"]]


def test_run_in_the_current_directory_keeps_its_artifacts_outside(tmp_path, trivial_script, monkeypatch):
    workdir = tmp_path / "w"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    for _ in range(2):
        assert main(["run", "go", "--workdir", ".", "--mock", str(trivial_script)]) == 0
        assert [p.name for p in workdir.iterdir()] == [".git"]
        assert (tmp_path / "w-artifacts" / "final.patch").read_bytes() == b""


def test_run_keeps_its_workdir_when_a_symlink_above_it_is_repointed(tmp_path, capsys):
    real, other, link = tmp_path / "real", tmp_path / "other", tmp_path / "link"
    (real / "w").mkdir(parents=True)
    (other / "w").mkdir(parents=True)
    link.symlink_to(real)
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        *build_turn(
            analyses=["re-point the link."],
            task_body=simple_task_body("Re-point the link", "run ln", "exit status 0"),
            attempts=[([f'run_command("ln -sfn {other} {link}")', "DONE: moved"], "pass - done")],
            summary="the link moved.",
            stop="SATISFIED",
        ),
    ]
    script = write_script(tmp_path / "repoint.json", entries)
    assert main(["run", "go", "--workdir", str(link / "w"), "--mock", str(script)]) == 0
    assert "status: solved" in capsys.readouterr().out
    assert link.resolve() == other
    git_dir = real / "w" / ".git"
    assert not (git_dir / "agentloop.lock").exists() and not (git_dir / "agentloop").exists()
    assert not (other / "w" / ".git").exists()
    artifacts = real / "w-artifacts"
    assert sorted(p.name for p in artifacts.iterdir()) == ["cost_report.json", "final.patch", "transcript.jsonl"]


def test_run_survives_an_os_error_from_a_file_edit(tmp_path, capsys, monkeypatch):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "f.txt").write_text("a\n")

    def refuse(*args):
        raise PermissionError(13, "Permission denied")

    # patched rather than chmod: a read-only file does not stop root
    monkeypatch.setattr(toolkit, "_splice", refuse)
    entries = [
        brain_entry("REQUIREMENT: try the edit"),
        *build_turn(
            analyses=["edit f.txt."],
            task_body=simple_task_body("Edit f.txt", "edit line 1", "an answer", domain="file-edit"),
            attempts=[(['edit_file("f.txt", 1, 1, "a", "a", "b")', "DONE: tried"], "pass - reported")],
            summary="the edit was refused.",
            stop="SATISFIED",
        ),
    ]
    script = write_script(tmp_path / "refused.json", entries)
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(script)]) == 0
    assert "status: solved" in capsys.readouterr().out
    transcript = tmp_path / "w-artifacts" / "transcript.jsonl"
    assert lint_transcript(transcript) == []
    assert "cannot edit f.txt: Permission denied" in transcript.read_text()
    assert (tmp_path / "w-artifacts" / "cost_report.json").is_file()


@pytest.mark.parametrize(
    "before, domain, command, shown",
    [
        (b"one\r\ntwo\r\nthree\r\n", "file-edit", 'edit_file("f.txt", 2, 2, "two", "two", "TWO")', "+TWO\r\n"),
        (b"plain\n", "code", 'run_command("cp {source} f.txt")', "+caf\ufffd au lait\n"),
    ],
    ids=["crlf_edit", "not_utf8"],
)
def test_the_final_patch_applied_to_a_fresh_clone_reproduces_the_workdir(
    tmp_path, capsys, before, domain, command, shown
):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "f.txt").write_bytes(before)
    source = tmp_path / "latin1.txt"
    source.write_bytes(b"caf\xe9 au lait\n")
    entries = [
        brain_entry("REQUIREMENT: change f.txt"),
        *build_turn(
            analyses=["change f.txt."],
            task_body=simple_task_body("Change f.txt", "change it", "f.txt changed", domain=domain),
            attempts=[([command.format(source=source), "DONE: changed"], "pass - changed")],
            summary="f.txt changed.",
            stop="SATISFIED",
        ),
    ]
    script = write_script(tmp_path / "change.json", entries)
    assert main(["run", "go", "--workdir", str(workdir), "--mock", str(script)]) == 0
    assert "status: solved" in capsys.readouterr().out
    artifacts = tmp_path / "w-artifacts"
    assert lint_transcript(artifacts / "transcript.jsonl") == []
    summaries = [r.content for r in load_transcript(artifacts / "transcript.jsonl") if r.kind is MemoryKind.SUMMARY]
    assert shown in summaries[0]
    fresh = tmp_path / "fresh"
    subprocess.run(["git", "clone", "-q", str(workdir), str(fresh)], check=True)
    subprocess.run(["git", "-C", str(fresh), "apply", str(artifacts / "final.patch")], check=True)
    assert (fresh / "f.txt").read_bytes() == (workdir / "f.txt").read_bytes() != before


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


def test_edit_resolves_the_default_workdir(edit_setup, monkeypatch):
    workdir, content = edit_setup
    monkeypatch.chdir(workdir)  # --workdir defaults to "."
    assert main(["edit", "f.txt", "2", "2", "beta", "beta", str(content)]) == 0
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


def test_edit_content_file_that_is_not_utf8_is_a_data_error(edit_setup, capsys):
    workdir, content = edit_setup
    content.write_bytes(b"\xff\n")
    argv = ["edit", "f.txt", "2", "2", "beta", "beta", str(content), "--workdir", str(workdir)]
    assert main(argv) == 65
    assert capsys.readouterr().err.strip() == f"cannot read {content}: not UTF-8 text"
    assert (workdir / "f.txt").read_text() == "alpha\nbeta\ngamma\n"


def _refuse_the_edit(*args):
    raise PermissionError(13, "Permission denied")


@pytest.mark.parametrize(
    "data, edit, code, message",
    [
        (b"a\n\xff\n", None, 65, "cannot edit f.txt: not UTF-8 text"),
        # patched rather than chmod: a read-only file does not stop root
        (b"alpha\nbeta\n", _refuse_the_edit, 74, "cannot edit f.txt: Permission denied"),
    ],
    ids=["not-utf8", "os-error"],
)
def test_edit_reports_a_file_it_cannot_edit(edit_setup, capsys, monkeypatch, data, edit, code, message):
    workdir, content = edit_setup
    (workdir / "f.txt").write_bytes(data)
    if edit is not None:
        monkeypatch.setattr(cli, "edit_file", edit)
    argv = ["edit", "f.txt", "1", "1", "a", "a", str(content), "--workdir", str(workdir)]
    assert main(argv) == code
    assert capsys.readouterr().err.strip() == message
    assert (workdir / "f.txt").read_bytes() == data


# --- analyze-cost ---

def test_analyze_cost_sampled_defaults(capsys):
    assert main(["analyze-cost", "--sampled-defaults"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reference_claim"] == {"input_saving": 0.7981, "output_saving": 0.8306}
    assert report["simulator"]["input_saving"] > 0.70
    assert report["simulator"]["output_saving"] > 0.70
    assert report["params"]["n"] == 2.53


def test_analyze_cost_sampled_defaults_output_is_pinned(capsys):
    assert main(["analyze-cost", "--sampled-defaults"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == 1602
    assert hashlib.sha256(out).hexdigest() == "b1b42649276e6147d051e93a24432b06a94abddb91322abcb58e59412670d3ad"


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
