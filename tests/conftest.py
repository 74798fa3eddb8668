"""Shared fixture helpers: scripted-run builders, a prompt-recording backend,
and the add.py workdir."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from agentloop import toolkit
from agentloop.accounting import count_tokens
from agentloop.backends import ScriptedBackend

FIXTURES = Path(__file__).parent / "fixtures"

TEST_ADD_PY = "from add import add\n\nassert add(2, 3) == 5\nprint(\"ok\")\n"


@dataclass
class PromptRecorder(ScriptedBackend):
    """ScriptedBackend that keeps each prompt it is sent, its messages joined
    the way the script sees them. Backends may share one ``prompts`` list."""

    prompts: list[str] = field(default_factory=list)

    def complete(self, messages, temperature=0.0):
        self.prompts.append("\n".join(content for _role, content in messages))
        return super().complete(messages, temperature)


def record_count_tokens(monkeypatch, *modules) -> list[str]:
    """Record every text the modules' count_tokens is given from now on."""
    counted: list[str] = []

    def recording(text: str) -> int:
        counted.append(text)
        return count_tokens(text)

    for module in modules:
        monkeypatch.setattr(module, "count_tokens", recording)
    return counted


def git_subcommand(args) -> str:
    """The subcommand of git's arguments (after ``-C <dir>``)."""
    first = 0
    while args[first] == "-c":  # skip "-c name=value" options
        first += 2
    return args[first]


MAIN_STORE = ".git/objects"  # the repository's own object directory
PRIVATE_STORE = ".git/agentloop/objects"  # the one a run's snapshots write to


class GitLog(list):
    """The subcommands of the git processes started, in order. ``stores``
    holds, for each process, the object directory it writes to, relative to
    its workdir: ``MAIN_STORE`` unless ``GIT_OBJECT_DIRECTORY`` names another."""

    def __init__(self) -> None:
        super().__init__()
        self.stores: list[str] = []


def count_git(monkeypatch) -> GitLog:
    """Record every git process the toolkit starts from now on, the run-long
    ``diff-tree`` of a ``Snapshots`` included."""
    commands = GitLog()
    real_spawn = toolkit._spawn_git

    def counting(workdir, args, env=None, stdin=-1):
        commands.append(git_subcommand(args))
        objects = (env or {}).get(b"GIT_OBJECT_DIRECTORY")
        commands.stores.append(MAIN_STORE if objects is None else os.path.relpath(os.fsdecode(objects), workdir))
        return real_spawn(workdir, args, env, stdin)

    monkeypatch.setattr(toolkit, "_spawn_git", counting)
    return commands


def brain_entry(completion: str, expect: str | None = None) -> dict:
    entry = {"role": "brain", "completion": completion}
    if expect is not None:
        entry["expect_substring"] = expect
    return entry


def hand_entry(completion: str, expect: str | None = None) -> dict:
    entry = {"role": "hand", "completion": completion}
    if expect is not None:
        entry["expect_substring"] = expect
    return entry


def build_turn(
    analyses: list[str],
    task_body: str,
    attempts: list[tuple[list[str], str]],
    summary: str,
    stop: str,
) -> list[dict]:
    """Script entries for one full turn.

    attempts: per execution attempt, the hand completions and the evaluation
    verdict line ('pass - ...' or 'fail - ...').
    """
    entries: list[dict] = []
    for i, analysis in enumerate(analyses):
        marker = "\nNEXT: task" if i == len(analyses) - 1 else ""
        entries.append(brain_entry(f"ANALYSIS: {analysis}{marker}"))
    entries.append(brain_entry("TASK:\n" + task_body))
    for hand_completions, verdict in attempts:
        entries.extend(hand_entry(c) for c in hand_completions)
        entries.append(brain_entry(f"EVALUATION: {verdict}"))
    entries.append(brain_entry(f"SUMMARY: {summary}"))
    entries.append(brain_entry(stop))
    return entries


def simple_task_body(objective: str, step: str, expected: str, domain: str = "code") -> str:
    return f"OBJECTIVE: {objective}\nSTEPS:\n- {step}\nEXPECTED: {expected}\nDOMAIN: {domain}"


def write_script(path: Path, entries: list[dict]) -> Path:
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def add_workdir(tmp_path: Path) -> Path:
    """A work directory seeded with the unit test the run must satisfy."""
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    (workdir / "test_add.py").write_text(TEST_ADD_PY, encoding="utf-8")
    return workdir


def trivial_run_entries(stop: str = "SATISFIED", verdict: str = "pass - done") -> list[dict]:
    """A minimal one-turn run: no file changes, one no-op command."""
    return [
        brain_entry("REQUIREMENT: finish the job"),
        *build_turn(
            analyses=["nothing to inspect; schedule the command."],
            task_body=simple_task_body("Run a no-op", "run true", "exit status 0"),
            attempts=[([
                'run_command("true")',
                "DONE: ran",
            ], verdict)],
            summary="ran a no-op command.",
            stop=stop,
        ),
    ]
