"""Turn-loop behavior: the scripted end-to-end run, caps, budget, retries,
voting, task reprompts, and transcript ordering."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
from pathlib import Path

import pytest

from agentloop.backends import ScriptSource, ScriptedBackend, load_script
from agentloop.errors import BackendFailure, EmptyRequest, TaskFormatError
from agentloop.memory import MemoryKind, export_transcript, lint_phase_order
from agentloop.orchestrator import (
    Orchestrator,
    RunConfig,
    RunStatus,
    VOTE_TEMPERATURE,
    evaluation_verdict,
    parse_task_text,
)
from agentloop.toolkit import apply_patch, ensure_repo

from conftest import (
    FIXTURES,
    PromptRecorder,
    brain_entry,
    build_turn,
    hand_entry,
    simple_task_body,
    trivial_run_entries,
)

ADD_REQUEST = "Create add.py so that `python3 test_add.py` exits with status 0."


def make_orchestrator(entries, workdir, config=None, pricing=None, prompts=None):
    source = ScriptSource(list(entries))
    shared = {} if prompts is None else {"prompts": prompts}
    brain = PromptRecorder(source, role="brain", model="mock-brain", **shared)
    hand = PromptRecorder(source, role="hand", model="mock-hand", **shared)
    orch = Orchestrator(config or RunConfig(), brain, hand, workdir=workdir, pricing=pricing)
    return orch, brain, hand


# --- small parsers ---

def test_parse_task_text_full():
    parsed = parse_task_text(
        "OBJECTIVE: fix it\nSTEPS:\n- step one\n- step two\nEXPECTED: green\nDOMAIN: code"
    )
    assert parsed == {
        "objective": "fix it",
        "steps": ["step one", "step two"],
        "expected_outcome": "green",
        "tool_domain": "code",
    }


def test_parse_task_text_missing_expected():
    assert parse_task_text("OBJECTIVE: fix it\nSTEPS:\n- one") is None


def test_evaluation_verdicts():
    assert evaluation_verdict("pass - looks right")
    assert not evaluation_verdict("fail - wrong file")
    assert not evaluation_verdict("inconclusive mumbling")
    assert not evaluation_verdict("")


# --- the scripted end-to-end fixture ---

@pytest.fixture
def add_run(add_workdir):
    source = load_script(FIXTURES / "add_fixture.json")
    brain = PromptRecorder(source, role="brain", model="mock-brain")
    hand = PromptRecorder(source, role="hand", model="mock-hand")
    orch = Orchestrator(RunConfig(), brain, hand, workdir=add_workdir)
    outcome = orch.run(ADD_REQUEST)
    return orch, outcome, add_workdir


def test_add_fixture_solves_in_two_turns(add_run):
    _, outcome, _ = add_run
    assert outcome.status is RunStatus.SOLVED
    assert outcome.turns_used == 2
    assert outcome.exit_code == 0


def test_add_fixture_patch_applies_to_fresh_checkout(add_run, tmp_path):
    _, outcome, workdir = add_run
    assert "+++ b/add.py" in outcome.final_patch.text
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "test_add.py").write_text((workdir / "test_add.py").read_text())
    ensure_repo(fresh)
    apply_patch(outcome.final_patch, fresh)
    result = subprocess.run(
        ["python3", "test_add.py"], cwd=fresh, capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "ok" in result.stdout


def test_add_fixture_transcript_lints_clean(add_run):
    orch, _, _ = add_run
    assert lint_phase_order(orch.store.records) == []


def test_add_fixture_requirement_in_every_later_brain_prompt(add_run):
    orch, _, _ = add_run
    brain = orch.brain
    requirement = orch.requirement
    assert requirement.startswith("the command")
    assert len(brain.prompts) >= 9
    for prompt in brain.prompts[1:]:  # the extraction call itself precedes it
        assert requirement in prompt


def test_add_fixture_summary_embeds_patch(add_run):
    orch, _, _ = add_run
    summaries = [r for r in orch.store.records if r.kind is MemoryKind.SUMMARY]
    assert len(summaries) == 2
    assert "[git patch]" in summaries[0].content
    assert "+++ b/add.py" in summaries[0].content


def test_add_fixture_deterministic_transcripts(tmp_path):
    transcripts = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        (workdir / "test_add.py").write_text(
            "from add import add\n\nassert add(2, 3) == 5\nprint(\"ok\")\n"
        )
        source = load_script(FIXTURES / "add_fixture.json")
        brain = ScriptedBackend(source, role="brain", model="mock-brain")
        hand = ScriptedBackend(source, role="hand", model="mock-hand")
        outcome = Orchestrator(RunConfig(), brain, hand, workdir=workdir).run(ADD_REQUEST)
        path = tmp_path / f"{name}.jsonl"
        export_transcript(outcome.store, path)
        transcripts.append(path.read_bytes())
    assert transcripts[0] == transcripts[1]


# --- caps and budget ---

def test_iteration_cap(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = trivial_run_entries(stop="NOT YET")
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(max_iterations=1))
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.ITERATION_CAP
    assert outcome.turns_used == 1
    assert outcome.exit_code == 2


def test_budget_exhausted_in_first_turn(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    pricing = {"mock-brain": (0.0, 200000.0), "mock-hand": (0.0, 200000.0)}
    orch, _, _ = make_orchestrator(
        trivial_run_entries(), workdir, RunConfig(max_cost=10.0), pricing=pricing
    )
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.BUDGET_EXHAUSTED
    assert outcome.turns_used == 1
    assert outcome.exit_code == 3
    # overshoot is bounded by the one call that crossed the cap
    last_cost = orch.ledger.entries[-1].cost
    assert outcome.cost <= 10.0 + last_cost


def test_hand_call_refused_when_its_prompt_alone_crosses_the_cap(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    # brain calls are free; one hand prompt token costs $1, so any hand prompt is over $10
    pricing = {"mock-brain": (0.0, 0.0), "mock-hand": (1e6, 0.0)}
    entries = trivial_run_entries()
    first_hand = next(i for i, e in enumerate(entries) if e["role"] == "hand")
    orch, _, hand = make_orchestrator(entries, workdir, RunConfig(max_cost=10.0), pricing=pricing)
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.BUDGET_EXHAUSTED
    assert [e.role for e in orch.ledger.entries] == ["brain"] * first_hand
    assert hand.prompts == []  # the backend was never called
    assert hand.source.index == first_hand


def test_budget_cost_monotone_nondecreasing(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    pricing = {"mock-brain": (1.0, 2.0), "mock-hand": (1.0, 2.0)}
    orch, _, _ = make_orchestrator(trivial_run_entries(), workdir, pricing=pricing)
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.SOLVED
    running = 0.0
    for entry in orch.ledger.entries:
        assert entry.cost >= 0
        running += entry.cost
    assert running == pytest.approx(outcome.cost)


# --- retries ---

def retry_entries(verdicts: list[str]) -> list[dict]:
    attempts = [(['run_command("true")', "DONE: ran"], v) for v in verdicts]
    return [
        brain_entry("REQUIREMENT: finish the job"),
        *build_turn(
            analyses=["inspect; then schedule."],
            task_body=simple_task_body("Run a no-op", "run true", "exit status 0"),
            attempts=attempts,
            summary="attempted the command.",
            stop="NOT YET",
        ),
    ]


def test_all_failures_stop_at_the_limit(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = retry_entries(["fail - nope", "fail - again", "fail - still wrong"])
    config = RunConfig(max_iterations=1, self_correction_limit=3)
    orch, _, hand = make_orchestrator(entries, workdir, config)
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.ITERATION_CAP
    evaluations = [r for r in orch.store.records if r.kind is MemoryKind.EVALUATION]
    assert len(evaluations) == 3  # exactly the limit, then the turn summarizes
    assert lint_phase_order(orch.store.records) == []


def test_retry_stops_on_pass(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = retry_entries(["fail - not yet", "pass - good"])
    config = RunConfig(max_iterations=1, self_correction_limit=3)
    orch, _, hand = make_orchestrator(entries, workdir, config)
    orch.run("do the thing")
    evaluations = [r for r in orch.store.records if r.kind is MemoryKind.EVALUATION]
    assert len(evaluations) == 2
    # the critique from the failed attempt reaches the next hand prompt
    assert any("fail - not yet" in p for p in hand.prompts)


def test_retry_count_never_exceeds_bound(tmp_path):
    for limit in (0, 1, 2, 3):
        workdir = tmp_path / f"w{limit}"
        workdir.mkdir()
        entries = retry_entries(["fail - no"] * max(1, limit))
        config = RunConfig(max_iterations=1, self_correction_limit=limit)
        orch, _, _ = make_orchestrator(entries, workdir, config)
        orch.run("do the thing")
        evaluations = [r for r in orch.store.records if r.kind is MemoryKind.EVALUATION]
        assert len(evaluations) <= 1 + limit


# --- task formatting ---

def test_task_reprompt_then_success(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        brain_entry("ANALYSIS: ready.\nNEXT: task"),
        brain_entry("TASK:\nOBJECTIVE: Run a no-op\nSTEPS:\n- run true"),  # missing EXPECTED
        brain_entry(
            "TASK:\n" + simple_task_body("Run a no-op", "run true", "exit status 0"),
            expect="malformed",
        ),
        hand_entry('run_command("true")'),
        hand_entry("DONE: ran"),
        brain_entry("EVALUATION: pass - done"),
        brain_entry("SUMMARY: ran it."),
        brain_entry("SATISFIED"),
    ]
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(self_correction_limit=1))
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.SOLVED


def test_wrong_kind_marker_becomes_observation_note(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        brain_entry("TASK: jumped straight to a task"),  # expected an analysis
    ]
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(max_iterations=1))
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.ITERATION_CAP
    notes = [r for r in orch.store.records if r.kind is MemoryKind.OBSERVATION]
    assert any("turn aborted" in r.content for r in notes)


def test_task_format_error_becomes_observation_note(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        brain_entry("ANALYSIS: ready.\nNEXT: task"),
        brain_entry("TASK:\nOBJECTIVE: half a task"),
        brain_entry("TASK:\nstill not a task"),
    ]
    config = RunConfig(max_iterations=1, self_correction_limit=1)
    orch, _, _ = make_orchestrator(entries, workdir, config)
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.ITERATION_CAP
    notes = [r for r in orch.store.records if r.kind is MemoryKind.OBSERVATION]
    assert any("turn aborted" in r.content for r in notes)


# --- voting ---

def voting_orchestrator(completions, tmp_path, rounds):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [brain_entry(c) for c in completions]
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(voting_rounds=rounds))
    return orch


def test_voting_majority(tmp_path):
    orch = voting_orchestrator(
        ["ANALYSIS: option a", "ANALYSIS: option b", "ANALYSIS: option a"], tmp_path, 3
    )
    record, _ = orch.reason_step()
    assert record.content == "option a\n[vote 2/3]"


def test_voting_tie_breaks_to_lowest_index(tmp_path):
    orch = voting_orchestrator(["ANALYSIS: alpha", "ANALYSIS: beta"], tmp_path, 2)
    record, _ = orch.reason_step()
    assert record.content == "alpha\n[vote 1/2]"


def test_voting_normalizes_whitespace_and_case(tmp_path):
    orch = voting_orchestrator(["ANALYSIS: Fix  The Bug ", "analysis: fix the bug"], tmp_path, 2)
    record, _ = orch.reason_step()
    # both normalize equal; the winner keeps sample 0's original text
    assert record.content.startswith("Fix  The Bug")
    assert record.content.endswith("[vote 2/2]")


def test_voting_carries_next_directive(tmp_path):
    orch = voting_orchestrator(
        ["ANALYSIS: go\nNEXT: task", "ANALYSIS: go\nNEXT: task"], tmp_path, 2
    )
    record, directive = orch.reason_step()
    assert directive == "task"
    assert "NEXT" not in record.content


class RecordingBackend(ScriptedBackend):
    """Scripted backend that logs each call's completion and temperature."""

    def __init__(self, source, role, log):
        super().__init__(source, role=role, model=f"mock-{role}")
        self.log = log

    def complete(self, messages, temperature=0.0, max_tokens=None):
        response = super().complete(messages, temperature, max_tokens)
        self.log.append((response.text, temperature))
        return response


def test_voting_samples_warm_and_every_other_call_greedy(tmp_path):
    for rounds in (1, 3):
        workdir = tmp_path / f"w{rounds}"
        workdir.mkdir()
        base = trivial_run_entries()
        entries = base[:1] + base[1:2] * rounds + base[2:]  # one analysis entry per sample
        log: list[tuple[str, float]] = []
        source = ScriptSource(list(entries))
        brain, hand = (RecordingBackend(source, role, log) for role in ("brain", "hand"))
        config = RunConfig(voting_rounds=rounds)
        outcome = Orchestrator(config, brain, hand, workdir=workdir).run("do the thing")
        assert outcome.status is RunStatus.SOLVED
        assert len(log) == len(entries)
        analyses = [t for text, t in log if text.startswith("ANALYSIS:")]
        assert analyses == [VOTE_TEMPERATURE if rounds > 1 else 0.0] * rounds
        assert {t for text, t in log if not text.startswith("ANALYSIS:")} == {0.0}


def test_voting_skips_a_failed_sample(tmp_path):
    orch = voting_orchestrator(["ANALYSIS: a", "ANALYSIS: b", "ANALYSIS: a"], tmp_path, 3)
    orch.brain.source.entries[1]["fail"] = True
    record, _ = orch.reason_step()
    assert record.content == "a\n[vote 2/2]"


def test_voting_raises_the_last_failure_when_every_sample_fails(tmp_path):
    orch = voting_orchestrator(["ANALYSIS: a", "ANALYSIS: b"], tmp_path, 2)
    for entry in orch.brain.source.entries:
        entry["fail"] = True
    with pytest.raises(BackendFailure, match="scripted failure at entry 1$"):
        orch.reason_step()


def test_single_sample_failure_aborts_the_turn_with_its_message(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        {"role": "brain", "completion": "ANALYSIS: never read", "fail": True},
    ]
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(max_iterations=1))
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.ITERATION_CAP
    notes = [r.content for r in orch.store.records if r.kind is MemoryKind.OBSERVATION]
    assert notes == ["turn aborted: scripted failure at entry 1"]


# --- stop check and misc ---

def test_check_stop_verdicts(tmp_path):
    for completion, expected in [("SATISFIED", True), ("NOT YET", False), ("hmm?", False),
                                 ("STOP: SATISFIED", True)]:
        workdir = tmp_path / f"w{expected}{completion[:3]}"
        workdir.mkdir(exist_ok=True)
        orch, _, _ = make_orchestrator([brain_entry(completion)], workdir)
        assert orch.check_stop() is expected


def test_empty_request_rejected(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    orch, _, _ = make_orchestrator([], workdir)
    with pytest.raises(EmptyRequest):
        orch.run("   ")


def test_summary_patch_section_empty_without_changes(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    orch, _, _ = make_orchestrator(trivial_run_entries(), workdir)
    orch.run("do the thing")
    summary = [r for r in orch.store.records if r.kind is MemoryKind.SUMMARY][0]
    assert summary.content.rstrip().endswith("[git patch]")


def test_memory_retrieval_off_floods_brain_context(tmp_path):
    prompts = {}
    for retrieval in (True, False):
        workdir = tmp_path / f"w{retrieval}"
        workdir.mkdir()
        config = RunConfig(memory_retrieval=retrieval)
        orch, brain, _ = make_orchestrator(trivial_run_entries(), workdir, config)
        orch.run("do the thing")
        prompts[retrieval] = brain.prompts
    # the summary-step prompt is the second-to-last brain call of the turn
    assert "OBSERVATION:" not in prompts[True][-2]
    assert "OBSERVATION:" in prompts[False][-2]


def retry_per_turn_entries(turns: int) -> list[dict]:
    """Turn i drafts mod<i>.py, fails evaluation, then writes and reads it back."""
    entries = [brain_entry("REQUIREMENT: one module per turn")]
    for i in range(1, turns + 1):
        entries += build_turn(
            analyses=[f"look at turn {i}.", f"then write module {i}."],
            task_body=simple_task_body(f"Write mod{i}.py", "run echo", "the file exists"),
            attempts=[
                ([f'run_command("echo draft > mod{i}.py")', "DONE: drafted"], "fail - not final"),
                ([f'run_command("echo value = {i} > mod{i}.py")', f'run_command("cat mod{i}.py")',
                  "DONE: written"], "pass - ok"),
            ],
            summary=f"wrote mod{i}.py.",
            stop="SATISFIED" if i == turns else "NOT YET",
        )
    return entries


# sha256 over every prompt of the four runs below, pinned from the engine that
# filtered the whole store per call: views kept on append must not change a byte
PINNED_PROMPTS_SHA256 = "91504ed7caa43c10e99e2028672b013383c9c9493707e8bb2765f809141f456c"


def test_prompts_byte_identical_across_retrieval_and_dispatch_modes(tmp_path):
    prompts: list[str] = []
    for retrieval in (True, False):
        for mode in ("hierarchical", "flat"):
            workdir = tmp_path / f"w-{retrieval}-{mode}"
            workdir.mkdir()
            config = RunConfig(memory_retrieval=retrieval, dispatch_mode=mode)
            orch, _, _ = make_orchestrator(retry_per_turn_entries(3), workdir, config, prompts=prompts)
            assert orch.run("write three modules").status is RunStatus.SOLVED
    assert len(prompts) == 148
    assert any("value = 2" in p and "fail - not final" in p for p in prompts)
    digest = hashlib.sha256("\x00".join(prompts).encode("utf-8")).hexdigest()
    assert digest == PINNED_PROMPTS_SHA256


def test_dispatch_default_warns(tmp_path, caplog):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = [
        brain_entry("REQUIREMENT: finish the job"),
        brain_entry("ANALYSIS: ready.\nNEXT: task"),
        brain_entry("TASK:\nOBJECTIVE: Make it happen\nSTEPS:\n- do the thing\nEXPECTED: done"),
        hand_entry('run_command("true")'),
        hand_entry("DONE: ran"),
        brain_entry("EVALUATION: pass - done"),
        brain_entry("SUMMARY: ran it."),
        brain_entry("SATISFIED"),
    ]
    orch, _, _ = make_orchestrator(entries, workdir)
    with caplog.at_level("WARNING"):
        outcome = orch.run("make it happen please")
    assert outcome.status is RunStatus.SOLVED
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1  # dispatch_task warns once; the turn does not classify again
    assert "turn 0" in warnings[0] and "defaulted" in warnings[0]


def two_turn_entries() -> list[dict]:
    first = trivial_run_entries(stop="NOT YET")
    second = trivial_run_entries(stop="SATISFIED")[1:]  # drop the requirement entry
    return first + second


def test_budget_per_iteration_resets_each_turn(tmp_path):
    pricing = {"mock-brain": (1000.0, 1000.0), "mock-hand": (1000.0, 1000.0)}

    # measure per-turn costs with an effectively unlimited cap
    workdir = tmp_path / "probe"
    workdir.mkdir()
    orch, _, _ = make_orchestrator(
        two_turn_entries(), workdir, RunConfig(max_cost=1e9), pricing=pricing
    )
    outcome = orch.run("do the thing")
    assert outcome.status is RunStatus.SOLVED
    entries = orch.ledger.entries
    assert len(entries) == 15  # extraction + 7 calls per turn
    extraction = entries[0].cost
    turn_costs = [sum(e.cost for e in entries[1:8]), sum(e.cost for e in entries[8:15])]
    cap = max(turn_costs) * 1.5
    assert cap < extraction + sum(turn_costs)

    # per-iteration budgeting: each turn fits under the cap, so the run solves
    workdir = tmp_path / "periter"
    workdir.mkdir()
    config = RunConfig(max_cost=cap, budget_per_iteration=True)
    orch, _, _ = make_orchestrator(two_turn_entries(), workdir, config, pricing=pricing)
    assert orch.run("do the thing").status is RunStatus.SOLVED

    # run-level budgeting with the same cap trips partway through
    workdir = tmp_path / "run-level"
    workdir.mkdir()
    config = RunConfig(max_cost=cap, budget_per_iteration=False)
    orch, _, _ = make_orchestrator(two_turn_entries(), workdir, config, pricing=pricing)
    assert orch.run("do the thing").status is RunStatus.BUDGET_EXHAUSTED


# --- git snapshots ---

def _git(workdir: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(workdir), *args], capture_output=True, text=True, check=True
    ).stdout


def one_file_per_turn_entries(turns: int) -> list[dict]:
    """Turn i writes mod<i>.py; the last turn's stop check succeeds."""
    entries = [brain_entry("REQUIREMENT: one module per turn")]
    for i in range(1, turns + 1):
        entries += build_turn(
            analyses=[f"write module {i}."],
            task_body=simple_task_body(f"Write mod{i}.py", "run echo", "the file exists"),
            attempts=[([f'run_command("echo value = {i} > mod{i}.py")', "DONE: written"], "pass - ok")],
            summary=f"wrote mod{i}.py.",
            stop="SATISFIED" if i == turns else "NOT YET",
        )
    return entries


def test_summary_patch_holds_only_its_turns_changes(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    orch, _, _ = make_orchestrator(one_file_per_turn_entries(3), workdir)
    outcome = orch.run("write three modules")
    assert outcome.status is RunStatus.SOLVED
    summaries = [r.content for r in orch.store.records if r.kind is MemoryKind.SUMMARY]
    assert len(summaries) == 3
    for turn, content in enumerate(summaries, 1):
        named = {i for i in (1, 2, 3) if f"+++ b/mod{i}.py" in content}
        assert named == {turn}, f"summary {turn} names modules {sorted(named)}"
    # the final patch is cumulative from the base revision
    assert all(f"+++ b/mod{i}.py" in outcome.final_patch.text for i in (1, 2, 3))


def test_final_patch_holds_the_edits_of_a_turn_that_died_before_its_summary(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    entries = one_file_per_turn_entries(2)[:-1]  # turn 2 never reaches its stop check
    entries[-1]["fail"] = True  # turn 2's summary call fails after mod2.py is written
    orch, _, _ = make_orchestrator(entries, workdir, RunConfig(max_iterations=2))
    outcome = orch.run("write two modules")
    assert outcome.status is RunStatus.ITERATION_CAP
    notes = [r.content for r in orch.store.records if r.kind is MemoryKind.OBSERVATION]
    assert notes[-1].startswith("turn aborted: scripted failure")
    summaries = [r.content for r in orch.store.records if r.kind is MemoryKind.SUMMARY]
    assert len(summaries) == 1 and "mod2.py" not in summaries[0]
    assert all(f"+++ b/mod{i}.py" in outcome.final_patch.text for i in (1, 2))


def test_run_keeps_staged_changes_and_head(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    (workdir / "tracked.txt").write_text("one\n")
    ensure_repo(workdir)
    (workdir / "tracked.txt").write_text("two\n")
    (workdir / "staged_new.txt").write_text("new\n")
    _git(workdir, "add", "tracked.txt", "staged_new.txt")
    head, staged = _git(workdir, "rev-parse", "HEAD"), _git(workdir, "ls-files", "--stage")

    orch, _, _ = make_orchestrator(one_file_per_turn_entries(1), workdir)
    outcome = orch.run("write a module")

    assert outcome.status is RunStatus.SOLVED
    assert "+++ b/mod1.py" in outcome.final_patch.text
    assert _git(workdir, "rev-parse", "HEAD") == head
    assert _git(workdir, "ls-files", "--stage") == staged
    assert _git(workdir, "diff", "--cached", "--name-only").split() == ["staged_new.txt", "tracked.txt"]
    assert not (workdir / ".git" / "agentloop-index").exists()
