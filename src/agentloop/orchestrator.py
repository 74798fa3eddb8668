"""The autonomous turn loop: analyze, schedule a task, delegate execution,
evaluate with bounded retries, summarize with a git patch, and check whether
the mandatory requirement is satisfied — under iteration and cost caps.

Component failures inside a turn never kill the run; they are recorded as
observation notes and the loop moves on, so termination is guaranteed by the
iteration cap alone.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .accounting import UsageLedger, count_tokens
from .agents import (
    ExecutionReport,
    TaskSpec,
    default_registry,
    dispatch_task,
    hand_execute,
    render_prompt,
)
from .backends import BackendResponse, Messages
from .errors import (
    AgentLoopError,
    BackendFailure,
    BudgetExceeded,
    ConfigError,
    EmptyRequest,
    FixtureMismatch,
    TaskFormatError,
)
from .memory import MemoryKind, MemoryRecord, MemoryStore, Phase, parse_response
from .toolkit import GitPatch, Sandbox, Snapshots, ensure_repo, snapshot_patch

logger = logging.getLogger(__name__)


class RunStatus(str, Enum):
    SOLVED = "solved"
    BUDGET_EXHAUSTED = "budget-exhausted"
    ITERATION_CAP = "iteration-cap"


EXIT_CODES = {
    RunStatus.SOLVED: 0,
    RunStatus.ITERATION_CAP: 2,
    RunStatus.BUDGET_EXHAUSTED: 3,
}


DISPATCH_MODES = ("hierarchical", "flat")


@dataclass
class RunConfig:
    """Loop limits and mode switches, and the only place their defaults live.
    Defaults mirror the reference setup: 100 iterations, 3 self-corrections,
    120 s sandbox timeout, $10 cap. Each field is the dest of one `run` flag;
    the CLI reports a ValueError from here as a usage error (exit 64)."""

    max_iterations: int = 100
    self_correction_limit: int = 3
    sandbox_timeout: float = 120.0
    max_cost: float = 10.0
    voting_rounds: int = 1
    dispatch_mode: str = "hierarchical"  # one of DISPATCH_MODES
    memory_retrieval: bool = True
    budget_per_iteration: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.max_cost > 0:  # NaN fails too; inf is "no cap"
            raise ValueError("max_cost must be positive")
        if not 0 < self.sandbox_timeout < math.inf:
            raise ValueError("sandbox_timeout must be positive and finite")
        if self.voting_rounds < 1:
            raise ValueError("voting_rounds must be >= 1")
        if self.self_correction_limit < 0:
            raise ValueError("self_correction_limit must be >= 0")
        if self.dispatch_mode not in DISPATCH_MODES:
            raise ValueError(f"unknown dispatch_mode {self.dispatch_mode!r}")


@dataclass
class RunOutcome:
    status: RunStatus
    turns_used: int
    final_patch: GitPatch


_NEXT_DIRECTIVE = re.compile(r"^\s*NEXT:\s*(task|analysis)\s*$", re.IGNORECASE | re.MULTILINE)
_TASK_SECTION = re.compile(
    r"OBJECTIVE:\s*(?P<objective>.*?)\s*STEPS:\s*(?P<steps>.*?)\s*EXPECTED:\s*(?P<expected>.*?)\s*(?:DOMAIN:\s*(?P<domain>\S+)\s*)?$",
    re.DOTALL,
)

# Voting samples are drawn warm: at 0.0 a real backend returns N identical
# samples and voting only multiplies the cost.
VOTE_TEMPERATURE = 0.7

MAX_ANALYSES_PER_TURN = 10  # a turn schedules its task after this many steps without NEXT: task

_ANALYSIS_INSTRUCTION = (
    "Return exactly one step of analysis as 'ANALYSIS: <one step>'. "
    "Add a line 'NEXT: task' when ready to schedule a task."
)

_TASK_FORMAT_REMINDER = (
    "Respond with a TASK block:\n"
    "TASK:\nOBJECTIVE: <goal>\nSTEPS:\n- <step>\nEXPECTED: <expected outcome>\n"
    "DOMAIN: <tool domain> (optional)"
)


def parse_task_text(payload: str) -> dict | None:
    """Parse OBJECTIVE/STEPS/EXPECTED(/DOMAIN) sections; None if malformed."""
    match = _TASK_SECTION.search(payload)
    if not match:
        return None
    objective = match.group("objective").strip()
    expected = match.group("expected").strip()
    steps = [
        line.strip().lstrip("-").strip()
        for line in match.group("steps").splitlines()
        if line.strip()
    ]
    if not objective or not expected or not steps:
        return None
    return {
        "objective": objective,
        "steps": steps,
        "expected_outcome": expected,
        "tool_domain": (match.group("domain") or "").strip(),
    }


def split_directive(answer: str) -> tuple[str, str | None]:
    """The answer without its NEXT: lines, stripped, and the first line's
    directive in lower case (None without one). An answer whose lower-case
    form lacks "next:" has no such line, since no other character matches
    those five without regard to case; otherwise one search finds the first
    line. It is almost always the answer's last, and then a slice drops it;
    ``_NEXT_DIRECTIVE.sub`` runs only when text follows it."""
    if "next:" not in answer.lower():
        return answer.strip(), None
    match = _NEXT_DIRECTIVE.search(answer)
    if match is None:
        return answer.strip(), None
    directive = match.group(1).lower()
    if match.end() == len(answer):  # no other line can follow
        return answer[: match.start()].strip(), directive
    return _NEXT_DIRECTIVE.sub("", answer).strip(), directive


def evaluation_verdict(content: str) -> bool:
    """pass/fail from an evaluation payload; anything malformed counts as fail."""
    first = content.strip().split(None, 1)
    if not first:
        return False
    return first[0].strip(" -:.").lower() == "pass"


class Orchestrator:
    """One run over one workdir: owns the store, ledger, and sandbox."""

    def __init__(
        self,
        config: RunConfig,
        brain,
        hand,
        workdir: str | Path = ".",
        pricing: dict | None = None,
    ) -> None:
        self.config = config
        self.brain = brain
        self.hand = hand
        self.registry = default_registry()
        if pricing is None:  # no table: every call is free
            pricing = {brain.model: (0.0, 0.0), hand.model: (0.0, 0.0)}
        for model in (brain.model, hand.model):
            if model not in pricing:  # a model priced at zero would switch the cap off
                raise ConfigError(f"pricing table has no rates for model {model!r}")
        # the run's rates, resolved once: every call is priced from this table
        self.pricing = {model: pricing[model] for model in (brain.model, hand.model)}
        self.store = MemoryStore(retrieval=config.memory_retrieval)
        self.ledger = UsageLedger()
        # resolved once: snapshots and the git dir stay with the sandbox's
        # directory even if a symlink above the workdir is re-pointed mid-run
        self.sandbox = Sandbox(workdir=workdir, timeout=config.sandbox_timeout)
        # a tree; a repository the run did not make gets a start snapshot in _run
        self.base_revision, self._made_repo = ensure_repo(self.sandbox.workdir)
        self._last_tree = self.base_revision  # where the next summary's patch starts
        self.snapshots = Snapshots(self.sandbox.workdir)  # makes nothing until the first snapshot
        self.requirement = ""
        self._turn_cost_mark = 0.0

    # --- budget ---

    def _budget_base(self) -> float:
        if self.config.budget_per_iteration:
            return self.ledger.total_cost - self._turn_cost_mark
        return self.ledger.total_cost

    def _guard_call(self, messages: Messages, model: str) -> int:
        """Refuse a call whose prompt cost alone would cross the cap; return the
        prompt's one count, which the call is charged unless the backend reports one."""
        prompt_tokens = count_tokens(*[content for _r, content in messages])  # counts the join
        projected = prompt_tokens * self.pricing[model][0] / 1e6  # the prompt's share of call_cost
        if self._budget_base() + projected > self.config.max_cost:
            raise BudgetExceeded(
                f"projected cost {projected:.4f} would cross the {self.config.max_cost:.2f} cap"
            )
        return prompt_tokens

    def _charge(self, role: str, model: str, prompt_tokens: int, completion_tokens: int) -> None:
        self.ledger.charge(role, prompt_tokens, completion_tokens, model, self.pricing)
        if self._budget_base() > self.config.max_cost:
            # overshoot is bounded by the single call that crossed the cap
            raise BudgetExceeded(
                f"cost {self.ledger.total_cost:.4f} exceeded the {self.config.max_cost:.2f} cap"
            )

    def _call(self, role: str, messages: Messages, temperature: float = 0.0) -> BackendResponse:
        """The one metered backend call of either role: guard, complete, charge."""
        backend = self.brain if role == "brain" else self.hand
        prompt_tokens = self._guard_call(messages, backend.model)
        response = backend.complete(messages, temperature=temperature)
        if response.prompt_tokens is not None:
            prompt_tokens = response.prompt_tokens
        self._charge(role, backend.model, prompt_tokens, response.completion_tokens)
        return response

    def _brain_call(
        self, context: list[MemoryRecord], instruction: str, temperature: float = 0.0
    ) -> str:
        messages = render_prompt(
            "brain",
            context,
            self.config.dispatch_mode,
            self.registry,
            mandatory_requirement=self.requirement or None,
            instruction=instruction,
        )
        return self._call("brain", messages, temperature).text

    # --- loop operations ---

    def extract_mandatory_requirement(self, request: str) -> MemoryRecord:
        """Distill the one constraint every later step must satisfy."""
        text = self._brain_call(
            self.store.retrieve(Phase.REASONING),
            "State the single mandatory requirement this request must satisfy, "
            "as 'REQUIREMENT: <requirement>'.",
        )
        record = parse_response(text, MemoryKind.MANDATORY_REQUIREMENT)
        self.store.append(record)
        self.requirement = record.content
        return record

    def reason_step(self) -> tuple[MemoryRecord, str | None]:
        """One chain-of-thought step; returns the record and any NEXT directive.

        With voting_rounds N >= 2 it draws N samples at VOTE_TEMPERATURE and
        keeps the majority (ties to the lowest index), tagged '[vote k/M]' over
        the M samples that did not fail; only if all fail does the last
        failure propagate.
        """
        rounds = self.config.voting_rounds
        temperature = VOTE_TEMPERATURE if rounds > 1 else 0.0
        context = self.store.retrieve(Phase.REASONING)
        samples: list[str] = []
        for _ in range(rounds):
            try:
                samples.append(self._brain_call(context, _ANALYSIS_INSTRUCTION, temperature))
            except BackendFailure as exc:
                failure = exc
        if not samples:
            raise failure
        winner, tally = samples[0], ""
        if rounds > 1:
            keys = [" ".join(sample.split()).lower() for sample in samples]  # ignore space and case
            best = max(range(len(samples)), key=lambda i: (keys.count(keys[i]), -i))
            winner, tally = samples[best], f"\n[vote {keys.count(keys[best])}/{len(samples)}]"
        cleaned, directive = split_directive(winner)
        record = parse_response(cleaned, MemoryKind.ANALYSIS)
        record.content += tally
        return self.store.append(record), directive

    # benchmark/tracing.py patches both names; the alias goes once it patches reason_step only
    reason_with_voting = reason_step

    def formulate_task(self) -> tuple[TaskSpec, MemoryRecord]:
        """Ask the brain for a task block; reprompt on format failures."""
        attempts = 1 + self.config.self_correction_limit
        instruction = _TASK_FORMAT_REMINDER
        for attempt in range(attempts):
            text = self._brain_call(self.store.retrieve(Phase.REASONING), instruction)
            record = parse_response(text, MemoryKind.TASK)
            parsed = parse_task_text(record.content)
            if parsed is not None:
                task = TaskSpec(turn=self.store.current_turn, **parsed)
                task_record = self.store.append(record)
                return task, task_record
            instruction = (
                "The previous task was malformed (objective, steps, and expected "
                "outcome are all required). " + _TASK_FORMAT_REMINDER
            )
        raise TaskFormatError(f"task block still malformed after {attempts} attempts")

    def evaluate_result(self, task: TaskSpec, report: ExecutionReport) -> MemoryRecord:
        """Compare the execution report with the expected outcome; default fail."""
        instruction = (
            f"The execution agent finished with status '{report.final_status}' and "
            f"result '{report.result}'. Compare the observations with the expected "
            f"outcome ({task.expected_outcome}) and answer "
            "'EVALUATION: pass - <why>' or 'EVALUATION: fail - <critique>'."
        )
        text = self._brain_call(self.store.retrieve_for_evaluation(), instruction)
        try:
            record = parse_response(text, MemoryKind.EVALUATION)
        except Exception:
            record = MemoryRecord(kind=MemoryKind.EVALUATION, content="fail - unreadable verdict")
        return self.store.append(record)

    def summarize_turn(self) -> MemoryRecord:
        """Compress the turn and append its git patch (the changes since the
        previous summary) verbatim."""
        text = self._brain_call(
            self.store.retrieve(Phase.REASONING),
            "Summarize this turn's outcome and key conclusions as 'SUMMARY: <text>'.",
        )
        record = parse_response(text, MemoryKind.SUMMARY)
        patch = snapshot_patch(self.snapshots, self._last_tree, base=self.base_revision)
        heading = "[git patch]"
        if patch.base_revision != self._last_tree:  # a command removed the previous snapshot
            heading = "[git patch since the run's base: the previous snapshot was removed]"
        self._last_tree = patch.tree
        # the record is prompt and transcript text: a byte that is not UTF-8 shows as U+FFFD
        record.content += f"\n\n{heading}\n" + patch.data.decode("utf-8", "replace")
        return self.store.append(record)

    def check_stop(self) -> bool:
        """True iff the brain confirms the mandatory requirement is satisfied."""
        text = self._brain_call(
            self.store.retrieve(Phase.REASONING),
            "Is the mandatory requirement satisfied by the work so far? "
            "Answer 'SATISFIED' or 'NOT YET'.",
        )
        first_line = text.strip().splitlines()[0].strip() if text.strip() else ""
        first_line = first_line.removeprefix("STOP:").strip()
        return first_line.upper() == "SATISFIED"

    # --- the loop ---

    def _run_turn(self) -> bool:
        """One turn, up to its stop check; True iff the run is solved."""
        config = self.config
        directive = None
        for _ in range(MAX_ANALYSES_PER_TURN):
            _, directive = self.reason_step()
            if directive == "task":
                break

        task, task_record = self.formulate_task()
        task.tool_domain = dispatch_task(task, self.registry)

        # the limit caps total execution attempts for the task (always >= 1)
        max_attempts = max(1, config.self_correction_limit)
        critiques: list[str] = []
        for attempt in range(1, max_attempts + 1):
            report = hand_execute(
                task,
                self.registry,
                self.sandbox,
                lambda messages: self._call("hand", messages),
                store=self.store,
                task_record=task_record,
                mode=config.dispatch_mode,
                critiques=critiques,
            )
            evaluation = self.evaluate_result(task, report)
            if evaluation_verdict(evaluation.content) or attempt == max_attempts:
                break
            critiques.append(evaluation.content)

        self.summarize_turn()
        return self.check_stop()

    def run(self, request: str) -> RunOutcome:
        """Execute the full loop for a single request."""
        try:
            return self._run(request)
        finally:
            # the diff process and the snapshots' directory never outlive the
            # run, however it ends
            self.snapshots.close()

    def _run(self, request: str) -> RunOutcome:
        if not request.strip():
            raise EmptyRequest("user request is empty")
        if not self._made_repo:
            # what the user left uncommitted is not the first turn's work;
            # a repository the run made was committed as it found the files
            self._last_tree = self.snapshots.snapshot()
        self.store.append(
            MemoryRecord(kind=MemoryKind.USER_REQUEST, content=request.strip(), producer="user")
        )
        status: RunStatus | None = None
        turns = 0
        try:
            self.extract_mandatory_requirement(request)
            while turns < self.config.max_iterations:
                turns += 1
                self._turn_cost_mark = self.ledger.total_cost
                try:
                    solved = self._run_turn()
                except (BudgetExceeded, FixtureMismatch):
                    # budget ends the run; a fixture mismatch is a broken test script
                    raise
                except AgentLoopError as exc:
                    # resilience: the failure becomes a note and ends the turn
                    logger.warning("turn %d aborted: %s", self.store.current_turn, exc)
                    self.store.append(
                        MemoryRecord(
                            kind=MemoryKind.OBSERVATION,
                            content=f"turn aborted: {exc}",
                            producer="environment",
                        )
                    )
                    solved = False
                self.store.advance_turn()  # the one place a turn ends
                if solved:
                    status = RunStatus.SOLVED
                    break
            if status is None:
                status = RunStatus.ITERATION_CAP
        except BudgetExceeded:
            status = RunStatus.BUDGET_EXHAUSTED
        # every hand action and every aborted turn appends a record, so a summary
        # still last in the store means the worktree is the tree it snapshotted
        unchanged = self.store.records[-1].kind is MemoryKind.SUMMARY
        final_patch = snapshot_patch(self.snapshots, self.base_revision, tree=self._last_tree if unchanged else None)
        return RunOutcome(status=status, turns_used=turns, final_patch=final_patch)
