"""Span tracing from outside the engine, and its per-layer aggregation.

``instrument`` replaces public names of the engine's modules with wrappers
that record a span (name, start, end, parent, session id) around each call.
Names imported with ``from .x import y`` are wrapped where the caller looks
them up (``agentloop.orchestrator.snapshot_patch``, ``agentloop.cli.load_script``);
``agents`` reaches the toolkit through ``toolkit.<fn>`` module attributes. The
engine's own files are not touched. A span's layer is the first component of
its name, which is the module the wrapped function belongs to.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from agentloop import accounting, agents, backends, cli, memory, orchestrator, toolkit

LAYERS = ("cli", "orchestrator", "agents", "memory", "toolkit", "accounting", "backends")
ROOT = "session"  # the harness's span around cli.main; its self time is unattributed

# Spans that open a call purpose; orchestrator self time is grouped by the
# nearest enclosing one.
PURPOSES = {
    "orchestrator.requirement": "requirement",
    "orchestrator.analysis": "analysis",
    "orchestrator.task": "task",
    "agents.hand_execute": "hand",
    "orchestrator.evaluation": "evaluation",
    "orchestrator.summary": "summary",
    "orchestrator.stop": "stop",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, session id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.session = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.session])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span idx and any span still open inside it."""
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == idx:
                break

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on the engine's public names; restore on exit."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(_wrap(tracer, original.fget, name, after)))
        else:
            setattr(owner, attr, _wrap(tracer, original, name, after))

    def message_bytes(messages) -> int:
        return sum(len(content) for _role, content in messages) + max(len(messages) - 1, 0)

    def on_render(args, messages) -> None:
        tracer.count("agents.prompt_bytes", message_bytes(messages))

    def on_parse(args, result) -> None:
        tracer.count("agents.parse.bytes_scanned", len(args[0]))
        if isinstance(result, agents.Rejection) and result.kind in ("misrouted", "unknown"):
            tracer.count("agents.parse.rejected")

    def on_complete(args, response) -> None:
        tracer.count("backends.prompt_bytes", message_bytes(args[1]))

    def on_retrieve(args, records) -> None:
        tracer.count("memory.records_scanned", len(args[0].records))
        tracer.count("memory.records_kept", len(records))

    def on_edit(args, outcome) -> None:
        tracer.count("toolkit.edit.applied", outcome.applied)

    def on_run(args, result) -> None:
        tracer.count("toolkit.run_command.failed", result.exit_status != 0)

    def on_snapshot(args, patch_) -> None:
        tracer.count("toolkit.patch_bytes", len(patch_.text))

    def on_orchestrator_run(args, outcome) -> None:
        # artifact writes follow the loop inside cmd_run; cmd_run's wrapper closes this span
        tracer.open("cli.artifacts")

    Orch = orchestrator.Orchestrator
    try:
        patch(cli, "cmd_run", "cli.cmd_run")
        patch(cli, "load_script", "cli.load_script")
        patch(cli, "export_transcript", "memory.export")
        patch(Orch, "run", "orchestrator.run", on_orchestrator_run)
        patch(Orch, "extract_mandatory_requirement", "orchestrator.requirement")
        patch(Orch, "reason_step", "orchestrator.analysis")
        patch(Orch, "reason_with_voting", "orchestrator.analysis")
        patch(Orch, "formulate_task", "orchestrator.task")
        patch(Orch, "evaluate_result", "orchestrator.evaluation")
        patch(Orch, "summarize_turn", "orchestrator.summary")
        patch(Orch, "check_stop", "orchestrator.stop")
        patch(Orch, "_guard_call", "orchestrator.guard")
        patch(Orch, "_charge", "orchestrator.charge")
        patch(orchestrator, "render_prompt", "agents.render_prompt", on_render)
        patch(agents, "render_prompt", "agents.render_prompt", on_render)
        patch(orchestrator, "hand_execute", "agents.hand_execute")
        patch(agents, "parse_command", "agents.parse_command", on_parse)
        patch(orchestrator, "parse_response", "memory.parse_response")
        patch(memory.MemoryStore, "append", "memory.append")
        patch(memory.MemoryStore, "retrieve", "memory.retrieve", on_retrieve)
        patch(memory.MemoryStore, "retrieve_for_evaluation", "memory.retrieve", on_retrieve)
        patch(toolkit, "edit_file", "toolkit.edit_file", on_edit)
        patch(toolkit, "locate_anchor", "toolkit.locate_anchor")
        patch(toolkit, "replace_function", "toolkit.replace_function")
        patch(toolkit, "run_command", "toolkit.run_command", on_run)
        patch(orchestrator, "snapshot_patch", "toolkit.snapshot_patch", on_snapshot)
        patch(orchestrator, "ensure_repo", "toolkit.ensure_repo")
        patch(orchestrator, "count_tokens", "accounting.count_tokens")
        patch(backends, "count_tokens", "accounting.count_tokens")
        # MemoryStore binds count_tokens as its default tokenizer at class definition
        init = memory.MemoryStore.__init__
        saved.append((init, "__defaults__", init.__defaults__))
        (tokenizer,) = init.__defaults__
        init.__defaults__ = (_wrap(tracer, tokenizer, "accounting.count_tokens"),)
        patch(accounting.UsageLedger, "charge", "accounting.ledger")
        patch(accounting.UsageLedger, "total_cost", "accounting.total_cost")
        patch(backends.ScriptedBackend, "complete", "backends.complete", on_complete)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def session_breakdown(spans: list[list], start: int, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced session: ``spans[start]`` is its root
    and every later span belongs to it. Self times of all spans add up to the
    root's duration, so the layers plus ``unattributed.ms`` give the wall time."""
    dur: dict[int, float] = {}
    child: dict[int, float] = defaultdict(float)
    purpose: dict[int, str | None] = {}
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_purpose: dict[str, float] = defaultdict(float)
    for i in range(start, len(spans)):
        name, begin, end, parent, _session = spans[i]
        dur[i] = end - begin
        child[parent] += dur[i]
        purpose[i] = PURPOSES.get(name) or purpose.get(parent)
    for i in range(start, len(spans)):
        name = spans[i][0]
        own = dur[i] - child[i]
        calls[name] += 1
        incl[name] += dur[i]
        self_by_name[name] += own
        layer = name.split(".", 1)[0]
        self_by_layer[layer] += own
        if layer == "orchestrator" and purpose[i] is not None:
            self_by_purpose[purpose[i]] += own

    def ms(value: float) -> float:
        return value * 1000.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = dur[start]
    ledger = incl["accounting.ledger"] + incl["accounting.total_cost"]
    out = {"session.wall_ms": ms(wall), "unattributed.ms": ms(self_by_layer[ROOT])}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = ms(self_by_layer[layer])
    out.update({
        "accounting.ledger.ms": ms(ledger),
        "accounting.total_cost.calls": calls["accounting.total_cost"],
        "accounting.count_tokens.calls": calls["accounting.count_tokens"],
        "accounting.count_tokens.ms": ms(incl["accounting.count_tokens"]),
        "memory.retrieve.calls": calls["memory.retrieve"],
        "memory.retrieve.ms": ms(incl["memory.retrieve"]),
        "memory.records_scanned": counters["memory.records_scanned"],
        "memory.retrieve.kept_ratio": ratio(counters["memory.records_kept"], counters["memory.records_scanned"]),
        "memory.export.ms": ms(incl["memory.export"]),
        "agents.render_prompt.ms": ms(incl["agents.render_prompt"]),
        "agents.prompt_bytes": counters["agents.prompt_bytes"],
        "agents.parse_command.calls": calls["agents.parse_command"],
        "agents.parse_command.ms": ms(incl["agents.parse_command"]),
        "agents.parse.bytes_scanned": counters["agents.parse.bytes_scanned"],
        "agents.parse.rejected_ratio": ratio(counters["agents.parse.rejected"], calls["agents.parse_command"]),
        "agents.hand_execute.self_ms": ms(self_by_name["agents.hand_execute"]),
        "toolkit.edit_file.calls": calls["toolkit.edit_file"],
        "toolkit.edit_file.ms": ms(incl["toolkit.edit_file"]),
        "toolkit.edit.applied_ratio": ratio(counters["toolkit.edit.applied"], calls["toolkit.edit_file"]),
        "toolkit.locate_anchor.ms": ms(incl["toolkit.locate_anchor"]),
        "toolkit.replace_function.calls": calls["toolkit.replace_function"],
        "toolkit.run_command.calls": calls["toolkit.run_command"],
        "toolkit.run_command.ms": ms(incl["toolkit.run_command"]),
        "toolkit.run_command.failed": counters["toolkit.run_command.failed"],
        "toolkit.snapshot_patch.calls": calls["toolkit.snapshot_patch"],
        "toolkit.snapshot_patch.ms": ms(incl["toolkit.snapshot_patch"]),
        "toolkit.patch_bytes": counters["toolkit.patch_bytes"],
        "toolkit.ensure_repo.ms": ms(incl["toolkit.ensure_repo"]),
        "backends.complete.calls": calls["backends.complete"],
        "backends.complete.ms": ms(incl["backends.complete"]),
        "backends.prompt_bytes": counters["backends.prompt_bytes"],
        "cli.load_script.ms": ms(incl["cli.load_script"]),
        "cli.artifacts.ms": ms(incl["cli.artifacts"]),
        "orchestrator.retries": calls["agents.hand_execute"] - calls["orchestrator.task"],
        "split.snapshot_ledger_share": ratio(incl["toolkit.snapshot_patch"] + ledger, wall),
        "split.parse_edit_share": ratio(incl["agents.parse_command"] + incl["toolkit.edit_file"], wall),
    })
    for name in PURPOSES.values():
        out[f"orchestrator.{name}.self_ms"] = ms(self_by_purpose[name])
    return out


def overhead_growth(gaps_by_turn: list[list[float]]) -> float:
    """Median engine gap in the last tenth of turns over that of the first tenth."""
    tenth = max(1, len(gaps_by_turn) // 10)
    head = [g for turn in gaps_by_turn[:tenth] for g in turn]
    tail = [g for turn in gaps_by_turn[-tenth:] for g in turn]
    if not head or not tail:
        return 0.0
    return statistics.median(tail) / statistics.median(head)
