"""Typed agent history: storage, response parsing, and phase-scoped retrieval.

Every model response and tool result becomes one MemoryRecord. Retrieval is a
pure kind-based filter: the brain's requirement, analysis, task, summary and
stop calls see the request, requirement, analyses, tasks, and summaries but
never action/observation text, which is where the token savings of the
retrieval mode come from. The evaluation call also sees the current turn's
action/observation records, so it does pay for that turn's observations;
the hand sees its task and the actions and observations after it. The store
keeps each view up to date as records are appended (one reasoning list, one
action/observation list per turn), together with the view's prompt text:
a string that takes in new lines sixteen at a time, and the lines appended
since. A retrieval copies neither records nor text, so the prompt built from
it costs one copy of the text, not a walk over its records, and an append
costs a copy of its line. With retrieval off every view is the whole
history, and the store keeps that history's text instead.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .accounting import count_tokens
from .errors import DuplicateSingleton, EmptyResponse, KindMismatch, MissingTask


class MemoryKind(str, Enum):
    USER_REQUEST = "user_request"
    MANDATORY_REQUIREMENT = "mandatory_requirement"
    ANALYSIS = "analysis"
    TASK = "task"
    ACTION = "action"
    OBSERVATION = "observation"
    EVALUATION = "evaluation"
    SUMMARY = "summary"


class Phase(str, Enum):
    REASONING = "reasoning"
    EXECUTION = "execution"


# Marker used on the first payload line of a structured model response.
MARKERS: dict[MemoryKind, str] = {
    MemoryKind.USER_REQUEST: "REQUEST",
    MemoryKind.MANDATORY_REQUIREMENT: "REQUIREMENT",
    MemoryKind.ANALYSIS: "ANALYSIS",
    MemoryKind.TASK: "TASK",
    MemoryKind.ACTION: "ACTION",
    MemoryKind.OBSERVATION: "OBSERVATION",
    MemoryKind.EVALUATION: "EVALUATION",
    MemoryKind.SUMMARY: "SUMMARY",
}
_MARKER_TO_KIND = {marker: kind for kind, marker in MARKERS.items()}
_MARKER_LINE = re.compile(r"^\s*([A-Z_]+):\s?(.*)$")

DEFAULT_PRODUCER: dict[MemoryKind, str] = {
    MemoryKind.USER_REQUEST: "user",
    MemoryKind.MANDATORY_REQUIREMENT: "brain",
    MemoryKind.ANALYSIS: "brain",
    MemoryKind.TASK: "brain",
    MemoryKind.ACTION: "hand",
    MemoryKind.OBSERVATION: "environment",
    MemoryKind.EVALUATION: "brain",
    MemoryKind.SUMMARY: "brain",
}

REASONING_KINDS = frozenset(
    {
        MemoryKind.USER_REQUEST,
        MemoryKind.MANDATORY_REQUIREMENT,
        MemoryKind.ANALYSIS,
        MemoryKind.SUMMARY,
        MemoryKind.TASK,
    }
)
EXECUTION_KINDS = frozenset({MemoryKind.ACTION, MemoryKind.OBSERVATION})
_SINGLETON_KINDS = (MemoryKind.USER_REQUEST, MemoryKind.MANDATORY_REQUIREMENT)


@dataclass
class MemoryRecord:
    """One unit of agent history. turn/seq/token_count are set on append."""

    kind: MemoryKind
    content: str
    producer: str = ""
    turn: int | None = None
    seq: int | None = None
    token_count: int | None = None

    def __post_init__(self) -> None:
        if not self.producer:
            self.producer = DEFAULT_PRODUCER[self.kind]

    @property
    def prompt_line(self) -> str:
        """The record as a prompt line. Not cached: once the record is
        appended, its line is held in the text of the view it belongs to."""
        return f"{MARKERS[self.kind]}: {self.content}"

    def to_json_dict(self) -> dict:
        # Stable field order; the transcript schema depends on it.
        return {
            "kind": self.kind.value,
            "content": self.content,
            "turn": self.turn,
            "seq": self.seq,
            "producer": self.producer,
            "token_count": self.token_count,
        }


def parse_response(text: str, expected_kind: MemoryKind) -> MemoryRecord:
    """Turn raw model output into an unappended record of the expected kind.

    If the response uses the block format ``MARKER: payload``, everything
    before the first marker line is dropped and the payload (marker line
    remainder plus following lines) becomes the content. A marker of a
    different kind raises KindMismatch. Without any marker the whole trimmed
    text is the content.
    """
    trimmed = text.strip()
    if not trimmed:
        raise EmptyResponse("response is empty after trimming")
    lines = trimmed.splitlines()
    if len(lines) == 1:  # no join: the marker is what precedes the first colon
        marker, colon, payload = trimmed.partition(":")
        if colon and marker in _MARKER_TO_KIND:
            return _marked_record(marker, payload, expected_kind)
        return MemoryRecord(kind=expected_kind, content=trimmed)
    for idx, line in enumerate(lines):
        match = _MARKER_LINE.match(line)
        if match and match.group(1) in _MARKER_TO_KIND:
            payload = "\n".join([match.group(2)] + lines[idx + 1 :])
            return _marked_record(match.group(1), payload, expected_kind)
    return MemoryRecord(kind=expected_kind, content=trimmed)


def _marked_record(marker: str, payload: str, expected_kind: MemoryKind) -> MemoryRecord:
    if _MARKER_TO_KIND[marker] is not expected_kind:
        raise KindMismatch(f"response is marked {marker} but {MARKERS[expected_kind]} was expected")
    payload = payload.strip()
    if not payload:
        raise EmptyResponse(f"{marker} marker carries no content")
    return MemoryRecord(kind=expected_kind, content=payload)


class View:
    """What a retrieval returns: its records, in seq order, read-only, and
    ``parts``: texts, none empty, whose join by "\n" is the records' prompt
    lines joined by "\n".

    A view copies no history. Its records are the first ``len`` records of
    a list the store only appends to, then a few more; its parts are the
    texts the store keeps. ``render_prompt`` joins the parts into the prompt
    itself, so the history is copied once per prompt, in that join."""

    __slots__ = ("_records", "_stop", "_more", "parts")

    def __init__(
        self,
        records: list[MemoryRecord],
        parts: tuple[str, ...] | None = None,
        more: tuple[MemoryRecord, ...] = (),
    ) -> None:
        """The view of ``records`` as they are now, then ``more``, with the
        given parts or, with none given, their prompt lines as its one part."""
        self._records = records
        self._stop = len(records)
        self._more = more
        if parts is None:
            parts = ("\n".join([r.prompt_line for r in self]),) if self else ()
        self.parts = parts

    def __len__(self) -> int:
        return self._stop + len(self._more)

    def __iter__(self) -> Iterator[MemoryRecord]:
        return chain(islice(self._records, self._stop), self._more)

    def __eq__(self, other) -> bool:
        if isinstance(other, (View, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"View({list(self)!r})"


_FOLD = 16  # lines a kept text takes in before they are folded into one string


class _Text:
    """A view's kept prompt text: the lines appended to it, joined by "\n".

    It is held as one folded string and the lines appended since. They are
    folded in once there are ``_FOLD`` of them, so an append copies its own
    line and, every ``_FOLD`` appends, the text; a retrieval hands on the
    string and the lines, which the prompt's one join copies."""

    __slots__ = ("folded", "lines")

    def __init__(self) -> None:
        self.folded = ""
        self.lines: list[str] = []

    def add(self, line: str) -> None:
        lines = self.lines
        lines.append(line)
        if len(lines) == _FOLD:
            if self.folded:
                lines.insert(0, self.folded)
            self.folded = "\n".join(lines)
            self.lines = []

    @property
    def parts(self) -> tuple[str, ...]:
        return (self.folded, *self.lines) if self.folded else tuple(self.lines)


class MemoryStore:
    """Append-only ordered record store with a turn counter.

    Besides ``records`` it keeps the retrieval views, filled on append: the
    reasoning records, and each turn's action/observation records, each with
    its prompt text. The store owns the retrieval switch: with
    ``retrieval=False`` (the paper's ablation) every retrieval returns all
    records, and the store keeps the text of all records instead. Each
    appended record's line is held once, in the one text it belongs to.
    """

    def __init__(
        self, tokenizer: Callable[[str], int] = count_tokens, *, retrieval: bool = True
    ) -> None:
        self.records: list[MemoryRecord] = []
        self._retrieval = retrieval  # fixed: the texts kept on append depend on it
        self.current_turn = 0
        self._tokenizer = tokenizer
        self._seen_singletons: set[MemoryKind] = set()
        self._history_text = _Text()  # every record's line, with retrieval off
        self._reasoning: list[MemoryRecord] = []
        self._reasoning_text = _Text()
        self._execution_by_turn: dict[int, list[MemoryRecord]] = {}
        self._execution_text: dict[int, _Text] = {}

    def append(self, record: MemoryRecord) -> MemoryRecord:
        """Assign seq/turn/token_count and store the record."""
        if record.kind in _SINGLETON_KINDS:
            if record.kind in self._seen_singletons:
                raise DuplicateSingleton(f"a {record.kind.value} record already exists")
            if (record.turn or 0) != 0 or self.current_turn != 0:
                raise ValueError(f"{record.kind.value} records belong to turn 0")
        if record.turn is None:
            record.turn = self.current_turn
        if self.records and record.turn < self.records[-1].turn:
            raise ValueError("turn must be non-decreasing along seq")
        record.seq = len(self.records)
        record.token_count = self._tokenizer(record.content)
        self.records.append(record)
        if not self._retrieval:
            self._history_text.add(record.prompt_line)
        elif record.kind in REASONING_KINDS:
            self._reasoning.append(record)
            self._reasoning_text.add(record.prompt_line)
        elif record.kind in EXECUTION_KINDS:
            self._execution_by_turn.setdefault(record.turn, []).append(record)
            text = self._execution_text.get(record.turn)
            if text is None:
                text = self._execution_text[record.turn] = _Text()
            text.add(record.prompt_line)
        if record.kind in _SINGLETON_KINDS:
            self._seen_singletons.add(record.kind)
        return record

    def advance_turn(self) -> None:
        self.current_turn += 1

    def retrieve(self, phase: Phase, current_task: MemoryRecord | None = None) -> View:
        """Phase-scoped view of the history, in seq order, with its text.

        Reasoning: user request, mandatory requirement, analyses, summaries,
        and tasks. Execution: the current task followed by this turn's
        action/observation records after it.
        """
        if phase is Phase.EXECUTION and current_task is None:
            raise MissingTask("execution retrieval needs the current task record")
        if not self._retrieval:
            return View(self.records, self._history_text.parts)
        if phase is Phase.REASONING:
            return View(self._reasoning, self._reasoning_text.parts)
        trail = self._execution_by_turn.get(current_task.turn, [])
        after = current_task.seq or 0
        if trail and trail[0].seq > after:  # the engine's order: the whole trail follows the task
            parts = (current_task.prompt_line, *self._execution_text[current_task.turn].parts)
            return View([current_task, *trail], parts)
        return View([current_task, *(r for r in trail if r.seq > after)])

    def retrieve_for_evaluation(self, turn: int | None = None) -> View:
        """Reasoning view plus the given turn's action/observation records."""
        if not self._retrieval:
            return View(self.records, self._history_text.parts)
        turn = self.current_turn if turn is None else turn
        trail = self._execution_by_turn.get(turn)
        if not trail:
            return View(self._reasoning, self._reasoning_text.parts)
        if not self._reasoning or trail[0].seq > self._reasoning[-1].seq:
            # the engine's order: the turn's trail follows the last reasoning record
            parts = (*self._reasoning_text.parts, *self._execution_text[turn].parts)
            return View(self._reasoning, parts, tuple(trail))
        # two seq-sorted runs: the sort merges them in linear time
        return View(sorted(self._reasoning + trail, key=attrgetter("seq")))


# --- transcript JSONL ---


def transcript_lines(records: Iterable[MemoryRecord]) -> Iterator[str]:
    return (json.dumps(r.to_json_dict(), ensure_ascii=False) for r in records)


def export_transcript(store: MemoryStore, path: str | Path) -> Path:
    """Write one JSON object per record per line, UTF-8, a line at a time."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for line in transcript_lines(store.records):
            fh.write(line + "\n")
    return path


def load_transcript(path: str | Path) -> list[MemoryRecord]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        records.append(
            MemoryRecord(
                kind=MemoryKind(data["kind"]),
                content=data["content"],
                producer=data["producer"],
                turn=data["turn"],
                seq=data["seq"],
                token_count=data["token_count"],
            )
        )
    return records


_TURN_SYMBOLS = {
    MemoryKind.USER_REQUEST: "u",
    MemoryKind.MANDATORY_REQUIREMENT: "r",
    MemoryKind.ANALYSIS: "a",
    MemoryKind.TASK: "t",
    MemoryKind.ACTION: "x",
    MemoryKind.OBSERVATION: "o",
    MemoryKind.EVALUATION: "e",
    MemoryKind.SUMMARY: "s",
}
# Within a turn: analyses, one task, action/observation pairs interleaved with
# one evaluation per execution attempt, one summary.
_TURN_GRAMMAR = re.compile(r"^a*t(?:(?:xo)*e)+s$")


def lint_phase_order(records: Sequence[MemoryRecord]) -> list[str]:
    """Check the per-turn record-kind grammar; return a list of problems."""
    problems: list[str] = []
    for i, record in enumerate(records):
        if record.seq != i:
            problems.append(f"record {i}: seq {record.seq} not dense")
    for prev, cur in zip(records, records[1:]):
        if (cur.turn or 0) < (prev.turn or 0):
            problems.append(f"record {cur.seq}: turn decreases")
    for kind in _SINGLETON_KINDS:
        matching = [r for r in records if r.kind is kind]
        if len(matching) > 1:
            problems.append(f"multiple {kind.value} records")
        for r in matching:
            if r.turn != 0:
                problems.append(f"{kind.value} outside turn 0")

    turns: dict[int, list[MemoryRecord]] = {}
    for r in records:
        turns.setdefault(r.turn or 0, []).append(r)
    for turn in sorted(turns):
        symbols = "".join(_TURN_SYMBOLS[r.kind] for r in turns[turn])
        if turn == 0:
            # the two singletons lead the first turn, possibly with no turn body yet
            symbols = re.sub(r"^ur", "", symbols)
            if not symbols:
                continue
        if not _TURN_GRAMMAR.match(symbols):
            problems.append(f"turn {turn}: kind sequence '{symbols}' breaks phase order")
    return problems


def lint_transcript(path: str | Path) -> list[str]:
    return lint_phase_order(load_transcript(path))
