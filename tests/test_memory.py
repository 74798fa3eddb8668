"""Memory store, response parsing, phase-scoped retrieval, and transcript I/O."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentloop.agents import default_registry, render_prompt
from agentloop.errors import DuplicateSingleton, EmptyResponse, KindMismatch, MissingTask
from agentloop.memory import (
    EXECUTION_KINDS,
    REASONING_KINDS,
    MemoryKind,
    MemoryRecord,
    MemoryStore,
    Phase,
    export_transcript,
    lint_phase_order,
    lint_transcript,
    load_transcript,
    parse_response,
    transcript_lines,
)

K = MemoryKind


# --- parse_response ---

def test_parse_marker_drops_filler():
    text = (
        "I will help you to analyze this problem.\n"
        "ANALYSIS: Merge multiple sorted linked lists into a single sorted linked list."
    )
    record = parse_response(text, K.ANALYSIS)
    assert record.content == "Merge multiple sorted linked lists into a single sorted linked list."


def test_parse_without_marker_keeps_whole_text():
    text = (
        "I will help you to analyze this problem. To solve this problem, we need "
        "to merge multiple sorted linked lists into a single sorted linked list."
    )
    record = parse_response(text, K.ANALYSIS)
    assert record.content == text


def test_parse_minimal():
    assert parse_response("x", K.ANALYSIS).content == "x"


def test_parse_empty_is_error():
    with pytest.raises(EmptyResponse):
        parse_response("   \n\t ", K.TASK)


def test_parse_kind_mismatch():
    with pytest.raises(KindMismatch):
        parse_response("TASK: do something", K.ANALYSIS)


def test_parse_multiline_payload():
    record = parse_response("TASK: line one\nline two", K.TASK)
    assert record.content == "line one\nline two"


def test_parse_default_producer():
    assert parse_response("x", K.ANALYSIS).producer == "brain"
    assert parse_response("x", K.OBSERVATION).producer == "environment"


# --- append ---

def test_append_first_record():
    store = MemoryStore()
    record = store.append(MemoryRecord(kind=K.USER_REQUEST, content="fix bug"))
    assert (record.seq, record.turn) == (0, 0)
    assert record.token_count == 2  # ceil(7 bytes / 4)


def test_append_duplicate_singleton():
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="fix bug"))
    with pytest.raises(DuplicateSingleton):
        store.append(MemoryRecord(kind=K.USER_REQUEST, content="again"))


def test_append_assigns_dense_seq():
    store = MemoryStore()
    for kind in (K.USER_REQUEST, K.MANDATORY_REQUIREMENT, K.ANALYSIS):
        store.append(MemoryRecord(kind=kind, content="x"))
    record = store.append(MemoryRecord(kind=K.ANALYSIS, content="y"))
    assert record.seq == 3


def test_singleton_must_be_turn_zero():
    store = MemoryStore()
    store.advance_turn()
    with pytest.raises(ValueError):
        store.append(MemoryRecord(kind=K.USER_REQUEST, content="late"))


# --- retrieval ---

def _example_store() -> tuple[MemoryStore, MemoryRecord]:
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="request"))
    store.append(MemoryRecord(kind=K.ANALYSIS, content="analysis"))
    task = store.append(MemoryRecord(kind=K.TASK, content="task"))
    store.append(MemoryRecord(kind=K.ACTION, content="action"))
    store.append(MemoryRecord(kind=K.OBSERVATION, content="observation"))
    store.append(MemoryRecord(kind=K.SUMMARY, content="summary"))
    return store, task


def test_reasoning_filter():
    store, _ = _example_store()
    kinds = [r.kind for r in store.retrieve(Phase.REASONING)]
    assert kinds == [K.USER_REQUEST, K.ANALYSIS, K.TASK, K.SUMMARY]


def test_execution_filter():
    store, task = _example_store()
    kinds = [r.kind for r in store.retrieve(Phase.EXECUTION, task)]
    assert kinds == [K.TASK, K.ACTION, K.OBSERVATION]


def test_empty_store_reasoning():
    assert MemoryStore().retrieve(Phase.REASONING) == []


def test_execution_requires_task():
    for retrieval in (True, False):  # checked before the retrieval switch
        with pytest.raises(MissingTask):
            MemoryStore(retrieval=retrieval).retrieve(Phase.EXECUTION)


def test_execution_scoped_to_task_turn():
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.TASK, content="t0"))
    store.append(MemoryRecord(kind=K.ACTION, content="a0"))
    store.append(MemoryRecord(kind=K.OBSERVATION, content="o0"))
    store.advance_turn()
    task1 = store.append(MemoryRecord(kind=K.TASK, content="t1"))
    store.append(MemoryRecord(kind=K.ACTION, content="a1"))
    store.append(MemoryRecord(kind=K.OBSERVATION, content="o1"))
    contents = [r.content for r in store.retrieve(Phase.EXECUTION, task1)]
    assert contents == ["t1", "a1", "o1"]


def test_evaluation_view_includes_current_turn_execution():
    store, _ = _example_store()
    kinds = [r.kind for r in store.retrieve_for_evaluation(0)]
    assert kinds == [K.USER_REQUEST, K.ANALYSIS, K.TASK, K.ACTION, K.OBSERVATION, K.SUMMARY]
    # a later turn's evaluation view hides turn 0 execution records
    store.advance_turn()
    kinds = [r.kind for r in store.retrieve_for_evaluation(1)]
    assert K.ACTION not in kinds and K.OBSERVATION not in kinds


# --- the store's views against reference filters over every record ---


def reference_reasoning(records):
    return [r for r in records if r.kind in REASONING_KINDS]


def reference_execution(records, task):
    return [task] + [
        r
        for r in records
        if r.kind in EXECUTION_KINDS and r.turn == task.turn and r.seq > (task.seq or 0)
    ]


def reference_evaluation(records, turn):
    return [
        r
        for r in records
        if r.kind in REASONING_KINDS or (r.kind in EXECUTION_KINDS and r.turn == turn)
    ]


def _ids(records):
    return [id(r) for r in records]


_BODY_KINDS = [k for k in MemoryKind if k not in (K.USER_REQUEST, K.MANDATORY_REQUIREMENT)]
# a retry: the failed attempt's evaluation, then a second attempt and a second evaluation
_RETRY = (K.EVALUATION, K.ACTION, K.OBSERVATION, K.EVALUATION)
# ("ahead", kind): a record whose explicit turn runs ahead of the store's, then the advance
store_ops = st.lists(
    st.one_of(
        st.sampled_from(_BODY_KINDS),
        st.just("advance"),
        st.just("retry"),
        st.tuples(st.just("ahead"), st.sampled_from(_BODY_KINDS)),
    ),
    max_size=40,
)


def _store_after(singletons: bool, retrieval: bool, ops):
    """The store after each of ``ops``, yielded once per op."""
    store = MemoryStore(retrieval=retrieval)
    if singletons:
        store.append(MemoryRecord(kind=K.USER_REQUEST, content="request"))
        store.append(MemoryRecord(kind=K.MANDATORY_REQUIREMENT, content="requirement"))
    for op in ops:
        if op == "advance":
            store.advance_turn()
        elif isinstance(op, tuple):
            store.append(MemoryRecord(kind=op[1], content="ahead", turn=store.current_turn + 1))
            store.advance_turn()
        else:
            for kind in _RETRY if op == "retry" else (op,):
                store.append(MemoryRecord(kind=kind, content=f"{kind.value} {len(store.records)}"))
        yield store


@settings(max_examples=150, deadline=None)
@given(singletons=st.booleans(), retrieval=st.booleans(), ops=store_ops)
def test_views_kept_on_append_equal_reference_filters(singletons, retrieval, ops):
    taken = []  # (view, its records' ids) at each step: later appends must not change them
    for store in _store_after(singletons, retrieval, ops):
        records = store.records

        def expected(reference):  # with retrieval off every view is the whole history
            return _ids(reference if retrieval else records)

        reasoning = store.retrieve(Phase.REASONING)
        assert _ids(reasoning) == expected(reference_reasoning(records))
        with pytest.raises(AttributeError):
            reasoning.clear()  # read-only: a caller cannot change what the store keeps
        assert _ids(store.retrieve(Phase.REASONING)) == expected(reference_reasoning(records))
        taken.append((reasoning, _ids(reasoning)))
        taken.append((store.retrieve_for_evaluation(), _ids(store.retrieve_for_evaluation())))
        unappended = MemoryRecord(kind=K.TASK, content="draft", turn=store.current_turn)
        for task in [r for r in records if r.kind is K.TASK] + [unappended]:
            view = store.retrieve(Phase.EXECUTION, task)
            assert _ids(view) == expected(reference_execution(records, task))
        for turn in range(store.current_turn + 2):
            view = store.retrieve_for_evaluation(turn)
            assert _ids(view) == expected(reference_evaluation(records, turn))
        default = store.retrieve_for_evaluation()
        assert _ids(default) == expected(reference_evaluation(records, store.current_turn))
        assert [r.seq for r in store.records] == list(range(len(store.records)))
    for view, ids in taken:
        assert _ids(view) == ids and len(view) == len(ids)


def _joined_lines(records):
    return "\n".join(r.prompt_line for r in records)


def _views(store):
    """Every view the store can give: reasoning, each task's execution view
    (an unappended task's too), and the evaluation view of each turn."""
    yield store.retrieve(Phase.REASONING)
    unappended = MemoryRecord(kind=K.TASK, content="draft", turn=store.current_turn)
    for task in [r for r in store.records if r.kind is K.TASK] + [unappended]:
        yield store.retrieve(Phase.EXECUTION, task)
    for turn in range(store.current_turn + 2):
        yield store.retrieve_for_evaluation(turn)


@settings(max_examples=150, deadline=None)
@given(singletons=st.booleans(), retrieval=st.booleans(), ops=store_ops)
# the turn's trail precedes a reasoning record: the evaluation view is a merge, not a join
@example(singletons=True, retrieval=True, ops=[K.TASK, K.ACTION, K.OBSERVATION, K.ANALYSIS])
# enough lines for each kept text to fold them in more than once
@example(singletons=True, retrieval=True, ops=[K.ANALYSIS] * 20 + ["retry"] * 9 + [K.SUMMARY] * 14)
@example(singletons=False, retrieval=False, ops=[K.ANALYSIS, "retry"] * 12)
def test_view_text_kept_on_append_equals_its_records_prompt_lines(singletons, retrieval, ops):
    registry = default_registry()
    for store in _store_after(singletons, retrieval, ops):
        for view in _views(store):
            assert "\n".join(view.parts) == _joined_lines(view) and all(view.parts)
            # the prompt from the kept text is the prompt from the records' lines
            for role, notes in (("brain", ()), ("hand", ("critique",))):
                args = dict(task_domain="code", mandatory_requirement="req", instruction="go", extra_notes=notes)
                kept = render_prompt(role, view, "hierarchical", registry, **args)
                assert kept == render_prompt(role, list(view), "hierarchical", registry, **args)
        for turn in range(store.current_turn + 2):
            merged = sorted(reference_reasoning(store.records) + [
                r for r in store.records if r.kind in EXECUTION_KINDS and r.turn == turn
            ], key=lambda r: r.seq)
            view = store.retrieve_for_evaluation(turn)
            assert _ids(view) == _ids(merged if retrieval else store.records)
        assert all("prompt_line" not in vars(r) for r in store.records)  # each line is held once


def test_evaluation_view_merges_a_trail_that_a_reasoning_record_follows():
    store = MemoryStore()
    task = store.append(MemoryRecord(kind=K.TASK, content="task"))
    action = store.append(MemoryRecord(kind=K.ACTION, content="action"))
    late = store.append(MemoryRecord(kind=K.ANALYSIS, content="late analysis"))
    view = store.retrieve_for_evaluation()
    assert _ids(view) == _ids([task, action, late])
    assert view.parts == ("TASK: task\nACTION: action\nANALYSIS: late analysis",)


# --- well-formed store strategy ---

turn_shapes = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
    min_size=0,
    max_size=4,
)


def build_store(shapes: list[tuple[int, int, int]]) -> MemoryStore:
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="request"))
    store.append(MemoryRecord(kind=K.MANDATORY_REQUIREMENT, content="requirement"))
    for turn, (n, m, evals) in enumerate(shapes):
        for i in range(n):
            store.append(MemoryRecord(kind=K.ANALYSIS, content=f"analysis {turn}.{i}"))
        store.append(MemoryRecord(kind=K.TASK, content=f"task {turn}"))
        for attempt in range(evals):
            for j in range(m):
                store.append(MemoryRecord(kind=K.ACTION, content=f"action {turn}.{attempt}.{j}"))
                store.append(MemoryRecord(kind=K.OBSERVATION, content=f"obs {turn}.{attempt}.{j}"))
            store.append(MemoryRecord(kind=K.EVALUATION, content=f"eval {turn}.{attempt}"))
        store.append(MemoryRecord(kind=K.SUMMARY, content=f"summary {turn}"))
        store.advance_turn()
    return store


@settings(max_examples=60, deadline=None)
@given(shapes=turn_shapes)
def test_retrieval_is_pure_and_reasoning_never_sees_execution(shapes):
    store = build_store(shapes)
    before = list(store.records)
    reasoning = store.retrieve(Phase.REASONING)
    assert store.records == before
    assert all(r.kind not in EXECUTION_KINDS for r in reasoning)
    assert all(r.kind is not K.EVALUATION for r in reasoning)
    seqs = [r.seq for r in reasoning]
    assert seqs == sorted(seqs)


@settings(max_examples=60, deadline=None)
@given(shapes=turn_shapes)
def test_phase_views_cover_the_store(shapes):
    store = build_store(shapes)
    visible = {r.seq for r in store.retrieve(Phase.REASONING)}
    for task in (r for r in store.records if r.kind is K.TASK):
        visible.update(r.seq for r in store.retrieve(Phase.EXECUTION, task))
    visible.update(r.seq for r in store.records if r.kind is K.EVALUATION)
    assert visible == {r.seq for r in store.records}


@settings(max_examples=60, deadline=None)
@given(shapes=turn_shapes)
def test_seq_dense_and_turns_monotonic(shapes):
    store = build_store(shapes)
    assert [r.seq for r in store.records] == list(range(len(store.records)))
    turns = [r.turn for r in store.records]
    assert turns == sorted(turns)


def test_record_count_per_turn():
    # one evaluation and one summary: n + 2m + 3 records in the turn
    for n, m in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        store = build_store([(n, m, 1)])
        assert len([r for r in store.records if r.turn == 0]) - 2 == n + 2 * m + 3  # minus the two singletons


_payload = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=80
).filter(
    lambda s: s == s.strip()
    and s
    and not any(re.match(r"^\s*[A-Z_]+:", line) for line in s.splitlines())
)


@settings(max_examples=100, deadline=None)
@given(payload=_payload)
def test_round_trip_marker_form(payload):
    store = MemoryStore()
    record = store.append(parse_response(f"ANALYSIS: {payload}", K.ANALYSIS))
    assert record.content == payload


@settings(max_examples=100, deadline=None)
@given(payload=_payload)
def test_round_trip_bare_form(payload):
    store = MemoryStore()
    record = store.append(parse_response(payload, K.ANALYSIS))
    assert record.content == payload


# --- transcript ---

def test_transcript_schema_and_round_trip(tmp_path):
    store = build_store([(1, 1, 1), (2, 0, 2)])
    path = export_transcript(store, tmp_path / "t.jsonl")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(store.records)
    first = json.loads(lines[0])
    assert list(first) == ["kind", "content", "turn", "seq", "producer", "token_count"]
    loaded = load_transcript(path)
    assert [r.to_json_dict() for r in loaded] == [r.to_json_dict() for r in store.records]


def test_transcript_utf8(tmp_path):
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="café ✓"))
    path = export_transcript(store, tmp_path / "t.jsonl")
    assert "café" in path.read_text(encoding="utf-8")


@settings(max_examples=60, deadline=None)
@given(shapes=turn_shapes)
def test_linter_accepts_well_formed_stores(shapes):
    store = build_store(shapes)
    assert lint_phase_order(store.records) == []


def test_linter_flags_misordered_turn():
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="request"))
    store.append(MemoryRecord(kind=K.MANDATORY_REQUIREMENT, content="req"))
    store.append(MemoryRecord(kind=K.ACTION, content="act before task"))
    problems = lint_phase_order(store.records)
    assert problems and "phase order" in problems[0]


def test_linter_flags_missing_summary():
    store = MemoryStore()
    store.append(MemoryRecord(kind=K.USER_REQUEST, content="request"))
    store.append(MemoryRecord(kind=K.MANDATORY_REQUIREMENT, content="req"))
    store.append(MemoryRecord(kind=K.ANALYSIS, content="a"))
    store.append(MemoryRecord(kind=K.TASK, content="t"))
    store.append(MemoryRecord(kind=K.EVALUATION, content="pass"))
    assert lint_phase_order(store.records)  # no summary


def test_lint_transcript_file(tmp_path):
    store = build_store([(1, 1, 1)])
    path = export_transcript(store, tmp_path / "t.jsonl")
    assert lint_transcript(path) == []
