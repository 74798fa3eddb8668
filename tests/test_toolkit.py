"""Anchored editing, function replacement, the sandbox, tracing, and patches."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import os
import select
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentloop import toolkit
from agentloop.errors import (
    DriverUnavailable,
    LineOutOfRange,
    NotARepository,
    PatchApplyFailure,
    SpawnFailure,
)
from agentloop.toolkit import (
    TIMEOUT_EXIT,
    EditRequest,
    GitPatch,
    Sandbox,
    Snapshots,
    apply_patch,
    edit_file,
    ensure_repo,
    locate_anchor,
    replace_function,
    run_command,
    run_traced,
    snapshot_patch,
)

from conftest import MAIN_STORE, PRIVATE_STORE, count_git


def write(workdir: Path, name: str, lines: list[str]) -> Path:
    path = workdir / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def req(file="f.txt", start=1, end=1, sa="a", ea="a", new="X") -> EditRequest:
    return EditRequest(
        file=file, start_line=start, end_line=end,
        start_line_string=sa, end_line_string=ea, new_content=new,
    )


# --- edit_file ---

def test_edit_single_line(tmp_path):
    write(tmp_path, "f.txt", ["a", "b", "c"])
    outcome = edit_file(req(start=2, end=2, sa="b", ea="b", new="B"), tmp_path)
    assert outcome.applied
    assert (tmp_path / "f.txt").read_text() == "a\nB\nc\n"


def test_edit_multi_line_range(tmp_path):
    write(tmp_path, "f.txt", ["one", "two", "three", "four"])
    outcome = edit_file(
        req(start=2, end=3, sa="two", ea="three", new="TWO\nTHREE"), tmp_path
    )
    assert outcome.applied
    assert (tmp_path / "f.txt").read_text() == "one\nTWO\nTHREE\nfour\n"


def test_edit_off_by_one_hint(tmp_path):
    lines = [f"line {i}" for i in range(1, 10)] + ["def f():", "    pass"]
    path = write(tmp_path, "f.py", lines)  # "def f():" is line 10
    before = sha(path)
    outcome = edit_file(req(file="f.py", start=9, end=10, sa="def f():", ea="pass"), tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.anchor == "start"
    assert outcome.hint.given_line == 9
    assert outcome.hint.candidate_lines == [10]
    assert sha(path) == before  # untouched on mismatch


def test_edit_duplicate_anchor_candidates(tmp_path):
    lines = ["pad"] * 15
    lines[3] = "needle here"
    lines[11] = "needle here"
    path = write(tmp_path, "f.txt", lines)
    outcome = edit_file(req(file="f.txt", start=7, end=7, sa="needle", ea="pad"), tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.candidate_lines == [4, 12]


def test_edit_end_anchor_mismatch(tmp_path):
    write(tmp_path, "f.txt", ["alpha", "beta", "gamma"])
    outcome = edit_file(req(start=1, end=2, sa="alpha", ea="gamma"), tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.anchor == "end"
    assert outcome.hint.candidate_lines == [3]


def test_edit_line_out_of_range_is_not_mismatch(tmp_path):
    write(tmp_path, "f.txt", ["a", "b"])
    with pytest.raises(LineOutOfRange):
        edit_file(req(start=1, end=5, sa="a", ea="b"), tmp_path)


def test_edit_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        edit_file(req(file="nope.txt"), tmp_path)


def test_edit_request_validation():
    with pytest.raises(ValueError):
        req(start=3, end=2)
    with pytest.raises(ValueError):
        req(sa="")


def test_edit_anchor_strip_both_sides(tmp_path):
    write(tmp_path, "f.txt", ["    indented text    "])
    outcome = edit_file(req(start=1, end=1, sa="  indented text ", ea="indented", new="done"), tmp_path)
    assert outcome.applied


# --- locate_anchor ---

def test_locate_anchor_multiple():
    assert locate_anchor("x\ny\nx\n", "x") == [1, 3]


def test_locate_anchor_absent():
    assert locate_anchor("x\ny", "z") == []


def test_locate_anchor_strips_whitespace():
    assert locate_anchor("x\ny\n", "  y  ") == [2]


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(st.sampled_from(["alpha", "beta", "gamma", "alpha beta"]), min_size=1, max_size=12),
    start=st.integers(1, 12),
    end=st.integers(1, 12),
)
def test_mismatch_never_modifies_and_hint_is_exact(tmp_path_factory, lines, start, end):
    tmp_path = tmp_path_factory.mktemp("corpus")
    path = write(tmp_path, "f.txt", lines)
    if start > end or end > len(lines):
        return
    before = sha(path)
    outcome = edit_file(req(file="f.txt", start=start, end=end, sa="beta", ea="beta"), tmp_path)
    if outcome.status == "mismatch":
        assert sha(path) == before
        failing = outcome.hint
        anchor_line = start if failing.anchor == "start" else end
        assert failing.given_line == anchor_line
        assert failing.candidate_lines == _reference_anchor_lines(path.read_bytes().decode().split("\n"), "beta")


def _reference_anchor_lines(lines: list[str], anchor: str) -> list[int]:
    # the scan as first written: both sides stripped on every line
    return [i + 1 for i, line in enumerate(lines) if anchor.strip() in line.strip()]


def _newline_lines(text: str) -> list[str]:
    # the lines of text as grep numbers them: split at "\n", the empty end of a final "\n" dropped
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


_SPACES = [" ", "\t", "\u3000", "\x85", "\u00a0", "\u2009"]
_ANCHOR_TEXT = st.text(alphabet=st.sampled_from(_SPACES + ["a", "b", "é", "\r"]), max_size=6)


@settings(max_examples=400, deadline=None)
@given(
    text=st.text(alphabet=st.sampled_from(_SPACES + ["\n", "\n", "\r", "\x0c", "a", "b", "é", "x"]), max_size=30),
    anchor=st.one_of(
        _ANCHOR_TEXT,
        st.text(alphabet=st.sampled_from(_SPACES + ["\n", "\r"]), min_size=1, max_size=4),
        st.tuples(_ANCHOR_TEXT, _ANCHOR_TEXT).map("\n".join),
    ),
)
@example(text="aa\na a\nb", anchor="a")  # one hit per line
@example(text="a\nb\n", anchor="a\nb")  # an interior "\n" lies on no line
@example(text="a\n\nb", anchor=" \x85")  # empty after the strip: every line
@example(text="", anchor=" ")
@example(text="a\r\nb\x0cc\n", anchor="b\x0cc")
def test_anchor_lines_equal_a_scan_that_strips_both_sides(text, anchor):
    lines = _newline_lines(text)
    assert locate_anchor(text, anchor) == _reference_anchor_lines(lines, anchor)
    assert [toolkit._anchor_matches(line, anchor) for line in lines] == [
        anchor.strip() in line.strip() for line in lines
    ]


def test_mismatch_reads_the_file_once(tmp_path, monkeypatch):
    write(tmp_path, "f.txt", ["alpha", "beta", "gamma", "beta"])
    reads = []
    real_read = toolkit._read
    monkeypatch.setattr(toolkit, "_read", lambda path: reads.append(path) or real_read(path))
    outcome = edit_file(req(file="f.txt", start=1, end=2, sa="beta", ea="beta"), tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.to_dict() == {"anchor": "start", "given_line": 1, "candidate_lines": [2, 4]}
    assert len(reads) == 1


# --- replace_function ---

PYMOD = [
    "import os",
    "",
    "def add(a, b):",
    "    total = a + b",
    "    return total",
    "",
    "def sub(a, b):",
    "    return a - b",
]


def test_replace_function_block(tmp_path):
    write(tmp_path, "m.py", PYMOD)
    outcome = replace_function("m.py", "def add", "def add(a, b):\n    return a + b", tmp_path)
    assert outcome.applied
    text = (tmp_path / "m.py").read_text()
    assert "total" not in text
    assert "def sub(a, b):" in text and "import os" in text


def test_replace_function_no_match(tmp_path):
    write(tmp_path, "m.py", PYMOD)
    outcome = replace_function("m.py", "def mul", "def mul(): pass", tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.candidate_lines == []


def test_replace_function_ambiguous(tmp_path):
    write(tmp_path, "m.py", PYMOD + ["", "def add_all(xs):", "    return sum(xs)"])
    outcome = replace_function("m.py", "def add", "def add(): pass", tmp_path)
    assert outcome.status == "mismatch"
    assert outcome.hint.candidate_lines == [3, 10]


def test_replace_function_keeps_blank_lines_inside_block(tmp_path):
    write(
        tmp_path,
        "m.py",
        [
            "def f():",
            "    x = 1",
            "",
            "    return x",
            "after = True",
        ],
    )
    outcome = replace_function("m.py", "def f", "def f():\n    return 2", tmp_path)
    assert outcome.applied
    assert (tmp_path / "m.py").read_text() == "def f():\n    return 2\nafter = True\n"


def _reference_block_lines(text: str, begin: int) -> int:
    # the rule as first written: split the whole rest of the text
    lines = text[begin:].split("\n")
    def_indent = len(lines[0]) - len(lines[0].lstrip())
    block = 0
    for i in range(1, len(lines)):
        if not lines[i].strip():
            continue
        if len(lines[i]) - len(lines[i].lstrip()) <= def_indent:
            break
        block = i
    return block


@settings(max_examples=400, deadline=None)
@given(
    text=st.text(alphabet=st.sampled_from(_SPACES + ["\n", "\n", "\n", "\r", "\x0c", "a", "é"]), max_size=40),
    at=st.integers(0, 40),
)
@example(text="def f():\n    x = 1\n\n    return x\nafter\n", at=0)
@example(text="  a\n    b\n  \n c\n", at=0)  # a blank line, then a shallower one
@example(text="a\n b\n b", at=0)  # no final "\n"
@example(text="x\n\ta\n\t\tb\n\tc\nd", at=2)
def test_block_lines_equal_the_rule_that_splits_the_rest_of_the_file(text, at):
    begin = text.rfind("\n", 0, min(at, len(text))) + 1  # where a line begins
    assert toolkit._block_lines(text, begin) == _reference_block_lines(text, begin)


# --- the in-place write ---

def _reference_read_lines(path: Path) -> tuple[list[str], bool]:
    # the read as first written: universal newlines, then str.splitlines
    text = path.read_text(encoding="utf-8")
    return text.splitlines(), text.endswith("\n")


def _reference_write_lines(path: Path, lines: list[str], trailing_newline: bool) -> None:
    # the write as first written (truncate, then write text), except that one empty line is kept
    body = "\n".join(lines)
    if trailing_newline and lines:
        body += "\n"
    path.write_text(body, encoding="utf-8")


@pytest.mark.parametrize("edit", ["edit_file", "replace_function"])
def test_unencodable_content_leaves_the_file_byte_identical(tmp_path, edit):
    path = write(tmp_path, "m.py", PYMOD)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        if edit == "edit_file":
            edit_file(req(file="m.py", start=3, end=3, sa="def add", ea="def add", new="bad \ud800 text"), tmp_path)
        else:
            replace_function("m.py", "def add", "def add():\n    return '\ud800'", tmp_path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("new, cut", [("x = 1", True), ("\n".join(f"line {i} é" for i in range(40)), False)],
                         ids=["shrink", "grow"])
def test_edit_overwrites_in_place_with_the_old_bytes(tmp_path, new, cut):
    path = write(tmp_path, "m.py", PYMOD)
    path.chmod(0o640)
    os.link(path, tmp_path / "alias.py")
    reference = write(tmp_path, "ref.py", PYMOD)
    lines, trailing = _reference_read_lines(reference)
    lines[2:5] = new.splitlines()
    _reference_write_lines(reference, lines, trailing)
    before = path.stat()

    assert edit_file(req(file="m.py", start=3, end=5, sa="def add", ea="return total", new=new), tmp_path).applied

    after = path.stat()
    assert path.read_bytes() == reference.read_bytes()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert (tmp_path / "alias.py").read_bytes() == reference.read_bytes()
    assert (after.st_size < before.st_size) is cut
    assert path.read_bytes().endswith(b"    return a - b\n")


# --- the line model: lines end at b"\n" only, bytes outside the edit are kept ---

def _reference_edit_file(request: EditRequest, workdir: Path) -> toolkit.EditOutcome:
    # edit_file as first written: the whole file split by str.splitlines and rewritten
    path = workdir / request.file
    lines, trailing = _reference_read_lines(path)
    if request.start_line < 1 or request.end_line > len(lines):
        raise LineOutOfRange(f"lines {request.start_line}-{request.end_line} outside file of {len(lines)} lines")
    for which, lineno, anchor in (
        ("start", request.start_line, request.start_line_string),
        ("end", request.end_line, request.end_line_string),
    ):
        if anchor.strip() not in lines[lineno - 1]:
            hint = toolkit.EditHint(which, lineno, _reference_anchor_lines(lines, anchor))
            return toolkit.EditOutcome(status="mismatch", hint=hint)
    lines[request.start_line - 1 : request.end_line] = request.new_content.splitlines()
    _reference_write_lines(path, lines, trailing)
    return toolkit.EditOutcome(status="applied")


def _reference_function_span(lines: list[str], def_idx: int) -> int:
    # replace_function's rule: the block runs through the last line indented deeper than its def
    def_indent = len(lines[def_idx]) - len(lines[def_idx].lstrip())
    last_idx = def_idx
    for i in range(def_idx + 1, len(lines)):
        if not lines[i].strip():
            continue
        if len(lines[i]) - len(lines[i].lstrip()) <= def_indent:
            break
        last_idx = i
    return last_idx


def _reference_replace_function(file: str, signature: str, new_code: str, workdir: Path) -> toolkit.EditOutcome:
    # replace_function as first written, on str.splitlines
    path = workdir / file
    lines, trailing = _reference_read_lines(path)
    candidates = [i + 1 for i, line in enumerate(lines) if line.strip().startswith(signature.strip())]
    if len(candidates) != 1:
        hint = toolkit.EditHint(anchor="signature", given_line=0, candidate_lines=candidates)
        return toolkit.EditOutcome(status="mismatch", hint=hint)
    def_idx = candidates[0] - 1
    lines[def_idx : _reference_function_span(lines, def_idx) + 1] = new_code.splitlines()
    _reference_write_lines(path, lines, trailing)
    return toolkit.EditOutcome(status="applied")


def _result(call) -> tuple:
    try:
        outcome = call()
    except LineOutOfRange as exc:
        return "LineOutOfRange", str(exc)
    return outcome.status, outcome.hint and outcome.hint.to_dict()


_WORDS = ["a", "b", "é", "x = 1", "def a(", "def b(", ":", " ", "    ", "\t", "\u00a0", "\u3000"]
_LINE = st.lists(st.sampled_from(_WORDS), max_size=4).map("".join)
_LF_TEXT = st.tuples(st.lists(_LINE, max_size=8), st.booleans()).map(
    lambda t: "\n".join(t[0]) + ("\n" if t[1] else "")
)
_ANCHOR = st.sampled_from(["a", "b", "é", "x = 1", "def", " a ", " "])
_SIGNATURE = st.sampled_from(["def", "def a", "def b(", "a", " "])
_EDIT_LINES = st.tuples(st.integers(-1, 10), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=400, deadline=None)
@given(text=_LF_TEXT, lines=_EDIT_LINES, sa=_ANCHOR, ea=_ANCHOR, new=_LF_TEXT, signature=_SIGNATURE)
@example(text="\na\n", lines=(2, 2), sa="a", ea="a", new="", signature="def")
@example(text="a\n", lines=(1, 1), sa="a", ea="a", new="\n", signature="def")
@example(text="a\nb", lines=(2, 2), sa="b", ea="b", new="c", signature="def")
@example(text="a\n", lines=(1, 10**20), sa="a", ea="a", new="", signature="def")
@example(text="a\n", lines=(-(10**20), 1), sa="a", ea="a", new="", signature="def")
@example(text="b\na", lines=(1, 1), sa="b", ea="b", new="", signature="def")
@example(text="def f():\n  pass\nx", lines=(1, 1), sa="b", ea="b", new="", signature="def f")
def test_edits_on_newline_only_files_equal_the_splitlines_code(tmp_path_factory, text, lines, sa, ea, new, signature):
    tmp_path = tmp_path_factory.mktemp("lf")
    for name in ("ours.py", "ref.py"):
        (tmp_path / name).write_bytes(text.encode("utf-8"))
    start, end = lines
    ours = req(file="ours.py", start=start, end=end, sa=sa, ea=ea, new=new)
    ref = req(file="ref.py", start=start, end=end, sa=sa, ea=ea, new=new)
    assert _result(lambda: edit_file(ours, tmp_path)) == _result(lambda: _reference_edit_file(ref, tmp_path))
    assert (tmp_path / "ours.py").read_bytes() == (tmp_path / "ref.py").read_bytes()
    assert _result(lambda: replace_function("ours.py", signature, new, tmp_path)) == _result(
        lambda: _reference_replace_function("ref.py", signature, new, tmp_path)
    )
    assert (tmp_path / "ours.py").read_bytes() == (tmp_path / "ref.py").read_bytes()


def _lf_lines(data: bytes) -> list[bytes]:
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _lf_edit(data: bytes, start: int, end: int, new: str) -> bytes:
    # the splitlines code's rules, on lines split only at b"\n"; new lines
    # that replace a line ending in b"\r" end in b"\r\n" as it does
    lines = data.split(b"\n")
    trailing = not lines[-1]
    if trailing:
        lines.pop()
    new_lines = _lf_lines(new.encode("utf-8"))
    if lines[start - 1].endswith(b"\r"):
        new_lines = [line.removesuffix(b"\r") + b"\r" for line in new_lines]
        if new_lines and end == len(lines) and not trailing:  # the file still ends without one
            new_lines[-1] = new_lines[-1][:-1]
    if not new_lines and end == len(lines) and not trailing and start > 1:
        # the line before the removed ones becomes the last and loses its whole ending
        lines[start - 2] = lines[start - 2].removesuffix(b"\r")
    lines[start - 1 : end] = new_lines
    body = b"\n".join(lines)
    return body + b"\n" if trailing and lines else body


def _assert_kept_outside(before: bytes, after: bytes, start: int, end: int, new: str) -> None:
    # every byte before start and after end is kept, with one exception: a
    # file that ended without "\n" and lost its last lines also loses the line
    # ending before them, "\r\n" or "\n"
    assert after == _lf_edit(before, start, end, new)
    lines = _lf_lines(before)
    head = sum(len(line) + 1 for line in lines[: start - 1])
    tail = min(sum(len(line) + 1 for line in lines[:end]), len(before))
    cut = head
    if head and not new and tail == len(before) and not before.endswith(b"\n"):
        cut -= 2 if before[:head].endswith(b"\r\n") else 1
    if after:
        assert after[:cut] == before[:cut]
        assert after.endswith(before[tail:])


_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_MIXED_TEXT = st.lists(st.sampled_from(_WORDS + _BREAKS + ["\n"] * 4), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(text=_MIXED_TEXT, lines=_EDIT_LINES, sa=_ANCHOR, ea=_ANCHOR, new=_MIXED_TEXT, signature=_SIGNATURE)
@example(text="\na\n", lines=(2, 2), sa="a", ea="a", new="", signature="def")
@example(text="a\r\nb", lines=(2, 2), sa="b", ea="b", new="", signature="def")
@example(text="b\na", lines=(1, 1), sa="b", ea="b", new="", signature="def")
@example(text="a\r\nb\r", lines=(1, 2), sa="a", ea="b", new="c\nd\r\n", signature="def")
@example(text="one\r\ntwo", lines=(2, 2), sa="two", ea="two", new="", signature="def")  # leaves b"one"
def test_only_newline_ends_a_line_and_bytes_outside_the_edit_are_kept(
    tmp_path_factory, text, lines, sa, ea, new, signature
):
    tmp_path = tmp_path_factory.mktemp("mixed")
    path = tmp_path / "f.py"
    before = text.encode("utf-8")
    path.write_bytes(before)
    plain = [line.decode("utf-8") for line in _lf_lines(before)]
    start, end = lines
    for anchor in (sa, ea):
        assert locate_anchor(text, anchor) == _reference_anchor_lines(plain, anchor)

    result = _result(lambda: edit_file(req(file="f.py", start=start, end=end, sa=sa, ea=ea, new=new), tmp_path))
    if start < 1 or end > len(plain):
        assert result == ("LineOutOfRange", f"lines {start}-{end} outside file of {len(plain)} lines")
    elif sa.strip() not in plain[start - 1]:
        assert result == ("mismatch", {"anchor": "start", "given_line": start, "candidate_lines": _reference_anchor_lines(plain, sa)})
    elif ea.strip() not in plain[end - 1]:
        assert result == ("mismatch", {"anchor": "end", "given_line": end, "candidate_lines": _reference_anchor_lines(plain, ea)})
    else:
        assert result == ("applied", None)
    if result[0] != "applied":
        assert path.read_bytes() == before
        return
    _assert_kept_outside(before, path.read_bytes(), start, end, new)

    before = path.read_bytes()
    plain = [line.decode("utf-8") for line in _lf_lines(before)]
    candidates = [i + 1 for i, line in enumerate(plain) if line.strip().startswith(signature.strip())]
    outcome = replace_function("f.py", signature, new, tmp_path)
    if len(candidates) != 1:
        assert outcome.hint.candidate_lines == candidates
        assert path.read_bytes() == before
        return
    last = _reference_function_span(plain, candidates[0] - 1) + 1
    assert outcome.applied
    _assert_kept_outside(before, path.read_bytes(), candidates[0], last, new)


@pytest.mark.parametrize(
    "before, line, anchor, new, after",
    [
        (b"a = 1\n\x0c\nb = 2\nc = 3\n", 4, "c = 3", "c = 4", b"a = 1\n\x0c\nb = 2\nc = 4\n"),
        (b"one\r\ntwo\r\nthree\r\n", 2, "two", "TWO", b"one\r\nTWO\r\nthree\r\n"),
        ("x = '\u2028'\ny = 2\n".encode(), 2, "y = 2", "y = 3", "x = '\u2028'\ny = 3\n".encode()),
    ],
    ids=["form_feed", "crlf", "line_separator_in_a_string"],
)
def test_an_edit_numbers_lines_as_grep_does_and_keeps_other_bytes(tmp_path, before, line, anchor, new, after):
    path = tmp_path / "m.py"
    path.write_bytes(before)
    hint = edit_file(req(file="m.py", start=1, end=1, sa=anchor, ea=anchor), tmp_path).hint
    assert hint.candidate_lines == _reference_anchor_lines(before.decode().split("\n"), anchor) == [line]
    assert edit_file(req(file="m.py", start=line, end=line, sa=anchor, ea=anchor, new=new), tmp_path).applied
    assert path.read_bytes() == after


@pytest.mark.parametrize(
    "before, start, end, new, after",
    [
        (b"one\r\ntwo\r\nthree\r\n", 2, 2, "A\nB", b"one\r\nA\r\nB\r\nthree\r\n"),
        (b"one\r\ntwo\r\nthree\r\n", 2, 2, "A\r\nB\r\n", b"one\r\nA\r\nB\r\nthree\r\n"),
        (b"one\r\ntwo\r\nthree", 2, 3, "X\nY", b"one\r\nX\r\nY"),
        (b"one\r\ntwo\nthree\r\n", 2, 2, "A\nB", b"one\r\nA\nB\nthree\r\n"),
    ],
    ids=["lf_content", "crlf_content", "no_final_line_ending", "lf_line_in_a_crlf_file"],
)
def test_new_lines_end_as_the_first_line_they_replace(tmp_path, before, start, end, new, after):
    path = tmp_path / "m.txt"
    path.write_bytes(before)
    lines = before.decode().split("\n")
    sa, ea = lines[start - 1].strip(), lines[end - 1].strip()
    assert edit_file(req(file="m.txt", start=start, end=end, sa=sa, ea=ea, new=new), tmp_path).applied
    assert path.read_bytes() == after


def test_replace_function_keeps_a_crlf_files_line_endings(tmp_path):
    path = tmp_path / "m.py"
    path.write_bytes(b"def f():\r\n    return 1\r\n\r\nx = f()\r\n")
    assert replace_function("m.py", "def f", "def f():\n    return 2\n", tmp_path).applied
    assert path.read_bytes() == b"def f():\r\n    return 2\r\n\r\nx = f()\r\n"


@pytest.mark.parametrize(
    "before, edit",
    [
        (b"\na\n", lambda path: edit_file(req(file=path.name, start=2, end=2, new=""), path.parent)),
        (b"a\n", lambda path: edit_file(req(file=path.name, new="\n"), path.parent)),
        (b"def f():\n  pass\n", lambda path: replace_function(path.name, "def f", "\n", path.parent)),
    ],
    ids=["delete_line_2", "replace_with_an_empty_line", "replace_function"],
)
def test_an_edit_that_leaves_one_empty_line_keeps_it(tmp_path, before, edit):
    path = tmp_path / "m.py"
    path.write_bytes(before)
    assert edit(path).applied
    assert path.read_bytes() == b"\n"  # one line, as `grep -c ''` counts it


def test_an_edit_after_the_workdir_is_repointed_by_a_symlink_is_refused(tmp_path):
    workdir = tmp_path / "work"
    workdir.mkdir()
    (workdir / "f.txt").write_bytes(b"a\n")
    sandbox = Sandbox(workdir)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "f.txt").write_bytes(b"a\n")
    workdir.rename(tmp_path / "moved")
    workdir.symlink_to(outside)  # the sandbox's root path now leads outside it
    with pytest.raises(SpawnFailure, match="escapes the sandbox"):
        edit_file(req(start=1, end=1, sa="a", ea="a"), sandbox.workdir)
    assert (outside / "f.txt").read_bytes() == b"a\n"


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\nb\n\xff\n")
    with pytest.raises(UnicodeDecodeError):
        edit_file(req(start=1, end=1, sa="a", ea="a"), tmp_path)
    assert path.read_bytes() == b"a\nb\n\xff\n"


@pytest.fixture(params=["proc_fd", "no_o_path", "no_proc_fd"])
def edit_open(request, monkeypatch):
    """Run a test on each way an edit opens its target: through an O_PATH
    descriptor read back from /proc/self/fd, and by path where there is no
    O_PATH or /proc/self/fd cannot be read."""
    if request.param == "no_o_path":
        monkeypatch.setattr(toolkit, "_FD_DIR", None)
    elif request.param == "no_proc_fd":
        monkeypatch.setattr(toolkit, "_FD_DIR", "/nonexistent-fd-dir/")
    return request.param


_EDITS = {
    "edit_file": lambda name, workdir: edit_file(req(file=name, sa="a", ea="a"), workdir),
    "replace_function": lambda name, workdir: replace_function(name, "a", "b", workdir),
}


@pytest.mark.parametrize("edit", _EDITS)
@pytest.mark.parametrize("target", ["../outside.txt", "../missing.txt", "link.txt", "sub/../../outside.txt"])
def test_an_edit_target_outside_the_workdir_is_refused(tmp_path, edit_open, edit, target):
    workdir = tmp_path / "work"
    (workdir / "sub").mkdir(parents=True)
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"a\n")
    (workdir / "link.txt").symlink_to(outside)  # inside the workdir, leading out of it
    with pytest.raises(SpawnFailure, match="escapes the sandbox"):
        _EDITS[edit](target, workdir)
    assert outside.read_bytes() == b"a\n"
    assert not (tmp_path / "missing.txt").exists()


@pytest.mark.parametrize("edit", _EDITS)
def test_an_edit_of_a_directory_or_a_missing_file_is_file_not_found(tmp_path, edit_open, edit):
    (tmp_path / "dir").mkdir()
    for target in ("dir", ".", "missing.txt", "dir/missing.txt"):
        with pytest.raises(FileNotFoundError):
            _EDITS[edit](target, tmp_path)


@pytest.mark.parametrize("edit", _EDITS)
def test_an_edit_of_a_fifo_is_file_not_found_without_blocking(tmp_path, edit_open, edit):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    raised = []

    def attempt():
        try:
            _EDITS[edit]("pipe", tmp_path)
        except BaseException as exc:  # noqa: BLE001 - handed to the test thread
            raised.append(exc)

    worker = threading.Thread(target=attempt, daemon=True)
    worker.start()
    worker.join(timeout=5)
    if worker.is_alive():  # blocked opening the FIFO: let it go before failing
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        worker.join(timeout=5)
        pytest.fail("the edit blocked on a FIFO")
    assert len(raised) == 1 and isinstance(raised[0], FileNotFoundError)


@pytest.mark.parametrize("edit", _EDITS)
def test_an_edit_inside_the_workdir_applies_on_each_way_of_opening(tmp_path, edit_open, edit):
    (tmp_path / "sub").mkdir()
    path = tmp_path / "sub" / "f.txt"
    path.write_bytes(b"a\nc\n")
    (tmp_path / "link.txt").symlink_to("sub/f.txt")  # a symlink that stays inside
    assert _EDITS[edit]("link.txt", tmp_path).applied
    assert path.read_bytes() == (b"X\nc\n" if edit == "edit_file" else b"b\nc\n")


def _reference_span(data: bytes, start: int, end: int) -> tuple[int, int, int] | None:
    # the split the chunked line finder replaces: (first line's offset, last
    # line's offset, just past the last line), or None outside the file
    parts = data.split(b"\n", end)
    if start < 1 or (len(parts) <= end and end > len(parts) - (not parts[-1])):
        return None
    head = sum(len(part) + 1 for part in parts[: start - 1])
    last = sum(len(part) + 1 for part in parts[: end - 1])
    return head, last, min(last + len(parts[end - 1]) + 1, len(data))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.sampled_from(["", "a", "bc", "\r", "d\r", "efgh", "x = 1", "é"]), max_size=30),
    final_newline=st.booleans(),
    chunk=st.integers(1, 12),
    start=st.integers(-1, 32),
    length=st.integers(0, 8),
)
@example(lines=["ab", "cd", "ef"], final_newline=False, chunk=3, start=2, length=1)  # "\n" at a chunk edge
@example(lines=["a\r", "b\r", "c\r"], final_newline=True, chunk=2, start=1, length=2)
def test_the_chunked_line_finder_equals_a_split(lines, final_newline, chunk, start, length):
    data = "\n".join(lines).encode("utf-8") + (b"\n" if final_newline and lines else b"")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(toolkit, "_LINE_CHUNK", chunk)
        assert toolkit._line_span(data, start, start + length) == _reference_span(data, start, start + length)


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("final", [True, False], ids=["final_newline", "no_final_newline"])
def test_edits_across_chunk_edges_of_a_large_file_equal_the_split_rules(tmp_path, ending, final):
    lines = [f"line {i:05d} " + "x" * (i % 61) for i in range(1, 3001)]
    data = (ending.join(lines) + (ending if final else "")).encode("utf-8")
    assert len(data) > 8 * toolkit._LINE_CHUNK
    path = tmp_path / "big.txt"
    starts = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
    edge_lines = sorted({bisect.bisect_right(starts, k * toolkit._LINE_CHUNK) for k in range(1, 8)})
    for line in edge_lines + [len(lines)]:  # the line that holds a chunk edge, and the last line
        for start, end in ((line, line), (line - 1, line), (line, min(line + 1, len(lines)))):
            path.write_bytes(data)
            sa, ea = lines[start - 1], lines[end - 1]
            outcome = edit_file(req(file="big.txt", start=start, end=end, sa=sa, ea=ea, new="new\nlines"), tmp_path)
            assert outcome.applied
            assert path.read_bytes() == _lf_edit(data, start, end, "new\nlines")


def test_short_reads_and_writes_go_on_to_the_end(tmp_path, monkeypatch):
    path = write(tmp_path, "f.txt", [f"line {i}" for i in range(50)])
    expected = _lf_edit(path.read_bytes(), 3, 4, "X\nY\nZ")
    real_read, real_pwritev = os.read, os.pwritev

    def short_pwritev(fd, buffers, offset):
        first = next((buffer for buffer in buffers if len(buffer)), b"")
        return real_pwritev(fd, [memoryview(first)[:5]], offset)

    monkeypatch.setattr(os, "read", lambda fd, size: real_read(fd, min(size, 7)))
    monkeypatch.setattr(os, "pwritev", short_pwritev)
    assert edit_file(req(start=3, end=4, sa="line 2", ea="line 3", new="X\nY\nZ"), tmp_path).applied
    monkeypatch.undo()
    assert path.read_bytes() == expected


_UNICODE_SPACES = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u00a0", "\u2009", "\u2028", "\u3000"]


@settings(max_examples=400, deadline=None)
@given(
    text=st.lists(st.sampled_from(_UNICODE_SPACES + ["\n", "\n", "def", "def f", "(", "x", "é"]), max_size=30).map("".join),
    signature=st.one_of(
        st.lists(st.sampled_from(_UNICODE_SPACES + ["def", " f", "(", "x"]), max_size=4).map("".join),
        st.sampled_from(["", " ", "def\nf", "f\n", "\r"]),
    ),
)
@example(text="def f\n", signature="")  # empty: every line, and the end of the file is not one
@example(text="a\ndef f", signature="a\ndef")  # an interior "\n" lies on no line
@example(text="\u3000\x85def f(x)\n\rdef f\n", signature="def f")
def test_signature_lines_equal_a_per_line_strip(text, signature):
    wanted = signature.strip()
    reference = [i + 1 for i, line in enumerate(_newline_lines(text)) if line.strip().startswith(wanted)]
    hits = toolkit._signature_lines(text, wanted)
    assert [line for line, _ in hits] == reference
    for line, begin in hits:
        assert begin == sum(len(part) + 1 for part in text.split("\n")[: line - 1])


# --- sandbox / run_command ---

def _live_members(group: int) -> list[int]:
    # the processes of the group that have not exited (a zombie awaits only its reaper)
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[2]) == group and fields[0] != "Z":
            members.append(int(entry.name))
    return members


@pytest.fixture(autouse=True)
def command_groups(monkeypatch):
    """The process groups of the commands the test runs, one per shell.

    Fails the test if one of them still has a live member a second after the
    test ends, so a command that leaves an orphan behind fails it."""
    groups: list[int] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("start_new_session"):
                groups.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    yield groups
    if not groups or not Path("/proc/self/stat").is_file():
        return
    deadline = time.monotonic() + 1
    while any(map(_live_members, groups)) and time.monotonic() < deadline:
        time.sleep(0.02)
    orphans = {group: _live_members(group) for group in groups if _live_members(group)}
    if orphans:
        pytest.fail(f"command groups left with live members: {orphans}")


@pytest.fixture(params=["pidfd", "no_pidfd"])
def wait_kind(request, monkeypatch):
    """Run the test with the pidfd wait and with its fallback."""
    if request.param == "no_pidfd":
        def unavailable(pid, flags=0):
            raise OSError(38, "Function not implemented")

        monkeypatch.setattr(os, "pidfd_open", unavailable, raising=False)
    return request.param


def test_run_command_echo(tmp_path):
    result = run_command("echo hi", Sandbox(tmp_path))
    assert result.exit_status == 0
    assert "hi" in result.output


def test_run_command_timeout(tmp_path, wait_kind):
    result = run_command("sleep 30", Sandbox(tmp_path, timeout=0.4))
    assert result.timed_out
    assert result.exit_status == TIMEOUT_EXIT
    assert "timed out" in result.output


def test_run_command_times_out_a_command_that_closed_its_output(tmp_path, wait_kind):
    result = run_command("exec >&-; sleep 5", Sandbox(tmp_path, timeout=0.5))
    assert result.timed_out
    assert result.exit_status == TIMEOUT_EXIT


def test_run_command_times_out_a_command_that_keeps_writing(tmp_path, wait_kind):
    started = time.monotonic()
    result = run_command("while :; do echo tick; sleep 0.01; done", Sandbox(tmp_path, timeout=0.5))
    assert time.monotonic() - started < 5
    assert result.timed_out
    assert result.exit_status == TIMEOUT_EXIT
    assert result.output.startswith("tick\n")


def test_run_command_times_out_a_command_that_writes_at_full_speed(tmp_path, wait_kind):
    # the pipe is always readable, so only a deadline checked before every read ends the wait
    started = time.monotonic()
    result = run_command("yes", Sandbox(tmp_path, timeout=0.5, output_limit=1024))
    assert time.monotonic() - started < 0.5 + 1
    assert result.timed_out
    assert result.output.startswith("y\ny\n")
    assert "[output truncated at 1024 bytes]" in result.output


def test_run_command_kills_process_tree(tmp_path):
    # the child spawns a grandchild; the group kill must take both
    result = run_command("sh -c 'sleep 30' & sleep 30", Sandbox(tmp_path, timeout=0.4))
    assert result.timed_out


def test_a_background_child_ends_with_its_shell(tmp_path):
    started = time.monotonic()
    result = run_command("sleep 3 & echo hi", Sandbox(tmp_path, timeout=5))
    assert time.monotonic() - started < 1
    assert (result.exit_status, result.timed_out, result.output) == (0, False, "hi\n")
    # command_groups checks that the sleep is gone


def test_a_background_writer_ends_with_its_shell(tmp_path):
    started = time.monotonic()
    result = run_command("yes & echo hi", Sandbox(tmp_path, timeout=2, output_limit=1024))
    assert time.monotonic() - started < 2
    assert result.exit_status == 0 and not result.timed_out
    assert "hi\n" in result.output


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads process groups from /proc")
def test_run_command_kills_its_group_when_interrupted(tmp_path, monkeypatch, command_groups):
    def interrupted(self, deadline, pidfd=-1, drain=False):
        time.sleep(0.3)  # the command is running
        raise KeyboardInterrupt

    monkeypatch.setattr(toolkit._Pipes, "pump", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command("sleep 7 && echo x", Sandbox(tmp_path, timeout=10))
    shells = command_groups
    deadline = time.monotonic() + 1
    while _live_members(shells[0]) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert _live_members(shells[0]) == []


def test_run_command_truncation(tmp_path, wait_kind):
    sandbox = Sandbox(tmp_path, output_limit=1024)
    result = run_command("head -c 100000 /dev/zero | tr '\\0' 'x'", sandbox)
    assert "[output truncated at 1024 bytes]" in result.output
    assert len(result.output) < 2000


def test_truncated_output_equals_a_cut_of_the_whole_output(tmp_path, wait_kind):
    sandbox = Sandbox(tmp_path, output_limit=70000)
    result = run_command("seq 100000", sandbox)
    whole = "".join(f"{i}\n" for i in range(1, 100001)).encode()
    assert result.output == toolkit._truncate(whole, 70000)


@pytest.mark.parametrize("cmd, timeout", [("head -c 67108864 /dev/zero", 30), ("yes", 0.5)])
def test_run_command_memory_stays_near_the_output_limit(tmp_path, cmd, timeout):
    # measured in a child interpreter, whose peak RSS holds nothing else
    limit = 1 << 20
    code = (
        "import resource, sys\n"
        "from agentloop.toolkit import Sandbox, run_command\n"
        f"sandbox = Sandbox(sys.argv[1], timeout={timeout}, output_limit={limit})\n"
        "run_command('echo warm', sandbox)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"result = run_command({cmd!r}, sandbox)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) * 1024, len(result.output))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(toolkit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    grown, kept = map(int, done.stdout.split())
    assert limit < kept < limit + 100
    assert grown < 5 * limit


def test_run_command_gives_a_command_no_stdin(tmp_path):
    # the child's stdin is a pipe this test keeps open, as an operator's terminal would be
    code = (
        "import sys, time\n"
        "from agentloop.toolkit import Sandbox, run_command\n"
        "started = time.monotonic()\n"
        "result = run_command('cat', Sandbox(sys.argv[1], timeout=5))\n"
        "print(result.exit_status, result.timed_out, time.monotonic() - started < 2.5)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(toolkit.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", code, str(tmp_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        assert child.stdout.readline().split() == ["0", "False", "True"]
    finally:
        child.stdin.close()
        child.stdout.close()
        child.wait(timeout=10)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts descriptors in /proc")
def test_commands_and_git_leave_no_descriptor_open(tmp_path, wait_kind):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    sandbox = Sandbox(repo)
    before = len(os.listdir("/proc/self/fd"))
    with closing(Snapshots(repo)) as snapshots:
        for turn in range(3):
            run_command("echo hi", sandbox)
            run_command("sleep 3 & echo hi", dataclasses.replace(sandbox, timeout=0.5))
            run_command("exec >&-; sleep 5", dataclasses.replace(sandbox, timeout=0.2))
            (repo / "new.txt").write_text(f"{turn}\n")
            snapshot_patch(snapshots, base)
            with pytest.raises(PatchApplyFailure):  # git reads the patch from a pipe
                apply_patch(GitPatch(text="not a patch\n", base_revision=base), repo)
    assert len(os.listdir("/proc/self/fd")) == before


def test_run_command_empty(tmp_path):
    with pytest.raises(SpawnFailure):
        run_command("   ", Sandbox(tmp_path))


def test_scrubbed_env_equals_a_filter_of_the_whole_environment(tmp_path, monkeypatch):
    for name in ("HOME", "LANG", "TERM"):
        monkeypatch.setenv(name, f"{name.lower()}-value")
    for name in ("LC_ALL", "PYTHONPATH", "USER"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("AGENTLOOP_API_KEY", "secret")
    monkeypatch.setenv("PATHLIKE", "not allowlisted")
    env = Sandbox(tmp_path).scrubbed_env()
    expected = {k: v for k, v in os.environ.items() if k in toolkit._ENV_ALLOWLIST}
    assert env == {**expected, "PYTHONDONTWRITEBYTECODE": "1"}
    assert env["HOME"] == "home-value" and "USER" not in env and "AGENTLOOP_API_KEY" not in env


def test_run_command_rejects_parent_escape(tmp_path):
    with pytest.raises(SpawnFailure):
        run_command("cat ../secret.txt", Sandbox(tmp_path))
    with pytest.raises(SpawnFailure):
        run_command("ls sub/../../..", Sandbox(tmp_path))


def test_run_command_allows_absolute_and_inner_paths(tmp_path):
    (tmp_path / "sub").mkdir()
    result = run_command("ls /usr > /dev/null && ls sub", Sandbox(tmp_path))
    assert result.exit_status == 0


def _tokenizing_verdict(cmd: str) -> str | None:
    # the policy as it was before its fast path: every command is tokenized
    try:
        tokens = shlex.split(cmd)
    except ValueError:
        tokens = cmd.split()
    for token in tokens:
        if not token.startswith("/") and (token == ".." or token.startswith("../") or "/../" in token):
            return token
    return None


@settings(max_examples=1500, deadline=None)
@given(cmd=st.text(alphabet="./'\"\\ \nab", max_size=40))
@example(cmd="cat .'.'/x")  # quotes split the dots in the text but not in the token
@example(cmd='ls .\\./x')  # so does an escaping backslash
@example(cmd='ls ".\\./x"')  # inside double quotes that backslash stays in the token
@example(cmd="cat '../x")  # an unclosed quote: the policy splits on whitespace
def test_path_policy_equals_the_tokenizing_policy(cmd):
    sandbox = Sandbox(Path.cwd())  # the policy reads only the command
    if _tokenizing_verdict(cmd) is None:
        sandbox.check_path_policy(cmd)
    else:
        with pytest.raises(SpawnFailure, match="parent escape"):
            sandbox.check_path_policy(cmd)


def test_env_is_scrubbed(tmp_path, monkeypatch):
    monkeypatch.setenv("AGENTLOOP_SECRET_TOKEN", "do-not-leak")
    result = run_command("printenv AGENTLOOP_SECRET_TOKEN", Sandbox(tmp_path))
    assert result.exit_status != 0
    assert "do-not-leak" not in result.output


def test_cwd_is_workdir(tmp_path):
    (tmp_path / "marker.txt").write_text("here\n")
    result = run_command("ls", Sandbox(tmp_path))
    assert "marker.txt" in result.output


# --- run_traced ---

TRACED_SCRIPT = """\
def f():
    return 1

def g():
    raise ValueError("boom")

def main():
    f()
    g()

main()
"""


def test_run_traced_records_calls_despite_error(tmp_path):
    (tmp_path / "prog.py").write_text(TRACED_SCRIPT)
    report = run_traced("python3 prog.py", Sandbox(tmp_path))
    assert [c.function for c in report.calls] == ["main", "f", "g"]
    assert report.exit_status != 0
    assert all(c.file.startswith(str(tmp_path)) for c in report.calls)


def test_run_traced_empty_script(tmp_path):
    (tmp_path / "empty.py").write_text("")
    report = run_traced("python3 empty.py", Sandbox(tmp_path))
    assert report.calls == []
    assert report.exit_status == 0


def test_run_traced_driver_unavailable(tmp_path):
    with pytest.raises(DriverUnavailable):
        run_traced("echo not-python", Sandbox(tmp_path))


def test_run_traced_filters_out_of_tree_frames(tmp_path):
    (tmp_path / "prog.py").write_text("import json\njson.dumps({'a': 1})\n")
    report = run_traced("python3 prog.py", Sandbox(tmp_path))
    assert report.exit_status == 0
    assert report.calls == []  # stdlib frames live outside the workdir


# --- git patches ---

def _base_repo(path: Path) -> str:
    path.mkdir(exist_ok=True)
    (path / "keep.txt").write_text("keep\n")
    return ensure_repo(path)[0]


def test_git_missing_from_path_is_file_not_found(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))  # a directory that holds no git
    with pytest.raises(FileNotFoundError):
        toolkit._git(tmp_path, "rev-parse", "HEAD")


def _git_environ(snapshots: Snapshots) -> dict[str, str]:
    # what a git process needs to read the trees of an open Snapshots
    return {**os.environ, **{os.fsdecode(k): os.fsdecode(v) for k, v in snapshots.git_env().items()}}


def test_snapshot_contains_new_file(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "add.py").write_text("def add(a, b):\n    return a + b\n")
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    assert "+++ b/add.py" in patch.text
    assert "+def add(a, b):" in patch.text


def test_snapshot_empty_when_clean(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    assert patch.empty


def test_snapshot_leaves_worktree_status_clean(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    with closing(Snapshots(repo)) as snapshots:
        snapshot_patch(snapshots, base)
    staged = subprocess.run(
        ["git", "-C", str(repo), "diff", "--cached", "--name-only"],
        capture_output=True, text=True,
    ).stdout
    assert staged.strip() == ""


def test_snapshot_keeps_staged_changes(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "keep.txt").write_text("staged\n")
    subprocess.run(["git", "-C", str(repo), "add", "keep.txt"], check=True)
    (repo / "new.txt").write_text("x\n")
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    assert "+++ b/new.txt" in patch.text and "+staged" in patch.text
    staged = subprocess.run(
        ["git", "-C", str(repo), "diff", "--cached", "--name-only"],
        capture_output=True, text=True,
    ).stdout
    assert staged.split() == ["keep.txt"]


def test_snapshot_from_previous_tree_holds_only_later_changes(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "first.txt").write_text("1\n")
    with closing(Snapshots(repo)) as snapshots:
        first = snapshot_patch(snapshots, base)
        (repo / "second.txt").write_text("2\n")
        (repo / "keep.txt").unlink()
        second = snapshot_patch(snapshots, first.tree)
        assert "+++ b/first.txt" in first.text
        assert "first.txt" not in second.text
        assert "+++ b/second.txt" in second.text and "--- a/keep.txt" in second.text
        assert snapshot_patch(snapshots, second.tree).empty
        whole = snapshot_patch(snapshots, base)
        assert whole.tree == second.tree
        assert all(name in whole.text for name in ("first.txt", "second.txt", "keep.txt"))
    assert not (repo / ".git" / "agentloop").exists()


def test_snapshot_skips_the_diff_when_nothing_changed_since_a_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    with closing(Snapshots(repo)) as snapshots:
        first = snapshot_patch(snapshots, base)
        commands = count_git(monkeypatch)
        again = snapshot_patch(snapshots, first.tree)
    assert again.empty and again.tree == first.tree
    assert commands == ["add", "write-tree"]
    assert commands.stores == [PRIVATE_STORE] * 2


def test_snapshot_writes_its_objects_uncompressed(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    blob = b"the same line\n" * 1000
    (repo / "big.txt").write_bytes(blob)
    with closing(Snapshots(repo)) as snapshots:
        tree = snapshot_patch(snapshots, base).tree
        oid = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", f"{tree}:big.txt"],
            capture_output=True, text=True, check=True, env=_git_environ(snapshots),
        ).stdout.strip()
        loose = repo / PRIVATE_STORE / oid[:2] / oid[2:]
        assert loose.stat().st_size >= len(blob)


def test_snapshot_from_a_given_tree_runs_only_the_diff(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    with closing(Snapshots(repo)) as snapshots:
        first = _snapshot_with_no_diff_process(snapshots, base)
        commands = count_git(monkeypatch)
        again = snapshot_patch(snapshots, base, tree=first.tree)
        assert (again.text, again.tree) == (first.text, first.tree)
        assert snapshot_patch(snapshots, first.tree, tree=first.tree).empty
    assert commands == ["diff-tree"]
    assert commands.stores == [PRIVATE_STORE]


def test_snapshot_patch_ignores_the_users_diff_config(tmp_path, monkeypatch):
    config = tmp_path / "gitconfig"
    config.write_text('[diff]\n\tnoprefix = true\n\texternal = false\n[diff "shout"]\n\ttextconv = tr a-z A-Z\n')
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / ".git" / "info").mkdir(exist_ok=True)
    (repo / ".git" / "info" / "attributes").write_text("*.txt diff=shout\n")
    clean = tmp_path / "clean"
    shutil.copytree(repo, clean)
    (repo / "keep.txt").write_text("keep\nmore\n")
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    assert "diff --git a/keep.txt b/keep.txt" in patch.text and "+more" in patch.text
    apply_patch(patch, clean)
    assert (clean / "keep.txt").read_text() == "keep\nmore\n"


def test_snapshot_patch_ignores_the_repositorys_context_and_rename_config(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "lines.txt").write_text("".join(f"line {i}\n" for i in range(1, 11)))
    (repo / "old.txt").write_text("".join(f"row {i}\n" for i in range(1, 21)))
    base, _ = ensure_repo(repo)
    for setting in ("diff.context=1", "diff.renames=false"):
        subprocess.run(["git", "-C", str(repo), "config", *setting.split("=")], check=True)
    (repo / "lines.txt").write_text((repo / "lines.txt").read_text().replace("line 5\n", "LINE 5\n"))
    (repo / "old.txt").rename(repo / "new.txt")
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base).text
    # git's defaults: three lines of context and rename detection
    assert "@@ -2,7 +2,7 @@ line 1\n line 2\n line 3\n line 4\n-line 5\n+LINE 5\n" in patch
    assert "rename from old.txt\nrename to new.txt\n" in patch


# --- the run-long diff process ---

def _spawned_diff(snapshots: Snapshots, since: str, tree: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(snapshots.workdir), "diff-tree", "-p", "-M", since, tree],
        capture_output=True, check=True, env=_git_environ(snapshots),
    ).stdout


def _snapshot_with_no_diff_process(snapshots: Snapshots, since: str):
    """A snapshot's patch, after which no diff process runs: a failed
    request ends the one that served it."""
    patch = snapshot_patch(snapshots, since)
    with pytest.raises(NotARepository):
        snapshots.diff(since, "0" * len(since))
    return patch


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


_NAMES = ["a.txt", "with space.txt", "é.txt", "日本 語.md", "dir/b.py", "dir/sub dir/c.bin", "crlf.txt", "raw"]
_LINES = st.lists(st.sampled_from(["alpha", "beta", "gamma é", "", "delta\tx", "same line"]), max_size=8)
_CONTENT = st.one_of(
    _LINES.map(lambda lines: "".join(line + "\n" for line in lines).encode()),
    _LINES.map(lambda lines: "".join(line + "\r\n" for line in lines).encode()),  # CRLF
    _LINES.map(lambda lines: "\n".join(lines).encode()),  # no final newline
    st.binary(max_size=40).map(lambda data: b"\x00" + data),  # binary
    _LINES.map(lambda lines: "".join(line + "\n" for line in lines).encode("latin-1")),  # not UTF-8
)


def _step(names: list[str]):
    """Files written, each with its executable bit; renames; deletions."""
    name = st.sampled_from(names)
    files = st.dictionaries(name, st.tuples(_CONTENT, st.booleans()), max_size=5)
    return files, st.tuples(files, st.lists(st.tuples(name, name), max_size=2), st.lists(name, max_size=2))


_WORKTREE, _STEP = _step(_NAMES)


def _write_files(root: Path, files: dict) -> None:
    for name, (data, executable) in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        path.chmod(0o755 if executable else 0o644)


def _change(root: Path, files: dict, renames: list, deletions: list) -> None:
    for old, new in renames:
        if (root / old).is_file() and old != new:
            (root / new).parent.mkdir(parents=True, exist_ok=True)
            (root / old).rename(root / new)
    for name in deletions:
        (root / name).unlink(missing_ok=True)
    _write_files(root, files)


@settings(max_examples=30, deadline=None)
@given(base=_WORKTREE, steps=st.lists(_STEP, min_size=1, max_size=3))
def test_differ_patches_equal_spawned_diff_tree(base, steps):
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp) / "repo"
        repo.mkdir()
        _write_files(repo, base)
        trees = [ensure_repo(repo)[0]]
        with closing(Snapshots(repo)) as snapshots:
            for files, renames, deletions in steps:
                _change(repo, files, renames, deletions)
                patch = snapshot_patch(snapshots, trees[-1])
                assert patch.data == _spawned_diff(snapshots, trees[-1], patch.tree)
                trees.append(patch.tree)
            # every pair of the run's trees, in both directions, through one process
            for since in trees:
                for tree in trees:
                    if since != tree:
                        assert snapshots.diff(since, tree).encode("utf-8", "surrogateescape") == _spawned_diff(
                            snapshots, since, tree
                        )
    _assert_no_child()


# ignored by the .gitignore below, or by the lines ensure_repo adds to .git/info/exclude
_IGNORING_WORKTREE, _IGNORING_STEP = _step(_NAMES + ["build.log", "dir/out.log", "__pycache__/m.pyc", "dir/m.pyc"])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(base=_IGNORING_WORKTREE, steps=st.lists(_IGNORING_STEP, min_size=1, max_size=3))
def test_snapshot_trees_equal_write_tree_in_a_plain_copy(base, steps):
    # the private index and object directory give the tree that git add -A
    # and git write-tree give in the repository itself
    with tempfile.TemporaryDirectory() as tmp:
        repo, copy = Path(tmp) / "repo", Path(tmp) / "copy"
        repo.mkdir()
        (repo / ".gitignore").write_text("*.log\n")
        _write_files(repo, base)
        tree, _ = ensure_repo(repo)
        with closing(Snapshots(repo)) as snapshots:
            for files, renames, deletions in steps:
                _change(repo, files, renames, deletions)
                tree = snapshot_patch(snapshots, tree).tree
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(repo, copy, symlinks=True, ignore=shutil.ignore_patterns("agentloop"))
                subprocess.run(["git", "-C", str(copy), "add", "-A"], check=True)
                plain = subprocess.run(
                    ["git", "-C", str(copy), "write-tree"], capture_output=True, text=True, check=True
                ).stdout.strip()
                assert tree == plain
    _assert_no_child()


def _read_reply(out, end: bytes) -> bytes:
    reply, deadline = b"", time.monotonic() + 10
    while not reply.endswith(end):
        assert time.monotonic() < deadline, f"no reply end after {reply!r}"
        if select.select([out], [], [], 0.1)[0]:
            chunk = os.read(out.fileno(), 65536)
            assert chunk, f"end of file after {reply!r}"
            reply += chunk
    return reply


def test_diff_tree_stdin_copies_a_line_that_is_no_object_id_and_flushes(tmp_path):
    # the reply framing rests on this behaviour of git's
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    snapshots = Snapshots(repo)
    tree = snapshot_patch(snapshots, base).tree
    end = toolkit._REPLY_END
    git = subprocess.Popen(
        ["git", "-C", str(repo), "diff-tree", "--stdin", "-p", "-M"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_git_environ(snapshots),
    )
    try:
        # git's stdin stays open, so each reply arrives only because git flushed it
        git.stdin.write(f"{base}\t{tree}\n".encode() + end)
        git.stdin.flush()
        reply = _read_reply(git.stdout, end)
        assert reply == f"{base} {tree}\n".encode() + _spawned_diff(snapshots, base, tree) + end
        git.stdin.write(f"{base[:7]}\t{tree}\n".encode() + end)  # no object id: copied as it came
        git.stdin.flush()
        assert _read_reply(git.stdout, end) == f"{base[:7]}\t{tree}\n".encode() + end
    finally:
        git.stdin.close()
        git.wait()
        git.stdout.close()
        snapshots.close()


def test_differ_raises_on_a_bad_request_and_serves_the_next(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    missing = "0" * len(base)
    with closing(Snapshots(repo)) as snapshots:
        tree = snapshot_patch(snapshots, base).tree
        with pytest.raises(NotARepository, match="Could not read"):
            snapshots.diff(base, missing)
        _assert_no_child()  # the failed request ended its process
        for since, to in [(missing, tree), (base[:7], tree), (toolkit.head_revision(repo), tree), ("HEAD", tree)]:
            with pytest.raises(NotARepository):
                snapshots.diff(since, to)
        with pytest.raises(NotARepository, match="two tree ids"):
            snapshots.diff(base, f"{tree}\n{base}")
        assert snapshots.diff(base, tree).encode() == _spawned_diff(snapshots, base, tree)
    _assert_no_child()
    with pytest.raises(NotARepository, match="not a git repository"):
        Snapshots(tmp_path).diff(base, tree)
    _assert_no_child()


def test_differ_round_trips_a_diff_of_a_mebibyte_and_frames_the_next(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "big.txt").write_text("".join(f"line {i:07d} of a file larger than any pipe buffer\n" for i in range(24000)))
    with closing(Snapshots(repo)) as snapshots:
        big = snapshot_patch(snapshots, base)
        assert len(big.data) >= 1 << 20
        assert big.data == _spawned_diff(snapshots, base, big.tree)
        (repo / "keep.txt").write_text("changed\n")
        small = snapshot_patch(snapshots, big.tree)
        assert small.data == _spawned_diff(snapshots, big.tree, small.tree)
        assert snapshots.diff(small.tree, base).encode() == _spawned_diff(snapshots, small.tree, base)
    _assert_no_child()


@pytest.mark.parametrize("ending", ["normal", "exception", "interrupt"])
def test_differ_leaves_no_child_process(tmp_path, monkeypatch, ending):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    (repo / "new.txt").write_text("x\n")
    snapshots = Snapshots(repo)
    tree = _snapshot_with_no_diff_process(snapshots, base).tree
    started = []
    real_spawn = toolkit._spawn_git
    monkeypatch.setattr(toolkit, "_spawn_git", lambda *a, **kw: started.append(a[1]) or real_spawn(*a, **kw))
    if ending == "interrupt":  # Ctrl-C while git answers
        def interrupted(self, fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(toolkit._Pipes, "_read", interrupted)
    expected = {"normal": None, "exception": ValueError, "interrupt": KeyboardInterrupt}[ending]
    with pytest.raises(expected) if expected else contextlib.nullcontext():
        with closing(snapshots):
            for _ in range(3):
                assert snapshots.diff(base, tree)
                if ending == "exception":
                    raise ValueError("the loop raised")
    assert started == [("diff-tree", "--stdin", "-p", "-M")]
    _assert_no_child()


def test_ensure_repo_reads_head_once_on_an_existing_repository(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    commands = count_git(monkeypatch)
    base, made = ensure_repo(repo)
    assert made
    assert commands == ["rev-parse", "init", "add", "commit", "rev-parse"]
    assert commands.stores == [MAIN_STORE] * 5
    commands.clear()
    assert ensure_repo(repo) == (base, False)
    assert commands == ["rev-parse", "rev-parse"]  # --show-toplevel, then HEAD


def test_ensure_repo_ignores_the_users_signing_and_hooks(tmp_path, monkeypatch):
    hooks = tmp_path / "hooks"
    hooks.mkdir()
    (hooks / "pre-commit").write_text("#!/bin/sh\nexit 1\n")
    (hooks / "pre-commit").chmod(0o755)
    config = tmp_path / "gitconfig"
    config.write_text(f"[commit]\n\tgpgsign = true\n[gpg]\n\tprogram = false\n[core]\n\thooksPath = {hooks}\n")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    base = _base_repo(tmp_path / "repo")
    commit = subprocess.run(
        ["git", "-C", str(tmp_path / "repo"), "cat-file", "commit", "HEAD"], capture_output=True, text=True, check=True
    ).stdout
    assert "gpgsig" not in commit and commit.endswith("\nbase\n")
    assert commit.startswith(f"tree {base}\n")  # ensure_repo returns the base commit's tree


def test_ensure_repo_starts_no_repository_maintenance(tmp_path, monkeypatch):
    trace = tmp_path / "git-trace.log"
    monkeypatch.setenv("GIT_TRACE", str(trace))
    _base_repo(tmp_path / "repo")
    lines = trace.read_text().splitlines()
    assert any("commit" in line for line in lines)  # the trace saw the base commit
    assert not [line for line in lines if "maintenance" in line]


def test_ensure_repo_refuses_a_subdirectory_or_worktree_of_another_repository(tmp_path):
    outer = tmp_path / "outer"
    _base_repo(outer)
    (outer / "sub").mkdir()
    with pytest.raises(NotARepository, match="inside the git repository"):
        ensure_repo(outer / "sub")
    linked = tmp_path / "linked"
    subprocess.run(["git", "-C", str(outer), "worktree", "add", "-q", str(linked)], check=True)
    with pytest.raises(NotARepository, match="linked worktree"):
        ensure_repo(linked)


def test_patch_round_trip(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    clean = tmp_path / "clean"
    shutil.copytree(repo, clean)
    (repo / "keep.txt").write_text("keep\nmore\n")
    (repo / "new_dir").mkdir()
    (repo / "new_dir" / "n.txt").write_text("nested\n")
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    apply_patch(patch, clean)
    assert (clean / "keep.txt").read_text() == "keep\nmore\n"
    assert (clean / "new_dir" / "n.txt").read_text() == "nested\n"


def test_a_patch_larger_than_a_pipe_buffer_round_trips_and_leaves_no_file(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    clean = tmp_path / "clean"
    shutil.copytree(repo, clean)
    big = "".join(f"line {i:07d} of a file larger than any pipe buffer\n" for i in range(24000))
    (repo / "big.txt").write_text(big)
    with closing(Snapshots(repo)) as snapshots:
        patch = snapshot_patch(snapshots, base)
    assert len(patch.data) >= 1 << 20
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir reads TMPDIR again
    listings = []  # what the temporary directory holds as each git starts
    real_git = toolkit._git
    monkeypatch.setattr(toolkit, "_git", lambda *args, **kw: listings.append(os.listdir(tmpdir)) or real_git(*args, **kw))
    apply_patch(patch, clean)
    assert (clean / "big.txt").read_text() == big
    assert [len(listing) for listing in listings] == [0, 1]  # rev-parse, then apply reading the file
    assert os.listdir(tmpdir) == []
    with pytest.raises(PatchApplyFailure):
        apply_patch(patch, clean)  # big.txt already exists
    assert os.listdir(tmpdir) == []


def test_snapshot_not_a_repo(tmp_path):
    with pytest.raises(NotARepository):
        snapshot_patch(Snapshots(tmp_path / "plain"), "HEAD")


def test_apply_rejects_garbage(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    bad = GitPatch(text="diff --git a/x b/x\nnot a patch\n", base_revision=base)
    with pytest.raises(PatchApplyFailure):
        apply_patch(bad, repo)


def test_apply_empty_patch_is_noop(tmp_path):
    repo = tmp_path / "repo"
    base = _base_repo(repo)
    apply_patch(GitPatch(text="", base_revision=base), repo)
