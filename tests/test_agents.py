"""Registry, prompt rendering, command parsing, dispatch, and the hand loop."""

from __future__ import annotations

import errno
import itertools
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agentloop import agents, toolkit
from agentloop.agents import (
    _ESCAPES,
    CommandSpec,
    ExecutionReport,
    Rejection,
    TaskSpec,
    ToolCommand,
    ToolDomain,
    ToolRegistry,
    _handle_code,
    _handle_file_edit,
    _scan_call,
    _to_edit_request,
    _unquote,
    classify_tool_domain,
    default_registry,
    dispatch_task,
    hand_execute,
    parse_command,
    render_prompt,
)
from agentloop.backends import ScriptSource
from agentloop.errors import UnknownDomain
from agentloop.memory import MemoryKind, MemoryRecord, MemoryStore
from agentloop.toolkit import Sandbox

from conftest import PromptRecorder

BROWSER_COMMANDS = ("browse", "web_search")


def task(objective="Create the add module", steps=None, expected="file exists", domain=""):
    return TaskSpec(
        objective=objective,
        steps=steps or ["create add.py"],
        expected_outcome=expected,
        tool_domain=domain,
    )


def hand_backend(completions):
    return PromptRecorder(ScriptSource(list(completions)), role="hand", model="mock-hand")


def run_hand(backend, sandbox, registry=None, **kwargs):
    """Run the hand on a code task in a store that holds only that task;
    return the report and the store."""
    spec = task(domain="code")
    store = MemoryStore()
    task_record = store.append(MemoryRecord(kind=MemoryKind.TASK, content=spec.to_prompt_text()))
    report = hand_execute(
        spec, registry or default_registry(), sandbox, backend.complete, store, task_record, **kwargs
    )
    return report, store


def contents(store, kind):
    return [r.content for r in store.records if r.kind is kind]


# --- TaskSpec ---

def test_task_requires_expected_outcome():
    with pytest.raises(ValueError):
        TaskSpec(objective="x", steps=["s"], expected_outcome="   ")


def test_task_prompt_text():
    text = task(steps=["first", "second"]).to_prompt_text()
    assert text.splitlines()[0] == "OBJECTIVE: Create the add module"
    assert "- first" in text and "- second" in text
    assert text.splitlines()[-1] == "EXPECTED: file exists"


# --- registry ---

def test_default_registry_domains():
    registry = default_registry()
    assert set(registry.domains) == {"file-edit", "code", "browser"}
    assert registry.owning_domain("edit_file") == "file-edit"
    assert registry.owning_domain("run_command") == "code"
    assert registry.owning_domain("browse") == "browser"
    assert registry.owning_domain("nothing") is None


def test_registry_rejects_catalog_overlap():
    registry = default_registry()
    clash = ToolDomain(
        name="other",
        commands={"browse": CommandSpec("browse", "browse(x)", "d", "e")},
        handler=lambda cmd, sandbox: "",
    )
    with pytest.raises(ValueError):
        registry.register(clash)


def test_unknown_domain_lookup():
    with pytest.raises(UnknownDomain):
        default_registry().domain("gui")


# --- render_prompt ---

def _flatten(messages):
    return "\n".join(content for _role, content in messages)


def test_hierarchical_hand_prompt_excludes_other_domains():
    registry = default_registry()
    messages = render_prompt("hand", [], "hierarchical", registry, task_domain="code")
    text = _flatten(messages)
    assert "run_command" in text
    for name in BROWSER_COMMANDS + ("edit_file", "replace_function"):
        assert name not in text


def test_flat_hand_prompt_has_union_and_mixed_example():
    registry = default_registry()
    text = _flatten(render_prompt("hand", [], "flat", registry, task_domain="code"))
    assert "edit_file" in text and "browse" in text and "run_command" in text
    assert "Example (mixed-domain session)" in text


def test_brain_prompt_has_requirement_and_no_catalog():
    registry = default_registry()
    requirement = "the tests must pass"
    record = MemoryRecord(kind=MemoryKind.USER_REQUEST, content="please fix", seq=0, turn=0)
    text = _flatten(
        render_prompt("brain", [record], "hierarchical", registry, mandatory_requirement=requirement)
    )
    assert requirement in text
    assert "please fix" in text
    for name in ("run_command", "edit_file", "browse"):
        assert name not in text


def test_render_prompt_unknown_domain():
    with pytest.raises(UnknownDomain):
        render_prompt("hand", [], "hierarchical", default_registry(), task_domain="gui")


# --- dispatch ---

def test_dispatch_explicit_domain():
    assert dispatch_task(task(domain="browser"), default_registry()) == "browser"


def test_dispatch_unregistered_explicit_domain():
    with pytest.raises(UnknownDomain):
        dispatch_task(task(domain="gui"), default_registry())


def test_dispatch_code_keywords():
    t = task(objective="Check the script output", steps=["run python3 prog.py and report"],
             expected="value printed")
    assert dispatch_task(t, default_registry()) == "code"


def test_dispatch_file_edit_keywords():
    t = task(objective="Fix the typo", steps=["open the file and replace line 3"],
             expected="typo gone")
    assert dispatch_task(t, default_registry()) == "file-edit"


def test_dispatch_defaults_to_code():
    t = task(objective="Accomplish the goal", steps=["just do it"], expected="done")
    assert classify_tool_domain(t.to_prompt_text(), default_registry()) is None
    assert dispatch_task(t, default_registry()) == "code"


# --- parse_command ---

def test_parse_edit_command_positional():
    completion = 'edit_file("a.py", 3, 5, "x=1", "y=2", "z=3")'
    parsed = parse_command(completion, default_registry(), "file-edit")
    assert isinstance(parsed, ToolCommand)
    req = _to_edit_request(parsed)
    assert (req.file, req.start_line, req.end_line) == ("a.py", 3, 5)
    assert (req.start_line_string, req.end_line_string, req.new_content) == ("x=1", "y=2", "z=3")


def test_parse_edit_command_named_args():
    completion = 'edit_file(file="a.py", start_line=1, end_line=1, start_line_string="a", end_line_string="a", new_content="b")'
    parsed = parse_command(completion, default_registry(), "file-edit")
    assert isinstance(parsed, ToolCommand)
    assert _to_edit_request(parsed).new_content == "b"


def test_parse_unescapes_newlines():
    completion = 'run_command("printf \'a\\nb\'")'
    parsed = parse_command(completion, default_registry(), "code")
    assert isinstance(parsed, ToolCommand)
    assert parsed.args[0] == "printf 'a\nb'"


def test_parse_misrouted_browser_command():
    parsed = parse_command('browse("http://x")', default_registry(), "code")
    assert isinstance(parsed, Rejection)
    assert parsed.kind == "misrouted"
    assert "browser" in parsed.observation
    assert "run_command" in parsed.observation  # corrective: lists what is allowed


def test_parse_unknown_command():
    parsed = parse_command("frobnicate()", default_registry(), "code")
    assert isinstance(parsed, Rejection)
    assert parsed.kind == "unknown"


def test_parse_no_command():
    parsed = parse_command("I think we should look around first.", default_registry(), "code")
    assert isinstance(parsed, Rejection)
    assert parsed.kind == "unparseable"


def test_parse_flat_mode_lets_other_domains_through():
    parsed = parse_command('browse("http://x")', default_registry(), "code", mode="flat")
    assert isinstance(parsed, ToolCommand)
    assert parsed.domain == "browser"


def test_parse_ignores_prose_parentheses():
    completion = 'the file (see above) is fine\nrun_command("echo hi")'
    parsed = parse_command(completion, default_registry(), "code")
    assert isinstance(parsed, ToolCommand)
    assert parsed.name == "run_command"


def test_parse_multiline_string_argument():
    completion = 'replace_function("m.py", "def f", "def f():\\n    return 2")'
    parsed = parse_command(completion, default_registry(), "file-edit")
    assert isinstance(parsed, ToolCommand)
    assert parsed.args[2] == "def f():\n    return 2"


def test_parse_reports_command_offset():
    registry = default_registry()
    parsed = parse_command('first (a note)\nrun_command("ls")', registry, "code")
    assert isinstance(parsed, ToolCommand) and parsed.start == 15
    misrouted = parse_command('go: browse("http://x")', registry, "code")
    assert isinstance(misrouted, Rejection) and misrouted.start == 4
    assert parse_command("no call here", registry, "code").start is None


# Per-character reference scanners: the parser jumps between the characters
# that change its state and must agree with these everywhere.

def _reference_scan_balanced(text, start):
    depth, quote, i = 0, None, start
    while i < len(text):
        ch = text[i]
        if quote:
            if ch == "\\":
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


def _reference_split_args(argstr):
    pieces, current, depth, quote, i = [], [], 0, None, 0
    while i < len(argstr):
        ch = argstr[i]
        if quote:
            current.append(ch)
            if ch == "\\" and i + 1 < len(argstr):
                current.append(argstr[i + 1])
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch in "()":
            depth += 1 if ch == "(" else -1
            current.append(ch)
        elif ch == "," and depth == 0:
            pieces.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    pieces.append("".join(current))
    return [p.strip() for p in pieces if p.strip()]


def _reference_unquote(text):
    out, i = [], 1
    while i < len(text) - 1:
        if text[i] == "\\" and i + 1 < len(text) - 1:
            out.append(_ESCAPES.get(text[i + 1], "\\" + text[i + 1]))
            i += 2
            continue
        out.append(text[i])
        i += 1
    return "".join(out)


_PARSER_TEXT = st.text(alphabet="ab ,\n()\"'\\nt", max_size=80)


@settings(max_examples=800, deadline=None)
@given(prefix=_PARSER_TEXT, body=_PARSER_TEXT)
@example(prefix="", body='"\\")", b)')  # an escaped quote hides the ')'
@example(prefix="f", body="'a\\\\', (b, c)), d")  # an escaped backslash does not
def test_scan_call_matches_reference(prefix, body):
    text, start = prefix + "(" + body, len(prefix)
    end = _reference_scan_balanced(text, start)
    expected = None if end is None else (end, _reference_split_args(text[start + 1 : end - 1]))
    assert _scan_call(text, start) == expected


@settings(max_examples=400, deadline=None)
@given(inner=_PARSER_TEXT, quote=st.sampled_from("\"'"))
@example(inner="a\\nb\\q\\", quote='"')
def test_unquote_matches_reference(inner, quote):
    text = quote + inner + quote
    assert _unquote(text) == _reference_unquote(text)


# the pattern that was also tried from inside a run of word characters
_NAME_OPEN_FROM_ANY_CHARACTER = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(")


@settings(max_examples=800, deadline=None)
@given(text=st.text(alphabet="ab_1 \t\n`>.é(),\"'", max_size=80))
@example(text="1ab(x)")  # a name after a digit is not a command
@example(text="éab(x) ab(y)")
def test_find_command_is_the_same_with_names_matched_only_from_their_start(text):
    with mock.patch.object(agents, "_NAME_OPEN", _NAME_OPEN_FROM_ANY_CHARACTER):
        expected = agents._find_command(text)
    assert agents._find_command(text) == expected


def test_parse_a_long_run_of_word_characters_in_linear_time():
    started = time.monotonic()
    assert parse_command("ab" * 20000, default_registry(), "code").start is None
    assert time.monotonic() - started < 1


# --- hand_execute ---

def test_hand_execute_success_sequence(tmp_path):
    (tmp_path / "f.txt").write_text("a\nb\nc\n")
    backend = hand_backend(
        [
            'edit_file("f.txt", 2, 2, "b", "b", "B")',
            'run_command("cat f.txt")',
            "DONE: file updated",
        ]
    )
    report, store = run_hand(backend, Sandbox(tmp_path), mode="flat")  # flat so the edit command executes too
    assert report.final_status == "success"
    assert report.result == "file updated"
    observations = contents(store, MemoryKind.OBSERVATION)
    assert len(contents(store, MemoryKind.ACTION)) == len(observations) == 2
    assert "edit applied" in observations[0]
    assert "B" in observations[1]


def test_hand_execute_misroute_then_correct(tmp_path):
    backend = hand_backend(
        [
            'browse("http://docs")',
            'run_command("echo ok")',
            "DONE: ran the command",
        ]
    )
    report, store = run_hand(backend, Sandbox(tmp_path))
    assert report.final_status == "success"
    assert report.misrouted_count == 1
    observations = contents(store, MemoryKind.OBSERVATION)
    assert len(contents(store, MemoryKind.ACTION)) == len(observations) == 2
    assert "not available" in observations[0]


def test_hand_execute_feeds_observations_back(tmp_path):
    backend = hand_backend(['run_command("echo marker-xyz")', "DONE: ok"])
    run_hand(backend, Sandbox(tmp_path))
    assert "marker-xyz" in backend.prompts[1]


def test_hand_execute_action_ceiling(tmp_path):
    backend = hand_backend(['run_command("true")'] * 25)
    report, store = run_hand(backend, Sandbox(tmp_path))
    assert report.final_status == "failure"
    assert len(contents(store, MemoryKind.ACTION)) == len(contents(store, MemoryKind.OBSERVATION)) == 20


def test_hand_execute_backend_failure(tmp_path):
    backend = hand_backend(['run_command("true")', {"completion": "", "fail": True}])
    report, _ = run_hand(backend, Sandbox(tmp_path))
    assert report.final_status == "failure"
    assert "backend failure" in report.result


def test_hand_execute_done_before_command(tmp_path):
    backend = hand_backend(['DONE: nothing to do\nrun_command("true")'])
    report, store = run_hand(backend, Sandbox(tmp_path))
    assert report.final_status == "success"
    assert contents(store, MemoryKind.ACTION) == []


# answer pieces: DONE lines, blank lines, and calls that are valid, misrouted,
# unknown or unclosed, or that quote text holding "DONE:" or "("; trace_code_switch
# is the valid call as it starts no process
_ANSWER_PIECES = (
    "DONE: finished",
    "  DONE: indented (with a paren)",
    "",
    "trace_code_switch(on)",
    'trace_code_switch("a\nDONE: inside the quote (")',
    'browse("http://docs")',
    "frobnicate(1)",
    'run_command("never closed',
    "run_command(",
    'prose that says "DONE: quoted" and "(" aside',
)


def _two_scan_report(text, registry, domain, mode, sandbox):
    """The report of a hand run answering text and then "DONE: end", and the
    (kind, content) pairs it appends to the store, by the rule that parses
    every answer: DONE wins unless a parsed call starts before it."""
    report = ExecutionReport(final_status="success", result="end")
    done = agents._find_done(text)
    parsed = parse_command(text, registry, domain, mode)
    if done is not None and (parsed.start is None or done[0] < parsed.start):
        report.result = done[1]
        return report, []
    if isinstance(parsed, ToolCommand):
        report.misrouted_count += parsed.domain != domain
        action, observation = parsed.raw or parsed.name, registry.domain(parsed.domain).handler(parsed, sandbox)
    else:
        report.misrouted_count += parsed.kind == "misrouted"
        action = parsed.raw or text.strip() or parsed.command_name or "<unparsed>"
        observation = parsed.observation
    return report, [(MemoryKind.ACTION, action), (MemoryKind.OBSERVATION, observation)]


@pytest.mark.parametrize("mode", ["hierarchical", "flat"])
def test_a_done_answer_is_parsed_only_when_a_paren_precedes_its_done_line(tmp_path, mode):
    registry = default_registry()
    answers = ["\n".join(pieces) for size in (1, 2, 3) for pieces in itertools.product(_ANSWER_PIECES, repeat=size)]
    unparsed = 0
    for text in answers:
        expected, appended = _two_scan_report(text, registry, "code", mode, Sandbox(tmp_path))
        backend = hand_backend([text, "DONE: end"])
        with mock.patch.object(agents, "parse_command", wraps=parse_command) as parsing:
            report, store = run_hand(backend, Sandbox(tmp_path), registry=registry, mode=mode)
        assert report == expected, text
        assert [(r.kind, r.content) for r in store.records[1:]] == appended, text
        done = agents._find_done(text)
        paren_first = done is None or "(" in text[: done[0]]
        assert parsing.call_count == paren_first, text  # the closing "DONE: end" is never parsed
        unparsed += not paren_first
    assert 0 < unparsed < len(answers)


@pytest.mark.parametrize(
    "answer, action",
    [
        ('run_command("echo hi")', 'run_command("echo hi")'),  # a command
        ('browse("http://x")', 'browse("http://x")'),  # misrouted
        ("frobnicate(1)", "frobnicate(1)"),  # unknown
        ('run_command("never closed', 'run_command("never closed'),  # unparseable
        ("just prose", "just prose"),  # no call
        ("   ", "<unparsed>"),  # nothing at all
    ],
)
def test_hand_execute_appends_to_store(tmp_path, answer, action):
    backend = hand_backend([answer, "DONE: ok"])
    _, store = run_hand(backend, Sandbox(tmp_path))
    kinds = [r.kind for r in store.records]
    assert kinds == [MemoryKind.TASK, MemoryKind.ACTION, MemoryKind.OBSERVATION]
    assert store.records[1].producer == "hand"
    assert store.records[1].content == action
    assert store.records[2].producer == "environment"


def test_hand_execute_trace_switch(tmp_path):
    (tmp_path / "prog.py").write_text("def main():\n    return 1\n\nmain()\n")
    backend = hand_backend(
        [
            "trace_code_switch(true)",
            'run_command("python3 prog.py")',
            "DONE: traced",
        ]
    )
    report, store = run_hand(backend, Sandbox(tmp_path))
    assert report.final_status == "success"
    observations = contents(store, MemoryKind.OBSERVATION)
    assert "call tracing enabled" in observations[0]
    assert "traced calls: main" in observations[1]


def test_hand_execute_trace_switch_runs_untraced_without_a_driver(tmp_path):
    backend = hand_backend(["trace_code_switch(true)", 'run_command("echo hi")', "DONE: ran"])
    _, store = run_hand(backend, Sandbox(tmp_path))
    assert contents(store, MemoryKind.OBSERVATION)[1] == (
        "tracing unavailable (no tracing driver for 'echo hi'); ran untraced\n"
        "exit status 0\nhi\n"
    )


@pytest.mark.parametrize(
    "argument, observation, enabled",
    [
        ('"false"', "call tracing disabled", False),
        ("off", "call tracing disabled", False),
        ("0", "call tracing disabled", False),
        ('"On"', "call tracing enabled", True),
        ("true", "call tracing enabled", True),
        ('"maybe"', "bad arguments for trace_code_switch: expected on/off, got 'maybe'", None),
    ],
)
def test_trace_switch_reads_the_on_off_words(tmp_path, argument, observation, enabled):
    before = enabled is not True
    sandbox = Sandbox(tmp_path, trace_enabled=before)
    cmd = parse_command(f"trace_code_switch({argument})", default_registry(), "code")
    assert _handle_code(cmd, sandbox) == observation
    assert sandbox.trace_enabled is (before if enabled is None else enabled)


FILE_EDITS = [
    'edit_file("f.txt", 1, 1, "a", "a", "b")',
    'replace_function("f.txt", "a", "b")',
]


def test_replace_function_binds_keyword_arguments_as_positional_ones(tmp_path):
    module = "def f():\n    return 1\n\ndef g():\n    return 3\n"
    forms = [
        'replace_function("m.py", "def f", "def f():\\n    return 2")',
        'replace_function(file="m.py", signature="def f", new_code="def f():\\n    return 2")',
        'replace_function("m.py", new_code="def f():\\n    return 2", signature="def f")',
    ]
    results = []
    for command in forms:
        (tmp_path / "m.py").write_text(module)
        cmd = parse_command(command, default_registry(), "file-edit")
        assert _handle_file_edit(cmd, Sandbox(tmp_path)) == "function replaced in m.py"
        results.append((tmp_path / "m.py").read_text())
    assert results == ["def f():\n    return 2\n\ndef g():\n    return 3\n"] * len(forms)
    missing = parse_command('replace_function(file="m.py", signature="def f")', default_registry(), "file-edit")
    assert _handle_file_edit(missing, Sandbox(tmp_path)).startswith("bad arguments for replace_function: ")


@pytest.mark.parametrize("command", FILE_EDITS)
def test_file_edit_reports_a_file_that_is_not_utf8(tmp_path, command):
    (tmp_path / "f.txt").write_bytes(b"a\n\xff\n")
    cmd = parse_command(command, default_registry(), "file-edit")
    assert _handle_file_edit(cmd, Sandbox(tmp_path)) == "cannot edit f.txt: not UTF-8 text"
    assert (tmp_path / "f.txt").read_bytes() == b"a\n\xff\n"


@pytest.mark.parametrize("command", FILE_EDITS)
@pytest.mark.parametrize("error", [
    PermissionError(errno.EACCES, "Permission denied"),
    OSError(errno.ENOSPC, "No space left on device"),
    IsADirectoryError(errno.EISDIR, "Is a directory"),
])
def test_file_edit_reports_an_os_error_from_the_write(tmp_path, monkeypatch, command, error):
    (tmp_path / "f.txt").write_text("a\n")

    def refuse(*args):
        raise error

    # patched rather than chmod: a read-only file does not stop root
    monkeypatch.setattr(toolkit, "_splice", refuse)
    cmd = parse_command(command, default_registry(), "file-edit")
    assert _handle_file_edit(cmd, Sandbox(tmp_path)) == f"cannot edit f.txt: {error.strerror}"


def test_hand_execute_critiques_in_prompt(tmp_path):
    backend = hand_backend(["DONE: retried"])
    run_hand(backend, Sandbox(tmp_path), critiques=["fail - wrong file"])
    assert "fail - wrong file" in backend.prompts[0]
