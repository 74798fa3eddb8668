"""Brain/hand roles: tool registry, prompt assembly, command parsing, task
dispatch, and the hand-agent action/observation loop.

The brain plans and never sees a command catalog; the hand executes and, in
hierarchical mode, sees only the catalog of its task's domain. Commands
naming another domain's tools are rejected at parse time, so out-of-domain
commands are never executed no matter what the model emits. Flat mode (one
prompt with every catalog plus a mixed example) exists as the ablation
condition and executes whatever parses.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import toolkit
from .backends import BackendResponse, Messages
from .errors import (
    BackendFailure,
    DriverUnavailable,
    LineOutOfRange,
    SpawnFailure,
    UnknownDomain,
)
from .memory import MemoryKind, MemoryRecord, MemoryStore, Phase, View
from .toolkit import EditRequest, Sandbox

logger = logging.getLogger(__name__)

MAX_HAND_ACTIONS = 20  # hard ceiling on the inner loop
_ON_WORDS = ("on", "true", "1", "yes")
_OFF_WORDS = ("off", "false", "0", "no")
DONE_LINE = re.compile(r"^\s*DONE:\s*(.*)$", re.MULTILINE)


@dataclass
class TaskSpec:
    """Brain-to-hand delegation: what to do, how, and what success looks like."""

    objective: str
    steps: list[str]
    expected_outcome: str
    tool_domain: str = ""
    turn: int = 0

    def __post_init__(self) -> None:
        if not self.objective.strip():
            raise ValueError("task objective must be non-empty")
        if not self.expected_outcome.strip():
            raise ValueError("expected outcome must be non-empty")

    def to_prompt_text(self) -> str:
        lines = [f"OBJECTIVE: {self.objective}", "STEPS:"]
        lines += [f"- {step}" for step in self.steps]
        lines.append(f"EXPECTED: {self.expected_outcome}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CommandSpec:
    name: str
    signature: str
    doc: str
    example: str


@dataclass
class ToolDomain:
    name: str
    commands: dict[str, CommandSpec]
    handler: Callable[["ToolCommand", Sandbox], str]


class ToolRegistry:
    """Tool domains with disjoint command catalogs."""

    def __init__(self) -> None:
        self.domains: dict[str, ToolDomain] = {}

    def register(self, domain: ToolDomain) -> None:
        for name in domain.commands:
            owner = self.owning_domain(name)
            if owner is not None:
                raise ValueError(f"command {name!r} already registered in domain {owner!r}")
        self.domains[domain.name] = domain

    def domain(self, name: str) -> ToolDomain:
        if name not in self.domains:
            raise UnknownDomain(f"tool domain {name!r} is not registered")
        return self.domains[name]

    def owning_domain(self, command_name: str) -> str | None:
        for domain in self.domains.values():
            if command_name in domain.commands:
                return domain.name
        return None

    def __contains__(self, name: str) -> bool:
        return name in self.domains


@dataclass
class ToolCommand:
    name: str
    args: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    raw: str = ""
    domain: str | None = None
    start: int | None = None  # offset of the call in the parsed completion


@dataclass(frozen=True)
class Rejection:
    kind: str  # "misrouted" | "unknown" | "unparseable"
    command_name: str | None
    observation: str
    raw: str = ""
    start: int | None = None  # offset of the rejected call; None if none was found


@dataclass
class ExecutionReport:
    actions: list[ToolCommand] = field(default_factory=list)
    observations: list[str] = field(default_factory=list)
    final_status: str = "failure"  # "success" | "failure"
    misrouted_count: int = 0
    result: str = ""


# --- default tool domains ---


def _bind(cmd: ToolCommand, *names: str) -> dict:
    """The command's arguments by name, bound by position and then by keyword."""
    params = dict(zip(names, cmd.args))
    params.update(cmd.kwargs)
    return params


def _to_edit_request(cmd: ToolCommand) -> EditRequest:
    params = _bind(cmd, "file", "start_line", "end_line", "start_line_string", "end_line_string", "new_content")
    return EditRequest(
        file=str(params["file"]),
        start_line=int(params["start_line"]),
        end_line=int(params["end_line"]),
        start_line_string=str(params["start_line_string"]),
        end_line_string=str(params["end_line_string"]),
        new_content=str(params["new_content"]),
    )


def _handle_file_edit(cmd: ToolCommand, sandbox: Sandbox) -> str:
    file = None
    try:
        if cmd.name == "edit_file":
            req = _to_edit_request(cmd)
            file = req.file
            outcome = toolkit.edit_file(req, sandbox.workdir)
            if outcome.applied:
                return f"edit applied: {req.file} lines {req.start_line}-{req.end_line} replaced"
            return (
                "edit mismatch: " + json.dumps(outcome.hint.to_dict())
                + "\nAdjust the line numbers to match the anchor text and retry."
            )
        if cmd.name == "replace_function":
            params = _bind(cmd, "file", "signature", "new_code")
            file = params["file"]
            outcome = toolkit.replace_function(
                str(file), str(params["signature"]), str(params["new_code"]), sandbox.workdir
            )
            if outcome.applied:
                return f"function replaced in {file}"
            return "replace mismatch: " + json.dumps(outcome.hint.to_dict())
        return f"unhandled file-edit command {cmd.name!r}"
    except FileNotFoundError as exc:
        return f"file not found: {exc}"
    except LineOutOfRange as exc:
        return f"line out of range: {exc}"
    except UnicodeDecodeError:  # a ValueError, but the file's fault, not the arguments'
        return f"cannot edit {file}: not UTF-8 text"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"bad arguments for {cmd.name}: {exc}"
    except OSError as exc:  # permissions, a full disk: the agent hears of it and the run goes on
        return f"cannot edit {file}: {exc.strerror or exc}"


def on_off(value: str) -> bool:
    """An on/off word, for tool arguments and CLI flags alike; any other raises ValueError."""
    lowered = value.lower()
    if lowered not in _ON_WORDS + _OFF_WORDS:
        raise ValueError(f"expected on/off, got {value!r}")
    return lowered in _ON_WORDS


def _handle_code(cmd: ToolCommand, sandbox: Sandbox) -> str:
    try:
        if cmd.name == "trace_code_switch":
            value = cmd.args[0] if cmd.args else cmd.kwargs.get("enabled", True)
            enabled = on_off(value) if isinstance(value, str) else bool(value)
            sandbox.trace_enabled = enabled
            return f"call tracing {'enabled' if enabled else 'disabled'}"
        if cmd.name == "run_command":
            shell_cmd = str(cmd.args[0] if cmd.args else cmd.kwargs.get("cmd", ""))
            prefix = ""
            if sandbox.trace_enabled:
                try:
                    report = toolkit.run_traced(shell_cmd, sandbox)
                    chain = " -> ".join(c.function for c in report.calls) or "(no user-code calls)"
                    return (
                        f"traced calls: {chain}\nexit status {report.exit_status}\n{report.output}"
                    )
                except DriverUnavailable as exc:
                    prefix = f"tracing unavailable ({exc}); ran untraced\n"
            result = toolkit.run_command(shell_cmd, sandbox)
            return f"{prefix}exit status {result.exit_status}\n{result.output}"
        return f"unhandled code command {cmd.name!r}"
    except SpawnFailure as exc:
        return f"command rejected: {exc}"
    except (IndexError, TypeError, ValueError) as exc:
        return f"bad arguments for {cmd.name}: {exc}"


def _handle_browser_stub(cmd: ToolCommand, sandbox: Sandbox) -> str:
    return f"browser domain is a stub; {cmd.name!r} was not executed"


def default_registry() -> ToolRegistry:
    registry = ToolRegistry()
    registry.register(
        ToolDomain(
            name="file-edit",
            commands={
                "edit_file": CommandSpec(
                    "edit_file",
                    "edit_file(file, start_line, end_line, start_line_string, end_line_string, new_content)",
                    "Replace lines start_line..end_line after verifying both anchor strings.",
                    'edit_file("app.py", 3, 3, "x = 1", "x = 1", "x = 2")',
                ),
                "replace_function": CommandSpec(
                    "replace_function",
                    "replace_function(file, signature, new_code)",
                    "Replace the function whose definition line starts with the signature.",
                    'replace_function("app.py", "def add", "def add(a, b):\\n    return a + b")',
                ),
            },
            handler=_handle_file_edit,
        )
    )
    registry.register(
        ToolDomain(
            name="code",
            commands={
                "run_command": CommandSpec(
                    "run_command",
                    "run_command(cmd)",
                    "Run a shell command in the sandbox and return its output and exit status.",
                    'run_command("python3 app.py")',
                ),
                "trace_code_switch": CommandSpec(
                    "trace_code_switch",
                    "trace_code_switch(enabled)",
                    "Toggle function-call tracing for subsequent run_command calls.",
                    "trace_code_switch(true)",
                ),
            },
            handler=_handle_code,
        )
    )
    registry.register(
        ToolDomain(
            name="browser",
            commands={
                "browse": CommandSpec(
                    "browse",
                    "browse(url)",
                    "Open a web page and return its text.",
                    'browse("https://example.org")',
                ),
                "web_search": CommandSpec(
                    "web_search",
                    "web_search(query)",
                    "Search the web and return result snippets.",
                    'web_search("merge sorted lists")',
                ),
            },
            handler=_handle_browser_stub,
        )
    )
    return registry


# --- prompt assembly ---

_BRAIN_SYSTEM = (
    "You are the reasoning agent of a two-level assistant. You analyze the "
    "request, schedule tasks for an execution agent, evaluate its reports, "
    "and summarize each turn. You never call tools yourself."
)
_HAND_SYSTEM = (
    "You are the execution agent. Carry out the assigned task by issuing one "
    "command per response from the catalog below. When the task is complete, "
    "respond with DONE: <result>."
)

_MIXED_ONE_SHOT = """Example (mixed-domain session):
TASK: fix the heading in page.py and double-check the style guide online
edit_file("page.py", 12, 12, "heading =", "heading =", "heading = 'Home'")
browse("https://style.example.org/headings")
DONE: heading fixed and style confirmed
"""


def _catalog_text(domain: ToolDomain) -> str:
    lines = [f"Commands for domain '{domain.name}':"]
    for spec in domain.commands.values():
        lines.append(f"- {spec.signature}: {spec.doc}")
        lines.append(f"  example: {spec.example}")
    return "\n".join(lines)


def render_prompt(
    role: str,
    context_records: Sequence[MemoryRecord],
    mode: str,
    registry: ToolRegistry,
    task_domain: str | None = None,
    mandatory_requirement: str | None = None,
    instruction: str = "",
    extra_notes: Iterable[str] = (),
) -> Messages:
    """Assemble the ordered chat messages for a brain or hand call.

    Hand prompts carry the task domain's catalog (hierarchical) or every
    catalog plus a mixed one-shot example (flat). Brain prompts never carry a
    catalog and always embed the mandatory requirement verbatim. The history
    is the records' prompt lines, taken as one text from a store's ``View``.
    """
    if role == "brain":
        system = _BRAIN_SYSTEM
        if mandatory_requirement:
            system += f"\nMandatory requirement: {mandatory_requirement}"
    elif role == "hand":
        parts = [_HAND_SYSTEM]
        if mode == "flat":
            parts += [_catalog_text(d) for d in registry.domains.values()]
            parts.append(_MIXED_ONE_SHOT)
        else:
            parts.append(_catalog_text(registry.domain(task_domain or "")))
        system = "\n\n".join(parts)
    else:
        raise ValueError(f"unknown role {role!r}")

    if isinstance(context_records, View):
        history = context_records.text
    else:
        history = "\n".join([r.prompt_line for r in context_records])
    body = [history] if history else []
    body += [f"NOTE: {note}" for note in extra_notes]
    if instruction:
        body.append(instruction)
    return [("system", system), ("user", "\n".join(body) if body else "(no history)")]


# --- dispatch ---

_KEYWORD_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("file-edit", ("edit", "open", "file")),
    ("code", ("run", "execute", "python", "test")),
    ("browser", ("search", "web", "url")),
)


def classify_tool_domain(text: str, registry: ToolRegistry) -> str | None:
    """First keyword-table row with a whole-word hit in the text wins."""
    lowered = text.lower()
    for domain, keywords in _KEYWORD_TABLE:
        if domain not in registry:
            continue
        for keyword in keywords:
            if re.search(rf"\b{re.escape(keyword)}\b", lowered):
                return domain
    return None


def dispatch_task(task: TaskSpec, registry: ToolRegistry) -> str:
    """Resolve the tool domain for a task; default to 'code' with a warning."""
    if task.tool_domain:
        if task.tool_domain not in registry:
            raise UnknownDomain(f"task names unregistered domain {task.tool_domain!r}")
        return task.tool_domain
    domain = classify_tool_domain(task.to_prompt_text(), registry)
    if domain is None:
        logger.warning("turn %d: no tool domain matched for task %r; defaulted to 'code'",
                       task.turn, task.objective)
        return "code"
    return domain


# --- command parsing ---

# a name is matched from its first character only: a try from inside a run
# of word characters would rescan the run, quadratic in its length
_NAME_OPEN = re.compile(r"(?<![A-Za-z0-9_])([A-Za-z_][A-Za-z0-9_]*)\(")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'"}
_SCAN_STOPS = re.compile(r"[\"'(),]")  # the only characters that change scan state
# the rest of a quoted argument through its closing quote; a backslash escapes the next character
_CLOSING = {q: re.compile(rf"[^{q}\\]*(?:\\.[^{q}\\]*)*{q}", re.DOTALL).match for q in "\"'"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _scan_call(text: str, start: int) -> tuple[int, list[str]] | None:
    """Scan the call whose '(' is text[start]: the index just past its closing
    ')' and its arguments, split on the commas outside quotes and nested
    parens (blank arguments dropped). None if the paren never closes.

    Jumps from one quote, paren or comma to the next, and from an opening
    quote to its closing one in one match; a backslash escapes the following
    character only inside quotes.
    """
    depth = 0
    cuts = [start]  # the '(' and every argument-separating comma
    search = _SCAN_STOPS.search
    match = search(text, start)
    while match is not None:
        i = match.start()
        ch = text[i]
        if ch in "\"'":
            closing = _CLOSING[ch](text, i + 1)
            if closing is None:  # the quote never closes
                return None
            i = closing.end() - 1
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                cuts.append(i)
                pieces = (text[a + 1 : b].strip() for a, b in zip(cuts, cuts[1:]))
                return i + 1, [piece for piece in pieces if piece]
        elif ch == "," and depth == 1:
            cuts.append(i)
        match = search(text, i + 1)
    return None


def _find_command(text: str) -> tuple[str, int, int, list[str]] | None:
    """First well-formed name(args) call in the text: (name, start, end, args)."""
    for match in _NAME_OPEN.finditer(text):
        start = match.start()
        if start > 0 and text[start - 1] not in " \t\n`>":
            continue
        scanned = _scan_call(text, match.end() - 1)
        if scanned is not None:
            return match.group(1), start, *scanned
    return None


def _unquote(text: str) -> str:
    inner = text[1:-1]
    if "\\" not in inner:
        return inner
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(0)), inner)


def _convert_value(piece: str):
    if len(piece) >= 2 and piece[0] in "\"'" and piece[-1] == piece[0]:
        return _unquote(piece)
    lowered = piece.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(piece)
    except ValueError:
        pass
    try:
        return float(piece)
    except ValueError:
        pass
    return piece


_NAMED_ARG = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", re.DOTALL)


def _parse_args(pieces: list[str]) -> tuple[list, dict]:
    args: list = []
    kwargs: dict = {}
    for piece in pieces:
        named = None if piece[0] in "\"'" else _NAMED_ARG.match(piece)
        if named:
            kwargs[named.group(1)] = _convert_value(named.group(2).strip())
        else:
            args.append(_convert_value(piece))
    return args, kwargs


def parse_command(
    completion: str,
    registry: ToolRegistry,
    task_domain: str,
    mode: str = "hierarchical",
) -> ToolCommand | Rejection:
    """Extract the first command call from a hand completion.

    Hierarchical mode rejects commands owned by another domain (misrouted)
    and unknown names; flat mode returns any known command, tagged with its
    owning domain so the caller can count misroutes.
    """
    found = _find_command(completion)
    if found is None:
        return Rejection(
            kind="unparseable",
            command_name=None,
            observation=(
                "No command found. Respond with exactly one command call from the "
                "catalog, or DONE: <result> when finished."
            ),
            raw=completion.strip(),
        )
    name, start, end, pieces = found
    raw = completion[start:end]
    owner = registry.owning_domain(name)
    if owner is None:
        allowed = ", ".join(sorted(registry.domain(task_domain).commands))
        return Rejection(
            kind="unknown",
            command_name=name,
            observation=f"Unknown command {name!r}. Available commands: {allowed}.",
            raw=raw,
            start=start,
        )
    if mode == "hierarchical" and owner != task_domain:
        allowed = ", ".join(sorted(registry.domain(task_domain).commands))
        return Rejection(
            kind="misrouted",
            command_name=name,
            observation=(
                f"Command {name!r} belongs to the '{owner}' domain and is not available "
                f"for this task. Use one of: {allowed}."
            ),
            raw=raw,
            start=start,
        )
    try:
        args, kwargs = _parse_args(pieces)
    except Exception as exc:
        return Rejection(
            kind="unparseable",
            command_name=name,
            observation=f"Could not parse arguments of {name}: {exc}",
            raw=raw,
            start=start,
        )
    return ToolCommand(name=name, args=args, kwargs=kwargs, raw=raw, domain=owner, start=start)


def _find_done(text: str) -> tuple[int, str] | None:
    match = DONE_LINE.search(text)
    if match is None:
        return None
    return match.start(), match.group(1).strip()


# --- the hand inner loop ---


def hand_execute(
    task: TaskSpec,
    registry: ToolRegistry,
    sandbox: Sandbox,
    complete: Callable[[Messages], BackendResponse],
    store: MemoryStore | None = None,
    task_record: MemoryRecord | None = None,
    mode: str = "hierarchical",
    critiques: Sequence[str] = (),
) -> ExecutionReport:
    """Drive the hand agent until it reports DONE or hits the action ceiling.

    The hand works in ``task.tool_domain``, which the caller has dispatched,
    and sees the store's execution view. Each completion yields exactly one
    action/observation pair; parse-time rejections feed a corrective
    observation back to the agent. Actions and observations are appended to
    the store as they happen (a fresh one when none is given), and so is the
    task record when none is given.
    """
    domain = task.tool_domain
    report = ExecutionReport()
    if store is None:
        store = MemoryStore()
    if task_record is None:
        task_record = store.append(MemoryRecord(kind=MemoryKind.TASK, content=task.to_prompt_text()))

    for _step in range(MAX_HAND_ACTIONS):
        context = store.retrieve(Phase.EXECUTION, task_record)
        messages = render_prompt(
            "hand", context, mode, registry, task_domain=domain, extra_notes=critiques
        )
        try:
            response = complete(messages)
        except BackendFailure as exc:
            report.final_status = "failure"
            report.result = f"backend failure: {exc}"
            return report

        text = response.text
        done = _find_done(text)
        # a call starts with a name that runs straight into its "(", so with no
        # "(" before the DONE line no call starts before it: DONE wins unparsed
        parsed = None
        if done is None or text.find("(", 0, done[0]) >= 0:
            parsed = parse_command(text, registry, domain, mode)
        if done is not None and (parsed is None or parsed.start is None or done[0] < parsed.start):
            report.final_status = "success"
            report.result = done[1]
            return report

        if isinstance(parsed, ToolCommand):
            if parsed.domain != domain:
                report.misrouted_count += 1  # flat mode executes it anyway
            # hierarchical parsing already rejected every other domain's command
            handler = registry.domain(parsed.domain).handler
            try:
                observation = handler(parsed, sandbox)
            except (SpawnFailure, FileNotFoundError, ValueError) as exc:
                observation = f"tool error: {exc}"
            action = parsed
        else:
            if parsed.kind == "misrouted":
                report.misrouted_count += 1
            observation = parsed.observation
            action = ToolCommand(
                name=parsed.command_name or "<unparsed>", raw=parsed.raw or text.strip()
            )
        report.actions.append(action)
        report.observations.append(observation)
        store.append(MemoryRecord(kind=MemoryKind.ACTION, content=action.raw or action.name))
        store.append(MemoryRecord(kind=MemoryKind.OBSERVATION, content=observation))

    report.final_status = "failure"
    report.result = f"action ceiling of {MAX_HAND_ACTIONS} reached without DONE"
    return report
