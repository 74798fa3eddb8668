"""Sandboxed execution tools: anchored file edits, command running, tracing,
and git-patch change tracking.

The editing commands verify claimed line numbers against anchor strings
before touching a file. On a mismatch nothing is written and the outcome
carries every line where the failing anchor actually occurs, so the hand
agent can read the hint and send the edit again at the right line.

They share one line model: a line is a run of bytes ended by b"\\n" (or by
the end of a file that does not end in one), numbered from 1 as ``grep -n``
numbers it. No other byte ends a line, so "\\r", form feeds and U+2028 stay
inside the line that holds them, and an edit keeps every byte outside the
lines it replaces. One scan, ``_first_hits``, numbers the lines that hold an
anchor or a signature.
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import shutil
import signal
import stat
import subprocess
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DriverUnavailable,
    LineOutOfRange,
    NotARepository,
    PatchApplyFailure,
    SpawnFailure,
)

TIMEOUT_EXIT = -1  # sentinel exit status for timed-out commands
DEFAULT_OUTPUT_LIMIT = 64 * 1024

_ENV_ALLOWLIST = ("PATH", "HOME", "LANG", "LC_ALL", "PYTHONPATH", "TMPDIR", "TERM", "USER")
_QUOTING = str.maketrans("", "", "'\"\\")  # the characters shlex removes from a token


@dataclass(frozen=True)
class EditRequest:
    file: str
    start_line: int
    end_line: int
    start_line_string: str
    end_line_string: str
    new_content: str

    def __post_init__(self) -> None:
        if self.start_line > self.end_line:
            raise ValueError("start_line must be <= end_line")
        if not self.start_line_string or not self.end_line_string:
            raise ValueError("anchor strings must be non-empty")


@dataclass(frozen=True)
class EditHint:
    anchor: str  # "start" | "end" | "signature"
    given_line: int
    candidate_lines: list[int]

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "given_line": self.given_line,
            "candidate_lines": list(self.candidate_lines),
        }


@dataclass(frozen=True)
class EditOutcome:
    status: str  # "applied" | "mismatch"
    hint: EditHint | None = None

    @property
    def applied(self) -> bool:
        return self.status == "applied"


@dataclass(frozen=True)
class GitPatch:
    # git's bytes decoded as UTF-8 with surrogateescape: a byte that is not
    # UTF-8 stays a lone surrogate, so ``data`` gives git's bytes back
    text: str
    base_revision: str  # the tree the diff starts from (snapshot_patch's since)
    # tree id of the worktree state the diff ends at; it lives in the run's
    # private object directory, so it no longer resolves once the run ends
    tree: str = ""

    @property
    def empty(self) -> bool:
        return not self.text.strip()

    @property
    def data(self) -> bytes:
        """The patch's bytes, as git wrote them."""
        return self.text.encode("utf-8", "surrogateescape")


@dataclass(frozen=True)
class TraceCall:
    function: str
    file: str
    line: int


@dataclass(frozen=True)
class TraceReport:
    calls: list[TraceCall]
    exit_status: int
    output: str = ""


@dataclass(frozen=True)
class CommandResult:
    output: str
    exit_status: int
    timed_out: bool = False


def _anchor_matches(line: str, anchor: str) -> bool:
    # equals ``anchor.strip() in line.strip()``: a stripped, non-empty anchor
    # starts and ends with non-whitespace, so any match lies inside the
    # stripped line, and an empty one matches every line under both forms
    return anchor.strip() in line


def _inside(root: str, path: str) -> bool:
    return path == root or path.startswith(os.path.join(root, ""))


# an O_PATH open neither reads the file nor blocks on a FIFO nor opens a
# device, and /proc/self/fd names the file a descriptor holds (Linux)
_FD_DIR: str | None = "/proc/self/fd/" if hasattr(os, "O_PATH") else None


def _open_path(path: str) -> tuple[int, str]:
    """An O_PATH descriptor of path and the path of the file the kernel
    opened, or (-1, "") when path cannot be opened or ``_FD_DIR`` read."""
    if _FD_DIR is None:
        return -1, ""
    try:
        handle = os.open(path, os.O_PATH | os.O_CLOEXEC)
    except OSError:
        return -1, ""
    try:
        return handle, os.readlink(_FD_DIR + str(handle))
    except OSError:
        os.close(handle)
        return -1, ""


@contextmanager
def _checked_file(root: str | Path, relative: str | Path) -> Iterator[str]:
    """Yield a path that reaches the regular file ``relative`` names inside
    ``root``, an already resolved directory (absolute, no symlink in it), as
    ``Sandbox.workdir`` is.

    The target is opened once with O_PATH and checked as the kernel opened
    it: the path read back from its descriptor must lie inside root, and
    fstat must report a regular file. The yielded path re-opens that
    descriptor, so reads and writes reach the checked inode even if a path
    component is re-pointed meanwhile. Where the target cannot be opened, or
    ``_FD_DIR`` cannot be read, only the target is resolved, checked the
    same way and reached by path. Either way a root re-pointed through a
    symlink is not followed, a target that escapes root raises SpawnFailure
    whether or not it exists, and one that is missing or is not a regular
    file raises FileNotFoundError.
    """
    root = os.fspath(root)
    handle, real = _open_path(os.path.join(root, relative))
    if handle == -1:
        real = os.path.realpath(os.path.join(root, relative))
    try:
        if not _inside(root, real):
            raise SpawnFailure(f"path {relative!r} escapes the sandbox")
        regular = os.path.isfile(real) if handle == -1 else stat.S_ISREG(os.fstat(handle).st_mode)
        if not regular:
            raise FileNotFoundError(real)
        yield real if handle == -1 else _FD_DIR + str(handle)
    finally:
        if handle != -1:
            os.close(handle)


def _read(path: str) -> bytes:
    """The file's bytes; a file that is not UTF-8 is refused.

    One read of the file's size plus a byte takes it all; only a short read,
    or a file that grew since the fstat, reads on to the end. ASCII bytes
    are UTF-8, so only other bytes are decoded to check them.
    """
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size + 1)
        if len(data) != size:
            chunks = [data]
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
            data = b"".join(chunks)
    finally:
        os.close(fd)
    if not data.isascii():
        data.decode("utf-8")
    return data


_LINE_CHUNK = 8192  # bytes whose newlines one bytes.count call counts


def _skip_lines(data: bytes, count: int, pos: int) -> int:
    r"""The offset just past the count-th b"\n" from pos on, or -1 if fewer
    follow pos. Newlines are counted a chunk at a time, and only the chunk
    that holds the last one is split, so no object is made per line before it."""
    size = len(data)
    while count:
        end = min(pos + _LINE_CHUNK, size)
        found = data.count(b"\n", pos, end)
        if found >= count:
            return end - len(data[pos:end].split(b"\n", count)[-1])
        if end == size:
            return -1
        count -= found
        pos = end
    return pos


def _line_span(data: bytes, start_line: int, end_line: int) -> tuple[int, int, int] | None:
    r"""Where lines [start_line, end_line] of data lie: the offsets where the
    first and the last of them begin, and the offset just past the last one's
    "\n" (the end of data if it has none). None if a line is not in data."""
    head = _skip_lines(data, start_line - 1, 0) if start_line >= 1 else -1
    last = -1 if head == -1 else _skip_lines(data, end_line - start_line, head)
    if last in (-1, len(data)):  # bytes after the last "\n" are a line, none are not
        return None
    end = data.find(b"\n", last)
    return head, last, len(data) if end == -1 else end + 1


def _line_at(data: bytes, at: int) -> str:
    end = data.find(b"\n", at)
    return data[at : None if end == -1 else end].decode("utf-8")


def _write_at(fd: int, offset: int, chunks: list) -> None:
    """Write chunks back to back from offset, going on after a short write."""
    views = [memoryview(chunk) for chunk in chunks]
    while views:
        done = os.pwritev(fd, views, offset)
        offset += done
        while views and len(views[0]) <= done:
            done -= len(views.pop(0))
        if views:
            views[0] = views[0][done:]


def _splice(path: str, data: bytes, head: int, tail: int, content: str) -> None:
    r"""Replace the lines data[head:tail] of the file at path, whose bytes
    are ``data``, with the lines of ``content``, in place.

    ``head`` is where the first replaced line begins and ``tail`` lies just
    past the last one's "\n" (the end of data if it has none). Each line of
    content ends as the first replaced line ends: in "\r\n" when that line
    ends in "\r" (a content line already ending in "\r\n" keeps that one),
    else in "\n"; a file that did not end in a line ending still does not.
    Content is encoded before the file is opened, so content that cannot be
    encoded leaves the file untouched. The file is opened without truncation
    (closing a truncated-and-rewritten file starts writeback on ext4),
    written from head with one pwritev and cut only when it shrank, so it
    keeps its inode, mode and links, and every byte before the first and
    after the last replaced line. One exception keeps the old rule: when the
    removed lines ran to the end of a file without a final "\n" and no
    content replaces them, the line ending before them goes too, "\r\n" when
    the line before them ends in "\r".
    """
    if content and not content.endswith("\n"):
        content += "\n"
    first_end = data.find(b"\n", head, tail)
    ending = "\r\n" if data.endswith(b"\r", head, tail if first_end == -1 else first_end) else "\n"
    if ending == "\r\n":
        content = content.replace("\r\n", "\n").replace("\n", "\r\n")
    block = content.encode("utf-8")
    if not data.endswith(b"\n", 0, tail):  # the file keeps ending without a line ending
        if block:
            block = block[: -len(ending)]
        elif head:
            head -= 2 if data.endswith(b"\r\n", 0, head) else 1
    size = head + len(block) + len(data) - tail
    fd = os.open(path, os.O_WRONLY | os.O_CLOEXEC)
    try:
        _write_at(fd, head, [block, memoryview(data)[tail:]])
        if size < len(data):
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _first_hits(text: str, wanted: str) -> Iterator[tuple[int, int, int]]:
    r"""For each line of text that holds ``wanted``: its number (from 1), the
    offset where it begins and the offset of wanted's first occurrence in it.

    Only "\n" ends a line, and the end of a text that ends in "\n" is not a
    line. A ``wanted`` with a "\n" lies on no line, an empty one on every
    line. Each hit is numbered by the "\n"s since the previous one and the
    search goes on from the next line, so no list of lines is built.
    """
    if "\n" in wanted:
        return
    line, begin = 1, 0  # the number of the line that begins at text[begin]
    at = text.find(wanted)
    while -1 < at < len(text):
        start = text.rfind("\n", 0, at) + 1
        line += text.count("\n", begin, start)
        yield line, start, at
        end = text.find("\n", at)
        if end == -1:
            return
        line, begin = line + 1, end + 1
        at = text.find(wanted, begin)


def locate_anchor(text: str, anchor: str) -> list[int]:
    """The numbers (from 1) of the lines of text that contain the stripped
    anchor, each line once, as ``_first_hits`` numbers them."""
    return [line for line, _, _ in _first_hits(text, anchor.strip())]  # see _anchor_matches


def edit_file(req: EditRequest, workdir: str | Path) -> EditOutcome:
    r"""Replace lines [start_line, end_line] if both anchors verify.

    Lines are numbered as ``grep -n`` numbers them: only "\n" ends a line.
    Only the newlines up to end_line are found, and every byte before
    start_line and after end_line is kept. On mismatch the file is untouched
    and the hint lists, for the failing anchor, every line where it actually
    occurs. ``workdir`` is an already resolved directory, as
    ``Sandbox.workdir`` is; see ``_checked_file``.
    """
    with _checked_file(workdir, req.file) as path:
        data = _read(path)
        span = _line_span(data, req.start_line, req.end_line)
        if span is None:
            # a file that does not end in "\n" has one more line after its last "\n"
            lines = data.count(b"\n") + bool(data.rpartition(b"\n")[2])
            raise LineOutOfRange(f"lines {req.start_line}-{req.end_line} outside file of {lines} lines")
        head, last, tail = span
        checks = (
            ("start", req.start_line, head, req.start_line_string),
            ("end", req.end_line, last, req.end_line_string),
        )
        for which, lineno, at, anchor in checks:
            if not _anchor_matches(_line_at(data, at), anchor):
                hint = EditHint(
                    anchor=which,
                    given_line=lineno,
                    candidate_lines=locate_anchor(data.decode("utf-8"), anchor),
                )
                return EditOutcome(status="mismatch", hint=hint)
        _splice(path, data, head, tail, req.new_content)
    return EditOutcome(status="applied")


def _signature_lines(text: str, wanted: str) -> list[tuple[int, int]]:
    """The lines of text whose stripped form starts with ``wanted``, an
    already stripped signature: for each, its number (from 1) and the offset
    where it begins.

    A line's first occurrence of wanted is a hit when only whitespace comes
    before it on that line, as ``_first_hits`` finds it.
    """
    return [(line, start) for line, start, at in _first_hits(text, wanted) if not text[start:at].strip()]


def replace_function(
    file: str | Path, signature: str, new_code: str, workdir: str | Path
) -> EditOutcome:
    """Replace a function body located by its definition-line signature.

    The span runs from the definition line through the last line indented
    deeper than it (blank lines inside the block included). Lines are
    numbered as ``grep -n`` numbers them, and every byte outside the span is
    kept. Zero or multiple signature matches produce a mismatch whose
    candidates list every definition line found. ``workdir`` is an already
    resolved directory, as for ``edit_file``.
    """
    with _checked_file(workdir, file) as path:
        data = _read(path)
        text = data.decode("utf-8")
        hits = _signature_lines(text, signature.strip())
        if len(hits) != 1:
            hint = EditHint(anchor="signature", given_line=0, candidate_lines=[line for line, _ in hits])
            return EditOutcome(status="mismatch", hint=hint)

        def_line, begin = hits[0]
        head, _, tail = _line_span(data, def_line, def_line + _block_lines(text, begin))
        _splice(path, data, head, tail, new_code)
    return EditOutcome(status="applied")


def _block_lines(text: str, begin: int) -> int:
    r"""How many lines after the line that begins at text[begin] belong to
    its block: up to the last line indented deeper than it before the first
    non-blank line indented no deeper. Lines are walked one "\n" at a time
    from begin and the walk stops there, so the rest of the text is not
    split; the empty end after a final "\n" is blank, so it never ends the
    block."""
    end = text.find("\n", begin)
    first = text[begin : len(text) if end == -1 else end]
    indent = len(first) - len(first.lstrip())
    block = lines = 0
    while end != -1:
        start, end = end + 1, text.find("\n", end + 1)
        line = text[start : len(text) if end == -1 else end]
        lines += 1
        body = line.lstrip()
        if not body:  # a blank line
            continue
        if len(line) - len(body) <= indent:
            break
        block = lines
    return block


@dataclass
class Sandbox:
    """Subprocess sandbox rooted at a workdir: scrubbed env, timeout with
    process-tree kill, byte-capped output, and a relative-escape path policy."""

    workdir: Path
    timeout: float = 120.0
    output_limit: int = DEFAULT_OUTPUT_LIMIT
    trace_enabled: bool = False

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir).resolve()

    def scrubbed_env(self) -> dict[str, str]:
        # look up the allowlisted names only; iterating os.environ decodes every variable
        env = {k: os.environ[k] for k in _ENV_ALLOWLIST if k in os.environ}
        # bytecode caches would pollute patches and break transcript determinism
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def check_path_policy(self, cmd: str) -> None:
        """Reject commands whose relative path tokens climb out of the workdir.

        A token's characters are the command's, less quotes and escaping
        backslashes, so no token holds ".." unless the command does once
        those are deleted; only then is the command tokenized.
        """
        if ".." not in cmd.translate(_QUOTING):
            return
        try:
            tokens = shlex.split(cmd)
        except ValueError:
            tokens = cmd.split()
        for token in tokens:
            if token.startswith("/"):
                continue
            if token == ".." or token.startswith("../") or "/../" in token:
                raise SpawnFailure(f"path policy rejects parent escape in {token!r}")


def _truncate(data: bytes, limit: int) -> str:
    if len(data) <= limit:
        return data.decode("utf-8", errors="replace")
    head = data[:limit].decode("utf-8", errors="replace")
    return head + f"\n[output truncated at {limit} bytes]"


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


_READ_CHUNK = 1 << 16


class _Pipes:
    """The read ends of a child's pipes, served by one poll loop.

    Each read end fills its own buffer in ``data``. With a ``limit``, a
    buffer keeps its first ``limit + 1`` bytes, enough for ``_truncate`` to
    see the cut, and the rest is read and dropped, so a command that prints
    without end holds no more memory than that.
    """

    def __init__(self, reads: list[int], limit: int | None = None) -> None:
        self.data = {fd: bytearray() for fd in reads}
        self._limit = limit
        self._open = set(reads)
        self._poll = select.poll()
        for fd in reads:
            self._poll.register(fd, select.POLLIN)

    def pump(self, deadline: float | None, pidfd: int = -1, drain: bool = False) -> bool:
        """Read the pipes until every one is at end of file; return whether
        ``deadline`` (a ``time.monotonic`` instant, None for none) passed
        first. The deadline is checked before every read, so a child that
        never stops writing still times out. With a ``pidfd`` it also
        returns once that is readable, when the child has exited; with
        ``drain``, once no pipe has bytes ready.
        """
        if pidfd != -1:
            self._poll.register(pidfd, select.POLLIN)
        try:
            while self._open or pidfd != -1:
                wait = None
                if deadline is not None:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        return True
                    wait = math.ceil(left * 1000)
                events = self._poll.poll(0 if drain else wait)
                if drain and not events:
                    return False
                for fd, _ in events:
                    if fd == pidfd:
                        return False
                    self._read(fd)
            return False
        finally:
            if pidfd != -1:
                self._poll.unregister(pidfd)

    def read_until(self, fd: int, done) -> bool:
        """Read the pipes until ``done(self.data[fd])`` holds; return False
        if fd reaches end of file first."""
        while not done(self.data[fd]):
            if fd not in self._open:
                return False
            for ready, _ in self._poll.poll():
                self._read(ready)
        return True

    def _read(self, fd: int) -> None:
        chunk = os.read(fd, _READ_CHUNK)
        if not chunk:
            self._poll.unregister(fd)
            self._open.discard(fd)
            os.close(fd)
            return
        buf = self.data[fd]
        if self._limit is None:
            buf += chunk
        elif len(buf) <= self._limit:
            buf += chunk[: self._limit + 1 - len(buf)]

    def close(self) -> None:
        for fd in self._open:
            os.close(fd)
        self._open.clear()


def _pidfd(pid: int) -> int:
    """A descriptor that turns readable when process pid exits, or -1 where
    the system has no pidfd_open."""
    try:
        return os.pidfd_open(pid)
    except (AttributeError, OSError):
        return -1


def run_command(cmd: str, sandbox: Sandbox) -> CommandResult:
    """Run a shell command inside the sandbox.

    Captures interleaved stdout/stderr up to the byte ceiling, holding no
    more than that in memory. The wait ends when the shell exits (watched
    through a pidfd) or at the deadline. Either way the whole process group
    is then killed, so a background child dies with its shell instead of
    holding the output pipe open; after a normal exit, output still in the
    pipe is read until the deadline. On timeout the exit status is the
    timeout sentinel. Any other way out of the wait, such as an interrupt,
    also kills the group and reaps the shell before it propagates. Where
    pidfd_open is missing, the wait reads the pipe to its end and then waits
    on the shell for the time that is left.
    """
    if not cmd.strip():
        raise SpawnFailure("empty command")
    sandbox.check_path_policy(cmd)
    out, into = os.pipe()
    try:
        proc = subprocess.Popen(
            cmd,
            shell=True,
            cwd=sandbox.workdir,
            env=sandbox.scrubbed_env(),
            # a command that reads stdin gets end of file, not the operator's terminal
            stdin=subprocess.DEVNULL,
            stdout=into,
            stderr=into,
            start_new_session=True,
        )
    except OSError as exc:
        os.close(out)
        raise SpawnFailure(f"could not spawn command: {exc}") from exc
    finally:
        os.close(into)
    deadline = time.monotonic() + sandbox.timeout
    pipes = _Pipes([out], sandbox.output_limit)
    pidfd = _pidfd(proc.pid)
    try:
        timed_out = pipes.pump(deadline, pidfd)
        if not timed_out and pidfd == -1:
            try:
                proc.wait(max(deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                timed_out = True
        _kill_group(proc)
        if not timed_out:
            pipes.pump(deadline, drain=True)
    except BaseException:
        # the command runs in its own session, which an interrupt at the
        # terminal does not reach
        _kill_group(proc)
        raise
    finally:
        pipes.close()
        if pidfd != -1:
            os.close(pidfd)
        proc.wait()
    text = _truncate(pipes.data[out], sandbox.output_limit)
    if timed_out:
        return CommandResult(output=text + f"\n[timed out after {sandbox.timeout:g}s]", exit_status=TIMEOUT_EXIT, timed_out=True)
    return CommandResult(output=text, exit_status=proc.returncode)


_TRACE_DRIVER = '''\
import json, os, runpy, sys

prefix = os.path.abspath(sys.argv[1])
out_path = sys.argv[2]
script = os.path.abspath(sys.argv[3])
sys.argv = [sys.argv[3]] + sys.argv[4:]
calls = []

def _tracer(frame, event, arg):
    if event == "call":
        name = frame.f_code.co_name
        raw = frame.f_code.co_filename
        if not name.startswith("<") and not raw.startswith("<"):
            filename = os.path.abspath(raw)
            if filename.startswith(prefix):
                calls.append({"function": name, "file": filename, "line": frame.f_lineno})
    return None

status = 0
sys.settrace(_tracer)
try:
    runpy.run_path(script, run_name="__main__")
except SystemExit as exc:
    status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
except BaseException:
    import traceback
    traceback.print_exc()
    status = 1
finally:
    sys.settrace(None)
    with open(out_path, "w") as fh:
        json.dump(calls, fh)
sys.exit(status)
'''


def _parse_traceable(cmd: str) -> list[str]:
    try:
        tokens = shlex.split(cmd)
    except ValueError as exc:
        raise DriverUnavailable(f"cannot tokenize command: {exc}") from exc
    if len(tokens) >= 2 and Path(tokens[0]).name.startswith("python") and tokens[1].endswith(".py"):
        return tokens
    raise DriverUnavailable(f"no tracing driver for {cmd!r}")


def run_traced(cmd: str, sandbox: Sandbox) -> TraceReport:
    """Run a script under the call tracer.

    Records user-code function calls in call order (frames outside the workdir
    are filtered out) and produces a report whether or not the program exits
    cleanly. Raises DriverUnavailable for commands the tracer cannot wrap.
    """
    tokens = _parse_traceable(cmd)
    with tempfile.TemporaryDirectory(prefix="trace-") as tmp:
        driver = Path(tmp) / "driver.py"
        driver.write_text(_TRACE_DRIVER, encoding="utf-8")
        out_json = Path(tmp) / "calls.json"
        argv = [tokens[0], str(driver), str(sandbox.workdir), str(out_json)] + tokens[1:]
        # the added paths are absolute, so the path policy judges the command as given
        result = run_command(shlex.join(argv), sandbox)
        calls: list[TraceCall] = []
        if out_json.is_file():
            for item in json.loads(out_json.read_text(encoding="utf-8")):
                calls.append(TraceCall(item["function"], item["file"], item["line"]))
    return TraceReport(calls=calls, exit_status=result.exit_status, output=result.output)


# --- git patch tracking ---


_GIT_EXECUTABLES: dict[bytes | None, str] = {}  # PATH -> the git it finds


def _git_executable(path: bytes | None) -> str:
    """The git that a search of PATH (os.defpath when unset) finds first."""
    exe = _GIT_EXECUTABLES.get(path)
    if exe is None:
        exe = shutil.which("git", path=os.defpath if path is None else os.fsdecode(path))
        if exe is None:
            raise FileNotFoundError(2, "No such file or directory", "git")
        if os.path.isabs(exe):  # a relative PATH entry finds git anew from each cwd
            _GIT_EXECUTABLES[path] = exe
    return exe


def _spawn_git(
    workdir: str | Path, args: tuple[str, ...], env: dict[bytes, bytes] | None = None, stdin: int = -1
) -> tuple[int, _Pipes]:
    """Start git; return its pid and the pipes its stdout and stderr write
    to, the keys of ``data`` in that order.

    git runs in this process's environment, with the variables of ``env``
    added. It is started with posix_spawn from its resolved path, with the
    signals Python ignores restored to their defaults as ``subprocess``
    restores them. Its stdin is the descriptor ``stdin``, or /dev/null when
    that is -1. It inherits no other descriptor: Python makes its own
    non-inheritable (PEP 446).
    """
    # os.environ keeps the variables in a dict of bytes, which posix_spawn
    # takes as it is; os.environ itself would be decoded and re-encoded
    # variable by variable on every call
    env = {**os.environ._data, **env} if env else os.environ._data
    exe = _git_executable(env.get(b"PATH"))
    source = (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0) if stdin == -1 else (os.POSIX_SPAWN_DUP2, stdin, 0)
    stdout_r, stdout_w = os.pipe()
    stderr_r, stderr_w = os.pipe()
    pipes = _Pipes([stdout_r, stderr_r])
    try:
        pid = os.posix_spawn(
            exe, ["git", "-C", str(workdir), *args], env,
            file_actions=[source, (os.POSIX_SPAWN_DUP2, stdout_w, 1), (os.POSIX_SPAWN_DUP2, stderr_w, 2)],
            setsigdef=(signal.SIGPIPE, signal.SIGXFSZ),
        )
    except BaseException:
        pipes.close()
        raise
    finally:
        os.close(stdout_w)
        os.close(stderr_w)
    return pid, pipes


def _git(workdir: str | Path, *args: str, env: dict[bytes, bytes] | None = None) -> subprocess.CompletedProcess:
    r"""Run git to its end, started as ``_spawn_git`` starts it. Its output
    is read as bytes and decoded as UTF-8 with no newline translation (text
    mode would turn "\r\n" into "\n" and break a patch of a CRLF file);
    stdout keeps a byte that is not UTF-8 as a lone surrogate
    (surrogateescape), so ``GitPatch.data`` gives git's bytes back.
    """
    pid, pipes = _spawn_git(workdir, args, env)
    try:
        pipes.pump(None)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipes.close()
        _, status = os.waitpid(pid, 0)
    stdout, stderr = pipes.data.values()
    return subprocess.CompletedProcess(
        ["git", "-C", str(workdir), *args],
        os.waitstatus_to_exitcode(status),
        stdout.decode("utf-8", "surrogateescape"),
        stderr.decode("utf-8", "replace"),
    )


def head_revision(workdir: str | Path, rev: str = "HEAD") -> str:
    """The object id that ``rev`` names in workdir's repository."""
    proc = _git(workdir, "rev-parse", rev)
    if proc.returncode != 0:
        raise NotARepository(f"{workdir} has no git HEAD: {proc.stderr.strip()}")
    return proc.stdout.strip()


_REPO_EXCLUDES = "__pycache__/\n*.pyc\n"


def _check_workdir_placement(workdir: str | Path) -> bool:
    """Refuse a workdir below the top level of a git repository; return
    whether the workdir is itself a repository's top level.

    A workdir that does not exist yet is looked up from its nearest existing
    parent, where git would find it once made, so a run can be refused before
    it creates any directory.
    """
    workdir = Path(workdir)
    start = next(p for p in (workdir, *workdir.absolute().parents) if p.is_dir())
    proc = _git(start, "rev-parse", "--show-toplevel")
    if proc.returncode != 0:
        return False
    if Path(proc.stdout.strip()) != workdir.resolve():
        raise NotARepository(
            f"{workdir} lies inside the git repository at {proc.stdout.strip()}; "
            "use that repository's top level or a directory outside any repository"
        )
    return True


def ensure_repo(workdir: str | Path) -> tuple[str, bool]:
    """Make workdir a git repo with a base state; return the base tree, the
    one every snapshot diff of the run starts from, and whether this call
    made the repository.

    A directory with no repository gets one, with a commit of its files, and
    the base is that commit's tree. In an existing repository the base is
    HEAD's tree, or the empty tree while HEAD names no commit yet: nothing is
    committed there, so the user's branch is left as found. The workdir must
    be the top level of its repository and hold a .git directory, where the
    run keeps its lock and its snapshots' directory. A workdir below the top
    of another repository is refused rather than adopted; a missing one is
    made only once that check accepts it, so a refused run makes no
    directory.
    """
    workdir = Path(workdir)
    if not _check_workdir_placement(workdir):
        if not workdir.exists():
            workdir.mkdir(parents=True)
        proc = _git(workdir, "init", "-q")
        if proc.returncode != 0:
            raise NotARepository(f"git init failed: {proc.stderr.strip()}")
        # only a repository the run makes gets its excludes: the user's
        # repository configuration is left as found
        exclude = workdir / ".git" / "info" / "exclude"
        if exclude.parent.is_dir():
            with exclude.open("a", encoding="utf-8") as fh:
                fh.write(_REPO_EXCLUDES)
        _git(workdir, "add", "-A")
        proc = _git(
            workdir,
            "-c", "user.name=agentloop",
            "-c", "user.email=agentloop@localhost",
            "-c", "commit.gpgsign=false",
            "-c", "maintenance.auto=false",
            "commit", "-q", "--allow-empty", "--no-verify", "-m", "base",
        )
        if proc.returncode != 0:
            raise NotARepository(f"base commit failed: {proc.stderr.strip()}")
        return head_revision(workdir, "HEAD^{tree}"), True
    if not (workdir / ".git").is_dir():
        raise NotARepository(f"{workdir}/.git is a file (a linked worktree or submodule), not a directory")
    head = _git(workdir, "rev-parse", "HEAD^{tree}")
    if head.returncode != 0:  # no commit yet: the empty tree, in the repository's hash
        head = _git(workdir, "hash-object", "-t", "tree", "--stdin")  # stdin is /dev/null
        if head.returncode != 0:
            raise NotARepository(f"{workdir} has no base tree: {head.stderr.strip()}")
    return head.stdout.strip(), False


# Ends each diff request. It is no object id, so diff-tree --stdin copies it
# to stdout and flushes; every line of a patch begins with another
# character, so a reply ends where a line equal to it ends.
_REPLY_END = b"~agentloop-diff-end\n"


def _reply_ended(out: bytearray) -> bool:
    return out.endswith(_REPLY_END) and out[-len(_REPLY_END) - 1 : -len(_REPLY_END)] in (b"", b"\n")


class Snapshots:
    """Where one run's snapshots are written, and the diffs between them.

    Snapshots write only into ``.git/agentloop``: a private index, first
    copied from the real one, and a private object directory whose alternate
    is the repository's own store. The directory is made at the first
    snapshot or diff, once any that a killed run left is removed, and made
    again by the first ``git_env`` call after a command removed it; ``lost``
    then tells which trees went with it. ``close`` removes it, so a
    snapshot's tree id resolves only until then.

    One ``git diff-tree --stdin -p -M`` process, started at the first diff,
    serves every diff. Each request is the two tree ids, then
    ``_REPLY_END``. git answers a pair it can read as two trees with the line
    ``<since> <tree>`` and the patch, as ``git diff-tree -p -M <since>
    <tree>`` prints it; for any other line it prints an error, or copies the
    line, and goes on. So a reply that does not start with that line raises
    NotARepository with git's stderr, as does git's end of file: a failed
    diff never reads as an empty patch. Stdout and stderr are read in one
    poll loop, so git never waits on a full stderr pipe. Any exception during
    a request, an interrupt included, kills and reaps the process but keeps
    the directory; the next request starts another process.
    """

    def __init__(self, workdir: str | Path) -> None:
        self.workdir = workdir
        self._dir = Path(os.path.abspath(workdir), ".git", "agentloop")
        self._env: dict[bytes, bytes] | None = None  # set once the directory is made
        self._made = 0  # directories made so far
        self._trees: dict[str, int] = {}  # tree id -> the directory, by _made, it was written to
        self._pid = 0  # 0 while no diff process runs
        self._stdin = -1
        self._pipes: _Pipes | None = None

    def git_env(self) -> dict[bytes, bytes]:
        """git's variables for the private index and objects; the first call
        makes them, as does the first call after the directory was removed."""
        if self._env is None or not self._dir.is_dir():
            # a killed run's index, its stale index.lock and its objects, or
            # the diff process of a directory that a command removed
            self.close()
            self._made += 1
            if not self._dir.parent.is_dir():
                raise NotARepository(f"{self.workdir} is not a git repository: it has no .git directory")
            objects = self._dir / "objects"
            (objects / "info").mkdir(parents=True)
            # a file, not GIT_ALTERNATE_OBJECT_DIRECTORIES, which splits a path at ":"
            (objects / "info" / "alternates").write_bytes(b"../../objects\n")
            with suppress(FileNotFoundError):
                shutil.copy2(self._dir.parent / "index", self._dir / "index")
            self._env = {b"GIT_INDEX_FILE": os.fsencode(self._dir / "index"), b"GIT_OBJECT_DIRECTORY": os.fsencode(objects)}
        return self._env

    def snapshot(self) -> str:
        """Stage the worktree into the private index and write it as a tree;
        return the tree's id.

        The private index is kept between calls, so git's stat cache spares
        unchanged files a re-hash. Snapshot objects are scratch (no ref names
        them and only the diff reads them), so they are written uncompressed;
        ids do not depend on compression.
        """
        env = self.git_env()
        proc = _git(self.workdir, "-c", "core.looseCompression=0", "add", "-A", env=env)
        if proc.returncode == 0:
            proc = _git(self.workdir, "-c", "core.looseCompression=0", "write-tree", env=env)
        if proc.returncode != 0:
            raise NotARepository(f"git snapshot failed: {proc.stderr.strip()}")
        tree = proc.stdout.strip()
        self._trees[tree] = self._made
        return tree

    def lost(self, tree: str) -> bool:
        """Whether ``tree`` was written by a snapshot into a directory that
        was removed, as the last ``git_env`` found: its objects went with it."""
        return self._trees.get(tree, self._made) != self._made

    def diff(self, since: str, tree: str) -> str:
        """The patch from tree ``since`` to tree ``tree``, decoded as ``_git``
        decodes stdout."""
        if not (since.isalnum() and tree.isalnum()):  # no whitespace can split the request
            raise NotARepository(f"git diff-tree takes two tree ids, not {since!r} and {tree!r}")
        if not self._pid:
            stdin_r, self._stdin = os.pipe()
            try:
                self._pid, self._pipes = _spawn_git(self.workdir, ("diff-tree", "--stdin", "-p", "-M"), self.git_env(), stdin_r)
            except BaseException:
                os.close(self._stdin)
                raise
            finally:
                os.close(stdin_r)
        pipes = self._pipes
        out, err = pipes.data
        header = f"{since} {tree}\n".encode()
        try:
            for buf in pipes.data.values():
                buf.clear()
            try:
                # a tab parts the ids as well as a space does, so a request
                # that git copies back never passes for the header
                os.write(self._stdin, f"{since}\t{tree}\n".encode() + _REPLY_END)
            except BrokenPipeError:  # git has exited; its stderr says why
                pass
            reply = pipes.data[out]
            if not (pipes.read_until(out, _reply_ended) and reply.startswith(header)):
                pipes.pump(None, drain=True)
                error = pipes.data[err].decode("utf-8", "replace").strip()
                raise NotARepository(f"git diff-tree {since} {tree} failed: {error or 'no diff header'}")
        except BaseException:
            self._stop()
            raise
        return reply[len(header) : -len(_REPLY_END)].decode("utf-8", "surrogateescape")

    def _stop(self) -> None:
        """Kill and reap the diff process, if one runs."""
        if self._pid:
            pid, self._pid = self._pid, 0
            os.close(self._stdin)
            self._pipes.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def close(self) -> None:
        """End the diff process, if one runs, and remove the directory,
        whether or not this object made it."""
        self._stop()
        self._env = None
        # the index goes first: one left by a removal cut short would name objects that are gone
        (self._dir / "index").unlink(missing_ok=True)
        with suppress(FileNotFoundError):
            shutil.rmtree(self._dir)


def snapshot_patch(snapshots: Snapshots, since: str, tree: str | None = None, base: str | None = None) -> GitPatch:
    """Unified diff from the tree ``since`` to the worktree, new files
    included, or to ``tree`` when given.

    The worktree is snapshotted by ``snapshots``, the run's ``Snapshots``,
    into its private index and object directory, so HEAD, the repository's
    own index and its object store are never touched. A ``tree`` from an
    earlier snapshot of an unchanged worktree skips the staging. The
    returned ``tree`` is the ``since`` of a diff holding only the changes
    made after this snapshot. When a command removed the snapshots'
    directory, and ``since`` or ``tree`` with it, the worktree is staged
    again and the diff starts at ``base``, a tree outside that directory,
    which the returned ``base_revision`` then names.
    """
    snapshots.git_env()  # makes a removed directory again: lost() then names its trees
    if tree is None or snapshots.lost(tree):
        tree = snapshots.snapshot()
    if base is not None and snapshots.lost(since):
        since = base
    if tree == since:  # nothing changed since a snapshot: no diff to run
        return GitPatch(text="", base_revision=since, tree=tree)
    # plumbing: no diff config (context, renames, prefixes, color, external
    # tools, textconv) reaches it; -M detects renames as git diff does by default
    return GitPatch(text=snapshots.diff(since, tree), base_revision=since, tree=tree)


def apply_patch(patch: GitPatch, workdir: str | Path) -> None:
    """Apply a snapshot patch to a clean checkout of its base revision.

    git reads the patch from a temporary file, which is removed whether or
    not the patch applies.
    """
    if _git(workdir, "rev-parse", "--git-dir").returncode != 0:
        raise NotARepository(f"{workdir} is not a git repository")
    if patch.empty:
        return
    with tempfile.NamedTemporaryFile(prefix="agentloop-", suffix=".patch") as fh:
        fh.write(patch.data)
        fh.flush()
        proc = _git(workdir, "apply", "--whitespace=nowarn", fh.name)
    if proc.returncode != 0:
        raise PatchApplyFailure(proc.stderr.strip() or "git apply failed")
