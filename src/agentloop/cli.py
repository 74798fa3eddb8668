"""Operator surface: run a request against a repo, exercise the anchored
editor standalone, and produce cost-model reports.

Exit codes: 0 solved/ok, 2 iteration cap, 3 budget exhausted, 4 edit
mismatch, 64 config/usage error (a bad flag or config-file line, an unknown
key, a value RunConfig rejects, or a bad pricing table), 65 line out of
range or a file or content file that is not UTF-8, 66 missing file, 74 any
other OS error from an edit, 1 internal error, 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import json
import os
import signal
import sys
import threading
from dataclasses import fields
from pathlib import Path

from . import accounting
from .accounting import TokenModelParams, cost_report, load_pricing
from .agents import on_off
from .backends import HttpChatBackend, ScriptedBackend, load_script
from .errors import AgentLoopError, ConfigError, LineOutOfRange
from .memory import export_transcript
from .orchestrator import DISPATCH_MODES, EXIT_CODES, Orchestrator, RunConfig
from .toolkit import EditRequest, edit_file

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_IOERR = 74
EX_MISMATCH = 4
EX_TERMINATED = 128 + signal.SIGTERM


class _Terminated(BaseException):
    """SIGTERM, raised in the main thread as Ctrl-C raises KeyboardInterrupt,
    so a command's ``finally`` blocks run: a run's sandbox group is killed,
    its diff process reaped, its snapshots' directory removed, its
    transcript and ledger written and its lock released."""


def _raise_terminated(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second one cannot cut the clean-up short
    raise _Terminated


@contextlib.contextmanager
def _sigterm_raises():
    """While the block runs in the main thread, SIGTERM raises _Terminated;
    the previous handler is restored afterwards."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        yield
    finally:
        # None: a handler not set from Python, which cannot be put back
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so main reports every one as exit 64."""

    def error(self, message: str):
        raise ConfigError(message)


def _config_flags(path: str) -> list[str]:
    """key = value lines (# comments) as the flags --key-with-dashes=value."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    flags = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key == "config":
            raise ConfigError(f"{path}:{lineno}: config files do not nest")
        value = value.strip().strip("\"'")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="agentloop")
    sub = parser.add_subparsers(dest="command", required=True)

    # the only list of run settings: flags, and (as key_with_underscores) config-file keys
    run = sub.add_parser("run", allow_abbrev=False,
                         help="run the loop for one request against a workdir")
    run.add_argument("request", nargs="?", help="the user request text")
    run.add_argument("--issue-file", help="read the request from this file instead")
    run.add_argument("--config", help="key = value config file; flags override")
    run.add_argument("--workdir", help="repository/work directory for the run")
    run.add_argument("--mock", help="scripted backend file (JSON list or JSONL)")
    run.add_argument("--backend-url", help="chat-completion endpoint for real backends")
    run.add_argument("--brain-model", default="mock-brain")
    run.add_argument("--hand-model", default="mock-hand")
    run.add_argument("--pricing", help="JSON pricing table path")
    run.add_argument("--out-dir", help="directory for transcript/patch/cost report")
    run.add_argument("--transcript", help="transcript JSONL path")
    run.add_argument("--patch-out", help="final patch path")
    run.add_argument("--cost-report", help="cost report JSON path")
    # RunConfig fields (dest = field name); unset flags stay None so RunConfig's defaults apply
    run.add_argument("--max-iterations", type=int)
    run.add_argument("--max-cost", type=float)
    run.add_argument("--self-corrections", type=int, dest="self_correction_limit", metavar="N")
    run.add_argument("--timeout", type=float, dest="sandbox_timeout", metavar="SECONDS",
                     help="sandbox timeout in seconds")
    run.add_argument("--dispatch-mode", choices=DISPATCH_MODES)
    run.add_argument("--memory-retrieval", type=on_off, metavar="{on,off}")
    run.add_argument("--voting", type=int, dest="voting_rounds", metavar="N",
                     help="voting rounds for reasoning")
    run.add_argument("--budget-per-iteration", type=on_off, metavar="{on,off}")

    edit = sub.add_parser("edit", help="apply one anchored edit to a file")
    edit.add_argument("file")
    edit.add_argument("start_line", type=int)
    edit.add_argument("end_line", type=int)
    edit.add_argument("start_anchor")
    edit.add_argument("end_anchor")
    edit.add_argument("content_file", help="file holding the replacement text")
    edit.add_argument("--workdir", default=".")

    cost = sub.add_parser("analyze-cost", help="token-cost model report")
    cost.add_argument("--sampled-defaults", action="store_true",
                      help="use the sampled turn statistics and averages")
    cost.add_argument("-n", type=float, help="analyses per turn")
    cost.add_argument("-m", type=float, help="action-observation pairs per turn")
    cost.add_argument("-k", type=float, help="turns")
    cost.add_argument("--avg", help="averages, e.g. 'all=1' or 'input=359,sumy=784,...'")

    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's lines as flags
    placed before argv's own, so flags override the file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        command, *rest = sys.argv[1:] if argv is None else argv
        args = parser.parse_args([command, *_config_flags(args.config), *rest])
    return args


def _hold_lock(path: Path, workdir: Path) -> int:
    """Take the run's lock on workdir, an exclusive flock on the file at
    path, and return the descriptor that holds it. The kernel drops a flock
    when its holder dies, so even a killed run leaves no stale lock."""
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_CLOEXEC, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        # a holder unlinks the file before it lets go, so a flock taken
        # after that holds a file that path no longer names
        held = os.path.samestat(os.fstat(fd), os.stat(path))
    except (BlockingIOError, FileNotFoundError):
        held = False
    except BaseException:
        os.close(fd)
        raise
    if not held:
        os.close(fd)
        raise ConfigError(f"another run holds the lock on {workdir}")
    return fd


def cmd_run(args: argparse.Namespace) -> int:
    settings = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    try:
        config = RunConfig(**{k: v for k, v in settings.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if bool(args.request) == bool(args.issue_file):
        raise ConfigError("provide exactly one of a request argument or --issue-file")
    if args.issue_file:
        issue = Path(args.issue_file)
        if not issue.is_file():
            raise ConfigError(f"issue file not found: {issue}")
        request = issue.read_text(encoding="utf-8")
    else:
        request = args.request
    if not request.strip():
        raise ConfigError("request is empty")

    if not args.workdir:
        raise ConfigError("--workdir is required")

    pricing = None
    if args.pricing:
        pricing_path = Path(args.pricing)
        if not pricing_path.is_file():
            raise ConfigError(f"pricing file not found: {pricing_path}")
        try:
            pricing = load_pricing(pricing_path)
        except ValueError as exc:
            raise ConfigError(f"bad pricing file {pricing_path}: {exc}") from exc

    if args.mock:
        mock_path = Path(args.mock)
        if not mock_path.is_file():
            raise ConfigError(f"mock script not found: {mock_path}")
        source = load_script(mock_path)
        brain = ScriptedBackend(source, role="brain", model=args.brain_model)
        hand = ScriptedBackend(source, role="hand", model=args.hand_model)
    elif args.backend_url:
        if pricing is None:
            raise ConfigError("a pricing table is required with a real backend")
        brain = HttpChatBackend(args.backend_url, args.brain_model)
        hand = HttpChatBackend(args.backend_url, args.hand_model)
    else:
        raise ConfigError("select a backend: --mock <script> or --backend-url <url>")

    # the settings are valid; a refused run must still make no directory, so
    # ensure_repo makes the workdir only where git accepts it, and the output
    # directory is made only once the run holds the workdir's lock
    orch = Orchestrator(config, brain, hand, workdir=args.workdir, pricing=pricing)
    workdir = orch.sandbox.workdir  # resolved: the lock and artifacts stay put if a link moves
    out_dir = Path(args.out_dir) if args.out_dir else workdir.parent / (workdir.name + "-artifacts")
    transcript_path = Path(args.transcript) if args.transcript else out_dir / "transcript.jsonl"
    patch_path = Path(args.patch_out) if args.patch_out else out_dir / "final.patch"
    report_path = Path(args.cost_report) if args.cost_report else out_dir / "cost_report.json"
    lock_path = workdir / ".git" / "agentloop.lock"
    lock = _hold_lock(lock_path, workdir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            outcome = orch.run(request)
            patch_path.write_bytes(outcome.final_patch.data)  # git's bytes, so the patch applies
        finally:
            # a run that dies still leaves every record and charge up to its failing call
            export_transcript(orch.store, transcript_path)
            with report_path.open("w", encoding="utf-8") as fh:  # streamed: never one string
                json.dump(orch.ledger.to_dict(), fh, indent=2)
                fh.write("\n")
    finally:
        lock_path.unlink(missing_ok=True)  # before the flock goes: see _hold_lock
        os.close(lock)

    print(
        f"status: {outcome.status.value}\n"
        f"turns: {outcome.turns_used}\n"
        f"cost: {orch.ledger.total_cost:.4f}\n"
        f"patch: {patch_path}\n"
        f"transcript: {transcript_path}"
    )
    return EXIT_CODES[outcome.status]


def cmd_edit(args: argparse.Namespace) -> int:
    content_path = Path(args.content_file)
    if not content_path.is_file():
        print(f"content file not found: {content_path}", file=sys.stderr)
        return EX_NOINPUT
    try:
        new_content = content_path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        print(f"cannot read {content_path}: not UTF-8 text", file=sys.stderr)
        return EX_DATAERR
    try:
        request = EditRequest(
            file=args.file,
            start_line=args.start_line,
            end_line=args.end_line,
            start_line_string=args.start_anchor,
            end_line_string=args.end_anchor,
            new_content=new_content,
        )
    except ValueError as exc:
        print(f"bad edit request: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        outcome = edit_file(request, os.path.realpath(args.workdir))
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except LineOutOfRange as exc:
        print(f"line out of range: {exc}", file=sys.stderr)
        return EX_DATAERR
    except UnicodeDecodeError:
        print(f"cannot edit {args.file}: not UTF-8 text", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:
        print(f"cannot edit {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return EX_IOERR
    if outcome.applied:
        print(f"applied: {args.file}")
        return 0
    print(json.dumps(outcome.hint.to_dict(), indent=2))
    return EX_MISMATCH


def _parse_avg(spec: str | None) -> dict[str, float]:
    averages = {cat: 0.0 for cat in accounting.CATEGORIES}
    if not spec:
        return averages
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad --avg item {item!r}; expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad --avg value for {key!r}: {value!r}") from exc
        if key == "all":
            averages = {cat: number for cat in accounting.CATEGORIES}
        elif key in averages:
            averages[key] = number
        else:
            raise ConfigError(f"unknown --avg key {key!r}")
    return averages


def cmd_analyze_cost(args: argparse.Namespace) -> int:
    if args.sampled_defaults:
        params = TokenModelParams.sampled_defaults()
    else:
        if args.n is None or args.m is None or args.k is None:
            raise ConfigError("provide -n, -m, and -k (or --sampled-defaults)")
        averages = _parse_avg(args.avg)
        try:
            params = TokenModelParams(n=args.n, m=args.m, k=args.k, **averages)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    print(json.dumps(cost_report(params), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        commands = {"run": cmd_run, "edit": cmd_edit, "analyze-cost": cmd_analyze_cost}
        with _sigterm_raises():
            return commands[args.command](args)
    except _Terminated:
        print("terminated", file=sys.stderr)
        return EX_TERMINATED
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_USAGE
    except AgentLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
