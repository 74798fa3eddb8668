"""Operator surface: run a request against a repo, exercise the anchored
editor standalone, and produce cost-model reports.

Exit codes: 0 solved/ok, 2 iteration cap, 3 budget exhausted, 4 edit
mismatch, 64 config/usage error, 65 line out of range, 66 missing file,
1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import accounting
from .accounting import TokenModelParams, cost_report, load_pricing
from .backends import HttpChatBackend, ScriptedBackend, load_script
from .errors import AgentLoopError, ConfigError, LineOutOfRange
from .memory import export_transcript
from .orchestrator import EXIT_CODES, Orchestrator, RunConfig
from .toolkit import EditRequest, edit_file

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_MISMATCH = 4

_CONFIG_KEYS = {
    "workdir", "mock", "backend_url", "brain_model", "hand_model",
    "max_iterations", "max_cost", "self_corrections", "timeout",
    "dispatch_mode", "memory_retrieval", "voting", "budget_per_iteration",
    "pricing", "transcript", "patch_out", "cost_report", "out_dir",
}


def _parse_config_file(path: str | Path) -> dict[str, str]:
    """key = value lines, # comments; unknown keys are rejected."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip().strip("\"'")
    return values


def _as_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("on", "true", "1", "yes"):
        return True
    if lowered in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be on/off, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agentloop")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the loop for one request against a workdir")
    run.add_argument("request", nargs="?", help="the user request text")
    run.add_argument("--issue-file", help="read the request from this file instead")
    run.add_argument("--workdir", help="repository/work directory for the run")
    run.add_argument("--mock", help="scripted backend file (JSON list or JSONL)")
    run.add_argument("--backend-url", help="chat-completion endpoint for real backends")
    run.add_argument("--brain-model")
    run.add_argument("--hand-model")
    run.add_argument("--max-iterations", type=int)
    run.add_argument("--max-cost", type=float)
    run.add_argument("--self-corrections", type=int)
    run.add_argument("--timeout", type=float, help="sandbox timeout in seconds")
    run.add_argument("--dispatch-mode", choices=["hierarchical", "flat"])
    run.add_argument("--memory-retrieval", choices=["on", "off"])
    run.add_argument("--voting", type=int, help="voting rounds for reasoning")
    run.add_argument("--budget-per-iteration", choices=["on", "off"])
    run.add_argument("--pricing", help="JSON pricing table path")
    run.add_argument("--config", help="key = value config file; flags override")
    run.add_argument("--out-dir", help="directory for transcript/patch/cost report")
    run.add_argument("--transcript", help="transcript JSONL path")
    run.add_argument("--patch-out", help="final patch path")
    run.add_argument("--cost-report", help="cost report JSON path")

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


def _resolve(args: argparse.Namespace, file_values: dict[str, str]):
    """Merge flags over config-file values over hard defaults."""

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    merged = {
        "workdir": pick(args.workdir, "workdir"),
        "mock": pick(args.mock, "mock"),
        "backend_url": pick(args.backend_url, "backend_url"),
        "brain_model": pick(args.brain_model, "brain_model", "mock-brain"),
        "hand_model": pick(args.hand_model, "hand_model", "mock-hand"),
        "max_iterations": int(pick(args.max_iterations, "max_iterations", 100)),
        "max_cost": float(pick(args.max_cost, "max_cost", 10.0)),
        "self_corrections": int(pick(args.self_corrections, "self_corrections", 3)),
        "timeout": float(pick(args.timeout, "timeout", 120.0)),
        "dispatch_mode": pick(args.dispatch_mode, "dispatch_mode", "hierarchical"),
        "memory_retrieval": pick(args.memory_retrieval, "memory_retrieval", "on"),
        "voting": int(pick(args.voting, "voting", 1)),
        "budget_per_iteration": pick(args.budget_per_iteration, "budget_per_iteration", "off"),
        "pricing": pick(args.pricing, "pricing"),
        "out_dir": pick(args.out_dir, "out_dir"),
        "transcript": pick(args.transcript, "transcript"),
        "patch_out": pick(args.patch_out, "patch_out"),
        "cost_report": pick(args.cost_report, "cost_report"),
    }
    return merged


def cmd_run(args: argparse.Namespace) -> int:
    file_values = _parse_config_file(args.config) if args.config else {}
    merged = _resolve(args, file_values)

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

    if not merged["workdir"]:
        raise ConfigError("--workdir is required")
    workdir = Path(merged["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)

    pricing = None
    if merged["pricing"]:
        pricing_path = Path(merged["pricing"])
        if not pricing_path.is_file():
            raise ConfigError(f"pricing file not found: {pricing_path}")
        pricing = load_pricing(pricing_path)

    if merged["mock"]:
        mock_path = Path(merged["mock"])
        if not mock_path.is_file():
            raise ConfigError(f"mock script not found: {mock_path}")
        source = load_script(mock_path)
        brain = ScriptedBackend(source, role="brain", model=merged["brain_model"])
        hand = ScriptedBackend(source, role="hand", model=merged["hand_model"])
    elif merged["backend_url"]:
        if pricing is None:
            raise ConfigError("a pricing table is required with a real backend")
        brain = HttpChatBackend(merged["backend_url"], merged["brain_model"])
        hand = HttpChatBackend(merged["backend_url"], merged["hand_model"])
    else:
        raise ConfigError("select a backend: --mock <script> or --backend-url <url>")

    config = RunConfig(
        max_iterations=merged["max_iterations"],
        self_correction_limit=merged["self_corrections"],
        sandbox_timeout=merged["timeout"],
        max_cost=merged["max_cost"],
        voting_rounds=merged["voting"],
        dispatch_mode=merged["dispatch_mode"],
        memory_retrieval=_as_bool(merged["memory_retrieval"], "memory_retrieval"),
        budget_per_iteration=_as_bool(merged["budget_per_iteration"], "budget_per_iteration"),
    )

    out_dir = Path(merged["out_dir"]) if merged["out_dir"] else workdir.parent / (workdir.name + "-artifacts")
    out_dir.mkdir(parents=True, exist_ok=True)
    transcript_path = Path(merged["transcript"]) if merged["transcript"] else out_dir / "transcript.jsonl"
    patch_path = Path(merged["patch_out"]) if merged["patch_out"] else out_dir / "final.patch"
    report_path = Path(merged["cost_report"]) if merged["cost_report"] else out_dir / "cost_report.json"

    orch = Orchestrator(config, brain, hand, workdir=workdir, pricing=pricing)
    lock = workdir / ".git" / "agentloop.lock"
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        raise ConfigError(f"lockfile present; another run owns {workdir}") from None
    try:
        outcome = orch.run(request)
    finally:
        lock.unlink(missing_ok=True)

    export_transcript(outcome.store, transcript_path)
    outcome.transcript_path = transcript_path
    patch_path.write_text(outcome.final_patch.text, encoding="utf-8")
    report_path.write_text(
        json.dumps(outcome.ledger.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"status: {outcome.status.value}\n"
        f"turns: {outcome.turns_used}\n"
        f"cost: {outcome.cost:.4f}\n"
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
        request = EditRequest(
            file=args.file,
            start_line=args.start_line,
            end_line=args.end_line,
            start_line_string=args.start_anchor,
            end_line_string=args.end_anchor,
            new_content=content_path.read_text(encoding="utf-8"),
        )
    except ValueError as exc:
        print(f"bad edit request: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        outcome = edit_file(request, args.workdir)
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except LineOutOfRange as exc:
        print(f"line out of range: {exc}", file=sys.stderr)
        return EX_DATAERR
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "edit":
            return cmd_edit(args)
        if args.command == "analyze-cost":
            return cmd_analyze_cost(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EX_USAGE
    except AgentLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return EX_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
