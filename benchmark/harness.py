"""Closed-loop session runner, correctness checks and metric aggregation.

One session is one in-process ``agentloop.cli.main(["run", ...])`` call on a
fresh workdir with the plan's script and pricing table. Sessions run back to
back in one thread; the engine sends its next backend call only after the
previous one returns. A thin wrapper around ``ScriptedBackend.complete``
timestamps every call: that is the load generator's clock, not tracing.

Set-up and throughput are reported in CPU time (user plus system, of this
process and the engine's git and shell children), wall time alongside:
on a shared virtual machine, wall time also counts phases in which the
host runs other work, and those phases last as long as whole runs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from agentloop import backends, cli
from agentloop.memory import lint_transcript, load_transcript
from agentloop.toolkit import GitPatch, apply_patch, head_revision

import tracing
from workloads import PRICING, Plan, classify_observation

# name -> unit, as BENCHMARK.json lists them. The wall-time figures
# engine_ms.p99, calls_per_s and setup_wall_s are printed with the end-to-end
# lines but listed with the unbounded per-layer metrics: their run-to-run
# spread on a small VM exceeds any allowed bound.
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Start/end times of every backend call of the current session, and the
    CPU time at the first one."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, float]] = []
        self.first_cpu: float | None = None
        self.source = None

    @contextlib.contextmanager
    def installed(self):
        original = backends.ScriptedBackend.complete
        clock = self

        def complete(backend, *args, **kwargs):
            clock.source = backend.source
            if clock.first_cpu is None:
                clock.first_cpu = cpu_seconds()
            start = perf_counter()
            try:
                return original(backend, *args, **kwargs)
            finally:
                clock.calls.append((start, perf_counter()))

        backends.ScriptedBackend.complete = complete
        try:
            yield self
        finally:
            backends.ScriptedBackend.complete = original


@dataclass
class Session:
    traced: bool
    wall: float
    setup: float | None
    cpu: float
    setup_cpu: float | None
    gaps: list[float]
    calls: int
    problems: list[str]
    prompt_tokens: dict[str, int] = field(default_factory=dict)
    turn_aborts: int = 0
    gaps_by_turn: list[list[float]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    warmup: bool = False  # checked, but left out of every metric

    @property
    def ok(self) -> bool:
        return not self.problems


def _tree(root: Path) -> dict[str, bytes]:
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for name in filenames:
            path = Path(dirpath) / name
            files[path.relative_to(root).as_posix()] = path.read_bytes()
    return files


def _gaps_by_turn(gaps: list[float], calls_per_turn: list[int]) -> list[list[float]]:
    """Gap j precedes call j + 1 and belongs to that call's turn."""
    out, call = [], 0
    for count in calls_per_turn:
        out.append(gaps[max(call - 1, 0) : call + count - 1])
        call += count
    return out


class Runner:
    """Runs sessions of one plan in a scratch directory and checks each one."""

    def __init__(self, plan: Plan, run_dir: Path) -> None:
        self.plan = plan
        self.work = run_dir / "work"
        self.out = run_dir / "out"
        self.fresh = run_dir / "fresh"
        run_dir.mkdir(parents=True, exist_ok=True)
        # git must not adopt a repository above the workdir (the engine's
        # ensure_repo would then skip its own init and base commit)
        os.environ["GIT_CEILING_DIRECTORIES"] = str(run_dir.resolve())
        self.script = run_dir / "script.json"
        self.script.write_text(json.dumps(plan.entries), encoding="utf-8")
        self.pricing = run_dir / "pricing.json"
        self.pricing.write_text(json.dumps(PRICING), encoding="utf-8")
        self.reference_tokens: dict[str, int] | None = None

    def argv(self) -> list[str]:
        return [
            "run", self.plan.request,
            "--workdir", str(self.work),
            "--out-dir", str(self.out),
            "--mock", str(self.script),
            "--pricing", str(self.pricing),
            "--max-iterations", str(self.plan.turns),
            "--max-cost", "1000000",
            *self.plan.flags,
        ]

    def _prepare(self) -> None:
        for path in (self.work, self.out, self.fresh):
            shutil.rmtree(path, ignore_errors=True)
        for name, text in self.plan.files.items():
            path = self.work / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")

    def run(self, tracer: tracing.Tracer | None = None) -> Session:
        self._prepare()
        gc.collect()
        clock = Clock()
        stdout, stderr = io.StringIO(), io.StringIO()
        code, crash = None, None
        with clock.installed(), contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing.instrument(tracer))
                start_span = len(tracer.spans)
                root = tracer.open(tracing.ROOT)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start_cpu = cpu_seconds()
                start = perf_counter()
                try:
                    code = cli.main(self.argv())
                except (Exception, SystemExit):  # a crashing session fails, the run goes on
                    crash = "session raised " + traceback.format_exc(limit=-3)
                end = perf_counter()
                end_cpu = cpu_seconds()
            if tracer is not None:
                tracer.close(root)
        calls = clock.calls
        gaps = [b[0] - a[1] for a, b in zip(calls, calls[1:])]
        session = Session(
            traced=tracer is not None,
            wall=end - start,
            setup=calls[0][0] - start if calls else None,
            cpu=end_cpu - start_cpu,
            setup_cpu=clock.first_cpu - start_cpu if clock.first_cpu is not None else None,
            gaps=gaps,
            calls=len(calls),
            problems=[crash] if crash else [],
        )
        if not session.problems:
            try:
                self._check(session, code, stdout.getvalue(), stderr.getvalue(), clock.source)
            except Exception:  # a check that cannot run fails the session
                session.problems.append("check raised " + traceback.format_exc(limit=-3))
        if len(gaps) + 1 == sum(self.plan.calls_per_turn):
            session.gaps_by_turn = _gaps_by_turn(gaps, self.plan.calls_per_turn)
        if tracer is not None:
            breakdown = tracing.session_breakdown(tracer.spans, start_span, tracer.counters)
            breakdown["orchestrator.turn_aborts"] = session.turn_aborts
            session.layers = breakdown
            tracer.counters.clear()
        return session

    def _check(self, session: Session, code, stdout: str, stderr: str, source) -> None:
        plan, problems = self.plan, session.problems
        if code != 0 or "status: solved" not in stdout or f"turns: {plan.turns}\n" not in stdout:
            problems.append(f"exit {code}, expected solved after {plan.turns} turns: {(stdout + stderr).strip()[-300:]}")
            return
        if source is None or source.index != len(source.entries):
            problems.append("script not fully consumed")
        transcript = self.out / "transcript.jsonl"
        lint = lint_transcript(transcript)
        if lint:
            problems.append(f"transcript lint: {lint[:3]}")
        records = load_transcript(transcript)
        kinds = Counter(r.kind.value for r in records)
        if kinds != plan.kinds:
            problems.append(f"record kinds {dict(kinds)} != plan {dict(plan.kinds)}")
        observations = Counter(
            classify_observation(r.content) for r in records if r.kind.value == "observation"
        )
        session.turn_aborts = sum(r.content.startswith("turn aborted:") for r in records if r.kind.value == "observation")
        if observations != plan.observations:
            problems.append(f"observations {dict(observations)} != plan {dict(plan.observations)}")
        work_files = _tree(self.work)
        if work_files != {k: v.encode("utf-8") for k, v in plan.final_files.items()}:
            problems.append("workdir files differ from the generator's model")
        base = head_revision(self.work)
        clone = subprocess.run(
            ["git", "clone", "-q", str(self.work), str(self.fresh)], capture_output=True, text=True
        )
        if clone.returncode != 0:
            problems.append(f"fresh checkout failed: {clone.stderr.strip()}")
        else:
            patch_text = (self.out / "final.patch").read_text(encoding="utf-8")
            apply_patch(GitPatch(text=patch_text, base_revision=base), self.fresh)
            if _tree(self.fresh) != work_files:
                problems.append("final.patch applied to the base revision does not reproduce the workdir")
        report = json.loads((self.out / "cost_report.json").read_text(encoding="utf-8"))
        tokens: Counter = Counter()
        for entry in report["entries"]:
            tokens[entry["role"]] += entry["prompt_tokens"]
        session.prompt_tokens = dict(tokens)
        if self.reference_tokens is None:
            self.reference_tokens = session.prompt_tokens
        elif session.prompt_tokens != self.reference_tokens:
            problems.append(f"prompt tokens {session.prompt_tokens} differ from the first session's {self.reference_tokens}")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: dict[str, str]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _wall_figures(sessions: list[Session]) -> tuple[dict[str, float], dict[str, str]]:
    """Wall-time figures of the given (untraced) sessions. They move with the
    host's load by more than any bound the benchmark may set, so they are
    printed with the end-to-end lines and listed with the per-layer metrics."""
    gaps = sorted(g for s in sessions for g in s.gaps)
    beyond = len(gaps) - math.ceil(0.99 * len(gaps)) if gaps else 0
    metrics = {
        "setup_wall_s": _median([s.setup for s in sessions]),
        "calls_per_s": _median([s.calls / s.wall for s in sessions]),
        "engine_ms.p99": percentile(gaps, 0.99) * 1000.0 if gaps else 0.0,
    }
    notes = {
        "setup_wall_s": f"median of {len(sessions)} sessions",
        "calls_per_s": f"median of {len(sessions)} sessions",
        "engine_ms.p99": f"n={len(gaps)} gaps, {beyond} beyond",
    }
    return metrics, notes


def end_to_end(sessions: list[Session]) -> Result:
    good = [s for s in sessions if s.ok and not s.warmup]  # a failed session's timings are left out
    gaps = sorted(g for s in good for g in s.gaps)
    calls = good[0].calls if good else 0
    metrics = {
        "setup_s": _median([s.setup_cpu for s in good]),
        "calls_per_cpu_s": _median([s.calls / s.cpu for s in good]),
        "engine_ms.p50": percentile(gaps, 0.50) * 1000.0 if gaps else 0.0,
        "prompt_tokens.brain": _median([s.prompt_tokens.get("brain", 0) for s in good]),
        "prompt_tokens.hand": _median([s.prompt_tokens.get("hand", 0) for s in good]),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"CPU time, median of {len(good)} sessions",
        "calls_per_cpu_s": f"median of {len(good)} sessions of {calls} calls",
        "engine_ms.p50": f"n={len(gaps)} gaps",
        "prompt_tokens.brain": f"median of {len(good)} sessions",
        "prompt_tokens.hand": f"median of {len(good)} sessions",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    wall, wall_notes = _wall_figures(good)
    metrics.update(wall)
    notes.update(wall_notes)
    return Result(len(sessions), sum(not s.ok for s in sessions), metrics, notes)


def per_layer(sessions: list[Session]) -> Result:
    good = [s for s in sessions if s.ok and not s.warmup]
    traced = [s for s in good if s.traced]
    plain = [s for s in good if not s.traced]
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        values = [s.layers[name] for s in traced if name in s.layers]
        metrics[name] = statistics.fmean(values) if values else 0.0
    traced_wall = _median([s.wall for s in traced]) * 1000.0
    untraced_wall = _median([s.wall for s in plain]) * 1000.0
    metrics["session.untraced_wall_ms"] = untraced_wall
    metrics["tracing.overhead_ms"] = traced_wall - untraced_wall if traced and plain else 0.0
    growth = [tracing.overhead_growth(s.gaps_by_turn) for s in plain if s.gaps_by_turn]
    metrics["orchestrator.overhead_growth"] = _median(growth)
    notes = {name: f"mean of {len(traced)} traced sessions" for name in PER_LAYER}
    notes["session.untraced_wall_ms"] = f"median of {len(plain)} untraced sessions"
    notes["tracing.overhead_ms"] = "median traced minus median untraced session wall time"
    notes["orchestrator.overhead_growth"] = f"median of {len(growth)} untraced sessions"
    wall, wall_notes = _wall_figures(plain)
    metrics.update(wall)
    notes.update({name: f"{note} of untraced sessions" for name, note in wall_notes.items()})
    return Result(len(sessions), sum(not s.ok for s in sessions), metrics, notes)


def measure(runner: Runner, seconds: float, trace: bool, tracer: tracing.Tracer | None = None) -> list[Session]:
    """Run one untimed warm-up session, then sessions back to back until
    ``seconds`` have passed (at least one, or one traced and one untraced
    when tracing)."""
    warmup = runner.run()
    warmup.warmup = True
    sessions: list[Session] = [warmup]
    tracer = tracer or tracing.Tracer()
    start = perf_counter()
    while True:
        traced = trace and len(sessions) % 2 == 1
        if traced:
            tracer.session = len(sessions)
        sessions.append(runner.run(tracer if traced else None))
        enough = len(sessions) >= (3 if trace else 2)
        if enough and perf_counter() - start >= seconds:
            return sessions
