#!/usr/bin/env python3
"""The agentloop benchmark: seeded scripted sessions through the operator path.

Usage, from the repository root:

    python3 benchmark/run.py --workload long_session --seed 1 --seconds 20 --trace 0

Each session calls ``agentloop.cli.main(["run", ..., "--mock", script,
"--pricing", table])`` in-process on a fresh workdir and is checked for
correct outputs. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer breakdown from a traced run (traced and untraced sessions
alternate, so the tracing overhead is measured too). The last line of stdout
is one JSON object; the lines before it give every metric with its unit and
sample count. One untimed warm-up session, checked like the others, runs
before the clock starts. Scratch files go to ``.bench_run/`` under the repository root.
See ``benchmark/METRICS.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".bench_run"  # scratch workdirs, artifacts and spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "agentloop" / "__init__.py").is_file():
        print(f"agentloop sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    import tracing
    import workloads

    if args.workload not in workloads.GENERATORS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    run_dir = RUN_DIR / args.workload

    plan = workloads.build(args.workload, args.seed)
    runner = harness.Runner(plan, run_dir)
    tracer = tracing.Tracer()
    sessions = harness.measure(runner, args.seconds, bool(args.trace), tracer)
    if args.trace:
        result = harness.per_layer(sessions)
        table = harness.PER_LAYER
        tracer.write(run_dir / "spans.jsonl")
    else:
        result = harness.end_to_end(sessions)
        table = harness.END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sessions {result.attempted} (1 untimed warm-up)  failed {result.failed}  "
          f"error_rate {result.failed / result.attempted:.4f} ratio")
    for session in sessions:
        for problem in session.problems:
            print(f"  session failed: {problem}")
    units = {**harness.END_TO_END, **harness.PER_LAYER}
    for name, value in result.metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]:15s} {result.notes[name]}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
