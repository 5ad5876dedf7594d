"""End-to-end benchmark of the placement service: cold start, warm serving, churn.

Usage::

    python3 e2ebench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --smoke            # tiny inputs, seconds
    python3 e2ebench/run.py --workload cold-start --repeat 5  # median + spread

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the nine end-to-end metrics with ``--trace 0``,
every per-layer metric with ``--trace 1``).  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench import harness  # noqa: E402

WORKLOAD_NAMES = ("cold-start", "serve-warm", "update-churn")
END_TO_END = {
    "setup_s": "s",
    "first_answer_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "update_commit_ms": "ms",
    "update_visible_ms": "ms",
    "index_disk_mb": "MiB",
    "peak_rss_mb": "MiB",
}


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload run; returns the result object (the last stdout line)."""
    from e2ebench import layers
    from e2ebench.workloads import WORKLOADS, Context

    work = harness.work_dir(workload, seed)
    ctx = Context(workload=workload, seed=seed, seconds=seconds,
                  scale="tiny" if smoke else "small", trace=trace, work=work,
                  tracer=harness.Tracer(trace))
    try:
        outcome = WORKLOADS[workload](ctx)
        if trace:
            metrics = layers.per_layer(ctx, outcome)
            units = layers.UNITS
        else:
            metrics, units = outcome.metrics, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for kind, (attempted, failed) in sorted(outcome.ops.items()):
        print(f"ops {workload} {kind:<8} attempted {attempted:6d} failed {failed:6d}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    for failure in outcome.checks.failures:
        print(f"CHECK FAILED: {failure}")
    checked = ", ".join(f"{k} {v}" for k, v in sorted(outcome.checks.counted.items()))
    print(f"checks {workload}: {'ok' if outcome.checks.ok else 'FAILED'} ({checked})")
    if trace:
        for name, value in sorted(outcome.metrics.items()):
            print(f"e2e {name:<22} {value:12.4f} {END_TO_END[name]}")
    for name, value in metrics.items():
        print(f"{'layer' if trace else 'e2e'} {name:<34} {value:12.4f} {units[name]}")
    return {
        "correct": outcome.checks.ok,
        "attempted": sum(a for a, _ in outcome.ops.values()),
        "failed": sum(f for _, f in outcome.ops.values()),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def repeat(workload: str, seed: int, seconds: float, runs: int, smoke: bool) -> dict:
    """Run *runs* fresh processes (seeds seed..seed+runs-1); print median and spread."""
    values: dict[str, list[float]] = {}
    failed_share = set()
    correct = True
    for offset in range(runs):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed + offset), "--seconds", str(seconds), "--trace", "0"]
        if smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        failed_share.add(f'{result["failed"]}/{result["attempted"]}')
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    print(f"repeat {workload}: {runs} runs, failed shares {sorted(failed_share)}")
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        spread = (q3 - q1) / q2 if q2 else 0.0
        summary[name] = {"median": q2, "spread": spread}
        print(f"  {name:<22} median {q2:12.4f}  iqr/median {spread:7.2%}  "
              + " ".join(f"{v:.4g}" for v in series))
    return {"correct": correct, "runs": runs, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a short run (the benchmark's own tests)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds; print median and spread")
    args = parser.parse_args(argv)
    harness.require_program()
    seconds = min(args.seconds, 2.0) if args.smoke else args.seconds
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        start = time.perf_counter()
        if args.repeat:
            results.append(repeat(name, args.seed, seconds, args.repeat, args.smoke))
        else:
            results.append(run_once(name, args.seed, seconds, bool(args.trace), args.smoke))
        print(f"{name} took {time.perf_counter() - start:.1f}s", file=sys.stderr)
    print(json.dumps(results[0] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r.get("attempted", 0) for r in results),
        "failed": sum(r.get("failed", 0) for r in results),
        "metrics": {},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
