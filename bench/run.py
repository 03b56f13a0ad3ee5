"""Benchmark of dergrade: one workload per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With --trace 0 it times set-up in fresh
interpreters, then runs the workload's pass in one worker process for
--seconds and prints the end-to-end metrics.  With --trace 1 it runs a fixed
number of rounds untraced, then the same rounds with every dergrade module
wrapped, and prints the per-layer metrics and the tracing overhead.  Every output is checked against
`oracle`; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import per_layer_metrics  # noqa: E402
from workloads import SETUP_GROUPS, TRACE_ROUNDS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker(*args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        cwd=ROOT,
        env=env,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload, seed, seconds):
    groups = SETUP_GROUPS[workload]
    worker("setup", *groups)  # untimed: compiles bytecode, warms the file cache
    setup_s = statistics.median(worker("setup", *groups)["setup_s"] for _ in range(SETUP_SAMPLES))
    run = worker("pass", workload, seed, seconds, 0, 0, OUT)
    if not run["latencies"]:
        raise WorkerError("no operation succeeded, so there is nothing to time")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run["ok_units"] / run["op_time"], "ops/s"),
        "op_p50_ms": (statistics.median(run["latencies"]) * 1000.0, "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }
    return run, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def traced(workload, seed, seconds):
    # a fixed number of rounds, so that counts compare across commits
    rounds = TRACE_ROUNDS[workload]
    plain = worker("pass", workload, seed, seconds, 0, rounds, OUT)
    run = worker("pass", workload, seed, seconds, 1, rounds, OUT)
    if (run["attempted"], run["failed"]) != (plain["attempted"], plain["failed"]):
        raise WorkerError("the traced pass did not repeat the untraced one")
    run["errors"] += plain["errors"]
    run["n_errors"] += plain["n_errors"]
    return run, per_layer_metrics(run["trace"], run["busy_s"] - plain["busy_s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dergrade" / "__init__.py").is_file():
        print(f"error: no dergrade source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    measure = traced if args.trace else end_to_end
    try:
        run, metrics = measure(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for error in run["errors"]:
        print(f"wrong output: {error}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {run['rounds']} rounds, "
        f"{run['attempted']} operations attempted, {run['failed']} failed",
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": run["n_errors"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
