"""Worker processes of the benchmark; `run.py` starts them.

    worker.py setup <group> ...
        Import dergrade and build the given kernels and their quotients into
        `GradingSetup`s in this fresh interpreter; print the time taken.
    worker.py pass <workload> <seed> <seconds> <trace> <rounds> <out_dir>
        Run whole rounds of operations, checking each output, until <seconds>
        have passed (rounds == 0) or for exactly <rounds> rounds.  With
        trace 1 every dergrade module is wrapped by `tracing.Tracer` and the
        spans are written to <out_dir> at the end.
    worker.py job <trace>
        Run the CLI job read from stdin in this fresh interpreter.

Each prints one JSON object as its last line of standard output.  Times are
CPU seconds at the reference speed of `speed.gauge`.
"""

from __future__ import annotations

import contextlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

JOB_TIMEOUT_S = 170


def load_program():
    """Import dergrade from this checkout's source tree."""
    import dergrade
    import dergrade.cli
    import dergrade.verification

    if Path(dergrade.__file__).resolve().parent != SRC / "dergrade":
        raise SystemExit(f"dergrade imported from {dergrade.__file__}, not from {SRC}")
    return dergrade


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")


def setup(groups):
    # Nothing beyond the interpreter's own start-up is imported before this
    # point, so the import of dergrade's dependencies is timed too.
    start = process_time()
    dg = load_program()
    for name in groups:
        dg.GradingSetup.default(dg.group_from_name(name))
    cpu = process_time() - start
    import speed

    samples = [speed.gauge() for _ in range(3)]
    emit({"setup_s": cpu * speed.REFERENCE_S * len(samples) / sum(samples)})


def job(trace):
    import workloads
    from speed import Speedometer
    from tracing import Tracer

    op = json.loads(sys.stdin.read())
    dg = load_program()
    tracer = Tracer().install() if trace else None
    with Speedometer() as meter:
        result = workloads.run_cli(dg, op, meter)
    result["rss_mb"] = peak_rss_mb()
    if tracer:
        result["trace"] = tracer.summary(meter.factor())
        result["spans"] = tracer.spans
    emit(result)


def run_in_child(op, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "job", str(trace)],
        input=json.dumps(op),
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT_S,
        cwd=BENCH.parent,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"job worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload, seed, seconds, trace, rounds, out_dir):
    import workloads
    from speed import Speedometer
    from tracing import Tracer, combine

    fresh = workload in workloads.FRESH_PROCESS
    tracer = dg = None
    setups = {}
    quotient_file = str(Path(out_dir).resolve() / f"klein-four-{workload}-{seed}.json")
    if fresh:
        workloads.write_quotient_file(quotient_file)
    else:
        dg = load_program()
        if trace:
            tracer = Tracer().install()

    attempted = failed = ok_units = 0
    op_time = 0.0
    latencies, errors, child_traces, spans = [], [], [], []
    rss = 0.0
    done = 0
    # A child job gauges its own speed; gauging here as well would compete
    # with it for the core.
    with contextlib.nullcontext() if fresh else Speedometer() as meter:
        # busy_s: time inside dergrade (set-up and every operation), the part
        # of the pass that tracing slows down
        busy_s = 0.0
        if not fresh:
            mark = meter.mark()
            for name in workloads.SETUP_GROUPS[workload]:
                s = dg.GradingSetup.default(dg.group_from_name(name))
                setups[name] = (s.group, s.quotient)
            busy_s = meter.scaled(mark)
        pass_start = perf_counter()
        while (done < rounds) if rounds else (perf_counter() - pass_start < seconds):
            for op in workloads.make_round(workload, seed, done, quotient_file):
                if tracer:
                    tracer.op_id = attempted
                if op["kind"] == "props":
                    result = workloads.run_props(dg, op, setups, meter)
                elif fresh:
                    result = run_in_child(op, trace)
                    rss = max(rss, result["rss_mb"])
                    if trace:
                        child_traces.append(result["trace"])
                        base = len(spans)
                        spans.extend(
                            [sp[0], sp[1], sp[2], sp[3] + base if sp[3] >= 0 else -1, attempted]
                            for sp in result["spans"]
                        )
                else:
                    result = workloads.run_cli(dg, op, meter)
                busy_s += result["dt"]
                n, bad, error = workloads.outcome(op, result)
                if error:
                    errors.append(error)
                if not bad and (op["kind"] == "props" or op["timed"]):
                    latencies.append(result["dt"] / n)
                    op_time += result["dt"]
                    ok_units += n
                attempted += n
                failed += bad
            done += 1
    if fresh:
        Path(quotient_file).unlink()
    else:
        rss = peak_rss_mb()

    summary = None
    if trace:
        summary = combine(child_traces if fresh else [tracer.summary(meter.factor())])
        spans = spans if fresh else tracer.spans
        path = Path(out_dir) / f"trace-{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": summary, "fields": ["name", "start", "end", "parent", "op"], "spans": spans}, handle)
    emit(
        {
            "rounds": done,
            "busy_s": busy_s,
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:20],
            "n_errors": len(errors),
            "latencies": latencies,
            "op_time": op_time,
            "ok_units": ok_units,
            "rss_mb": rss,
            "trace": summary,
        }
    )


def main(argv):
    mode = argv[0]
    if mode == "setup":
        setup(argv[1:])
    elif mode == "job":
        job(int(argv[1]))
    elif mode == "pass":
        workload, seed, seconds, trace, rounds, out_dir = argv[1:7]
        run_pass(workload, int(seed), float(seconds), int(trace), int(rounds), out_dir)
    else:
        raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
