"""Self-test of the benchmark's output checks.

Each check must accept the program's real output and reject a deliberately
wrong one (a perturbed coefficient, a wrong key, a short check count, ...).
Run from the root of a checkout; it takes about half a minute:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from speed import Speedometer  # noqa: E402
from worker import load_program  # noqa: E402

OUT = BENCH / "out"
SLOW_GROUPS = {"perm:s6", "perm:a6"}


def _bump(coeff):
    coeff[0] += coeff[1]  # adds 1 to the real part
    return coeff


def perturb_props(result):
    bad = json.loads(json.dumps(result))
    name, passed, failed = bad["results"][0][2]
    bad["results"][0][2] = [name, passed - 1, failed]  # one check short
    return bad


def perturb_cli(op, result):
    """A wrong copy of a correct CLI result, or None when the job has no
    output to falsify."""
    kind = op["check"]["type"]
    bad = dict(result)
    if kind == "apply":
        out = json.loads(result["out"])
        if not out:
            return None
        _bump(out[0][0])
        bad["out"] = json.dumps(out)
    elif kind == "character":
        bad["out"] = json.dumps(_bump(json.loads(result["out"])))
    elif kind == "bracket":
        out = json.loads(result["out"])
        image = next((img for img in out["images"].values() if img), None)
        if image is None:
            return None
        _bump(image[0][0])
        bad["out"] = json.dumps(out)
    elif kind == "info":
        verdict = "no" if "stem group: yes" in result["out"] else "yes"
        bad["out"] = re.sub(r"stem group: \w+", f"stem group: {verdict}", result["out"])
    elif kind == "decompose":
        out = json.loads(result["out"])
        key = out["components"][0]["key"]
        identity = list(range(1, len(key) + 1))
        out["components"][0]["key"] = identity if key != identity else [2, 1] + identity[2:]
        bad["out"] = json.dumps(out)
    elif kind == "nonabelian":
        bad["err"] = result["err"].replace("conjugacy class [", "conjugacy class [(1, 2, 3, 4), ", 1)
    elif kind == "trivial":
        bad["err"] = result["err"].replace("trivial", "")
    return bad


def main():
    dg = load_program()
    OUT.mkdir(exist_ok=True)
    quotient_file = str(OUT / "klein-four-selftest.json")
    workloads.write_quotient_file(quotient_file)
    problems = []
    tried = set()
    with Speedometer() as meter:
        setups = {}
        for name in workloads.SETUP_GROUPS["props-infinite"] + workloads.SETUP_GROUPS["props-perm"]:
            s = dg.GradingSetup.default(dg.group_from_name(name))
            setups[name] = (s.group, s.quotient)
        for workload in ("props-infinite", "props-perm"):
            (op,) = workloads.make_round(workload, 0, 0)
            result = workloads.run_props(dg, op, setups, meter)
            _, _, error = workloads.outcome(op, result)
            if error:
                problems.append(f"{workload}: real result rejected: {error}")
            if workloads.outcome(op, perturb_props(result))[2] is None:
                problems.append(f"{workload}: a short check count was accepted")
            tried.add("props")

        ops = workloads.make_round("cli-jobs", 0, 0) + workloads.make_round("perm-setup", 0, 0, quotient_file)
        for op in ops:
            if op["argv"][2] in SLOW_GROUPS:
                continue
            result = workloads.run_cli(dg, op, meter)
            label = " ".join(op["argv"][:3])
            if op["check"] is None:
                # a malformed job counts as failed unless it exits 2
                if workloads.outcome(op, dict(result, rc=2))[1] != 0:
                    problems.append(f"{label}: exit 2 counted as a failure")
                if workloads.outcome(op, dict(result, rc=0))[1] != 1:
                    problems.append(f"{label}: exit 0 not counted as a failure")
                continue
            _, failed, error = workloads.outcome(op, result)
            if failed or error:
                problems.append(f"{label}: real result rejected: {error or result['err']}")
                continue
            bad = perturb_cli(op, result)
            if bad is None:
                continue
            if workloads.outcome(op, bad)[2] is None:
                problems.append(f"{label}: a wrong {op['check']['type']} result was accepted")
            tried.add(op["check"]["type"])
    Path(quotient_file).unlink()

    missing = {"props", *workloads.CHECKS} - tried
    if missing:
        problems.append(f"no wrong result tried for {sorted(missing)}")
    for p in problems:
        print(f"FAIL {p}")
    print(f"{'FAIL' if problems else 'ok'}: checks tried on {sorted(tried)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
