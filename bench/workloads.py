"""The four workloads: their inputs, how one operation runs, and its check.

A run repeats whole rounds.  Round r of a workload is built from
`random.Random(f"{workload}/{seed}/{r}")`, so a seed fixes every input and
each round holds the same operations in the same proportions; only the drawn
values differ.

An operation is a plain dict so that it can be sent to a child process:

* `{"kind": "props", "calls": [{"group", "seed"}, ...], "samples"}`: one
  `verification.run_all` call per group of the workload; it stands for
  14 * samples property checks per call.  One operation spans the groups so
  that its latency mixes them in fixed proportions.
* `{"kind": "cli", "argv", "stdin", "expect", "timed", "check"}`: one job
  through `cli.main`; `expect` is the exit code a correct program returns and
  `check` says how `oracle` recomputes the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction

import oracle

WORKLOADS = ("props-infinite", "props-perm", "perm-setup", "cli-jobs")

# Kernels and quotients built before the first operation (the set-up that
# `setup_s` times).  perm-setup's degree-6 quotients are its operations.
SETUP_GROUPS = {
    "props-infinite": ("heisenberg", "zn:3"),
    "props-perm": ("perm:a4", "perm:s4"),
    "perm-setup": ("perm:s3", "perm:a4", "perm:s4", "perm:s5"),
    "cli-jobs": ("heisenberg", "zn:3"),
}

# Rounds of a traced run: fixed, so that per-layer counts compare across
# commits; 10-15 s of untraced work each on the reference machine.
TRACE_ROUNDS = {"props-infinite": 100, "props-perm": 20, "perm-setup": 1, "cli-jobs": 2}

# perm-setup runs every job in a fresh interpreter, so each one starts with
# cold kernel caches; the other workloads run in the pass worker itself.
FRESH_PROCESS = {"perm-setup"}

# The run_all calls of one props round.  An s4 call costs about four a4
# calls and varies more, so three a4 calls per s4 call split the time about
# evenly and draw more derivations per second, which steadies the figures.
PROPS_CALLS = {
    "props-infinite": ("heisenberg", "zn:3"),
    "props-perm": ("perm:a4", "perm:a4", "perm:a4", "perm:s4"),
}

SUITES = ("leibniz", "char-composition", "bracket-equivalence", "closure", "direct-sum")
SUITE_CHECKS = {"bracket-equivalence": 10}  # checks per sample; 1 for the rest
PROPS_SAMPLES = 1

PERM_INFO = ("perm:s3", "perm:s4", "perm:s5", "perm:s6", "perm:a4", "perm:a5", "perm:a6")
PERM_DECOMPOSE = ("perm:s4", "perm:s5", "perm:s6")
# S4 / V4 is S3, so this explicit quotient is normal but not abelian.
KLEIN_FOUR = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]

CLI_GROUPS = ("heisenberg", "zn:3")
# Coordinates near 10^k.  Half the jobs are of size 10^2, with as many
# smaller as larger, so the median job is one of them in every run rather
# than sitting on the gap between two size classes; the large ones set
# ops_per_s.  A bracket at 10^4 costs ~6 s on its own, so brackets stop at
# 10^3.
MAGNITUDES = (0, 1, 2, 2, 2, 2, 3, 4)
BRACKET_MAGNITUDES = (0, 1, 2, 2, 3)

# Jobs a correct CLI rejects with exit 2.  Today each fails every time; the
# inputs are fixed so the failed share is the same in every run.
MALFORMED = (
    # `verify --samples 0` passes vacuously and exits 0
    (["verify", "--group", "heisenberg", "--samples", "0"], ""),
    # a non-integer Heisenberg entry escapes as a TypeError (exit 1)
    (
        ["apply", "--group", "heisenberg"],
        json.dumps(
            {
                "derivation": {"group": "heisenberg", "kind": "inner", "a": [[[1, 1, 0, 1], [1, 0, 0]]]},
                "element": [[[1, 1, 0, 1], [1, 0.5, 0]]],
            }
        ),
    ),
    # a zero denominator escapes as a ZeroDivisionError (exit 1)
    (
        ["apply", "--group", "heisenberg"],
        json.dumps(
            {
                "derivation": {"group": "heisenberg", "kind": "inner", "a": [[[1, 0, 0, 1], [1, 0, 0]]]},
                "element": [[[1, 1, 0, 1], [0, 1, 0]]],
            }
        ),
    ),
)


def checks_per_call(samples: int) -> int:
    return sum(SUITE_CHECKS.get(s, 1) for s in SUITES) * samples


# -- input generation -------------------------------------------------------------


def _coeff(rng):
    while True:
        c = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if c != oracle.ZERO:
            return oracle.coeff_to_json(c)


def _rank(group):
    return 2 if group == "heisenberg" else int(group[3:])


def _small(rng, group):
    """An element whose word has 6 (Heisenberg) or 3 (Z^3) letters; only the
    signs are drawn, so jobs of one kind and size class cost the same."""
    if group == "heisenberg":
        # commutes with neither generator, so every inner image has 4 terms
        a, b = rng.choice((-1, 1)), rng.choice((-1, 1))
        return [a, b, a * b + rng.choice((-1, 1))]
    return [rng.choice((-1, 1)) for _ in range(_rank(group))]


def _big(rng, group, k):
    """An element whose word has about 4 * 10^k (Heisenberg) or 3 * 10^k (Z^3)
    letters."""

    def size():
        return rng.choice((1, -1)) * rng.randint(10**k, 10**k + 10**k // 10)

    if group == "heisenberg":
        a, b = rng.choice((-1, 1)), rng.choice((-1, 1))
        return [a, b, a * b + size()]
    return [size() for _ in range(_rank(group))]


def _inner_spec(rng, group):
    terms = [[_coeff(rng), _small(rng, group)] for _ in range(2)]
    return {"group": group, "kind": "inner", "a": terms}


def _central_spec(rng, group):
    z = [0, 0, rng.randint(-2, 2)] if group == "heisenberg" else _small(rng, group)
    return {"group": group, "kind": "central", "tau": [_coeff(rng) for _ in range(_rank(group))], "z": z}


def _cli(argv, payload, check, expect=0):
    stdin = payload if isinstance(payload, str) else json.dumps(payload)
    return {"kind": "cli", "argv": argv, "stdin": stdin, "expect": expect, "timed": check is not None, "check": check}


def _cli_jobs_round(rng):
    ops = []
    for group in CLI_GROUPS:
        kernel = oracle.Kernel(group)
        for i, k in enumerate(MAGNITUDES):
            spec = _inner_spec(rng, group)
            job_spec = spec
            if i % 2:  # the same derivation entered as a validated table
                job_spec = oracle.inner_table(kernel, oracle.alg_from_json(spec["a"]))
            ops.append(_apply(group, job_spec, spec, _element(rng, group, k)))
            spec = _central_spec(rng, group)
            ops.append(_apply(group, spec, spec, _element(rng, group, k)))

            spec = _inner_spec(rng, group) if i % 2 == 0 else _central_spec(rng, group)
            v = _big(rng, group, k)
            image = oracle.apply_spec(kernel, spec, {tuple(v): (Fraction(1), Fraction(0))})
            u = list(rng.choice(sorted(image))) if image and rng.random() < 0.5 else _big(rng, group, k)
            check = {"type": "character", "group": group, "spec": spec, "u": u, "v": v}
            ops.append(_cli(["character", "--group", group], {"derivation": spec, "arrow": {"u": u, "v": v}}, check))
        for k in BRACKET_MAGNITUDES:
            left = {"group": group, "kind": "inner", "a": [[_coeff(rng), _big(rng, group, k)]]}
            right = _inner_spec(rng, group)
            check = {"type": "bracket", "group": group, "a": left["a"], "b": right["a"]}
            ops.append(_cli(["bracket", "--group", group], {"left": left, "right": right}, check))
    for argv, stdin in MALFORMED:
        ops.append(_cli(argv, stdin, None, expect=2))
    return ops


def _element(rng, group, k):
    return [[_coeff(rng), _big(rng, group, k)], [_coeff(rng), _small(rng, group)]]


def _apply(group, job_spec, oracle_spec, element):
    check = {"type": "apply", "group": group, "spec": oracle_spec, "element": element}
    return _cli(["apply", "--group", group], {"derivation": job_spec, "element": element}, check)


def _perm_inner_spec(rng, group):
    n = int(group[6:])
    terms = []
    for _ in range(2):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        terms.append([_coeff(rng), p])
    return {"group": group, "kind": "inner", "a": terms}


def _perm_setup_round(rng, quotient_file):
    ops = [_cli(["info", "--group", g], "", {"type": "info", "group": g}) for g in PERM_INFO]
    for group in PERM_DECOMPOSE:
        spec = _perm_inner_spec(rng, group)
        ops.append(_cli(["decompose", "--group", group], spec, {"type": "decompose", "group": group, "spec": spec}))
    spec = _perm_inner_spec(rng, "perm:s4")
    table = oracle.inner_table(oracle.Kernel("perm:s4"), oracle.alg_from_json(spec["a"]))
    ops.append(_cli(["decompose", "--group", "perm:s4"], table, {"type": "decompose", "group": "perm:s4", "spec": table}))
    spec = _perm_inner_spec(rng, "perm:s4")
    ops.append(
        _cli(
            ["decompose", "--group", "perm:s4", "--quotient", quotient_file],
            spec,
            {"type": "nonabelian", "group": "perm:s4", "subgroup": KLEIN_FOUR},
            expect=3,
        )
    )
    # Three of the round's fifteen jobs are this rejection, and six cost less
    # and six more, so the median job is one of these three in every run.
    for _ in range(3):
        a5 = {"group": "perm:a5", "kind": "inner", "a": [[_coeff(rng), [2, 3, 1, 4, 5]]]}
        ops.append(_cli(["decompose", "--group", "perm:a5"], a5, {"type": "trivial", "group": "perm:a5"}, expect=3))
    rng.shuffle(ops)
    return ops


def make_round(workload, seed, r, quotient_file=None):
    rng = random.Random(f"{workload}/{seed}/{r}")
    if workload in ("props-infinite", "props-perm"):
        calls = [{"group": g, "seed": rng.randrange(10**9)} for g in PROPS_CALLS[workload]]
        return [{"kind": "props", "calls": calls, "samples": PROPS_SAMPLES}]
    if workload == "cli-jobs":
        return _cli_jobs_round(rng)
    if workload == "perm-setup":
        return _perm_setup_round(rng, quotient_file)
    raise ValueError(f"unknown workload {workload!r}")


def write_quotient_file(path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"subgroup": KLEIN_FOUR}, handle)


# -- running one operation -----------------------------------------------------------


def run_cli(dg, op, meter):
    """Run one job through `cli.main`, as the `dergrade` script would: an
    exception that escapes `main` ends the process with exit code 1.  `dt`
    is the job's time as `meter` (a `speed.Speedometer`) scales it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op["stdin"])
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = meter.mark()
            try:
                rc = dg.cli.main(op["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error is the CLI's exit 1
                stderr.write(f"uncaught {type(exc).__name__}: {exc}\n")
                rc = 1
            dt = meter.scaled(start)
    finally:
        sys.stdin = saved_stdin
    return {"rc": rc, "out": stdout.getvalue(), "err": stderr.getvalue(), "dt": dt}


def run_props(dg, op, setups, meter):
    out = []
    start = meter.mark()
    for call in op["calls"]:
        group, quotient = setups[call["group"]]
        out.append(dg.verification.run_all(group, quotient, seed=call["seed"], samples=op["samples"]))
    dt = meter.scaled(start)
    return {"results": [[[r.name, r.passed, r.failed] for r in results] for results in out], "dt": dt}


# -- checks ----------------------------------------------------------------------------


def outcome(op, result):
    """(attempted, failed, error) for one operation; `error` names a wrong
    output of an operation that did not fail, else it is None."""
    if op["kind"] == "props":
        return _outcome_props(op, result)
    if result["rc"] != op["expect"]:
        return 1, 1, None
    if op["check"] is None:
        return 1, 0, None
    try:
        error = CHECKS[op["check"]["type"]](op["check"], result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error:
        error = f"{' '.join(op['argv'])}: {error}"
    return 1, 0, error


def _outcome_props(op, result):
    expected = checks_per_call(op["samples"]) * len(op["calls"])
    failed = 0
    errors = []
    for call, got in zip(op["calls"], result["results"]):
        failed += sum(f for _, _, f in got)
        error = _check_suites(got, op["samples"])
        if error:
            errors.append(f"run_all({call['group']}, seed={call['seed']}): {error}")
    return expected, failed, "; ".join(errors) or None


def _check_suites(got, samples):
    """Every suite ran, none failed, and none ran fewer checks than asked."""
    if [name for name, _, _ in got] != list(SUITES):
        return f"suites {[name for name, _, _ in got]}, expected {list(SUITES)}"
    for name, passed, f in got:
        want = SUITE_CHECKS.get(name, 1) * samples
        if f or passed != want:
            return f"{name}: {passed} passed, {f} failed, expected {want} checks all passing"
    return None


def _check_apply(c, result):
    kernel = oracle.Kernel(c["group"])
    x = oracle.alg_from_json(c["element"])
    want = oracle.apply_spec(kernel, c["spec"], x)
    got = oracle.alg_from_json(json.loads(result["out"]))
    return None if got == want else f"d(x) = {oracle.alg_to_json(got)}, expected {oracle.alg_to_json(want)}"


def _check_character(c, result):
    kernel = oracle.Kernel(c["group"])
    image = oracle.apply_spec(kernel, c["spec"], {tuple(c["v"]): (Fraction(1), Fraction(0))})
    want = image.get(tuple(c["u"]), oracle.ZERO)
    got = oracle.coeff_from_json(json.loads(result["out"]))
    return None if got == want else f"chi = {got}, expected {want}"


def _check_bracket(c, result):
    # [d_a, d_b] is the inner derivation at [b, a] = b*a - a*b
    kernel = oracle.Kernel(c["group"])
    a, b = oracle.alg_from_json(c["a"]), oracle.alg_from_json(c["b"])
    w = oracle.alg_add(oracle.alg_mul(kernel, b, a), oracle.alg_neg(oracle.alg_mul(kernel, a, b)))
    images = json.loads(result["out"])["images"]
    for name, s in kernel.generators.items():
        want = oracle.inner(kernel, w, {s: (Fraction(1), Fraction(0))})
        got = oracle.alg_from_json(images.get(name, []))
        if got != want:
            return f"image of {name} is {oracle.alg_to_json(got)}, expected {oracle.alg_to_json(want)}"
    return None


def _check_info(c, result):
    facts = oracle.perm_facts(c["group"])
    lines = dict(line.split(": ", 1) for line in result["out"].splitlines())
    if set(oracle.parse_tuples(lines["center"])) != facts["centre"]:
        return f"centre {lines['center']}, expected order {len(facts['centre'])}"
    described = lines["commutator subgroup"]
    sized = re.fullmatch(r"subgroup of order (\d+)", described)
    if sized:
        if int(sized.group(1)) != len(facts["derived"]):
            return f"commutator subgroup {described}, expected order {len(facts['derived'])}"
    elif set(oracle.parse_tuples(described)) != facts["derived"]:
        return f"commutator subgroup {described} differs from sympy's"
    if facts["perfect"] != (len(facts["derived"]) == facts["order"]):
        return "perfectness disagrees with the commutator subgroup"
    stem = facts["centre"] <= facts["derived"]
    if lines["stem group"] != ("yes" if stem else "no"):
        return f"stem group: {lines['stem group']}, expected {'yes' if stem else 'no'}"
    return None


def _check_decompose(c, result):
    kernel = oracle.Kernel(c["group"])
    derived = oracle.perm_facts(c["group"])["derived"]
    out = json.loads(result["out"])
    spec = c["spec"]
    if not _same_derivation(out["base"], spec):
        return "base differs from the input derivation"
    if spec["kind"] == "inner":
        want = oracle.inner_table(kernel, oracle.alg_from_json(spec["a"]))["images"]
    else:
        want = spec["images"]
    total = {name: {} for name in kernel.generators}
    keys = []
    for comp in out["components"]:
        key = tuple(comp["key"])
        keys.append(key)
        images = comp["derivation"]["images"]
        seen = set()
        for name, s in kernel.generators.items():
            image = oracle.alg_from_json(images.get(name, []))
            total[name] = oracle.alg_add(total[name], image)
            s_inv = oracle.perm_inv(s)
            seen |= {oracle.coset_key(oracle.perm_mul(s_inv, k), derived) for k in image}
        if seen != {key}:
            return f"component {list(key)} has support in cosets {sorted(seen)}"
    if len(set(keys)) != len(keys):
        return f"repeated component keys {keys}"
    for name in kernel.generators:
        if total[name] != oracle.alg_from_json(want[name]):
            return f"components do not sum back to the input at {name}"
    return None


def _same_derivation(x, y):
    if (x["group"], x["kind"]) != (y["group"], y["kind"]):
        return False
    if x["kind"] == "inner":
        return oracle.alg_from_json(x["a"]) == oracle.alg_from_json(y["a"])
    names = set(x["images"]) | set(y["images"])
    return all(
        oracle.alg_from_json(x["images"].get(n, [])) == oracle.alg_from_json(y["images"].get(n, []))
        for n in names
    )


def _check_nonabelian(c, result):
    facts = oracle.perm_facts(c["group"])
    found = re.search(
        r"counterexample element (\([\d, ]+\)): conjugacy class \[(.*)\] is not contained in its coset \[(.*)\]",
        result["err"],
    )
    if not found:
        return "no counterexample in the diagnostic"
    a = oracle.parse_tuples(found.group(1))[0]
    cls, coset = set(oracle.parse_tuples(found.group(2))), set(oracle.parse_tuples(found.group(3)))
    subgroup = [tuple(p) for p in c["subgroup"]]
    if cls != oracle.conjugacy_class(a, facts["elements"]):
        return f"stated class of {a} is not its conjugacy class"
    if coset != {oracle.perm_mul(a, n) for n in subgroup}:
        return f"stated coset of {a} is not a N"
    if cls <= coset:
        return f"class of {a} does not escape its coset"
    return None


def _check_trivial(c, result):
    if "trivial" not in result["err"]:
        return "rejection does not name a trivial grading"
    if not oracle.perm_facts(c["group"])["perfect"]:
        return f"{c['group']} is not perfect, so its grading is not trivial"
    return None


CHECKS = {
    "apply": _check_apply,
    "character": _check_character,
    "bracket": _check_bracket,
    "info": _check_info,
    "decompose": _check_decompose,
    "nonabelian": _check_nonabelian,
    "trivial": _check_trivial,
}
