"""Golden outputs: seeded Sampler draws and CLI stdout, pinned byte for byte.

Acceptance criterion 10 compares two runs of one build.  These files were
recorded from an earlier build, so a change that alters a draw stream or an
output byte fails here even when it is deterministic.  After a deliberate
output change, record them again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest

from dergrade import group_from_name
from dergrade.cli import main
from dergrade.sampling import Sampler
from dergrade.serialization import derivation_to_json

GOLDEN = Path(__file__).parent / "golden"
README_FIXTURE = GOLDEN / "readme-fixture.json"
KERNELS = ["heisenberg", "zn:3", "perm:a4", "perm:s4"]
SEEDS = range(4)
DRAWS = 3

# stdin of the JSON jobs pinned below: apply, character and bracket on three
# kernels, decompose on two, with entries of 10^12 and non-real coefficients
BIG = 10**12
# from_table(H, {x: x*y, y: 0}) + inner((1,2,0) - (0,1,3)) + central([1, 2], (0,0,1)):
# its form has a step part on the class (0, 1, 0), and decompose splits it
# into the keys (0, 0), (0, 1) and (1, 2)
STEP_TABLE = {"group": "heisenberg", "kind": "table", "images": {
    "x": [[[1, 1, 0, 1], [1, 0, 1]], [[1, 1, 0, 1], [1, 1, 1]], [[1, 1, 0, 1], [1, 1, 3]],
          [[-1, 1, 0, 1], [1, 1, 4]], [[-1, 1, 0, 1], [2, 2, 0]], [[1, 1, 0, 1], [2, 2, 2]]],
    "y": [[[2, 1, 0, 1], [0, 1, 1]], [[1, 1, 0, 1], [1, 3, 0]], [[-1, 1, 0, 1], [1, 3, 1]]],
}}
# x -> x*y, y -> 0: one step part with one jump, on the class (0, 1, 0)
GROWING_TABLE = {"group": "heisenberg", "kind": "table", "images": {
    "x": [[[1, 1, 0, 1], [1, 1, 0]]], "y": [],
}}
JOBS = {
    "apply-heisenberg.json": (["apply", "--group", "heisenberg"], {
        "derivation": {"group": "heisenberg", "kind": "inner",
                       "a": [[[1, 2, -1, 3], [1, -1, 0]], [[-3, 1, 0, 1], [0, 1, 5]]]},
        "element": [[[1, 1, 0, 1], [BIG, -7, 3]], [[0, 1, 2, 1], [-1, 1, 0]]],
    }),
    "apply-zn-3.json": (["apply", "--group", "zn:3"], {
        "derivation": {"group": "zn:3", "kind": "table", "images": {
            "e1": [[[2, 1, 0, 1], [1, 1, 0]], [[-1, 1, 0, 1], [2, 0, -1]]],
            "e2": [[[1, 1, 1, 1], [0, 2, 1]]],
            "e3": [],
        }},
        "element": [[[1, 1, 0, 1], [BIG, -BIG, 3]], [[-1, 2, 0, 1], [-5, 7, BIG]]],
    }),
    "apply-perm-s4.json": (["apply", "--group", "perm:s4"], {
        "derivation": {"group": "perm:s4", "kind": "inner",
                       "a": [[[1, 1, 0, 1], [2, 1, 3, 4]], [[0, 1, -1, 2], [2, 3, 4, 1]]]},
        "element": [[[1, 1, 0, 1], [4, 3, 2, 1]], [[-2, 3, 0, 1], [1, 3, 2, 4]]],
    }),
    "character-heisenberg.json": (["character", "--group", "heisenberg"], {
        "derivation": {"group": "heisenberg", "kind": "central",
                       "tau": [[3, 1, 0, 1], [-2, 5, 1, 2]], "z": [0, 0, 2]},
        "arrow": {"u": [BIG, -BIG, 2], "v": [BIG, -BIG, 0]},
    }),
    "character-zn-3.json": (["character", "--group", "zn:3"], {
        "derivation": {"group": "zn:3", "kind": "central",
                       "tau": [[1, 1, 0, 1], [-2, 1, 0, 1], [3, 2, 0, 1]], "z": [1, -1, 2]},
        "arrow": {"u": [BIG + 1, -BIG - 1, 6], "v": [BIG, -BIG, 4]},
    }),
    "character-perm-s4.json": (["character", "--group", "perm:s4"], {
        "derivation": {"group": "perm:s4", "kind": "table", "images": {
            "g1": [[[1, 2, -1, 1], [3, 4, 2, 1]], [[-1, 2, 1, 1], [4, 3, 1, 2]]],
            "g2": [[[-1, 1, 0, 1], [1, 3, 4, 2]], [[-2, 1, 0, 1], [2, 3, 1, 4]],
                   [[2, 1, 0, 1], [2, 4, 3, 1]], [[1, 1, 0, 1], [3, 2, 4, 1]]],
        }},
        "arrow": {"u": [3, 4, 2, 1], "v": [2, 1, 3, 4]},
    }),
    "bracket-heisenberg.json": (["bracket", "--group", "heisenberg"], {
        "left": {"group": "heisenberg", "kind": "inner",
                 "a": [[[1, 1, 0, 1], [BIG, 1, -BIG]], [[-2, 3, 1, 1], [0, 1, 0]]]},
        "right": {"group": "heisenberg", "kind": "central",
                  "tau": [[2, 1, 0, 1], [-1, 1, 0, 1]], "z": [0, 0, 1]},
    }),
    "bracket-zn-3.json": (["bracket", "--group", "zn:3"], {
        "left": {"group": "zn:3", "kind": "central",
                 "tau": [[1, 1, 0, 1], [0, 1, 1, 1], [-1, 3, 0, 1]], "z": [0, 1, -1]},
        "right": {"group": "zn:3", "kind": "table", "images": {
            "e1": [[[2, 1, 0, 1], [1, 1, 0]]], "e2": [], "e3": [[[1, 1, -1, 1], [BIG, 0, 1]]],
        }},
    }),
    "bracket-perm-s4.json": (["bracket", "--group", "perm:s4"], {
        "left": {"group": "perm:s4", "kind": "inner",
                 "a": [[[1, 1, 0, 1], [2, 1, 3, 4]], [[1, 2, -1, 1], [3, 4, 1, 2]]]},
        "right": {"group": "perm:s4", "kind": "inner",
                  "a": [[[-1, 1, 0, 1], [2, 3, 4, 1]], [[0, 1, 1, 1], [1, 2, 4, 3]]]},
    }),
    "decompose-perm-s4.json": (["decompose", "--group", "perm:s4"], {
        "group": "perm:s4", "kind": "inner",
        "a": [[[1, 1, 0, 1], [2, 1, 3, 4]], [[1, 2, -1, 1], [3, 4, 1, 2]],
              [[-2, 1, 0, 1], [1, 2, 4, 3]]],
    }),
    "decompose-zn-3.json": (["decompose", "--group", "zn:3"], {
        "group": "zn:3", "kind": "table", "images": {
            "e1": [[[2, 1, 0, 1], [1, 1, 0]], [[-1, 1, 0, 1], [2, 0, -1]]],
            "e2": [[[1, 1, 1, 1], [0, 2, 1]], [[3, 1, 0, 1], [BIG, 1, 0]]],
            "e3": [],
        },
    }),
    # the step table: evaluated, read at an arrow whose value is its step
    # part's, split by coset, bracketed with an inner derivation (inner(d(b)))
    # and with a central one (each step part shifted by z and scaled by tau)
    "decompose-heisenberg-steps.json": (["decompose", "--group", "heisenberg"], STEP_TABLE),
    "apply-heisenberg-steps.json": (["apply", "--group", "heisenberg"], {
        "derivation": STEP_TABLE,
        "element": [[[1, 1, 0, 1], [3, -2, 5]], [[2, 1, -1, 1], [-1, 4, 0]]],
    }),
    "character-heisenberg-steps.json": (["character", "--group", "heisenberg"], {
        "derivation": STEP_TABLE,
        "arrow": {"u": [3, -1, 7], "v": [3, -2, 5]},
    }),
    "bracket-heisenberg-steps-inner.json": (["bracket", "--group", "heisenberg"], {
        "left": STEP_TABLE,
        "right": {"group": "heisenberg", "kind": "inner",
                  "a": [[[1, 1, 0, 1], [1, -1, 2]], [[-1, 2, 0, 1], [0, 2, -1]]]},
    }),
    "bracket-heisenberg-central-steps.json": (["bracket", "--group", "heisenberg"], {
        "left": {"group": "heisenberg", "kind": "central",
                 "tau": [[2, 1, 0, 1], [-1, 1, 0, 1]], "z": [0, 0, 1]},
        "right": STEP_TABLE,
    }),
    # step parts on both sides: on one key, (0, 1), against GROWING_TABLE,
    # and on the keys (0, 1) and (1, 0) against y -> y*x
    "bracket-heisenberg-steps-steps.json": (["bracket", "--group", "heisenberg"], {
        "left": STEP_TABLE, "right": GROWING_TABLE,
    }),
    "bracket-heisenberg-steps-crossed.json": (["bracket", "--group", "heisenberg"], {
        "left": STEP_TABLE,
        "right": {"group": "heisenberg", "kind": "table", "images": {
            "x": [], "y": [[[1, 1, 0, 1], [1, 1, 0]]],
        }},
    }),
}


def sampler_draws(name: str) -> str:
    """One line per derivation drawn: the seed, then its JSON spec."""
    group = group_from_name(name)
    lines = []
    for seed in SEEDS:
        sampler = Sampler(group, seed)
        for _ in range(DRAWS):
            spec = derivation_to_json(sampler.derivation())
            lines.append(f"{seed} {json.dumps(spec, sort_keys=True)}\n")
    return "".join(lines)


def sampler_streams(name: str) -> str:
    """One line per draw of every kind the Sampler makes, `DRAWS` rounds per
    seed from one Sampler, so each kind also pins the state it leaves: the
    seed, the draw, then its value as JSON (payloads as lists)."""
    group = group_from_name(name)
    lines = []
    for seed in SEEDS:
        sampler = Sampler(group, seed)

        def line(kind, value):
            lines.append(f"{seed} {kind} {json.dumps(value, sort_keys=True)}\n")

        def ends(arrow):
            return [list(arrow.u.payload), list(arrow.v.payload)]

        for _ in range(DRAWS):
            line("element", list(sampler.element().payload))
            line("word_element", list(sampler.word_element().payload))
            line("word_element(6)", list(sampler.word_element(6).payload))
            line("algebra_element", sampler.algebra_element().to_json())
            line("nonzero_coefficient", sampler.nonzero_coefficient().to_json())
            if group.has_central_derivations():
                line("central_derivation", derivation_to_json(sampler.central_derivation()))
            line("arrow", ends(sampler.arrow()))
            d = sampler.derivation()
            line("derivation", derivation_to_json(d))
            for _ in range(2):
                line("arrow(d)", ends(sampler.arrow(d)))
            line("composable_arrows", [ends(a) for a in sampler.composable_arrows()])
    return "".join(lines)


def cli_stdout(argv, stdin: str = "") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = main(argv)
    if code != 0:
        raise AssertionError(f"{argv} exited {code}")
    return out.getvalue()


def outputs():
    """Golden file name -> function computing its content."""
    cases = {}
    for name in KERNELS:
        slug = name.replace(":", "-")
        cases[f"sampler-{slug}.txt"] = lambda name=name: sampler_draws(name)
        cases[f"sampler-streams-{slug}.txt"] = lambda name=name: sampler_streams(name)
        argv = ["verify", "--group", name, "--seed", "3", "--samples", "6"]
        cases[f"verify-{slug}.txt"] = lambda argv=argv: cli_stdout(argv)
    argv = ["decompose", "--group", "heisenberg", "--in", str(README_FIXTURE)]
    cases["decompose-readme.json"] = lambda argv=argv: cli_stdout(argv)
    for filename, (argv, data) in JOBS.items():
        cases[filename] = lambda argv=argv, data=data: cli_stdout(argv, json.dumps(data))
    return cases


@pytest.mark.parametrize("filename, compute", outputs().items(), ids=outputs().keys())
def test_matches_golden(filename, compute):
    assert compute() == (GOLDEN / filename).read_text(encoding="utf-8")


if __name__ == "__main__":
    for filename, compute in outputs().items():
        (GOLDEN / filename).write_text(compute(), encoding="utf-8")
        print(f"wrote {GOLDEN / filename}")
