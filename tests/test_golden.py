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


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
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
        argv = ["verify", "--group", name, "--seed", "3", "--samples", "6"]
        cases[f"verify-{slug}.txt"] = lambda argv=argv: cli_stdout(argv)
    argv = ["decompose", "--group", "heisenberg", "--in", str(README_FIXTURE)]
    cases["decompose-readme.json"] = lambda: cli_stdout(argv)
    return cases


@pytest.mark.parametrize("filename, compute", outputs().items(), ids=outputs().keys())
def test_matches_golden(filename, compute):
    assert compute() == (GOLDEN / filename).read_text(encoding="utf-8")


if __name__ == "__main__":
    for filename, compute in outputs().items():
        (GOLDEN / filename).write_text(compute(), encoding="utf-8")
        print(f"wrote {GOLDEN / filename}")
