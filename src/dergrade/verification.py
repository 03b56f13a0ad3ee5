"""Named property suites over random derivations, arrows, and word pairs.

Each suite draws its inputs from a seeded sampler and counts exact
pass/fail; the CLI `verify` command and the acceptance tests both run these.
A suite's counts are an immutable `PropertyResult` (a `groups.Record`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from .derivations import (
    char_bracket_value,
    verify_char_composition,
    verify_leibniz,
)
from .grading import (
    GradingSetup,
    check_bracket_closure,
    decompose,
    support_cosets,
)
from .groups import Group, QuotientSpec, Record
from .sampling import Sampler


class PropertyResult(Record):
    """The passed and failed verdict counts of one named suite."""

    __slots__ = ("name", "passed", "failed")

    @property
    def ok(self) -> bool:
        return self.failed == 0


ARROWS_PER_PAIR = 10


# Each check draws one sample's inputs and yields one verdict per check made.

def _leibniz(sampler: Sampler, setup: GradingSetup) -> Iterator[bool]:
    d = sampler.derivation()
    x = sampler.algebra_element()
    y = sampler.algebra_element()
    yield verify_leibniz(d, x, y)


def _char_composition(sampler: Sampler, setup: GradingSetup) -> Iterator[bool]:
    d = sampler.derivation()
    phi, psi = sampler.composable_arrows()
    yield verify_char_composition(d, phi, psi)


def _bracket_equivalence(sampler: Sampler, setup: GradingSetup) -> Iterator[bool]:
    d = sampler.derivation()
    p = sampler.derivation()
    bracket = d.bracket(p)
    for _ in range(ARROWS_PER_PAIR):
        arrow = sampler.arrow(bracket)
        yield char_bracket_value(d, p, arrow) == bracket.character(arrow)


def _closure(sampler: Sampler, setup: GradingSetup) -> Iterator[bool]:
    d = sampler.derivation()
    p = sampler.derivation()
    yield check_bracket_closure(d, p, setup).passed


def _direct_sum(sampler: Sampler, setup: GradingSetup) -> Iterator[bool]:
    d = sampler.derivation()
    dec = decompose(d, setup)
    yield dec.total() == d and all(
        support_cosets(comp, setup) <= {key} for key, comp in dec.components.items()
    )


# Suites in run order; the suite at index i draws from Sampler(group, seed + i).
SUITES = (
    ("leibniz", _leibniz),
    ("char-composition", _char_composition),
    ("bracket-equivalence", _bracket_equivalence),
    ("closure", _closure),
    ("direct-sum", _direct_sum),
)


def run_all(
    group: Group,
    quotient: Optional[QuotientSpec] = None,
    *,
    seed: int = 0,
    samples: int = 25,
    word_len: int = 4,
) -> List[PropertyResult]:
    setup = GradingSetup(group, quotient or group.derived_quotient())
    results = []
    for offset, (name, check) in enumerate(SUITES):
        sampler = Sampler(group, seed + offset, word_len=word_len)
        verdicts = [ok for _ in range(samples) for ok in check(sampler, setup)]
        passed = sum(verdicts)
        results.append(PropertyResult(name, passed, len(verdicts) - passed))
    return results
