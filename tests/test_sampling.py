import random
from fractions import Fraction
from math import factorial

import pytest

from dergrade import GaussianRational, group_from_name
from dergrade.sampling import Sampler


def test_coefficient_draws_the_fraction_stream():
    # a/b + (c/d) i from the draws a, b, c, d in that order, as two
    # Fractions would be drawn and combined, leaving the same state; the
    # sampler spells out the rejection loop of _randbelow, which randint calls
    group = group_from_name("heisenberg")
    for seed in range(300):
        sampler, rng = Sampler(group, seed=seed), random.Random(seed)
        for _ in range(3):
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            c, d = rng.randint(-3, 3), rng.randint(1, 3)
            assert sampler.coefficient() == GaussianRational(Fraction(a, b), Fraction(c, d))
        assert sampler.rng.getstate() == rng.getstate()


@pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:s4"])
def test_word_element_draws_the_letter_stream(name):
    # a length from [0, word_len] unless one is given, then each letter from
    # the generators followed by their inverses, multiplied on the right
    group = group_from_name(name)
    gens = group.generators()
    letters = gens + [s.inverse() for s in gens]
    for seed in range(200):
        sampler, rng = Sampler(group, seed=seed), random.Random(seed)
        for length in (None, 0, 6):
            n = rng.randint(0, sampler.word_len) if length is None else length
            expected = group.identity()
            for _ in range(n):
                expected = expected * rng.choice(letters)
            assert sampler.word_element(length) == expected
        assert sampler.rng.getstate() == rng.getstate()


# Every range size the library draws from: 3 and 7 (a coefficient's parts), 5
# (an entry in [-2, 2], box 2), 9 (box 4), the kind counts 2-5, the term
# counts 2 and 3, word_len + 1 for word lengths 0, 3, 4 and MAX_WORD_LEN,
# the letter counts 4 and 6, and |G| of s3-s6 and a4-a6; then every size to 32.
DRAW_SIZES = sorted(
    {3, 5, 7, 9, 1001}
    | {factorial(n) for n in range(3, 7)}
    | {factorial(n) // 2 for n in range(4, 7)}
    | set(range(1, 33))
)


def test_randbelow_draws_the_randint_and_choice_streams():
    # the library draws lo + _randbelow(n) for randint(lo, lo + n - 1) and
    # seq[_randbelow(len(seq))] for choice(seq): the same values, leaving the
    # same state, on every interpreter this runs on
    for n in DRAW_SIZES:
        seq = [object() for _ in range(n)]
        for seed in range(300):
            ours, theirs = random.Random(seed), random.Random(seed)
            for lo in (-2, 0, 1):
                assert lo + ours._randbelow(n) == theirs.randint(lo, lo + n - 1), (n, seed)
            assert seq[ours._randbelow(n)] is theirs.choice(seq), (n, seed)
            assert ours.getstate() == theirs.getstate()
