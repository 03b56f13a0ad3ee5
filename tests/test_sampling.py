import random
from fractions import Fraction

import pytest

from dergrade import GaussianRational, group_from_name
from dergrade.sampling import Sampler


def test_coefficient_draws_the_fraction_stream():
    # a/b + (c/d) i from the draws a, b, c, d in that order, as two
    # Fractions would be drawn and combined, leaving the same state
    group = group_from_name("heisenberg")
    for seed in range(200):
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
