"""GaussianRational against a reference built from a pair of Fractions.

`PairRational` is the representation the library used before it stored one
reduced integer triple; every operation must give the same value, JSON and
text as it does.
"""

import ast
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dergrade
from dergrade import GaussianRational
from dergrade.coefficients import from_quotients, integer_combination


@dataclass(frozen=True)
class PairRational:
    re: Fraction
    im: Fraction

    def __add__(self, other):
        return PairRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return PairRational(-self.re, -self.im)

    def __mul__(self, other):
        return PairRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def to_json(self):
        return [self.re.numerator, self.re.denominator, self.im.numerator, self.im.denominator]

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def reference(data):
    rn, rd, imn, imd = data
    return PairRational(Fraction(rn, rd), Fraction(imn, imd))


def assert_matches(value, ref):
    p, q, d = value._p, value._q, value._d
    assert d > 0 and gcd(p, q, d) == 1
    assert (value.re, value.im) == (ref.re, ref.im)
    assert value.to_json() == ref.to_json()
    assert str(value) == str(ref)
    assert repr(value) == f"GaussianRational(re={ref.re!r}, im={ref.im!r})"
    assert bool(value) == bool(ref)
    same = GaussianRational(ref.re, ref.im)
    assert value == same and hash(value) == hash(same)


small = st.integers(-6, 6)
large = st.integers(-(10**30), 10**30)
numerators = st.one_of(small, large)
denominators = st.one_of(small, large).filter(bool)
coefficient_json = st.tuples(numerators, denominators, numerators, denominators).map(list)


class TestAgainstFractionPairs:
    @settings(max_examples=300, deadline=None)
    @given(coefficient_json, coefficient_json)
    # a reduction only one of two denominators of 1 does not make unnecessary
    @example([2, 1, 0, 1], [1, 2, 1, 2])
    @example([1, 2, 1, 2], [2, 1, 0, 1])
    # negative denominators
    @example([1, -2, 3, 1], [-3, -4, 0, 5])
    # sums that cancel to zero or reduce
    @example([1, 6, 1, 3], [-1, 6, -1, 3])
    @example([1, 6, 1, 6], [1, 6, 1, 6])
    def test_operations(self, x, y):
        a, b = GaussianRational.from_json(x), GaussianRational.from_json(y)
        ra, rb = reference(x), reference(y)
        assert_matches(a, ra)
        assert_matches(b, rb)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches(a * b, ra * rb)
        assert_matches(-a, -ra)
        assert (a == b) == (ra == rb)
        assert a + b == b + a and hash(a + b) == hash(b + a)
        assert a * b == b * a and hash(a * b) == hash(b * a)

    @given(coefficient_json)
    def test_constructors_agree(self, x):
        ref = reference(x)
        for value in (
            GaussianRational(ref.re, ref.im),
            GaussianRational.from_json(ref.to_json()),
            from_quotients(*x),
        ):
            assert_matches(value, ref)

    def test_zero(self):
        zero = GaussianRational.from_json([0, -7, 0, 3])
        assert (zero._p, zero._q, zero._d) == (0, 0, 1)
        assert not zero and zero == GaussianRational(0)

    def test_integer_arguments(self):
        assert_matches(GaussianRational(3, -4), PairRational(Fraction(3), Fraction(-4)))

    @pytest.mark.parametrize("name", ["re", "im"])
    def test_parts_are_read_only(self, name):
        c = GaussianRational(Fraction(1, 2), 3)
        with pytest.raises(AttributeError):
            setattr(c, name, Fraction(0))
        assert c.to_json() == [1, 2, 3, 1]


def test_coefficients_import_no_other_layer():
    # the scalars are the bottom layer: loaded with the package's
    # `__init__` (which imports every layer) skipped, they load no other
    # dergrade module
    code = "\n".join([
        "import sys, types",
        "package = types.ModuleType('dergrade')",
        f"package.__path__ = [{os.path.dirname(dergrade.__file__)!r}]",
        "sys.modules['dergrade'] = package",
        "import dergrade.coefficients",
        "print(sorted(m for m in sys.modules if m.startswith('dergrade.')))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "['dergrade.coefficients']\n"


def test_integer_combination_is_the_sum():
    # sum t_i * k_i against the sum of GaussianRational products, with
    # entries up to 10^12, denominators that agree or differ, and zero
    # coordinates
    rng = random.Random("integer-combination")
    big = 10**12

    def entry():
        return rng.choice([rng.randint(-3, 3), rng.randint(-big, big)])

    zeros = 0
    for _ in range(1500):
        n = rng.randint(0, 4)
        dens = [1, 2, 3, 6, rng.randint(1, big)]
        coeffs = [
            from_quotients(entry(), rng.choice(dens), entry(), rng.choice(dens))
            for _ in range(n)
        ]
        ints = [0 if rng.random() < 0.3 else entry() for _ in range(n)]
        zeros += ints.count(0)
        expected = GaussianRational(0)
        for t, k in zip(coeffs, ints):
            expected = expected + t * GaussianRational(k)
        value = integer_combination(coeffs, ints)
        assert value == expected, (coeffs, ints)
        assert value._d > 0 and gcd(value._p, value._q, value._d) == 1
    assert zeros >= 500


def test_no_other_module_imports_a_private_coefficient_name():
    # the integer triple stays behind the coefficient layer: every other
    # module takes only public names from it
    package = Path(dergrade.__file__).parent
    imported = []
    for path in sorted(package.glob("*.py")):
        if path.name == "coefficients.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported += [
            (path.name, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in {(1, "coefficients"), (0, "dergrade.coefficients")}
            for alias in node.names
        ]
    assert imported and [pair for pair in imported if pair[1].startswith("_")] == []
