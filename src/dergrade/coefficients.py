"""Exact Gaussian-rational scalars used as group-algebra coefficients.

All arithmetic is exact; equality against zero is decidable, which every
support/grading computation in this package relies on.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence, Union

# `fractions` is imported only where a Fraction is built or read (`re`, `im`
# and `as_coefficient` of a value that is not an int): with `decimal`, it
# would be most of this module's import time.
RatLike = Union[int, "Fraction"]
CoeffLike = Union["GaussianRational", int, "Fraction"]

_new = object.__new__


def integer_entries(values: Iterable) -> bool:
    """Whether every value is an int.  JSON true/false load as bool, a
    subclass of int, and are not integer entries; other subclasses of int
    are.  An entry of class int, as JSON loads every integer, is passed by
    its class alone."""
    for v in values:
        if v.__class__ is not int and (not isinstance(v, int) or isinstance(v, bool)):
            return False
    return True


class GaussianRational:
    """A complex number a + b*i with rational a, b.

    Stored as one integer triple (p + q*i)/d with d > 0 and
    gcd(p, q, d) == 1, so each value has exactly one triple (zero is
    (0, 0, 1)) and equality and hashing compare triples.  `re` and `im` are
    the Fractions p/d and q/d, built when read.
    """

    __slots__ = ("_p", "_q", "_d")

    def __new__(cls, re: RatLike = 0, im: RatLike = 0) -> "GaussianRational":
        rd, imd = re.denominator, im.denominator
        return _reduced(re.numerator * imd, im.numerator * rd, rd * imd)

    @property
    def re(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._q, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, od = self._d, other._d
        if d == od:
            p, q = self._p + other._p, self._q + other._q
        else:
            p, q = self._p * od + other._p * d, self._q * od + other._q * d
            d *= od
        if d == 1:
            return _triple(p, q, 1)
        return _reduced(p, q, d)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, od = self._d, other._d
        if d == od:
            p, q = self._p - other._p, self._q - other._q
        else:
            p, q = self._p * od - other._p * d, self._q * od - other._q * d
            d *= od
        if d == 1:
            return _triple(p, q, 1)
        return _reduced(p, q, d)

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._p, -self._q, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self._p, self._q, other._p, other._q
        p, q, d = a * c - b * e, a * e + b * c, self._d * other._d
        if d == 1:
            return _triple(p, q, 1)
        return _reduced(p, q, d)

    def __bool__(self) -> bool:
        return bool(self._p or self._q)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def to_json(self) -> list:
        # [re_num, re_den, im_num, im_den], always in lowest terms
        p, q, d = self._p, self._q, self._d
        gp, gq = gcd(p, d), gcd(q, d)
        return [p // gp, d // gp, q // gq, d // gq]

    @staticmethod
    def from_json(data) -> "GaussianRational":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError(
                f"coefficient {data} must have 4 entries [re_num, re_den, im_num, im_den]"
            )
        rn, rd, imn, imd = data
        if not integer_entries(data):
            raise TypeError(f"coefficient {data} must have integer entries")
        if rd == 0 or imd == 0:
            raise ValueError(f"coefficient {data} has a zero denominator")
        return from_quotients(rn, rd, imn, imd)

    def __str__(self) -> str:
        if not self._q:
            return str(self.re)
        if not self._p:
            return f"{self.im}i"
        sign = "+" if self._q > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _reduced(p: int, q: int, d: int) -> GaussianRational:
    """The value (p + q*i)/d for any integers p, q and d != 0."""
    g = gcd(p, q, d)
    if d < 0:
        g = -g
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _triple(p, q, d)


def from_quotients(re_num: int, re_den: int, im_num: int, im_den: int) -> GaussianRational:
    """The value re_num/re_den + (im_num/im_den)*i for integers with nonzero
    denominators, the layout of `to_json`."""
    return _reduced(re_num * im_den, im_num * re_den, re_den * im_den)


def integer_combination(
    coeffs: Sequence[GaussianRational], ints: Sequence[int]
) -> GaussianRational:
    """The sum of the coeffs[i] * ints[i]: integer numerators over the
    coefficients' denominators, reduced once; a zero integer is skipped."""
    p = q = 0
    d = 1
    for t, k in zip(coeffs, ints):
        if k:
            td = t._d
            if td == d:
                p += t._p * k
                q += t._q * k
            else:
                p, q, d = p * td + t._p * k * d, q * td + t._q * k * d, d * td
    return _reduced(p, q, d)


def _triple(p: int, q: int, d: int) -> GaussianRational:
    """The value (p + q*i)/d from a triple that already meets the invariants."""
    r = _new(GaussianRational)
    r._p = p
    r._q = q
    r._d = d
    return r


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
I = GaussianRational(0, 1)


def as_coefficient(value: CoeffLike) -> GaussianRational:
    """Coerce an int or Fraction into a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _triple(int(value), 0, 1)
    from fractions import Fraction

    return GaussianRational(Fraction(value))
