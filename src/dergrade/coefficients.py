"""Exact Gaussian-rational scalars used as group-algebra coefficients.

All arithmetic is exact; equality against zero is decidable, which every
support/grading computation in this package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .groups import integer_entries

RatLike = Union[int, Fraction]
CoeffLike = Union["GaussianRational", int, Fraction]


@dataclass(frozen=True)
class GaussianRational:
    """A complex number a + b*i with rational a, b."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: RatLike = 0, im: RatLike = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_json(self) -> list:
        # [re_num, re_den, im_num, im_den], always in lowest terms
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @staticmethod
    def from_json(data) -> "GaussianRational":
        rn, rd, imn, imd = data
        if not integer_entries(data):
            raise TypeError(f"coefficient {data} must have integer entries")
        if rd == 0 or imd == 0:
            raise ValueError(f"coefficient {data} has a zero denominator")
        return GaussianRational(Fraction(rn, rd), Fraction(imn, imd))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussianRational.of(0)
ONE = GaussianRational.of(1)
MINUS_ONE = GaussianRational.of(-1)
I = GaussianRational.of(0, 1)


def as_coefficient(value: CoeffLike) -> GaussianRational:
    """Coerce an int or Fraction into a GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational.of(value)
