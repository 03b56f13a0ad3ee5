"""Sparse exact arithmetic in the group algebra C[G].

Elements are finite formal sums of group elements with Gaussian-rational
coefficients, kept in canonical form: no stored coefficient is zero and term
order is fixed by the kernel's normal-form order, so equality and
serialization are deterministic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from .coefficients import CoeffLike, GaussianRational, ONE, ZERO, as_coefficient
from .groups import Group, GroupElement, GroupMismatchError


class AlgebraElement:
    __slots__ = ("group", "_terms")

    def __init__(self, group: Group, terms: Dict[GroupElement, GaussianRational]):
        # terms come from operands already over `group`; from_terms checks
        # outside terms
        self.group = group
        self._terms = {g: c for g, c in terms.items() if c}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "AlgebraElement":
        return AlgebraElement(group, {})

    @staticmethod
    def monomial(g: GroupElement, coeff: CoeffLike = ONE) -> "AlgebraElement":
        return AlgebraElement(g.group, {g: as_coefficient(coeff)})

    @staticmethod
    def from_terms(
        group: Group, pairs: Iterable[Tuple[GroupElement, CoeffLike]]
    ) -> "AlgebraElement":
        acc: Dict[GroupElement, GaussianRational] = {}
        for g, c in pairs:
            group._check(g)
            acc[g] = acc.get(g, ZERO) + as_coefficient(c)
        return AlgebraElement(group, acc)

    # -- views ---------------------------------------------------------------

    def support(self) -> FrozenSet[GroupElement]:
        return frozenset(self._terms)

    def coefficient(self, g: GroupElement) -> GaussianRational:
        return self._terms.get(g, ZERO)

    def items(self) -> List[Tuple[GroupElement, GaussianRational]]:
        """Terms sorted by the kernel's element order."""
        return sorted(self._terms.items(), key=lambda kv: self.group.sort_key(kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def _check_group(self, other: "AlgebraElement") -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"mixing algebras over {self.group.name} and {other.group.name}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_group(other)
        acc = dict(self._terms)
        for g, c in other._terms.items():
            acc[g] = acc.get(g, ZERO) + c
        return AlgebraElement(self.group, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: -c for g, c in self._terms.items()})

    def scale(self, coeff: CoeffLike) -> "AlgebraElement":
        c = as_coefficient(coeff)
        if not c:
            return AlgebraElement.zero(self.group)
        return AlgebraElement(self.group, {g: c * v for g, v in self._terms.items()})

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution product: the bilinear extension of the group product."""
        self._check_group(other)
        acc: Dict[GroupElement, GaussianRational] = {}
        for g, cg in self._terms.items():
            for h, ch in other._terms.items():
                prod = g * h
                acc[prod] = acc.get(prod, ZERO) + cg * ch
        return AlgebraElement(self.group, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group == other.group
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*{g!r}" for g, c in self.items())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list:
        return [
            [c.to_json(), self.group.element_to_json(g)] for g, c in self.items()
        ]

    @staticmethod
    def from_json(group: Group, data) -> "AlgebraElement":
        pairs = [
            (group.element_from_json(elem), GaussianRational.from_json(coeff))
            for coeff, elem in data
        ]
        return AlgebraElement.from_terms(group, pairs)


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """x*y - y*x."""
    return x * y - y * x
