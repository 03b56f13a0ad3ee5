"""Sparse exact arithmetic in the group algebra C[G].

Elements are finite formal sums of group elements with Gaussian-rational
coefficients, kept in canonical form: no stored coefficient is zero and term
order is fixed by the kernel's normal-form order, so equality and
serialization are deterministic.  Terms are keyed by payload, the element's
normal form, and products are computed with the kernel's payload product
(`Group._mul`); `GroupElement`s are built only where a caller reads terms,
in `support` and `items`.  JSON terms are read straight to payloads by the
kernel's check (`Group.payload`).  Terms are merged by one routine,
`_add_terms`, which refuses an element of more than `MAX_TERMS` terms.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from .coefficients import CoeffLike, GaussianRational, ONE, ZERO, as_coefficient
from .groups import Group, GroupElement, GroupMismatchError

# Coefficient by payload: the terms of an algebra element.
Terms = Dict[tuple, GaussianRational]

# Most terms an element may have.  Every parsed or built element is merged
# by one `_add_terms` call, which refuses it when finished if it passes this,
# so an image that grows with the exponent, or a sum or product of large
# elements, exits cleanly instead of being kept and built on; before the
# check a sum holds at most its operands' terms, a product their product.
# Every reader looks it up at call time, so one assignment changes it
# everywhere.
MAX_TERMS = 100_000


class TermBudgetError(ValueError):
    """An element would have more terms than `MAX_TERMS` allows."""


def _add_terms(acc: Terms, pairs: Iterable[Tuple[tuple, GaussianRational]]) -> None:
    """Add each (payload, nonzero coefficient) pair into `acc`, whose
    coefficients are nonzero and stay so: a term that cancels is deleted.
    Raises `TermBudgetError` when `acc` then has more than `MAX_TERMS`
    terms.  Each element is built by one call, so the budget is checked on
    the finished element: a partial sum that later cancels is not refused,
    and the outcome does not depend on the order of the terms."""
    for t, c in pairs:
        value = acc.get(t)
        if value is None:
            acc[t] = c
        else:
            value = value + c
            if value:
                acc[t] = value
            else:
                del acc[t]
    if len(acc) > MAX_TERMS:
        raise TermBudgetError(
            f"an element would have {len(acc)} terms, over the limit "
            f"MAX_TERMS = {MAX_TERMS}"
        )

_new = object.__new__


class AlgebraElement:
    __slots__ = ("group", "_terms")

    def __init__(self, group: Group, terms: Terms):
        # terms come from operands already over `group`; from_terms checks
        # outside terms
        self.group = group
        self._terms = {p: c for p, c in terms.items() if c}

    @staticmethod
    def _nonzero(group: Group, terms: Terms) -> "AlgebraElement":
        """The element with `terms`, which must already hold only nonzero
        coefficients: the zero filter of `__init__` is skipped."""
        x = _new(AlgebraElement)
        x.group = group
        x._terms = terms
        return x

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "AlgebraElement":
        return AlgebraElement._nonzero(group, {})

    @staticmethod
    def monomial(g: GroupElement, coeff: CoeffLike = ONE) -> "AlgebraElement":
        c = as_coefficient(coeff)
        return AlgebraElement._nonzero(g.group, {g.payload: c} if c else {})

    @staticmethod
    def from_terms(
        group: Group, pairs: Iterable[Tuple[GroupElement, CoeffLike]]
    ) -> "AlgebraElement":
        checked = []
        for g, c in pairs:
            group._check(g)
            checked.append((g.payload, as_coefficient(c)))
        acc: Terms = {}
        _add_terms(acc, ((p, c) for p, c in checked if c))
        return AlgebraElement._nonzero(group, acc)

    # -- views ---------------------------------------------------------------

    def support(self) -> FrozenSet[GroupElement]:
        return frozenset(map(self.group._wrap, self._terms))

    def coefficient(self, g: GroupElement) -> GaussianRational:
        """The coefficient of g; 0 for an element of another group."""
        if g.group is not self.group and g.group != self.group:
            return ZERO
        return self._terms.get(g.payload, ZERO)

    def items(self) -> List[Tuple[GroupElement, GaussianRational]]:
        """Terms sorted by the kernel's element order, which is payload
        order."""
        wrap, terms = self.group._wrap, self._terms
        return [(wrap(p), terms[p]) for p in sorted(terms)]

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
        _add_terms(acc, other._terms.items())
        return AlgebraElement._nonzero(self.group, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._nonzero(
            self.group, {p: -c for p, c in self._terms.items()}
        )

    def scale(self, coeff: CoeffLike) -> "AlgebraElement":
        c = as_coefficient(coeff)
        if not c:
            return AlgebraElement.zero(self.group)
        # a product of nonzero Gaussian rationals is nonzero
        return AlgebraElement._nonzero(
            self.group, {p: c * v for p, v in self._terms.items()}
        )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution product: the bilinear extension of the group product."""
        self._check_group(other)
        mul = self.group._mul
        acc: Terms = {}
        # a product of nonzero Gaussian rationals is nonzero
        _add_terms(
            acc,
            (
                (mul(p, q), cp * cq)
                for p, cp in self._terms.items()
                for q, cq in other._terms.items()
            ),
        )
        return AlgebraElement._nonzero(self.group, acc)

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
        return [[c.to_json(), list(p)] for p, c in sorted(self._terms.items())]

    @staticmethod
    def from_json(group: Group, data) -> "AlgebraElement":
        acc: Terms = {}
        _add_terms(acc, _json_terms(group, data))
        return AlgebraElement._nonzero(group, acc)


def _json_terms(group: Group, data) -> Iterator[Tuple[tuple, GaussianRational]]:
    """(payload, coefficient) for each [coefficient, element] term of `data`
    with a nonzero coefficient, each checked by the kernel's `payload` and
    `GaussianRational.from_json`; no `GroupElement` is built.  The element
    is read before the coefficient, and an error in term i is a ValueError
    that names it."""
    payload, coefficient = group.payload, GaussianRational.from_json
    for i, term in enumerate(data):
        try:
            if not isinstance(term, (list, tuple)) or len(term) != 2:
                raise ValueError("a term must be [coefficient, element]")
            coeff, elem = term
            p = payload(elem)
            c = coefficient(coeff)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"term {i}: {exc}") from exc
        if c:
            yield p, c
