"""Seeded random generators for elements, algebra elements, arrows, and
derivations.  Used by the verification suites and the tests; everything is
deterministic given the seed (set iteration is always sorted first).

Every integer is drawn through `Random._randbelow`, the routine `randint` and
`choice` call themselves: `randint(lo, hi)` is `lo + _randbelow(hi - lo + 1)`
and `choice(seq)` is `seq[_randbelow(len(seq))]`, so the stream is theirs,
value for value, without their Python frames.  `coefficient` spells out
`_randbelow`'s `getrandbits` rejection loop.  The golden files
`tests/golden/sampler-*.txt` pin every kind of draw."""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from .algebra import AlgebraElement, _add_terms
from .coefficients import GaussianRational, from_quotients
from .derivations import Derivation
from .groups import Arrow, Group, GroupElement


class Sampler:
    def __init__(
        self,
        group: Group,
        seed: int = 0,
        *,
        box: int = 2,
        word_len: int = 4,
    ):
        self.group = group
        self.rng = random.Random(seed)
        # an integer in [0, n), drawn as randint and choice draw it
        self._below = self.rng._randbelow
        self.box = box
        self.word_len = word_len
        # the letters of `word_element`: the generators, then their inverses
        gens = [s.payload for s in group.generators()]
        self._letters = gens + [group._inv(s) for s in gens]

    # -- scalars -------------------------------------------------------------

    def coefficient(self) -> GaussianRational:
        """a/b + (c/d) i for a, c drawn from [-3, 3] and b, d from [1, 3],
        in the order a, b, c, d, as `randint` draws them: a k-bit draw is
        repeated until it is below the range's size n, k = n.bit_length()."""
        bits = self.rng.getrandbits
        a = bits(3)
        while a >= 7:
            a = bits(3)
        b = bits(2)
        while b >= 3:
            b = bits(2)
        c = bits(3)
        while c >= 7:
            c = bits(3)
        d = bits(2)
        while d >= 3:
            d = bits(2)
        return from_quotients(a - 3, b + 1, c - 3, d + 1)

    def nonzero_coefficient(self) -> GaussianRational:
        while True:
            c = self.coefficient()
            if c:
                return c

    # -- group elements --------------------------------------------------------

    def element(self) -> GroupElement:
        return self.group.random_element(self.rng, self.box)

    def word_element(self, length: Optional[int] = None) -> GroupElement:
        below = self._below
        if length is None:
            length = below(self.word_len + 1)
        group, letters = self.group, self._letters
        mul, n = group._mul, len(letters)
        out = group._identity
        for _ in range(length):
            out = mul(out, letters[below(n)])
        return group._wrap(out)

    # -- algebra elements --------------------------------------------------------

    def algebra_element(self, max_terms: int = 3) -> AlgebraElement:
        # each term's payload is drawn before its coefficient, as `element()`
        # would draw it, but never wrapped
        n_terms = 1 + self._below(max_terms)
        group, rng, box = self.group, self.rng, self.box
        pairs = [
            (group._random_payload(rng, box), self.nonzero_coefficient())
            for _ in range(n_terms)
        ]
        terms: Dict[tuple, GaussianRational] = {}
        _add_terms(terms, pairs)
        return AlgebraElement._nonzero(group, terms)

    # -- derivations ----------------------------------------------------------------

    def inner_derivation(self) -> Derivation:
        return Derivation.inner(self.algebra_element(max_terms=2))

    def central_derivation(self) -> Derivation:
        tau, z = self.group.random_central(self.rng, self.box)
        return Derivation.central(self.group, tau, z)

    def tabular_derivation(self) -> Derivation:
        # a valid combination re-entered through the validated table path
        d = self.derivation(allow_table=False)
        return Derivation.from_table(self.group, dict(d.images))

    def derivation(self, allow_table: bool = True) -> Derivation:
        choices = ["inner", "sum"]
        if self.group.has_central_derivations():
            choices += ["central", "mixed"]
        if allow_table:
            choices.append("table")
        kind = choices[self._below(len(choices))]
        if kind == "inner":
            return self.inner_derivation()
        if kind == "central":
            return self.central_derivation()
        if kind == "sum":
            return self.inner_derivation() + self.inner_derivation().scale(
                self.coefficient()
            )
        if kind == "mixed":
            return self.inner_derivation() + self.central_derivation().scale(
                self.nonzero_coefficient()
            )
        return self.tabular_derivation()

    # -- arrows ----------------------------------------------------------------------

    def arrow(self, d: Optional[Derivation] = None) -> Arrow:
        """A random arrow (u, v); when a derivation is given, u is drawn from
        the support of d(v) with probability 1/2 so that nonzero character
        values actually occur."""
        v = self.word_element()
        u: Optional[GroupElement] = None
        if d is not None and self.rng.random() < 0.5:
            # payload order is the kernel's element order, the order of items()
            supp = sorted(d.apply_element(v)._terms)
            if supp:
                u = self.group._wrap(supp[self._below(len(supp))])
        if u is None:
            u = self.word_element()
        return Arrow(u, v)

    def composable_arrows(self) -> Tuple[Arrow, Arrow]:
        """A pair (phi, psi) with source(phi) == target(psi)."""
        psi = Arrow(self.word_element(), self.word_element())
        v2 = self.word_element()
        u2 = v2 * psi.target()
        phi = Arrow(u2, v2)
        return phi, psi
