"""Derivations of the group algebra and their groupoid characters.

A derivation is stored by its images on the kernel's generating set and
extended to the whole algebra through the Leibniz rule.  A group element g is
evaluated from its kernel's syllables, g = w1^k1 * w2^k2 * ...
(`Group.syllables`, on payloads), where each base w is a generator or an
element whose own syllables lie nearer the generators; a base is evaluated
like any element.  Everything is combined by one join on payloads,
(g, d(g)), (h, d(h)) -> (gh, d(g)*h + g*d(h)), which refuses to combine more
than `MAX_TERMS` terms: each w^k is built from d(w) or d(w^-1) by binary
powering, in O(log |k|) joins, and the powers are then joined in order.  A table from
outside is checked by the same join: on each of the kernel's payload pairs
(g, h) (`Group.leibniz_pairs`), d(g) joined with d(h) must equal d(gh).  The
character view is derived: the value of the character on an arrow (u, v) is
the coefficient of u in d(v).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .algebra import AlgebraElement, commutator
from .coefficients import CoeffLike, GaussianRational, ZERO, as_coefficient
from .groups import (
    Arrow,
    CentralityError,
    Group,
    GroupElement,
    GroupMismatchError,
)


# Most elements `Derivation._cache` holds; when full it is reset to the
# generator images.
CACHE_LIMIT = 4096

# Most terms one join may combine: |d(g)| + |d(h)| bounds the size of
# d(gh), so an image that would grow past this is refused before it is built.
MAX_TERMS = 100_000

# A group element's payload with its image under a derivation.
Evaluated = Tuple[tuple, AlgebraElement]


class DerivationTableError(ValueError):
    """A generator-image table is not consistent with the group's relations."""


class TermBudgetError(ValueError):
    """An image would have more terms than `MAX_TERMS` allows."""


class Derivation:
    __slots__ = ("group", "images", "spec", "_cache")

    def __init__(
        self,
        group: Group,
        images: Dict[GroupElement, AlgebraElement],
        *,
        spec: Optional[dict] = None,
    ):
        """The derivation with the given generator images, which must
        already be known to define one: an image over `group` for every
        generator, satisfying the Leibniz rule on the group's pairs.
        Nothing is checked here; `from_table` is the constructor for images
        from outside."""
        self.group = group
        self.images = {s: images[s] for s in group.generators()}
        self.spec = spec
        self._reset_cache()

    def _reset_cache(self) -> None:
        # d(g) by g's payload: the generator images, the inverses of syllable
        # bases met so far, and every evaluated element.  Elements of equal
        # groups share payloads, and so share cached images.
        self._cache: Dict[tuple, AlgebraElement] = {
            s.payload: img for s, img in self.images.items()
        }

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "Derivation":
        images = {s: AlgebraElement.zero(group) for s in group.generators()}
        return Derivation(group, images)

    @staticmethod
    def inner(a: AlgebraElement) -> "Derivation":
        """x -> x*a - a*x, stored via its generator images."""
        group = a.group
        images = {
            s: commutator(AlgebraElement.monomial(s), a) for s in group.generators()
        }
        spec = {"group": group.name, "kind": "inner", "a": a.to_json()}
        return Derivation(group, images, spec=spec)

    @staticmethod
    def central(
        group: Group, tau: Sequence[CoeffLike], z: GroupElement
    ) -> "Derivation":
        """g -> tau(g) * g * z for central z and a homomorphism tau to (C, +).

        tau is given by its values on the free basis of the abelianization, so
        it automatically vanishes on the commutator subgroup.
        """
        group._check(z)
        if not group.is_central(z.payload):
            raise CentralityError(f"{z!r} is not central in {group.name}")
        rank = len(group.abelian_coords(z.payload))
        if len(tau) != rank:
            raise ValueError(
                f"tau must list {rank} values (one per abelianization basis element)"
            )
        coeffs = [as_coefficient(t) for t in tau]
        images: Dict[GroupElement, AlgebraElement] = {}
        for s in group.generators():
            coords = group.abelian_coords(s.payload)
            tau_s = ZERO
            for t, c in zip(coeffs, coords):
                tau_s = tau_s + t * GaussianRational(c)
            images[s] = AlgebraElement.monomial(s * z, tau_s)
        spec = {
            "group": group.name,
            "kind": "central",
            "tau": [t.to_json() for t in coeffs],
            "z": list(z.payload),
        }
        return Derivation(group, images, spec=spec)

    @staticmethod
    def from_table(
        group: Group, images: Dict[GroupElement, AlgebraElement]
    ) -> "Derivation":
        """The derivation with generator images from outside, checked to be
        over `group`, on exactly the generating set, and satisfying the
        Leibniz rule on every pair of `group.leibniz_pairs()`."""
        if set(images) != set(group.generators()):
            raise DerivationTableError(
                "images must be given on exactly the generating set"
            )
        if any(img.group != group for img in images.values()):
            raise GroupMismatchError("generator image over the wrong group")
        d = Derivation(group, images)
        d._validate_table()
        return d

    # -- table validation ----------------------------------------------------

    def _validate_table(self) -> None:
        image = self._image
        for p, q in self.group.leibniz_pairs():
            pq, joined = self._join((p, image(p)), (q, image(q)))
            if joined != image(pq):
                raise DerivationTableError(
                    "generator images violate a defining relation"
                )

    # -- evaluation ----------------------------------------------------------

    def _join(self, left: Evaluated, right: Evaluated) -> Evaluated:
        """(g, d(g)), (h, d(h)) -> (gh, d(g)*h + g*d(h)), the Leibniz rule,
        with one payload product per term."""
        g, dg = left
        h, dh = right
        dg_terms, dh_terms = dg._terms, dh._terms
        mul = self.group._mul
        if len(dg_terms) + len(dh_terms) > MAX_TERMS:
            raise TermBudgetError(
                f"the image of {self.group._wrap(mul(g, h))!r} may have "
                f"{len(dg_terms) + len(dh_terms)} terms, over the limit "
                f"MAX_TERMS = {MAX_TERMS}"
            )
        # translation is injective, so the terms of each half are distinct
        # and a term can vanish only where the two halves meet
        acc = {mul(t, h): c for t, c in dg_terms.items()}
        for t, c in dh_terms.items():
            shifted = mul(g, t)
            value = acc.get(shifted)
            if value is None:
                acc[shifted] = c
            else:
                value = value + c
                if value:
                    acc[shifted] = value
                else:
                    del acc[shifted]
        return mul(g, h), AlgebraElement._nonzero(self.group, acc)

    def _inverse(self, evaluated: Evaluated) -> Evaluated:
        """(w, d(w)) -> (w^-1, -w^-1*d(w)*w^-1), the image forced by the
        Leibniz rule, kept in `_cache`."""
        w, dw = evaluated
        group = self.group
        wi = group._inv(w)
        img = self._cache.get(wi)
        if img is None:
            mul = group._mul
            # translation is injective and negation keeps coefficients
            # nonzero, so these terms are distinct and nonzero
            terms = {mul(mul(wi, t), wi): -c for t, c in dw._terms.items()}
            img = self._cache[wi] = AlgebraElement._nonzero(group, terms)
        return wi, img

    def _power(self, base: Evaluated, k: int) -> Evaluated:
        """(w^k, d(w^k)) from (w, d(w)) and k != 0, by binary powering:
        O(log |k|) joins."""
        if k < 0:
            base, k = self._inverse(base), -k
        result: Optional[Evaluated] = None
        while True:
            if k & 1:
                result = base if result is None else self._join(result, base)
            k >>= 1
            if not k:
                return result
            base = self._join(base, base)

    def apply_element(self, g: GroupElement) -> AlgebraElement:
        """d(g) for a single group element of this derivation's group."""
        group = self.group
        # checked before the cache is read: an element of another group may
        # share a payload with a cached one
        if g.group is not group:
            group._check(g)
        return self._image(g.payload)

    def _image(self, p: tuple) -> AlgebraElement:
        """d of the element with payload p: the kernel's syllables w^k of it,
        each evaluated by `_power` from d(w) and joined left to right.  A
        base missing from `_cache` is evaluated by this method in turn."""
        cached = self._cache.get(p)
        if cached is None:
            group = self.group
            acc: Optional[Evaluated] = None
            for w, k in group.syllables(p):
                if k:
                    # most bases are cached, and a lookup costs less than a call
                    dw = self._cache.get(w)
                    if dw is None:
                        dw = self._image(w)
                    power = self._power((w, dw), k)
                    acc = power if acc is None else self._join(acc, power)
            cached = AlgebraElement.zero(group) if acc is None else acc[1]
            if len(self._cache) >= CACHE_LIMIT:
                self._reset_cache()
            self._cache[p] = cached
        return cached

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.group != self.group:
            raise GroupMismatchError("argument over the wrong group")
        result = AlgebraElement.zero(self.group)
        for p, c in x._terms.items():
            result = result + self._image(p).scale(c)
        return result

    def character(self, arrow: Arrow) -> GaussianRational:
        """chi^d(u, v): the coefficient of u in d(v).  The arrow's endpoints
        share a group, which `apply_element` checks."""
        return self.apply_element(arrow.v).coefficient(arrow.u)

    # -- Lie algebra structure -------------------------------------------------

    def _check_group(self, other: "Derivation") -> None:
        if self.group != other.group:
            raise GroupMismatchError("derivations over different groups")

    def __add__(self, other: "Derivation") -> "Derivation":
        self._check_group(other)
        images = {s: self.images[s] + other.images[s] for s in self.images}
        return Derivation(self.group, images)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + other.scale(-1)

    def scale(self, coeff: CoeffLike) -> "Derivation":
        images = {s: img.scale(coeff) for s, img in self.images.items()}
        return Derivation(self.group, images)

    def bracket(self, other: "Derivation") -> "Derivation":
        """[d, other] as operator commutator on the generator images."""
        self._check_group(other)
        images = {
            s: self.apply(other.images[s]) - other.apply(self.images[s])
            for s in self.images
        }
        return Derivation(self.group, images)

    def is_zero(self) -> bool:
        return not any(self.images.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Derivation)
            and self.group == other.group
            and self.images == other.images
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name} -> {img!r}"
            for name, img in zip(self.group.generator_names(), self.images.values())
        )
        return f"Derivation({self.group.name}: {parts})"

    # -- inner witnesses ---------------------------------------------------------

    def is_inner_witness(self, w: AlgebraElement) -> bool:
        """True iff d agrees with x -> x*w - w*x; checking on the generating
        set suffices because both sides are derivations."""
        if w.group != self.group:
            raise GroupMismatchError("witness over the wrong group")
        return all(
            self.images[s] == commutator(AlgebraElement.monomial(s), w)
            for s in self.images
        )


# ---------------------------------------------------------------------------
# Character formulas and checks
# ---------------------------------------------------------------------------


def char_inner_formula(a: GroupElement, arrow: Arrow) -> GaussianRational:
    """Closed form for the character of the inner derivation at a:
    [a == source] - [a == target].  When source == target == a the indicator
    difference is 0, matching d_a vanishing on commuting elements."""
    a.group._check(arrow.u)
    return GaussianRational((arrow.source() == a) - (arrow.target() == a))


def char_bracket_value(
    d: Derivation, p: Derivation, arrow: Arrow
) -> GaussianRational:
    """Character of [d, p] at (a, b) via the matrix-product sum
    sum_k chi^d(a,k) chi^p(k,b) - chi^p(a,k) chi^d(k,b).

    The right factors chi^p(k,b) and chi^d(k,b) are the coefficients of k in
    p(b) and d(b), so each sum runs over the terms of one of those images.
    """
    d._check_group(p)
    a, b = arrow.u, arrow.v
    total = ZERO
    for k, c in p.apply_element(b)._terms.items():
        total = total + d._image(k).coefficient(a) * c
    for k, c in d.apply_element(b)._terms.items():
        total = total - p._image(k).coefficient(a) * c
    return total


def verify_leibniz(d: Derivation, x: AlgebraElement, y: AlgebraElement) -> bool:
    return d.apply(x * y) == d.apply(x) * y + x * d.apply(y)


def verify_char_composition(d: Derivation, phi: Arrow, psi: Arrow) -> bool:
    """chi(phi o psi) == chi(phi) + chi(psi) for composable arrows."""
    composite = phi.compose(psi)
    return d.character(composite) == d.character(phi) + d.character(psi)
