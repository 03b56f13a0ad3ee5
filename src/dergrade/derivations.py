"""Derivations of the group algebra and their groupoid characters.

A derivation is stored by its images on the kernel's generating set, and
evaluated by one of two routes.

* Most derivations keep a closed form (`_Form`):
  d(g) = g*a - a*g + sum over central z of tau_z(g) * g*z, with tau_z a
  homomorphism to (C, +) read through `Group.abelian_coords`.  Inner and
  central derivations, and their sums, scalar multiples and brackets, do:
  `+`, `scale` and `bracket` combine forms, and `grading.decompose` splits
  one by coset, so each result keeps its form.  A table from outside
  (`from_table`) keeps one wherever its kernel can find it
  (`Group.table_form`): a permutation group solves for a potential on its
  conjugation action, one coefficient subtraction per generator arrow, and
  hands back the inner part w, so the table is inner(w); on Z^n every table
  is a derivation, and each term of d(e_i) is one central part.  A form
  builds only what is read: d(g) on payloads from a and the central parts,
  with no join; the generator images on their first read; and a character
  value chi(u, v), the coefficient of u in d(v), by the formula
  a[v^-1 u] - a[u v^-1] + tau_{v^-1 u}(v), with no image at all.
* A table over `heisenberg` has no form.  A group element g is
  evaluated from its kernel's syllables, g = w1^k1 * w2^k2 * ...
  (`Group.syllables`, on payloads), where each base w is x, y or
  z = [x, y], whose own syllables are x and y; a base is evaluated like
  any element.  Everything is combined by one join on
  payloads, (g, d(g)), (h, d(h)) -> (gh, d(g)*h + g*d(h)), which refuses to
  combine more than `MAX_TERMS` terms: each w^k is built from d(w) or
  d(w^-1) by binary powering, in O(log |k|) joins, and the powers are then
  joined in order.  Such a table is checked by the same join: on each of
  the kernel's payload pairs (g, h) (`Group.leibniz_pairs`), d(g) joined
  with d(h) must equal d(gh).  A copy `Derivation(group, images)` built
  directly over `heisenberg` has no form either and takes this route; over
  a kernel with no syllables (a permutation group, Z^n) such a copy raises
  `CapabilityError` when an element other than a generator is evaluated.

Every image, and the sum of images in `apply`, is merged by one
`algebra._add_terms` call, so none has more than `MAX_TERMS` terms once
finished.  No image is kept but the generator images: a closed form is
evaluated each time it is read, and a derivation with no form keeps only
its bases (`_bases`), on `heisenberg` at most x, y, z and their inverses.

The character view is derived: the value of the character on an arrow
(u, v) is the coefficient of u in d(v).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import algebra
from .algebra import AlgebraElement, TermBudgetError, Terms, _add_terms, commutator
from .coefficients import CoeffLike, GaussianRational, ONE, ZERO, as_coefficient
from .groups import (
    Arrow,
    CapabilityError,
    CentralityError,
    Group,
    GroupElement,
    GroupMismatchError,
)


# A group element's payload with its image under a derivation.
Evaluated = Tuple[tuple, AlgebraElement]


class DerivationTableError(ValueError):
    """A generator-image table is not consistent with the group's relations."""


_RELATION_ERROR = "generator images violate a defining relation"


# tau of a central part: its values on the free basis of the abelianization
Tau = Tuple[GaussianRational, ...]


def _tau_at(tau: Tau, coords: Sequence[int]) -> GaussianRational:
    """tau(g), from the abelianization coordinates of g."""
    value = ZERO
    for t, k in zip(tau, coords):
        value = value + t * GaussianRational(k)
    return value


def _add_central(central: Dict[tuple, Tau], z: tuple, tau: Tau) -> None:
    """Add the central part (tau, z) into `central`, merging it with the part
    at the same z; a part whose tau is 0 is dropped."""
    old = central.get(z)
    if old is not None:
        tau = tuple(x + y for x, y in zip(old, tau))
    if any(tau):
        central[z] = tau
    else:
        central.pop(z, None)


class _Form:
    """The closed form of an inner-plus-central derivation,
    g -> g*a - a*g + sum over z of tau_z(g) * g*z: the inner part a and the
    central parts, each tau_z by the payload of its central z.  Parts are
    merged by z and a zero tau is dropped, so repeated sums stay bounded."""

    __slots__ = ("a", "central")

    def __init__(self, a: AlgebraElement, central: Dict[tuple, Tau]):
        self.a = a
        self.central = central

    def _central_terms(self, p: tuple) -> List[Tuple[tuple, GaussianRational]]:
        """The nonzero terms tau_z(g) * g*z of the element g with payload p;
        their payloads are distinct, as the z are."""
        group = self.a.group
        coords = group.abelian_coords(p)
        mul = group._mul
        terms = []
        for z, tau in self.central.items():
            value = _tau_at(tau, coords)
            if value:
                terms.append((mul(p, z), value))
        return terms

    def image(self, p: tuple) -> AlgebraElement:
        """d of the element g with payload p: g*a - a*g plus the central
        terms, one payload product per term."""
        a = self.a
        group = a.group
        mul = group._mul
        # translation is injective, so the terms of g*a are distinct and a
        # term can vanish only where it meets one of -a*g or the central terms
        acc = {mul(p, t): c for t, c in a._terms.items()}
        pairs = [(mul(t, p), -c) for t, c in a._terms.items()]
        if self.central:
            pairs += self._central_terms(p)
        _add_terms(acc, pairs)
        return AlgebraElement._nonzero(group, acc)

    def coefficient(self, u: tuple, v: tuple) -> GaussianRational:
        """The coefficient of the element with payload u in d(v): a[v^-1 u]
        from v*a, minus a[u v^-1] from a*v, plus tau_{v^-1 u}(v) when v^-1 u
        is a central part's z, the one z with v*z = u."""
        group = self.a.group
        mul = group._mul
        vi = group._inv(v)
        s = mul(vi, u)
        terms = self.a._terms
        value = terms.get(s, ZERO) - terms.get(mul(u, vi), ZERO)
        tau = self.central.get(s)
        if tau is not None:
            value = value + _tau_at(tau, group.abelian_coords(v))
        return value

    def central_apply(self, x: AlgebraElement) -> AlgebraElement:
        """The central parts alone applied to x."""
        acc: Terms = {}
        if self.central:
            _add_terms(
                acc,
                ((k, c * v) for t, c in x._terms.items() for k, v in self._central_terms(t)),
            )
        return AlgebraElement._nonzero(x.group, acc)

    def __add__(self, other: "_Form") -> "_Form":
        central = dict(self.central)
        for z, tau in other.central.items():
            _add_central(central, z, tau)
        return _Form(self.a + other.a, central)

    def scale(self, c: GaussianRational) -> "_Form":
        # a product of nonzero Gaussian rationals is nonzero
        central = {z: tuple(c * t for t in tau) for z, tau in self.central.items()} if c else {}
        return _Form(self.a.scale(c), central)

    def bracket(self, other: "_Form") -> "_Form":
        """The form of d∘p - p∘d, for d of this form and p of `other`:
        [inner(a), inner(b)] = inner(b*a - a*b); [c, inner(b)] = inner(c(b))
        for a central derivation c; and [central(t1, z1), central(t2, z2)]
        = central(t1(z2)*t2 - t2(z1)*t1, z1*z2)."""
        a, b = self.a, other.a
        group = a.group
        inner = commutator(b, a) + self.central_apply(b) - other.central_apply(a)
        central: Dict[tuple, Tau] = {}
        for z1, t1 in self.central.items():
            for z2, t2 in other.central.items():
                s1 = _tau_at(t1, group.abelian_coords(z2))
                s2 = _tau_at(t2, group.abelian_coords(z1))
                tau = tuple(s1 * y - s2 * x for x, y in zip(t1, t2))
                _add_central(central, group._mul(z1, z2), tau)
        return _Form(inner, central)

    def split(self, key: Callable[[tuple], tuple]) -> Dict[tuple, "_Form"]:
        """The parts by coset key, one `key` call per term of a and per
        central part: at k, inner(a_k), with a_k the terms t of a with
        key(t) == k, plus the central parts with key(z) == k."""
        group = self.a.group
        parts: Dict[tuple, Tuple[Terms, Dict[tuple, Tau]]] = {}
        for t, c in self.a._terms.items():
            parts.setdefault(key(t), ({}, {}))[0][t] = c
        for z, tau in self.central.items():
            parts.setdefault(key(z), ({}, {}))[1][z] = tau
        return {
            k: _Form(AlgebraElement._nonzero(group, terms), central)
            for k, (terms, central) in parts.items()
        }


class Derivation:
    """A derivation of C[G]: its generator images (`images`), the output
    `spec` it was parsed from or None, and its closed form when it has one.
    Evaluation uses the form when there is one and syllables with Leibniz
    joins otherwise, which only `heisenberg` has: every constructor keeps a
    form over the other kernels, and a copy built there directly from
    images raises `CapabilityError` on any element but a generator.  `==`
    compares images only.  A derivation built from its form alone fills
    `images` from it on first read."""

    __slots__ = ("group", "_images", "spec", "_form", "_bases")

    def __init__(
        self,
        group: Group,
        images: Optional[Dict[GroupElement, AlgebraElement]],
        *,
        spec: Optional[dict] = None,
        form: Optional[_Form] = None,
    ):
        """The derivation with the given generator images, which must
        already be known to define one: an image over `group` for every
        generator, extending to a derivation of C[G].  With a
        closed form, the images must be the form's, or None to read them
        from it when first asked for.  Nothing is checked here;
        `from_table` is the constructor for images from outside."""
        self.group = group
        self.spec = spec
        self._form = form
        self._images = None if images is None else {s: images[s] for s in group.generators()}
        # with no form, d(w) by w's payload for the generators, the syllable
        # bases and the inverses `_inverse` builds of them
        self._bases: Optional[Dict[tuple, AlgebraElement]] = (
            None if form is not None else {s.payload: img for s, img in self._images.items()}
        )

    @property
    def images(self) -> Dict[GroupElement, AlgebraElement]:
        """The image of each generator, in generator order."""
        images = self._images
        if images is None:
            form = self._form
            images = self._images = {
                s: form.image(s.payload) for s in self.group.generators()
            }
        return images

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "Derivation":
        return Derivation(group, None, form=_Form(AlgebraElement.zero(group), {}))

    @staticmethod
    def inner(a: AlgebraElement) -> "Derivation":
        """x -> x*a - a*x."""
        group = a.group
        spec = {"group": group.name, "kind": "inner", "a": a.to_json()}
        return Derivation(group, None, spec=spec, form=_Form(a, {}))

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
        coeffs = tuple(as_coefficient(t) for t in tau)
        central: Dict[tuple, Tau] = {}
        _add_central(central, z.payload, coeffs)
        spec = {
            "group": group.name,
            "kind": "central",
            "tau": [t.to_json() for t in coeffs],
            "z": list(z.payload),
        }
        return Derivation(
            group, None, spec=spec, form=_Form(AlgebraElement.zero(group), central)
        )

    @staticmethod
    def from_table(
        group: Group, images: Dict[GroupElement, AlgebraElement]
    ) -> "Derivation":
        """The derivation with generator images from outside, checked to be
        over `group`, on exactly the generating set, and a derivation: by the
        kernel's `table_form`, which also gives its closed form, or on a
        kernel without one by the Leibniz rule on every pair of
        `group.leibniz_pairs()`."""
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
        group = self.group
        try:
            parts = group.table_form([self._images[s]._terms for s in group.generators()])
        except CapabilityError:
            image = self._image
            for p, q in group.leibniz_pairs():
                pq, joined = self._join((p, image(p)), (q, image(q)))
                if joined != image(pq):
                    raise DerivationTableError(_RELATION_ERROR)
            return
        if parts is None:
            raise DerivationTableError(_RELATION_ERROR)
        inner, central = parts
        self._form = _Form(AlgebraElement._nonzero(group, inner), central)
        self._bases = None

    # -- evaluation ----------------------------------------------------------

    def _join(self, left: Evaluated, right: Evaluated) -> Evaluated:
        """(g, d(g)), (h, d(h)) -> (gh, d(g)*h + g*d(h)), the Leibniz rule,
        with one payload product per term."""
        g, dg = left
        h, dh = right
        dg_terms, dh_terms = dg._terms, dh._terms
        mul = self.group._mul
        # |d(g)| + |d(h)| bounds |d(gh)|: refused before it is built
        if len(dg_terms) + len(dh_terms) > algebra.MAX_TERMS:
            raise TermBudgetError(
                f"the image of {self.group._wrap(mul(g, h))!r} may have "
                f"{len(dg_terms) + len(dh_terms)} terms, over the limit "
                f"MAX_TERMS = {algebra.MAX_TERMS}"
            )
        # translation is injective, so the terms of each half are distinct
        # and a term can vanish only where the two halves meet
        acc = {mul(t, h): c for t, c in dg_terms.items()}
        _add_terms(acc, ((mul(g, t), c) for t, c in dh_terms.items()))
        return mul(g, h), AlgebraElement._nonzero(self.group, acc)

    def _inverse(self, evaluated: Evaluated) -> Evaluated:
        """(w, d(w)) -> (w^-1, -w^-1*d(w)*w^-1), the image forced by the
        Leibniz rule, for a base w; kept in `_bases`."""
        w, dw = evaluated
        group = self.group
        wi = group._inv(w)
        img = self._bases.get(wi)
        if img is None:
            mul = group._mul
            # translation is injective and negation keeps coefficients
            # nonzero, so these terms are distinct and nonzero
            terms = {mul(mul(wi, t), wi): -c for t, c in dw._terms.items()}
            img = self._bases[wi] = AlgebraElement._nonzero(group, terms)
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
        # checked before the image is read: an element of another group may
        # share a payload with a generator or a base
        if g.group is not group:
            group._check(g)
        return self._image(g.payload)

    def _image(self, p: tuple) -> AlgebraElement:
        """d of the element with payload p: from the closed form when there
        is one, else read from `_bases` or built from the kernel's syllables
        w^k of p, each evaluated by `_power` from d(w) and joined left to
        right.  A base missing from `_bases` is evaluated by this method in
        turn and kept there; no other image is kept."""
        if self._form is not None:
            return self._form.image(p)
        bases = self._bases
        img = bases.get(p)
        if img is not None:
            return img
        acc: Optional[Evaluated] = None
        for w, k in self.group.syllables(p):
            if k:
                dw = bases.get(w)
                if dw is None:
                    dw = bases[w] = self._image(w)
                power = self._power((w, dw), k)
                acc = power if acc is None else self._join(acc, power)
        return AlgebraElement.zero(self.group) if acc is None else acc[1]

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        """d(x), summed into one dict: linear in the terms of the images."""
        if x.group != self.group:
            raise GroupMismatchError("argument over the wrong group")
        acc: Terms = {}
        # both factors are nonzero, so each product is nonzero; a
        # coefficient 1 leaves the image's terms as they are
        _add_terms(
            acc,
            chain.from_iterable(
                self._image(p)._terms.items()
                if c == ONE
                else [(t, c * v) for t, v in self._image(p)._terms.items()]
                for p, c in x._terms.items()
            ),
        )
        return AlgebraElement._nonzero(self.group, acc)

    def _coefficient(self, u: tuple, v: tuple) -> GaussianRational:
        """The coefficient of the element with payload u in d(v): from the
        closed form with no image built, else from d(v) by `_image`."""
        if self._form is not None:
            return self._form.coefficient(u, v)
        return self._image(v)._terms.get(u, ZERO)

    def character(self, arrow: Arrow) -> GaussianRational:
        """chi^d(u, v): the coefficient of u in d(v).  The arrow's endpoints
        share a group, so checking v checks both."""
        v = arrow.v
        group = self.group
        # checked before the image is read, as in `apply_element`
        if v.group is not group:
            group._check(v)
        return self._coefficient(arrow.u.payload, v.payload)

    # -- Lie algebra structure -------------------------------------------------

    def _check_group(self, other: "Derivation") -> None:
        if self.group != other.group:
            raise GroupMismatchError("derivations over different groups")

    def __add__(self, other: "Derivation") -> "Derivation":
        """The sum: of the two closed forms when both have one, its images
        read from that form when asked for; else of the images."""
        self._check_group(other)
        if self._form is not None and other._form is not None:
            return Derivation(self.group, None, form=self._form + other._form)
        images, others = self.images, other.images
        return Derivation(self.group, {s: images[s] + others[s] for s in images})

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + other.scale(-1)

    def scale(self, coeff: CoeffLike) -> "Derivation":
        c = as_coefficient(coeff)
        if self._form is not None:
            return Derivation(self.group, None, form=self._form.scale(c))
        return Derivation(self.group, {s: img.scale(c) for s, img in self.images.items()})

    def bracket(self, other: "Derivation") -> "Derivation":
        """[d, other] = d∘other - other∘d: from the two closed forms when
        both have one, its images read from the bracket's form when asked
        for; else as the operator commutator on the generator images."""
        self._check_group(other)
        if self._form is not None and other._form is not None:
            return Derivation(self.group, None, form=self._form.bracket(other._form))
        images = {
            s: self.apply(other.images[s]) - other.apply(self.images[s])
            for s in self.images
        }
        return Derivation(self.group, images)

    def is_zero(self) -> bool:
        """True iff every generator image is 0.  With a closed form, the
        images are read from it up to the first nonzero one, and none is
        stored."""
        if self._form is not None:
            return not any(self._form.image(s.payload) for s in self.group.generators())
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
    a, b = arrow.u.payload, arrow.v
    total = ZERO
    for k, c in p.apply_element(b)._terms.items():
        total = total + d._coefficient(a, k) * c
    for k, c in d.apply_element(b)._terms.items():
        total = total - p._coefficient(a, k) * c
    return total


def verify_leibniz(d: Derivation, x: AlgebraElement, y: AlgebraElement) -> bool:
    return d.apply(x * y) == d.apply(x) * y + x * d.apply(y)


def verify_char_composition(d: Derivation, phi: Arrow, psi: Arrow) -> bool:
    """chi(phi o psi) == chi(phi) + chi(psi) for composable arrows."""
    composite = phi.compose(psi)
    return d.character(composite) == d.character(phi) + d.character(psi)
