"""Derivations of the group algebra and their groupoid characters.

A `Derivation` is its closed form, which evaluates it:
d(g) = g*a - a*g + sum over central z of tau_z(g) * g*z + the step terms,
with tau_z a homomorphism to (C, +) read through `Group.abelian_coords`.
Each derivation has one form, its normal form (`Group.normal_form`), which
`inner`, `+` and the bracket reach through `_normal`, `from_table` through
the kernel's `table_form`, and `scale` and `_split` keep, so `==`,
`is_zero` and `grading.decompose` read no image.  A bracket is one formula,
as Inn is an ideal: for d = inner(a) + d° and p = inner(b) + p°, d° and p°
their central and step parts, [d, p] = inner(d(b) - p°(a)) + [d°, p°],
where a central part shifts the other side's step parts and two step
parts bracket by the kernel's rule on their jumps, so no bracket reads
the generator images or solves a table.  A table from outside
(`from_table`) is checked and given its form by its kernel
(`Group.table_form`): a permutation group solves for a potential on its
conjugation action and hands back the inner part w, so the table is
inner(w); on Z^n every table is a derivation, and each term of d(e_i) is
one central part; and `heisenberg` also gives step parts, one per
non-central class (see `Heisenberg.table_form`).  A step part is opaque here: its kernel adds,
scales, shifts, brackets and evaluates it (`Group.normal_form`,
`groups.scale_steps`, `Heisenberg.shift_steps`, `Heisenberg.bracket_steps`,
`Heisenberg.step_terms`, `Heisenberg.step_value`).

A derivation builds only what is read: d(g) on payloads, its step terms
counted before any is built; the generator images on their first read;
and a character value chi(u, v), the coefficient of u in d(v), by the
formula a[v^-1 u] - a[u v^-1] + tau_{v^-1 u}(v) + the step parts' value at
u v^-1, with no image at all.

Every image, and d(x) in `apply`, from the terms of all its images, is
merged by one `algebra._add_terms` call, so none has more than `MAX_TERMS`
terms once finished.  No image is kept but the generator images, which
are evaluated from the form, also for a table: no derivation keeps the
images it was given.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Optional, Sequence, Tuple

from .algebra import AlgebraElement, Terms, _add_terms
from .coefficients import (
    CoeffLike, GaussianRational, MINUS_ONE, ONE, ZERO, as_coefficient, integer_combination,
)
from .groups import (
    Arrow,
    CentralityError,
    Group,
    GroupElement,
    GroupMismatchError,
    scale_steps,
)


class DerivationTableError(ValueError):
    """A generator-image table is not consistent with the group's relations."""


_RELATION_ERROR = "generator images violate a defining relation"


# tau of a central part: its values on the free basis of the abelianization
Tau = Tuple[GaussianRational, ...]


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


def _normal(a: AlgebraElement, taus: Dict[tuple, Tau], *steps: dict, spec=None) -> "Derivation":
    """inner(a) + the central parts `taus` + the sum of the step-part maps
    `steps`, a and the steps brought to normal form by the kernel."""
    terms, steps = a.group.normal_form(a._terms, *steps)
    return Derivation(AlgebraElement._nonzero(a.group, terms), taus, steps, spec=spec)


class Derivation:
    """A derivation of C[G] as its closed form,
    g -> g*a - a*g + sum over z of tau_z(g) * g*z + the step terms: the
    inner part `a`, the central parts `taus`, each tau_z by the payload of
    its central z, and the step parts `steps`, each by the payload of its
    class's representative (only on `heisenberg`).  It also keeps the
    output `spec` it was parsed from or None, and its generator images
    (`images`), evaluated from the form on their first read.

    The form is the normal form, one per derivation: derivations are equal
    exactly when their parts are, and 0 exactly when they have none.  On
    each conjugacy class the character of d is a potential fixed up to a
    constant, which the kernel's `Group.normal_form` fixes: tau_z is d's own
    on a central class {z}, where inner and step parts vanish, and Z^n has
    no other class; a permutation group shifts a on each class so that 0 is
    its first most frequent value; on a non-central Heisenberg class, a and
    the step part are one potential F with F(-inf) = 0, kept as inner terms
    when it is finite on no more points than it has jumps and as the step
    part otherwise.  Parts are merged by z and by class."""

    __slots__ = ("group", "a", "taus", "steps", "spec", "_images")

    def __init__(
        self,
        a: AlgebraElement,
        taus: Dict[tuple, Tau],
        steps: dict,
        *,
        spec: Optional[dict] = None,
    ):
        """The derivation with inner part a, central parts `taus` and step
        parts `steps`, over the group of a.  Nothing is checked here;
        `from_table` is the constructor for images from outside."""
        self.group = a.group
        self.a = a
        self.taus = taus
        self.steps = steps
        self.spec = spec
        self._images = None

    @property
    def images(self) -> Dict[GroupElement, AlgebraElement]:
        """The image of each generator, in generator order, evaluated from
        the form on the first read."""
        images = self._images
        if images is None:
            image = self._image
            images = self._images = {s: image(s.payload) for s in self.group.generators()}
        return images

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "Derivation":
        return Derivation(AlgebraElement.zero(group), {}, {})

    @staticmethod
    def inner(a: AlgebraElement) -> "Derivation":
        """x -> x*a - a*x."""
        spec = {"group": a.group.name, "kind": "inner", "a": a.to_json()}
        return _normal(a, {}, spec=spec)

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
        taus = {z.payload: coeffs} if any(coeffs) else {}
        spec = {
            "group": group.name,
            "kind": "central",
            "tau": [t.to_json() for t in coeffs],
            "z": list(z.payload),
        }
        return Derivation(AlgebraElement.zero(group), taus, {}, spec=spec)

    @staticmethod
    def from_table(
        group: Group, images: Dict[GroupElement, AlgebraElement]
    ) -> "Derivation":
        """The derivation with generator images from outside, checked to be
        over `group`, on exactly the generating set, and a derivation, by
        the kernel's `table_form`, which also solves for its normal form.
        The images are not kept: `images` evaluates them from that form."""
        generators = group.generators()
        if set(images) != set(generators):
            raise DerivationTableError(
                "images must be given on exactly the generating set"
            )
        if any(img.group != group for img in images.values()):
            raise GroupMismatchError("generator image over the wrong group")
        parts = group.table_form([images[s]._terms for s in generators])
        if parts is None:
            raise DerivationTableError(_RELATION_ERROR)
        inner, taus, steps = parts
        return Derivation(AlgebraElement._nonzero(group, inner), taus, steps)

    # -- the closed form -----------------------------------------------------

    def _image_pairs(self, p: tuple) -> list:
        """The terms of d(g), g with payload p, unmerged: g*a, -a*g and the
        central and step terms, one payload product per term."""
        group = self.group
        mul = group._mul
        terms = self.a._terms
        pairs = [(mul(p, t), c) for t, c in terms.items()]
        pairs += [(mul(t, p), -c) for t, c in terms.items()]
        if self.taus:
            # tau_z(g) * g*z, nonzero and distinct, as the z are
            coords = group.abelian_coords(p)
            for z, tau in self.taus.items():
                value = integer_combination(tau, coords)
                if value:
                    pairs.append((mul(p, z), value))
        if self.steps:
            pairs += group.step_terms(self.steps, p, len(pairs))
        return pairs

    def _image(self, p: tuple) -> AlgebraElement:
        """d of the element g with payload p, merged by one `_add_terms` call."""
        acc: Terms = {}
        _add_terms(acc, self._image_pairs(p))
        return AlgebraElement._nonzero(self.group, acc)

    def _coefficient(self, u: tuple, v: tuple) -> GaussianRational:
        """The coefficient of the element with payload u in d(v): a[v^-1 u]
        from v*a, minus a[u v^-1] from a*v, plus tau_{v^-1 u}(v) when v^-1 u
        is a central part's z, the one z with v*z = u, plus the step
        parts' value at u v^-1 (`Heisenberg.step_value`)."""
        group = self.group
        mul = group._mul
        vi = group._inv(v)
        s, e = mul(vi, u), mul(u, vi)
        get = self.a._terms.get
        held, gone = get(s), get(e)
        if gone is None:
            value = ZERO if held is None else held
        else:
            value = -gone if held is None else held - gone
        tau = self.taus.get(s)
        if tau is not None:
            value = value + integer_combination(tau, group.abelian_coords(v))
        if self.steps:
            value = value + group.step_value(self.steps, e, v)
        return value

    def _split(self, key: Callable[[tuple], tuple]) -> Dict[tuple, "Derivation"]:
        """The parts by coset key, one `key` call per term of a, per central
        part and per step part: at k, inner(a_k), with a_k the terms t of a
        with key(t) == k, plus the central parts with key(z) == k and the
        step parts whose class representative has key k."""
        group = self.group
        parts: Dict[tuple, Tuple[Terms, Dict[tuple, Tau], dict]] = {}
        for i, part in enumerate((self.a._terms, self.taus, self.steps)):
            for t, value in part.items():
                parts.setdefault(key(t), ({}, {}, {}))[i][t] = value
        return {
            k: Derivation(AlgebraElement._nonzero(group, terms), taus, steps)
            for k, (terms, taus, steps) in parts.items()
        }

    # -- evaluation ----------------------------------------------------------

    def apply_element(self, g: GroupElement) -> AlgebraElement:
        """d(g) for a single group element of this derivation's group."""
        group = self.group
        # checked before the image is read: an element of another group may
        # share a payload with a generator
        if g.group is not group:
            group._check(g)
        return self._image(g.payload)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        """d(x): the pairs of every image d(p), p a term of x, merged by one
        `_add_terms` call, so only the finished d(x) meets `MAX_TERMS`."""
        if x.group != self.group:
            raise GroupMismatchError("argument over the wrong group")
        acc: Terms = {}
        pairs = self._image_pairs
        # both factors are nonzero, so each product is nonzero; a
        # coefficient 1 leaves the image's terms as they are
        _add_terms(
            acc,
            chain.from_iterable(
                pairs(p) if c == ONE else [(t, c * v) for t, v in pairs(p)]
                for p, c in x._terms.items()
            ),
        )
        return AlgebraElement._nonzero(self.group, acc)

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
        """The sum, part by part, the step parts summed by the kernel's
        `normal_form`; its images are read from its form when asked for."""
        self._check_group(other)
        taus = dict(self.taus)
        for z, tau in other.taus.items():
            _add_central(taus, z, tau)
        return _normal(self.a + other.a, taus, self.steps, other.steps)

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + other.scale(-1)

    def scale(self, coeff: CoeffLike) -> "Derivation":
        c = as_coefficient(coeff)
        # a product of nonzero Gaussian rationals is nonzero
        if not c:
            return Derivation(self.a.scale(c), {}, {})
        taus = {z: tuple(c * t for t in tau) for z, tau in self.taus.items()}
        return Derivation(self.a.scale(c), taus, scale_steps(self.steps, c))

    def bracket(self, other: "Derivation") -> "Derivation":
        """[d, other] = d∘other - other∘d, its images read from its form
        when asked for.  Inn is an ideal, [d, inner(b)] = inner(d(b)), so
        with other = inner(b) + p°, and d° and p° the central and step parts,
        [d, other] = inner(d(b) - p°(a)) + [d°, p°]; each image is merged
        once, so a partial sum that cancels is never refused.  Central parts
        bracket as [central(t1, z1), central(t2, z2)] =
        central(t1(z2)*t2 - t2(z1)*t1, z1*z2), a central part shifts the
        other side's step parts (`Heisenberg.shift_steps`), and two sides'
        step parts bracket by the kernel's rule on their jumps
        (`Heisenberg.bracket_steps`); no generator image is read."""
        self._check_group(other)
        group = self.group
        inner = self.apply(other.a)
        if other.taus or other.steps:
            outer = Derivation(AlgebraElement.zero(group), other.taus, other.steps)
            inner = inner - outer.apply(self.a)
        taus: Dict[tuple, Tau] = {}
        for z1, t1 in self.taus.items():
            for z2, t2 in other.taus.items():
                s1 = integer_combination(t1, group.abelian_coords(z2))
                s2 = integer_combination(t2, group.abelian_coords(z1))
                tau = tuple(s1 * y - s2 * x for x, y in zip(t1, t2))
                _add_central(taus, group._mul(z1, z2), tau)
        # [s, c] = -[c, s]
        steps = [group.shift_steps(t, z, other.steps) for z, t in self.taus.items() if other.steps]
        steps += [scale_steps(group.shift_steps(t, z, self.steps), MINUS_ONE)
                  for z, t in other.taus.items() if self.steps]
        if self.steps and other.steps:
            steps.append(group.bracket_steps(self.steps, other.steps))
        return _normal(inner, taus, *steps)

    def is_zero(self) -> bool:
        """True iff d is 0, read off the normal form: it has no part."""
        return not (self.a or self.taus or self.steps)

    def __eq__(self, other) -> bool:
        """Whether the normal forms are equal; a carries the group."""
        return isinstance(other, Derivation) and (self.a, self.taus, self.steps) == (
            other.a, other.taus, other.steps
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
        return self == _normal(w, {})


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
    p(b) and d(b), so each sum runs over the terms of one of those images;
    a term whose left factor chi(a,k) is 0 adds 0 and is skipped.
    """
    d._check_group(p)
    a, b = arrow.u.payload, arrow.v
    total = ZERO
    chi = d._coefficient
    for k, c in p.apply_element(b)._terms.items():
        left = chi(a, k)
        if left:
            total = total + left * c
    chi = p._coefficient
    for k, c in d.apply_element(b)._terms.items():
        left = chi(a, k)
        if left:
            total = total - left * c
    return total


def verify_leibniz(d: Derivation, x: AlgebraElement, y: AlgebraElement) -> bool:
    return d.apply(x * y) == d.apply(x) * y + x * d.apply(y)


def verify_char_composition(d: Derivation, phi: Arrow, psi: Arrow) -> bool:
    """chi(phi o psi) == chi(phi) + chi(psi) for composable arrows."""
    composite = phi.compose(psi)
    return d.character(composite) == d.character(phi) + d.character(psi)
