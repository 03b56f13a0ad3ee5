"""Grading of the derivation Lie algebra by an abelian quotient G/N.

Support localisation works on generator images: collecting the cosets of
s^-1 k over all generators s and support elements k of d(s) bounds the
character's support.  The direct-sum decomposition splits the normal form
every derivation has: the component of inner(a) + central parts + step
parts at a key is inner(a_k), a_k the terms of a in that coset, plus the
central parts whose z lies in it and the step parts whose class does; a
class lies in one coset, so each component is in normal form and nonzero.
Bracket closure, the stem-group localisation of central derivations, and
per-coset inner witnesses are exercised on top of the same machinery.
The setup and every result are immutable records (`groups.Record`);
`GradingSetup` checks its quotient in `__init__`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

from .algebra import AlgebraElement
from .coefficients import CoeffLike
from .derivations import Derivation
from .groups import (
    CentralityError,
    Group,
    GroupElement,
    GroupMismatchError,
    QuotientSpec,
    Record,
)

CosetKey = tuple


class TrivialGradingError(ValueError):
    """The quotient is trivial, so the grading would be trivial as well."""


class GradingSetup(Record):
    """A group together with a validated quotient giving a non-trivial grading."""

    __slots__ = ("group", "quotient")

    @staticmethod
    def default(group: Group) -> "GradingSetup":
        return GradingSetup(group, group.derived_quotient())

    def __init__(self, group: Group, quotient: QuotientSpec):
        if quotient.group != group:
            raise GroupMismatchError("quotient belongs to a different group")
        identity_key = quotient.identity_key()
        if all(quotient.key(s.payload) == identity_key for s in group.generators()):
            raise TrivialGradingError(
                f"quotient of {group.name} is trivial: every generator lands "
                "in the identity coset, so the grading has a single component"
            )
        super().__init__(group, quotient)


def _check_setup(d: Derivation, setup: GradingSetup) -> None:
    if d.group != setup.group:
        raise GroupMismatchError("derivation over a different group")


def _sources(d: Derivation) -> List[tuple]:
    """The payload s^-1 k for each term k of each generator image d(s)."""
    group = d.group
    images = d.images
    mul = group._mul
    inverses = [group._inv(s.payload) for s in images]
    return [mul(s_inv, k) for s_inv, img in zip(inverses, images.values()) for k in img._terms]


def _components(d: Derivation, setup: GradingSetup) -> Dict[CosetKey, Derivation]:
    """d's graded components by coset key, all nonzero with no image read:
    its normal form split by the key of each term of a, central z and step
    part's class (at k, inner(a_k) plus the central and step parts at k)."""
    _check_setup(d, setup)
    return d._split(setup.quotient.key)


def support_cosets(d: Derivation, setup: GradingSetup) -> FrozenSet[CosetKey]:
    """Coset keys that can carry support of d's character.

    Collects key(s^-1 k) over generators s and support elements k of d(s);
    any arrow with a nonzero character value has its source's coset in this
    set, which the property tests check against random arrows.
    """
    _check_setup(d, setup)
    return frozenset(map(setup.quotient.key, _sources(d)))


def support_classes(d: Derivation) -> FrozenSet[GroupElement]:
    """Canonical representatives of the conjugacy classes that can carry
    support, at class rather than coset granularity."""
    group = d.group
    return frozenset(map(group._wrap, set(map(group.class_representative, _sources(d)))))


def project(d: Derivation, key: CosetKey, setup: GradingSetup) -> Derivation:
    """The component of d at one coset key: the parts of its closed form at
    that key (see `_components`), or the zero derivation when none is
    nonzero."""
    component = _components(d, setup).get(key)
    return Derivation.zero(d.group) if component is None else component


class GradedDecomposition(Record):
    """d's nonzero graded components, by coset key in sorted order."""

    __slots__ = ("base", "setup", "components")

    def keys(self) -> List[CosetKey]:
        return sorted(self.components)

    def total(self) -> Derivation:
        acc = Derivation.zero(self.base.group)
        for key in self.keys():
            acc = acc + self.components[key]
        return acc


def decompose(d: Derivation, setup: GradingSetup) -> GradedDecomposition:
    """Split d into its nonzero graded components; they sum back to d exactly
    and their support cosets are pairwise disjoint singletons.

    Every component, from `_components`, holds a nonzero term."""
    components = _components(d, setup)
    return GradedDecomposition(d, setup, {key: components[key] for key in sorted(components)})


class ClosureCheck(Record):
    """The bracket of the components at left_key and right_key: its support
    cosets, observed_keys, and whether they lie in expected_key alone."""

    __slots__ = ("left_key", "right_key", "expected_key", "observed_keys", "ok")


class ClosureReport(Record):
    """One `ClosureCheck` per pair of component keys."""

    __slots__ = ("checks",)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def check_bracket_closure(
    d: Derivation, p: Derivation, setup: GradingSetup
) -> ClosureReport:
    """For every pair of nonzero component keys (k, l), the bracket of the
    components must have support only at the combined key k*l."""
    left = decompose(d, setup)
    right = decompose(p, setup)
    checks: List[ClosureCheck] = []
    for k in left.keys():
        for l in right.keys():
            bracket = left.components[k].bracket(right.components[l])
            observed = support_cosets(bracket, setup)
            expected = setup.quotient.combine(k, l)
            checks.append(
                ClosureCheck(k, l, expected, observed, observed <= {expected})
            )
    return ClosureReport(tuple(checks))


def central_component_key(
    tau: Sequence[CoeffLike], z: GroupElement, setup: GradingSetup
) -> CosetKey:
    """The single coset key of a central derivation: the coset of z (every
    support arrow has source z).  For stem groups this is the identity key."""
    setup.group._check(z)
    if not setup.group.is_central(z.payload):
        raise CentralityError(f"{z!r} is not central in {setup.group.name}")
    return setup.quotient.key(z.payload)


def zder_grading_demo(group: Group) -> dict:
    """Decompose a family of central derivations under the derived-subgroup
    quotient and report where their components land.

    Stem groups localise everything at the identity key; non-stem groups
    (e.g. Z^n) exhibit central derivations at distinct nonzero keys, which is
    the induced grading of the central-derivation subalgebra.  The family is
    the kernel's `central_family()`.
    """
    setup = GradingSetup.default(group)
    entries = []
    nonzero_keys = set()
    for tau, z in group.central_family():
        d = Derivation.central(group, tau, z)
        dec = decompose(d, setup)
        keys = dec.keys()
        for key in keys:
            if key != setup.quotient.identity_key():
                nonzero_keys.add(key)
        entries.append(
            {
                "tau": tau,
                "z": list(z.payload),
                "component_keys": [list(k) for k in keys],
            }
        )
    return {
        "group": group.name,
        "is_stem": group.is_stem(),
        "entries": entries,
        "distinct_nonzero_keys": len(nonzero_keys),
    }


class InnerGradedCertificate(Record):
    """A graded decomposition of an inner derivation together with a per-coset
    inner witness for every component."""

    __slots__ = ("decomposition", "witnesses", "certified")

    @property
    def all_certified(self) -> bool:
        return all(self.certified.values())


def inner_graded_decomposition(
    coefficients: Sequence[CoeffLike],
    elements: Sequence[GroupElement],
    setup: GradingSetup,
) -> InnerGradedCertificate:
    """Decompose the inner derivation of sum(c_i * y_i) and certify each
    component inner via the witness collecting the y_i in that coset."""
    if len(coefficients) != len(elements):
        raise ValueError("coefficients and elements must align")
    a = AlgebraElement.from_terms(setup.group, list(zip(elements, coefficients)))
    d = Derivation.inner(a)
    dec = decompose(d, setup)
    witnesses: Dict[CosetKey, AlgebraElement] = {}
    certified: Dict[CosetKey, bool] = {}
    for key in dec.keys():
        witness = AlgebraElement.from_terms(
            setup.group,
            [
                (y, c)
                for c, y in zip(coefficients, elements)
                if setup.quotient.key(y.payload) == key
            ],
        )
        witnesses[key] = witness
        certified[key] = dec.components[key].is_inner_witness(witness)
    return InnerGradedCertificate(dec, witnesses, certified)
