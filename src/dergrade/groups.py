"""Concrete group kernels with normal forms, the adjoint-action groupoid, and
abelian quotients.

Three kernels are supported, each with a trivially solvable word problem:

* the discrete Heisenberg group (integer unitriangular 3x3 matrices, stored
  as the triple of off-diagonal entries),
* free abelian groups Z^n (integer vectors),
* finite permutation groups (one-line notation), built by closure from a
  generating set.

Elements are immutable values in canonical normal form: for all three kernels
the payload *is* the normal form, so equality is payload equality.  Every
method a kernel or quotient offers the library's own layers takes and returns
payloads: the product and inverse (`Group._mul`, `Group._inv`), the table
check (a table's closed form), the conjugacy, centre and abelianization
oracles, and quotient keys.
The algebra, derivation and grading layers compute on payloads alone;
`g * h`, `g.inverse()` and the element-valued entry points (`element`,
`generators`, sampling) wrap them for callers that hold `GroupElement`s.
Each kernel checks outside entries in one method, `payload`, which returns
the normal form they name; `element`, defined once in `Group`, wraps it,
and JSON algebra terms are read through it with no element built.
`group_from_name` keeps every kernel it builds by canonical selector
(`_KERNELS`), so a selector builds its kernel once per process.  A
permutation group keeps its members as payloads; the group and its
commutator subgroup are grown by whole right cosets (`_extend_subgroup`),
its conjugacy classes are the trees of its arrow forest, each searched
once from the element read and listed in member order, its centre is
solved on the points, its payload products are read from a table of at
most |G|^2 references, filled on first use, and its inverses from a memo
of at most |G| entries.  Every kernel checks a derivation table by finding
its closed form (`Group.table_form`): a permutation group solves for a
potential on the generator arrows of its conjugation action, built once
per kernel, which gives the table's inner part; Z^n and `heisenberg` read
delta(s) = d(s) * s^-1 off a table in one routine (`Group._deltas`),
whose central points are the central parts, all of a Z^n table, and
`heisenberg` solves for the jumps of a step potential on each non-central
class, a line that conjugation moves along, and folds them as they are;
each returns the form in the kernel's one normal form (`Group.normal_form`).
One routine, `_runs`, walks running sums along residues: for a table's
jumps, a step part's terms of d(g) and a bracket's jumps.
Its step parts are read and written here alone: `normal_form` adds them,
`scale_steps` scales them, `Heisenberg.shift_steps` brackets them with a
central part and `Heisenberg.bracket_steps` with each other, and
`Heisenberg.step_terms` and
`Heisenberg.step_value` evaluate them for a derivation, which holds them
as opaque values by class.  A subgroup N given from outside is grown from
its least members by the same whole cosets, and checked normal on the
generators chosen for it.  `Record` is the one immutable slotted record
that `GroupElement`, `Arrow` and the grading and verification results
build on, in place of dataclasses, whose import loads `inspect`, `ast`,
`dis` and `tokenize`.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import chain, combinations, product
from math import gcd
from operator import add, itemgetter, neg, sub
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .coefficients import ZERO, integer_combination, integer_entries


class GroupMismatchError(TypeError):
    """An operation mixed elements of different groups."""


class CompositionError(ValueError):
    """A non-composable arrow pair; carries both boundary values."""

    def __init__(self, source: "GroupElement", target: "GroupElement"):
        super().__init__(
            f"arrows are not composable: source {source!r} != target {target!r}"
        )
        self.source = source
        self.target = target


class CentralityError(ValueError):
    """A central element was required but the argument is not central."""


class CapabilityError(RuntimeError):
    """The group kernel lacks an oracle required by the operation."""


class QuotientError(ValueError):
    """A proposed normal subgroup does not yield a valid abelian quotient.

    ``diagnostic`` optionally carries a counterexample: an element whose
    conjugacy class is not contained in its coset.
    """

    def __init__(self, message: str, diagnostic: Optional[dict] = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class Record:
    """An immutable record whose fields are its class's `__slots__`, in order.

    `==` and `hash` compare the fields of two records of one class, `repr`
    lists them as a dataclass does, and a pickle rebuilds the record through
    its constructor.  The fields are set once, in `__init__`; any later
    assignment or deletion is refused.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, not {len(values)}")
        for name, value in zip(names, values):
            _set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


_set_field = object.__setattr__


class GroupElement(Record):
    """An immutable element: its group and its normal-form payload.

    The hash is the payload's, computed once: equal elements have equal
    payloads, and an element's group is compared only when payloads match.
    """

    __slots__ = ("group", "payload", "_hash")

    def __init__(self, group: "Group", payload: tuple):
        _set_group(self, group)
        _set_payload(self, payload)
        _set_hash(self, hash(payload))

    def __eq__(self, other) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.payload == other.payload and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroupElement, (self.group, self.payload)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        group._check(other)
        return group._wrap(group._mul(self.payload, other.payload))

    def inverse(self) -> "GroupElement":
        group = self.group
        return group._wrap(group._inv(self.payload))

    def __repr__(self) -> str:
        return f"{self.group.name}{self.payload}"


_set_group = GroupElement.group.__set__
_set_payload = GroupElement.payload.__set__
_set_hash = GroupElement._hash.__set__


def conjugate(t: GroupElement, a: GroupElement) -> GroupElement:
    """t * a * t^-1."""
    return t * a * t.inverse()


class Arrow(Record):
    """An arrow (u, v) of the adjoint-action groupoid.

    Source is v^-1 u, target is u v^-1; source and target of any arrow are
    conjugate, so arrows never leave a conjugacy class.
    """

    __slots__ = ("u", "v")

    def __init__(self, u: GroupElement, v: GroupElement):
        if u.group is not v.group and u.group != v.group:
            raise GroupMismatchError("arrow endpoints from different groups")
        _set_u(self, u)
        _set_v(self, v)

    def source(self) -> GroupElement:
        return self.v.inverse() * self.u

    def target(self) -> GroupElement:
        return self.u * self.v.inverse()

    def compose(self, other: "Arrow") -> "Arrow":
        """self after other; requires source(self) == target(other)."""
        if self.source() != other.target():
            raise CompositionError(self.source(), other.target())
        return Arrow(self.v * other.u, self.v * other.v)


_set_u = Arrow.u.__set__
_set_v = Arrow.v.__set__


class Group:
    """Base interface of a group kernel.

    A kernel defines its product and inverse on payloads (`_mul`, `_inv`),
    the identity's payload (`_identity`) and the one check of outside
    entries (`payload`), and `GroupElement` lifts them to elements through
    `_wrap`; `element` is that check, wrapped.  The other kernel methods the
    library's layers call (the table check `table_form` and the conjugacy,
    centre and abelianization oracles) take and return payloads too, and do
    not check them: a payload is assumed to be a normal form of this group.
    Membership is checked once where outside values meet: products of
    `GroupElement`s, `Arrow`, and the algebra, derivation and grading entry
    points, each through `_check`, which then pass `.payload` on.
    """

    def __init__(self, name: str, key: tuple):
        self.name = name
        self._key = key

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Group) and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"<group {self.name}>"

    # -- element construction ------------------------------------------------

    def payload(self, entries: Sequence) -> tuple:
        """The payload of the element with these entries, a normal form of
        this group; `TypeError` or `ValueError` when they name none."""
        raise NotImplementedError

    def element(self, entries: Sequence) -> GroupElement:
        return GroupElement(self, self.payload(entries))

    def _listed(self, entries, shape: str) -> tuple:
        """`entries` as a tuple when they are a list or tuple; anything else
        is refused by a TypeError that names this kernel and the `shape` of
        its elements."""
        if not isinstance(entries, (list, tuple)):
            raise TypeError(f"{self.name} element must be {shape}, got {type(entries).__name__}")
        return tuple(entries)

    def identity(self) -> GroupElement:
        return self._wrap(self._identity)

    def _wrap(self, p: tuple) -> GroupElement:
        """The element whose payload is the normal form p, unchecked."""
        return GroupElement(self, p)

    def _check(self, g: GroupElement) -> None:
        if g.group is not self and g.group != self:
            raise GroupMismatchError(f"element of {g.group.name} used with {self.name}")

    # -- group operations ----------------------------------------------------

    def _mul(self, p: tuple, q: tuple) -> tuple:
        """The payload of the product of the elements with payloads p and q."""
        raise NotImplementedError

    def _inv(self, p: tuple) -> tuple:
        """The payload of the inverse of the element with payload p."""
        raise NotImplementedError

    # -- generating set and table check ---------------------------------------

    def generators(self) -> List[GroupElement]:
        """The generating set, built once by the kernel; a fresh list."""
        return list(self._generators)

    def generator_names(self) -> List[str]:
        return [f"g{i + 1}" for i in range(len(self.generators()))]

    def table_form(
        self, images: Sequence[dict]
    ) -> Optional[Tuple[dict, Dict[tuple, tuple], Dict[tuple, tuple]]]:
        """The closed form of a generator table, (a, central, steps) with
        d(g) = g*a - a*g + sum over z of tau_z(g) * g*z + the step terms:
        the inner part a as {payload: nonzero coefficient}; each tau_z, on
        the free basis of the abelianization, by the payload of its central
        z, no tau all zero; and on `heisenberg` alone a step part by class
        representative (see `Heisenberg.table_form` and `Heisenberg.line`);
        or None when the table is no derivation.  `images` holds the terms
        of d(s) for each generator s in order, {payload: nonzero
        coefficient}, read by `_deltas` on Z^n and `heisenberg`.  The form is
        returned in normal form (`normal_form`)."""
        raise NotImplementedError

    def _deltas(self, images: Sequence[dict]) -> Tuple[Dict[tuple, tuple], list]:
        """The points of delta(s) = d(s) * s^-1 for each generator s of a
        table, `images` as in `table_form`: ({central z: tau_z on the
        generators}, with tau_z(s) the coefficient of z in delta(s), and
        each other point as (generator number, point, coefficient))."""
        central, others = {}, []
        for i, (s, terms) in enumerate(zip(self._generators, images)):
            si = self._inv(s.payload)
            for t, c in terms.items():
                e = self._mul(t, si)
                if self.is_central(e):
                    central.setdefault(e, [ZERO] * len(images))[i] = c
                else:
                    others.append((i, e, c))
        return {z: tuple(tau) for z, tau in central.items()}, others

    def normal_form(self, a: dict, *steps: dict) -> Tuple[dict, dict]:
        """The one (a, steps) of inner(a) + the sum of the step-part maps
        `steps`, a {payload: nonzero coefficient} and each map {class: step
        part}: equal derivations have equal normal forms.  This is the one
        place step parts are added."""
        raise NotImplementedError

    # -- abelianization -------------------------------------------------------

    def abelian_coords(self, g: tuple) -> Tuple[int, ...]:
        """Coordinates of the element with payload g in a free basis of
        G/G', when the abelianization is free abelian."""
        raise CapabilityError(f"{self.name} has no free abelianization basis")

    # -- quotients -------------------------------------------------------------

    def derived_quotient(self) -> "QuotientSpec":
        """Quotient by the commutator subgroup (the default grading quotient):
        by default the abelianization, keyed by `abelian_coords`."""
        return QuotientSpec(self)

    def quotient_by(self, subgroup_payloads: Iterable[Sequence]) -> "QuotientSpec":
        """Quotient by an explicit normal subgroup, listed element by element."""
        raise CapabilityError("explicit subgroup quotients are only supported for perm groups")

    # -- sampling and central derivations ---------------------------------------

    def random_element(self, rng: random.Random, box: int) -> GroupElement:
        return self._wrap(self._random_payload(rng, box))

    def _random_payload(self, rng: random.Random, box: int) -> tuple:
        """A payload whose entries are drawn from [-box, box] in turn, as
        `randint` draws them."""
        below, n = rng._randbelow, 2 * box + 1
        return tuple(below(n) - box for _ in self._identity)

    def has_central_derivations(self) -> bool:
        """Whether `random_central` can draw a nonzero central derivation."""
        return False

    def random_central(self, rng: random.Random, box: int) -> Tuple[List[int], GroupElement]:
        """(tau, z) of a random central derivation g -> tau(g) * g * z, with
        tau given on the generators and z central."""
        raise TypeError(f"no central derivations sampled for {self.name}")

    def central_family(self) -> List[Tuple[List[int], GroupElement]]:
        """A canonical list of (tau, z) central derivations, one per
        abelianization direction."""
        raise CapabilityError(f"{self.name} has no free abelianization basis")

    # -- descriptions -----------------------------------------------------------

    def is_stem(self) -> bool:
        """True iff every central element lies in the commutator subgroup."""
        raise NotImplementedError


def _summed(pairs: Iterable[Tuple[object, object]]) -> dict:
    """{key: the sum of its values}, keys whose sum is 0 left out."""
    acc: dict = {}
    for k, v in pairs:
        acc[k] = acc[k] + v if k in acc else v
    return {k: v for k, v in acc.items() if v}


def _step_part(jumps: dict) -> Tuple[List[int], list]:
    """The step part of a potential F with the jumps {point: jump}: the
    sorted jump points, and F: 0 before the first, then its value after
    each."""
    pos, vals = sorted(jumps), [ZERO]
    for r in pos:
        vals.append(vals[-1] + jumps[r])
    return pos, vals


def _spans(step: Tuple[List[int], list]) -> list:
    """(lo, end, v) for each stretch lo <= r < end between two jump points of
    a step part on which its potential is v != 0."""
    pos, vals = step
    return [(lo, end, v) for lo, end, v in zip(pos, pos[1:], vals[1:]) if v]


def _runs(ends: Iterable[Tuple[int, object]], t: int) -> list:
    """(lo, end, v) for each stretch lo <= r < end, end = lo mod t, on which
    the running sum of the values `ends` = (point, value), summed by point,
    along each residue mod t is v != 0 (each residue's values sum to 0)."""
    at, chains = _summed(ends), {}
    for r in sorted(at):
        chains.setdefault(r % t, []).append(r)
    runs = []
    for rs in chains.values():
        run = ZERO
        for r, end in zip(rs, rs[1:]):
            run = run + at[r]
            if run:
                runs.append((r, end, run))
    return runs


def _jumps(step: Tuple[List[int], list]) -> Iterable[Tuple[int, object]]:
    """(point, jump) for each jump of a step part."""
    return zip(step[0], map(sub, step[1][1:], step[1]))


def scale_steps(steps: dict, c) -> dict:
    """The step parts `steps` times the nonzero coefficient c."""
    return {key: (pos, [c * v for v in vals]) for key, (pos, vals) in steps.items()}


# ---------------------------------------------------------------------------
# Discrete Heisenberg group
# ---------------------------------------------------------------------------

# The generators x and y, and z = [x, y], which spans the centre.
_X, _Y, _Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class Heisenberg(Group):
    """Integer unitriangular matrices [[1,a,c],[0,1,b],[0,0,1]], stored (a,b,c).

    (a,b,c)*(x,y,z) = (a+x, b+y, c+z+a*y) and (a,b,c)^-1 = (-a,-b,ab-c).
    Generated by x=(1,0,0), y=(0,1,0); their commutator z=(0,0,1) spans the
    center, which equals the commutator subgroup.
    """

    def __init__(self):
        super().__init__("heisenberg", ("heisenberg",))
        self._identity = (0, 0, 0)
        self._generators = [self.element(_X), self.element(_Y)]

    def payload(self, entries: Sequence) -> tuple:
        p = self._listed(entries, "a list of 3 integers [a, b, c]")
        if len(p) != 3:
            raise ValueError(f"heisenberg element {list(p)} must have 3 entries [a, b, c]")
        if not integer_entries(p):
            raise TypeError("Heisenberg entries must be integers")
        return p

    def _mul(self, p: tuple, q: tuple) -> tuple:
        a, b, c = p
        x, y, z = q
        return (a + x, b + y, c + z + a * y)

    def _inv(self, p: tuple) -> tuple:
        a, b, c = p
        return (-a, -b, a * b - c)

    def generator_names(self) -> List[str]:
        return ["x", "y"]

    def line(self, key: tuple, g: tuple) -> Tuple[int, int]:
        """(move, stride) for the class `key` = (P, Q, r0) of a non-central
        element, the line of members (P, Q, r), r = r0 mod stride, where
        stride = gcd(P, Q): conjugation by g = (a, b, c) moves each member
        by move = a*Q - b*P along it."""
        P, Q, _ = key
        return g[0] * Q - g[1] * P, gcd(P, Q)

    def table_form(
        self, images: Sequence[dict]
    ) -> Optional[Tuple[dict, Dict[tuple, tuple], Dict[tuple, tuple]]]:
        # delta(s) = d(s) * s^-1 (`_deltas`) is a cocycle of the conjugation
        # action, delta(gh) = delta(g) + g delta(h) g^-1, which keeps each
        # class.  On a central z it is tau_z(s) * z.  On the line of a
        # non-central class (`line`) delta(g) is F(r - move) - F(r) for a
        # potential F with finitely many jumps, unique once F(-inf) = 0, so
        # either generator that moves the line finds it; its jumps go to the
        # fold of `normal_form`, which keeps F as inner terms or a step part.
        # The table is a derivation iff delta([x, y]), which is
        # (1 - c_y) delta(x) - (1 - c_x) delta(y), is 0.
        from . import algebra  # imported here: algebra imports this module

        central, others = self._deltas(images)
        lines: Dict[tuple, Tuple[dict, dict]] = {}
        for i, e, c in others:
            lines.setdefault(self.class_representative(e), ({}, {}))[i][e[2]] = c
        jumps: Dict[tuple, list] = {}
        budget = algebra.MAX_TERMS
        for key, (dx, dy) in lines.items():
            (mx, stride), (my, _) = self.line(key, _X), self.line(key, _Y)
            if _summed(chain(
                dx.items(), ((r + my, -c) for r, c in dx.items()),
                ((r, -c) for r, c in dy.items()), ((r + mx, c) for r, c in dy.items()),
            )):
                return None
            move, f = (mx, dx) if mx else (my, dy)
            if move < 0:
                # delta(g^-1) = -g^-1 delta(g) g, moved by -move
                move, f = -move, {r - move: -c for r, c in f.items()}
            # f(r) = F(r - move) - F(r) gives each jump J(r) = J(r - move) +
            # f(r - stride) - f(r): the jumps are running sums along each
            # chain r mod move, counted before any is built
            ends = chain.from_iterable(((r, -c), (r + stride, c)) for r, c in f.items())
            runs = _runs(ends, move)
            budget -= sum((end - lo) // move for lo, end, _ in runs)
            if budget < 0:
                raise algebra.TermBudgetError(
                    f"the closed form of the table has more than MAX_TERMS = "
                    f"{algebra.MAX_TERMS} jumps"
                )
            jumps[key] = [(r, run) for lo, end, run in runs for r in range(lo, end, move)]
        inner, steps = self._fold({}, jumps)
        return inner, central, steps

    def normal_form(self, a: dict, *steps: dict) -> Tuple[dict, dict]:
        jumps: Dict[tuple, list] = {}
        for part in steps:
            for key, step in part.items():
                jumps.setdefault(key, []).extend(_jumps(step))
        return self._fold(a, jumps)

    def _fold(self, a: dict, jumps: Dict[tuple, list]) -> Tuple[dict, dict]:
        """`normal_form` of a and the jumps {class: [(point, jump), ...]} of
        step parts.  inner(z) = 0 for central z.  On a non-central class's
        line, a and the jumps are one potential F with F(-inf) = 0, its jumps
        the ends of a's terms and the given jumps summed point by point,
        which joins a when it is finite on no more points than it has
        jumps, else a step part."""
        lines: Dict[tuple, dict] = {key: {} for key in jumps}
        for t, c in a.items():
            if t[0] or t[1]:
                lines.setdefault(self.class_representative(t), {})[t] = c
        inner, folded = {}, {}
        for key, terms in lines.items():
            if key not in jumps and len(terms) <= 2:
                inner.update(terms)  # at most 2 points, and F has at least 2 jumps
                continue
            stride = gcd(key[0], key[1])
            ends = chain.from_iterable(((t[2], c), (t[2] + stride, -c)) for t, c in terms.items())
            pos, vals = _step_part(_summed(chain(ends, jumps.get(key, ()))))
            spans = _spans((pos, vals))
            if not vals[-1] and sum((end - lo) // stride for lo, end, _ in spans) <= len(pos):
                inner.update(
                    (key[:2] + (r,), v) for lo, end, v in spans for r in range(lo, end, stride)
                )
            else:
                folded[key] = (pos, vals)
        return inner, folded

    def step_terms(self, steps: dict, p: tuple, others: int) -> List[Tuple[tuple, object]]:
        """The step terms of d(g), g with payload p, for the step parts
        `steps` of d, with distinct payloads: on the line of each step part,
        which g moves by m, the runs of members (P, Q, r) where
        F(r - m) - F(r) is one nonzero value, the running sums (`_runs`) of
        each jump J as -J at its point and J m further.  They are counted
        before any is built, and refused when more than `MAX_TERMS` would be
        left after every one of the `others` terms of d(g) cancelled one."""
        from . import algebra  # imported here: algebra imports this module

        runs, count = [], 0
        for key, step in steps.items():
            move, stride = self.line(key, p)
            if move:
                ends = chain.from_iterable(((r, -j), (r + move, j)) for r, j in _jumps(step))
                for lo, hi, value in _runs(ends, stride):
                    runs.append((key[:2], lo, hi, stride, value))
                    count += (hi - lo) // stride
        if count - others > algebra.MAX_TERMS:
            raise algebra.TermBudgetError(
                f"the image of {self._wrap(p)!r} has at least {count - others} "
                f"terms, over the limit MAX_TERMS = {algebra.MAX_TERMS}"
            )
        mul = self._mul
        return [
            (mul(line + (r,), p), value)
            for line, lo, hi, stride, value in runs
            for r in range(lo, hi, stride)
        ]

    def step_value(self, steps: dict, e: tuple, v: tuple):
        """The coefficient of e*v in the step terms of d(v), for the step
        parts `steps` of d: F(r - m) - F(r) when e = (P, Q, r) lies on a
        step part's line, which v moves by m, and 0 otherwise."""
        key = self.class_representative(e)
        step = steps.get(key)
        if step is None:
            return ZERO
        pos, vals = step
        r, move = e[2], self.line(key, v)[0]
        return vals[bisect_right(pos, r - move)] - vals[bisect_right(pos, r)]

    def shift_steps(self, tau, z: tuple, steps: dict) -> dict:
        """The step parts of [c, s], c the central part (tau, z = (0, 0, k)) and
        `steps` those of s: each part of F on the class of (P, Q, r0) becomes
        tau(P, Q) times that of F(r - k) on the class of (P, Q, r0 + k)."""
        k = z[2]
        return {
            self.class_representative((P, Q, r0 + k)): ([r + k for r in pos], [w * v for v in vals])
            for (P, Q, r0), (pos, vals) in steps.items() if (w := integer_combination(tau, (P, Q)))
        }

    def bracket_steps(self, steps1: dict, steps2: dict) -> dict:
        """The step parts of [s, t] for the step parts `steps1` of s and
        `steps2` of t.  A step part of F is ad(A), A = sum_r F(r) * (P, Q, r),
        so [s, t] = ad(B*A - A*B): for parts on the keys (P1, Q1) and
        (P2, Q2), of strides s1 and s2 and jumps J_i at p_i and J'_j at p'_j,
        its jumps on the key (P1 + P2, Q1 + Q2), of stride s, are as a power
        series sum_{i,j} J_i * J'_j * x^(p_i + p'_j + P2*Q1) times the
        polynomial E = (1 - x^s)(1 - x^w) / ((1 - x^s1)(1 - x^s2)),
        w = P1*Q2 - Q1*P2 (0 on parallel and opposite keys).  E is read the
        cheapest way that reads at most `MAX_TERMS` of its points: by its
        coefficients, constant along each residue mod lcm(s1, s2) but near
        its ends; as (1 - x^s) / (1 - x^s2) times |w| / s1 powers of x^s1; or,
        for a part whose F ends at 0, without (1 - x^s1), that part read by
        its points.  E is applied once per exponent of the pair's product
        series, summed first.  Each way gives half-lines of one stride t,
        summed per output key and t by `_runs`, so no two strides meet at a
        common period; the jumps are counted before any is built, and those
        that two strides put on one point are added."""
        from . import algebra  # imported here: algebra imports this module

        budget = algebra.MAX_TERMS
        sweeps: Dict[tuple, list] = {}
        for (P1, Q1, _), step1 in steps1.items():
            for (P2, Q2, _), step2 in steps2.items():
                w = P1 * Q2 - Q1 * P2
                if not w:
                    continue
                s, s1, s2 = gcd(P1 + P2, Q1 + Q2), gcd(P1, Q1), gcd(P2, Q2)
                g, start, sign = gcd(s1, s2), min(0, w), 1 if w > 0 else -1
                period = s1 * s2 // g
                jumps1, jumps2 = list(_jumps(step1)), list(_jumps(step2))
                both = len(jumps1) * len(jumps2)
                # (points of E read, times the pairs of terms, way): a side's
                # number is the way that reads that side by its points
                ways = [((2 * s + min(period, abs(w) - s)) // g, both, "runs"),
                        (abs(w) // max(s1, s2), both, "lines")]
                sides = (step1, s1, jumps2), (step2, s2, jumps1)
                for side, (step, stride, other) in enumerate(sides):
                    if not step[1][-1]:
                        size = sum((end - lo) // stride for lo, end, _ in _spans(step))
                        ways.append((size, len(other), side))
                ways = [way for way in ways if way[0] <= budget]
                if not ways:
                    raise algebra.TermBudgetError(
                        f"the bracket of the step parts on ({P1}, {Q1}) and ({P2}, {Q2}) "
                        f"reads more than MAX_TERMS = {budget} points"
                    )
                way = min(ways, key=lambda way: way[0] * way[1])[2]
                terms = jumps1, jumps2
                # E as half-lines of one stride t: (n, value) is value at n, n + t, ...
                if way == "runs":
                    alpha, beta = s1 // g, s2 // g
                    inverse = pow(alpha, -1, beta)

                    def c(n):
                        # s1*a + s2*b = n has one a in each residue mod beta
                        if n < 0 or n % g:
                            return 0
                        m = n // g
                        a = m * inverse % beta
                        return 0 if a * alpha > m else (m - a * alpha) // (alpha * beta) + 1

                    t, kernel = period, []
                    stop = max(0, w) + s
                    for lo, hi, flat in ((start, start + s, False), (start + s, stop - s, True),
                                         (stop - s, stop, False)):
                        for n in range(lo, min(lo + t, hi) if flat else hi, g):
                            if value := c(n) - c(n - s) - c(n - w) + c(n - s - w):
                                end = n + ((hi - n - 1) // t + 1 if flat else 1) * t
                                kernel += [(n, value), (end, -value)]
                elif way == "lines":
                    big, t = max(s1, s2), min(s1, s2)
                    kernel = [
                        (start + big * a + shift, sign * value)
                        for a in range(abs(w) // big) for shift, value in ((0, 1), (s, -1))
                    ]
                else:
                    step, stride, t = ((step1, s1, s2), (step2, s2, s1))[way]
                    points = [(r, v) for lo, end, v in _spans(step) for r in range(lo, end, stride)]
                    terms = (points, jumps2) if way == 0 else (jumps1, points)
                    kernel = [
                        (start + shift, sign * value)
                        for shift, value in ((0, 1), (abs(w), -1), (s, -1), (s + abs(w), 1))
                    ]
                # the pair's product series, summed by exponent, times E
                series = _summed(
                    (p1 + p2 + P2 * Q1, j1 * j2) for p1, j1 in terms[0] for p2, j2 in terms[1]
                )
                sweeps.setdefault((P1 + P2, Q1 + Q2, t), []).extend(
                    (n + q, integer_combination((v,), (value,)))
                    for q, v in series.items() for n, value in kernel
                )
        runs = [(P, Q, t, _runs(ends, t)) for (P, Q, t), ends in sweeps.items()]
        count = sum((end - lo) // t for _, _, t, found in runs for lo, end, _ in found)
        if count > budget:
            raise algebra.TermBudgetError(
                f"the bracket of the step parts has {count} jumps, over the limit "
                f"MAX_TERMS = {budget}"
            )
        jumps: Dict[tuple, list] = {}
        for P, Q, t, found in runs:
            for lo, end, total in found:
                for r in range(lo, end, t):
                    jumps.setdefault(self.class_representative((P, Q, r)), []).append((r, total))
        return {key: _step_part(part) for key, rs in jumps.items() if (part := _summed(rs))}

    def is_central(self, z: tuple) -> bool:
        return z[0] == 0 and z[1] == 0

    def class_representative(self, a: tuple) -> tuple:
        # Conjugating (a,b,c) by (p,q,r) shifts c by p*b - q*a, so the class
        # of a non-central element is {(a, b, c + k*gcd(a,b))}; central
        # elements form singleton classes.  Validated against the brute-force
        # oracle in the test suite.
        p, q, c = a
        if p == 0 and q == 0:
            return a
        return (p, q, c % gcd(p, q))

    def abelian_coords(self, g: tuple) -> Tuple[int, ...]:
        return g[:2]

    def has_central_derivations(self) -> bool:
        return True

    def random_central(self, rng: random.Random, box: int) -> Tuple[List[int], GroupElement]:
        below = rng._randbelow
        tau = [below(5) - 2, below(5) - 2]
        return tau, self.element((0, 0, below(5) - 2))

    def central_family(self) -> List[Tuple[List[int], GroupElement]]:
        z = self.element(_Z)
        return [([1, 0], z), ([0, 1], z)]

    def center_description(self) -> str:
        return "{(0, 0, c) : c in Z} (the c-axis)"

    def commutator_description(self) -> str:
        return "{(0, 0, c) : c in Z} (equals the center)"

    def is_stem(self) -> bool:
        # center == commutator subgroup
        return True


# ---------------------------------------------------------------------------
# Free abelian groups
# ---------------------------------------------------------------------------


class FreeAbelian(Group):
    """Z^n with componentwise addition.

    Every generator table is a derivation, since C[Z^n] is commutative, and
    a central one: `table_form` reads its central parts off the images, one
    per term, so a table evaluates by its closed form like any other
    derivation here."""

    def __init__(self, n: int):
        if n > MAX_ZN_RANK:
            raise ValueError(f"rank {n} exceeds the limit MAX_ZN_RANK = {MAX_ZN_RANK}")
        if n < 1:
            raise ValueError("rank must be >= 1")
        super().__init__(f"zn:{n}", ("zn", n))
        self.n = n
        self._identity = (0,) * n
        self._generators = [
            self.element([1 if j == i else 0 for j in range(n)]) for i in range(n)
        ]

    def payload(self, entries: Sequence) -> tuple:
        p = self._listed(entries, f"a list of {self.n} integers")
        if len(p) != self.n or not integer_entries(p):
            raise TypeError(f"expected an integer vector of length {self.n}")
        return p

    def _mul(self, p: tuple, q: tuple) -> tuple:
        return tuple(map(add, p, q))

    def _inv(self, p: tuple) -> tuple:
        return tuple(map(neg, p))

    def generator_names(self) -> List[str]:
        return [f"e{i + 1}" for i in range(self.n)]

    def table_form(self, images: Sequence[dict]) -> Tuple[dict, Dict[tuple, tuple], dict]:
        # C[Z^n] is commutative, so every table is a derivation, and it is
        # central: a term t of d(e_i) is e_i * z for z = t - e_i, central as
        # the group is, so d(g) = sum over z of tau_z(g) * g*z with tau_z(e_i)
        # the coefficient of e_i * z in d(e_i), read by `_deltas`
        return {}, self._deltas(images)[0], {}

    def normal_form(self, a: dict, *steps: dict) -> Tuple[dict, dict]:
        # C[Z^n] is commutative, so every inner derivation is 0, and no table
        # has a step part
        return {}, {}

    def is_central(self, z: tuple) -> bool:
        return True

    def class_representative(self, a: tuple) -> tuple:
        return a

    def abelian_coords(self, g: tuple) -> Tuple[int, ...]:
        return g

    def has_central_derivations(self) -> bool:
        return True

    def random_central(self, rng: random.Random, box: int) -> Tuple[List[int], GroupElement]:
        below = rng._randbelow
        tau = [below(5) - 2 for _ in range(self.n)]
        return tau, self.random_element(rng, box)

    def central_family(self) -> List[Tuple[List[int], GroupElement]]:
        return [([1] + [0] * (self.n - 1), b) for b in self._generators]

    def center_description(self) -> str:
        return "the whole group (abelian)"

    def commutator_description(self) -> str:
        return "trivial subgroup {0}"

    def is_stem(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# Finite permutation groups
# ---------------------------------------------------------------------------


# Products gather one-line tuples with `itemgetter`, which given one index
# returns an entry, not a tuple; so a permutation group has degree >= 2.
def _perm_mul(g: tuple, h: tuple) -> tuple:
    # (g h)(i) = g(h(i)), one-line 1-based: g, shifted to 1-based, gathered at h
    return itemgetter(*h)((0,) + g)


def _right_mul(h: tuple):
    """The map g -> g h on payloads, for loops whose right factor stays fixed;
    a call costs about half of `_perm_mul`."""
    return itemgetter(*[i - 1 for i in h])


def _perm_inv(g: tuple) -> tuple:
    out = [0] * len(g)
    for i, img in enumerate(g):
        out[img - 1] = i + 1
    return tuple(out)


def _conjugate(s: tuple, times_si, g: tuple) -> tuple:
    return times_si(_perm_mul(s, g))


def _conjugation(s: tuple):
    """The map g -> s g s^-1 on payloads.  A partial, not a closure, so that
    a group keeping one per generator can still be pickled."""
    return partial(_conjugate, s, _right_mul(_perm_inv(s)))


def _extend_subgroup(members: set, maps: list, c: tuple) -> None:
    """Grow the subgroup H = `members`, closed under the right
    multiplications in `maps`, into the subgroup that H and c generate, and
    add c's to `maps`.  The new subgroup is a union of right cosets H r, and
    such a union is closed under a map once it holds r t for each coset
    representative r and map t; each new coset H r t is one C-level gather
    over H, or, when H = {e}, the one element r t."""
    old = list(members)
    maps.append(_right_mul(c))
    cosets = old[:1]  # H itself; the list grows as it is read
    for r in cosets:
        for times in maps:
            rt = times(r)
            if rt not in members:
                if len(old) == 1:
                    members.add(rt)
                else:
                    members.update(map(_right_mul(rt), old))
                cosets.append(rt)


def _commuting_map(gens: Sequence[tuple], first: int, image: int) -> Optional[Dict[int, int]]:
    """The map z on the orbit of the point `first` under `gens` with
    z(first) = image and z(s(i)) = s(z(i)) for each point i and generator s,
    as {i: z(i)} in breadth-first order, or None when there is no such map."""
    z = {first: image}
    queue = [first]
    for i in queue:  # the list grows as it is read: breadth first
        zi = z[i]
        for s in gens:
            j, zj = s[i - 1], s[zi - 1]
            known = z.get(j)
            if known is None:
                z[j] = zj
                queue.append(j)
            elif known != zj:
                return None
    return z


def _gather(indices: Sequence[int]):
    """The map f -> (f[i] for i in indices) on tuples, one C-level gather.
    `itemgetter` given one index returns the entry, not a tuple, so a
    single index is gathered by a slice."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


class _ArrowForest:
    """The conjugacy classes of a permutation group and the generator arrows
    of its conjugation groupoid, by element index (position in the sorted
    members): the arrow (s x, s) of the generator s numbered j goes from x
    to s x s^-1.  A class is searched once, on its first read (`root`),
    breadth first from the element read, generators in order; `complete`
    searches all, for a table check.  The search fills `sources[j]`, {s x:
    index of x}, the arrow a term of d(s) charges, `moves[j]`, the index of
    s x s^-1 for each x, `edges`, each class's spanning tree as (x, j, y) in
    search order, `roots`, {payload: index of its class's root, the least
    member}, and `classes`, {root: the member payloads in member order};
    once complete, `targets[j]` gathers f -> (f(s x s^-1) for each x)."""

    __slots__ = ("group", "maps", "sources", "moves", "edges", "roots", "classes", "targets")

    def __init__(self, group: "PermutationGroup"):
        gens, size = group._generator_payloads, len(group._elements)
        # (s, the map g -> g s^-1): the arguments of each generator's conjugation
        self.group, self.maps = group, [conj.args for _, conj in group._conjugations]
        self.sources: List[dict] = [{} for _ in gens]
        self.moves: List[list] = [[None] * size for _ in gens]
        self.roots: Dict[tuple, int] = {}
        self.edges, self.classes, self.targets = [], {}, None

    def root(self, p: tuple) -> int:
        """The index of the root of the class of the member p."""
        root = self.roots.get(p)
        if root is None:
            elements, index, edges = self.group._elements, self.group._index, self.edges
            arms = list(enumerate(zip(self.maps, self.moves, self.sources)))
            x = index[p]
            orbit, seen = [x], {x}
            for w in orbit:  # the list grows as it is read: breadth first
                g = elements[w]
                for j, ((s, times_si), ys, sources) in arms:
                    sw = _perm_mul(s, g)
                    y = ys[w] = index[times_si(sw)]
                    sources[sw] = w
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
                        edges.append((w, j, y))
            orbit.sort()
            root = orbit[0]
            members = self.classes[root] = [elements[w] for w in orbit]
            self.roots.update(dict.fromkeys(members, root))
        return root

    def complete(self) -> "_ArrowForest":
        if self.targets is None:
            for p in self.group._elements:
                self.root(p)
            self.targets = [_gather(ys) for ys in self.moves]
        return self


class PermutationGroup(Group):
    """A finite permutation group generated by explicit permutations.

    Elements are enumerated at construction time: the closure grows from
    the identity by whole right cosets (`_extend_subgroup`), each generator
    not yet reached extending the subgroup reached so far.

    The group keeps its members as payloads, in sorted order, and builds a
    `GroupElement` only when it hands one out (the generators are built
    once).  Its oracles work on payloads: `conjugacy_class`,
    `class_representative` and `is_central` return payloads and verdicts,
    never elements.  The kernel's arrow forest (`_ArrowForest`, each class
    searched on first read) holds its conjugacy classes, which those oracles
    and `normal_form` read, and checks a generator table in `table_form`: one
    subtraction per charged arrow, an arrow (s x, s) with s x a term of
    d(s), and one C-level gather per generator, which compares all
    |G| * |generators| arrows of the conjugation action; it returns the
    table's inner part, so every derivation over the group keeps a closed
    form.  `_inv` keeps each inverse it computes, as the member itself
    (at most |G| entries).
    `_mul` reads a product table of payloads indexed by position in that
    order: a row is allocated the first time its left factor is used and a
    cell is filled the first time it is read.  The table holds at most
    |G|^2 references (518,400 on s6, about 4 MB).  Factors are looked up by
    payload, so elements of an equal group built separately, or unpickled,
    multiply too.

    Each generator's conjugation is one map, built once (`_conjugation`),
    which `is_central`, the arrow forest, the normal closure and the
    `quotient_by` check use.  No cold fact scans the members one call at a
    time: the centre is solved on the points, at most prod |orbit|
    candidates (6 on s6), each looked up in the index; G' is a normal
    closure grown by whole right cosets like the closure itself; and a
    quotient keys each coset by one gather over N.  Right multiplication by
    a fixed factor is a C-level gather built by `_right_mul`.  `quotient_by`
    checks a subgroup given from outside; `derived_quotient` builds G' as a
    normal closure and skips that check.
    """

    def __init__(self, name: str, degree: int, generator_payloads: Sequence[tuple]):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        super().__init__(f"perm:{name}", ("perm", name, degree, tuple(generator_payloads)))
        self.degree = degree
        self._generator_payloads = [tuple(p) for p in generator_payloads]
        for p in self._generator_payloads:
            self._validate_payload(p)
        # (s, g -> s g s^-1) for each generator s
        self._conjugations = [(s, _conjugation(s)) for s in self._generator_payloads]
        members = {tuple(range(1, degree + 1))}
        maps: list = []
        for s in self._generator_payloads:
            if s not in members:
                _extend_subgroup(members, maps, s)
        # sorted, so the identity comes first
        self._elements = sorted(members)
        self._identity = self._elements[0]
        self._index = {p: i for i, p in enumerate(self._elements)}
        self._generators = [self._wrap(p) for p in self._generator_payloads]
        # product payload rows by left factor's position, allocated on first use
        self._products: List[Optional[List[Optional[tuple]]]] = [None] * len(self._elements)
        # the member inverse of each payload inverted so far
        self._inverses: Dict[tuple, tuple] = {}
        # the generator arrows and classes, each class searched on first use
        self._forest = _ArrowForest(self)
        self._center: Optional[FrozenSet[tuple]] = None
        self._derived: Optional[FrozenSet[tuple]] = None

    @staticmethod
    def symmetric(n: int) -> "PermutationGroup":
        swap = (2, 1) + tuple(range(3, n + 1))
        cycle = tuple(range(2, n + 1)) + (1,)
        return PermutationGroup(f"s{n}", n, [swap, cycle])

    @staticmethod
    def alternating(n: int) -> "PermutationGroup":
        if n < 3:
            raise ValueError("degree must be >= 3")
        three_cycle = (2, 3, 1) + tuple(range(4, n + 1))
        if n % 2 == 1:
            second = tuple(range(2, n + 1)) + (1,)
        else:
            second = (1,) + tuple(range(3, n + 1)) + (2,)
        return PermutationGroup(f"a{n}", n, [three_cycle, second])

    def _validate_payload(self, p: tuple) -> None:
        # integers first: sorted() compares the entries
        if not integer_entries(p) or sorted(p) != list(range(1, self.degree + 1)):
            raise TypeError(f"not a permutation of 1..{self.degree}: {p}")

    def payload(self, entries: Sequence) -> tuple:
        p = self._listed(entries, f"a list of the integers 1..{self.degree} in some order")
        self._validate_payload(p)
        if p not in self._index:
            raise ValueError(f"{p} is not an element of {self.name}")
        return p

    def _mul(self, p: tuple, q: tuple) -> tuple:
        index = self._index
        i = index[p]
        row = self._products[i]
        if row is None:
            row = self._products[i] = [None] * len(self._elements)
        j = index[q]
        prod = row[j]
        if prod is None:
            prod = row[j] = self._elements[index[_perm_mul(p, q)]]
        return prod

    def _inv(self, p: tuple) -> tuple:
        inverse = self._inverses.get(p)
        if inverse is None:
            inverse = self._inverses[p] = self._elements[self._index[_perm_inv(p)]]
        return inverse

    def _random_payload(self, rng: random.Random, box: int) -> tuple:
        elements = self._elements
        return elements[rng._randbelow(len(elements))]

    def table_form(
        self, images: Sequence[dict]
    ) -> Optional[Tuple[dict, Dict[tuple, tuple], dict]]:
        # The arrow (s x, s) of the conjugation groupoid goes from x to
        # s x s^-1, and its character value chi is the coefficient of s x in
        # d(s).  The table is a derivation iff some f: G -> C satisfies
        # chi(s x, s) = f(x) - f(s x s^-1) on all |G| * |gens| generator
        # arrows: then d = inner(sum f(x) x), and conversely every derivation
        # of the semisimple C[G] is inner(w), with f the coefficients of w.
        # f is solved on each class along the edges of the kernel's arrow
        # forest, 0 at the element its search started from, and compared on
        # every arrow, one gather per generator; `normal_form` then shifts
        # each class, which leaves inner(w) as it is and keeps w sparse: a
        # table of inner(a) gets |w| <= |a|.
        forest = self._forest.complete()
        # the charged arrows of each generator, {index of x: chi(s x, s)}:
        # every arrow with no term of d(s) at s x has chi = 0
        charges = [
            {sources[t]: c for t, c in chi.items()}
            for sources, chi in zip(forest.sources, images)
        ]
        f = [ZERO] * len(self._elements)
        for x, j, y in forest.edges:
            c = charges[j].get(x)
            f[y] = f[x] if c is None else f[x] - c
        f = tuple(f)
        for gather, charge in zip(forest.targets, charges):
            expected = list(f)
            for x, c in charge.items():
                expected[x] = f[x] - c
            if gather(f) != tuple(expected):
                return None
        return self.normal_form({p: fx for p, fx in zip(self._elements, f) if fx})[0], {}, {}

    def normal_form(self, a: dict, *steps: dict) -> Tuple[dict, dict]:
        # no table has a step part.  inner(a) = inner(a') iff a - a' is
        # constant on each class: each class a touches is shifted by its first
        # most frequent value in member order, members a omits counted as 0
        # (the most frequent where a holds fewer than half), and listed in
        # that order.
        forest = self._forest
        roots = forest.roots
        held: Dict[int, list] = {}
        for t in a:
            root = roots.get(t)
            if root is None:
                root = forest.root(t)
            held.setdefault(root, []).append(t)
        out = {}
        for root in sorted(held):
            members, terms = forest.classes[root], held[root]
            if 2 * len(terms) < len(members):
                if terms[1:]:
                    out.update((p, a[p]) for p in members if p in a)
                else:  # a lone term needs no ordering
                    out[terms[0]] = a[terms[0]]
                continue
            values = [a.get(p, ZERO) for p in members]
            counts = Counter(values)
            shift = max(counts, key=counts.__getitem__)
            out.update((p, v - shift) for p, v in zip(members, values) if v != shift)
        return out, {}

    def finite_elements(self) -> List[GroupElement]:
        return list(map(self._wrap, self._elements))

    def _generator_commutators(self) -> List[tuple]:
        # one [g, h] per unordered pair: [g, g] = e, and [h, g] = [g, h]^-1
        # lies in every normal subgroup that holds [g, h]
        gens = self._generator_payloads
        return [
            _perm_mul(_perm_mul(g, h), _perm_inv(_perm_mul(h, g)))
            for i, g in enumerate(gens)
            for h in gens[i + 1:]
        ]

    def is_central(self, z: tuple) -> bool:
        return all(conj(z) == z for _, conj in self._conjugations)

    def conjugacy_class(self, a: tuple) -> FrozenSet[tuple]:
        """The payloads of the class of a, read from the arrow forest."""
        return frozenset(self._forest.classes[self._forest.root(a)])

    def class_representative(self, a: tuple) -> tuple:
        return self._elements[self._forest.root(a)]

    def center_payloads(self) -> FrozenSet[tuple]:
        # z is central iff z(s(i)) = s(z(i)) for each point i and generator
        # s.  A member maps each orbit of G on the points into itself, where
        # it is fixed by its image of the orbit's first point: each point of
        # the orbit is tried as that image, and the choices that propagate
        # consistently are kept.  A choice per orbit makes a permutation that
        # commutes with G, central iff it is a member: at most
        # prod |orbit| candidates, and no member is scanned.
        if self._center is None:
            gens = self._generator_payloads
            choices = []
            placed = set()
            for first in range(1, self.degree + 1):
                if first not in placed:
                    orbit = _commuting_map(gens, first, first)  # the identity on it
                    placed.update(orbit)
                    tried = (_commuting_map(gens, first, j) for j in orbit)
                    choices.append([z for z in tried if z is not None])
            center = set()
            for parts in product(*choices):
                z = {}
                for part in parts:
                    z.update(part)
                candidate = tuple(z[i] for i in range(1, self.degree + 1))
                if candidate in self._index:
                    center.add(candidate)
            self._center = frozenset(center)
        return self._center

    def derived_payloads(self) -> FrozenSet[tuple]:
        # G' is the normal closure N of the generator commutators.  N starts
        # as the subgroup they generate; whenever s c s^-1 escapes N, for a
        # generator s of G and a generator c of N, it becomes a generator of
        # N too and N is closed again.  Once none escapes, N is normal.
        if self._derived is None:
            members = {self._identity}
            maps: list = []
            pending = self._generator_commutators()
            for c in pending:  # the list grows as it is read
                if c not in members:
                    _extend_subgroup(members, maps, c)
                    pending.extend(conj(c) for _, conj in self._conjugations)
            self._derived = frozenset(members)
        return self._derived

    def quotient_by(self, subgroup_payloads: Iterable[tuple]) -> "FiniteQuotient":
        subgroup = frozenset(tuple(p) for p in subgroup_payloads)
        self._check_quotient(subgroup)
        return FiniteQuotient(self, subgroup)

    def derived_quotient(self) -> "QuotientSpec":
        # G' is the normal closure of the generator commutators: normal, with
        # G/G' abelian, by construction, so it is not checked again
        return FiniteQuotient(self, self.derived_payloads())

    def _check_quotient(self, subgroup: FrozenSet[tuple]) -> None:
        """Raise `QuotientError` unless `subgroup` is a normal subgroup of
        this group with abelian quotient (equivalently, G' <= N).  When only
        the abelian check fails, the error carries a counterexample element
        whose conjugacy class escapes its coset."""
        if self._identity not in subgroup:
            raise QuotientError("subgroup must contain the identity")
        for p in subgroup:
            if p not in self._index:
                raise QuotientError(f"{p} is not an element of {self.name}")
        # A finite set closed under products is a subgroup, so N is one iff
        # <N> stays in N.  <N> is grown by whole right cosets, as G and G'
        # are, each generator the least member of N not yet reached; when it
        # escapes, some reached member a of N has a * s outside N for a
        # generator s, and the least such pair is named.
        reached = {self._identity}
        maps: list = []
        gens = []
        for q in sorted(subgroup):
            if q not in reached:
                _extend_subgroup(reached, maps, q)
                gens.append(q)
                if not reached <= subgroup:
                    a, s = min(
                        (a, s) for a in reached & subgroup for s in gens
                        if _perm_mul(a, s) not in subgroup
                    )
                    raise QuotientError(f"not closed under products at {a} * {s}")
        # G is finite: N is normal once each generator's conjugation maps
        # N's generators into N
        for g, conj in self._conjugations:
            for n in gens:
                if conj(n) not in subgroup:
                    raise QuotientError(f"subgroup is not normal: conjugating {n} by {g} escapes")
        # with N normal, G/N is abelian <=> the generators commute modulo N
        if not all(c in subgroup for c in self._generator_commutators()):
            raise QuotientError(
                "quotient is not abelian (a commutator escapes the subgroup)",
                diagnostic=self._class_vs_coset_counterexample(subgroup),
            )

    def _class_vs_coset_counterexample(self, subgroup: FrozenSet[tuple]) -> dict:
        """An element whose conjugacy class is not contained in its coset.

        Such an element always exists when the quotient is non-abelian; the
        enumeration makes the failure concrete in the error diagnostic.
        """
        for a in self._elements:
            # N is normal, so [a] lies in aN iff a commutes with each generator modulo N
            ai = _perm_inv(a)
            if any(_perm_mul(ai, conj(a)) not in subgroup for _, conj in self._conjugations):
                return {
                    "element": a,
                    "conjugacy_class": sorted(self.conjugacy_class(a)),
                    "coset": sorted(_perm_mul(a, n) for n in subgroup),
                }

    def center_description(self) -> str:
        return "{" + ", ".join(map(str, sorted(self.center_payloads()))) + "}"

    def commutator_description(self) -> str:
        derived = sorted(self.derived_payloads())
        if len(derived) > 12:
            return f"subgroup of order {len(derived)}"
        return "{" + ", ".join(map(str, derived)) + "}"

    def is_stem(self) -> bool:
        return self.center_payloads() <= self.derived_payloads()


# ---------------------------------------------------------------------------
# Quotients with abelian quotient group
# ---------------------------------------------------------------------------


class QuotientSpec:
    """A normal subgroup N of G with abelian G/N, exposed as a key map.

    Keys are canonical coset labels: the key map is constant on cosets,
    injective across cosets, and composes with the group operation.  This
    base class is the abelianization G/G' of a kernel whose abelianization
    is free abelian: the key of g is `group.abelian_coords(g)`, and keys add.

    `key` and `combine` take payloads and keys of `group` and do not check
    them; callers check membership first.  Quotients are equal when they are
    of one class, over one group and by one `subgroup` N (None here, for G').
    """

    def __init__(self, group: Group):
        self.group, self.subgroup = group, None

    def __eq__(self, other) -> bool:
        same = type(other) is type(self)
        return same and (self.group, self.subgroup) == (other.group, other.subgroup)

    def __hash__(self) -> int:
        return hash((type(self), self.group, self.subgroup))

    def key(self, g: tuple) -> tuple:
        return self.group.abelian_coords(g)

    def identity_key(self) -> tuple:
        return self.key(self.group._identity)

    def combine(self, k1: tuple, k2: tuple) -> tuple:
        return tuple(a + b for a, b in zip(k1, k2))

    def key_name(self, k: tuple) -> str:
        return str(tuple(k))


class FiniteQuotient(QuotientSpec):
    """Quotient of a finite permutation group by a normal subgroup N with
    abelian G/N.

    The constructor does not check N: `PermutationGroup.quotient_by` checks a
    subgroup given from outside before building the quotient, and
    `derived_quotient` passes G', which is normal with abelian quotient by
    construction.  Keys are the lexicographically minimal coset member; the
    keys of a coset gN = Ng are one C-level gather over N.  The keys are
    named "even" and "odd" when N is the even elements of G, of index 2,
    which is decided on the generators alone.
    """

    def __init__(self, group: PermutationGroup, subgroup: FrozenSet[tuple]):
        super().__init__(group)
        self.subgroup = subgroup
        # _elements is sorted, so the first unkeyed element is its coset's
        # minimum; N is normal, so the coset gN is Ng, one gather over N
        self._keys: Dict[tuple, tuple] = {}
        for g in group._elements:
            if len(self._keys) == len(group._elements):
                break
            if g not in self._keys:
                self._keys.update(dict.fromkeys(map(_right_mul(g), subgroup), g))
        # With |G| = 2|N|, G -> G/N is a homomorphism onto Z/2, and N is the
        # even elements iff it is the sign; two homomorphisms agree once they
        # agree on the generators, so: each generator is odd iff it is not in N
        self._sign_quotient = len(group._elements) == 2 * len(subgroup) and all(
            sum(x > y for x, y in combinations(s, 2)) % 2 == (s not in subgroup)
            for s in group._generator_payloads
        )

    def key(self, g: tuple) -> tuple:
        return self._keys[g]

    def combine(self, k1: tuple, k2: tuple) -> tuple:
        return self._keys[_perm_mul(k1, k2)]

    def key_name(self, k: tuple) -> str:
        if self._sign_quotient:
            return "even" if k == self.identity_key() else "odd"
        return str(tuple(k))


# Every kernel group_from_name has built, by canonical selector (heisenberg,
# zn:<n> or perm:<s|a><n>, with no leading zeros), so that a selector builds
# its kernel once per process.  A rank or degree past its limit, or below
# its floor, raises before anything is stored: one entry at most per kernel
# within the limits.
_KERNELS: Dict[str, Group] = {}

# Largest degree group_from_name builds: the payload product table holds up
# to |G|^2 references: 518,400 (about 4 MB) on s6, about 25 million on s7.
MAX_PERM_DEGREE = 6

# Largest rank FreeAbelian builds: it stores n generators of length n, and
# `info` prints every generator.
MAX_ZN_RANK = 64

# The group selectors, with ASCII digits only: int() alone would also read
# underscores and other scripts' digits.  A sign is read, so that a negative
# rank or degree meets the kernel's own check.
_SELECTOR = re.compile(r"heisenberg|zn:(-?[0-9]+)|perm:([sa])(-?[0-9]+)")


def _selector_int(digits: str, what: str, limit_name: str, limit: int) -> int:
    """int(digits) for a selector's rank or degree.  A string with more
    significant digits than `limit` is refused first, so that a long one
    never meets int()'s own 4,300-digit limit or is echoed back."""
    magnitude = digits.lstrip("-").lstrip("0") or "0"
    if len(magnitude) > len(str(limit)):
        raise ValueError(
            f"{what} of {len(magnitude)} digits exceeds the limit {limit_name} = {limit}"
        )
    return -int(magnitude) if digits.startswith("-") else int(magnitude)


def group_from_name(name: str) -> Group:
    """Resolve a CLI group selector: heisenberg | zn:<n> | perm:<sN|aN>,
    building its kernel on first use and keeping it in `_KERNELS`."""
    match = _SELECTOR.fullmatch(name)
    if match is None:
        raise ValueError(
            f"unknown group selector {name!r}: expected heisenberg, zn:<n> or perm:<sN|aN>"
        )
    rank, kind, digits = match.groups()
    if rank is not None:
        n = _selector_int(rank, "zn: rank", "MAX_ZN_RANK", MAX_ZN_RANK)
        key, build = f"zn:{n}", partial(FreeAbelian, n)
    elif kind is None:
        key, build = "heisenberg", Heisenberg
    else:
        degree = _selector_int(digits, "perm: degree", "MAX_PERM_DEGREE", MAX_PERM_DEGREE)
        if degree > MAX_PERM_DEGREE:
            raise ValueError(
                f"permutation degree {degree} exceeds the limit "
                f"MAX_PERM_DEGREE = {MAX_PERM_DEGREE}"
            )
        key = f"perm:{kind}{degree}"
        build = partial(
            PermutationGroup.symmetric if kind == "s" else PermutationGroup.alternating, degree
        )
    group = _KERNELS.get(key)
    if group is None:
        group = _KERNELS[key] = build()
    return group
