import ast
import itertools
import pickle
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from dergrade import (
    AlgebraElement,
    Arrow,
    CentralityError,
    Derivation,
    GroupMismatchError,
    DerivationTableError,
    FreeAbelian,
    GaussianRational,
    GradingSetup,
    GroupElement,
    Heisenberg,
    PermutationGroup,
    char_bracket_value,
    char_inner_formula,
    decompose,
    group_from_name,
    support_cosets,
    verify_char_composition,
    verify_leibniz,
)
from dergrade import algebra, derivations, groups
from dergrade.coefficients import ZERO
from dergrade.sampling import Sampler
from dergrade.serialization import derivation_from_json
import oracles
from oracles import (
    LeibnizCopy, bracket_character, commutator, dense_char_bracket_value, find_inner_witness,
    pointwise_runs, word,
)
from test_golden import JOBS, KERNELS, STEP_TABLE

H = Heisenberg()
Z2 = FreeAbelian(2)


def h(a, b, c):
    return H.element((a, b, c))


def mono(g, coeff=1):
    return AlgebraElement.monomial(g, coeff)


def gr(v):
    return GaussianRational(v)


class TestConstructors:
    def test_inner_example(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert d.images[h(0, 1, 0)] == mono(h(1, 1, 0)) - mono(h(1, 1, 1))

    def test_inner_of_identity_is_zero(self):
        assert Derivation.inner(mono(H.identity())).is_zero()

    def test_inner_abelian_is_zero(self):
        sampler = Sampler(Z2, seed=1)
        for _ in range(10):
            assert Derivation.inner(sampler.algebra_element()).is_zero()

    def test_central_example(self):
        d = Derivation.central(H, [2, 3], h(0, 0, 1))
        assert d.images[h(1, 0, 0)] == mono(h(1, 0, 1), 2)
        assert d.images[h(0, 1, 0)] == mono(h(0, 1, 1), 3)

    def test_central_zero_tau(self):
        assert Derivation.central(H, [0, 0], h(0, 0, 2)).is_zero()

    def test_central_z2(self):
        d = Derivation.central(Z2, [1, 0], Z2.element((0, 1)))
        assert d.apply_element(Z2.element((1, 0))) == mono(Z2.element((1, 1)))

    def test_central_rejects_noncentral(self):
        with pytest.raises(CentralityError):
            Derivation.central(H, [1, 0], h(1, 0, 0))

    def test_central_rejects_bad_tau_length(self):
        with pytest.raises(ValueError):
            Derivation.central(H, [1], h(0, 0, 1))

    def test_table_accepts_valid(self):
        base = Derivation.inner(mono(h(1, 1, 0))) + Derivation.central(
            H, [1, -1], h(0, 0, 1)
        )
        rebuilt = Derivation.from_table(H, dict(base.images))
        assert rebuilt == base

    def test_table_rejects_corrupted(self):
        base = Derivation.inner(mono(h(1, 0, 0)))
        images = dict(base.images)
        images[h(1, 0, 0)] = images[h(1, 0, 0)] + mono(h(2, 0, 0))
        with pytest.raises(DerivationTableError):
            Derivation.from_table(H, images)

    def test_corrupted_table_breaks_leibniz(self):
        base = Derivation.inner(mono(h(1, 0, 0)))
        images = dict(base.images)
        images[h(1, 0, 0)] = images[h(1, 0, 0)] + mono(h(2, 0, 0))
        bad = LeibnizCopy(H, images)
        sampler = Sampler(H, seed=2)
        assert any(
            not verify_leibniz(bad, sampler.algebra_element(), sampler.algebra_element())
            for _ in range(50)
        )


class TestApply:
    def test_inner_on_monomial(self):
        a = mono(h(1, 0, 0)) + mono(h(0, 0, 1), 2)
        d = Derivation.inner(a)
        for g in [h(0, 1, 0), h(2, -1, 3)]:
            assert d.apply(mono(g)) == commutator(mono(g), a)

    def test_identity_maps_to_zero(self):
        sampler = Sampler(H, seed=3)
        for _ in range(10):
            d = sampler.derivation()
            assert not d.apply(mono(H.identity()))

    def test_central_word_expansion(self):
        # tau(g) = 2a + 3b and g*z for g = (1,1,0)
        d = Derivation.central(H, [2, 3], h(0, 0, 1))
        assert d.apply_element(h(1, 1, 0)) == mono(h(1, 1, 1), 5)

    def test_central_closed_form_random(self):
        # extension agrees with tau(g) * g * z everywhere
        d = Derivation.central(H, [2, 3], h(0, 0, 1))
        sampler = Sampler(H, seed=4, box=3)
        for _ in range(100):
            g = sampler.element()
            a, b, _ = g.payload
            assert d.apply_element(g) == mono(g * h(0, 0, 1), 2 * a + 3 * b)

    def test_inverse_rule(self):
        sampler = Sampler(H, seed=5)
        for _ in range(50):
            d = sampler.derivation()
            g = sampler.element()
            gi = mono(g.inverse())
            assert d.apply_element(g.inverse()) == -(gi * d.apply_element(g) * gi)


def test_apply_work_is_linear_in_terms(monkeypatch):
    # d(x) for x of 4,000 terms on Z^3: every coefficient addition and zero
    # test is counted, and more than 10 a term fails at once; adding each
    # term's image to a copy of the running sum makes about 8 million zero
    # tests
    Z3 = FreeAbelian(3)
    n = 4000
    d = Derivation.central(Z3, [1, -2, gr(Fraction(3, 2))], Z3.element((1, -1, 2)))
    x = AlgebraElement.from_terms(
        Z3, [(Z3.element((i, 2 * i - n, -i)), i % 7 + 1) for i in range(n)]
    )
    limit, ops = 10 * n, [0]
    add, nonzero = GaussianRational.__add__, GaussianRational.__bool__

    def count():
        ops[0] += 1
        if ops[0] > limit:
            raise AssertionError(f"more than {limit} coefficient operations")

    def counted_add(self, other):
        count()
        return add(self, other)

    def counted_bool(self):
        count()
        return nonzero(self)

    monkeypatch.setattr(GaussianRational, "__add__", counted_add)
    monkeypatch.setattr(GaussianRational, "__bool__", counted_bool)
    result = d.apply(x)
    monkeypatch.undo()
    assert ops[0]
    assert len(result) == len(x)
    for g, c in x.items():
        i, j, k = g.payload
        value = GaussianRational(i - 2 * j) + gr(Fraction(3, 2)) * GaussianRational(k)
        assert result.coefficient(g * Z3.element((1, -1, 2))) == c * value


def _outer_images(c1, c2):
    """The images of c1 * (x -> x*y) + c2 * (y -> y*x): a step part on the
    class of y and one on the class of x, each with end difference c1 or
    -c2 (`Heisenberg.table_form`)."""
    x, y = H.generators()
    return {x: mono(x * y, c1), y: mono(y * x, c2)}


def _kinds(group, seed):
    """One derivation of each kind over `group`, drawn with a fixed seed.  A
    group without central derivations has no "central" or "mixed" kind, and
    its "table" and "bracket" kinds are built from inner derivations.  On
    heisenberg the "outer" kind is the mixed one plus an outer table with a
    step part on the classes of x and of y, entered as a table."""
    sampler = Sampler(group, seed=seed)
    inner = sampler.inner_derivation()
    if not group.has_central_derivations():
        total = inner + sampler.inner_derivation().scale(sampler.coefficient())
        return {
            "inner": inner,
            "sum": total,
            "table": Derivation.from_table(group, dict(total.images)),
            "bracket": total.bracket(sampler.inner_derivation()),
        }
    central = sampler.central_derivation()
    mixed = inner + central.scale(sampler.nonzero_coefficient())
    other = sampler.inner_derivation() + sampler.central_derivation()
    kinds = {
        "inner": inner,
        "central": central,
        "sum": inner + sampler.inner_derivation().scale(sampler.coefficient()),
        "mixed": mixed,
        "table": Derivation.from_table(group, dict(mixed.images)),
        "bracket": mixed.bracket(other),
    }
    if group == H:
        outer = _outer_images(sampler.nonzero_coefficient(), sampler.nonzero_coefficient())
        kinds["outer"] = Derivation.from_table(
            H, {s: img + outer[s] for s, img in mixed.images.items()}
        )
    return kinds


def _expand(d, letters):
    """d(l1 * ... * ln) = sum_i (l1 ... l(i-1)) * d(li) * (l(i+1) ... ln),
    with d(s^-1) = -s^-1 * d(s) * s^-1 for an inverse letter: the Leibniz
    rule expanded along the whole word, apart from `Derivation`'s join."""
    group = d.group
    total = group.identity()
    for letter in letters:
        total = total * letter
    acc = {}
    prefix = group.identity()
    for letter in letters:
        prefix_next = prefix * letter
        suffix = prefix_next.inverse() * total
        if letter in d.images:
            terms = d.images[letter].items()
        else:
            s = letter.inverse()
            terms = [(letter * t * letter, -c) for t, c in d.images[s].items()]
        for t, c in terms:
            shifted = prefix * t * suffix
            acc[shifted] = acc[shifted] + c if shifted in acc else c
        prefix = prefix_next
    return AlgebraElement.from_terms(group, list(acc.items()))


# exponents: zero, negative and about 10^3; Heisenberg triples are (a, b, m)
# for x^a y^b z^m = (a, b, ab + m)
_EXPONENTS = [
    (0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (2, -3, 5),
    (-4, -1, -7), (0, 0, 1000), (3, 2, -999), (-1000, 1, 0), (999, -1000, 2),
]
_ORACLE_GROUPS = ["heisenberg", "zn:1", "zn:2", "zn:3"]
_ORACLE_KINDS = ["inner", "central", "sum", "mixed", "table", "bracket"]
# (group, kind); permutation groups have no central derivations
_ORACLE_CASES = [(name, kind) for name in _ORACLE_GROUPS for kind in _ORACLE_KINDS] + [
    ("heisenberg", "outer")
] + [
    (name, kind)
    for name in ["perm:a4", "perm:s4", "perm:s6"]
    for kind in ["inner", "sum", "table", "bracket"]
]


class TestClosedFormOracle:
    """`apply_element` evaluates a closed form; expanding the Leibniz rule
    along the element's whole word, letter by letter (`_expand`), is the
    oracle.  On a permutation group every element is checked, deepest
    first, both on the derivation as built and on its `LeibnizCopy`, whose
    first evaluation recurses through bases down the whole test-side tree
    (`oracles.cayley_tree`)."""

    @pytest.mark.parametrize("name, kind", _ORACLE_CASES)
    def test_matches_word_expansion(self, name, kind):
        group = group_from_name(name)
        d = _kinds(group, seed=61)[kind]
        derivations = [d]
        if name.startswith("perm:"):
            derivations.append(LeibnizCopy(group, d.images))
            elements = sorted(group.finite_elements(), key=lambda g: -len(word(group, g)))
        elif name == "heisenberg":
            elements = [group.element((a, b, a * b + m)) for a, b, m in _EXPONENTS]
        else:
            elements = [group.element((a, b, m)[: group.n]) for a, b, m in _EXPONENTS]
        for dd in derivations:
            for g in elements:
                assert dd.apply_element(g) == _expand(dd, word(group, g))

    def test_central_letters_have_nonzero_images_on_zn(self):
        # the sum over central letters carries the whole value on Z^n
        d = _kinds(group_from_name("zn:3"), seed=61)["central"]
        assert any(d.images.values())


_BIG = 10**12
# payloads with entries of +-10^12, by group
_BIG_PAYLOADS = {
    "heisenberg": [(_BIG, -_BIG, _BIG), (-_BIG, 3, -_BIG), (0, 0, _BIG), (_BIG, _BIG, 7)],
    "zn:3": [(_BIG, -_BIG, 3), (0, 0, -_BIG), (-_BIG, _BIG, _BIG)],
}
_FORM_GROUPS = [
    "heisenberg", "zn:1", "zn:3", "perm:s3", "perm:s4", "perm:s5", "perm:s6",
    "perm:a4", "perm:a5", "perm:a6",
]
# the Sampler kinds built from closed forms, and every table: permutation
# groups have no central derivations, and on heisenberg an outer table too
_FORM_KINDS = ["inner", "sum", "central", "mixed"]
_FORM_CASES = [
    (name, kind)
    for name in _FORM_GROUPS
    for kind in _FORM_KINDS
    if not name.startswith("perm:") or kind in ("inner", "sum")
] + [(name, "table") for name in _FORM_GROUPS] + [("heisenberg", "outer")]


def _bounded(elements, *ds, v=lambda g: g):
    """The elements (or arrows, with `v` their v) at which each of `ds` can
    be evaluated by both routes: all of them, but only those with entries
    under 10^6 when one has a step part, whose image grows with how far the
    element moves its line."""
    if not any(d.steps for d in ds):
        return elements
    return [g for g in elements if max(map(abs, v(g).payload)) < 10**6]


class TestFormAgainstLeibniz:
    """Every result a closed form gives equals the Leibniz route's: the
    copy `LeibnizCopy(group, d.images)` evaluates by syllables and joins
    (`oracles.syllables`).  A table gets its form from `from_table`: inner(w)
    on a permutation group, central parts on Z^n, and on heisenberg inner,
    central and step parts, and is compared the same way.  The form bracket
    is checked against the operator bracket of the copies, and its
    characters against `oracles.bracket_character` on the copies, which
    reads only their evaluations; the graded components against the
    copy's, split by generator-image term."""

    @staticmethod
    def _elements(group, sampler):
        if group.name.startswith("perm:"):
            return group.finite_elements()
        elements = [sampler.word_element(6) for _ in range(12)]
        elements += [sampler.element() for _ in range(12)]
        return elements + [group.element(p) for p in _BIG_PAYLOADS.get(group.name, [])]

    @pytest.mark.parametrize("name, kind", _FORM_CASES)
    def test_matches_leibniz_copy(self, name, kind):
        group = group_from_name(name)
        sampler = Sampler(group, seed=83, box=3)
        d, copy = _with_leibniz_copy(_kinds(group, seed=71)[kind])
        elements = _bounded(self._elements(group, sampler), d)
        for g in elements:
            assert d.apply_element(g) == copy.apply_element(g)
        xs = [sampler.algebra_element(max_terms=4) for _ in range(8)]
        xs.append(AlgebraElement.from_terms(group, [(g, i + 1) for i, g in enumerate(elements[-4:])]))
        for x in xs:
            assert d.apply(x) == copy.apply(x)
        arrows = [sampler.arrow(d) for _ in range(20)]
        arrows += [Arrow(u, v) for v in elements[-4:] for u in d.apply_element(v).support()]
        for arrow in arrows:
            assert d.character(arrow) == copy.character(arrow)

        partners = _kinds(group, seed=72)
        for other in _FORM_KINDS + ["table", "outer"]:
            if other not in partners:
                continue
            p, p_copy = _with_leibniz_copy(partners[other])
            bracket, reference = d.bracket(p), copy.bracket(p_copy)
            assert bracket.images == reference.images
            for g in _bounded(elements, bracket):
                assert bracket.apply_element(g) == reference.apply_element(g)
            checked = arrows + [sampler.arrow(bracket) for _ in range(10)]
            for arrow in _bounded(checked, bracket, p, v=lambda arrow: arrow.v):
                assert bracket.character(arrow) == bracket_character(copy, p_copy, arrow)

        if name in ("perm:a5", "perm:a6"):
            return  # perfect: the grading by G/G' is trivial
        setup = GradingSetup.default(group)
        components = decompose(d, setup).components
        reference = copy.components(setup.quotient.key)
        assert list(components) == list(reference)
        for key, component in components.items():
            leibniz = reference[key]
            assert component.images == leibniz.images
            for g in elements:
                assert component.apply_element(g) == leibniz.apply_element(g)


@pytest.mark.parametrize("name", ["perm:s3", "perm:a4", "perm:s4", "perm:a5", "perm:s5", "perm:s6"])
def test_table_witness_is_no_larger_than_the_inner_part(name):
    # each class is shifted by its most frequent potential, so a table of
    # inner(a) gets a witness w with at most |a| terms, and inner(w) == inner(a)
    group = group_from_name(name)
    sampler = Sampler(group, seed=37)
    elements = group.finite_elements()
    sums = [mono(g) for g in elements[:3]]
    sums.append(AlgebraElement.from_terms(group, [(g, 1) for g in elements[:7]]))
    for a in [sampler.algebra_element(max_terms=6) for _ in range(8)] + sums:
        d = Derivation.from_table(group, dict(Derivation.inner(a).images))
        w = d.a
        assert len(w) <= len(a)
        assert Derivation.inner(w) == Derivation.inner(a)
        assert d.is_inner_witness(w)


@pytest.mark.parametrize("name", ["perm:s4", "zn:3", "heisenberg"])
def test_form_less_copy_is_not_evaluated(name):
    # a derivation is its closed form: one cannot be built from images
    # alone, and the same images through `from_table` get their form back
    # and evaluate
    group = group_from_name(name)
    if name == "zn:3":
        d = Derivation.central(group, [2, -1, 5], group.element((1, -1, 2)))
        payloads = [(0, 0, 0), (1, 1, 0), (-1, 0, 0), (3, -2, 1), (_BIG, -_BIG, 3)]
        elements = [group.element(p) for p in payloads]
    elif name == "heisenberg":
        d = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3)) + Derivation.central(
            H, [1, -2], h(0, 0, 1)
        )
        elements = [h(*p) for p in _BIG_PAYLOADS["heisenberg"]] + [h(0, 0, 0), h(2, -1, 3)]
    else:
        a = mono(group.element((2, 3, 1, 4))) + mono(group.element((2, 1, 3, 4)), 3)
        d = Derivation.inner(a)
        elements = group.finite_elements()
    with pytest.raises(TypeError, match="required positional argument"):
        Derivation(group, d.images)
    table = Derivation.from_table(group, dict(d.images))
    assert table == d
    for g in elements:
        assert table.apply_element(g) == d.apply_element(g)
        assert table.apply(mono(g, 2)) == d.apply(mono(g, 2))
        for u in d.apply_element(g).support():
            assert table.character(Arrow(u, g)) == d.character(Arrow(u, g))


# Most joins one `apply_element` call may make under `_bar_long_evaluations`:
# binary powering makes at most 2 log2|k| + 1 per syllable, about 330 for four
# syllables with exponents near 10^12; spelling one out takes 10^12.
_JOIN_LIMIT = 400


def _bar_long_evaluations(monkeypatch):
    """Fail any `LeibnizCopy.apply_element` call that makes more than
    `_JOIN_LIMIT` joins, as soon as it makes one more; a closed form makes
    none."""
    join, apply_element = LeibnizCopy._join, LeibnizCopy.apply_element
    joins = [0]

    def counted_join(self, left, right):
        joins[0] += 1
        if joins[0] > _JOIN_LIMIT:
            raise AssertionError(f"more than {_JOIN_LIMIT} joins in one evaluation")
        return join(self, left, right)

    def counted_apply_element(self, g):
        joins[0] = 0
        return apply_element(self, g)

    monkeypatch.setattr(LeibnizCopy, "_join", counted_join)
    monkeypatch.setattr(LeibnizCopy, "apply_element", counted_apply_element)


def _with_leibniz_copy(d):
    """d, and its `LeibnizCopy`, which evaluates its images by syllables
    and joins alone."""
    return [d, LeibnizCopy(d.group, d.images)]


class TestBoundedCost:
    """Elements far outside any word one could spell out: each evaluation
    of a `LeibnizCopy` makes at most `_JOIN_LIMIT` joins, and the values
    match the closed forms, on each derivation and on its copy."""

    BIG = 10**12

    @pytest.fixture(autouse=True)
    def guarded(self, monkeypatch):
        _bar_long_evaluations(monkeypatch)

    def test_heisenberg_inner(self):
        a = mono(h(1, 0, 0)) + mono(h(-1, 2, 3), 5) + mono(h(0, 0, 1), -2)
        for d in _with_leibniz_copy(Derivation.inner(a)):
            for g in [h(2, -1, self.BIG), h(-3, 1, -self.BIG), h(0, 0, self.BIG)]:
                assert d.apply_element(g) == mono(g) * a - a * mono(g)

    def test_heisenberg_central(self):
        z = h(0, 0, 3)
        for d in _with_leibniz_copy(Derivation.central(H, [2, -3], z)):
            for g in [h(2, -1, self.BIG), h(-3, 1, -self.BIG), h(0, 0, self.BIG)]:
                a, b, _ = g.payload
                assert d.apply_element(g) == mono(g * z, 2 * a - 3 * b)

    def test_heisenberg_tables(self):
        # a table of inner + central parts, and the same plus x -> 2 x*y,
        # outer, at elements that do not move the line of its step part
        a = mono(h(1, 0, 0)) + mono(h(-1, 2, 3), 5)
        base = Derivation.inner(a) + Derivation.central(H, [2, -3], h(0, 0, 3))
        x, y = H.generators()
        table = Derivation.from_table(H, dict(base.images))
        outer = Derivation.from_table(H, {x: base.images[x] + mono(x * y, 2), y: base.images[y]})
        assert not table.steps and list(outer.steps) == [(0, 1, 0)]
        for g in [h(2, -1, self.BIG), h(-self.BIG, 1, -self.BIG), h(0, 0, self.BIG)]:
            for d in _with_leibniz_copy(table):
                assert d.apply_element(g) == base.apply_element(g)
        for g in [h(0, self.BIG, -self.BIG), h(0, -self.BIG, 7), h(0, 0, self.BIG)]:
            for d in _with_leibniz_copy(outer):
                assert d.apply_element(g) == base.apply_element(g)

    def test_zn_inner_and_central(self):
        Z3 = FreeAbelian(3)
        a = mono(Z3.element((1, 2, 3))) + mono(Z3.element((0, -1, 0)), 4)
        z = Z3.element((1, -1, 2))
        tau = [2, -1, 5]
        inners = _with_leibniz_copy(Derivation.inner(a))
        centrals = _with_leibniz_copy(Derivation.central(Z3, tau, z))
        for inner, central in zip(inners, centrals):
            for coords in [(self.BIG, -self.BIG, 3), (0, 0, -self.BIG), (7, self.BIG, 1)]:
                g = Z3.element(coords)
                assert inner.apply_element(g) == mono(g) * a - a * mono(g)
                value = sum(t * k for t, k in zip(tau, coords))
                assert central.apply_element(g) == mono(g * z, value)


class TestSyllableCost:
    """x^a y^b with a and b at +-10^12: each evaluation of a `LeibnizCopy`
    makes at most `_JOIN_LIMIT` joins, the test-side `syllables` may return
    at most 4 syllables, each with a base among x, y and z = [x, y], and
    the values match the closed forms.  A closed form asks for no
    syllables, so each test also runs on the copy, which must ask."""

    BIG = 10**12
    ELEMENTS = [(BIG, -BIG, 7), (-BIG, BIG, BIG), (BIG, BIG, -BIG), (-BIG, -3, 0)]

    @pytest.fixture(autouse=True)
    def guarded(self, monkeypatch):
        _bar_long_evaluations(monkeypatch)
        split = oracles.syllables
        bases = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        calls = []

        def syllables(group, p):
            out = split(group, p)
            if len(out) > 4 or any(w not in bases for w, _ in out):
                raise AssertionError(f"syllables of {p!r}: {out!r}")
            calls.append(p)
            return out

        monkeypatch.setattr(oracles, "syllables", syllables)
        yield
        assert calls, "apply_element never asked for syllables"

    def _check_inner(self, d, a):
        for payload in self.ELEMENTS:
            g = h(*payload)
            assert d.apply_element(g) == mono(g) * a - a * mono(g)

    def test_inner(self):
        a = mono(h(1, 0, 0)) + mono(h(-1, 2, 3), 5) + mono(h(0, 0, 1), -2)
        for d in _with_leibniz_copy(Derivation.inner(a)):
            self._check_inner(d, a)

    def test_table(self):
        # a table of an inner derivation keeps its witness as the inner part
        # of its form, with no step part
        a = mono(h(1, 1, 0)) + mono(h(2, -1, 0), 3)
        table = Derivation.from_table(H, dict(Derivation.inner(a).images))
        assert table.a == a and not table.taus and not table.steps
        for d in _with_leibniz_copy(table):
            self._check_inner(d, a)

    def test_central(self):
        z = h(0, 0, 3)
        for d in _with_leibniz_copy(Derivation.central(H, [2, -3], z)):
            for payload in self.ELEMENTS:
                g = h(*payload)
                a, b, _ = payload
                assert d.apply_element(g) == mono(g * z, 2 * a - 3 * b)


def _cold_jobs():
    """Jobs that compute on payloads from end to end, each on a derivation
    built beforehand: no `GroupElement` is needed inside.  Each job runs on
    the derivation as built and ("-leibniz") on the same images re-entered
    by `from_table`, which checks them by the Leibniz rule on the
    presentation and solves them for a form.  Checking a table, and grading
    it, is a job too, and so is evaluating and grading an outer heisenberg
    table, which has step parts."""
    Z3 = FreeAbelian(3)
    inner = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3))
    central = Derivation.central(Z3, [2, -1, 5], Z3.element((1, -1, 2)))
    g, e = h(10**6, 3, 7), Z3.element((10**6, -3, 7))
    setup = GradingSetup.default(H)
    jobs = {}
    for suffix, (inner_d, central_d) in zip(
        ["", "-leibniz"],
        [(inner, central), (_as_table(inner), _as_table(central))],
    ):
        jobs[f"apply-heisenberg{suffix}"] = lambda d=inner_d: d.apply_element(g)
        jobs[f"apply-zn:3{suffix}"] = lambda d=central_d: d.apply_element(e)
        jobs[f"decompose-inner{suffix}"] = lambda d=inner_d: decompose(d, setup)
    S5 = group_from_name("perm:s5")
    table = dict(Sampler(S5, seed=5).derivation(allow_table=False).images)
    s5_setup = GradingSetup.default(S5)
    jobs["from_table-perm:s5"] = lambda: Derivation.from_table(S5, table)
    jobs["decompose-table-perm:s5"] = lambda: decompose(Derivation.from_table(S5, table), s5_setup)
    outer = {s: img + _outer_images(gr(1), gr(2))[s] for s, img in inner.images.items()}
    outer_d = Derivation.from_table(H, outer)
    jobs["from_table-outer"] = lambda: Derivation.from_table(H, outer)
    jobs["apply-outer"] = lambda g=h(300, -200, 7): outer_d.apply_element(g)
    central_h = Derivation.central(H, [1, -2], h(0, 0, 1))
    jobs["bracket-outer"] = lambda: outer_d.bracket(central_h).images
    jobs["decompose-outer"] = lambda: decompose(outer_d, setup)
    return jobs


def _as_table(d):
    return Derivation.from_table(d.group, dict(d.images))


@pytest.mark.parametrize("job", _cold_jobs().values(), ids=_cold_jobs().keys())
def test_kernels_build_no_elements(monkeypatch, job):
    # table checks and quotient keys are payload maps, so evaluating and
    # grading never wrap a normal form into an element
    init, built = GroupElement.__init__, []

    def counting(self, group, payload):
        built.append(payload)
        init(self, group, payload)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    assert job()
    assert built == []


def test_heisenberg_forms_invert_nothing(monkeypatch):
    # d(g) of a form is g*a - a*g plus its central and step terms, payload
    # products alone, whatever the signs of g's entries: no inverse is
    # taken, on an inner derivation, on its table and on an outer table
    a = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3)
    inner = Derivation.inner(a)
    ds = [inner, _as_table(inner), Derivation.from_table(H, _outer_images(gr(1), gr(-3)))]
    elements = [h(1000, 2000, 2_003_000), h(-3, 0, 0), h(-5, -7, 11), h(4, -9, -2)]
    expected = [[LeibnizCopy(H, d.images).apply_element(g) for g in elements] for d in ds]
    assert all(map(any, expected))
    calls = _counted(monkeypatch, Heisenberg, "_inv")
    assert [[d.apply_element(g) for g in elements] for d in ds] == expected
    assert calls == []


def test_second_heisenberg_instance_reads_the_same_image():
    # an equal group's element passes the membership check
    d = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3))
    first = d.apply_element(h(5, -2, 7))
    other = Heisenberg().element((5, -2, 7))
    assert other.group is not H
    assert d.apply_element(other) == first


# d(x) = x*y, d(y) = 0 (`test_golden.GROWING_TABLE`): |supp d(x^a)| = a, so
# the image grows with a
def growing_derivation():
    x, y = H.generators()
    return Derivation.from_table(H, {x: mono(x * y), y: AlgebraElement.zero(H)})


def test_term_budget_rejects_growing_image(monkeypatch):
    # d(x^a) has a step terms, counted by the sweep before any is built:
    # at 10^12 it is refused with no payload product
    monkeypatch.setattr(algebra, "MAX_TERMS", 64)
    d = growing_derivation()
    assert len(d.apply_element(h(64, 0, 0))) == 64
    calls = _counted(monkeypatch, Heisenberg, "_mul")
    with pytest.raises(algebra.TermBudgetError, match="at least 65 terms.*MAX_TERMS = 64"):
        d.apply_element(h(65, 0, 0))
    with pytest.raises(algebra.TermBudgetError, match="MAX_TERMS = 64"):
        d.apply_element(h(10**12, 0, 0))
    assert calls == []


def test_pickle_round_trip():
    # a pickled derivation keeps its closed form, images read or not; the
    # last case, entered as a table, has a step part on the class of y
    S4 = group_from_name("perm:s4")
    inner = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3))
    central = Derivation.central(H, [2, -1], h(0, 0, 3))
    s4_table = Derivation.from_table(S4, dict(Sampler(S4, seed=5).inner_derivation().images))
    steps = growing_derivation() + Derivation.inner(mono(h(1, 2, 0)) - mono(h(0, 1, 3)))
    steps += Derivation.central(H, [1, 2], h(0, 0, 1))
    cases = [
        (inner, [h(2, -3, 1), h(_BIG, 1, -_BIG)]),
        (central, [h(2, -3, 1), h(_BIG, 1, -_BIG)]),
        (inner + central.scale(gr(Fraction(1, 3))), [h(2, -3, 1), h(-4, 5, 0)]),
        (s4_table, S4.finite_elements()),
        (Derivation.from_table(H, dict(steps.images)), [h(3, -2, 5), h(-1, 4, 0), h(2, 7, -3)]),
    ]
    assert cases[-1][0].steps
    for d, elements in cases:
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d and copy.spec == d.spec
        for g in elements:
            assert copy.apply_element(g) == d.apply_element(g)


def test_heisenberg_table_keeps_a_form():
    # a table of inner + central parts solves to a plain form: its inner
    # part is the witness, less its central terms, whose inner derivation
    # is 0, its central parts are the table's, and it has no step part
    a = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3) + mono(h(0, 0, 4), 5)
    form = Derivation.inner(a) + Derivation.central(H, [1, -2], h(0, 0, 1))
    d = Derivation.from_table(H, dict(form.images))
    assert d.a == a - mono(h(0, 0, 4), 5)
    assert d.taus == form.taus and not d.steps
    rng = random.Random("heisenberg-bases")
    for i in range(200):
        box = 10**12 if i % 4 == 0 else 5
        g = h(*(rng.randint(-box, box) for _ in range(3)))
        assert d.apply_element(g) == form.apply_element(g)


def _monomial_tables():
    """The 784 tables whose images are each 0 or one monomial of [-1, 1]^3."""
    x, y = H.generators()
    cells = [AlgebraElement.zero(H)] + [
        mono(h(*p)) for p in itertools.product(range(-1, 2), repeat=3)
    ]
    return [{x: dx, y: dy} for dx in cells for dy in cells]


class TestHeisenbergTableForm:
    """`Heisenberg.table_form` decides the derivation check and finds the
    closed form: inner part, central parts and one step part per
    non-central class the images touch."""

    def test_accepts_what_the_join_route_accepts(self):
        accepted = 0
        for images in _monomial_tables():
            try:
                Derivation.from_table(H, images)
                ok = True
            except DerivationTableError:
                ok = False
            assert ok == LeibnizCopy(H, images).is_derivation(), images
            accepted += ok
        assert accepted == 100

    def test_growing_table_has_one_step_part(self):
        # d(x) = x*y, d(y) = 0: delta(x) = x y x^-1 lies on the class of y,
        # which x moves along; F steps once, by 1 in absolute value
        steps = growing_derivation().steps
        assert list(steps) == [(0, 1, 0)]
        points, values = steps[(0, 1, 0)]
        assert len(points) == 1 and abs(values[-1].re) == 1 and not values[-1].im

    def test_outer_image_is_a_run(self):
        # x -> 0, y -> y*x: d((1, N, 0)) = sum over 0 <= k < N of (2, N, k)
        x, y = H.generators()
        images = {x: AlgebraElement.zero(H), y: mono(y * x)}
        d, copy = Derivation.from_table(H, images), LeibnizCopy(H, images)
        for n in [1, 2, 3, 10, 99, 500, 999, 1000]:
            expected = AlgebraElement.from_terms(H, [(h(2, n, k), 1) for k in range(n)])
            assert d.apply_element(h(1, n, 0)) == copy.apply_element(h(1, n, 0)) == expected
        big = 10**12
        for k, value in [(0, 1), (big // 2, 1), (big - 1, 1), (big, 0), (-1, 0)]:
            assert d.character(Arrow(h(2, big, k), h(1, big, 0))) == gr(value)

    def test_jumps_are_counted_before_they_are_built(self, monkeypatch):
        # inner(a) for three scattered terms on the class of (2, 3, 0), which
        # x moves by 3 and y by -2: F has 6 jumps, counted against MAX_TERMS
        # before any is built, and folds back into a when admitted
        a = mono(h(2, 3, 0)) + mono(h(2, 3, 10), 2) + mono(h(2, 3, 20), 3)
        images = dict(Derivation.inner(a).images)
        assert Derivation.from_table(H, images).a == a
        monkeypatch.setattr(algebra, "MAX_TERMS", 5)
        with pytest.raises(algebra.TermBudgetError, match="more than MAX_TERMS = 5 jumps"):
            Derivation.from_table(H, images)

    @pytest.mark.parametrize("seed", range(4))
    def test_inner_and_central_tables_have_no_step_part(self, seed):
        # the sampler's draw: inner(a), |a| <= 2, plus central parts
        sampler = Sampler(H, seed=seed)
        for _ in range(50):
            a = sampler.algebra_element(max_terms=2)
            base = Derivation.inner(a) + sampler.central_derivation()
            table = Derivation.from_table(H, dict(base.images))
            assert not table.steps and table == base
            assert Derivation.inner(table.a) == Derivation.inner(a)
            assert len(table.a) <= len(a)


@pytest.mark.parametrize("order", ["interleaved", "positive-first"])
def test_cancelling_apply_keeps_the_cache_within_budget(monkeypatch, order):
    # each term's image has about 300 terms and the sum cancels to a few:
    # d(x^a y^j) - d(x^a y^j z) overlap but for their ends.  The 8 images of
    # the positive terms are disjoint, so summed first they pass the budget
    # before the negative ones cancel them
    pairs = [(h(300, j, z), 1 - 2 * z) for j in range(1, 9) for z in (0, 1)]
    if order == "positive-first":
        pairs.sort(key=lambda pair: -pair[1])
    x = AlgebraElement.from_terms(H, pairs)
    assert len(x) == 16
    expected = growing_derivation().apply(x)
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    d = growing_derivation()
    assert d.apply(x) == expected and len(expected) == 16


class TestCharacter:
    def test_inner_source_case(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert d.character(Arrow(h(1, 1, 0), h(0, 1, 0))) == gr(1)

    def test_inner_target_case(self):
        a = h(1, 0, 0)
        v = h(0, 1, 0)
        d = Derivation.inner(mono(a))
        phi = Arrow(a * v, v)  # target(phi) == a
        assert phi.target() == a and phi.source() != a
        assert d.character(phi) == gr(-1)

    def test_off_support_zero(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert d.character(Arrow(h(3, 3, 3), h(0, 1, 0))) == gr(0)

    def test_indicator_formula_cases(self):
        a = h(1, 0, 0)
        v = h(0, 1, 0)
        assert char_inner_formula(a, Arrow(h(1, 1, 0), v)) == gr(1)
        assert char_inner_formula(a, Arrow(a * v, v)) == gr(-1)
        assert char_inner_formula(a, Arrow(h(3, 3, 3), v)) == gr(0)

    def test_overlap_source_equals_target(self):
        # v commutes with a, so S == T == a and the value must be 0
        a = h(0, 0, 2)
        v = h(1, 1, 0)
        d = Derivation.inner(mono(a))
        phi = Arrow(v * a, v)
        assert phi.source() == phi.target() == a
        assert char_inner_formula(a, phi) == gr(0)
        assert d.character(phi) == gr(0)

    def test_indicator_formula_matches_character(self):
        # exhaustive on support arrows with generator v, plus off-support noise
        box = [
            h(a, b, c) for a, b, c in itertools.product(range(-2, 3), repeat=3)
        ]
        sampler = Sampler(H, seed=6, box=4)
        for a in box:
            d = Derivation.inner(mono(a))
            for v in H.generators():
                support = sorted(
                    d.apply_element(v).support(), key=lambda g: g.payload
                )
                arrows = [Arrow(u, v) for u in support]
                arrows += [Arrow(sampler.element(), v) for _ in range(20)]
                for phi in arrows:
                    assert d.character(phi) == char_inner_formula(a, phi)

    def test_additivity(self):
        sampler = Sampler(H, seed=7)
        for _ in range(50):
            d = sampler.derivation()
            p = sampler.derivation()
            phi = sampler.arrow(d)
            total = d + p
            assert total.character(phi) == d.character(phi) + p.character(phi)

    def test_composition_rule(self):
        sampler = Sampler(H, seed=8)
        for _ in range(100):
            d = sampler.derivation()
            phi, psi = sampler.composable_arrows()
            assert verify_char_composition(d, phi, psi)


class TestLieStructure:
    def test_add_scale(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert (d + d.scale(-1)).is_zero()
        assert d.scale(2) == Derivation.inner(mono(h(1, 0, 0), 2))

    def test_bracket_of_inners(self):
        a, b = h(1, 0, 0), h(0, 1, 0)
        da, db = Derivation.inner(mono(a)), Derivation.inner(mono(b))
        expected = Derivation.inner(mono(h(1, 1, 0)) - mono(h(1, 1, 1)))
        assert da.bracket(db) == expected

    def test_bracket_degenerate(self):
        d = Derivation.inner(mono(h(1, 2, 0)))
        assert d.bracket(d).is_zero()
        assert d.bracket(Derivation.zero(H)).is_zero()

    def test_bracket_satisfies_leibniz(self):
        sampler = Sampler(H, seed=9)
        for _ in range(20):
            br = sampler.derivation().bracket(sampler.derivation())
            assert verify_leibniz(
                br, sampler.algebra_element(), sampler.algebra_element()
            )

    def test_jacobi(self):
        sampler = Sampler(H, seed=10, box=1, word_len=3)
        for _ in range(10):
            d, p, q = (sampler.derivation() for _ in range(3))
            total = (
                d.bracket(p.bracket(q))
                + p.bracket(q.bracket(d))
                + q.bracket(d.bracket(p))
            )
            assert total.is_zero()

    def test_inner_ideal_identity(self):
        # [p, inner(a)] == inner(p(a))
        sampler = Sampler(H, seed=11)
        for _ in range(30):
            p = sampler.derivation()
            a = sampler.algebra_element()
            assert p.bracket(Derivation.inner(a)) == Derivation.inner(p.apply(a))


class TestBracketCharacterOracle:
    def test_worked_example(self):
        da = Derivation.inner(mono(h(1, 0, 0)))
        db = Derivation.inner(mono(h(0, 1, 0)))
        phi = Arrow(h(2, 1, 1), h(1, 0, 0))
        assert char_bracket_value(da, db, phi) == gr(2)
        assert da.bracket(db).character(phi) == gr(2)

    def test_zero_argument(self):
        d = Derivation.inner(mono(h(1, 1, 0)))
        phi = Arrow(h(2, 1, 1), h(1, 0, 0))
        assert char_bracket_value(d, Derivation.zero(H), phi) == gr(0)

    @pytest.mark.parametrize("group", [H, Z2], ids=["heisenberg", "z2"])
    def test_matches_operator_route(self, group):
        sampler = Sampler(group, seed=12)
        for _ in range(40):
            d = sampler.derivation()
            p = sampler.derivation()
            br = d.bracket(p)
            for _ in range(10):
                phi = sampler.arrow(br)
                assert char_bracket_value(d, p, phi) == br.character(phi)


class TestSparseBracketSum:
    """`char_bracket_value` adds only the terms whose left factor chi(a, k)
    is nonzero; `oracles.dense_char_bracket_value` multiplies every term."""

    @staticmethod
    def _pairs(group, sampler):
        pairs = [(sampler.derivation(), sampler.derivation()) for _ in range(12)]
        if group == H:
            tables = [d for d, _ in _step_tables(seed=111, count=5)]
            pairs += list(zip(tables, tables[1:]))
            pairs += [(t, sampler.derivation()) for t in tables]
            pairs += [(sampler.central_derivation(), t) for t in tables]
        return pairs

    @pytest.mark.parametrize("name", KERNELS)
    def test_matches_the_dense_sum(self, name):
        group = group_from_name(name)
        sampler = Sampler(group, seed=112, word_len=3)
        nonzero = 0
        for d, p in self._pairs(group, sampler):
            bracket = d.bracket(p)
            for _ in range(8):
                arrow = sampler.arrow(bracket)
                value = char_bracket_value(d, p, arrow)
                assert value == dense_char_bracket_value(d, p, arrow) == bracket.character(arrow)
                nonzero += bool(value)
        assert nonzero >= 10

    @pytest.mark.parametrize("name", KERNELS)
    def test_all_zero_characters_multiply_nothing(self, monkeypatch, name):
        # arrows at which p(b) or d(b) has terms but every left factor is 0:
        # the sum is ZERO and no coefficient is multiplied
        group = group_from_name(name)
        sampler = Sampler(group, seed=113, word_len=3)
        cases = 0
        for d, p in self._pairs(group, sampler):
            for _ in range(8):
                arrow = Arrow(sampler.element(), sampler.word_element())
                a, b = arrow.u.payload, arrow.v
                right = [(d, k) for k in p.apply_element(b)._terms]
                right += [(p, k) for k in d.apply_element(b)._terms]
                if not right or any(f._coefficient(a, k) for f, k in right):
                    continue
                cases += 1
                products = _counted(monkeypatch, GaussianRational, "__mul__")
                assert char_bracket_value(d, p, arrow) == ZERO
                assert products == []
                monkeypatch.undo()
                assert dense_char_bracket_value(d, p, arrow) == ZERO
        assert cases >= 5


class TestCoefficientBranches:
    """`Derivation._coefficient(u, v)` is the coefficient of u in d(v) on
    each branch of a[v^-1 u] - a[u v^-1]: a holding v^-1 u only, u v^-1
    only, both, neither (commuting u and v included), with a central part
    at v^-1 u, and with step parts."""

    @staticmethod
    def _arrows(group, d, sampler):
        terms = [group._wrap(t) for t in d.a._terms]
        centrals = [group._wrap(z) for z in d.taus]
        for v in [sampler.element() for _ in range(4)] + group.generators():
            for t in terms:
                yield Arrow(v * t, v)
                yield Arrow(t * v, v)
            for z in centrals:
                yield Arrow(v * z, v)
            yield Arrow(sampler.element(), v)
            yield Arrow(v, v)
            yield Arrow(v * v, v)

    @pytest.mark.parametrize("name", KERNELS)
    def test_each_branch_reads_the_image(self, name):
        group = group_from_name(name)
        sampler = Sampler(group, seed=114, box=3)
        cases = list(_kinds(group, seed=115).values())
        if group == H:
            cases += [d for d, _ in _step_tables(seed=116, count=4)]
        seen = set()
        for d in cases:
            a = d.a._terms
            for arrow in self._arrows(group, d, sampler):
                u, v = arrow.u.payload, arrow.v.payload
                s, e = arrow.source().payload, arrow.target().payload
                assert d._coefficient(u, v) == d.apply_element(arrow.v).coefficient(arrow.u)
                branch = (s in a, e in a)
                seen.add(branch)
                if s == e:
                    seen.add(("commuting", branch))
                if s in d.taus:
                    seen.add("central")
                if d.steps:
                    seen.add("steps")
        if group.name == "zn:3":
            # every inner part is 0 on an abelian group
            assert seen >= {(False, False), ("commuting", (False, False)), "central"}
            return
        assert seen >= {(True, False), (False, True), (True, True), (False, False),
                        ("commuting", (False, False)), ("commuting", (True, True))}
        if group == H:
            assert seen >= {"central", "steps"}


class TestLeibniz:
    @pytest.mark.parametrize("group", [H, Z2], ids=["heisenberg", "z2"])
    def test_constructors_satisfy_leibniz(self, group):
        sampler = Sampler(group, seed=13)
        for _ in range(100):
            d = sampler.derivation()
            x = mono(sampler.word_element(6))
            y = mono(sampler.word_element(6))
            assert verify_leibniz(d, x, y)

    def test_finite_group_table_validation(self):
        S4 = PermutationGroup.symmetric(4)
        d = Derivation.inner(mono(S4.element((2, 1, 3, 4))))
        assert Derivation.from_table(S4, dict(d.images)) == d
        images = dict(d.images)
        s = S4.generators()[0]
        images[s] = images[s] + mono(S4.element((2, 3, 4, 1)))
        with pytest.raises(DerivationTableError):
            Derivation.from_table(S4, images)

    def test_repeated_generator_table(self):
        # the images reach the kernel in generator order, repeats included
        G = PermutationGroup("s3-repeated", 3, [(2, 3, 1), (2, 3, 1), (2, 1, 3)])
        d = Derivation.inner(mono(G.element((2, 1, 3))) + mono(G.element((3, 1, 2)), 2))
        table = Derivation.from_table(G, dict(d.images))
        assert table == d and Derivation.inner(table.a) == d


def leibniz_pair_scan(d, elements):
    """The Leibniz rule on every pair of `elements`: the brute-force table
    check that `from_table`'s pair list replaces.  Each d(g) and monomial g
    of `elements` is built once."""
    images = {g: d.apply_element(g) for g in elements}
    monos = {g: mono(g) for g in elements}
    return all(
        d.apply_element(g * h) == images[g] * monos[h] + monos[g] * images[h]
        for g in elements
        for h in elements
    )


def scan_elements(group):
    """Every element of a finite kernel; the box [-1, 1]^3 otherwise, which
    holds the generators and, on heisenberg, z = [x, y], so it sees every
    failing pair."""
    if isinstance(group, PermutationGroup):
        return group.finite_elements()
    return [group.element(p) for p in itertools.product(range(-1, 2), repeat=3)]


def rank_mod_prime(rows, prime=2**61 - 1):
    """The rank of an integer matrix modulo `prime`, by row reduction."""
    rows = [[v % prime for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = pow(rows[rank][c], -1, prime)
        top = [v * scale % prime for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], top)]
        rank += 1
    return rank


class TestRelatorValidationOracle:
    @pytest.mark.parametrize(
        "name",
        ["perm:s3", "perm:a4", "perm:s4", "perm:a5", "perm:s5", "heisenberg", "zn:3"],
    )
    def test_from_table_accepts_what_pair_scan_accepts(self, name):
        group = group_from_name(name)
        elements = scan_elements(group)
        sampler = Sampler(group, seed=31)
        verdicts = []
        for _ in range(5):
            valid = dict(sampler.derivation(allow_table=False).images)
            s = sampler.rng.choice(group.generators())
            one = dict(valid)
            one[s] = valid[s] + mono(sampler.element(), sampler.nonzero_coefficient())
            every = {
                t: img + mono(sampler.element(), sampler.nonzero_coefficient())
                for t, img in valid.items()
            }
            for images in (valid, one, every):
                expected = leibniz_pair_scan(LeibnizCopy(group, images), elements)
                try:
                    Derivation.from_table(group, images)
                    accepted = True
                except DerivationTableError:
                    accepted = False
                assert accepted == expected
                verdicts.append(expected)
        if name == "zn:3":
            # C[Z^n] is commutative: every table is a derivation
            assert all(verdicts)
        else:
            assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("name, classes", [("perm:s3", 3), ("perm:a4", 4), ("perm:s4", 5)])
    def test_pairs_cut_out_exactly_the_derivations(self, name, classes):
        # C[G] is semisimple, so every derivation is inner and they span
        # |G| - k(G) dimensions, k(G) the number of classes.  A table's
        # defects on the pairs are linear in it, so the tables the pairs
        # admit are exactly the derivations when the defects of the 2|G|
        # unit tables have rank 2|G| - (|G| - k(G)).  The rank mod a prime
        # is at most the rank over Q.
        group = group_from_name(name)
        elements = group.finite_elements()
        zero = AlgebraElement.zero(group)
        defects = []
        for s in group.generators():
            for e in elements:
                images = {t: mono(e) if t == s else zero for t in group.generators()}
                d = LeibnizCopy(group, images)

                def image(p):
                    return AlgebraElement(group, d._image(p))

                row = []
                for p, q in oracles.leibniz_pairs(group):
                    defect = (
                        image(group._mul(p, q))
                        - image(p) * AlgebraElement(group, {q: gr(1)})
                        - AlgebraElement(group, {p: gr(1)}) * image(q)
                    )
                    row += [int(defect.coefficient(k).re) for k in elements]
                defects.append(row)
        assert rank_mod_prime(defects) == len(elements) + classes


def _counted(monkeypatch, owner, method):
    """The list of first arguments of the calls to `owner.method` made from
    now on."""
    original, calls = getattr(owner, method), []

    def counting(self, *args):
        calls.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(owner, method, counting)
    return calls


def _valid_tables():
    for name in ["perm:s5", "perm:s6"]:
        group = group_from_name(name)
        yield group, dict(Sampler(group, seed=1).derivation(allow_table=False).images)


def test_table_validation_cost(monkeypatch):
    # one potential per class: at most one payload product per generator
    # arrow (s x, s), |G| * |gens| in all (240 on s5, 1,440 on s6)
    calls = _counted(monkeypatch, PermutationGroup, "_mul")
    for group, images in _valid_tables():
        calls.clear()
        Derivation.from_table(group, images)
        assert len(calls) <= len(group.finite_elements()) * len(group.generators())


def test_table_validation_multiplies_no_elements(monkeypatch):
    # a table is checked, and its form found, by its kernel's `table_form`
    # on the images' terms alone, building no image; and its form evaluates
    # d(g) by payload products, with no algebra product either
    sampler = Sampler(H, seed=3)
    tables = list(_valid_tables()) + [
        (H, {s: img + _outer_images(gr(1), gr(2))[s] for s, img in d.images.items()})
        for d in (sampler.derivation(allow_table=False) for _ in range(5))
    ]
    products = _counted(monkeypatch, AlgebraElement, "__mul__")
    images = _counted(monkeypatch, Derivation, "_image")
    for group, table in tables:
        d = Derivation.from_table(group, table)
        assert images == []
        elements = group.finite_elements()[::7] if group != H else [h(3, -2, 5), h(-4, 1, 0)]
        for g in elements:
            d.apply_element(g)
        images.clear()
    assert products == []


class TestInnerWitness:
    def test_direct_witness(self):
        sampler = Sampler(H, seed=14)
        for _ in range(20):
            w = sampler.algebra_element()
            assert Derivation.inner(w).is_inner_witness(w)

    def test_zero_with_identity_witness(self):
        assert Derivation.zero(H).is_inner_witness(mono(H.identity()))

    def test_central_not_inner_in_box(self):
        d = Derivation.central(H, [1, 0], h(0, 0, 1))
        box = [
            h(a, b, c) for a, b, c in itertools.product(range(-1, 2), repeat=3)
        ]
        assert not any(d.is_inner_witness(mono(g)) for g in box)
        assert find_inner_witness(d, box) is None

    def test_search_recovers_inner(self):
        box = [
            h(a, b, c) for a, b, c in itertools.product(range(-1, 2), repeat=3)
        ]
        a = mono(h(1, 0, 0)) + mono(h(0, 1, 1), -2)
        d = Derivation.inner(a)
        w = find_inner_witness(d, box)
        assert w is not None and d.is_inner_witness(w)


# ---------------------------------------------------------------------------
# A closed form builds only what is read
# ---------------------------------------------------------------------------

# per kernel, a group whose arrows are foreign to it, and a payload of each:
# heisenberg and zn:3, and s4 and a4, share payloads, so a foreign arrow
# there can meet a cached image under its own payload
_FOREIGN = {
    "heisenberg": ("zn:3", (2, -1, 3), (2, -1, 3)),
    "zn:1": ("zn:2", (2, -1), (2,)),
    "zn:3": ("heisenberg", (2, -1, 3), (2, -1, 3)),
    "perm:s4": ("perm:a4", (2, 3, 1, 4), (2, 3, 1, 4)),
    "perm:a4": ("perm:s4", (2, 3, 1, 4), (2, 3, 1, 4)),
}


def _character_cases(group, seed):
    """The `_kinds` derivations over `group` but the outer one, whose
    images at the arrows' entries of 10^12 no join route can build, and the
    graded components of its mixed one (its sum on a permutation group)."""
    cases = _kinds(group, seed)
    cases.pop("outer", None)
    base = cases.get("mixed", cases["sum"])
    components = decompose(base, GradingSetup.default(group)).components
    for i, component in enumerate(components.values()):
        cases[f"component-{i}"] = component
    return cases


class TestCharacterByFormula:
    """chi(u, v) of a form is read as a[v^-1 u] - a[u v^-1] +
    tau_{v^-1 u}(v), with no image built (no `Derivation._image` call); it
    equals the coefficient of u in d(v) on the copy `LeibnizCopy(G,
    d.images)`, which evaluates by syllables and joins.  Half the arrows
    have u in the support of d(v)."""

    @staticmethod
    def _arrows(group, sampler, copy):
        vs = [sampler.word_element() for _ in range(6)] + [sampler.element() for _ in range(6)]
        vs += [group.element(p) for p in _BIG_PAYLOADS.get(group.name, [])]
        arrows = []
        for i, v in enumerate(vs):
            support = sorted(copy.apply_element(v)._terms)
            if i % 2 == 0 and support:
                u = group._wrap(sampler.rng.choice(support))
            elif group.name in _BIG_PAYLOADS and i >= 12:
                u = group.element(_BIG_PAYLOADS[group.name][i % 3])
            else:
                u = sampler.element()
            arrows.append(Arrow(u, v))
        return arrows

    @pytest.mark.parametrize("name", list(_FOREIGN))
    def test_matches_the_copy(self, monkeypatch, name):
        group = group_from_name(name)
        sampler = Sampler(group, seed=91, box=3)
        images = _counted(monkeypatch, Derivation, "_image")
        nonzero = 0
        for kind, d in _character_cases(group, seed=92).items():
            copy = LeibnizCopy(group, d.images)
            for arrow in self._arrows(group, sampler, copy):
                expected = copy.apply_element(arrow.v).coefficient(arrow.u)
                nonzero += bool(expected)
                images.clear()
                assert d.character(arrow) == expected, (kind, arrow)
                assert images == []
        assert nonzero >= 10

    @pytest.mark.parametrize("name", list(_FOREIGN))
    def test_foreign_arrow_is_refused(self, name):
        foreign_name, foreign_payload, payload = _FOREIGN[name]
        group, foreign = group_from_name(name), group_from_name(foreign_name)
        v = foreign.element(foreign_payload)
        for d in _character_cases(group, seed=93).values():
            with pytest.raises(GroupMismatchError):
                d.character(Arrow(v, v))
            d.apply_element(group.element(payload))
            with pytest.raises(GroupMismatchError):
                d.character(Arrow(v, v))


def test_forms_build_no_unread_image(monkeypatch):
    # a cold character is read off the form, and a sum, multiple or bracket
    # of forms builds its generator images only when they are read
    calls = _counted(monkeypatch, Derivation, "_image")
    for name in ["perm:s6", "heisenberg"]:
        group = group_from_name(name)
        sampler = Sampler(group, seed=95, box=3)
        a = sampler.algebra_element(max_terms=4)
        vs = [sampler.word_element(4) for _ in range(10)]
        copy = LeibnizCopy(group, Derivation.inner(a).images)
        arrows = [Arrow(u, v) for v in vs for u in copy.apply_element(v).support()]
        arrows += [Arrow(sampler.element(), v) for v in vs]
        expected = [copy.character(arrow) for arrow in arrows]
        assert any(expected)
        calls.clear()
        assert [Derivation.inner(a).character(arrow) for arrow in arrows] == expected
        assert calls == []

    a, b = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3), mono(h(-1, 2, 0), 2) + mono(h(0, 0, 1))
    total = Derivation.inner(a) + Derivation.central(H, [1, -2], h(0, 0, 1)).scale(gr(3))
    inner_b = Derivation.inner(b)
    pairs = _counted(monkeypatch, Derivation, "_image_pairs")
    bracket = total.bracket(inner_b)
    # inner(total(b)) merges the terms of total at the one term of b's normal
    # form, no generator: inner(z) = 0 for the central z, and no image is
    # merged on its own
    assert inner_b.a == mono(h(-1, 2, 0), 2)
    assert pairs == [(-1, 2, 0)] and calls == []
    calls.clear()
    images = bracket.images
    assert sorted(calls) == sorted(s.payload for s in H.generators())
    assert bracket.images is images and len(calls) == 2
    reference = LeibnizCopy(H, total.images).bracket(LeibnizCopy(H, Derivation.inner(b).images))
    assert bracket.images == reference.images and not bracket.is_zero()


def test_step_bracket_evaluates_its_images_from_the_form(monkeypatch):
    # a step x step bracket is read off the two forms by the kernel
    # (`Heisenberg.bracket_steps`), so no table is solved, and reading
    # `images` evaluates each generator's image from the form once: both
    # golden step x step jobs, with the step parts on one key and on two
    table = derivation_from_json(STEP_TABLE)
    for name in ["bracket-heisenberg-steps-steps.json", "bracket-heisenberg-steps-crossed.json"]:
        other = derivation_from_json(JOBS[name][1]["right"])
        assert table.steps and other.steps
        reference = LeibnizCopy(H, table.images).bracket(LeibnizCopy(H, other.images))
        solved = _counted(monkeypatch, Heisenberg, "table_form")
        bracket = table.bracket(other)
        assert solved == []
        calls = _counted(monkeypatch, Derivation, "_image")
        images = bracket.images
        assert bracket.images is images
        assert sorted(calls) == sorted(s.payload for s in H.generators())
        assert images == reference.images and not bracket.is_zero()
        monkeypatch.undo()


# keys of strides 1 to 4, among them parallel and opposite pairs
_STEP_KEYS = [(1, 0), (0, 1), (1, 1), (-1, -1), (2, 1), (1, -2), (2, 2), (-2, -2),
              (2, -4), (4, 2), (3, 0), (-3, 0), (0, 3), (3, 3), (4, 0)]


def _pure_steps(rng, ends_at_zero):
    """A derivation of one or two step parts on `_STEP_KEYS`, with 1 to 3
    jumps each, or with two pairs of jumps that cancel, so that its
    potential ends at 0 (a fold may turn such a part into inner terms)."""
    jumps = {}
    for _ in range(rng.randint(1, 2)):
        P, Q = rng.choice(_STEP_KEYS)
        stride = gcd(P, Q)
        r0 = rng.randrange(stride)
        count = 4 if ends_at_zero else rng.randint(1, 3)
        points = [r0 + stride * t for t in rng.sample(range(-4, 5), count)]
        values = [gr(rng.choice([-2, -1, 1, 3])) for _ in points]
        if ends_at_zero:
            values[1::2] = [-v for v in values[::2]]
        part = jumps.setdefault(H.class_representative((P, Q, r0)), {})
        for r, v in zip(points, values):
            part[r] = part.get(r, ZERO) + v
    parts = {key: groups._step_part(part) for key, part in jumps.items()}
    return derivations._normal(AlgebraElement.zero(H), {}, parts)


def _solved(d, p):
    """[d, p] solved as a table from the operator commutator's images."""
    return Derivation.from_table(H, {
        s: d.apply(p.images[s]) - p.apply(d.images[s]) for s in H.generators()
    })


def test_step_bracket_matches_the_solved_route_and_leibniz(monkeypatch):
    # ROADMAP item 2's rule: [s_F, s_G] is the potential
    # sum J_i J'_j D(u - p_i - p'_j - P2 Q1) on the key (P1 + P2, Q1 + Q2),
    # read off the forms with no table solved, in both orders.  It is
    # compared with the operator commutator solved as a table and with the
    # `LeibnizCopy` bracket on `_step_tables` pairs (inner, central and step
    # parts) and on pure step parts of strides 1 to 4, some ending at 0 (read
    # by their points) and some not (read by their jumps); step parts on
    # parallel and on opposite keys bracket to no step part
    rng = random.Random(37)
    tables = [d for d, _ in _step_tables(seed=117, count=5)]
    pure = [_pure_steps(rng, ends_at_zero) for ends_at_zero in [False, True] * 14]
    pure = [d for d in pure if d.steps]
    pairs = list(itertools.product(tables, repeat=2))
    pairs += list(zip(pure, pure[1:])) + list(zip(tables, pure)) + list(zip(pure[::-1], tables))
    finite, nonzero = 0, 0
    parallel = [((2, 2), (1, 1)), ((2, 2), (-2, -2)), ((2, -4), (-1, 2)), ((3, 0), (-3, 0))]
    for keys in parallel:
        d, p = (
            derivations._normal(AlgebraElement.zero(H), {}, {
                H.class_representative((P, Q, 1)): groups._step_part({1: gr(2), 7: gr(-1)})
            })
            for P, Q in keys
        )
        assert H.bracket_steps(d.steps, p.steps) == {}
        pairs.append((d, p))
    for d, p in pairs:
        assert d.steps and p.steps
        finite += all(not vals[-1] for _, vals in d.steps.values())
        solved = _counted(monkeypatch, Heisenberg, "table_form")
        forward, backward = d.bracket(p), p.bracket(d)
        assert solved == []
        monkeypatch.undo()
        assert forward == _solved(d, p) == backward.scale(-1)
        reference = LeibnizCopy(H, d.images).bracket(LeibnizCopy(H, p.images))
        assert forward.images == reference.images
        nonzero += bool(H.bracket_steps(d.steps, p.steps))
    assert finite >= 5 and nonzero >= 20


def test_step_bracket_sums_its_product_series_before_E():
    # step parts of n jumps each, r % 3 + 1 at 2r on (1, 0) and at 3r on
    # (0, 1): their n^2 products J_i * J'_j fall on about 5n exponents
    # p_i + p'_j, so E is applied once per exponent of the summed series,
    # not once per product.  At n = 40 the bracket is the solved route's
    # and the `LeibnizCopy` bracket's, both orders; at n = 1,000 its 4,994
    # jumps come within 2 s, where applying E per product took 6 s
    def parts(n, P, Q, k):
        jumps = {k * r: gr(r % 3 + 1) for r in range(n)}
        part = {H.class_representative((P, Q, 0)): groups._step_part(jumps)}
        return derivations._normal(AlgebraElement.zero(H), {}, part)

    d, p = parts(40, 1, 0, 2), parts(40, 0, 1, 3)
    for left, right in [(d, p), (p, d)]:
        bracket = left.bracket(right)
        assert bracket.steps and bracket == _solved(left, right)
        reference = LeibnizCopy(H, left.images).bracket(LeibnizCopy(H, right.images))
        assert bracket.images == reference.images
    d, p = parts(1000, 1, 0, 2), parts(1000, 0, 1, 3)
    start = time.perf_counter()
    bracket = d.bracket(p)
    assert time.perf_counter() - start < 2.0
    assert sum(len(pos) for pos, _ in bracket.steps.values()) == 4994


def test_runs_are_the_pointwise_running_sums():
    # `groups._runs` against `pointwise_runs`, which walks each residue mod t
    # point by point: t from 1 to 6, negative points, several residues, a
    # point whose values cancel, and the ends `step_terms` passes, -J at p
    # and +J at p + m, for moves m of both signs along one residue
    rng = random.Random(38)
    values = [gr(v) for v in (-2, -1, 1, 3)] + [GaussianRational(1, 2), GaussianRational(0, -1)]
    cases = 0
    for t in range(1, 7):
        for _ in range(30):
            ends = [(rng.randint(-40, 40), rng.choice(values)) for _ in range(rng.randint(1, 9))]
            r, v = rng.randint(-40, 40), rng.choice(values)
            ends += [(r, v), (r, -v)]
            # each residue's values sum to 0, as every caller's do
            totals = {}
            for r, v in ends:
                totals[r % t] = totals.get(r % t, ZERO) + v
            ends += [(rng.randint(-6, 6) * t + k, -total) for k, total in totals.items()]
            r0, move = rng.randrange(t), t * rng.choice([-3, -2, -1, 1, 2, 3])
            jumps = [(r0 + t * k, rng.choice(values)) for k in rng.sample(range(-8, 8), 3)]
            steps = [end for r, j in jumps for end in ((r, -j), (r + move, j))]
            for case in (ends, steps):
                runs = groups._runs(iter(case), t)
                covered = {r: v for lo, end, v in runs for r in range(lo, end, t)}
                assert covered == pointwise_runs(case, t)
                assert all(lo < end and (end - lo) % t == 0 for lo, end, _ in runs)
                assert sum((end - lo) // t for lo, end, _ in runs) == len(covered)
                cases += len({r % t for r in covered}) > 1
    assert cases >= 50


def test_step_brackets_on_long_strides_read_few_points():
    # three members of a line of stride 10^6 against three of one of stride
    # 999,999: each potential ends at 0 and is read by its points, where the
    # jumps would read about 10^12 points of E; single jumps on (1000, 0) and
    # (0, 999) are read as 999 pairs of half-lines, where E's residues mod
    # lcm(s1, s2) would be 999,000 points; and where every way reads more
    # than MAX_TERMS points the bracket is refused before any is read
    def members(P, Q, rs):
        return AlgebraElement.from_terms(H, [(h(P, Q, r * gcd(P, Q)), 1) for r in rs])

    lines = (10**6, 0), (0, 10**6 - 1)
    a, b = (members(P, Q, range(3)) for P, Q in lines)
    d, p = Derivation.inner(a), Derivation.inner(b)
    assert d.steps and p.steps
    start = time.perf_counter()
    bracket = d.bracket(p)
    assert time.perf_counter() - start < 1.0
    # [inner(a), inner(b)] = inner(b*a - a*b)
    assert bracket == _solved(d, p) == Derivation.inner(b * a - a * b)
    assert len(bracket.a) == 18 and not bracket.steps

    # inner(a + b) puts both pairs of its parts on the key (10^6, 999,999),
    # read with strides 999,999 and 10^6: each stride is swept apart, where
    # their common period would be about 10^12 points.  It brackets with
    # itself to 0, and with inner(a' + b') on the same lines as the solved
    # route finds, both orders
    A, B = a + b, members(*lines[0], range(2, 6)) + members(*lines[1], range(-1, 3))
    d, p = Derivation.inner(A), Derivation.inner(B)
    assert len(d.steps) == len(p.steps) == 2
    start = time.perf_counter()
    same, forward, backward = d.bracket(d), d.bracket(p), p.bracket(d)
    assert time.perf_counter() - start < 1.0
    assert same.is_zero() and same == _solved(d, d)
    assert forward == _solved(d, p) == Derivation.inner(B * A - A * B) == backward.scale(-1)
    assert forward.a and not forward.steps

    def single(P, Q, r, jump):
        part = {H.class_representative((P, Q, r)): groups._step_part({r: gr(jump)})}
        return derivations._normal(AlgebraElement.zero(H), {}, part)

    d, p = single(1000, 0, 1, 2), single(0, 999, 2, -1)
    start = time.perf_counter()
    bracket = d.bracket(p)
    assert time.perf_counter() - start < 1.0
    assert bracket == _solved(d, p) == p.bracket(d).scale(-1)
    assert sum(len(pos) for pos, _ in bracket.steps.values()) == 1997
    refused = r"\(1000, 0\) and \(999, 999000\) reads more than MAX_TERMS"
    with pytest.raises(algebra.TermBudgetError, match=refused):
        d.bracket(single(999, 999000, 0, 1))


def test_step_brackets_agree_with_the_matrix_product_sum():
    # ROADMAP item 5's check on step parts: `char_bracket_value`, the sum
    # of chi^d(a, k) chi^p(k, b) - chi^p(a, k) chi^d(k, b) over the terms of
    # two images, shares no code with `bracket`, and equals the bracket's
    # character at arrows (e*v, v) with e on the result's classes: at its
    # inner terms and near its step parts' jump points, for step x step,
    # central x step and inner x step pairs from `_step_tables`, both orders
    rng = random.Random(41)
    sampler = Sampler(H, seed=118, box=3)
    tables = [d for d, _ in _step_tables(seed=119, count=5)]
    pairs = list(itertools.permutations(tables, 2))
    for t in tables:
        for other in (sampler.central_derivation(), Derivation.inner(sampler.algebra_element())):
            pairs += [(other, t), (t, other)]
    values = []
    for d, p in pairs:
        bracket = d.bracket(p)
        points = list(bracket.a._terms)
        for (P, Q, _), (pos, _) in bracket.steps.items():
            stride = gcd(P, Q)
            near = rng.sample(pos, min(3, len(pos)))
            points += [(P, Q, r + stride * rng.randint(-2, 2)) for r in near]
        for e in points:
            v = sampler.element()
            arrow = Arrow(H.element(e) * v, v)
            value = char_bracket_value(d, p, arrow)
            assert value == bracket.character(arrow)
            values.append(value)
    assert sum(map(bool, values)) >= 50 and values.count(ZERO) >= 50


def _long_run(n, P):
    """inner(sum_{r<n} (P, 1, r)): one step part, of two jumps, on a line
    of stride 1."""
    return Derivation.inner(AlgebraElement.from_terms(H, [(h(P, 1, r), 1) for r in range(n)]))


def test_long_step_bracket_is_read_off_the_forms():
    # [inner(sum_{r<n} (n, 1, r)), x -> x*y] is
    # inner(-sum_{0<r<2n} min(r, 2n - r) * (n, 2, r)), 2n - 1 terms: checked
    # against the solved route and `LeibnizCopy` for small n, and at
    # n = 3,000, where solving it took 24.9 s, within a second
    growing = growing_derivation()
    for n in (4, 9, 40, 3000):
        d = _long_run(n, n)
        start = time.perf_counter()
        forward = d.bracket(growing)
        elapsed = time.perf_counter() - start
        expected = Derivation.inner(AlgebraElement.from_terms(
            H, [(h(n, 2, r), -min(r, 2 * n - r)) for r in range(1, 2 * n)]
        ))
        assert forward == expected == growing.bracket(d).scale(-1)
        assert len(forward.a) == 2 * n - 1 and not forward.steps
        if n < 100:
            assert forward == _solved(d, growing)
            reference = LeibnizCopy(H, d.images).bracket(LeibnizCopy(H, growing.images))
            assert forward.images == reference.images
    assert elapsed < 1.0


def test_step_bracket_past_the_budget_is_refused_by_its_jump_count(monkeypatch):
    # at n = 60,000 the bracket has 120,000 jumps (119,999 inner terms): it
    # is refused from the count of its summed runs, before any jump or
    # payload product is built, in both orders
    d, growing = _long_run(60000, 60000), growing_derivation()
    calls = _counted(monkeypatch, Heisenberg, "_mul")
    for left, right in [(d, growing), (growing, d)]:
        with pytest.raises(
            algebra.TermBudgetError, match="has 120000 jumps, over the limit MAX_TERMS = 100000"
        ):
            left.bracket(right)
    assert calls == []


def test_step_bracket_on_a_long_key_is_its_closed_form():
    # inner(sum_{r<1000} (10^6, 1, r)) is F = 1 on [0, 1000), jumps +1 at 0
    # and -1 at 1000 on (10^6, 1), and x -> x*y is G with the jump -1 at 1
    # on (0, 1): w = 10^6, P2*Q1 = 0, and the key (10^6, 2) has stride 2.
    # With s1 = s2 = 1, c(n) = n + 1 for n >= 0, so E(n) = D(n) - D(n - 2)
    # is 1 at 0 and at w and 2 between, and the jumps are
    # -E(u - 1) + E(u - 1001): about 2,000 of them, though the bracket's
    # d(y) has over 2,000,000 terms
    N, m = 10**6, 1000
    d, growing = _long_run(m, N), growing_derivation()

    def E(n):
        return 0 if n < 0 or n > N else 1 if n in (0, N) else 2

    jumps = {}
    # between the windows both copies are 2 and cancel
    for u in itertools.chain(range(0, m + 3), range(N, N + m + 3)):
        if value := E(u - 1 - m) - E(u - 1):
            jumps.setdefault((N, 2, u % 2), {})[u] = gr(value)
    expected = {key: groups._step_part(part) for key, part in jumps.items()}
    forward = d.bracket(growing)
    assert forward.steps == expected and not (forward.a or forward.taus)
    assert sum(len(part) for part in jumps.values()) == 2002
    assert growing.bracket(d) == forward.scale(-1)
    with pytest.raises(algebra.TermBudgetError, match="at least 2000998 terms"):
        forward.apply_element(h(0, 1, 0))


def _shifted(d, tau, k):
    """[c(tau, z^k), d] built apart from `bracket`, by the shift rule."""

    def weight(t):
        return tau[0] * t[0] + tau[1] * t[1]

    a = AlgebraElement.from_terms(H, [
        (h(t[0], t[1], t[2] + k), gr(weight(t)) * c) for t, c in d.a._terms.items()
    ])
    steps = {
        H.class_representative((P, Q, r0 + k)): (
            [r + k for r in pos], [gr(weight((P, Q))) * v for v in vals]
        )
        for (P, Q, r0), (pos, vals) in d.steps.items() if weight((P, Q))
    }
    return Derivation(a, {}, steps)


def test_central_bracket_shifts_each_class_part(monkeypatch):
    # [c(tau, z^k), p] = z^k * sum over classes K of tau(K) * p_K, p_K the
    # part of p on K and tau(K) = tau(P, Q) for K of key (P, Q) (proof under
    # ROADMAP item 4): on a step part (pos, vals) of the class of (P, Q, r0)
    # that is (pos + k, tau(P, Q) * vals) on the class of (P, Q, r0 + k), an
    # inner term t moves to t z^k, and central parts drop.  The shifted
    # parts are built here, apart from `bracket`, for three central parts,
    # one at z = e and one with k < 0, and compared part by part and summed
    # with `bracket` in both orders, which solves no table; with the brackets
    # of `LeibnizCopy`s; and, with an inner part added to the central side,
    # with the operator commutator solved as a table.  The golden central x
    # step job is checked the same way first
    rng = random.Random(31)
    sampler = Sampler(H, seed=108, box=3)
    solved = _counted(monkeypatch, Heisenberg, "table_form")
    job = JOBS["bracket-heisenberg-central-steps.json"][1]
    left, right = derivation_from_json(job["left"]), derivation_from_json(job["right"])
    solved.clear()
    assert left.bracket(right) == _shifted(right, [2, -1], 1) and right.steps
    assert solved == []
    kept = mixed = 0
    for d, images in _step_tables(seed=107, count=6):
        mixed += bool(d.a and d.taus)
        total, shifted = Derivation.zero(H), Derivation.zero(H)
        for k in (0, rng.randint(-3, -1), rng.randint(-3, 3)):
            tau = [rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)]
            central = Derivation.central(H, tau, h(0, 0, k))
            part = _shifted(d, tau, k)
            kept += bool(part.steps)
            solved.clear()
            assert central.bracket(d) == part == d.bracket(central).scale(-1)
            assert solved == []
            total, shifted = total + central, shifted + part
        assert len(total.taus) > 1
        c = total + Derivation.inner(sampler.algebra_element())
        solved.clear()
        brackets = [total.bracket(d), d.bracket(total), c.bracket(d), d.bracket(c)]
        assert solved == []
        assert brackets[0] == shifted == brackets[1].scale(-1)
        assert brackets[2] == brackets[3].scale(-1)
        for x, bracket in [(total, brackets[0]), (c, brackets[2])]:
            reference = LeibnizCopy(H, x.images).bracket(LeibnizCopy(H, images))
            assert bracket.images == reference.images
        old = Derivation.from_table(H, {
            s: c.apply(d.images[s]) - d.apply(c.images[s]) for s in H.generators()
        })
        assert brackets[2] == old
    assert kept and mixed


def test_central_bracket_with_a_long_run_is_one_step_part():
    # inner(sum_{r<60000} (60000, 1, r)) is one step part with two jumps,
    # and d(y) has 120,000 terms, over MAX_TERMS: the shift rule brackets it
    # with a central part as one two-jump step part, shifted by z and times
    # tau(60000, 1) = 60002, where solving the operator commutator as a table
    # is refused
    run = AlgebraElement.from_terms(H, [(h(60000, 1, r), 1) for r in range(60000)])
    d, c = Derivation.inner(run), Derivation.central(H, [1, 2], h(0, 0, 1))
    with pytest.raises(algebra.TermBudgetError, match="at least 120000 terms"):
        d.apply_element(h(0, 1, 0))
    forward, backward = c.bracket(d), d.bracket(c)
    assert forward.steps == {(60000, 1, 0): ([1, 60001], [gr(0), gr(60002), gr(0)])}
    assert not (forward.a or forward.taus)
    assert backward == forward.scale(-1) and (forward + backward).is_zero()


def test_inner_bracket_with_steps_solves_no_table(monkeypatch):
    # [inner(a), p] = inner(a(b) - p°(a)) with p° the central and step parts
    # of p: no table is solved
    table = derivation_from_json(STEP_TABLE)
    assert table.steps and table.taus
    a = mono(h(1, -1, 2)) + mono(h(0, 2, -1), Fraction(-1, 2))
    solved = _counted(monkeypatch, Heisenberg, "table_form")
    bracket = Derivation.inner(a).bracket(table)
    images = bracket.images
    assert solved == []
    reference = LeibnizCopy(H, Derivation.inner(a).images).bracket(LeibnizCopy(H, table.images))
    assert images == reference.images and not bracket.is_zero()


@pytest.mark.parametrize("name, left, right", [
    ("zn:3", [(i, 0, 0) for i in range(400)], [(0, i, 0) for i in range(400)]),
    ("heisenberg", [(i, 0, 0) for i in range(1, 401)], [(1000 * i, 0, 0) for i in range(1, 401)]),
], ids=["zn:3", "heisenberg"])
def test_commuting_inner_bracket_is_zero(name, left, right):
    # two commuting 400-term inner parts, each term of coefficient 1: b*a
    # alone would pass MAX_TERMS, but a partial sum that later cancels is
    # never refused, and every image is 0
    group = group_from_name(name)
    a, b = (
        AlgebraElement.from_terms(group, [(group.element(p), 1) for p in payloads])
        for payloads in (left, right)
    )
    assert len(a) * len(b) > algebra.MAX_TERMS
    assert Derivation.inner(a).bracket(Derivation.inner(b)).is_zero()


def test_derivations_import_no_private_kernel_name():
    # the step-part format and the payload layout stay behind the kernel:
    # derivations.py takes only public names from the groups module
    tree = ast.parse(Path(derivations.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in {(1, "groups"), (0, "dergrade.groups")}
        for alias in node.names
    ]
    assert names and [name for name in names if name.startswith("_")] == []


def _zn_tables(n, count, seed):
    """`count` generator tables over Z^n, each image with 0 to 4 terms,
    entries in [-3, 3] and Gaussian-rational coefficients."""
    group = FreeAbelian(n)
    sampler = Sampler(group, seed=seed, box=3)
    for _ in range(count):
        yield {
            s: sampler.algebra_element(max_terms=4) if sampler.rng.random() < 0.9
            else AlgebraElement.zero(group)
            for s in group.generators()
        }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zn_tables_keep_a_central_form(n):
    # 200 tables a rank: each keeps a form whose images are the table, and
    # whose evaluation, grading and brackets equal those of its
    # `LeibnizCopy`, which evaluates by syllables and joins
    group = FreeAbelian(n)
    setup = GradingSetup.default(group)
    rng = random.Random(f"zn-tables/{n}")
    previous = None
    for images in _zn_tables(n, 200, seed=96 + n):
        d = Derivation.from_table(group, images)
        copy = LeibnizCopy(group, images)
        assert not d.a and not d.steps
        assert d.images == images
        for box in (3, 10**12):
            g = group.element([rng.randint(-box, box) for _ in range(n)])
            assert d.apply_element(g) == copy.apply_element(g)
        components = decompose(d, setup).components
        reference = copy.components(setup.quotient.key)
        assert list(components) == list(reference)
        assert all(components[k].images == reference[k].images for k in components)
        if previous is not None:
            p, p_copy = previous
            assert d.bracket(p).images == copy.bracket(p_copy).images
        previous = d, copy


# ---------------------------------------------------------------------------
# One normal form per derivation
# ---------------------------------------------------------------------------

_NORMAL_FORM_GROUPS = ["heisenberg", "zn:1", "zn:3", "perm:s3", "perm:a4", "perm:s4"]


def _commuting(group, sampler):
    """A nonzero element of C[G] that commutes with every generator: central
    terms on heisenberg, any element on Z^n, a class sum on a permutation
    group."""
    if group == H:
        return mono(h(0, 0, 2), 3) + mono(h(0, 0, -1))
    if isinstance(group, FreeAbelian):
        return sampler.algebra_element()
    cls = group.conjugacy_class(sampler.element().payload)
    return AlgebraElement.from_terms(group, [(group._wrap(p), 2) for p in cls])


def _built_by_every_constructor(group, seed):
    """(derivation, images) for derivations built by `inner`, `central`,
    `from_table`, `+`, `scale`, `bracket` and `_split`, some equal by
    construction, each with its generator images found apart from any form:
    s*a - a*s for inner(a), tau(s) * s*z for central(tau, z), a table's own
    images, sums and multiples of images, the operator bracket of
    `LeibnizCopy`s, and a `LeibnizCopy`'s graded components."""
    sampler = Sampler(group, seed=seed)
    gens = group.generators()

    def inner(a):
        return Derivation.inner(a), {s: mono(s) * a - a * mono(s) for s in gens}

    def table(images):
        return Derivation.from_table(group, dict(images)), images

    def add(x, y):
        return x[0] + y[0], {s: x[1][s] + y[1][s] for s in gens}

    def scale(x, c):
        return x[0].scale(c), {s: x[1][s].scale(c) for s in gens}

    def bracket(x, y):
        reference = LeibnizCopy(group, x[1]).bracket(LeibnizCopy(group, y[1]))
        return x[0].bracket(y[0]), reference.images

    a, b = sampler.algebra_element(), sampler.algebra_element()
    c = _commuting(group, sampler)
    ia, ib = inner(a), inner(b)
    zero = Derivation.zero(group), {s: AlgebraElement.zero(group) for s in gens}
    cases = [
        zero, ia, ib, inner(a + c), inner(c), table(ia[1]), add(ia, ib), inner(a + b),
        add(ib, ia), scale(ia, 2), add(ia, ia), add(ia, scale(ia, -1)), scale(ia, 0),
        bracket(ia, ib), scale(bracket(ib, ia), -1), inner(ia[0].apply(b)),
    ]
    if group.has_central_derivations():
        tau, z = group.random_central(sampler.rng, 2)
        # the generators are the abelianization's free basis: tau(s_i) = tau[i]
        central = Derivation.central(group, tau, z), {s: mono(s * z, t) for s, t in zip(gens, tau)}
        cases += [
            central, scale(central, 2), add(central, central), add(ia, central),
            table(add(ia, central)[1]), bracket(central, ia), bracket(add(ib, central), ia),
        ]
    if group == H:
        # a run of 5 terms on one line is a step part with two jumps, and one
        # more term on that line keeps it so; an outer table has step parts
        # that do not end at 0
        run = AlgebraElement.from_terms(H, [(h(1, 0, r), 1) for r in range(5)])
        tail = AlgebraElement.from_terms(H, [(h(1, 0, r), 1) for r in range(3, 5)])
        runs = inner(run)
        outer = table({s: img + _outer_images(gr(1), gr(-2))[s] for s, img in ia[1].items()})
        cases += [
            runs, table(runs[1]), add(runs, inner(tail - run)), inner(tail),
            add(runs, inner(mono(h(1, 0, 7)))), inner(run + mono(h(1, 0, 7))),
            outer, add(outer, runs), table(add(outer, runs)[1]), scale(outer, gr(-1)),
            bracket(central, outer), bracket(outer, ia), bracket(outer, runs),
        ]
    key = GradingSetup.default(group).quotient.key
    for d, images in cases[:]:
        parts = d._split(key)
        reference = LeibnizCopy(group, images).components(key)
        assert sorted(parts) == sorted(reference)
        cases += [(parts[k], reference[k].images) for k in sorted(parts)]
    return cases


@pytest.mark.parametrize("name", _NORMAL_FORM_GROUPS)
def test_forms_are_equal_exactly_when_images_are(name):
    # every derivation has one normal form: two built by any constructors
    # have equal forms exactly when their images, found apart from any form,
    # are equal, and a form has no part exactly when its images are 0
    group = group_from_name(name)
    cases = _built_by_every_constructor(group, seed=101)
    verdicts = set()
    for (d, images), (p, p_images) in itertools.product(cases, repeat=2):
        same = images == p_images
        assert (d == p) == same
        verdicts.add(same)
    assert verdicts == {True, False}
    for d, images in cases:
        assert d.images == images
        assert d.is_zero() == (not any(images.values())) == (not (d.a or d.taus or d.steps))


@pytest.mark.parametrize("name", _NORMAL_FORM_GROUPS)
def test_forms_decide_without_images(monkeypatch, name):
    # ==, is_zero and decompose read the normal form, and evaluate no image
    group = group_from_name(name)
    setup = GradingSetup.default(group)
    ds = [d for d, _ in _built_by_every_constructor(group, seed=102)]
    images = _counted(monkeypatch, Derivation, "_image")
    pairs = _counted(monkeypatch, Derivation, "_image_pairs")
    equal = sum(d == p for d in ds for p in ds)
    zeros = sum(d.is_zero() for d in ds)
    components = [decompose(d, setup).components for d in ds]
    assert images == pairs == []
    assert len(ds) < equal < len(ds) ** 2 and 0 < zeros < len(ds)
    assert any(components) and not all(components)


def test_zn_commuting_bracket_multiplies_nothing(monkeypatch):
    # an inner derivation on Z^n is 0 as soon as it is built, so the bracket
    # of two 2,000-term ones makes no payload product, and neither do its
    # images
    group = group_from_name("zn:3")
    a, b = (
        AlgebraElement.from_terms(group, [(group.element(p), 1) for p in payloads])
        for payloads in ([(i, 0, 0) for i in range(2000)], [(0, i, 0) for i in range(2000)])
    )
    calls = _counted(monkeypatch, FreeAbelian, "_mul")
    bracket = Derivation.inner(a).bracket(Derivation.inner(b))
    assert bracket.is_zero() and not any(bracket.images.values())
    assert calls == []


def test_telescoping_bracket_meets_the_budget_once(monkeypatch):
    # with a = sum of x^i, 0 <= i < 600, each image d(p) of a term p of
    # b = (1 - x) y (1 - x) has 1,198 terms, and d(b) telescopes to 6: the
    # pairs of all of b's images are merged by one call, so only the
    # finished d(b) meets MAX_TERMS
    x, y = (mono(s) for s in H.generators())
    one = mono(H.identity())
    a = AlgebraElement.from_terms(H, [(h(i, 0, 0), 1) for i in range(600)])
    d, p = Derivation.inner(a), Derivation.inner((one - x) * y * (one - x))
    reference = LeibnizCopy(H, d.images).bracket(LeibnizCopy(H, p.images))
    assert len(d.apply_element(H.generators()[1])) == 1198
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    with pytest.raises(algebra.TermBudgetError, match="1198 terms"):
        Derivation.inner(a).apply_element(H.generators()[1])
    bracket = d.bracket(p)
    assert bracket.images == reference.images and not bracket.is_zero()
    assert len(bracket.a) == 6 and not bracket.steps


def _step_tables(seed, count):
    """(derivation, images) for `count` heisenberg tables, each the images of
    inner(a + run) + a central part + c1 * (x -> x*y) + c2 * (y -> y*x),
    a drawn by the sampler and run 3 to 6 members of one class's line with
    one coefficient, so that each form keeps step parts."""
    sampler = Sampler(H, seed=seed, box=3)
    rng = sampler.rng
    for _ in range(count):
        P, Q = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2), (2, 2)])
        start, c = rng.randint(-3, 3), sampler.nonzero_coefficient()
        run = AlgebraElement.from_terms(
            H, [(h(P, Q, r * gcd(P, Q)), c) for r in range(start, start + rng.randint(3, 6))]
        )
        base = Derivation.inner(sampler.algebra_element() + run) + sampler.central_derivation()
        outer = _outer_images(sampler.nonzero_coefficient(), sampler.nonzero_coefficient())
        images = {s: img + outer[s] for s, img in base.images.items()}
        yield Derivation.from_table(H, images), images


@pytest.mark.parametrize("name", _NORMAL_FORM_GROUPS + ["perm:s5"])
def test_every_constructor_agrees_with_its_table_and_support(name):
    # derivations from every constructor, and on heisenberg random tables
    # with step parts and their brackets: re-entering the images as a table
    # gives the same form, whose freshly evaluated images are the ones found
    # apart from any form; the support found from the images is the set of
    # the form's component keys; and sums cancel part by part
    group = group_from_name(name)
    setup = GradingSetup.default(group)
    cases = _built_by_every_constructor(group, seed=103)
    sampler, gens = Sampler(group, seed=105), group.generators()
    for _ in range(10):
        a = sampler.algebra_element(max_terms=6)
        cases.append((Derivation.inner(a), {s: mono(s) * a - a * mono(s) for s in gens}))
    if group.has_central_derivations():
        total = Derivation.zero(group), {s: AlgebraElement.zero(group) for s in gens}
        for _ in range(3):
            tau, z = group.random_central(sampler.rng, 2)
            total = total[0] + Derivation.central(group, tau, z), {
                s: total[1][s] + mono(s * z, t) for s, t in zip(gens, tau)
            }
            cases.append(total)
    if group == H:
        tables = list(_step_tables(seed=104, count=8))
        z = h(0, 0, 1)
        central_images = {s: mono(s * z, t) for s, t in zip(gens, [1, -2])}
        central = Derivation.central(H, [1, -2], z), central_images

        def bracket(d, p):
            reference = LeibnizCopy(H, d[1]).bracket(LeibnizCopy(H, p[1]))
            return d[0].bracket(p[0]), reference.images

        cases += tables + [bracket(t, u) for t, u in zip(tables, tables[1:])]
        cases += [bracket(central, t) for t in tables]
        cases += [
            (t + u, {s: ti[s] + ui[s] for s in gens}) for (t, ti), (u, ui) in zip(tables, tables[2:])
        ]
    multi_key = 0
    for d, images in cases:
        table = Derivation.from_table(group, dict(d.images))
        assert table == d and table._images is None
        assert table.images == d.images == images
        keys = frozenset(decompose(d, setup).components)
        assert support_cosets(d, setup) == keys
        multi_key += len(keys) > 1
    assert multi_key
    ds = [d for d, _ in cases]
    stepped = [d for d in ds if d.steps]
    assert bool(stepped) == (group == H)
    operands = stepped or ds[:20]
    for d in operands:
        assert (d + d.scale(-1)).is_zero()
    for d, p in itertools.product(operands, repeat=2):
        assert (d + p) - p == d
    # sums whose step parts share a class, so jumps of two maps are summed
    shared = any(d.steps.keys() & p.steps.keys() for d, p in itertools.combinations(stepped, 2))
    assert shared == (group == H)


def _callers(module, names):
    """{name: the scopes in `module` that call a function or method of that
    name}, each scope dotted, e.g. "Heisenberg.normal_form"."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    callers = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return callers


def test_one_path_to_a_form():
    # a table is solved only in `from_table`, which nothing in derivations.py
    # calls, and parts are brought to normal form only in `_normal`;
    # `bracket` reads no image.  In the kernels, a step part is built only by
    # the Heisenberg fold and unpacked only by the `normal_form` that hands
    # stored parts to it, by `step_terms`, which evaluates them, and by
    # `bracket_steps`, which reads two maps and builds the bracket's.  One
    # routine, `_runs`, walks running sums along residues: for a table's
    # jumps, for a step part's terms and for a bracket's jumps
    assert _callers(derivations, ["table_form", "normal_form", "from_table"]) == {
        "table_form": {"Derivation.from_table"}, "normal_form": {"_normal"}, "from_table": set(),
    }
    tree = ast.parse(Path(derivations.__file__).read_text(encoding="utf-8"))
    (bracket,) = [
        node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Derivation"
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "bracket"
    ]
    reads = {node.attr for node in ast.walk(bracket) if isinstance(node, ast.Attribute)}
    assert "steps" in reads and not reads & {"images", "_images", "_image"}
    assert _callers(groups, ["_step_part", "_jumps", "_runs"]) == {
        "_step_part": {"Heisenberg._fold", "Heisenberg.bracket_steps"},
        "_jumps": {"Heisenberg.normal_form", "Heisenberg.step_terms", "Heisenberg.bracket_steps"},
        "_runs": {"Heisenberg.table_form", "Heisenberg.step_terms", "Heisenberg.bracket_steps"},
    }
    assert not hasattr(groups, "_step_value")


def test_table_jumps_go_straight_to_the_fold(monkeypatch):
    # `Heisenberg.table_form` hands each class's jumps to the fold: no step
    # part is unpacked, and each class the table moves is packed once, by
    # the fold, which keeps one as a step part and the other as inner terms
    images = derivation_from_json(STEP_TABLE).images
    deltas = [(t * s.inverse()).payload for s, image in images.items() for t in image.support()]
    moved = {H.class_representative(e) for e in deltas if not H.is_central(e)}
    calls = {"_jumps": 0, "_step_part": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(groups, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(groups, name, counting)
    d = derivation_from_json(STEP_TABLE)
    assert len(d.steps) == 1 and d.a and len(moved) == 2
    assert calls == {"_jumps": 0, "_step_part": len(moved)}
