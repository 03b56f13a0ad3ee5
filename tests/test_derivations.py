import itertools
import random
from fractions import Fraction

import pytest

from dergrade import (
    AlgebraElement,
    Arrow,
    CapabilityError,
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
    commutator,
    decompose,
    group_from_name,
    verify_char_composition,
    verify_leibniz,
)
from dergrade import algebra, derivations
from dergrade.sampling import Sampler
from oracles import find_inner_witness, leibniz_pairs, oracle_syllables, word  # noqa: F401

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
        bad = Derivation(H, images)
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


def _kinds(group, seed):
    """One derivation of each kind over `group`, drawn with a fixed seed.  A
    group without central derivations has no "central" or "mixed" kind, and
    its "table" and "bracket" kinds are built from inner derivations."""
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
    return {
        "inner": inner,
        "central": central,
        "sum": inner + sampler.inner_derivation().scale(sampler.coefficient()),
        "mixed": mixed,
        "table": Derivation.from_table(group, dict(mixed.images)),
        "bracket": mixed.bracket(other),
    }


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
    (name, kind)
    for name in ["perm:a4", "perm:s4", "perm:s6"]
    for kind in ["inner", "sum", "table", "bracket"]
]


@pytest.mark.usefixtures("oracle_syllables")
class TestClosedFormOracle:
    """`apply_element` evaluates a closed form, or joins syllable powers
    built by binary powering; expanding the Leibniz rule along the
    element's whole word, letter by letter (`_expand`), is the oracle.  On
    a permutation group every element is checked, deepest first, both on
    the derivation as built and on a form-less copy with a fresh cache, so
    that the copy's first evaluation recurses through bases down the whole
    test-side tree (`oracles.cayley_tree`)."""

    @pytest.mark.parametrize("name, kind", _ORACLE_CASES)
    def test_matches_word_expansion(self, name, kind):
        group = group_from_name(name)
        d = _kinds(group, seed=61)[kind]
        derivations = [d]
        if name.startswith("perm:"):
            derivations.append(Derivation(group, d.images))
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
# the Sampler kinds that keep a closed form; permutation groups have no
# central derivations, and a table over one, or over Z^n, keeps a form too
_FORM_KINDS = ["inner", "sum", "central", "mixed"]
_FORM_CASES = [
    (name, kind)
    for name in _FORM_GROUPS
    for kind in _FORM_KINDS
    if not name.startswith("perm:") or kind in ("inner", "sum")
] + [(name, "table") for name in _FORM_GROUPS if name != "heisenberg"]


@pytest.mark.usefixtures("oracle_syllables")
class TestFormAgainstLeibniz:
    """Every result a closed form gives equals the Leibniz route's: a copy
    `Derivation(group, d.images)` has no form and evaluates by syllables and
    joins, the test-side ones (`oracles.syllables`) on a permutation group
    and on Z^n.  On a permutation group a table gets its form inner(w) from
    `from_table`, and on Z^n its central parts, and is compared the same
    way.  The form bracket is
    checked against the operator bracket of the copies, and its characters
    against `char_bracket_value` on the copies, which reads only their
    evaluations."""

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
        elements = self._elements(group, sampler)
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
        for other in _FORM_KINDS:
            if other not in partners:
                continue
            p, p_copy = _with_leibniz_copy(partners[other])
            bracket, reference = d.bracket(p), copy.bracket(p_copy)
            assert bracket._form is not None and reference._form is None
            assert bracket == reference
            for g in elements:
                assert bracket.apply_element(g) == reference.apply_element(g)
            for arrow in arrows + [sampler.arrow(bracket) for _ in range(10)]:
                assert bracket.character(arrow) == char_bracket_value(copy, p_copy, arrow)

        if name in ("perm:a5", "perm:a6"):
            return  # perfect: the grading by G/G' is trivial
        setup = GradingSetup.default(group)
        components = decompose(d, setup).components
        reference = decompose(copy, setup).components
        assert list(components) == list(reference)
        for key, component in components.items():
            leibniz = reference[key]
            assert component._form is not None and leibniz._form is None
            assert component == leibniz
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
        w = d._form.a
        assert len(w) <= len(a)
        assert Derivation.inner(w) == Derivation.inner(a)
        assert d.is_inner_witness(w)


@pytest.mark.parametrize("name", ["perm:s4", "zn:3"])
def test_form_less_copy_is_not_evaluated(name):
    # only heisenberg has syllables: over any other kernel every constructor
    # keeps a closed form, and a copy built directly from a form's images
    # evaluates no element but a generator.  The same images through
    # `from_table` get their form back and evaluate.
    group = group_from_name(name)
    if name == "zn:3":
        d = Derivation.central(group, [2, -1, 5], group.element((1, -1, 2)))
        payloads = [(0, 0, 0), (1, 1, 0), (-1, 0, 0), (3, -2, 1), (_BIG, -_BIG, 3)]
        elements = [group.element(p) for p in payloads]
    else:
        a = mono(group.element((2, 3, 1, 4))) + mono(group.element((2, 1, 3, 4)), 3)
        d = Derivation.inner(a)
        elements = group.finite_elements()
    copy = Derivation(group, d.images)
    assert copy._form is None
    generators = group.generators()
    refused = [g for g in elements if g not in generators]
    assert len(refused) >= 4
    for g in refused:
        with pytest.raises(CapabilityError, match=f"{name} has no syllables"):
            copy.apply_element(g)
        with pytest.raises(CapabilityError):
            copy.apply(mono(g))
        with pytest.raises(CapabilityError):
            copy.character(Arrow(g, g))
    table = Derivation.from_table(group, dict(d.images))
    assert table._form is not None and table == d
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
    """Fail any `apply_element` call that makes more than `_JOIN_LIMIT`
    joins, as soon as it makes one more."""
    join, apply_element = Derivation._join, Derivation.apply_element
    joins = [0]

    def counted_join(self, left, right):
        joins[0] += 1
        if joins[0] > _JOIN_LIMIT:
            raise AssertionError(f"more than {_JOIN_LIMIT} joins in one evaluation")
        return join(self, left, right)

    def counted_apply_element(self, g):
        joins[0] = 0
        return apply_element(self, g)

    monkeypatch.setattr(Derivation, "_join", counted_join)
    monkeypatch.setattr(Derivation, "apply_element", counted_apply_element)


def _with_leibniz_copy(d):
    """d, and the copy of it with no closed form, which evaluates by
    syllables and joins: on a permutation group or Z^n only where the
    test-side syllables are installed (`oracle_syllables`)."""
    copy = Derivation(d.group, d.images)
    assert d._form is not None and copy._form is None
    return [d, copy]


class TestBoundedCost:
    """Elements far outside any word one could spell out: each evaluation
    makes at most `_JOIN_LIMIT` joins, and the values match the closed
    forms, on each derivation and on its copy with no closed form."""

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

    def test_zn_inner_and_central(self, oracle_syllables):
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
    """x^a y^b with a and b at +-10^12: each evaluation makes at most
    `_JOIN_LIMIT` joins, `syllables` may return at most 4 syllables, each
    with a base among x, y and z = [x, y], and the values match the closed
    forms.  A derivation with a closed form asks for no syllables, so each
    test also runs on its copy with no closed form, which must ask."""

    BIG = 10**12
    ELEMENTS = [(BIG, -BIG, 7), (-BIG, BIG, BIG), (BIG, BIG, -BIG), (-BIG, -3, 0)]

    @pytest.fixture(autouse=True)
    def guarded(self, monkeypatch):
        _bar_long_evaluations(monkeypatch)
        split = Heisenberg.syllables
        bases = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        calls = []

        def syllables(self, p):
            out = split(self, p)
            if len(out) > 4 or any(w not in bases for w, _ in out):
                raise AssertionError(f"syllables of {p!r}: {out!r}")
            calls.append(p)
            return out

        monkeypatch.setattr(Heisenberg, "syllables", syllables)
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
        a = mono(h(1, 1, 0)) + mono(h(2, -1, 0), 3)
        self._check_inner(Derivation.from_table(H, dict(Derivation.inner(a).images)), a)

    def test_central(self):
        z = h(0, 0, 3)
        for d in _with_leibniz_copy(Derivation.central(H, [2, -3], z)):
            for payload in self.ELEMENTS:
                g = h(*payload)
                a, b, _ = payload
                assert d.apply_element(g) == mono(g * z, 2 * a - 3 * b)


def _cold_jobs():
    """Jobs that compute on payloads from end to end, each on a derivation
    built beforehand with a cold cache: no `GroupElement` is needed inside.
    Each job runs on the derivation with its closed form and on its copy
    with none, which evaluates by syllables and joins (on zn:3 the
    test-side ones).  Checking a permutation table, and grading it, is a
    job too."""
    Z3 = FreeAbelian(3)
    inner = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3))
    central = Derivation.central(Z3, [2, -1, 5], Z3.element((1, -1, 2)))
    g, e = h(10**6, 3, 7), Z3.element((10**6, -3, 7))
    setup = GradingSetup.default(H)
    jobs = {}
    for suffix, (inner_d, central_d) in zip(
        ["", "-leibniz"], zip(_with_leibniz_copy(inner), _with_leibniz_copy(central))
    ):
        jobs[f"apply-heisenberg{suffix}"] = lambda d=inner_d: d.apply_element(g)
        jobs[f"apply-zn:3{suffix}"] = lambda d=central_d: d.apply_element(e)
        jobs[f"decompose-inner{suffix}"] = lambda d=inner_d: decompose(d, setup)
    S5 = group_from_name("perm:s5")
    table = dict(Sampler(S5, seed=5).derivation(allow_table=False).images)
    s5_setup = GradingSetup.default(S5)
    jobs["from_table-perm:s5"] = lambda: Derivation.from_table(S5, table)
    jobs["decompose-table-perm:s5"] = lambda: decompose(Derivation.from_table(S5, table), s5_setup)
    return jobs


@pytest.mark.parametrize("job", _cold_jobs().values(), ids=_cold_jobs().keys())
def test_kernels_build_no_elements(monkeypatch, oracle_syllables, job):
    # syllables, Leibniz pairs and quotient keys are payload maps, so
    # evaluating and grading never wrap a normal form into an element
    init, built = GroupElement.__init__, []

    def counting(self, group, payload):
        built.append(payload)
        init(self, group, payload)

    monkeypatch.setattr(GroupElement, "__init__", counting)
    assert job()
    assert built == []


def test_syllable_bases_not_rebuilt(monkeypatch):
    # once x, y and z = [x, y] have images, an element with a, b and c - ab
    # all positive needs no inverse at all; the closed form needs none ever
    a = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3)
    form, d = _with_leibniz_copy(Derivation.inner(a))
    d.apply_element(h(1, 1, 2))
    g = h(1000, 2000, 2_003_000)
    expected = mono(g) * a - a * mono(g)
    inv, calls = Heisenberg._inv, []

    def counting(self, p):
        calls.append(p)
        return inv(self, p)

    monkeypatch.setattr(Heisenberg, "_inv", counting)
    minus_x = h(-3, 0, 0)
    assert form.apply_element(g) == expected
    assert form.apply_element(minus_x) == mono(minus_x) * a - a * mono(minus_x)
    assert calls == []
    assert d.apply_element(g) == expected
    assert calls == []
    # the count sees evaluation: a negative exponent inverts its base
    d.apply_element(minus_x)
    assert calls == [(1, 0, 0)]


def test_second_heisenberg_instance_reads_the_same_image():
    # an equal group's element passes the membership check
    d = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3))
    first = d.apply_element(h(5, -2, 7))
    other = Heisenberg().element((5, -2, 7))
    assert other.group is not H
    assert d.apply_element(other) == first


# d(x) = x*y, d(y) = 0: |supp d(x^a)| = a, so the image grows with a
GROWING_TABLE = {"x": [[[1, 1, 0, 1], [1, 1, 0]]], "y": []}


def growing_derivation():
    x, y = H.generators()
    return Derivation.from_table(H, {x: mono(x * y), y: AlgebraElement.zero(H)})


def test_term_budget_rejects_growing_image(monkeypatch):
    monkeypatch.setattr(algebra, "MAX_TERMS", 64)
    d = growing_derivation()
    assert len(d.apply_element(h(64, 0, 0))) == 64
    built, join = [], Derivation._join

    def recording(self, left, right):
        result = join(self, left, right)
        # fails at once, rather than filling memory, if the budget is ignored
        assert len(result[1]) <= 64
        built.append(len(result[1]))
        return result

    monkeypatch.setattr(Derivation, "_join", recording)
    with pytest.raises(derivations.TermBudgetError, match="MAX_TERMS = 64"):
        d.apply_element(h(10**12, 0, 0))
    assert built
    assert len(d._bases) <= 6 and all(len(img) <= 64 for img in d._bases.values())


def test_heisenberg_table_keeps_only_its_bases():
    # a form-less table keeps d(w) for x, y, z = [x, y] and their inverses
    # alone, whatever it evaluates; a form keeps no image but `images`
    a = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3)
    form = Derivation.inner(a) + Derivation.central(H, [1, -2], h(0, 0, 1))
    d = Derivation.from_table(H, dict(form.images))
    assert d._form is None and form._bases is None
    bases = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)}
    rng = random.Random("heisenberg-bases")
    for i in range(200):
        box = 10**12 if i % 4 == 0 else 5
        g = h(*(rng.randint(-box, box) for _ in range(3)))
        assert d.apply_element(g) == form.apply_element(g)
        assert set(d._bases) <= bases
    assert set(d._bases) == bases and form._bases is None


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
        assert table == d and table._form is not None


def leibniz_pair_scan(d, elements):
    """The Leibniz rule on every pair of `elements`: the brute-force table
    check that `from_table`'s pair list replaces."""
    return all(
        d.apply_element(g * h)
        == d.apply_element(g) * mono(h) + mono(g) * d.apply_element(h)
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


@pytest.mark.usefixtures("oracle_syllables")
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
                expected = leibniz_pair_scan(Derivation(group, images), elements)
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
                d = Derivation(group, images)
                row = []
                for p, q in leibniz_pairs(group):
                    defect = (
                        d._image(group._mul(p, q))
                        - d._image(p) * AlgebraElement(group, {q: gr(1)})
                        - AlgebraElement(group, {p: gr(1)}) * d._image(q)
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


def test_table_validation_joins(monkeypatch):
    # a permutation table is checked by its potential, with no join, and
    # its form evaluates d(g) with none either
    calls = _counted(monkeypatch, Derivation, "_join")
    for group, images in _valid_tables():
        d = Derivation.from_table(group, images)
        for g in group.finite_elements()[::7]:
            d.apply_element(g)
    assert calls == []


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
    """The `_kinds` derivations over `group` and the graded components of
    its mixed one (its sum on a permutation group)."""
    cases = _kinds(group, seed)
    base = cases.get("mixed", cases["sum"])
    components = decompose(base, GradingSetup.default(group)).components
    for i, component in enumerate(components.values()):
        cases[f"component-{i}"] = component
    return cases


class TestCharacterByFormula:
    """chi(u, v) of a form is read as a[v^-1 u] - a[u v^-1] +
    tau_{v^-1 u}(v), with no image built (no `_Form.image` call); it
    equals the coefficient of u in d(v) on the form-less copy
    `Derivation(G, d.images)`, which evaluates by syllables and joins (the
    test-side ones on a permutation group and on Z^n).  Half
    the arrows have u in the support of d(v)."""

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
    def test_matches_the_copy(self, monkeypatch, oracle_syllables, name):
        group = group_from_name(name)
        sampler = Sampler(group, seed=91, box=3)
        images = _counted(monkeypatch, derivations._Form, "image")
        nonzero = 0
        for kind, d in _character_cases(group, seed=92).items():
            copy = Derivation(group, d.images)
            for arrow in self._arrows(group, sampler, copy):
                expected = copy.apply_element(arrow.v).coefficient(arrow.u)
                nonzero += bool(expected)
                images.clear()
                assert d.character(arrow) == expected, (kind, arrow)
                if d._form is not None:
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


def test_forms_build_no_unread_image(monkeypatch, oracle_syllables):
    # a cold character is read off the form, and a sum, multiple or bracket
    # of forms builds its generator images only when they are read
    calls = _counted(monkeypatch, derivations._Form, "image")
    for name in ["perm:s6", "heisenberg"]:
        group = group_from_name(name)
        sampler = Sampler(group, seed=95, box=3)
        a = sampler.algebra_element(max_terms=4)
        vs = [sampler.word_element(4) for _ in range(10)]
        copy = Derivation(group, Derivation.inner(a).images)
        arrows = [Arrow(u, v) for v in vs for u in copy.apply_element(v).support()]
        arrows += [Arrow(sampler.element(), v) for v in vs]
        expected = [copy.character(arrow) for arrow in arrows]
        assert any(expected)
        calls.clear()
        assert [Derivation.inner(a).character(arrow) for arrow in arrows] == expected
        assert calls == []

    a, b = mono(h(1, 0, 0)) + mono(h(0, 1, 2), 3), mono(h(-1, 2, 0), 2) + mono(h(0, 0, 1))
    total = Derivation.inner(a) + Derivation.central(H, [1, -2], h(0, 0, 1)).scale(gr(3))
    bracket = total.bracket(Derivation.inner(b))
    assert calls == []
    images = bracket.images
    assert sorted(calls) == sorted(s.payload for s in H.generators())
    assert bracket.images is images and len(calls) == 2
    reference = Derivation(H, dict(total.images)).bracket(Derivation(H, Derivation.inner(b).images))
    assert bracket == reference and not bracket.is_zero()


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
def test_zn_tables_keep_a_central_form(oracle_syllables, n):
    # 200 tables a rank: each keeps a form whose images are the table, and
    # whose evaluation, grading and brackets equal those of the form-less
    # copy, which evaluates by the test-side syllables and joins
    group = FreeAbelian(n)
    setup = GradingSetup.default(group)
    rng = random.Random(f"zn-tables/{n}")
    previous = None
    for images in _zn_tables(n, 200, seed=96 + n):
        d = Derivation.from_table(group, images)
        copy = Derivation(group, images)
        assert d._form is not None and not d._form.a and copy._form is None
        assert d.images == images
        for box in (3, 10**12):
            g = group.element([rng.randint(-box, box) for _ in range(n)])
            assert d.apply_element(g) == copy.apply_element(g)
        components = decompose(d, setup).components
        reference = decompose(copy, setup).components
        assert list(components) == list(reference)
        assert all(components[k] == reference[k] for k in components)
        if previous is not None:
            p, p_copy = previous
            assert d.bracket(p) == copy.bracket(p_copy)
        previous = d, copy
