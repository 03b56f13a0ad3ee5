import ast
import itertools
import math
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from dergrade import (
    AlgebraElement,
    Arrow,
    CompositionError,
    Derivation,
    FreeAbelian,
    GaussianRational,
    GradingSetup,
    GroupElement,
    GroupMismatchError,
    Heisenberg,
    PermutationGroup,
    QuotientError,
    central_component_key,
    char_bracket_value,
    char_inner_formula,
    check_bracket_closure,
    conjugate,
    decompose,
    group_from_name,
    inner_graded_decomposition,
    project,
    support_cosets,
)
from dergrade import groups
from dergrade.cli import main
from dergrade.groups import MAX_PERM_DEGREE, MAX_ZN_RANK, integer_entries
from dergrade.sampling import Sampler
from dergrade.verification import run_all
from oracles import bfs_table_form, cayley_tree, word
from oracles import syllables as oracle_syllables

H = Heisenberg()
Z2 = FreeAbelian(2)

triples = st.tuples(
    st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
)


def h(a, b, c):
    return H.element((a, b, c))


class TestHeisenberg:
    def test_mul_examples(self):
        assert (h(1, 0, 0) * h(0, 1, 0)).payload == (1, 1, 1)
        assert (h(0, 1, 0) * h(1, 0, 0)).payload == (1, 1, 0)
        assert (h(3, -2, 7) * H.identity()).payload == (3, -2, 7)

    def test_inv_examples(self):
        assert h(1, 2, 3).inverse().payload == (-1, -2, -1)
        assert H.identity().inverse() == H.identity()
        assert Z2.element((3, -1)).inverse().payload == (-3, 1)

    @given(triples, triples, triples)
    def test_associative(self, p, q, r):
        a, b, c = h(*p), h(*q), h(*r)
        assert (a * b) * c == a * (b * c)

    @given(triples)
    def test_inverse_cancels(self, p):
        g = h(*p)
        assert g * g.inverse() == H.identity()
        assert g.inverse() * g == H.identity()

    def test_mixed_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            h(0, 0, 0) * Z2.element((0, 0))

    def test_word_reassembles(self):
        rng = random.Random(7)
        for _ in range(200):
            g = h(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            prod = H.identity()
            for letter in word(H, g):
                prod = prod * letter
            assert prod == g


def _power(group, w, k):
    """The payload of w^k, by |k| payload products."""
    out = group.identity().payload
    for _ in range(abs(k)):
        out = group._mul(out, w)
    return out if k >= 0 else group._inv(out)


@pytest.mark.parametrize("name, max_syllables", [("heisenberg", 4)], ids=["heisenberg"])
def test_syllables_reassemble(name, max_syllables):
    # g = w1^k1 * w2^k2 * ..., each base a generator or z = [x, y], whose
    # syllables are generators: the test-side syllables the join route of
    # `oracles.LeibnizCopy` evaluates along
    group = group_from_name(name)
    gens = [s.payload for s in group.generators()]
    rng = random.Random(11)
    for _ in range(100):
        g = group.random_element(rng, 4)
        syllables = oracle_syllables(group, g.payload)
        assert len(syllables) <= max_syllables
        prod = group.identity().payload
        for w, k in syllables:
            if w not in gens:
                assert all(v in gens for v, _ in oracle_syllables(group, w))
            prod = group._mul(prod, _power(group, w, k))
        assert prod == g.payload


# Every checked entry point, fed one value from another group.  Heisenberg and
# zn:3 payloads have the same length, so only the membership check can raise.
Z3 = FreeAbelian(3)
_X, _FOREIGN = h(1, 0, 0), Z3.element((1, 0, 0))
_A, _FA = AlgebraElement.monomial(_X), AlgebraElement.monomial(_FOREIGN)
_D, _FD = Derivation.inner(_A), Derivation.inner(_FA)
_SETUP = GradingSetup.default(H)
Z1 = FreeAbelian(1)
MIXED = {
    "element-mul-heisenberg-zn3": lambda: _X * _FOREIGN,
    "element-mul-s4-a4": lambda: (
        group_from_name("perm:s4").generators()[0]
        * group_from_name("perm:a4").generators()[0]
    ),
    "arrow": lambda: Arrow(_X, _FOREIGN),
    "algebra-add": lambda: _A + _FA,
    "algebra-sub": lambda: _A - _FA,
    "algebra-mul": lambda: _A * _FA,
    "algebra-from-terms": lambda: AlgebraElement.from_terms(H, [(_FOREIGN, 1)]),
    "derivation-add": lambda: _D + _FD,
    "derivation-sub": lambda: _D - _FD,
    "derivation-bracket": lambda: _D.bracket(_FD),
    # zn:1 has no Leibniz pairs, so only the image check sees the foreign group
    "derivation-from-table": lambda: Derivation.from_table(
        Z1, {Z1.generators()[0]: AlgebraElement.zero(Z3)}
    ),
    "derivation-apply": lambda: _D.apply(_FA),
    "derivation-apply-element": lambda: _D.apply_element(_FOREIGN),
    "derivation-character": lambda: _D.character(Arrow(_FOREIGN, _FOREIGN)),
    "derivation-central": lambda: Derivation.central(H, [1, 0], _FOREIGN),
    "inner-witness": lambda: _D.is_inner_witness(_FA),
    "char-inner-formula": lambda: char_inner_formula(_X, Arrow(_FOREIGN, _FOREIGN)),
    "char-bracket-value": lambda: char_bracket_value(_D, _FD, Arrow(_X, _X)),
    "grading-setup": lambda: GradingSetup(H, Z3.derived_quotient()),
    "support-cosets": lambda: support_cosets(_FD, _SETUP),
    "project": lambda: project(_FD, (1, 0), _SETUP),
    "decompose": lambda: decompose(_FD, _SETUP),
    "bracket-closure": lambda: check_bracket_closure(_D, _FD, _SETUP),
    "central-component-key": lambda: central_component_key([1, 0], _FOREIGN, _SETUP),
    "inner-graded-decomposition": lambda: inner_graded_decomposition(
        [1], [_FOREIGN], _SETUP
    ),
}


@pytest.mark.parametrize("call", MIXED.values(), ids=MIXED.keys())
def test_entry_point_rejects_foreign_group(call):
    with pytest.raises(GroupMismatchError):
        call()


class TestArrows:
    def test_source_target_example(self):
        phi = Arrow(h(1, 1, 0), h(0, 1, 0))
        assert phi.source() == h(1, 0, 0)
        assert phi.target() == h(1, 0, -1)

    def test_identity_v_arrow(self):
        g = h(2, -1, 3)
        phi = Arrow(g, H.identity())
        assert phi.source() == g
        assert phi.target() == g

    def test_abelian_source_equals_target(self):
        phi = Arrow(Z2.element((3, 0)), Z2.element((1, 0)))
        assert phi.source() == phi.target() == Z2.element((2, 0))

    def test_compose_additive_example(self):
        Z1 = FreeAbelian(1)
        phi = Arrow(Z1.element((3,)), Z1.element((1,)))
        psi = Arrow(Z1.element((5,)), Z1.element((3,)))
        out = phi.compose(psi)
        assert (out.u.payload, out.v.payload) == ((6,), (4,))
        assert out.source() == psi.source()
        assert out.target() == phi.target()

    def test_compose_rejects_noncomposable(self):
        Z1 = FreeAbelian(1)
        phi = Arrow(Z1.element((3,)), Z1.element((1,)))
        psi = Arrow(Z1.element((4,)), Z1.element((3,)))
        with pytest.raises(CompositionError) as err:
            phi.compose(psi)
        assert err.value.source == Z1.element((2,))
        assert err.value.target == Z1.element((1,))

    def test_composition_coherence_random(self):
        # S(phi o psi) == S(psi) and T(phi o psi) == T(phi)
        rng = random.Random(11)
        for _ in range(300):
            psi = Arrow(
                h(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
                h(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)),
            )
            v2 = h(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            phi = Arrow(v2 * psi.target(), v2)
            out = phi.compose(psi)
            assert out.source() == psi.source()
            assert out.target() == phi.target()


def count_products(monkeypatch) -> list:
    """A list that grows by one on each permutation product: each call of
    `groups._perm_mul` and of every map `groups._right_mul` builds."""
    calls = []
    perm_mul, right_mul = groups._perm_mul, groups._right_mul

    def counting_mul(g, h):
        calls.append(1)
        return perm_mul(g, h)

    def counting_right_mul(h):
        times = right_mul(h)

        def counting(g):
            calls.append(1)
            return times(g)

        return counting

    monkeypatch.setattr(groups, "_perm_mul", counting_mul)
    monkeypatch.setattr(groups, "_right_mul", counting_right_mul)
    return calls


class TestConjugacy:
    def test_conjugate_examples(self):
        assert conjugate(h(0, 1, 0), h(1, 0, 0)) == h(1, 0, -1)
        assert conjugate(h(5, -2, 9), H.identity()) == H.identity()
        for t in [h(1, 2, 3), h(-4, 0, 1)]:
            assert conjugate(t, h(0, 0, 5)) == h(0, 0, 5)

    def test_is_conjugate_examples(self):
        rep = H.class_representative
        assert rep((1, 0, 0)) == rep((1, 0, -1))
        assert rep((0, 0, 1)) != rep((0, 0, 2))
        assert rep((2, 3, 1)) == rep((2, 3, 1))

    def test_closed_form_matches_brute_force(self):
        # conjugators in the box |p|,|q|,|r| <= 5 reach every class member of
        # the elements in the box |a|,|b|,|c| <= 2
        conjugators = [
            h(p, q, r)
            for p, q, r in itertools.product(range(-5, 6), repeat=3)
        ]
        box = [
            h(a, b, c) for a, b, c in itertools.product(range(-2, 3), repeat=3)
        ]
        classes = {g: {conjugate(t, g) for t in conjugators} for g in box}
        for a in box:
            for b in box:
                same_class = H.class_representative(a.payload) == H.class_representative(b.payload)
                assert same_class == (b in classes[a])

    def test_class_representative_consistent(self):
        rng = random.Random(3)
        for _ in range(300):
            a = h(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            t = h(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            assert H.class_representative(a.payload) == H.class_representative(
                conjugate(t, a).payload
            )
            rep = H.class_representative(a.payload)
            assert H.class_representative(rep) == rep

    def test_arrows_stay_in_class_heisenberg(self):
        # source and target of any arrow are conjugate
        rng = random.Random(5)
        for _ in range(1000):
            phi = Arrow(
                h(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
                h(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)),
            )
            assert H.class_representative(phi.source().payload) == H.class_representative(
                phi.target().payload
            )

    def test_arrows_stay_in_class_s4_exhaustive(self):
        S4 = PermutationGroup.symmetric(4)
        elements = S4.finite_elements()
        for u in elements:
            for v in elements:
                phi = Arrow(u, v)
                assert phi.source().payload in S4.conjugacy_class(phi.target().payload)

    def test_class_built_once_for_all_members(self, monkeypatch):
        S6 = PermutationGroup.symmetric(6)
        calls = count_products(monkeypatch)
        first = (2, 1, 3, 4, 5, 6)
        rep = S6.class_representative(first)
        # the class of `first` is searched in the arrow forest on this first
        # read, along its orbit under conjugation by the two generators: s x
        # for each member x and generator s, |class| * |gens| products
        assert len(calls) == 15 * 2
        calls.clear()
        other = (1, 2, 3, 4, 6, 5)
        assert S6.class_representative(other) == rep
        assert first in S6.conjugacy_class(other)
        assert S6.identity().payload not in S6.conjugacy_class(other)
        assert len(S6.conjugacy_class(other)) == 15
        assert calls == []

    @pytest.mark.parametrize("name", ["perm:s5", "perm:s6"])
    def test_classes_are_listed_in_member_order(self, name):
        # each class is searched in one pass from the element read, here its
        # greatest member, and listed sorted, its root first
        group = fresh_group(name)
        for p in reversed(group._elements):
            group.class_representative(p)
        forest = group._forest
        assert forest.targets is None and len(forest.classes) > 5
        for root, members in forest.classes.items():
            assert members == sorted(members) and members[0] == group._elements[root]
        assert len(forest.edges) == len(group._elements) - len(forest.classes)

    @pytest.mark.parametrize("name", ["perm:s4", "perm:a5", "perm:s5"])
    def test_normal_form_reads_searched_classes_by_payload(self, name, monkeypatch):
        # the first forms search the classes they touch; once all are
        # searched, a form reads each term's class with one lookup by
        # payload and searches nothing, with the same terms in the same order
        rng = random.Random(name)
        members = fresh_group(name)._elements
        forms = [
            {p: GaussianRational(rng.randint(-2, 2) or 1) for p in rng.sample(members, k)}
            for k in (1, 2, 3, 5, 8, len(members) // 2, len(members))
            for _ in range(4)
        ]
        cold = []
        for a in forms:
            group = fresh_group(name)
            cold.append(group.normal_form(a))
        group._forest.complete()
        calls = []
        root = groups._ArrowForest.root
        monkeypatch.setattr(
            groups._ArrowForest, "root", lambda forest, p: calls.append(p) or root(forest, p)
        )
        for a, form in zip(forms, cold):
            out = group.normal_form(a)
            assert out == form and list(out[0]) == list(form[0])
        assert calls == []


class TestCentrality:
    def test_examples(self):
        assert H.is_central((0, 0, 7))
        assert not H.is_central((1, 0, 0))
        assert H.is_central(H.identity().payload)

    def test_z2_all_central(self):
        assert Z2.is_central((4, -1))

    def test_info_builds_centre_once(self, monkeypatch, capsys):
        calls = count_products(monkeypatch)
        monkeypatch.setattr(groups, "_KERNELS", {})
        assert main(["info", "--group", "perm:s6"]) == 0
        assert "stem group: yes" in capsys.readouterr().out
        info_calls = len(calls)
        assert info_calls > 0
        calls.clear()
        # a fresh s6, its centre and its commutator subgroup, each built once
        S6 = PermutationGroup.symmetric(6)
        S6.center_payloads()
        S6.derived_payloads()
        assert info_calls == len(calls)
        assert S6.center_payloads() is S6.center_payloads()

        conjugations = []
        conjugate = groups._conjugate

        def counting_conjugate(s, times_si, g):
            conjugations.append(g)
            return conjugate(s, times_si, g)

        # patched before the group is built: its conjugation maps bind it
        monkeypatch.setattr(groups, "_conjugate", counting_conjugate)
        S6 = PermutationGroup.symmetric(6)
        calls.clear()
        # the centre is solved on the 6 points: no member is conjugated
        # or multiplied
        assert S6.center_payloads() == {S6.identity().payload}
        assert conjugations == [] and calls == []
        # G' grows by whole cosets of the subgroup reached so far: fewer
        # products, gathers included, than one per member and generator
        derived = S6.derived_payloads()
        assert 0 < len(calls) < len(derived) * len(S6.generators())
        assert len(conjugations) < len(derived)


class TestQuotients:
    def test_heisenberg_keys(self):
        q = H.derived_quotient()
        assert q.key((3, -2, 17)) == (3, -2)
        assert q.key((0, 0, 9)) == q.identity_key() == (0, 0)
        assert q.key((0, 0, -4)) == q.identity_key()
        assert q.key((1, 0, 0)) != q.identity_key()

    def test_s4_sign_key(self):
        S4 = PermutationGroup.symmetric(4)
        q = S4.derived_quotient()  # N = A4
        transposition = (2, 1, 3, 4)
        assert q.key_name(q.key(transposition)) == "odd"
        assert q.key_name(q.identity_key()) == "even"

    def test_key_composition_random(self):
        q = H.derived_quotient()
        rng = random.Random(13)
        for _ in range(500):
            g = h(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            k = h(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            assert q.key((g * k).payload) == q.combine(q.key(g.payload), q.key(k.payload))

    def test_classes_stay_in_cosets(self):
        q = H.derived_quotient()
        rng = random.Random(17)
        for _ in range(1000):
            a = h(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            t = h(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            assert q.key(conjugate(t, a).payload) == q.key(a.payload)

    def test_s4_mod_v4_rejected_with_counterexample(self):
        S4 = PermutationGroup.symmetric(4)
        v4 = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
        with pytest.raises(QuotientError) as err:
            S4.quotient_by(v4)
        diag = err.value.diagnostic
        # some class escapes its coset: 6 transpositions cannot fit in a
        # 4-element coset
        a = S4.element(diag["element"])
        cls = {S4.element(p).payload for p in diag["conjugacy_class"]}
        coset = {S4.element(p).payload for p in diag["coset"]}
        assert cls == S4.conjugacy_class(a.payload)
        assert coset == {(a * S4.element(n)).payload for n in v4}
        assert not cls <= coset

    def test_transposition_class_escapes_v4_coset(self):
        # the concrete enumeration behind the rejection above
        S4 = PermutationGroup.symmetric(4)
        v4 = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
        t = S4.element((2, 1, 3, 4))
        cls = S4.conjugacy_class(t.payload)
        coset = {(t * S4.element(n)).payload for n in v4}
        assert len(cls) == 6 and len(coset) == 4
        assert not cls <= coset

    def test_s4_mod_a4_accepted(self):
        S4 = PermutationGroup.symmetric(4)
        a4 = sorted(S4.derived_payloads())
        q = S4.quotient_by(a4)
        assert q.key((2, 1, 3, 4)) != q.identity_key()

    def test_non_subgroup_rejected(self):
        S4 = PermutationGroup.symmetric(4)
        with pytest.raises(QuotientError):
            S4.quotient_by([(1, 2, 3, 4), (2, 1, 3, 4), (2, 3, 1, 4)])

    @pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:s4"])
    def test_derived_quotients_compare_by_value(self, name):
        # each derived_quotient() call builds a new quotient; equal ones give
        # equal setups, also once pickled
        group = group_from_name(name)
        q, again = group.derived_quotient(), group.derived_quotient()
        assert q is not again and q == again and hash(q) == hash(again)
        setup = GradingSetup.default(group)
        assert setup == GradingSetup.default(group)
        copy = pickle.loads(pickle.dumps(setup))
        assert copy == setup and hash(copy) == hash(setup)

    def test_explicit_quotients_compare_by_subgroup_and_group(self):
        S4, A4 = group_from_name("perm:s4"), group_from_name("perm:a4")
        a4 = sorted(S4.derived_payloads())
        whole = [g.payload for g in S4.finite_elements()]
        q = S4.quotient_by(a4)
        assert q == S4.quotient_by(reversed(a4)) == S4.derived_quotient()
        assert hash(q) == hash(S4.quotient_by(a4)) == hash(S4.derived_quotient())
        assert q == PermutationGroup.symmetric(4).quotient_by(a4)
        # another N, or the same N in another group
        assert q != S4.quotient_by(whole)
        assert q != A4.quotient_by(a4) and A4.quotient_by(a4) == A4.quotient_by(a4)
        assert H.derived_quotient() != group_from_name("zn:3").derived_quotient()
        assert H.derived_quotient() != q and q != object()


PERM_NAMES = ["perm:s3", "perm:s4", "perm:s5", "perm:s6",
              "perm:a4", "perm:a5", "perm:a6"]


def sympy_group(generator_payloads):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup([
        combinatorics.Permutation([i - 1 for i in p]) for p in generator_payloads
    ])


def payloads(sym_group):
    return frozenset(tuple(i + 1 for i in p.array_form)
                     for p in sym_group.generate())


def fresh_group(name):
    """The group `name` newly built, with no class or table cached by
    another test."""
    kind, degree = name[len("perm:")], int(name[len("perm:") + 1:])
    build = PermutationGroup.symmetric if kind == "s" else PermutationGroup.alternating
    return build(degree)


# Permutation products as Python loops, kept as oracles for the kernel's
# gathers: (g k)(i) = g(k(i)), one-line and 1-based.
def list_product(g, k):
    return tuple([g[i - 1] for i in k])


def list_inverse(t):
    return tuple(sorted(range(1, len(t) + 1), key=lambda i: t[i - 1]))


def scanned_class(a, elements):
    """{t a t^-1 : t in G}, by a scan over all of G."""
    return frozenset(list_product(list_product(t, a), list_inverse(t)) for t in elements)


def assert_members(group, generators):
    """The closure, grown by cosets, holds exactly the members that a
    frontier search from the identity (`oracles.cayley_tree`) and sympy
    reach from the generators, each once, sorted."""
    expected = payloads(sympy_group(generators))
    assert group._elements == sorted(cayley_tree(group))
    assert frozenset(group._elements) == expected, generators


D4 = [(2, 3, 4, 1), (3, 2, 1, 4)]

# Intransitive and otherwise odd-shaped groups, (degree, generators)
ODD_SHAPES = [
    (4, [(2, 1, 3, 4), (1, 2, 4, 3)]),
    (5, [(2, 3, 1, 4, 5)]),
    (4, [(1, 2, 3, 4)]),
    # centre {e, (1 3)(2 4)}
    (4, D4),
    (6, [(2, 1, 3, 4, 5, 6), (2, 3, 1, 4, 5, 6), (1, 2, 3, 5, 4, 6), (1, 2, 3, 5, 6, 4)]),
    # the diagonal of S3 x S3
    (6, [(2, 1, 3, 5, 4, 6), (2, 3, 1, 5, 6, 4)]),
    # cyclic of order 2 * 3 * 5 * 7 * 11 = 2,310: one cycle of each length
    (28, [(2, 1, 4, 5, 3, 7, 8, 9, 10, 6, *range(12, 18), 11, *range(19, 29), 18)]),
]
ODD_SHAPE_IDS = [
    "z2xz2", "c3-on-5", "trivial-on-4", "d4", "s3xs3", "diagonal-s3", "c2310-on-28",
]


def test_closure_from_the_identity_adds_one_element_per_coset(monkeypatch):
    # from H = {e} each new right coset H r is r alone: the cyclic group of
    # order 2,310 builds one gather for its generator's right multiplication
    # and one for its conjugation, and none per element
    built = []
    right_mul = groups._right_mul
    monkeypatch.setattr(groups, "_right_mul", lambda h: built.append(h) or right_mul(h))
    degree, generators = ODD_SHAPES[ODD_SHAPE_IDS.index("c2310-on-28")]
    group = PermutationGroup("cyclic", degree, generators)
    assert len(group.finite_elements()) == 2310
    assert len(built) == 2


class TestSympyOracle:
    @pytest.mark.parametrize("name", PERM_NAMES)
    def test_derived_subgroup_and_center(self, name):
        group = group_from_name(name)
        oracle = sympy_group(s.payload for s in group.generators())
        assert oracle.order() == len(group.finite_elements())
        assert group.derived_payloads() == payloads(oracle.derived_subgroup())
        assert group.center_payloads() == payloads(oracle.center())

    @pytest.mark.parametrize("degree", range(3, 8))
    def test_alternating_is_sympys(self, degree):
        # (1 2 3) with (1 2 ... n) for odd n, or with (2 3 ... n) for even
        # n, generates A_n: order and members match sympy's
        named_groups = pytest.importorskip("sympy.combinatorics.named_groups")
        group, oracle = PermutationGroup.alternating(degree), named_groups.AlternatingGroup(degree)
        assert len(group.finite_elements()) == oracle.order()
        assert frozenset(group._elements) == payloads(oracle)

    @pytest.mark.parametrize("name", PERM_NAMES)
    def test_conjugacy_classes(self, name):
        # each class is an orbit under conjugation by the generators; sympy
        # and a scan over all of G find the same classes
        group = fresh_group(name)
        elements = [g.payload for g in group.finite_elements()]
        oracle = sympy_group(s.payload for s in group.generators())
        expected = {
            frozenset(tuple(i + 1 for i in p.array_form) for p in cls)
            for cls in oracle.conjugacy_classes()
        }
        classes = {group.conjugacy_class(a) for a in elements}
        assert classes == expected
        for cls in classes:
            assert all(scanned_class(a, elements) == cls for a in sorted(cls)[:3])
            assert group.class_representative(max(cls)) == min(cls)

    @pytest.mark.parametrize("degree, generators", ODD_SHAPES, ids=ODD_SHAPE_IDS)
    def test_centre_and_derived_of_odd_shapes(self, degree, generators):
        group = PermutationGroup("odd-shape", degree, generators)
        assert_members(group, generators)
        oracle = sympy_group(generators)
        assert group.center_payloads() == payloads(oracle.center())
        assert group.derived_payloads() == payloads(oracle.derived_subgroup())

    @pytest.mark.parametrize("seed", range(6))
    def test_centre_and_derived_of_random_groups(self, seed):
        # ten derandomized generator sets per seed, of degree 2 to 6, with
        # one to three generators each, the identity and repeats allowed
        rng = random.Random(seed)
        for _ in range(10):
            degree = rng.randint(2, 6)
            generators = []
            for _ in range(rng.randint(1, 3)):
                points = list(range(1, degree + 1))
                rng.shuffle(points)
                generators.append(tuple(points))
            group = PermutationGroup("random", degree, generators)
            assert_members(group, generators)
            oracle = sympy_group(generators)
            assert group.center_payloads() == payloads(oracle.center()), generators
            assert group.derived_payloads() == payloads(oracle.derived_subgroup()), generators

    def test_normality_verdicts_in_s4(self):
        S4 = PermutationGroup.symmetric(4)
        oracle = sympy_group(s.payload for s in S4.generators())
        candidates = {
            "transposition": [(2, 1, 3, 4)],
            "4-cycle": [(2, 3, 4, 1)],
            "v4": [(2, 1, 4, 3), (3, 4, 1, 2)],
            "a4": [(2, 3, 1, 4), (2, 1, 4, 3)],
        }
        for gens in candidates.values():
            sub = sympy_group(gens)
            try:
                S4.quotient_by(payloads(sub))
                rejected_as_not_normal = False
            except QuotientError as err:
                rejected_as_not_normal = "not normal" in str(err)
            assert rejected_as_not_normal == (not sub.is_normal(oracle))

    def test_s3_non_normal_subgroup_rejected(self):
        S3 = PermutationGroup.symmetric(3)
        with pytest.raises(QuotientError, match="not normal") as err:
            S3.quotient_by([(1, 2, 3), (2, 1, 3)])
        generators = [str(s.payload) for s in S3.generators()]
        assert any(f"by {g} escapes" in str(err.value) for g in generators)


def pair_scan_is_subgroup(group, subset):
    # the O(|N|^2) check, kept as an oracle: a finite set is a subgroup iff
    # it holds the identity and is closed under all pairwise products
    elems = {group.element(p) for p in subset}
    return group.identity() in elems and all(a * b in elems for a in elems for b in elems)


def generated(group, gens):
    out = {group.identity()}
    frontier = list(out)
    while frontier:
        frontier = [a * s for a in frontier for s in gens if a * s not in out]
        out.update(frontier)
    return out


class TestProductTable:
    @pytest.mark.parametrize("name", ["perm:s4", "perm:a5"])
    def test_every_pair_matches_perm_mul(self, name):
        group = group_from_name(name)
        elements = group.finite_elements()
        for _ in range(2):  # the first pass fills the table, the second reads it
            for g in elements:
                for k in elements:
                    prod = g * k
                    assert prod.payload == groups._perm_mul(g.payload, k.payload)
                    assert prod == group.element(prod.payload)
                    assert prod.group is group

    def test_gather_matches_list_product(self):
        # the product as a Python loop, kept as an oracle for the C-level
        # gathers `_perm_mul` and `_right_mul`
        def product(g, k):
            return tuple([g[i - 1] for i in k])

        elements = [g.payload for g in group_from_name("perm:s4").finite_elements()]
        for k in elements:
            times = groups._right_mul(k)
            for g in elements:
                assert groups._perm_mul(g, k) == times(g) == product(g, k)

    def test_s6_pairs_match_sympy(self):
        combinatorics = pytest.importorskip("sympy.combinatorics")

        def perm(g):
            return combinatorics.Permutation([i - 1 for i in g.payload])

        S6 = PermutationGroup.symmetric(6)
        elements = S6.finite_elements()
        rng = random.Random(20)
        for _ in range(2000):
            g, k = rng.choice(elements), rng.choice(elements)
            # sympy composes left to right: (p * q)(i) = q(p(i))
            oracle = perm(k) * perm(g)
            assert (g * k).payload == tuple(i + 1 for i in oracle.array_form)

    def test_elements_are_interned(self):
        # members are kept as payloads; every element handed out is a member
        # of the group itself
        S4 = PermutationGroup.symmetric(4)
        members = set(S4.finite_elements())
        assert len(members) == 24
        assert all(g.group is S4 for g in members)
        # the payload oracles return payloads of members
        payloads = {g.payload for g in S4.finite_elements()}
        for a in S4.finite_elements():
            assert S4.element(a.payload) == a and S4.element(a.payload).group is S4
            assert a.inverse() in members and a.inverse().group is S4
            assert a * a.inverse() == S4.identity()
            assert (a * a.inverse()).group is S4.identity().group is S4
            cls = S4.conjugacy_class(a.payload)
            assert cls <= payloads
            assert S4.class_representative(a.payload) == min(cls)
        inner = Derivation.inner(AlgebraElement.monomial(S4.element((2, 3, 1, 4)), 3))
        images = [img._terms for img in inner.images.values()]
        witness, central, steps = S4.table_form(images)
        assert witness and set(witness) <= payloads and central == steps == {}
        assert set(S4.generators()) <= members
        assert all(s.group is S4 for s in S4.generators())

    def test_foreign_and_unpickled_factors(self):
        first, second = PermutationGroup.symmetric(4), PermutationGroup.symmetric(4)
        a, b = first.element((2, 3, 4, 1)), second.element((2, 1, 3, 4))
        # the left factor's group multiplies, and returns its own member
        assert a * b == first.element((3, 2, 4, 1)) and (a * b).group is first
        assert b * a == second.element((1, 3, 4, 2)) and (b * a).group is second
        assert a * b == b.group.element((3, 2, 4, 1))
        c = pickle.loads(pickle.dumps(b))
        assert c.group is not first and c.group is not second
        assert a * c == first.element((3, 2, 4, 1)) and (a * c).group is first
        assert c * a == c.group.element((1, 3, 4, 2)) and (c * a).group is c.group
        assert c.inverse() == c.group.element((2, 1, 3, 4))
        assert c.inverse().group is c.group

    def test_table_bounded_by_order_squared(self):
        S5 = PermutationGroup.symmetric(5)
        assert all(result.ok for result in run_all(S5, seed=0))
        rows = [row for row in S5._products if row is not None]
        assert 0 < len(rows) <= 120
        assert all(len(row) == 120 for row in rows)

    def test_inverses_memoised_as_members(self):
        # an inverse is computed once per payload and kept as the member
        # itself, as `_mul` returns it: at most |G| entries
        S5 = PermutationGroup.symmetric(5)
        assert all(result.ok for result in run_all(S5, seed=0))
        assert 0 < len(S5._inverses) <= 120
        identity = S5.identity().payload
        for p, inverse in S5._inverses.items():
            assert inverse is S5._elements[S5._index[inverse]]
            assert groups._perm_mul(p, inverse) == identity


def table_images(group, seed, count):
    """`count` generator tables of derivations drawn from Sampler(group,
    seed), each a list of {payload: coefficient} in generator order."""
    sampler = Sampler(group, seed=seed)
    return [
        [dict(img._terms) for img in sampler.derivation(allow_table=False).images.values()]
        for _ in range(count)
    ]


def corrupted(group, images, rng):
    """Three tables that differ from `images` in one place: one coefficient
    perturbed (a term added where the image is empty), one extra term, and
    one term dropped (an unchanged copy where every image is empty)."""
    elements = [g.payload for g in group.finite_elements()]
    one = GaussianRational(rng.randint(1, 3), rng.randint(-2, 2))
    perturbed = [dict(chi) for chi in images]
    j = rng.randrange(len(images))
    t = rng.choice(sorted(perturbed[j]) or elements)
    perturbed[j][t] = perturbed[j].get(t, GaussianRational(0)) + one
    if not perturbed[j][t]:
        del perturbed[j][t]
    extra = [dict(chi) for chi in images]
    j = rng.randrange(len(images))
    free = [t for t in elements if t not in extra[j]]
    if free:
        extra[j][rng.choice(free)] = one
    dropped = [dict(chi) for chi in images]
    charged = [j for j, chi in enumerate(dropped) if chi]
    if charged:
        j = rng.choice(charged)
        del dropped[j][rng.choice(sorted(dropped[j]))]
    return [perturbed, extra, dropped]


def table_group(name):
    """The kernel `name` names, or the `ODD_SHAPES` group with that id."""
    if name in ODD_SHAPE_IDS:
        return PermutationGroup(name, *ODD_SHAPES[ODD_SHAPE_IDS.index(name)])
    return group_from_name(name)


class TestTableForm:
    @pytest.mark.parametrize(
        "name", ["perm:s3", "perm:a4", "perm:s4", "perm:a5", "perm:s5"] + ODD_SHAPE_IDS
    )
    def test_matches_breadth_first_search(self, name):
        # the arrow forest gives the verdicts and the witness, key order
        # included, of the breadth-first search it replaced, which shifts
        # each class by its first most frequent value in member order
        group = table_group(name)
        rng = random.Random(7)
        verdicts = []
        for images in table_images(group, seed=3, count=6):
            for table in [images] + corrupted(group, images, rng):
                expected = bfs_table_form(group, table)
                got = group.table_form(table)
                assert got == expected
                if got is not None:
                    assert list(got[0].items()) == list(expected[0].items())
                verdicts.append(got is None)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("name", ["perm:s3", "perm:a4", "perm:s4", "perm:a5"])
    def test_every_uncharged_arrow_is_compared(self, name):
        # an image s w - w s of inner(w) has coefficients summing to 0, so a
        # table with one term dropped is no derivation; the dropped arrow
        # now has chi = 0 and no term of d(s) points at it
        group = group_from_name(name)
        dropped = 0
        for images in table_images(group, seed=11, count=4):
            assert group.table_form(images) is not None
            for j, chi in enumerate(images):
                for t in chi:
                    table = [dict(c) for c in images]
                    del table[j][t]
                    assert group.table_form(table) is None
                    dropped += 1
        assert dropped

    def test_second_check_builds_no_product(self, monkeypatch):
        # the arrow forest is built on the first table and read after it
        S4 = PermutationGroup.symmetric(4)
        # drawn on an equal group: a derivation drawn on S4 would build its
        # forest, as its inner part is brought to normal form
        first, second = table_images(PermutationGroup.symmetric(4), seed=5, count=2)
        calls = count_products(monkeypatch)
        assert S4.table_form(first) is not None
        assert calls
        calls.clear()
        assert S4.table_form(second) is not None
        assert S4.table_form([{}, {S4.identity().payload: GaussianRational(1)}]) is None
        assert calls == []

    def test_pickled_after_a_check(self):
        S4 = PermutationGroup.symmetric(4)
        images = table_images(S4, seed=5, count=1)[0]
        form = S4.table_form(images)
        copy = pickle.loads(pickle.dumps(S4))
        assert copy == S4 and copy is not S4 and copy._forest is not None
        again = copy.table_form(images)
        assert again == form and list(again[0].items()) == list(form[0].items())
        bad = [dict(chi) for chi in images]
        bad[0][S4.identity().payload] = GaussianRational(1)
        assert copy.table_form(bad) is None


class TestOrbits:
    @pytest.mark.parametrize("name, depth", [
        ("perm:s3", 2), ("perm:s4", 6), ("perm:s5", 10), ("perm:s6", 15),
        ("perm:a4", 3), ("perm:a5", 6), ("perm:a6", 10),
    ])
    def test_closure_tree_matches_frontier_search(self, name, depth):
        # the closure has the members of the frontier search's tree and of
        # sympy's group; a form-less copy evaluates down that tree
        # (`oracles.syllables`), recursing as deep as it goes
        group = fresh_group(name)
        assert_members(group, [s.payload for s in group.generators()])
        tree = cayley_tree(group)

        def level(p):
            return 0 if tree[p] is None else 1 + level(tree[p][0])

        assert max(map(level, tree)) == depth

    def test_symmetric_builds_only_generators(self, monkeypatch):
        # members are payloads; an element is built when it is handed out
        init, built = GroupElement.__init__, []

        def counting(self, group, payload):
            built.append(payload)
            init(self, group, payload)

        monkeypatch.setattr(GroupElement, "__init__", counting)
        S6 = PermutationGroup.symmetric(6)
        assert built == [(2, 1, 3, 4, 5, 6), (2, 3, 4, 5, 6, 1)]
        assert [s.payload for s in S6.generators()] == built


class TestSubgroupCheck:
    SUBSET_ERRORS = ("must contain the identity", "not closed under")

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_pair_scan_on_s4_subsets(self, seed):
        S4 = group_from_name("perm:s4")
        elements = S4.finite_elements()
        rng = random.Random(seed)
        verdicts = []
        for i in range(40):
            subset = generated(S4, rng.sample(elements, rng.randint(1, 2)))
            x = rng.choice(elements)
            if i % 4 == 1:
                # x with x^-1, so that only the product check can fail
                subset |= {x, x.inverse()}
            elif i % 4 == 2:
                subset |= {h * x for h in subset}
            elif i % 4 == 3:
                subset = {S4.identity(), *rng.sample(elements, rng.randint(1, 8))}
            payload_set = sorted(g.payload for g in subset)
            try:
                S4.quotient_by(payload_set)
                accepted = True
            except QuotientError as err:
                accepted = not any(m in str(err) for m in self.SUBSET_ERRORS)
            expected = pair_scan_is_subgroup(S4, payload_set)
            assert accepted == expected, payload_set
            verdicts.append(expected)
        assert True in verdicts and False in verdicts

    def test_product_escape_named(self):
        S4 = group_from_name("perm:s4")
        with pytest.raises(QuotientError, match=r"not closed under products at \(.*\) \* \("):
            S4.quotient_by([(1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3)])

    @pytest.mark.parametrize("name", ["perm:s4", "perm:s5"])
    def test_rejections_name_their_witnesses(self, name):
        # random subsets and generated subgroups: a product rejection names
        # a and s in N with a * s outside it, and a normality rejection n in
        # N and a generator g of G with g n g^-1 outside it
        group = group_from_name(name)
        elements = group.finite_elements()
        rng = random.Random(name)
        seen = []
        for i in range(200):
            if i % 2:
                subset = generated(group, rng.sample(elements, rng.randint(1, 2)))
            else:
                subset = {group.identity(), *rng.sample(elements, rng.randint(1, 8))}
            try:
                group.quotient_by(sorted(g.payload for g in subset))
                continue
            except QuotientError as err:
                message = str(err)
            product = re.fullmatch(r"not closed under products at (\(.*\)) \* (\(.*\))", message)
            normal = re.fullmatch(
                r"subgroup is not normal: conjugating (\(.*\)) by (\(.*\)) escapes", message
            )
            if product:
                a, s = (group.element(ast.literal_eval(p)) for p in product.groups())
                assert a in subset and s in subset and a * s not in subset, message
                seen.append("product")
            elif normal:
                n, g = (group.element(ast.literal_eval(p)) for p in normal.groups())
                assert n in subset and g in group.generators(), message
                assert conjugate(g, n) not in subset, message
                seen.append("normal")
        assert "product" in seen and "normal" in seen

    @pytest.mark.parametrize("name", PERM_NAMES)
    def test_derived_quotients_accepted(self, name):
        group = group_from_name(name)
        quotient = group.derived_quotient()
        keys = {quotient.key(g.payload) for g in group.finite_elements()}
        assert len(keys) * len(group.derived_payloads()) == len(group.finite_elements())


def brute_force_is_sign_quotient(group, subgroup):
    # the rule FiniteQuotient once applied to all of G: N is exactly the even
    # elements, and they are half of G
    even = {p for p in (g.payload for g in group.finite_elements()) if parity(p) == 0}
    return set(subgroup) == even and len(group.finite_elements()) == 2 * len(even)


def parity(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2


A4_IN_S4 = [(2, 3, 1, 4), (2, 1, 4, 3)]
V4_IN_A4 = [(2, 1, 4, 3), (3, 4, 1, 2)]
TRANSPOSITIONS = [(2, 1, 3, 4), (1, 2, 4, 3)]


class TestDerivedQuotientOracle:
    """`derived_quotient` builds G' unchecked; `quotient_by` checks it."""

    @pytest.mark.parametrize("name", PERM_NAMES)
    def test_keys_match_checked_quotient(self, name):
        group = group_from_name(name)
        derived = group.derived_quotient()
        checked = group.quotient_by(sorted(group.derived_payloads()))
        sign = brute_force_is_sign_quotient(group, group.derived_payloads())
        for g in group.finite_elements():
            k = derived.key(g.payload)
            assert k == checked.key(g.payload)
            expected = ("odd" if parity(g.payload) else "even") if sign else str(k)
            assert derived.key_name(k) == checked.key_name(k) == expected

    @pytest.mark.parametrize("group, generators, sign", [
        (group_from_name("perm:s4"), A4_IN_S4, True),
        (group_from_name("perm:s3"), [(2, 3, 1)], True),
        (group_from_name("perm:a4"), V4_IN_A4, False),
        # N of index 2 in a group of even permutations only
        (PermutationGroup("v4", 4, V4_IN_A4), V4_IN_A4[:1], False),
        # index 2 in <(1 2), (3 4)>: the even elements, or an odd one
        (PermutationGroup("z2xz2", 4, TRANSPOSITIONS), [(2, 1, 4, 3)], True),
        (PermutationGroup("z2xz2", 4, TRANSPOSITIONS), TRANSPOSITIONS[:1], False),
        # the three subgroups of index 2 in D4: the rotations and <(1 3), (2 4)>
        # hold odd elements, V4 is the even ones
        (PermutationGroup("d4", 4, D4), [(2, 3, 4, 1)], False),
        (PermutationGroup("d4", 4, D4), [(3, 2, 1, 4), (1, 4, 3, 2)], False),
        (PermutationGroup("d4", 4, D4), [(2, 1, 4, 3), (3, 4, 1, 2)], True),
    ], ids=["s4/a4", "s3/a3", "a4/v4", "v4/z2", "z2xz2/even", "z2xz2/odd",
            "d4/rotations", "d4/diagonals", "d4/v4"])
    def test_key_names_match_sign_rule(self, group, generators, sign):
        subgroup = payloads(sympy_group(generators))
        assert brute_force_is_sign_quotient(group, subgroup) == sign
        quotient = group.quotient_by(sorted(subgroup))
        names = {quotient.key_name(quotient.key(g.payload)) for g in group.finite_elements()}
        if sign:
            assert names == {"even", "odd"}
            for g in group.finite_elements():
                expected = "odd" if parity(g.payload) else "even"
                assert quotient.key_name(quotient.key(g.payload)) == expected
        else:
            assert len(names) == len(group.finite_elements()) // len(subgroup)
            assert not names & {"even", "odd"}


class TestDegreeLimit:
    @pytest.mark.parametrize("name", ["perm:s10", "perm:a12"])
    def test_rejected_before_enumeration(self, name, monkeypatch, capsys):
        def enumerate_group(members, maps, c):
            raise AssertionError("group enumerated above the degree limit")

        monkeypatch.setattr(groups, "_extend_subgroup", enumerate_group)
        with pytest.raises(ValueError, match=f"MAX_PERM_DEGREE = {MAX_PERM_DEGREE}"):
            group_from_name(name)
        assert main(["info", "--group", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "MAX_PERM_DEGREE" in captured.err

    def test_limit_degree_still_builds(self):
        group = group_from_name(f"perm:s{MAX_PERM_DEGREE}")
        assert len(group.finite_elements()) == math.factorial(MAX_PERM_DEGREE)

    def test_degree_one_rejected(self):
        # a one-index gather returns an entry, not a tuple
        with pytest.raises(ValueError, match="degree must be >= 2"):
            PermutationGroup("trivial", 1, [(1,)])
        with pytest.raises(ValueError, match="degree must be >= 2"):
            PermutationGroup.symmetric(1)


class TestRankLimit:
    @pytest.mark.parametrize("name", ["zn:65", "zn:1000000000"])
    def test_rejected_before_construction(self, name, monkeypatch, capsys):
        def build_vector(self, payload):
            raise AssertionError("vector built above the rank limit")

        monkeypatch.setattr(FreeAbelian, "element", build_vector)
        with pytest.raises(ValueError, match=f"MAX_ZN_RANK = {MAX_ZN_RANK}"):
            group_from_name(name)
        assert main(["info", "--group", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "MAX_ZN_RANK" in captured.err

    def test_limit_rank_still_builds(self):
        group = group_from_name(f"zn:{MAX_ZN_RANK}")
        gens = group.generators()
        assert len(gens) == MAX_ZN_RANK
        assert gens[-1].payload == (0,) * (MAX_ZN_RANK - 1) + (1,)


class TestGroupElementValue:
    @pytest.mark.parametrize("field, value", [("payload", (0, 0, 0)), ("group", Z2)])
    def test_fields_cannot_be_assigned(self, field, value):
        g = h(1, 2, 3)
        with pytest.raises(AttributeError):
            setattr(g, field, value)
        with pytest.raises(AttributeError):
            delattr(g, field)
        assert g.group is H and g.payload == (1, 2, 3)

    @pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:s4"])
    def test_element_wraps_the_checked_payload(self, name):
        group = group_from_name(name)
        entries = list(group.generators()[1].payload)
        assert group.payload(entries) == group.element(entries).payload == tuple(entries)
        for bad in ([], [1.5] + entries[1:], [True] + entries[1:], "abc", [entries] * 3):
            with pytest.raises((TypeError, ValueError)) as checked:
                group.payload(bad)
            with pytest.raises(type(checked.value)) as wrapped:
                group.element(bad)
            assert str(wrapped.value) == str(checked.value)

    def test_integer_entries(self):
        class Count(int):
            pass

        assert integer_entries([1, -2, 10**30, Count(3)]) and integer_entries([])
        assert integer_entries(iter([4, 5]))
        for bad in ([1, True], [False], [1, 2.0], ["1"], [None]):
            assert not integer_entries(bad)

    def test_pickle_round_trip(self):
        g = h(1, 2, 3)
        assert pickle.loads(pickle.dumps(g)) == g

    def test_separately_built_groups_share_elements(self):
        first, second = Heisenberg(), Heisenberg()
        a, b = first.element((1, -2, 3)), second.element((1, -2, 3))
        assert a.group is not b.group
        assert a == b and hash(a) == hash(b)
        assert {a: "first"}[b] == "first"
        assert a * b.inverse() == second.identity()

    def test_equal_payloads_of_different_groups(self):
        x, e1 = h(1, 0, 0), FreeAbelian(3).element((1, 0, 0))
        assert x != e1 and e1 != x
        keys = {x: "heisenberg", e1: "zn:3"}
        assert len(keys) == 2
        assert keys[h(1, 0, 0)] == "heisenberg"
        assert keys[FreeAbelian(3).element((1, 0, 0))] == "zn:3"

    def test_generators_built_once(self, monkeypatch):
        group = FreeAbelian(3)

        def build(self, payload):
            raise AssertionError("generator rebuilt")

        monkeypatch.setattr(FreeAbelian, "element", build)
        gens = group.generators()
        gens.append(group.identity())
        assert len(group.generators()) == 3

    def test_perm_generators_built_once(self):
        S4 = group_from_name("perm:s4")
        assert S4.generators()[0] is S4.generators()[0]


class TestStem:
    def test_verdicts(self):
        assert H.is_stem()
        assert not Z2.is_stem()
        assert PermutationGroup.symmetric(4).is_stem()
