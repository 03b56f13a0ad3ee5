import pytest

from dergrade import (
    AlgebraElement,
    Arrow,
    CentralityError,
    Derivation,
    FreeAbelian,
    GradingSetup,
    Heisenberg,
    PermutationGroup,
    QuotientError,
    TrivialGradingError,
    central_component_key,
    check_bracket_closure,
    decompose,
    group_from_name,
    inner_graded_decomposition,
    project,
    support_classes,
    support_cosets,
    verify_leibniz,
    zder_grading_demo,
)
from dergrade import grading
from dergrade.sampling import Sampler
from oracles import commutator
from test_groups import D4

H = Heisenberg()
Z2 = FreeAbelian(2)
SETUP_H = GradingSetup.default(H)
SETUP_Z2 = GradingSetup.default(Z2)


def h(a, b, c):
    return H.element((a, b, c))


def mono(g, coeff=1):
    return AlgebraElement.monomial(g, coeff)


class TestSupport:
    def test_inner_support_coset(self):
        assert support_cosets(Derivation.inner(mono(h(1, 0, 0))), SETUP_H) == {(1, 0)}

    def test_zero_support_empty(self):
        assert support_cosets(Derivation.zero(H), SETUP_H) == frozenset()
        assert support_classes(Derivation.zero(H)) == frozenset()

    def test_central_support_identity_coset(self):
        d = Derivation.central(H, [2, 3], h(0, 0, 1))
        assert support_cosets(d, SETUP_H) == {(0, 0)}

    def test_inner_support_class(self):
        a = h(1, 0, -1)
        d = Derivation.inner(mono(a))
        assert support_classes(d) == {H.element(H.class_representative(a.payload))}

    def test_central_support_class_is_z(self):
        z = h(0, 0, 1)
        d = Derivation.central(H, [2, 3], z)
        assert support_classes(d) == {z}

    def test_free_abelian_support_classes_are_the_central_points(self):
        # each class of Z^n is one element: the support classes of a sum of
        # central derivations are their z's with a nonzero tau
        Z3 = group_from_name("zn:3")
        z1, z2, z3 = Z3.element((1, -2, 0)), Z3.element((0, 0, 3)), Z3.element((4, 0, 0))
        d = (Derivation.central(Z3, [1, 0, 2], z1) + Derivation.central(Z3, [0, 1, 0], z2)
             + Derivation.central(Z3, [0, 0, 0], z3))
        assert support_classes(d) == {z1, z2}

    @pytest.mark.parametrize("group,setup", [(H, SETUP_H), (Z2, SETUP_Z2)],
                             ids=["heisenberg", "z2"])
    def test_soundness_on_random_arrows(self, group, setup):
        # nonzero character value => source coset is in the computed support
        sampler = Sampler(group, seed=41, word_len=5)
        for _ in range(10):
            d = sampler.derivation()
            cosets = support_cosets(d, setup)
            for _ in range(200):
                phi = sampler.arrow(d)
                if d.character(phi):
                    assert setup.quotient.key(phi.source().payload) in cosets


class TestProjection:
    def test_single_inner_is_its_own_component(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert project(d, (1, 0), SETUP_H) == d
        assert project(d, (5, 5), SETUP_H).is_zero()

    def test_split_inner_sum(self):
        d = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 0)))
        assert project(d, (1, 0), SETUP_H) == Derivation.inner(mono(h(1, 0, 0)))
        assert project(d, (0, 1), SETUP_H) == Derivation.inner(mono(h(0, 1, 0)))

    def test_projections_are_derivations(self):
        sampler = Sampler(H, seed=43)
        for _ in range(10):
            d = sampler.derivation()
            for key in support_cosets(d, SETUP_H):
                comp = project(d, key, SETUP_H)
                for _ in range(10):
                    x = mono(sampler.word_element())
                    y = mono(sampler.word_element())
                    assert verify_leibniz(comp, x, y)


class TestDecomposition:
    def test_zero(self):
        assert decompose(Derivation.zero(H), SETUP_H).components == {}

    def test_central_term_killed(self):
        d = Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 0, 1)))
        dec = decompose(d, SETUP_H)
        assert dec.keys() == [(1, 0)]
        assert dec.components[(1, 0)] == Derivation.inner(mono(h(1, 0, 0)))

    def test_central_derivation_single_identity_component(self):
        d = Derivation.central(H, [2, 3], h(0, 0, 1))
        dec = decompose(d, SETUP_H)
        assert dec.keys() == [(0, 0)]
        assert dec.components[(0, 0)] == d

    @pytest.mark.parametrize("group,setup", [(H, SETUP_H), (Z2, SETUP_Z2)],
                             ids=["heisenberg", "z2"])
    def test_direct_sum_exact(self, group, setup):
        sampler = Sampler(group, seed=47)
        for _ in range(30):
            d = sampler.derivation()
            dec = decompose(d, setup)
            assert dec.total() == d
            for key, comp in dec.components.items():
                assert support_cosets(comp, setup) <= {key}
                assert not comp.is_zero()

    def test_one_key_per_image_term(self, monkeypatch):
        # an inner derivation of 30 elements in distinct cosets: its closed
        # form is split with one key per term of a, and so is the form its
        # table solves to, which has the same inner part; sorting the 120
        # generator-image terms by coset would take one key each
        setup = GradingSetup.default(H)
        a = AlgebraElement.from_terms(
            H, [(h(i, j, i + j), 1) for i in range(1, 7) for j in range(1, 6)]
        )
        d = Derivation.inner(a)
        table = Derivation.from_table(H, dict(d.images))
        calls = []
        key = setup.quotient.key

        def counting(g):
            calls.append(g)
            return key(g)

        monkeypatch.setattr(setup.quotient, "key", counting)
        dec = decompose(d, setup)
        assert len(dec.components) == 30
        assert len(calls) == len(a) == 30
        assert dec.total() == d
        calls.clear()
        dec = decompose(table, setup)
        assert sum(len(img) for img in d.images.values()) == 120
        assert len(dec.components) == 30
        assert len(calls) == len(table.a) == 30
        assert dec.total() == d


@pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:a4", "perm:s4"])
def test_project_and_support_cosets_match_decompose(name):
    group = group_from_name(name)
    setup = GradingSetup.default(group)
    sampler = Sampler(group, seed=23)
    # a key of the right length that no sampled derivation reaches
    absent = (10**9,) * len(setup.quotient.identity_key())
    keys_seen = 0
    for _ in range(8):
        d = sampler.derivation()
        components = decompose(d, setup).components
        assert support_cosets(d, setup) == frozenset(components)
        for key, component in components.items():
            assert project(d, key, setup) == component
        assert absent not in components
        assert project(d, absent, setup).is_zero()
        keys_seen += len(components)
    assert keys_seen


def _sum(group, payloads, coeff=1):
    return AlgebraElement.from_terms(group, [(group._wrap(p), coeff) for p in payloads])


def commuting_elements(name, group, sampler):
    """Elements of C[G] that commute with every generator: central elements
    on heisenberg and zn:3, class sums on a permutation group."""
    if name == "heisenberg":
        return [_sum(H, [(0, 0, 1)], 2), _sum(H, [(0, 0, -3), (0, 0, 4)])]
    if name == "zn:3":
        return [sampler.algebra_element() for _ in range(3)]
    classes_of = list(group.generators()) + [sampler.element() for _ in range(3)]
    return [_sum(group, group.conjugacy_class(g.payload)) for g in classes_of]


def zero_part_inputs(name, group, sampler):
    """(a, central) for derivations inner(a) + central that are zero, or
    hold a part that is zero, on purpose: an inner part that commutes with
    every generator, alone, beside a sampled inner part, and (where there
    are central derivations) beside a central part in its own coset, which
    makes that part nonzero; `central` is None for no central part."""
    out = []
    for c in commuting_elements(name, group, sampler):
        out += [(c, None), (c + sampler.algebra_element(), None)]
        if group.has_central_derivations():
            z = group._wrap(min(c._terms))
            rank = len(group.abelian_coords(z.payload))
            out.append((c, Derivation.central(group, [1] + [0] * (rank - 1), z)))
    return out


def zero_part_derivations(name, group, sampler):
    return [
        Derivation.inner(a) if central is None else Derivation.inner(a) + central
        for a, central in zero_part_inputs(name, group, sampler)
    ]


def _commutes(group, a):
    return all(not commutator(AlgebraElement.monomial(s), a) for s in group.generators())


@pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:a4", "perm:s4", "perm:s5"])
def test_zero_parts_decided_on_the_form(name):
    # inner(a) + central parts is zero iff it has no central part and a
    # commutes with every generator: a central part (tau, z) shows as tau(g)
    # at the loop (g*z, g), where the inner part adds a[z] - a[z] = 0.  That
    # criterion, on the parts a derivation is built from, is the oracle for
    # `is_zero` and for its images.  A normal form keeps an inner part only
    # where it does not commute, so a derivation is zero iff its form has
    # no part, and none of its split parts is zero
    group = group_from_name(name)
    setup = GradingSetup.default(group)
    sampler = Sampler(group, seed=31)
    cases = [
        (Derivation.inner(a) if central is None else Derivation.inner(a) + central,
         central is None and _commutes(group, a), bool(a) and _commutes(group, a))
        for a, central in zero_part_inputs(name, group, sampler)
    ]
    for _ in range(30):
        d = sampler.derivation()
        cases.append((d, not d.taus and not d.steps and _commutes(group, d.a), False))
    seen = {True: 0, False: 0}
    commuting_central = 0
    for d, zero, commuting in cases:
        assert d.is_zero() == zero == (not any(d.images.values()))
        assert (not (d.a or d.taus or d.steps)) == zero
        seen[zero] += 1
        if commuting and not zero:
            # a commuting inner part beside a central part: the form keeps
            # the central part alone
            assert not d.a and d.taus
            commuting_central += 1
        for part in d._split(setup.quotient.key).values():
            assert not part.steps
            assert not part.is_zero() and any(part.images.values())
            assert bool(part.a) != _commutes(group, part.a)
    assert seen[True] and seen[False]
    if group.has_central_derivations():
        assert commuting_central


@pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:s4"])
def test_closure_stores_no_image_on_components(monkeypatch, name):
    # zero parts are dropped without filling the components' images, which
    # `check_bracket_closure` never reads
    group = group_from_name(name)
    setup = GradingSetup.default(group)
    sampler = Sampler(group, seed=37)
    components, parts = grading._components, []

    def watched(d, setup):
        result = components(d, setup)
        parts.extend(result.values())
        return result

    monkeypatch.setattr(grading, "_components", watched)
    ds = zero_part_derivations(name, group, sampler)
    for d, p in zip(ds, ds[1:] + [sampler.derivation(allow_table=False)]):
        assert check_bracket_closure(d, p, setup).passed
    assert parts and all(c._images is None for c in parts)


class TestBracketClosure:
    def test_hand_derived_instance(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        p = Derivation.inner(mono(h(0, 1, 0)))
        bracket = d.bracket(p)
        assert bracket == Derivation.inner(mono(h(1, 1, 0)) - mono(h(1, 1, 1)))
        assert support_cosets(bracket, SETUP_H) == {(1, 1)}
        report = check_bracket_closure(d, p, SETUP_H)
        assert report.passed
        assert report.checks[0].expected_key == (1, 1)

    def test_zero_partner_vacuous(self):
        d = Derivation.inner(mono(h(1, 0, 0)))
        report = check_bracket_closure(d, Derivation.zero(H), SETUP_H)
        assert report.passed and not report.checks

    @pytest.mark.parametrize("group,setup", [(H, SETUP_H), (Z2, SETUP_Z2)],
                             ids=["heisenberg", "z2"])
    def test_random_pairs_close(self, group, setup):
        sampler = Sampler(group, seed=53)
        for _ in range(20):
            report = check_bracket_closure(
                sampler.derivation(), sampler.derivation(), setup
            )
            assert report.passed


class TestSetupRejection:
    def test_a5_derived_is_trivial(self):
        A5 = PermutationGroup.alternating(5)
        with pytest.raises(TrivialGradingError):
            GradingSetup.default(A5)

    def test_s4_mod_v4_rejected(self):
        S4 = PermutationGroup.symmetric(4)
        v4 = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
        with pytest.raises(QuotientError):
            S4.quotient_by(v4)

    def test_accepted_setups_admit_nontrivial_keys(self):
        # Heisenberg: an inner derivation with a non-identity key exists;
        # Z^2 has no nonzero inner derivations, a central one works instead
        d = Derivation.inner(mono(h(1, 0, 0)))
        assert support_cosets(d, SETUP_H) == {(1, 0)} != {SETUP_H.quotient.identity_key()}
        dz = Derivation.central(Z2, [1, 0], Z2.element((0, 1)))
        assert support_cosets(dz, SETUP_Z2) == {(0, 1)}


class TestStemLocalisation:
    def test_central_component_key(self):
        assert central_component_key([2, 3], h(0, 0, 5), SETUP_H) == (0, 0)
        assert central_component_key([1, 0], Z2.element((0, 1)), SETUP_Z2) == (0, 1)
        assert central_component_key([1, 1], H.identity(), SETUP_H) == (0, 0)

    def test_central_component_key_rejects_noncentral(self):
        with pytest.raises(CentralityError):
            central_component_key([1, 0], h(1, 0, 0), SETUP_H)

    def test_central_component_key_on_a_permutation_group(self):
        # D4's centre {e, (1 3)(2 4)} is its commutator subgroup, so the
        # half turn (3, 4, 1, 2) is central and keyed by the identity coset,
        # and the reflection (3, 2, 1, 4) is not central
        d4 = PermutationGroup("d4", 4, D4)
        setup = GradingSetup.default(d4)
        z = d4.element((3, 4, 1, 2))
        assert central_component_key([], z, setup) == setup.quotient.key(z.payload)
        assert central_component_key([], z, setup) == setup.quotient.identity_key()
        with pytest.raises(CentralityError, match=r"\(3, 2, 1, 4\) is not central in perm:d4"):
            central_component_key([], d4.element((3, 2, 1, 4)), setup)

    def test_heisenberg_central_derivations_localise(self):
        sampler = Sampler(H, seed=59)
        for _ in range(20):
            d = sampler.central_derivation()
            dec = decompose(d, SETUP_H)
            assert dec.keys() in ([], [(0, 0)])

    def test_zder_demo(self):
        report = zder_grading_demo(Z2)
        assert not report["is_stem"]
        assert report["distinct_nonzero_keys"] >= 2
        stem_report = zder_grading_demo(H)
        assert stem_report["is_stem"]
        assert stem_report["distinct_nonzero_keys"] == 0


class TestInnerGrading:
    def test_single_element(self):
        cert = inner_graded_decomposition([1], [h(1, 0, 0)], SETUP_H)
        assert cert.decomposition.keys() == [(1, 0)]
        assert cert.witnesses[(1, 0)] == mono(h(1, 0, 0))
        assert cert.all_certified

    def test_two_cosets(self):
        cert = inner_graded_decomposition(
            [1, 1], [h(1, 0, 0), h(0, 1, 0)], SETUP_H
        )
        assert cert.decomposition.keys() == [(0, 1), (1, 0)]
        assert cert.witnesses[(1, 0)] == mono(h(1, 0, 0))
        assert cert.witnesses[(0, 1)] == mono(h(0, 1, 0))
        assert cert.all_certified

    def test_all_central_is_empty(self):
        cert = inner_graded_decomposition(
            [1, 2], [h(0, 0, 1), h(0, 0, -3)], SETUP_H
        )
        assert cert.decomposition.components == {}

    def test_random_inner_certified(self):
        sampler = Sampler(H, seed=61)
        for _ in range(20):
            n = sampler.rng.randint(1, 3)
            coeffs = [sampler.nonzero_coefficient() for _ in range(n)]
            ys = [sampler.element() for _ in range(n)]
            cert = inner_graded_decomposition(coeffs, ys, SETUP_H)
            assert cert.all_certified
