from fractions import Fraction

import pytest

from dergrade import (
    AlgebraElement,
    FreeAbelian,
    GaussianRational,
    GroupMismatchError,
    Heisenberg,
    I,
    ONE,
    group_from_name,
)
from dergrade import algebra
from dergrade.sampling import Sampler
from oracles import commutator

H = Heisenberg()
Z2 = FreeAbelian(2)


def mono(group, payload, coeff=1):
    return AlgebraElement.monomial(group.element(payload), coeff)


class TestCoefficients:
    def test_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), 1)
        b = GaussianRational(2, Fraction(-1, 3))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(2, 3))
        assert a * b == GaussianRational(
            Fraction(1, 2) * 2 + Fraction(1, 3),
            Fraction(1, 2) * Fraction(-1, 3) + 2,
        )
        assert I * I == GaussianRational(-1)
        assert not (a - a)

    def test_json_round_trip(self):
        c = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
        assert GaussianRational.from_json(c.to_json()) == c
        assert c.to_json() == [3, 4, -2, 5]


class TestVectorSpace:
    def test_add_cancels(self):
        g = mono(H, (1, 2, 3))
        assert not (g + g.scale(-1))

    def test_termwise_addition(self):
        x = mono(H, (1, 0, 0)) + mono(H, (0, 1, 0), 2)
        y = mono(H, (1, 0, 0), 3)
        total = x + y
        assert total.coefficient(H.element((1, 0, 0))) == GaussianRational(4)
        assert total.coefficient(H.element((0, 1, 0))) == GaussianRational(2)

    def test_scale_by_i(self):
        g = mono(H, (1, 1, 1))
        assert g.scale(I).coefficient(H.element((1, 1, 1))) == I

    def test_mixed_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            mono(H, (0, 0, 0)) + mono(Z2, (0, 0))


class TestConvolution:
    def test_single_term_product(self):
        assert mono(H, (1, 0, 0)) * mono(H, (0, 1, 0)) == mono(H, (1, 1, 1))

    def test_identity_neutral(self):
        x = mono(H, (1, 0, 0)) + mono(H, (0, 2, -1), Fraction(1, 2))
        e = AlgebraElement.monomial(H.identity())
        assert x * e == x and e * x == x

    def test_square_in_z2(self):
        x = mono(Z2, (1, 0)) + mono(Z2, (0, 1))
        sq = x * x
        assert sq == (
            mono(Z2, (2, 0)) + mono(Z2, (1, 1), 2) + mono(Z2, (0, 2))
        )

    def test_ring_axioms_random(self):
        sampler = Sampler(H, seed=23)
        for _ in range(50):
            x, y, z = (sampler.algebra_element() for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x + y) * z == x * z + y * z


class TestCommutator:
    def test_heisenberg_example(self):
        a = mono(H, (1, 0, 0))
        b = mono(H, (0, 1, 0))
        # [b, a] = b*a - a*b, with ba = (1,1,0) and ab = (1,1,1)
        assert commutator(b, a) == mono(H, (1, 1, 0)) - mono(H, (1, 1, 1))

    def test_self_and_abelian_vanish(self):
        x = mono(H, (1, 2, 3)) + mono(H, (0, 0, 1), 2)
        assert not commutator(x, x)
        assert not commutator(mono(Z2, (1, 0)), mono(Z2, (0, 1)))

    def test_antisymmetry_and_jacobi_random(self):
        sampler = Sampler(H, seed=29)
        for _ in range(30):
            x, y, z = (sampler.algebra_element() for _ in range(3))
            assert commutator(x, y) == -commutator(y, x)
            jacobi = (
                commutator(x, commutator(y, z))
                + commutator(y, commutator(z, x))
                + commutator(z, commutator(x, y))
            )
            assert not jacobi


class TestCanonicalForm:
    def test_support_and_coefficient(self):
        g, k = H.element((1, 0, 0)), H.element((0, 1, 0))
        x = AlgebraElement.from_terms(H, [(g, 1), (k, 2)])
        assert x.support() == {g, k}
        assert x.coefficient(k) == GaussianRational(2)
        assert not AlgebraElement.zero(H).support()

    def test_zero_terms_dropped(self):
        g = H.element((1, 0, 0))
        x = AlgebraElement.from_terms(H, [(g, 1), (g, -1)])
        assert len(x) == 0 and not x

    def test_renormalization_idempotent(self):
        sampler = Sampler(H, seed=31)
        for _ in range(20):
            x = sampler.algebra_element() * sampler.algebra_element()
            again = AlgebraElement.from_terms(H, x.items())
            assert again == x

    @pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:s4"])
    def test_items_round_trip(self, name):
        group = group_from_name(name)
        sampler = Sampler(group, seed=37)
        for _ in range(10):
            x = sampler.algebra_element() * sampler.algebra_element()
            assert AlgebraElement.from_terms(group, x.items()) == x

    def test_perm_views_hand_out_members(self):
        # terms are kept by payload; the elements a caller reads are members
        # of the group itself, in the kernel's order
        S4 = group_from_name("perm:s4")
        members = set(S4.finite_elements())
        sampler = Sampler(S4, seed=41)
        for _ in range(10):
            x = sampler.algebra_element() * sampler.algebra_element()
            assert x.support() <= members
            assert all(g.group is S4 for g in x.support())
            items = x.items()
            assert all(g in members and g.group is S4 for g, _ in items)
            assert [g.payload for g, _ in items] == sorted(
                g.payload for g in x.support()
            )

    def test_json_round_trip_sorted(self):
        x = mono(H, (2, 0, 0), Fraction(1, 3)) + mono(H, (0, 1, 0), I)
        data = x.to_json()
        assert data == sorted(data, key=lambda pair: pair[1])
        assert AlgebraElement.from_json(H, data) == x


class TestTermBudget:
    """`MAX_TERMS` bounds each finished element, whatever the order of the
    terms it is built from."""

    Z1 = FreeAbelian(1)

    def powers(self, exponents, coeff=1):
        return AlgebraElement.from_terms(
            self.Z1, [(self.Z1.element((i,)), coeff) for i in exponents]
        )

    @pytest.mark.parametrize("order", ["rows-that-cancel-last", "interleaved"])
    def test_product_checked_when_finished(self, monkeypatch, order):
        # (1 - g)(1 + g^N) * sum_{i<N} g^i = 1 - g^2N; the rows of 1 and g^N
        # alone have 2N terms, which pass the budget
        monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
        n = 600
        signs = {0: 1, n: 1, 1: -1, n + 1: -1}
        exponents = [0, n, 1, n + 1] if order == "rows-that-cancel-last" else [0, 1, n, n + 1]
        a = AlgebraElement.from_terms(
            self.Z1, [(self.Z1.element((e,)), signs[e]) for e in exponents]
        )
        b = self.powers(range(n))
        expected = self.powers([0]) - self.powers([2 * n])
        assert a * b == expected and b * a == expected

    def test_product_past_the_budget_refused(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
        a, b = self.powers(range(0, 2000, 50)), self.powers(range(40))
        assert len(a) * len(b) == 1600
        with pytest.raises(algebra.TermBudgetError, match="1600 terms"):
            a * b

    def test_parsed_element_checked_when_finished(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
        g = self.Z1.element
        pairs = [(g((i,)), 1) for i in range(1001)] + [(g((i,)), -1) for i in range(1, 1001)]
        assert AlgebraElement.from_terms(self.Z1, pairs) == self.powers([0])
        with pytest.raises(algebra.TermBudgetError, match="MAX_TERMS = 1000"):
            AlgebraElement.from_terms(self.Z1, pairs[:1001])

    def test_sum_past_the_budget_refused(self, monkeypatch):
        monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
        a, b = self.powers(range(600)), self.powers(range(600, 1200))
        with pytest.raises(algebra.TermBudgetError, match="1200 terms"):
            a + b
