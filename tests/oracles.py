"""Oracles that only the tests use, kept apart from the package."""

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional

import pytest

from dergrade import (
    AlgebraElement,
    Derivation,
    FreeAbelian,
    GaussianRational,
    GroupElement,
    PermutationGroup,
)


def _product(g, h):
    """(g h)(i) = g(h(i)), one-line and 1-based, as a Python loop."""
    return tuple([g[i - 1] for i in h])


def _inverse(g):
    return tuple(sorted(range(1, len(g) + 1), key=lambda i: g[i - 1]))


def cayley_tree(group):
    """The breadth-first tree of a permutation group over its generators
    and their inverses, built level by level with plain tuple products:
    payload -> (parent, (s, k)) with payload = parent * s^k, and None at the
    identity.  A generator s is the letter (s, 1), and its inverse the
    letter (s, -1) unless it is already a letter.  It depends on the degree
    and the generators alone, so its keys are the members the generators
    reach; it is built once for each."""
    return _tree(group.degree, tuple(s.payload for s in group.generators()))


@lru_cache(maxsize=None)
def _tree(degree, gens):
    letters = [(s, (s, 1)) for s in gens]
    for s in gens:
        if all(_inverse(s) != p for p, _ in letters):
            letters.append((_inverse(s), (s, -1)))
    identity = tuple(range(1, degree + 1))
    tree = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for letter, syllable in letters:
                prod = _product(w, letter)
                if prod not in tree:
                    tree[prod] = (w, syllable)
                    nxt.append(prod)
        frontier = nxt
    return tree


def syllables(group, p):
    """Syllables (w, k) of the element with payload p, as `Group.syllables`
    gives them on `heisenberg`: on a permutation group p's parent in
    `cayley_tree` and one letter, on Z^n e_i^k_i, and on any other kernel
    the kernel's own."""
    if isinstance(group, PermutationGroup):
        edge = cayley_tree(group)[p]
        return [] if edge is None else [(edge[0], 1), edge[1]]
    if isinstance(group, FreeAbelian):
        return [(s.payload, k) for s, k in zip(group.generators(), p)]
    return group.syllables(p)


@pytest.fixture
def oracle_syllables(monkeypatch):
    """Give permutation groups and Z^n the test-side `syllables`, so that a
    form-less copy `Derivation(group, images)` over them evaluates by
    Leibniz joins along them: the reference route a closed form is compared
    with.  Nothing in the package builds such a copy."""
    monkeypatch.setattr(PermutationGroup, "syllables", syllables)
    monkeypatch.setattr(FreeAbelian, "syllables", syllables)


def word(group, g):
    """g spelled out letter by letter: a generator is itself, any other
    element is each of its test-side syllables w^k as |k| copies of w's
    word, or of its letter-wise inverse when k < 0; the empty list is the
    identity.  Its length grows with |k|: the tests use it as an oracle."""
    if g in group.generators():
        return [g]
    letters = []
    for w, k in syllables(group, g.payload):
        spelling = word(group, group.element(w))
        if k < 0:
            spelling = [s.inverse() for s in reversed(spelling)]
        letters += spelling * abs(k)
    return letters


def leibniz_pairs(group):
    """The brute-force table check of a permutation group, as payload pairs
    (w, s): each Cayley edge w -> w*s off `cayley_tree`, s a generator.  On
    a tree edge d(ws) is d(w) joined with d(s) by construction, when d is
    evaluated along the tree (`oracle_syllables`), and every element of a
    finite group is a positive word in the generators, so the Leibniz rule
    on every (g, s) gives it on every (g, h) by induction on the length of
    h.  `from_table` checks the same tables through
    `PermutationGroup.table_form`."""
    tree = cayley_tree(group)
    gens = [s.payload for s in group.generators()]
    return [
        (w, s)
        for w in sorted(tree)
        for s in gens
        if tree[_product(w, s)] != (w, (s, 1))
    ]


def _solve_rational(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of A x = b over Q by Gaussian elimination, or None."""
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    n_rows = len(m)
    n_cols = len(rows[0]) if rows else 0
    pivot_cols: List[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols]:
            return None
    solution = [Fraction(0)] * n_cols
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = m[row_idx][n_cols]
    return solution


def find_inner_witness(
    d: Derivation, candidates: Iterable[GroupElement]
) -> Optional[AlgebraElement]:
    """Search for w supported on ``candidates`` with d(x) = x*w - w*x.

    Returns a verified witness or None when no witness exists within the
    candidate support box.  This is a bounded search, not an innerness
    decision procedure.
    """
    group = d.group
    cands = sorted(set(candidates), key=lambda g: g.payload)
    if not cands:
        return AlgebraElement.zero(group) if d.is_zero() else None
    # linear system over Q(i): for each generator s and each element h that can
    # appear, sum_g c_g ([s*g == h] - [g*s == h]) == coeff of h in d(s)
    rows: List[List[Fraction]] = []
    rhs_re: List[Fraction] = []
    rhs_im: List[Fraction] = []
    for s in group.generators():
        target = d.images[s]
        elements = set(target.support())
        for g in cands:
            elements.add(s * g)
            elements.add(g * s)
        for h in sorted(elements, key=lambda g: g.payload):
            row = []
            for g in cands:
                coeff = 0
                if s * g == h:
                    coeff += 1
                if g * s == h:
                    coeff -= 1
                row.append(Fraction(coeff))
            rows.append(row)
            value = target.coefficient(h)
            rhs_re.append(value.re)
            rhs_im.append(value.im)
    sol_re = _solve_rational(rows, rhs_re)
    sol_im = _solve_rational(rows, rhs_im)
    if sol_re is None or sol_im is None:
        return None
    witness = AlgebraElement.from_terms(
        group,
        [
            (g, GaussianRational(re, im))
            for g, re, im in zip(cands, sol_re, sol_im)
        ],
    )
    return witness if d.is_inner_witness(witness) else None
