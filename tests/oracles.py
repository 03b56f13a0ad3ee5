"""Oracles that only the tests use, kept apart from the package."""

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, List, Optional

from dergrade import (
    AlgebraElement,
    Derivation,
    FreeAbelian,
    GaussianRational,
    GroupElement,
    PermutationGroup,
)


def commutator(x, y):
    """x*y - y*x, for two elements of one group algebra."""
    return x * y - y * x


def _product(g, h):
    """(g h)(i) = g(h(i)), one-line and 1-based: g, padded to be read from
    index 1, gathered at h's entries in one C-level call.  `itemgetter`
    given one index returns the entry, not a tuple; every permutation group
    has degree >= 2."""
    return itemgetter(*h)((0,) + g)


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


def bfs_table_form(group, images):
    """`PermutationGroup.table_form` by breadth-first search over the
    conjugation groupoid, with plain tuple products: f is solved on each
    class from f(root) = 0, roots in sorted element order and generators in
    order, and compared arrow by arrow as each is met; then each class, its
    members sorted, is shifted by its most frequent value (the first in
    member order on a tie) and listed in member order.  Returns
    (witness, {}, {}), or None at the first arrow with
    chi(s x, s) != f(x) - f(s x s^-1); `images` holds the terms of d(s)
    for each generator s in order, {payload: nonzero coefficient}."""
    zero = GaussianRational(0)
    moves = [
        (s, _inverse(s), chi)
        for s, chi in zip((s.payload for s in group.generators()), images)
    ]
    f = {}
    witness = {}
    for root in sorted(g.payload for g in group.finite_elements()):
        if root in f:
            continue
        f[root] = zero
        cls = [root]
        for x in cls:  # the list grows as it is read: breadth first
            fx = f[x]
            for s, si, chi in moves:
                sx = _product(s, x)
                c = chi.get(sx)
                value = fx if c is None else fx - c
                y = _product(sx, si)
                fy = f.get(y)
                if fy is None:
                    f[y] = value
                    cls.append(y)
                elif fy != value:
                    return None
        cls.sort()
        counts = {}
        for x in cls:
            counts[f[x]] = counts.get(f[x], 0) + 1
        shift = max(counts, key=counts.__getitem__)
        for x in cls:
            if f[x] != shift:
                witness[x] = f[x] - shift
    return witness, {}, {}


# Heisenberg payloads (a, b, c) with (a,b,c)(x,y,z) = (a+x, b+y, c+z+a*y), and
# the generators x and y, and z = [x, y]
_X, _Y, _Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def _heisenberg_product(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def _heisenberg_inverse(p):
    return (-p[0], -p[1], p[0] * p[1] - p[2])


def _kernel(group):
    """The payload product and inverse of `group`, as plain Python."""
    if isinstance(group, PermutationGroup):
        return _product, _inverse
    if isinstance(group, FreeAbelian):
        return (lambda p, q: tuple(a + b for a, b in zip(p, q))), (lambda p: tuple(-a for a in p))
    return _heisenberg_product, _heisenberg_inverse


def syllables(group, p):
    """Syllables [(w1, k1), (w2, k2), ...] of the element g with payload p,
    g = w1^k1 * w2^k2 * ..., each base w a generator or an element whose
    own syllables are generators: on a permutation group p's parent in
    `cayley_tree` and one letter, on Z^n e_i^k_i, and on heisenberg
    x^a y^b z^(c-ab), where z = x y x^-1 y^-1."""
    if isinstance(group, PermutationGroup):
        edge = cayley_tree(group)[p]
        return [] if edge is None else [(edge[0], 1), edge[1]]
    if isinstance(group, FreeAbelian):
        return [(s.payload, k) for s, k in zip(group.generators(), p)]
    if p == _Z:
        return [(_X, 1), (_Y, 1), (_X, -1), (_Y, -1)]
    a, b, c = p
    return [(_X, a), (_Y, b), (_Z, c - a * b)]


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
    """Payload pairs (g, h) on which the Leibniz rule d(gh) = d(g) h + g d(h)
    holds, for a table evaluated by `LeibnizCopy`, exactly when the table
    is a derivation.  On a permutation group: each Cayley edge w -> w*s off
    `cayley_tree`, s a generator; on a tree edge d(ws) is d(w) joined with
    d(s) by construction, and every element of a finite group is a positive
    word in the generators, so the rule on every (g, s) gives it on every
    (g, h) by induction on the length of h.  On heisenberg: (z, x) and
    (z, y), which say that z = [x, y] is central, all the presentation
    asks.  On Z^n none: C[Z^n] is commutative, so every table is a
    derivation."""
    if isinstance(group, FreeAbelian):
        return []
    if not isinstance(group, PermutationGroup):
        return [(_Z, _X), (_Z, _Y)]
    tree = cayley_tree(group)
    gens = [s.payload for s in group.generators()]
    return [
        (w, s)
        for w in sorted(tree)
        for s in gens
        if tree[_product(w, s)] != (w, (s, 1))
    ]


# Most terms one join of a `LeibnizCopy` may combine.
ORACLE_LIMIT = 10**5


class OracleLimit(Exception):
    """A join of `LeibnizCopy` would combine more than `ORACLE_LIMIT` terms."""


def _added(*parts):
    """The sum of term dicts, each an iterable of (payload, coefficient),
    with no zero coefficient."""
    acc = {}
    for part in parts:
        for t, c in part:
            acc[t] = acc[t] + c if t in acc else c
    return {t: c for t, c in acc.items() if c}


class LeibnizCopy:
    """A generator table (group, images) evaluated by Leibniz joins alone,
    the reference route closed forms are checked against.  An element is
    split into its test-side `syllables` w^k; a base w is evaluated like
    any element; w^k is built from d(w), or from d(w^-1) =
    -w^-1 d(w) w^-1 when k < 0, by binary powering, in O(log |k|) joins;
    and the powers are joined left to right by (g, d(g)), (h, d(h)) ->
    (gh, d(g) h + g d(h)).  Every image it computes is kept, so no
    element is joined twice.  It shares nothing with the package but the
    coefficient type and the `AlgebraElement` its results are wrapped in:
    its payload products are its own.  A join of more than `ORACLE_LIMIT`
    terms raises `OracleLimit`."""

    def __init__(self, group, images):
        self.group = group
        self.images = {s: images[s] for s in group.generators()}
        self._mul, self._inv = _kernel(group)
        # d(g) by payload: the generators and every image computed since
        self._bases = {s.payload: dict(img._terms) for s, img in self.images.items()}

    def _join(self, left, right):
        (g, dg), (h, dh) = left, right
        if len(dg) + len(dh) > ORACLE_LIMIT:
            raise OracleLimit(f"a join of {len(dg) + len(dh)} terms")
        mul = self._mul
        return mul(g, h), _added(
            ((mul(t, h), c) for t, c in dg.items()), ((mul(g, t), c) for t, c in dh.items())
        )

    def _power(self, w, k):
        """(w^k, d(w^k)) for k != 0."""
        if k < 0:
            mul, wi = self._mul, self._inv(w)
            if wi not in self._bases:
                self._bases[wi] = {mul(mul(wi, t), wi): -c for t, c in self._image(w).items()}
            w, k = wi, -k
        base, result = (w, self._image(w)), None
        while True:
            if k & 1:
                result = base if result is None else self._join(result, base)
            k >>= 1
            if not k:
                return result
            base = self._join(base, base)

    def _image(self, p):
        """d of the element with payload p, as {payload: coefficient}, kept."""
        if p in self._bases:
            return self._bases[p]
        acc = None
        for w, k in syllables(self.group, p):
            if k:
                power = self._power(w, k)
                acc = power if acc is None else self._join(acc, power)
        image = self._bases[p] = {} if acc is None else acc[1]
        return image

    def apply_element(self, g):
        return AlgebraElement(self.group, self._image(g.payload))

    def apply(self, x):
        return AlgebraElement(self.group, _added(*(
            [(t, c * v) for t, v in self._image(p).items()] for p, c in x._terms.items()
        )))

    def character(self, arrow):
        return self._image(arrow.v.payload).get(arrow.u.payload, GaussianRational(0))

    def bracket(self, other):
        """The operator commutator on the generator images."""
        return LeibnizCopy(self.group, {
            s: AlgebraElement(self.group, _added(
                self.apply(other.images[s])._terms.items(),
                ((t, -c) for t, c in other.apply(self.images[s])._terms.items()),
            ))
            for s in self.images
        })

    def is_derivation(self):
        """Whether the Leibniz rule holds on every pair of `leibniz_pairs`."""
        mul = self._mul
        return all(
            self._join((p, self._image(p)), (q, self._image(q)))[1] == self._image(mul(p, q))
            for p, q in leibniz_pairs(self.group)
        )

    def components(self, key):
        """The graded components by coset key: each term k of a generator
        image d(s) goes to the component at key(s^-1 k)."""
        buckets = {}
        for s, img in self.images.items():
            si = self._inv(s.payload)
            for k, c in img._terms.items():
                buckets.setdefault(key(self._mul(si, k)), {}).setdefault(s, {})[k] = c
        zero = AlgebraElement(self.group, {})
        return {
            k: LeibnizCopy(self.group, {
                s: AlgebraElement(self.group, terms[s]) if s in terms else zero for s in self.images
            })
            for k, terms in sorted(buckets.items())
        }


def bracket_character(d, p, arrow):
    """The character of [d, p] at (u, v) by the matrix-product sum
    sum_k chi^d(u, k) chi^p(k, v) - chi^p(u, k) chi^d(k, v), for two
    `LeibnizCopy`s: chi^p(k, v) and chi^d(k, v) are the coefficients of k
    in p(v) and d(v), so each sum runs over the terms of one image."""
    u, v = arrow.u.payload, arrow.v.payload
    zero = total = GaussianRational(0)
    for k, c in p._image(v).items():
        total = total + d._image(k).get(u, zero) * c
    for k, c in d._image(v).items():
        total = total - p._image(k).get(u, zero) * c
    return total


def dense_char_bracket_value(d, p, arrow):
    """`char_bracket_value` with every term of the matrix-product sum
    multiplied and added, a zero character chi(a, k) included: the sum over
    the terms k of p(b) and of d(b), for two `Derivation`s."""
    a, b = arrow.u.payload, arrow.v
    total = GaussianRational(0)
    for k, c in p.apply_element(b)._terms.items():
        total = total + d._coefficient(a, k) * c
    for k, c in d.apply_element(b)._terms.items():
        total = total - p._coefficient(a, k) * c
    return total


def pointwise_runs(ends, t):
    """{r: v} for each point r at which the values `ends` = (point, value)
    have the running sum v != 0 along r's residue mod t, read point by
    point from each residue's least point up to its greatest: the points
    that the stretches of `groups._runs` cover, with no sort and no sum by
    point first."""
    residues = {}
    for r, v in ends:
        residues.setdefault(r % t, {}).setdefault(r, []).append(v)
    values = {}
    for at in residues.values():
        run = GaussianRational(0)
        for r in range(min(at), max(at), t):
            for v in at.get(r, ()):
                run = run + v
            if run:
                values[r] = run
    return values


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
