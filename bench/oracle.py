"""Reference computations for checking dergrade's outputs, made apart from it.

Nothing here imports dergrade.  Coefficients are pairs of Fractions; a
Heisenberg element (a, b, c) is the matrix [[1, a, c], [0, 1, b], [0, 0, 1]]
and multiplies as one; Z^n elements add as vectors; permutations compose as
functions on 1..n in one-line notation, (g h)(i) = g(h(i)).  Facts about
symmetric and alternating groups (derived subgroup, centre, perfectness) come
from sympy.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

ZERO = (Fraction(0), Fraction(0))


# -- coefficients ---------------------------------------------------------------


def coeff_from_json(data):
    rn, rd, imn, imd = data
    return (Fraction(rn, rd), Fraction(imn, imd))


def coeff_to_json(c):
    re_, im = c
    return [re_.numerator, re_.denominator, im.numerator, im.denominator]


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cneg(x):
    return (-x[0], -x[1])


# -- groups ---------------------------------------------------------------------


def _matmul(p, q):
    return tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def heis_mul(g, h):
    (a, b, c), (x, y, z) = g, h
    m = _matmul(((1, a, c), (0, 1, b), (0, 0, 1)), ((1, x, z), (0, 1, y), (0, 0, 1)))
    return (m[0][1], m[1][2], m[0][2])


def zn_mul(g, h):
    return tuple(a + b for a, b in zip(g, h))


def perm_mul(g, h):
    return tuple(g[h[i] - 1] for i in range(len(g)))


def perm_inv(g):
    out = [0] * len(g)
    for i, image in enumerate(g):
        out[image - 1] = i + 1
    return tuple(out)


class Kernel:
    """Multiplication, generators (by their CLI names) and the coordinates of
    the abelianisation for one group selector."""

    def __init__(self, name):
        self.name = name
        if name == "heisenberg":
            self.mul = heis_mul
            self.generators = {"x": (1, 0, 0), "y": (0, 1, 0)}
            self.abelian_coords = lambda g: g[:2]
        elif name.startswith("zn:"):
            n = int(name[3:])
            self.mul = zn_mul
            self.generators = {
                f"e{i + 1}": tuple(int(i == j) for j in range(n)) for i in range(n)
            }
            self.abelian_coords = lambda g: g
        elif name.startswith("perm:s"):
            n = int(name[6:])
            self.mul = perm_mul
            # the transposition (1 2) and the n-cycle (1 2 ... n)
            self.generators = {
                "g1": (2, 1) + tuple(range(3, n + 1)),
                "g2": tuple(range(2, n + 1)) + (1,),
            }
        else:
            raise ValueError(f"no reference kernel for {name}")


# -- group algebra ----------------------------------------------------------------


def alg_from_json(data):
    out = {}
    for c, g in data:
        g = tuple(g)
        out[g] = cadd(out.get(g, ZERO), coeff_from_json(c))
    return {g: c for g, c in out.items() if c != ZERO}


def alg_to_json(x):
    return [[coeff_to_json(c), list(g)] for g, c in sorted(x.items())]


def alg_add(x, y):
    out = dict(x)
    for g, c in y.items():
        out[g] = cadd(out.get(g, ZERO), c)
    return {g: c for g, c in out.items() if c != ZERO}


def alg_neg(x):
    return {g: cneg(c) for g, c in x.items()}


def alg_mul(kernel, x, y):
    out = {}
    for g, cg in x.items():
        for h, ch in y.items():
            gh = kernel.mul(g, h)
            out[gh] = cadd(out.get(gh, ZERO), cmul(cg, ch))
    return {g: c for g, c in out.items() if c != ZERO}


def inner(kernel, a, x):
    """x*a - a*x, the inner derivation at a applied to x."""
    return alg_add(alg_mul(kernel, x, a), alg_neg(alg_mul(kernel, a, x)))


def central(kernel, tau, z, x):
    """sum_g c_g tau(g) g z, the central derivation (tau, z) applied to x."""
    out = {}
    for g, c in x.items():
        t = ZERO
        for tau_i, k in zip(tau, kernel.abelian_coords(g)):
            t = cadd(t, cmul(tau_i, (Fraction(k), Fraction(0))))
        out = alg_add(out, {kernel.mul(g, z): cmul(c, t)})
    return out


def apply_spec(kernel, spec, x):
    """d(x) for a derivation spec of kind inner, central or table.

    A table spec is evaluated on generators only; the workloads build tables
    from inner derivations and keep `a` beside them for this purpose.
    """
    if spec["kind"] == "inner":
        return inner(kernel, alg_from_json(spec["a"]), x)
    if spec["kind"] == "central":
        tau = [coeff_from_json(t) for t in spec["tau"]]
        return central(kernel, tau, tuple(spec["z"]), x)
    raise ValueError(f"cannot evaluate a {spec['kind']} spec")


def inner_table(kernel, a):
    """Generator images of the inner derivation at a, as a table spec."""
    return {
        "group": kernel.name,
        "kind": "table",
        "images": {
            name: alg_to_json(inner(kernel, a, {s: (Fraction(1), Fraction(0))}))
            for name, s in kernel.generators.items()
        },
    }


# -- permutation groups (sympy) ----------------------------------------------------


@lru_cache(maxsize=None)
def perm_facts(name):
    """Order, elements, derived subgroup, centre and perfectness of perm:<sN|aN>."""
    from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup

    short = name.split(":", 1)[1]
    n = int(short[1:])
    group = SymmetricGroup(n) if short[0] == "s" else AlternatingGroup(n)

    def payloads(g):
        return frozenset(tuple(i + 1 for i in p.array_form) for p in g.elements)

    derived = group.derived_subgroup()
    centre = group.center()
    return {
        "order": int(group.order()),
        "elements": payloads(group),
        "derived": payloads(derived),
        "centre": payloads(centre),
        "perfect": bool(group.is_perfect),
    }


def coset_key(x, subgroup):
    """Lexicographically least member of the coset x N."""
    return min(perm_mul(x, n) for n in subgroup)


def conjugacy_class(a, elements):
    return frozenset(perm_mul(perm_mul(t, a), perm_inv(t)) for t in elements)


def parse_tuples(text):
    return [tuple(int(v) for v in m.split(",")) for m in re.findall(r"\(([\d, ]+)\)", text)]
