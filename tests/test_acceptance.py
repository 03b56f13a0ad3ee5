"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import itertools
import json

import pytest

from dergrade import (
    AlgebraElement,
    Arrow,
    Derivation,
    FreeAbelian,
    GradingSetup,
    Heisenberg,
    PermutationGroup,
    QuotientError,
    TrivialGradingError,
    char_bracket_value,
    char_inner_formula,
    check_bracket_closure,
    decompose,
    inner_graded_decomposition,
    support_cosets,
    verify_leibniz,
    zder_grading_demo,
)
from dergrade.cli import main
from dergrade.sampling import Sampler
from dergrade.serialization import derivation_to_json

H = Heisenberg()
Z2 = FreeAbelian(2)
SETUP_H = GradingSetup.default(H)
SETUP_Z2 = GradingSetup.default(Z2)


def h(a, b, c):
    return H.element((a, b, c))


def mono(g, coeff=1):
    return AlgebraElement.monomial(g, coeff)


def report(criterion, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok


def test_criterion_1_bracket_oracle_equivalence():
    # 200 derivation pairs split over Heisenberg and Z^2, 100 arrows each:
    # the matrix-product character of the bracket equals the character of
    # the operator bracket, exactly
    ok = True
    for group, seed in ((H, 101), (Z2, 102)):
        sampler = Sampler(group, seed=seed, word_len=3)
        for _ in range(100):
            d = sampler.derivation()
            p = sampler.derivation()
            bracket = d.bracket(p)
            for _ in range(100):
                phi = sampler.arrow(bracket)
                if char_bracket_value(d, p, phi) != bracket.character(phi):
                    ok = False
    report("1 bracket oracle equivalence (200 pairs x 100 arrows)", ok)


def test_criterion_2_grading_direct_sum():
    # 200 random derivations: components sum back exactly, key sets are
    # disjoint singletons, and each component satisfies the Leibniz rule
    ok = True
    for group, setup, seed in ((H, SETUP_H, 201), (Z2, SETUP_Z2, 202)):
        sampler = Sampler(group, seed=seed)
        word_pairs = [
            (mono(sampler.word_element(6)), mono(sampler.word_element(6)))
            for _ in range(100)
        ]
        for _ in range(100):
            d = sampler.derivation()
            dec = decompose(d, setup)
            if dec.total() != d:
                ok = False
            for key, comp in dec.components.items():
                if not support_cosets(comp, setup) <= {key}:
                    ok = False
                if not all(verify_leibniz(comp, x, y) for x, y in word_pairs):
                    ok = False
    report("2 grading direct sum (200 derivations, Leibniz on components)", ok)


def test_criterion_3_bracket_closure():
    # 200 random component pairs close into the combined key; includes the
    # hand-derived Heisenberg instance landing entirely at (1, 1)
    da = Derivation.inner(mono(h(1, 0, 0)))
    db = Derivation.inner(mono(h(0, 1, 0)))
    bracket = da.bracket(db)
    ok = bracket == Derivation.inner(mono(h(1, 1, 0)) - mono(h(1, 1, 1)))
    ok = ok and support_cosets(bracket, SETUP_H) == {(1, 1)}
    for group, setup, seed in ((H, SETUP_H, 301), (Z2, SETUP_Z2, 302)):
        sampler = Sampler(group, seed=seed, word_len=3)
        for _ in range(100):
            r = check_bracket_closure(sampler.derivation(), sampler.derivation(), setup)
            if not r.passed:
                ok = False
    report("3 bracket closure (200 pairs + hand-derived instance)", ok)


def test_criterion_4_inner_character_formula():
    # the inner-derivation character matches the indicator difference on the
    # exhaustive Heisenberg arrow family, including the S == T overlap
    ok = True
    sampler = Sampler(H, seed=401, box=4)
    box = [h(a, b, c) for a, b, c in itertools.product(range(-2, 3), repeat=3)]
    for a in box:
        d = Derivation.inner(mono(a))
        for v in H.generators():
            arrows = [Arrow(u, v) for u in sorted(
                d.apply_element(v).support(), key=lambda g: g.payload)]
            arrows += [Arrow(sampler.element(), v) for _ in range(20)]
            for phi in arrows:
                if d.character(phi) != char_inner_formula(a, phi):
                    ok = False
    # overlap: v commutes with a, so S == T == a and both routes give 0
    a = h(0, 0, 2)
    v = h(1, 1, 0)
    phi = Arrow(v * a, v)
    ok = ok and phi.source() == phi.target() == a
    ok = ok and char_inner_formula(a, phi) == d.character(phi).__class__(0)
    ok = ok and not Derivation.inner(mono(a)).apply(mono(v))
    report("4 inner character indicator formula (exhaustive family + overlap)", ok)


def test_criterion_5_heisenberg_grading_via_cli(tmp_path):
    # the CLI reproduces the Z + Z component keys, with the central
    # derivation landing at (0, 0)
    fixtures = [
        (Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 0, 1))), [[1, 0]]),
        (Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 0))), [[0, 1], [1, 0]]),
        (Derivation.central(H, [2, 3], h(0, 0, 1)), [[0, 0]]),
    ]
    ok = True
    for idx, (d, expected_keys) in enumerate(fixtures):
        spec = tmp_path / f"fix{idx}.json"
        spec.write_text(json.dumps(derivation_to_json(d)))
        out = tmp_path / f"out{idx}.json"
        code = main(["decompose", "--group", "heisenberg",
                     "--in", str(spec), "--out", str(out)])
        data = json.loads(out.read_text())
        if code != 0 or [c["key"] for c in data["components"]] != expected_keys:
            ok = False
    report("5 Heisenberg Z+Z grading via the CLI fixture set", ok)


def test_criterion_6_rejection_paths(tmp_path, capsys):
    S4 = PermutationGroup.symmetric(4)
    v4 = [(1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)]
    ok = True
    try:
        S4.quotient_by(v4)
        ok = False
    except QuotientError as exc:
        diag = exc.diagnostic
        cls = {tuple(p) for p in diag["conjugacy_class"]}
        coset = {tuple(p) for p in diag["coset"]}
        if cls <= coset:
            ok = False
    # the concrete enumeration: 6 transpositions vs a 4-element coset
    t = S4.element((2, 1, 3, 4))
    cls = S4.conjugacy_class(t.payload)
    coset = {(t * S4.element(n)).payload for n in v4}
    ok = ok and len(cls) == 6 and len(coset) == 4 and not cls <= coset
    try:
        GradingSetup.default(PermutationGroup.alternating(5))
        ok = False
    except TrivialGradingError:
        pass
    # same rejections through the CLI, with exit code 3
    quotient = tmp_path / "v4.json"
    quotient.write_text(json.dumps({"subgroup": [list(p) for p in v4]}))
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({"kind": "inner", "a": []}))
    ok = ok and main(["decompose", "--group", "perm:s4",
                      "--quotient", str(quotient), "--in", str(spec)]) == 3
    ok = ok and main(["decompose", "--group", "perm:a5",
                      "--in", str(spec)]) == 3
    capsys.readouterr()
    report("6 rejection paths (S4/V4 counterexample, A5 trivial grading)", ok)


def test_criterion_7_stem_localisation():
    ok = H.is_stem() and not Z2.is_stem()
    sampler = Sampler(H, seed=701)
    for _ in range(50):
        d = sampler.central_derivation()
        if decompose(d, SETUP_H).keys() not in ([], [(0, 0)]):
            ok = False
    demo = zder_grading_demo(Z2)
    ok = ok and demo["distinct_nonzero_keys"] >= 2
    report("7 stem/central localisation (Heisenberg at (0,0), Z^2 demo)", ok)


def test_criterion_8_inner_ideal_and_induced_grading():
    ok = True
    sampler = Sampler(H, seed=801)
    for _ in range(200):
        p = sampler.derivation()
        a = sampler.algebra_element()
        if p.bracket(Derivation.inner(a)) != Derivation.inner(p.apply(a)):
            ok = False
    for _ in range(100):
        n = sampler.rng.randint(1, 3)
        coeffs = [sampler.nonzero_coefficient() for _ in range(n)]
        ys = [sampler.element() for _ in range(n)]
        if not inner_graded_decomposition(coeffs, ys, SETUP_H).all_certified:
            ok = False
    report("8 inner ideal identity + per-coset inner witnesses", ok)


def test_criterion_9_support_soundness():
    fixtures = [
        Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 0), 2)),
        Derivation.inner(mono(h(1, 2, -1))),
        Derivation.central(H, [2, 3], h(0, 0, 1)),
        Derivation.inner(mono(h(1, 0, 0)))
        + Derivation.central(H, [1, 0], h(0, 0, 1)),
    ]
    ok = True
    sampler = Sampler(H, seed=901, word_len=5)
    for d in fixtures:
        cosets = support_cosets(d, SETUP_H)
        for _ in range(2000):
            phi = sampler.arrow(d)
            if d.character(phi) and SETUP_H.quotient.key(phi.source().payload) not in cosets:
                ok = False
    report("9 support soundness (2000 random arrows per fixture)", ok)


def test_criterion_10_cli_determinism(tmp_path):
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps(derivation_to_json(
        Derivation.inner(mono(h(1, 0, 0)) + mono(h(0, 1, 0))))))
    outputs = []
    for run in range(2):
        out = tmp_path / f"dec{run}.json"
        assert main(["decompose", "--group", "heisenberg", "--in", str(spec),
                     "--out", str(out), "--seed", "7"]) == 0
        outputs.append(out.read_bytes())
    verify_outputs = []
    for run in range(2):
        out = tmp_path / f"ver{run}.txt"
        assert main(["verify", "--group", "heisenberg", "--seed", "7",
                     "--samples", "10", "--out", str(out)]) == 0
        verify_outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and verify_outputs[0] == verify_outputs[1]
    report("10 CLI determinism (byte-identical repeated runs)", ok)
