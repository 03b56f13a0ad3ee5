import contextlib
import io
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dergrade import (
    AlgebraElement, Arrow, Derivation, GaussianRational, Heisenberg, algebra, cli,
    group_from_name, groups,
)
from dergrade.cli import build_parser, main
from dergrade.serialization import (
    derivation_from_json,
    derivation_to_json,
    dumps,
)
from oracles import LeibnizCopy, OracleLimit

H = Heisenberg()
GOLDEN = Path(__file__).parent / "golden"


def h(a, b, c):
    return H.element((a, b, c))


def mono(g, coeff=1):
    return AlgebraElement.monomial(g, coeff)


def inner_spec(*payloads):
    a = AlgebraElement.from_terms(H, [(H.element(p), 1) for p in payloads])
    return derivation_to_json(Derivation.inner(a))


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestDecompose:
    def test_heisenberg_fixture(self, tmp_path):
        spec = write(tmp_path / "d.json", inner_spec((1, 0, 0), (0, 0, 1)))
        out = tmp_path / "out.json"
        assert main(["decompose", "--group", "heisenberg", "--in", spec,
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [c["key"] for c in data["components"]] == [[1, 0]]

    def test_zero_derivation(self, tmp_path):
        spec = write(tmp_path / "d.json",
                     derivation_to_json(Derivation.zero(H)))
        out = tmp_path / "out.json"
        assert main(["decompose", "--group", "heisenberg", "--in", spec,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["components"] == []

    def test_a5_trivial_grading_rejected(self, tmp_path, capsys):
        spec = write(tmp_path / "d.json", {"kind": "inner", "a": []})
        assert main(["decompose", "--group", "perm:a5", "--in", spec]) == 3
        assert "trivial" in capsys.readouterr().err

    def test_s4_mod_v4_rejected_with_enumeration(self, tmp_path, capsys):
        quotient = write(tmp_path / "q.json", {"subgroup": [
            [1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]})
        spec = write(tmp_path / "d.json", {"kind": "inner", "a": []})
        code = main(["decompose", "--group", "perm:s4",
                     "--quotient", quotient, "--in", spec])
        err = capsys.readouterr().err
        assert code == 3
        assert "not abelian" in err
        assert "conjugacy class" in err and "coset" in err


class TestOtherCommands:
    def test_character_worked_example(self, tmp_path, capsys):
        job = write(tmp_path / "job.json", {
            "derivation": inner_spec((1, 0, 0)),
            "arrow": {"u": [1, 1, 0], "v": [0, 1, 0]},
        })
        assert main(["character", "--group", "heisenberg", "--in", job]) == 0
        assert json.loads(capsys.readouterr().out) == [1, 1, 0, 1]

    def test_bracket_self_is_zero(self, tmp_path, capsys):
        job = write(tmp_path / "job.json", {
            "left": inner_spec((1, 2, 0)),
            "right": inner_spec((1, 2, 0)),
        })
        assert main(["bracket", "--group", "heisenberg", "--in", job]) == 0
        result = derivation_from_json(json.loads(capsys.readouterr().out))
        assert result.is_zero()

    def test_apply(self, tmp_path, capsys):
        job = write(tmp_path / "job.json", {
            "derivation": inner_spec((1, 0, 0)),
            "element": mono(h(0, 1, 0)).to_json(),
        })
        assert main(["apply", "--group", "heisenberg", "--in", job]) == 0
        result = AlgebraElement.from_json(H, json.loads(capsys.readouterr().out))
        assert result == mono(h(1, 1, 0)) - mono(h(1, 1, 1))

    def test_verify_default_budgets_pass(self, capsys):
        assert main(["verify", "--group", "heisenberg", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        for name in ("leibniz", "char-composition", "bracket-equivalence",
                     "closure", "direct-sum"):
            assert f"PASS {name}" in out
        assert "FAIL" not in out

    def test_verify_failing_suite_exit_4(self, monkeypatch, capsys):
        import dergrade.verification

        monkeypatch.setattr(dergrade.verification, "verify_leibniz",
                            lambda d, x, y: False)
        assert main(["verify", "--group", "heisenberg", "--samples", "3"]) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "FAIL leibniz (0 passed, 3 failed)"
        assert all(line.startswith("PASS ") for line in lines[1:])

    def test_info(self, capsys):
        assert main(["info", "--group", "heisenberg"]) == 0
        out = capsys.readouterr().out
        assert "generator x" in out and "stem group: yes" in out
        assert main(["info", "--group", "zn:2"]) == 0
        assert "stem group: no" in capsys.readouterr().out


class TestErrorPaths:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", "--group", "heisenberg",
                     "--in", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, tmp_path):
        spec = write(tmp_path / "d.json", {"kind": "mystery"})
        assert main(["decompose", "--group", "heisenberg", "--in", spec]) == 2

    def test_unknown_group_exit_2(self, tmp_path):
        spec = write(tmp_path / "d.json", inner_spec((1, 0, 0)))
        assert main(["decompose", "--group", "zz:9", "--in", spec]) == 2

    def test_group_mismatch_exit_2(self, tmp_path):
        spec = write(tmp_path / "d.json", inner_spec((1, 0, 0)))
        assert main(["decompose", "--group", "zn:2", "--in", spec]) == 2

    @pytest.mark.parametrize("group", ["heisenberg", "zn:2"])
    def test_explicit_quotient_needs_perm_group(self, tmp_path, capsys, group):
        quotient = write(tmp_path / "q.json", {"subgroup": [[0, 0, 1]]})
        spec = write(tmp_path / "d.json", {"kind": "inner", "a": []})
        assert main(["decompose", "--group", group, "--quotient", quotient,
                     "--in", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: explicit subgroup quotients are only supported for perm groups\n")


MALFORMED = {
    "zero-samples": (
        ["verify", "--group", "heisenberg", "--samples", "0"], None, "--samples"),
    "non-integer-entry": (
        ["apply", "--group", "heisenberg"],
        {"derivation": {"group": "heisenberg", "kind": "inner",
                        "a": [[[1, 1, 0, 1], [1, 0, 0]]]},
         "element": [[[1, 1, 0, 1], [1, 0.5, 0]]]},
        "integers"),
    "zero-denominator": (
        ["apply", "--group", "heisenberg"],
        {"derivation": {"group": "heisenberg", "kind": "inner",
                        "a": [[[1, 0, 0, 1], [1, 0, 0]]]},
         "element": [[[1, 1, 0, 1], [0, 1, 0]]]},
        "zero denominator"),
    "empty-perm-name": (["info", "--group", "perm:"], None, "unknown group selector"),
    # JSON true/false load as bool, which is an int subclass
    "bool-heisenberg-entry": (
        ["apply", "--group", "heisenberg"],
        {"derivation": {"group": "heisenberg", "kind": "inner",
                        "a": [[[1, 1, 0, 1], [1, 0, 0]]]},
         "element": [[[1, 1, 0, 1], [True, 0, 0]]]},
        "integers"),
    "bool-zn-entry": (
        ["apply", "--group", "zn:2"],
        {"derivation": {"group": "zn:2", "kind": "central",
                        "tau": [[1, 1, 0, 1], [1, 1, 0, 1]], "z": [True, False]},
         "element": [[[1, 1, 0, 1], [1, 0]]]},
        "integer vector"),
    "bool-perm-entry": (
        ["apply", "--group", "perm:s3"],
        {"derivation": {"group": "perm:s3", "kind": "inner",
                        "a": [[[1, 1, 0, 1], [2, True, 3]]]},
         "element": [[[1, 1, 0, 1], [1, 3, 2]]]},
        "not a permutation"),
    "bool-decompose-entry": (
        ["decompose", "--group", "heisenberg"],
        {"group": "heisenberg", "kind": "inner",
         "a": [[[1, 1, 0, 1], [True, 1, 0]]]},
        "integers"),
    "bool-coefficient": (
        ["apply", "--group", "heisenberg"],
        {"derivation": {"group": "heisenberg", "kind": "inner",
                        "a": [[[1, 1, 0, 1], [1, 0, 0]]]},
         "element": [[[True, 1, 0, 1], [0, 1, 0]]]},
        "integer entries"),
    # text, not an object, is read from stdin: nesting past Python's
    # recursion limit is invalid JSON, not a traceback
    "deep-nesting-stdin": (
        ["apply", "--group", "heisenberg"], "[" * 1000,
        "input is not valid JSON: nested too deeply"),
    "table-images-not-object": (
        ["decompose", "--group", "heisenberg"],
        {"group": "heisenberg", "kind": "table", "images": [1]},
        "JSON object"),
    # selectors are read with ASCII digits only; the kernels' own range
    # checks keep their messages
    **{
        f"selector-{name}": (
            ["info", "--group", name], None,
            f"unknown group selector {name!r}: expected heisenberg, zn:<n> or "
            "perm:<sN|aN>\n")
        for name in ["perm:s", "zn:", "zn:abc", "zn:1_0", "perm:s\u0663", "perm:x3", "zn: 3"]
    },
    "zn:0": (["info", "--group", "zn:0"], None, "error: rank must be >= 1\n"),
    "perm:s1": (["info", "--group", "perm:s1"], None, "error: degree must be >= 2\n"),
    "perm:a2": (["info", "--group", "perm:a2"], None, "error: degree must be >= 3\n"),
    **{
        f"word-len-{value}": (
            ["verify", "--group", "heisenberg", "--samples", "1", "--word-len", value], None,
            f"error: --word-len must be between 0 and MAX_WORD_LEN = 1000, got {value}\n")
        for value in ["-1", "1001", "100000000"]
    },
    **{
        f"samples-{value}": (
            ["verify", "--group", "heisenberg", "--samples", value], None,
            f"error: --samples must be between 1 and MAX_SAMPLES = 1000, got {value}\n")
        for value in ["1001", "100000000"]
    },
}


@pytest.mark.parametrize("argv, job, reason", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_malformed_input_exit_2(tmp_path, capsys, monkeypatch, argv, job, reason):
    if isinstance(job, str):
        monkeypatch.setattr(sys, "stdin", io.StringIO(job))
    elif job is not None:
        argv = argv + ["--in", write(tmp_path / "job.json", job)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err


TERMS = "a list of [coefficient, element] terms"
KIND = ("error: bad derivation spec: field 'kind' must be 'inner', 'central' or "
        "'table', got {}\n")
ARROW_SHAPE = ("error: bad arrow spec: an arrow must be an object with fields 'u' and "
               "'v', each a group element\n")


def _apply(element):
    return "apply", {"derivation": inner_spec((1, 0, 0)), "element": element}


def _apply_spec(spec):
    return "apply", {"derivation": spec, "element": []}


def _character(arrow):
    return "character", {"derivation": inner_spec((1, 0, 0)), "arrow": arrow}


# inputs whose message names the term or field and the expected shape
PARSE_MESSAGES = {
    "two-entry-heisenberg-element": (
        *_apply([[[1, 1, 0, 1], [1, 0, 0]], [[1, 1, 0, 1], [1, 2]]]),
        "error: bad algebra element: term 1: heisenberg element [1, 2] must "
        "have 3 entries [a, b, c]\n"),
    "three-entry-coefficient": (
        *_apply([[[1, 1, 0], [1, 0, 0]]]),
        "error: bad algebra element: term 0: coefficient [1, 1, 0] must have "
        "4 entries [re_num, re_den, im_num, im_den]\n"),
    # a term's element is read before its coefficient, and checked even
    # when the coefficient is zero
    "element-before-coefficient": (
        *_apply([[[1, 1, 0], [1, 2]]]),
        "error: bad algebra element: term 0: heisenberg element [1, 2] must "
        "have 3 entries [a, b, c]\n"),
    "element-of-zero-term": (
        *_apply([[[0, 1, 0, 1], [1, 2]]]),
        "error: bad algebra element: term 0: heisenberg element [1, 2] must "
        "have 3 entries [a, b, c]\n"),
    "one-entry-term": (
        *_apply([[[1, 1, 0, 1]]]),
        "error: bad algebra element: term 0: a term must be "
        "[coefficient, element]\n"),
    "int-element": (
        *_apply(5), f"error: bad algebra element: expected {TERMS}\n"),
    "missing-a": (
        *_apply_spec({"kind": "inner"}),
        f"error: bad derivation spec: field 'a' must be {TERMS}\n"),
    "int-a": (
        *_apply_spec({"kind": "inner", "a": 5}),
        f"error: bad derivation spec: field 'a' must be {TERMS}\n"),
    "missing-tau": (
        *_apply_spec({"kind": "central", "z": [0, 0, 1]}),
        "error: bad derivation spec: field 'tau' must be a list of coefficients\n"),
    "missing-z": (
        *_apply_spec({"kind": "central", "tau": [[1, 1, 0, 1]] * 2}),
        "error: bad derivation spec: field 'z' must be a group element, a list of "
        "integers\n"),
    "int-image": (
        *_apply_spec({"kind": "table", "images": {"x": 5}}),
        f"error: bad derivation spec: field 'images.x' must be {TERMS}\n"),
    "missing-images": (
        *_apply_spec({"kind": "table"}), "error: table images must be a JSON object\n"),
    "missing-kind": (*_apply_spec({"a": []}), KIND.format("None")),
    "int-kind": (*_apply_spec({"kind": 5, "a": []}), KIND.format("5")),
    "unknown-kind": (*_apply_spec({"kind": "mystery"}), KIND.format("'mystery'")),
    "int-group": (
        *_apply_spec({"group": 5, "kind": "inner", "a": []}),
        "error: bad derivation spec: field 'group' must be a group selector string, "
        "got 5\n"),
    "term-of-a": (
        *_apply_spec({"kind": "inner", "a": [[1]]}),
        "error: bad derivation spec: field 'a': term 0: a term must be "
        "[coefficient, element]\n"),
    "coefficient-of-tau": (
        *_apply_spec({"kind": "central", "tau": [[1, 1, 0, 1], [1, 2, 3]], "z": [0, 0, 1]}),
        "error: bad derivation spec: field 'tau': coefficient [1, 2, 3] must have "
        "4 entries [re_num, re_den, im_num, im_den]\n"),
    "term-of-image": (
        *_apply_spec({"kind": "table", "images": {"y": [[[1, 1, 0, 1], [1, 2]]]}}),
        "error: bad derivation spec: field 'images.y': term 0: heisenberg element "
        "[1, 2] must have 3 entries [a, b, c]\n"),
    "element-of-z": (
        *_apply_spec({"kind": "central", "tau": [[1, 1, 0, 1]] * 2, "z": [1, 2]}),
        "error: bad derivation spec: field 'z': heisenberg element [1, 2] must have "
        "3 entries [a, b, c]\n"),
    "element-of-u": (
        *_character({"u": [1, True, 0], "v": [0, 1, 0]}),
        "error: bad arrow spec: field 'u': Heisenberg entries must be integers\n"),
    "element-of-v": (
        *_character({"u": [1, 1, 0], "v": [1, 2]}),
        "error: bad arrow spec: field 'v': heisenberg element [1, 2] must have "
        "3 entries [a, b, c]\n"),
    "list-arrow": (*_character([[1, 1, 0], [0, 1, 0]]), ARROW_SHAPE),
    "arrow-without-v": (*_character({"u": [1, 1, 0]}), ARROW_SHAPE),
    # an element that is not a list is refused before its entries are read
    "bool-element": (
        *_apply([[[1, 1, 0, 1], True]]),
        "error: bad algebra element: term 0: heisenberg element must be a list of 3 "
        "integers [a, b, c], got bool\n"),
    "int-element-of-a": (
        *_apply_spec({"kind": "inner", "a": [[[1, 1, 0, 1], 5]]}),
        "error: bad derivation spec: field 'a': term 0: heisenberg element must be a "
        "list of 3 integers [a, b, c], got int\n"),
    "null-u": (
        *_character({"u": None, "v": [0, 1, 0]}),
        "error: bad arrow spec: field 'u': heisenberg element must be a list of 3 "
        "integers [a, b, c], got NoneType\n"),
    "string-v": (
        *_character({"u": [1, 1, 0], "v": "abc"}),
        "error: bad arrow spec: field 'v': heisenberg element must be a list of 3 "
        "integers [a, b, c], got str\n"),
}


@pytest.mark.parametrize("command, job, message", PARSE_MESSAGES.values(),
                         ids=PARSE_MESSAGES.keys())
def test_parse_error_names_term_and_shape(tmp_path, capsys, command, job, message):
    argv = [command, "--group", "heisenberg", "--in", write(tmp_path / "j.json", job)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("selector, u, v, message", [
    ("zn:2", [1, 0], None,
     "field 'v': zn:2 element must be a list of 2 integers, got NoneType"),
    ("zn:2", True, [0, 1], "field 'u': zn:2 element must be a list of 2 integers, got bool"),
    ("zn:2", [1, 0], "ab", "field 'v': zn:2 element must be a list of 2 integers, got str"),
    ("perm:s4", 5, [1, 2, 3, 4],
     "field 'u': perm:s4 element must be a list of the integers 1..4 in some order, got int"),
    # the entries are checked to be integers before they are sorted
    ("perm:s4", [[1], 2, 3, 4], [1, 2, 3, 4],
     "field 'u': not a permutation of 1..4: ([1], 2, 3, 4)"),
    ("perm:s4", [1, 2, 3, 4], [None, 1, 2, 3],
     "field 'v': not a permutation of 1..4: (None, 1, 2, 3)"),
], ids=["zn-null", "zn-bool", "zn-string", "perm-int", "perm-nested-list", "perm-null-entry"])
def test_element_shape_is_named(tmp_path, capsys, selector, u, v, message):
    spec = {"group": selector, "kind": "inner", "a": []}
    job = {"derivation": spec, "arrow": {"u": u, "v": v}}
    argv = ["character", "--group", selector, "--in", write(tmp_path / "j.json", job)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: bad arrow spec: {message}\n")


def test_samples_limit_checked_before_the_quotient(monkeypatch, capsys):
    def build(group, selector):
        raise AssertionError("quotient built")

    monkeypatch.setattr(cli, "_resolve_quotient", build)
    assert main(["verify", "--group", "perm:s3", "--samples", "1001"]) == 2
    assert capsys.readouterr().out == ""


def test_word_len_limit_still_runs(capsys):
    assert main(["verify", "--group", "zn:3", "--samples", "1",
                 "--word-len", str(cli.MAX_WORD_LEN)]) == 0
    assert capsys.readouterr().out.count("PASS ") == 5


def test_selector_digits_are_canonical(monkeypatch):
    # every kernel is cached by its canonical selector: a leading zero names
    # the same object and adds no entry
    monkeypatch.setattr(groups, "_KERNELS", {})
    assert group_from_name("heisenberg") is group_from_name("heisenberg")
    assert group_from_name("perm:s03") is group_from_name("perm:s3")
    assert group_from_name("zn:03") is group_from_name("zn:3")
    assert group_from_name("zn:" + "0" * 5000 + "3") is group_from_name("zn:3")
    assert sorted(groups._KERNELS) == ["heisenberg", "perm:s3", "zn:3"]


@pytest.mark.parametrize("selector", ["zn:0", "zn:-3", "zn:65", "perm:s1", "perm:a2", "perm:s7"])
def test_rejected_selector_caches_nothing(monkeypatch, selector):
    monkeypatch.setattr(groups, "_KERNELS", {})
    with pytest.raises(ValueError):
        group_from_name(selector)
    assert groups._KERNELS == {}


@pytest.mark.parametrize("selector, message", [
    ("zn:" + "9" * 5000, "error: zn: rank of 5000 digits exceeds the limit MAX_ZN_RANK = 64\n"),
    ("zn:-" + "9" * 5000, "error: zn: rank of 5000 digits exceeds the limit MAX_ZN_RANK = 64\n"),
    ("perm:s" + "9" * 5000,
     "error: perm: degree of 5000 digits exceeds the limit MAX_PERM_DEGREE = 6\n"),
    ("perm:a" + "1" * 5000,
     "error: perm: degree of 5000 digits exceeds the limit MAX_PERM_DEGREE = 6\n"),
], ids=["zn", "negative-zn", "perm-s", "perm-a"])
def test_long_selector_exit_2(capsys, selector, message):
    # refused before int(), which would raise its own 4,300-digit error
    assert main(["info", "--group", selector]) == 2
    assert capsys.readouterr() == ("", message)


# d(x^a) has a terms for the table x -> y*x, y -> 0
GROWING_JOB = {"derivation": {"group": "heisenberg", "kind": "table",
                              "images": {"x": [[[1, 1, 0, 1], [1, 1, 0]]], "y": []}},
               "element": [[[1, 1, 0, 1], [10**12, 0, 0]]]}


def test_term_budget_exit_2(tmp_path, capsys, monkeypatch):
    # the image's 10^12 step terms are counted before any is built: the job
    # makes a handful of payload products, solving the table, and no more
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    products = []
    mul = Heisenberg._mul

    def counted(self, p, q):
        products.append(p)
        return mul(self, p, q)

    monkeypatch.setattr(Heisenberg, "_mul", counted)
    argv = ["apply", "--group", "heisenberg", "--in", write(tmp_path / "j.json", GROWING_JOB)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "at least 1000000000000 terms" in captured.err
    assert "MAX_TERMS = 1000" in captured.err
    assert len(products) <= 2


def test_growing_image_refused_in_time(tmp_path, capsys):
    # at the real MAX_TERMS: refused from the step count, in well under a
    # second, where building the terms would take hours
    argv = ["apply", "--group", "heisenberg", "--in", write(tmp_path / "j.json", GROWING_JOB)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"MAX_TERMS = {algebra.MAX_TERMS}" in captured.err


def test_step_bracket_refused_from_its_jump_count(tmp_path, capsys):
    # inner(sum_{r<60000} (60000, 1, r)) and x -> x*y are one step part
    # each, of two jumps and one: their bracket has 120,000 jumps, counted
    # from the summed runs of the two forms and refused before any is built
    job = {
        "left": {"group": "heisenberg", "kind": "inner",
                 "a": [[[1, 1, 0, 1], [60000, 1, r]] for r in range(60000)]},
        "right": GROWING_JOB["derivation"],
    }
    argv = ["bracket", "--group", "heisenberg", "--in", write(tmp_path / "j.json", job)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr() == (
        "", "error: the bracket of the step parts has 120000 jumps, over the limit "
        "MAX_TERMS = 100000\n",
    )


def _unit_terms(n, payload):
    return [[[1, 1, 0, 1], payload(i)] for i in range(n)]


def _inner(n, payload):
    return {"group": "heisenberg", "kind": "inner", "a": _unit_terms(n, payload)}


# jobs whose parsed element, product or sum of images passes MAX_TERMS = 1000;
# each ran to completion before every merge was bounded (with 700-term inner
# parts the bracket ran for minutes and filled gigabytes)
BUDGET_JOBS = {
    "bracket": ("bracket", "heisenberg", {
        "left": _inner(40, lambda i: [i, 2 * i - 40, -i]),
        "right": _inner(40, lambda i: [-i, i, 3 * i]),
    }),
    "apply-growing": ("apply", "heisenberg", {
        "derivation": {"group": "heisenberg", "kind": "table", "images": {
            "x": [[[1, 1, 0, 1], [1, 1, 0]]], "y": []}},
        "element": _unit_terms(12, lambda i: [600 + i, 0, 0]),
    }),
    "parsed-element": ("apply", "zn:3", {
        "derivation": {"group": "zn:3", "kind": "central",
                       "tau": [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]], "z": [0, 0, 1]},
        "element": _unit_terms(1001, lambda i: [i, 0, 0]),
    }),
}


@pytest.mark.parametrize("name", sorted(BUDGET_JOBS))
def test_term_budget_bounds_every_merge(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    command, group, job = BUDGET_JOBS[name]
    argv = [command, "--group", group, "--in", write(tmp_path / "j.json", job)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "MAX_TERMS = 1000" in captured.err


def test_term_budget_admits_its_limit(tmp_path, capsys, monkeypatch):
    # an element of exactly MAX_TERMS terms, and its image, are kept
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    job = dict(BUDGET_JOBS["parsed-element"][2], element=_unit_terms(1000, lambda i: [i, 0, 0]))
    argv = ["apply", "--group", "zn:3", "--in", write(tmp_path / "j.json", job)]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 999


def test_term_budget_admits_a_sum_that_cancels(tmp_path, capsys, monkeypatch):
    # the 8 disjoint images of the positive terms pass the budget together,
    # and the negative terms after them cancel all but 16 terms
    monkeypatch.setattr(algebra, "MAX_TERMS", 1000)
    element = [[[1, 1, 0, 1], [300, j, 0]] for j in range(1, 9)]
    element += [[[-1, 1, 0, 1], [300, j, 1]] for j in range(1, 9)]
    job = dict(BUDGET_JOBS["apply-growing"][2], element=element)
    argv = ["apply", "--group", "heisenberg", "--in", write(tmp_path / "j.json", job)]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 16


# two commuting 400-term inner derivations, each term of coefficient 1: the
# bracket is 0, though the product of their inner parts has 160,000 terms
COMMUTING_JOBS = {
    "zn:3": {"left": dict(_inner(400, lambda i: [i, 0, 0]), group="zn:3"),
             "right": dict(_inner(400, lambda i: [0, i, 0]), group="zn:3")},
    "heisenberg": {"left": _inner(400, lambda i: [i + 1, 0, 0]),
                   "right": _inner(400, lambda i: [1000 * (i + 1), 0, 0])},
}


@pytest.mark.parametrize("name", sorted(COMMUTING_JOBS))
def test_commuting_bracket_exit_0(tmp_path, capsys, name):
    argv = ["bracket", "--group", name, "--in", write(tmp_path / "j.json", COMMUTING_JOBS[name])]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["group"] == name and out["kind"] == "table"
    assert out["images"] and all(image == [] for image in out["images"].values())


# Heisenberg jobs built from valid spec skeletons, with entries up to 10^12
BIG = 10**12
_entries = st.one_of(st.integers(-2, 2), st.integers(-BIG, BIG))
_elements = st.lists(_entries, min_size=3, max_size=3)
_coefficients = st.tuples(
    st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3)
).map(list)
_terms = st.lists(st.tuples(_coefficients, _elements).map(list), max_size=3)
_specs = st.one_of(
    st.fixed_dictionaries({"kind": st.just("inner"), "a": _terms}),
    st.fixed_dictionaries({
        "kind": st.just("central"),
        "tau": st.lists(_coefficients, min_size=2, max_size=2),
        "z": _entries.map(lambda c: [0, 0, c]),
    }),
    st.fixed_dictionaries({
        "kind": st.just("table"),
        "images": st.fixed_dictionaries({"x": _terms, "y": _terms}),
    }),
)
_jobs = st.one_of(
    st.tuples(st.just("apply"),
              st.fixed_dictionaries({"derivation": _specs, "element": _terms})),
    st.tuples(st.just("character"), st.fixed_dictionaries({
        "derivation": _specs,
        "arrow": st.fixed_dictionaries({"u": _elements, "v": _elements}),
    })),
    st.tuples(st.just("bracket"),
              st.fixed_dictionaries({"left": _specs, "right": _specs})),
)


class JobTimeout(Exception):
    """A job ran past its alarm; no handler in the CLI catches it."""


def _alarm(signum, frame):
    raise JobTimeout("job ran past 10 s")


def _run_in_process(argv, text):
    """(exit code, stdout, stderr) of `main(argv)` reading `text` from stdin,
    stopped by SIGALRM after 10 s."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _leibniz_copy(spec):
    """The `LeibnizCopy` of a heisenberg derivation spec: a table's images
    as given, unchecked, and the images the package gives an inner or
    central spec."""
    if spec["kind"] != "table":
        return LeibnizCopy(H, derivation_from_json(spec, H).images)
    images = spec["images"]
    return LeibnizCopy(H, {
        s: AlgebraElement.from_json(H, images[name])
        for name, s in zip(H.generator_names(), H.generators())
    })


def _terms(data):
    """{payload: coefficient} of an algebra element's JSON."""
    return {tuple(p): GaussianRational.from_json(c) for c, p in data}


def _oracle_verdict(command, data, code, out, err):
    """How a job with a table spec compares with the join route: "equal"
    when it exited 0 and its output is the oracle's, "rejected" when it
    exited 2 for a relation and the oracle rejects one of its tables too,
    and None when there is nothing to compare (another exit, or a result
    the oracle would need more than its term limit to build)."""
    copies = {k: _leibniz_copy(data[k]) for k in ("derivation", "left", "right") if k in data}
    tables = [c for k, c in copies.items() if data[k]["kind"] == "table"]
    if code == 2 and "violate a defining relation" in err:
        assert not all(c.is_derivation() for c in tables)
        return "rejected"
    if code != 0:
        return None
    result = json.loads(out)
    try:
        assert all(c.is_derivation() for c in tables)
        if command == "apply":
            x = AlgebraElement.from_json(H, data["element"])
            assert _terms(result) == copies["derivation"].apply(x)._terms
        elif command == "character":
            arrow = Arrow(H.element(data["arrow"]["u"]), H.element(data["arrow"]["v"]))
            assert GaussianRational.from_json(result) == copies["derivation"].character(arrow)
        else:
            bracket = copies["left"].bracket(copies["right"])
            assert [_terms(result["images"][name]) for name in H.generator_names()] == [
                img._terms for img in bracket.images.values()
            ]
    except OracleLimit:
        return None
    return "equal"


def test_fuzzed_jobs_end_cleanly():
    # every job ends with exit 0, 2 or 3 and a clean output; a job with a
    # table spec is also checked against the join route (`_oracle_verdict`),
    # and both verdicts must occur, so the comparison is never vacuous
    verdicts = []

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_jobs)
    def run(job):
        command, data = job
        code, out, err = _run_in_process([command, "--group", "heisenberg"], json.dumps(data))
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith(("error: ", "setup rejected: "))
        else:
            json.loads(out)
        specs = [data[k] for k in ("derivation", "left", "right") if k in data]
        if any(spec["kind"] == "table" for spec in specs):
            verdicts.append(_oracle_verdict(command, data, code, out, err))

    run()
    assert verdicts.count("equal") and verdicts.count("rejected"), verdicts


@pytest.mark.parametrize("option", ["--in", "--out", "--quotient"])
def test_directory_path_exit_2(tmp_path, capsys, option):
    spec = write(tmp_path / "d.json", {"kind": "inner", "a": []})
    argv = ["decompose", "--group", "perm:s4", "--in", spec]
    assert main(argv + [option, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "subgroup", [[1], 5, [[1, 2, [3], 4]], [["a"]], [[True, 2, 3, 4]], "[" * 995],
    ids=["int-entry", "not-a-list", "nested-entry", "string-entry", "bool-entry",
         "deep-nesting"])
def test_malformed_quotient_exit_2(tmp_path, capsys, subgroup):
    # a str is the whole file's text
    text = subgroup if isinstance(subgroup, str) else json.dumps({"subgroup": subgroup})
    quotient = tmp_path / "q.json"
    quotient.write_text(text)
    spec = write(tmp_path / "d.json", {"kind": "inner", "a": []})
    assert main(["decompose", "--group", "perm:s4", "--quotient", str(quotient),
                 "--in", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestRoundTrips:
    def test_derivation_json_round_trip(self):
        from dergrade.sampling import Sampler

        sampler = Sampler(H, seed=71)
        for _ in range(20):
            d = sampler.derivation()
            assert derivation_from_json(derivation_to_json(d)) == d

    def test_decomposition_output_reparses(self, tmp_path):
        spec = write(tmp_path / "d.json",
                     inner_spec((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        out = tmp_path / "out.json"
        assert main(["decompose", "--group", "heisenberg", "--in", spec,
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        base = derivation_from_json(data["base"])
        total = Derivation.zero(H)
        for comp in data["components"]:
            total = total + derivation_from_json(comp["derivation"], H)
        assert total == base


class TestDeterminism:
    def test_decompose_byte_identical(self, tmp_path):
        spec = write(tmp_path / "d.json", inner_spec((1, 0, 0), (0, 1, 0)))
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        for out in (out1, out2):
            assert main(["decompose", "--group", "heisenberg", "--in", spec,
                         "--out", str(out), "--seed", "5"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        for out in (out1, out2):
            assert main(["verify", "--group", "heisenberg", "--seed", "9",
                         "--samples", "8", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", ["s3", "s4", "s5", "s6", "a4", "a5", "a6"])
def test_perm_info_golden(monkeypatch, capsys, name):
    # a cold group, as a fresh `dergrade info` builds it, against files
    # recorded from an earlier build
    monkeypatch.setattr(groups, "_KERNELS", {})
    assert main(["info", "--group", f"perm:{name}"]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"info-perm-{name}.txt").read_bytes()
    assert captured.err == ""


class TestParserBuiltOnce:
    def test_cached(self):
        assert build_parser() is build_parser()

    def test_runs_around_a_rejected_argument_identical(self, tmp_path, capsys):
        spec = write(tmp_path / "d.json", inner_spec((1, 0, 0), (0, 1, 0)))
        good = ["decompose", "--group", "heisenberg", "--in", spec]
        bad = ["decompose", "--group", "heisenberg", "--samples", "many"]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first, rejected, second, rejected_again = map(run, [good, bad, good, bad])
        assert first[0] == 0 and first[1] and first[2]
        assert rejected[0] == 2 and "invalid int value" in rejected[2]
        assert second == first
        assert rejected_again == rejected


# argparse's own text, recorded at 80 columns from the parser that defined the
# seven options once per subcommand: name -> (argv, exit code, stdout, stderr)
TOP_USAGE = "usage: dergrade [-h] {decompose,bracket,apply,character,verify,info} ...\n"
SUBCOMMAND_USAGE = {
    "decompose": """\
usage: dergrade decompose [-h] --group GROUP [--quotient QUOTIENT]
                          [--in INFILE] [--out OUTFILE] [--seed SEED]
                          [--samples SAMPLES] [--word-len WORD_LEN]
""",
    "bracket": """\
usage: dergrade bracket [-h] --group GROUP [--quotient QUOTIENT] [--in INFILE]
                        [--out OUTFILE] [--seed SEED] [--samples SAMPLES]
                        [--word-len WORD_LEN]
""",
    "apply": """\
usage: dergrade apply [-h] --group GROUP [--quotient QUOTIENT] [--in INFILE]
                      [--out OUTFILE] [--seed SEED] [--samples SAMPLES]
                      [--word-len WORD_LEN]
""",
    "character": """\
usage: dergrade character [-h] --group GROUP [--quotient QUOTIENT]
                          [--in INFILE] [--out OUTFILE] [--seed SEED]
                          [--samples SAMPLES] [--word-len WORD_LEN]
""",
    "verify": """\
usage: dergrade verify [-h] --group GROUP [--quotient QUOTIENT] [--in INFILE]
                       [--out OUTFILE] [--seed SEED] [--samples SAMPLES]
                       [--word-len WORD_LEN]
""",
    "info": """\
usage: dergrade info [-h] --group GROUP [--quotient QUOTIENT] [--in INFILE]
                     [--out OUTFILE] [--seed SEED] [--samples SAMPLES]
                     [--word-len WORD_LEN]
""",
}
SUBCOMMAND_OPTIONS = """
options:
  -h, --help           show this help message and exit
  --group GROUP        heisenberg | zn:<n> | perm:<sN|aN>
  --quotient QUOTIENT  'derived' or a JSON file with {'subgroup': [elements]}
  --in INFILE          input file or '-'
  --out OUTFILE        output file or '-'
  --seed SEED
  --samples SAMPLES
  --word-len WORD_LEN
"""
ARGPARSE_TEXT = {
    "top-help": (["--help"], 0, TOP_USAGE + """
Compute with derivations of group algebras and their grading

positional arguments:
  {decompose,bracket,apply,character,verify,info}

options:
  -h, --help            show this help message and exit
""", ""),
    **{
        f"{name}-help": ([name, "--help"], 0, usage + SUBCOMMAND_OPTIONS, "")
        for name, usage in SUBCOMMAND_USAGE.items()
    },
    "no-command": ([], 2, "", TOP_USAGE
                   + "dergrade: error: the following arguments are required: command\n"),
    "unknown-command": (["frobnicate"], 2, "", TOP_USAGE
                        + "dergrade: error: argument command: invalid choice: 'frobnicate' "
                        "(choose from 'decompose', 'bracket', 'apply', 'character', "
                        "'verify', 'info')\n"),
    "missing-group": (["info"], 2, "", SUBCOMMAND_USAGE["info"]
                      + "dergrade info: error: the following arguments are required: "
                      "--group\n"),
    "bad-seed": (["verify", "--group", "heisenberg", "--seed", "x"], 2, "",
                 SUBCOMMAND_USAGE["verify"]
                 + "dergrade verify: error: argument --seed: invalid int value: 'x'\n"),
}


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_TEXT.values(),
                         ids=ARGPARSE_TEXT.keys())
def test_argparse_text_pinned(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


# every argv shape bench/workloads.py sends through `cli.main`
BENCH_ARGVS = [
    ["apply", "--group", "heisenberg"],
    ["character", "--group", "zn:3"],
    ["bracket", "--group", "heisenberg"],
    ["info", "--group", "perm:s6"],
    ["decompose", "--group", "perm:a5"],
    ["decompose", "--group", "perm:s4", "--quotient", "klein-four.json"],
    ["verify", "--group", "heisenberg", "--samples", "0"],
]

_PLAIN_COMMANDS = list(cli._COMMANDS)
_PLAIN_OPTIONS = list(cli._OPTIONS)
_ODD_COMMANDS = ["frobnicate", "-h", "--help", "--group", "", "--", "info=x"]
_ODD_OPTIONS = ["--gr", "--q", "--s", "--sa", "--wo", "--i", "--group=perm:s3",
                "--seed=3", "--in=-", "-h", "--help", "--", "-", "--bogus", "group"]
_VALUES = ["-", "-5", "-x", "", " 7", "1_0", "perm:s6", "heisenberg", "zn:3", "7", "0",
           "derived", "x", "--group", "-h", "3 ", "+5", "1e3", "\u0663"]


def _random_argv(rng):
    """A command line built mostly from what the plain route reads, with odd
    commands, options and values mixed in."""
    odd = rng.random() < 0.3
    argv = [rng.choice(_ODD_COMMANDS if odd and rng.random() < 0.3 else _PLAIN_COMMANDS)]
    for _ in range(rng.randint(0, 4)):
        argv.append(rng.choice(_ODD_OPTIONS if odd and rng.random() < 0.3 else _PLAIN_OPTIONS))
        argv.append(rng.choice(_VALUES))
    if rng.random() < 0.7 and "--group" not in argv:
        argv += ["--group", rng.choice(_VALUES)]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(_VALUES + _ODD_OPTIONS))
    return argv


class TestPlainRoute:
    def test_agrees_with_argparse(self):
        rng = random.Random(19)
        accepted = 0
        for _ in range(4000):
            argv = _random_argv(rng)
            plain = cli._parse_plain(argv)
            if plain is not None:
                accepted += 1
                assert vars(plain) == vars(build_parser().parse_args(argv)), argv
        assert accepted > 500

    @pytest.mark.parametrize("argv", BENCH_ARGVS, ids=" ".join)
    def test_accepts_bench_argvs(self, argv):
        plain = cli._parse_plain(argv)
        assert plain is not None
        assert vars(plain) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["info", "--group=perm:s3"], ["info", "--gr", "perm:s3"], ["info", "--group"],
        ["info", "--group", "perm:s3", "-h"], ["info", "--group", "perm:s3", "--"],
        ["info", "--group", "zn:3", "--seed", "-3"], ["info", "--group", "zn:3", "--seed", "x"],
        ["info", "--quotient", "derived"], [], ["--group", "zn:3", "info"],
    ])
    def test_leaves_other_argvs_to_argparse(self, argv):
        assert cli._parse_plain(argv) is None

    def test_plain_job_builds_no_parser(self, capsys):
        build_parser.cache_clear()
        assert main(["info", "--group", "perm:s3"]) == 0
        assert build_parser.cache_info().misses == 0
        plain = capsys.readouterr()
        assert main(["info", "--group=perm:s3"]) == 0
        assert build_parser.cache_info().misses == 1
        assert capsys.readouterr() == plain

    def test_help_builds_parser(self, capsys):
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exit_:
            main(["info", "--group", "perm:s3", "-h"])
        assert exit_.value.code == 0
        assert build_parser.cache_info().misses == 1
        assert capsys.readouterr().out.startswith("usage: dergrade info")

    @pytest.mark.parametrize("args, misses", [
        (["info", "--group", "perm:s3"], 0),
        (["info", "--group=perm:s3"], 1),
    ])
    def test_main_reads_sys_argv(self, monkeypatch, capsys, args, misses):
        expected = main(["info", "--group", "perm:s3"]), capsys.readouterr()
        build_parser.cache_clear()
        monkeypatch.setattr(sys, "argv", ["dergrade"] + args)
        assert (main(), capsys.readouterr()) == expected
        assert build_parser.cache_info().misses == misses


def test_cold_import_loads_no_dataclasses_or_fractions():
    # a fresh isolated interpreter imports the package and runs one job of
    # each command on a golden input: neither `dataclasses` (with `inspect`)
    # nor `fractions` (with `decimal`) nor `argparse` is loaded at any point,
    # as every job's command line is read from the option table
    from test_golden import JOBS

    jobs = [
        (["info", "--group", "perm:s4"], None),
        (["verify", "--group", "heisenberg", "--samples", "2"], None),
    ]
    for command in ("apply", "character", "bracket", "decompose"):
        jobs.append(next(job for name, job in JOBS.items() if name.startswith(command + "-")))
    code = "\n".join([
        "import io, json, sys",
        f"sys.path.insert(0, {str(Path(cli.__file__).parent.parent)!r})",
        "jobs = json.load(sys.stdin)",
        "import dergrade, dergrade.cli, dergrade.verification",
        "names = ('dataclasses', 'inspect', 'fractions', 'decimal', 'argparse')",
        "seen = [[name for name in names if name in sys.modules]]",
        "out = sys.stdout",
        "for argv, data in jobs:",
        "    sys.stdin = io.StringIO(json.dumps(data))",
        "    sys.stdout = sys.stderr = io.StringIO()",
        "    seen.append([dergrade.cli.main(argv)] + [name for name in names if name in sys.modules])",
        "out.write(json.dumps(seen))",
    ])
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code],
        input=json.dumps(jobs), capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == [[]] + [[0]] * len(jobs)
