"""Command-line front door.

    dergrade <decompose|bracket|apply|character|verify|info>
        --group <heisenberg|zn:<n>|perm:<sN|aN>>
        [--quotient derived|<spec.json>] [--in <file|->] [--out <file|->]
        [--seed <int>] [--samples N] [--word-len L]

The options are defined once, in `_OPTIONS`.  A well-formed command line
(the command, then full option names each followed by its value) is read
straight from that table; argparse, imported on first need and built from
the same table, reads every other command line and prints all help and
error text.

Exit codes: 0 success, 2 spec/parse error, an option value out of range or
an --in, --out or --quotient path that cannot be read or written, 3 setup
rejection, 4 property failure.  All randomness is seeded, so identical jobs
produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import types
from typing import Optional

from .coefficients import integer_entries
from .grading import GradingSetup, TrivialGradingError, decompose
from .groups import (
    CapabilityError,
    Group,
    GroupMismatchError,
    QuotientError,
    QuotientSpec,
    group_from_name,
)
from .serialization import (
    SpecError,
    algebra_element_from_json,
    arrow_from_json,
    decomposition_to_json,
    derivation_from_json,
    derivation_to_json,
    dumps,
)
from .verification import run_all

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SETUP = 3
EXIT_PROPERTY = 4

# Longest --word-len and largest --samples `verify` accepts: every sampled
# word costs time linear in its length, and every sample a run of each suite.
MAX_WORD_LEN = 1000
MAX_SAMPLES = 1000

# option -> (namespace field, type, default, help); --group alone is required
_OPTIONS = {
    "--group": ("group", str, None, "heisenberg | zn:<n> | perm:<sN|aN>"),
    "--quotient": (
        "quotient", str, "derived", "'derived' or a JSON file with {'subgroup': [elements]}"
    ),
    "--in": ("infile", str, "-", "input file or '-'"),
    "--out": ("outfile", str, "-", "output file or '-'"),
    "--seed": ("seed", int, 0, None),
    "--samples": ("samples", int, 25, None),
    "--word-len": ("word_len", int, 4, None),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing does not change it.
    argparse is imported here, so a plain command line never loads it."""
    import argparse

    # the options every subcommand takes, defined once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    for option, (dest, kind, default, text) in _OPTIONS.items():
        common.add_argument(
            option, dest=dest, type=kind, default=default, help=text, required=default is None
        )
    parser = argparse.ArgumentParser(
        prog="dergrade",
        description="Compute with derivations of group algebras and their grading",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _parse_plain(argv: list) -> Optional[types.SimpleNamespace]:
    """The fields argparse reads from `<command> --option value ...` with
    full option names, a --group, and no value that starts with '-' other
    than '-' itself; None for every other argv, which argparse then reads."""
    if len(argv) % 2 == 0 or argv[0] not in _COMMANDS:
        return None
    fields = {dest: default for dest, _, default, _ in _OPTIONS.values()}
    for option, value in zip(argv[1::2], argv[2::2]):
        spec = _OPTIONS.get(option)
        if spec is None or (value.startswith("-") and value != "-"):
            return None
        try:
            fields[spec[0]] = spec[1](value)
        except ValueError:
            return None
    if fields["group"] is None:
        return None
    return types.SimpleNamespace(command=argv[0], **fields)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dergrade-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"input is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise SpecError("input is not valid JSON: nested too deeply") from exc


def _resolve_quotient(group: Group, selector: str) -> QuotientSpec:
    if selector == "derived":
        return group.derived_quotient()
    data = _load_json(_read_input(selector))
    if not isinstance(data, dict) or not isinstance(data.get("subgroup"), list):
        raise SpecError("quotient spec must be an object with a 'subgroup' list")
    for entry in data["subgroup"]:
        if not isinstance(entry, list) or not integer_entries(entry):
            raise SpecError(
                f"quotient subgroup entry {json.dumps(entry)} is not a list of integers"
            )
    return group.quotient_by(data["subgroup"])


def _cmd_decompose(args, group: Group) -> int:
    setup = GradingSetup(group, _resolve_quotient(group, args.quotient))
    d = derivation_from_json(_load_json(_read_input(args.infile)), group)
    dec = decompose(d, setup)
    _write_output(args.outfile, dumps(decomposition_to_json(dec)))
    for key in dec.keys():
        n_terms = sum(len(img) for img in dec.components[key].images.values())
        print(
            f"component {setup.quotient.key_name(key)}: {n_terms} generator-image terms",
            file=sys.stderr,
        )
    if not dec.components:
        print("zero derivation: no components", file=sys.stderr)
    return EXIT_OK


def _read_pair(args, usage: str, first: str, second: str) -> tuple:
    """The fields `first` and `second` of the JSON object read from --in;
    `SpecError(usage)` unless the input is an object holding both."""
    data = _load_json(_read_input(args.infile))
    if not isinstance(data, dict) or first not in data or second not in data:
        raise SpecError(usage)
    return data[first], data[second]


def _cmd_bracket(args, group: Group) -> int:
    usage = "bracket input must be {'left': <spec>, 'right': <spec>}"
    left, right = _read_pair(args, usage, "left", "right")
    d = derivation_from_json(left, group)
    p = derivation_from_json(right, group)
    _write_output(args.outfile, dumps(derivation_to_json(d.bracket(p))))
    return EXIT_OK


def _cmd_apply(args, group: Group) -> int:
    usage = "apply input must be {'derivation': <spec>, 'element': <algebra>}"
    spec, element = _read_pair(args, usage, "derivation", "element")
    d = derivation_from_json(spec, group)
    x = algebra_element_from_json(group, element)
    _write_output(args.outfile, dumps(d.apply(x).to_json()))
    return EXIT_OK


def _cmd_character(args, group: Group) -> int:
    usage = "character input must be {'derivation': <spec>, 'arrow': {'u','v'}}"
    spec, ends = _read_pair(args, usage, "derivation", "arrow")
    d = derivation_from_json(spec, group)
    arrow = arrow_from_json(group, ends)
    _write_output(args.outfile, dumps(d.character(arrow).to_json()))
    return EXIT_OK


def _cmd_verify(args, group: Group) -> int:
    if args.samples <= 0:
        raise SpecError(f"--samples must be positive, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise SpecError(
            f"--samples must be between 1 and MAX_SAMPLES = {MAX_SAMPLES}, "
            f"got {args.samples}"
        )
    if not 0 <= args.word_len <= MAX_WORD_LEN:
        raise SpecError(
            f"--word-len must be between 0 and MAX_WORD_LEN = {MAX_WORD_LEN}, "
            f"got {args.word_len}"
        )
    quotient = _resolve_quotient(group, args.quotient)
    results = run_all(
        group,
        quotient,
        seed=args.seed,
        samples=args.samples,
        word_len=args.word_len,
    )
    lines = []
    any_failed = False
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        lines.append(
            f"{status} {result.name} ({result.passed} passed, {result.failed} failed)"
        )
        any_failed = any_failed or not result.ok
    _write_output(args.outfile, "".join(line + "\n" for line in lines))
    return EXIT_PROPERTY if any_failed else EXIT_OK


def _cmd_info(args, group: Group) -> int:
    lines = [f"group: {group.name}"]
    for name, s in zip(group.generator_names(), group.generators()):
        lines.append(f"generator {name}: {list(s.payload)}")
    lines.append(f"center: {group.center_description()}")
    lines.append(f"commutator subgroup: {group.commutator_description()}")
    lines.append(f"stem group: {'yes' if group.is_stem() else 'no'}")
    _write_output(args.outfile, "".join(line + "\n" for line in lines))
    return EXIT_OK


_COMMANDS = {
    "decompose": _cmd_decompose,
    "bracket": _cmd_bracket,
    "apply": _cmd_apply,
    "character": _cmd_character,
    "verify": _cmd_verify,
    "info": _cmd_info,
}


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        group = group_from_name(args.group)
        return _COMMANDS[args.command](args, group)
    except (QuotientError, TrivialGradingError) as exc:
        print(f"setup rejected: {exc}", file=sys.stderr)
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic:
            print(
                f"counterexample element {diagnostic['element']}: "
                f"conjugacy class {diagnostic['conjugacy_class']} is not contained "
                f"in its coset {diagnostic['coset']}",
                file=sys.stderr,
            )
        return EXIT_SETUP
    except (ValueError, GroupMismatchError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
