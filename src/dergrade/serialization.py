"""JSON codecs for elements, arrows, derivations, and decompositions.

Everything serializes deterministically: coefficients in lowest terms, terms
sorted by the kernel's element order, component keys sorted lexicographically.

`dumps` writes exactly what `json.dumps(obj, sort_keys=True,
separators=(",", ": "), indent=1) + "\n"` writes, in one recursive pass.
With an indent, `json.dumps` runs its pure-Python encoder, which took
about a fifth of a small CLI job's time.  The writer knows
dicts with str keys, lists, tuples, strs (escaped by the C
`encode_basestring_ascii` that `json` itself uses) and ints; a value or key
of any other type, bool and int subclasses included, hands the whole object
to `json.dumps`, so no output byte and no error can differ.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional

from .algebra import AlgebraElement
from .coefficients import GaussianRational
from .derivations import Derivation
from .grading import GradedDecomposition
from .groups import Arrow, Group, group_from_name


class SpecError(ValueError):
    """A malformed derivation / job specification."""


_TERMS = "a list of [coefficient, element] terms"


def _list_field(value, field: str, expected: str) -> list:
    """A derivation spec's field `field`, which must be a list."""
    if not isinstance(value, list):
        raise SpecError(f"bad derivation spec: field {field!r} must be {expected}")
    return value


def _parsed(field: str, parse):
    """parse() for a derivation spec's field `field`; an error it raises is
    prefixed with the field's name."""
    try:
        return parse()
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad derivation spec: field {field!r}: {exc}") from exc


def arrow_from_json(group: Group, data) -> Arrow:
    if not isinstance(data, dict) or "u" not in data or "v" not in data:
        raise SpecError(
            "bad arrow spec: an arrow must be an object with fields 'u' and 'v', "
            "each a group element"
        )
    ends = []
    for field in ("u", "v"):
        try:
            ends.append(group.element(data[field]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"bad arrow spec: field {field!r}: {exc}") from exc
    return Arrow(*ends)


def algebra_element_from_json(group: Group, data) -> AlgebraElement:
    if not isinstance(data, list):
        raise SpecError(f"bad algebra element: expected {_TERMS}")
    try:
        return AlgebraElement.from_json(group, data)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad algebra element: {exc}") from exc


def derivation_to_json(d: Derivation) -> dict:
    if d.spec is not None:
        return d.spec
    return {
        "group": d.group.name,
        "kind": "table",
        "images": {
            name: d.images[s].to_json()
            for name, s in zip(d.group.generator_names(), d.group.generators())
        },
    }


def derivation_from_json(data, group: Optional[Group] = None) -> Derivation:
    if not isinstance(data, dict):
        raise SpecError("derivation spec must be a JSON object")
    try:
        spec_group = data.get("group")
        if spec_group is not None and not isinstance(spec_group, str):
            raise SpecError(
                "bad derivation spec: field 'group' must be a group selector string, "
                f"got {spec_group!r}"
            )
        if group is None:
            if spec_group is None:
                raise SpecError("derivation spec is missing a group")
            group = group_from_name(spec_group)
        elif spec_group is not None and spec_group != group.name:
            raise SpecError(
                f"derivation spec names group {spec_group!r}, expected {group.name!r}"
            )
        kind = data.get("kind")
        if kind == "inner":
            a = _list_field(data.get("a"), "a", _TERMS)
            return Derivation.inner(_parsed("a", lambda: AlgebraElement.from_json(group, a)))
        if kind == "central":
            tau = _list_field(data.get("tau"), "tau", "a list of coefficients")
            tau = _parsed("tau", lambda: [GaussianRational.from_json(t) for t in tau])
            z = _list_field(data.get("z"), "z", "a group element, a list of integers")
            z = _parsed("z", lambda: group.element(z))
            return Derivation.central(group, tau, z)
        if kind == "table":
            if not isinstance(data.get("images"), dict):
                raise SpecError("table images must be a JSON object")
            by_name = dict(zip(group.generator_names(), group.generators()))
            images = {}
            for name, img in data["images"].items():
                if name not in by_name:
                    raise SpecError(f"unknown generator name {name!r}")
                field = f"images.{name}"
                img = _list_field(img, field, _TERMS)
                images[by_name[name]] = _parsed(
                    field, lambda: AlgebraElement.from_json(group, img)
                )
            for name, s in by_name.items():
                images.setdefault(s, AlgebraElement.zero(group))
            return Derivation.from_table(group, images)
        raise SpecError(
            "bad derivation spec: field 'kind' must be 'inner', 'central' or 'table', "
            f"got {kind!r}"
        )
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad derivation spec: {exc}") from exc


def decomposition_to_json(dec: GradedDecomposition) -> dict:
    return {
        "base": derivation_to_json(dec.base),
        "components": [
            {
                "key": list(key),
                "derivation": derivation_to_json(dec.components[key]),
            }
            for key in dec.keys()
        ],
    }


def _encode(obj, indent: str) -> str:
    """obj as `json.dumps` writes it with indent=1 at the depth whose line
    break and indent is `indent`; `TypeError` for a value or key it leaves
    to `json.dumps`."""
    cls = obj.__class__
    if cls is int:
        return int.__repr__(obj)
    if cls is str:
        return _encode_str(obj)
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = indent + " "
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + indent + "]"
    if cls is dict:
        if not obj:
            return "{}"
        inner = indent + " "
        items = []
        for key in sorted(obj):
            if key.__class__ is not str:
                raise TypeError("a key left to json.dumps")
            items.append(_encode_str(key) + ": " + _encode(obj[key], inner))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError("a value left to json.dumps")


def dumps(obj) -> str:
    try:
        return _encode(obj, "\n") + "\n"
    except (TypeError, RecursionError):
        # TypeError: a value or key left to json.dumps, or keys of mixed
        # types, which do not sort; RecursionError: a nesting too deep, or a
        # cycle, which json.dumps reports as such
        return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
