"""The output writer against `json.dumps`, byte for byte.

`serialization.dumps` writes dicts with str keys, lists, tuples, strs and
ints itself and hands anything else to `json.dumps`; either way the text,
or the error, must be what `json.dumps` gives.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from dergrade import serialization
from dergrade.serialization import dumps


def reference(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def outcome(write, obj):
    try:
        return write(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


strings = st.text() | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "é", " ", "😀", "a\nb"])
integers = st.integers() | st.sampled_from([0, -1, 10**30, -(10**30)])


def nested(leaves, keys):
    return st.recursive(
        leaves,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(keys, inner, max_size=4)
        ),
        max_leaves=20,
    )


# what the writer handles itself, empty containers included
handled = nested(strings | integers, strings)
# the same with bool, None, float and non-str keys mixed in, each of which
# sends the whole object to json.dumps
fallback_leaves = st.booleans() | st.none() | st.floats()
mixed = nested(strings | integers | fallback_leaves, strings | integers | fallback_leaves)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(handled)
def test_handled_values_written_without_json(obj):
    assert serialization._encode(obj, "\n") + "\n" == reference(obj)
    assert dumps(obj) == reference(obj)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mixed)
def test_every_value_matches_json(obj):
    assert outcome(dumps, obj) == outcome(reference, obj)


@pytest.mark.parametrize("obj", [
    True, None, 1.5, [1, False], {"a": None}, {1: "int key"}, {"a": 1, 2: "b"},
    [{"x": float("nan")}], {(1, 2): 3}, [set()],
])
def test_fallback_examples(obj):
    with pytest.raises(TypeError):
        serialization._encode(obj, "\n")
    assert outcome(dumps, obj) == outcome(reference, obj)


def test_errors_match_json():
    loop = []
    loop.append(loop)
    assert outcome(dumps, loop) == outcome(reference, loop) == (ValueError, "Circular reference detected")
    # past the interpreter's digit limit, where it has one, int() refuses
    # to write the number in either writer
    huge = [10**5000]
    assert outcome(dumps, huge) == outcome(reference, huge)
