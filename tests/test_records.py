"""The immutable records: arrows, grading results and property verdicts.

Each is a `groups.Record`, a slotted class whose fields are its `__slots__`.
These tests pin what the dataclasses they replaced gave: `==` on fields of
one class, `hash` of the field tuple (a `TypeError` where a field is not
hashable), the dataclass `repr`, refused assignment and deletion, and a
pickle round trip.
"""

import pickle

import pytest

from dergrade import (
    AlgebraElement,
    Arrow,
    ClosureReport,
    Derivation,
    GradedDecomposition,
    GradingSetup,
    InnerGradedCertificate,
    check_bracket_closure,
    decompose,
    group_from_name,
    inner_graded_decomposition,
)
from dergrade.grading import ClosureCheck
from dergrade.groups import Record
from dergrade.verification import PropertyResult

H = group_from_name("heisenberg")
S4 = group_from_name("perm:s4")


def inner(*terms):
    return Derivation.inner(AlgebraElement.from_terms(S4, [(S4.element(p), c) for p, c in terms]))


def build(name):
    """A record of the class named, built from scratch: two builds are equal
    and share no object but the kernel."""
    setup = GradingSetup.default(S4)
    d = inner(((2, 1, 3, 4), 1), ((2, 3, 4, 1), 2))
    p = inner(((1, 3, 2, 4), 1))
    report = check_bracket_closure(d, p, setup)
    return {
        "Arrow": lambda: Arrow(H.element((1, 2, 3)), H.element((0, 1, 0))),
        "GradingSetup": lambda: setup,
        "GradedDecomposition": lambda: decompose(d, setup),
        "ClosureCheck": lambda: report.checks[0],
        "ClosureReport": lambda: report,
        "InnerGradedCertificate": lambda: inner_graded_decomposition(
            [1, 2], [S4.element((2, 1, 3, 4)), S4.element((2, 3, 4, 1))], setup
        ),
        "PropertyResult": lambda: PropertyResult("leibniz", 3, 1),
    }[name]()


# class name -> (class, its fields in order, whether every field hashes)
RECORDS = {
    "Arrow": (Arrow, ("u", "v"), True),
    "GradingSetup": (GradingSetup, ("group", "quotient"), True),
    "GradedDecomposition": (GradedDecomposition, ("base", "setup", "components"), False),
    "ClosureCheck": (
        ClosureCheck,
        ("left_key", "right_key", "expected_key", "observed_keys", "ok"),
        True,
    ),
    "ClosureReport": (ClosureReport, ("checks",), True),
    "InnerGradedCertificate": (
        InnerGradedCertificate,
        ("decomposition", "witnesses", "certified"),
        False,
    ),
    "PropertyResult": (PropertyResult, ("name", "passed", "failed"), True),
}

@pytest.mark.parametrize("name", RECORDS)
class TestRecord:
    def test_fields_are_the_slots(self, name):
        cls, fields, _ = RECORDS[name]
        record = build(name)
        assert type(record) is cls and cls.__slots__ == fields
        assert not hasattr(record, "__dict__")

    def test_equality(self, name):
        cls, fields, _ = RECORDS[name]
        record, again = build(name), build(name)
        assert record == again and not record != again
        values = [getattr(record, f) for f in fields]
        assert record == cls(*values)
        assert record != object() and record != tuple(values)
        # one field changed, as far as the class's own check allows
        changed = values[:-1] + [object()]
        other = cls.__new__(cls)
        Record.__init__(other, *changed)
        assert record != other

    def test_hash(self, name):
        cls, fields, hashable = RECORDS[name]
        record = build(name)
        if hashable:
            assert hash(record) == hash(build(name))
            assert hash(record) == hash(tuple(getattr(record, f) for f in fields))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_repr(self, name):
        cls, fields, _ = RECORDS[name]
        record = build(name)
        listed = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
        assert repr(record) == f"{name}({listed})"

    def test_assignment_refused(self, name):
        cls, fields, _ = RECORDS[name]
        record = build(name)
        before = [getattr(record, f) for f in fields]
        for field in fields + ("extra",):
            with pytest.raises(AttributeError, match=f"immutable {name}"):
                setattr(record, field, 0)
        for field in fields:
            with pytest.raises(AttributeError, match=f"immutable {name}"):
                delattr(record, field)
        assert [getattr(record, f) for f in fields] == before

    def test_pickle_round_trip(self, name):
        _, _, hashable = RECORDS[name]
        record = build(name)
        copy = pickle.loads(pickle.dumps(record))
        assert copy is not record and copy == record
        if hashable:
            assert hash(copy) == hash(record)


def test_repr_text():
    # the text a dataclass printed, pinned literally where it is short
    assert repr(build("Arrow")) == "Arrow(u=heisenberg(1, 2, 3), v=heisenberg(0, 1, 0))"
    assert repr(build("PropertyResult")) == "PropertyResult(name='leibniz', passed=3, failed=1)"
    assert repr(build("ClosureCheck")) == (
        "ClosureCheck(left_key=(1, 2, 4, 3), right_key=(1, 2, 4, 3), "
        "expected_key=(1, 2, 3, 4), observed_keys=frozenset({(1, 2, 3, 4)}), ok=True)"
    )


def test_wrong_field_count_refused():
    with pytest.raises(TypeError, match="PropertyResult takes 3 fields, not 2"):
        PropertyResult("leibniz", 3)


def test_checks_run_in_the_constructor():
    # the dataclasses' __post_init__ checks, now in __init__
    with pytest.raises(TypeError, match="different groups"):
        Arrow(H.element((1, 0, 0)), S4.element((2, 1, 3, 4)))
    with pytest.raises(TypeError, match="different group"):
        GradingSetup(H, S4.derived_quotient())


def test_grading_setup_defines_its_own_init():
    # bench/tracing.py times a setup's validation by wrapping
    # vars(GradingSetup)["__init__"]; an inherited __init__ would drop it
    assert "__init__" in vars(GradingSetup)
    assert vars(GradingSetup)["__init__"] is not Record.__init__
