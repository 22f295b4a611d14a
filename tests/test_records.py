"""Records keep the frozen-dataclass contract: equality only within a class,
the hash of the field tuple, no assignment, __post_init__ on every
construction and replace, and a fresh default from each factory."""

import pytest

from diraclab.cli import Scenario
from diraclab.courant import DiracFiber, TwoFormFiber, tangent_dirac
from diraclab.linalg import LinMap, canonicalize, vec
from diraclab.records import field, record, replace
from diraclab.report import PASS, CheckRecord, VerificationReport

VALUES = {
    "LinMap": lambda: LinMap.from_rows([[1, 2], [3, 4]]),
    "Subspace": lambda: canonicalize([vec(1, 0, 1), vec(0, 1, 1)], 3),
    "DiracFiber": lambda: tangent_dirac(2),
    "CheckRecord": lambda: CheckRecord("qs.units", PASS, "arrow 0"),
}


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x)._fields)


def twin(cls):
    """A record class with the same field names as cls, and nothing else."""
    return record(type("Twin", (), {"__annotations__": dict.fromkeys(cls._fields, "object")}))


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]()


def test_a_record_equals_only_its_own_class(value):
    plain = fields(value)
    other = twin(type(value))(*plain)
    assert value == type(value)(*plain)
    for x in (plain, other):
        assert not value == x and value != x
        assert not x == value and x != value
    assert {value: 1}.get(plain) is None


def test_the_hash_is_the_hash_of_the_field_tuple(value):
    assert hash(value) == hash(fields(value))


def test_no_attribute_can_be_assigned_or_deleted(value):
    name = type(value)._fields[0]
    for attempt in (lambda: setattr(value, name, 0), lambda: setattr(value, "extra", 0),
                    lambda: delattr(value, name)):
        with pytest.raises(AttributeError):
            attempt()
    assert "extra" not in vars(value)


def test_replace_runs_post_init():
    w = TwoFormFiber(LinMap.from_rows([[0, 1], [-1, 0]]))
    assert replace(w, matrix=w.matrix.scale(2)).matrix == w.matrix.scale(2)
    with pytest.raises(ValueError, match="antisymmetric"):
        replace(w, matrix=LinMap.from_rows([[0, 1], [1, 0]]))
    with pytest.raises(TypeError):
        replace(w, form=w.matrix)


def test_post_init_is_looked_up_on_the_class_at_each_construction(monkeypatch):
    l = tangent_dirac(2)
    calls, post_init = [], DiracFiber.__dict__["__post_init__"]
    monkeypatch.setattr(DiracFiber, "__post_init__",
                        lambda self: calls.append(post_init(self)))
    DiracFiber(l.tangent, l.omega)
    replace(l)
    assert len(calls) == 2


def test_replace_on_a_bundle_recomputes_its_qs_report(pair_bundle):
    report = pair_bundle.qs_report
    copy = replace(pair_bundle)
    assert copy == pair_bundle and "qs_report" not in vars(copy)
    assert copy.qs_report is not report and copy.qs_report == report


def test_each_instance_gets_its_own_default_from_a_factory():
    a, b = VerificationReport("x"), VerificationReport("x")
    a.add("c", True)
    assert a.records is not b.records and b.records == []
    given = []
    assert VerificationReport("x", given).records is given
    assert Scenario("x", dict, dict).dumps is not Scenario("x", dict, dict).dumps


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    with pytest.raises(TypeError):
        record(type("Bad", (), {"__annotations__": {"a": "int", "b": "int"}, "a": 0}))
    made = record(type("Good", (), {"__annotations__": {"a": "int", "b": "list"},
                                    "b": field(default_factory=list)}))
    assert made(1) == made(1, []) and made(1).b is not made(1).b
