"""The value-class contract every library record keeps."""

import inspect
import pickle

import pytest

from invlab.cli import InstanceResult
from invlab.digraph import Digraph, InversionFamily
from invlab.solver import MAX_K, InvResult, SearchOptions

# (class, fields in order, the same with one field changed)
CASES = [
    (Digraph, {"n": 3, "out_rows": (0b010, 0b100, 0b001)},
     {"n": 3, "out_rows": (0b010, 0b100, 0b000)}),
    (InversionFamily, {"n": 3, "sets": (0b011, 0b110)},
     {"n": 3, "sets": (0b011,)}),
    (SearchOptions, {"max_k": MAX_K, "budget": None},
     {"max_k": 3, "budget": None}),
    (InvResult,
     {"value": 1, "witness": InversionFamily(3, (0b111,)), "backend": "assign",
      "nodes_explored": 10, "elapsed": 0.5, "max_k_exhausted": 0},
     {"value": 1, "witness": InversionFamily(3, (0b111,)), "backend": "assign",
      "nodes_explored": 11, "elapsed": 0.5, "max_k_exhausted": 0}),
    (InstanceResult, {"encoding": "enc:3:2.4.1", "status": "PASS", "detail": "inv=1"},
     {"encoding": "enc:3:2.4.1", "status": "FAIL", "detail": "inv=1"}),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, changed", CASES, ids=IDS)
def test_value_class_contract(cls, fields, changed):
    value = cls(*fields.values())

    # construction by position, by keyword and with defaults agree
    assert cls(**fields) == value
    defaults = {
        name: p.default
        for name, p in inspect.signature(cls).parameters.items()
        if p.default is not p.empty
    }
    if defaults:
        given = {name: v for name, v in fields.items() if name not in defaults}
        assert all(fields[name] == v for name, v in defaults.items())
        assert cls(**given) == value
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert list(inspect.signature(cls).parameters) == list(fields)

    # immutable: no field can be set or deleted, and no attribute added
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, name) for name in fields] == list(fields.values())

    # equality and hash by fields
    twin = cls(*fields.values())
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert len({value, twin}) == 1
    other = cls(**changed)
    assert other != value and not other == value

    # never equal to a plain tuple or to another class's value
    assert value != tuple(fields.values())
    for other_cls, other_fields, _ in CASES:
        if other_cls is not cls:
            assert value != other_cls(*other_fields.values())

    # printed as Name(field=value, ...)
    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and hash(back) == hash(value)


@pytest.mark.parametrize(
    "cls, items", [(Digraph, [2, 4, 1]), (InversionFamily, [1, 2])],
    ids=["Digraph", "InversionFamily"],
)
def test_a_list_given_is_stored_as_a_tuple(cls, items):
    value = cls(3, items)
    kept = tuple(items)
    assert type(getattr(value, cls.__slots__[1])) is tuple
    assert value == cls(3, kept) and hash(value) == hash(cls(3, kept))
    # a later change to the caller's list changes nothing in the value
    items[0] = 1
    assert value == cls(3, kept)


def test_same_fields_in_different_classes_differ():
    rows = (0b010, 0b100, 0b001)
    assert Digraph(3, rows) != InversionFamily(3, rows)
    assert InversionFamily(3, rows) != Digraph(3, rows)

