"""The result records behave as the frozen dataclasses they replaced.

Every record type is compared with a ``dataclasses`` twin made here from
the field list the dataclass had: positional, keyword and mixed
construction, defaults, the TypeErrors of a bad call, ``==``, ``hash``,
``repr``, and frozen assignment and deletion.  The field lists are written
out by hand, so a record that lost, gained or reordered a field fails too.
"""

import dataclasses

import pytest

from kstab.intersect import Chamber
from kstab.invariants import DivisorialVerdict, FlagReport
from kstab.lattice import DiscriminantGroup, Overlattice
from kstab.lp import LPResult
from kstab.models import FlagSetup
from kstab.poly import Piece
from kstab.records import Record
from kstab.toric import Facet
from kstab.verify import Row
from kstab.zariski import (
    FlagCell,
    FlagChamber,
    FlagDecomposition,
    VolumeChamber,
    VolumeFunction,
    ZariskiResult,
    _Certs,
    _SChamber,
)

# record type -> (fields, defaults), as the dataclass declared them
FIELDS = {
    Chamber: (("lo", "hi", "p0", "p1"), {}),
    DivisorialVerdict: (("divisor", "log_discrepancy", "expected_vanishing"), {}),
    FlagReport: (("value", "cells", "prefactor"), {}),
    FlagSetup: (("surface", "divisor", "images", "note"), {}),
    DiscriminantGroup: (("lattice", "factors", "generators"), {}),
    Overlattice: (("gram", "basis", "subgroup"), {}),
    LPResult: (("value", "x", "basis", "dual"), {}),
    Piece: (("lo", "hi", "poly", "label"), {"label": None}),
    Facet: (("normal", "offset", "vertices"), {}),
    Row: (("claim", "expected", "computed", "ok", "note"), {"note": ""}),
    ZariskiResult: (("positive", "negative", "support", "support_gram"), {}),
    VolumeChamber: (("lo", "hi", "p0", "p1", "support"), {}),
    VolumeFunction: (("pw", "chambers", "certificate"), {}),
    _Certs: (("support", "rows", "mult_den", "nef_den"), {}),
    _SChamber: (("lo", "hi", "support", "upper_cert", "positive"), {}),
    FlagCell: (("s_lo", "s_hi", "volume", "positive", "support"), {}),
    FlagChamber: (("t_lo", "t_hi", "cells"), {}),
    FlagDecomposition: (("chambers", "tvar", "svar"), {}),
}
RECORDS = sorted(FIELDS, key=lambda cls: cls.__name__)


def _twin(cls):
    fields, defaults = FIELDS[cls]
    spec = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object) for f in fields]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def _outcome(make, *args, **kwargs):
    """The object built, or the type of the exception raised."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:  # compared by type
        return type(exc)


def test_every_record_is_listed():
    from kstab import intersect, invariants, k3cat, lattice, lp, models, poly, toric, verify, zariski

    found = {
        obj for module in (intersect, invariants, k3cat, lattice, lp, models, poly, toric, verify, zariski)
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert found == set(FIELDS)
    assert len(FIELDS) == 18


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestAgainstDataclassTwin:
    def test_fields_and_defaults(self, cls):
        fields, defaults = FIELDS[cls]
        assert cls._fields == fields == cls.__match_args__
        for name, value in defaults.items():
            assert getattr(cls, name) == value

    def test_positional_and_keyword_construction(self, cls):
        twin = _twin(cls)
        fields, defaults = FIELDS[cls]
        values = tuple(range(1, len(fields) + 1))
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
        for rec in (by_position, by_keyword, mixed):
            assert tuple(getattr(rec, f) for f in fields) == values
            assert rec == by_position and hash(rec) == hash(twin(*values))
            assert repr(rec) == repr(twin(*values))
        if defaults:
            short = values[: len(fields) - len(defaults)]
            assert repr(cls(*short)) == repr(twin(*short))

    def test_bad_calls_raise_the_same_errors(self, cls):
        twin = _twin(cls)
        fields, defaults = FIELDS[cls]
        values = tuple(range(len(fields)))
        calls = [
            ((), {}),
            (values[:-1], {}) if not defaults else (values[:1], {}),
            (values + (0,), {}),
            (values, {"nosuch": 0}),
            (values, {fields[0]: 0}),
            (values[1:], {"nosuch": 0}),
        ]
        for args, kwargs in calls:
            assert _outcome(cls, *args, **kwargs) is TypeError
            assert _outcome(twin, *args, **kwargs) is TypeError

    def test_equality(self, cls):
        twin = _twin(cls)
        n = len(FIELDS[cls][0])
        a, b = cls(*range(n)), cls(*range(n))
        other = cls(*range(1, n + 1))
        assert a == b and not a != b and a is not b
        assert a != other and not a == other
        assert a != twin(*range(n))  # a record equals only its own class
        assert (a == tuple(range(n))) is False
        assert (twin(*range(n)) == twin(*range(n))) is (a == b)

    def test_frozen(self, cls):
        twin = _twin(cls)
        n = len(FIELDS[cls][0])
        field = FIELDS[cls][0][-1]
        for rec in (cls(*range(n)), twin(*range(n))):
            with pytest.raises(AttributeError):
                setattr(rec, field, 99)
            with pytest.raises(AttributeError):
                setattr(rec, "extra", 99)
            with pytest.raises(AttributeError):
                delattr(rec, field)
            assert getattr(rec, field) == n - 1

    def test_unhashable_field_is_unhashable(self, cls):
        n = len(FIELDS[cls][0])
        rec, twin = cls([], *range(1, n)), _twin(cls)([], *range(1, n))
        for obj in (rec, twin):
            with pytest.raises(TypeError):
                hash(obj)


def test_a_default_before_a_required_field_is_rejected():
    with pytest.raises(TypeError):
        class Bad(Record):  # noqa: F841
            a: int = 0
            b: int


def test_lp_result_is_frozen_and_hashable():
    res = LPResult(1, (0, 1), (1,), (1,))
    assert hash(res) == hash((1, (0, 1), (1,), (1,)))
    with pytest.raises(AttributeError):
        res.value = 2
