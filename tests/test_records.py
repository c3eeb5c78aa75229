"""The frozen records of the numpy-free layer (``geometry.Record``).

``mean`` and ``cover`` load no ``dataclasses``, so the ten records they use
are slotted classes on one base.  Each keeps what ``@dataclass(frozen=True)``
gave it: the fields in their order as positional parameters, keywords and
defaults, equality and hashing by class and field values, read-only fields,
copies and a dataclass-style repr.
"""

import copy
import math
import pickle

import pytest

from stratclt.covering import CoveringProfile
from stratclt.geometry import Direction, Point, Record, SpaceSpec, TangentVector
from stratclt.measures import (DiscreteMeasure, FirstOrderCertificate, LocalizationReport,
                               MeanDiagnostics, TangentMeasure)


def _spine():
    return Point(SpaceSpec.open_book(3), (0, 0.0, 0.0))


def _vector():
    base = _spine()
    return TangentVector(base, Direction(base, "page_angle", (1, 0.7)), 1.5)


def _certificate():
    return FirstOrderCertificate(2.5e-17, 1e-9)


# each record with its fields in their declared order and a builder of
# canonical values for them, made anew on every call
RECORDS = [
    (SpaceSpec, ("kind", "dim", "legs", "pages", "circumference"),
     lambda: ("open_book", 0, 0, 3, 0.0)),
    (Point, ("space", "coords"), lambda: (SpaceSpec.open_book(3), (1, 0.3, 0.7))),
    (Direction, ("base", "kind", "data"), lambda: (_spine(), "page_angle", (1, 0.7))),
    (TangentVector, ("base", "direction", "length"),
     lambda: (_spine(), Direction(_spine(), "page_angle", (2, 0.25)), 1.5)),
    (DiscreteMeasure, ("space", "atoms"),
     lambda: (SpaceSpec.open_book(3), ((_spine(), 0.25), (Point.of(SpaceSpec.open_book(3),
                                                                      (1, 0.3, 0.7)), 0.75)))),
    (TangentMeasure, ("base", "atoms"), lambda: (_spine(), ((_vector(), 1.0),))),
    (FirstOrderCertificate, ("sup_tangent_mean", "tol"), lambda: (2.5e-17, 1e-9)),
    (MeanDiagnostics, ("mean", "frechet_value", "certificate", "sticky", "sticky_stratum",
                       "min_outward_derivative"),
     lambda: (_spine(), 0.5, _certificate(), True, "spine", 0.2)),
    (LocalizationReport, ("mean", "base", "certificate"),
     lambda: (_spine(), _spine(), _certificate())),
    (CoveringProfile, ("base", "scales", "counts", "d_estimate", "stratum_dim_bound"),
     lambda: (_spine(), (0.5, 0.25, 0.125), (8, 14, 26), 0.9, 3.0)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_fields_in_their_order(cls, fields, values):
    # positional and keyword construction agree, field for field
    assert issubclass(cls, Record) and cls.__slots__ == fields
    record = cls(*values())
    assert tuple(getattr(record, name) for name in fields) == values()
    assert cls(**dict(zip(fields, values()))) == record
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_equal_values_make_equal_records(cls, fields, values):
    a, b = cls(*values()), cls(*values())
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_another_class_is_never_equal(cls, fields, values):
    record = cls(*values())
    # a record class of its own with the same fields and values
    twin = type("Twin", (Record,), {"__slots__": fields})()
    twin._fill(*values())
    assert record != twin and twin != record
    assert record != values() and record != list(values())
    for other, _, other_values in RECORDS:
        if other is not cls:
            assert record != other(*other_values())


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_fields_are_read_only(cls, fields, values):
    record = cls(*values())
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*values())


@pytest.mark.parametrize("cls,fields,values", RECORDS, ids=IDS)
def test_copies_are_equal(cls, fields, values):
    record = cls(*values())
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)


def test_keyword_defaults():
    assert SpaceSpec("spider", legs=3) == SpaceSpec.spider(3)
    assert SpaceSpec("flat_cone", circumference=7).circumference == 7.0
    assert FirstOrderCertificate(0.0).tol == 1e-9
    diag = MeanDiagnostics(_spine(), 0.5, _certificate(), False)
    assert (diag.sticky_stratum, diag.min_outward_derivative) == (None, None)
    # the constructors still canonicalize and check what they are given
    assert Point(SpaceSpec.spider(3), coords=(2, 0.0)).coords == (0, 0.0)
    assert TangentVector(_spine(), None, 0).length == 0.0
    assert DiscreteMeasure(space=SpaceSpec.euclidean(1),
                           atoms=[(Point.of(SpaceSpec.euclidean(1), [1]), 1)]).atoms[0][1] == 1.0


def test_copies_keep_canonical_data_bit_for_bit():
    # a copy sets the fields it is given and does not normalize them again
    base = Point(SpaceSpec.euclidean(3), (0.0, 0.0, 0.0))
    direction = Direction(base, "vector", (1.0, 2.0, 3.0))
    for twin in (copy.deepcopy(direction), pickle.loads(pickle.dumps(direction))):
        assert [x.hex() for x in twin.data] == [x.hex() for x in direction.data]


def test_repr_is_dataclass_style():
    assert repr(SpaceSpec.spider(3)) == (
        "SpaceSpec(kind='spider', dim=0, legs=3, pages=0, circumference=0.0)")
    assert repr(FirstOrderCertificate(0.0)) == (
        "FirstOrderCertificate(sup_tangent_mean=0.0, tol=1e-09)")
    assert repr(Point(SpaceSpec.flat_cone(3 * math.pi), (1.0, 0.5))).startswith(
        "Point(space=SpaceSpec(kind='flat_cone', ")
