"""The package's record types: immutable named tuples with their fields
annotated, the repr a dataclass would print, and validation on every
construction path."""

import pytest

import xxrx
from xxrx import (
    AsymptoticEstimate,
    BFile,
    CountTable,
    CrossCheckReport,
    Discrepancy,
    Factorization,
    IntersectionReport,
    PartitionPair,
    PatternInstance,
    QuadCase,
    QuadExponents,
)

EXAMPLES = [
    (PatternInstance, (0, 4)),
    (Factorization, ("0", (4, 4, 4))),
    (PartitionPair, ((1,), (2, 3))),
    (CountTable, (2, (1, 2, 3), (1, 1, 2), (1, 2, 4))),
    (AsymptoticEstimate, (500, 1.5e20, 0.001)),
    (QuadExponents, (1, 2, 3, 4)),
    (QuadCase, (QuadExponents(1, 2, 3, 4), True, True)),
    (IntersectionReport, (2, 16, ())),
    (BFile, (((0, 1), (1, 2)), "A261204")),
    (Discrepancy, (5, "words", 10, 11)),
    (CrossCheckReport, (12, 25, (Discrepancy(5, "words", 10, 11),))),
]


def test_examples_cover_every_record_type():
    records = {
        obj
        for obj in (getattr(xxrx, name) for name in xxrx.__all__)
        if isinstance(obj, type) and issubclass(obj, tuple)
    }
    assert records == {cls for cls, _ in EXAMPLES}


@pytest.mark.parametrize("cls, values", EXAMPLES, ids=[cls.__name__ for cls, _ in EXAMPLES])
def test_record_contract(cls, values):
    # the annotations on the class name exactly the tuple's fields, in order
    assert tuple(vars(cls)["__annotations__"]) == cls._fields
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None
    # the repr a frozen dataclass gave
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    twin = cls(**dict(zip(cls._fields, values)))
    assert twin == record and hash(twin) == hash(record)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QuadExponents._make([1, 1, 1, 0]),
        lambda: QuadExponents(1, 1, 1, 1)._replace(i=0),
        lambda: PartitionPair._make([(2, 1), ()]),
        lambda: PartitionPair((1,), (2,))._replace(mu=(3, 3)),
    ],
    ids=["quad-make", "quad-replace", "pair-make", "pair-replace"],
)
def test_validation_holds_on_make_and_replace(build):
    # __new__ itself is covered in test_intersect and test_sequences
    with pytest.raises(ValueError):
        build()


def test_validated_records_normalise_on_every_path():
    assert PartitionPair._make([[1, 2], [3]]) == PartitionPair((1, 2), (3,))
    assert type(PartitionPair((1,), (2,))._replace(lam=[1]).lam) is tuple
    assert QuadExponents(1, 2, 3, 4)._replace(l=5) == QuadExponents(1, 2, 3, 5)
