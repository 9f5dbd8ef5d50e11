"""The six result records are immutable tuples; the two that hold arrays compare by identity."""

import numpy as np
import pytest

from primefold import (
    BoundsReport,
    DomainError,
    OpCounts,
    SieveTable,
    SignatureFamily,
    SignatureVector,
    TraceRecord,
    audit_range,
    build_sieve,
    signature,
    trace,
)

RECORDS = {
    "OpCounts": lambda: OpCounts(),
    "BoundsReport": lambda: BoundsReport("claim", (0, 1)),
    "AuditRow": lambda: audit_range(2, 3)[0],
    "SignatureVector": lambda: signature(SignatureFamily.FOLDED),
    "SieveTable": lambda: build_sieve(30),
    "TraceRecord": lambda: trace(3),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_any_field_raises(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 0  # no per-instance namespace either


@pytest.mark.parametrize("coords", [(2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1)])
def test_signature_coords_must_be_six_bits(coords):
    with pytest.raises(DomainError):
        SignatureVector(SignatureFamily.FOLDED, coords)
    with pytest.raises(DomainError):
        SignatureVector(family=SignatureFamily.FOLDED, coords=coords)
    with pytest.raises(DomainError):
        signature(SignatureFamily.FOLDED)._replace(coords=coords)  # a copy is checked too


def test_records_holding_arrays_compare_by_identity():
    table, record = build_sieve(30), trace(3)
    copies = [
        (table, SieveTable(table.limit, table.prime_list.copy())),
        (record, record._replace(indicators=record.indicators.copy(), prefix=record.prefix.copy(),
                                 steps=record.steps.copy())),
    ]
    for original, copy in copies:
        assert all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(original, copy))
        assert original != copy and not original == copy
        assert original == original and len({original, copy}) == 2
    assert TraceRecord(*record) != record
