"""Direct tests of the array-level digraph counter.

:func:`repro.datasets.generate.digraph_row_counts` is the counting core
of batched HTTPS capture (FM and ABSAB cells), :func:`pair_counts` and
the streamed numpy dataset fallback.  Both of its legs — the compiled
in-place scatter and the grouped-bincount numpy fallback — are compared
here against an ``np.add.at`` reference, and every malformed argument
must raise before any counter changes (the C leg would otherwise write
out of bounds).
"""

import numpy as np
import pytest

from repro.datasets.generate import digraph_row_counts
from repro.rc4 import _native

BLOCK = 65536


@pytest.fixture(params=["numpy", "native"])
def leg(request, monkeypatch):
    """Run the test body on each leg of ``digraph_row_counts``."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


def _reference(first, second, size, row_offsets):
    out = np.zeros(size, dtype=np.int64)
    idx = (
        np.asarray(row_offsets, dtype=np.int64)[:, None]
        + first.astype(np.int64) * 256
        + second
    )
    np.add.at(out, idx.reshape(-1), 1)
    return out


def _rows(rng, m, n):
    return (
        rng.integers(0, 256, size=(m, n), dtype=np.uint8),
        rng.integers(0, 256, size=(m, n), dtype=np.uint8),
    )


def test_matches_reference_and_accumulates(rng, leg):
    # 11 rows crosses the numpy leg's 8-row group boundary.
    first, second = _rows(rng, 11, 300)
    offsets = np.arange(11, dtype=np.int64) * BLOCK
    out = rng.integers(0, 5, size=11 * BLOCK).astype(np.int64)
    expected = out + _reference(first, second, out.size, offsets)
    digraph_row_counts(first, second, out, offsets)
    assert np.array_equal(out, expected)


def test_repeated_offsets_bin_rows_together(rng, leg):
    """The long-term kernel bins many rows into one block by i mod 256."""
    first, second = _rows(rng, 20, 64)
    offsets = (np.arange(20, dtype=np.int64) % 3) * BLOCK
    out = np.zeros(3 * BLOCK, dtype=np.int64)
    digraph_row_counts(first, second, out, offsets)
    assert np.array_equal(out, _reference(first, second, out.size, offsets))
    assert out.sum() == 20 * 64


def test_row_strided_views_of_a_wider_block(rng, leg):
    """Column slices of a (rows, n) block, as capture ingestion passes."""
    block = rng.integers(0, 256, size=(40, 128), dtype=np.uint8)
    first, second = block[3:30:3], block[4:31:3]
    assert not first.flags.c_contiguous
    offsets = np.arange(first.shape[0], dtype=np.int64)[::-1] * BLOCK
    out = np.zeros(first.shape[0] * BLOCK, dtype=np.int64)
    digraph_row_counts(first, second, out, offsets)
    assert np.array_equal(out, _reference(first, second, out.size, offsets))


def test_non_unit_column_stride(rng, leg):
    """A transposed keystream block has a non-unit column stride."""
    stream = rng.integers(0, 256, size=(96, 12), dtype=np.uint8)
    columns = stream.T
    first, second = columns[:-1], columns[1:]
    offsets = np.arange(11, dtype=np.int64) * BLOCK
    out = np.zeros(11 * BLOCK, dtype=np.int64)
    digraph_row_counts(first, second, out, offsets)
    assert np.array_equal(out, _reference(first, second, out.size, offsets))


@pytest.mark.parametrize("shape", [(0, 50), (4, 0), (0, 0)])
def test_empty_inputs_leave_counters_alone(leg, shape):
    m, _ = shape
    out = np.ones(4 * BLOCK, dtype=np.int64)
    first = np.zeros(shape, dtype=np.uint8)
    digraph_row_counts(
        first, first.copy(), out, np.arange(m, dtype=np.int64) * BLOCK
    )
    assert np.array_equal(out, np.ones(4 * BLOCK, dtype=np.int64))


def _invalid_cases():
    good = np.zeros((2, 8), dtype=np.uint8)
    offsets = np.array([0, BLOCK], dtype=np.int64)
    out = np.zeros(2 * BLOCK, dtype=np.int64)
    return {
        "out-2d": (good, good, np.zeros((2, BLOCK), dtype=np.int64), offsets),
        "out-int32": (good, good, np.zeros(2 * BLOCK, dtype=np.int32), offsets),
        "out-strided": (
            good, good, np.zeros(4 * BLOCK, dtype=np.int64)[::2], offsets
        ),
        "first-int16": (good.astype(np.int16), good, out, offsets),
        "second-int64": (good, good.astype(np.int64), out, offsets),
        "shape-mismatch": (good, good[:, :4], out, offsets),
        "rows-1d": (good[0], good[1], out, offsets[:1]),
        "offsets-short": (good, good, out, offsets[:1]),
        "offsets-long": (good, good, out, np.arange(3) * BLOCK),
        "offsets-float": (good, good, out, offsets.astype(np.float64)),
        "offset-negative": (good, good, out, np.array([0, -1])),
        "offset-past-end": (good, good, out, np.array([0, BLOCK + 1])),
        "offset-huge": (good, good, out, np.array([0, 2**63 - 1])),
    }


@pytest.mark.parametrize("case", sorted(_invalid_cases()))
def test_invalid_inputs_raise_before_writing(leg, case):
    first, second, out, offsets = _invalid_cases()[case]
    first, second = first + 1, second + 1  # non-zero codes
    before = out.copy()
    with pytest.raises(ValueError):
        digraph_row_counts(first, second, out, offsets)
    assert np.array_equal(out, before)


def test_read_only_counter_is_rejected(leg):
    out = np.zeros(BLOCK, dtype=np.int64)
    out.flags.writeable = False
    rows = np.ones((1, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        digraph_row_counts(rows, rows, out, np.zeros(1, dtype=np.int64))
    assert not out.any()
