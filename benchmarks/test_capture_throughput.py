"""Capture-engine throughput: batched ingestion vs the per-request path.

The ISSUE-5 acceptance gate: at 2^13 requests the batched capture engine
must sustain >= 5x the requests/second of the pre-refactor per-request
reference ingestion.  Both attacks are measured:

- **HTTPS (§6.3)**: the ``reference`` benchmarks time per-request
  ``CookieStatistics.ingest_fragment`` over *precomputed* ciphertext
  fragments (generosity toward the old path — its keystream cost is
  excluded), while ``batched`` times the full engine including keystream
  generation, XOR, and counting.
- **TKIP (§5.2)**: ``CaptureSet.add_frame`` per frame vs the batched
  per-TSC engine, same asymmetry.

A third benchmark times the counting layer alone:
``digraph_row_counts`` over 512 of the Fig 10 shape's 4146 ABSAB
alignment rows for one 4096-request batch (``max_gap=128``), on
pre-touched counters so first-touch page faults are excluded.

Recorded pre/post baselines live in
``BENCH_<date>_capture_{pre,post}.json``; `make bench` re-records both
paths in the regular BENCH file.
"""

import numpy as np
import pytest

from repro.capture import HttpsCaptureSource, TkipCaptureSource, run_capture
from repro.config import ReproConfig
from repro.datasets import digraph_row_counts
from repro.simulate import HttpsAttackSimulation
from repro.tkip.frames import TkipFrame
from repro.tkip.injection import CaptureSet
from repro.tls.attack import CookieStatistics

NUM_REQUESTS = 1 << 13

_CONFIG = ReproConfig(seed=20150812)

#: Alignment rows and requests for the counting-layer benchmark: 512
#: rows of int64 counters are 256 MiB, CI-sized.
SCATTER_ROWS = 512
SCATTER_REQUESTS = 4096


@pytest.fixture(scope="module")
def https_setup():
    """Small layout so the reference path finishes in benchmark time;
    both paths count the identical alignment set."""
    sim = HttpsAttackSimulation(_CONFIG, cookie_len=3, max_gap=16)
    source = HttpsCaptureSource(
        config=_CONFIG,
        layout=sim.layout,
        plaintext=sim.campaign.request_plaintext(),
        num_requests=NUM_REQUESTS,
        batch_size=4096,
        max_gap=16,
        label="bench-https-capture",
    )
    return sim, source


@pytest.fixture(scope="module")
def https_fragments(https_setup):
    """Precomputed ciphertext fragments for the per-request reference."""
    from repro.rc4.batch import batch_keystream
    from repro.rc4.keygen import derive_keys

    sim, source = https_setup
    plaintext = np.frombuffer(source.plaintext, dtype=np.uint8)
    keys = derive_keys(_CONFIG, "bench-https-fragments", NUM_REQUESTS)
    stream = batch_keystream(keys, len(plaintext))
    return [bytes(row) for row in stream ^ plaintext]


def test_https_capture_reference(benchmark, https_setup, https_fragments):
    """Pre-refactor path: per-request Python ingestion (counting only)."""
    sim, source = https_setup
    stats = CookieStatistics.empty(sim.layout, max_gap=16)

    def ingest_all():
        for fragment in https_fragments:
            stats.ingest_fragment(fragment)
        return stats

    benchmark.extra_info["requests"] = NUM_REQUESTS
    benchmark.extra_info["counts"] = NUM_REQUESTS
    result = benchmark(ingest_all)
    assert result.num_requests >= NUM_REQUESTS


def test_https_capture_batched(benchmark, https_setup):
    """Post-refactor path: full engine (keystream + XOR + counting)."""
    _sim, source = https_setup
    benchmark.extra_info["requests"] = NUM_REQUESTS
    benchmark.extra_info["counts"] = NUM_REQUESTS
    result = benchmark(lambda: run_capture(source))
    assert result.num_requests == NUM_REQUESTS


@pytest.fixture(scope="module")
def tkip_source():
    rng = np.random.default_rng(31337)
    plaintext = bytes(rng.integers(0, 256, 101, dtype=np.uint8))
    return TkipCaptureSource(
        config=_CONFIG,
        plaintext=plaintext,
        tsc_values=(0, 32768),
        packets_per_tsc=NUM_REQUESTS // 2,
        batch_size=4096,
        label="bench-tkip-capture",
    )


@pytest.fixture(scope="module")
def tkip_frames(tkip_source):
    """Precomputed frames for the per-frame reference path."""
    from repro.rc4.batch import batch_keystream
    from repro.tkip.keymix import simplified_key_batch

    plaintext = np.frombuffer(tkip_source.plaintext, dtype=np.uint8)
    frames = []
    counter = 0
    for tsc in tkip_source.tsc_values:
        rng = _CONFIG.rng("bench-tkip-frames", tsc)
        keys = simplified_key_batch(tsc, tkip_source.packets_per_tsc, rng)
        stream = batch_keystream(keys, len(plaintext))
        for row in stream ^ plaintext:
            counter += 1
            frames.append(
                TkipFrame(
                    ta=b"\x00" * 6, da=b"\x01" * 6, sa=b"\x02" * 6,
                    tsc=(counter << 16) | tsc, ciphertext=bytes(row),
                )
            )
    return frames


def test_tkip_capture_reference(benchmark, tkip_source, tkip_frames):
    """Pre-refactor path: per-frame Python ingestion (counting only)."""
    capture = CaptureSet(
        positions=range(1, len(tkip_source.plaintext) + 1),
        plaintext_len=len(tkip_source.plaintext),
    )

    def ingest_all():
        capture._seen_tsc.clear()
        for frame in tkip_frames:
            capture.add_frame(frame)
        return capture

    benchmark.extra_info["requests"] = NUM_REQUESTS
    benchmark.extra_info["counts"] = NUM_REQUESTS
    result = benchmark(ingest_all)
    assert result.num_captured >= NUM_REQUESTS


def test_tkip_capture_batched(benchmark, tkip_source):
    """Post-refactor path: full engine (keystream + XOR + counting)."""
    benchmark.extra_info["requests"] = NUM_REQUESTS
    benchmark.extra_info["counts"] = NUM_REQUESTS
    result = benchmark(lambda: run_capture(tkip_source))
    assert result.num_captured == NUM_REQUESTS


def test_digraph_row_counts_alignment_shape(benchmark):
    """Counting layer: one batch of ABSAB cells into resident counters."""
    rng = np.random.default_rng(20150812)
    first, second = rng.integers(
        0, 256, size=(2, SCATTER_ROWS, SCATTER_REQUESTS), dtype=np.uint8
    )
    counters = np.zeros(SCATTER_ROWS * 65536, dtype=np.int64)
    counters[:] = 0  # pre-touch: time the scatter, not page faults
    offsets = np.arange(SCATTER_ROWS, dtype=np.int64) * 65536
    increments = SCATTER_ROWS * SCATTER_REQUESTS
    benchmark.extra_info["requests"] = SCATTER_REQUESTS
    benchmark.extra_info["counts"] = increments
    benchmark(digraph_row_counts, first, second, counters, offsets)
    row_sums = counters.reshape(SCATTER_ROWS, 65536).sum(axis=1)
    assert row_sums[0] > 0 and row_sums[0] % SCATTER_REQUESTS == 0
    assert (row_sums == row_sums[0]).all()
