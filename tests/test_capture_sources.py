"""One capture implementation per protocol, four public source names.

:class:`~repro.capture.multi.HttpsCaptureBase` and
:class:`~repro.capture.multi.TkipCaptureBase` hold the validation, batch
math, key derivation, keystream call and capture loop once each; the
single-victim sources are their V=1 case.  These tests hold that shape:

- every kind rejects the same malformed schedules with ``CaptureError``;
- a single-victim source and a one-victim multi source with the same
  label produce identical counters on both engine backends;
- every kind shares one ``fingerprint`` / ``from_descriptor`` and the
  fleet rebuilds each kind from its descriptor;
- the removed interleave knob stays removed (no config field, no env
  var, no provenance key, no wrapper argument), and the interleaved
  kernels' ``n mod 4`` scalar tail still matches the reference at small
  key counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.capture
from repro.api.session import Session
from repro.capture import (
    HttpsCaptureSource,
    MultiHttpsCaptureSource,
    MultiTkipCaptureSource,
    TkipCaptureSource,
    run_capture,
)
from repro.capture.engine import source_fingerprint
from repro.config import ReproConfig, get_config
from repro.errors import CaptureError, ManifestError
from repro.fleet.sources import build_source
from repro.rc4 import _native
from repro.rc4.reference import rc4_keystream
from repro.tls.attack import CookieLayout, CookieStatistics

_LAYOUT = CookieLayout(
    prefix=b"GET / HTTP/1.1\r\nCookie: id=", suffix=b"\r\n\r\n", cookie_len=3
)
#: Record overhead that makes the per-request stride exactly 256 bytes,
#: as multi-request connections require (§6.3 padding).
_ALIGNED_OVERHEAD = 256 - _LAYOUT.request_len
_TKIP_PLAINTEXT = bytes(range(40, 70))

HTTPS_KINDS = ("https-capture", "multi-https-capture")
TKIP_KINDS = ("tkip-capture", "multi-tkip-capture")
ALL_KINDS = HTTPS_KINDS + TKIP_KINDS
CLASSES = {
    "https-capture": HttpsCaptureSource,
    "multi-https-capture": MultiHttpsCaptureSource,
    "tkip-capture": TkipCaptureSource,
    "multi-tkip-capture": MultiTkipCaptureSource,
}


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run the test body under each engine backend."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


def _request(cookie: bytes) -> bytes:
    return _LAYOUT.prefix + cookie + _LAYOUT.suffix


def _make(kind: str, config: ReproConfig, **overrides):
    """A small valid source of ``kind``; ``overrides`` replace fields."""
    if kind == "https-capture":
        kwargs = dict(plaintext=_request(b"abc"))
    elif kind == "multi-https-capture":
        kwargs = dict(templates=(_request(b"abc"),), victim_ids=("v",))
    elif kind == "tkip-capture":
        kwargs = dict(plaintext=_TKIP_PLAINTEXT)
    else:
        kwargs = dict(plaintexts=(_TKIP_PLAINTEXT,), victim_ids=("v",))
    if kind in HTTPS_KINDS:
        kwargs.update(layout=_LAYOUT, num_requests=90, batch_size=32, max_gap=4)
    else:
        kwargs.update(tsc_values=(3, 900), packets_per_tsc=70, batch_size=32)
    kwargs.update(overrides)
    return CLASSES[kind](config=config, **kwargs)


HTTPS_INVALID = {
    "no-requests": dict(num_requests=0),
    "reconnect-zero": dict(reconnect_every=0),
    "batch-zero": dict(batch_size=0),
    "batch-not-multiple": dict(
        reconnect_every=3, batch_size=32, record_overhead=_ALIGNED_OVERHEAD
    ),
    "misaligned-stride": dict(reconnect_every=2, record_overhead=20),
    "short-plaintext": "short",
}

TKIP_INVALID = {
    "no-tsc": dict(tsc_values=()),
    "packets-zero": dict(packets_per_tsc=0),
    "batch-zero": dict(batch_size=0),
    "position-zero": dict(positions=range(0, 10)),
    "position-past-end": dict(positions=range(5, len(_TKIP_PLAINTEXT) + 2)),
    "positions-empty": dict(positions=range(4, 4)),
    "empty-plaintext": "empty",
}


def _plaintext_override(kind: str, plaintext: bytes) -> dict:
    if kind in ("https-capture", "tkip-capture"):
        return dict(plaintext=plaintext)
    if kind == "multi-https-capture":
        return dict(templates=(plaintext,))
    return dict(plaintexts=(plaintext,))


class TestSharedValidation:
    """Each protocol validates once; all its kinds reject the same input."""

    @pytest.mark.parametrize("case", sorted(HTTPS_INVALID))
    @pytest.mark.parametrize("kind", HTTPS_KINDS)
    def test_https_rejects(self, config, kind, case):
        overrides = HTTPS_INVALID[case]
        if overrides == "short":
            overrides = _plaintext_override(kind, _request(b"abc")[:-1])
        with pytest.raises(CaptureError):
            _make(kind, config, **overrides)

    @pytest.mark.parametrize("case", sorted(TKIP_INVALID))
    @pytest.mark.parametrize("kind", TKIP_KINDS)
    def test_tkip_rejects(self, config, kind, case):
        overrides = TKIP_INVALID[case]
        if overrides == "empty":
            overrides = _plaintext_override(kind, b"")
        with pytest.raises(CaptureError):
            _make(kind, config, **overrides)

    @pytest.mark.parametrize("kind", ("multi-https-capture", "multi-tkip-capture"))
    def test_multi_rejects_victim_count_mismatch(self, config, kind):
        with pytest.raises(CaptureError, match="victim ids"):
            _make(kind, config, victim_ids=("a", "b"))

    def test_multi_tkip_rejects_unequal_plaintext_lengths(self, config):
        with pytest.raises(CaptureError, match="one length"):
            _make(
                "multi-tkip-capture", config,
                plaintexts=(_TKIP_PLAINTEXT, _TKIP_PLAINTEXT[:-1]),
                victim_ids=("a", "b"),
            )


class TestSingleVictimIsVOne:
    """A single-victim source counts exactly like a one-victim multi one."""

    @pytest.mark.parametrize("reconnect_every", [1, 4])
    def test_https(self, config, backend, reconnect_every):
        # 90 requests in batches of 32: the last batch is partial, and at
        # 4 requests per connection its last connection carries 2.
        overrides = dict(label="v-one", reconnect_every=reconnect_every)
        if reconnect_every > 1:
            overrides["record_overhead"] = _ALIGNED_OVERHEAD
        single = run_capture(_make("https-capture", config, **overrides))
        multi = run_capture(_make("multi-https-capture", config, **overrides))
        victim = multi.victim("v")
        assert single.num_requests == victim.num_requests == 90
        assert np.array_equal(single.fm_counts, victim.fm_counts)
        assert np.array_equal(single.absab_matrix, victim.absab_matrix)
        assert single.absab_matrix.sum() > 0

    @pytest.mark.parametrize(
        "positions", [None, range(4, 21, 3)], ids=["full", "strided"]
    )
    def test_tkip(self, config, backend, positions):
        overrides = dict(label="v-one", positions=positions)
        single = run_capture(_make("tkip-capture", config, **overrides))
        multi = run_capture(_make("multi-tkip-capture", config, **overrides))
        victim = multi.victim_capture_set("v")
        assert single.num_captured == victim.num_captured == 140
        assert sorted(single.counts) == sorted(victim.counts) == [3, 900]
        for tsc in single.counts:
            assert np.array_equal(single.counts[tsc], victim.counts[tsc])
            assert (single.counts[tsc].sum(axis=1) == 70).all()


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestDescriptorIdentity:
    def test_one_fingerprint_implementation(self, config, kind):
        source = _make(kind, config)
        assert "fingerprint" not in vars(CLASSES[kind])
        assert source.fingerprint() == source_fingerprint(source.descriptor())

    def test_from_descriptor_rejects_other_kinds(self, config, kind):
        for other in ALL_KINDS:
            if other == kind:
                continue
            descriptor = _make(other, config).descriptor()
            with pytest.raises(CaptureError, match="descriptor kind"):
                CLASSES[kind].from_descriptor(descriptor, config)

    def test_descriptor_seed_and_label_win(self, config, kind):
        source = _make(kind, ReproConfig(seed=77), label="custom")
        rebuilt = build_source(source.descriptor(), ReproConfig(seed=5))
        assert type(rebuilt) is CLASSES[kind]
        assert rebuilt.config.seed == 77
        assert rebuilt.label == "custom"
        assert rebuilt.fingerprint() == source.fingerprint()


def test_build_source_rejects_unknown_kind(config):
    with pytest.raises(ManifestError, match="no capture-source factory"):
        build_source({"kind": "wep-capture", "seed": 1}, config)


class TestRemovedSurface:
    def test_config_has_no_interleave_field(self):
        names = {f.name for f in dataclasses.fields(ReproConfig)}
        assert "native_interleave" not in names
        with pytest.raises(TypeError):
            ReproConfig(native_interleave=False)

    def test_interleave_env_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_INTERLEAVE", "0")
        config = get_config()
        assert not hasattr(config, "native_interleave")
        assert "native_interleave" not in Session(config=config)._provenance()

    @pytest.mark.parametrize(
        "call",
        [
            lambda keys: _native.batch_keystream(keys, 4, interleave=False),
            lambda keys: _native.count_single(
                keys, 2, np.zeros((2, 256), np.int64), interleave=False
            ),
            lambda keys: _native.count_digraph(
                keys, 1, np.zeros((1, 256, 256), np.int64), interleave=False
            ),
            lambda keys: _native.count_longterm(
                keys, 1, 0, 0, np.zeros((256, 256, 256), np.int64),
                interleave=False,
            ),
        ],
        ids=["batch_keystream", "count_single", "count_digraph", "count_longterm"],
    )
    def test_native_wrappers_take_no_interleave(self, call):
        keys = np.zeros((2, 16), dtype=np.uint8)
        with pytest.raises(TypeError, match="interleave"):
            call(keys)

    def test_cookie_statistics_needs_absab_matrix(self):
        stats = CookieStatistics.empty(_LAYOUT, max_gap=4)
        with pytest.raises(TypeError, match="absab_matrix"):
            CookieStatistics(
                layout=_LAYOUT,
                fm_counts=stats.fm_counts,
                absab_counts=stats.absab_counts,
            )

    def test_ingest_cipher_rows_is_gone(self):
        assert not hasattr(repro.capture, "ingest_cipher_rows")
        assert "ingest_cipher_rows" not in repro.capture.__all__


@pytest.mark.parametrize("simd", [False, True], ids=["nosimd", "simd"])
@pytest.mark.parametrize("num_keys", [1, 2, 3, 5, 6, 7])
def test_keystream_tail_key_counts(rng, num_keys, simd):
    """Key counts below and just past the 4-state interleave width: the
    scalar tail runs alone (1-3 keys) or after one interleaved group."""
    if not _native.available():
        pytest.skip("native backend unavailable (no C compiler?)")
    keys = rng.integers(0, 256, size=(num_keys, 16), dtype=np.uint8)
    expected = np.array(
        [list(rc4_keystream(bytes(key), 300))[7:] for key in keys],
        dtype=np.uint8,
    )
    got = _native.batch_keystream(keys, 293, drop=7, threads=1, simd=simd)
    assert np.array_equal(got, expected)
