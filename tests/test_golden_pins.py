"""Golden pins for the capture-source identities and the §6 likelihoods.

Fleet manifests, checkpoints and warehouse records match a capture by
its source fingerprint, the SHA-256 of the canonical-JSON descriptor.
These pins hold, for each of the four source kinds at fixed inputs:

- the ``descriptor()`` JSON, key order included, and ``fingerprint()``;
- that a descriptor written in that exact format rebuilds through
  :func:`repro.fleet.sources.build_source` into a source with the same
  descriptor and fingerprint (old manifests keep loading).

A third pin is the SHA-256 of :func:`transition_log_likelihoods` on a
fixed small sampled capture.  The counters are integers and the pin is
of the float64 bytes, so it also holds the order of the eq 25 sums.
The pinned value was recorded on x86-64 with numpy 2.4; another numpy
build whose ``log`` rounds differently would need it re-recorded.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.capture import (
    HttpsCaptureSource,
    MultiHttpsCaptureSource,
    MultiTkipCaptureSource,
    TkipCaptureSource,
)
from repro.config import ReproConfig
from repro.fleet.sources import build_source
from repro.simulate import HttpsAttackSimulation
from repro.tls.attack import CookieLayout, transition_log_likelihoods

_CONFIG = ReproConfig(seed=2016)
_LAYOUT = CookieLayout(
    prefix=b"GET / HTTP/1.1\r\nCookie: auth=", suffix=b"; p=1\r\n\r\n",
    cookie_len=4,
)


def _request(cookie: bytes) -> bytes:
    return _LAYOUT.prefix + cookie + _LAYOUT.suffix


def _sources() -> dict:
    return {
        "https-capture": HttpsCaptureSource(
            config=_CONFIG, layout=_LAYOUT, plaintext=_request(b"k3Y!"),
            num_requests=300, batch_size=128, max_gap=6,
        ),
        "multi-https-capture": MultiHttpsCaptureSource(
            config=_CONFIG, layout=_LAYOUT,
            templates=(_request(b"aaaa"), _request(b"Z9\xe9q")),
            victim_ids=("alice", "bob"),
            num_requests=200, batch_size=64, reconnect_every=2, max_gap=6,
            record_overhead=256 - _LAYOUT.request_len,
        ),
        "tkip-capture": TkipCaptureSource(
            config=_CONFIG, plaintext=bytes(range(200, 224)),
            tsc_values=(0, 7, 65535), packets_per_tsc=150,
            positions=range(3, 20, 2), batch_size=64,
        ),
        "multi-tkip-capture": MultiTkipCaptureSource(
            config=_CONFIG,
            plaintexts=(bytes(range(24)), bytes(range(255, 231, -1))),
            victim_ids=("v0", "v1"),
            tsc_values=(1, 2), packets_per_tsc=100, batch_size=32,
        ),
    }


_GET = "GET / HTTP/1.1\r\nCookie: auth="
_LAYOUT_META = {
    "prefix": _GET, "suffix": "; p=1\r\n\r\n", "cookie_len": 4, "base_offset": 1,
}

#: kind -> (descriptor in the parent's key order, fingerprint).  Byte
#: strings travel as latin-1 text.
DESCRIPTORS = {
    "https-capture": (
        {
            "kind": "https-capture",
            "seed": 2016,
            "label": "https-capture",
            "layout": _LAYOUT_META,
            "plaintext": _GET + "k3Y!; p=1\r\n\r\n",
            "num_requests": 300,
            "batch_size": 128,
            "reconnect_every": 1,
            "max_gap": 6,
            "record_overhead": 20,
        },
        "cfc9c8912ec49a15f91ae1485fee289d7dbf32a0f1752e130b9f5318a5b7fbaf",
    ),
    "multi-https-capture": (
        {
            "kind": "multi-https-capture",
            "seed": 2016,
            "label": "multi-https-capture",
            "layout": _LAYOUT_META,
            "templates": [
                _GET + "aaaa; p=1\r\n\r\n", _GET + "Z9\xe9q; p=1\r\n\r\n",
            ],
            "victim_ids": ["alice", "bob"],
            "num_requests": 200,
            "batch_size": 64,
            "reconnect_every": 2,
            "max_gap": 6,
            "record_overhead": 214,
        },
        "465c854f1f18c28399c9fd0e2ca34bfa1d402ed6067ee8802522ffa216cd65d8",
    ),
    "multi-tkip-capture": (
        {
            "kind": "multi-tkip-capture",
            "seed": 2016,
            "label": "multi-tkip-capture",
            "plaintexts": [
                "".join(map(chr, range(24))),
                "".join(map(chr, range(255, 231, -1))),
            ],
            "victim_ids": ["v0", "v1"],
            "tsc_values": [1, 2],
            "packets_per_tsc": 100,
            "positions": [1, 25, 1],
            "batch_size": 32,
        },
        "0767fb2749a4eddba8544edc4c9b46861c599e7e044b1132a6ae260b1b6c1cd2",
    ),
    "tkip-capture": (
        {
            "kind": "tkip-capture",
            "seed": 2016,
            "label": "tkip-capture",
            "plaintext": "".join(map(chr, range(200, 224))),
            "tsc_values": [0, 7, 65535],
            "packets_per_tsc": 150,
            "positions": [3, 20, 2],
            "batch_size": 64,
        },
        "80fd2d1b86fb043c2a919cffba94ebbc789acec9d09aed6d492ae6b62c9e4a43",
    ),
}

#: SHA-256 of transition_log_likelihoods on the fixed sampled capture.
LIKELIHOOD_DIGEST = (
    "8e4c7ce6694e1d1f0f2ea48273ccfacec65bfb1b10ca795ec40300d0a066810a"
)


@pytest.mark.parametrize("kind", sorted(DESCRIPTORS))
class TestSourceIdentity:
    def test_descriptor_and_fingerprint(self, kind):
        source = _sources()[kind]
        pinned, fingerprint = DESCRIPTORS[kind]
        assert json.dumps(source.descriptor()) == json.dumps(pinned)
        assert source.fingerprint() == fingerprint

    def test_parent_format_descriptor_rebuilds(self, kind):
        pinned, fingerprint = DESCRIPTORS[kind]
        descriptor = json.loads(json.dumps(pinned))
        source = build_source(descriptor, ReproConfig(seed=1))
        assert source.descriptor() == descriptor
        assert source.fingerprint() == fingerprint


def test_likelihood_digest():
    sim = HttpsAttackSimulation(_CONFIG, cookie_len=3, max_gap=8)
    stats = sim.sampled_statistics(1 << 20)
    loglik = transition_log_likelihoods(stats)
    assert loglik.dtype == np.float64
    digest = hashlib.sha256(np.ascontiguousarray(loglik).tobytes())
    assert digest.hexdigest() == LIKELIHOOD_DIGEST
