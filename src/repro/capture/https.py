"""Batched HTTPS ciphertext acquisition (paper §6.3 at engine speed).

The §6 statistics only depend on the ciphertext bytes of each request at
the layout's positions, and each request's ciphertext is keystream XOR a
*constant* plaintext template.  :class:`HttpsCaptureSource` is the
one-victim case of :class:`~repro.capture.multi.HttpsCaptureBase`, which
holds the batch schedule and the vectorized capture loop: keystream
block, template fold, Fluhrer–McGrew and ABSAB counting, with no
per-request Python loop anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..tls.attack import CookieStatistics
from .multi import HttpsCaptureBase


@dataclass(kw_only=True)
class HttpsCaptureSource(HttpsCaptureBase):
    """Deterministic batched acquisition for the §6 cookie attack.

    Args:
        plaintext: one request's plaintext (constant across the
            campaign), exactly ``layout.request_len`` bytes.
        config / layout / num_requests / batch_size / reconnect_every /
        max_gap / record_overhead / label: see
        :class:`~repro.capture.multi.HttpsCaptureBase`.
    """

    KIND: ClassVar[str] = "https-capture"
    STATS: ClassVar[type] = CookieStatistics
    plaintext: bytes
    label: str = KIND

    def _plaintexts(self) -> tuple[bytes, ...]:
        return (self.plaintext,)

    def _victim_fields(self) -> dict:
        return {"plaintext": self.plaintext.decode("latin-1")}

    @classmethod
    def _fields(cls, descriptor: dict) -> dict:
        return {
            **super()._fields(descriptor),
            "plaintext": descriptor["plaintext"].encode("latin-1"),
        }

    def _victims(self, stats: CookieStatistics) -> list[CookieStatistics]:
        return [stats]

    def empty(self) -> CookieStatistics:
        return CookieStatistics.empty(self.layout, max_gap=self.max_gap)

    def capture_batch(self, stats: CookieStatistics, index: int) -> int:
        """One batch: keystream block -> XOR template -> count cells."""
        # Defined in this class body, not only inherited:
        # perfbench/pb_trace.py wraps HttpsCaptureSource.__dict__'s entry.
        return super().capture_batch(stats, index)
