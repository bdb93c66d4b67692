"""Batched TKIP ciphertext acquisition (paper §5.2 at engine speed).

The §5 attack consumes per-TSC ciphertext byte counts of one constantly
retransmitted packet.  :class:`TkipCaptureSource` is the one-victim case
of :class:`~repro.capture.multi.TkipCaptureBase`, which holds the TSC-major
batch schedule and the capture loop: §2.2 per-TSC keys, one keystream
block, and per-position byte counts of keystream XOR plaintext.

With an all-zero plaintext the ciphertext *is* the keystream, which is
how the ``bias-sweep-pertsc`` experiment measures raw per-TSC keystream
distributions on the identical engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..tkip.injection import CaptureSet
from .multi import TkipCaptureBase


@dataclass(kw_only=True)
class TkipCaptureSource(TkipCaptureBase):
    """Deterministic batched acquisition for the §5 injection campaign.

    Args:
        plaintext: the injected packet's protected plaintext
            (data || MIC || ICV), constant across transmissions.
        config / tsc_values / packets_per_tsc / positions / batch_size /
        label: see :class:`~repro.capture.multi.TkipCaptureBase`.
    """

    KIND: ClassVar[str] = "tkip-capture"
    STATS: ClassVar[type] = CaptureSet
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

    def _counters(self, stats: CaptureSet, tsc: int) -> np.ndarray:
        return stats._table(tsc)[np.newaxis]

    def empty(self) -> CaptureSet:
        return CaptureSet(
            positions=self.positions, plaintext_len=self.plaintext_len
        )
