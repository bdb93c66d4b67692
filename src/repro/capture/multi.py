"""Multi-template capture: one keystream batch scored against many victims.

A campaign over N victims who share a keystream *regime* (same browser
layout and reconnect cadence on the TLS side; same packets-per-TSC
budget on the TKIP side) differs per victim only in the plaintext
template — the cookie bytes, or the MIC/ICV of the injected packet.
Ciphertext is ``keystream XOR template``, so the expensive part of a
capture batch (RC4 keystream generation) is shared and only the cheap
template fold is per-victim:

- **HTTPS** (:func:`ingest_keystream_columns`): the ABSAB differential
  ``C[r] ^ C[p] = (Z[r] ^ Z[p]) ^ (T[r] ^ T[p])`` splits into a shared
  keystream differential block computed once per alignment chunk and a
  per-victim XOR with a *scalar* template differential per alignment.
  Fluhrer–McGrew digraph rows (a handful per victim) fold directly.
- **TKIP** (:class:`TkipCaptureBase`): XOR with a constant permutes
  the 256 histogram bins, so the shared keystream columns are bincounted
  once (:func:`~repro.datasets.generate.bytewise_row_counts`) and every
  victim *gathers* that base histogram through its template's per-row
  permutation (:func:`~repro.datasets.generate.templated_row_counts`) —
  O(P·n + V·P·256) instead of O(V·P·n).

Each protocol has one capture implementation, :class:`HttpsCaptureBase`
and :class:`TkipCaptureBase`: schedule, validation, key derivation,
keystream and counting.  The single-victim sources
(:class:`~repro.capture.https.HttpsCaptureSource`,
:class:`~repro.capture.tkip.TkipCaptureSource`) are their V=1 case and
differ from the multi-victim ones only in the statistics type and the
descriptor format.  `tests/test_campaign.py` holds V victims against V
single-victim captures with the same key-derivation label cell-for-cell
on both ``REPRO_NATIVE`` legs.  For V=1 the HTTPS core folds the one
template into the columns up front: one XOR per request block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from ..config import ReproConfig
from ..datasets.generate import (
    DIGRAPH_GROUP,
    digraph_row_counts,
    templated_row_counts,
)
from ..errors import AttackError, CaptureError
from ..rc4.batch import batch_keystream
from ..rc4.keygen import derive_keys
from ..tkip.injection import CaptureSet
from ..tkip.keymix import simplified_key_batch
from ..tls.attack import CookieLayout, CookieStatistics
from ..tls.record import MAC_LEN
from .engine import source_fingerprint

#: Alignment rows per ABSAB differential chunk.
ABSAB_CHUNK = 64


def ingest_keystream_columns(
    stats_list: Sequence[CookieStatistics],
    columns: np.ndarray,
    templates: np.ndarray,
    *,
    offset: int = 1,
) -> None:
    """Score one keystream column block against many plaintext templates.

    The multi-victim core of the §6 capture: ``columns[p, k]`` is the
    keystream byte at request position ``p`` of request ``k`` (or the
    ciphertext byte — any constant XOR folds into the templates), and
    victim v's ciphertext is ``columns[p] ^ templates[v, p]``.  Each
    victim's Fluhrer–McGrew and ABSAB cells accumulate into its own
    :class:`~repro.tls.attack.CookieStatistics`, with the keystream
    differentials computed once and shared across victims.

    Args:
        stats_list: one statistics object per victim; all must share one
            layout and alignment set (same ``max_gap``).
        columns: uint8 ``(>= request_len, n)`` keystream columns.
        templates: uint8 ``(len(stats_list), request_len)`` plaintext
            templates, one row per victim.
        offset: keystream position of row 0, congruent to the layout
            base modulo 256 (the record-padding invariant, §6.3).
    """
    if not stats_list:
        raise AttackError("multi-template ingestion needs at least one victim")
    stats0 = stats_list[0]
    layout = stats0.layout
    if (offset - layout.base_offset) % 256 != 0:
        raise AttackError(
            f"row offset {offset} incompatible with layout base "
            f"{layout.base_offset} modulo 256 — add request padding"
        )
    if columns.ndim != 2 or columns.shape[0] < layout.request_len:
        raise AttackError(
            f"columns must be (>= {layout.request_len}, n), "
            f"got {columns.shape}"
        )
    templates = np.asarray(templates, dtype=np.uint8)
    if templates.shape != (len(stats_list), layout.request_len):
        raise AttackError(
            f"templates must be ({len(stats_list)}, {layout.request_len}), "
            f"got {templates.shape}"
        )
    alignments = list(stats0.absab_counts)
    for stats in stats_list:
        if stats.layout != layout or list(stats.absab_counts) != alignments:
            raise AttackError(
                "multi-template ingestion needs statistics sharing one "
                "layout and alignment set"
            )
    n = columns.shape[1]

    if len(stats_list) == 1 and templates.any():
        # Single-victim fast path: fold the one template into the
        # columns up front — one XOR, exactly the old per-request cost,
        # and every count below sees a zero template.
        columns = columns[: layout.request_len] ^ templates[0][:, None]
        templates = np.zeros_like(templates)

    transitions = layout.transitions()
    first = transitions[0] - layout.base_offset
    count = len(transitions)
    fm_first = columns[first : first + count]
    fm_second = columns[first + 1 : first + count + 1]
    fm_offsets = np.arange(count, dtype=np.int64) * 65536
    # One int32 code buffer for the numpy leg's FM and ABSAB calls.
    scratch = np.empty((DIGRAPH_GROUP, n), dtype=np.int32)
    for v, stats in enumerate(stats_list):
        t1 = templates[v, first : first + count]
        t2 = templates[v, first + 1 : first + count + 1]
        if t1.any() or t2.any():
            f, s = fm_first ^ t1[:, None], fm_second ^ t2[:, None]
        else:
            f, s = fm_first, fm_second
        digraph_row_counts(
            f, s, stats.fm_counts.reshape(-1), fm_offsets, scratch=scratch
        )

    base = layout.base_offset
    targets, partners = [], []
    for (t, gap, side) in alignments:
        r = transitions[t]
        p1 = r + 2 + gap if side == "after" else r - 2 - gap
        targets.append(r - base)
        partners.append(p1 - base)
    targets = np.asarray(targets, dtype=np.intp)
    partners = np.asarray(partners, dtype=np.intp)
    offsets = np.arange(len(targets), dtype=np.int64) * 65536
    # Per-victim template differentials: one scalar per alignment row.
    td1 = templates[:, targets] ^ templates[:, partners]
    td2 = templates[:, targets + 1] ^ templates[:, partners + 1]
    for start in range(0, len(targets), ABSAB_CHUNK):
        t_idx = targets[start : start + ABSAB_CHUNK]
        p_idx = partners[start : start + ABSAB_CHUNK]
        # Shared keystream differentials for this alignment chunk —
        # computed once, reused by every victim.
        d1 = columns[t_idx] ^ columns[p_idx]
        d2 = columns[t_idx + 1] ^ columns[p_idx + 1]
        for v, stats in enumerate(stats_list):
            v1 = td1[v, start : start + ABSAB_CHUNK]
            v2 = td2[v, start : start + ABSAB_CHUNK]
            if v1.any() or v2.any():
                c1, c2 = d1 ^ v1[:, None], d2 ^ v2[:, None]
            else:
                c1, c2 = d1, d2
            digraph_row_counts(
                c1,
                c2,
                stats.absab_matrix.reshape(-1),
                offsets[start : start + ABSAB_CHUNK],
                scratch=scratch,
            )

    for stats in stats_list:
        stats.num_requests += n


def _layout_meta(layout: CookieLayout) -> dict:
    return {
        "prefix": layout.prefix.decode("latin-1"),
        "suffix": layout.suffix.decode("latin-1"),
        "cookie_len": layout.cookie_len,
        "base_offset": layout.base_offset,
    }


def _layout_from_meta(fields: dict) -> CookieLayout:
    return CookieLayout(
        prefix=fields["prefix"].encode("latin-1"),
        suffix=fields["suffix"].encode("latin-1"),
        cookie_len=int(fields["cookie_len"]),
        base_offset=int(fields["base_offset"]),
    )


@dataclass
class MultiTemplateStatistics:
    """Per-victim :class:`CookieStatistics` behind one statistics facade.

    Implements the :class:`repro.capture.SufficientStatistics` protocol
    (snapshot / exact int64 merge / canonical-JSON summary / one-NPZ
    persistence), so multi-victim captures shard, checkpoint, and fleet
    exactly like single-victim ones.  Victim v's counters are an
    ordinary :class:`CookieStatistics` — the per-victim attack code
    needs no multi-victim awareness at all.
    """

    layout: CookieLayout
    max_gap: int
    victim_ids: tuple[str, ...]
    victims: list[CookieStatistics]

    @classmethod
    def empty(
        cls,
        layout: CookieLayout,
        victim_ids: Sequence[str],
        *,
        max_gap: int,
    ) -> "MultiTemplateStatistics":
        return cls(
            layout=layout,
            max_gap=max_gap,
            victim_ids=tuple(victim_ids),
            victims=[
                CookieStatistics.empty(layout, max_gap=max_gap)
                for _ in victim_ids
            ],
        )

    def victim(self, victim_id: str) -> CookieStatistics:
        """The per-victim statistics for one campaign member."""
        try:
            return self.victims[self.victim_ids.index(victim_id)]
        except ValueError:
            raise AttackError(
                f"no victim {victim_id!r} in this capture "
                f"(victims: {list(self.victim_ids)})"
            ) from None

    def snapshot(self) -> "MultiTemplateStatistics":
        return MultiTemplateStatistics(
            layout=self.layout,
            max_gap=self.max_gap,
            victim_ids=self.victim_ids,
            victims=[stats.snapshot() for stats in self.victims],
        )

    def merge(self, other: "MultiTemplateStatistics") -> "MultiTemplateStatistics":
        if (
            self.victim_ids != other.victim_ids
            or self.layout != other.layout
            or self.max_gap != other.max_gap
        ):
            raise AttackError(
                "cannot merge multi-template statistics of different "
                "victim sets or layouts"
            )
        for mine, theirs in zip(self.victims, other.victims):
            mine.merge(theirs)
        return self

    def to_jsonable(self) -> dict:
        return {
            "type": "multi-template-statistics",
            "num_victims": len(self.victims),
            "victim_ids": list(self.victim_ids),
            "max_gap": int(self.max_gap),
            "layout": {
                "prefix_len": len(self.layout.prefix),
                "suffix_len": len(self.layout.suffix),
                "cookie_len": self.layout.cookie_len,
                "base_offset": self.layout.base_offset,
            },
            "num_requests_per_victim": (
                int(self.victims[0].num_requests) if self.victims else 0
            ),
            "fm_total": int(
                sum(int(s.fm_counts.sum()) for s in self.victims)
            ),
            "absab_total": int(
                sum(int(s.absab_matrix.sum()) for s in self.victims)
            ),
        }

    def save(self, path, *, extra: dict | None = None):
        """One NPZ for the whole victim set (stacked counter blocks)."""
        from ..datasets.store import save_statistics

        transitions = len(self.layout.transitions())
        alignments = len(
            CookieStatistics.alignment_keys(self.layout, max_gap=self.max_gap)
        )
        if self.victims:
            fm = np.stack([s.fm_counts for s in self.victims])
            absab = np.stack([s.absab_matrix for s in self.victims])
        else:
            fm = np.zeros((0, transitions, 256, 256), dtype=np.int64)
            absab = np.zeros((0, alignments, 65536), dtype=np.int64)
        requests = np.asarray(
            [s.num_requests for s in self.victims], dtype=np.int64
        )
        meta = {
            "layout": _layout_meta(self.layout),
            "max_gap": self.max_gap,
            "victim_ids": list(self.victim_ids),
            "extra": extra or {},
        }
        return save_statistics(
            path,
            "multi-template-statistics",
            {"fm_counts": fm, "absab_matrix": absab, "num_requests": requests},
            meta,
        )

    @classmethod
    def load(cls, path) -> tuple["MultiTemplateStatistics", dict]:
        from ..datasets.store import load_statistics

        arrays, meta = load_statistics(path, "multi-template-statistics")
        layout = _layout_from_meta(meta["layout"])
        stats = cls.empty(
            layout, meta["victim_ids"], max_gap=int(meta["max_gap"])
        )
        fm, absab = arrays["fm_counts"], arrays["absab_matrix"]
        requests = arrays["num_requests"]
        if len(stats.victims) != fm.shape[0] or len(requests) != fm.shape[0]:
            raise AttackError(f"{path}: victim count mismatch")
        for v, victim in enumerate(stats.victims):
            if fm[v].shape != victim.fm_counts.shape:
                raise AttackError(f"{path}: fm_counts shape mismatch")
            if absab[v].shape != victim.absab_matrix.shape:
                raise AttackError(f"{path}: absab_matrix shape mismatch")
            victim.fm_counts += fm[v]
            victim.absab_matrix += absab[v]
            victim.num_requests = int(requests[v])
        return stats, meta.get("extra", {})


@dataclass
class MultiTkipStatistics:
    """Per-victim TKIP capture sets over shared per-TSC counter banks.

    Counters live in one ``(num_victims, positions, 256)`` int64 block
    per TSC value, filled by the permutation-gather kernel
    (:func:`~repro.datasets.generate.templated_row_counts`);
    :meth:`victim_capture_set` exposes victim v's slice as an ordinary
    :class:`~repro.tkip.injection.CaptureSet` (zero-copy views), so the
    §5 attack code runs unchanged per victim.
    """

    positions: range
    plaintext_len: int
    victim_ids: tuple[str, ...]
    blocks: dict[int, np.ndarray] = field(default_factory=dict)
    num_captured: int = 0

    def _block(self, tsc: int) -> np.ndarray:
        low = tsc & 0xFFFF
        block = self.blocks.get(low)
        if block is None:
            block = np.zeros(
                (len(self.victim_ids), len(self.positions), 256),
                dtype=np.int64,
            )
            self.blocks[low] = block
        return block

    def victim_capture_set(self, victim_id: str) -> CaptureSet:
        """Victim ``victim_id``'s counters as a zero-copy CaptureSet."""
        try:
            v = self.victim_ids.index(victim_id)
        except ValueError:
            raise AttackError(
                f"no victim {victim_id!r} in this capture "
                f"(victims: {list(self.victim_ids)})"
            ) from None
        return CaptureSet(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            counts={tsc: block[v] for tsc, block in self.blocks.items()},
            num_captured=self.num_captured,
        )

    def snapshot(self) -> "MultiTkipStatistics":
        return MultiTkipStatistics(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            victim_ids=self.victim_ids,
            blocks={tsc: block.copy() for tsc, block in self.blocks.items()},
            num_captured=self.num_captured,
        )

    def merge(self, other: "MultiTkipStatistics") -> "MultiTkipStatistics":
        if (
            self.positions != other.positions
            or self.plaintext_len != other.plaintext_len
            or self.victim_ids != other.victim_ids
        ):
            raise AttackError(
                "cannot merge multi-TKIP captures of different shapes "
                "or victim sets"
            )
        for tsc, block in other.blocks.items():
            mine = self.blocks.get(tsc)
            if mine is None:
                self.blocks[tsc] = block.copy()
            else:
                mine += block
        self.num_captured += other.num_captured
        return self

    def to_jsonable(self) -> dict:
        return {
            "type": "multi-tkip-statistics",
            "num_victims": len(self.victim_ids),
            "victim_ids": list(self.victim_ids),
            "num_captured": int(self.num_captured),
            "plaintext_len": int(self.plaintext_len),
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "num_tsc": len(self.blocks),
            "total_counts": int(
                sum(int(block.sum()) for block in self.blocks.values())
            ),
        }

    def save(self, path, *, extra: dict | None = None):
        from ..datasets.store import save_statistics

        tsc_values = sorted(self.blocks)
        stacked = (
            np.stack([self.blocks[tsc] for tsc in tsc_values])
            if tsc_values
            else np.zeros(
                (0, len(self.victim_ids), len(self.positions), 256),
                dtype=np.int64,
            )
        )
        meta = {
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "plaintext_len": self.plaintext_len,
            "victim_ids": list(self.victim_ids),
            "num_captured": self.num_captured,
            "extra": extra or {},
        }
        return save_statistics(
            path,
            "multi-tkip-statistics",
            {
                "counts": stacked,
                "tsc_values": np.asarray(tsc_values, np.int64),
            },
            meta,
        )

    @classmethod
    def load(cls, path) -> tuple["MultiTkipStatistics", dict]:
        from ..datasets.store import load_statistics

        arrays, meta = load_statistics(path, "multi-tkip-statistics")
        start, stop, step = meta["positions"]
        stats = cls(
            positions=range(start, stop, step),
            plaintext_len=int(meta["plaintext_len"]),
            victim_ids=tuple(str(v) for v in meta["victim_ids"]),
            num_captured=int(meta["num_captured"]),
        )
        stacked = arrays["counts"]
        expected = (len(stats.victim_ids), len(stats.positions), 256)
        if stacked.shape[1:] != expected:
            raise AttackError(f"{path}: capture counts shape mismatch")
        for tsc, block in zip(arrays["tsc_values"], stacked):
            stats.blocks[int(tsc)] = np.ascontiguousarray(block, np.int64)
        return stats, meta.get("extra", {})


@dataclass(kw_only=True)
class CaptureSourceBase:
    """What every capture source shares: its descriptor identity.

    A source is rebuilt anywhere from its :meth:`descriptor` (what a
    fleet manifest ships to workers on other machines) and identified by
    :meth:`fingerprint`, the digest of that descriptor.  Only the seed
    rides along from the config: native-backend knobs stay per-worker and
    cannot affect the counters.

    A concrete source sets ``KIND`` (its descriptor kind, also the
    default ``label``) and ``STATS`` (its statistics type), and defines
    ``empty()``, ``_plaintexts()`` (one plaintext per victim),
    ``_victim_fields()`` (the descriptor entries carrying them) and
    ``_fields(descriptor)`` (constructor arguments other than config and
    label), plus the per-protocol hook named on its base.
    """

    KIND: ClassVar[str]
    STATS: ClassVar[type]
    config: ReproConfig
    label: str

    def descriptor(self) -> dict:
        """JSON-safe record sufficient to rebuild this source bit-exactly."""
        return {"kind": self.KIND, "seed": self.config.seed, "label": self.label}

    def fingerprint(self) -> str:
        return source_fingerprint(self.descriptor())

    @classmethod
    def from_descriptor(cls, descriptor: dict, config: ReproConfig):
        """Rebuild a source from :meth:`descriptor` output.

        ``config`` supplies the local backend knobs; its seed is
        overridden by the descriptor's so the keystreams match the
        originating campaign.
        """
        if descriptor.get("kind") != cls.KIND:
            raise CaptureError(
                f"descriptor kind {descriptor.get('kind')!r} is not "
                f"{cls.KIND!r}"
            )
        return cls(
            config=replace(config, seed=int(descriptor["seed"])),
            label=str(descriptor["label"]),
            **cls._fields(descriptor),
        )

    def load(self, path: str | Path):
        """Load a checkpoint written by this source's statistics type."""
        return self.STATS.load(path)


@dataclass(kw_only=True)
class HttpsCaptureBase(CaptureSourceBase):
    """Batched §6 acquisition for V victims sharing a keystream regime.

    Victims share the request layout and reconnect cadence, hence the
    keystream schedule; each has its own plaintext template (its own
    secret cookie).  A capture batch is three vectorized steps with no
    per-request Python loop:

    1. generate a ``(connections, stream_len)`` keystream block through
       :func:`repro.rc4.batch.batch_keystream` — one RC4 instance per
       simulated TLS connection, streamed deep enough to cover
       ``reconnect_every`` requests per connection;
    2. fold every victim's template into the shared keystream columns;
    3. count Fluhrer–McGrew digraph and ABSAB differential cells
       (:func:`ingest_keystream_columns`).

    ``reconnect_every`` models record churn (§6.3): every connection
    carries that many requests before the victim rekeys.
    ``reconnect_every=1`` is the fresh-connection regime of Fig 10 (each
    request starts at keystream position 1, where the early-position
    biases live); larger values reuse one keystream at record-aligned
    offsets exactly like the persistent connection the per-request
    reference path (:meth:`repro.tls.attack.CookieStatistics.ingest_fragment`)
    accepts.  Key derivation depends only on ``label`` and the batch
    index, so a V-victim source and V single-victim sources with the same
    label produce bit-identical per-victim counters.  Subclasses define
    ``_victims(stats)``: the per-victim :class:`CookieStatistics`.

    Args:
        config: run configuration (key derivation seeds).
        layout: the manipulated request layout (§6.1).
        num_requests: requests captured per victim (shared keystream:
            every victim sees every request).
        batch_size: requests per batch; must be a multiple of
            ``reconnect_every`` so batches hold whole connections.
        reconnect_every: requests each connection carries before the
            victim rekeys (1 = fresh connection per request).
        max_gap: ABSAB gap cap (paper: 128).
        record_overhead: keystream bytes between the end of one request
            and the start of the next on a connection (the RC4-SHA
            record MAC).
        label: key-derivation namespace.
    """

    layout: CookieLayout
    num_requests: int
    batch_size: int = 4096
    reconnect_every: int = 1
    max_gap: int = 128
    record_overhead: int = MAC_LEN
    _templates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for v, template in enumerate(self._plaintexts()):
            if len(template) != self.layout.request_len:
                raise CaptureError(
                    f"victim {v}: plaintext is {len(template)} bytes, "
                    f"layout expects {self.layout.request_len}"
                )
        if self.num_requests < 1:
            raise CaptureError(
                f"num_requests must be positive, got {self.num_requests}"
            )
        if self.reconnect_every < 1:
            raise CaptureError(
                f"reconnect_every must be >= 1, got {self.reconnect_every}"
            )
        if self.batch_size < 1 or self.batch_size % self.reconnect_every:
            raise CaptureError(
                f"batch_size ({self.batch_size}) must be a positive multiple "
                f"of reconnect_every ({self.reconnect_every})"
            )
        if self.reconnect_every > 1 and self._stride % 256 != 0:
            raise CaptureError(
                f"record stride {self._stride} must be a multiple of 256 for "
                "multi-request connections — add request padding (§6.3)"
            )
        self._templates = _template_matrix(self._plaintexts())

    @property
    def _stride(self) -> int:
        """Keystream bytes consumed per request on a connection."""
        return self.layout.request_len + self.record_overhead

    @property
    def num_batches(self) -> int:
        return -(-self.num_requests // self.batch_size)

    @property
    def total_requests(self) -> int:
        return self.num_requests * len(self._templates)

    def descriptor(self) -> dict:
        return {
            **super().descriptor(),
            "layout": _layout_meta(self.layout),
            **self._victim_fields(),
            "num_requests": self.num_requests,
            "batch_size": self.batch_size,
            "reconnect_every": self.reconnect_every,
            "max_gap": self.max_gap,
            "record_overhead": self.record_overhead,
        }

    @classmethod
    def _fields(cls, descriptor: dict) -> dict:
        return {
            "layout": _layout_from_meta(descriptor["layout"]),
            "num_requests": int(descriptor["num_requests"]),
            "batch_size": int(descriptor["batch_size"]),
            "reconnect_every": int(descriptor["reconnect_every"]),
            "max_gap": int(descriptor["max_gap"]),
            "record_overhead": int(descriptor["record_overhead"]),
        }

    def capture_batch(self, stats, index: int) -> int:
        """One batch: shared keystream block -> per-victim template folds."""
        first = index * self.batch_size
        count = min(self.batch_size, self.num_requests - first)
        if count <= 0:
            raise CaptureError(f"batch {index} is beyond the campaign")
        per_conn = self.reconnect_every
        connections = -(-count // per_conn)
        keys = derive_keys(
            self.config, f"{self.label}/batch{index}", connections
        )
        length = (per_conn - 1) * self._stride + self.layout.request_len
        stream = batch_keystream(
            keys, length, threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        # One transpose for the whole block; each request window is a
        # column view and the templates fold inside the multi-template
        # core (one victim: one XOR, then zero-template counting).
        columns = np.ascontiguousarray(stream.T)
        victims = self._victims(stats)
        for q in range(per_conn):
            # Connections whose q-th request exists (the final connection
            # of the final batch may carry fewer than per_conn requests).
            rows = -(-(count - q) // per_conn)
            if rows <= 0:
                break
            start = q * self._stride
            window = columns[
                start : start + self.layout.request_len, :rows
            ]
            ingest_keystream_columns(
                victims,
                window,
                self._templates,
                offset=self.layout.base_offset + start,
            )
        return count * len(self._templates)


@dataclass(kw_only=True)
class TkipCaptureBase(CaptureSourceBase):
    """Batched §5 acquisition for V victims sharing a TSC budget.

    Under the paper's key model (§2.2: three public TSC-determined key
    bytes, 13 uniform bytes) a capture batch is one
    ``(packets, plaintext_len)`` keystream block through
    :func:`repro.rc4.batch.batch_keystream` from
    :func:`repro.tkip.keymix.simplified_key_batch` keys, counted once and
    gathered through each victim's template permutation
    (:func:`~repro.datasets.generate.templated_row_counts`).  Victims
    share the injected packet length, the TSC schedule, and the
    packets-per-TSC budget; each has its own protected plaintext
    (data || MIC || ICV, the MIC differing per victim key).  Key
    derivation depends only on ``label``, the TSC, and the batch, so
    single- and multi-victim runs with one label agree per victim.
    Subclasses define ``_counters(stats, tsc)``: the ``(V, positions,
    256)`` int64 counters for one TSC value.

    Batches iterate TSC-major: TSC value t owns batches
    ``t * batches_per_tsc .. (t+1) * batches_per_tsc - 1``, so sharding
    by batch range also shards by TSC.

    Args:
        config: run configuration (key-model seeds).
        tsc_values: low-16-bit TSC values covered by the campaign.
        packets_per_tsc: packets captured at each TSC value.
        positions: 1-indexed keystream positions to collect (default:
            the whole plaintext).
        batch_size: packets per batch.
        label: seed namespace.
    """

    tsc_values: tuple[int, ...]
    packets_per_tsc: int
    positions: range | None = None
    batch_size: int = 4096
    _templates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.tsc_values = tuple(self.tsc_values)
        lengths = {len(p) for p in self._plaintexts()}
        if lengths == {0} or len(lengths) != 1:
            raise CaptureError(
                "victim plaintexts must be non-empty and share one length "
                f"(the unique-length trick), got lengths {sorted(lengths)}"
            )
        if not self.tsc_values:
            raise CaptureError("tsc_values must be non-empty")
        if self.packets_per_tsc < 1:
            raise CaptureError(
                f"packets_per_tsc must be positive, got {self.packets_per_tsc}"
            )
        if self.batch_size < 1:
            raise CaptureError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        (plaintext_len,) = lengths
        if self.positions is None:
            self.positions = range(1, plaintext_len + 1)
        if len(self.positions) == 0:
            raise CaptureError("positions must be a non-empty range")
        for pos in (self.positions.start, self.positions[-1]):
            if not 1 <= pos <= plaintext_len:
                raise CaptureError(
                    f"position {pos} outside the plaintext "
                    f"(1..{plaintext_len})"
                )
        self._templates = _template_matrix(self._plaintexts())

    @property
    def plaintext_len(self) -> int:
        return self._templates.shape[1]

    @property
    def _batches_per_tsc(self) -> int:
        return -(-self.packets_per_tsc // self.batch_size)

    @property
    def num_batches(self) -> int:
        return len(self.tsc_values) * self._batches_per_tsc

    @property
    def total_requests(self) -> int:
        return (
            len(self.tsc_values) * self.packets_per_tsc * len(self._templates)
        )

    def descriptor(self) -> dict:
        return {
            **super().descriptor(),
            **self._victim_fields(),
            "tsc_values": list(self.tsc_values),
            "packets_per_tsc": self.packets_per_tsc,
            "positions": [
                self.positions.start, self.positions.stop, self.positions.step
            ],
            "batch_size": self.batch_size,
        }

    @classmethod
    def _fields(cls, descriptor: dict) -> dict:
        start, stop, step = (int(v) for v in descriptor["positions"])
        return {
            "tsc_values": tuple(int(t) for t in descriptor["tsc_values"]),
            "packets_per_tsc": int(descriptor["packets_per_tsc"]),
            "positions": range(start, stop, step),
            "batch_size": int(descriptor["batch_size"]),
        }

    def capture_batch(self, stats, index: int) -> int:
        """One batch: per-TSC keys -> keystream -> per-victim counts."""
        tsc_index, part = divmod(index, self._batches_per_tsc)
        if not 0 <= tsc_index < len(self.tsc_values):
            raise CaptureError(f"batch {index} is beyond the campaign")
        tsc = self.tsc_values[tsc_index]
        first = part * self.batch_size
        count = min(self.batch_size, self.packets_per_tsc - first)
        rng = self.config.rng(self.label, "keys", tsc, part)
        keys = simplified_key_batch(tsc, count, rng)
        stream = batch_keystream(
            keys, self.plaintext_len, threads=self.config.native_threads,
            simd=self.config.native_simd,
        )
        pos_idx = np.asarray(self.positions, dtype=np.intp) - 1
        columns = np.ascontiguousarray(stream.T[pos_idx])
        templated_row_counts(
            columns, self._templates[:, pos_idx], self._counters(stats, tsc)
        )
        stats.num_captured += count
        return count * len(self._templates)


def _template_matrix(plaintexts: Sequence[bytes]) -> np.ndarray:
    """Stack equal-length plaintexts into a uint8 ``(V, length)`` matrix."""
    if not plaintexts:
        raise CaptureError("need at least one victim plaintext")
    return np.stack([np.frombuffer(p, dtype=np.uint8) for p in plaintexts])


def _victim_tuples(source) -> None:
    """Normalise a multi-victim source's per-victim fields to tuples."""
    source.victim_ids = tuple(source.victim_ids)
    plaintexts = source._plaintexts()
    if len(plaintexts) != len(source.victim_ids):
        raise CaptureError(
            f"{len(plaintexts)} plaintexts for "
            f"{len(source.victim_ids)} victim ids"
        )


@dataclass(kw_only=True)
class MultiHttpsCaptureSource(HttpsCaptureBase):
    """Batched §6 acquisition for many victims (see :class:`HttpsCaptureBase`).

    Args:
        templates: one request plaintext per victim, each exactly
            ``layout.request_len`` bytes.
        victim_ids: stable per-victim identifiers (campaign bookkeeping).
        config / layout / num_requests / batch_size / reconnect_every /
        max_gap / record_overhead / label: as on the base.
    """

    KIND: ClassVar[str] = "multi-https-capture"
    STATS: ClassVar[type] = MultiTemplateStatistics
    templates: tuple[bytes, ...]
    victim_ids: tuple[str, ...]
    label: str = KIND

    def __post_init__(self) -> None:
        self.templates = tuple(self.templates)
        _victim_tuples(self)
        super().__post_init__()

    def _plaintexts(self) -> tuple[bytes, ...]:
        return self.templates

    def _victim_fields(self) -> dict:
        return {
            "templates": [t.decode("latin-1") for t in self.templates],
            "victim_ids": list(self.victim_ids),
        }

    @classmethod
    def _fields(cls, descriptor: dict) -> dict:
        return {
            **super()._fields(descriptor),
            "templates": tuple(
                t.encode("latin-1") for t in descriptor["templates"]
            ),
            "victim_ids": tuple(str(v) for v in descriptor["victim_ids"]),
        }

    def _victims(self, stats: MultiTemplateStatistics) -> list[CookieStatistics]:
        return stats.victims

    def empty(self) -> MultiTemplateStatistics:
        return MultiTemplateStatistics.empty(
            self.layout, self.victim_ids, max_gap=self.max_gap
        )


@dataclass(kw_only=True)
class MultiTkipCaptureSource(TkipCaptureBase):
    """Batched §5 acquisition for many victims (see :class:`TkipCaptureBase`).

    Args:
        plaintexts: one protected plaintext per victim, all one length.
        victim_ids: stable per-victim identifiers (campaign bookkeeping).
        config / tsc_values / packets_per_tsc / positions / batch_size /
        label: as on the base.
    """

    KIND: ClassVar[str] = "multi-tkip-capture"
    STATS: ClassVar[type] = MultiTkipStatistics
    plaintexts: tuple[bytes, ...]
    victim_ids: tuple[str, ...]
    label: str = KIND

    def __post_init__(self) -> None:
        self.plaintexts = tuple(self.plaintexts)
        _victim_tuples(self)
        super().__post_init__()

    def _plaintexts(self) -> tuple[bytes, ...]:
        return self.plaintexts

    def _victim_fields(self) -> dict:
        return {
            "plaintexts": [p.decode("latin-1") for p in self.plaintexts],
            "victim_ids": list(self.victim_ids),
        }

    @classmethod
    def _fields(cls, descriptor: dict) -> dict:
        return {
            **super()._fields(descriptor),
            "plaintexts": tuple(
                p.encode("latin-1") for p in descriptor["plaintexts"]
            ),
            "victim_ids": tuple(str(v) for v in descriptor["victim_ids"]),
        }

    def _counters(self, stats: MultiTkipStatistics, tsc: int) -> np.ndarray:
        return stats._block(tsc)

    def empty(self) -> MultiTkipStatistics:
        return MultiTkipStatistics(
            positions=self.positions,
            plaintext_len=self.plaintext_len,
            victim_ids=self.victim_ids,
        )
