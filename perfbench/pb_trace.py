"""Layer spans for the benchmark's traced run, recorded from outside ``src/``.

:func:`install` wraps the public functions of each layer — in every
loaded ``repro`` module that holds a reference to them, so names bound by
``from x import f`` are covered too — and the wrappers record one span
per call into a :class:`Tracer`: name, start, end, parent span, the
``ru_maxrss`` rise across the call and work counters.  Spans stay in
memory; :meth:`Tracer.summary` folds them per span name and
:func:`layer_metrics` maps the summary onto the per-layer metric names
listed in ``BENCHMARK.json``.

Nothing is wrapped unless the traced run calls :func:`install`; the
untraced runs execute the program exactly as a user would.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], dict[str, float]]


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; one span per wrapped call.

    A span's self time is its duration minus the durations of its direct
    children.  Calls are single-threaded Python frames, so children nest
    strictly inside their parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "rss_before_kib": _maxrss_kib(),
                "rss_after_kib": None,
                "counters": {},
            }
        )
        self._stack.append(index)
        return index

    def _close(self, index: int, counters: dict[str, float] | None) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_after_kib"] = _maxrss_kib()
        if counters:
            span["counters"] = counters
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span stack corrupted: closed {index}, top {popped}")

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        """Wrap a plain function or method; ``count(args, kwargs, result)``
        returns the call's work counters (``result`` is None on raise)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, count(args, kwargs, result) if count else None)

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, count: Counter | None = None
    ) -> Callable:
        """Wrap a generator function: one span per item produced, so the
        consumer's work between items is not charged to the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                item = None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(
                        index, count(args, kwargs, item) if count and item else None
                    )
                yield item

        return traced

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: calls, total/self/first seconds, RSS rise, counters.

        A call nested inside a call of the same name (``michael`` inside
        ``recover_key``) adds only its self time, so totals never count
        an interval twice.  The RSS rise is the summed ``ru_maxrss``
        increase across the name's calls (the process high-water mark
        only moves up, so the rises of sequential calls add without
        double counting).
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, dict[str, Any]] = {}
        for index, span in enumerate(self.spans):
            if span["end"] is None:
                continue
            duration = span["end"] - span["start"]
            self_s = duration - child_time[index]
            if self._nested_in_same_name(index):
                out[span["name"]]["self_s"] += self_s
                continue
            row = out.setdefault(
                span["name"],
                {
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                    "first_s": duration,
                    "rss_rise_mib": 0.0,
                    "counters": {},
                },
            )
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += self_s
            row["rss_rise_mib"] += (
                span["rss_after_kib"] - span["rss_before_kib"]
            ) / 1024.0
            for key, value in span["counters"].items():
                row["counters"][key] = row["counters"].get(key, 0) + value
        return out

    def _nested_in_same_name(self, index: int) -> bool:
        name = self.spans[index]["name"]
        parent = self.spans[index]["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False


# --- what gets wrapped ------------------------------------------------------


def _keystream_counts(args, kwargs, result):
    return {"keys": len(args[0]), "bytes": 0 if result is None else result.size}


def _digraph_counts(args, kwargs, result):
    return {"increments": args[0].size}


def _single_byte_counts(args, kwargs, result):
    return {"keys": len(args[0])}


def _cells_counts(args, kwargs, result):
    return {"cells": 0 if result is None else result.size}


def _likelihood_counts(args, kwargs, result):
    return {"alignments": len(args[0].absab_counts)}


def _algorithm2_counts(args, kwargs, result):
    return {"n": 0 if result is None else len(result)}


def _lazy_counts(args, kwargs, item):
    rows, _scores = item
    return {"rows": rows.shape[0]}


def _search_counts(args, kwargs, result):
    oracle = args[0]
    pruner = kwargs.get("pruner")
    # The oracle and pruner are built fresh for each attack, so their
    # totals after the call are this call's counts.
    return {
        "attempts": oracle.attempts,
        "pruned": pruner.pruned if pruner is not None else 0,
        "hits": 0 if result is None else 1,
    }


def _capture_run_counts(args, kwargs, result):
    if result is None:
        return {}
    counters = result.fm_counts.nbytes
    if getattr(result, "absab_matrix", None) is not None:
        counters += result.absab_matrix.nbytes
    return {"requests": result.num_requests, "counter_bytes": counters}


def _per_tsc_counts(args, kwargs, result):
    return {"keys": len(args[1]) * args[2]}


#: (module, attribute, span name, counter) for module-level functions.
FUNCTIONS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.simulate.sampling", "sample_digraph_counts",
     "simulate.sample_digraph", _cells_counts),
    ("repro.simulate.sampling", "sample_absab_differential_counts",
     "simulate.sample_absab", _cells_counts),
    ("repro.simulate.tkip_stats", "sampled_capture",
     "simulate.tkip_capture", None),
    ("repro.tls.attack", "transition_log_likelihoods",
     "tls.likelihood", _likelihood_counts),
    ("repro.core.candidates.viterbi", "algorithm2",
     "core.candidates.algorithm2", _algorithm2_counts),
    ("repro.capture.engine", "run_capture", "capture.run", _capture_run_counts),
    ("repro.capture.multi", "ingest_keystream_columns", "capture.ingest", None),
    ("repro.rc4.batch", "batch_keystream", "rc4.keystream", _keystream_counts),
    ("repro.datasets.generate", "digraph_row_counts",
     "datasets.digraph_row_counts", _digraph_counts),
    ("repro.datasets.generate", "single_byte_counts",
     "datasets.single_byte_counts", _single_byte_counts),
    ("repro.tkip.per_tsc", "generate_per_tsc", "tkip.per_tsc", _per_tsc_counts),
    ("repro.tkip.attack", "position_log_likelihoods", "tkip.likelihood", None),
    ("repro.tkip.michael", "recover_key", "tkip.michael", None),
    ("repro.tkip.michael", "michael", "tkip.michael", None),
)

#: Generator functions: one span per produced item.
GENERATORS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("repro.core.candidates.lazy", "lazy_candidate_blocks",
     "core.candidates.lazy_walk", _lazy_counts),
)

#: (module, class, method, span name, counter) for methods.
METHODS: tuple[tuple[str, str, str, str, Counter | None], ...] = (
    ("repro.api.session", "Session", "run", "api.run", None),
    ("repro.tls.bruteforce", "BruteForceOracle", "search_matrix",
     "tls.bruteforce.search", _search_counts),
    ("repro.capture.https", "HttpsCaptureSource", "capture_batch",
     "capture.batch", None),
    ("repro.simulate.wifi", "WifiAttackSimulation", "forge_frame",
     "tkip.forge", None),
    ("repro.tkip.session", "TkipSession", "decapsulate", "tkip.forge", None),
)


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (``from m import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer entry point; returns a function undoing it."""
    undo: list[tuple[Any, str, Any]] = []
    for module_name, attr, span, count in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, tracer.wrap(span, original, count), undo)
    for module_name, attr, span, count in GENERATORS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, tracer.wrap_generator(span, original, count), undo)
    for module_name, cls_name, attr, span, count in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(span, original, count))
        undo.append((cls, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# --- summary -> per-layer metric names ----------------------------------------


def layer_metrics(summary: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Per-layer metric values (the ``BENCHMARK.json`` names without the
    ``setup.`` and ``trace.`` groups, which ``run.py`` measures itself).

    A layer the workload never calls reads 0.
    """

    def row(name: str) -> dict[str, Any]:
        return summary.get(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "first_s": 0.0,
             "rss_rise_mib": 0.0, "counters": {}},
        )

    def total(name: str) -> float:
        return row(name)["total_s"]

    def counter(name: str, key: str) -> float:
        return row(name)["counters"].get(key, 0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    attempts = counter("tls.bruteforce.search", "attempts")
    return {
        "api.self_s": row("api.run")["self_s"],
        "simulate.sample_digraph_s": total("simulate.sample_digraph"),
        "simulate.sample_absab_s": total("simulate.sample_absab"),
        "simulate.cells_drawn": counter("simulate.sample_digraph", "cells")
        + counter("simulate.sample_absab", "cells"),
        "simulate.tkip_capture_s": total("simulate.tkip_capture"),
        "tls.likelihood_s": total("tls.likelihood"),
        "tls.alignments": counter("tls.likelihood", "alignments"),
        "tls.likelihood_rss_rise_mib": row("tls.likelihood")["rss_rise_mib"],
        "core.candidates.algorithm2_s": total("core.candidates.algorithm2"),
        "core.candidates.algorithm2_rss_rise_mib":
            row("core.candidates.algorithm2")["rss_rise_mib"],
        "core.candidates.n": counter("core.candidates.algorithm2", "n"),
        "core.candidates.lazy_walk_s": total("core.candidates.lazy_walk"),
        "core.candidates.lazy_tried": counter("core.candidates.lazy_walk", "rows"),
        "tls.bruteforce.search_s": total("tls.bruteforce.search"),
        "tls.bruteforce.attempts": attempts,
        "tls.bruteforce.pruned": counter("tls.bruteforce.search", "pruned"),
        "tls.bruteforce.hit_ratio": rate(
            counter("tls.bruteforce.search", "hits"), attempts
        ),
        "capture.run_s": total("capture.run"),
        "capture.ingest_s": total("capture.ingest"),
        "capture.self_s": row("capture.run")["self_s"]
        + row("capture.batch")["self_s"]
        + row("capture.ingest")["self_s"],
        "capture.first_batch_s": row("capture.batch")["first_s"],
        "capture.batches": row("capture.batch")["calls"],
        "capture.requests": counter("capture.run", "requests"),
        "capture.counter_mib": counter("capture.run", "counter_bytes") / 2**20,
        "rc4.keystream_s": total("rc4.keystream"),
        "rc4.keys": counter("rc4.keystream", "keys"),
        "rc4.keystream_bytes": counter("rc4.keystream", "bytes"),
        "datasets.digraph_row_counts_s": total("datasets.digraph_row_counts"),
        "datasets.digraph_increments": counter(
            "datasets.digraph_row_counts", "increments"
        ),
        "datasets.increments_per_s": rate(
            counter("datasets.digraph_row_counts", "increments"),
            total("datasets.digraph_row_counts"),
        ),
        "datasets.single_byte_counts_s": total("datasets.single_byte_counts"),
        "datasets.single_byte_keys": counter("datasets.single_byte_counts", "keys"),
        "tkip.per_tsc_s": total("tkip.per_tsc"),
        "tkip.per_tsc_keys_per_s": rate(
            counter("tkip.per_tsc", "keys"), total("tkip.per_tsc")
        ),
        "tkip.likelihood_s": total("tkip.likelihood"),
        "tkip.michael_s": total("tkip.michael"),
        "tkip.forge_s": total("tkip.forge"),
    }
