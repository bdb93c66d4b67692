"""Fast checks of the repo benchmark's own code (no workload is run).

They pin the metric names and units against ``BENCHMARK.json``, and show
that a wrong cookie, a wrong MIC key, a bad row sum or a digest mismatch
each turns an operation into a failed one, which raises ``error_rate``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import pb_trace
import pb_worker
import run

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def test_benchmark_json_matches_run_py():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(pb_worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_layers_cover_every_per_layer_metric():
    measured_by_run = {
        name for name in run.PER_LAYER if name.startswith(("setup.", "trace."))
    }
    layer_names = set(pb_trace.layer_metrics({}))
    assert layer_names | measured_by_run == set(run.PER_LAYER)
    assert not layer_names & measured_by_run


def test_tracer_self_time_and_generator_spans():
    tracer = pb_trace.Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap("inner", inner, lambda a, k, r: {"calls": 1})

    def outer(x):
        return traced_inner(traced_inner(x))

    def blocks(n):
        yield from range(n)

    assert tracer.wrap("outer", outer)(1) == 3
    assert list(tracer.wrap_generator("gen", blocks)(3)) == [0, 1, 2]
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["counters"] == {"calls": 2}
    assert summary["gen"]["calls"] == 4  # three items, then the exhausted call
    outer_row = summary["outer"]
    assert outer_row["self_s"] == pytest.approx(
        outer_row["total_s"] - summary["inner"]["total_s"]
    )


def test_install_wraps_every_binding_and_uninstall_restores():
    import repro.api  # noqa: F401
    import repro.tls.attack as tls_attack
    from repro.core.candidates import viterbi

    original = viterbi.algorithm2
    uninstall = pb_trace.install(pb_trace.Tracer())
    try:
        assert tls_attack.algorithm2 is viterbi.algorithm2
        assert viterbi.algorithm2.__wrapped__ is original
    finally:
        uninstall()
    assert tls_attack.algorithm2 is original and viterbi.algorithm2 is original


def _failed(problems: list[str]) -> int:
    return run.tally([{"wall_s": 1.0, "problems": problems}])[1]


def test_wrong_cookie_is_a_failed_operation():
    assert _failed(pb_worker.check_cookie(b"secret", b"secret")) == 0
    assert _failed(pb_worker.check_cookie(b"wrong!", b"secret")) == 1


def test_wrong_mic_key_or_rejected_forgery_is_a_failed_operation():
    good = {"correct": True, "mic_key": "00ff", "forged": {"accepted": True}}
    assert _failed(pb_worker.check_tkip(good, b"\x00\xff")) == 0
    assert _failed(pb_worker.check_tkip(good, b"\x00\xfe")) == 1
    assert _failed(pb_worker.check_tkip({**good, "forged": None}, b"\x00\xff")) == 1


def test_capture_row_sums_and_digest_mismatch_are_failed_operations():
    rng = np.random.default_rng(3)
    fm = np.zeros((2, 256, 256), dtype=np.int64)
    absab = np.zeros((3, 65536), dtype=np.int64)
    for row in fm.reshape(2, -1):
        np.add.at(row, rng.integers(0, 65536, 10), 1)
    for row in absab:
        np.add.at(row, rng.integers(0, 65536, 10), 1)
    assert pb_worker.check_capture(fm, absab, 10) == []
    digest = pb_worker.capture_digest(fm, absab)
    assert _failed(pb_worker.check_digest(digest, None)) == 0
    assert _failed(pb_worker.check_digest(digest, digest)) == 0

    moved = absab.copy()
    cell = int(np.flatnonzero(moved[1])[0])
    moved[1, cell] -= 1
    moved[1, (cell + 1) % 65536] += 1  # same row sum, different statistics
    assert pb_worker.check_capture(fm, moved, 10) == []
    other = pb_worker.capture_digest(fm, moved)
    assert _failed(pb_worker.check_digest(other, digest)) == 1

    moved[2, 0] += 1
    assert _failed(pb_worker.check_capture(fm, moved, 10)) == 1


def test_error_rate_counts_raised_operations():
    ops = [{"wall_s": 2.0, "problems": []}, {"problems": ["AttackError: boom"]}]
    assert run.tally(ops) == (2, 1)
    assert [op["wall_s"] for op in run.timed_ops(ops)] == [2.0]


def test_warm_up_is_attempted_but_never_timed():
    ops = [
        {"warmup": True, "captured": pb_worker.WARMUP_REQUESTS, "problems": []},
        {"wall_s": 4.0, "capture_s": 4.0, "captured": 8, "problems": []},
    ]
    assert run.tally(ops) == (2, 0)
    assert run.timed_ops(ops) == ops[1:]
    ops[0]["problems"] = ["FM row sums [4095] != 4096"]
    assert run.tally(ops) == (2, 1)
