"""The repo benchmark: one workload per call, end-to-end or per-layer.

    python3 perfbench/run.py --workload https-sampled --seed 1 --seconds 30 --trace 0

Workloads (shapes in ``pb_worker.WORKLOADS``, reasons in README.md):
``https-sampled``, ``https-capture`` and ``tkip``.  A call

1. runs ``SETUP_PROBES`` set-up processes, each a fresh interpreter
   that imports ``repro.api``, loads the native library and builds the
   session and the simulation (the first one compiles the native
   library into ``.bench_build/`` when the cache there is cold); every
   workload process below starts with the same set-up, and ``setup_s``
   is the median of all their times to ready;
2. with ``--trace 0``, runs the workload's operation in one more fresh
   process until ``--seconds`` have passed (at least twice; on
   https-capture after one untimed warm-up capture), and reports the
   end-to-end metrics as medians over the set-ups and the timed
   operations;
3. with ``--trace 1``, runs one operation with every layer wrapped
   (``pb_trace``), then one without in another fresh process, and
   reports the per-layer metrics plus the tracing overhead.

Every operation's output is checked.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable table and the run's provenance.  Exit
status: 0 when every check passed, 1 when one failed (the JSON is still
printed), 2 when the benchmark could not run (no JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "pb_worker.py"
BUILD = ROOT / ".bench_build"

WORKLOADS = ("https-sampled", "https-capture", "tkip")

#: Set-up-only processes per call.  ``setup_s`` is the median of their
#: times to ready together with those of the call's workload processes.
SETUP_PROBES = 2

#: The whole call must end within this many seconds.
TIME_LIMIT_S = 170.0

#: name -> unit, for ``--trace 0``.  ``error_rate`` is not among them: it
#: is 0 on a healthy run, and the JSON's ``failed``/``attempted`` carry it.
END_TO_END = {
    "setup_s": "s",
    "time_to_secret_s": "s",
    "capture_rps": "requests/s",
    "peak_rss_mib": "MiB",
}

#: name -> unit, for ``--trace 1``.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.native_load_s": "s",
    "setup.build_s": "s",
    "api.self_s": "s",
    "simulate.sample_digraph_s": "s",
    "simulate.sample_absab_s": "s",
    "simulate.cells_drawn": "count",
    "simulate.tkip_capture_s": "s",
    "tls.likelihood_s": "s",
    "tls.alignments": "count",
    "tls.likelihood_rss_rise_mib": "MiB",
    "core.candidates.algorithm2_s": "s",
    "core.candidates.algorithm2_rss_rise_mib": "MiB",
    "core.candidates.n": "count",
    "core.candidates.lazy_walk_s": "s",
    "core.candidates.lazy_tried": "count",
    "tls.bruteforce.search_s": "s",
    "tls.bruteforce.attempts": "count",
    "tls.bruteforce.pruned": "count",
    "tls.bruteforce.hit_ratio": "fraction",
    "capture.run_s": "s",
    "capture.ingest_s": "s",
    "capture.self_s": "s",
    "capture.first_batch_s": "s",
    "capture.batches": "count",
    "capture.requests": "count",
    "capture.counter_mib": "MiB",
    "rc4.keystream_s": "s",
    "rc4.keys": "count",
    "rc4.keystream_bytes": "count",
    "datasets.digraph_row_counts_s": "s",
    "datasets.digraph_increments": "count",
    "datasets.increments_per_s": "1/s",
    "datasets.single_byte_counts_s": "s",
    "datasets.single_byte_keys": "count",
    "tkip.per_tsc_s": "s",
    "tkip.per_tsc_keys_per_s": "1/s",
    "tkip.likelihood_s": "s",
    "tkip.michael_s": "s",
    "tkip.forge_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_env() -> tuple[dict[str, str], dict[str, str]]:
    """Environment for every child process, and the ambient ``REPRO_*``
    variables it drops.

    The workload passes every size and the seed explicitly, so the only
    ``REPRO_*`` variables that could still act are the native-backend and
    memory knobs; all are removed so the library defaults apply.  Caches
    and temporary files go under ``.bench_build/`` of the checkout.
    """
    ambient = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    env["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    return env, ambient


def _worker_cmd(mode: str, args: argparse.Namespace, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), mode, "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def _last_json(stdout: str, what: str) -> dict[str, Any]:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{what} printed no result: {lines[-1][:200]!r}") from exc


def spawn(args, env, deadline: float, mode: str, *extra: str):
    """Run one fresh worker process; returns (seconds from process start
    to its ``ready`` line, the JSON record it prints last)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"time limit reached before the {mode} process")
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(mode, args, *extra), stdout=subprocess.PIPE, text=True,
        env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} process failed (exit {proc.returncode})")
    return wall, _last_json(rest, f"{mode} process")


def timed_ops(ops: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Operations that ran to the end (a raised operation has no timing)."""
    return [op for op in ops if "wall_s" in op]


def tally(ops: list[dict[str, Any]]) -> tuple[int, int]:
    """(attempted, failed): an operation fails when it raised or any of
    its output checks reported a problem."""
    return len(ops), sum(1 for op in ops if op["problems"])


def end_to_end_metrics(setup_walls, worker) -> dict[str, float]:
    ops = timed_ops(worker["ops"])
    metrics = {"setup_s": statistics.median(setup_walls)}
    if ops:
        metrics["time_to_secret_s"] = statistics.median(op["wall_s"] for op in ops)
        metrics["capture_rps"] = statistics.median(
            op["captured"] / op["capture_s"] for op in ops
        )
    metrics["peak_rss_mib"] = worker["peak_rss_mib"]
    return metrics


def per_layer_metrics(setup_splits, traced, untraced) -> dict[str, float]:
    metrics = {
        f"setup.{key}": statistics.median(split[key] for split in setup_splits)
        for key in ("import_s", "native_load_s", "build_s")
    }
    metrics.update(traced["layers"]["metrics"])
    traced_ops, untraced_ops = timed_ops(traced["ops"]), timed_ops(untraced["ops"])
    if traced_ops and untraced_ops:
        metrics["trace.traced_wall_s"] = traced_ops[0]["wall_s"]
        metrics["trace.untraced_wall_s"] = untraced_ops[0]["wall_s"]
        metrics["trace.overhead_s"] = (
            metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
        )
    return metrics


def _print_table(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {unit}")


def _print_spans(summary: dict[str, dict[str, Any]], wall: float | None) -> None:
    print("  span                                calls    total_s     self_s  "
          "share  rss_rise_mib")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["total_s"]):
        share = f"{row['total_s'] / wall:6.1%}" if wall else "   n/a"
        print(f"  {name:<34} {row['calls']:>7} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f} {share} {row['rss_rise_mib']:>12.1f}")


def run(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one call; returns (final JSON object, full record)."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    env, ambient = child_env()
    probes = [spawn(args, env, deadline, "setup") for _ in range(SETUP_PROBES)]
    if args.trace:
        workers = [spawn(args, env, deadline, "ops", "--trace", "1"),
                   spawn(args, env, deadline, "ops", "--once")]
    else:
        workers = [spawn(args, env, deadline, "ops", "--seconds", str(args.seconds))]
    walls = [wall for wall, _ in probes + workers]
    splits = [record["split"] for _, record in probes + workers]
    provenance = dict(probes[0][1]["provenance"])
    provenance["native_cache_warm_at_start"] = provenance.pop("native_cache_warm")
    provenance["ambient_repro_env_dropped"] = ambient
    record: dict[str, Any] = {
        "provenance": provenance,
        "setup_walls_s": walls,
        "setup_splits": splits,
    }
    if args.trace:
        (_, traced), (_, untraced) = workers
        metrics = per_layer_metrics(splits, traced, untraced)
        units = PER_LAYER
        record.update(traced=traced, untraced=untraced)
    else:
        (_, worker), = workers
        metrics = end_to_end_metrics(walls, worker)
        units = END_TO_END
        record["worker"] = worker
    ops = [op for _, worker in workers for op in worker["ops"]]
    attempted, failed = tally(ops)
    missing = [name for name in units if name not in metrics]
    correct = failed == 0 and not missing
    record.update(metrics=metrics, attempted=attempted, failed=failed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for index, op in enumerate(ops):
        if op.get("warmup"):
            print(f"  op {index}: untimed warm-up of {op['captured']} requests  "
                  f"problems {op['problems'] or 'none'}")
            continue
        wall = op.get("wall_s")
        print(f"  op {index}: wall {wall if wall is None else round(wall, 3)} s  "
              f"recovered {op.get('recovered', '-')}  rank {op.get('rank', '-')}  "
              f"problems {op['problems'] or 'none'}")
    print(f"  error_rate {failed / attempted:.4g} fraction ({failed}/{attempted})")
    if args.trace:
        _print_spans(record["traced"]["layers"]["summary"],
                     metrics.get("trace.traced_wall_s"))
    _print_table(metrics, units)
    if missing:
        print(f"  missing metrics: {missing}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, record = run(args)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    records = BUILD / "perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
