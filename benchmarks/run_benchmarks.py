#!/usr/bin/env python
"""Run the perf-critical benchmark subset and record machine-readable rates.

Writes ``BENCH_<date>[_<label>].json`` next to this script: keys/sec for
``batch_keystream``, counts/sec per counting kernel, and end-to-end
dataset wall-clocks.  Committing these files gives the repo a perf
trajectory — every optimisation PR records a before/after pair on the
same machine (the single-machine analogue of the paper's cluster budget
in §3.2).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--label post]
    PYTHONPATH=src python benchmarks/run_benchmarks.py --smoke  # <60 s gate
    PYTHONPATH=src python benchmarks/run_benchmarks.py \
        --smoke --check benchmarks/BENCH_<date>_post.json --tolerance 0.25

``--smoke`` runs a fast subset with reduced calibration and skips the
JSON recording unless ``--out`` is given; it exists for ``make verify``
so perf regressions fail fast without the full bench matrix.

``--check BASELINE.json`` compares the run against a committed baseline:
any shared benchmark whose mean exceeds ``baseline * (1 + tolerance)``
is reported and the process exits with status 2 (run failures keep
exiting 1), so callers can soft-fail on regressions while hard-failing
on broken benchmarks.  Baselines recorded on different hardware will
drift; the gate is meant for same-machine or same-CI-runner-class
comparisons, hence the generous default tolerance.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Benchmark files whose results feed the BENCH json.
BENCH_FILES = [
    "test_core_throughput.py",
    "test_dataset_pipeline.py",
    "test_capture_throughput.py",
    "test_campaign_throughput.py",
    "test_candidate_throughput.py",
]

#: -k expression selecting the <60 s smoke subset.
SMOKE_FILTER = (
    "batch_rc4_throughput or single_byte_kernel or longterm_dataset_wallclock"
    " or digraph_row_counts_alignment_shape"
)


def _run_pytest(json_path: Path, *, smoke: bool) -> int:
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(BENCH_DIR / name) for name in BENCH_FILES],
        "-q",
        "--benchmark-json",
        str(json_path),
        "--benchmark-warmup=off",
    ]
    if smoke:
        cmd += ["-k", SMOKE_FILTER, "--benchmark-max-time=0.5"]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.call(cmd, cwd=str(REPO_ROOT), env=env)


def _native_backend_status() -> bool:
    try:
        from repro.rc4 import _native

        return _native.available()
    except Exception:
        return False


def _distill(raw: dict, label: str) -> dict:
    import numpy

    results = {}
    for bench in raw.get("benchmarks", []):
        name = bench["name"]
        stats = bench["stats"]
        extra = bench.get("extra_info", {}) or {}
        entry = {
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
        if "keys" in extra:
            entry["keys"] = extra["keys"]
            entry["keys_per_s"] = extra["keys"] / stats["mean"]
        if "counts" in extra:
            entry["counts"] = extra["counts"]
            entry["counts_per_s"] = extra["counts"] / stats["mean"]
        results[name] = entry
    return {
        "label": label,
        "date": _dt.date.today().isoformat(),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
        },
        "native_backend": _native_backend_status(),
        "benchmarks": results,
    }


#: Exit status for "benchmarks ran fine but regressed past tolerance",
#: distinct from 1 (run failure) so callers can soft-fail regressions.
REGRESSION_EXIT = 2


def compare_records(
    baseline: dict, current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare two distilled BENCH records.

    Returns ``(regressions, notes)``: one message per shared benchmark
    whose current mean exceeds ``baseline_mean * (1 + tolerance)``, plus
    informational notes (benchmarks present in only one record, or
    mismatched native-backend state — both make means incomparable).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance}")
    regressions: list[str] = []
    notes: list[str] = []
    base_bench = baseline.get("benchmarks", {})
    cur_bench = current.get("benchmarks", {})
    if baseline.get("native_backend") != current.get("native_backend"):
        notes.append(
            "native backend differs from baseline "
            f"(baseline={baseline.get('native_backend')}, "
            f"current={current.get('native_backend')}); "
            "means are not comparable"
        )
        return regressions, notes
    shared = sorted(set(base_bench) & set(cur_bench))
    for name in sorted(set(base_bench) ^ set(cur_bench)):
        side = "baseline" if name in base_bench else "current"
        notes.append(f"{name}: only in {side} record, skipped")
    for name in shared:
        base_mean = base_bench[name]["mean_s"]
        cur_mean = cur_bench[name]["mean_s"]
        if base_mean <= 0:
            notes.append(f"{name}: non-positive baseline mean, skipped")
            continue
        ratio = cur_mean / base_mean
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{name}: {cur_mean * 1e3:.2f} ms vs baseline "
                f"{base_mean * 1e3:.2f} ms ({ratio:.2f}x, "
                f"tolerance {1.0 + tolerance:.2f}x)"
            )
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label",
        default="",
        help="suffix for the output file, e.g. 'pre' -> BENCH_<date>_pre.json",
    )
    parser.add_argument(
        "--out", default="", help="explicit output path (overrides --label)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast subset with reduced calibration; no JSON unless --out",
    )
    parser.add_argument(
        "--check",
        default="",
        metavar="BASELINE.json",
        help="compare against a recorded baseline; exit 2 on regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed mean slowdown vs baseline (0.25 = 25%%)",
    )
    args = parser.parse_args(argv)

    if args.check and not Path(args.check).exists():
        # Fail before spending minutes benchmarking against nothing.
        print(f"baseline {args.check} not found", file=sys.stderr)
        return 1

    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench.json"
        rc = _run_pytest(raw_path, smoke=args.smoke)
        if rc != 0:
            print(f"benchmark run failed (pytest exit {rc})", file=sys.stderr)
            return rc
        raw = json.loads(raw_path.read_text())

    record = _distill(raw, args.label or ("smoke" if args.smoke else "full"))

    if args.check:
        baseline_path = Path(args.check)
        baseline = json.loads(baseline_path.read_text())
        regressions, notes = compare_records(baseline, record, args.tolerance)
        for note in notes:
            print(f"note: {note}")
        if regressions:
            print(
                f"PERF REGRESSION vs {baseline_path} "
                f"(tolerance {args.tolerance:.0%}):",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return REGRESSION_EXIT
        print(f"perf check ok vs {baseline_path} (tolerance {args.tolerance:.0%})")
        if args.smoke and not args.out:
            return 0

    if args.smoke and not args.out:
        print("smoke run ok (no BENCH json recorded)")
        return 0

    if args.out:
        out_path = Path(args.out)
    else:
        suffix = f"_{args.label}" if args.label else ""
        out_path = BENCH_DIR / f"BENCH_{record['date']}{suffix}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for name, entry in sorted(record["benchmarks"].items()):
        rate = entry.get("keys_per_s")
        rate_txt = f"  {rate:,.0f} keys/s" if rate else ""
        print(f"  {name}: {entry['mean_s'] * 1e3:.2f} ms{rate_txt}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
