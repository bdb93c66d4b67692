"""One benchmark process: set up, run one workload's operations, check them.

Run by ``run.py``, never directly by a user:

    python3 perfbench/pb_worker.py setup --workload W --seed S
    python3 perfbench/pb_worker.py ops --workload W --seed S --seconds T \
        [--trace 0|1] [--once]

``setup`` does the set-up a user pays in a fresh process (import
``repro.api``, load the native library, build the ``Session`` and the
simulation), prints ``ready`` and then its split and provenance as one
JSON line.  ``ops`` does the same set-up and prints ``ready``, then runs
the workload's operation until ``--seconds`` have passed (at least
``MIN_OPS`` times; exactly once when traced or with ``--once``; on
https-capture after one untimed warm-up capture), checks
every output, and prints one JSON line with the outcomes and the
process's ``ru_maxrss``.  Every size is passed explicitly, and the
``Session`` gets an explicit ``ReproConfig`` built from the seed, so no
``REPRO_*`` variable can change the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: Fixed workload shapes.  The seed is the only input that varies.
WORKLOADS: dict[str, dict[str, Any]] = {
    "https-sampled": {
        "experiment": "attack-https",
        "params": {
            "capture": "sampled",
            "cookie_len": 16,
            "max_gap": 32,
            "browser": "generic",
            "num_requests": 9 * 2**27,
            "num_candidates": 2**16,
        },
    },
    "https-capture": {
        "params": {
            "cookie_len": 16,
            "max_gap": 128,
            "browser": "generic",
            "num_requests": 2**15,
            "batch_size": 4096,
            "reconnect_every": 1,
        },
    },
    "tkip": {
        "experiment": "attack-tkip",
        "params": {
            "capture": "sampled",
            "num_tsc": 256,
            "keys_per_tsc": 2**17,
            "packets_per_tsc": 2**12,
            "max_candidates": 2**20,
            "forge": True,
        },
    },
}

#: Operations per untraced call, however short ``--seconds`` is.
MIN_OPS = 2

#: Requests of the untimed warm-up capture that runs before the timed
#: ones in every https-capture process: the first capture of a process
#: pays about 1.5 s of one-time costs that the later ones do not, and
#: one batch is enough to pay them.
WARMUP_REQUESTS = 4096

#: Messages of the attack errors that mean "the secret is not within the
#: candidate budget" — an attack outcome, not a failed operation.
NOT_WITHIN_BUDGET = ("brute force failed after", "no CRC-valid candidate within")


def _native_cache_files() -> set[str]:
    cache = Path(os.environ.get("XDG_CACHE_HOME", "")) / "repro-rc4"
    return {p.name for p in cache.glob("librc4stats-*.so")} if cache.is_dir() else set()


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def _cpu() -> dict[str, Any]:
    model, flags = platform.processor() or "unknown", set()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
                    break
    except OSError:
        pass
    return {
        "model": model,
        "avx2": "avx2" in flags,
        "avx512": "avx512f" in flags,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Ready:
    """A set-up process: the imports, the set-up split and the current
    instance (``session`` and ``sim`` for one seed)."""

    def __init__(self, workload: str, seed: int) -> None:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise SystemExit(f"no program source at {SRC / 'repro'}")
        sys.path.insert(0, str(SRC))
        cache_before = _native_cache_files()
        start = time.perf_counter()
        import numpy as np
        import repro
        import repro.api
        import repro.capture  # noqa: F401  (imported lazily by the capture)
        import repro.simulate  # noqa: F401  (imported lazily by the attacks)

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
        imported = time.perf_counter()
        from repro.rc4 import _native

        _native.available()
        loaded = time.perf_counter()
        self.workload = workload
        self.shape = WORKLOADS[workload]
        self.instance(seed)
        built = time.perf_counter()
        self.split = {
            "import_s": imported - start,
            "native_load_s": loaded - imported,
            "build_s": built - loaded,
        }
        self.provenance = {
            "seed": seed,
            "workload": workload,
            "shape": self.shape["params"],
            "cpu": _cpu(),
            "native": _native.status(),
            "native_cache_warm": not (_native_cache_files() - cache_before),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_revision": _git_revision(),
        }

    def instance(self, seed: int) -> None:
        """Build the ``Session`` and the simulation for ``seed``."""
        from repro.api import Session
        from repro.config import ReproConfig
        from repro.simulate import HttpsAttackSimulation, WifiAttackSimulation

        params = self.shape["params"]
        nproc = len(os.sched_getaffinity(0))
        self.session = Session(ReproConfig(seed=seed, native_threads=nproc))
        if self.workload == "tkip":
            self.sim = WifiAttackSimulation(self.session.config)
        else:
            self.sim = HttpsAttackSimulation(
                self.session.config,
                cookie_len=params["cookie_len"],
                max_gap=params["max_gap"],
                browser=params["browser"],
            )
        # When each progress stage starts (the experiments emit one event
        # per stage), so capture time is known even when the attack ends
        # without the secret.
        self.stage_marks: list[tuple[str, float]] = []
        self.session.add_progress(
            lambda event: self.stage_marks.append((event.stage, time.perf_counter()))
        )


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of a call's ``index``-th operation.

    The attacks' work depends on their inputs (Algorithm 2 takes 19-27 s
    across seeds at the https-sampled shape), so each operation of an
    attack workload gets its own instance and the call's median averages
    over them.  The capture repeats its seed, so that its statistics
    digests can be compared.
    """
    if workload == "https-capture":
        return seed
    return seed + (index << 32)


# --- one operation per workload, with its output checks ------------------------


def _stage_seconds(marks, stage: str, end: float) -> float:
    for i, (name, at) in enumerate(marks):
        if name == stage:
            return (marks[i + 1][1] if i + 1 < len(marks) else end) - at
    raise KeyError(f"stage {stage!r} never started")


def check_cookie(cookie: bytes, secret: bytes) -> list[str]:
    """An accepted cookie must be the simulation's secret."""
    return [] if cookie == secret else [f"accepted cookie {cookie!r} is not the secret"]


def check_tkip(metrics: dict[str, Any], mic_key: bytes) -> list[str]:
    """The recovered MIC key must be the victim's, and the forged frame
    must have been decapsulated by the victim."""
    problems = []
    if not metrics.get("correct"):
        problems.append("recovered MIC is not the true MIC")
    if metrics.get("mic_key") != mic_key.hex():
        problems.append("recovered MIC key differs from the victim's")
    forged = metrics.get("forged") or {}
    if not forged.get("accepted"):
        problems.append("forged frame was not accepted")
    return problems


def capture_digest(fm_counts, absab_matrix) -> str:
    """Digest of the capture statistics: one wrapping int64 dot product per
    counter row against fixed odd weights (a change to any one cell changes
    its row's product), hashed with the row order."""
    import numpy as np

    weights = np.random.default_rng(0x5EED).integers(
        0, 2**62, size=65536, dtype=np.int64
    ) | 1
    digest = hashlib.sha256()
    digest.update(fm_counts.reshape(-1, 65536) @ weights)
    digest.update(absab_matrix @ weights)
    return digest.hexdigest()


def check_capture(fm_counts, absab_matrix, num_requests: int) -> list[str]:
    """Every FM row and every ABSAB row must count each request once."""
    problems = []
    fm_sums = fm_counts.reshape(len(fm_counts), -1).sum(axis=1)
    if (fm_sums != num_requests).any():
        problems.append(
            f"FM row sums {sorted(set(fm_sums.tolist()))} != {num_requests}"
        )
    absab_sums = absab_matrix.sum(axis=1)
    if (absab_sums != num_requests).any():
        problems.append(
            f"ABSAB row sums {sorted(set(absab_sums.tolist()))[:4]} != {num_requests}"
        )
    return problems


def check_digest(digest: str, reference: str | None) -> list[str]:
    if reference is None or digest == reference:
        return []
    return [f"capture digest {digest[:16]} differs from this seed's {reference[:16]}"]


def _digest_file(seed: int) -> Path:
    shape = json.dumps(WORKLOADS["https-capture"]["params"], sort_keys=True)
    key = hashlib.sha256(shape.encode()).hexdigest()[:12]
    return BUILD / "perfbench" / "digests" / f"https-capture-{key}-seed{seed}.txt"


def run_attack(ready: Ready) -> dict[str, Any]:
    params = ready.shape["params"]
    marks = ready.stage_marks
    capture_stage = "collect" if ready.workload == "https-sampled" else "capture"
    from repro.errors import AttackError

    start = time.perf_counter()
    result = None
    try:
        result = ready.session.run(ready.shape["experiment"], **params)
    except AttackError as exc:
        if not str(exc).startswith(NOT_WITHIN_BUDGET):
            raise
        outcome_note = str(exc)
    end = time.perf_counter()
    out: dict[str, Any] = {
        "seed": ready.session.config.seed, "wall_s": end - start, "problems": [],
    }
    out["capture_s"] = _stage_seconds(marks, capture_stage, end)
    if ready.workload == "https-sampled":
        out["captured"] = params["num_requests"]
    else:
        out["captured"] = params["num_tsc"] * params["packets_per_tsc"]
    if result is None:
        out.update(recovered=False, note=outcome_note)
        return out
    metrics = result.metrics
    out["recovered"] = True
    if ready.workload == "https-sampled":
        out.update(rank=metrics["rank"], attempts=metrics["attempts"])
        out["problems"] = check_cookie(
            metrics["cookie"].encode("latin-1"), ready.sim.secret
        )
    else:
        out["rank"] = metrics["candidate_rank"]
        out["problems"] = check_tkip(metrics, ready.sim.victim.mic_key)
    return out


def run_capture(ready: Ready, digests: list[str]) -> dict[str, Any]:
    params = ready.shape["params"]
    start = time.perf_counter()
    stats = ready.sim.batched_statistics(
        params["num_requests"],
        batch_size=params["batch_size"],
        reconnect_every=params["reconnect_every"],
    )
    end = time.perf_counter()
    out: dict[str, Any] = {
        "seed": ready.session.config.seed,
        "wall_s": end - start,
        "capture_s": end - start,
        "captured": stats.num_requests,
    }
    problems = check_capture(
        stats.fm_counts, stats.absab_matrix, params["num_requests"]
    )
    digest = capture_digest(stats.fm_counts, stats.absab_matrix)
    path = _digest_file(ready.session.config.seed)
    reference = digests[0] if digests else (
        path.read_text().strip() if path.is_file() else None
    )
    problems += check_digest(digest, reference)
    if reference is None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n")
    digests.append(digest)
    out.update(digest=digest, problems=problems)
    return out


def warm_up(ready: Ready) -> dict[str, Any]:
    """The untimed warm-up capture, with its row sums checked.  It has no
    ``wall_s``, so no timing takes it in, but it counts as an attempted
    operation."""
    params = ready.shape["params"]
    try:
        stats = ready.sim.batched_statistics(
            WARMUP_REQUESTS,
            batch_size=params["batch_size"],
            reconnect_every=params["reconnect_every"],
        )
        problems = check_capture(stats.fm_counts, stats.absab_matrix, WARMUP_REQUESTS)
    except Exception as exc:  # counted as a failed operation
        traceback.print_exc(file=sys.stderr)
        problems = [f"{type(exc).__name__}: {exc}"]
    return {"warmup": True, "captured": WARMUP_REQUESTS, "problems": problems}


def run_ops(
    ready: Ready, seed: int, seconds: float, *, traced: bool, once: bool
) -> dict[str, Any]:
    """Repeat the operation until ``seconds`` have passed, and at least
    ``MIN_OPS`` times; exactly once when traced or ``once``.  On
    https-capture the untimed warm-up capture runs first."""
    layers = None
    ops: list[dict[str, Any]] = []
    if ready.workload == "https-capture":
        ops.append(warm_up(ready))
    if traced:
        import pb_trace

        tracer = pb_trace.Tracer()
        uninstall = pb_trace.install(tracer)
    timed: list[dict[str, Any]] = []
    digests: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(timed)
        try:
            if index:
                ready.instance(op_seed(ready.workload, seed, index))
            if ready.workload == "https-capture":
                op = run_capture(ready, digests)
            else:
                op = run_attack(ready)
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc(file=sys.stderr)
            op = {"problems": [f"{type(exc).__name__}: {exc}"]}
        timed.append(op)
        if traced or once or (
            len(timed) >= MIN_OPS and time.perf_counter() >= deadline
        ):
            break
    ops += timed
    if traced:
        uninstall()
        summary = tracer.summary()
        layers = {"summary": summary, "metrics": pb_trace.layer_metrics(summary)}
    return {
        "ops": ops,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--once", action="store_true",
                        help="run exactly one operation")
    args = parser.parse_args(argv)
    ready = Ready(args.workload, args.seed)
    print("ready", flush=True)
    record: dict[str, Any] = {"split": ready.split, "provenance": ready.provenance}
    if args.mode == "ops":
        record.update(run_ops(
            ready, args.seed, args.seconds, traced=bool(args.trace), once=args.once
        ))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
