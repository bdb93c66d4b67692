"""Fleet coordinator: expand, spawn, verify, and exactly merge.

The coordinator owns the job lifecycle the workers deliberately don't:

1. **Expand** — :meth:`Coordinator.create` turns a capture source into
   a durable manifest (idempotent: re-creating over a half-finished job
   continues it, a *different* job in the same directory is refused).
2. **Drive** — :meth:`Coordinator.run_local` spawns pull-based worker
   subprocesses (``python -m repro fleet-worker``) and watches shard
   states, respawning rounds of workers until every shard is terminal;
   crashed workers are harmless because their leases go stale.
3. **Verify** — :meth:`Coordinator.verify_done_shards` re-reads every
   ``done`` NPZ and checks its embedded cursor against the manifest
   fingerprint and the shard's batch digest.  Corrupt, truncated, or
   foreign shards are *quarantined and requeued* — never silently
   merged, never silently dropped.
4. **Merge** — :meth:`Coordinator.merge` combines verified shards with
   the exact int64 merge and reports coverage, degrading gracefully to
   a partial-but-exact result when shards exhausted their retry budget.

``execute`` strings these together and is what the experiment registry
calls for ``distributed=N`` runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from ..config import ReproConfig, get_config
from ..errors import FleetError
from .manifest import (
    DONE,
    FAILED,
    JobManifest,
    JobPaths,
    JobStatus,
    PENDING,
    job_status,
    read_shard_state,
    write_shard_state,
)
from .sources import build_source
from .worker import run_worker


@dataclass(frozen=True)
class FleetProgress:
    """One coordinator progress notification.

    Attributes:
        stage: ``expand`` / ``capture`` / ``verify`` / ``merge``.
        shards_done / shards_failed / num_shards: shard counters.
        requests_done / total_requests: request counters (done shards).
        message: human-readable detail (quarantines, failures).
    """

    stage: str
    shards_done: int
    shards_failed: int
    num_shards: int
    requests_done: int
    total_requests: int
    message: str = ""


FleetProgressCallback = Callable[[FleetProgress], None]


@dataclass(frozen=True)
class CoverageReport:
    """Exactly which part of the campaign a merge covers.

    ``complete`` jobs are bit-exact with an uninterrupted single-process
    run; partial jobs are bit-exact over ``batches_done`` and name the
    missing shards and why they failed.
    """

    num_shards: int
    shards_done: tuple[int, ...]
    shards_failed: tuple[tuple[int, str], ...]
    batches_done: int
    num_batches: int
    requests_done: int
    total_requests: int

    @property
    def complete(self) -> bool:
        return len(self.shards_done) == self.num_shards

    def to_jsonable(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "shards_done": list(self.shards_done),
            "shards_failed": [
                {"shard": index, "error": error}
                for index, error in self.shards_failed
            ],
            "batches_done": self.batches_done,
            "num_batches": self.num_batches,
            "requests_done": self.requests_done,
            "total_requests": self.total_requests,
            "complete": self.complete,
        }


@dataclass
class Coordinator:
    """Drives one fleet job directory to a verified exact merge."""

    paths: JobPaths
    manifest: JobManifest
    config: ReproConfig = field(default_factory=get_config)

    # --- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        source,
        job_dir: str | Path,
        *,
        num_shards: int,
        config: ReproConfig | None = None,
        checkpoint_every: int = 4,
    ) -> "Coordinator":
        """Expand ``source`` into a manifest in ``job_dir`` (idempotent)."""
        if config is None:
            config = get_config()
        manifest = JobManifest.from_source(
            source,
            num_shards=num_shards,
            lease_ttl=config.fleet_lease_ttl,
            retry_budget=config.fleet_retry_budget,
            backoff_base=config.fleet_backoff_base,
            checkpoint_every=checkpoint_every,
        )
        manifest.write(job_dir)
        # Reload: an existing compatible manifest's policy knobs win,
        # so coordinator restarts honour what the workers already obey.
        manifest = JobManifest.load(job_dir)
        return cls(
            paths=JobPaths(Path(job_dir)), manifest=manifest, config=config
        )

    @classmethod
    def open(
        cls, job_dir: str | Path, *, config: ReproConfig | None = None
    ) -> "Coordinator":
        """Attach to an existing job directory."""
        return cls(
            paths=JobPaths(Path(job_dir)),
            manifest=JobManifest.load(job_dir),
            config=config if config is not None else get_config(),
        )

    # --- inspection -------------------------------------------------------

    def status(self) -> JobStatus:
        return job_status(self.paths, self.manifest)

    def source(self):
        return build_source(self.manifest.descriptor, self.config)

    def _progress(
        self,
        callback: FleetProgressCallback | None,
        stage: str,
        message: str = "",
        status: JobStatus | None = None,
    ) -> None:
        if callback is None:
            return
        if status is None:
            status = self.status()
        done = status.of(DONE)
        callback(
            FleetProgress(
                stage=stage,
                shards_done=len(done),
                shards_failed=len(status.of(FAILED)),
                num_shards=len(self.manifest.shards),
                requests_done=sum(s.requests_done for s in done),
                total_requests=self.manifest.total_requests,
                message=message,
            )
        )

    # --- capture ----------------------------------------------------------

    def run_inline(
        self, *, progress: FleetProgressCallback | None = None
    ) -> JobStatus:
        """Drive the whole job with one in-process worker (no spawning)."""
        run_worker(
            self.paths.root, worker_id="coordinator-inline", config=self.config
        )
        status = self.status()
        self._progress(progress, "capture", status=status)
        return status

    def _worker_command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "fleet-worker",
            str(self.paths.root),
            "--wait-for-peers",
        ]

    def _worker_env(self, workers: int) -> dict[str, str]:
        env = dict(os.environ)
        import repro

        src_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                src_root + (os.pathsep + existing if existing else "")
            )
        # Split native kernel threads across workers instead of letting
        # every worker grab every core.
        if workers > 1 and "REPRO_NATIVE_THREADS" not in env:
            cores = os.cpu_count() or 1
            env["REPRO_NATIVE_THREADS"] = str(max(1, cores // workers))
        return env

    def run_local(
        self,
        *,
        workers: int,
        progress: FleetProgressCallback | None = None,
        poll: float = 0.2,
        max_rounds: int | None = None,
    ) -> JobStatus:
        """Spawn local worker subprocesses until every shard is terminal.

        A *round* spawns ``workers`` processes and waits for them all to
        exit; workers exit when every shard is done or failed, so a
        non-terminal job after a round means workers crashed.  Rounds
        repeat (stale leases make crashed shards claimable again) up to
        ``max_rounds`` (default: retry budget + 1), after which a
        :class:`FleetError` reports the stuck state.
        """
        if workers < 1:
            raise FleetError(f"workers must be >= 1, got {workers}")
        if max_rounds is None:
            max_rounds = self.manifest.retry_budget + 1
        env = self._worker_env(workers)
        for _ in range(max_rounds):
            status = self.status()
            if status.terminal:
                return status
            procs = [
                subprocess.Popen(
                    self._worker_command(),
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for _ in range(workers)
            ]
            last_done = -1
            try:
                while any(p.poll() is None for p in procs):
                    time.sleep(poll)
                    status = self.status()
                    done = len(status.of(DONE))
                    if done != last_done:
                        last_done = done
                        self._progress(progress, "capture", status=status)
            finally:
                for p in procs:
                    if p.poll() is None:
                        p.terminate()
                for p in procs:
                    try:
                        p.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        p.kill()
            status = self.status()
            self._progress(progress, "capture", status=status)
            if status.terminal:
                return status
        raise FleetError(
            f"fleet job not terminal after {max_rounds} worker rounds "
            f"(shard counts: {self.status().counts})"
        )

    # --- verification and merge -------------------------------------------

    def verify_done_shards(
        self,
        *,
        progress: FleetProgressCallback | None = None,
        source=None,
    ) -> list[int]:
        """Re-check every ``done`` shard NPZ; quarantine + requeue bad ones.

        Returns the indices that failed verification (now ``pending``
        again).  Merging without a clean verify pass is how silent
        corruption would creep into "exact" statistics — so
        :meth:`merge` refuses unverified shards by re-running this.
        """
        from ..capture.engine import CORRUPT_CHECKPOINT_ERRORS

        if source is None:
            source = self.source()
        bad: list[int] = []
        for shard in self.manifest.shards:
            state = read_shard_state(self.paths, shard.index)
            if state.state != DONE:
                continue
            path = self.paths.result(shard.index)
            problem = ""
            try:
                _, extra = source.load(path)
                cursor = extra.get("capture_checkpoint")
                if not isinstance(cursor, dict):
                    problem = "missing capture cursor"
                elif cursor.get("fingerprint") != self.manifest.fingerprint:
                    problem = "fingerprint mismatch"
                elif cursor.get("batch_digest") != shard.digest():
                    problem = "batch digest mismatch"
                elif int(cursor.get("batches_done", -1)) != shard.num_batches:
                    problem = "incomplete batch coverage"
            except CORRUPT_CHECKPOINT_ERRORS as exc:
                problem = f"unreadable ({exc.__class__.__name__}: {exc})"
            except FileNotFoundError:
                problem = "result NPZ missing"
            if not problem:
                continue
            bad.append(shard.index)
            self._quarantine(shard.index, problem)
            self._progress(
                progress,
                "verify",
                message=f"shard {shard.index} quarantined: {problem}",
            )
        return bad

    def _quarantine(self, index: int, problem: str) -> None:
        """Move a bad shard NPZ aside and put the shard back in play."""
        self.paths.quarantine.mkdir(parents=True, exist_ok=True)
        src = self.paths.result(index)
        if src.exists():
            attempt = 0
            while True:
                dst = self.paths.quarantine / (
                    f"shard-{index:05d}.{attempt}.npz"
                )
                if not dst.exists():
                    break
                attempt += 1
            os.replace(src, dst)
        state = read_shard_state(self.paths, index)
        write_shard_state(
            self.paths,
            replace(
                state,
                state=PENDING,
                error=f"quarantined: {problem}",
                requests_done=0,
            ),
        )

    def merge(self, *, source=None):
        """Exactly merge every verified ``done`` shard.

        Returns ``(statistics, CoverageReport)``.  Zero done shards
        yield empty statistics with a zero-coverage report — the partial
        merge is always *exact over what it covers*.
        """
        from ..capture.engine import merge_shards

        if source is None:
            source = self.source()
        done: list[int] = []
        failed: list[tuple[int, str]] = []
        requests = 0
        batches = 0
        loaded = []
        for shard in self.manifest.shards:
            state = read_shard_state(self.paths, shard.index)
            if state.state == DONE:
                stats, _ = source.load(self.paths.result(shard.index))
                loaded.append(stats)
                done.append(shard.index)
                requests += state.requests_done
                batches += shard.num_batches
            elif state.state == FAILED:
                failed.append((shard.index, state.error))
            else:
                failed.append(
                    (shard.index, f"not terminal ({state.state})")
                )
        total = merge_shards(loaded) if loaded else source.empty()
        report = CoverageReport(
            num_shards=len(self.manifest.shards),
            shards_done=tuple(done),
            shards_failed=tuple(failed),
            batches_done=batches,
            num_batches=self.manifest.num_batches,
            requests_done=requests,
            total_requests=self.manifest.total_requests,
        )
        return total, report

    # --- the full lifecycle ----------------------------------------------

    def execute(
        self,
        *,
        workers: int,
        progress: FleetProgressCallback | None = None,
        runner: Callable[[], JobStatus] | None = None,
    ):
        """Capture → verify (requeue + recapture) → merge, end to end.

        ``runner`` overrides how a capture round is driven (tests inject
        in-process workers); the default spawns ``workers`` local
        subprocesses, or runs inline when ``workers == 1``.
        """
        if runner is None:
            if workers == 1:
                runner = lambda: self.run_inline(progress=progress)  # noqa: E731
            else:
                runner = lambda: self.run_local(  # noqa: E731
                    workers=workers, progress=progress
                )
        self._progress(progress, "expand")
        source = self.source()
        # Verification can requeue shards, so capture+verify may need
        # more than one pass; each requeued claim burns shard attempts,
        # so the retry budget still bounds the loop.
        for _ in range(self.manifest.retry_budget + 1):
            runner()
            bad = self.verify_done_shards(progress=progress, source=source)
            if not bad:
                break
        else:
            raise FleetError(
                "shards kept failing verification after "
                f"{self.manifest.retry_budget + 1} capture passes"
            )
        stats, report = self.merge(source=source)
        self._progress(
            progress,
            "merge",
            message=(
                "complete"
                if report.complete
                else f"partial: {len(report.shards_failed)} shard(s) missing"
            ),
        )
        return stats, report


def fleet_capture(
    source,
    job_dir: str | Path,
    *,
    num_shards: int,
    workers: int,
    config: ReproConfig | None = None,
    checkpoint_every: int = 4,
    progress: FleetProgressCallback | None = None,
):
    """One-call distributed capture: expand, drive, verify, merge.

    The ``distributed=N`` experiment path: equivalent to
    ``run_capture(source)`` when everything goes right, and to the best
    exact partial merge (plus a truthful :class:`CoverageReport`) when
    shards exhaust their retry budget.  Merging is bit-exact: the
    counters of a complete fleet run equal a single-process capture of
    the same source, which is what lets warehouse fingerprints ignore
    how a run was executed.

    Args:
        source: the capture campaign (see
            :func:`repro.fleet.build_source`).
        job_dir: shared directory holding the manifest, leases, shard
            checkpoints, and promoted statistics; survives crashes and
            is what a re-invocation resumes from.
        num_shards: how many disjoint batch-ranges to expand into.
        workers: local workers to drive: ``1`` runs one worker inline
            in this process, more spawn that many ``python -m repro
            fleet-worker`` subprocesses (external workers may join too).
        config: retry budget / backoff knobs; ``None`` reads the
            environment.
        checkpoint_every: batches between shard checkpoint writes.
        progress: optional :class:`FleetProgress` callback.

    Returns:
        ``(stats, report)`` — the merged
        :class:`~repro.capture.SufficientStatistics` and the
        :class:`CoverageReport` saying exactly which shards made it.

    Example:

        >>> from repro.fleet import build_source, fleet_capture
        >>> source = build_source("https", num_requests=1 << 12,
        ...                       config=config)              # doctest: +SKIP
        >>> stats, report = fleet_capture(source, "job/",
        ...                               num_shards=8, workers=2)  # doctest: +SKIP
        >>> report.complete                                   # doctest: +SKIP
        True
    """
    coordinator = Coordinator.create(
        source,
        job_dir,
        num_shards=num_shards,
        config=config,
        checkpoint_every=checkpoint_every,
    )
    return coordinator.execute(workers=workers, progress=progress)
