"""The one capture-execution path and the config it now honours.

:func:`repro.capture.collect` picks in-process, checkpointed or fleet
execution for the attack experiments and the campaigns.  Held here:
its mode rules, that every mode gives the counters of a plain
``run_capture``, that a self-made fleet job directory is gone after
the merge, and two config fields that used to be dropped on the way:
provenance reports the backend that really ran, and
``ReproConfig.candidate_mem`` reaches Algorithm 2.
"""

import json
import tempfile

import numpy as np
import pytest

from repro.api import Session
from repro.campaign import Population, run_https_campaign
from repro.capture import (
    TkipCaptureSource,
    check_collect_mode,
    collect,
    run_capture,
)
from repro.config import ReproConfig
from repro.core.candidates import viterbi
from repro.errors import CaptureError, ExperimentParamError
from repro.rc4 import _native


def _config(**overrides) -> ReproConfig:
    """Fleet runs with one inline worker and no backoff sleeps."""
    fields = dict(seed=1234, fleet_workers=1, fleet_backoff_base=0.0)
    fields.update(overrides)
    return ReproConfig(**fields)


def _source(config: ReproConfig) -> TkipCaptureSource:
    return TkipCaptureSource(
        config=config,
        plaintext=bytes(range(20)),
        tsc_values=(0, 1, 2),
        packets_per_tsc=300,
        batch_size=128,
        label="collect",
    )


def _same_counts(a, b) -> bool:
    return a.num_captured == b.num_captured and sorted(a.counts) == sorted(
        b.counts
    ) and all(np.array_equal(a.counts[t], b.counts[t]) for t in a.counts)


@pytest.fixture
def tmpdir_env(tmp_path, monkeypatch):
    """A private, empty TMPDIR that ``tempfile`` really uses."""
    root = tmp_path / "tmp"
    root.mkdir()
    monkeypatch.setenv("TMPDIR", str(root))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return root


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run the test body under each engine backend."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


class TestModeRules:
    @pytest.mark.parametrize(
        "distributed, checkpoint, job_dir, message",
        [
            (-1, None, None, "distributed must be >= 0"),
            (2, "cap.npz", None, "checkpoints"),
            (2, "cap.npz", "job", "checkpoints"),
            (0, None, "job", "job_dir requires distributed"),
            (0, "cap.npz", "job", "job_dir requires distributed"),
            (0, None, None, None),
            (0, "cap.npz", None, None),
            (3, None, None, None),
            (3, None, "job", None),
        ],
    )
    def test_rules(self, distributed, checkpoint, job_dir, message):
        if message is None:
            check_collect_mode(distributed, checkpoint, job_dir)
            return
        with pytest.raises(CaptureError, match=message):
            check_collect_mode(distributed, checkpoint, job_dir)
        with pytest.raises(ExperimentParamError, match=message):
            check_collect_mode(
                distributed, checkpoint, job_dir, error=ExperimentParamError
            )
        # collect applies the same rules before any capture work.
        with pytest.raises(CaptureError, match=message):
            collect(
                _source(_config()), config=_config(), distributed=distributed,
                checkpoint=checkpoint, job_dir=job_dir,
            )


class TestCollect:
    def test_in_process_equals_run_capture(self, tmp_path):
        config = _config()
        reference = run_capture(_source(config))
        stats, fleet = collect(_source(config), config=config)
        assert fleet is None
        assert _same_counts(stats, reference)
        checkpoint = tmp_path / "cap.npz"
        stats, fleet = collect(
            _source(config), config=config, checkpoint=checkpoint,
            checkpoint_every=2,
        )
        assert fleet is None and checkpoint.exists()
        assert _same_counts(stats, reference)

    def test_fleet_temp_job_dir_is_removed(self, tmpdir_env, backend):
        config = _config()
        reference = run_capture(_source(config))
        stats, fleet = collect(_source(config), config=config, distributed=2)
        assert _same_counts(stats, reference)
        assert fleet["complete"]
        assert fleet["job_dir"] is None
        assert fleet["workers"] == 1
        assert list(tmpdir_env.iterdir()) == []

    def test_fleet_job_dir_is_kept(self, tmp_path, tmpdir_env):
        config = _config()
        job = tmp_path / "job"
        stats, fleet = collect(
            _source(config), config=config, distributed=3, job_dir=job,
        )
        assert _same_counts(stats, run_capture(_source(config)))
        assert fleet["job_dir"] == str(job)
        assert (job / "manifest.json").exists()
        assert list(tmpdir_env.iterdir()) == []

    def test_worker_count_is_capped_by_shards(self, monkeypatch):
        from repro.fleet import coordinator

        seen = {}

        def spy(source, job_dir, *, num_shards, workers, **kwargs):
            seen["workers"] = workers
            return original(source, job_dir, num_shards=num_shards,
                            workers=1, **kwargs)

        original = coordinator.fleet_capture
        monkeypatch.setattr(coordinator, "fleet_capture", spy)
        config = _config(fleet_workers=8)
        _stats, fleet = collect(_source(config), config=config, distributed=2)
        assert seen["workers"] == 2 and fleet["workers"] == 2

    def test_attack_experiment_leaves_no_temp_dir(self, tmpdir_env):
        params = dict(
            cookie_len=2, num_candidates=1 << 12, max_gap=8,
            capture="batched", num_requests=1 << 13, batch_size=1024,
        )
        session = Session(_config())
        local = session.run("attack-https", **params).metrics
        fleet = session.run("attack-https", distributed=2, **params).metrics
        assert fleet.pop("fleet")["job_dir"] is None
        assert local.pop("fleet") is None
        assert fleet == local
        assert list(tmpdir_env.iterdir()) == []

    def test_campaign_fleet_leaves_no_temp_dir(self, tmpdir_env):
        config = _config()
        pop = Population.sample(config, 3, label="tmp")
        run_https_campaign(
            config, pop, num_requests=256, batch_size=64, group_size=2,
            num_candidates=16, distributed=2,
        )
        assert list(tmpdir_env.iterdir()) == []


class TestConfigReachesTheWork:
    def test_provenance_native_is_the_backend_that_ran(self, backend):
        result = Session(ReproConfig(seed=1)).run(
            "dataset-single", num_keys=256, positions=4
        )
        assert result.provenance["native"] == _native.available()
        assert result.provenance["native"] == (backend == "native")

    def test_info_json_native_is_the_backend(self, backend, capsys):
        from repro.__main__ import main

        assert main(["info", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["native"] == (backend == "native")

    def test_config_has_no_native_fields(self):
        assert not hasattr(ReproConfig(), "native")
        assert not hasattr(ReproConfig(), "native_cc")
        with pytest.raises(TypeError):
            ReproConfig(native=False)

    @pytest.fixture
    def budgets(self, monkeypatch):
        seen = []
        original = viterbi._extend_topk

        def spy(scores, neg_trans, k, mem_budget):
            seen.append(mem_budget)
            return original(scores, neg_trans, k, mem_budget)

        monkeypatch.setattr(viterbi, "_extend_topk", spy)
        return seen

    def test_attack_https_uses_config_candidate_mem(self, budgets):
        Session(ReproConfig(seed=5, candidate_mem=1 << 20)).run(
            "attack-https", cookie_len=2, max_gap=4,
            num_candidates=1 << 12,
        )
        assert budgets and set(budgets) == {1 << 20}

    def test_campaign_uses_config_candidate_mem(self, budgets):
        config = ReproConfig(seed=5, candidate_mem=1 << 19)
        pop = Population.sample(config, 2, label="mem")
        run_https_campaign(
            config, pop, num_requests=256, batch_size=64, num_candidates=16,
        )
        assert budgets and set(budgets) == {1 << 19}
