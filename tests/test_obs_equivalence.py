"""Tentpole acceptance: the trace is a pure function of the study spec.

Same world, seed, and fault profile ⇒ byte-identical trace JSONL and
metrics snapshot for any worker count and across crash/resume — and turning
tracing on must not perturb the science (datasets, run digest, report).
"""

import pytest

import repro.obs.recorder
from repro.engine import CheckpointMismatchError, StudySpec, run_study
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec

OBS_COUNTRIES = (
    CountrySpec(code="AA", population=220),
    CountrySpec(code="BB", population=160),
)

_BASE = dict(
    scale=1.0,
    seed=17,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)

CHAOS_CONFIG = WorldConfig(fault_profile="chaos", fault_seed=5, **_BASE)


def traced_spec(workers: int, obs: str = "trace") -> StudySpec:
    return StudySpec(
        config=CHAOS_CONFIG,
        countries=OBS_COUNTRIES,
        seed=23,
        shards=3,
        workers=workers,
        window=40,
        obs=obs,
    )


@pytest.fixture(scope="module")
def chaos_world():
    return build_world(CHAOS_CONFIG, OBS_COUNTRIES)


@pytest.fixture(scope="module")
def traced_one_worker(chaos_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "run.jsonl"
    run = run_study(
        traced_spec(1), checkpoint=str(path), world=chaos_world, analyses=False
    )
    return run, path


@pytest.fixture(scope="module")
def untraced_run(chaos_world):
    return run_study(traced_spec(1, obs="off"), world=chaos_world, analyses=False)


class TestWorkerEquivalence:
    def test_trace_is_nonempty_and_sees_faults(self, traced_one_worker):
        run, _ = traced_one_worker
        summary = run.trace.summarize()
        assert summary["events"] > 0
        assert summary["shards"] == 3
        assert sum(summary["faults"].values()) > 0

    def test_trace_bytes_identical_across_worker_counts(
        self, chaos_world, traced_one_worker
    ):
        run, _ = traced_one_worker
        pooled = run_study(traced_spec(4), world=chaos_world, analyses=False)
        assert pooled.trace.to_jsonl() == run.trace.to_jsonl()
        assert pooled.trace.digest() == run.trace.digest()

    def test_metrics_snapshot_identical_across_worker_counts(
        self, chaos_world, traced_one_worker
    ):
        run, _ = traced_one_worker
        pooled = run_study(traced_spec(2), world=chaos_world, analyses=False)
        assert pooled.obs_metrics.snapshot_json() == run.obs_metrics.snapshot_json()

    def test_digest_recorded_in_run_metrics(self, traced_one_worker):
        run, _ = traced_one_worker
        assert run.report.trace_digest == run.trace.digest()
        assert run.report.to_dict()["trace_digest"] == run.trace.digest()


class TestCrashResume:
    def test_trace_identical_across_crash_resume(
        self, chaos_world, traced_one_worker, tmp_path
    ):
        full, full_path = traced_one_worker
        crashed = tmp_path / "crashed.jsonl"
        lines = full_path.read_text().splitlines()
        # Die after 1 of 3 shards, mid-append of the second.
        crashed.write_text("\n".join(lines[:2]) + '\n{"kind": "shard", "ind')

        resumed = run_study(
            traced_spec(1),
            checkpoint=str(crashed),
            resume=True,
            world=chaos_world,
            analyses=False,
        )
        assert resumed.report.resumed_shards == 1
        assert resumed.trace.to_jsonl() == full.trace.to_jsonl()
        assert resumed.obs_metrics.snapshot_json() == full.obs_metrics.snapshot_json()
        assert resumed.report.trace_digest == full.report.trace_digest

    def test_resume_refuses_untraced_checkpoint(self, chaos_world, tmp_path):
        # Journal a shard WITHOUT obs, then ask for a traced resume: the
        # engine cannot synthesize the missing events and must refuse.
        path = tmp_path / "untraced.jsonl"
        run_study(
            traced_spec(1, obs="off"),
            checkpoint=str(path),
            world=chaos_world,
            analyses=False,
        )
        crashed = tmp_path / "crashed.jsonl"
        crashed.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(CheckpointMismatchError):
            run_study(
                traced_spec(1),
                checkpoint=str(crashed),
                resume=True,
                world=chaos_world,
                analyses=False,
            )


class TestMetricsLevel:
    """``obs="metrics"`` counts at the seams; it must publish exactly the
    snapshot the ``trace`` level derives from its events."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_snapshot_equals_trace_level(self, chaos_world, traced_one_worker, workers):
        traced, _ = traced_one_worker
        run = run_study(
            traced_spec(workers, obs="metrics"), world=chaos_world, analyses=False
        )
        assert run.obs_metrics.snapshot_json() == traced.obs_metrics.snapshot_json()

    def test_snapshot_identical_across_crash_resume(self, chaos_world, tmp_path):
        path = tmp_path / "metrics.jsonl"
        full = run_study(
            traced_spec(1, obs="metrics"),
            checkpoint=str(path),
            world=chaos_world,
            analyses=False,
        )
        crashed = tmp_path / "crashed.jsonl"
        lines = path.read_text().splitlines()
        crashed.write_text("\n".join(lines[:2]) + '\n{"kind": "shard", "ind')
        resumed = run_study(
            traced_spec(1, obs="metrics"),
            checkpoint=str(crashed),
            resume=True,
            world=chaos_world,
            analyses=False,
        )
        assert resumed.report.resumed_shards == 1
        assert resumed.obs_metrics.snapshot_json() == full.obs_metrics.snapshot_json()

    def test_builds_no_events(self, chaos_world, monkeypatch):
        def no_events(*args, **kwargs):
            raise AssertionError("the metrics level built an Event")

        monkeypatch.setattr(repro.obs.recorder, "Event", no_events)
        run = run_study(
            traced_spec(1, obs="metrics"), world=chaos_world, analyses=False
        )
        assert run.obs_metrics is not None and len(run.obs_metrics) > 0


class TestTracingIsInert:
    """Observability must observe, never perturb."""

    def test_datasets_unchanged_by_tracing(self, traced_one_worker, untraced_run):
        run, _ = traced_one_worker
        assert run.dataset_summary() == untraced_run.dataset_summary()
        assert run.digest == untraced_run.digest

    def test_report_unchanged_up_to_trace_digest(self, traced_one_worker, untraced_run):
        run, _ = traced_one_worker
        traced = run.report.to_dict()
        untraced = untraced_run.report.to_dict()
        assert traced.pop("trace_digest")
        assert "trace_digest" not in untraced
        assert traced == untraced

    def test_untraced_run_has_no_obs_artifacts(self, untraced_run):
        assert untraced_run.trace is None
        assert untraced_run.obs_metrics is None

    def test_metrics_level_collects_metrics_without_trace(self, chaos_world):
        run = run_study(
            traced_spec(1, obs="metrics"), world=chaos_world, analyses=False
        )
        assert run.trace is None
        assert run.report.trace_digest is None
        assert run.obs_metrics is not None and len(run.obs_metrics) > 0

    def test_spec_rejects_unknown_obs_level(self):
        with pytest.raises(ValueError):
            traced_spec(1, obs="verbose")
