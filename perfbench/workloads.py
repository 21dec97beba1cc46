"""The benchmark's workloads: inputs made from a seed, one timed unit each.

A workload prepares its inputs in :meth:`setup` (timed, reported as
``setup_s``) and then runs whole *units* (:meth:`unit`): one study for the
two study workloads, a closed loop of service studies for
``serve-recrawl``.  Each unit returns its per-study wall times, an identity
that must repeat exactly for the same seed, and its deterministic counts.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import repro.engine  # noqa: F401  (loads every module the tracer patches)
import repro.serve  # noqa: F401
import repro.sim
from repro.engine import StudySpec, run_study
from repro.serve import Recurrence, Service, TenantPolicy
from repro.sim import WorldConfig
from repro.sim.profiles import CountrySpec, IspSpec, ResolverHijackSpec

from layers import Tracer, engine_counts

#: The seed whose identities and counts are pinned in ``pins.json``.  It is
#: the engine's default study seed, so the study pins match ``repro study``.
DEFAULT_SEED = 1000

DAY = 86_400.0

#: The small two-country service world (the one ``benchmarks/bench_serve.py``
#: uses): the serve workload times the service machinery, not world size.
SERVE_COUNTRIES = (
    CountrySpec(
        code="AA",
        population=260,
        isps=(
            IspSpec(
                name="AlphaNet",
                share=0.6,
                major_resolvers=2,
                resolver_hijack=ResolverHijackSpec("portal.alphanet.example"),
            ),
        ),
    ),
    CountrySpec(code="BB", population=180),
)

SERVE_CONFIG = WorldConfig(
    scale=1.0,
    seed=11,
    include_rare_tail=False,
    alexa_countries=2,
    popular_sites_per_country=5,
    university_sites=3,
)


@dataclass(frozen=True)
class Sizes:
    """How much work one unit does.  :data:`FULL` is the benchmark."""

    label: str = "full"
    study_scale: float = 0.01
    chaos_scale: float = 0.005
    #: Cap on each experiment's crawl plan (``None``: the full plan).
    max_probes: Optional[int] = None
    #: Service rounds (simulated days); 8 tenants x 13 rounds = 104 studies,
    #: so the p90 has ten samples beyond it.
    serve_rounds: int = 13
    serve_tenants: int = 8
    #: Set-ups before each unit: at least ``setup_repeats``, and more (up
    #: to ``setup_max``) until ``setup_min_s`` seconds were measured, so a
    #: millisecond set-up still gets a steady median (``setup_s``).
    setup_repeats: int = 5
    setup_min_s: float = 0.5
    setup_max: int = 50


FULL = Sizes()
#: A few seconds per workload, for the benchmark's own tests.
TOY = Sizes(label="toy", study_scale=0.002, chaos_scale=0.002, max_probes=400,
            serve_rounds=2, serve_tenants=4, setup_repeats=2, setup_min_s=0.0)


@dataclass
class UnitResult:
    """What one unit measured and produced."""

    #: Wall seconds of each study in the unit, timed from outside.
    latencies: list[float]
    #: Wall seconds of the whole unit.
    wall: float
    #: Must be identical for every unit of the same seed and size.
    identity: dict[str, str]
    #: Deterministic counts (nodes, probes, cache hits...).
    counts: Counter = field(default_factory=Counter)
    #: Studies the unit attempted / that failed, came back degraded or
    #: broke the workload's output contract.
    attempted: int = 0
    failed: int = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class StudyWorkload:
    """One ``run_study`` call with analyses, as ``repro study`` runs it."""

    def __init__(self, name: str, seed: int, config: WorldConfig, workers: int,
                 obs: str, max_probes: Optional[int]) -> None:
        self.name = name
        self.workers = workers
        self.config = config
        self.spec = StudySpec(config, seed=seed, shards=4, workers=workers, obs=obs,
                              max_probes=max_probes)
        self._world = None

    def setup(self) -> float:
        """Build the coordinator world; return the wall seconds it took."""
        self._world = None
        gc.collect()
        started = time.perf_counter()
        self._world = repro.sim.build_world(self.config)
        return time.perf_counter() - started

    def unit(self, tracer: Optional[Tracer] = None) -> UnitResult:
        """One study on the coordinator world the last :meth:`setup` built."""
        if tracer is not None:
            tracer.begin_unit(f"{self.name}-study")
        gc.collect()
        span = tracer.span("bench.study") if tracer is not None else contextlib.nullcontext()
        started = time.perf_counter()
        with span:
            run = run_study(self.spec, world=self._world, analyses=True)
        wall = time.perf_counter() - started
        counts = engine_counts(run.report)
        bad = int(run.degraded or run.results is None)
        return UnitResult(
            latencies=[wall],
            wall=wall,
            identity={
                "run_digest": run.digest,
                "dataset_sha256": _sha256(run.dataset_summary()),
            },
            counts=counts,
            attempted=1,
            failed=bad,
        )


class ServeWorkload:
    """A closed loop of studies through ``Service``: half re-crawls, half fresh.

    Tenants ``t00``..  in the first half re-submit one unchanged spec every
    simulated day, so from day two on every shard is a cache hit.  The
    other half submit a study with a fresh seed each day, so every shard
    misses and executes in a new worker pool.
    """

    name = "serve-recrawl"
    workers = 2

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.rounds = sizes.serve_rounds
        self.tenants = sizes.serve_tenants
        self.workdir = workdir
        self._service: Optional[Service] = None
        self._state: Optional[Path] = None

    def _spec(self, study_seed: int) -> StudySpec:
        return StudySpec(config=SERVE_CONFIG, countries=SERVE_COUNTRIES,
                         seed=study_seed, shards=2, workers=1, window=40)

    def _recrawlers(self) -> range:
        return range(self.tenants // 2)

    def close(self) -> None:
        if self._state is not None:
            shutil.rmtree(self._state, ignore_errors=True)
        self._service = None
        self._state = None

    def setup(self) -> float:
        """Construct the service and register every tenant's schedule."""
        self.close()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._state = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        gc.collect()
        started = time.perf_counter()
        service = Service(seed=self.seed, workers=self.workers, state_dir=self._state)
        for tenant in range(self.tenants):
            # Every study outlasts a simulated day (the monitoring watch
            # window), so a tenant's daily fires queue up behind it.
            service.register_tenant(f"t{tenant:02d}", TenantPolicy(max_queued=self.rounds))
            if tenant in self._recrawlers():
                service.schedule(
                    f"t{tenant:02d}", "daily-recrawl", self._spec(self.seed + tenant),
                    Recurrence(interval=DAY, count=self.rounds),
                )
                continue
            for day in range(self.rounds):
                service.schedule(
                    f"t{tenant:02d}", f"fresh-{day:02d}",
                    self._spec(self.seed + 1000 * (tenant + 1) + day),
                    Recurrence(interval=DAY, count=1, start=day * DAY),
                )
        elapsed = time.perf_counter() - started
        self._service = service
        return elapsed

    def unit(self, tracer: Optional[Tracer] = None) -> UnitResult:
        """Drain the service set up last; it cannot be drained twice."""
        service = self._service
        if service is None:
            raise RuntimeError("serve workload used before setup")
        until = (self.rounds + 1) * DAY
        latencies: list[float] = []
        gc.collect()
        started = time.perf_counter()
        while True:
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.begin_unit(f"{self.name}-study-{len(latencies)}")
                span = tracer.span("bench.study")
            began = time.perf_counter()
            with span:
                done = service.run(until=until, max_studies=1)
            if not done:
                break
            latencies.append(time.perf_counter() - began)
        wall = time.perf_counter() - started
        completed = list(service.completed)
        stats = service.cache.stats
        counts = Counter({
            "serve.studies": len(completed),
            "serve.cache.hits": stats.hits,
            "serve.cache.lookups": stats.lookups,
        })
        failed = len(service.failed) + sum(1 for study in completed if study.degraded)
        failed += self._check_recrawls(completed)
        expected = self.tenants * self.rounds
        failed += max(0, expected - len(completed))
        ledger = "\n".join(
            json.dumps([c.tenant, c.name, c.occurrence, c.digest, c.summary_sha],
                       separators=(",", ":"))
            for c in completed
        )
        result = UnitResult(
            latencies=latencies,
            wall=wall,
            identity={"ledger_sha256": _sha256(ledger)},
            counts=counts,
            attempted=expected,
            failed=failed,
        )
        self.close()
        return result

    def _check_recrawls(self, completed) -> int:
        """Studies whose cache behaviour or output breaks the re-crawl contract.

        A re-crawl's first day executes every shard; every later day must be
        served wholly from cache and reproduce day one's digest and dataset
        summary.  Fresh studies must never hit.
        """
        bad = 0
        first: dict[str, tuple] = {}
        recrawlers = {f"t{tenant:02d}" for tenant in self._recrawlers()}
        for study in completed:
            identity = (study.digest, study.summary_sha)
            if study.tenant not in recrawlers:
                bad += study.cached_shards != 0
            elif study.tenant not in first:
                first[study.tenant] = identity
                bad += study.cached_shards != 0
            else:
                bad += identity != first[study.tenant]
                bad += study.cached_shards != study.shard_count
        return bad


WORKLOADS = ("study", "study-chaos-par", "serve-recrawl")


def make_workload(name: str, seed: int, sizes: Sizes, workdir: Path):
    """The named workload, its inputs made from ``seed``.

    The study worlds keep ``WorldConfig``'s default world seed: the seed
    picks the study (and fault) draws, not the topology, whose work per
    study differs by up to 1.7x between world seeds.
    """
    if name == "study":
        return StudyWorkload(
            name, seed, WorldConfig(scale=sizes.study_scale),
            workers=1, obs="off", max_probes=sizes.max_probes,
        )
    if name == "study-chaos-par":
        config = WorldConfig(scale=sizes.chaos_scale, fault_profile="chaos", fault_seed=seed)
        return StudyWorkload(name, seed, config, workers=2, obs="metrics",
                             max_probes=sizes.max_probes)
    if name == "serve-recrawl":
        return ServeWorkload(seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
