#!/usr/bin/env python3
"""The repository benchmark: one workload, checked, with end-to-end or layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study --seed 1000 --seconds 30 --trace 0

Before every unit the run sets the workload up several times
(``setup_s`` is the median of all set-ups).  It runs whole units until the
next one would overrun ``--seconds``, and at least :data:`MIN_UNITS`.
``--trace 0`` prints the end-to-end metrics of those untraced units.
``--trace 1`` runs one untraced unit, then one unit with the layer
wrappers of ``layers.py`` installed, and prints the per-layer metrics.

Every run checks its outputs before it reports a number: every unit of the
run must agree on its identity (run digest and dataset SHA-256, or the
service ledger SHA-256); at the pinned seed the identity and the
deterministic counts must equal ``pins.json``; and the counts must equal
those an earlier run of the same seed recorded on the same source tree.
A run that fails the check prints ``"correct": false`` with no metrics and
exits 1.

The run re-executes itself once with ``PYTHONHASHSEED`` derived from
``--seed``, so a seed always measures the same string-hash layout.

The second-to-last stdout line is the full report (host block, counts,
samples); it is also written under ``perfbench/out/``.  The last line is
the result object.  README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

#: Units every untraced run makes at least.  One study varies by up to
#: 1.5x on the reference host from one minute to the next; the median of
#: two halves that noise, and puts the serve p90 on 208 studies.
MIN_UNITS = 2

#: Counts that must repeat exactly for a seed; a later change may cite
#: them as counts, never as speed-ups.
DETERMINISTIC_COUNTS = (
    "engine.planned", "engine.measured", "engine.failed", "engine.invalid",
    "engine.probes", "engine.retries", "faults.injected",
    "experiments.attempts", "luminati.requests", "dnssim.queries",
    "tlssim.handshakes", "web.requests", "middlebox.rewrites",
    "engine.pool_spawns", "serve.studies", "serve.cache.hits", "serve.cache.lookups",
)


def source_sha256() -> str:
    """SHA-256 over the program's and the benchmark's ``.py`` files."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def host_block(source_sha: str) -> dict:
    """What the numbers were measured on."""
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "git_commit": git_commit(),
        "source_sha256": source_sha,
    }


def peak_rss_mb() -> dict[str, float]:
    """Peak RSS of this process and of its reaped workers, in MB."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"parent": parent, "workers": workers}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(setups: list[float], units: list, rss: dict[str, float]) -> dict:
    """The ``--trace 0`` metrics: ``name -> (value, unit)``."""
    latencies = [value for unit in units for value in unit.latencies]
    counts = units[0].counts
    planned = counts.get("engine.planned", 0)
    if planned:
        failed_frac = (counts["engine.failed"] + counts["engine.invalid"]) / planned
    else:
        failed_frac = sum(unit.failed for unit in units) / sum(unit.attempted for unit in units)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "study_s": (statistics.median(latencies), "s"),
        "study_p90_s": (percentile(latencies, 0.9), "s"),
        "studies_per_s": (len(latencies) / sum(unit.wall for unit in units), "1/s"),
        "peak_rss_mb": (max(rss.values()), "MB"),
        "success_frac": (1.0 - failed_frac, "ratio"),
    }


def per_layer(tracer, traced, untraced, workers: int) -> dict:
    """The ``--trace 1`` metrics of the traced unit: ``name -> (value, unit)``."""
    totals = tracer.layer_totals()
    counts = tracer.counts + traced.counts

    def span_s(layer: str) -> float:
        return totals[layer]["span_s"]

    root = totals["bench.study"]
    execute_s = span_s("engine.execute")
    shard_sum = span_s("engine.shard")
    probes = counts.get("engine.probes", 0)
    metrics = {
        "sim.build_world.calls": (totals["sim.build_world"]["calls"], "count"),
        "sim.build_world.s": (span_s("sim.build_world"), "s"),
        "engine.plan_s": (span_s("engine.plan"), "s"),
        "engine.merge_s": (span_s("engine.merge"), "s"),
        "engine.execute_s": (execute_s, "s"),
        "engine.shard_s.sum": (shard_sum, "s"),
        "engine.shard_s.max": (totals["engine.shard"]["max_s"], "s"),
        "engine.parallel_eff": (
            shard_sum / (workers * execute_s) if execute_s else 0.0, "ratio"
        ),
        "engine.result_bytes": (counts.get("engine.result_bytes", 0), "bytes"),
        "engine.pool_spawns": (counts.get("engine.pool_spawns", 0), "count"),
        "engine.probes": (probes, "count"),
        "engine.retries": (counts.get("engine.retries", 0), "count"),
        "engine.useful_ratio": (
            counts.get("engine.measured", 0) / probes if probes else 0.0, "ratio"
        ),
        "faults.injected": (counts.get("faults.injected", 0), "count"),
    }
    for layer, calls in (
        ("experiments", "attempts"), ("luminati", "requests"), ("hosts", "calls"),
        ("dnssim", "queries"), ("tlssim", "handshakes"), ("web", "requests"),
        ("middlebox", "calls"),
    ):
        metrics[f"{layer}.{calls}"] = (totals[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
    metrics["web.bytes_served"] = (counts.get("web.bytes_served", 0), "bytes")
    metrics["middlebox.rewrites"] = (counts.get("middlebox.rewrites", 0), "count")
    metrics["obs.events"] = (counts.get("obs.events", 0), "count")
    metrics["obs.self_s"] = (totals["obs"]["self_s"], "s")
    metrics["obs.registry_s"] = (span_s("obs.registry"), "s")
    analysis_s = span_s("analysis")
    metrics["analysis.s"] = (analysis_s, "s")
    metrics["analysis.table6_s"] = (span_s("analysis.table6"), "s")
    metrics["analysis.table6_bytes"] = (counts.get("analysis.table6_bytes", 0), "bytes")
    metrics["analysis.other_s"] = (analysis_s - span_s("analysis.table6"), "s")
    metrics["codec.encode_s"] = (span_s("codec.encode"), "s")
    metrics["codec.bytes"] = (counts.get("codec.bytes", 0), "bytes")
    lookups = counts.get("serve.cache.lookups", 0)
    metrics["serve.cache.hit_ratio"] = (
        counts["serve.cache.hits"] / lookups if lookups else 0.0, "ratio"
    )
    metrics["serve.cache.get_s"] = (span_s("serve.cache.get"), "s")
    metrics["serve.cache.put_s"] = (span_s("serve.cache.put"), "s")
    metrics["serve.cache.bytes"] = (counts.get("serve.cache.bytes", 0), "bytes")
    metrics["serve.journal.append_s"] = (span_s("serve.journal.append"), "s")
    serve_exec = span_s("serve.exec")
    metrics["serve.exec_s"] = (serve_exec, "s")
    metrics["serve.overhead_s"] = (root["span_s"] - serve_exec if serve_exec else 0.0, "s")
    metrics["bench.traced_study_s"] = (root["span_s"], "s")
    metrics["bench.accounted_frac"] = (
        1.0 - root["self_s"] / root["span_s"] if root["span_s"] else 0.0, "ratio"
    )
    untraced_s = sum(untraced.latencies)
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (sum(traced.latencies) - untraced_s) / untraced_s, "%"
    )
    return metrics


def layer_counts(tracer) -> dict[str, int]:
    """The call counts the deterministic-count check compares."""
    totals = tracer.layer_totals()
    names = {
        "experiments.attempts": "experiments", "luminati.requests": "luminati",
        "dnssim.queries": "dnssim", "tlssim.handshakes": "tlssim",
        "web.requests": "web",
    }
    counts = {metric: totals[layer]["calls"] for metric, layer in names.items()}
    for metric in ("middlebox.rewrites", "engine.pool_spawns"):
        counts[metric] = tracer.counts.get(metric, 0)
    return counts


def check(name: str, seed: int, sizes, units: list, counts: dict,
          source_sha: str) -> list[str]:
    """Every reason this run's outputs are wrong (empty when correct)."""
    from workloads import DEFAULT_SEED

    problems = []
    for index, unit in enumerate(units):
        if unit.failed:
            problems.append(f"unit {index}: {unit.failed} of {unit.attempted} studies failed")
        if unit.identity != units[0].identity:
            problems.append(f"unit {index} identity {unit.identity} != {units[0].identity}")
        if unit.counts != units[0].counts:
            problems.append(f"unit {index} counts {dict(unit.counts)} != "
                            f"{dict(units[0].counts)}")
    record = {"identity": units[0].identity, "counts": counts}
    if seed == DEFAULT_SEED and sizes.label == "full":
        pins = json.loads(PINS.read_text(encoding="utf-8")).get(name)
        if pins is None:
            problems.append(f"no pins for {name} in {PINS.name}")
        else:
            problems += compare("pinned", pins, record)
    key = hashlib.sha256(f"{source_sha} {sizes!r}".encode("utf-8")).hexdigest()[:16]
    ledger = OUT / "ledger" / key / f"{name}-{seed}.json"
    if ledger.exists():
        earlier = json.loads(ledger.read_text(encoding="utf-8"))
        problems += compare("earlier run", earlier, record)
        record = {
            "identity": record["identity"],
            "counts": {**earlier["counts"], **record["counts"]},
        }
    if not problems:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        ledger.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def compare(label: str, expected: dict, actual: dict) -> list[str]:
    problems = []
    if expected["identity"] != actual["identity"]:
        problems.append(f"identity {actual['identity']} != {label} {expected['identity']}")
    for key in sorted(set(expected["counts"]) & set(actual["counts"])):
        if expected["counts"][key] != actual["counts"][key]:
            problems.append(
                f"count {key} = {actual['counts'][key]} != {label} {expected['counts'][key]}"
            )
    return problems


def set_up(workload, sizes) -> list[float]:
    """Set the workload up at least ``setup_repeats`` times, and more until
    ``setup_min_s`` seconds were measured; return every sample."""
    samples: list[float] = []
    while len(samples) < sizes.setup_repeats or (
        sum(samples) < sizes.setup_min_s and len(samples) < sizes.setup_max
    ):
        samples.append(workload.setup())
    return samples


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload; return ``{"result": ..., "report": ...}``."""
    from layers import Tracer
    from workloads import FULL, make_workload

    sizes = FULL if sizes is None else sizes
    started = time.perf_counter()
    workdir = OUT / f"work-{os.getpid()}"
    workload = make_workload(name, seed, sizes, workdir)
    traced = tracer = None
    try:
        setups: list[float] = []
        units = []
        while True:
            setups += set_up(workload, sizes)
            units.append(workload.unit())
            elapsed = time.perf_counter() - started
            enough = len(units) >= MIN_UNITS
            if trace or (enough and elapsed + units[-1].wall > seconds):
                break
        rss = peak_rss_mb()
        if trace:
            if workload.workers > 1 and multiprocessing.get_start_method() != "fork":
                # Workers inherit the wrappers only through fork.
                raise RuntimeError("tracing worker processes needs the fork start method")
            tracer = Tracer(workdir / "spool")
            tracer.install()
            try:
                # Set up under the tracer too: the trace then holds the
                # coordinator build along with one world replay per shard.
                tracer.begin_unit(f"{name}-setup")
                workload.setup()
                traced = workload.unit(tracer)
            finally:
                tracer.uninstall()
            tracer.collect_spool()
            tracer.settle()
            units.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = {key: value for key, value in units[0].counts.items()
              if key in DETERMINISTIC_COUNTS}
    if tracer is not None:
        counts.update(layer_counts(tracer))
        counts.update({key: value for key, value in tracer.counts.items()
                       if key in DETERMINISTIC_COUNTS})

    source_sha = source_sha256()
    problems = check(name, seed, sizes, units, counts, source_sha)
    if trace:
        metrics = per_layer(tracer, traced, units[0], workload.workers)
    else:
        metrics = end_to_end(setups, units, rss)
    report = {
        "workload": name,
        "seed": seed,
        "size": sizes.label,
        "trace": trace,
        "host": host_block(source_sha),
        "identity": units[0].identity,
        "counts": counts,
        "problems": problems,
        "setup_samples_s": setups,
        "study_samples_s": [value for unit in units for value in unit.latencies],
        "studies_per_unit": len(units[0].latencies),
        "units": len(units),
        "peak_rss_mb": rss,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    if tracer is not None:
        report["traced_identity"] = traced.identity
        trace_path = OUT / f"spans-{name}.gz"
        tracer.write(trace_path)
        report["spans"] = {"file": str(trace_path.relative_to(ROOT)), "count": tracer.span_count}
    correct = not problems
    result = {
        "correct": correct,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "metrics": report["metrics"] if correct else {},
    }
    return {"result": result, "report": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # String hashes are salted per process, and the salt alone moves the
        # median world build by up to 40% between processes.  Deriving it
        # from --seed makes a seed measure the same layout on every run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    sys.path.insert(0, str(SRC))
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report = outcome["report"]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8"
    )
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
