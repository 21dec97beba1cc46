"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public entry points of each layer of ``repro``
(the table :data:`LAYERS`) and records one span per call: layer, start,
end, parent span and the unit (study or shard) it ran for.  Nothing inside
``src/`` changes; the wrappers are installed by :meth:`Tracer.install` and
removed by :meth:`Tracer.uninstall`.

Worker processes are forked from the tracing parent, so they inherit the
wrappers.  A worker keeps its spans in memory for one shard task, then
writes them to a spool file that the parent merges after the study
(:meth:`Tracer.collect_spool`).  The spans therefore never enter a shard
result, a cache entry or a digest.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import pickle
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

_now = time.perf_counter_ns

#: Middlebox hook methods: the ISP path and host software call these on
#: every DNS answer, HTTP response, TLS chain and outbound request.
MIDDLEBOX_HOOKS = ("rewrite_dns", "modify_response", "intercept_chain", "observe_request")

#: Middlebox hooks whose third positional argument is the object they may
#: rewrite and whose return value is the (possibly rewritten) object.
REWRITING_HOOKS = ("rewrite_dns", "modify_response", "intercept_chain")

#: Layer -> entry points.  ``"module:function"`` wraps a module-level
#: function at every ``repro`` module that imported it when ``module``
#: defines it, and only in ``module`` otherwise; ``"module:Class.meth"``
#: wraps a method on that class; ``"module:*hooks"`` wraps every middlebox
#: hook defined by a class of that module.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.build_world": ("repro.sim.world:build_world",),
    "engine.plan": ("repro.engine.study:compute_plans",),
    "engine.merge": ("repro.engine.study:merge_shard_results",),
    "engine.execute": (
        "repro.engine.executor:SerialExecutor.run",
        "repro.engine.executor:ProcessExecutor.run",
    ),
    "engine.shard": ("repro.engine.runner:run_shard",),
    "experiments": (
        "repro.engine.experiments:_AdapterBase.attempt",
        "repro.engine.experiments:MonitoringPlanAdapter.attempt",
    ),
    "luminati": (
        "repro.luminati.superproxy:SuperProxy.handle_request",
        "repro.luminati.superproxy:SuperProxy.open_tunnel",
    ),
    "hosts": (
        "repro.hosts:ExitNodeHost.resolve",
        "repro.hosts:ExitNodeHost.fetch_http",
        "repro.hosts:ExitNodeHost.tls_handshake",
    ),
    "dnssim": (
        "repro.dnssim.resolver:RecursiveResolver.resolve",
        "repro.dnssim.resolver:GooglePublicDns.resolve_for_superproxy",
        "repro.dnssim.authoritative:DnsRoot.resolve_authoritative",
        "repro.dnssim.authoritative:AuthoritativeServer.query",
    ),
    "tlssim": (
        "repro.tlssim.handshake:StaticTlsEndpoint.certificate_chain",
        "repro.tlssim.handshake:RotatingTlsEndpoint.certificate_chain",
        "repro.tlssim.handshake:SniTlsEndpoint.certificate_chain",
        "repro.tlssim.validation:validate_chain",
    ),
    "web": (
        "repro.web.server:MeasurementWebServer.handle_http",
        "repro.web.server:HijackPageServer.handle_http",
        "repro.web.server:BlockPageServer.handle_http",
    ),
    "middlebox": tuple(
        f"repro.middlebox.{module}:*hooks"
        for module in (
            "dns_rewrite", "droppers", "http_proxy", "injectors",
            "monitor", "tls_mitm", "transcoder",
        )
    ),
    "obs": (
        "repro.obs.recorder:TraceRecorder.event",
        "repro.obs.recorder:TraceRecorder.span",
        "repro.obs.recorder:TraceRecorder._end_span",
    ),
    "obs.registry": ("repro.engine.runner:shard_registry",),
    "analysis": ("repro.core.study:assemble_results",),
    "analysis.table6": ("repro.core.analysis:table6_js_injection",),
    "codec.encode": ("repro.engine.runner:dataset_to_dict",),
    "serve.cache.get": ("repro.serve.cache:DiskShardCache.get",),
    "serve.cache.put": ("repro.serve.cache:DiskShardCache.put",),
    "serve.journal.append": ("repro.serve.journal:ServiceJournal._append",),
    "serve.exec": ("repro.serve.service:run_study",),
}

#: Shard task functions handed to executors.  They get no span of their
#: own; their wrapper labels the shard and, inside a worker, spools spans.
TASK_FUNCTIONS = (
    "repro.engine.runner:execute_shard",
    "repro.engine.runner:execute_shard_live",
    "repro.engine.runner:execute_shard_contained",
)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for one ``module:attr`` target."""
    module_name, _, attr = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if path else getattr(owner, name)


def _shard_index(task: Any) -> int:
    """The shard index of a ``ShardTask`` or ``ShardAttempt``."""
    inner = getattr(task, "task", task)
    return inner.spec.index


#: The fields of one span record in :attr:`Tracer.spans`.
SPAN_FIELDS = ("id", "layer", "start_ns", "end_ns", "parent", "self_ns", "unit")
_WIDTH = len(SPAN_FIELDS)


class Tracer:
    """In-memory span recorder for one benchmark process (and its workers).

    :attr:`spans` is a flat ``array('q')`` of closed spans, :data:`SPAN_FIELDS`
    per span: ``layer`` indexes :attr:`names`, ``parent`` is the enclosing
    span's ``id`` (-1 for a root) and ``unit`` indexes :attr:`units`.  Self
    time is the span's duration minus the durations of its direct children.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.names: list[str] = list(LAYERS) + ["bench.study"]
        self._ids = {name: index for index, name in enumerate(self.names)}
        self.spans = array("q")
        self._next_id = 0
        self.units: list[str] = []
        self.unit = -1
        self.counts: Counter = Counter()
        self.deferred: list[tuple[str, Callable[[Any], int], Any]] = []
        self._open: list[int] = []
        self._child: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: The tracing process; any other pid is a forked worker.
        self._owner_pid = os.getpid()
        #: The process whose spans :attr:`spans` holds.
        self._pid = self._owner_pid
        self._spooled = 0
        self._in_task = False

    # -- recording ---------------------------------------------------------

    def begin_unit(self, label: str) -> None:
        """Attribute the spans that follow to a new unit (a study)."""
        self.units.append(label)
        self.unit = len(self.units) - 1

    def _push(self) -> None:
        self._open.append(self._next_id)
        self._next_id += 1
        self._child.append(0)

    def _pop(self, layer: int, start: int, end: int) -> None:
        span_id = self._open.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += end - start
        parent = self._open[-1] if self._open else -1
        self.spans.extend((span_id, layer, start, end, parent, end - start - child, self.unit))

    @property
    def span_count(self) -> int:
        return len(self.spans) // _WIDTH

    def span(self, name: str) -> "_BenchSpan":
        """A span opened by the benchmark itself (the root of one study)."""
        return _BenchSpan(self, self._ids[name])

    def defer(self, metric: str, size: Callable[[Any], int], value: Any) -> None:
        """Measure ``size(value)`` into ``metric`` after the unit, untimed."""
        self.deferred.append((metric, size, value))

    def settle(self) -> None:
        """Evaluate deferred sizes (outside every span)."""
        for metric, size, value in self.deferred:
            self.counts[metric] += size(value)
        self.deferred.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: int, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._push()
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(layer, start, _now())
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_executor(self, layer: int, fn: Callable, spawns: bool) -> Callable:
        """A span over an executor's ``run``, from first item to exhaustion.

        ``run`` is a generator, so the consumer's work between items runs
        inside the span, and spans it opens nest under this one.  A
        process pool spawns its workers on every call with a task.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(executor, tasks, *args, **kwargs):
            if spawns and len(tasks) > 0:
                tracer.counts["engine.pool_spawns"] += 1
            tracer._push()
            start = _now()
            try:
                for item in fn(executor, tasks, *args, **kwargs):
                    tracer.defer("engine.result_bytes", _pickled_size, item)
                    yield item
            finally:
                tracer._pop(layer, start, _now())

        return wrapper

    def _wrap_task(self, fn: Callable) -> Callable:
        """Label a shard task; inside a worker, spool its spans afterwards."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(task):
            if tracer._in_task:
                # execute_shard_contained delegates to execute_shard(_live).
                return fn(task)
            in_worker = os.getpid() != tracer._owner_pid
            if in_worker and os.getpid() != tracer._pid:
                tracer._enter_worker()
            outer = tracer.unit
            parent_label = tracer.units[outer] if outer >= 0 else "study"
            tracer.begin_unit(f"{parent_label}/shard-{_shard_index(task)}")
            tracer._in_task = True
            try:
                return fn(task)
            finally:
                tracer._in_task = False
                tracer.unit = outer
                if in_worker:
                    tracer._spool()

        return wrapper

    def _hook(self, layer: str, target: str) -> Optional[Callable]:
        """The post-call counter for one entry point (``None`` for most)."""
        if layer == "web":
            return lambda args, response: self.counts.update(
                {"web.bytes_served": len(response.body)}
            )
        if layer == "middlebox" and target.rsplit(".", 1)[-1] in REWRITING_HOOKS:
            def rewrites(args, result):
                before = args[2] if len(args) > 2 else result
                if result is not before and result != before:
                    self.counts["middlebox.rewrites"] += 1
            return rewrites
        if layer == "obs" and not target.endswith("._end_span"):
            return lambda args, _result: self.counts.update({"obs.events": 1})
        if layer == "serve.exec":
            return lambda args, run: self.counts.update(engine_counts(run.report))
        if layer == "codec.encode":
            return lambda args, encoded: self.defer("codec.bytes", _json_size, encoded)
        if layer == "analysis.table6":
            return lambda args, _result: self.defer(
                "analysis.table6_bytes", _html_bytes, args[0]
            )
        return None

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and :data:`TASK_FUNCTIONS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            layer_id = self._ids[layer]
            for target in _expand(targets):
                owner, name, original = _resolve(target)
                if layer == "engine.execute":
                    wrapped = self._wrap_executor(
                        layer_id, original, spawns=owner.__name__ == "ProcessExecutor"
                    )
                else:
                    wrapped = self._wrap(layer_id, original, self._hook(layer, target))
                self._replace(owner, name, original, wrapped)
        owner, name, encode_entry = _resolve("repro.serve.cache:encode_entry")
        self._replace(owner, name, encode_entry, self._count_cache_bytes(encode_entry))
        for target in TASK_FUNCTIONS:
            owner, name, original = _resolve(target)
            self._replace(owner, name, original, self._wrap_task(original))

    def _count_cache_bytes(self, fn: Callable) -> Callable:
        """Count the bytes of every shard-cache entry the codec encodes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = fn(*args, **kwargs)
            tracer.counts["serve.cache.bytes"] += len(text)
            return text

        return wrapper

    def _replace(self, owner: Any, name: str, original: Any, wrapped: Callable) -> None:
        """Install ``wrapped`` for ``owner.name``.

        A method is replaced on its class.  A function is replaced in every
        loaded ``repro`` module that holds it when ``owner`` defines it
        (executors pickle task functions by module and name, so the wrapper
        must be what the defining module exports too), else in ``owner``
        alone.
        """
        if inspect.isclass(owner) or original.__module__ != owner.__name__:
            holders = [(owner, name)]
        else:
            holders = [
                (module, attr)
                for module_name, module in list(sys.modules.items())
                if module is not None
                and (module_name == "repro" or module_name.startswith("repro."))
                for attr, value in list(vars(module).items())
                if value is original
            ]
        for holder, attr in holders:
            self._patches.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- worker spooling ---------------------------------------------------

    def _enter_worker(self) -> None:
        """Forget the parent's state copied in by ``fork``."""
        self._pid = os.getpid()
        self.spans = array("q")
        self._next_id = 0
        self.units = [self.units[self.unit]] if self.unit >= 0 else []
        self.unit = 0 if self.units else -1
        self.counts = Counter()
        self.deferred = []
        self._open = []
        self._child = []

    def _spool(self) -> None:
        """Write this worker's spans for one task, then drop them."""
        self.settle()
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{self._pid}-{self._spooled}.pkl"
        self._spooled += 1
        with open(path, "wb") as handle:
            pickle.dump(
                {"spans": self.spans, "ids": self._next_id, "units": self.units,
                 "counts": dict(self.counts)},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        self.spans = array("q")
        self._next_id = 0
        self.units = self.units[:1]
        self.unit = 0 if self.units else -1
        self.counts = Counter()

    def collect_spool(self) -> None:
        """Merge every worker spool file into this process."""
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            # Written by this benchmark's own workers (see _spool).
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            path.unlink()
            unit_ids = []
            for label in payload["units"]:
                self.units.append(label)
                unit_ids.append(len(self.units) - 1)
            spans = payload["spans"]
            offset = self._next_id
            for base in range(0, len(spans), _WIDTH):
                span_id, layer, start, end, parent, self_ns, unit = spans[base:base + _WIDTH]
                self.spans.extend((
                    span_id + offset, layer, start, end,
                    parent + offset if parent >= 0 else -1,
                    self_ns, unit_ids[unit],
                ))
            self._next_id += payload["ids"]
            self.counts.update(payload["counts"])

    # -- output ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, summed self seconds, summed span seconds, max span."""
        totals = {
            name: {"calls": 0, "self_s": 0.0, "span_s": 0.0, "max_s": 0.0}
            for name in self.names
        }
        spans = self.spans
        for base in range(0, len(spans), _WIDTH):
            layer, start, end = spans[base + 1:base + 4]
            self_ns = spans[base + 5]
            entry = totals[self.names[layer]]
            entry["calls"] += 1
            entry["self_s"] += self_ns / 1e9
            entry["span_s"] += (end - start) / 1e9
            entry["max_s"] = max(entry["max_s"], (end - start) / 1e9)
        return totals

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw int64 records (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"fields": SPAN_FIELDS, "layers": self.names, "units": self.units,
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            handle.write(self.spans.tobytes())


def read_spans(path: Path) -> tuple[dict, list[dict]]:
    """The header and the spans of a file written by :meth:`Tracer.write`."""
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        records = array("q")
        records.frombytes(handle.read())
    if header["byteorder"] != sys.byteorder:
        records.byteswap()
    fields = header["fields"]
    spans = []
    for base in range(0, len(records), len(fields)):
        span = dict(zip(fields, records[base:base + len(fields)]))
        span["layer"] = header["layers"][span["layer"]]
        span["unit"] = header["units"][span["unit"]] if span["unit"] >= 0 else ""
        spans.append(span)
    return header, spans


class _BenchSpan:
    """Context manager for a span the benchmark opens around a study."""

    __slots__ = ("_tracer", "_layer", "_start")

    def __init__(self, tracer: Tracer, layer: int) -> None:
        self._tracer = tracer
        self._layer = layer

    def __enter__(self) -> "_BenchSpan":
        self._tracer._push()
        self._start = _now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._pop(self._layer, self._start, _now())


def _expand(targets: tuple[str, ...]) -> Iterator[str]:
    """The targets, with each ``module:*hooks`` replaced by ``module:Class.hook``
    for every middlebox hook a class of that module defines."""
    for target in targets:
        module_name, _, attr = target.partition(":")
        if attr != "*hooks":
            yield target
            continue
        module = importlib.import_module(module_name)
        for cls_name, cls in sorted(vars(module).items()):
            if not inspect.isclass(cls) or cls.__module__ != module_name:
                continue
            for hook in MIDDLEBOX_HOOKS:
                if hook in cls.__dict__:
                    yield f"{module_name}:{cls_name}.{hook}"


def engine_counts(report: Any) -> Counter:
    """Node outcomes and work counts summed over a run report's shards."""
    counts: Counter = Counter()
    for shard in report.shards:
        for tally in shard.experiments.values():
            counts["engine.planned"] += tally.planned
            counts["engine.measured"] += tally.measured
            counts["engine.skipped"] += tally.skipped
            counts["engine.failed"] += tally.failed
            counts["engine.invalid"] += tally.invalid
            counts["engine.probes"] += tally.probes
            counts["engine.retries"] += tally.retries
            counts["faults.injected"] += sum(tally.failure_kinds.values())
    return counts


def _pickled_size(value: Any) -> int:
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _json_size(value: Any) -> int:
    return len(json.dumps(value, sort_keys=True, separators=(",", ":")))


def _html_bytes(dataset: Any) -> int:
    """Bytes of modified HTML bodies that Table 6's marker search reads."""
    from repro.web.content import ObjectKind

    return sum(
        len(record.modified_bodies[ObjectKind.HTML])
        for record in dataset.records
        if record.modified(ObjectKind.HTML)
    )
