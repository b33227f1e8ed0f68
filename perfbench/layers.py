"""The traced run: per-layer spans from wrappers around each module's
public entry points, the per-layer metrics, and the trace files.

Nothing here changes the program.  ``install`` replaces a list of public
functions and methods (``Database.query``, ``GpuEngine.execute_schedule``,
``Device.render_quad``, ``combiners.fold``, ...) with wrappers that
record a span — name, layer, start, end, parent span, query id, thread —
and ``uninstall`` puts the originals back.  The program's own ``Tracer``
stays off.  Spans are kept in memory and written when the run ends.

A span's self time is its duration minus the spans it directly caused on
the same thread.  Spans on shard pool threads run beside their parent,
so they are kept out of the self-time sum and reported as pool busy
time.  Every request is wrapped in a root span; whatever the wrappers do
not cover is that root's self time, reported as ``other``, so the layer
self times plus ``other`` add up to the traced request wall time.

Counts come from the program's public stats objects (``PipelineStats``
on every result, ``CacheStats``, ``KernelCache``, ``ContextStats``,
``ServiceStats``, ``FaultStats``), read as before/after deltas; only
the bytes read back are counted by the readback wrappers.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import statistics
import threading
import time

import numpy as np

import workloads

LAYERS = ("service", "sql", "plan", "core", "shard", "gpu", "cpu",
          "streams", "other")

#: Bytes a pipeline stage touches, for the bandwidth model: the
#: rasterizer writes two float32x4 attribute arrays and an int64 index
#: per fragment; a fragment-program instruction reads and writes one
#: float32x4 operand per fragment; the tests read and write stencil,
#: depth codes and boolean masks (about 24 bytes a fragment).
RASTER_BYTES_PER_FRAGMENT = 40
PROGRAM_BYTES_PER_INSTRUCTION = 32
TESTS_BYTES_PER_FRAGMENT = 24


class Recorder:
    """Spans in memory, with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, int | None]:
        """``(span id, query id)`` of the innermost open span here."""
        stack = self._stack()
        if stack:
            return stack[-1]["id"], stack[-1]["qid"]
        return getattr(self._local, "adopted", (None, None))

    def call(self, name, layer, fn, args, kwargs, note=None, pre=None):
        stack = self._stack()
        parent, qid = self.current()
        span = {"id": next(self._ids), "name": name, "layer": layer,
                "parent": parent, "qid": qid, "tid": threading.get_ident()}
        span["local_parent"] = bool(stack)
        if layer == "request":
            span["qid"] = span["id"]
        before = pre(args) if pre is not None else None
        stack.append(span)
        span["start"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()
            stack.pop()
            self.spans.append(span)
        if note is not None:
            span["args"] = note(args, result, before)
        return result

    def wrap(self, owner, attr, name, layer, note=None, pre=None):
        original = owner.__dict__[attr]
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            return recorder.call(name, layer, original, args, kwargs,
                                 note, pre)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def adopt(self, parent: int | None, qid: int | None):
        """Mark this (pool) thread's next spans as caused by ``parent``."""
        self._local.adopted = (parent, qid)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def _fragments(args, batch_result, _before):
    return {"fragments": int(batch_result[1].count)}


def _program(args, result, _before):
    return {"instructions": int(result.instructions_executed)}


def _nbytes(args, result, _before):
    # Readbacks after an op's stats window closes (a selection's ids)
    # never reach PipelineStats, so the bytes are counted here.
    return {"bytes": int(result.nbytes)}


def _switching(args):
    scheduler, context = args[0], args[1]
    return scheduler.active is not context


def _switched(args, result, before):
    return {"switched": bool(before)}


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer."""
    from repro.core import cpu_engine, engine
    from repro.gpu import context, interpreter, jit, occlusion, pipeline
    from repro.plan import compiler
    from repro.service import service
    from repro.shard import combiners, sharded
    from repro.sql import executor, planner
    from repro import streams

    w = recorder.wrap
    w(service.QueryService, "execute", "service.execute", "service")
    w(executor.Database, "query", "sql.query", "sql")
    w(executor, "parse", "sql.parse", "sql")
    w(planner.Planner, "plan", "sql.plan", "sql")
    for name in ("lower_select", "lower_aggregate", "lower_selectivities",
                 "lower_histogram"):
        w(compiler, name, "plan.lower", "plan")
    w(engine.GpuEngine, "execute_schedule", "core.execute", "core")
    ops = ("select", "count", "kth_largest", "kth_smallest", "maximum",
           "minimum", "median", "sum", "average", "top_k", "quantiles",
           "selectivities", "histogram")
    for name in ops + ("aggregate",):
        w(engine.GpuEngine, name, "core.op", "core")
    for name in ops:
        w(cpu_engine.CpuEngine, name, "cpu.op", "cpu")
    w(sharded.ShardedExecutor, "execute", "shard.fanout", "shard")
    _wrap_map(recorder, sharded.ShardedDevice)
    w(sharded, "fold", "shard.combine", "shard")
    w(combiners, "fold", "shard.combine", "shard")
    w(pipeline.Device, "render_quad", "gpu.pass", "gpu")
    w(pipeline, "rasterize_rect", "gpu.raster", "gpu", note=_fragments)
    w(jit.BoundKernel, "run", "gpu.program", "gpu", note=_program)
    w(interpreter.ProgramInterpreter, "run", "gpu.program", "gpu",
      note=_program)
    w(occlusion.OcclusionQuery, "result", "gpu.harvest", "gpu")
    for name in ("read_stencil", "read_depth", "read_color"):
        w(pipeline.Device, name, "gpu.readback", "gpu", note=_nbytes)
    for name in ("upload_texels", "bind_texture"):
        w(pipeline.Device, name, "gpu.upload", "gpu")
    w(context.ContextScheduler, "activate", "gpu.context_switch", "gpu",
      note=_switched, pre=_switching)
    w(streams.StreamEngine, "append", "streams.append", "streams")
    # Roots: one span per request, around the call into the program.
    w(workloads, "serve", "request", "request")
    w(workloads.StreamWindow, "tick", "request", "request")


def _wrap_map(recorder: Recorder, cls) -> None:
    """``ShardedDevice.map`` runs ``fn`` per shard on pool threads; each
    task becomes a ``shard.task`` span adopted by the fan-out span."""
    original = cls.__dict__["map"]

    def map_wrapper(self, fn):
        if not recorder.active:
            return original(self, fn)
        parent, qid = recorder.current()

        def task(shard):
            recorder.adopt(parent, qid)
            return recorder.call("shard.task", "shard", fn, (shard,), {},
                                 note=lambda a, r, b: {"shard": shard.index})

        return recorder.call("shard.map", "shard", original, (self, task), {})

    setattr(cls, "map", map_wrapper)
    recorder._installed.append((cls, "map", original))


# -- counts from the program's stats objects --------------------------------


def stat_counts() -> dict[int, tuple]:
    """Every live stats object of each kind, keyed by identity, with its
    counters: ``{id: (object, {counter: value})}``."""
    from repro.faults.plan import FaultStats
    from repro.gpu.context import ContextScheduler
    from repro.gpu.jit import KernelCache
    from repro.plan.cache import PlanCache
    from repro.service.service import ServiceStats

    readers = {
        PlanCache: lambda c: {
            f"plan.{field}": getattr(c.stats, field)
            for field in ("depth_hits", "depth_misses", "stencil_hits",
                          "stencil_misses", "invalidations")},
        KernelCache: lambda k: {
            f"kernel.{field}": getattr(k, field)
            for field in ("hits", "misses", "program_compiles")},
        ContextScheduler: lambda s: {
            "context.switches": s.stats.switches},
        ServiceStats: lambda s: {
            "service.rejected": s.rejected, "service.timeouts": s.timeouts},
        FaultStats: lambda s: {
            "faults.retries": sum(s.retries.values()),
            "faults.fallbacks": sum(s.fallbacks.values())},
    }
    gc.collect()
    return {
        id(obj): (obj, read(obj))
        for obj in gc.get_objects()
        for cls, read in readers.items() if isinstance(obj, cls)
    }


def stat_deltas(before: dict, after: dict) -> dict[str, int]:
    """Counter increments between two :func:`stat_counts` snapshots;
    objects created in between count from zero."""
    totals: dict[str, int] = {}
    for key, (obj, counts) in after.items():
        old = before.get(key)
        base = old[1] if old is not None and old[0] is obj else {}
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value - base.get(name, 0)
    return totals


# -- host bandwidth probe ---------------------------------------------------


def bandwidth_probe(mebibytes: int = 32, repeats: int = 7) -> float:
    """GB/s of a fixed numpy copy (bytes read plus bytes written over the
    median time).  Run context, not a metric: it tells a slow shared
    machine from a slow change."""
    src = np.ones(mebibytes * (1 << 20) // 4, dtype=np.float32)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - started)
    return 2 * src.nbytes / statistics.median(times) / 1e9


# -- the traced run ---------------------------------------------------------


def _p(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in ns (same-thread children subtracted)."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["local_parent"] and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def traced_run(workload, seconds: float, out_dir: str):
    """Run half the time untraced (the overhead reference), then half
    traced; returns ``(all outcomes, per-layer metrics)``."""
    probe = bandwidth_probe()
    reference = workload.run(seconds / 2)
    ref_busy = workloads.busy_seconds(workload, reference) / len(reference)

    recorder = Recorder()
    install(recorder)
    before = stat_counts()
    recorder.active = True
    try:
        outcomes = workload.run(seconds / 2)
    finally:
        recorder.active = False
        recorder.uninstall()
    delta = stat_deltas(before, stat_counts())
    busy = workloads.busy_seconds(workload, outcomes)
    metrics, summary = layer_metrics(
        workload, outcomes, recorder.spans, delta, probe, busy)
    metrics["trace.overhead_ratio"] = (
        busy / len(outcomes) / ref_busy, "ratio")
    write_trace(out_dir, recorder.spans, summary, workload, probe)
    return reference + outcomes, metrics


def layer_metrics(workload, outcomes, spans, delta, probe, busy):
    n = len(outcomes)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    own = self_times(spans)
    name_of = {s["id"]: s["name"] for s in spans}

    def durations(name, scale=1e-6, where=None):
        return [(s["end"] - s["start"]) * scale for s in by_name.get(name, [])
                if where is None or where(s)]

    def per_request(value):
        return value / n

    # Additive split of the request wall time over client threads.
    client_tids = {s["tid"] for s in by_name.get("request", [])}
    self_ns = {layer: 0 for layer in LAYERS}
    pool_ns = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = "other" if s["layer"] == "request" else s["layer"]
        if s["tid"] in client_tids:
            self_ns[layer] += own[s["id"]]
        else:
            pool_ns[layer] += own[s["id"]]
    request_ns = sum(s["end"] - s["start"] for s in by_name.get("request", []))

    stats = [o.stats if o.stats is not None else getattr(o.result, "stats", None)
             for o in outcomes if o.error is None]
    stats = [s for s in stats if s is not None]
    sql = [o for o in outcomes
           if isinstance(o.request, workloads.Query) and o.request.func != "KTH"]
    queued = [o.queued_s * 1e3 for o in outcomes
              if isinstance(o.request, workloads.Query)
              and hasattr(o.result, "queued_s")]

    def ratio(hits, misses):
        total = delta.get(hits, 0) + delta.get(misses, 0)
        return delta.get(hits, 0) / total if total else 0.0

    # A pass is raster + fragment program + the rest (the tests).
    passes_ns = sum(durations("gpu.pass", 1))
    stage_ns = {
        "raster": sum(durations("gpu.raster", 1)),
        "program": sum(durations("gpu.program", 1)),
        "tests": sum(own[s["id"]] for s in by_name.get("gpu.pass", [])),
    }
    fragments = sum(s["args"]["fragments"] for s in by_name.get("gpu.raster", []))
    instructions = sum(
        s["args"]["instructions"] for s in by_name.get("gpu.program", []))
    stage_bytes = {
        "raster": fragments * RASTER_BYTES_PER_FRAGMENT,
        "program": instructions * PROGRAM_BYTES_PER_INSTRUCTION,
        "tests": fragments * TESTS_BYTES_PER_FRAGMENT,
    }
    stage_bw = {
        stage: stage_bytes[stage] / (ns * 1e-9) / 1e9 / probe if ns else 0.0
        for stage, ns in stage_ns.items()
    }

    # Per fan-out: the slowest shard task over the mean, and the
    # client-thread time in the shard layer the slowest task leaves
    # uncovered (dispatch, join and combine).
    tasks_by_parent: dict[int, list[float]] = {}
    for s in by_name.get("shard.task", []):
        tasks_by_parent.setdefault(s["parent"], []).append(s["end"] - s["start"])
    skews = [max(t) / statistics.fmean(t) for t in tasks_by_parent.values()]
    fanout_ns = sum(own[s["id"]] for s in by_name.get("shard.fanout", []))
    for s in by_name.get("shard.map", []):
        fanout_ns += own[s["id"]] - max(tasks_by_parent.get(s["id"], [0]))

    upload_by_tick: dict[int, float] = {}
    append_ms = {}
    for s in by_name.get("streams.append", []):
        append_ms[s["id"]] = (s["end"] - s["start"]) * 1e-6
        upload_by_tick[s["id"]] = 0.0
    for s in by_name.get("gpu.upload", []):
        if s["parent"] in upload_by_tick:
            upload_by_tick[s["parent"]] += (s["end"] - s["start"]) * 1e-6

    exec_ms = sum(durations("service.execute", 1e-6))
    wall_ms = busy * 1e3
    m = {
        "sql.parse_us.p50": (_p(durations("sql.parse", 1e-3), 50), "us"),
        "sql.plan_us.p50": (_p(durations("sql.plan", 1e-3), 50), "us"),
        "sql.gpu_route_share": (
            sum(o.route == "gpu" for o in sql) / len(sql) if sql else 0.0,
            "ratio"),
        "plan.lower_us.p50": (_p(durations("plan.lower", 1e-3), 50), "us"),
        "plan.depth_hit_ratio": (
            ratio("plan.depth_hits", "plan.depth_misses"), "ratio"),
        "plan.stencil_hit_ratio": (
            ratio("plan.stencil_hits", "plan.stencil_misses"), "ratio"),
        "plan.invalidations": (
            per_request(delta.get("plan.invalidations", 0)), "count/req"),
        "core.execute_ms.self": (per_request(sum(
            own[s["id"]] for s in by_name.get("core.execute", [])
            if s["tid"] in client_tids) * 1e-6), "ms/req"),
        "core.ops_per_query": (per_request(len(
            [s for s in by_name.get("core.execute", [])
             if s["tid"] in client_tids])), "count/req"),
        "gpu.pass_ms.p50": (_p(durations("gpu.pass"), 50), "ms"),
        "gpu.harvest_us.p50": (_p(durations("gpu.harvest", 1e-3), 50), "us"),
        "gpu.passes": (per_request(sum(s.num_passes for s in stats)),
                       "count/req"),
        "gpu.fragments": (per_request(sum(s.total_fragments for s in stats)),
                          "count/req"),
        "gpu.instructions": (per_request(
            sum(s.total_instructions for s in stats)), "count/req"),
        "gpu.occlusion_readbacks": (per_request(
            sum(s.occlusion_results for s in stats)), "count/req"),
        "gpu.kernel_hit_ratio": (
            ratio("kernel.hits", "kernel.misses"), "ratio"),
        "gpu.program_compiles": (delta.get("kernel.program_compiles", 0),
                                 "count"),
        "gpu.upload_ms": (per_request(sum(durations("gpu.upload"))),
                          "ms/req"),
        "gpu.bytes_uploaded": (per_request(
            sum(s.bytes_uploaded for s in stats)), "B/req"),
        "gpu.bytes_read_back": (per_request(sum(
            s["args"]["bytes"] for s in by_name.get("gpu.readback", []))),
            "B/req"),
        "gpu.context_switches": (per_request(
            delta.get("context.switches", 0)), "count/req"),
        "gpu.context_switch_us.p50": (_p(durations(
            "gpu.context_switch", 1e-3,
            where=lambda s: s["args"]["switched"]), 50), "us"),
        # Nested CPU ops (median -> select) count once, at the outermost.
        "cpu.ops": (per_request(len(
            [s for s in by_name.get("cpu.op", [])
             if name_of.get(s["parent"]) != "cpu.op"])), "count/req"),
        "cpu.op_ms.p50": (_p(durations("cpu.op"), 50), "ms"),
        "shard.fanout_ms.self": (per_request(fanout_ns * 1e-6), "ms/req"),
        "shard.combine_us.p50": (_p(durations("shard.combine", 1e-3), 50),
                                 "us"),
        "shard.busy_skew": (statistics.fmean(skews) if skews else 0.0,
                            "ratio"),
        "shard.degraded": (sum(
            len(getattr(op, "degraded_shards", ()))
            for o in outcomes for op in getattr(o.result, "op_results", ())),
            "count"),
        "service.queue_ms.p50": (_p(queued, 50), "ms"),
        "service.queue_ms.p90": (_p(queued, 90), "ms"),
        "service.slot_busy_share": (
            (exec_ms - sum(queued)) / wall_ms if queued else 0.0, "ratio"),
        "service.rejected": (delta.get("service.rejected", 0), "count"),
        "service.timeouts": (delta.get("service.timeouts", 0), "count"),
        "streams.upload_ms.p50": (_p(list(upload_by_tick.values()), 50),
                                  "ms"),
        "streams.eval_ms.p50": (_p(
            [append_ms[k] - upload_by_tick[k] for k in append_ms], 50), "ms"),
        "streams.degraded": (sum(
            len(o.result.degraded) for o in outcomes
            if o.cls == "tick" and o.error is None), "count"),
        "faults.retries": (delta.get("faults.retries", 0), "count"),
        "faults.fallbacks": (delta.get("faults.fallbacks", 0), "count"),
    }
    for stage, ns in stage_ns.items():
        m[f"gpu.{stage}_share"] = (ns / passes_ns if passes_ns else 0.0,
                                   "ratio")
        m[f"gpu.{stage}_bw_frac"] = (stage_bw[stage], "ratio")
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (
            self_ns[layer] / request_ns if request_ns else 0.0, "ratio")
    summary = {
        "requests": n,
        "request_ms": request_ns * 1e-6,
        "self_ms": {k: v * 1e-6 for k, v in self_ns.items()},
        "pool_busy_ms": {k: v * 1e-6 for k, v in pool_ns.items() if v},
        "stage_ms": {k: v * 1e-6 for k, v in stage_ns.items()},
        "stage_bw_frac": stage_bw,
    }
    return m, summary


def write_trace(out_dir, spans, summary, workload, probe) -> None:
    """Chrome-trace JSON (Perfetto) plus a per-layer summary table."""
    os.makedirs(out_dir, exist_ok=True)
    base = min((s["start"] for s in spans), default=0)
    tids: dict[int, int] = {}
    events = [{
        "name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1,
        "tid": tids.setdefault(s["tid"], len(tids) + 1),
        "ts": (s["start"] - base) / 1e3,
        "dur": (s["end"] - s["start"]) / 1e3,
        "args": {"qid": s["qid"], "parent": s["parent"], **s.get("args", {})},
    } for s in spans]
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"workload": workload.name,
                                 "seed": workload.seed,
                                 "copy_probe_gb_s": probe}}, f)
    total = summary["request_ms"]
    lines = [
        f"workload {workload.name}  seed {workload.seed}  "
        f"requests {summary['requests']}",
        f"host copy probe {probe:.2f} GB/s (numpy copy, read+write)",
        "",
        f"{'layer':10s} {'self ms':>12s} {'share':>8s}",
    ]
    for layer in LAYERS:
        ms = summary["self_ms"][layer]
        lines.append(f"{layer:10s} {ms:12.1f} {ms / total if total else 0:8.3f}")
    lines.append(f"{'total':10s} {sum(summary['self_ms'].values()):12.1f} "
                 f"(request wall {total:.1f} ms)")
    if summary["pool_busy_ms"]:
        lines += ["", "shard pool threads, beside the fan-out span (the shard "
                  "row above includes the client's wait for them):"]
        for layer, ms in summary["pool_busy_ms"].items():
            lines.append(f"{layer:10s} {ms:12.1f}")
    lines += ["", f"{'gpu stage':10s} {'busy ms':>12s} {'bw/probe':>9s}"]
    for stage, ms in summary["stage_ms"].items():
        lines.append(f"{stage:10s} {ms:12.1f} "
                     f"{summary['stage_bw_frac'][stage]:9.3f}")
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
