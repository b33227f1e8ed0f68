"""N simulated devices behind one engine: the fan-out/combine layer.

:class:`ShardedDevice` partitions an engine's relation into contiguous
row ranges (:func:`~repro.shard.partition.shard_bounds`) and builds one
fully independent :class:`~repro.core.engine.GpuEngine` per range.  Each
shard engine owns its own simulated FX-5900 and a **disjoint generation
band**: its :class:`~repro.gpu.context.ContextScheduler` starts at
``base_cid = (i + 1) * SHARD_CID_STRIDE``, so no stencil/depth
generation minted on one shard can ever equal a generation minted on
another shard (or on the host engine, which keeps band 0).  That is the
runtime half of the H108 shard-aliasing guarantee
(:mod:`repro.analysis.sharding` is the static half).

:class:`ShardedExecutor` is the fan-out twin of
:class:`~repro.plan.executor.ScheduleExecutor`: it takes the *parent*
engine's compiled :class:`~repro.plan.passes.PassSchedule` and runs the
operation as N per-shard schedules on a thread pool, then merges on the
host with the op's typed combiner:

* COUNT / SUM / MIN / MAX / AVG merge trivially (sums, extrema,
  weighted ``(sum, count)`` pairs);
* selections, selectivities and histograms concatenate / element-wise
  sum the per-shard results;
* k-th largest (and every order statistic built on it) becomes a
  **distributed bit-wise binary search**: the single-device
  :func:`~repro.core.aggregates.bit_search` whose count callback
  broadcasts the candidate ``x + 2**i`` to every shard, renders one
  occlusion-counted comparison quad per shard, and sums the per-shard
  counts (Lemma 1 applies to the summed count).  Every shard issues
  exactly the single-device figure-7 pass sequence — one depth copy
  plus ``bits`` comparison passes — over ``1/N`` of the records, which
  is where the near-linear modeled speedup comes from.

Fault semantics: a shard whose GPU path keeps failing (its resilient
retries exhausted, or the shard was :meth:`~ShardedDevice.kill`\\ ed)
**degrades that shard only**: from then on a
:class:`~repro.core.cpu_engine.CpuEngine` over the shard's slice
answers in its place, so the query never fails and never mixes in a
corrupted partial answer.  Deadlines are thread-local, so the
dispatching thread's deadline is re-installed inside every worker; a
:class:`~repro.errors.QueryTimeoutError` is never degraded, exactly
like the single-device engine.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from .. import sanitize
from ..core import aggregates
from ..core.compare import compare_pass
from ..core.cpu_engine import CpuEngine, CpuOpResult, CpuSelection
from ..core.engine import (
    GpuOpResult,
    Selection,
    TopK,
    split_copy_stats,
)
from ..cpu.aggregate import exact_sum
from ..errors import DeviceLostError, GpuError, QueryError
from ..faults.deadline import current_deadline, use_deadline
from ..faults.resilience import run_guarded
from ..gpu.counters import PipelineStats
from ..gpu.types import CompareFunc, StencilOp
from .combiners import COMBINER_SPECS, fold
from .partition import pool_threads, shard_bounds, slice_relation
from .results import (
    COMBINE_MS_PER_SHARD,
    ShardedOpResult,
    ShardedSelection,
)

#: The distributed bit-search ops: their declared combiner is the
#: per-round occlusion-count sum applied in :meth:`_count_round`.
_SEARCH_OPS = frozenset(
    {"kth_largest", "kth_smallest", "median", "quantiles"}
)

#: Context-id stride between shard generation bands.  Shard *i* owns
#: cids ``[(i + 1) * STRIDE, (i + 2) * STRIDE)`` — a million virtual
#: contexts per shard before neighboring bands could meet — while the
#: host engine keeps band 0.
SHARD_CID_STRIDE = 1 << 20

#: One-line combiner description per schedule op (rendered by
#: ``Database.explain`` and carried on every fan-out result).
#: Derived from the typed combiner table (:mod:`repro.shard.combiners`)
#: so the rendered description can never drift from the fold the
#: executor actually applies — and so hazard H110 checks the real
#: merge, not a doc string.
COMBINERS = {spec.op: spec.description for spec in COMBINER_SPECS}


@dataclasses.dataclass
class Shard:
    """One partition: a row range and the engine that owns it."""

    index: int
    start: int
    stop: int
    engine: Any
    #: Deterministic kill switch (chaos tests, the bench harness):
    #: while True, every GPU task on this shard raises
    #: :class:`DeviceLostError` and the shard degrades to the CPU.
    forced_dead: bool = False

    @property
    def name(self) -> str:
        return f"shard-{self.index}"

    @property
    def num_records(self) -> int:
        return self.stop - self.start


class ShardedDevice:
    """The shard pool: N per-shard engines plus the thread pool and the
    context-propagation map that keep them in lockstep with the parent
    engine."""

    def __init__(self, engine: Any, shards: int) -> None:
        from ..core.engine import GpuEngine

        self.parent = engine
        relation = engine.relation
        self.shards: list[Shard] = []
        for index, (start, stop) in enumerate(
            shard_bounds(relation.num_records, shards)
        ):
            shard_engine = GpuEngine(
                slice_relation(relation, start, stop),
                cost_model=engine.cost_model,
                layout=engine.layout,
                executor=engine.executor,
                fusion=engine.fusion,
                debug=engine.debug,
                jit=engine.device.jit,
                shards=1,
                context_band=(index + 1) * SHARD_CID_STRIDE,
            )
            # Shard engines must not trace: the tracer is a stack and
            # shard work runs on pool threads.  The parent records
            # per-shard summary events after the join instead.  Set
            # explicitly — the engine ctor falls back to the
            # process-wide tracer when given None.
            shard_engine.tracer = None
            self.shards.append(
                Shard(index, start, stop, shard_engine)
            )
        self._pool: ThreadPoolExecutor | None = None
        #: Parent context cid -> per-shard mirror contexts.
        self._contexts: dict[int, list] = {}
        if engine.debug:
            from ..analysis import verify_shard_fanout

            verify_shard_fanout(self.bands()).raise_if_failed()

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def threads(self) -> int:
        """Worker threads the pool runs (see
        :func:`~repro.shard.partition.pool_threads`)."""
        return pool_threads(len(self.shards))

    def bands(self) -> list:
        """The generation-band descriptors the H108 verifier checks
        (host band 0 plus one band per shard)."""
        from ..analysis.sharding import ShardBand

        bands = [
            ShardBand(
                owner="host",
                base_cid=self.parent.contexts.base_cid,
                cid_span=SHARD_CID_STRIDE,
            )
        ]
        for shard in self.shards:
            bands.append(
                ShardBand(
                    owner=shard.name,
                    base_cid=shard.engine.contexts.base_cid,
                    cid_span=SHARD_CID_STRIDE,
                )
            )
        return bands

    # -- chaos hooks --------------------------------------------------------

    def kill(self, index: int) -> None:
        """Mark one shard's device lost (deterministically): its next
        GPU task raises :class:`DeviceLostError` and the shard serves
        CPU recomputes until :meth:`revive`."""
        self.shards[index].forced_dead = True

    def revive(self, index: int) -> None:
        """Undo :meth:`kill`."""
        self.shards[index].forced_dead = False

    # -- the pool -----------------------------------------------------------

    def map(self, fn: Callable[[Shard], Any]) -> list:
        """Run ``fn(shard)`` for every shard concurrently; results come
        back in shard order.

        The calling thread's deadline (thread-local) is re-installed in
        every worker so cooperative cancellation crosses the pool.  All
        futures are always joined; the first exception *in shard order*
        is then re-raised.
        """
        deadline = current_deadline()

        def worker(shard: Shard, token: Any) -> Any:
            # Submit→begin and end→join are the pool's happens-before
            # edges: everything the submitter did is visible to the
            # worker, everything the worker did is visible after the
            # host joins its future.
            sanitize.task_begin(token)
            try:
                if deadline is None:
                    return fn(shard)
                with use_deadline(deadline):
                    return fn(shard)
            finally:
                sanitize.task_end(token)

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix="repro-shard",
            )
        futures = []
        for shard in self.shards:
            token = sanitize.fork()
            futures.append(
                (self._pool.submit(worker, shard, token), token)
            )
        results: list = []
        error: BaseException | None = None
        for future, token in futures:
            try:
                results.append(future.result())
            # Every future is joined before the first error (in shard
            # order) is re-raised below — nothing is swallowed.
            # repro-lint: disable=bare-except
            except BaseException as exc:
                results.append(None)
                if error is None:
                    error = exc
            # The worker ran (successfully or not) — either way its
            # writes are ordered before everything after this join.
            sanitize.task_join(token)
        if error is not None:
            raise error
        return results

    # -- context propagation ------------------------------------------------

    def create_context(self, parent_context: Any) -> None:
        """Mirror a parent-engine context onto every shard (called by
        ``GpuEngine.create_context``)."""
        self._contexts[parent_context.cid] = [
            shard.engine.create_context(
                f"{parent_context.name}@{shard.name}"
            )
            for shard in self.shards
        ]

    def _mirrors(self, parent_context: Any) -> list:
        if (
            parent_context is None
            or parent_context is self.parent.contexts.default
        ):
            return [shard.engine.contexts.default for shard in self.shards]
        try:
            return self._contexts[parent_context.cid]
        except KeyError:
            raise QueryError(
                f"context {parent_context.name!r} was not created "
                "through this sharded engine"
            ) from None

    def activate_context(self, parent_context: Any) -> None:
        for shard, mirror in zip(
            self.shards, self._mirrors(parent_context)
        ):
            shard.engine.activate_context(mirror)

    def release_context(self, parent_context: Any) -> None:
        for shard, mirror in zip(
            self.shards, self._mirrors(parent_context)
        ):
            shard.engine.release_context(mirror)
        self._contexts.pop(parent_context.cid, None)


#: Ops every shard answers by calling the same-named engine method,
#: with these payload entries as arguments — ``GpuEngine`` and
#: ``CpuEngine`` share the method names, so a degraded shard answers
#: through the identical call.
_FANOUT_ARGS: dict[str, tuple[str, ...]] = {
    "select": ("predicate",),
    "count": (),
    "sum": ("column", "predicate"),
    "selectivities": ("predicates",),
    "histogram": ("column", "buckets"),
}


@dataclasses.dataclass
class _ShardState:
    """Per-shard mutable state for one fanned-out bit search."""

    shard: Shard
    op: str
    column_name: str
    predicate: Any = None
    #: top_k only: write an all-valid mask when there is no WHERE.
    ensure_mask: bool = False
    #: True while the shard's GPU holds the prepared selection mask and
    #: depth copy; cleared by faults so retries rebuild both.
    prepared: bool = False
    valid: int | None = None
    valid_count: int = 0
    texture: Any = None
    #: Host mirror of the depth copy and stencil mask, filled from
    #: :meth:`CpuEngine.column_mask` once the shard degrades.
    values: np.ndarray | None = None
    mask: np.ndarray | None = None


class ShardedExecutor:
    """Runs one parent :class:`PassSchedule` as N per-shard executions
    plus a host combiner.  Like :class:`ScheduleExecutor` it is
    stateless between operations — construct one per call."""

    _DRIVERS = {
        **{op: "_run_fanout" for op in _FANOUT_ARGS},
        "average": "_run_average",
        "quantiles": "_run_search",
        "kth_largest": "_run_search",
        "kth_smallest": "_run_search",
        "minimum": "_run_search",
        "median": "_run_search",
        "top_k": "_run_top_k",
    }

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        self.pool: ShardedDevice = engine.sharded
        #: shard index -> error string, for shards that fell back to
        #: the CPU during *this* operation.  Written by pool workers
        #: (concurrently) and read both by workers and, post-join, by
        #: the host — hence the lock.
        self._degraded: dict[int, str] = {}
        self._degraded_lock = sanitize.TrackedLock()

    # -- entry point --------------------------------------------------------

    def execute(self, schedule: Any, *, jit: bool | None = None) -> Any:
        name = self._DRIVERS.get(schedule.op)
        if name is None:
            raise QueryError(
                f"no execution driver for schedule op {schedule.op!r}; "
                "execute_schedule() runs the op-level schedules the "
                "repro.plan lowerings produce"
            )
        if schedule.payload is None:
            raise QueryError(
                f"schedule for {schedule.op!r} carries no execution "
                "payload; recompile it with repro.plan.compiler"
            )
        self.engine._verify_schedule(schedule)
        if jit is None:
            return self._dispatch(schedule)
        saved = [s.engine.device.jit for s in self.pool.shards]
        for shard in self.pool.shards:
            shard.engine.device.jit = bool(jit)
        try:
            return self._dispatch(schedule)
        finally:
            for shard, old in zip(self.pool.shards, saved):
                shard.engine.device.jit = old

    def _dispatch(self, schedule: Any) -> Any:
        # One stats window per shard per operation, opened host-side so
        # a shard that degrades before its first pass reports zero work
        # instead of a stale window.
        for shard in self.pool.shards:
            shard.engine.device.stats.reset()
        driver = getattr(self, self._DRIVERS[schedule.op])
        tracer = self.engine.tracer
        if tracer is None:
            return driver(schedule)
        span = tracer.begin(
            schedule.op,
            shards=len(self.pool.shards),
            table=schedule.table,
        )
        try:
            result = driver(schedule)
        except BaseException:
            tracer.end(span)
            raise
        model = self.engine.cost_model
        degraded = self._degraded_snapshot()
        for index, part in enumerate(result.shard_results):
            tracer.record_event(
                "shard",
                category="shard",
                shard=f"shard-{index}",
                modeled_ms=part.total_time(model).total_ms,
                passes=part.pass_count,
                degraded=index in result.degraded_shards,
            )
        for index in result.degraded_shards:
            tracer.record_event(
                "shard-degraded",
                category="shard",
                shard=f"shard-{index}",
                error=degraded.get(index, ""),
            )
        tracer.record_event(
            "shard-combine",
            category="shard",
            combiner=result.combiner,
            combiner_ms=result.combiner_ms,
        )
        tracer.end(span, modeled_ms=result.time_ms)
        return result

    # -- degradation --------------------------------------------------------

    def _shard_call(
        self,
        shard: Shard,
        gpu: Callable[[Any], Any],
        cpu: Callable[[CpuEngine], Any],
    ) -> Any:
        """Run ``gpu(shard engine)``, degrading that shard — and only
        that shard — to ``cpu(CpuEngine over its slice)`` when the GPU
        path fails for good.

        ``gpu`` must already carry its own resilient retries (engine
        methods do; custom bodies go through :meth:`_attempt`).  A
        :class:`QueryTimeoutError` always propagates: deadlines cancel
        the whole query, they do not degrade it.
        """
        if not self._is_degraded(shard):
            try:
                if shard.forced_dead:
                    raise DeviceLostError(f"{shard.name} device lost")
                return gpu(shard.engine)
            except GpuError as error:
                self._degrade(shard, error)
        engine = CpuEngine(shard.engine.relation)
        # Pool threads must not trace (see ShardedDevice.__init__).
        engine.tracer = None
        return cpu(engine)

    def _is_degraded(self, shard: Shard) -> bool:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.READ)
            return shard.index in self._degraded

    def _degraded_snapshot(self) -> dict[int, str]:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.READ)
            return dict(self._degraded)

    def _degrade(self, shard: Shard, error: Exception) -> None:
        with self._degraded_lock:
            sanitize.note(self, "_degraded", sanitize.WRITE)
            self._degraded[shard.index] = (
                f"{type(error).__name__}: {error}"
            )
        executor = self.engine.executor
        if executor is not None:
            executor.stats.record_fallback(shard.name)

    def _attempt(
        self, shard: Shard, op: str, body: Callable[[], Any]
    ) -> Any:
        """Run a custom shard-task body through
        :func:`~repro.faults.run_guarded` on the shard's device."""
        engine = shard.engine
        return run_guarded(
            body,
            device=engine.device,
            executor=engine.executor,
            invalidate=engine.invalidate_plan_cache,
            op=f"{shard.name}:{op}",
        )

    def _guarded(self, state: _ShardState, body: Callable[[], Any]) -> Any:
        """:meth:`_attempt` against prepared GPU state, re-running
        :meth:`_prepare_search` first whenever a fault tore the prepared
        selection mask / depth copy down."""

        def run() -> Any:
            if not state.prepared:
                self._prepare_search(state)
            try:
                return body()
            except GpuError:
                state.prepared = False
                raise

        return self._attempt(state.shard, state.op, run)

    def _mirror(
        self, state: _ShardState, cpu: CpuEngine
    ) -> tuple[np.ndarray, np.ndarray]:
        """A degraded shard's ``(stored values, selection mask)``,
        computed once per operation."""
        if state.values is None or state.mask is None:
            state.values, state.mask = cpu.column_mask(
                state.column_name, state.predicate
            )
            state.valid_count = int(np.count_nonzero(state.mask))
        return state.values, state.mask

    # -- result assembly ----------------------------------------------------

    def _combined(
        self, op: str, value: Any, parts: Any
    ) -> ShardedOpResult:
        return ShardedOpResult(
            value=value,
            copy=PipelineStats.merged([p.copy for p in parts]),
            compute=PipelineStats.merged([p.compute for p in parts]),
            model=self.engine.cost_model,
            shard_results=list(parts),
            combiner=COMBINERS[op],
            combiner_ms=COMBINE_MS_PER_SHARD * len(parts),
            degraded_shards=tuple(sorted(self._degraded_snapshot())),
        )

    def _harvest(self, values: list) -> list:
        """Close every shard's stats window into a per-shard
        :class:`GpuOpResult` carrying that shard's ``values`` entry
        (degraded shards report the GPU work they did manage before
        falling back)."""
        parts = []
        for shard, value in zip(self.pool.shards, values):
            device = shard.engine.device
            copy, compute = split_copy_stats(device.stats.snapshot())
            device.stats.reset()
            parts.append(
                GpuOpResult(
                    value=value,
                    copy=copy,
                    compute=compute,
                    model=self.engine.cost_model,
                )
            )
        return parts

    def _as_part(self, result: Any) -> Any:
        """A degraded shard's CPU answer as a per-shard part with empty
        GPU statistics."""
        if not isinstance(result, CpuOpResult):
            return result
        empty: dict[str, Any] = {
            "value": result.value,
            "copy": PipelineStats(),
            "compute": PipelineStats(),
            "model": self.engine.cost_model,
        }
        if isinstance(result, CpuSelection):
            return Selection(
                **empty,
                valid_stencil=1,
                total_records=result.total_records,
                _cached_ids=result.record_ids().astype(np.int64),
            )
        return GpuOpResult(**empty)

    # -- ops every shard answers with the same engine method ----------------

    def _run_fanout(self, schedule: Any) -> Any:
        op = schedule.op
        args = [schedule.payload[key] for key in _FANOUT_ARGS[op]]

        def call(engine: Any) -> Any:
            return getattr(engine, op)(*args)

        parts = [
            self._as_part(result)
            for result in self.pool.map(
                lambda shard: self._shard_call(shard, call, call)
            )
        ]
        if op == "select":
            return ShardedSelection(
                value=sum(part.count for part in parts),
                copy=PipelineStats.merged([p.copy for p in parts]),
                compute=PipelineStats.merged([p.compute for p in parts]),
                model=self.engine.cost_model,
                valid_stencil=1,
                total_records=self.engine.relation.num_records,
                engine=self.engine,
                shard_results=parts,
                offsets=tuple(s.start for s in self.pool.shards),
                combiner=COMBINERS["select"],
                combiner_ms=COMBINE_MS_PER_SHARD * len(parts),
                degraded_shards=tuple(sorted(self._degraded_snapshot())),
            )
        if op == "histogram":
            # Only the bucket counts differ between shards.
            value: Any = (
                schedule.payload["edges"],
                fold(op, [part.value[1] for part in parts]),
            )
        else:
            value = fold(op, [part.value for part in parts])
        return self._combined(op, value, parts)

    def _run_average(self, schedule: Any) -> Any:
        column_name = schedule.payload["column"]
        predicate = schedule.payload.get("predicate")
        column = self.engine.relation.column(column_name)

        def gpu_body(engine: Any) -> tuple[int, int]:
            # The single-device sum/average driver minus the division:
            # selection passes plus the bit-sliced Accumulator, with an
            # empty shard legitimately contributing (0, 0).
            texture, channel = engine.stored_texture(column_name)
            valid, valid_count = engine._selection_stencil(predicate)
            total = aggregates.accumulate(
                engine.device, texture, column.bits,
                channel=channel, valid_stencil=valid,
            )
            return int(total), int(valid_count)

        def cpu(engine: CpuEngine) -> tuple[int, int]:
            values, mask = engine.column_mask(column_name, predicate)
            return exact_sum(values, mask), int(np.count_nonzero(mask))

        partials = self.pool.map(
            lambda shard: self._shard_call(
                shard,
                lambda engine: self._attempt(
                    shard, "average", lambda: gpu_body(engine)
                ),
                cpu,
            )
        )
        total, count = fold("average", partials)
        if count == 0:
            raise QueryError("AVG of an empty selection")
        value = column.sum_from_stored(total, count) / count
        return self._combined("average", value, self._harvest(partials))

    # -- the distributed bit search -----------------------------------------

    def _prepare_search(self, state: _ShardState) -> None:
        """Per-shard GPU prep for order statistics: selection mask, the
        attribute copied to the depth buffer (through the shard's
        fusion cache) and the search's counting state armed.
        Idempotent — faults re-run it from scratch."""
        engine = state.shard.engine
        state.valid, state.valid_count = engine._selection_stencil(
            state.predicate
        )
        if state.ensure_mask and state.valid is None:
            # top_k with no WHERE: the mark phase needs a real mask, so
            # write an all-valid one, exactly like the single-device
            # driver.  This layer is the shards' scheduler: writes land
            # on the shard's private device between operations.
            # repro-lint: disable=unscheduled-stencil-write
            engine.device.clear_stencil(1)
            state.valid = 1
        state.texture = engine.ensure_depth(state.column_name)[0]
        aggregates.arm_search(engine.device, state.valid)
        state.prepared = True

    def _prepare_all(
        self, op: str, column_name: str, predicate: Any,
        ensure_mask: bool = False,
    ) -> dict[int, _ShardState]:
        """Fan the search prep out to every shard (degraded shards build
        their host mirror instead); valid counts land on the states."""
        states = {
            shard.index: _ShardState(
                shard, op, column_name, predicate, ensure_mask
            )
            for shard in self.pool.shards
        }
        self.pool.map(
            lambda shard: self._shard_call(
                shard,
                lambda _engine: self._guarded(
                    states[shard.index], lambda: None
                ),
                lambda cpu: self._mirror(states[shard.index], cpu),
            )
        )
        return states

    def _count_at_least(
        self, state: _ShardState, bits: int, tentative: int
    ) -> int:
        """One probe on one shard: a counted ``GEQUAL`` quad on its GPU,
        or a host count over its mirror once it degraded."""

        def host(cpu: CpuEngine) -> int:
            values, mask = self._mirror(state, cpu)
            return int(np.count_nonzero(mask & (values >= tentative)))

        return int(
            self._shard_call(
                state.shard,
                lambda engine: self._guarded(
                    state,
                    lambda: aggregates.count_geq(
                        engine.device, state.texture, bits, tentative
                    ),
                ),
                host,
            )
        )

    def _count_round(
        self, states: dict[int, _ShardState], bits: int, tentative: int
    ) -> int:
        """The distributed search's count: every shard probes the same
        candidate concurrently and the host sums the counts, so Lemma 1
        applies to the global count."""
        counts = self.pool.map(
            lambda shard: self._count_at_least(
                states[shard.index], bits, tentative
            )
        )
        # The search ops declare this per-round count sum as their
        # combiner; top_k's threshold search reuses the count fold (its
        # declared combiner is the final ordered concatenation).
        op = next(iter(states.values())).op
        return int(fold(op if op in _SEARCH_OPS else "count", counts))

    def _run_search(self, schedule: Any) -> Any:
        op = schedule.op
        column_name = schedule.payload["column"]
        k = schedule.payload.get("k")
        column = self.engine.relation.column(column_name)
        states = self._prepare_all(
            op, column_name, schedule.payload.get("predicate")
        )
        ranks = aggregates.order_ranks(
            op,
            sum(state.valid_count for state in states.values()),
            k=k,
            fractions=schedule.payload.get("fractions"),
        )
        extreme = None
        if op == "minimum" or (op == "kth_smallest" and k == 1):
            extreme = "minimum"
        elif op == "kth_largest" and k == 1:
            extreme = "maximum"
        if extreme is not None:
            found = [self._extreme(states, column.bits, extreme)]
        else:
            found = aggregates.bit_search(
                column.bits, ranks,
                lambda x: self._count_round(states, column.bits, x),
            )
        values = [column.from_stored(value) for value in found]
        result = self._combined(
            op,
            values if op == "quantiles" else values[0],
            self._harvest([s.valid_count for s in states.values()]),
        )
        if extreme is not None:
            result = dataclasses.replace(
                result, combiner=COMBINERS[extreme]
            )
        return result

    def _extreme(
        self, states: dict[int, _ShardState], bits: int, op: str,
    ) -> int:
        """MIN/MAX merge trivially: each shard runs the same search at
        its *local* rank (same pass count) and the host keeps the
        extremum.  Shards whose selection is empty sit the search out."""

        def local(shard: Shard) -> int | None:
            state = states[shard.index]
            if state.valid_count == 0:
                return None
            return aggregates.bit_search(
                bits,
                aggregates.order_ranks(op, state.valid_count),
                lambda x: self._count_at_least(state, bits, x),
            )[0]

        found = [
            value for value in self.pool.map(local) if value is not None
        ]
        return int(fold(op, found))

    # -- top-k ---------------------------------------------------------------

    def _run_top_k(self, schedule: Any) -> Any:
        column_name = schedule.payload["column"]
        k = schedule.payload["k"]
        column = self.engine.relation.column(column_name)
        states = self._prepare_all(
            "top_k", column_name, schedule.payload.get("predicate"),
            ensure_mask=True,
        )
        ranks = aggregates.order_ranks(
            "top_k",
            sum(state.valid_count for state in states.values()),
            k=k,
        )
        (threshold,) = aggregates.bit_search(
            column.bits, ranks,
            lambda x: self._count_round(states, column.bits, x),
        )
        threshold_value = column.from_stored(threshold)

        def mark(state: _ShardState) -> np.ndarray:
            # The INCR pass consumes the prepared mask: if anything
            # after it faults, the retry must rebuild the mask first or
            # surviving records would be bumped twice.
            state.prepared = False
            device = state.shard.engine.device
            stencil = device.state.stencil
            stencil.enabled = True
            stencil.func = CompareFunc.EQUAL
            stencil.reference = state.valid
            stencil.sfail = StencilOp.KEEP
            stencil.zfail = StencilOp.KEEP
            stencil.zpass = StencilOp.INCR
            compare_pass(
                device, CompareFunc.GEQUAL,
                column.normalize(threshold_value),
                state.texture.count,
            )
            # Written by the compare_pass directly above — it cannot be
            # stale.  # repro-lint: disable=unchecked-stencil-read
            mask = device.read_stencil()
            ids = np.flatnonzero(mask == state.valid + 1)
            return ids[ids < state.shard.num_records]

        def cpu_mark(state: _ShardState, cpu: CpuEngine) -> np.ndarray:
            values, mask = self._mirror(state, cpu)
            return np.flatnonzero(mask & (values >= threshold))

        id_parts = self.pool.map(
            lambda shard: self._shard_call(
                shard,
                lambda _engine: self._guarded(
                    states[shard.index], lambda: mark(states[shard.index])
                ),
                lambda cpu: cpu_mark(states[shard.index], cpu),
            )
        )
        ids = np.concatenate(
            [
                np.asarray(part, dtype=np.int64) + shard.start
                for part, shard in zip(id_parts, self.pool.shards)
            ]
        )
        return self._combined(
            "top_k",
            TopK(threshold=threshold_value, record_ids=ids),
            self._harvest([s.valid_count for s in states.values()]),
        )
