"""Whole-schedule execution: one driver loop per verified schedule.

:class:`ScheduleExecutor` is the execution half of the plan layer — the
runtime twin of :mod:`repro.plan.compiler`.  Every engine operation
compiles to a :class:`~repro.plan.passes.PassSchedule` carrying an
execution ``payload`` and runs through
:meth:`~repro.core.engine.GpuEngine.execute_schedule`, which delegates
here.  One driver per schedule op owns the entire loop — copy-to-depth
batching through the engine's cache-aware ``ensure_depth``, quad
rasterization, and occlusion harvesting — without bouncing back
through per-pass Python dispatch, and the verifier / tracer / fault /
deadline hooks all sit at that single choke point:

* static verification runs (in debug mode) before any pass executes;
* the op span and stats window open and close around the driver;
* faults and retries wrap the whole schedule (``@_resilient`` on
  ``execute_schedule``);
* deadlines cancel at pass boundaries inside the driver loop exactly
  as they did across the old per-op methods.

The free functions that once lived in ``repro.plan.runner``
(``harvest`` / ``run_selectivities`` / ``run_histogram``) are methods
here; the shim module has been removed now its deprecation window has
passed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.compare import compare_pass
from ..core.predicates import Between, Comparison, Predicate
from ..core.range_query import range_pass
from ..core.select import execute_selection
from ..errors import QueryError
from .passes import PassSchedule, predicate_key


class ScheduleExecutor:
    """Executes compiled :class:`PassSchedule`\\ s against one engine.

    Stateless between calls — construction is free, so
    ``ScheduleExecutor(engine).execute(schedule)`` per operation is the
    intended usage (:meth:`GpuEngine.execute_schedule` does exactly
    that).  Interpreter and JIT are swappable backends underneath: the
    ``jit`` override flips the device flag for the duration of one
    schedule, which is how the differential matrix pins both backends
    against each other.
    """

    #: Schedule op -> driver method name.
    _DRIVERS = {
        "select": "_run_select",
        "count": "_run_count",
        "sum": "_run_sum_average",
        "average": "_run_sum_average",
        "quantiles": "_run_search",
        "kth_largest": "_run_search",
        "kth_smallest": "_run_search",
        "minimum": "_run_search",
        "median": "_run_search",
        "top_k": "_run_top_k",
        "selectivities": "_run_selectivities",
        "histogram": "_run_histogram",
    }

    def __init__(self, engine: Any):
        self.engine = engine

    def execute(
        self, schedule: PassSchedule, *, jit: bool | None = None
    ) -> Any:
        """Run one compiled schedule end to end.

        ``jit`` overrides the device's program backend for this
        schedule only (``None`` keeps the device default).  Raises
        :class:`~repro.errors.QueryError` for schedules with no driver
        (e.g. whole-statement explain lowerings) or no payload.
        """
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
        engine = self.engine
        # Debug mode: statically verify before any pass executes.
        engine._verify_schedule(schedule)
        driver = getattr(self, name)
        device = engine.device
        if jit is None:
            return driver(schedule)
        saved = device.jit
        device.jit = bool(jit)
        try:
            return driver(schedule)
        finally:
            device.jit = saved

    # -- op drivers ---------------------------------------------------------

    def _run_select(self, schedule: PassSchedule) -> Any:
        from ..core.engine import Selection

        engine = self.engine
        predicate = schedule.payload["predicate"]
        engine._begin("select", predicate=str(predicate))
        outcome = execute_selection(
            engine.device, engine.relation, engine, predicate
        )
        if engine.fusion:
            # select() always executes (callers rely on a fresh mask);
            # later aggregates with the same WHERE hit this entry.
            engine.plan.stencil.note(
                engine.device,
                predicate_key(predicate),
                engine._predicate_fingerprint(predicate),
                outcome.count,
                outcome.valid_stencil,
            )
        result = engine._finish(outcome.count)
        return Selection(
            value=outcome.count,
            copy=result.copy,
            compute=result.compute,
            model=engine.cost_model,
            valid_stencil=outcome.valid_stencil,
            total_records=engine.relation.num_records,
            engine=engine,
            generation=engine.device.stencil_generation,
            context=engine.contexts.active,
        )

    def _run_count(self, schedule: PassSchedule) -> Any:
        from ..core import aggregates

        engine = self.engine
        engine._begin("count")
        value = aggregates.count_valid(
            engine.device, engine.relation.num_records
        )
        return engine._finish(value)

    def _run_sum_average(self, schedule: PassSchedule) -> Any:
        from ..core import aggregates

        engine = self.engine
        op = schedule.op
        column_name = schedule.payload["column"]
        predicate = schedule.payload.get("predicate")
        column = engine.relation.column(column_name)
        texture, channel = engine.stored_texture(column_name)
        engine._begin(op, column=column_name)
        valid, valid_count = engine._selection_stencil(predicate)
        if op == "average" and valid_count == 0:
            raise QueryError("AVG of an empty selection")
        total = aggregates.accumulate(
            engine.device, texture, column.bits,
            channel=channel, valid_stencil=valid,
        )
        value = column.sum_from_stored(total, valid_count)
        if op == "average":
            value = value / valid_count
        return engine._finish(value)

    def _run_search(self, schedule: PassSchedule) -> Any:
        """Every order statistic: routine 4.5's bit search at the ranks
        :func:`~repro.core.aggregates.order_ranks` picks, sharing one
        (cache-aware) depth copy across a quantile ladder."""
        from ..core import aggregates

        engine = self.engine
        op = schedule.op
        column_name = schedule.payload["column"]
        k = schedule.payload.get("k")
        fractions = schedule.payload.get("fractions")
        column = engine.relation.column(column_name)
        # Make the texture resident before the stats window opens.
        engine.column_texture(column_name)
        attrs: dict[str, Any] = {"column": column_name}
        if k is not None:
            attrs["k"] = k
        if op == "quantiles":
            attrs["fractions"] = list(fractions)
        engine._begin(op, **attrs)
        valid, valid_count = engine._selection_stencil(
            schedule.payload.get("predicate")
        )
        ranks = aggregates.order_ranks(
            op, valid_count, k=k, fractions=fractions
        )
        values = [
            column.from_stored(value)
            for value in self._bit_search(column_name, valid, ranks)
        ]
        return engine._finish(values if op == "quantiles" else values[0])

    def _bit_search(
        self, column_name: str, valid: int | None, ranks: list[int]
    ) -> list[int]:
        """Route the attribute to the depth buffer (unless the plan
        cache proves it is there), then run the bit search with one
        counted ``GEQUAL`` quad per probe."""
        from ..core import aggregates

        engine = self.engine
        device = engine.device
        texture, _scale, _channel = engine.ensure_depth(column_name)
        aggregates.arm_search(device, valid)
        bits = engine.relation.column(column_name).bits
        return aggregates.bit_search(
            bits, ranks,
            lambda x: aggregates.count_geq(device, texture, bits, x),
        )

    def _run_top_k(self, schedule: PassSchedule) -> Any:
        from ..core import aggregates
        from ..core.engine import TopK
        from ..gpu.types import CompareFunc, StencilOp

        engine = self.engine
        column_name = schedule.payload["column"]
        predicate = schedule.payload.get("predicate")
        k = schedule.payload["k"]
        column = engine.relation.column(column_name)
        texture, _scale, _channel = engine.column_texture(column_name)
        engine._begin("top_k", column=column_name, k=k)
        valid, valid_count = engine._selection_stencil(predicate)
        ranks = aggregates.order_ranks("top_k", valid_count, k=k)
        if valid is None:
            # The executor is the engine's execution arm: this runs
            # under the engine's active context exactly as the old
            # GpuEngine._top_k body did.
            # repro-lint: disable=unscheduled-stencil-write
            engine.device.clear_stencil(1)
            valid = 1
        (threshold,) = self._bit_search(column_name, valid, ranks)
        threshold_value = column.from_stored(threshold)
        # Mark records (valid AND value >= threshold): valid -> valid+1.
        stencil = engine.device.state.stencil
        stencil.enabled = True
        stencil.func = CompareFunc.EQUAL
        stencil.reference = valid
        stencil.sfail = StencilOp.KEEP
        stencil.zfail = StencilOp.KEEP
        stencil.zpass = StencilOp.INCR
        compare_pass(
            engine.device,
            CompareFunc.GEQUAL,
            column.normalize(threshold_value),
            texture.count,
        )
        # The mask was written by compare_pass above in this same
        # operation — it cannot be stale.  # repro-lint: disable=unchecked-stencil-read
        mask = engine.device.read_stencil()
        ids = np.flatnonzero(mask == valid + 1)
        ids = ids[ids < engine.relation.num_records]
        return engine._finish(
            TopK(threshold=threshold_value, record_ids=ids)
        )

    def _run_selectivities(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        predicates = schedule.payload["predicates"]
        engine._begin(
            "selectivities", num_predicates=len(predicates)
        )
        engine._trace_schedule(schedule)
        counts = self.run_selectivities(
            predicates, fuse=engine.fusion
        )
        return engine._finish(counts)

    def _run_histogram(self, schedule: PassSchedule) -> Any:
        engine = self.engine
        column_name = schedule.payload["column"]
        buckets = schedule.payload["buckets"]
        edges = schedule.payload["edges"]
        engine._begin(
            "histogram", column=column_name, buckets=buckets
        )
        engine._trace_schedule(schedule)
        counts = self.run_histogram(
            column_name, edges, fuse=engine.fusion
        )
        return engine._finish((edges, counts))

    # -- counting sweeps (the former repro.plan.runner functions) -----------

    @staticmethod
    def harvest(queries: Any) -> list:
        """Retrieve a batch of occlusion results with one pipeline
        stall.

        Queries pipeline (paper section 5.3): by the time the final
        result is waited on synchronously, every earlier one is
        already available and costs nothing to read.
        """
        results = []
        for index, query in enumerate(queries):
            synchronous = index == len(queries) - 1
            results.append(query.result(synchronous=synchronous))
        return results

    def _counted_quad(self, predicate: Predicate) -> Any:
        """Render one simple predicate as an occlusion-counted quad
        against the depth buffer (after routing its attribute there)
        and return the still-pending query."""
        engine = self.engine
        device = engine.device
        column = engine.relation.column(predicate.column)
        texture, _scale, _channel = engine.ensure_depth(
            predicate.column
        )
        query = device.begin_query()
        if isinstance(predicate, Comparison):
            compare_pass(
                device,
                predicate.op,
                column.normalize(
                    column.clamp_to_domain(predicate.value)
                ),
                texture.count,
            )
        else:
            range_pass(
                device,
                column.normalize(column.clamp_to_domain(predicate.low)),
                column.normalize(
                    column.clamp_to_domain(predicate.high)
                ),
                texture.count,
            )
        device.end_query()
        return query

    def run_selectivities(
        self, predicates: list, fuse: bool = True
    ) -> list:
        """Execute the batched selectivity sweep; counts align with
        ``predicates``.

        Simple predicates render as counted quads with the stencil
        disabled; general predicates fall back to the full selection
        machinery (which owns the stencil buffer), flushing any
        pending batch first so result order is preserved.
        """
        engine = self.engine
        device = engine.device
        device.state.color_mask = (False, False, False, False)
        device.state.stencil.enabled = False
        counts: list = []
        pending: list = []

        def flush() -> None:
            if not pending:
                return
            for (index, _query), value in zip(
                pending,
                self.harvest([query for _i, query in pending]),
            ):
                counts[index] = value
            pending.clear()

        for predicate in predicates:
            if isinstance(predicate, (Comparison, Between)):
                query = self._counted_quad(predicate)
                counts.append(None)
                if fuse:
                    pending.append((len(counts) - 1, query))
                else:
                    counts[-1] = query.result(synchronous=True)
            else:
                flush()
                outcome = execute_selection(
                    device, engine.relation, engine, predicate
                )
                counts.append(outcome.count)
                device.state.stencil.enabled = False
        flush()
        return counts

    def run_histogram(
        self,
        column_name: str,
        edges: np.ndarray,
        fuse: bool = True,
    ) -> np.ndarray:
        """Execute the histogram sweep over precomputed bucket
        ``edges``.

        Fused: one depth copy, one counted depth-bounds quad per
        bucket, one batched harvest — and the stencil buffer is left
        untouched, so an earlier selection's mask survives.  Unfused:
        each bucket re-runs the full range selection exactly as the
        pre-fusion engine did.
        """
        engine = self.engine
        device = engine.device
        column = engine.relation.column(column_name)
        counts = np.zeros(edges.size - 1, dtype=np.int64)
        if not fuse:
            for index in range(edges.size - 1):
                outcome = execute_selection(
                    device,
                    engine.relation,
                    engine,
                    Between(
                        column_name,
                        int(edges[index]),
                        int(edges[index + 1] - 1),
                    ),
                )
                counts[index] = outcome.count
            return counts

        device.state.color_mask = (False, False, False, False)
        device.state.stencil.enabled = False
        texture, _scale, _channel = engine.ensure_depth(column_name)
        queries = []
        for index in range(edges.size - 1):
            low = column.normalize(
                column.clamp_to_domain(int(edges[index]))
            )
            high = column.normalize(
                column.clamp_to_domain(int(edges[index + 1] - 1))
            )
            query = device.begin_query()
            range_pass(device, low, high, texture.count)
            device.end_query()
            queries.append(query)
        for index, value in enumerate(self.harvest(queries)):
            counts[index] = value
        return counts
