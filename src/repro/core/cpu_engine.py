"""CPU query engine: the paper's optimized baseline behind the same API.

:class:`CpuEngine` mirrors :class:`~repro.core.engine.GpuEngine` method
for method, so integration tests can assert both engines agree on every
answer, and the benchmark harness can price both sides of each figure.

Answers come from the vectorized scans in :mod:`repro.cpu`; simulated
dual-Xeon timings come from :class:`~repro.cpu.cost.CpuCostModel` driven
by the *structure* of the query (records scanned, predicate terms,
selection compaction), mirroring how the GPU side is priced from
pipeline counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cpu import aggregate as cpu_aggregate
from ..cpu.quickselect import partition_select
from ..cpu.quickselect import quickselect as hoare_quickselect
from ..cpu.cost import CpuCostModel
from ..errors import QueryError
from ..trace import current_tracer
from .aggregates import check_k, order_ranks
from .polynomial import Polynomial
from .predicates import (
    And,
    Between,
    Comparison,
    Not,
    Or,
    Predicate,
    SemiLinear,
)
from .relation import Relation


def predicate_terms(predicate: Predicate, model: CpuCostModel) -> float:
    """Equivalent simple-predicate terms a fused CPU scan evaluates per
    record for this predicate (figure 5's linear-in-attributes cost)."""
    if isinstance(predicate, Comparison):
        return 1.0
    if isinstance(predicate, Between):
        return model.range_term_factor
    if isinstance(predicate, SemiLinear):
        return model.semilinear_ns_per_record / model.predicate_ns_per_record
    if isinstance(predicate, Polynomial):
        # A multiply per exponent step on top of the semi-linear scan.
        multiplies = sum(max(p - 1, 0) for p in predicate.exponents)
        base = model.semilinear_ns_per_record / model.predicate_ns_per_record
        return base + 0.15 * multiplies
    if isinstance(predicate, Not):
        return predicate_terms(predicate.child, model)
    if isinstance(predicate, (And, Or)):
        return sum(
            predicate_terms(child, model) for child in predicate.children
        )
    raise QueryError(
        f"cannot price predicate of type {type(predicate).__name__}"
    )


@dataclasses.dataclass
class CpuOpResult:
    """Answer plus simulated CPU seconds."""

    value: object
    modeled_s: float

    @property
    def modeled_ms(self) -> float:
        return self.modeled_s * 1e3

    # -- unified result accessors (shared with GpuOpResult/QueryResult) --

    @property
    def time_ms(self) -> float:
        """Simulated dual-Xeon milliseconds (alias of ``modeled_ms``)."""
        return self.modeled_ms

    @property
    def pass_count(self) -> int:
        """The CPU issues no rendering passes."""
        return 0

    @property
    def stats(self):
        """An empty pipeline-statistics window (no GPU work)."""
        from ..gpu.counters import PipelineStats

        return PipelineStats()


@dataclasses.dataclass
class CpuSelection(CpuOpResult):
    #: The selection, one bit per record (``np.packbits`` order): a
    #: result lives as long as its answer, so it keeps an eighth of a
    #: boolean mask.
    bits: np.ndarray = None
    total_records: int = 0

    @property
    def mask(self) -> np.ndarray:
        """The selection as one bool per record."""
        return np.unpackbits(self.bits, count=self.total_records).view(bool)

    @property
    def count(self) -> int:
        return int(self.value)

    @property
    def selectivity(self) -> float:
        if self.total_records == 0:
            return 0.0
        return self.count / self.total_records

    def record_ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


class CpuEngine:
    """CPU-backed query engine over one relation."""

    def __init__(
        self,
        relation: Relation,
        cost_model: CpuCostModel | None = None,
        faithful_quickselect: bool = False,
        tracer=None,
    ):
        self.relation = relation
        self.cost_model = cost_model or CpuCostModel()
        #: Use the pure-Python Hoare FIND (paper-faithful but slow to
        #: *actually run*) instead of numpy.partition.  Identical values.
        self.faithful_quickselect = faithful_quickselect
        #: Optional :class:`~repro.trace.Tracer` — each operation
        #: becomes a span (no pass events; the CPU has no passes).
        #: Defaults to the process-wide tracer, usually ``None``.
        self.tracer = tracer if tracer is not None else current_tracer()

    # -- measurement helpers -----------------------------------------------------

    def _begin(self, op: str, **attrs):
        if self.tracer is None:
            return None
        return self.tracer.begin(op, **attrs)

    def _finish(self, span, result: CpuOpResult) -> CpuOpResult:
        if span is not None:
            self.tracer.end(span, modeled_ms=result.modeled_ms)
        return result

    # -- selection ---------------------------------------------------------------

    def select(self, predicate: Predicate) -> CpuSelection:
        span = self._begin("select", predicate=str(predicate))
        records = self.relation.num_records
        mask = predicate.mask(self.relation)
        terms = predicate_terms(predicate, self.cost_model)
        modeled = self.cost_model.predicate_scan_s(records, terms)
        return self._finish(span, CpuSelection(
            value=int(np.count_nonzero(mask)),
            modeled_s=modeled,
            bits=np.packbits(mask),
            total_records=records,
        ))

    def count(self, predicate: Predicate | None = None) -> CpuOpResult:
        if predicate is not None:
            return self.select(predicate)
        span = self._begin("count")
        records = self.relation.num_records
        return self._finish(span, CpuOpResult(
            value=records, modeled_s=self.cost_model.count_s(records)
        ))

    def selectivity(self, predicate: Predicate) -> float:
        return self.select(predicate).selectivity

    # -- helpers -----------------------------------------------------------------------

    def column_mask(
        self, column_name: str, predicate: Predicate | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """A column's values and the predicate's row mask (all true
        without a predicate).

        Bit-sliceable columns (integer / fixed-point) come back in their
        *stored* integer domain, so order statistics and sums use
        exactly the arithmetic the GPU's bit-sliced algorithms use;
        callers map results back with ``_from_stored``.  This is also
        the host mirror a degraded shard searches instead of its depth
        copy and stencil mask.
        """
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            values = column.stored_values()
        else:
            values = column.values
        if predicate is None:
            return values, np.ones(values.size, dtype=bool)
        return values, self.select(predicate).mask

    def _column_values(
        self, column_name: str, predicate: Predicate | None
    ) -> tuple[np.ndarray, float, int]:
        """Selected values, the selectivity, and total records scanned."""
        values, mask = self.column_mask(column_name, predicate)
        records = self.relation.num_records
        if predicate is None:
            return values, 1.0, records
        selected = values[mask]
        return selected, selected.size / records if records else 0.0, records

    def _from_stored(self, column_name: str, stored):
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            return column.from_stored(stored)
        return stored

    def _select_kth(self, values: np.ndarray, k: int) -> float:
        if self.faithful_quickselect:
            return hoare_quickselect(values, k)
        return partition_select(values, k)

    def _order_statistic_cost(
        self,
        records: int,
        selectivity: float,
        predicate: Predicate | None,
        k: int | None = None,
    ) -> float:
        if predicate is None:
            return self.cost_model.quickselect_s(records, k)
        # Selection scan + compaction + QuickSelect over survivors
        # (paper section 5.9 test 3: the CPU must copy valid data out).
        terms = predicate_terms(predicate, self.cost_model)
        return self.cost_model.predicate_scan_s(
            records, terms
        ) + self.cost_model.quickselect_with_selection_s(
            records, selectivity, k
        )

    # -- order statistics ------------------------------------------------------------------

    def _order_statistic(
        self,
        op: str,
        column_name: str,
        predicate: Predicate | None,
        *,
        k: int | None = None,
        fractions: list[float] | None = None,
    ) -> CpuOpResult:
        """QuickSelect at the ranks :func:`order_ranks` picks."""
        attrs: dict = {"column": column_name}
        if k is not None:
            check_k(k, self.relation.num_records)
            attrs["k"] = k
        if fractions is not None:
            attrs["fractions"] = list(fractions)
        span = self._begin(op, **attrs)
        values, selectivity, records = self._column_values(
            column_name, predicate
        )
        ranks = order_ranks(op, values.size, k=k, fractions=fractions)
        out = [
            self._from_stored(
                column_name, int(self._select_kth(values, rank))
            )
            for rank in ranks
        ]
        # A ladder is priced rank by rank; a single statistic by its k.
        priced = ranks if fractions is not None else [k]
        modeled = sum(
            self._order_statistic_cost(
                records, selectivity, predicate, rank
            )
            for rank in priced
        )
        return self._finish(span, CpuOpResult(
            value=out if fractions is not None else out[0],
            modeled_s=modeled,
        ))

    def kth_largest(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        return self._order_statistic(
            "kth_largest", column_name, predicate, k=k
        )

    def kth_smallest(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        return self._order_statistic(
            "kth_smallest", column_name, predicate, k=k
        )

    def maximum(self, column_name, predicate=None) -> CpuOpResult:
        span = self._begin("maximum", column=column_name)
        values, _sel, records = self._column_values(column_name, predicate)
        if values.size == 0:
            raise QueryError("MAX of an empty selection")
        return self._finish(span, CpuOpResult(
            value=self._from_stored(
                column_name, int(cpu_aggregate.maximum(values))
            ),
            modeled_s=self.cost_model.sum_s(records),
        ))

    def minimum(self, column_name, predicate=None) -> CpuOpResult:
        span = self._begin("minimum", column=column_name)
        values, _sel, records = self._column_values(column_name, predicate)
        if values.size == 0:
            raise QueryError("MIN of an empty selection")
        return self._finish(span, CpuOpResult(
            value=self._from_stored(
                column_name, int(cpu_aggregate.minimum(values))
            ),
            modeled_s=self.cost_model.sum_s(records),
        ))

    def median(self, column_name, predicate=None) -> CpuOpResult:
        return self._order_statistic("median", column_name, predicate)

    def top_k(
        self, column_name: str, k: int, predicate: Predicate | None = None
    ) -> CpuOpResult:
        """Record ids of the k largest values, ties included — mirrors
        :meth:`repro.core.engine.GpuEngine.top_k`.  ``value`` has
        ``threshold`` and ``record_ids`` attributes."""
        from .engine import TopK

        check_k(k, self.relation.num_records)
        span = self._begin("top_k", column=column_name, k=k)
        values, mask = self.column_mask(column_name, predicate)
        selected = values[mask]
        (rank,) = order_ranks("top_k", selected.size, k=k)
        threshold = int(self._select_kth(selected, rank))
        ids = np.flatnonzero(mask & (values >= threshold))
        return self._finish(span, CpuOpResult(
            value=TopK(
                threshold=self._from_stored(column_name, threshold),
                record_ids=ids,
            ),
            modeled_s=self._order_statistic_cost(
                self.relation.num_records,
                selected.size / self.relation.num_records,
                predicate,
                k,
            ),
        ))

    def quantiles(
        self,
        column_name: str,
        fractions: list[float],
        predicate: Predicate | None = None,
    ) -> CpuOpResult:
        """Quantile ladder (CPU twin of
        :meth:`~repro.core.engine.GpuEngine.quantiles`)."""
        if not fractions:
            raise QueryError("quantiles() needs at least one fraction")
        if any(not 0.0 <= q <= 1.0 for q in fractions):
            raise QueryError(
                f"fractions must lie in [0, 1], got {fractions}"
            )
        return self._order_statistic(
            "quantiles", column_name, predicate, fractions=fractions
        )

    def selectivities(self, predicates) -> CpuOpResult:
        """Batched selectivity analysis (CPU twin of
        :meth:`~repro.core.engine.GpuEngine.selectivities`)."""
        if not predicates:
            raise QueryError(
                "selectivities() needs at least one predicate"
            )
        span = self._begin(
            "selectivities", num_predicates=len(predicates)
        )
        counts = [self.select(p).count for p in predicates]
        modeled = sum(
            self.cost_model.predicate_scan_s(
                self.relation.num_records,
                predicate_terms(p, self.cost_model),
            )
            for p in predicates
        )
        return self._finish(
            span, CpuOpResult(value=counts, modeled_s=modeled)
        )

    def histogram(
        self, column_name: str, buckets: int = 32
    ) -> CpuOpResult:
        """Bucketed value counts with the same integer edges as the GPU
        histogram.  ``value`` is ``(edges, counts)``."""
        # Runtime import: repro.plan reaches back into repro.core.
        from ..plan.compiler import histogram_edges

        column = self.relation.column(column_name)
        if not column.is_integer:
            raise QueryError("histogram requires an integer column")
        if buckets < 1:
            raise QueryError(f"need at least one bucket, got {buckets}")
        span = self._begin("histogram", column=column_name,
                           buckets=buckets)
        edges = histogram_edges(column, buckets)
        counts, _bins = np.histogram(
            column.values.astype(np.int64), bins=edges
        )
        records = self.relation.num_records
        return self._finish(span, CpuOpResult(
            value=(edges, counts.astype(np.int64)),
            modeled_s=self.cost_model.predicate_scan_s(records),
        ))

    # -- aggregation -----------------------------------------------------------------------

    def _sum_from_stored(self, column_name: str, total, count: int):
        """Map a stored-domain SUM back to value units (the per-value
        bias does not distribute over a sum)."""
        column = self.relation.column(column_name)
        if column.supports_bit_slicing:
            return column.sum_from_stored(total, count)
        return total

    def sum(self, column_name, predicate=None) -> CpuOpResult:
        span = self._begin("sum", column=column_name)
        values, _sel, records = self._column_values(column_name, predicate)
        return self._finish(span, CpuOpResult(
            value=self._sum_from_stored(
                column_name, cpu_aggregate.exact_sum(values), values.size
            ),
            modeled_s=self.cost_model.sum_s(records),
        ))

    def average(self, column_name, predicate=None) -> CpuOpResult:
        span = self._begin("average", column=column_name)
        values, _sel, records = self._column_values(column_name, predicate)
        if values.size == 0:
            raise QueryError("AVG of an empty selection")
        return self._finish(span, CpuOpResult(
            value=self._sum_from_stored(
                column_name, cpu_aggregate.exact_sum(values), values.size
            )
            / values.size,
            modeled_s=self.cost_model.sum_s(records),
        ))
