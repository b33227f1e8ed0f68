"""``PipelineStats`` keeps passes as int64 rows: every reader must see
what a plain list of ``PassStats`` gave, and a kept window must stay
small."""

import dataclasses
import gc
import struct
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import split_copy_stats
from repro.gpu.cost import GpuCostModel, GpuTime
from repro.gpu.counters import ROW_FIELDS, PassStats, PipelineStats

_PROGRAMS = (
    None,
    "copy-to-depth.x",
    "copy-to-depth-packed.y",
    "test-bit.x",
    "framebuffer-copy",
)


@dataclasses.dataclass
class _Reference:
    """The list-of-objects window the row form replaces."""

    passes: list = dataclasses.field(default_factory=list)
    bytes_uploaded: int = 0
    bytes_read_back: int = 0
    occlusion_results: int = 0
    clears: int = 0

    def counters(self):
        return (
            self.bytes_uploaded,
            self.bytes_read_back,
            self.occlusion_results,
            self.clears,
        )


def _reference_time(model: GpuCostModel, window: _Reference) -> GpuTime:
    """``GpuCostModel.time`` as a per-pass loop over ``PassStats``."""
    shading_clocks = 0.0
    depth_write_clocks = 0.0
    for p in window.passes:
        if p.program_length == 0:
            shading_clocks += p.fragments
        else:
            if model.early_z and p.early_z_eligible:
                shaded = p.instructions_after_early_z // max(
                    p.program_length, 1
                )
            else:
                shaded = p.fragments
            rejected = p.fragments - shaded
            shading_clocks += shaded * p.program_length + rejected
        if p.writes_depth_from_program:
            depth_write_clocks += (
                p.fragments * model.depth_write_penalty_clocks
            )
    throughput = model.fragments_per_second
    return GpuTime(
        shading_s=shading_clocks / throughput,
        pass_overhead_s=len(window.passes) * model.pass_overhead_s,
        depth_write_s=depth_write_clocks / throughput,
        upload_s=window.bytes_uploaded / model.upload_bandwidth,
        readback_s=window.bytes_read_back / model.readback_bandwidth,
        occlusion_s=(
            window.occlusion_results * model.occlusion_sync_latency_s
        ),
        clear_s=window.clears * model.clear_overhead_s,
    )


#: The default model, early-z off, and a fractional depth-write
#: penalty (whose products are inexact, so summation order shows in
#: the last bits).
_MODELS = (
    GpuCostModel(),
    GpuCostModel(early_z=False),
    GpuCostModel(depth_write_penalty_clocks=7.3),
)


def _bits(time: GpuTime) -> tuple:
    return tuple(
        struct.pack("<d", getattr(time, field.name))
        for field in dataclasses.fields(GpuTime)
    )


@st.composite
def _pass_stats(draw, index=0):
    fragments = draw(st.integers(0, 1 << 22))
    length = draw(st.sampled_from((0, 0, 1, 3, 5, 11, 64)))
    executed = fragments * length
    eligible = draw(st.booleans()) and length > 0
    after = (
        length * draw(st.integers(0, fragments)) if eligible else executed
    )
    counts = {
        name: draw(st.integers(0, fragments))
        for name in (
            "killed", "alpha_failed", "stencil_failed",
            "depth_bounds_failed", "depth_failed", "passed",
            "depth_writes", "stencil_writes",
        )
    }
    return PassStats(
        index=index,
        fragments=fragments,
        program=draw(st.sampled_from(_PROGRAMS)) if length else None,
        program_length=length,
        instructions_executed=executed,
        instructions_after_early_z=after,
        early_z_eligible=eligible,
        writes_depth_from_program=draw(st.booleans()) and length > 0,
        query_active=draw(st.booleans()),
        color_writes=draw(st.integers(0, 4 * fragments)),
        **counts,
    )


@st.composite
def _windows(draw):
    """A (rows window, reference window) pair holding the same passes."""
    passes = [
        draw(_pass_stats(index=i))
        for i in range(draw(st.integers(0, 30)))
    ]
    counters = draw(st.tuples(*(st.integers(0, 1 << 30),) * 4))
    reference = _Reference(list(passes), *counters)
    window = PipelineStats()
    for stats in passes:
        window.record_pass(stats)
    (
        window.bytes_uploaded,
        window.bytes_read_back,
        window.occlusion_results,
        window.clears,
    ) = counters
    return window, reference


def _counters(window: PipelineStats):
    return (
        window.bytes_uploaded,
        window.bytes_read_back,
        window.occlusion_results,
        window.clears,
    )


def _assert_same(window: PipelineStats, reference: _Reference):
    passes = reference.passes
    assert window.passes == passes
    assert [type(getattr(p, f)) for p in window.passes for f in ROW_FIELDS] \
        == [type(getattr(p, f)) for p in passes for f in ROW_FIELDS]
    assert window.programs == [p.program for p in passes]
    assert _counters(window) == reference.counters()
    assert window.num_passes == len(passes)
    assert window.total_fragments == sum(p.fragments for p in passes)
    assert window.total_instructions == sum(
        p.instructions_executed for p in passes
    )
    assert window.total_instructions_after_early_z == sum(
        p.instructions_after_early_z for p in passes
    )
    assert window.total_depth_writes == sum(p.depth_writes for p in passes)
    assert window.depth_program_fragments == sum(
        p.fragments for p in passes if p.writes_depth_from_program
    )
    for model in _MODELS:
        assert _bits(model.time(window)) == _bits(
            _reference_time(model, reference)
        )


class TestRowsMatchPassList:
    @settings(max_examples=80, deadline=None)
    @given(_windows())
    def test_readers_and_time(self, pair):
        window, reference = pair
        _assert_same(window, reference)

    @settings(max_examples=25, deadline=None)
    @given(_windows(), _windows(), _windows())
    def test_merged(self, first, second, third):
        windows = [first[0], second[0], third[0]]
        references = [first[1], second[1], third[1]]
        expected = _Reference(
            [p for r in references for p in r.passes],
            *(sum(c) for c in zip(*(r.counters() for r in references))),
        )
        _assert_same(PipelineStats.merged(windows), expected)
        _assert_same(PipelineStats.merged(iter(windows)), expected)
        _assert_same(PipelineStats.merged([]), _Reference())

    @settings(max_examples=30, deadline=None)
    @given(_windows(), _pass_stats(index=99))
    def test_snapshot_is_independent(self, pair, extra):
        window, reference = pair
        kept = window.snapshot()
        window.record_pass(extra)
        window.bytes_uploaded += 1
        _assert_same(kept, reference)
        # The live window grew; the snapshot did not.
        grown = dataclasses.replace(
            reference,
            passes=reference.passes + [extra],
            bytes_uploaded=reference.bytes_uploaded + 1,
        )
        _assert_same(window, grown)
        assert kept != window.snapshot()

    @settings(max_examples=20, deadline=None)
    @given(_windows(), _windows())
    def test_reset_then_reuse(self, first, second):
        window, _ = first
        kept = window.snapshot()
        window.reset()
        _assert_same(window, _Reference())
        assert window.passes == []
        other, reference = second
        for stats in other.passes:
            window.record_pass(stats)
        window.bytes_uploaded = reference.bytes_uploaded
        window.bytes_read_back = reference.bytes_read_back
        window.occlusion_results = reference.occlusion_results
        window.clears = reference.clears
        _assert_same(window, reference)
        # Reusing the row buffer never reaches an earlier snapshot.
        _assert_same(kept, first[1])

    @settings(max_examples=40, deadline=None)
    @given(_windows())
    def test_split_copy_stats(self, pair):
        window, reference = pair
        copy, compute = split_copy_stats(window)
        is_copy = [
            p.program is not None and p.program.startswith("copy-to-depth")
            for p in reference.passes
        ]
        _assert_same(
            copy,
            _Reference([p for p, c in zip(reference.passes, is_copy) if c]),
        )
        _assert_same(
            compute,
            _Reference(
                [p for p, c in zip(reference.passes, is_copy) if not c],
                *reference.counters(),
            ),
        )

    def test_recorded_pass_is_copied(self):
        window = PipelineStats()
        stats = PassStats(index=0, fragments=5)
        window.record_pass(stats)
        stats.fragments = 9
        assert window.passes[0].fragments == 5
        window.passes[0].fragments = 7  # built on read: no effect
        assert window.total_fragments == 5

    def test_constructor_takes_passes(self):
        passes = [PassStats(index=i, fragments=i + 1) for i in range(3)]
        window = PipelineStats(passes=passes, clears=2)
        _assert_same(window, _Reference(passes, clears=2))

    def test_rows_are_read_only(self):
        window = PipelineStats(passes=[PassStats(index=0, fragments=1)])
        assert not window.rows.flags.writeable
        assert window.column("fragments").tolist() == [1]
        assert window.rows.dtype == np.int64


class TestFootprint:
    def test_kept_57_pass_snapshot_under_10_kb(self):
        """A stream-window tick records 57 passes and perfbench keeps
        its snapshot; once the live window is gone, the snapshot alone
        must hold under 10 KB (57 pass objects held about 15 KB)."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            window = PipelineStats()
            for i in range(57):
                window.record_pass(
                    PassStats(
                        index=i,
                        fragments=8192,
                        program="test-bit.x",
                        program_length=5,
                        instructions_executed=5 * 8192,
                        instructions_after_early_z=5 * 8192,
                        passed=4096,
                        query_active=True,
                    )
                )
            kept = window.snapshot()
            del window
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept.num_passes == 57
        assert retained <= 10 * 1024, retained
