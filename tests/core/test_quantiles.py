"""Quantile ladders (shared-copy multi-k order statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Column, CpuEngine, GpuEngine, Relation, col
from repro.core import aggregates
from repro.core.compare import copy_to_depth
from repro.errors import QueryError
from repro.gpu import Device, Texture


def _engines(seed=15, records=2000, bits=12):
    rng = np.random.default_rng(seed)
    relation = Relation(
        "t",
        [
            Column.integer(
                "v", rng.integers(0, 1 << bits, records), bits=bits
            ),
            Column.integer("g", rng.integers(0, 4, records), bits=2),
        ],
    )
    return relation, GpuEngine(relation), CpuEngine(relation)


def _ladder(device, texture, bits, ks, scale, channel):
    """One depth copy, then one bit search per rank — the quantile
    ladder's pass structure."""
    copy_to_depth(device, texture, scale, channel=channel)
    aggregates.arm_search(device, None)
    return aggregates.bit_search(
        bits, ks,
        lambda x: aggregates.count_geq(device, texture, bits, x),
    )


class TestKthLargestMulti:
    def test_matches_single_k_calls(self):
        relation, gpu, _cpu = _engines()
        texture, scale, channel = gpu.column_texture("v")
        bits = relation.column("v").bits
        ks = [1, 7, 500, 2000]
        multi = _ladder(gpu.device, texture, bits, ks, scale, channel)
        singles = [
            aggregates.kth_largest(
                gpu.device, texture, bits, k, scale, channel=channel
            )
            for k in ks
        ]
        assert multi == singles

    def test_single_copy_pass(self):
        relation, gpu, _cpu = _engines()
        texture, scale, channel = gpu.column_texture("v")
        bits = relation.column("v").bits
        gpu.device.stats.reset()
        _ladder(gpu.device, texture, bits, [1, 10, 100], scale, channel)
        copies = [
            p
            for p in gpu.device.stats.passes
            if (p.program or "").startswith("copy-to-depth")
        ]
        assert len(copies) == 1
        assert len(gpu.device.stats.passes) == 1 + 3 * bits

    def test_validation(self):
        device = Device(2, 2)
        texture = Texture.from_values(np.arange(4), shape=(2, 2))
        device.stats.reset()
        # No ranks: nothing to search, no pass rendered.
        assert aggregates.bit_search(
            2, [],
            lambda x: aggregates.count_geq(device, texture, 2, x),
        ) == []
        assert device.stats.passes == []
        # Ranks come from the rank rule, which rejects k < 1.
        with pytest.raises(QueryError):
            aggregates.order_ranks("kth_largest", 4, k=0)


class TestEngineQuantiles:
    def test_matches_cpu_and_conventions(self):
        relation, gpu, cpu = _engines()
        fractions = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
        g = gpu.quantiles("v", fractions)
        c = cpu.quantiles("v", fractions)
        assert g.value == c.value
        assert g.value[2] == gpu.median("v").value
        assert g.value[0] == gpu.minimum("v").value
        assert g.value[-1] == gpu.maximum("v").value
        # Non-decreasing ladder.
        assert g.value == sorted(g.value)

    def test_shared_copy(self):
        _relation, gpu, _cpu = _engines()
        result = gpu.quantiles("v", [0.5, 0.9, 0.99])
        assert result.copy.num_passes == 1

    def test_with_predicate(self):
        relation, gpu, cpu = _engines()
        predicate = col("g") == 1
        fractions = [0.5, 0.9]
        assert (
            gpu.quantiles("v", fractions, predicate).value
            == cpu.quantiles("v", fractions, predicate).value
        )
        selected = relation.column("v").values[
            predicate.mask(relation)
        ]
        descending = np.sort(selected)[::-1]
        k = int(np.ceil(0.5 * selected.size))
        assert gpu.quantiles("v", [0.5], predicate).value[0] == int(
            descending[k - 1]
        )

    def test_validation(self):
        _relation, gpu, cpu = _engines()
        for engine in (gpu, cpu):
            with pytest.raises(QueryError):
                engine.quantiles("v", [])
            with pytest.raises(QueryError):
                engine.quantiles("v", [1.5])
        with pytest.raises(QueryError):
            gpu.quantiles("v", [0.5], col("v") > 10**6)

    @given(
        seed=st.integers(0, 20),
        fractions=st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_parity(self, seed, fractions):
        _relation, gpu, cpu = _engines(seed=seed, records=150)
        assert (
            gpu.quantiles("v", fractions).value
            == cpu.quantiles("v", fractions).value
        )

    def test_fixed_point_quantiles(self):
        rng = np.random.default_rng(4)
        relation = Relation(
            "m",
            [
                Column.fixed_point(
                    "p", rng.integers(0, 2000, 500) / 4.0, 2
                )
            ],
        )
        gpu = GpuEngine(relation)
        cpu = CpuEngine(relation)
        assert (
            gpu.quantiles("p", [0.5, 0.9]).value
            == cpu.quantiles("p", [0.5, 0.9]).value
        )
