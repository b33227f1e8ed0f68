"""Section 4.3 aggregations: KthLargest, the rank rule, Accumulator,
COUNT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregates
from repro.core.range_query import setup_selection_stencil
from repro.errors import QueryError
from repro.gpu import CompareFunc, Device, StencilOp, Texture

BITS = 10
SCALE = 1.0 / (1 << BITS)


def _setup(values):
    values = np.asarray(values)
    side = max(1, int(np.ceil(np.sqrt(values.size))))
    device = Device(side, side)
    texture = Texture.from_values(values, shape=(side, side))
    return device, texture


def _mask_stencil(device, texture, mask):
    """Stamp a selection mask (stencil=1 where mask) via real passes."""
    setup_selection_stencil(device, reference=1)
    values = np.where(mask, 1.0, 0.0)
    masked = Texture.from_values(values, shape=texture.shape)
    from repro.core.compare import compare

    compare(device, masked, CompareFunc.GEQUAL, 0.5, 1.0)
    device.state.stencil.zpass = StencilOp.KEEP


class TestKthLargest:
    @given(
        values=st.lists(
            st.integers(0, (1 << BITS) - 1), min_size=1, max_size=120
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lemma_1_property(self, values, data):
        """Routine 4.5 returns sorted(values, desc)[k-1] for every k."""
        k = data.draw(st.integers(1, len(values)))
        device, texture = _setup(np.array(values))
        got = aggregates.kth_largest(device, texture, BITS, k, SCALE)
        assert got == sorted(values, reverse=True)[k - 1]

    def test_pass_count_is_bit_width(self):
        device, texture = _setup(np.arange(50))
        device.stats.reset()
        aggregates.kth_largest(device, texture, BITS, 5, SCALE)
        compare_passes = [
            p
            for p in device.stats.passes
            if not (p.program or "").startswith("copy-to-depth")
        ]
        assert len(compare_passes) == BITS

    def test_duplicates(self):
        device, texture = _setup(np.array([7, 7, 7, 3, 3]))
        assert aggregates.kth_largest(device, texture, 3, 1, 1 / 8) == 7
        assert aggregates.kth_largest(device, texture, 3, 3, 1 / 8) == 7
        assert aggregates.kth_largest(device, texture, 3, 4, 1 / 8) == 3

    def test_k_validation(self):
        device, texture = _setup(np.arange(10))
        with pytest.raises(QueryError):
            aggregates.kth_largest(device, texture, BITS, 0, SCALE)

    def test_masked_kth_ignores_unselected(self):
        values = np.array([900, 800, 700, 10, 20, 30])
        mask = np.array([False, False, False, True, True, True])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        got = aggregates.kth_largest(
            device, texture, BITS, 1, SCALE, valid_stencil=1
        )
        assert got == 30

    def test_masked_kth_preserves_mask(self):
        values = np.array([900, 800, 10, 20])
        mask = np.array([True, False, True, False])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        before = device.framebuffer.stencil.values.copy()
        aggregates.kth_largest(
            device, texture, BITS, 1, SCALE, valid_stencil=1
        )
        assert np.array_equal(
            device.framebuffer.stencil.values, before
        )


def _order_statistic(device, texture, op, bits, scale, valid_count, k=None):
    """An order statistic the way every engine computes one: the rank
    rule picks the k-th largest, routine 4.5 finds it."""
    (rank,) = aggregates.order_ranks(op, valid_count, k=k)
    return aggregates.kth_largest(device, texture, bits, rank, scale)


class TestOrderStatisticWrappers:
    def test_min_max_median(self):
        values = np.array([4, 9, 1, 6, 6])
        device, texture = _setup(values)
        assert _order_statistic(
            device, texture, "maximum", 4, 1 / 16, 5
        ) == 9
        assert _order_statistic(
            device, texture, "minimum", 4, 1 / 16, 5
        ) == 1
        assert _order_statistic(
            device, texture, "median", 4, 1 / 16, 5
        ) == 6

    def test_kth_smallest_complement(self):
        values = np.array([10, 20, 30, 40])
        device, texture = _setup(values)
        assert aggregates.order_ranks("kth_smallest", 4, k=2) == [3]
        got = _order_statistic(
            device, texture, "kth_smallest", 6, 1 / 64, 4, k=2
        )
        assert got == 20

    def test_kth_smallest_validation(self):
        with pytest.raises(QueryError, match=r"k=5 outside \[1, 4\]"):
            aggregates.order_ranks("kth_smallest", 4, k=5)

    def test_median_empty_rejected(self):
        with pytest.raises(QueryError, match="median of an empty"):
            aggregates.order_ranks("median", 0)


class TestOrderRanks:
    """The one rank rule every engine and the shard layer share."""

    def test_extremes_and_median(self):
        assert aggregates.order_ranks("maximum", 7) == [1]
        assert aggregates.order_ranks("minimum", 7) == [7]
        assert aggregates.order_ranks("median", 7) == [4]
        assert aggregates.order_ranks("median", 8) == [4]

    def test_k_ops(self):
        assert aggregates.order_ranks("kth_largest", 9, k=2) == [2]
        assert aggregates.order_ranks("top_k", 9, k=9) == [9]
        assert aggregates.order_ranks("kth_smallest", 9, k=1) == [9]

    def test_quantiles_clamp_into_the_selection(self):
        ranks = aggregates.order_ranks(
            "quantiles", 10, fractions=[0.0, 0.25, 0.5, 1.0]
        )
        assert ranks == [10, 8, 5, 1]

    @pytest.mark.parametrize(
        "op, label",
        [("minimum", "MIN"), ("maximum", "MAX"),
         ("quantiles", "quantiles")],
    )
    def test_empty_selection_rejected(self, op, label):
        with pytest.raises(QueryError, match=f"{label} of an empty"):
            aggregates.order_ranks(op, 0, fractions=[0.5])

    def test_not_an_order_statistic(self):
        with pytest.raises(QueryError):
            aggregates.order_ranks("sum", 5)


class TestBitSearch:
    @given(
        values=st.lists(st.integers(0, 255), min_size=1, max_size=80),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_host_count_finds_every_rank(self, values, data):
        """Lemma 1 needs only a count: any ``count_at_least`` callback
        (a summed shard count, a host count) finds the k-th largest."""
        ks = data.draw(
            st.lists(st.integers(1, len(values)), min_size=1, max_size=4)
        )
        array = np.array(values)
        got = aggregates.bit_search(
            8, ks, lambda x: int(np.count_nonzero(array >= x))
        )
        ordered = sorted(values, reverse=True)
        assert got == [ordered[k - 1] for k in ks]

    def test_one_count_per_bit_per_rank(self):
        probes = []

        def count(x):
            probes.append(x)
            return 1

        aggregates.bit_search(5, [1, 1], count)
        assert len(probes) == 10


class TestAccumulator:
    @given(
        st.lists(st.integers(0, (1 << BITS) - 1), min_size=1, max_size=150)
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_sum_property(self, values):
        device, texture = _setup(np.array(values))
        got = aggregates.accumulate(device, texture, BITS)
        assert got == sum(values)

    def test_kil_variant_identical(self):
        values = np.random.default_rng(8).integers(0, 1 << BITS, 90)
        device, texture = _setup(values)
        alpha = aggregates.accumulate(device, texture, BITS)
        kil = aggregates.accumulate(
            device, texture, BITS, use_alpha_test=False
        )
        assert alpha == kil == int(values.sum())

    def test_pass_count_is_bit_width(self):
        device, texture = _setup(np.arange(20))
        device.stats.reset()
        aggregates.accumulate(device, texture, BITS)
        assert device.stats.num_passes == BITS

    def test_only_final_readback_is_synchronous(self):
        device, texture = _setup(np.arange(20))
        device.stats.reset()
        aggregates.accumulate(device, texture, BITS)
        assert device.stats.occlusion_results == 1

    def test_masked_sum(self):
        values = np.array([100, 200, 300, 400])
        mask = np.array([True, False, True, False])
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        got = aggregates.accumulate(
            device, texture, BITS, valid_stencil=1
        )
        assert got == 400

    def test_rejects_fractional_values(self):
        device, texture = _setup(np.array([1.5]))
        with pytest.raises(Exception):
            aggregates.accumulate(device, texture, BITS)

    def test_max_24_bit_values(self):
        values = np.array([(1 << 24) - 1, (1 << 24) - 1])
        device, texture = _setup(values)
        got = aggregates.accumulate(device, texture, 24)
        assert got == 2 * ((1 << 24) - 1)


class TestCountAndAverage:
    def test_count_valid_full(self):
        device, texture = _setup(np.arange(30))
        assert aggregates.count_valid(device, 30) == 30

    def test_count_valid_masked(self):
        values = np.arange(10)
        mask = values % 2 == 0
        device, texture = _setup(values)
        _mask_stencil(device, texture, mask)
        assert (
            aggregates.count_valid(device, 10, valid_stencil=1) == 5
        )


class TestMipmapSum:
    def test_small_data_exact(self):
        device, texture = _setup(np.array([1, 2, 3, 4]))
        approx, levels = aggregates.mipmap_sum(texture)
        assert approx == 10.0
        assert levels >= 1

    def test_large_values_lose_precision(self):
        # Pairwise float32 averages of varying 24-bit values round (the
        # intermediate a+b needs 25 bits), so the mipmap sum drifts.
        rng = np.random.default_rng(13)
        values = rng.integers(1 << 23, 1 << 24, 4096)
        device, texture = _setup(values)
        exact = aggregates.accumulate(device, texture, 24)
        approx, _levels = aggregates.mipmap_sum(texture)
        assert exact == int(values.sum())
        assert approx != exact

    def test_bad_channel_rejected(self):
        _device, texture = _setup(np.array([1.0]))
        with pytest.raises(QueryError):
            aggregates.mipmap_sum(texture, channel=2)

    def test_non_square_padding_handled(self):
        texture = Texture.from_values(
            np.array([5.0, 6.0, 7.0]), shape=(1, 3)
        )
        approx, _levels = aggregates.mipmap_sum(texture)
        assert approx == 18.0
