"""Depth quantization exactness and buffer behavior."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FramebufferError
from repro.gpu.framebuffer import (
    FrameBuffer,
    code_to_depth,
    depth_to_code,
)
from repro.gpu.types import DEPTH_MAX_CODE


class TestDepthQuantization:
    def test_endpoints(self):
        assert depth_to_code(0.0) == 0
        assert depth_to_code(1.0) == DEPTH_MAX_CODE

    def test_clamping(self):
        assert depth_to_code(-0.5) == 0
        assert depth_to_code(2.0) == DEPTH_MAX_CODE

    @given(
        value=st.integers(0, 2**19 - 1),
        bits=st.integers(19, 24),
    )
    def test_integer_normalization_is_exact(self, value, bits):
        """The contract behind Compare: v / 2**bits quantizes to the code
        v << (24 - bits), so integer comparisons via the depth test are
        exact."""
        code = depth_to_code(value / float(1 << bits))
        assert code == value << (24 - bits)

    @given(
        a=st.integers(0, 2**19 - 1),
        b=st.integers(0, 2**19 - 1),
    )
    def test_quantization_preserves_integer_order(self, a, b):
        scale = float(1 << 19)
        code_a = depth_to_code(a / scale)
        code_b = depth_to_code(b / scale)
        assert (a < b) == (code_a < code_b)
        assert (a == b) == (code_a == code_b)

    def test_float32_values_survive_float64_promotion(self):
        values = np.array([0.25, 0.5], dtype=np.float32)
        codes = depth_to_code(values)
        assert codes[0] == (1 << 24) // 4
        assert codes[1] == (1 << 24) // 2

    def test_code_to_depth_inverts_bucket_floor(self):
        codes = np.array([0, 1, DEPTH_MAX_CODE], dtype=np.uint32)
        depths = code_to_depth(codes)
        assert np.array_equal(depth_to_code(depths), codes)


def _reference_codes(depths) -> np.ndarray:
    """The float64 quantization every depth path must reproduce."""
    d = np.asarray(depths, dtype=np.float64)
    return np.clip(np.floor(d * float(1 << 24)), 0, DEPTH_MAX_CODE).astype(
        np.uint32
    )


#: k / 2**b as float32, for every b <= 24 and 0 <= k <= 2**b.
_dyadic = st.integers(0, 24).flatmap(
    lambda b: st.integers(0, 1 << b).map(
        lambda k: np.float32(k / float(1 << b))
    )
)


class TestDepthToCodeFloat32:
    """float32 depths are scaled in float32: multiplying by 2**24 only
    shifts the exponent, so the codes must equal the float64
    reference's bit for bit."""

    def _check(self, values):
        values = np.asarray(values, dtype=np.float32)
        codes = depth_to_code(values)
        assert codes.dtype == np.uint32
        assert np.array_equal(codes, _reference_codes(values))
        for value in values:
            scalar = depth_to_code(value)
            assert scalar.dtype == np.uint32
            assert scalar == _reference_codes(value)

    @given(value=_dyadic, toward=st.sampled_from([-np.inf, 0.0, 2.0, np.inf]))
    def test_dyadic_values_and_neighbours(self, value, toward):
        """k / 2**b for every b <= 24, and its float32 neighbours."""
        self._check([value, np.nextafter(value, np.float32(toward))])

    @given(
        value=st.floats(
            min_value=-np.finfo(np.float32).smallest_normal,
            max_value=np.finfo(np.float32).smallest_normal,
            width=32,
        )
    )
    def test_subnormals(self, value):
        self._check([value])

    @given(
        value=st.one_of(
            st.floats(max_value=0.0, width=32, allow_nan=False),
            st.floats(min_value=1.0, width=32, allow_nan=False),
        )
    )
    def test_outside_the_unit_interval(self, value):
        self._check([value])

    @given(
        values=st.lists(
            st.floats(0.0, 1.0, width=32), min_size=1, max_size=64
        )
    )
    def test_unit_interval_arrays(self, values):
        self._check(values)

    def test_pinned_edges(self):
        edges = [0.0, -0.0, 1.0, np.finfo(np.float32).smallest_subnormal]
        edges += [np.nextafter(np.float32(1.0), np.float32(0.0))]
        edges += [np.float32(1 - 2.0**-24), np.float32(2.0**-24)]
        self._check(edges)

    def test_float64_and_python_inputs_keep_the_reference(self):
        values = np.array([0.3, 1 / 3, 0.9999999999], dtype=np.float64)
        codes = depth_to_code(values)
        assert codes.dtype == np.uint32
        assert np.array_equal(codes, _reference_codes(values))
        assert depth_to_code(0.3) == _reference_codes(0.3)


class TestFrameBuffer:
    def test_invalid_dims_rejected(self):
        with pytest.raises(FramebufferError):
            FrameBuffer(0, 5)
        with pytest.raises(FramebufferError):
            FrameBuffer(5, -1)

    def test_clear_sets_all_three_buffers(self):
        fb = FrameBuffer(2, 2)
        fb.color.data[:] = 9
        fb.depth.codes[:] = 5
        fb.stencil.values[:] = 7
        fb.clear(color=(1, 2, 3, 4), depth=0.0, stencil=2)
        assert np.all(fb.color.data == [1, 2, 3, 4])
        assert np.all(fb.depth.codes == 0)
        assert np.all(fb.stencil.values == 2)

    def test_default_depth_clear_is_far_plane(self):
        fb = FrameBuffer(1, 1)
        fb.clear()
        assert fb.depth.codes[0] == DEPTH_MAX_CODE

    def test_stencil_clear_range_validated(self):
        fb = FrameBuffer(1, 1)
        with pytest.raises(FramebufferError):
            fb.stencil.clear(256)
        with pytest.raises(FramebufferError):
            fb.stencil.clear(-1)

    def test_color_write_honors_mask(self):
        fb = FrameBuffer(1, 2)
        rgba = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        fb.color.write(
            np.array([1]), rgba, (True, False, True, False)
        )
        assert np.array_equal(fb.color.data[1], [1.0, 0.0, 3.0, 0.0])

    def test_depth_write_and_read_codes(self):
        fb = FrameBuffer(1, 4)
        indices = np.array([0, 2])
        fb.depth.write_codes(indices, np.array([10, 20], dtype=np.uint32))
        assert np.array_equal(fb.depth.read_codes(indices), [10, 20])
        assert fb.depth.read_codes(np.array([1]))[0] == 0

    def test_num_pixels(self):
        assert FrameBuffer(3, 7).num_pixels == 21
