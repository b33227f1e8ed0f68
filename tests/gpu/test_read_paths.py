"""How a pass reaches its inputs: span reads vs gathers, and the
read-only shared fragment attributes.

A rect covering one contiguous pixel range (full-width rows, or a
single row) reads depth and stencil through a slice; any other rect
gathers by pixel index.  Both must leave identical buffers and
``PassStats``.  The rasterizer's attributes (cached texcoords, the
broadcast ``COL0`` row, the lazily built ``WPOS``) are shared and
read-only: no program, under either backend, may write into them.
"""

import dataclasses

import numpy as np
import pytest

from repro.gpu import (
    CompareFunc,
    Device,
    StencilOp,
    Texture,
    copy_to_depth_program,
)
from repro.gpu.assembler import assemble
from repro.gpu.isa import FragmentAttrib
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.raster import Rect, rasterize_rect

HEIGHT, WIDTH = 6, 8

#: Full-width rows, a single partial row, and a rect that is neither.
SPAN_RECTS = [Rect(0, 1, WIDTH, 4), Rect(2, 3, 7, 4)]
GATHER_RECT = Rect(1, 1, 5, 4)


def _texture(seed: int) -> Texture:
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 256, size=HEIGHT * WIDTH).astype(np.float32)
    return Texture.from_values(values, shape=(HEIGHT, WIDTH))


def _configure_bit_test(device: Device) -> None:
    device.set_program(bit_program())
    device.set_program_parameter(0, 1.0 / 8.0)
    state = device.state
    state.alpha.enabled = True
    state.alpha.func = CompareFunc.GEQUAL
    state.alpha.reference = 0.5
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.LEQUAL
    state.stencil.reference = 1
    state.stencil.mask = 0x3
    state.stencil.zfail = StencilOp.INCR
    state.stencil.zpass = StencilOp.INVERT
    state.stencil.write_mask = 0x7
    state.depth.enabled = True
    state.depth.func = CompareFunc.LESS
    state.depth.write = False
    state.depth_bounds.enabled = True
    state.depth_bounds.zmin = 0.1
    state.depth_bounds.zmax = 0.9
    state.color_mask = (False, False, False, False)


def _configure_copy(device: Device) -> None:
    device.set_program(copy_to_depth_program())
    device.set_program_parameter(0, 1.0 / 256.0)
    state = device.state
    state.depth.enabled = True
    state.depth.func = CompareFunc.GEQUAL
    state.depth.write = True
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.NOTEQUAL
    state.stencil.reference = 2
    state.stencil.sfail = StencilOp.ZERO
    state.stencil.zpass = StencilOp.INCR
    state.color_mask = (True, True, True, True)


def _configure_fixed(device: Device) -> None:
    device.set_program(None)
    state = device.state
    state.depth.enabled = True
    state.depth.func = CompareFunc.LESS
    state.depth.write = True
    state.stencil.enabled = True
    state.stencil.func = CompareFunc.ALWAYS
    state.stencil.zfail = StencilOp.DECR
    state.stencil.zpass = StencilOp.REPLACE
    state.stencil.reference = 3
    state.color_mask = (True, False, True, False)


CONFIGS = {
    "test-bit": _configure_bit_test,
    "copy-to-depth": _configure_copy,
    "fixed-function": _configure_fixed,
}


def _device(jit: bool, configure) -> Device:
    device = Device(HEIGHT, WIDTH, jit=jit)
    rng = np.random.default_rng(11)
    fb = device.framebuffer
    fb.depth.codes[:] = rng.integers(0, 1 << 24, size=fb.num_pixels)
    fb.stencil.values[:] = rng.integers(0, 4, size=fb.num_pixels)
    fb.color.data[:] = rng.uniform(-1, 1, size=fb.color.data.shape)
    device.bind_texture(0, _texture(5))
    configure(device)
    return device


def _render(jit: bool, configure, rect: Rect) -> Device:
    device = _device(jit, configure)
    device.render_quad(0.5, color=(0.2, 0.4, 0.6, 0.8), rect=rect)
    device.render_quad(0.25, color=(0.9, 0.1, 0.3, 0.7), rect=rect)
    return device


def _snapshot(device: Device) -> dict:
    fb = device.framebuffer
    return {
        "color": fb.color.data.copy(),
        "depth": fb.depth.codes.copy(),
        "stencil": fb.stencil.values.copy(),
        "stats": [dataclasses.asdict(s) for s in device.stats.passes],
        "generations": (device.depth_generation, device.stencil_generation),
    }


def _assert_same(a: dict, b: dict) -> None:
    for key in ("color", "depth", "stencil"):
        assert np.array_equal(a[key], b[key]), key
    assert a["stats"] == b["stats"]
    assert a["generations"] == b["generations"]


class TestSpan:
    def test_contiguous_rects_have_spans(self):
        assert Rect(0, 1, WIDTH, 4).span(WIDTH) == slice(8, 32)
        assert Rect(2, 3, 7, 4).span(WIDTH) == slice(26, 31)
        assert Rect(3, 5, 3, 6).span(WIDTH) == slice(43, 43)

    def test_other_rects_gather(self):
        assert GATHER_RECT.span(WIDTH) is None
        assert Rect(0, 0, WIDTH - 1, 2).span(WIDTH) is None

    def test_span_covers_the_rasterized_indices(self):
        for rect in SPAN_RECTS:
            indices, _batch = rasterize_rect(
                rect, WIDTH, HEIGHT, 0.5, (1, 1, 1, 1)
            )
            span = rect.span(WIDTH)
            assert np.array_equal(
                indices, np.arange(span.start, span.stop)
            )


@pytest.mark.parametrize("jit", [False, True], ids=["interp", "jit"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestReadPaths:
    @pytest.mark.parametrize("rect", SPAN_RECTS, ids=["rows", "row"])
    def test_span_matches_gather(self, jit, config, rect, monkeypatch):
        spanned = _snapshot(_render(jit, CONFIGS[config], rect))
        monkeypatch.setattr(Rect, "span", lambda self, width: None)
        gathered = _snapshot(_render(jit, CONFIGS[config], rect))
        _assert_same(spanned, gathered)

    def test_non_contiguous_rect_matches_its_span_pieces(
        self, jit, config
    ):
        """A gathered rect equals the same pixels drawn as single-row
        spans, one pass per row."""
        gathered = _render(jit, CONFIGS[config], GATHER_RECT)
        rows = _device(jit, CONFIGS[config])
        for depth, color in ((0.5, (0.2, 0.4, 0.6, 0.8)),
                             (0.25, (0.9, 0.1, 0.3, 0.7))):
            for y in range(GATHER_RECT.y0, GATHER_RECT.y1):
                row = Rect(GATHER_RECT.x0, y, GATHER_RECT.x1, y + 1)
                rows.render_quad(depth, color=color, rect=row)
        a, b = _snapshot(gathered), _snapshot(rows)
        for key in ("color", "depth", "stencil"):
            assert np.array_equal(a[key], b[key]), key
        fields = ("fragments", "killed", "alpha_failed", "stencil_failed",
                  "depth_bounds_failed", "depth_failed", "passed",
                  "depth_writes", "stencil_writes", "color_writes")
        for pass_index in range(2):
            whole = a["stats"][pass_index]
            pieces = b["stats"][pass_index * 3:(pass_index + 1) * 3]
            for field in fields:
                assert whole[field] == sum(p[field] for p in pieces), field


#: Programs that write (masked) over registers holding attribute
#: values, write o[COLR] partially, or KIL — any in-place write into a
#: shared attribute would corrupt the next pass or raise.
_WRITER_PROGRAMS = {
    "masked-temp": [
        "MOV R0, f[TEX0];",
        "MOV R0.xz, f[COL0];",
        "MOV o[COLR], R0;",
    ],
    "masked-color": [
        "MOV o[COLR], f[COL0];",
        "MOV o[COLR].yw, f[TEX0];",
    ],
    "kil": [
        "SUB R1, f[TEX0], {0.5, 0.5, 0, 0};",
        "KIL R1.xyxy;",
        "MOV R1.w, f[COL0].x;",
        "MOV o[COLR], R1;",
    ],
    "wpos": [
        "MOV R2, f[WPOS];",
        "MOV R2.y, f[COL0].w;",
        "MOV o[COLR], R2;",
    ],
}


class TestSharedAttributesStayReadOnly:
    def _shared(self, rect: Rect):
        _indices, batch = rasterize_rect(
            rect, WIDTH, HEIGHT, 0.5, (0.2, 0.4, 0.6, 0.8)
        )
        return batch.attributes[FragmentAttrib.TEX0]

    @pytest.mark.parametrize("name", sorted(_WRITER_PROGRAMS))
    @pytest.mark.parametrize(
        "rect", [Rect(0, 0, WIDTH, HEIGHT), GATHER_RECT],
        ids=["span", "gather"],
    )
    def test_programs_leave_attributes_untouched(self, name, rect):
        program = assemble(
            "\n".join(["!!FP1.0"] + _WRITER_PROGRAMS[name] + ["END"])
        )
        texcoord = self._shared(rect)
        before = texcoord.copy()
        colors = {}
        for jit in (False, True):
            device = Device(HEIGHT, WIDTH, jit=jit)
            device.set_program(program)
            for _ in range(2):
                device.render_quad(
                    0.5, color=(0.2, 0.4, 0.6, 0.8), rect=rect
                )
            colors[jit] = device.framebuffer.color.data.copy()
        assert np.array_equal(colors[False], colors[True])
        # The same cached geometry, unchanged and still read-only.
        assert self._shared(rect) is texcoord
        assert np.array_equal(texcoord, before)
        assert not texcoord.flags.writeable

    def test_attributes_reject_writes(self):
        _indices, batch = rasterize_rect(
            GATHER_RECT, WIDTH, HEIGHT, 0.5, (0.2, 0.4, 0.6, 0.8)
        )
        for attrib in FragmentAttrib:
            with pytest.raises(ValueError):
                batch.attributes[attrib][0, 0] = 7.0

    def test_col0_is_one_broadcast_row(self):
        _indices, batch = rasterize_rect(
            Rect(0, 0, WIDTH, HEIGHT), WIDTH, HEIGHT, 0.5,
            (0.2, 0.4, 0.6, 0.8),
        )
        col0 = batch.attributes[FragmentAttrib.COL0]
        assert col0.shape == (HEIGHT * WIDTH, 4)
        assert col0.strides[0] == 0
