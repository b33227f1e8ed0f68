"""Rasterization of screen-aligned quadrilaterals.

The paper's computation model renders a "single quadrilateral that covers
the window" so that texels line up one-to-one with pixels (section 3.3).
This module turns such a quad into a :class:`FragmentBatch`: linear pixel
indices plus interpolated attributes (window position, texture
coordinates at texel centers, primary color), built lazily and shared
read-only so a pass pays only for the attributes its program reads.

Hardware rasterizes rectangles, not arbitrary index sets, so a relation
whose record count does not fill its texture exactly is covered by *two*
rects (the full rows plus the partial last row) — see
:func:`rects_for_count`.  This keeps the simulator honest about the
"no random access" constraint (section 6.1).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping

import numpy as np

from ..errors import GpuError
from .interpreter import FragmentBatch
from .isa import FragmentAttrib


@dataclasses.dataclass(frozen=True)
class Rect:
    """A half-open pixel rectangle ``[x0, x1) x [y0, y1)``."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 < 0 or self.y0 < 0 or self.x1 < self.x0 or self.y1 < self.y0:
            raise GpuError(f"invalid rect {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    def span(self, screen_width: int) -> slice | None:
        """The row-major pixel-index range the rect covers when that is
        one contiguous range (full-width rows, or a single row) — so
        its buffers read as a slice, not a gather — else ``None``."""
        if self.height > 1 and (self.x0 or self.x1 != screen_width):
            return None
        start = self.y0 * screen_width + self.x0
        return slice(start, start + self.num_pixels)


def full_screen(height: int, width: int) -> Rect:
    return Rect(0, 0, width, height)


def rects_for_count(count: int, width: int, height: int) -> list[Rect]:
    """Rectangles covering exactly the first ``count`` pixels in row-major
    order of a ``height x width`` screen.

    At most two rects: the block of complete rows, then the partial row.
    """
    if count < 0 or count > width * height:
        raise GpuError(
            f"count {count} outside [0, {width * height}] for "
            f"{width}x{height} screen"
        )
    full_rows, remainder = divmod(count, width)
    rects = []
    if full_rows:
        rects.append(Rect(0, 0, width, full_rows))
    if remainder:
        rects.append(Rect(0, full_rows, remainder, full_rows + 1))
    return rects


#: The texture-coordinate attributes: one shared array per quad, a pure
#: function of its geometry (the JIT memoizes fetches through them).
TEXCOORD_ATTRIBS = frozenset(
    {
        FragmentAttrib.TEX0,
        FragmentAttrib.TEX1,
        FragmentAttrib.TEX2,
        FragmentAttrib.TEX3,
    }
)


@functools.lru_cache(maxsize=8)
def _geometry(
    rect: Rect,
    screen_width: int,
    screen_height: int,
    tex_height: int,
    tex_width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Geometry-determined arrays for one quad: linear pixel indices and
    normalized texcoords at texel centers.  These repeat identically for
    every pass over the same rect, so they are cached (read-only —
    consumers must not mutate) and shared."""
    xs = np.arange(rect.x0, rect.x1, dtype=np.int64)
    ys = np.arange(rect.y0, rect.y1, dtype=np.int64)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    pixel_x = grid_x.ravel()
    pixel_y = grid_y.ravel()
    indices = pixel_y * screen_width + pixel_x

    texcoord = np.empty((indices.size, 4), dtype=np.float32)
    texcoord[:, 0] = _centers(pixel_x) / np.float32(tex_width)
    texcoord[:, 1] = _centers(pixel_y) / np.float32(tex_height)
    texcoord[:, 2] = 0.0
    texcoord[:, 3] = 1.0

    for array in (indices, texcoord):
        array.setflags(write=False)
    return indices, texcoord


def _centers(pixels: np.ndarray) -> np.ndarray:
    return pixels.astype(np.float32) + np.float32(0.5)


class QuadAttributes(Mapping):
    """The interpolated inputs of one quad, read-only and built lazily.

    Texture coordinates come from the cached quad geometry (all four
    sets are identical).  ``COL0`` is the quad's constant color
    broadcast over every fragment — one row, no per-fragment storage.
    ``WPOS`` is only materialized when something reads it: its ``.xy``
    are pixel centers and its ``.z`` the constant quad depth, so the
    pipeline never needs it (it tests the quad depth as one code).
    """

    def __init__(self, rect: Rect, texcoord, depth, color):
        self._rect = rect
        self._texcoord = texcoord
        self._depth = depth
        row = np.asarray(color, dtype=np.float32)
        row.setflags(write=False)
        self._col0 = np.broadcast_to(row, texcoord.shape)
        self._wpos = None

    def __getitem__(self, attrib: FragmentAttrib) -> np.ndarray:
        if attrib in TEXCOORD_ATTRIBS:
            return self._texcoord
        if attrib is FragmentAttrib.COL0:
            return self._col0
        if attrib is FragmentAttrib.WPOS:
            if self._wpos is None:
                self._wpos = self._window_positions()
            return self._wpos
        raise KeyError(attrib)

    def __iter__(self):
        return iter(FragmentAttrib)

    def __len__(self) -> int:
        return len(FragmentAttrib)

    def _window_positions(self) -> np.ndarray:
        rect = self._rect
        xs = np.arange(rect.x0, rect.x1, dtype=np.int64)
        ys = np.arange(rect.y0, rect.y1, dtype=np.int64)
        wpos = np.empty((rect.num_pixels, 4), dtype=np.float32)
        wpos[:, 0] = np.tile(_centers(xs), rect.height)
        wpos[:, 1] = np.repeat(_centers(ys), rect.width)
        wpos[:, 2] = self._depth
        wpos[:, 3] = 1.0
        wpos.setflags(write=False)
        return wpos



def rasterize_rect(
    rect: Rect,
    screen_width: int,
    screen_height: int,
    depth: float,
    color: tuple[float, float, float, float],
    tex_size: tuple[int, int] | None = None,
) -> tuple[np.ndarray, FragmentBatch]:
    """Generate fragments for a screen-aligned quad over ``rect``.

    Returns ``(pixel_indices, batch)`` where ``pixel_indices`` are linear
    row-major framebuffer indices.

    Texture coordinates are generated at *texel centers* assuming the
    textured quad maps the screen rect one-to-one onto the same rect of a
    texture sized like the screen (the paper's alignment contract).  All
    four texcoord sets (TEX0..TEX3) receive identical coordinates, which
    is how multi-texture passes address the same record in several
    attribute textures.  Every attribute array is read-only and shared
    (see :class:`QuadAttributes`).
    """
    if rect.x1 > screen_width or rect.y1 > screen_height:
        raise GpuError(
            f"rect {rect} exceeds the {screen_width}x{screen_height} screen"
        )
    # Texcoords normalized against the texture (defaults to screen) size.
    if tex_size is None:
        tex_height, tex_width = screen_height, screen_width
    else:
        tex_height, tex_width = tex_size
    token = (rect, screen_width, screen_height, tex_height, tex_width)
    indices, texcoord = _geometry(*token)
    attributes = QuadAttributes(rect, texcoord, np.float32(depth), color)
    return indices, FragmentBatch(
        count=indices.size, attributes=attributes, geometry_token=token
    )
