"""Section 4.3: aggregations — COUNT, MIN, MAX, k-th largest, SUM, AVG.

All of these reduce to *counting with occlusion queries*:

* ``COUNT`` is one occlusion-counted selection pass.
* ``KthLargest`` (routine 4.5) binary-searches the value bit by bit:
  pass ``i`` counts the records ``>= x + 2**i`` and Lemma 1 decides the
  bit.  ``b_max`` passes, no data rearrangement, constant in ``k``.
  MIN, MAX, the median, k-th smallest, quantiles and top-k are all this
  one search (:func:`bit_search`) at a rank from :func:`order_ranks`.
* ``Accumulator`` (routine 4.6) sums by bit-slicing:
  ``sum = Σ_i 2**i · #{records with bit i set}``, where the per-bit count
  comes from the ``TestBit`` fragment program + alpha test + occlusion
  query.  Exact for any integer data — unlike float mipmap reduction
  (:func:`mipmap_sum`), which is kept as the paper's inexact strawman.

Each routine accepts an optional ``valid_stencil`` so it aggregates only
records selected by an earlier query: the stencil test rejects
non-selected fragments and, with all stencil ops ``KEEP``, the selection
mask survives unchanged (paper sections 4.3.3 and 5.9 test 3).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import QueryError
from ..gpu.pipeline import Device
from ..gpu.programs import test_bit_kil_program, test_bit_program
from ..gpu.texture import Texture
from ..gpu.types import CompareFunc, StencilOp
from .compare import compare_pass, copy_to_depth


def _configure_valid_stencil(device: Device, valid_stencil: int | None):
    """Restrict all subsequent passes to records whose stencil equals
    ``valid_stencil``, without modifying the mask."""
    stencil = device.state.stencil
    if valid_stencil is None:
        stencil.enabled = False
        return
    stencil.enabled = True
    stencil.func = CompareFunc.EQUAL
    stencil.reference = valid_stencil
    stencil.sfail = StencilOp.KEEP
    stencil.zfail = StencilOp.KEEP
    stencil.zpass = StencilOp.KEEP


def count_valid(
    device: Device, count: int, valid_stencil: int | None = None
) -> int:
    """COUNT: one occlusion-counted full-screen pass over the selection
    (section 4.3.1)."""
    device.state.color_mask = (False, False, False, False)
    _configure_valid_stencil(device, valid_stencil)
    device.state.depth.enabled = False
    device.state.depth_bounds.enabled = False
    device.state.alpha.enabled = False
    query = device.begin_query()
    device.render_quad(0.0, count=count)
    device.end_query()
    return query.result(synchronous=True)


def check_k(k: int | None, valid_count: int) -> None:
    """Order statistics need ``1 <= k <= valid_count`` (the record count
    after any predicate); one message across engines and entry points."""
    if k is None or not 1 <= k <= valid_count:
        raise QueryError(f"k={k} outside [1, {valid_count}] valid records")


def order_ranks(
    op: str,
    valid_count: int,
    *,
    k: int | None = None,
    fractions: list[float] | None = None,
) -> list[int]:
    """The rank rule: which k-th largest values an order statistic
    asks for among ``valid_count`` selected records.

    MAX is the 1st largest, MIN the ``n``-th, the median the
    ``ceil(n/2)``-th (the paper's convention for figures 8 and 9), the
    k-th smallest the ``(n - k + 1)``-th (duplicate-safe), and quantile
    ``q`` the ``ceil((1 - q) * n)``-th clamped into ``[1, n]``.
    ``kth_largest`` and ``top_k`` ask for ``k`` itself.  Raises
    :class:`~repro.errors.QueryError` for ranks outside the selection.
    """
    if op in ("kth_largest", "kth_smallest", "top_k"):
        check_k(k, valid_count)
        return [valid_count - k + 1 if op == "kth_smallest" else k]
    if valid_count < 1:
        label = {"minimum": "MIN", "maximum": "MAX"}.get(op, op)
        raise QueryError(f"{label} of an empty selection")
    if op == "maximum":
        return [1]
    if op == "minimum":
        return [valid_count]
    if op == "median":
        return [(valid_count + 1) // 2]
    if op == "quantiles":
        return [
            min(max(math.ceil((1.0 - q) * valid_count), 1), valid_count)
            for q in fractions or ()
        ]
    raise QueryError(f"{op!r} is not an order statistic")


def bit_search(
    bits: int, ranks: list[int], count_at_least: Callable[[int], int]
) -> list[int]:
    """Routine 4.5's bit-wise binary search, once per rank (MSB first).

    ``count_at_least(x)`` returns how many selected records hold a
    value ``>= x``: one occlusion-counted comparison quad on a device,
    the sum of such counts over shards, or a host-side count.  Lemma 1
    decides each bit from that count, so the search needs ``bits``
    counts per rank, no data rearrangement, and is constant in ``k``.
    """
    results = []
    for k in ranks:
        x = 0
        for i in range(bits - 1, -1, -1):
            tentative = x + (1 << i)
            # Lemma 1: count > k-1  =>  tentative <= v_k, keep the bit.
            if count_at_least(tentative) > k - 1:
                x = tentative
        results.append(x)
    return results


def count_geq(
    device: Device, texture: Texture, bits: int, tentative: int
) -> int:
    """One counted ``GEQUAL`` quad against the depth-resident attribute:
    the number of valid records whose value is ``>= tentative``.  The
    count is retrieved synchronously (the next bit depends on it)."""
    query = device.begin_query()
    # attribute >= tentative  <=>  tentative <= attribute
    compare_pass(
        device, CompareFunc.GEQUAL, tentative / float(1 << bits),
        texture.count,
    )
    device.end_query()
    return query.result(synchronous=True)


def arm_search(device: Device, valid_stencil: int | None) -> None:
    """Counting state for the search quads: color writes off, and only
    records whose stencil equals ``valid_stencil`` counted."""
    device.state.color_mask = (False, False, False, False)
    _configure_valid_stencil(device, valid_stencil)


def kth_largest(
    device: Device,
    texture: Texture,
    bits: int,
    k: int,
    scale: float,
    channel: int = 0,
    valid_stencil: int | None = None,
) -> int:
    """Routine 4.5: the k-th largest value of a ``bits``-bit integer
    attribute, via ``bits`` counting passes (MSB first).

    Returns the integer value.  ``k`` counts from 1 (the maximum).
    The attribute is copied to the depth buffer once; each pass renders
    one comparison quad at the tentative value (:func:`bit_search`).
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    copy_to_depth(device, texture, scale, channel=channel)
    arm_search(device, valid_stencil)
    return bit_search(
        bits, [k], lambda x: count_geq(device, texture, bits, x)
    )[0]


@lru_cache(maxsize=8)
def _test_bit(channel: int):
    return test_bit_program(channel)


@lru_cache(maxsize=8)
def _test_bit_kil(channel: int):
    return test_bit_kil_program(channel)


def accumulate(
    device: Device,
    texture: Texture,
    bits: int,
    channel: int = 0,
    valid_stencil: int | None = None,
    use_alpha_test: bool = True,
) -> int:
    """Routine 4.6: ``Accumulator`` — exact integer SUM by bit slicing.

    One pass per bit: the ``TestBit`` program moves
    ``frac(value / 2**(i+1))`` into alpha and the alpha test
    (``>= 0.5``) lets exactly the bit-set fragments through to the
    occlusion counter.  Queries are issued back to back and only the
    final result synchronizes, matching the paper's observation that
    occlusion queries pipeline (section 5.3).

    ``use_alpha_test=False`` switches to the ``KIL``-based rejection the
    paper found slower (ablation).
    """
    texture.assert_integer_exact()
    state = device.state
    state.color_mask = (False, False, False, False)
    state.depth.enabled = False
    state.depth_bounds.enabled = False
    _configure_valid_stencil(device, valid_stencil)
    if use_alpha_test:
        device.set_program(_test_bit(channel))
        state.alpha.enabled = True
        state.alpha.func = CompareFunc.GEQUAL
        state.alpha.reference = 0.5
    else:
        device.set_program(_test_bit_kil(channel))
        state.alpha.enabled = False

    queries = []
    for i in range(bits):
        device.set_program_parameter(0, 1.0 / float(1 << (i + 1)))
        query = device.begin_query()
        device.render_textured_quad(texture)
        device.end_query()
        queries.append(query)

    device.set_program(None)
    state.alpha.enabled = False

    total = 0
    for i, query in enumerate(queries):
        # Only the last retrieval waits on the pipeline; earlier results
        # are already available by then (asynchronous queries).
        synchronous = i == len(queries) - 1
        total += query.result(synchronous=synchronous) << i
    return total


def mipmap_sum(texture: Texture, channel: int = 0) -> tuple[float, int]:
    """The float-mipmap SUM the paper argues against (section 4.3.3):
    repeated 2x2 float32 averaging down to one texel, then
    ``average * texel_count``.

    Returns ``(approximate_sum, levels)``.  Unlike :func:`accumulate`
    this loses precision once partial averages exceed float32's 24-bit
    significand; tests and the ablation benchmark quantify the error.
    """
    if not 0 <= channel < texture.channels:
        raise QueryError(
            f"channel {channel} out of range for "
            f"{texture.channels}-channel texture"
        )
    level = texture.data[:, :, channel].astype(np.float32)
    levels = 0
    while level.size > 1:
        height, width = level.shape
        padded_h = height + (height % 2)
        padded_w = width + (width % 2)
        if (padded_h, padded_w) != (height, width):
            padded = np.zeros((padded_h, padded_w), dtype=np.float32)
            padded[:height, :width] = level
            level = padded
        # One mipmap level: average each 2x2 block in float32.
        blocks = level.reshape(
            padded_h // 2, 2, padded_w // 2, 2
        )
        level = blocks.mean(axis=(1, 3), dtype=np.float32).astype(np.float32)
        levels += 1
    # Each 2x2 average divides the running sum by 4 (zero padding adds
    # nothing), so the root holds total_sum / 4**levels.
    return float(level[0, 0]) * float(4 ** levels), levels
