"""Fragment-program JIT: compilation, DCE, cache keying, equivalence.

The JIT must be a drop-in for the interpreter: identical outputs,
identical errors, identical ``instructions_executed`` (DCE changes
wall-clock only — the simulated hardware has no dead-code eliminator).
The kernel cache must key on texture generations and parameter bytes so
a texel upload, parameter change, fault retry or context switch can
never replay a stale kernel.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GpuEngine
from repro.core.aggregates import accumulate
from repro.core.compare import copy_to_depth
from repro.core.predicates import Comparison
from repro.data.tcpip import make_tcpip
from repro.errors import ProgramExecutionError
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    RetryPolicy,
    use_faults,
)
from repro.gpu.assembler import assemble
from repro.gpu.interpreter import FragmentBatch, ProgramInterpreter
from repro.gpu.isa import NUM_PARAMETERS, FragmentAttrib
from repro.gpu.jit import (
    _TEX_MEMO_CAP,
    BoundKernel,
    KernelCache,
    TexMemo,
    compile_program,
    kernel_summary,
)
from repro.gpu.pipeline import Device
from repro.gpu.programs import (
    copy_to_depth_program,
    semilinear_program,
)
from repro.gpu.programs import test_bit_program as bit_program
from repro.gpu.texture import Texture
from repro.gpu.types import CompareFunc


def _program(lines):
    return assemble("\n".join(["!!FP1.0"] + list(lines) + ["END"]))


def _batch(count=16, seed=0):
    rng = np.random.default_rng(seed)
    attrs = {}
    for attrib in (
        FragmentAttrib.WPOS,
        FragmentAttrib.COL0,
        FragmentAttrib.TEX0,
        FragmentAttrib.TEX1,
    ):
        attrs[attrib] = rng.uniform(
            -2.0, 2.0, size=(count, 4)
        ).astype(np.float32)
    return FragmentBatch(count=count, attributes=attrs)


def _params(seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(
        -3.0, 3.0, size=(NUM_PARAMETERS, 4)
    ).astype(np.float32)


def _both(program, batch, textures=None, parameters=None,
          need_color=True):
    """Run ``program`` through the interpreter and a fresh bound
    kernel; return both results."""
    textures = textures or {}
    parameters = (
        parameters if parameters is not None else _params()
    )
    interp = ProgramInterpreter(textures, parameters).run(
        program, batch
    )
    kernel = BoundKernel(
        compile_program(program, need_color), textures, parameters
    )
    jit = kernel.run(batch)
    return interp, jit


def _assert_equal_results(interp, jit):
    assert np.array_equal(interp.color, jit.color, equal_nan=True)
    if interp.depth is None:
        assert jit.depth is None
    else:
        assert np.array_equal(interp.depth, jit.depth, equal_nan=True)
    assert np.array_equal(interp.killed, jit.killed)
    assert interp.instructions_executed == jit.instructions_executed


#: One source list per opcode family, exercising swizzles, negation,
#: masked writes, literals and parameters.
_OPCODE_PROGRAMS = [
    ["MOV o[COLR], f[COL0];"],
    ["MOV R0, -f[COL0].wzyx;", "MOV o[COLR], R0;"],
    ["ADD o[COLR], f[COL0], f[TEX0];"],
    ["SUB o[COLR], f[COL0], p[3];"],
    ["MUL o[COLR], f[COL0], {0.5, -1, 2, 0};"],
    ["MAD o[COLR], f[COL0], p[1], f[TEX0];"],
    ["MIN o[COLR], f[COL0], f[TEX0];"],
    ["MAX o[COLR], f[COL0], f[TEX0];"],
    ["SLT o[COLR], f[COL0], f[TEX0];"],
    ["SGE o[COLR], f[COL0], f[TEX0];"],
    ["ABS o[COLR], f[COL0];"],
    ["FLR o[COLR], f[COL0];"],
    ["FRC o[COLR], f[COL0];"],
    ["RCP o[COLR], f[COL0].x;"],
    ["EX2 o[COLR], f[COL0].x;"],
    ["LG2 o[COLR], f[COL0].x;"],
    ["DP3 o[COLR], f[COL0], f[TEX0];"],
    ["DP4 o[COLR], f[COL0], f[TEX0];"],
    ["CMP o[COLR], f[COL0], f[TEX0], p[2];"],
    ["LRP o[COLR], f[COL0].x, f[TEX0], p[2];"],
    ["KIL f[COL0];", "MOV o[COLR], f[TEX0];"],
    ["MOV o[DEPR], f[COL0];"],
    ["MOV R0, f[COL0];", "MOV R0.xz, f[TEX0];",
     "MOV o[COLR], R0;"],
    ["MOV o[COLR].yw, f[COL0];"],
    # Ops that read other lanes than they write: every lane they read
    # must stay live through the temporary.
    ["MOV R0, f[TEX0];", "DP3 o[COLR].w, R0, f[COL0];"],
    ["MOV R0, f[TEX0];", "DP4 o[COLR].x, R0.wzyx, p[2];"],
    ["MOV R0, f[TEX0];", "RCP o[COLR].y, R0.z;"],
    ["ADD R1, f[COL0], p[1];", "KIL R1.wzyx;", "MOV o[COLR].x, R1;"],
]


class TestOpcodeEquivalence:
    @pytest.mark.parametrize(
        "lines", _OPCODE_PROGRAMS,
        ids=[" ".join(p)[:40] for p in _OPCODE_PROGRAMS],
    )
    def test_jit_matches_interpreter(self, lines):
        interp, jit = _both(_program(lines), _batch())
        _assert_equal_results(interp, jit)

    def test_tex_fetch_matches(self):
        texture = Texture.from_values(
            np.arange(64, dtype=np.float32) / 64.0, shape=(8, 8)
        )
        count = 64
        coords = np.zeros((count, 4), dtype=np.float32)
        grid = np.arange(count)
        coords[:, 0] = (grid % 8 + 0.5) / 8.0
        coords[:, 1] = (grid // 8 + 0.5) / 8.0
        batch = FragmentBatch(
            count=count,
            attributes={
                FragmentAttrib.TEX0: coords,
                FragmentAttrib.COL0: np.zeros(
                    (count, 4), dtype=np.float32
                ),
            },
        )
        program = _program(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"]
        )
        interp, jit = _both(program, batch, textures={0: texture})
        _assert_equal_results(interp, jit)

    def test_shipped_programs_match(self):
        """The programs the engine actually binds, under a real batch."""
        texture = Texture.from_values(
            np.linspace(0, 1, 64, dtype=np.float32), shape=(8, 8)
        )
        count = 64
        coords = np.zeros((count, 4), dtype=np.float32)
        grid = np.arange(count)
        coords[:, 0] = (grid % 8 + 0.5) / 8.0
        coords[:, 1] = (grid // 8 + 0.5) / 8.0
        batch = FragmentBatch(
            count=count,
            attributes={
                FragmentAttrib.TEX0: coords,
                FragmentAttrib.TEX1: coords,
                FragmentAttrib.COL0: np.full(
                    (count, 4), 0.25, dtype=np.float32
                ),
                FragmentAttrib.WPOS: np.zeros(
                    (count, 4), dtype=np.float32
                ),
            },
        )
        for program in (
            copy_to_depth_program(),
            bit_program(),
            semilinear_program(CompareFunc.GEQUAL),
        ):
            interp, jit = _both(
                program, batch, textures={0: texture, 1: texture}
            )
            _assert_equal_results(interp, jit)


class TestCompilation:
    def test_program_cache_reuses_compilations(self):
        program = _program(["MOV o[COLR], f[COL0];"])
        first = compile_program(program, True)
        second = compile_program(program, True)
        assert first is second
        # Different color need is a different specialization.
        assert compile_program(program, False) is not first

    def test_dce_drops_dead_color_write(self):
        """o[COLR] is dead when the pipeline never looks at color."""
        program = _program([
            "MOV o[DEPR], f[TEX0];",
            "MOV o[COLR], f[COL0];",
        ])
        colored = compile_program(program, True)
        depth_only = compile_program(program, False)
        assert len(colored.instructions) == colored.num_instructions == 2
        assert len(depth_only.instructions) == 1
        # Cost-model fidelity: both charge the full program length.
        assert depth_only.num_instructions == colored.num_instructions

    def test_dce_drops_unread_temporary(self):
        program = _program([
            "MOV R1, f[TEX0];",   # dead: R1 never read
            "MOV o[COLR], f[COL0];",
        ])
        compiled = compile_program(program, True)
        assert len(compiled.instructions) == 1
        assert compiled.num_instructions == 2
        interp, jit = _both(program, _batch())
        _assert_equal_results(interp, jit)

    def test_kernel_summary_renders(self):
        text = kernel_summary(copy_to_depth_program())
        assert "copy-to-depth" in text
        assert "after DCE" in text
        assert "depth-only" in text

    def test_uninitialized_read_matches_interpreter_error(self):
        program = _program(["MOV o[COLR], R3;"])
        with pytest.raises(ProgramExecutionError) as interp_err:
            ProgramInterpreter({}, _params()).run(program, _batch())
        with pytest.raises(ProgramExecutionError) as jit_err:
            BoundKernel(
                compile_program(program, True), {}, _params()
            )
        assert str(interp_err.value) == str(jit_err.value)

    def test_unbound_texture_matches_interpreter_error(self):
        program = _program(
            ["TEX R0, f[TEX0], TEX0, 2D;", "MOV o[COLR], R0;"]
        )
        with pytest.raises(ProgramExecutionError) as interp_err:
            ProgramInterpreter({}, _params()).run(program, _batch())
        with pytest.raises(ProgramExecutionError) as jit_err:
            BoundKernel(
                compile_program(program, True), {}, _params()
            )
        assert str(interp_err.value) == str(jit_err.value)


class TestKernelCache:
    def _texture(self):
        return Texture.from_values(
            np.linspace(0, 1, 64, dtype=np.float32), shape=(8, 8)
        )

    def test_hit_on_identical_state(self):
        cache = KernelCache()
        program = copy_to_depth_program()
        texture = self._texture()
        params = _params()
        first = cache.get_or_bind(program, False, {0: texture}, params)
        second = cache.get_or_bind(program, False, {0: texture}, params)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_parameter_change_rebinds(self):
        cache = KernelCache()
        program = bit_program()
        texture = self._texture()
        params = _params()
        first = cache.get_or_bind(program, True, {0: texture}, params)
        changed = params.copy()
        changed[0] = [1.0, 0.0, 0.0, 0.0]
        second = cache.get_or_bind(
            program, True, {0: texture}, changed
        )
        assert first is not second
        assert cache.misses == 2

    def test_texel_upload_rotates_key(self):
        """satellite 3: a texture-content change (generation bump) must
        miss the cache — retried faults / context switches can never
        replay a kernel bound over stale texels."""
        cache = KernelCache()
        program = copy_to_depth_program()
        texture = self._texture()
        params = _params()
        before = cache.get_or_bind(
            program, False, {0: texture}, params
        )
        generation = texture.generation
        texture.write_texels(0, np.array([0.5], dtype=np.float32))
        assert texture.generation > generation
        after = cache.get_or_bind(program, False, {0: texture}, params)
        assert before is not after
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = KernelCache(capacity=2)
        texture = self._texture()
        programs = [
            copy_to_depth_program(),
            bit_program(),
            semilinear_program(CompareFunc.GEQUAL),
        ]
        for program in programs:
            cache.get_or_bind(program, True, {0: texture}, _params())
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_tex_memo_survives_parameter_rebind(self):
        """The fetch memo lives on the cache, not the kernel: the bit
        search rotates a parameter every pass, and the fetches must
        still be shared across the resulting rebinds."""
        cache = KernelCache()
        program = bit_program()
        texture = self._texture()
        params = _params()
        a = cache.get_or_bind(program, True, {0: texture}, params)
        changed = params.copy()
        changed[0] = [0.25, 0.0, 0.0, 0.0]
        b = cache.get_or_bind(program, True, {0: texture}, changed)
        assert a is not b
        assert a.tex_memo is b.tex_memo is cache.tex_memo


#: Every subset of observed color channels (r, g, b, a).
_OBSERVED = list(itertools.product((False, True), repeat=4))


class TestObservedChannels:
    """Kernels are specialized to the color channels the pipeline
    observes; every observed channel must still equal the
    interpreter's bit for bit, and depth and KIL are always computed."""

    @pytest.mark.parametrize(
        "lines", _OPCODE_PROGRAMS,
        ids=[" ".join(p)[:40] for p in _OPCODE_PROGRAMS],
    )
    def test_observed_channels_match_interpreter(self, lines):
        program = _program(lines)
        batch = _batch()
        parameters = _params()
        interp = ProgramInterpreter({}, parameters).run(program, batch)
        for observed in _OBSERVED:
            jit = BoundKernel(
                compile_program(program, observed), {}, parameters
            ).run(batch)
            for channel in range(4):
                if observed[channel]:
                    assert np.array_equal(
                        interp.channels[channel],
                        jit.channels[channel],
                        equal_nan=True,
                    )
                else:
                    assert jit.channels[channel] is None
            if interp.depth is None:
                assert jit.depth is None
            else:
                assert np.array_equal(
                    interp.depth, jit.depth, equal_nan=True
                )
            assert np.array_equal(interp.killed, jit.killed)
            assert (
                interp.instructions_executed
                == jit.instructions_executed
            )

    def test_alpha_only_test_bit_runs_one_column_per_op(self):
        """The alpha test observes .w only: TEX, MUL and FRC compute one
        column each and the .xyz color move is dropped."""
        compiled = compile_program(bit_program(), (False,) * 3 + (True,))
        assert [lanes for _ins, lanes in compiled.live] == [
            (0,), (0,), (0,), (3,),
        ]
        assert compiled.num_instructions == 5
        assert "4 live columns" in compiled.describe()
        assert "color.w" in compiled.describe()

    def test_component_liveness_through_masked_writes(self):
        program = _program([
            "MOV R0, f[TEX0];",       # only .y survives to be read
            "MOV R0.xzw, f[COL0];",   # overwrites .x, .z, .w
            "MOV o[COLR], R0.yyyy;",
        ])
        compiled = compile_program(program, True)
        lanes = {
            ins.describe(): lanes for ins, lanes in compiled.live
        }
        assert lanes == {
            "MOV R0, f[TEX0];": (1,),
            "MOV o[COLR], R0.y;": (0, 1, 2, 3),
        }
        interp, jit = _both(program, _batch())
        _assert_equal_results(interp, jit)

    def test_kernel_key_follows_observed_channels(self):
        cache = KernelCache()
        texture = Texture.from_values(
            np.linspace(0, 1, 64, dtype=np.float32), shape=(8, 8)
        )
        params = _params()
        alpha = (False, False, False, True)
        first = cache.get_or_bind(bit_program(), alpha, {0: texture}, params)
        again = cache.get_or_bind(bit_program(), alpha, {0: texture}, params)
        full = cache.get_or_bind(bit_program(), True, {0: texture}, params)
        assert first is again
        assert full is not first
        assert cache.hits == 1 and cache.misses == 2

    def test_bool_means_all_or_none(self):
        program = bit_program()
        assert compile_program(program, True) is compile_program(
            program, (True,) * 4
        )
        assert compile_program(program, False) is compile_program(
            program, (False,) * 4
        )


_MNEMONICS = {
    1: ["MOV", "ABS", "FLR", "FRC", "RCP", "EX2", "LG2"],
    2: ["ADD", "SUB", "MUL", "MIN", "MAX", "SLT", "SGE", "DP3", "DP4"],
    3: ["MAD", "CMP", "LRP"],
}
_SWIZZLES = ["", ".x", ".y", ".z", ".w", ".wzyx", ".xxyy", ".zwxy"]
_MASKS = ["", ".x", ".y", ".z", ".w", ".xz", ".yw", ".xyz"]


@st.composite
def _random_program(draw):
    """Straight-line programs over temporaries R0-R2 and o[COLR], with
    swizzles, negation and write masks, optionally KIL and o[DEPR]."""
    defined: list[str] = []
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        arity = draw(st.sampled_from([1, 2, 3]))
        mnemonic = draw(st.sampled_from(_MNEMONICS[arity]))
        operands = []
        for _ in range(arity):
            base = draw(st.sampled_from(
                ["f[COL0]", "f[TEX0]", "p[1]", "{0.5, -2, 0, 3}"]
                + defined
            ))
            sign = draw(st.sampled_from(["", "-"]))
            operands.append(sign + base + draw(st.sampled_from(_SWIZZLES)))
        dest = draw(st.sampled_from(["R0", "R1", "R2", "o[COLR]"]))
        lines.append(
            f"{mnemonic} {dest}{draw(st.sampled_from(_MASKS))}, "
            + ", ".join(operands) + ";"
        )
        if dest.startswith("R") and dest not in defined:
            defined.append(dest)
    if defined and draw(st.booleans()):
        lines.append(f"KIL {draw(st.sampled_from(defined))}"
                     f"{draw(st.sampled_from(_SWIZZLES))};")
    if defined and draw(st.booleans()):
        lines.append(f"MOV o[DEPR].z, {draw(st.sampled_from(defined))}.y;")
    return lines


class TestRandomPrograms:
    @settings(max_examples=150, deadline=None)
    @given(lines=_random_program(), observed=st.sampled_from(_OBSERVED))
    def test_component_liveness_is_unobservable(self, lines, observed):
        program = _program(lines)
        batch = _batch(count=24, seed=len(lines))
        parameters = _params()
        interp = ProgramInterpreter({}, parameters).run(program, batch)
        jit = BoundKernel(
            compile_program(program, observed), {}, parameters
        ).run(batch)
        for channel in range(4):
            if observed[channel]:
                assert _bits(interp.channels[channel]) == _bits(
                    jit.channels[channel]
                ), channel
        if interp.depth is None:
            assert jit.depth is None
        else:
            assert _bits(interp.depth) == _bits(jit.depth)
        assert np.array_equal(interp.killed, jit.killed)


def _bits(values) -> bytes:
    """The exact float32 bit patterns (signed zeros, NaN payloads)."""
    return np.ascontiguousarray(values, dtype=np.float32).tobytes()


def _device_with_texture(side: int):
    device = Device(side, side, jit=True)
    values = np.arange(side * side, dtype=np.float32) % 1000
    texture = Texture.from_values(values, shape=(side, side))
    return device, texture


class TestTexMemo:
    def test_upload_drops_superseded_generations(self):
        """Repeated uploads plus JIT passes: the memo holds exactly one
        generation per texture, and the passes see the new texels."""
        device, texture = _device_with_texture(16)
        memo = device.kernels.tex_memo
        for round_ in range(5):
            device.upload_texels(
                texture, 0, np.full(8, round_ + 1, dtype=np.float32)
            )
            sum_bits = accumulate(device, texture, bits=10)
            copy_to_depth(device, texture, 1.0 / 1024.0)
            assert memo.generations() == {texture.id: texture.generation}
            assert len(memo) == 1  # one live channel, .x
            expected = int(texture.valid_values().astype(np.int64).sum())
            assert sum_bits == expected

    def test_older_generation_is_never_stored(self):
        memo = TexMemo()
        texture = Texture.from_values(np.zeros(4, dtype=np.float32))
        texture.generation = 3
        memo.put(texture, ("a",), np.zeros(4, dtype=np.float32))
        texture.generation = 2
        memo.put(texture, ("b",), np.zeros(4, dtype=np.float32))
        texture.generation = 3
        assert memo.generations() == {texture.id: 3}
        assert len(memo) == 1
        assert memo.get(texture, ("b",)) is None
        assert not memo.get(texture, ("a",)).flags.writeable

    def test_capacity_clears(self):
        memo = TexMemo()
        texture = Texture.from_values(np.zeros(4, dtype=np.float32))
        for key in range(_TEX_MEMO_CAP + 1):
            memo.put(texture, (key,), np.zeros(4, dtype=np.float32))
        assert len(memo) == 1
        assert memo.get(texture, (0,)) is None
        assert memo.get(texture, (_TEX_MEMO_CAP,)) is not None


class TestColumnPasses:
    """A test-bit or copy-to-depth pass allocates no 4-wide float32
    array: its whole transient footprint stays under the 16 bytes a
    fragment one such array would take."""

    SIDE = 128

    def _peak_bytes_per_fragment(self, device, render) -> float:
        render()  # warm the kernel cache and the TEX memo
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - base) / (self.SIDE * self.SIDE)

    def test_test_bit_pass(self):
        device, texture = _device_with_texture(self.SIDE)
        device.clear_stencil(1)

        def render():
            accumulate(device, texture, bits=1, valid_stencil=1)

        assert self._peak_bytes_per_fragment(device, render) < 16

    def test_copy_to_depth_pass(self):
        device, texture = _device_with_texture(self.SIDE)

        def render():
            copy_to_depth(device, texture, 1.0 / 1024.0)

        assert self._peak_bytes_per_fragment(device, render) < 16


class TestStaleKernelChaos:
    def test_fault_retry_after_texel_update_sees_new_values(self):
        """Chaos regression for satellite 3: update texels, then run an
        op whose first attempts die with injected faults.  The retried
        attempt must bind a kernel over the *new* texture generation,
        never replay the pre-update kernel."""
        relation = make_tcpip(600, seed=9)
        executor = ResilientExecutor(
            RetryPolicy(max_attempts=4, base_delay_s=0.0)
        )
        engine = GpuEngine(relation, executor=executor, jit=True)
        baseline = GpuEngine(relation, jit=False)
        # Warm the kernel cache with the original texture contents.
        assert engine.median("data_count").value == \
            baseline.median("data_count").value
        # Now inject faults; every retry must recompute from current
        # state and still agree with the interpreter baseline.
        plan = FaultPlan([
            FaultRule(
                kind=FaultKind.DEVICE_LOST,
                probability=1.0,
                max_fires=2,
            ),
        ])
        with use_faults(plan):
            faulted = engine.median("flow_rate").value
        assert faulted == baseline.median("flow_rate").value

    def test_jit_cache_stats_exposed(self):
        relation = make_tcpip(400, seed=3)
        engine = GpuEngine(relation, jit=True)
        engine.median("data_count")
        cache = engine.device.kernels
        assert cache.misses > 0
        assert cache.hits + cache.misses > 0
