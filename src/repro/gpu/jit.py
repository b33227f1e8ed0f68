"""Fragment-program JIT: fused, vectorized numpy kernels over columns.

The interpreter (:mod:`repro.gpu.interpreter`) walks ``!!FP1.0``
instructions per pass from Python — per-instruction dispatch, operand
decoding and 4-wide swizzle copies on every draw.  This module compiles
each program **once** into a :class:`BoundKernel`: a chain of
per-instruction step closures with operand readers resolved at bind
time (swizzles baked in, parameter and literal components turned into
float32 scalars).

Registers are held as **columns**: one float32 ``(count,)`` array (or a
scalar, for values that are the same on every fragment) per component.
A backward liveness pass works per *component*, not per instruction:
an instruction runs only for the destination components some later
instruction or pipeline stage reads, and only those.  The color
channels the pipeline observes — ``.w`` for the alpha test plus every
channel the color mask leaves open — seed the liveness, so the
test-bit program, whose alpha is all the pipeline reads, computes one
``MUL``/``FRC`` column instead of four.

Two cache layers:

* a module-level **program cache** keyed by ``(program text, observed
  channels)`` holds the liveness result — the part of compilation
  independent of bound resources;
* a per-device :class:`KernelCache` (LRU) holds bound kernels keyed by
  program text, observed channels, the ``(id, generation)`` of every
  texture the program samples, and the bytes of every parameter row it
  reads.  The key mirrors the plan-cache invalidation rules: a retried
  fault, a context switch, a texel upload or a parameter change can
  never replay a stale compiled kernel — the changed generation or
  bytes miss the cache and force a fresh bind.

Texture fetches over rasterized quads depend only on geometry, so they
are memoized per channel in a :class:`TexMemo` shared by every kernel
of a device; it keeps only each texture's newest generation.

**Cost-model fidelity:** liveness changes wall-clock work only.
``instructions_executed`` still charges the *full* program length for
every fragment, exactly like the interpreter (the simulated hardware
has no dead-code eliminator), so modeled timings are backend-invariant
and the differential matrix can pin JIT == interpreter bit-for-bit.
Every live component is computed with the interpreter's numpy ops on
the same float32 values, so results are bit-identical too.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from .. import sanitize
from ..errors import ProgramExecutionError
from .assembler import FragmentProgram
from .interpreter import FragmentBatch, ProgramResult
from .isa import (
    NUM_TEMPORARIES,
    FragmentAttrib,
    Instruction,
    Opcode,
    OutputRegister,
    RegisterFile,
    SourceOperand,
)
from .raster import TEXCOORD_ATTRIBS
from .texture import Texture

def jit_requested() -> bool:
    """The default fragment-program backend of an engine's device
    (``GpuEngine`` and ``StreamEngine``): the JIT, unless
    ``REPRO_JIT=0``."""
    return os.environ.get("REPRO_JIT", "1") != "0"


_LANES = (0, 1, 2, 3)

#: Register slot of ``o[COLR]``, after the temporaries: color writes
#: follow the same masked-write rules as temporary writes.
_COLOR_SLOT = NUM_TEMPORARIES

#: A component of a register a masked write created: the interpreter
#: zero-fills the components the mask leaves out.
_ZERO = np.float32(0.0)

#: Cap on the columns held by a :class:`TexMemo`.
_TEX_MEMO_CAP = 64

#: Per-component ops, applied to the swizzled source components of one
#: destination lane (the interpreter's numpy ops, so bit-identical).
_LANEWISE = {
    Opcode.MOV: lambda a: a,
    Opcode.ABS: np.abs,
    Opcode.FLR: np.floor,
    Opcode.FRC: lambda a: a - np.floor(a),
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
    Opcode.SLT: lambda a, b: (a < b).astype(np.float32),
    Opcode.SGE: lambda a, b: (a >= b).astype(np.float32),
    Opcode.MAD: lambda a, b, c: a * b + c,
    Opcode.CMP: lambda a, b, c: np.where(a < 0.0, b, c).astype(
        np.float32
    ),
    Opcode.LRP: lambda a, b, c: a * b + (np.float32(1.0) - a) * c,
}

#: Ops that read only the ``.x`` lane of their source and replicate one
#: scalar result into every destination component.
_SCALAR_OPS = frozenset({Opcode.RCP, Opcode.EX2, Opcode.LG2})


def _observed_channels(observed) -> tuple[bool, bool, bool, bool]:
    """Normalize the color channels a pass observes: four flags
    (r, g, b, a), or one bool for all or none."""
    if isinstance(observed, bool):
        return (observed,) * 4
    flags = tuple(bool(flag) for flag in observed)
    if len(flags) != 4:
        raise ProgramExecutionError(
            f"observed channels need 4 flags, got {len(flags)}"
        )
    return flags


def _source_lanes(opcode: Opcode, lanes: tuple[int, ...]) -> tuple:
    """The operand lanes (pre-swizzle) an instruction reads to produce
    destination ``lanes``."""
    if opcode is Opcode.KIL:
        return _LANES
    if opcode is Opcode.TEX:
        return (0, 1)  # the (s, t) coordinates
    if opcode in _SCALAR_OPS:
        return (0,)
    if opcode is Opcode.DP3:
        return (0, 1, 2)
    if opcode is Opcode.DP4:
        return _LANES
    return lanes


def _slot(dest) -> int | None:
    """Register slot a destination writes; ``None`` for ``o[DEPR]``."""
    if dest.file is RegisterFile.TEMPORARY:
        return dest.index
    if dest.output is OutputRegister.COLR:
        return _COLOR_SLOT
    return None


def _liveness(
    instructions: tuple[Instruction, ...],
    observed: tuple[bool, bool, bool, bool],
) -> tuple[tuple[Instruction, tuple[int, ...]], ...]:
    """Backward per-component liveness: each kept instruction paired
    with the destination components it must compute.

    ``KIL`` is always live and ``o[DEPR]`` writes always compute ``.z``
    (side effects).  A register component — ``o[COLR]`` counts as one
    more register, whose observed channels are live at the end — is
    live while a later kept instruction reads it; a write ends the
    liveness of the components its mask covers.  Instructions with no
    live component are dropped.
    """
    live = [set() for _ in range(NUM_TEMPORARIES)]
    live.append({c for c in _LANES if observed[c]})  # o[COLR]
    kept: list[tuple[Instruction, tuple[int, ...]]] = []
    for instruction in reversed(instructions):
        lanes: tuple[int, ...] = ()
        if instruction.opcode is not Opcode.KIL:
            slot = _slot(instruction.dest)
            if slot is None:  # o[DEPR] — the .z component carries the depth
                lanes = (2,)
            else:
                flags = instruction.dest.mask.flags
                lanes = tuple(c for c in _LANES if flags[c] and c in live[slot])
                live[slot].difference_update(c for c in _LANES if flags[c])
            if not lanes:
                continue
        read = _source_lanes(instruction.opcode, lanes)
        for src in instruction.sources:
            if src.file is RegisterFile.TEMPORARY:
                live[src.index].update(
                    src.swizzle.components[lane] for lane in read
                )
        kept.append((instruction, lanes))
    kept.reverse()
    return tuple(kept)


class CompiledProgram:
    """The resource-independent half of compilation: the live
    instructions, each with its live components, plus static facts
    every binding shares."""

    __slots__ = (
        "name",
        "source",
        "observed",
        "num_instructions",
        "all_instructions",
        "live",
        "instructions",
        "texture_units",
        "param_indices",
        "writes_color",
    )

    def __init__(self, program: FragmentProgram, observed):
        self.name = program.name
        self.source = program.source
        self.observed = _observed_channels(observed)
        #: Full program length — what the cost model charges per fragment.
        self.num_instructions = program.num_instructions
        #: Full instruction list (bind-time validation walks it so
        #: error ordering matches the interpreter exactly).
        self.all_instructions = tuple(program.instructions)
        #: ``(instruction, live destination components)`` per kept
        #: instruction, in program order.
        self.live = _liveness(self.all_instructions, self.observed)
        self.instructions = tuple(ins for ins, _lanes in self.live)
        self.texture_units = tuple(sorted(program.texture_units))
        params: set[int] = set()
        for instruction in self.all_instructions:
            for src in instruction.sources:
                if src.file is RegisterFile.PARAMETER:
                    params.add(src.index)
        self.param_indices = tuple(sorted(params))
        #: Whether the program writes o[COLR] at all: if not, the
        #: primary color passes through; if so, channels no kept write
        #: reached read as 0, as in the interpreter.
        self.writes_color = any(
            ins.opcode is not Opcode.KIL and _slot(ins.dest) == _COLOR_SLOT
            for ins in self.all_instructions
        )

    def describe(self) -> str:
        """One-line kernel summary for explain output."""
        columns = sum(len(lanes) for _ins, lanes in self.live)
        if not any(self.observed):
            kind = "depth-only"
        elif all(self.observed):
            kind = "color"
        else:
            kind = "color." + "".join(
                "xyzw"[c] for c in _LANES if self.observed[c]
            )
        return (
            f"{self.name}: {len(self.instructions)}/"
            f"{self.num_instructions} ops after DCE, {columns} live "
            f"columns, {kind}"
        )


#: Program-level compile cache (resource-independent, process-wide).
#: Shared by every device — shard pool workers compile concurrently —
#: so all access goes through ``_PROGRAM_LOCK``.
_PROGRAM_CACHE: dict[tuple, CompiledProgram] = {}
_PROGRAM_CACHE_CAP = 128
_PROGRAM_LOCK = sanitize.TrackedLock()


def program_cached(program: FragmentProgram, observed) -> bool:
    """True when ``compile_program`` would hit the process-wide cache."""
    key = (program.source, _observed_channels(observed))
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        return key in _PROGRAM_CACHE


def compile_program(program: FragmentProgram, observed) -> CompiledProgram:
    """Compile (or fetch the cached compilation of) one program for the
    color channels the pipeline observes (see
    :func:`_observed_channels`)."""
    key = (program.source, _observed_channels(observed))
    with _PROGRAM_LOCK:
        sanitize.note(_PROGRAM_CACHE, "entries", sanitize.READ)
        compiled = _PROGRAM_CACHE.get(key)
        if compiled is None:
            sanitize.note(_PROGRAM_CACHE, "entries", sanitize.WRITE)
            if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_CAP:
                _PROGRAM_CACHE.clear()
            compiled = CompiledProgram(program, key[1])
            _PROGRAM_CACHE[key] = compiled
    return compiled


def kernel_summary(program: FragmentProgram, observed=False) -> str:
    """Explain helper: the compiled-kernel one-liner for a program."""
    return compile_program(program, observed).describe()


def _validate(
    compiled: CompiledProgram, textures: dict[int, Texture]
) -> None:
    """Bind-time checks over the *full* instruction list, in execution
    order, so the raised errors match the interpreter's exactly."""
    defined: set[int] = set()
    for instruction in compiled.all_instructions:
        for src in instruction.sources:
            if (
                src.file is RegisterFile.TEMPORARY
                and src.index not in defined
            ):
                raise ProgramExecutionError(
                    f"{compiled.name}: read of uninitialized "
                    f"R{src.index}"
                )
        if instruction.opcode is Opcode.TEX:
            unit = instruction.texture_unit
            if textures.get(unit) is None:
                raise ProgramExecutionError(
                    f"TEX references unit {unit} but no texture is "
                    "bound"
                )
        if (
            instruction.opcode is not Opcode.KIL
            and instruction.dest.file is RegisterFile.TEMPORARY
        ):
            defined.add(instruction.dest.index)


class TexMemo:
    """Geometry-keyed TEX fetches, one column per texture channel.

    Entries are grouped by texture id and hold only that texture's
    newest generation: storing a fetch of a newer generation drops the
    superseded ones, and a fetch of an older generation is never
    stored.  At ``_TEX_MEMO_CAP`` columns the whole memo is cleared.
    """

    def __init__(self):
        #: texture id -> (generation, {key: read-only column})
        self._textures: dict[int, tuple[int, dict]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def generations(self) -> dict[int, int]:
        """The one generation held per texture id."""
        return {tid: gen for tid, (gen, _cols) in self._textures.items()}

    def get(self, texture: Texture, key: tuple) -> np.ndarray | None:
        entry = self._textures.get(texture.id)
        if entry is None or entry[0] != texture.generation:
            return None
        return entry[1].get(key)

    def put(self, texture: Texture, key: tuple, column: np.ndarray) -> None:
        generation = texture.generation
        entry = self._textures.get(texture.id)
        if entry is not None and entry[0] > generation:
            return
        if self._size >= _TEX_MEMO_CAP:
            self.clear()
            entry = None
        if entry is None or entry[0] < generation:
            if entry is not None:
                self._size -= len(entry[1])
            entry = self._textures[texture.id] = (generation, {})
        column.setflags(write=False)
        self._size += key not in entry[1]
        entry[1][key] = column

    def clear(self) -> None:
        self._textures.clear()
        self._size = 0


class _Env:
    """Mutable per-run register state threaded through the steps."""

    __slots__ = ("batch", "count", "regs", "killed", "out_depth")

    def __init__(self, batch: FragmentBatch):
        self.batch = batch
        self.count = batch.count
        #: Per slot (temporaries, then o[COLR]): None until written,
        #: then four components — a column, a scalar, or None for a
        #: component no later step reads.
        self.regs: list = [None] * (NUM_TEMPORARIES + 1)
        self.killed = np.zeros(batch.count, dtype=bool)
        self.out_depth = None


def _make_reader(src: SourceOperand, parameters: np.ndarray):
    """``read(env, lane)``: the operand's swizzled, negated component
    for destination ``lane``, resolved at bind time.

    Temporary and fragment components are columns; parameter and
    literal components are float32 scalars (the same value on every
    fragment, so no broadcast array is built).
    """
    swizzle = src.swizzle.components
    negate = src.negate
    if src.file is RegisterFile.TEMPORARY:
        index = src.index

        def read_temp(env, lane):
            register = env.regs[index]
            # None: only the zero fill of a dropped masked write is read.
            value = _ZERO if register is None else register[swizzle[lane]]
            return -value if negate else value

        return read_temp
    if src.file is RegisterFile.FRAGMENT:
        attrib = src.attrib

        def read_attrib(env, lane):
            value = env.batch.column(attrib, swizzle[lane])
            return -value if negate else value

        return read_attrib
    if src.file is RegisterFile.PARAMETER:
        row = parameters[src.index].astype(np.float32)
    else:  # LITERAL
        row = np.asarray(src.literal, dtype=np.float32)
    if negate:
        row = -row
    values = [row[c] for c in swizzle]
    return lambda env, lane: values[lane]


def _contiguous(value, count: int) -> np.ndarray:
    """A full contiguous float32 column — the layout the interpreter's
    swizzle copies give the scalar ops' ``.x`` operand."""
    return np.ascontiguousarray(
        np.broadcast_to(value, (count,)), dtype=np.float32
    )


def _fortran(read, env, width: int) -> np.ndarray:
    """The first ``width`` operand lanes as a Fortran-ordered
    ``(count, 4)`` array (the trailing lanes unread)."""
    out = np.empty((env.count, 4), dtype=np.float32, order="F")
    for lane in range(width):
        out[:, lane] = read(env, lane)
    return out


def _make_compute(
    kernel: "BoundKernel",
    instruction: Instruction,
    lanes: tuple[int, ...],
    textures: dict[int, Texture],
    parameters: np.ndarray,
):
    """``compute(env)``: the four destination components, computed for
    ``lanes`` only (``None`` elsewhere).  Destination handling lives in
    :func:`_make_step`."""
    op = instruction.opcode
    readers = [_make_reader(src, parameters) for src in instruction.sources]

    if op is Opcode.TEX:
        (read,) = readers
        texture = textures[instruction.texture_unit]
        width, height = texture.width, texture.height
        src = instruction.sources[0]
        # Texture coordinates are a pure function of quad geometry (the
        # rasterizer gives TEX0..TEX3 the same ones), so a fetched
        # channel is memoized per (geometry, coordinate operand,
        # channel) under its texture's generation.  The memo lives on
        # the KernelCache — shared across bindings, so a parameter
        # change (which rotates the kernel key every bit-search pass)
        # still reuses fetches.
        memoizable = (
            src.file is RegisterFile.FRAGMENT
            and src.attrib in TEXCOORD_ATTRIBS
        )
        memo = kernel.tex_memo
        operand = (src.attrib, src.swizzle.components[:2], src.negate)

        def compute_tex(env):
            token = env.batch.geometry_token if memoizable else None
            values = [None] * 4
            missing = []
            for channel in lanes:
                if token is not None:
                    values[channel] = memo.get(
                        texture, (token, operand, channel)
                    )
                if values[channel] is None:
                    missing.append(channel)
            if not missing:
                return values
            s = np.broadcast_to(read(env, 0), (env.count,))
            t = np.broadcast_to(read(env, 1), (env.count,))
            u = np.clip(
                np.floor(s.astype(np.float64) * width), 0, width - 1
            ).astype(np.int64)
            v = np.clip(
                np.floor(t.astype(np.float64) * height), 0, height - 1
            ).astype(np.int64)
            texels = v * width + u
            for channel in missing:
                column = texture.fetch_channel(texels, channel)
                if token is not None:
                    memo.put(texture, (token, operand, channel), column)
                values[channel] = column
            return values

        return compute_tex

    if op in _SCALAR_OPS:
        (read,) = readers

        def compute_scalar(env):
            a = _contiguous(read(env, 0), env.count)
            if op is Opcode.RCP:
                with np.errstate(divide="ignore"):
                    scalar = np.float32(1.0) / a
            elif op is Opcode.EX2:
                scalar = np.exp2(a).astype(np.float32)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    scalar = np.log2(a).astype(np.float32)
            return [scalar if lane in lanes else None for lane in _LANES]

        return compute_scalar

    if op in (Opcode.DP3, Opcode.DP4):
        read_a, read_b = readers
        width = 3 if op is Opcode.DP3 else 4

        def compute_dot(env):
            # The interpreter's swizzle reads are fancy-indexed copies,
            # which numpy lays out in Fortran order; einsum accumulates
            # in a layout-dependent order, so the operands must match
            # that layout for bit-identity.
            a = _fortran(read_a, env, width)
            b = _fortran(read_b, env, width)
            scalar = np.einsum(
                "ij,ij->i", a[:, :width], b[:, :width]
            ).astype(np.float32)
            return [scalar if lane in lanes else None for lane in _LANES]

        return compute_dot

    fn = _LANEWISE.get(op)
    if fn is None:
        raise ProgramExecutionError(
            f"unhandled opcode {op.mnemonic}"
        )  # pragma: no cover - defensive
    # Lanes whose swizzled source components coincide compute once.
    groups: dict[tuple, list[int]] = {}
    for lane in lanes:
        key = tuple(src.swizzle.components[lane] for src in instruction.sources)
        groups.setdefault(key, []).append(lane)
    plan = [(same[0], same) for same in groups.values()]

    def compute_lanes(env):
        values = [None] * 4
        for lane, same in plan:
            value = fn(*(read(env, lane) for read in readers))
            for other in same:
                values[other] = value
        return values

    return compute_lanes


def _make_step(
    kernel: "BoundKernel",
    instruction: Instruction,
    lanes: tuple[int, ...],
    textures: dict[int, Texture],
    parameters: np.ndarray,
):
    """Compute + destination write fused into one closure."""
    if instruction.opcode is Opcode.KIL:
        read = _make_reader(instruction.sources[0], parameters)
        # Any negative component kills; a repeated component adds
        # nothing, so each distinct one is tested once.
        swizzle = instruction.sources[0].swizzle.components
        distinct = [swizzle.index(c) for c in dict.fromkeys(swizzle)]

        def step_kil(env):
            for lane in distinct:
                env.killed |= read(env, lane) < 0.0

        return step_kil

    compute = _make_compute(kernel, instruction, lanes, textures, parameters)
    slot = _slot(instruction.dest)
    if slot is None:

        def step_depth(env):
            env.out_depth = np.broadcast_to(compute(env)[2], (env.count,))

        return step_depth

    full = all(instruction.dest.mask.flags)

    def step_write(env):
        values = compute(env)
        register = env.regs[slot]
        if full:
            register = [None] * 4
        elif register is None:
            register = [_ZERO] * 4
        for lane in lanes:
            register[lane] = values[lane]
        env.regs[slot] = register

    return step_write


class BoundKernel:
    """One program fused into step closures over concrete resources.

    Drop-in for :meth:`ProgramInterpreter.run`: identical results on
    every observed channel, identical errors, identical
    ``instructions_executed``.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        textures: dict[int, Texture],
        parameters: np.ndarray,
        tex_memo: TexMemo | None = None,
    ):
        _validate(compiled, textures)
        self.compiled = compiled
        self.name = compiled.name
        #: Memoized TEX fetches, usually the owning KernelCache's.
        self.tex_memo = tex_memo if tex_memo is not None else TexMemo()
        self._observed = compiled.observed
        self._writes_color = compiled.writes_color
        self._num_instructions = compiled.num_instructions
        self._steps = [
            _make_step(self, instruction, lanes, textures, parameters)
            for instruction, lanes in compiled.live
        ]

    def run(self, batch: FragmentBatch) -> ProgramResult:
        env = _Env(batch)
        for step in self._steps:
            step(env)
        color = env.regs[_COLOR_SLOT]
        channels = []
        for channel in _LANES:
            if not self._observed[channel]:
                channels.append(None)
                continue
            if color is not None:
                value = color[channel]
            elif self._writes_color:
                value = _ZERO
            else:
                # A program that never writes o[COLR] passes the
                # interpolated primary color through.
                value = batch.column(FragmentAttrib.COL0, channel)
            channels.append(np.broadcast_to(value, (batch.count,)))
        return ProgramResult(
            channels=tuple(channels),
            depth=env.out_depth,
            killed=env.killed,
            instructions_executed=self._num_instructions * batch.count,
        )


class KernelCache:
    """Per-device LRU of bound kernels.

    The key — program text, observed color channels, every sampled
    texture's ``(id, generation)``, the bytes of every parameter row
    read — mirrors the plan-cache invalidation rules: content changes
    rotate the key, so a retried fault or context switch can never
    replay a stale kernel.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._kernels: OrderedDict = OrderedDict()
        #: Shared geometry-keyed TEX-fetch memo (see :class:`TexMemo`).
        self.tex_memo = TexMemo()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.program_compiles = 0

    def __len__(self) -> int:
        return len(self._kernels)

    def key_for(
        self,
        program: FragmentProgram,
        observed,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> tuple:
        compiled = compile_program(program, observed)
        tex_key = tuple(
            (unit, textures[unit].id, textures[unit].generation)
            for unit in compiled.texture_units
            if textures.get(unit) is not None
        )
        if compiled.param_indices:
            param_key = parameters[
                list(compiled.param_indices)
            ].tobytes()
        else:
            param_key = b""
        return (program.source, compiled.observed, tex_key, param_key)

    def get_or_bind(
        self,
        program: FragmentProgram,
        observed,
        textures: dict[int, Texture],
        parameters: np.ndarray,
    ) -> BoundKernel:
        if not program_cached(program, observed):
            self.program_compiles += 1
        key = self.key_for(program, observed, textures, parameters)
        kernel = self._kernels.get(key)
        if kernel is not None:
            self.hits += 1
            self._kernels.move_to_end(key)
            return kernel
        self.misses += 1
        kernel = BoundKernel(
            compile_program(program, observed),
            dict(textures),
            parameters,
            tex_memo=self.tex_memo,
        )
        self._kernels[key] = kernel
        if len(self._kernels) > self.capacity:
            self._kernels.popitem(last=False)
            self.evictions += 1
        return kernel

    def clear(self) -> None:
        self._kernels.clear()
