"""GPU cost model: simulated GeForce FX 5900 Ultra wall-clock.

We cannot time 2004 hardware, so predicted timings are derived from the
*measured* pipeline statistics of each run (passes, fragments, program
instructions, depth writes, bus traffic) priced with a handful of
constants calibrated once against figures the paper itself reports:

========================  =======================================================
constant                  calibration source
========================  =======================================================
450 MHz x 8 pixel pipes   section 5: "process up to 8 pixels at ... 450 MHz";
                          section 6.2.2: 10^6-fragment quad in 0.278 ms
pass overhead 0.07 ms     section 6.2.2: 19 passes ideal 5.28 ms, observed 6.6 ms
depth-write penalty       section 5.4 / figure 2: copying 10^6 records to the
7 clocks/fragment         depth buffer costs ~2.8 ms (slow depth path)
occlusion sync 0.05 ms    section 5.11: counts retrieved "within 0.25 ms"
                          (upper bound; per-pass sync cost sits well inside it)
AGP 8x ~2.1 GB/s          section 5.1: textures transferred over AGP 8X
readback ~266 MB/s        PCI-era readback path (section 6.1, bus asymmetry)
========================  =======================================================

The *structure* of every prediction — how many passes an algorithm takes,
how many fragments each shades, which passes pay the depth-write path —
comes from real executions, so shapes (linearity in records, flatness in
k, pass-count blowups) are emergent rather than assumed.
"""

from __future__ import annotations

import dataclasses

from .counters import COLUMN, PipelineStats


@dataclasses.dataclass(frozen=True)
class GpuTime:
    """A cost breakdown, all in seconds."""

    #: Fragment/raster work inside rendering passes.
    shading_s: float
    #: Fixed per-pass overhead (state change, quad setup, pipeline drain).
    pass_overhead_s: float
    #: Extra time in the slow program-writes-depth path.
    depth_write_s: float
    #: Host -> video memory transfers (AGP).
    upload_s: float
    #: Video memory -> host transfers.
    readback_s: float
    #: Synchronous occlusion-query stalls.
    occlusion_s: float
    #: Buffer-clear overhead.
    clear_s: float

    @property
    def total_s(self) -> float:
        return (
            self.shading_s
            + self.pass_overhead_s
            + self.depth_write_s
            + self.upload_s
            + self.readback_s
            + self.occlusion_s
            + self.clear_s
        )

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    def __add__(self, other: "GpuTime") -> "GpuTime":
        return GpuTime(
            shading_s=self.shading_s + other.shading_s,
            pass_overhead_s=self.pass_overhead_s + other.pass_overhead_s,
            depth_write_s=self.depth_write_s + other.depth_write_s,
            upload_s=self.upload_s + other.upload_s,
            readback_s=self.readback_s + other.readback_s,
            occlusion_s=self.occlusion_s + other.occlusion_s,
            clear_s=self.clear_s + other.clear_s,
        )


ZERO_TIME = GpuTime(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

#: The pass-row columns :meth:`GpuCostModel.time` prices.
_PRICED = [
    COLUMN[name]
    for name in (
        "fragments",
        "program_length",
        "instructions_after_early_z",
        "early_z_eligible",
        "writes_depth_from_program",
    )
]


@dataclasses.dataclass
class GpuCostModel:
    """Prices :class:`~repro.gpu.counters.PipelineStats` in simulated
    GeForce-FX-5900-Ultra seconds."""

    #: Core clock in Hz (paper section 5: 450 MHz).
    core_clock_hz: float = 450e6
    #: Parallel pixel pipes (paper section 5: 8 pixels per clock).
    pixel_pipes: int = 8
    #: Extra clocks per fragment for passes whose program writes o[DEPR]
    #: (the slow depth path, calibrated to the paper's ~2.8 ms/M copy).
    depth_write_penalty_clocks: float = 7.0
    #: Fixed overhead per rendering pass, seconds.
    pass_overhead_s: float = 0.07e-3
    #: Stall for one synchronous occlusion-query result, seconds.
    occlusion_sync_latency_s: float = 0.05e-3
    #: Host -> GPU bandwidth (AGP 8x), bytes/second.
    upload_bandwidth: float = 2.1e9
    #: GPU -> host bandwidth, bytes/second.
    readback_bandwidth: float = 266e6
    #: Fast-clear overhead per clear, seconds.
    clear_overhead_s: float = 0.02e-3
    #: Model early depth culling (paper section 6.2.1).  When disabled,
    #: every fragment pays full program cost regardless of depth outcome.
    early_z: bool = True

    @property
    def fragments_per_second(self) -> float:
        return self.core_clock_hz * self.pixel_pipes

    def time(self, stats: PipelineStats) -> GpuTime:
        """Price a statistics window (pass rows in recorded order, so
        the float clock totals round the same on every run)."""
        shading_clocks = 0.0
        depth_write_clocks = 0.0
        for (
            fragments,
            length,
            after_early_z,
            early_z_eligible,
            writes_depth,
        ) in stats.rows[:, _PRICED].tolist():
            if length == 0:
                # Fixed function: one clock per fragment through the ROPs.
                shading_clocks += fragments
            else:
                if self.early_z and early_z_eligible:
                    shaded = after_early_z // max(length, 1)
                else:
                    shaded = fragments
                rejected = fragments - shaded
                # Shaded fragments pay one clock per instruction; early-z
                # rejected fragments still occupy the raster path for one.
                shading_clocks += shaded * length + rejected
            if writes_depth:
                depth_write_clocks += (
                    fragments * self.depth_write_penalty_clocks
                )
        throughput = self.fragments_per_second
        return GpuTime(
            shading_s=shading_clocks / throughput,
            pass_overhead_s=stats.num_passes * self.pass_overhead_s,
            depth_write_s=depth_write_clocks / throughput,
            upload_s=stats.bytes_uploaded / self.upload_bandwidth,
            readback_s=stats.bytes_read_back / self.readback_bandwidth,
            occlusion_s=(
                stats.occlusion_results * self.occlusion_sync_latency_s
            ),
            clear_s=stats.clears * self.clear_overhead_s,
        )

    def quad_pass_time_s(self, fragments: int, instructions: int = 0) -> float:
        """Analytic time for one pass over ``fragments`` fragments with an
        ``instructions``-long program — the paper's 0.278 ms/Mfrag figure
        generalized.  Used by analyses and sanity checks."""
        per_fragment = max(1, instructions)
        return (
            fragments * per_fragment / self.fragments_per_second
            + self.pass_overhead_s
        )

    #: Instruction length of the CopyToDepth fragment program (TEX,
    #: MUL, MOV into o[DEPR] — section 5.4).
    COPY_PROGRAM_LENGTH = 3

    def copy_pass_time_s(self, fragments: int) -> float:
        """Analytic time for one copy-to-depth pass: the 3-instruction
        copy program plus the slow program-writes-depth path the paper
        isolates in figure 2."""
        clocks = fragments * (
            self.COPY_PROGRAM_LENGTH + self.depth_write_penalty_clocks
        )
        return clocks / self.fragments_per_second + self.pass_overhead_s

    def schedule_time_s(self, schedule, fragments: int) -> float:
        """First-order analytic price of a compiled
        :class:`~repro.plan.passes.PassSchedule` over ``fragments``
        fragments per pass: copies pay the slow depth path, other
        rendering passes price as plain quads, harvests as occlusion
        stalls.  Duck-typed so the plan layer need not be imported."""
        copies = schedule.copy_passes
        quads = schedule.render_passes - copies
        return (
            copies * self.copy_pass_time_s(fragments)
            + quads * self.quad_pass_time_s(fragments)
            + schedule.stalls * self.occlusion_sync_latency_s
        )
