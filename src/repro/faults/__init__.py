"""Fault injection and resilient execution.

The paper's pipeline trusts one fragile device: a single stencil and
depth buffer, occlusion queries that can stall, 256 MB of video memory,
and precision/readback failure surfaces it explicitly flags (sections
5-6).  This package makes that fragility testable and survivable:

* :class:`FaultPlan` — deterministic, seedable schedules of typed
  simulated faults, injected at the substrate's real choke points
  (texture residency, occlusion results, rendering passes, depth
  copies, stencil readbacks);
* :class:`ResilientExecutor` — capped-exponential-backoff retries for
  transient faults plus graceful degradation hooks the engines use to
  fall back to the CPU instead of crashing the query;
* :class:`FaultStats` — one counter object aggregating injections,
  retries, fallbacks, give-ups, and circuit-breaker activity;
* :class:`Deadline` / :func:`use_deadline` — per-query budgets on an
  injectable clock, enforced cooperatively between rendering passes
  (:class:`~repro.errors.QueryTimeoutError`);
* :class:`CircuitBreaker` — trips open after K consecutive unretryable
  GPU failures, routes traffic to the CPU engine, and half-open-probes
  its way back (the :mod:`repro.service` GPU-path guard).

Quick start::

    from repro.faults import (
        FaultKind, FaultPlan, FaultRule, ResilientExecutor, use_faults,
    )

    plan = FaultPlan(
        [FaultRule(FaultKind.DEVICE_LOST, max_fires=2)], seed=7
    )
    db = Database(executor=ResilientExecutor(stats=plan.stats))
    db.register(relation)
    with use_faults(plan):
        result = db.query("SELECT COUNT(*) FROM t WHERE a > 10")
    assert not result.fallback        # two losses, retried through
    print(plan.stats.summary())

See ``docs/FAULTS.md`` for the fault taxonomy and policy knobs.
"""

from __future__ import annotations

import contextlib

from .breaker import BreakerState, CircuitBreaker
from .deadline import (
    Deadline,
    ManualClock,
    MonotonicClock,
    check_deadline,
    current_deadline,
    set_deadline,
    use_deadline,
)
from .plan import (
    SITE_DEPTH_COPY,
    SITE_MEMORY,
    SITE_OCCLUSION,
    SITE_PASS,
    SITE_READBACK,
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultStats,
)
from .resilience import (
    TRANSIENT_FAULTS,
    ResilientExecutor,
    RetryPolicy,
    SimClock,
    WallClock,
    run_guarded,
)

__all__ = [
    "SITE_DEPTH_COPY",
    "SITE_MEMORY",
    "SITE_OCCLUSION",
    "SITE_PASS",
    "SITE_READBACK",
    "TRANSIENT_FAULTS",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "FaultStats",
    "ManualClock",
    "MonotonicClock",
    "ResilientExecutor",
    "RetryPolicy",
    "SimClock",
    "WallClock",
    "active_plan",
    "check_deadline",
    "current_deadline",
    "current_executor",
    "maybe_inject",
    "run_guarded",
    "set_deadline",
    "set_executor",
    "set_plan",
    "use_deadline",
    "use_executor",
    "use_faults",
]

#: The process-wide fault plan, or None (the zero-overhead default:
#: every choke point pays one function call and a None check).
_PLAN: FaultPlan | None = None

#: The process-wide default executor engines pick up at construction
#: when none is passed explicitly (mirrors ``repro.trace.use_tracer``).
_EXECUTOR: ResilientExecutor | None = None


def active_plan() -> FaultPlan | None:
    """The installed fault plan, or None when injection is off."""
    return _PLAN


def set_plan(plan: FaultPlan | None) -> None:
    """Install (or, with None, remove) the process-wide fault plan."""
    global _PLAN
    _PLAN = plan


@contextlib.contextmanager
def use_faults(plan: FaultPlan):
    """Install ``plan`` process-wide for the duration of the block."""
    previous = _PLAN
    set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


def maybe_inject(site: str, tracer=None) -> None:
    """Substrate hook: raise the scheduled fault for ``site``, if any.

    A no-op unless a :class:`FaultPlan` is installed via
    :func:`use_faults` / :func:`set_plan`.
    """
    plan = _PLAN
    if plan is not None:
        plan.fire(site, tracer=tracer)


def current_executor() -> ResilientExecutor | None:
    """The process-wide default executor, or None."""
    return _EXECUTOR


def set_executor(executor: ResilientExecutor | None) -> None:
    """Install (or remove) the default executor picked up by engines
    constructed afterwards."""
    global _EXECUTOR
    _EXECUTOR = executor


@contextlib.contextmanager
def use_executor(executor: ResilientExecutor):
    """Install ``executor`` as the process-wide default for the block."""
    previous = _EXECUTOR
    set_executor(executor)
    try:
        yield executor
    finally:
        set_executor(previous)
