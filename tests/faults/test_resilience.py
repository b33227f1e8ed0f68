"""ResilientExecutor: backoff schedule, fault taxonomy, fallback."""

import numpy as np
import pytest

from repro.core import Column, GpuEngine, Relation
from repro.errors import (
    DepthPrecisionError,
    DeviceLostError,
    FaultConfigError,
    OcclusionTimeoutError,
    QueryError,
    ReadbackError,
    VideoMemoryError,
)
from repro.faults import (
    TRANSIENT_FAULTS,
    FaultPlan,
    FaultRule,
    ResilientExecutor,
    RetryPolicy,
    SimClock,
    current_executor,
    use_executor,
    use_faults,
)
from repro.streams import ContinuousQuery, StreamEngine
from repro.trace import Tracer


class _Flaky:
    """Raises the queued errors in order, then returns ``value``."""

    def __init__(self, errors, value="ok"):
        self.errors = list(errors)
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.value


class TestRetrySchedule:
    def test_transient_faults_retry_through(self):
        clock = SimClock()
        executor = ResilientExecutor(clock=clock)
        fn = _Flaky([DeviceLostError("x"), OcclusionTimeoutError("y")])
        assert executor.run(fn, op="count") == "ok"
        assert fn.calls == 3
        assert clock.sleeps == [0.01, 0.02]  # base, then doubled
        assert executor.stats.retries["count"] == 2
        assert executor.stats.total_fallbacks == 0

    def test_backoff_is_capped(self):
        clock = SimClock()
        executor = ResilientExecutor(
            policy=RetryPolicy(
                max_attempts=5,
                base_delay_s=0.1,
                multiplier=4.0,
                max_delay_s=0.25,
            ),
            clock=clock,
        )
        fn = _Flaky([ReadbackError(str(i)) for i in range(4)])
        assert executor.run(fn) == "ok"
        assert clock.sleeps == [0.1, 0.25, 0.25, 0.25]
        assert clock.slept_s == pytest.approx(0.85)

    def test_exhausted_retries_raise_the_last_fault(self):
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=3)
        )
        fn = _Flaky([VideoMemoryError(str(i)) for i in range(10)])
        with pytest.raises(VideoMemoryError, match="2"):
            executor.run(fn, op="sum")
        assert fn.calls == 3
        assert executor.stats.retries["sum"] == 2
        assert executor.stats.gave_up["sum"] == 1

    def test_persistent_faults_never_retry(self):
        clock = SimClock()
        executor = ResilientExecutor(clock=clock)
        fn = _Flaky([DepthPrecisionError("degraded")])
        with pytest.raises(DepthPrecisionError):
            executor.run(fn, op="median")
        assert fn.calls == 1
        assert clock.sleeps == []
        assert executor.stats.total_retries == 0

    def test_non_gpu_errors_pass_through(self):
        executor = ResilientExecutor()
        fn = _Flaky([QueryError("bad query")])
        with pytest.raises(QueryError):
            executor.run(fn)
        assert fn.calls == 1

    def test_every_transient_kind_is_a_gpu_error(self):
        from repro.errors import GpuError, ReproError

        for fault in TRANSIENT_FAULTS:
            assert issubclass(fault, GpuError)
            assert issubclass(fault, ReproError)
        assert DepthPrecisionError not in TRANSIENT_FAULTS

    def test_retry_and_give_up_events_traced(self):
        tracer = Tracer()
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=2)
        )
        with tracer.span("op"):
            with pytest.raises(DeviceLostError):
                executor.run(
                    _Flaky([DeviceLostError("a"), DeviceLostError("b")]),
                    op="select",
                    tracer=tracer,
                )
        names = [e.name for e in tracer.finish().all_events()]
        assert names == ["retry", "gave-up"]


class TestFallback:
    def test_success_reports_no_fallback(self):
        executor = ResilientExecutor()
        value, error = executor.run_with_fallback(
            lambda: 7, lambda: -1, op="count"
        )
        assert (value, error) == (7, None)
        assert executor.stats.total_fallbacks == 0

    def test_persistent_failure_degrades(self):
        tracer = Tracer()
        executor = ResilientExecutor()
        fn = _Flaky([DepthPrecisionError("depth gone")])
        with tracer.span("query"):
            value, error = executor.run_with_fallback(
                fn, lambda: "cpu answer", op="median", tracer=tracer
            )
        assert value == "cpu answer"
        assert isinstance(error, DepthPrecisionError)
        assert executor.stats.fallbacks["median"] == 1
        events = {
            e.name: e.attrs for e in tracer.finish().all_events()
        }
        assert events["fallback"]["error"] == "DepthPrecisionError"

    def test_transient_failure_retries_before_degrading(self):
        executor = ResilientExecutor(
            policy=RetryPolicy(max_attempts=2)
        )
        fn = _Flaky([DeviceLostError(str(i)) for i in range(5)])
        value, error = executor.run_with_fallback(
            fn, lambda: "cpu answer", op="select"
        )
        assert value == "cpu answer"
        assert isinstance(error, DeviceLostError)
        assert fn.calls == 2  # retried up to budget first

    def test_non_gpu_errors_skip_the_fallback(self):
        executor = ResilientExecutor()
        with pytest.raises(QueryError):
            executor.run_with_fallback(
                _Flaky([QueryError("bad")]), lambda: "never"
            )


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(FaultConfigError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultConfigError, match="delays"):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(FaultConfigError, match="multiplier"):
            RetryPolicy(multiplier=0.5)


class TestProcessWideExecutor:
    def test_use_executor_installs_and_restores(self):
        assert current_executor() is None
        executor = ResilientExecutor()
        with use_executor(executor) as installed:
            assert installed is executor
            assert current_executor() is executor
        assert current_executor() is None


class TestDeviceUsableAfterFault:
    """A device lost mid-pass fails that operation and leaves the
    device usable: the next operation aborts the dangling occlusion
    query and unbinds the interrupted pass's fragment program first."""

    def test_engine_answers_after_a_mid_pass_fault(self):
        values = (np.arange(100) * 7) % 37
        engine = GpuEngine(
            Relation("t", [Column.integer("a", values, bits=8)]),
            shards=1,
        )
        assert engine.executor is None
        plan = FaultPlan([FaultRule("device_lost", start_after=2)])
        with use_faults(plan), pytest.raises(DeviceLostError):
            engine.median("a")
        descending = np.sort(values)[::-1]
        assert engine.median("a").value == int(
            descending[(values.size + 1) // 2 - 1]
        )

    def test_stream_appends_after_a_mid_pass_fault(self):
        engine = StreamEngine([("v", 8)], capacity=50)
        assert engine.executor is None
        engine.register(ContinuousQuery("med", "median", column="v"))
        plan = FaultPlan([FaultRule("device_lost", start_after=2)])
        with use_faults(plan), pytest.raises(DeviceLostError):
            engine.append({"v": np.arange(20)})
        tick = engine.append({"v": np.arange(20)})
        window = np.concatenate([np.arange(20), np.arange(20)])
        descending = np.sort(window)[::-1]
        assert tick.results["med"] == int(
            descending[(window.size + 1) // 2 - 1]
        )

    def test_interrupted_program_does_not_leak_into_another_context(
        self,
    ):
        values = (np.arange(200) * 7) % 251
        engine = GpuEngine(
            Relation("t", [Column.integer("v", values, bits=8)]),
            shards=1,
        )
        first = engine.create_context("first")
        second = engine.create_context("second")
        engine.activate_context(second)
        expected = engine.median("v").value  # caches v's depth copy
        engine.activate_context(first)
        # The SUM's second bit-slice pass is lost with its TestBit
        # program bound; only "first"'s plan cache is dropped.
        plan = FaultPlan([FaultRule("device_lost", start_after=1)])
        with use_faults(plan), pytest.raises(DeviceLostError):
            engine.sum("v")
        engine.activate_context(second)
        # The depth-cache hit skips the copy pass, so the search quads
        # run with whatever program the device still has bound.
        assert engine.median("v").value == expected
