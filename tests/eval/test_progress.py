"""HeartbeatMonitor vitals, registry gauges, and ProgressPrinter output."""

import io
import math

from repro.attacks.base import AttackFailure, AttackResult
from repro.eval.progress import Heartbeat, HeartbeatMonitor, ProgressPrinter
from repro.obs.registry import MetricsRegistry


def _result(success=True):
    return AttackResult(
        original=["a"],
        adversarial=["b"],
        target_label=1,
        original_prob=0.1,
        adversarial_prob=0.6,
        success=success,
        n_queries=3,
    )


def _failure():
    return AttackFailure(
        doc_index=0,
        target_label=1,
        error_type="ValueError",
        error_message="boom",
        traceback="",
        seed=0,
    )


def _beat(done=4, total=4, n_failures=1, rate=2.0, elapsed=2.0):
    return Heartbeat(
        done=done,
        total=total,
        n_failures=n_failures,
        elapsed_seconds=elapsed,
        docs_per_second=rate,
        eta_seconds=0.0,
    )


class TestHeartbeatMonitor:
    def test_update_counts_results_and_failures(self):
        monitor = HeartbeatMonitor(total=3)
        monitor.update(_result())
        beat = monitor.update(_failure())
        assert (beat.done, beat.n_failures, beat.remaining) == (2, 1, 1)

    def test_resumed_docs_do_not_inflate_throughput(self):
        monitor = HeartbeatMonitor(total=10, done=8)
        beat = monitor.snapshot()
        assert beat.done == 8
        assert beat.docs_per_second == 0.0  # no *fresh* documents yet
        assert math.isinf(beat.eta_seconds)

    def test_update_mirrors_run_gauges_into_registry(self):
        registry = MetricsRegistry()
        monitor = HeartbeatMonitor(total=2, registry=registry)
        monitor.update(_result())
        monitor.update(_failure())
        assert registry.gauges["run/done"] == 2.0
        assert registry.gauges["run/total"] == 2.0
        assert registry.gauges["run/failures"] == 1.0
        assert registry.gauges["run/docs_per_second"] > 0.0

    def test_forward_docs_come_from_the_victim_registry(self):
        metrics = MetricsRegistry()
        monitor = HeartbeatMonitor(total=1, metrics=metrics)
        assert monitor.snapshot().n_forward_docs == 0
        metrics.inc("forward/docs", 12)
        assert monitor.update(_result()).n_forward_docs == 12

    def test_finish_calls_callback_finish_when_present(self):
        calls = []

        class Callback:
            def __call__(self, beat):
                calls.append(("beat", beat.done))

            def finish(self, beat):
                calls.append(("finish", beat.done))

        monitor = HeartbeatMonitor(total=1, callback=Callback())
        monitor.update(_result())
        beat = monitor.finish()
        assert calls == [("beat", 1), ("finish", 1)]
        assert beat.done == 1

    def test_finish_tolerates_plain_callables(self):
        monitor = HeartbeatMonitor(total=1, callback=lambda beat: None)
        monitor.update(_result())
        assert monitor.finish().done == 1  # no AttributeError

    def test_finish_without_callback(self):
        assert HeartbeatMonitor(total=0).finish().done == 0


class TestProgressPrinter:
    def test_throttles_between_intervals(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_seconds=3600.0, stream=stream)
        printer(_beat(done=1, total=9, n_failures=0))  # first: due (never emitted)
        printer(_beat(done=2, total=9, n_failures=0))  # throttled
        assert stream.getvalue().count("[attack]") == 1

    def test_final_document_always_prints(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_seconds=3600.0, stream=stream)
        printer(_beat(done=1, total=2, n_failures=0))
        printer(_beat(done=2, total=2, n_failures=0))
        assert stream.getvalue().count("[attack]") == 2

    def test_new_failure_always_prints(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_seconds=3600.0, stream=stream)
        printer(_beat(done=1, total=9, n_failures=0))
        printer(_beat(done=2, total=9, n_failures=1))
        out = stream.getvalue()
        assert out.count("[attack]") == 2
        assert "1 failed" in out

    def test_finish_line_is_unthrottled_and_complete(self):
        stream = io.StringIO()
        printer = ProgressPrinter(interval_seconds=3600.0, stream=stream)
        printer(_beat(done=1, total=4, n_failures=0))  # consumes the throttle
        printer.finish(_beat(done=4, total=4, n_failures=1, rate=2.0, elapsed=2.0))
        out = stream.getvalue()
        assert "finished 4/4 docs" in out
        assert "1 failed" in out
        assert "2.00 docs/s" in out
        assert "2.0s elapsed" in out

    def test_monitor_finish_drives_printer_summary(self):
        stream = io.StringIO()
        monitor = HeartbeatMonitor(
            total=1, callback=ProgressPrinter(interval_seconds=3600.0, stream=stream)
        )
        monitor.update(_result())
        monitor.finish()
        assert "finished 1/1 docs" in stream.getvalue()
