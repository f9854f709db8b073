"""Progress heartbeats for long corpus attack runs.

``evaluate_attack(..., progress=...)`` invokes the callback with a
:class:`Heartbeat` each time a document finishes (in completion order —
under the process pool that is not input order).  The callback gets the
run's vital signs: documents done, structured failures so far, throughput
and the ETA derived from it, plus the ``forward/docs`` counter of the
victim's :class:`~repro.obs.registry.MetricsRegistry` when it has one.

Any callable accepting a :class:`Heartbeat` works; :class:`ProgressPrinter`
is the batteries-included stderr reporter used by the experiment drivers
(``ExperimentContext(progress=ProgressPrinter())``).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

from repro.attacks.base import AttackFailure, AttackResult

__all__ = ["Heartbeat", "HeartbeatMonitor", "ProgressPrinter"]


@dataclass
class Heartbeat:
    """One progress snapshot of a corpus attack run."""

    done: int  # documents finished (results + failures), incl. resumed ones
    total: int  # documents the run will attack in total
    n_failures: int  # structured AttackFailure records so far
    elapsed_seconds: float  # wall-time since the run (not the resume) started
    docs_per_second: float  # throughput over this run's freshly attacked docs
    eta_seconds: float  # remaining / throughput; inf until throughput is known
    n_forward_docs: int = 0  # the victim registry's forward/docs, when attached

    @property
    def remaining(self) -> int:
        return self.total - self.done


class HeartbeatMonitor:
    """Tracks run vitals and emits :class:`Heartbeat` snapshots.

    ``done`` pre-counts documents restored from a journal on resume so the
    heartbeat reflects overall run progress, but throughput/ETA are
    computed over freshly attacked documents only — resumed documents cost
    no wall-time and must not inflate docs/s.

    ``metrics`` is the victim's registry, read for ``n_forward_docs``;
    ``registry`` is the run's registry, which receives the ``run/*`` gauges.
    """

    def __init__(
        self,
        total: int,
        callback=None,
        done: int = 0,
        n_failures: int = 0,
        metrics=None,
        registry=None,
        sampler=None,
    ) -> None:
        self.total = total
        self.callback = callback
        self.done = done
        self.n_failures = n_failures
        self.metrics = metrics
        #: optional MetricsRegistry mirror: vitals become ``run/*`` gauges
        self.registry = registry
        #: optional TimeSeriesSampler riding the heartbeat cadence: serial
        #: runs get one throttled series point per completed document
        #: without any extra thread
        self.sampler = sampler
        self._fresh = 0
        self._start = time.perf_counter()
        #: wall-clock time of the last completed document (/healthz
        #: staleness is measured against this)
        self.last_update_time = time.time()

    def update(self, outcome: AttackResult | AttackFailure) -> Heartbeat:
        """Record one freshly completed document and fire the callback."""
        self.done += 1
        self._fresh += 1
        self.last_update_time = time.time()
        if isinstance(outcome, AttackFailure):
            self.n_failures += 1
        beat = self.snapshot()
        if self.registry is not None:
            self.registry.set_gauge("run/done", beat.done)
            self.registry.set_gauge("run/total", beat.total)
            self.registry.set_gauge("run/failures", beat.n_failures)
            self.registry.set_gauge("run/docs_per_second", beat.docs_per_second)
        if self.sampler is not None:
            self.sampler.maybe_sample()
        if self.callback is not None:
            self.callback(beat)
        return beat

    def finish(self) -> Heartbeat:
        """Signal run completion to callbacks that care (duck-typed).

        A callback exposing ``finish(beat)`` — like
        :class:`ProgressPrinter` — gets one final un-throttled call; plain
        lambdas and test callbacks are unaffected.
        """
        beat = self.snapshot()
        callback_finish = getattr(self.callback, "finish", None)
        if callback_finish is not None:
            callback_finish(beat)
        return beat

    def snapshot(self) -> Heartbeat:
        elapsed = time.perf_counter() - self._start
        rate = self._fresh / elapsed if elapsed > 0.0 and self._fresh else 0.0
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0.0 else (0.0 if remaining == 0 else math.inf)
        return Heartbeat(
            done=self.done,
            total=self.total,
            n_failures=self.n_failures,
            elapsed_seconds=elapsed,
            docs_per_second=rate,
            eta_seconds=eta,
            n_forward_docs=(
                int(self.metrics.counter("forward/docs")) if self.metrics is not None else 0
            ),
        )


class ProgressPrinter:
    """Throttled one-line-per-heartbeat stderr reporter.

    Prints at most every ``interval_seconds`` (default 5), plus always on
    the final document and on every new failure, so a quiet long run stays
    quiet and a failing one is loud immediately.
    """

    def __init__(self, interval_seconds: float = 5.0, stream=None) -> None:
        self.interval_seconds = interval_seconds
        self.stream = stream if stream is not None else sys.stderr
        self._last_emit = -math.inf
        self._last_failures = 0

    def __call__(self, beat: Heartbeat) -> None:
        now = time.perf_counter()
        due = now - self._last_emit >= self.interval_seconds
        finished = beat.done >= beat.total
        failed = beat.n_failures > self._last_failures
        if not (due or finished or failed):
            return
        self._last_emit = now
        self._last_failures = beat.n_failures
        eta = "?" if math.isinf(beat.eta_seconds) else f"{beat.eta_seconds:.0f}s"
        print(
            f"[attack] {beat.done}/{beat.total} docs"
            f" | {beat.n_failures} failed"
            f" | {beat.docs_per_second:.2f} docs/s"
            f" | ETA {eta}",
            file=self.stream,
            flush=True,
        )

    def finish(self, beat: Heartbeat) -> None:
        """Final un-throttled summary line, flushed so piped logs end clean."""
        print(
            f"[attack] finished {beat.done}/{beat.total} docs"
            f" | {beat.n_failures} failed"
            f" | {beat.docs_per_second:.2f} docs/s"
            f" | {beat.elapsed_seconds:.1f}s elapsed",
            file=self.stream,
            flush=True,
        )
