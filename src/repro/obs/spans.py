"""Nestable phase span timers (tokenize / candidate-gen / forward / ...).

A :class:`PhaseProfiler` hands out context-manager spans; nested spans
compose slash-separated paths (``candidate-gen/lm-filter``), so a phase
breakdown distinguishes time spent in the LM filter *inside* candidate
generation from a stand-alone LM pass.  Each span lands as
``phase/<path>_calls`` / ``phase/<path>_seconds`` counters in the attached
:class:`~repro.obs.registry.MetricsRegistry`; with none attached a span
only keeps the path stack.  Pool workers rebind :attr:`PhaseProfiler.registry`
to their own registry, whose snapshot the parent merges like any other
counters.

One profiler is shared across an :class:`~repro.experiments.common.
ExperimentContext`'s attacks, paraphrasers, and victims, so every
table/figure driver can print one coherent phase breakdown.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Times nested span paths into ``phase/*`` registry counters."""

    def __init__(self, registry=None) -> None:
        #: MetricsRegistry receiving the span counters (duck-typed: needs ``inc``)
        self.registry = registry
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        """Time a phase; nested spans extend the path with ``/``."""
        self._stack.append(name)
        path = "/".join(self._stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self.registry is not None:
                self.registry.inc(f"phase/{path}_calls")
                self.registry.inc(f"phase/{path}_seconds", elapsed)
