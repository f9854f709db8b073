"""PhaseProfiler: nested span paths land as ``phase/*`` registry counters."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PhaseProfiler


def phases(registry: MetricsRegistry) -> set[str]:
    """Span paths recorded in ``registry`` (from their ``_calls`` counters)."""
    return {
        name[len("phase/") : -len("_calls")]
        for name in registry.counters
        if name.startswith("phase/") and name.endswith("_calls")
    }


class TestSpanNesting:
    def test_flat_span_accumulates(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        with prof.span("tokenize"):
            pass
        with prof.span("tokenize"):
            pass
        assert reg.counter("phase/tokenize_calls") == 2.0
        assert reg.counter("phase/tokenize_seconds") >= 0.0

    def test_nested_spans_compose_slash_paths(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        with prof.span("candidate-gen"):
            with prof.span("lm-filter"):
                pass
        with prof.span("lm-filter"):
            pass
        # nested LM time is distinguishable from a stand-alone LM pass
        assert phases(reg) == {"candidate-gen", "candidate-gen/lm-filter", "lm-filter"}
        assert reg.counter("phase/candidate-gen/lm-filter_calls") == 1.0
        assert reg.counter("phase/lm-filter_calls") == 1.0

    def test_outer_span_time_includes_inner(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        with prof.span("outer"):
            with prof.span("inner"):
                pass
        assert reg.counter("phase/outer_seconds") >= reg.counter("phase/outer/inner_seconds")

    def test_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        with pytest.raises(RuntimeError):
            with prof.span("outer"):
                raise RuntimeError("boom")
        with prof.span("after"):
            pass
        assert phases(reg) == {"outer", "after"}  # not "outer/after"
        assert reg.counter("phase/outer_calls") == 1.0  # the raising span still counts


class TestRegistryMirror:
    def test_spans_mirror_into_phase_counters(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        with prof.span("greedy-select"):
            with prof.span("forward"):
                pass
        assert reg.counter("phase/greedy-select_calls") == 1.0
        assert reg.counter("phase/greedy-select/forward_calls") == 1.0
        assert reg.counter("phase/greedy-select/forward_seconds") <= reg.counter(
            "phase/greedy-select_seconds"
        )

    def test_no_registry_is_fine(self):
        prof = PhaseProfiler(registry=None)
        with prof.span("a"):
            with prof.span("b"):
                pass
        # the path stack still unwinds: a registry attached later sees
        # top-level paths, not leftovers of the unrecorded spans
        prof.registry = reg = MetricsRegistry()
        with prof.span("c"):
            pass
        assert phases(reg) == {"c"}

    def test_rebinding_registry_redirects_mirror(self):
        """_init_worker rebinds the shared profiler to the worker registry."""
        parent_reg = MetricsRegistry()
        prof = PhaseProfiler(registry=parent_reg)
        worker_reg = MetricsRegistry()
        prof.registry = worker_reg
        with prof.span("forward"):
            pass
        assert worker_reg.counter("phase/forward_calls") == 1.0
        assert parent_reg.counters == {}


class TestMerging:
    def test_merge_sums_calls_and_seconds(self):
        """Two workers' span counters fold into one parent registry."""
        workers = [MetricsRegistry(), MetricsRegistry()]
        for reg in workers:
            with PhaseProfiler(registry=reg).span("forward"):
                pass
        parent = MetricsRegistry()
        for reg in workers:
            parent.merge(reg.snapshot())
        assert parent.counter("phase/forward_calls") == 2.0
        assert parent.counter("phase/forward_seconds") == sum(
            reg.counter("phase/forward_seconds") for reg in workers
        )
