"""Run reports: metrics.json write/merge semantics and markdown rendering."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    FAILURES_FILENAME,
    METRICS_FILENAME,
    append_failure,
    load_failures,
    load_run_metrics,
    render_phase_table,
    render_report,
    write_run_metrics,
)
from repro.obs.trace import DocumentTrace


@pytest.fixture
def run_dir(tmp_path):
    """A synthetic two-document traced run with metrics and one failure."""
    for doc_index, (n_queries, success) in enumerate([(6, True), (10, False)]):
        trace = DocumentTrace(
            tmp_path / f"trace-{doc_index:06d}.jsonl", doc_index, seed=doc_index
        )
        trace.emit(
            "attack_start", attack="greedy", target_label=1, n_tokens=20, seed=doc_index
        )
        trace.emit(
            "forward", op="score", n_docs=n_queries, n_forwards=n_queries, n_cache_hits=2
        )
        trace.emit("cache_hit", n_hits=2)
        trace.emit(
            "greedy_iteration",
            stage="word",
            iteration=0,
            positions=[4],
            n_candidates=12,
            best_objective=0.7,
            marginal_gain=0.2,
            rescans=3,
        )
        trace.emit(
            "attack_end",
            success=success,
            n_queries=n_queries,
            n_cache_hits=2,
            wall_time=0.5,
            n_word_changes=1,
            adversarial_prob=0.7,
        )
        trace.close()

    run = MetricsRegistry()
    run.inc("attack/docs", 2)
    run.inc("attack/successes", 1)
    run.inc("attack/n_queries", 16)
    run.observe("attack/wall_time_seconds", 0.5)
    context = MetricsRegistry()
    context.inc("phase/candidate-gen_calls", 4)
    context.inc("phase/candidate-gen_seconds", 0.8)
    context.inc("phase/forward_calls", 16)
    context.inc("phase/forward_seconds", 0.2)
    context.observe("forward/batch_seconds", 0.01)
    for prefix in ("forward/", "forward/padded/32/"):
        context.inc(prefix + "batches", 4)
        context.inc(prefix + "docs", 16)
        context.inc(prefix + "seconds", 0.2)
    write_run_metrics(tmp_path, run.snapshot(), context_snapshot=context.snapshot())
    append_failure(
        tmp_path,
        {"doc_index": 5, "error_type": "ValueError", "error_message": "bad doc"},
    )
    return tmp_path


class TestWriteRunMetrics:
    def test_writes_sorted_schema_versioned_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("attack/docs", 3)
        path = write_run_metrics(tmp_path, reg.snapshot())
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["run"]["counters"]["attack/docs"] == 3
        # deterministic byte-for-byte output: keys sorted
        assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_rewrite_merges_run_section(self, tmp_path):
        """A resumed run adds to its earlier counters instead of clobbering."""
        reg = MetricsRegistry()
        reg.inc("attack/docs", 3)
        reg.observe("attack/wall_time_seconds", 1.0)
        write_run_metrics(tmp_path, reg.snapshot())
        write_run_metrics(tmp_path, reg.snapshot())
        payload = json.loads((tmp_path / METRICS_FILENAME).read_text())
        assert payload["run"]["counters"]["attack/docs"] == 6
        assert payload["run"]["histograms"]["attack/wall_time_seconds"]["count"] == 2

    def test_rewrite_replaces_context_section(self, tmp_path):
        """The context registry is cumulative: the latest snapshot wins."""
        context = MetricsRegistry()
        context.inc("forward/docs", 2)
        write_run_metrics(tmp_path, MetricsRegistry().snapshot(), context.snapshot())
        context.inc("forward/docs", 3)
        path = write_run_metrics(tmp_path, MetricsRegistry().snapshot(), context.snapshot())
        payload = json.loads(path.read_text())
        assert set(payload) == {"schema_version", "run", "context"}
        assert payload["context"]["counters"]["forward/docs"] == 5

    def test_corrupt_existing_file_is_replaced(self, tmp_path):
        (tmp_path / METRICS_FILENAME).write_text("{not json")
        reg = MetricsRegistry()
        reg.inc("attack/docs")
        path = write_run_metrics(tmp_path, reg.snapshot())
        assert json.loads(path.read_text())["run"]["counters"]["attack/docs"] == 1


class TestLoaders:
    def test_load_run_metrics_merges_cells(self, tmp_path):
        for cell, docs in (("yelp", 2), ("fake-news", 3)):
            reg = MetricsRegistry()
            reg.inc("attack/docs", docs)
            write_run_metrics(tmp_path / cell, reg.snapshot())
        loaded = load_run_metrics(tmp_path)
        assert loaded["run"].counter("attack/docs") == 5
        assert set(loaded["per_cell"]) == {"yelp", "fake-news"}

    def test_load_failures_tolerates_truncated_line(self, tmp_path):
        append_failure(tmp_path, {"error_type": "OSError", "error_message": "x"})
        with open(tmp_path / FAILURES_FILENAME, "a") as fh:
            fh.write('{"error_type": "Trunc')  # crash mid-append
        failures = load_failures(tmp_path)
        assert len(failures) == 1
        assert failures[0]["error_type"] == "OSError"


class TestRenderPhaseTable:
    def test_shares_sum_to_total(self):
        table = render_phase_table(
            {
                "phase/forward_seconds": 3.0,
                "phase/forward_calls": 10.0,
                "phase/candidate-gen_seconds": 1.0,
                "phase/candidate-gen_calls": 5.0,
                "attack/docs": 99.0,  # ignored: not a phase counter
            }
        )
        assert "| forward | 10 | 3.000 | 75.0% |" in table
        assert "| candidate-gen | 5 | 1.000 | 25.0% |" in table
        assert "attack/docs" not in table

    def test_empty_counters(self):
        assert render_phase_table({}) == "_no phase spans recorded_"


class TestRenderReport:
    def test_fixture_run_renders_every_section(self, run_dir):
        report = render_report(run_dir)
        for heading in (
            "## Summary",
            "## Phase breakdown",
            "## Forward batches",
            "## Failure digest",
        ):
            assert heading in report
        assert "| documents traced | 2 |" in report
        assert "| total model queries | 16 |" in report
        assert "| success rate (traced docs) | 50.0% |" in report
        assert "| lazy-heap rescans | 6 |" in report
        assert "| candidate-gen |" in report
        assert "batch latency p50" in report
        assert "| forward docs | 16 |" in report
        assert "| 32 | 4 | 16 | 0.200 |" in report  # the padded-length table
        assert "| ValueError | 1 | bad doc |" in report

    def test_empty_run_dir_renders_placeholders(self, tmp_path):
        report = render_report(tmp_path)
        assert "| documents traced | 0 |" in report
        assert "_no phase spans recorded_" in report
        assert "_no forward batches recorded_" in report
        assert "_no failures_" in report

    def test_per_cell_table_appears_with_multiple_cells(self, tmp_path):
        for cell in ("yelp", "news"):
            reg = MetricsRegistry()
            reg.inc("attack/docs", 4)
            reg.inc("attack/successes", 2)
            reg.inc("attack/n_queries", 40)
            write_run_metrics(tmp_path / cell, reg.snapshot())
        report = render_report(tmp_path)
        assert "## Per-cell" in report
        assert "`yelp`" in report and "`news`" in report
        assert "| `yelp` | 4 | 50.0% | 40 | 0 |" in report
