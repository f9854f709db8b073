"""Tests for the forward metrics a classifier writes and the BENCH json schema."""

import numpy as np
import pytest

from repro.eval import read_bench_json, write_bench_json
from repro.obs.registry import MetricsRegistry
from repro.obs.report import padded_length_stats


@pytest.fixture
def recording(victim):
    """The shared victim fixture with a fresh registry attached, detached after."""
    prev = victim.metrics
    victim.metrics = MetricsRegistry()
    try:
        yield victim
    finally:
        victim.metrics = prev


class TestRecordForward:
    def test_record_forward_accumulates(self, recording):
        recording.record_forward(n_docs=4, padded_len=16, seconds=0.5)
        recording.record_forward(n_docs=2, padded_len=16, seconds=0.25)
        recording.record_forward(n_docs=1, padded_len=64, seconds=1.25)
        metrics = recording.metrics
        assert metrics.counter("forward/batches") == 3
        assert metrics.counter("forward/docs") == 7
        assert metrics.counter("forward/seconds") == pytest.approx(2.0)
        assert metrics.histogram("forward/batch_seconds").count == 3
        assert padded_length_stats(metrics.counters) == {
            16: {"batches": 2, "docs": 6, "seconds": 0.75},
            64: {"batches": 1, "docs": 1, "seconds": 1.25},
        }


class TestBenchJson:
    def test_schema_and_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(
            path, {"speedup": (2.5, "x"), "forwards": (120.0, "forwards")}
        )
        assert payload == {
            "forwards": {"value": 120.0, "unit": "forwards"},
            "speedup": {"value": 2.5, "unit": "x"},
        }
        assert read_bench_json(path) == payload

    def test_sorted_and_stable_on_disk(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench_json(path, {"b": (1.0, "s"), "a": (2.0, "s")})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_every_entry_has_value_and_unit(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(path, {"m": (np.float64(1.5), "x")})
        for entry in payload.values():
            assert set(entry) == {"value", "unit"}


class TestModelIntegration:
    def test_classifier_reports_into_attached_recorder(self, recording, atk_corpus):
        docs = atk_corpus.documents("test")[:8]
        recording.predict_proba(docs)
        counters = recording.metrics.counters
        assert counters["forward/docs"] == len(docs)
        assert counters["forward/batches"] >= 1
        assert counters["forward/seconds"] > 0.0
        # encode time is a phase of its own, kept out of forward latency
        assert counters["phase/tokenize_calls"] == counters["forward/batches"]
        buckets = padded_length_stats(counters)
        assert sum(b["docs"] for b in buckets.values()) == len(docs)
        assert sum(b["batches"] for b in buckets.values()) == counters["forward/batches"]
        # bucketed inference pads below max_len on these short docs
        assert max(buckets) < recording.max_len

    def test_no_recorder_is_the_default(self, victim):
        assert victim.metrics is None or isinstance(victim.metrics, MetricsRegistry)
