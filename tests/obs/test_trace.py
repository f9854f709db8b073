"""Trace JSONL schema round-trip, validation, and sampling."""

import json

import pytest

from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    DocumentTrace,
    TraceRecorder,
    TraceSchemaError,
    iter_trace_files,
    read_trace,
    validate_run_dir,
    validate_trace_line,
)


def _emit_valid_events(trace: DocumentTrace) -> None:
    trace.emit("attack_start", attack="greedy", target_label=1, n_tokens=9, seed=3)
    trace.emit("forward", op="score", n_docs=4, n_forwards=3, n_cache_hits=1)
    trace.emit("cache_hit", n_hits=1)
    trace.emit(
        "greedy_iteration",
        stage="word",
        iteration=0,
        positions=[2],
        n_candidates=8,
        best_objective=0.61,
        marginal_gain=0.11,
        rescans=2,
    )
    trace.emit(
        "attack_end",
        success=True,
        n_queries=3,
        n_cache_hits=1,
        wall_time=0.125,
        n_word_changes=1,
        adversarial_prob=0.61,
    )


class TestDocumentTrace:
    def test_schema_roundtrip(self, tmp_path):
        """Every emitted event survives write -> read -> validate."""
        path = tmp_path / "trace-000003.jsonl"
        trace = DocumentTrace(path, doc_index=3, seed=3)
        _emit_valid_events(trace)
        trace.close()
        events = read_trace(path)
        assert len(events) == 5
        for event in events:
            validate_trace_line(event)
        assert [e["kind"] for e in events] == [
            "attack_start",
            "forward",
            "cache_hit",
            "greedy_iteration",
            "attack_end",
        ]
        assert all(e["v"] == TRACE_SCHEMA_VERSION for e in events)
        assert all(e["doc_index"] == 3 for e in events)
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)

    def test_empty_trace_writes_no_file(self, tmp_path):
        path = tmp_path / "trace-000000.jsonl"
        DocumentTrace(path, doc_index=0).close()
        assert not path.exists()

    def test_close_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "cell" / "deep" / "trace-000001.jsonl"
        trace = DocumentTrace(path, doc_index=1)
        trace.emit("cache_hit", n_hits=2)
        trace.close()
        assert path.exists()


class TestValidation:
    def test_missing_required_field_raises(self):
        with pytest.raises(TraceSchemaError, match="n_hits"):
            validate_trace_line(
                {"v": TRACE_SCHEMA_VERSION, "kind": "cache_hit", "doc_index": 0, "t": 0.0}
            )

    def test_wrong_type_raises(self):
        with pytest.raises(TraceSchemaError, match="n_hits"):
            validate_trace_line(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "kind": "cache_hit",
                    "doc_index": 0,
                    "t": 0.0,
                    "n_hits": "three",
                }
            )

    def test_bool_is_not_an_int(self):
        with pytest.raises(TraceSchemaError, match="n_hits"):
            validate_trace_line(
                {
                    "v": TRACE_SCHEMA_VERSION,
                    "kind": "cache_hit",
                    "doc_index": 0,
                    "t": 0.0,
                    "n_hits": True,
                }
            )

    def test_unknown_kind_raises(self):
        with pytest.raises(TraceSchemaError, match="unknown trace event kind"):
            validate_trace_line(
                {"v": TRACE_SCHEMA_VERSION, "kind": "mystery", "doc_index": 0, "t": 0.0}
            )

    def test_wrong_schema_version_raises(self):
        with pytest.raises(TraceSchemaError, match="schema version"):
            validate_trace_line(
                {"v": 99, "kind": "cache_hit", "doc_index": 0, "t": 0.0, "n_hits": 1}
            )

    def test_extra_fields_tolerated(self):
        validate_trace_line(
            {
                "v": TRACE_SCHEMA_VERSION,
                "kind": "cache_hit",
                "doc_index": 0,
                "t": 0.0,
                "n_hits": 1,
                "detail": "future richer event",
            }
        )

    def test_non_dict_payload_raises(self):
        with pytest.raises(TraceSchemaError, match="must be an object"):
            validate_trace_line(["not", "a", "dict"])

    def test_undecodable_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "trace-000000.jsonl"
        path.write_text('{"v": 1}\n{oops\n')
        with pytest.raises(TraceSchemaError, match="line 2"):
            read_trace(path)

    def test_validate_run_dir_counts_and_names_offender(self, tmp_path):
        good = DocumentTrace(tmp_path / "trace-000000.jsonl", doc_index=0)
        _emit_valid_events(good)
        good.close()
        assert validate_run_dir(tmp_path) == 5
        bad = tmp_path / "trace-000001.jsonl"
        bad.write_text(json.dumps({"v": 1, "kind": "nope", "doc_index": 1, "t": 0.0}) + "\n")
        with pytest.raises(TraceSchemaError, match=r"trace-000001\.jsonl:1"):
            validate_run_dir(tmp_path)


class TestTraceRecorder:
    def test_every_document_traced_by_default(self, tmp_path, monkeypatch):
        # the recorder takes a plain value; evaluate_attack resolves the env
        monkeypatch.setenv("REPRO_TRACE_EVERY_N", "4")
        recorder = TraceRecorder(tmp_path)
        assert recorder.trace_every_n == 1
        trace = recorder.document(7, seed=7)
        assert trace is not None
        assert trace.doc_index == 7
        assert trace.seed == 7
        assert trace.path == tmp_path / "trace-000007.jsonl"

    def test_sampling_skips_off_stride_documents(self, tmp_path):
        recorder = TraceRecorder(tmp_path, trace_every_n=3)
        traced = [i for i in range(10) if recorder.document(i) is not None]
        assert traced == [0, 3, 6, 9]

    def test_invalid_stride_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            TraceRecorder(tmp_path, trace_every_n=0)

    def test_next_index_auto_increments(self, tmp_path):
        recorder = TraceRecorder(tmp_path)
        assert [recorder.next_index() for _ in range(3)] == [0, 1, 2]

    def test_iter_trace_files_sorted_and_recursive(self, tmp_path):
        for rel in ("b/trace-000002.jsonl", "a/trace-000001.jsonl", "trace-000000.jsonl"):
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("")
        names = [p.relative_to(tmp_path).as_posix() for p in iter_trace_files(tmp_path)]
        assert names == ["a/trace-000001.jsonl", "b/trace-000002.jsonl", "trace-000000.jsonl"]
