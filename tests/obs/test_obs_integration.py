"""End-to-end observability: traces, registry, and results reconcile exactly.

The acceptance contract: for every traced document the summed ``forward``
event ``n_forwards`` equals the ``attack_end`` ``n_queries``, and both
equal ``AttackResult.n_queries`` — serially and under the process pool,
where worker registries merge back into the run's ``metrics.json``.
"""

import json

import pytest

from repro.attacks import build_attack
from repro.eval.journal import RunJournal
from repro.eval.metrics import evaluate_attack
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    METRICS_FILENAME,
    load_run_metrics,
    padded_length_stats,
    render_report,
)
from repro.obs.trace import iter_trace_files, read_trace, validate_run_dir

N_EXAMPLES = 6


def _attack(victim, word_paraphraser):
    return build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)


def _traced_run(victim, word_paraphraser, atk_corpus, trace_dir, n_workers, **kwargs):
    attack = _attack(victim, word_paraphraser)
    evaluation = evaluate_attack(
        victim,
        attack,
        atk_corpus.test[:N_EXAMPLES],
        seed=0,
        n_workers=n_workers,
        trace_dir=trace_dir,
        **kwargs,
    )
    return attack, evaluation


class TestTraceReconciliation:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_forwards_reconcile_with_n_queries(
        self, victim, word_paraphraser, atk_corpus, tmp_path, n_workers
    ):
        _, evaluation = _traced_run(
            victim, word_paraphraser, atk_corpus, tmp_path, n_workers
        )
        assert evaluation.n_attacked >= 1
        assert not evaluation.failures
        trace_files = list(iter_trace_files(tmp_path))
        assert len(trace_files) == evaluation.n_attacked

        traced_queries = {}
        for path in trace_files:
            events = read_trace(path)
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "attack_start"
            assert kinds[-1] == "attack_end"
            end = events[-1]
            paid = sum(e["n_forwards"] for e in events if e["kind"] == "forward")
            assert paid == end["n_queries"]  # exact, per document
            traced_queries[end["doc_index"]] = end["n_queries"]

        # seed index j is the trace's doc_index; results keep input order
        assert sorted(traced_queries) == list(range(evaluation.n_attacked))
        assert [traced_queries[j] for j in sorted(traced_queries)] == [
            r.n_queries for r in evaluation.results
        ]

        # the run registry saw the same totals the traces and results did
        payload = json.loads((tmp_path / METRICS_FILENAME).read_text())
        counters = payload["run"]["counters"]
        assert counters["attack/docs"] == evaluation.n_attacked
        assert counters["attack/n_queries"] == sum(traced_queries.values())
        assert counters["attack/successes"] == sum(
            r.success for r in evaluation.results
        )
        assert payload["run"]["gauges"]["run/done"] == evaluation.n_attacked

    def test_pooled_equals_serial(self, victim, word_paraphraser, atk_corpus, tmp_path):
        _, serial = _traced_run(
            victim, word_paraphraser, atk_corpus, tmp_path / "w1", 1
        )
        _, pooled = _traced_run(
            victim, word_paraphraser, atk_corpus, tmp_path / "w2", 2
        )
        assert [r.n_queries for r in serial.results] == [
            r.n_queries for r in pooled.results
        ]
        assert [r.adversarial for r in serial.results] == [
            r.adversarial for r in pooled.results
        ]
        serial_run = load_run_metrics(tmp_path / "w1")["run"]
        pooled_run = load_run_metrics(tmp_path / "w2")["run"]
        for name in ("attack/docs", "attack/n_queries", "attack/successes"):
            assert serial_run.counter(name) == pooled_run.counter(name)

    def test_run_dir_is_schema_valid_and_renders(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        _, evaluation = _traced_run(victim, word_paraphraser, atk_corpus, tmp_path, 1)
        assert validate_run_dir(tmp_path) > 0
        report = render_report(tmp_path)
        assert f"| documents traced | {evaluation.n_attacked} |" in report
        total = sum(r.n_queries for r in evaluation.results)
        assert f"| total model queries | {total} |" in report


class TestSingleSink:
    """The victim's registry is the one sink for its forwards, at any worker count."""

    def test_context_forwards_reconcile_across_workers(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        forwards = {}
        for n_workers in (1, 2):
            run_dir = tmp_path / f"w{n_workers}"
            journal_path = tmp_path / f"journal-w{n_workers}.jsonl"
            prev = victim.metrics
            victim.metrics = MetricsRegistry()
            try:
                _traced_run(
                    victim, word_paraphraser, atk_corpus, run_dir, n_workers,
                    journal_path=journal_path,
                )
            finally:
                victim.metrics = prev
            context = json.loads((run_dir / METRICS_FILENAME).read_text())["context"]
            counters = context["counters"]
            buckets = padded_length_stats(counters)
            assert counters["forward/docs"] == sum(b["docs"] for b in buckets.values())
            assert counters["forward/batches"] == sum(b["batches"] for b in buckets.values())
            # the journal's end-of-run record is the same registry snapshot
            assert RunJournal(journal_path).perf_snapshots[-1] == context
            forwards[n_workers] = counters["forward/docs"]
        assert forwards[1] > 0
        assert forwards[2] == forwards[1]


class TestTraceLifecycle:
    def test_tracer_restored_after_run(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        attack, _ = _traced_run(victim, word_paraphraser, atk_corpus, tmp_path, 1)
        assert attack.tracer is None  # prior (unset) tracer restored
        assert attack._trace is None

    def test_trace_every_n_samples_documents(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        _, evaluation = _traced_run(
            victim, word_paraphraser, atk_corpus, tmp_path, 1, trace_every_n=2
        )
        traced = [p.name for p in iter_trace_files(tmp_path)]
        expected = [
            f"trace-{j:06d}.jsonl" for j in range(evaluation.n_attacked) if j % 2 == 0
        ]
        assert traced == expected

    def test_trace_every_n_read_from_env(
        self, victim, word_paraphraser, atk_corpus, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_EVERY_N", "2")
        _, evaluation = _traced_run(victim, word_paraphraser, atk_corpus, tmp_path / "env", 1)
        # an explicit stride wins over the variable
        _traced_run(
            victim, word_paraphraser, atk_corpus, tmp_path / "explicit", 1, trace_every_n=1
        )
        assert [p.name for p in iter_trace_files(tmp_path / "env")] == [
            f"trace-{j:06d}.jsonl" for j in range(evaluation.n_attacked) if j % 2 == 0
        ]
        assert len(list(iter_trace_files(tmp_path / "explicit"))) == evaluation.n_attacked

    def test_no_trace_dir_means_no_artifacts(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        attack = _attack(victim, word_paraphraser)
        evaluate_attack(victim, attack, atk_corpus.test[:2], seed=0, n_workers=1)
        assert list(tmp_path.iterdir()) == []

    def test_direct_attack_call_self_opens_trace(
        self, victim, word_paraphraser, attackable_docs, tmp_path
    ):
        from repro.obs.trace import TraceRecorder

        doc, target = attackable_docs[0]
        attack = _attack(victim, word_paraphraser)
        attack.tracer = TraceRecorder(tmp_path)
        result = attack.attack(doc, target)
        second = attack.attack(doc, target)
        files = list(iter_trace_files(tmp_path))
        assert [p.name for p in files] == ["trace-000000.jsonl", "trace-000001.jsonl"]
        for path, res in zip(files, (result, second)):
            events = read_trace(path)
            end = events[-1]
            assert end["kind"] == "attack_end"
            assert end["n_queries"] == res.n_queries
            paid = sum(e["n_forwards"] for e in events if e["kind"] == "forward")
            assert paid == res.n_queries
