"""One invariant harness over the run-configuration product.

The paper's comparisons (Tables 2-5 and the query-efficiency frontier)
are claims about success rates and query counts.  They hold only if a
result does not depend on how it was run and ``n_queries`` counts every
forward paid.  In the style of autograd's ``combo_check``, each case runs
``it.product`` over :data:`PRODUCT`:

    workers {1, 2} x trace {off, on} x telemetry {off, on}
        x {clean, interrupted after INTERRUPT_AFTER documents, then
           resumed from the journal}

Every combination must equal, bit for bit, the 1-worker plain run at the
same delta setting: adversarial tokens, probabilities, ``success``,
``n_queries`` and failures.  A clean combination must also count the same
work in the victim's registry: every context counter but the ``*seconds``
timings, so ``forward/*`` and ``delta/*``.  Four accounting checks hold
as well:

- each trace file's ``forward.n_forwards`` sums to its
  ``attack_end.n_queries`` and to the result's ``n_queries``;
- ``metrics.json``'s ``attack/n_queries`` and the frozen ``/metrics``
  scrape both equal the queries of the documents that run attacked;
- ``n_queries <= max_queries``;
- the last heartbeat's ``n_forward_docs`` equals the context's
  ``forward/docs``.

The cases are delta scoring {off, on} x victim {WCNN, LSTM} x attack
{``pso_word``, the stochastic one whose per-document reseeding must
survive sharding and resume; ``greedy_word`` under a ``max_queries`` cap
that binds}.  The history leg steps a victim in place with an optimizer
after a delta-scored run and compares it with a fresh copy of the stepped
weights.  A traced run dir must also hold one series trajectory ending
at the ``metrics.json`` totals, validate, render, play back in ``watch``
and pass ``compare`` against a copy of itself, and a live exporter must
answer ``/metrics`` and ``/healthz`` after every document.

Run it alone with ``PYTHONPATH=src python -m pytest tests/test_invariants.py -q``.
"""

from __future__ import annotations

import copy
import itertools as it
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import AttackResult, build_attack
from repro.eval.journal import RunJournal
from repro.eval.metrics import AttackEvaluation, evaluate_attack
from repro.experiments.__main__ import main
from repro.models import LSTMClassifier, TrainConfig, fit
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import Adam
from repro.nn.serialization import load_state_dict, state_dict
from repro.obs.exporter import TelemetryServer
from repro.obs.registry import MetricsRegistry
from repro.obs.report import METRICS_FILENAME
from repro.obs.timeseries import SERIES_FILENAME, read_series
from repro.obs.trace import iter_trace_files, read_trace
from repro.text import Vocabulary, embedding_matrix_for_vocab

from tests.fixtures import MAX_LEN, prometheus_name, scrape_health, scrape_metrics

#: test documents per run (the WCNN attacks 8 of them, the LSTM 7)
N_EXAMPLES = 8
#: documents journaled before a resume combination's simulated crash
INTERRUPT_AFTER = 2
#: greedy_word's query cap, below every document's uncapped cost
MAX_QUERIES = 40

#: attack name -> builder keywords
ATTACKS = {
    "greedy_word": {"max_queries": MAX_QUERIES},
    "pso_word": {"n_particles": 4, "iterations": 3},
}

#: the configuration product; the first value of each axis is the plain run
PRODUCT = {
    "n_workers": (1, 2),
    "trace": (False, True),
    "telemetry": (False, True),
    "resume": (False, True),
}

#: run counters that must equal the sums over the documents a run attacked
_RUN_TOTALS = ("attack/docs", "attack/n_queries", "attack/successes")


def comparable(evaluation: AttackEvaluation) -> dict:
    """Everything a run decides, minus wall-clock fields."""
    summary = evaluation.summary()
    del summary["mean_time"]
    return {
        "summary": summary,
        "n_attacked": evaluation.n_attacked,
        "results": [{**r.to_dict(), "wall_time": 0.0} for r in evaluation.results],
        "failures": [
            (f.doc_index, f.error_type, f.error_message) for f in evaluation.failures
        ],
        "adversarial_examples": evaluation.adversarial_examples,
    }


def _work(context: dict) -> dict:
    """The work a context registry counted (forwards, delta units), without timings."""
    return {k: v for k, v in context["counters"].items() if not k.endswith("seconds")}


@dataclass
class Run:
    """One combination's outcome and everything it left behind."""

    evaluation: AttackEvaluation
    #: positions in ``evaluation.results`` restored from the journal
    restored: set[int]
    context: dict
    trace_dir: Path | None = None
    beats: list = field(default_factory=list)
    #: (heartbeat, /metrics, /healthz) scraped after every fresh document
    scrapes: list = field(default_factory=list)
    final_scrape: dict | None = None
    final_health: dict | None = None

    @property
    def fresh(self) -> list[AttackResult]:
        return [r for j, r in enumerate(self.evaluation.results) if j not in self.restored]


@dataclass
class Case:
    """One victim x attack x delta setting, runnable under any combination."""

    model: object
    attack_name: str
    word_paraphraser: object
    examples: list
    delta: bool

    def _evaluate(self, **kwargs) -> tuple[AttackEvaluation, dict]:
        attack = build_attack(
            self.attack_name,
            self.model,
            word_paraphraser=self.word_paraphraser,
            **ATTACKS[self.attack_name],
        )
        # a fresh context registry per run, as a fresh ExperimentContext gives
        prev = self.model.metrics
        self.model.metrics = registry = MetricsRegistry()
        try:
            evaluation = evaluate_attack(
                self.model,
                attack,
                self.examples,
                seed=0,
                delta_scoring=self.delta,
                trace_every_n=1,
                **kwargs,
            )
        finally:
            self.model.metrics = prev
        return evaluation, registry.snapshot()

    def run(
        self,
        root: Path,
        n_workers: int = 1,
        trace: bool = False,
        telemetry: TelemetryServer | None = None,
        resume: bool = False,
    ) -> Run:
        kwargs = {
            "n_workers": n_workers,
            "trace_dir": root / "trace" if trace else None,
            "telemetry": telemetry,
        }
        restored_docs: set[int] = set()
        if resume:
            kwargs["journal_path"] = root / "journal.jsonl"

            def crash(beat):
                if beat.done == INTERRUPT_AFTER:
                    raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                self._evaluate(progress=crash, **kwargs)
            restored_docs = RunJournal(kwargs["journal_path"]).completed_indices()
            assert len(restored_docs) == INTERRUPT_AFTER

        beats, scrapes = [], []

        def progress(beat):
            beats.append(beat)
            if telemetry is not None:
                scrapes.append((beat, scrape_metrics(telemetry), scrape_health(telemetry)))

        evaluation, context = self._evaluate(progress=progress, **kwargs)
        run = Run(
            evaluation,
            restored=self._positions(restored_docs),
            context=context,
            trace_dir=kwargs["trace_dir"],
            beats=beats,
            scrapes=scrapes,
        )
        if resume:
            journal = RunJournal(kwargs["journal_path"])
            assert len(journal.completed_indices()) == evaluation.n_attacked
        if telemetry is not None:
            run.final_scrape = scrape_metrics(telemetry)
            run.final_health = scrape_health(telemetry)
        return run

    def _positions(self, doc_indices: set[int]) -> set[int]:
        """Corpus indices -> positions among the attacked documents."""
        if not doc_indices:
            return set()
        docs = [list(ex.tokens) for ex in self.examples]
        labels = np.array([ex.label for ex in self.examples])
        attacked = np.flatnonzero(self.model.predict(docs) == labels).tolist()
        return {attacked.index(i) for i in doc_indices}


def check_accounting(run: Run, max_queries: int | None) -> None:
    results = run.evaluation.results
    fresh = run.fresh
    totals = {
        "attack/docs": len(fresh),
        "attack/n_queries": sum(r.n_queries for r in fresh),
        "attack/successes": sum(r.success for r in fresh),
    }
    # no document attacked twice: one heartbeat per fresh document
    assert [beat.done for beat in run.beats] == list(
        range(len(run.restored) + 1, len(results) + 1)
    )
    if max_queries is not None:
        assert max(r.n_queries for r in results) <= max_queries
    # the last heartbeat saw every forward of the run, its last chunk's too
    assert run.beats[-1].n_forward_docs == run.context["counters"]["forward/docs"]

    if run.trace_dir is not None:
        traced = {}
        for path in iter_trace_files(run.trace_dir):
            events = read_trace(path)
            assert events[0]["kind"] == "attack_start"
            end = events[-1]
            assert end["kind"] == "attack_end"
            paid = sum(e["n_forwards"] for e in events if e["kind"] == "forward")
            assert paid == end["n_queries"] == results[end["doc_index"]].n_queries
            traced[end["doc_index"]] = paid
        assert sorted(traced) == list(range(len(results)))
        metrics = json.loads((run.trace_dir / METRICS_FILENAME).read_text())
        assert {k: metrics["run"]["counters"][k] for k in _RUN_TOTALS} == totals
        # one trajectory per run, a resumed one too, ending at those totals
        series = read_series(run.trace_dir / SERIES_FILENAME)
        assert [p["seq"] for p in series] == list(range(1, len(series) + 1))
        docs = [p["counters"].get("attack/docs", 0.0) for p in series]
        assert docs == sorted(docs)
        assert {k: series[-1]["counters"][k] for k in _RUN_TOTALS} == totals

    if run.final_scrape is not None:
        assert {k: run.final_scrape[prometheus_name(k)] for k in _RUN_TOTALS} == totals
        assert run.final_health["status"] == "finished"
        # the live exporter answered after every document, counting it
        docs, queries, batches = (
            [scrape[prometheus_name(name)] for _, scrape, _ in run.scrapes]
            for name in ("attack/docs", "attack/n_queries", "forward/batches")
        )
        assert docs == list(range(1, len(fresh) + 1))
        assert queries == sorted(queries) and batches == sorted(batches)
        for beat, _, health in run.scrapes:
            assert health["status"] == "running" and health["done"] == beat.done


def check_run_dir_verbs(run_dir: Path, capsys) -> None:
    """A traced run dir validates, renders, plays back and self-compares."""
    assert main(["report", str(run_dir), "--validate", "--out", str(run_dir / "report.md")]) == 0
    assert (run_dir / "report.md").read_text().startswith("# Attack run report")
    assert main(["watch", str(run_dir), "--once"]) == 0
    copy_dir = run_dir.with_name(run_dir.name + "-copy")
    shutil.copytree(run_dir, copy_dir)
    assert main(["compare", str(run_dir), str(copy_dir)]) == 0
    path = copy_dir / METRICS_FILENAME
    payload = json.loads(path.read_text())
    payload["run"]["gauges"]["run/docs_per_second"] *= 0.7
    path.write_text(json.dumps(payload))
    assert main(["compare", str(run_dir), str(copy_dir)]) == 1
    capsys.readouterr()


def combinations():
    """``it.product`` over :data:`PRODUCT`, as keyword dicts."""
    for values in it.product(*PRODUCT.values()):
        yield dict(zip(PRODUCT, values))


# -- victims ------------------------------------------------------------------


@pytest.fixture(scope="module")
def lstm_victim(atk_corpus, atk_vectors):
    vocab = Vocabulary.build(atk_corpus.documents("train"))
    emb = embedding_matrix_for_vocab(vocab, atk_vectors, dim=32)
    model = LSTMClassifier(vocab, MAX_LEN, pretrained_embeddings=emb, hidden_dim=16, seed=0)
    fit(model, atk_corpus.train, TrainConfig(epochs=2, seed=0))
    return model


@pytest.fixture(scope="module")
def victims(victim, lstm_victim):
    return {"wcnn": victim, "lstm": lstm_victim}


@pytest.fixture(scope="module")
def telemetry_server():
    server = TelemetryServer(port=0)
    server.start()
    yield server
    server.stop()


# -- the product ----------------------------------------------------------------


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("family", ["wcnn", "lstm"])
@pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
def test_every_combination_equals_the_plain_run(
    delta, family, attack_name, victims, word_paraphraser, atk_corpus, telemetry_server,
    tmp_path, capsys,
):
    case = Case(
        victims[family], attack_name, word_paraphraser, atk_corpus.test[:N_EXAMPLES], delta
    )
    max_queries = ATTACKS[attack_name].get("max_queries")
    plain = case.run(tmp_path / "plain")
    check_accounting(plain, max_queries)
    results = plain.evaluation.results
    # the harness proves nothing on a run that attacks nothing or fails
    assert len(results) > INTERRUPT_AFTER and not plain.evaluation.failures
    if max_queries is not None:
        assert any(r.n_queries == max_queries for r in results), "the cap must bind"
    for combo in combinations():
        label = "-".join(f"{k}={v}" for k, v in combo.items())
        try:
            run = case.run(
                tmp_path / label,
                n_workers=combo["n_workers"],
                trace=combo["trace"],
                telemetry=telemetry_server if combo["telemetry"] else None,
                resume=combo["resume"],
            )
            assert comparable(run.evaluation) == comparable(plain.evaluation)
            if not combo["resume"]:
                # the work the victim did, merged home from every worker
                assert _work(run.context) == _work(plain.context)
            check_accounting(run, max_queries)
            if run.trace_dir is not None:
                check_run_dir_verbs(run.trace_dir, capsys)
        except AssertionError as exc:
            raise AssertionError(f"combination {label}: {exc}") from exc


# -- history: in-place optimizer steps ---------------------------------------------


def _step_in_place(model, examples) -> None:
    ids, mask = model.encode([list(ex.tokens) for ex in examples])
    labels = np.array([ex.label for ex in examples])
    model.train()
    optimizer = Adam(model.parameters(), lr=0.05)
    optimizer.zero_grad()
    softmax_cross_entropy(model.forward(ids, mask), labels).backward()
    optimizer.step()
    model.eval()


@pytest.mark.parametrize("family", ["wcnn", "lstm"])
def test_stepped_victim_scores_like_a_fresh_copy(
    family, victims, word_paraphraser, atk_corpus, tmp_path
):
    """Kernels read the weights as they are now, not as a delta run saw them."""
    stepped = copy.deepcopy(victims[family])
    fresh = copy.deepcopy(victims[family])
    examples = atk_corpus.test[:N_EXAMPLES]

    def run(model, delta, name):
        case = Case(model, "greedy_word", word_paraphraser, examples, delta)
        return comparable(case.run(tmp_path / name).evaluation)

    before = run(stepped, True, "before")
    _step_in_place(stepped, atk_corpus.train[:16])
    load_state_dict(fresh, state_dict(stepped))
    for delta in (False, True):
        after = run(stepped, delta, f"stepped-{delta}")
        assert after == run(fresh, delta, f"fresh-{delta}"), f"delta={delta}"
        assert after != before  # the step moved the victim
