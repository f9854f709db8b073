"""Tests for the process-pool corpus attack runner.

The load-bearing property is *shard invariance*: the same corpus attacked
with 1 worker, N workers, or any chunk size must produce identical results,
because every document's attack is reseeded from the document index before
it runs.
"""

import os

import pytest

from repro.attacks import ObjectiveGreedyWordAttack, RandomWordAttack
from repro.eval.metrics import evaluate_attack
from repro.eval.parallel import (
    NUM_WORKERS_ENV,
    ParallelAttackRunner,
    WorkerCountError,
    _WORKER,
    _document_seed,
    _init_worker,
    fork_available,
    resolve_num_workers,
)
from repro.eval.perf import PerfRecorder

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)

N_DOCS = 6


@pytest.fixture()
def corpus_slice(attackable_docs):
    docs = [list(doc) for doc, _ in attackable_docs[:N_DOCS]]
    targets = [target for _, target in attackable_docs[:N_DOCS]]
    return docs, targets


def result_fingerprint(results):
    return [
        (tuple(r.adversarial), r.success, round(r.adversarial_prob, 12))
        for r in results
    ]


class TestResolveNumWorkers:
    def test_explicit_arg_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "5")
        assert resolve_num_workers(2) == (2 if fork_available() else 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "3")
        if not fork_available():
            assert resolve_num_workers(None) == 1
            return
        cpus = os.cpu_count() or 1
        if cpus >= 3:
            assert resolve_num_workers(None) == 3
        else:
            with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
                assert resolve_num_workers(None) == cpus

    def test_env_clamped_to_cpu_count_with_warning(self, monkeypatch):
        if not fork_available():
            pytest.skip("fork unavailable; env resolves to 1 regardless")
        cpus = os.cpu_count() or 1
        monkeypatch.setenv(NUM_WORKERS_ENV, str(cpus + 7))
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            assert resolve_num_workers(None) == cpus

    def test_explicit_arg_is_never_clamped(self, monkeypatch):
        # oversubscription on purpose stays allowed — only the env path,
        # which silently applies to every run, is clamped
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        cpus = os.cpu_count() or 1
        expected = cpus + 3 if fork_available() else 1
        assert resolve_num_workers(cpus + 3) == expected

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv(NUM_WORKERS_ENV, raising=False)
        assert resolve_num_workers(None) >= 1

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            resolve_num_workers(0)

    def test_explicit_count_error_is_named(self):
        with pytest.raises(WorkerCountError, match="n_workers must be >= 1"):
            resolve_num_workers(-3)

    @pytest.mark.parametrize("value", ["four", "2.5", "", " x "])
    def test_non_integer_env_rejected_with_clear_message(self, monkeypatch, value):
        if not value.strip():
            pytest.skip("blank env falls back to cpu count")
        monkeypatch.setenv(NUM_WORKERS_ENV, value)
        with pytest.raises(WorkerCountError) as excinfo:
            resolve_num_workers(None)
        message = str(excinfo.value)
        assert NUM_WORKERS_ENV in message
        assert "positive integer" in message

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_env_gets_same_message_shape(self, monkeypatch, value):
        # "0" used to produce a different message than "four"; both now
        # name the variable and the constraint consistently
        monkeypatch.setenv(NUM_WORKERS_ENV, value)
        with pytest.raises(WorkerCountError) as excinfo:
            resolve_num_workers(None)
        message = str(excinfo.value)
        assert NUM_WORKERS_ENV in message
        assert "positive integer" in message

    def test_worker_count_error_is_a_value_error(self):
        assert issubclass(WorkerCountError, ValueError)


class TestWorkerPerfAttachment:
    def test_untracked_worker_detaches_forked_recorder(self, victim, word_paraphraser):
        # with track_perf=False the fork-copied parent recorder must be
        # dropped, not silently recorded into
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        prev = victim.perf
        victim.perf = PerfRecorder()
        try:
            _init_worker(attack, 0, track_perf=False)
            assert victim.perf is None
            assert _WORKER["recorder"] is None
        finally:
            victim.perf = prev

    def test_tracked_worker_gets_fresh_recorder(self, victim, word_paraphraser):
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        prev = victim.perf
        parent_recorder = PerfRecorder()
        victim.perf = parent_recorder
        try:
            _init_worker(attack, 0, track_perf=True)
            assert isinstance(victim.perf, PerfRecorder)
            assert victim.perf is not parent_recorder
            assert _WORKER["recorder"] is victim.perf
        finally:
            victim.perf = prev


class TestScoreFnAttachment:
    def test_score_fn_is_detached_after_the_run(
        self, victim, word_paraphraser, corpus_slice
    ):
        docs, targets = corpus_slice
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        ParallelAttackRunner(
            attack, n_workers=1, base_seed=0, delta_scoring=True
        ).run(docs[:1], targets[:1])
        assert attack.score_fn is None


class TestRunnerValidation:
    def test_bad_chunk_size(self, victim, word_paraphraser):
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        with pytest.raises(ValueError):
            ParallelAttackRunner(attack, chunk_size=0)

    def test_length_mismatch(self, victim, word_paraphraser):
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        runner = ParallelAttackRunner(attack, n_workers=1)
        with pytest.raises(ValueError):
            runner.run([["a"]], [0, 1])

    def test_empty_corpus(self, victim, word_paraphraser):
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        runner = ParallelAttackRunner(attack, n_workers=1)
        assert runner.run([], []) == []


class TestShardInvariance:
    @needs_fork
    def test_deterministic_attack_1_vs_2_workers(
        self, victim, word_paraphraser, corpus_slice
    ):
        docs, targets = corpus_slice
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        serial = ParallelAttackRunner(attack, n_workers=1).run(docs, targets)
        pooled = ParallelAttackRunner(attack, n_workers=2).run(docs, targets)
        assert result_fingerprint(serial) == result_fingerprint(pooled)

    @needs_fork
    def test_stochastic_attack_shard_invariance(
        self, victim, word_paraphraser, corpus_slice
    ):
        # RandomWordAttack's choices depend on its seed; reseeding from the
        # document index must make results independent of sharding
        docs, targets = corpus_slice
        attack = RandomWordAttack(victim, word_paraphraser, 0.3, seed=99)
        serial = ParallelAttackRunner(attack, n_workers=1).run(docs, targets)
        pooled = ParallelAttackRunner(attack, n_workers=2).run(docs, targets)
        one_per_chunk = ParallelAttackRunner(attack, n_workers=2, chunk_size=1).run(
            docs, targets
        )
        assert result_fingerprint(serial) == result_fingerprint(pooled)
        assert result_fingerprint(serial) == result_fingerprint(one_per_chunk)

    @needs_fork
    def test_results_in_input_order(self, victim, word_paraphraser, corpus_slice):
        docs, targets = corpus_slice
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        results = ParallelAttackRunner(attack, n_workers=2, chunk_size=1).run(
            docs, targets
        )
        assert [r.original for r in results] == docs
        assert [r.target_label for r in results] == targets


class TestPerfMerge:
    @needs_fork
    def test_worker_forwards_fold_into_parent_recorder(
        self, victim, word_paraphraser, corpus_slice
    ):
        docs, targets = corpus_slice
        attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        prev = victim.perf
        try:
            serial_rec = PerfRecorder()
            victim.perf = serial_rec
            ParallelAttackRunner(attack, n_workers=1, perf=serial_rec).run(docs, targets)
            victim.perf = None
            pool_rec = PerfRecorder()
            ParallelAttackRunner(attack, n_workers=2, perf=pool_rec).run(docs, targets)
        finally:
            victim.perf = prev
        assert pool_rec.n_forward_docs == serial_rec.n_forward_docs
        assert pool_rec.n_forward_batches == serial_rec.n_forward_batches
        assert pool_rec.forward_seconds > 0.0

    def test_snapshot_merge_roundtrip(self):
        a = PerfRecorder()
        a.record_forward(4, 16, 0.25)
        a.increment("queries", 7)
        b = PerfRecorder()
        b.record_forward(2, 16, 0.5)
        b.record_forward(1, 32, 0.125)
        b.merge(a.snapshot())
        assert b.n_forward_docs == 7
        assert b.n_forward_batches == 3
        assert b.forward_seconds == 0.875
        assert b.buckets[16].n_docs == 6
        assert b.counters["queries"] == 7


class TestReseed:
    def test_reseed_is_deterministic(self, victim, word_paraphraser, corpus_slice):
        docs, _ = corpus_slice
        attack = RandomWordAttack(victim, word_paraphraser, 0.3, seed=1)
        attack.reseed(7)
        first = attack.attack(docs[0], 1)
        attack.reseed(7)
        second = attack.attack(docs[0], 1)
        assert attack.seed == 7
        assert first.adversarial == second.adversarial

    def test_reseed_replaces_generator_attributes(self, victim, word_paraphraser):
        from repro.attacks import GradientGuidedGreedyAttack

        attack = GradientGuidedGreedyAttack(victim, word_paraphraser, 0.2)
        attack.reseed(11)
        state_a = attack._selection_rng.bit_generator.state
        attack._selection_rng.random()  # advance the stream
        attack.reseed(11)
        assert attack._selection_rng.bit_generator.state == state_a

    def test_document_seed_distinct_and_stable(self):
        seeds = {_document_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert _document_seed(3, 5) == _document_seed(3, 5)


@needs_fork
def test_evaluate_attack_worker_count_invariant(victim, word_paraphraser, atk_corpus):
    attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
    serial = evaluate_attack(victim, attack, atk_corpus.test, max_examples=N_DOCS)
    pooled = evaluate_attack(
        victim, attack, atk_corpus.test, max_examples=N_DOCS, n_workers=2
    )
    assert serial.success_rate == pooled.success_rate
    assert serial.clean_accuracy == pooled.clean_accuracy
    assert [r.adversarial for r in serial.results] == [
        r.adversarial for r in pooled.results
    ]


def test_evaluate_attack_serial_branch_reseeds_like_the_pool(
    victim, word_paraphraser, atk_corpus
):
    """Determinism bugfix: the serial branch used to call attack.attack()
    without per-document reseeding while the pool reseeded, so a stochastic
    attack could disagree between 1 and N workers.  Both now route through
    the runner and must agree for every worker count."""
    serial = evaluate_attack(
        victim,
        RandomWordAttack(victim, word_paraphraser, 0.3, seed=99),
        atk_corpus.test,
        max_examples=N_DOCS,
    )
    explicit_one = evaluate_attack(
        victim,
        RandomWordAttack(victim, word_paraphraser, 0.3, seed=99),
        atk_corpus.test,
        max_examples=N_DOCS,
        n_workers=1,
    )
    assert result_fingerprint(serial.results) == result_fingerprint(
        explicit_one.results
    )
    if fork_available():
        for workers in (2, 4):
            pooled = evaluate_attack(
                victim,
                RandomWordAttack(victim, word_paraphraser, 0.3, seed=99),
                atk_corpus.test,
                max_examples=N_DOCS,
                n_workers=workers,
            )
            assert result_fingerprint(serial.results) == result_fingerprint(
                pooled.results
            )
            assert serial.summary()["success_rate"] == pooled.summary()["success_rate"]


def test_evaluate_attack_env_var_routes_through_runner(
    victim, word_paraphraser, atk_corpus, monkeypatch
):
    if not fork_available():
        pytest.skip("fork start method unavailable")
    attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
    baseline = evaluate_attack(victim, attack, atk_corpus.test, max_examples=4)
    monkeypatch.setenv(NUM_WORKERS_ENV, "2")
    via_env = evaluate_attack(victim, attack, atk_corpus.test, max_examples=4)
    assert baseline.success_rate == via_env.success_rate
    assert [r.adversarial for r in baseline.results] == [
        r.adversarial for r in via_env.results
    ]
