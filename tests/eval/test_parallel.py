"""Tests for the process-pool corpus attack runner.

The load-bearing property is *shard invariance*: the same corpus attacked
with 1 worker, N workers, or any chunk size must produce identical results,
because every document's attack is reseeded from the document index before
it runs.
"""

import os

import pytest

from repro.attacks import build_attack
from repro.data.datasets import Example
from repro.eval.config import RunConfig
from repro.eval.metrics import evaluate_attack
from repro.eval.parallel import (
    ParallelAttackRunner,
    WorkerCountError,
    _WORKER,
    _document_seed,
    _init_worker,
    fork_available,
    resolve_num_workers,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PhaseProfiler

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


NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"


def env_workers(value: str) -> int:
    """The worker count an entry point resolves from ``REPRO_NUM_WORKERS``."""
    return RunConfig.from_env({NUM_WORKERS_ENV: value}, n_workers=None).n_workers


class TestResolveNumWorkers:
    def test_explicit_arg_wins_over_env(self):
        assert RunConfig.from_env({NUM_WORKERS_ENV: "5"}, n_workers=2).n_workers == 2
        assert resolve_num_workers(2) == (2 if fork_available() else 1)

    def test_env_override(self):
        cpus = os.cpu_count() or 1
        if cpus >= 3:
            assert env_workers("3") == 3
        else:
            with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
                assert env_workers("3") == cpus

    def test_env_clamped_to_cpu_count_with_warning(self):
        cpus = os.cpu_count() or 1
        with pytest.warns(RuntimeWarning, match="exceeds os.cpu_count"):
            assert env_workers(str(cpus + 7)) == cpus

    def test_explicit_arg_is_never_clamped(self):
        # oversubscription on purpose stays allowed — only the env path,
        # which silently applies to every run, is clamped
        cpus = os.cpu_count() or 1
        config = RunConfig.from_env({NUM_WORKERS_ENV: "1"}, n_workers=cpus + 3)
        assert config.n_workers == cpus + 3
        expected = cpus + 3 if fork_available() else 1
        assert resolve_num_workers(cpus + 3) == expected

    def test_default_is_at_least_one(self):
        assert resolve_num_workers() == 1
        assert RunConfig.from_env({}, n_workers=None).n_workers == 1

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            resolve_num_workers(0)

    def test_explicit_count_error_is_named(self):
        with pytest.raises(WorkerCountError, match="n_workers must be >= 1"):
            resolve_num_workers(-3)

    @pytest.mark.parametrize("value", ["four", "2.5", " x "])
    def test_non_integer_env_rejected_with_clear_message(self, value):
        with pytest.raises(WorkerCountError) as excinfo:
            env_workers(value)
        message = str(excinfo.value)
        assert NUM_WORKERS_ENV in message
        assert "positive integer" in message

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_env_gets_same_message_shape(self, value):
        # "0" used to produce a different message than "four"; both now
        # name the variable and the constraint consistently
        with pytest.raises(WorkerCountError) as excinfo:
            env_workers(value)
        message = str(excinfo.value)
        assert NUM_WORKERS_ENV in message
        assert "positive integer" in message

    def test_worker_count_error_is_a_value_error(self):
        assert issubclass(WorkerCountError, ValueError)

    def test_runner_never_reads_the_environment(self, victim, word_paraphraser, monkeypatch):
        monkeypatch.setenv(NUM_WORKERS_ENV, "2")
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        assert ParallelAttackRunner(attack).n_workers == 1


class TestWorkerPerfAttachment:
    def test_untracked_worker_detaches_forked_recorder(self, victim, word_paraphraser):
        # with track_metrics=False the fork-copied parent registry must be
        # dropped from the model and the profiler, not silently recorded into
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        parent = MetricsRegistry()
        attack.set_profiler(PhaseProfiler(registry=parent))
        prev = victim.metrics
        victim.metrics = parent
        try:
            _init_worker(attack, 0, track_metrics=False)
            assert victim.metrics is None
            assert attack.profiler.registry is None
            assert _WORKER["metrics"] is None
        finally:
            victim.metrics = prev

    def test_tracked_worker_gets_fresh_recorder(self, victim, word_paraphraser):
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        parent = MetricsRegistry()
        attack.set_profiler(PhaseProfiler(registry=parent))
        prev = victim.metrics
        victim.metrics = parent
        try:
            _init_worker(attack, 0, track_metrics=True)
            assert isinstance(victim.metrics, MetricsRegistry)
            assert victim.metrics is not parent
            assert _WORKER["metrics"] is victim.metrics
            # phase spans and forwards land in the same worker registry
            assert attack.profiler.registry is victim.metrics
        finally:
            victim.metrics = prev


class TestScoreFnAttachment:
    def test_score_fn_is_detached_after_the_run(
        self, victim, word_paraphraser, corpus_slice
    ):
        """evaluate_attack sets the attack's delta flag for its run only."""
        docs, targets = corpus_slice
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        examples = [Example(tuple(docs[0]), 1 - targets[0])]
        during = []
        evaluate_attack(
            victim,
            attack,
            examples,
            delta_scoring=True,
            progress=lambda beat: during.append(attack.delta_scoring),
        )
        assert during == [True]
        assert attack.delta_scoring is False


class TestRunnerValidation:
    def test_bad_chunk_size(self, victim, word_paraphraser):
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        with pytest.raises(ValueError):
            ParallelAttackRunner(attack, chunk_size=0)

    def test_length_mismatch(self, victim, word_paraphraser):
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        runner = ParallelAttackRunner(attack, n_workers=1)
        with pytest.raises(ValueError):
            runner.run([["a"]], [0, 1])

    def test_empty_corpus(self, victim, word_paraphraser):
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        runner = ParallelAttackRunner(attack, n_workers=1)
        assert runner.run([], []) == []


class TestShardInvariance:
    @needs_fork
    def test_deterministic_attack_1_vs_2_workers(
        self, victim, word_paraphraser, corpus_slice
    ):
        docs, targets = corpus_slice
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        serial = ParallelAttackRunner(attack, n_workers=1).run(docs, targets)
        for workers in (2, 4):
            pooled = ParallelAttackRunner(attack, n_workers=workers).run(docs, targets)
            assert result_fingerprint(serial) == result_fingerprint(pooled), workers

    @needs_fork
    def test_stochastic_attack_shard_invariance(
        self, victim, word_paraphraser, corpus_slice
    ):
        # random_word's choices depend on its seed; reseeding from the
        # document index must make results independent of sharding
        docs, targets = corpus_slice
        attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=99
        )
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
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
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
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        prev = victim.metrics
        try:
            serial = MetricsRegistry()
            victim.metrics = serial
            ParallelAttackRunner(attack, n_workers=1).run(docs, targets)
            victim.metrics = None
            pooled = MetricsRegistry()
            ParallelAttackRunner(attack, n_workers=2, metrics=pooled).run(docs, targets)
        finally:
            victim.metrics = prev
        assert serial.counter("forward/docs") > 0
        for name in serial.counters:
            if name.startswith("forward/") and not name.endswith("seconds"):
                assert pooled.counter(name) == serial.counter(name), name
        assert pooled.counter("forward/seconds") > 0.0


class TestReseed:
    def test_reseed_is_deterministic(self, victim, word_paraphraser, corpus_slice):
        docs, _ = corpus_slice
        attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=1
        )
        attack.reseed(7)
        first = attack.attack(docs[0], 1)
        attack.reseed(7)
        second = attack.attack(docs[0], 1)
        assert attack.search.seed == 7
        assert first.adversarial == second.adversarial

    def test_reseed_replaces_generator_attributes(self, victim, word_paraphraser):
        attack = build_attack("gradient_guided", victim, word_paraphraser=word_paraphraser)
        attack.reseed(11)
        state_a = attack.source._selection_rng.bit_generator.state
        attack.source._selection_rng.random()  # advance the stream
        attack.reseed(11)
        assert attack.source._selection_rng.bit_generator.state == state_a

    def test_document_seed_distinct_and_stable(self):
        seeds = {_document_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert _document_seed(3, 5) == _document_seed(3, 5)


@needs_fork
def test_evaluate_attack_worker_count_invariant(victim, word_paraphraser, atk_corpus):
    attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
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
        build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=99
        ),
        atk_corpus.test,
        max_examples=N_DOCS,
    )
    explicit_one = evaluate_attack(
        victim,
        build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=99
        ),
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
                build_attack(
                    "random_word",
                    victim,
                    word_paraphraser=word_paraphraser,
                    word_budget_ratio=0.3,
                    seed=99,
                ),
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
    attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
    baseline = evaluate_attack(victim, attack, atk_corpus.test, max_examples=4)
    monkeypatch.setenv(NUM_WORKERS_ENV, "2")
    via_env = evaluate_attack(victim, attack, atk_corpus.test, max_examples=4)
    assert baseline.success_rate == via_env.success_rate
    assert [r.adversarial for r in baseline.results] == [
        r.adversarial for r in via_env.results
    ]
