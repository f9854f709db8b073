"""Fault-injection tests for the corpus attack runner.

Three failure modes are injected through marker tokens interpreted by a
test-only attack subclass:

- ``__raise__``  — the attack raises inside the worker (isolated to a
  structured :class:`AttackFailure`, run continues);
- ``__kill__``   — the attack kills its worker process *once* (the pool is
  rebuilt, the chunk is retried, and the recovered result is
  bitwise-identical to an undisturbed run);
- ``__crash__``  — the attack kills its worker every time (after the
  bounded retries the document is recorded as a ``WorkerCrashError``
  failure and the run still completes).
"""

import os
from pathlib import Path

import pytest

from repro.attacks import (
    AttackEngine,
    AttackFailure,
    AttackResult,
    GreedySearch,
    WordParaphraseSource,
)
from repro.eval.parallel import (
    ParallelAttackRunner,
    RunnerFaultPolicy,
    WorkerCrashError,
    _document_seed,
    fork_available,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)

KILL = "__kill__"
RAISE = "__raise__"
CRASH = "__crash__"

#: zero backoff so retry rounds don't sleep in tests
FAST = RunnerFaultPolicy(backoff_seconds=0.0)


class FaultInjectingAttack(AttackEngine):
    """Greedy word attack that obeys fault-injection marker tokens.

    A ``__kill__`` document kills the worker only while ``kill_flag`` does
    not exist yet (the flag is created just before dying, so the retry
    succeeds — a transient crash).  The marker is stripped before
    delegating, so the attack's behaviour on the remaining tokens is the
    stock deterministic greedy search.
    """

    name = "fault-injecting"

    def __init__(self, model, paraphraser, budget, kill_flag=None, **kwargs):
        super().__init__(model, WordParaphraseSource(paraphraser, budget), GreedySearch(), **kwargs)
        self.kill_flag = str(kill_flag) if kill_flag is not None else None

    def attack(self, doc, target_label):
        doc = list(doc)
        if doc and doc[0] == RAISE:
            raise RuntimeError("poisoned document")
        if doc and doc[0] == CRASH:
            os._exit(23)
        if doc and doc[0] == KILL:
            if self.kill_flag is not None and not os.path.exists(self.kill_flag):
                Path(self.kill_flag).touch()
                os._exit(17)
            return super().attack(doc[1:], target_label)
        return super().attack(doc, target_label)


def assert_results_bitwise_equal(a: AttackResult, b: AttackResult):
    """Field-by-field equality, modulo the inherently noisy wall clock."""
    assert a.original == b.original
    assert a.adversarial == b.adversarial
    assert a.success == b.success
    assert a.original_prob == b.original_prob
    assert a.adversarial_prob == b.adversarial_prob
    assert a.n_queries == b.n_queries
    assert a.n_word_changes == b.n_word_changes
    assert a.stages == b.stages


@pytest.fixture()
def fault_corpus(attackable_docs):
    docs = [list(doc) for doc, _ in attackable_docs[:6]]
    targets = [target for _, target in attackable_docs[:6]]
    return docs, targets


@needs_fork
class TestCrashRecovery:
    def test_killed_worker_and_raising_doc(
        self, victim, word_paraphraser, fault_corpus, tmp_path
    ):
        """The acceptance scenario: one worker killed mid-run plus one
        document whose attack raises — the run completes, the raising doc
        becomes a structured failure, and every successful result is
        bitwise-identical to an uninterrupted serial run."""
        docs, targets = fault_corpus
        docs = [list(d) for d in docs]
        docs[1] = [KILL] + docs[1]
        docs[3] = [RAISE] + docs[3]
        flag = tmp_path / "killed.flag"
        attack = FaultInjectingAttack(
            victim, word_paraphraser, 0.2, kill_flag=flag
        )
        pooled = ParallelAttackRunner(
            attack, n_workers=2, chunk_size=2, fault_policy=FAST
        ).run(docs, targets)
        # the worker really died once and the pool recovered
        assert flag.exists()
        # the flag now exists, so the serial reference run sees the exact
        # same per-document behaviour without any crash
        serial = ParallelAttackRunner(attack, n_workers=1).run(docs, targets)

        for outcomes in (pooled, serial):
            failure = outcomes[3]
            assert isinstance(failure, AttackFailure)
            assert failure.error_type == "RuntimeError"
            assert "poisoned document" in failure.error_message
            assert "RuntimeError" in failure.traceback
            assert failure.doc_index == 3
            assert failure.seed == _document_seed(0, 3)
            assert not failure.success

        for i, (p, s) in enumerate(zip(pooled, serial)):
            if i == 3:
                continue
            assert isinstance(p, AttackResult), f"doc {i} did not recover"
            assert_results_bitwise_equal(p, s)

    def test_repeatedly_crashing_doc_becomes_structured_failure(
        self, victim, word_paraphraser, fault_corpus
    ):
        docs, targets = fault_corpus
        docs = [list(d) for d in docs[:4]]
        targets = targets[:4]
        docs[1] = [CRASH] + docs[1]
        attack = FaultInjectingAttack(victim, word_paraphraser, 0.2)
        policy = RunnerFaultPolicy(max_chunk_retries=1, backoff_seconds=0.0)
        pooled = ParallelAttackRunner(
            attack, n_workers=2, chunk_size=2, fault_policy=policy
        ).run(docs, targets)

        failure = pooled[1]
        assert isinstance(failure, AttackFailure)
        assert failure.error_type == WorkerCrashError.__name__
        assert "worker process died" in failure.error_message
        # the innocent neighbours of the crashing doc all completed, and
        # identically to a crash-free serial run over the same seed indices
        survivors = [0, 2, 3]
        serial = ParallelAttackRunner(attack, n_workers=1).run(
            [docs[i] for i in survivors],
            [targets[i] for i in survivors],
            indices=survivors,
        )
        for i, ref in zip(survivors, serial):
            assert isinstance(pooled[i], AttackResult)
            assert_results_bitwise_equal(pooled[i], ref)

    def test_exhausted_rebuild_budget_degrades_to_serial(
        self, victim, word_paraphraser, fault_corpus, tmp_path
    ):
        docs, targets = fault_corpus
        docs = [list(d) for d in docs[:4]]
        targets = targets[:4]
        flag = tmp_path / "killed.flag"
        docs[2] = [KILL] + docs[2]
        attack = FaultInjectingAttack(victim, word_paraphraser, 0.2, kill_flag=flag)
        # zero rebuilds allowed: the first break sends every unfinished
        # document to the in-process serial path, where the (now disarmed)
        # kill doc completes normally
        policy = RunnerFaultPolicy(max_pool_rebuilds=0, backoff_seconds=0.0)
        outcomes = ParallelAttackRunner(
            attack, n_workers=2, chunk_size=2, fault_policy=policy
        ).run(docs, targets)
        assert flag.exists()
        assert all(isinstance(o, AttackResult) for o in outcomes)

    def test_on_result_fires_once_per_document(
        self, victim, word_paraphraser, fault_corpus, tmp_path
    ):
        docs, targets = fault_corpus
        docs = [list(d) for d in docs[:4]]
        targets = targets[:4]
        flag = tmp_path / "killed.flag"
        docs[0] = [KILL] + docs[0]
        docs[3] = [RAISE] + docs[3]
        seen: list[tuple[int, object]] = []
        attack = FaultInjectingAttack(victim, word_paraphraser, 0.2, kill_flag=flag)
        outcomes = ParallelAttackRunner(
            attack,
            n_workers=2,
            chunk_size=1,
            fault_policy=FAST,
            on_result=lambda idx, outcome: seen.append((idx, outcome)),
        ).run(docs, targets)
        assert sorted(idx for idx, _ in seen) == [0, 1, 2, 3]
        for idx, outcome in seen:
            assert outcomes[idx] == outcome


class TestSerialIsolation:
    def test_raising_doc_is_isolated_in_process(
        self, victim, word_paraphraser, fault_corpus
    ):
        """Error isolation must not depend on the pool being available."""
        docs, targets = fault_corpus
        docs = [list(d) for d in docs[:3]]
        targets = targets[:3]
        docs[1] = [RAISE] + docs[1]
        attack = FaultInjectingAttack(victim, word_paraphraser, 0.2)
        outcomes = ParallelAttackRunner(attack, n_workers=1).run(docs, targets)
        assert isinstance(outcomes[0], AttackResult)
        assert isinstance(outcomes[2], AttackResult)
        failure = outcomes[1]
        assert isinstance(failure, AttackFailure)
        assert failure.error_type == "RuntimeError"
        assert failure.original == docs[1]
