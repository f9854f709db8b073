"""Tests for the JSONL run journal and evaluate_attack checkpoint/resume.

The load-bearing property is *resume equality*: interrupting a journaled
run and resuming it must yield an AttackEvaluation identical (modulo wall
clock) to a fresh uninterrupted run, with no document attacked twice —
even for a stochastic attack, because remaining documents keep the seed
indices of the uninterrupted schedule.
"""

import json

import pytest

from repro.attacks import AttackFailure, AttackResult, build_attack
from repro.eval.journal import (
    JournalError,
    JournalMismatchError,
    RunJournal,
    corpus_fingerprint,
)
from repro.eval.metrics import evaluate_attack

N_EXAMPLES = 8


def make_result(**overrides):
    payload = dict(
        original=["a", "b"],
        adversarial=["a", "c"],
        target_label=1,
        original_prob=0.1234567891234567,
        adversarial_prob=0.7654321987654321,
        success=True,
        n_word_changes=1,
        n_sentence_changes=0,
        n_queries=17,
        n_cache_hits=4,
        wall_time=0.03125,
        stages=["word"],
    )
    payload.update(overrides)
    return AttackResult(**payload)


class TestSerialization:
    def test_result_round_trips_bitwise_through_json(self):
        result = make_result()
        restored = AttackResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result

    def test_failure_round_trips_through_json(self):
        failure = AttackFailure(
            doc_index=3,
            target_label=0,
            error_type="RuntimeError",
            error_message="boom",
            traceback="Traceback ...",
            seed=3_000_009,
            original=["x", "y"],
        )
        restored = AttackFailure.from_dict(json.loads(json.dumps(failure.to_dict())))
        assert restored == failure

    def test_fingerprint_depends_on_docs_and_targets(self):
        base = corpus_fingerprint([["a", "b"], ["c"]], [0, 1])
        assert base == corpus_fingerprint([["a", "b"], ["c"]], [0, 1])
        assert base != corpus_fingerprint([["a", "b"], ["d"]], [0, 1])
        assert base != corpus_fingerprint([["a", "b"], ["c"]], [0, 0])


class TestRunJournal:
    def test_outcomes_survive_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0, "attack": "x"})
        result = make_result()
        failure = AttackFailure(1, 0, "RuntimeError", "boom", "tb", 7, ["a"])
        journal.record(4, result, seed_index=0)
        journal.record(9, failure, seed_index=1)
        journal.record_perf({"n_forward_docs": 3})

        reloaded = RunJournal(path, header={"seed": 0, "attack": "x"})
        assert reloaded.completed_indices() == {4, 9}
        assert reloaded.outcomes() == {4: result, 9: failure}
        assert reloaded.perf_snapshots == [{"n_forward_docs": 3}]

    def test_header_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path, header={"seed": 0, "attack": "x"})
        with pytest.raises(JournalMismatchError, match="seed"):
            RunJournal(path, header={"seed": 1, "attack": "x"})
        with pytest.raises(JournalMismatchError, match="attack"):
            RunJournal(path, header={"seed": 0, "attack": "y"})

    def test_journal_without_a_delta_key_resumes_only_with_delta_off(self, tmp_path):
        path = tmp_path / "run.jsonl"
        # a header written before journals recorded the delta setting
        RunJournal(path, header={"seed": 0, "attack": "x"})
        RunJournal(path, header={"seed": 0, "attack": "x", "delta_scoring": False})
        with pytest.raises(JournalMismatchError, match="delta_scoring"):
            RunJournal(path, header={"seed": 0, "attack": "x", "delta_scoring": True})

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0})
        journal.record(0, make_result(), seed_index=0)
        with open(path, "a") as fh:
            fh.write('{"kind": "result", "doc_index": 1, "resu')  # crash mid-append
        reloaded = RunJournal(path, header={"seed": 0})
        assert reloaded.completed_indices() == {0}
        # the resumed run appends on a fresh line, not onto the fragment
        reloaded.record(1, make_result(), seed_index=1)
        reloaded.record(2, make_result(), seed_index=2)
        assert RunJournal(path, header={"seed": 0}).completed_indices() == {0, 1, 2}

    def test_final_record_without_its_newline_is_dropped(self, tmp_path):
        # a crash can tear an append just before its newline; the next record
        # must not be appended onto the complete-looking fragment
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0})
        journal.record(0, make_result(), seed_index=0)
        journal.record(1, make_result(), seed_index=1)
        path.write_bytes(path.read_bytes()[:-1])
        reloaded = RunJournal(path, header={"seed": 0})
        assert reloaded.completed_indices() == {0}
        reloaded.record(1, make_result(), seed_index=1)
        reloaded.record(2, make_result(), seed_index=2)
        assert RunJournal(path, header={"seed": 0}).completed_indices() == {0, 1, 2}

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0})
        journal.record(0, make_result(), seed_index=0)
        text = path.read_text()
        path.write_text("garbage not json\n" + text)
        with pytest.raises(JournalError, match="undecodable"):
            RunJournal(path)


class TestEvaluateAttackResume:
    @pytest.fixture()
    def run_kwargs(self, atk_corpus):
        return dict(examples=atk_corpus.test, max_examples=N_EXAMPLES, seed=3)

    def test_journaled_run_writes_one_record_per_document(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        path = tmp_path / "run.jsonl"
        ev = evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        journal = RunJournal(path)
        assert len(journal.outcomes()) == ev.n_attacked
        # one perf record from the attached recorder (the victim fixture
        # carries none by default) is optional; results are what matter
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds[0] == "header"
        assert kinds.count("result") == ev.n_attacked

    def test_interrupt_then_resume_matches_fresh_run(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        # stochastic attack: resume equality only holds if the remaining
        # documents keep their original seed indices
        fresh_attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        fresh = evaluate_attack(victim, fresh_attack, **run_kwargs)
        assert fresh.n_attacked > 3

        path = tmp_path / "run.jsonl"
        interrupted_attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )

        def interrupt_after_three(beat):
            if beat.done >= 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evaluate_attack(
                victim,
                interrupted_attack,
                journal_path=path,
                progress=interrupt_after_three,
                **run_kwargs,
            )
        journaled = RunJournal(path).completed_indices()
        assert 0 < len(journaled) < fresh.n_attacked

        resumed_attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        beats = []
        resumed = evaluate_attack(
            victim, resumed_attack, journal_path=path, progress=beats.append, **run_kwargs
        )

        # no document attacked twice across interrupt + resume: the resumed
        # run attacks exactly the documents the journal lacks.  Heartbeats
        # fire in the parent once per attacked document, also when pool
        # workers do the attacking
        assert len(beats) == fresh.n_attacked - len(journaled)
        assert len(RunJournal(path).completed_indices()) == fresh.n_attacked

        # the resumed evaluation is the fresh evaluation (modulo wall clock)
        assert resumed.n_examples == fresh.n_examples
        assert resumed.n_attacked == fresh.n_attacked
        assert resumed.clean_accuracy == fresh.clean_accuracy
        assert resumed.adversarial_accuracy == fresh.adversarial_accuracy
        assert resumed.success_rate == fresh.success_rate
        assert resumed.mean_queries == fresh.mean_queries
        assert resumed.mean_word_changes == fresh.mean_word_changes
        assert resumed.adversarial_examples == fresh.adversarial_examples
        assert resumed.failures == fresh.failures == []
        for got, want in zip(resumed.results, fresh.results):
            assert got.original == want.original
            assert got.adversarial == want.adversarial
            assert got.success == want.success
            assert got.original_prob == want.original_prob
            assert got.adversarial_prob == want.adversarial_prob
            assert got.n_queries == want.n_queries
            assert got.stages == want.stages

    def test_completed_journal_resumes_without_attacking(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        first = evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        replay_attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        beats = []
        replay = evaluate_attack(
            victim, replay_attack, journal_path=path, progress=beats.append, **run_kwargs
        )
        assert beats == []
        assert replay.results == first.results
        assert replay.summary() == first.summary()

    @pytest.mark.parametrize("written", [False, True], ids=["full-then-delta", "delta-then-full"])
    def test_journal_refuses_the_other_delta_setting(
        self, victim, word_paraphraser, run_kwargs, tmp_path, written
    ):
        """Delta on and off can pick different tied adversarials, so a resume
        under the other setting would equal neither uninterrupted run."""
        path = tmp_path / "run.jsonl"
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)

        def interrupt_after_two(beat):
            if beat.done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evaluate_attack(
                victim,
                attack,
                journal_path=path,
                progress=interrupt_after_two,
                delta_scoring=written,
                **run_kwargs,
            )
        assert len(RunJournal(path).completed_indices()) == 2
        with pytest.raises(JournalMismatchError, match="delta_scoring"):
            evaluate_attack(
                victim, attack, journal_path=path, delta_scoring=not written, **run_kwargs
            )
        resumed = evaluate_attack(
            victim, attack, journal_path=path, delta_scoring=written, **run_kwargs
        )
        assert len(RunJournal(path).completed_indices()) == resumed.n_attacked

    def test_journal_refuses_different_run(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        attack = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=5
        )
        evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        other = dict(run_kwargs, seed=4)
        with pytest.raises(JournalMismatchError):
            evaluate_attack(victim, attack, journal_path=path, **other)
