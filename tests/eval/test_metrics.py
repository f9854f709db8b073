"""Tests for attack evaluation metrics."""

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.eval.metrics import evaluate_attack



class TestEvaluateAttack:
    def test_empty_examples_raises(self, victim, word_paraphraser):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        with pytest.raises(ValueError):
            evaluate_attack(victim, atk, [])

    def test_basic_fields(self, victim, word_paraphraser, atk_corpus):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        ev = evaluate_attack(victim, atk, atk_corpus.test, max_examples=10)
        assert ev.n_examples == 10
        assert 0.0 <= ev.clean_accuracy <= 1.0
        assert 0.0 <= ev.adversarial_accuracy <= ev.clean_accuracy + 1e-9
        assert 0.0 <= ev.success_rate <= 1.0
        assert ev.n_attacked == len(ev.results)

    def test_adversarial_accuracy_consistency(self, victim, word_paraphraser, atk_corpus):
        # adv accuracy = (correct and unflipped) / total
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        ev = evaluate_attack(victim, atk, atk_corpus.test, max_examples=12)
        survivors = sum(1 for r in ev.results if not r.success)
        np.testing.assert_allclose(ev.adversarial_accuracy, survivors / ev.n_examples)

    def test_success_rate_relates_accuracies(self, victim, word_paraphraser, atk_corpus):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        ev = evaluate_attack(victim, atk, atk_corpus.test, max_examples=12)
        if ev.n_attacked:
            expected = ev.clean_accuracy * (1 - ev.success_rate)
            np.testing.assert_allclose(ev.adversarial_accuracy, expected, atol=1e-9)

    def test_subsampling_deterministic(self, victim, word_paraphraser, atk_corpus):
        atk = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.1, seed=0
        )
        a = evaluate_attack(victim, atk, atk_corpus.test, max_examples=6, seed=1)
        b = evaluate_attack(victim, atk, atk_corpus.test, max_examples=6, seed=1)
        sa, sb = a.summary(), b.summary()
        sa.pop("mean_time"), sb.pop("mean_time")  # wall time is not deterministic
        assert sa == sb

    def test_adversarial_examples_keep_true_labels(self, victim, word_paraphraser, atk_corpus):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        ev = evaluate_attack(victim, atk, atk_corpus.test, max_examples=10)
        originals = {tuple(r.original) for r in ev.results}
        for ex, r in zip(ev.adversarial_examples, ev.results):
            assert ex.label == 1 - r.target_label
        assert len(ev.adversarial_examples) == len(ev.results)

    def test_summary_keys(self, victim, word_paraphraser, atk_corpus):
        atk = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.1
        )
        ev = evaluate_attack(victim, atk, atk_corpus.test, max_examples=4)
        assert set(ev.summary()) == {
            "clean_accuracy",
            "adversarial_accuracy",
            "success_rate",
            "mean_time",
            "mean_queries",
            "mean_word_changes",
        }
