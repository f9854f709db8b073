"""Tests for the beam-search word attack."""

import numpy as np
import pytest

from repro.attacks import build_attack


class TestValidation:
    def test_bad_beam_width(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=0)

    def test_bad_budget(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack(
                "beam_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=1.5
            )

    def test_bad_tau(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack("beam_word", victim, word_paraphraser=word_paraphraser, tau=0.0)


class TestBehavior:
    def test_never_decreases_objective(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=2)
        for doc, target in attackable_docs[:4]:
            r = atk.attack(doc, target)
            assert r.adversarial_prob >= r.original_prob - 1e-9

    def test_respects_budget(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack(
            "beam_word",
            victim,
            word_paraphraser=word_paraphraser,
            word_budget_ratio=0.1,
            beam_width=2,
        )
        doc, target = attackable_docs[0]
        r = atk.attack(doc, target)
        assert r.n_word_changes <= max(1, int(0.1 * len(doc)))

    def test_zero_budget_identity(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack(
            "beam_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.0
        )
        doc, target = attackable_docs[0]
        assert atk.attack(doc, target).adversarial == list(doc)

    def test_at_least_as_good_as_greedy(self, victim, word_paraphraser, attackable_docs):
        """A width-3 beam dominates greedy's final objective on average."""
        greedy = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        beam = build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=3)
        g = np.mean([greedy.attack(d, t).adversarial_prob for d, t in attackable_docs])
        b = np.mean([beam.attack(d, t).adversarial_prob for d, t in attackable_docs])
        assert b >= g - 0.01

    def test_wider_beam_no_worse(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[1]
        narrow = build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=1)
        wide = build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=4)
        assert wide.attack(doc, target).adversarial_prob >= narrow.attack(doc, target).adversarial_prob - 0.02

    def test_more_queries_than_greedy(self, victim, word_paraphraser, attackable_docs):
        greedy = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        beam = build_attack("beam_word", victim, word_paraphraser=word_paraphraser, beam_width=4)
        doc, target = attackable_docs[2]
        assert beam.attack(doc, target).n_queries >= greedy.attack(doc, target).n_queries
