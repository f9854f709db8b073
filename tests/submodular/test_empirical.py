"""Tests for the empirical-submodularity extension (real classifiers)."""

import numpy as np
import pytest

from repro.submodular.checks import ViolationStats, submodularity_violation_stats
from repro.submodular.empirical import classifier_attack_set_function
from repro.submodular.set_function import ModularSetFunction, SetFunction


class SquareCardinality(SetFunction):
    def __init__(self, n):
        super().__init__(n)

    def evaluate(self, subset):
        return float(len(frozenset(subset)) ** 2)


class TestViolationStats:
    def test_modular_has_zero_violations(self):
        stats = submodularity_violation_stats(ModularSetFunction([1.0, 2.0, 3.0, 4.0]), trials=100)
        assert stats.violation_rate == 0.0
        assert stats.mean_gap == 0.0
        assert stats.relative_gap == 0.0

    def test_supermodular_has_violations(self):
        stats = submodularity_violation_stats(SquareCardinality(6), trials=200, seed=1)
        assert stats.violation_rate > 0.3
        assert stats.max_gap > 0

    def test_trials_counted(self):
        stats = submodularity_violation_stats(ModularSetFunction([1.0] * 5), trials=50)
        assert 0 < stats.trials <= 50

    def test_tiny_ground_set(self):
        stats = submodularity_violation_stats(ModularSetFunction([1.0]), trials=10)
        assert stats.trials == 0
        assert stats.violation_rate == 0.0

    def test_relative_gap_zero_when_no_gains(self):
        stats = ViolationStats(10, 0.0, 0.0, 0.0, 0.0)
        assert stats.relative_gap == 0.0


class TestClassifierAttackSetFunction:
    def test_builds_and_is_monotone_sampled(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        ns = word_paraphraser.neighbor_sets(doc)
        f, positions = classifier_attack_set_function(victim, doc, ns, target, max_positions=4)
        assert f.ground_set_size == len(positions) <= 4
        # f(∅) equals the current target probability
        np.testing.assert_allclose(f.evaluate(()), victim.target_probability(doc, target))
        # monotone by construction (keep is always available)
        assert f.evaluate(positions_set := frozenset(range(f.ground_set_size))) >= f.evaluate(()) - 1e-12

    def test_invalid_target(self, victim, word_paraphraser, attackable_docs):
        doc, _ = attackable_docs[0]
        ns = word_paraphraser.neighbor_sets(doc)
        with pytest.raises(ValueError):
            classifier_attack_set_function(victim, doc, ns, 5)

    def test_no_attackable_positions(self, victim, word_paraphraser):
        from repro.text.transformations import WordNeighborSets

        ns = WordNeighborSets([[], []])
        with pytest.raises(ValueError):
            classifier_attack_set_function(victim, ["the", "a"], ns, 1)

    def test_candidate_cap_respected(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        ns = word_paraphraser.neighbor_sets(doc)
        f, _ = classifier_attack_set_function(
            victim, doc, ns, target, max_positions=3, max_candidates_per_position=1
        )
        assert all(k <= 2 for k in f.num_candidates)
