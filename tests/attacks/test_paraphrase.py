"""Tests for candidate generation (word / sentence paraphrasers) and filters."""

import numpy as np
import pytest

from repro.attacks.paraphrase import ParaphraseConfig, SentenceParaphraser, WordParaphraser
from repro.text.transformations import (
    SentenceNeighborSets,
    WordNeighborSets,
    apply_word_substitutions,
    transformation_support,
)
from repro.text.wmd import wmd_similarity


class TestParaphraseConfig:
    def test_defaults_valid(self):
        ParaphraseConfig()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ParaphraseConfig(k=0)

    def test_invalid_delta_w(self):
        with pytest.raises(ValueError):
            ParaphraseConfig(delta_w=1.5)

    def test_invalid_delta_lm(self):
        with pytest.raises(ValueError):
            ParaphraseConfig(delta_lm=-1.0)


class TestTransformations:
    def test_apply_substitutions(self):
        out = apply_word_substitutions(["a", "b", "c"], {1: "x"})
        assert out == ["a", "x", "c"]

    def test_apply_out_of_range(self):
        with pytest.raises(IndexError):
            apply_word_substitutions(["a"], {3: "x"})

    def test_apply_does_not_mutate(self):
        doc = ["a", "b"]
        apply_word_substitutions(doc, {0: "z"})
        assert doc == ["a", "b"]

    def test_support(self):
        assert transformation_support(["a", "b", "c"], ["a", "x", "c"]) == [1]

    def test_support_length_mismatch(self):
        with pytest.raises(ValueError):
            transformation_support(["a"], ["a", "b"])

    def test_word_neighbor_sets_api(self):
        ns = WordNeighborSets([["x"], [], ["y", "z"]])
        assert len(ns) == 3
        assert ns[2] == ["y", "z"]
        assert ns.attackable_positions == [0, 2]
        assert ns.num_candidates == [2, 1, 3]
        assert ns.total_candidates() == 3

    def test_word_neighbor_sets_duplicates_rejected(self):
        with pytest.raises(ValueError):
            WordNeighborSets([["x", "x"]])

    def test_sentence_neighbor_sets_api(self):
        ns = SentenceNeighborSets([[["a", "."]], []])
        assert len(ns) == 2
        assert ns.attackable_sentences == [0]
        assert ns.total_candidates() == 1


class TestWordParaphraser:
    def test_candidates_are_synonyms(self, word_paraphraser, atk_lexicon):
        cands = word_paraphraser.candidates_for_word("great")
        assert cands
        assert set(cands) <= set(atk_lexicon.synonyms("great"))

    def test_unknown_word_no_candidates(self, word_paraphraser):
        assert word_paraphraser.candidates_for_word("qwerty") == []

    def test_similarity_filter_strict_threshold(self, atk_lexicon, atk_vectors):
        strict = WordParaphraser(
            atk_lexicon, atk_vectors, config=ParaphraseConfig(delta_w=0.999)
        )
        assert strict.candidates_for_word("great") == []

    def test_k_caps_candidates(self, atk_lexicon, atk_vectors):
        capped = WordParaphraser(
            atk_lexicon, atk_vectors, config=ParaphraseConfig(k=1, delta_w=0.1)
        )
        assert len(capped.candidates_for_word("great")) <= 1

    def test_neighbor_sets_shape(self, word_paraphraser):
        doc = ["the", "food", "was", "great", "."]
        ns = word_paraphraser.neighbor_sets(doc)
        assert len(ns) == len(doc)
        assert 3 in ns.attackable_positions  # "great" has synonyms

    def test_finite_delta_lm_requires_lm(self, atk_lexicon, atk_vectors):
        with pytest.raises(ValueError):
            WordParaphraser(
                atk_lexicon, atk_vectors, lm=None, config=ParaphraseConfig(delta_lm=2.0)
            )

    def test_lm_filter_prunes(self, atk_lexicon, atk_vectors, atk_lm):
        loose = WordParaphraser(
            atk_lexicon, atk_vectors, lm=atk_lm,
            config=ParaphraseConfig(delta_w=0.1, delta_lm=float("inf")),
        )
        tight = WordParaphraser(
            atk_lexicon, atk_vectors, lm=atk_lm,
            config=ParaphraseConfig(delta_w=0.1, delta_lm=0.05),
        )
        doc = ["the", "food", "was", "great", "."]
        assert tight.neighbor_sets(doc).total_candidates() <= loose.neighbor_sets(doc).total_candidates()

    def test_lm_delta_local_equals_global(self, word_paraphraser, atk_lm):
        # The local-window computation must equal rescoring the whole doc.
        doc = ["the", "food", "was", "great", "."]
        for pos, new in [(3, "wonderful"), (1, "meal")]:
            local = word_paraphraser._lm_delta(doc, pos, new)
            replaced = list(doc)
            replaced[pos] = new
            full = abs(atk_lm.log_prob(replaced) - atk_lm.log_prob(doc))
            np.testing.assert_allclose(local, full, atol=1e-9)


class TestSentenceParaphraser:
    def test_paraphrases_nonempty_for_rich_sentence(self, sentence_paraphraser):
        sent = ["the", "food", "was", "very", "great", "."]
        paras = sentence_paraphraser.paraphrases(sent)
        assert paras
        assert all(p != sent for p in paras)

    def test_paraphrases_pass_similarity_filter(self, sentence_paraphraser, atk_vectors):
        sent = ["the", "food", "was", "great", "."]
        for p in sentence_paraphraser.paraphrases(sent):
            assert wmd_similarity(sent, p, atk_vectors, exact=False) >= 0.5

    def test_empty_sentence(self, sentence_paraphraser):
        assert sentence_paraphraser.paraphrases([]) == []

    def test_deterministic(self, sentence_paraphraser):
        sent = ["the", "food", "was", "great", "."]
        a = sentence_paraphraser.paraphrases(sent)
        b = sentence_paraphraser.paraphrases(sent)
        assert a == b

    def test_k_cap(self, atk_lexicon, atk_vectors):
        sp = SentenceParaphraser(
            atk_lexicon, atk_vectors, config=ParaphraseConfig(k=2, delta_s=0.1)
        )
        sent = ["the", "food", "was", "very", "great", "and", "the", "staff", "was", "friendly", "."]
        assert len(sp.paraphrases(sent)) <= 2

    def test_intensifier_removal_rule(self):
        out = SentenceParaphraser._intensifier_removal(["it", "was", "very", "good", "."])
        assert out == [["it", "was", "good", "."]]

    def test_intensifier_removal_no_intensifier(self):
        assert SentenceParaphraser._intensifier_removal(["good", "."]) == []

    def test_intensifier_insertion_rule(self):
        out = SentenceParaphraser._intensifier_insertion(["it", "was", "good", "."])
        assert out == [["it", "was", "really", "good", "."]]

    def test_copula_shift_rule(self):
        out = SentenceParaphraser._copula_shift(["it", "was", "good", "."])
        assert out == [["it", "is", "good", "."]]

    def test_clause_reorder_rule(self):
        out = SentenceParaphraser._clause_reorder(["good", "food", "and", "bad", "staff", "."])
        assert out == [["bad", "staff", "and", "good", "food", "."]]

    def test_clause_reorder_no_and(self):
        assert SentenceParaphraser._clause_reorder(["good", "."]) == []

    def test_clause_reorder_dangling_and(self):
        assert SentenceParaphraser._clause_reorder(["and", "good", "."]) == []

    def test_neighbor_sets_splits_document(self, sentence_paraphraser):
        doc = ["good", "food", ".", "bad", "staff", "."]
        sentences, ns = sentence_paraphraser.neighbor_sets(doc)
        assert len(sentences) == 2
        assert len(ns) == 2
