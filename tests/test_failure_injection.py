"""Failure-injection tests: corrupted inputs, degenerate configurations,
and hostile edge cases across module boundaries."""

import numpy as np
import pytest

from repro.attacks import ParaphraseConfig, WordParaphraser, build_attack
from repro.text.transformations import WordNeighborSets
from repro.data.datasets import Example, TextDataset
from repro.eval.metrics import evaluate_attack
from repro.models import WCNN, TrainConfig, fit
from repro.nn.serialization import load, save
from repro.text import NGramLM, Vocabulary


class TestCorruptedSerialization:
    def test_truncated_file_raises(self, tmp_path, victim):
        model = WCNN(victim.vocab, 72, embedding_dim=8, num_filters=4)
        path = tmp_path / "model.npz"
        save(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        clone = WCNN(victim.vocab, 72, embedding_dim=8, num_filters=4)
        with pytest.raises(Exception):
            load(clone, path)

    def test_wrong_architecture_file_raises(self, tmp_path, victim):
        from repro.models import LSTMClassifier

        wcnn = WCNN(victim.vocab, 72, embedding_dim=8, num_filters=4)
        path = tmp_path / "model.npz"
        save(wcnn, path)
        lstm = LSTMClassifier(victim.vocab, 72, embedding_dim=8, hidden_dim=4)
        with pytest.raises(KeyError):
            load(lstm, path)


class TestDegenerateAttackInputs:
    def test_attack_doc_with_no_candidates(self, victim):
        # neighbor sets that offer nothing: the attack must terminate
        # gracefully with the document unchanged
        class EmptyCandidates:
            def neighbor_sets(self, tokens):
                return WordNeighborSets([[] for _ in tokens])

        attack = build_attack("greedy_word", victim, word_paraphraser=EmptyCandidates())
        doc = ["the", "food", "was", "great", "."]
        result = attack.attack(doc, 0)
        assert result.adversarial == doc
        assert not result.stages

    def test_attack_single_token_document(self, victim, word_paraphraser):
        attack = build_attack(
            "gradient_guided", victim, word_paraphraser=word_paraphraser, word_budget_ratio=1.0
        )
        result = attack.attack(["great"], 0)
        assert 0.0 <= result.adversarial_prob <= 1.0

    def test_attack_all_unknown_tokens(self, victim, word_paraphraser):
        attack = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.5
        )
        result = attack.attack(["zzz", "qqq", "xxx"], 1)
        assert result.adversarial == ["zzz", "qqq", "xxx"]

    def test_attack_document_longer_than_max_len(self, victim, word_paraphraser):
        long_doc = ["great", "food", "."] * 60  # 180 tokens > max_len 72
        attack = build_attack(
            "gradient_guided", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.1
        )
        result = attack.attack(long_doc, 0)
        assert len(result.adversarial) == len(long_doc)


class TestDegenerateEvaluation:
    def test_all_misclassified_dataset(self, victim, word_paraphraser):
        # deliberately mislabeled examples: nothing is attacked
        docs = [["great", "food", "."], ["terrible", "meal", "."]]
        preds = victim.predict(docs)
        wrong = [Example(tuple(d), int(1 - p)) for d, p in zip(docs, preds)]
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        ev = evaluate_attack(victim, attack, wrong)
        assert ev.clean_accuracy == 0.0
        assert ev.n_attacked == 0
        assert ev.success_rate == 0.0


class TestHostileTextInputs:
    def test_lm_scores_unseen_everything(self):
        lm = NGramLM(order=2, alpha=0.5).fit([["a", "b"]])
        lp = lm.log_prob(["totally", "novel", "words"])
        assert np.isfinite(lp)

    def test_vocab_encode_batch_empty_doc(self):
        v = Vocabulary(["a"])
        ids, mask = v.encode_batch([[]], max_len=3)
        assert not mask.any()
        assert (ids == v.pad_id).all()

    def test_paraphraser_with_empty_vectors(self, atk_lexicon):
        wp = WordParaphraser(atk_lexicon, {}, config=ParaphraseConfig(delta_w=0.5))
        # no vectors -> zero similarity -> no candidates anywhere
        ns = wp.neighbor_sets(["great", "food"])
        assert ns.total_candidates() == 0

    def test_model_predicts_empty_token_doc(self, victim):
        probs = victim.predict_proba([[]])
        np.testing.assert_allclose(probs.sum(), 1.0)


class TestTrainingRobustness:
    def test_training_with_single_class_does_not_crash(self, victim):
        model = WCNN(victim.vocab, 72, embedding_dim=8, num_filters=4)
        examples = [Example(("great", "food", "."), 1) for _ in range(10)]
        result = fit(model, examples, TrainConfig(epochs=2, val_fraction=0.2, seed=0))
        assert len(result.train_losses) >= 1

    def test_training_with_tiny_batch(self, victim):
        model = WCNN(victim.vocab, 72, embedding_dim=8, num_filters=4)
        examples = [
            Example(("great", "food", "."), 1),
            Example(("terrible", "meal", "."), 0),
        ]
        result = fit(
            model, examples, TrainConfig(epochs=1, batch_size=1, val_fraction=0.0, seed=0)
        )
        assert np.isfinite(result.train_losses[0])

    def test_dataset_with_extra_train_preserves_types(self):
        ds = TextDataset("t", ("a", "b"), [Example(("x",), 0)], [Example(("y",), 1)])
        bigger = ds.with_extra_train([Example(("z",), 1)])
        assert all(isinstance(ex, Example) for ex in bigger.train)
