"""Tests for the adversarial-training pipeline (Table 5 logic)."""

import pytest

from repro.attacks import build_attack
from repro.defense.adversarial_training import adversarial_training
from repro.models import TrainConfig, WCNN
from repro.text import Vocabulary, embedding_matrix_for_vocab



@pytest.fixture(scope="module")
def small_setup(atk_corpus, atk_vectors, word_paraphraser):
    vocab = Vocabulary.build(atk_corpus.documents("train"))
    emb = embedding_matrix_for_vocab(vocab, atk_vectors, dim=32)

    def model_factory():
        return WCNN(vocab, 72, pretrained_embeddings=emb, num_filters=32, seed=0)

    def attack_factory(model):
        return build_attack("greedy_word", model, word_paraphraser=word_paraphraser)

    return model_factory, attack_factory


class TestAdversarialTraining:
    def test_invalid_fraction(self, small_setup, atk_corpus):
        mf, af = small_setup
        with pytest.raises(ValueError):
            adversarial_training(mf, af, atk_corpus, augment_fraction=0.0)
        with pytest.raises(ValueError):
            adversarial_training(mf, af, atk_corpus, augment_fraction=1.5)

    def test_full_pipeline(self, small_setup, atk_corpus):
        mf, af = small_setup
        result = adversarial_training(
            mf,
            af,
            atk_corpus,
            train_config=TrainConfig(epochs=5, seed=0),
            augment_fraction=0.2,
            max_eval_examples=20,
            seed=0,
        )
        # sizes
        assert result.n_augmented == int(0.2 * len(atk_corpus.train))
        # accuracies are probabilities
        for v in result.as_row().values():
            assert 0.0 <= v <= 1.0
        # the paper's qualitative claim: robustness improves (allow slack
        # for the small-sample setting, but it must not collapse)
        assert result.adv_after >= result.adv_before - 0.1
        # clean accuracy does not collapse either
        assert result.test_after >= result.test_before - 0.1
        # a trained model comes back
        assert result.model_after.accuracy(
            atk_corpus.documents("test"), atk_corpus.labels("test")
        ) > 0.8

    def test_original_dataset_untouched(self, small_setup, atk_corpus):
        mf, af = small_setup
        n_before = len(atk_corpus.train)
        adversarial_training(
            mf,
            af,
            atk_corpus,
            train_config=TrainConfig(epochs=2, seed=0),
            augment_fraction=0.1,
            max_eval_examples=8,
        )
        assert len(atk_corpus.train) == n_before
