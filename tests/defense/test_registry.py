"""Tests for the defense registry: specs, builders, and the two-phase
retrain/wrap protocol the grid runner drives."""

import pickle

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.defense.registry import (
    DEFENSES,
    Defense,
    DefenseResources,
    build_defense,
)
from repro.defense.smoothing import SmoothedClassifier
from repro.models import TrainConfig, WCNN
from repro.text import Vocabulary, embedding_matrix_for_vocab


@pytest.fixture(scope="module")
def resources(atk_corpus, atk_lexicon, atk_vectors, word_paraphraser):
    vocab = Vocabulary.build(atk_corpus.documents("train"))
    emb = embedding_matrix_for_vocab(vocab, atk_vectors, dim=32)
    return DefenseResources(
        dataset=atk_corpus,
        lexicon=atk_lexicon,
        train_config=TrainConfig(epochs=3, seed=0),
        model_factory=lambda: WCNN(
            vocab, 72, pretrained_embeddings=emb, num_filters=16, seed=0
        ),
        attack_factory=lambda model: build_attack(
            "greedy_word", model, word_paraphraser=word_paraphraser
        ),
        seed=0,
    )


class TestRegistryMetadata:
    def test_expected_names(self):
        assert set(DEFENSES) == {"none", "adv_training", "smoothing"}

    def test_spec_names_match_keys(self):
        for name, spec in DEFENSES.items():
            assert spec.name == name

    def test_kinds_are_valid(self):
        assert {s.kind for s in DEFENSES.values()} <= {
            "baseline",
            "training",
            "inference",
        }

    def test_smoothing_is_black_box(self):
        assert DEFENSES["smoothing"].black_box
        assert not DEFENSES["none"].black_box
        assert not DEFENSES["adv_training"].black_box

    def test_builder_params_metadata_is_accurate(self):
        # every advertised param is a real builder keyword
        for spec in DEFENSES.values():
            defense = spec.builder()
            assert set(defense.params()) == set(spec.params)

    def test_specs_and_defenses_pickle(self):
        for name, spec in DEFENSES.items():
            assert pickle.loads(pickle.dumps(spec)).name == name
            defense = build_defense(name)
            assert pickle.loads(pickle.dumps(defense)).cache_key() == defense.cache_key()


class TestBuildDefense:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="adv_training"):
            build_defense("quantum_shield")

    def test_builder_params_forwarded(self):
        defense = build_defense("smoothing", n_samples=5, substitution_prob=0.5)
        assert defense.n_samples == 5
        assert defense.substitution_prob == 0.5

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            build_defense("adv_training", augment_fraction=0.0)
        with pytest.raises(TypeError):
            build_defense("none", bogus=1)

    def test_cache_keys_are_stable_and_distinct(self):
        assert build_defense("none").cache_key() == "none"
        a = build_defense("adv_training").cache_key()
        b = build_defense("adv_training", augment_fraction=0.5).cache_key()
        assert a != b and a.startswith("adv_training")


class TestProtocol:
    def test_base_defense_is_identity(self, resources):
        model = resources.model_factory()
        defense = Defense()
        assert defense.retrain(model, resources) is model
        assert defense.wrap(model, resources) is model
        assert not defense.retrains

    def test_none_defense_is_identity(self, resources):
        model = resources.model_factory()
        defense = build_defense("none")
        assert defense.retrain(model, resources) is model
        assert defense.wrap(model, resources) is model

    def test_smoothing_wraps_without_retraining(self, resources):
        model = resources.model_factory()
        defense = build_defense("smoothing", n_samples=3)
        assert not defense.retrains
        assert defense.retrain(model, resources) is model
        wrapped = defense.wrap(model, resources)
        assert isinstance(wrapped, SmoothedClassifier)
        assert wrapped.n_samples == 3

    def test_adv_training_retrains_deterministically(self, victim, resources):
        defense = build_defense("adv_training", augment_fraction=0.1)
        assert defense.retrains
        hardened = defense.retrain(victim, resources)
        assert hardened is not victim
        docs = resources.dataset.documents("test")[:8]
        # deterministic: retraining twice gives bitwise-identical victims
        again = defense.retrain(victim, resources)
        np.testing.assert_array_equal(
            hardened.predict_proba(docs), again.predict_proba(docs)
        )
        # the hardened model still classifies
        acc = hardened.accuracy(
            resources.dataset.documents("test"), resources.dataset.labels("test")
        )
        assert acc > 0.7
