"""Tests for the randomized synonym-smoothing defense."""

import numpy as np
import pytest

from repro.attacks import build_attack
from repro.data import news_lexicon, sentiment_lexicon, spam_lexicon
from repro.defense.smoothing import SmoothedClassifier


@pytest.fixture(scope="module")
def smoothed(victim, atk_lexicon):
    return SmoothedClassifier(victim, atk_lexicon, n_samples=7, substitution_prob=0.3, seed=0)


class TestConstruction:
    def test_invalid_samples(self, victim, atk_lexicon):
        with pytest.raises(ValueError):
            SmoothedClassifier(victim, atk_lexicon, n_samples=0)

    def test_invalid_prob(self, victim, atk_lexicon):
        with pytest.raises(ValueError):
            SmoothedClassifier(victim, atk_lexicon, substitution_prob=1.5)

    def test_gradient_blocked(self, smoothed):
        with pytest.raises(NotImplementedError):
            smoothed.embedding_gradient(["great"], 1)

    def test_passthroughs(self, smoothed, victim):
        assert smoothed.vocab is victim.vocab
        assert smoothed.max_len == victim.max_len
        assert smoothed.embedding is victim.embedding


class TestSmoothing:
    def test_proba_simplex(self, smoothed, atk_corpus):
        probs = smoothed.predict_proba(atk_corpus.documents("test")[:4])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_document(self, smoothed, atk_corpus):
        doc = atk_corpus.documents("test")[0]
        a = smoothed.predict_proba([doc])
        b = smoothed.predict_proba([doc])
        np.testing.assert_array_equal(a, b)

    def test_single_sample_equals_base_model(self, victim, atk_lexicon, atk_corpus):
        smooth1 = SmoothedClassifier(victim, atk_lexicon, n_samples=1)
        docs = atk_corpus.documents("test")[:5]
        np.testing.assert_allclose(
            smooth1.predict_proba(docs), victim.predict_proba(docs), atol=1e-12
        )

    def test_clean_accuracy_mostly_preserved(self, smoothed, victim, atk_corpus):
        docs = atk_corpus.documents("test")
        labels = atk_corpus.labels("test")
        base = victim.accuracy(docs, labels)
        smooth = smoothed.accuracy(docs, labels)
        assert smooth >= base - 0.1

    def test_accuracy_empty_raises(self, smoothed):
        with pytest.raises(ValueError):
            smoothed.accuracy([], np.array([]))


class TestSmoothingAsDefense:
    def test_reduces_attack_success(self, victim, smoothed, word_paraphraser, attackable_docs):
        base_attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        smooth_attack = build_attack("greedy_word", smoothed, word_paraphraser=word_paraphraser)
        base_wins = sum(base_attack.attack(d, t).success for d, t in attackable_docs)
        smooth_wins = sum(smooth_attack.attack(d, t).success for d, t in attackable_docs)
        # smoothing should not make the attack strictly easier
        assert smooth_wins <= base_wins + 1


def reference_ensemble(smoother, doc):
    """The per-word loop the ensemble replaced, kept as the oracle of its RNG stream.

    Every word is looked up through its cluster; a clustered one costs one
    ``rng.random()`` and, when substituted, one ``rng.integers``.  Returns
    the ensemble and the generator, to compare its state after the draws.
    """
    doc = list(doc)
    rng = smoother._doc_rng(doc)
    ensemble = [doc]
    for _ in range(smoother.n_samples - 1):
        out = list(doc)
        for i, word in enumerate(out):
            cluster = smoother.lexicon.cluster_of(word)
            syns = cluster.alternatives(word) if cluster else ()
            if syns and rng.random() < smoother.substitution_prob:
                out[i] = str(syns[rng.integers(len(syns))])
        ensemble.append(out)
    return ensemble, rng


@pytest.fixture(scope="module")
def stream_docs(atk_corpus, victim):
    """Corpus documents plus the shapes that stress the slot bookkeeping."""
    docs = [list(d) for d in atk_corpus.documents("test")[:6]]
    base = docs[0]
    overlong = base + ["great", "the", "rude"] * victim.max_len  # clustered words past max_len
    return docs + [
        ["zzz-unknown", "great", "not-a-word", "food", "the"],  # out-of-vocabulary words
        ["great", "great", "great", "slow", "great"],  # a clustered word repeated
        overlong,
        ["the", "a", "zzz-unknown"],  # no clustered word at all
        [],
    ]


class TestEnsembleStream:
    """The ensemble is the per-word loop's, copy for copy and draw for draw.

    No golden covers a smoothing cell: without this, only the benchmark's
    ``tournament-pooled`` digest would see a change in the RNG call order.
    """

    @pytest.mark.parametrize("n_samples", [1, 2, 9])
    @pytest.mark.parametrize("prob", [0.0, 0.25, 1.0])
    def test_ensemble_equals_per_word_loop(self, victim, atk_lexicon, stream_docs, n_samples, prob):
        smoother = SmoothedClassifier(
            victim, atk_lexicon, n_samples=n_samples, substitution_prob=prob, seed=3
        )
        for doc in stream_docs:
            expected, ref_rng = reference_ensemble(smoother, doc)
            rng = smoother._doc_rng(doc)
            assert smoother._ensemble(list(doc), rng) == expected
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_copies_differ_where_expected(self, victim, atk_lexicon, stream_docs):
        # prob 1 substitutes every clustered word, including past max_len;
        # prob 0 leaves every copy equal to the document
        always = SmoothedClassifier(victim, atk_lexicon, n_samples=2, substitution_prob=1.0)
        never = SmoothedClassifier(victim, atk_lexicon, n_samples=2, substitution_prob=0.0)
        doc = stream_docs[-3]
        _, copy = always._ensemble(doc, always._doc_rng(doc))
        clustered = [i for i, w in enumerate(doc) if atk_lexicon.synonyms(w)]
        assert clustered[-1] >= victim.max_len
        assert all(copy[i] != doc[i] for i in clustered)
        assert never._ensemble(doc, never._doc_rng(doc)) == [doc, doc]

    @pytest.mark.parametrize("n_samples", [1, 2, 9])
    def test_predict_proba_bitwise_over_reference_ensemble(
        self, victim, atk_lexicon, stream_docs, n_samples
    ):
        smoother = SmoothedClassifier(victim, atk_lexicon, n_samples=n_samples, seed=3)
        flat = [copy for doc in stream_docs for copy in reference_ensemble(smoother, doc)[0]]
        expected = victim.predict_proba(flat).reshape(len(stream_docs), n_samples, -1).mean(axis=1)
        assert smoother.predict_proba(stream_docs).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lexicon", [sentiment_lexicon, news_lexicon, spam_lexicon])
    def test_lexicon_synonyms_are_cluster_alternatives(self, lexicon):
        lex = lexicon()
        for cluster in lex.clusters:
            for word in cluster.words:
                assert lex.synonyms(word) == cluster.alternatives(word)
        for word in (*lex.function_words, "zzz-unknown", ""):
            assert lex.synonyms(word) == ()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_raises(smoothed, atk_corpus, batch_size):
    # passed through to the wrapped model, which refuses it by name
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        smoothed.predict_proba(atk_corpus.documents("test")[:2], batch_size=batch_size)
