"""Tests for WCNN / LSTM classifiers and the shared TextClassifier API."""

import numpy as np
import pytest

from repro.models import WCNN, evaluate
from repro.models.train import TrainConfig, fit
from repro.nn.functional import softmax
from repro.nn.inference import kernels_for
from repro.nn.tensor import Tensor
from tests.gradcheck import numerical_grad
from tests.models.conftest import MAX_LEN


class TestConstruction:
    def test_invalid_max_len(self, tiny_vocab):
        with pytest.raises(ValueError):
            WCNN(tiny_vocab, max_len=0)

    def test_pretrained_sets_dim(self, tiny_vocab, tiny_embeddings):
        model = WCNN(tiny_vocab, MAX_LEN, pretrained_embeddings=tiny_embeddings)
        assert model.embedding.embedding_dim == tiny_embeddings.shape[1]

    def test_frozen_embeddings_not_trained(self, tiny_vocab, tiny_embeddings):
        model = WCNN(
            tiny_vocab, MAX_LEN, pretrained_embeddings=tiny_embeddings, freeze_embeddings=True
        )
        assert not model.embedding.weight.requires_grad


class TestPredictAPI:
    def test_predict_proba_shape_and_simplex(self, trained_wcnn, tiny_corpus):
        docs = tiny_corpus.documents("test")[:5]
        probs = trained_wcnn.predict_proba(docs)
        assert probs.shape == (5, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_predict_proba_empty(self, trained_wcnn):
        assert trained_wcnn.predict_proba([]).shape == (0, 2)

    def test_predict_matches_argmax(self, trained_wcnn, tiny_corpus):
        docs = tiny_corpus.documents("test")[:8]
        probs = trained_wcnn.predict_proba(docs)
        np.testing.assert_array_equal(trained_wcnn.predict(docs), probs.argmax(axis=1))

    def test_batched_equals_unbatched(self, trained_wcnn, tiny_corpus):
        docs = tiny_corpus.documents("test")[:10]
        a = trained_wcnn.predict_proba(docs, batch_size=3)
        b = trained_wcnn.predict_proba(docs, batch_size=100)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("batch_size", [0, -1])
    @pytest.mark.parametrize("n_docs", [3, 0])
    def test_batch_size_below_one_raises(self, trained_wcnn, tiny_corpus, batch_size, n_docs):
        # a negative size ran no chunk and returned all-zero rows; 0 failed
        # inside range() without naming the argument
        docs = tiny_corpus.documents("test")[:n_docs]
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            trained_wcnn.predict_proba(docs, batch_size=batch_size)

    def test_accuracy_empty_raises(self, trained_wcnn):
        with pytest.raises(ValueError):
            trained_wcnn.accuracy([], np.array([]))

    def test_target_probability_is_scalar_prob(self, trained_wcnn, tiny_corpus):
        doc = tiny_corpus.documents("test")[0]
        p = trained_wcnn.target_probability(doc, 1)
        assert 0.0 <= p <= 1.0
        probs = trained_wcnn.predict_proba([doc])
        np.testing.assert_allclose(p, probs[0, 1], atol=1e-12)

    def test_truncation_beyond_max_len(self, trained_wcnn):
        long_doc = ["the"] * (MAX_LEN * 2)
        probs = trained_wcnn.predict_proba([long_doc])
        assert probs.shape == (1, 2)


def max_len_batch(model, docs):
    """Reference probabilities: every document padded to ``max_len``, one batch."""
    return model._probs_batch(*model.encode(docs))


class TestBucketedInference:
    """Length-bucketed batching must be a pure perf change: same probabilities."""

    @pytest.mark.parametrize("model_fixture", ["trained_wcnn", "trained_lstm"])
    def test_bucketed_matches_unbucketed(self, model_fixture, tiny_corpus, request):
        model = request.getfixturevalue(model_fixture)
        docs = tiny_corpus.documents("test")
        np.testing.assert_allclose(
            model.predict_proba(docs), max_len_batch(model, docs), atol=1e-10
        )

    def test_bucketed_handles_extreme_lengths(self, trained_lstm):
        docs = [["good"], ["bad", "bad"], ["the"] * (MAX_LEN * 2), ["fine"] * 7]
        np.testing.assert_allclose(
            trained_lstm.predict_proba(docs), max_len_batch(trained_lstm, docs), atol=1e-10
        )

    def test_order_restored_across_buckets(self, trained_lstm, tiny_corpus):
        # sort by length so buckets are filled out-of-order wrt the input
        docs = sorted(tiny_corpus.documents("test")[:12], key=len, reverse=True)
        one_by_one = np.vstack([trained_lstm.predict_proba([d]) for d in docs])
        bucketed = trained_lstm.predict_proba(docs)
        np.testing.assert_allclose(bucketed, one_by_one, atol=1e-10)

    def test_bucketed_respects_batch_size(self, trained_lstm, tiny_corpus):
        docs = tiny_corpus.documents("test")[:10]
        a = trained_lstm.predict_proba(docs, batch_size=3)
        b = trained_lstm.predict_proba(docs, batch_size=100)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_wcnn_pad_covers_kernel(self, trained_wcnn):
        # a doc shorter than the kernel must still produce one conv window
        probs = trained_wcnn.predict_proba([["good"]])
        assert probs.shape == (1, 2)
        np.testing.assert_allclose(
            probs, max_len_batch(trained_wcnn, [["good"]]), atol=1e-10
        )

    def test_padded_length_capped_at_max_len(self, trained_wcnn, trained_lstm):
        assert trained_lstm.padded_length(MAX_LEN * 3) == MAX_LEN
        assert trained_wcnn.padded_length(MAX_LEN * 3) == MAX_LEN
        kernel = trained_wcnn.conv.kernel_size
        assert trained_wcnn.padded_length(1) == kernel
        assert trained_lstm.padded_length(1) == 1


class TestTrainedAccuracy:
    def test_wcnn_learns(self, trained_wcnn, tiny_corpus):
        assert evaluate(trained_wcnn, tiny_corpus.test) >= 0.85

    def test_lstm_learns(self, trained_lstm, tiny_corpus):
        assert evaluate(trained_lstm, tiny_corpus.test) >= 0.85

    def test_padding_does_not_change_prediction(self, trained_lstm, tiny_corpus):
        # Same doc padded differently (by batching with different partners)
        # must give identical probabilities — the mask must fully isolate it.
        docs = tiny_corpus.documents("test")
        short, long = docs[0], max(docs, key=len)
        alone = trained_lstm.predict_proba([short])
        together = trained_lstm.predict_proba([short, long])
        np.testing.assert_allclose(alone[0], together[0], atol=1e-10)


class TestEmbeddingGradient:
    def test_shape_matches_doc(self, trained_wcnn, tiny_corpus):
        doc = tiny_corpus.documents("test")[0]
        g = trained_wcnn.embedding_gradient(doc, target_label=1)
        assert g.shape == (min(len(doc), MAX_LEN), trained_wcnn.embedding.embedding_dim)

    def test_gradient_nonzero_for_confident_flip(self, trained_wcnn, tiny_corpus):
        doc = tiny_corpus.documents("test")[0]
        g = trained_wcnn.embedding_gradient(doc, target_label=0)
        assert np.linalg.norm(g) > 0

    @pytest.mark.parametrize("model_fixture", ["trained_wcnn", "trained_lstm"])
    def test_matches_numerical(self, model_fixture, tiny_corpus, request):
        model = request.getfixturevalue(model_fixture)
        doc = tiny_corpus.documents("test")[0][:12]
        target = 1
        model.eval()
        ids, mask = model.encode([doc])
        # Jitter the embedding values: templated documents contain repeated
        # trigrams, and exactly-tied max-pool windows make the numerical
        # central difference see half the subgradient.  The jitter breaks
        # ties without changing the analytic-vs-numerical comparison, which
        # is done at the jittered point.
        base = model.embedding.weight.data[ids]
        base = base + np.random.default_rng(0).normal(scale=1e-3, size=base.shape)

        def f(real_rows):
            # only the real rows are compared, so only they are perturbed;
            # the padding rows stay at ``base``
            emb_vals = base.copy()
            emb_vals[0, : len(doc)] = real_rows
            logits = model.forward_from_embeddings(Tensor(emb_vals), mask)
            return float(softmax(logits, axis=-1).data[0, target])

        emb = Tensor(base.copy(), requires_grad=True)
        logits = model.forward_from_embeddings(emb, mask)
        softmax(logits, axis=-1)[0, target].backward()
        analytic = emb.grad[0, : len(doc)]

        num = numerical_grad(f, base[0, : len(doc)].copy(), eps=1e-6)
        np.testing.assert_allclose(analytic, num, atol=1e-6)
        # the graph-free kernel that serves embedding_gradient, same point
        kernel = kernels_for(model).gradient(model, base[0], mask[0], target)
        np.testing.assert_allclose(kernel[: len(doc)], num, atol=1e-6)

    def test_does_not_leave_model_in_train_mode(self, trained_wcnn, tiny_corpus):
        trained_wcnn.train()
        trained_wcnn.embedding_gradient(tiny_corpus.documents("test")[0], 1)
        assert trained_wcnn.training
        trained_wcnn.eval()
        trained_wcnn.embedding_gradient(tiny_corpus.documents("test")[0], 1)
        assert not trained_wcnn.training


class TestWCNNDropout:
    def test_inference_dropout_randomizes(self, tiny_vocab, tiny_embeddings, tiny_corpus):
        model = WCNN(
            tiny_vocab,
            MAX_LEN,
            pretrained_embeddings=tiny_embeddings,
            inference_dropout=0.5,
            seed=0,
        )
        model.eval()
        doc = tiny_corpus.documents("test")[0]
        a = model.predict_proba([doc])
        b = model.predict_proba([doc])
        assert not np.allclose(a, b)

    def test_no_inference_dropout_deterministic(self, trained_wcnn, tiny_corpus):
        doc = tiny_corpus.documents("test")[0]
        a = trained_wcnn.predict_proba([doc])
        b = trained_wcnn.predict_proba([doc])
        np.testing.assert_array_equal(a, b)


class TestTrainLoop:
    def test_empty_examples_raises(self, tiny_vocab):
        model = WCNN(tiny_vocab, MAX_LEN, embedding_dim=8)
        with pytest.raises(ValueError):
            fit(model, [])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(val_fraction=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_history_recorded(self, tiny_corpus, tiny_vocab, tiny_embeddings):
        model = WCNN(tiny_vocab, MAX_LEN, pretrained_embeddings=tiny_embeddings, num_filters=8)
        result = fit(model, tiny_corpus.train[:40], TrainConfig(epochs=2, seed=0))
        assert len(result.train_losses) == 2
        assert result.best_epoch >= 0

    def test_early_stopping(self, tiny_corpus, tiny_vocab, tiny_embeddings):
        model = WCNN(tiny_vocab, MAX_LEN, pretrained_embeddings=tiny_embeddings, num_filters=8)
        result = fit(
            model, tiny_corpus.train[:60], TrainConfig(epochs=30, patience=0, seed=0)
        )
        assert len(result.train_losses) <= 30

    def test_loss_decreases(self, tiny_corpus, tiny_vocab, tiny_embeddings):
        model = WCNN(tiny_vocab, MAX_LEN, pretrained_embeddings=tiny_embeddings, num_filters=16)
        result = fit(model, tiny_corpus.train, TrainConfig(epochs=4, seed=0))
        assert result.train_losses[-1] < result.train_losses[0]

    def test_model_left_in_eval_mode(self, trained_wcnn):
        assert not trained_wcnn.training
