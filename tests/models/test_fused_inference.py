"""Parity tests: graph-free fused kernels vs the autograd reference path.

The fused kernels (repro.nn.inference) must reproduce the reference
probabilities to <= 1e-12 on every registered architecture, across the
length-bucketed batching edge cases: mixed-length batches, masked padding,
empty batches, single-token documents, and documents at exactly ``max_len``.
"""

import numpy as np
import pytest

from repro.models import GRUClassifier, TrainConfig, fit
from repro.models.wcnn import WCNN
from repro.nn.inference import (
    fused_kernel_for,
    register_fused_kernel,
    sigmoid_np,
    softmax_np,
)

TOL = 1e-12


@pytest.fixture(scope="module")
def trained_gru(tiny_corpus, tiny_vocab, tiny_embeddings):
    model = GRUClassifier(
        tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, hidden_dim=16, seed=0
    )
    fit(model, tiny_corpus.train, TrainConfig(epochs=3, seed=0))
    return model


def both_paths(model, docs, **kwargs):
    """(fused, reference) probabilities, restoring the model's flag."""
    prev = model.fused_inference
    try:
        model.fused_inference = True
        fused = model.predict_proba(docs, **kwargs)
        model.fused_inference = False
        ref = model.predict_proba(docs, **kwargs)
    finally:
        model.fused_inference = prev
    return fused, ref


class TestKernelParity:
    def test_wcnn_mixed_lengths(self, trained_wcnn, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_wcnn._fused_active()
        fused, ref = both_paths(trained_wcnn, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_lstm_mixed_lengths(self, trained_lstm, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_lstm._fused_active()
        fused, ref = both_paths(trained_lstm, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_gru_mixed_lengths(self, trained_gru, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_gru._fused_active()
        fused, ref = both_paths(trained_gru, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_unbucketed_path_parity(self, trained_wcnn, tiny_corpus):
        # pad-to-max_len also dispatches to the kernel; parity must hold there
        docs = tiny_corpus.documents("test")[:16]
        fused, ref = both_paths(trained_wcnn, docs, bucketed=False)
        assert np.abs(fused - ref).max() <= TOL

    def test_masked_padding_is_inert(self, trained_lstm, tiny_corpus):
        # a document scored alone vs padded inside a max_len batch must agree:
        # the kernels carry state through padding timesteps via the mask
        doc = min(tiny_corpus.documents("test"), key=len)
        alone = trained_lstm.predict_proba([doc])
        padded = trained_lstm.predict_proba([doc], bucketed=False)
        np.testing.assert_allclose(alone, padded, atol=TOL, rtol=0.0)

    def test_empty_batch(self, trained_wcnn):
        probs = trained_wcnn.predict_proba([])
        assert probs.shape == (0, trained_wcnn.num_classes)

    def test_length_one_documents(self, trained_wcnn, trained_lstm, tiny_vocab):
        docs = [[tiny_vocab.word(2)], [tiny_vocab.word(3)]]
        for model in (trained_wcnn, trained_lstm):
            fused, ref = both_paths(model, docs)
            assert np.abs(fused - ref).max() <= TOL

    def test_exactly_max_len_and_truncation(self, trained_wcnn, tiny_vocab):
        words = [tiny_vocab.word(2 + i % 20) for i in range(trained_wcnn.max_len)]
        exact = words
        overlong = words + ["extra"] * 9
        fused, ref = both_paths(trained_wcnn, [exact, overlong])
        assert np.abs(fused - ref).max() <= TOL
        # truncation happens before the kernel: overlong == exact after capping
        probs = trained_wcnn.predict_proba([exact, overlong])
        np.testing.assert_allclose(probs[0], probs[1], atol=TOL, rtol=0.0)

    def test_out_of_vocabulary_tokens(self, trained_wcnn):
        fused, ref = both_paths(trained_wcnn, [["zzz-not-a-word", "also-unknown"]])
        assert np.abs(fused - ref).max() <= TOL


class TestDispatchRules:
    def test_training_mode_falls_back(self, trained_wcnn):
        trained_wcnn.train()
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.eval()
        assert trained_wcnn._fused_active()

    def test_inference_dropout_falls_back(self, trained_wcnn, tiny_corpus):
        # Bayesian dropout draws from the model's own RNG stream, which only
        # the reference path reproduces — the fused path must step aside
        trained_wcnn.inference_dropout = 0.2
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.inference_dropout = 0.0
        assert trained_wcnn._fused_active()

    def test_flag_off_falls_back(self, trained_wcnn):
        trained_wcnn.fused_inference = False
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.fused_inference = True

    def test_subclass_does_not_inherit_kernel(self, tiny_vocab, tiny_embeddings):
        # registry lookup is by exact type: a subclass that might override
        # forward_from_embeddings must not silently get the parent's kernel
        class CustomWCNN(WCNN):
            pass

        model = CustomWCNN(
            tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, num_filters=8, seed=0
        )
        model.eval()
        assert fused_kernel_for(model) is None
        assert not model._fused_active()
        # the reference path still serves it
        probs = model.predict_proba([[tiny_vocab.word(2)]])
        assert probs.shape == (1, 2)

    def test_register_and_lookup(self):
        class Dummy:
            pass

        marker = object()
        register_fused_kernel(Dummy, lambda model, ids, mask: marker)
        assert fused_kernel_for(Dummy()) is not None
        assert fused_kernel_for(object()) is None


def test_softmax_np_matches_functional():
    from repro.nn.functional import softmax
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    logits = rng.normal(scale=4.0, size=(7, 3))
    expected = softmax(Tensor(logits), axis=-1).data
    np.testing.assert_array_equal(softmax_np(logits), expected)


def _clip_sigmoid(x, out=None):
    """The ``np.clip`` spelling ``sigmoid_np`` used to have, kept as the oracle."""
    z = np.clip(x, -60.0, 60.0)
    if out is None:
        return 1.0 / (1.0 + np.exp(-z))
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def test_sigmoid_np_bitwise_equals_clip_formula():
    """Special values, the clip bounds and just past them, in and out of ``out=``."""
    edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, 60.0, -60.0, 1e-300, -1e-300]
    edges += [np.nextafter(60.0, np.inf), np.nextafter(-60.0, -np.inf)]
    edges += [np.nextafter(60.0, 0.0), np.nextafter(-60.0, 0.0), 1e308, -1e308]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, rng.normal(scale=30.0, size=200)]).reshape(-1, 5)
    with np.errstate(over="ignore", invalid="ignore"):
        assert sigmoid_np(x).tobytes() == _clip_sigmoid(x).tobytes()
        got = sigmoid_np(x, out=np.empty_like(x))
        assert got.tobytes() == _clip_sigmoid(x, out=np.empty_like(x)).tobytes()
        # strided views, as the recurrent kernels pass gate slices
        view = x[:, 1:4]
        assert sigmoid_np(view).tobytes() == _clip_sigmoid(view).tobytes()
    assert np.isnan(sigmoid_np(np.array([np.nan]))[0])
