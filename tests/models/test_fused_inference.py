"""Parity tests: graph-free kernels vs the autograd reference path.

The registered forwards (``kernels_for(model).logits`` in
repro.nn.inference) must reproduce the reference
probabilities to <= 1e-12 on every registered architecture, across the
length-bucketed batching edge cases: mixed-length batches, masked padding,
empty batches, single-token documents, and documents at exactly ``max_len``.
"""

import dataclasses

import numpy as np
import pytest

from repro.models import GRUClassifier, LSTMClassifier, TrainConfig, fit
from repro.models.wcnn import WCNN
from repro.nn import inference
from repro.nn.delta import DeltaScoreFn
from repro.nn.functional import softmax
from repro.nn.inference import (
    Kernels,
    conv1d_np,
    kernels_for,
    lstm_forward_np,
    max_over_time_np,
    register_kernels,
    sigmoid_np,
    softmax_np,
)
from repro.nn.layers import Conv1d
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import Adam
from repro.nn.serialization import load_state_dict, state_dict
from repro.nn.tensor import Tensor, no_grad

TOL = 1e-12


@pytest.fixture(scope="module")
def trained_gru(tiny_corpus, tiny_vocab, tiny_embeddings):
    model = GRUClassifier(
        tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, hidden_dim=16, seed=0
    )
    fit(model, tiny_corpus.train, TrainConfig(epochs=3, seed=0))
    return model


def autograd_probs(model, ids, mask):
    """The reference: the autograd forward, then softmax."""
    with no_grad():
        return softmax(model.forward(ids, mask), axis=-1).data


def both_paths(model, docs):
    """(fused, reference) probabilities over ``predict_proba``'s own buckets."""
    fused = model.predict_proba(docs)
    ref = np.zeros_like(fused)
    for indices, pad_len in model._length_buckets(docs):
        ids, mask = model.vocab.encode_batch([docs[i] for i in indices], pad_len)
        ref[indices] = autograd_probs(model, ids, mask)
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
        # parity must hold on a batch padded to max_len, too
        ids, mask = trained_wcnn.encode(tiny_corpus.documents("test")[:16])
        fused = softmax_np(kernels_for(trained_wcnn).logits(trained_wcnn, ids, mask))
        ref = autograd_probs(trained_wcnn, ids, mask)
        assert np.abs(fused - ref).max() <= TOL

    def test_masked_padding_is_inert(self, trained_lstm, tiny_corpus):
        # a document scored alone vs padded to max_len must agree: the
        # kernels carry state through padding timesteps via the mask
        doc = min(tiny_corpus.documents("test"), key=len)
        alone = trained_lstm.predict_proba([doc])
        padded = trained_lstm._probs_batch(*trained_lstm.encode([doc]))
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

    @pytest.mark.parametrize("batch", [1, 16, 74])
    def test_wcnn_logits_bitwise_at_tournament_shapes(self, trained_wcnn, tiny_corpus, batch):
        # 74 rows is tournament-pooled's mean forward; 16 sits between; one
        # row is where the im2col windows are a view BLAS would not take
        docs = tiny_corpus.documents("test")
        ids, mask = trained_wcnn.encode([docs[i % len(docs)] for i in range(batch)])
        assert not mask.all()  # every row carries padding
        inputs = ids.copy(), mask.copy()
        fused = kernels_for(trained_wcnn).logits(trained_wcnn, ids, mask)
        with no_grad():
            ref = trained_wcnn.forward(ids, mask).data
        assert fused.shape == ref.shape and fused.dtype == ref.dtype
        assert fused.tobytes() == ref.tobytes()
        assert np.array_equal(ids, inputs[0]) and np.array_equal(mask, inputs[1])


def advanced_index_conv(emb, weight, bias, kernel_size, stride):
    """The advanced-index im2col ``conv1d_np`` used to gather, kept as its oracle."""
    batch, seq_len, dim = emb.shape
    starts = np.arange(0, seq_len - kernel_size + 1, stride)
    win_idx = starts[:, None] + np.arange(kernel_size)[None, :]
    flat = emb[:, win_idx, :].reshape(batch * len(starts), kernel_size * dim)
    return (flat @ weight.T).reshape(batch, len(starts), -1) + bias


class TestPrimitivesAtKernelShapes:
    """The shared primitives: bitwise their reference, and inputs only read.

    The forward (in both modes), delta and gradient kernels all pass arrays
    they do not own into these, so none may write into its arguments.
    """

    @pytest.mark.parametrize("batch", [1, 2, 16, 74])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv1d_np_bitwise_equals_advanced_index_im2col(self, batch, stride):
        rng = np.random.default_rng(10 * batch + stride)
        emb = rng.normal(size=(batch, 23, 16))
        weight, bias = rng.normal(size=(24, 3 * 16)), rng.normal(size=24)
        kept = emb.copy()
        got = conv1d_np(emb, weight, bias, 3, stride)
        want = advanced_index_conv(emb, weight, bias, 3, stride)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert emb.tobytes() == kept.tobytes()

    def test_conv1d_np_stride_2_matches_conv_layer(self):
        # the layer's 3-D matmul may round a unit-normal input differently
        # from the one 2-D GEMM, so the layer is matched to TOL
        layer = Conv1d(16, 24, 3, stride=2, rng=np.random.default_rng(0))
        layer.bias.data[:] = np.random.default_rng(1).normal(size=24)
        emb = np.random.default_rng(2).normal(size=(5, 24, 16))
        with no_grad():
            ref = layer(Tensor(emb)).data
        got = conv1d_np(emb, layer.weight.data, layer.bias.data, 3, 2)
        assert got.shape == ref.shape == (5, 11, 24)
        assert np.abs(got - ref).max() <= TOL

    def test_conv1d_np_single_document_from_a_strided_slice(self):
        # the gradient kernel passes ``emb[None]`` of one (T, D) document;
        # here that document is itself a non-contiguous view
        rng = np.random.default_rng(3)
        doc = rng.normal(size=(40, 16))[::2]
        weight, bias = rng.normal(size=(24, 3 * 16)), rng.normal(size=24)
        got = conv1d_np(doc[None], weight, bias, 3)
        want = advanced_index_conv(np.ascontiguousarray(doc)[None], weight, bias, 3, 1)
        assert got.tobytes() == want.tobytes()

    def test_max_over_time_np_leaves_features_alone(self):
        rng = np.random.default_rng(4)
        feats = np.maximum(rng.normal(size=(3, 7, 5)), 0.0)
        window_mask = np.arange(7)[None, :] < np.array([[7], [4], [1]])
        kept = feats.copy()
        pooled = max_over_time_np(feats, window_mask, -1e30)
        assert feats.tobytes() == kept.tobytes()
        assert np.array_equal(pooled[2], feats[2, 0])

    @pytest.mark.parametrize("masked", [True, False])
    def test_lstm_forward_np_leaves_initial_state_alone(self, masked):
        rng = np.random.default_rng(5)
        batch, seq_len, dim, hid = 3, 6, 4, 5
        emb = rng.normal(size=(batch, seq_len, dim))
        mask = np.arange(seq_len)[None, :] < np.array([[6], [3], [1]]) if masked else None
        w_x, w_h = rng.normal(size=(4 * hid, dim)), rng.normal(size=(4 * hid, hid))
        bias = rng.normal(size=4 * hid)
        h0, c0 = rng.normal(size=(batch, hid)), rng.normal(size=(batch, hid))
        kept = h0.copy(), c0.copy()
        seqs = np.empty((batch, seq_len + 1, hid)), np.empty((batch, seq_len + 1, hid))
        h, c = lstm_forward_np(emb, mask, w_x, w_h, bias, h0, c0, state_seq=seqs)
        assert h0.tobytes() == kept[0].tobytes() and c0.tobytes() == kept[1].tobytes()
        assert seqs[0][:, 0].tobytes() == kept[0].tobytes()
        assert h.tobytes() == seqs[0][:, -1].tobytes() and c.tobytes() == seqs[1][:, -1].tobytes()


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
        # the reference path reproduces — the fused path must step aside,
        # and so must the gradient kernel
        trained_wcnn.inference_dropout = 0.2
        try:
            assert not trained_wcnn._fused_active()
            rng = trained_wcnn._dropout_rng
            before = rng.bit_generator.state
            trained_wcnn.embedding_gradient(tiny_corpus.documents("test")[0], 1)
            assert rng.bit_generator.state != before
        finally:
            trained_wcnn.inference_dropout = 0.0
        assert trained_wcnn._fused_active()

    def test_predict_proba_runs_the_kernel(
        self, trained_wcnn, trained_lstm, tiny_corpus, monkeypatch
    ):
        # kernel and autograd agree bit for bit, so only a spy on the
        # registry shows that scoring took the kernel
        docs = tiny_corpus.documents("test")
        for model in (trained_wcnn, trained_lstm):
            record = kernels_for(model)
            rows = []

            def spy(m, ids, mask, stable=False, logits=record.logits, rows=rows):
                rows.append(len(ids))
                return logits(m, ids, mask, stable)

            spied = dataclasses.replace(record, logits=spy)
            monkeypatch.setitem(inference._KERNELS, type(model), spied)
            model.predict_proba(docs)
            assert sum(rows) == len(docs), type(model).__name__

    def test_subclass_does_not_inherit_kernel(self, tiny_vocab, tiny_embeddings):
        # registry lookup is by exact type: a subclass that might override
        # forward_from_embeddings must not silently get the parent's kernels,
        # forward, gradient or delta
        class CustomWCNN(WCNN):
            pass

        model = CustomWCNN(
            tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, num_filters=8, seed=0
        )
        model.eval()
        assert kernels_for(model) is None
        assert DeltaScoreFn.for_model(model) is None
        assert not model._fused_active()
        # the reference path still serves it
        probs = model.predict_proba([[tiny_vocab.word(2)]])
        assert probs.shape == (1, 2)

    def test_register_and_lookup(self):
        class Dummy:
            pass

        marker = object()
        register_kernels(Dummy, Kernels(lambda model, ids, mask, stable=False: marker))
        record = kernels_for(Dummy())
        assert record.logits(None, None, None) is marker
        assert record.gradient is None and record.delta is None
        assert kernels_for(object()) is None


class TestStableKernelAfterTraining:
    """The stable kernel reads the weights as they are now, not as first seen.

    The optimizers update parameter arrays in place, so anything keyed on
    an array's identity would keep serving the pre-training weights.
    """

    @pytest.mark.parametrize("cls", [WCNN, LSTMClassifier, GRUClassifier])
    def test_matches_fresh_model_after_in_place_step(
        self, cls, tiny_corpus, tiny_vocab, tiny_embeddings
    ):
        def build():
            model = cls(tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, seed=0)
            model.eval()
            return model

        model = build()
        logits = kernels_for(model).logits
        examples = tiny_corpus.train[:8]
        ids, mask = model.encode([list(ex.tokens) for ex in examples])
        before = logits(model, ids, mask, stable=True)

        model.train()
        optimizer = Adam(model.parameters(), lr=0.05)
        optimizer.zero_grad()
        labels = np.array([ex.label for ex in examples])
        softmax_cross_entropy(model.forward(ids, mask), labels).backward()
        optimizer.step()
        model.eval()
        after = logits(model, ids, mask, stable=True)

        fresh = build()
        load_state_dict(fresh, state_dict(model))
        assert not np.array_equal(after, before)  # the step moved the weights
        assert after.tobytes() == logits(fresh, ids, mask, stable=True).tobytes()


def test_softmax_np_matches_functional():
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
