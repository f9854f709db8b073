"""Parity tests: graph-free embedding gradients vs the autograd reference.

Each registered gradient kernel (repro.nn.inference) must return the
autograd gradient bit for bit, because Gauss–Southwell word ranking and the
gradient baseline consume those bits.  The comparison follows autograd's
``check_equivalent``: same shape and dtype, then exact equality, over
family × document length × target label × padded length, plus single-token
edits at the first, a middle and the last position.
"""

import numpy as np
import pytest

from repro.models import LSTMClassifier, WCNN
from repro.nn.functional import softmax
from repro.nn.inference import kernels_for, softmax_target_grad_np
from repro.nn.tensor import Tensor

from tests.models.conftest import MAX_LEN

#: a padded length other than the fixture models' MAX_LEN
OTHER_MAX_LEN = 50


def check_equivalent(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape, f"shape mismatch: kernel {got.shape}, autograd {want.shape}"
    assert got.dtype == want.dtype, f"dtype mismatch: kernel {got.dtype}, autograd {want.dtype}"
    assert np.array_equal(got, want), (
        f"kernel differs from autograd by up to {np.abs(got - want).max():.3g}"
    )


def both_gradients(model, doc, target):
    """(kernel, autograd) gradients over the document's whole padded length."""
    ids, mask = model.encode([doc])
    emb = model.embedding.weight.data[ids[0]]
    kernel = kernels_for(model).gradient
    assert kernel is not None
    return (
        kernel(model, emb, mask[0], target),
        model._autograd_embedding_gradient(emb, mask[0], target),
    )


@pytest.mark.parametrize("num_classes", [2, 3])
def test_softmax_target_grad_matches_autograd(num_classes):
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.normal(scale=4.0, size=(1, num_classes))
        for target in range(num_classes):
            leaf = Tensor(logits, requires_grad=True)
            softmax(leaf, axis=-1)[0, target].backward()
            check_equivalent(softmax_target_grad_np(logits, target), leaf.grad)


@pytest.fixture(scope="module")
def models(trained_wcnn, trained_lstm, tiny_vocab, tiny_embeddings):
    """(family, padded length) -> model: the trained fixtures plus fresh ones."""
    fresh = {
        "wcnn": WCNN(
            tiny_vocab, OTHER_MAX_LEN, pretrained_embeddings=tiny_embeddings, num_filters=24, seed=1
        ),
        "lstm": LSTMClassifier(
            tiny_vocab, OTHER_MAX_LEN, pretrained_embeddings=tiny_embeddings, hidden_dim=24, seed=1
        ),
    }
    for model in fresh.values():
        model.eval()
    return {
        ("wcnn", MAX_LEN): trained_wcnn,
        ("lstm", MAX_LEN): trained_lstm,
        ("wcnn", OTHER_MAX_LEN): fresh["wcnn"],
        ("lstm", OTHER_MAX_LEN): fresh["lstm"],
    }


def typical_doc(corpus) -> list[str]:
    docs = sorted(corpus.documents("test"), key=len)
    return docs[len(docs) // 2]


def doc_of_length(corpus, n: int) -> list[str]:
    words = [w for doc in corpus.documents("test") for w in doc]
    return words[:n]


LENGTHS = ["0", "1", "2", "5", "6", "typical", "max_len-1", "max_len", ">max_len"]


def resolve_length(label: str, max_len: int, corpus) -> list[str]:
    if label == "typical":
        return typical_doc(corpus)
    n = {"max_len-1": max_len - 1, "max_len": max_len, ">max_len": max_len + 9}.get(label)
    return doc_of_length(corpus, int(label) if n is None else n)


@pytest.mark.parametrize("padded", [MAX_LEN, OTHER_MAX_LEN])
@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("family", ["wcnn", "lstm"])
def test_kernel_equals_autograd(models, tiny_corpus, family, length, target, padded):
    model = models[family, padded]
    doc = resolve_length(length, padded, tiny_corpus)
    check_equivalent(*both_gradients(model, doc, target))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("family", ["wcnn", "lstm"])
def test_single_substitution(models, tiny_corpus, tiny_vocab, family, where):
    # the attacks take a gradient at every accepted edit of the document
    doc = list(typical_doc(tiny_corpus))
    pos = {"first": 0, "middle": len(doc) // 2, "last": len(doc) - 1}[where]
    doc[pos] = tiny_vocab.word(2) if doc[pos] != tiny_vocab.word(2) else tiny_vocab.word(3)
    for padded in (MAX_LEN, OTHER_MAX_LEN):
        for target in (0, 1):
            check_equivalent(*both_gradients(models[family, padded], doc, target))


@pytest.mark.parametrize("family", ["wcnn", "lstm"])
def test_embedding_gradient_dispatches_to_kernel(models, tiny_corpus, family, monkeypatch):
    model = models[family, MAX_LEN]
    doc = typical_doc(tiny_corpus)
    kernel_grad, _ = both_gradients(model, doc, 1)

    def autograd_called(*args):
        raise AssertionError("a registered kernel must serve embedding_gradient")

    monkeypatch.setattr(model, "_autograd_embedding_gradient", autograd_called)
    got = model.embedding_gradient(doc, 1)
    assert got.tobytes() == kernel_grad[: len(doc)].tobytes()
