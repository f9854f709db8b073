"""Word-level convolutional network (Kim 2014), the paper's WCNN.

Architecture (paper Sec. 6.1 / Fig. 3): embedding → temporal convolution of
kernel size 3 → ReLU → max-over-time pooling → dropout → fully-connected
classification head.

The paper additionally uses a small *inference-time* dropout (5%) on WCNN
during attacks (Sec. 6.4, citing Gal & Ghahramani's Bayesian-dropout view);
``inference_dropout`` reproduces that switch.
"""

from __future__ import annotations

import numpy as np

from repro.nn.delta import ConvDeltaKernel
from repro.nn.functional import dropout as dropout_fn
from repro.nn.inference import (
    Kernels,
    conv1d_np,
    head_np,
    operand,
    register_kernels,
    softmax_target_grad_np,
)
from repro.nn.layers import Conv1d, Dense, Embedding, MaxOverTime
from repro.nn.tensor import Tensor
from repro.models.base import TextClassifier
from repro.text.vocab import Vocabulary

__all__ = ["WCNN"]


class WCNN(TextClassifier):
    """Kim-2014 style word-level CNN for binary classification."""

    def __init__(
        self,
        vocab: Vocabulary,
        max_len: int,
        embedding_dim: int = 32,
        num_filters: int = 64,
        kernel_size: int = 3,
        dropout: float = 0.3,
        inference_dropout: float = 0.0,
        pretrained_embeddings: np.ndarray | None = None,
        freeze_embeddings: bool = False,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        if pretrained_embeddings is not None:
            embedding = Embedding.from_pretrained(pretrained_embeddings, frozen=freeze_embeddings)
            embedding_dim = pretrained_embeddings.shape[1]
        else:
            embedding = Embedding(len(vocab), embedding_dim, rng=rng)
        super().__init__(vocab, embedding, max_len)
        self.conv = Conv1d(embedding_dim, num_filters, kernel_size, stride=1, rng=rng)
        self.pool = MaxOverTime()
        self.dropout_p = dropout
        self.inference_dropout = inference_dropout
        self._dropout_rng = np.random.default_rng(seed + 1)
        self.head = Dense(num_filters, 2, rng=rng)

    def padded_length(self, longest: int) -> int:
        """Bucket pad length preserving the pad-to-``max_len`` window set.

        A window is real iff its *start* is real, so a document of length
        ``n`` padded to ``max_len`` owns ``min(n, max_len − h + 1)`` windows,
        the last ones reaching into padding.  Padding buckets to
        ``longest + h − 1`` (capped at ``max_len``) reproduces exactly those
        windows — and their contents, since padding rows are identical —
        keeping bucketed probabilities equal to one ``max_len`` batch.
        """
        return min(self.max_len, max(1, longest) + self.conv.kernel_size - 1)

    def forward_from_embeddings(self, emb: Tensor, mask: np.ndarray) -> Tensor:
        feats = self.conv(emb).relu()
        window_mask = self._window_mask(mask)
        pooled = self.pool(feats, mask=window_mask)
        p = self.dropout_p if self.training else self.inference_dropout
        if p > 0:
            pooled = dropout_fn(pooled, p, training=True, rng=self._dropout_rng)
        return self.head(pooled)

    def _window_mask(self, mask: np.ndarray) -> np.ndarray:
        """A convolution window is real iff its *first* position is real.

        Windows that start inside padding contribute nothing; windows that
        start on real tokens but extend into padding see zero-vectors,
        matching standard zero-padded convolutions.
        """
        starts = self.conv.window_starts(mask.shape[1])
        return np.asarray(mask)[:, starts]


def _wcnn_logits(
    model: WCNN, token_ids: np.ndarray, mask: np.ndarray, stable: bool = False
) -> np.ndarray:
    """The WCNN forward; ``stable`` is the delta scorers' reference (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    conv = model.conv
    weight = operand(conv.weight.data, stable)
    feats = conv1d_np(emb, weight, conv.bias.data, conv.kernel_size, conv.stride)
    # feats is this kernel's own array: ReLU and window penalty in place,
    # the same ops as np.maximum and max_over_time_np without two temporaries
    np.maximum(feats, 0.0, out=feats)
    feats += np.where(model._window_mask(mask), 0.0, MaxOverTime.NEG)[:, :, None]
    return head_np(model.head, feats.max(axis=1), stable)


def _wcnn_embedding_gradient(
    model: WCNN, emb: np.ndarray, mask: np.ndarray, target: int
) -> np.ndarray:
    """The conv backward by hand, bitwise the autograd embedding gradient.

    The pooled gradient reaches each filter's first argmax window of the
    penalised map where ``pre > 0`` (the ReLU mask), one ``(1, n_win, F)``
    GEMM maps it to the windows, and the windows scatter back to positions
    in ``np.add.at`` order: a position's addends arrive window offset
    ``h - 1`` first, ``0`` last.  Up to ``h`` addends per position make
    that order visible in the bits.
    """
    conv, head = model.conv, model.head
    size = conv.kernel_size
    starts = conv.window_starts(len(emb))
    pre = conv1d_np(emb[None], conv.weight.data, conv.bias.data, size, conv.stride)
    penalty = np.where(mask[starts], 0.0, MaxOverTime.NEG)[None, :, None]
    scores = np.maximum(pre, 0.0) + penalty
    best = scores.argmax(axis=1)[0]
    filters = np.arange(len(best))
    pooled = scores[:, best, filters]

    d_logits = softmax_target_grad_np(head_np(head, pooled), target)
    d_pooled = (d_logits @ head.weight.data)[0]
    d_pre = np.zeros_like(pre)
    d_pre[0, best, filters] = np.where(pre[0, best, filters] > 0, d_pooled, 0.0)
    d_windows = (d_pre @ conv.weight.data).reshape(len(starts), size, -1)
    d_emb = np.zeros_like(emb)
    for j in range(size - 1, -1, -1):
        d_emb[starts + j] += d_windows[:, j]
    return d_emb


register_kernels(WCNN, Kernels(_wcnn_logits, _wcnn_embedding_gradient, ConvDeltaKernel()))
