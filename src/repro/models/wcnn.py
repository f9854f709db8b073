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

from repro.nn.delta import ConvDeltaKernel, register_delta_kernel
from repro.nn.functional import dropout as dropout_fn
from repro.nn.inference import (
    conv1d_np,
    dense_np,
    max_over_time_np,
    register_fused_kernel,
    register_stable_kernel,
    stable_dense_np,
    stable_matmul_operand,
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
        keeping bucketed probabilities equal to the unbucketed path.
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


def _wcnn_fused_logits(model: WCNN, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    emb = model.embedding.weight.data[token_ids]
    feats = np.maximum(
        conv1d_np(
            emb,
            model.conv.weight.data,
            model.conv.bias.data,
            model.conv.kernel_size,
            model.conv.stride,
        ),
        0.0,
    )
    pooled = max_over_time_np(feats, model._window_mask(mask), MaxOverTime.NEG)
    head = model.head
    return dense_np(pooled, head.weight.data, head.bias.data if head.bias is not None else None)


def _wcnn_stable_logits(model: WCNN, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Composition-stable WCNN forward, the reference of delta scoring (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    feats = np.maximum(
        conv1d_np(
            emb,
            stable_matmul_operand(model, "conv.weight", model.conv.weight.data),
            model.conv.bias.data,
            model.conv.kernel_size,
            model.conv.stride,
        ),
        0.0,
    )
    pooled = max_over_time_np(feats, model._window_mask(mask), MaxOverTime.NEG)
    head = model.head
    return stable_dense_np(
        pooled, head.weight.data, head.bias.data if head.bias is not None else None
    )


register_fused_kernel(WCNN, _wcnn_fused_logits)
register_stable_kernel(WCNN, _wcnn_stable_logits)
register_delta_kernel(WCNN, ConvDeltaKernel())
