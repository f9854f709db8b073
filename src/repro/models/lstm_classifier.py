"""LSTM text classifier (paper Sec. 6.1).

One-layer LSTM over word embeddings; the final hidden state (at each
document's true end, via masking) feeds a fully-connected classification
head.  The paper uses 512 hidden units over 300-d word2vec; here both are
scaled down with the rest of the substrate.
"""

from __future__ import annotations

import numpy as np

from repro.nn.delta import RecurrentDeltaKernel, register_delta_kernel
from repro.nn.inference import (
    dense_np,
    lstm_forward_np,
    register_fused_kernel,
    register_stable_kernel,
    stable_dense_np,
    stable_matmul_operand,
)
from repro.nn.layers import Dense, Embedding
from repro.nn.rnn import LSTM
from repro.nn.tensor import Tensor
from repro.models.base import TextClassifier
from repro.text.vocab import Vocabulary

__all__ = ["LSTMClassifier"]


class LSTMClassifier(TextClassifier):
    """Single-layer LSTM for binary text classification."""

    def __init__(
        self,
        vocab: Vocabulary,
        max_len: int,
        embedding_dim: int = 32,
        hidden_dim: int = 64,
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
        self.lstm = LSTM(embedding_dim, hidden_dim, rng=rng)
        self.head = Dense(hidden_dim, 2, rng=rng)

    def forward_from_embeddings(self, emb: Tensor, mask: np.ndarray) -> Tensor:
        h, _ = self.lstm(emb, mask=mask)
        return self.head(h)


def _lstm_fused_logits(
    model: LSTMClassifier, token_ids: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    emb = model.embedding.weight.data[token_ids]
    h, _ = lstm_forward_np(
        emb, mask, model.lstm.w_x.data, model.lstm.w_h.data, model.lstm.bias.data
    )
    head = model.head
    return dense_np(h, head.weight.data, head.bias.data if head.bias is not None else None)


def _lstm_stable_logits(
    model: LSTMClassifier, token_ids: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Composition-stable LSTM forward, the reference of delta scoring (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    h, _ = lstm_forward_np(
        emb,
        mask,
        stable_matmul_operand(model.lstm.w_x.data),
        stable_matmul_operand(model.lstm.w_h.data),
        model.lstm.bias.data,
    )
    head = model.head
    return stable_dense_np(
        h, head.weight.data, head.bias.data if head.bias is not None else None
    )


register_fused_kernel(LSTMClassifier, _lstm_fused_logits)
register_stable_kernel(LSTMClassifier, _lstm_stable_logits)
register_delta_kernel(LSTMClassifier, RecurrentDeltaKernel("lstm", "lstm"))
