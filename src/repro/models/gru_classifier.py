"""GRU text classifier — an additional recurrent victim.

Not part of the paper's evaluation (which uses WCNN and LSTM) but provided
because the attack framework is model-agnostic: any classifier exposing
``forward_from_embeddings`` is attackable, and a GRU is the most common
LSTM alternative downstream users will want to test.
"""

from __future__ import annotations

import numpy as np

from repro.nn.delta import RecurrentDeltaKernel, register_delta_kernel
from repro.nn.inference import (
    dense_np,
    gru_forward_np,
    register_fused_kernel,
    register_stable_kernel,
    stable_dense_np,
    stable_matmul_operand,
)
from repro.nn.layers import Dense, Embedding
from repro.nn.rnn import GRU
from repro.nn.tensor import Tensor
from repro.models.base import TextClassifier
from repro.text.vocab import Vocabulary

__all__ = ["GRUClassifier"]


class GRUClassifier(TextClassifier):
    """Single-layer GRU for binary text classification."""

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
        self.gru = GRU(embedding_dim, hidden_dim, rng=rng)
        self.head = Dense(hidden_dim, 2, rng=rng)

    def forward_from_embeddings(self, emb: Tensor, mask: np.ndarray) -> Tensor:
        return self.head(self.gru(emb, mask=mask))


def _gru_fused_logits(
    model: GRUClassifier, token_ids: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    emb = model.embedding.weight.data[token_ids]
    h = gru_forward_np(
        emb, mask, model.gru.w_x.data, model.gru.w_h.data, model.gru.bias.data
    )
    head = model.head
    return dense_np(h, head.weight.data, head.bias.data if head.bias is not None else None)


def _gru_stable_logits(
    model: GRUClassifier, token_ids: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Composition-stable GRU forward, the reference of delta scoring (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    h = gru_forward_np(
        emb,
        mask,
        stable_matmul_operand(model.gru.w_x.data),
        stable_matmul_operand(model.gru.w_h.data),
        model.gru.bias.data,
    )
    head = model.head
    return stable_dense_np(
        h, head.weight.data, head.bias.data if head.bias is not None else None
    )


register_fused_kernel(GRUClassifier, _gru_fused_logits)
register_stable_kernel(GRUClassifier, _gru_stable_logits)
register_delta_kernel(GRUClassifier, RecurrentDeltaKernel("gru", "gru"))
