"""GRU text classifier — an additional recurrent victim.

Not part of the paper's evaluation (which uses WCNN and LSTM) but provided
because the attack framework is model-agnostic: any classifier exposing
``forward_from_embeddings`` is attackable, and a GRU is the most common
LSTM alternative downstream users will want to test.
"""

from __future__ import annotations

import numpy as np

from repro.nn.delta import RecurrentDeltaKernel
from repro.nn.inference import Kernels, gru_forward_np, head_np, operand, register_kernels
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


def _gru_logits(
    model: GRUClassifier, token_ids: np.ndarray, mask: np.ndarray, stable: bool = False
) -> np.ndarray:
    """The GRU forward; ``stable`` is the delta scorers' reference (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    gru = model.gru
    w_x, w_h = operand(gru.w_x.data, stable), operand(gru.w_h.data, stable)
    return head_np(model.head, gru_forward_np(emb, mask, w_x, w_h, gru.bias.data), stable)


register_kernels(GRUClassifier, Kernels(_gru_logits, delta=RecurrentDeltaKernel("gru")))
