"""LSTM text classifier (paper Sec. 6.1).

One-layer LSTM over word embeddings; the final hidden state (at each
document's true end, via masking) feeds a fully-connected classification
head.  The paper uses 512 hidden units over 300-d word2vec; here both are
scaled down with the rest of the substrate.
"""

from __future__ import annotations

import numpy as np

from repro.nn.delta import RecurrentDeltaKernel
from repro.nn.inference import (
    Kernels,
    head_np,
    lstm_forward_np,
    operand,
    register_kernels,
    sigmoid_np,
    softmax_target_grad_np,
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


def _lstm_logits(
    model: LSTMClassifier, token_ids: np.ndarray, mask: np.ndarray, stable: bool = False
) -> np.ndarray:
    """The LSTM forward; ``stable`` is the delta scorers' reference (B >= 2)."""
    emb = model.embedding.weight.data[token_ids]
    lstm = model.lstm
    w_x, w_h = operand(lstm.w_x.data, stable), operand(lstm.w_h.data, stable)
    h, _ = lstm_forward_np(emb, mask, w_x, w_h, lstm.bias.data)
    return head_np(model.head, h, stable)


def _lstm_embedding_gradient(
    model: LSTMClassifier, emb: np.ndarray, mask: np.ndarray, target: int
) -> np.ndarray:
    """Backprop through time by hand, bitwise the autograd embedding gradient.

    The forward saves each real step's activations ``i f g o``, the cell
    state it read and ``tanh`` of the one it wrote; the backward replays
    autograd's elementwise order (sigmoid ``(d*s)*(1-s)``, tanh
    ``d*(1-t**2)``).  Padded steps carry the state, and its gradient,
    through exactly and have zero gate gradients, so both loops skip them.
    The two GEMMs keep the padded ``T`` rows: BLAS picks its micro-kernel
    by row count, and fewer rows change the bits of the real ones.
    """
    lstm, head = model.lstm, model.head
    w_x, w_h, bias = lstm.w_x.data, lstm.w_h.data, lstm.bias.data
    hid = w_h.shape[1]
    steps = np.flatnonzero(mask)
    n = len(steps)
    x_proj = emb @ w_x.T
    acts = np.empty((n, 4 * hid))
    c_seq = np.zeros((n + 1, hid))  # c_seq[k] is the cell state step k reads
    tanh_c = np.empty((n, hid))
    h = np.zeros((1, hid))
    wh_t = w_h.T
    for k, t in enumerate(steps):
        gates = acts[k : k + 1]
        np.matmul(h, wh_t, out=gates)
        gates += x_proj[t]
        gates += bias
        g = np.tanh(gates[:, 2 * hid : 3 * hid])
        sigmoid_np(gates, out=gates)
        gates[:, 2 * hid : 3 * hid] = g
        c = c_seq[k + 1 : k + 2]
        np.multiply(gates[:, hid : 2 * hid], c_seq[k : k + 1], out=c)
        c += gates[:, :hid] * g
        np.tanh(c, out=tanh_c[k : k + 1])
        h = gates[:, 3 * hid :] * tanh_c[k]

    i, f, g, o = (acts[:, j * hid : (j + 1) * hid] for j in range(4))
    # d_gates = (upstream * scale) * slope per block: (d*s)*(1-s) for the
    # sigmoid gates, (d*1.0)*(1-g**2) == d*(1-g**2) for the tanh gate
    scale = acts.copy()
    scale[:, 2 * hid : 3 * hid] = 1.0
    slope = 1.0 - acts
    slope[:, 2 * hid : 3 * hid] = 1.0 - g**2
    d_tanh_c = 1.0 - tanh_c**2
    by_d_c = np.stack([g, c_seq[:-1], i], axis=1)  # d_c_new's factors for i, f, g
    d_logits = softmax_target_grad_np(head_np(head, h), target)
    d_h = d_logits @ head.weight.data
    d_c = np.zeros((1, hid))
    d_x_proj = np.zeros_like(x_proj)
    upstream = np.empty((4, hid))
    for k in range(n - 1, -1, -1):
        d_c_new = d_c + (d_h * o[k]) * d_tanh_c[k]
        d_c = d_c_new * f[k]
        np.multiply(d_c_new, by_d_c[k], out=upstream[:3])
        np.multiply(d_h, tanh_c[k], out=upstream[3:])
        d_gates = d_x_proj[steps[k] : steps[k] + 1]
        np.multiply(upstream.reshape(1, -1), scale[k], out=d_gates)
        d_gates *= slope[k]
        d_h = d_gates @ w_h
    return d_x_proj @ w_x


register_kernels(
    LSTMClassifier,
    Kernels(_lstm_logits, _lstm_embedding_gradient, RecurrentDeltaKernel("lstm")),
)
