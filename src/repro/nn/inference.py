"""Graph-free fused inference kernels.

Every ``predict_proba`` call used to walk the reverse-mode autograd
machinery in :mod:`repro.nn.tensor` — one Python-level :class:`Tensor`
allocation per op, per timestep of the recurrent loops — even under
``no_grad()``.  For the attack workload (thousands of small candidate
batches) that Python overhead dominates the actual FLOPs.

This module provides pure-NumPy *fused* forward kernels that read weights
straight out of the trained ``Module`` parameters: a single fused gate
matmul per LSTM/GRU timestep over preallocated state buffers, conv-as-matmul
for the WCNN, and a NumPy softmax replicating the exact op sequence of
:func:`repro.nn.functional.softmax`.  Each kernel performs bit-for-bit the
same floating-point operations in the same order as the autograd path, so
fused and reference probabilities agree exactly (the parity tests assert
``<= 1e-12``; in practice the outputs are bitwise identical).

Model classes opt in through :func:`register_fused_kernel`; dispatch
happens in :meth:`repro.models.base.TextClassifier.predict_proba` whenever
no gradient is needed and scoring is deterministic.  The autograd forward
is kept untouched as the reference implementation — gradient-guided attacks
still use it for the gradient step, and ``fused_inference = False`` (or an
unregistered model class) falls back to it.

Layering: this module depends on nothing but NumPy.  Model modules import
it to register their kernels; it never imports ``repro.models``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

__all__ = [
    "register_fused_kernel",
    "fused_kernel_for",
    "register_stable_kernel",
    "stable_kernel_for",
    "stable_matmul_operand",
    "stable_dense_np",
    "softmax_np",
    "sigmoid_np",
    "dense_np",
    "conv1d_np",
    "max_over_time_np",
    "lstm_cell_np",
    "gru_cell_np",
    "lstm_forward_np",
    "gru_forward_np",
    "rnn_forward_np",
]

# kernel signature: (model, token_ids (B, T) int, mask (B, T) bool) -> logits (B, C)
FusedKernel = Callable[[object, np.ndarray, np.ndarray], np.ndarray]

_REGISTRY: dict[type, FusedKernel] = {}
_STABLE_REGISTRY: dict[type, FusedKernel] = {}

M = TypeVar("M", bound=type)


def register_fused_kernel(model_cls: type, kernel: FusedKernel) -> None:
    """Register a graph-free forward for ``model_cls``.

    Lookup is by *exact* type, never by subclass: a subclass overriding
    ``forward_from_embeddings`` must not silently inherit a kernel that
    computes something else.  Subclasses that keep the forward unchanged
    can re-register the parent's kernel explicitly.
    """
    _REGISTRY[model_cls] = kernel


def fused_kernel_for(model: object) -> FusedKernel | None:
    """The registered kernel for ``type(model)``, or None (reference path)."""
    return _REGISTRY.get(type(model))


def register_stable_kernel(model_cls: type, kernel: FusedKernel) -> None:
    """Register a *composition-stable* forward for ``model_cls``.

    A stable kernel guarantees a stronger property than the fused ones:
    every output row is bitwise independent of which other rows share the
    batch.  Delta scoring (:mod:`repro.nn.delta`) depends on this: its
    rows are defined as bitwise equal to the stable forward, whatever
    candidates share the proposal batch, and the parity tests check the
    delta kernels against these kernels bit for bit.

    Same exact-type lookup rule as :func:`register_fused_kernel`.
    """
    _STABLE_REGISTRY[model_cls] = kernel


def stable_kernel_for(model: object) -> FusedKernel | None:
    """The registered composition-stable kernel for ``type(model)``, or None."""
    return _STABLE_REGISTRY.get(type(model))


# ---------------------------------------------------------------------------
# primitives — each replicates the autograd op sequence exactly
# ---------------------------------------------------------------------------

def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax`` with the exact op order of :func:`repro.nn.functional.softmax`.

    That implementation computes ``exp(shifted - log(sum(exp(shifted))))``
    with ``shifted = x - max(x)``; reproducing the same sequence keeps the
    fused probabilities bitwise equal to the reference ones.
    """
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return np.exp(shifted - np.log(e.sum(axis=axis, keepdims=True)))


def sigmoid_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Tensor.sigmoid`` semantics: ``1 / (1 + exp(-clip(x, -60, 60)))``.

    The clip is spelled ``minimum(maximum(x, -60), 60)``: bitwise the same
    result (NaN and -0.0 included) without ``np.clip``'s Python-level
    argument handling, which dominated the cost of the small per-timestep
    calls the recurrent kernels make.
    """
    if out is None:
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))
    np.maximum(x, -60.0, out=out)
    np.minimum(out, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def dense_np(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Affine head ``x W^T + b`` on raw arrays."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def conv1d_np(
    emb: np.ndarray, weight: np.ndarray, bias: np.ndarray, kernel_size: int, stride: int = 1
) -> np.ndarray:
    """Conv-as-matmul over ``(B, T, D)``: im2col + one 2-D GEMM.

    Gathers the same ``(B, n_win, h*D)`` windows as
    :meth:`repro.nn.layers.Conv1d.forward` but collapses the batch and
    window axes into a single 2-D GEMM (a 3-D ``matmul`` degrades to ``B``
    small per-document GEMMs).  The per-output-element dot products run
    over the identical ``h*D`` contraction in the same order, so the
    result stays bitwise equal to the autograd path.
    """
    batch, seq_len, dim = emb.shape
    n_filt = weight.shape[0]
    starts = np.arange(0, seq_len - kernel_size + 1, stride)
    n_win = len(starts)
    win_idx = starts[:, None] + np.arange(kernel_size)[None, :]
    flat = emb[:, win_idx, :].reshape(batch * n_win, kernel_size * dim)
    return (flat @ weight.T).reshape(batch, n_win, n_filt) + bias


def max_over_time_np(feats: np.ndarray, window_mask: np.ndarray, neg: float = -1e30) -> np.ndarray:
    """Masked max-over-time pooling, matching :class:`repro.nn.layers.MaxOverTime`."""
    penalty = np.where(np.asarray(window_mask, dtype=bool), 0.0, neg)[:, :, None]
    return (feats + penalty).max(axis=1)


def lstm_cell_np(gates: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM cell update from the pre-activation ``[i f g o]`` gates.

    Returns ``(h_new, c_new)``; the op sequence of
    :meth:`repro.nn.rnn.LSTM.forward`, shared by every fused recurrence.
    ``gates`` is overwritten: one in-place sigmoid over all four blocks
    (elementwise, so bitwise the per-gate calls) yields ``i``, ``f`` and
    ``o``, after ``g``'s tanh has read its block.
    """
    hid = c.shape[1]
    g = np.tanh(gates[:, 2 * hid : 3 * hid])
    act = sigmoid_np(gates, out=gates)
    c_new = act[:, hid : 2 * hid] * c + act[:, :hid] * g
    return act[:, 3 * hid :] * np.tanh(c_new), c_new


def gru_cell_np(xp: np.ndarray, hp: np.ndarray, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """One GRU cell update from the input (``xp``) and hidden (``hp``) projections.

    Joint update/reset projection, reset-gated candidate, then
    ``(1 - z) n + z h``: the op sequence of :meth:`repro.nn.rnn.GRU.forward`.
    """
    hid = h.shape[1]
    zr = xp[:, : 2 * hid] + hp[:, : 2 * hid]
    zr += bias[: 2 * hid]
    sigmoid_np(zr, out=zr)
    z, r = zr[:, :hid], zr[:, hid:]
    n = np.tanh(xp[:, 2 * hid :] + r * hp[:, 2 * hid :] + bias[2 * hid :])
    return (1.0 - z) * n + z * h


def lstm_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
    state_seq: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused LSTM recurrence over ``(B, T, D)``; returns ``(h, c)`` of ``(B, H)``.

    One fused gate matmul per timestep (all input projections precomputed in
    a single batched GEMM), state in preallocated buffers.  The arithmetic
    mirrors :meth:`repro.nn.rnn.LSTM.forward` operation for operation:
    ``gates = (x_proj_t + h W_h^T) + b``, sigmoid/tanh splits, masked state
    carry-through via ``np.where``.

    ``h0``/``c0`` seed the recurrence from a cached prefix state instead of
    zeros (the recurrence is causal, so restarting at timestep ``p`` with the
    state after ``p`` steps is exact).  ``state_seq``, when given, is a pair
    of preallocated ``(B, T + 1, H)`` arrays that receive the state after
    every step — index 0 holds the initial state — which is what the delta
    scorer caches for a base document.
    """
    batch, seq_len, dim = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid)) if h0 is None else np.array(h0, dtype=float)
    c = np.zeros((batch, hid)) if c0 is None else np.array(c0, dtype=float)
    if state_seq is not None:
        h_seq, c_seq = state_seq
        h_seq[:, 0] = h
        c_seq[:, 0] = c
    wx_t = w_x.T
    wh_t = w_h.T
    x_proj = (emb.reshape(batch * seq_len, dim) @ wx_t).reshape(batch, seq_len, 4 * hid)
    gates = np.empty((batch, 4 * hid))
    for t in range(seq_len):
        np.matmul(h, wh_t, out=gates)
        gates += x_proj[:, t, :]
        gates += bias
        h_new, c_new = lstm_cell_np(gates, c)
        if mask is not None:
            step = mask[:, t][:, None]
            c = np.where(step, c_new, c)
            h = np.where(step, h_new, h)
        else:
            c, h = c_new, h_new
        if state_seq is not None:
            h_seq[:, t + 1] = h
            c_seq[:, t + 1] = c
    return h, c


def gru_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    h0: np.ndarray | None = None,
    state_seq: np.ndarray | None = None,
) -> np.ndarray:
    """Fused GRU recurrence; returns the final hidden state ``(B, H)``.

    Mirrors :meth:`repro.nn.rnn.GRU.forward`: joint update/reset projection,
    reset-gated candidate, ``h = (1 - z) n + z h`` with masked carry-through.

    ``h0`` seeds the recurrence from a cached prefix state; ``state_seq`` is
    an optional preallocated ``(B, T + 1, H)`` array receiving the state
    after every step (index 0 = initial state).  See :func:`lstm_forward_np`.
    """
    batch, seq_len, dim = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid)) if h0 is None else np.array(h0, dtype=float)
    if state_seq is not None:
        state_seq[:, 0] = h
    wx_t = w_x.T
    wh_t = w_h.T
    x_proj = (emb.reshape(batch * seq_len, dim) @ wx_t).reshape(batch, seq_len, 3 * hid)
    hp = np.empty((batch, 3 * hid))
    for t in range(seq_len):
        np.matmul(h, wh_t, out=hp)
        h_new = gru_cell_np(x_proj[:, t, :], hp, h, bias)
        if mask is not None:
            step = mask[:, t][:, None]
            h = np.where(step, h_new, h)
        else:
            h = h_new
        if state_seq is not None:
            state_seq[:, t + 1] = h
    return h


_RNN_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sigmoid": sigmoid_np,
    "relu": lambda x: np.maximum(x, 0.0),
}


# ---------------------------------------------------------------------------
# composition-stable primitives
#
# The fused kernels above replicate the autograd op order bitwise, but both
# paths inherit OpenBLAS's batch-shape sensitivity: `x @ w.T` with a
# transposed-*view* second operand picks different micro-kernels (and
# different K-blocking, hence different summation orders) depending on the
# row count M, so one document's row can change at the ulp level when the
# rows batched alongside it change.  Measured on this substrate:
#
# - transposed-view operands are row-unstable for small M (up to M≈18 for
#   some shapes), with no safe universal threshold;
# - a *contiguous* second operand is row-stable for every tested shape at
#   M >= 2 — except narrow outputs (N == num_classes == 2), which stay
#   unstable at almost every M;
# - gemv (M == 1, and matvec per class) uses its own K-blocking and never
#   matches gemm rows.
#
# The stable recipe is therefore: contiguous pre-transposed weights for the
# wide GEMMs (`stable_matmul_operand`), the narrow classification head as a
# per-class elementwise multiply + per-row pairwise `sum` (`stable_dense_np`,
# composition-invariant by construction), and callers must never dispatch a
# single-row batch (the delta kernels pad a lone row to 2).  Elementwise
# ops, softmax, gathers and masked reductions are all per-row already.
# ---------------------------------------------------------------------------

def stable_matmul_operand(model: object, name: str, weight: np.ndarray) -> np.ndarray:
    """``weight``, re-laid-out so ``weight.T`` is a C-contiguous GEMM operand.

    The fused recurrences and conv all compute ``x @ w.T``; handing them a
    transpose-contiguous ``w`` makes the BLAS see a contiguous NoTrans
    second operand, which is what makes their rows composition-stable for
    M >= 2.  The copy is cached on the model instance under ``name`` and
    invalidated when the source parameter array is rebound.
    """
    cache = model.__dict__.setdefault("_stable_operand_cache", {})
    entry = cache.get(name)
    if entry is None or entry[0] is not weight:
        contig = np.ascontiguousarray(weight.T).T
        cache[name] = (weight, contig)
        return contig
    return entry[1]


def stable_dense_np(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    """Affine head ``x W^T + b`` with composition-invariant rows.

    The (B, C) classification head is too narrow for any BLAS layout to be
    row-stable, so each output column is computed as an elementwise product
    reduced per row by NumPy's pairwise ``sum`` — the reduction order for a
    row depends only on that row, never on the batch composition.
    """
    cols = [(x * weight[j]).sum(axis=1) for j in range(weight.shape[0])]
    out = np.stack(cols, axis=1)
    if bias is not None:
        out = out + bias
    return out


def rnn_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    activation: str = "tanh",
) -> np.ndarray:
    """Fused Elman recurrence matching :meth:`repro.nn.rnn.SimpleRNN.forward`."""
    phi = _RNN_ACTIVATIONS[activation]
    batch, seq_len, _ = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid))
    wx_t = w_x.T
    wh_t = w_h.T
    for t in range(seq_len):
        h_new = phi(emb[:, t, :] @ wx_t + h @ wh_t + bias)
        if mask is not None:
            step = mask[:, t][:, None]
            h = np.where(step, h_new, h)
        else:
            h = h_new
    return h
