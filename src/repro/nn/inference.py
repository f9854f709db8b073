"""Graph-free inference kernels, one record per model family.

Every ``predict_proba`` call used to walk the reverse-mode autograd
machinery in :mod:`repro.nn.tensor` — one Python-level :class:`Tensor`
allocation per op, per timestep of the recurrent loops — even under
``no_grad()``.  For the attack workload (thousands of small candidate
batches) that Python overhead dominates the actual FLOPs.

This module provides pure-NumPy forward kernels that read weights straight
out of the trained ``Module`` parameters: a single fused gate matmul per
LSTM/GRU timestep over preallocated state buffers, conv-as-matmul for the
WCNN, and a NumPy softmax replicating the exact op sequence of
:func:`repro.nn.functional.softmax`.  Each kernel performs bit-for-bit the
same floating-point operations in the same order as the autograd path, so
kernel and reference probabilities agree exactly (the parity tests assert
``<= 1e-12``; in practice the outputs are bitwise identical).

A model class opts in by registering one :class:`Kernels` record with
:func:`register_kernels`; :func:`kernels_for` looks it up by exact type.
The record holds:

- ``logits(model, ids, mask, stable=False)``, the forward.  Dispatch
  happens in :meth:`repro.models.base.TextClassifier.predict_proba`
  whenever no gradient is needed and scoring is deterministic.  With
  ``stable=True`` the same body runs on re-laid-out GEMM operands and a
  composition-invariant head (:func:`operand`, :func:`head_np`), so its
  rows do not depend on their batch-mates: the reference of delta scoring
  (see the notes above :func:`stable_matmul_operand`).
- ``gradient(model, emb, mask, target)``, or None: it serves
  :meth:`repro.models.base.TextClassifier.embedding_gradient`, the
  embedding gradient of one class probability that gradient-guided
  attacks rank words by.  Each replays the autograd backward by hand —
  same ops, same operand shapes, same accumulation order — so its
  gradient is bitwise the autograd one; :func:`softmax_target_grad_np` is
  the shared softmax step.
- ``delta``, or None: the family's incremental proposal scorer
  (:mod:`repro.nn.delta`).

The autograd forward is kept untouched as the reference implementation,
and serves training, inference-time dropout and unregistered model
classes.  The kernels read the parameters on every call and cache nothing
derived from them, because the optimizers update parameter arrays in place.

Layering: this module depends on nothing but NumPy.  Model modules import
it to register their kernels; it never imports ``repro.models``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernels",
    "register_kernels",
    "kernels_for",
    "operand",
    "head_np",
    "softmax_target_grad_np",
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
]

# signature: (model, token_ids (B, T) int, mask (B, T) bool, stable=False) -> logits (B, C)
LogitsKernel = Callable[..., np.ndarray]

# signature: (model, emb (T, D), mask (T,) bool, target label) -> grad (T, D)
GradientKernel = Callable[[object, np.ndarray, np.ndarray, int], np.ndarray]


@dataclass(frozen=True)
class Kernels:
    """One model family's graph-free kernels (see the module docstring)."""

    logits: LogitsKernel
    gradient: GradientKernel | None = None
    delta: object | None = None


_KERNELS: dict[type, Kernels] = {}


def register_kernels(model_cls: type, kernels: Kernels) -> None:
    """Register ``model_cls``'s kernel record.

    Lookup is by *exact* type, never by subclass: a subclass overriding
    ``forward_from_embeddings`` must not silently inherit kernels that
    compute something else.  Subclasses that keep the forward unchanged
    can re-register the parent's record explicitly.
    """
    _KERNELS[model_cls] = kernels


def kernels_for(model: object) -> Kernels | None:
    """The kernel record for ``type(model)``, or None (reference path)."""
    return _KERNELS.get(type(model))


# ---------------------------------------------------------------------------
# primitives — each replicates the autograd op sequence exactly
# ---------------------------------------------------------------------------

def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax`` with the exact op order of :func:`repro.nn.functional.softmax`.

    That implementation computes ``exp(shifted - log(sum(exp(shifted))))``
    with ``shifted = x - max(x)``; reproducing the same sequence keeps the
    kernel probabilities bitwise equal to the reference ones.
    """
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return np.exp(shifted - np.log(e.sum(axis=axis, keepdims=True)))


def softmax_target_grad_np(logits: np.ndarray, target: int) -> np.ndarray:
    """Gradient of ``softmax(logits)[0, target]`` w.r.t. ``(1, C)`` logits.

    The autograd backward of :func:`repro.nn.functional.softmax`
    (``log_softmax(x).exp()``), op for op: the one-hot times the
    probability flows into the shifted logits directly and through the
    ``log(sum(exp))`` normaliser, and the two branches add.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    probs = np.exp(shifted - np.log(s))
    d_log_probs = np.zeros_like(probs)
    d_log_probs[0, target] = probs[0, target]
    d_s = -d_log_probs.sum(axis=-1, keepdims=True) / s
    return d_log_probs + d_s * e


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

    Builds the same ``(B, n_win, h*D)`` windows as
    :meth:`repro.nn.layers.Conv1d.forward` but collapses the batch and
    window axes into a single 2-D GEMM (a 3-D ``matmul`` degrades to ``B``
    small per-document GEMMs).  The per-output-element dot products run
    over the identical ``h*D`` contraction, so the result equals the
    autograd path to rounding: BLAS may round a row of the one tall GEMM
    differently from the same row of a per-document GEMM (on the trained
    models of the parity tests they agree bit for bit).

    In a C-contiguous ``(B, T, D)`` block a window's ``h*D`` values are
    contiguous, so the windows are a strided view of ``emb`` (its rows
    overlap); one copy turns that view into the contiguous GEMM operand,
    the same matrix the advanced-index gather built.  The bias is added in
    place to the freshly allocated output; ``emb`` is only read.
    """
    emb = np.ascontiguousarray(emb)
    batch, seq_len, dim = emb.shape
    n_filt = weight.shape[0]
    n_win = max(0, (seq_len - kernel_size) // stride + 1)
    item = emb.itemsize  # strides from the shape: length-1 axes may report any stride
    windows = np.lib.stride_tricks.as_strided(
        emb,
        shape=(batch, n_win, kernel_size * dim),
        strides=(seq_len * dim * item, stride * dim * item, item),
        writeable=False,
    )
    flat = np.ascontiguousarray(windows).reshape(batch * n_win, kernel_size * dim)
    out = flat @ weight.T
    out += bias
    return out.reshape(batch, n_win, n_filt)


def max_over_time_np(feats: np.ndarray, window_mask: np.ndarray, neg: float = -1e30) -> np.ndarray:
    """Masked max-over-time pooling, matching :class:`repro.nn.layers.MaxOverTime`.

    ``feats`` is only read.  A kernel that owns its feature map can add the
    same penalty in place and take the max itself (see the WCNN kernel).
    """
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


# ---------------------------------------------------------------------------
# composition-stable primitives
#
# The primitives above replicate the autograd op order bitwise, but both
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
# A family's `logits(..., stable=True)` is its one forward body with the
# recipe swapped in through `operand` and `head_np`.
# ---------------------------------------------------------------------------

def stable_matmul_operand(weight: np.ndarray) -> np.ndarray:
    """``weight``, re-laid-out so ``weight.T`` is a C-contiguous GEMM operand.

    The recurrences and conv all compute ``x @ w.T``; handing them a
    transpose-contiguous ``w`` makes the BLAS see a contiguous NoTrans
    second operand, which is what makes their rows composition-stable for
    M >= 2.  The copy is made on every call: the optimizers update
    parameter arrays in place, so a copy cached on the array's identity
    would go stale after training.
    """
    return np.ascontiguousarray(weight.T).T


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


def operand(weight: np.ndarray, stable: bool) -> np.ndarray:
    """``weight`` as a GEMM operand: re-laid-out when ``stable``, else as stored."""
    return stable_matmul_operand(weight) if stable else weight


def head_np(head: object, x: np.ndarray, stable: bool = False) -> np.ndarray:
    """A ``Dense`` head on raw arrays: :func:`stable_dense_np` or :func:`dense_np`."""
    bias = head.bias.data if head.bias is not None else None
    return (stable_dense_np if stable else dense_np)(x, head.weight.data, bias)
