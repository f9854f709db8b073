"""Incremental (delta) proposal evaluation for single-edit candidates.

A greedy/CELF attack iteration scores hundreds of candidates that differ
from the incumbent *base* document in exactly one position (one word or a
short span).  Re-running a full forward per candidate throws away almost
all of the work: the recurrent prefix before the edit and the conv windows
away from the edit are identical to the base document's.  This module
caches the reusable part once per base document and recomputes only what
an edit can change:

- **LSTM/GRU prefix-state caching** (:class:`RecurrentDeltaKernel`): the
  recurrence is causal, so the state after ``p`` steps depends only on
  tokens ``[0, p)``.  A base state records the state after every step; a
  candidate edited first at ``p`` resumes from the cached state at ``p``
  and runs only the ``n_real - p`` suffix steps.  A proposal set runs as
  one *staggered* recurrence: sorted by resume point, candidates join the
  stacked batch at their own step, so every step is one gate GEMM however
  many resume points there are.  A new base state resumes from the
  resident state sharing its longest token prefix (greedy's next base is
  the last one plus one edit) and runs only the steps after it.

- **WCNN windowed recompute** (:class:`ConvDeltaKernel`): only conv
  windows overlapping the edited span ``[lo, hi)`` — window starts in
  ``[lo - h + 1, hi)`` — can change.  The base state caches every
  penalized post-ReLU window feature plus running prefix/suffix maxima, so
  pooling is ``max(prefix[ws0], recomputed windows, suffix[ws1])`` —
  exact, because ``max`` is a selection, not an accumulation.  A proposal
  set's affected windows are one im2col GEMM and one segmented
  ``np.maximum.reduceat``.

Exactness / parity
------------------
Delta-scored probabilities are **bitwise identical** to the reference
*composition-stable* full forward (``repro.nn.inference`` stable kernels):
every GEMM uses the same cached contiguous pre-transposed operands
(``stable_matmul_operand``), whose output rows are bitwise independent of
batch composition for M >= 2 (single-row dispatches are padded by row
duplication), the classification head is
the composition-invariant ``stable_dense_np``, and elementwise ops /
softmax are per-row.  The parity tests in ``tests/nn/test_delta.py``
assert this per family, edit position and proposal-set shape.

That is *not* bitwise identity with delta scoring off.  Calls without a
base (``AttackResult.original_prob``, staged-search incumbents) and
ineligible candidates (token count differs from the base, stochastic
inference) take the untouched ``model.predict_proba`` path, but delta
scores drive the search's argmax / threshold decisions with stable-kernel
probabilities, which can differ from the default fused kernel's by a few
ULPs; where two proposals tie that closely the search may pick the other
one (one of 462 documents of the Table-2 benchmark grid does).  Delta-on
runs are deterministic and independent of batch composition and workers.

Accounting
----------
Delta-scored candidates still count as paid forwards in the engine's
``n_queries`` — delta scoring changes the *cost* of a query, not the
query-accounting contract, so the obs reconciliation invariant
(sum of traced ``forward.n_forwards`` == ``attack_end.n_queries``) is
unchanged.  Costs are tracked in model-family FLOP-equivalent units
(recurrent timesteps, conv windows) so the benchmark can report an honest
``delta_forward_reduction`` = reference-units / units-actually-spent,
including state-build and padding overhead.

Layering: like :mod:`repro.nn.inference`, this module depends only on
NumPy.  Model modules register their kernels
(:func:`register_delta_kernel`); everything else is duck-typed attribute
access on the model.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.nn.inference import (
    gru_cell_np,
    gru_forward_np,
    lstm_cell_np,
    lstm_forward_np,
    softmax_np,
    stable_dense_np,
    stable_matmul_operand,
)

__all__ = [
    "DELTA_SCORING_ENV",
    "delta_scoring_enabled",
    "register_delta_kernel",
    "delta_kernel_for",
    "diff_span",
    "DeltaState",
    "ConvDeltaKernel",
    "RecurrentDeltaKernel",
    "DeltaScoreFn",
]

#: env flag turning delta scoring on for runner-managed attacks
DELTA_SCORING_ENV = "REPRO_DELTA_SCORING"

_TRUTHY = {"1", "true", "yes", "on"}


def delta_scoring_enabled() -> bool:
    """True when ``REPRO_DELTA_SCORING`` requests incremental scoring."""
    return os.environ.get(DELTA_SCORING_ENV, "").strip().lower() in _TRUTHY


_DELTA_REGISTRY: dict[type, "object"] = {}


def register_delta_kernel(model_cls: type, kernel: object) -> None:
    """Register a delta kernel for ``model_cls``.

    Exact-type lookup, like the fused/stable kernel registries: a subclass
    with a different forward must not inherit a kernel that computes
    something else.
    """
    _DELTA_REGISTRY[model_cls] = kernel


def delta_kernel_for(model: object) -> object | None:
    """The registered delta kernel for ``type(model)``, or None."""
    return _DELTA_REGISTRY.get(type(model))


def diff_span(base: Sequence[str], cand: Sequence[str], limit: int) -> tuple[int, int] | None:
    """First/last differing position of two equal-length docs within ``[0, limit)``.

    Returns ``(lo, hi)`` with ``hi`` exclusive, or None when the documents
    agree on every position the model can see (``limit`` is the truncation
    point, ``min(len, max_len)``).  Scans forward to the first difference, then back to the last.
    """
    n = min(limit, len(base), len(cand))
    lo = 0
    while lo < n and base[lo] == cand[lo]:
        lo += 1
    if lo == n:
        return None
    hi = n
    while base[hi - 1] == cand[hi - 1]:
        hi -= 1
    return lo, hi


class DeltaState:
    """Cached per-base-document forward state (kernel-specific payload)."""

    __slots__ = (
        "ids",
        "mask",
        "pad_len",
        "n_real",
        "probs",
        "payload",
        "unit_cost_full",
        "build_units",
    )

    def __init__(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        probs: np.ndarray,
        payload: dict,
        unit_cost_full: float,
        build_units: float,
    ) -> None:
        self.ids = ids
        self.mask = mask
        self.pad_len = int(ids.shape[1])
        self.n_real = int(mask[0].sum())
        self.probs = probs
        self.payload = payload
        #: FLOP-equivalent units of ONE full forward at this pad length
        self.unit_cost_full = unit_cost_full
        #: units actually spent building this state (includes padding rows)
        self.build_units = build_units


def _stable_rows(flat: np.ndarray, operand: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Row-stable ``flat @ operand.T + bias``; pads single-row inputs to 2.

    ``operand`` must come from :func:`stable_matmul_operand`.  gemv (one
    row) never matches gemm rows, so a lone row is duplicated before the
    GEMM and sliced back.
    """
    if flat.shape[0] == 1:
        return (np.concatenate([flat, flat]) @ operand.T)[:1] + bias
    return flat @ operand.T + bias


def _head_probs(model: object, pooled: np.ndarray) -> np.ndarray:
    """Stable classification head + softmax (both composition-invariant)."""
    head = model.head
    bias = head.bias.data if head.bias is not None else None
    return softmax_np(stable_dense_np(pooled, head.weight.data, bias))


class ConvDeltaKernel:
    """Windowed recompute + segmented-max pooling for WCNN-shaped models.

    Duck-typed requirements on the model: ``embedding.weight.data``,
    ``conv`` (``weight.data``, ``bias.data``, ``kernel_size``, ``stride``),
    ``pool.NEG``, ``head`` (Dense), ``_window_mask``.
    """

    def supports(self, model: object) -> bool:
        return getattr(model.conv, "stride", 1) == 1

    def full_units(self, model: object, n_tokens: int) -> float:
        """Cost of one full forward for an ``n_tokens`` doc, in conv windows."""
        pad_len = model.padded_length(min(n_tokens, model.max_len))
        return float(max(1, pad_len - model.conv.kernel_size + 1))

    def build(self, model: object, ids: np.ndarray, mask: np.ndarray) -> DeltaState:
        conv = model.conv
        k = conv.kernel_size
        operand = stable_matmul_operand(model, "conv.weight", conv.weight.data)
        emb_table = model.embedding.weight.data
        pad_len = ids.shape[1]
        n_win = pad_len - k + 1
        win_idx = np.arange(n_win)[:, None] + np.arange(k)[None, :]
        dim = emb_table.shape[1]
        flat = emb_table[ids[0][win_idx]].reshape(n_win, k * dim)
        feats = np.maximum(_stable_rows(flat, operand, conv.bias.data), 0.0)
        window_mask = model._window_mask(mask)[0]
        penalty = np.where(window_mask, 0.0, float(model.pool.NEG))
        pfeats = feats + penalty[:, None]
        n_filt = pfeats.shape[1]
        # prefix[i] = max over windows [0, i); suffix[i] = max over [i, n_win).
        # -inf bases make empty segments neutral under np.maximum.
        prefix = np.full((n_win + 1, n_filt), -np.inf)
        np.maximum.accumulate(pfeats, axis=0, out=prefix[1:])
        suffix = np.full((n_win + 1, n_filt), -np.inf)
        suffix[:n_win] = np.maximum.accumulate(pfeats[::-1], axis=0)[::-1]
        probs = _head_probs(model, prefix[n_win : n_win + 1])[0]
        payload = {"penalty": penalty, "prefix": prefix, "suffix": suffix, "n_win": n_win}
        build_units = float(max(2, n_win))  # single-window docs pad to 2 rows
        return DeltaState(ids, mask, probs, payload, float(n_win), build_units)

    def score(
        self,
        model: object,
        state: DeltaState,
        cand_ids: np.ndarray,
        spans: Sequence[tuple[int, int]],
    ) -> tuple[np.ndarray, float]:
        """Probabilities for candidates given their edit spans; fused GEMM.

        ``cand_ids`` is ``(M, pad_len)`` encoded at the state's pad length;
        ``spans[i]`` is the token-position edit span of candidate ``i``.
        Returns ``(probs (M, C), units)`` where units counts recomputed
        (plus padding) windows.
        """
        conv = model.conv
        k = conv.kernel_size
        operand = stable_matmul_operand(model, "conv.weight", conv.weight.data)
        emb_table = model.embedding.weight.data
        payload = state.payload
        lo, hi = np.array(spans, dtype=np.intp).reshape(-1, 2).T
        ws0 = np.maximum(0, lo - k + 1)
        ws1 = np.maximum(ws0, np.minimum(payload["n_win"], hi))
        n_aff = ws1 - ws0
        total = int(n_aff.sum())
        pooled = payload["prefix"][ws0]
        if total:
            # segment j: candidate j's windows [ws0[j], ws1[j]), from row seg_start[j]
            seg_start = np.cumsum(n_aff) - n_aff
            win = np.arange(total) + np.repeat(ws0 - seg_start, n_aff)
            rows = np.repeat(np.arange(len(n_aff)), n_aff)[:, None]
            flat = emb_table[cand_ids[rows, win[:, None] + np.arange(k)]].reshape(total, -1)
            feats = np.maximum(_stable_rows(flat, operand, conv.bias.data), 0.0)
            feats += payload["penalty"][win, None]
            # reduceat misreads empty segments: pool only candidates with windows
            hit = n_aff > 0
            seg_max = np.maximum.reduceat(feats, seg_start[hit], axis=0)
            pooled[hit] = np.maximum(pooled[hit], seg_max)
        pooled = np.maximum(pooled, payload["suffix"][ws1])
        return _head_probs(model, pooled), float(max(2, total)) if total else 0.0


class RecurrentDeltaKernel:
    """Prefix-state caching + staggered suffix recurrence for LSTM/GRU models.

    ``cell_attr`` names the recurrent module on the model (``"lstm"`` /
    ``"gru"``); ``kind`` selects the recurrence.  Duck-typed requirements:
    ``<cell>.w_x.data``, ``<cell>.w_h.data``, ``<cell>.bias.data``,
    ``embedding.weight.data``, ``head``.
    """

    def __init__(self, cell_attr: str, kind: str) -> None:
        if kind not in ("lstm", "gru"):
            raise ValueError(f"unknown recurrence kind: {kind!r}")
        self.cell_attr = cell_attr
        self.kind = kind

    def supports(self, model: object) -> bool:
        return True

    def full_units(self, model: object, n_tokens: int) -> float:
        """Cost of one full forward for an ``n_tokens`` doc, in timesteps."""
        return float(max(1, min(n_tokens, model.max_len)))

    def _operands(self, model: object) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cell = getattr(model, self.cell_attr)
        wx = stable_matmul_operand(model, f"{self.cell_attr}.w_x", cell.w_x.data)
        wh = stable_matmul_operand(model, f"{self.cell_attr}.w_h", cell.w_h.data)
        return wx, wh, cell.bias.data

    def build(
        self, model: object, ids: np.ndarray, mask: np.ndarray, resident: Iterable[DeltaState] = ()
    ) -> DeltaState:
        """Base state of ``ids``, reusing the ``resident`` state sharing most leading ids.

        Only the steps after the shared prefix run, as the same two-row batch a cold
        build runs (gemv never matches gemm rows), so the state is bitwise a cold
        build's.  Steps past ``n_real`` are masked no-ops in the full forward.
        """
        wx, wh, bias = self._operands(model)
        n_real = int(mask[0].sum())
        keys = ("h", "c") if self.kind == "lstm" else ("h",)
        start, prior = 0, {k: np.zeros((1, wh.shape[1])) for k in keys}
        for other in resident:
            n = min(n_real, other.n_real)
            differ = np.flatnonzero(other.ids[0, :n] != ids[0, :n])
            shared = int(differ[0]) if differ.size else n
            if shared > start:
                start, prior = shared, other.payload
        emb = model.embedding.weight.data[np.concatenate([ids, ids])[:, start:n_real]]
        seqs = [np.empty((2, n_real - start + 1, wh.shape[1])) for _ in keys]
        seeds = [np.repeat(prior[k][start : start + 1], 2, axis=0) for k in keys]
        if self.kind == "lstm":
            h, _ = lstm_forward_np(emb, None, wx, wh, bias, *seeds, state_seq=tuple(seqs))
        else:
            h = gru_forward_np(emb, None, wx, wh, bias, *seeds, state_seq=seqs[0])
        payload = {k: np.concatenate([prior[k][:start], seq[0]]) for k, seq in zip(keys, seqs)}
        probs = _head_probs(model, h[:1])[0]
        return DeltaState(ids, mask, probs, payload, float(n_real), float(2 * (n_real - start)))

    def score(
        self,
        model: object,
        state: DeltaState,
        cand_ids: np.ndarray,
        spans: Sequence[tuple[int, int]],
    ) -> tuple[np.ndarray, float]:
        """One staggered recurrence over the proposal set, rows sorted by resume point.

        Active rows are a prefix, each seeded with the base state at its start.  Row 0
        duplicates row 1 (the first candidate), so its lone steps are a 2-row GEMM that
        leaves the next row's seed alone.  Units: suffix steps plus those lone steps.
        """
        wx, wh, bias = self._operands(model)
        emb_table = model.embedding.weight.data
        wx_t, wh_t = wx.T, wh.T
        n_real = state.n_real
        starts = np.minimum([lo for lo, _hi in spans], n_real - 1)
        order = np.argsort(starts, kind="stable")
        rows = np.concatenate([order[:1], order])
        ids, starts = cand_ids[rows], starts[rows]
        h = state.payload["h"][starts]
        c = state.payload["c"][starts] if self.kind == "lstm" else None
        active = np.searchsorted(starts[1:], np.arange(starts[0], n_real), side="right").tolist()
        for t, n_active in enumerate(active, int(starts[0])):
            live = slice(int(n_active > 1), n_active + 1)
            xp = emb_table[ids[live, t]] @ wx_t
            hp = h[live] @ wh_t
            if c is None:
                h[live] = gru_cell_np(xp, hp, h[live], bias)
            else:
                hp += xp
                hp += bias
                h[live], c[live] = lstm_cell_np(hp, c[live])
        h_final = h[1:][np.argsort(order)]  # back to the callers' candidate order
        units = (n_real - starts[1:]).sum() + active.count(1)
        return _head_probs(model, h_final), float(units)


class DeltaScoreFn:
    """Engine score function dispatching candidates to delta kernels.

    Installed via ``Attack.set_score_fn``; the engine's ``_score_batch``
    choke point calls it with ``base=`` the incumbent document whenever
    the search strategy scores single-edit proposals.  Calls without a
    base (original-document scoring, staged incumbents) and candidates
    that are not delta-eligible go through the untouched legacy
    ``model.predict_proba`` path — see the module docstring's parity
    argument.

    Base states live in a small LRU keyed by the (truncated) base token
    tuple: greedy search re-scores against one incumbent per iteration,
    beam search against up to ``beam_width`` origins, so a handful of
    resident states suffices.
    """

    #: the engine passes ``base=`` only to score functions advertising this
    accepts_base = True

    def __init__(self, model: object, max_states: int = 8) -> None:
        self.model = model
        self.max_states = max_states
        self._states: OrderedDict[tuple, DeltaState] = OrderedDict()
        self.stats: dict[str, float] = {
            "delta_candidates": 0.0,  # candidates scored incrementally
            "base_hits": 0.0,  # candidates identical to a cached base
            "full_forwards": 0.0,  # candidates through the legacy full path
            "delta_units": 0.0,  # units spent in kernel.score (incl. padding)
            "delta_units_full": 0.0,  # what delta-scored candidates would cost full
            "full_units": 0.0,  # units spent on legacy-path candidates
            "state_builds": 0.0,
            "state_build_units": 0.0,
            "reference_units": 0.0,  # what EVERYTHING scored here would cost full
        }
        self._last: dict | None = None

    @classmethod
    def for_model(cls, model: object, max_states: int = 8) -> "DeltaScoreFn | None":
        """A DeltaScoreFn when ``model`` has a usable kernel, else None."""
        kernel = delta_kernel_for(model)
        if kernel is None or not kernel.supports(model):
            return None
        return cls(model, max_states=max_states)

    # -- obs hooks ----------------------------------------------------------
    def pop_stats(self) -> dict | None:
        """Per-``_score_batch`` delta fields for the traced forward event."""
        last, self._last = self._last, None
        return last

    def forward_reduction(self) -> float:
        """Reference units / units actually spent (>= 1 when delta helps)."""
        spent = (
            self.stats["delta_units"]
            + self.stats["full_units"]
            + self.stats["state_build_units"]
        )
        return self.stats["reference_units"] / max(spent, 1e-12)

    # -- scoring ------------------------------------------------------------
    def _deterministic(self) -> bool:
        model = self.model
        return not getattr(model, "training", False) and not getattr(
            model, "inference_dropout", 0.0
        )

    def _record(self, name: str, amount: float = 1.0) -> None:
        self.stats[name] += amount
        # counter "delta_candidates" / registry "delta/candidates", without
        # double-prefixing the stats keys that already start with "delta_"
        metric = name if name.startswith("delta_") else f"delta_{name}"
        perf = getattr(self.model, "perf", None)
        if perf is not None:
            increment = getattr(perf, "increment", None)
            if increment is not None:
                increment(metric, amount)
            registry = getattr(perf, "registry", None)
            if registry is not None:
                registry.inc("delta/" + metric[len("delta_") :], amount)

    def _full(self, docs: list, kernel: object | None) -> np.ndarray:
        probs = self.model.predict_proba(docs)
        self._record("full_forwards", len(docs))
        if kernel is not None:
            units = sum(kernel.full_units(self.model, len(d)) for d in docs)
            self._record("full_units", units)
            self._record("reference_units", units)
        return probs

    def _state_for(self, kernel: object, base: list, n_cap: int) -> DeltaState:
        key = tuple(base[:n_cap])
        state = self._states.get(key)
        if state is not None:
            self._states.move_to_end(key)
            return state
        model = self.model
        pad_len = model.padded_length(n_cap)
        ids, mask = model.vocab.encode_batch([base], pad_len)
        tic = time.perf_counter()
        if isinstance(kernel, RecurrentDeltaKernel):
            state = kernel.build(model, ids, mask, self._states.values())
        else:
            state = kernel.build(model, ids, mask)
        perf = getattr(model, "perf", None)
        if perf is not None:
            perf.record_forward(1, pad_len, time.perf_counter() - tic)
        self._record("state_builds")
        self._record("state_build_units", state.build_units)
        self._states[key] = state
        while len(self._states) > self.max_states:
            self._states.popitem(last=False)
        return state

    def __call__(self, docs: Sequence[Sequence[str]], base: Sequence[str] | None = None):
        model = self.model
        if not len(docs):
            return np.zeros((0, model.num_classes))
        kernel = delta_kernel_for(model)
        if kernel is not None and not kernel.supports(model):
            kernel = None
        if base is None or kernel is None or not self._deterministic():
            self._last = None
            return self._full(list(docs), kernel if self._deterministic() else None)
        base = list(base)
        n_cap = min(len(base), model.max_len)
        spans: list[tuple[int, int]] = []
        delta_idx: list[int] = []
        base_idx: list[int] = []
        full_idx: list[int] = []
        for i, doc in enumerate(docs):
            # Only same-token-count candidates are delta-eligible: a length
            # change shifts the mask/padding, invalidating the cached state.
            if len(doc) != len(base):
                full_idx.append(i)
                continue
            span = diff_span(base, doc, n_cap)
            if span is None:
                base_idx.append(i)
            else:
                delta_idx.append(i)
                spans.append(span)
        out = np.empty((len(docs), model.num_classes))
        last: dict | None = None
        if delta_idx or base_idx:
            state = self._state_for(kernel, base, n_cap)
            if base_idx:
                out[base_idx] = state.probs
                self._record("base_hits", len(base_idx))
                self._record("reference_units", len(base_idx) * state.unit_cost_full)
            if delta_idx:
                cand_docs = [list(docs[i]) for i in delta_idx]
                tic = time.perf_counter()
                ids, _ = model.vocab.encode_batch(cand_docs, state.pad_len)
                probs, units = kernel.score(model, state, ids, spans)
                perf = getattr(model, "perf", None)
                if perf is not None:
                    perf.record_forward(len(delta_idx), state.pad_len, time.perf_counter() - tic)
                out[delta_idx] = probs
                units_full = len(delta_idx) * state.unit_cost_full
                self._record("delta_candidates", len(delta_idx))
                self._record("delta_units", units)
                self._record("delta_units_full", units_full)
                self._record("reference_units", units_full)
                last = {
                    "n_delta": len(delta_idx),
                    "delta_units": units,
                    "delta_units_full": units_full,
                }
        if full_idx:
            out[full_idx] = self._full([list(docs[i]) for i in full_idx], kernel)
        self._last = last
        return out
