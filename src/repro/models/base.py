"""Common interface for attackable text classifiers.

Every classifier in this package exposes exactly what the paper's attacks
need:

- ``predict_proba(docs)`` — batched class probabilities ``C(V(x))``;
- ``target_probability(doc, y)`` — the scalar ``C_y(V(x))`` being maximized
  (Problem 1);
- ``embedding_gradient(doc, y)`` — ``∇_v C_y(V(x))`` with respect to each
  word's embedding vector, used by the Gauss–Southwell word selection in
  Algorithm 3 and by the pure gradient baseline of Gong et al. [18].
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro.nn.functional import softmax
from repro.nn.inference import kernels_for, softmax_np
from repro.nn.layers import Embedding, Module
from repro.nn.tensor import Tensor, no_grad
from repro.text.vocab import Vocabulary

__all__ = ["TextClassifier"]


class TextClassifier(Module):
    """Base class wiring a vocabulary + embedding to an attackable head.

    Subclasses implement :meth:`forward_from_embeddings`, mapping a
    ``(B, T, D)`` embedding tensor (plus padding mask) to ``(B, C)`` logits.
    """

    #: group documents whose (capped) lengths land in the same
    #: ``bucket_granularity``-wide band into one forward pass
    bucket_granularity: int = 8

    def __init__(self, vocab: Vocabulary, embedding: Embedding, max_len: int) -> None:
        super().__init__()
        if max_len < 1:
            raise ValueError(f"max_len must be positive, got {max_len}")
        self.vocab = vocab
        self.embedding = embedding
        self.max_len = max_len
        #: run metrics sink (a repro.obs.registry.MetricsRegistry) or None;
        #: ExperimentContext attaches its registry to every victim it builds
        self.metrics = None

    # -- to be provided by subclasses ---------------------------------------
    def forward_from_embeddings(self, emb: Tensor, mask: np.ndarray) -> Tensor:
        """Logits from an embedding tensor; the attack-gradient entry point."""
        raise NotImplementedError

    @property
    def num_classes(self) -> int:
        return 2

    # -- encoding -------------------------------------------------------------
    def encode(self, docs: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """Tokenized documents → padded id matrix + mask."""
        return self.vocab.encode_batch(docs, self.max_len)

    # -- forward passes ---------------------------------------------------------
    def forward(self, token_ids: np.ndarray, mask: np.ndarray) -> Tensor:
        """Logits from an id matrix (training entry point)."""
        return self.forward_from_embeddings(self.embedding(token_ids), mask)

    def _fused_active(self) -> bool:
        """Whether the graph-free fast path may serve this model's scoring.

        Three conditions: the model is not training, has no inference-time
        (Bayesian) dropout — either draws from the model's own RNG stream
        inside the autograd forward, which only the reference path
        reproduces — and a kernel record is registered for its *exact* type
        (:func:`repro.nn.inference.register_kernels`).  Delta scoring asks
        the same question before it scores incrementally.
        """
        if self.training:
            return False
        if getattr(self, "inference_dropout", 0.0):
            return False
        return kernels_for(self) is not None

    def _probs_batch(self, token_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Class probabilities for one encoded batch, by kernel when possible."""
        if self._fused_active():
            return softmax_np(kernels_for(self).logits(self, token_ids, mask))
        with no_grad():
            logits = self.forward(token_ids, mask)
            return softmax(logits, axis=-1).data

    def padded_length(self, longest: int) -> int:
        """Pad length for a bucket whose longest document has ``longest`` tokens.

        Must yield the same output as padding to ``max_len``.  For models
        whose masking fully isolates padding (recurrent state carry-through,
        masked pooling/attention) the document length itself suffices;
        models that look at windows crossing into padding override this
        (see :meth:`repro.models.wcnn.WCNN.padded_length`).
        """
        return max(1, min(self.max_len, longest))

    def _length_buckets(
        self, docs: Sequence[Sequence[str]]
    ) -> Iterator[tuple[list[int], int]]:
        """Yield ``(doc indices, pad length)`` groups by bucketed length."""
        groups: dict[int, list[int]] = {}
        for i, doc in enumerate(docs):
            capped = max(1, min(len(doc), self.max_len))
            bucket = -(-capped // self.bucket_granularity)  # ceil division
            groups.setdefault(bucket, []).append(i)
        for bucket in sorted(groups):
            indices = groups[bucket]
            longest = max(min(len(docs[i]), self.max_len) for i in indices)
            yield indices, self.padded_length(longest)

    def predict_proba(
        self, docs: Sequence[Sequence[str]], batch_size: int = 128
    ) -> np.ndarray:
        """Class probabilities for tokenized documents, ``(B, C)``.

        Documents are grouped by length band and each group is padded only
        to its own :meth:`padded_length` instead of ``max_len`` — the same
        probabilities, far fewer padding timesteps/windows.  Original order
        is restored.  ``batch_size`` (at least 1) caps the rows per forward.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        n = len(docs)
        if n == 0:
            return np.zeros((0, self.num_classes))
        out = np.zeros((n, self.num_classes))
        for indices, pad_len in self._length_buckets(docs):
            for start in range(0, len(indices), batch_size):
                idx = indices[start : start + batch_size]
                chunk = [docs[i] for i in idx]
                tic = time.perf_counter()
                ids, mask = self.vocab.encode_batch(chunk, pad_len)
                toc = time.perf_counter()
                out[idx] = self._probs_batch(ids, mask)
                if self.metrics is not None:
                    # encode time stays out of forward latency
                    self.metrics.inc("phase/tokenize_calls")
                    self.metrics.inc("phase/tokenize_seconds", toc - tic)
                    self.record_forward(len(idx), pad_len, time.perf_counter() - toc)
        return out

    def record_forward(self, n_docs: int, padded_len: int, seconds: float) -> None:
        """Count one forward batch into :attr:`metrics`; a no-op when detached.

        The one writer of the ``forward/*`` names: ``forward/batches``,
        ``forward/docs``, ``forward/seconds``, the ``forward/batch_seconds``
        histogram, and ``forward/padded/<padded_len>/{batches,docs,seconds}``
        per padded length.  Delta scoring reports its batches here too.
        """
        metrics = self.metrics
        if metrics is None:
            return
        metrics.inc("forward/batches")
        metrics.inc("forward/docs", n_docs)
        metrics.inc("forward/seconds", seconds)
        metrics.observe("forward/batch_seconds", seconds)
        prefix = f"forward/padded/{padded_len}/"
        metrics.inc(prefix + "batches")
        metrics.inc(prefix + "docs", n_docs)
        metrics.inc(prefix + "seconds", seconds)

    def predict(self, docs: Sequence[Sequence[str]], batch_size: int = 128) -> np.ndarray:
        """Hard label predictions."""
        return self.predict_proba(docs, batch_size).argmax(axis=1)

    def accuracy(
        self, docs: Sequence[Sequence[str]], labels: np.ndarray, batch_size: int = 128
    ) -> float:
        """Fraction of documents classified as ``labels``."""
        if len(docs) == 0:
            raise ValueError("accuracy over an empty set is undefined")
        preds = self.predict(docs, batch_size)
        return float((preds == np.asarray(labels)).mean())

    def target_probability(self, doc: Sequence[str], target_label: int) -> float:
        """``C_y(V(x))`` — the attack objective for one document."""
        return float(self.predict_proba([list(doc)])[0, target_label])

    # -- gradients for attacks ------------------------------------------------
    @contextlib.contextmanager
    def _parameters_detached(self) -> Iterator[None]:
        """Temporarily exclude model parameters from the autograd graph.

        ``_autograd_embedding_gradient`` differentiates w.r.t. a fresh
        embedding leaf only; with parameters still requiring grad, every backward pass also
        accumulates into ``p.grad`` of every weight — work the attacks never
        use, and stale gradients that would contaminate a later training
        step unless the optimizer zeroes first.
        """
        params = self.parameters()
        prev = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in zip(params, prev):
                p.requires_grad = flag

    def embedding_gradient(
        self, doc: Sequence[str], target_label: int
    ) -> np.ndarray:
        """Gradient of ``C_y`` w.r.t. each word's embedding vector.

        Returns an array of shape ``(len(doc), D)`` (truncated to
        ``max_len``); rows for padding are never produced.

        The ``gradient`` kernel of the record registered for the exact model
        type (:func:`repro.nn.inference.register_kernels`) serves the call,
        bitwise equal to autograd; classes without one and inference-time
        dropout, which draws from the model's RNG inside the forward, take
        :meth:`_autograd_embedding_gradient`.
        """
        ids, mask = self.encode([list(doc)])
        emb, mask = self.embedding.weight.data[ids[0]], mask[0]
        kernel = getattr(kernels_for(self), "gradient", None)
        if kernel is not None and not getattr(self, "inference_dropout", 0.0):
            grad = kernel(self, emb, mask, target_label)
        else:
            grad = self._autograd_embedding_gradient(emb, mask, target_label)
        return grad[: int(mask.sum())]

    def _autograd_embedding_gradient(
        self, emb: np.ndarray, mask: np.ndarray, target_label: int
    ) -> np.ndarray:
        """The reference gradient: backward through the autograd forward.

        Takes one document's padded ``(T, D)`` embedding values and
        ``(T,)`` mask, the gradient kernels' signature, and returns the
        ``(T, D)`` gradient, computed in eval mode.
        """
        was_training = self.training
        self.eval()
        try:
            leaf = Tensor(emb[None], requires_grad=True)
            with self._parameters_detached():
                logits = self.forward_from_embeddings(leaf, mask[None])
                prob = softmax(logits, axis=-1)[0, target_label]
                prob.backward()
            return leaf.grad[0]
        finally:
            if was_training:
                self.train()
