"""Randomized synonym-smoothing defense.

Adversarial training (Table 5) hardens the model's parameters; synonym
smoothing instead hardens *inference*: classify an ensemble of randomized
synonym-substituted copies of the input and take the majority vote.  Since
the attack's candidate transformations live inside the same synonym
clusters the smoother samples from, a successful attack must move the
*expected* prediction over the synonym neighborhood, not just a single
point — the discrete analog of randomized smoothing (and of SAFER-style
certified defenses for word substitutions).

This is an extension beyond the paper, benchmarked in
``benchmarks/test_extension_smoothing.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.lexicon import DomainLexicon
from repro.models.base import TextClassifier

__all__ = ["SmoothedClassifier"]

class SmoothedClassifier:
    """Majority-vote wrapper over randomized synonym substitutions.

    Exposes the :class:`~repro.models.base.TextClassifier` prediction
    surface (``predict_proba`` / ``predict`` / ``accuracy`` /
    ``target_probability``) so the attacks can target it directly, plus
    the ``vocab`` / ``max_len`` / ``embedding`` passthroughs they need and
    the wrapped model's ``metrics`` registry, which counts its forwards.
    Gradient access deliberately raises: smoothing is a black-box defense,
    so only score-based attacks apply (use ``objective-greedy``).
    """

    def __init__(
        self,
        model: TextClassifier,
        lexicon: DomainLexicon,
        n_samples: int = 9,
        substitution_prob: float = 0.25,
        seed: int = 0,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 <= substitution_prob <= 1.0:
            raise ValueError("substitution_prob must be in [0, 1]")
        self.model = model
        self.lexicon = lexicon
        self.n_samples = n_samples
        self.substitution_prob = substitution_prob
        self.seed = seed

    # -- passthroughs the attack interface relies on -------------------------
    @property
    def vocab(self):
        return self.model.vocab

    @property
    def max_len(self) -> int:
        return self.model.max_len

    @property
    def embedding(self):
        return self.model.embedding

    @property
    def metrics(self):
        return self.model.metrics

    @metrics.setter
    def metrics(self, registry) -> None:
        # the pool attaches a worker registry here; it must reach the
        # wrapped model, which is what records the forwards
        self.model.metrics = registry

    def embedding_gradient(self, doc, target_label):  # pragma: no cover - guard
        raise NotImplementedError(
            "smoothed inference is non-differentiable; use a score-based attack"
        )

    # -- smoothing ---------------------------------------------------------
    def _ensemble(self, doc: list[str], rng: np.random.Generator) -> list[list[str]]:
        """``doc`` plus ``n_samples - 1`` randomized copies drawn from ``rng``.

        Each copy visits the clustered positions in order: one
        ``rng.random()`` each, then ``rng.integers(len(syns))`` for a
        substituted one.  That per-document call order is part of every
        result digest, so the slots are found once per document and every
        other word costs nothing.
        """
        synonyms = self.lexicon.synonyms
        slots = [(i, syns) for i, word in enumerate(doc) if (syns := synonyms(word))]
        prob = self.substitution_prob
        draw, pick = rng.random, rng.integers
        ensemble = [doc]  # always include the original
        for _ in range(self.n_samples - 1):
            copy = list(doc)
            for i, syns in slots:
                if draw() < prob:
                    copy[i] = syns[pick(len(syns))]
            ensemble.append(copy)
        return ensemble

    def _doc_rng(self, doc: Sequence[str]) -> np.random.Generator:
        # deterministic per document so repeated queries agree (otherwise
        # greedy attacks could average out the defense by re-querying)
        import zlib

        key = zlib.crc32(" ".join(doc).encode()) % 1_000_000
        return np.random.default_rng(self.seed + key)

    def predict_proba(self, docs: Sequence[Sequence[str]], batch_size: int = 128) -> np.ndarray:
        """Mean class probabilities over the randomized ensemble."""
        ensemble: list[list[str]] = []
        for doc in docs:
            doc = list(doc)
            ensemble.extend(self._ensemble(doc, self._doc_rng(doc)))
        probs = self.model.predict_proba(ensemble, batch_size=batch_size)
        return probs.reshape(len(docs), self.n_samples, -1).mean(axis=1)

    def predict(self, docs: Sequence[Sequence[str]], batch_size: int = 128) -> np.ndarray:
        return self.predict_proba(docs, batch_size).argmax(axis=1)

    def accuracy(self, docs, labels, batch_size: int = 128) -> float:
        if len(docs) == 0:
            raise ValueError("accuracy over an empty set is undefined")
        return float((self.predict(docs, batch_size) == np.asarray(labels)).mean())

    def target_probability(self, doc: Sequence[str], target_label: int) -> float:
        return float(self.predict_proba([list(doc)])[0, target_label])
