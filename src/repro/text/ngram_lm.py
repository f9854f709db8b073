"""Interpolated n-gram language model with Lidstone smoothing.

Stands in for the neural language model ``P`` the paper uses for the
syntactic-similarity filter (Sec. 5.1): candidate paraphrases must satisfy
``|ln P(x) − ln P(x')| ≤ δ``.  Only sentence log-probabilities are needed,
which an interpolated n-gram model supplies.

The model interpolates maximum-likelihood estimates of orders ``1..n`` with
fixed weights (higher orders weighted more), each order smoothed with a
Lidstone pseudo-count ``alpha`` over the vocabulary.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

__all__ = ["NGramLM"]

_BOS = "<s>"
_EOS = "</s>"


class NGramLM:
    """Interpolated Lidstone n-gram language model.

    Parameters
    ----------
    order:
        Maximum n-gram order (e.g. 3 for a trigram model).
    alpha:
        Lidstone pseudo-count added to every count.
    """

    def __init__(self, order: int = 3, alpha: float = 0.1) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.order = order
        self.alpha = alpha
        # counts[k] maps a (k+1)-gram tuple -> count; contexts[k] maps the
        # k-gram context -> count (k = 0 .. order-1).
        self._counts: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(order)]
        self._contexts: list[Counter[tuple[str, ...]]] = [Counter() for _ in range(order)]
        self._vocab: set[str] = set()
        # Interpolation weights: geometric, favoring the highest order.
        raw = [2.0**k for k in range(order)]
        total = sum(raw)
        self._lambdas = [w / total for w in raw]
        self._fitted = False
        # token_log_prob is a pure function of (trailing context, token)
        # once fitted; the attack's LM filter rescoring probes the same
        # n-grams for every candidate at a position, so memoize.
        self._logp_cache: dict[tuple[tuple[str, ...], str], float] = {}

    @property
    def vocab_size(self) -> int:
        return len(self._vocab) + 1  # +1 for </s>

    def fit(self, documents: Iterable[Sequence[str]]) -> "NGramLM":
        """Count n-grams over tokenized documents."""
        n_docs = 0
        for doc in documents:
            n_docs += 1
            padded = [_BOS] * (self.order - 1) + list(doc) + [_EOS]
            self._vocab.update(doc)
            for i in range(self.order - 1, len(padded)):
                token = padded[i]
                for k in range(self.order):
                    context = tuple(padded[i - k : i])
                    self._counts[k][context + (token,)] += 1
                    self._contexts[k][context] += 1
        if n_docs == 0:
            raise ValueError("cannot fit a language model on zero documents")
        self._fitted = True
        self._logp_cache.clear()
        return self

    def token_log_prob(self, context: Sequence[str], token: str) -> float:
        """Interpolated ``ln P(token | context)`` (natural log)."""
        self._require_fitted()
        n_ctx = self.order - 1
        ctx = tuple(context[-n_ctx:]) if n_ctx else ()
        if len(ctx) < n_ctx:
            ctx = (_BOS,) * (n_ctx - len(ctx)) + ctx
        key = (ctx, token)
        cached = self._logp_cache.get(key)
        if cached is None:
            av = self.alpha * self.vocab_size
            prob = 0.0
            for k in range(self.order):
                sub = ctx[len(ctx) - k :] if k > 0 else ()
                num = self._counts[k][sub + (token,)] + self.alpha
                den = self._contexts[k][sub] + av
                prob += self._lambdas[k] * (num / den)
            cached = math.log(prob)
            self._logp_cache[key] = cached
        return cached

    def log_prob(self, tokens: Sequence[str]) -> float:
        """``ln P(tokens)`` including the end-of-sequence event."""
        self._require_fitted()
        total = 0.0
        history = list(tokens) + [_EOS]
        for i, token in enumerate(history):
            total += self.token_log_prob(history[:i], token)
        return total

    def mean_log_prob(self, tokens: Sequence[str]) -> float:
        """Per-token ``ln P``; length-normalized fluency score."""
        return self.log_prob(tokens) / max(1, len(tokens) + 1)

    def perplexity(self, tokens: Sequence[str]) -> float:
        """``exp(-mean_log_prob)``; lower is more fluent."""
        return math.exp(-self.mean_log_prob(tokens))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("NGramLM must be fit() before scoring")
