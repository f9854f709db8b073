"""Word- and sentence-paraphrase candidate generation with semantic and
syntactic filters (paper Sec. 5.1, Alg. 1 steps 3 and 7).

Candidates come from the domain synonym lexicon (standing in for
Paragram-SL999 word vectors and the Para-nmt-50m sentence paraphraser — see
DESIGN.md) and are filtered by:

- *semantic similarity*: WMD-based similarity at least ``delta_w`` (words) /
  ``delta_s`` (sentences), on the paper's [0, 1] scale where 1 = identical;
- *syntactic similarity*: language-model constraint
  ``|ln P(x) − ln P(x')| ≤ delta_lm`` (words only, as in Alg. 1).

Sentence paraphrases are produced by meaning-preserving rewrite rules:
simultaneous synonym substitution, intensifier insertion/removal, copula
tense shift, and coordinate-clause reordering.
"""

from __future__ import annotations

import zlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.text.transformations import SentenceNeighborSets, WordNeighborSets
from repro.data.lexicon import DomainLexicon
from repro.text.ngram_lm import NGramLM
from repro.text.sentence import split_sentences
from repro.text.wmd import wmd_similarity, word_similarity

__all__ = ["ParaphraseConfig", "WordParaphraser", "SentenceParaphraser"]

_INTENSIFIERS = ("very", "really", "quite", "so")
_COPULA_SWAPS = {"was": "is", "is": "was", "were": "are", "are": "were"}


@dataclass
class ParaphraseConfig:
    """Candidate-generation thresholds (paper Sec. 6.2 defaults).

    ``delta_w`` / ``delta_s`` are similarity thresholds in [0, 1] (paper:
    0.75); ``delta_lm`` bounds the log-probability drift (paper: δ² = 2 for
    news/yelp, ∞ for the spam corpus); ``k`` caps each neighbor set
    (paper: 15).
    """

    k: int = 15
    delta_w: float = 0.75
    delta_s: float = 0.75
    delta_lm: float = float("inf")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("delta_w", "delta_s"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.delta_lm < 0:
            raise ValueError("delta_lm must be non-negative")


class WordParaphraser:
    """Builds the word neighbor sets ``W_i`` (Alg. 1 step 7)."""

    def __init__(
        self,
        lexicon: DomainLexicon,
        vectors: Mapping[str, np.ndarray],
        lm: NGramLM | None = None,
        config: ParaphraseConfig | None = None,
    ) -> None:
        self.lexicon = lexicon
        self.vectors = vectors
        self.lm = lm
        self.config = config or ParaphraseConfig()
        if self.config.delta_lm != float("inf") and lm is None:
            raise ValueError("a language model is required for a finite delta_lm")
        #: optional PhaseProfiler: times the LM filter, the dominant cost of
        #: neighbor-set construction when delta_lm is finite
        self.profiler = None
        # candidates_for_word is a pure function of (word, lexicon, vectors,
        # config), all fixed after construction — memoize it so repeated
        # words across a corpus pay the WMD filter once.
        self._word_cache: dict[str, tuple[str, ...]] = {}

    def candidates_for_word(self, word: str) -> list[str]:
        """Synonym candidates passing the WMD similarity filter."""
        cached = self._word_cache.get(word)
        if cached is None:
            cfg = self.config
            out = []
            for cand in self.lexicon.synonyms(word):
                if word_similarity(word, cand, self.vectors) >= cfg.delta_w:
                    out.append(cand)
                if len(out) >= cfg.k:
                    break
            cached = tuple(out)
            self._word_cache[word] = cached
        return list(cached)

    def _lm_delta(self, tokens: list[str], position: int, new_word: str) -> float:
        """``|ln P(x) − ln P(x')|`` computed from the affected n-grams only.

        Replacing token ``i`` changes exactly the conditional terms whose
        context window covers position ``i`` — ``order`` terms — so the full
        document need not be rescored.
        """
        assert self.lm is not None
        order = self.lm.order
        replaced = list(tokens)
        replaced[position] = new_word
        history_a = list(tokens) + ["</s>"]
        history_b = replaced + ["</s>"]
        delta = 0.0
        for j in range(position, min(len(history_a), position + order)):
            delta += self.lm.token_log_prob(history_b[:j], history_b[j])
            delta -= self.lm.token_log_prob(history_a[:j], history_a[j])
        return abs(delta)

    def neighbor_sets(self, tokens: Sequence[str]) -> WordNeighborSets:
        """``W = {W_1..W_n}`` for a document, applying both filters."""
        tokens = list(tokens)
        cfg = self.config
        sets: list[list[str]] = []
        for i, word in enumerate(tokens):
            cands = self.candidates_for_word(word)
            if cands and self.lm is not None and np.isfinite(cfg.delta_lm):
                if self.profiler is not None:
                    with self.profiler.span("lm-filter"):
                        cands = [
                            c for c in cands if self._lm_delta(tokens, i, c) <= cfg.delta_lm
                        ]
                else:
                    cands = [
                        c for c in cands if self._lm_delta(tokens, i, c) <= cfg.delta_lm
                    ]
            sets.append(cands)
        return WordNeighborSets(sets)


class SentenceParaphraser:
    """Builds the sentence neighbor sets ``S_i`` (Alg. 1 step 3).

    Produces meaning-preserving rewrites of each sentence and keeps those
    with relaxed-WMD similarity at least ``delta_s`` to the original, up to
    ``k`` per sentence.
    """

    def __init__(
        self,
        lexicon: DomainLexicon,
        vectors: Mapping[str, np.ndarray],
        config: ParaphraseConfig | None = None,
        n_synonym_variants: int = 8,
    ) -> None:
        self.lexicon = lexicon
        self.vectors = vectors
        self.config = config or ParaphraseConfig()
        self.n_synonym_variants = n_synonym_variants
        # paraphrases() is deterministic per sentence (its RNG is seeded from
        # the sentence content), so identical sentences across a corpus can
        # share one relaxed-WMD filtering pass.
        self._sentence_cache: dict[tuple[str, ...], tuple[tuple[str, ...], ...]] = {}

    # -- rewrite rules -----------------------------------------------------
    def _synonym_variants(self, sent: list[str], rng: np.random.Generator) -> list[list[str]]:
        """Replace a random subset of clustered words by random synonyms."""
        positions = [i for i, w in enumerate(sent) if self.lexicon.synonyms(w)]
        variants = []
        for _ in range(self.n_synonym_variants):
            if not positions:
                break
            n_swap = int(rng.integers(1, len(positions) + 1))
            chosen = rng.choice(positions, size=n_swap, replace=False)
            new = list(sent)
            for i in chosen:
                syns = self.lexicon.synonyms(sent[i])
                new[i] = str(rng.choice(syns))
            variants.append(new)
        return variants

    @staticmethod
    def _intensifier_removal(sent: list[str]) -> list[list[str]]:
        if any(w in _INTENSIFIERS for w in sent):
            return [[w for w in sent if w not in _INTENSIFIERS]]
        return []

    @staticmethod
    def _intensifier_insertion(sent: list[str]) -> list[list[str]]:
        # insert "really" after a copula ("was really great")
        for i, w in enumerate(sent[:-1]):
            if w in _COPULA_SWAPS and sent[i + 1] not in _INTENSIFIERS:
                return [sent[: i + 1] + ["really"] + sent[i + 1 :]]
        return []

    @staticmethod
    def _copula_shift(sent: list[str]) -> list[list[str]]:
        if any(w in _COPULA_SWAPS for w in sent):
            return [[_COPULA_SWAPS.get(w, w) for w in sent]]
        return []

    @staticmethod
    def _clause_reorder(sent: list[str]) -> list[list[str]]:
        # "A and B ." -> "B and A ." for coordinate clauses
        if "and" not in sent:
            return []
        i = sent.index("and")
        left, right = sent[:i], sent[i + 1 :]
        terminal = []
        if right and right[-1] in ".!?":
            terminal = [right[-1]]
            right = right[:-1]
        if not left or not right:
            return []
        return [right + ["and"] + left + terminal]

    def paraphrases(self, sentence: Sequence[str]) -> list[list[str]]:
        """Filtered paraphrase candidates for one sentence."""
        sent = list(sentence)
        if not sent:
            return []
        cache_key = tuple(sent)
        hit = self._sentence_cache.get(cache_key)
        if hit is not None:
            return [list(c) for c in hit]
        cfg = self.config
        # zlib.crc32 (not hash()) keeps the per-sentence stream stable across
        # interpreter runs regardless of PYTHONHASHSEED.
        sentence_key = zlib.crc32(" ".join(sent).encode()) % 100_000
        rng = np.random.default_rng(cfg.seed + sentence_key)
        raw: list[list[str]] = []
        raw.extend(self._synonym_variants(sent, rng))
        raw.extend(self._intensifier_removal(sent))
        raw.extend(self._intensifier_insertion(sent))
        raw.extend(self._copula_shift(sent))
        raw.extend(self._clause_reorder(sent))
        seen = {tuple(sent)}
        out: list[list[str]] = []
        for cand in raw:
            key = tuple(cand)
            if key in seen:
                continue
            seen.add(key)
            if wmd_similarity(sent, cand, self.vectors, exact=False) >= cfg.delta_s:
                out.append(cand)
            if len(out) >= cfg.k:
                break
        self._sentence_cache[cache_key] = tuple(tuple(c) for c in out)
        return out

    def neighbor_sets(self, tokens: Sequence[str]) -> tuple[list[list[str]], SentenceNeighborSets]:
        """Split ``tokens`` into sentences and paraphrase each.

        Returns (sentences, neighbor sets).
        """
        sentences = split_sentences(list(tokens))
        return sentences, SentenceNeighborSets([self.paraphrases(s) for s in sentences])
