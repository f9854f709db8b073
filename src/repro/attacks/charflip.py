"""Character-level transformations (paper Remark 2, HotFlip-style).

The framework of Problem 1 is agnostic to what a "replacement" is; besides
synonym paraphrases the paper lists "flipping characters within each word"
(Ebrahimi et al.'s HotFlip) as a valid transformation family.  This module
provides that candidate source: for each word, candidates are small
character edits — adjacent-character swaps, visually-similar substitutions
(homoglyphs), character deletion and duplication — that keep the word
human-readable while (typically) mapping it out of the model's vocabulary,
the classic evasion mechanism.

Use :class:`CharFlipCandidates` anywhere a word paraphraser is accepted —
it produces the same :class:`~repro.text.transformations.WordNeighborSets`
interface consumed by every word-level attack.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.text.transformations import WordNeighborSets

__all__ = ["CharFlipCandidates", "HOMOGLYPHS"]

# visually-similar character substitutions (a deliberately small, readable set)
HOMOGLYPHS: dict[str, str] = {
    "a": "@",
    "e": "3",
    "i": "1",
    "o": "0",
    "s": "5",
    "l": "1",
    "t": "7",
}


class CharFlipCandidates:
    """Generates character-edit candidates per word position.

    Parameters
    ----------
    min_word_length:
        Words shorter than this are left alone (edits would destroy them).
    max_candidates:
        Cap per position (the ``k`` of Alg. 1 step 7).
    operations:
        Subset of ``{"swap", "homoglyph", "delete", "duplicate"}``.
    skip_words:
        Words never edited (e.g. punctuation is excluded automatically).
    """

    OPERATIONS = ("swap", "homoglyph", "delete", "duplicate")

    def __init__(
        self,
        min_word_length: int = 4,
        max_candidates: int = 8,
        operations: Sequence[str] = OPERATIONS,
        skip_words: Sequence[str] = (),
    ) -> None:
        if min_word_length < 2:
            raise ValueError("min_word_length must be >= 2")
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        unknown = set(operations) - set(self.OPERATIONS)
        if unknown:
            raise ValueError(f"unknown operations: {sorted(unknown)}")
        self.min_word_length = min_word_length
        self.max_candidates = max_candidates
        self.operations = tuple(operations)
        self.skip_words = frozenset(skip_words)

    # -- edit operations ----------------------------------------------------
    @staticmethod
    def _swaps(word: str) -> list[str]:
        """Adjacent-character transpositions, interior only."""
        out = []
        for i in range(1, len(word) - 2):
            out.append(word[:i] + word[i + 1] + word[i] + word[i + 2 :])
        return out

    @staticmethod
    def _homoglyphs(word: str) -> list[str]:
        out = []
        for i, ch in enumerate(word):
            sub = HOMOGLYPHS.get(ch)
            if sub:
                out.append(word[:i] + sub + word[i + 1 :])
        return out

    @staticmethod
    def _deletions(word: str) -> list[str]:
        """Interior character deletions (keeps first/last letters — the
        'Cmabrigde' readability effect)."""
        return [word[:i] + word[i + 1 :] for i in range(1, len(word) - 1)]

    @staticmethod
    def _duplications(word: str) -> list[str]:
        return [word[:i] + word[i] + word[i:] for i in range(1, len(word) - 1)]

    def candidates_for_word(self, word: str) -> list[str]:
        """Character-edit candidates for one word, deduplicated and capped."""
        if len(word) < self.min_word_length or word in self.skip_words:
            return []
        if not any(ch.isalnum() for ch in word):
            return []
        raw: list[str] = []
        if "swap" in self.operations:
            raw.extend(self._swaps(word))
        if "homoglyph" in self.operations:
            raw.extend(self._homoglyphs(word))
        if "delete" in self.operations:
            raw.extend(self._deletions(word))
        if "duplicate" in self.operations:
            raw.extend(self._duplications(word))
        seen: set[str] = {word}
        out: list[str] = []
        for cand in raw:
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
            if len(out) >= self.max_candidates:
                break
        return out

    def neighbor_sets(self, tokens: Sequence[str]) -> WordNeighborSets:
        """Per-position candidate sets, same interface as WordParaphraser."""
        return WordNeighborSets([self.candidates_for_word(t) for t in tokens])
