"""Word Mover's Distance (Kusner et al., 2015).

The paper uses WMD for the semantic-similarity filter (Sec. 5.1): sentence
paraphrase candidates must satisfy ``WMD(s_i, s) ≤ δ_s`` and word candidates
``WMD(w_i, w) ≤ δ_w``.  For words WMD reduces to the embedding distance; for
sentences it is the minimum-cost transport between normalized bag-of-words
distributions with Euclidean embedding distances as ground costs.

Two solvers are provided:

``wmd``
    Exact, via the transportation LP solved with ``scipy.optimize.linprog``.
``relaxed_wmd``
    The RWMD lower bound (each word moves all its mass to its nearest
    counterpart); a tight, much cheaper approximation used for fast
    candidate pre-filtering.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np

__all__ = [
    "word_distance",
    "word_similarity",
    "wmd",
    "relaxed_wmd",
    "wmd_similarity",
]

Vectors = Mapping[str, np.ndarray]


def word_distance(a: str, b: str, vectors: Vectors) -> float:
    """Euclidean distance between two word embeddings.

    Words missing from ``vectors`` are treated as maximally distant
    (``inf``) unless identical (0).
    """
    if a == b:
        return 0.0
    if a not in vectors or b not in vectors:
        return float("inf")
    return float(np.linalg.norm(np.asarray(vectors[a]) - np.asarray(vectors[b])))


def word_similarity(a: str, b: str, vectors: Vectors) -> float:
    """Map word distance to a [0, 1] similarity (1 = identical)."""
    return _to_similarity(word_distance(a, b, vectors))


def _nbow(tokens: Sequence[str], vectors: Vectors) -> tuple[list[str], np.ndarray]:
    """Normalized bag-of-words over the in-vocabulary tokens."""
    counts = Counter(t for t in tokens if t in vectors)
    words = sorted(counts)
    if not words:
        return [], np.zeros(0)
    weights = np.array([counts[w] for w in words], dtype=np.float64)
    return words, weights / weights.sum()


def _cost_matrix(words_a: list[str], words_b: list[str], vectors: Vectors) -> np.ndarray:
    va = np.stack([np.asarray(vectors[w], dtype=np.float64) for w in words_a])
    vb = np.stack([np.asarray(vectors[w], dtype=np.float64) for w in words_b])
    diff = va[:, None, :] - vb[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def wmd(tokens_a: Sequence[str], tokens_b: Sequence[str], vectors: Vectors) -> float:
    """Exact Word Mover's Distance between two token sequences.

    Out-of-vocabulary tokens are dropped from both sides.  If either side
    has no in-vocabulary tokens, the distance is 0 when both are empty and
    ``inf`` otherwise.
    """
    words_a, wa = _nbow(tokens_a, vectors)
    words_b, wb = _nbow(tokens_b, vectors)
    if not words_a and not words_b:
        return 0.0
    if not words_a or not words_b:
        return float("inf")
    if words_a == words_b and np.allclose(wa, wb):
        return 0.0
    cost = _cost_matrix(words_a, words_b, vectors)
    n, m = cost.shape
    # Transportation LP: minimize <T, cost> s.t. row sums = wa, col sums = wb.
    a_eq_rows = np.zeros((n, n * m))
    for i in range(n):
        a_eq_rows[i, i * m : (i + 1) * m] = 1.0
    a_eq_cols = np.zeros((m, n * m))
    for j in range(m):
        a_eq_cols[j, j::m] = 1.0
    # Drop one redundant constraint (total mass equality) for conditioning.
    a_eq = np.vstack([a_eq_rows, a_eq_cols[:-1]])
    b_eq = np.concatenate([wa, wb[:-1]])
    # imported here: scipy.optimize is most of the package's import time,
    # and only this exact solver needs it
    from scipy.optimize import linprog

    result = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - solver failure is exceptional
        raise RuntimeError(f"WMD transport LP failed: {result.message}")
    return float(result.fun)


def relaxed_wmd(tokens_a: Sequence[str], tokens_b: Sequence[str], vectors: Vectors) -> float:
    """RWMD lower bound: max of the two one-sided nearest-neighbor relaxations."""
    words_a, wa = _nbow(tokens_a, vectors)
    words_b, wb = _nbow(tokens_b, vectors)
    if not words_a and not words_b:
        return 0.0
    if not words_a or not words_b:
        return float("inf")
    cost = _cost_matrix(words_a, words_b, vectors)
    lower_a = float(wa @ cost.min(axis=1))
    lower_b = float(wb @ cost.min(axis=0))
    return max(lower_a, lower_b)


def wmd_similarity(
    tokens_a: Sequence[str],
    tokens_b: Sequence[str],
    vectors: Vectors,
    exact: bool = True,
) -> float:
    """WMD mapped to a [0, 1] similarity (1 = identical, 0 = unrelated).

    This mirrors the paper's use of spaCy's similarity, which is also on a
    [0, 1] basis (footnote 2).
    """
    dist = wmd(tokens_a, tokens_b, vectors) if exact else relaxed_wmd(tokens_a, tokens_b, vectors)
    return _to_similarity(dist)


def _to_similarity(dist: float) -> float:
    if np.isinf(dist):
        return 0.0
    return 1.0 / (1.0 + dist)
