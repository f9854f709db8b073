"""Tests for Word Mover's Distance."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.text.wmd import relaxed_wmd, wmd, wmd_similarity, word_distance, word_similarity

VECS = {
    "good": np.array([1.0, 0.0]),
    "great": np.array([0.9, 0.1]),
    "bad": np.array([-1.0, 0.0]),
    "awful": np.array([-0.9, -0.1]),
    "food": np.array([0.0, 1.0]),
    "the": np.array([0.0, 0.1]),
}

WORDS = list(VECS)


class TestWordDistance:
    def test_identical_zero(self):
        assert word_distance("good", "good", VECS) == 0.0

    def test_synonyms_close(self):
        assert word_distance("good", "great", VECS) < word_distance("good", "bad", VECS)

    def test_oov_infinite(self):
        assert word_distance("good", "zzz", VECS) == float("inf")

    def test_identical_oov_zero(self):
        assert word_distance("zzz", "zzz", VECS) == 0.0

    def test_similarity_range(self):
        s = word_similarity("good", "bad", VECS)
        assert 0.0 < s < 1.0

    def test_similarity_oov_zero(self):
        assert word_similarity("good", "zzz", VECS) == 0.0

    def test_similarity_identical_one(self):
        assert word_similarity("good", "good", VECS) == 1.0


class TestWMD:
    def test_identical_sentences_zero(self):
        assert wmd(["good", "food"], ["good", "food"], VECS) == 0.0

    def test_permutation_zero(self):
        assert wmd(["good", "food"], ["food", "good"], VECS) == 0.0

    def test_symmetry(self):
        a, b = ["good", "food"], ["bad", "food"]
        np.testing.assert_allclose(wmd(a, b, VECS), wmd(b, a, VECS), atol=1e-9)

    def test_single_word_pair_equals_distance(self):
        np.testing.assert_allclose(
            wmd(["good"], ["bad"], VECS), word_distance("good", "bad", VECS), atol=1e-9
        )

    def test_synonym_swap_cheaper_than_antonym_swap(self):
        syn = wmd(["good", "food"], ["great", "food"], VECS)
        ant = wmd(["good", "food"], ["bad", "food"], VECS)
        assert syn < ant

    def test_both_empty_zero(self):
        assert wmd([], [], VECS) == 0.0

    def test_one_empty_inf(self):
        assert wmd(["good"], [], VECS) == float("inf")

    def test_oov_tokens_dropped(self):
        d = wmd(["good", "zzz"], ["good"], VECS)
        assert d == 0.0

    def test_unequal_lengths_transport(self):
        # ["good","good","bad"] vs ["good"]: 1/3 of mass moves bad->good.
        d = wmd(["good", "good", "bad"], ["good"], VECS)
        np.testing.assert_allclose(d, word_distance("good", "bad", VECS) / 3, atol=1e-9)

    def test_triangle_like_monotonicity(self):
        near = wmd(["good"], ["great"], VECS)
        far = wmd(["good"], ["awful"], VECS)
        assert near < far


class TestRelaxedWMD:
    def test_lower_bound(self):
        pairs = [
            (["good", "food"], ["bad", "the"]),
            (["good"], ["awful", "food"]),
            (["the", "food", "good"], ["great", "food"]),
        ]
        for a, b in pairs:
            assert relaxed_wmd(a, b, VECS) <= wmd(a, b, VECS) + 1e-9

    def test_identical_zero(self):
        assert relaxed_wmd(["good"], ["good"], VECS) == 0.0

    def test_empty_handling(self):
        assert relaxed_wmd([], [], VECS) == 0.0
        assert relaxed_wmd(["good"], [], VECS) == float("inf")


class TestSimilarity:
    def test_identical_one(self):
        assert wmd_similarity(["good"], ["good"], VECS) == 1.0

    def test_range(self):
        s = wmd_similarity(["good"], ["bad"], VECS)
        assert 0.0 < s < 1.0

    def test_relaxed_at_least_exact_similarity(self):
        a, b = ["good", "food"], ["awful", "the"]
        assert wmd_similarity(a, b, VECS, exact=False) >= wmd_similarity(a, b, VECS)

    def test_disjoint_oov_zero(self):
        assert wmd_similarity(["zzz"], ["good"], VECS) == 0.0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
)
def test_property_wmd_nonneg_symmetric(a, b):
    d1 = wmd(a, b, VECS)
    d2 = wmd(b, a, VECS)
    assert d1 >= -1e-12
    np.testing.assert_allclose(d1, d2, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
)
def test_property_rwmd_lower_bounds_wmd(a, b):
    assert relaxed_wmd(a, b, VECS) <= wmd(a, b, VECS) + 1e-8


def test_package_import_leaves_scipy_optimize_unloaded():
    # only the exact solver needs linprog and imports it itself: loading
    # scipy.optimize with the module was most of the attack stack's import time
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, repro.attacks, repro.experiments; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"
