"""Cross-cutting property-based tests (hypothesis)."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.base import count_word_changes
from repro.text.transformations import apply_word_substitutions, transformation_support
from repro.nn.losses import softmax_cross_entropy
from repro.nn.tensor import Tensor
from repro.submodular.greedy import greedy_maximize
from repro.submodular.set_function import ModularSetFunction
from repro.text.wmd import wmd

WORDS = ["alpha", "beta", "gamma", "delta"]
VECS = {w: np.eye(4)[i] for i, w in enumerate(WORDS)}


class TestWMDAgainstBruteForce:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    )
    def test_lp_matches_enumerated_transport_equal_sizes(self, a, b):
        # for equal-cardinality multisets with uniform weights, the optimal
        # transport cost equals the best assignment over permutations
        if len(set(a)) != len(a) or len(set(b)) != len(b) or len(a) != len(b):
            return  # restrict to the clean assignment case
        lp = wmd(a, b, VECS)
        n = len(a)
        best = min(
            sum(np.linalg.norm(VECS[a[i]] - VECS[b[perm[i]]]) for i in range(n)) / n
            for perm in itertools.permutations(range(n))
        )
        np.testing.assert_allclose(lp, best, atol=1e-8)


class TestGreedyExactOnModular:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
        st.integers(0, 8),
    )
    def test_greedy_is_optimal_on_modular(self, weights, budget):
        f = ModularSetFunction(weights)
        result = greedy_maximize(f, budget)
        # exact optimum: top-min(budget, n) positive weights
        expected = sum(sorted((w for w in weights if w > 0), reverse=True)[:budget])
        np.testing.assert_allclose(result.value, expected, atol=1e-9)


class TestTransformationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
        st.dictionaries(st.integers(0, 7), st.sampled_from(WORDS), max_size=4),
    )
    def test_support_matches_applied_substitutions(self, doc, subs):
        subs = {i: w for i, w in subs.items() if i < len(doc)}
        out = apply_word_substitutions(doc, subs)
        support = set(transformation_support(doc, out))
        real_changes = {i for i, w in subs.items() if doc[i] != w}
        assert support == real_changes

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
        st.dictionaries(st.integers(0, 7), st.sampled_from(WORDS), max_size=4),
    )
    def test_count_word_changes_equals_support_size(self, doc, subs):
        subs = {i: w for i, w in subs.items() if i < len(doc)}
        out = apply_word_substitutions(doc, subs)
        assert count_word_changes(doc, out) == len(transformation_support(doc, out))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
    def test_count_word_changes_identity_zero(self, doc):
        assert count_word_changes(doc, list(doc)) == 0


class TestLossProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=6),
    )
    def test_cross_entropy_nonnegative(self, logits):
        t = Tensor(np.array([logits]))
        for label in range(len(logits)):
            loss = softmax_cross_entropy(t, np.array([label]))
            assert loss.item() >= -1e-12

    def test_cross_entropy_uniform_is_log_c(self):
        for c in (2, 3, 5):
            t = Tensor(np.zeros((1, c)))
            loss = softmax_cross_entropy(t, np.array([0]))
            np.testing.assert_allclose(loss.item(), np.log(c), atol=1e-12)


class TestAttackSetFunctionProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_objective_monotone_with_keep(self, seed):
        # with choice 0 = keep always available, f is monotone regardless
        # of the objective (Claim 1's proof needs nothing else)
        from repro.submodular.checks import check_monotone_exhaustive
        from repro.submodular.set_function import AttackSetFunction

        rng = np.random.default_rng(seed)
        table = rng.normal(size=(4, 3))  # value per (position, choice)

        def objective(l):
            return float(sum(table[i, li] for i, li in enumerate(l)))

        f = AttackSetFunction(objective, [3, 3, 3, 3])
        assert check_monotone_exhaustive(f) is None
