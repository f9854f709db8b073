"""ScoreCache correctness: identity, dedup, and stochastic-scoring invalidation."""

import numpy as np
import pytest

from repro.attacks import AttackEngine, ScoreCache, build_attack, score_key
from repro.text.transformations import apply_word_substitutions


class TestScoreCacheUnit:
    def test_get_put_roundtrip(self):
        cache = ScoreCache()
        key = score_key(["good", "movie"], 1)
        assert cache.get(key) is None
        cache.put(key, 0.25)
        assert cache.get(key) == 0.25
        assert key in cache
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_distinguishes_target_label(self):
        assert score_key(["a"], 0) != score_key(["a"], 1)

    def test_key_is_content_based(self):
        assert score_key(["a", "b"], 1) == score_key(list(("a", "b")), 1)

    def test_clear(self):
        cache = ScoreCache()
        cache.put(score_key(["a"], 0), 0.5)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)


class TestBoundedCache:
    def test_unbounded_by_default(self):
        cache = ScoreCache()
        for i in range(1000):
            cache.put(score_key([str(i)], 0), float(i))
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_eviction_drops_oldest_insertion(self):
        cache = ScoreCache(max_entries=2)
        keys = [score_key([w], 0) for w in ("a", "b", "c")]
        cache.put(keys[0], 0.0)
        cache.put(keys[1], 1.0)
        cache.put(keys[2], 2.0)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None  # oldest went first
        assert cache.get(keys[1]) == 1.0
        assert cache.get(keys[2]) == 2.0

    def test_overwriting_existing_key_does_not_evict(self):
        cache = ScoreCache(max_entries=2)
        key = score_key(["a"], 0)
        cache.put(key, 0.1)
        cache.put(score_key(["b"], 0), 0.2)
        cache.put(key, 0.3)  # full, but the key is already present
        assert len(cache) == 2
        assert cache.evictions == 0
        assert cache.get(key) == 0.3

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ScoreCache(max_entries=0)

    def test_clear_resets_eviction_count(self):
        cache = ScoreCache(max_entries=1)
        cache.put(score_key(["a"], 0), 0.1)
        cache.put(score_key(["b"], 0), 0.2)
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0

    def test_bounded_attack_stays_correct_and_accounts_evictions(
        self, victim, word_paraphraser, attackable_docs
    ):
        """A tiny cache changes accounting, never the attack outcome."""
        doc, target = attackable_docs[0]
        unbounded = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True
        )
        bounded = build_attack(
            "greedy_word",
            victim,
            word_paraphraser=word_paraphraser,
            use_cache=True,
            cache_max_entries=4,
        )
        ru = unbounded.attack(doc, target)
        rb = bounded.attack(doc, target)
        assert rb.adversarial == ru.adversarial
        assert rb.adversarial_prob == ru.adversarial_prob
        assert ru.n_cache_evictions == 0
        assert rb.n_cache_evictions > 0  # tiny bound must have churned
        assert rb.n_queries >= ru.n_queries  # evictions can only cost re-forwards
        # every requested score is either paid or served, bounded or not
        assert rb.n_queries + rb.n_cache_hits == ru.n_queries + ru.n_cache_hits


class TestCachedScoring:
    def test_cached_scores_bitwise_identical(self, victim, word_paraphraser, attackable_docs):
        """The cache must change accounting, never probabilities."""
        doc, target = attackable_docs[0]
        cached = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True
        )
        uncached = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=False
        )
        rc = cached.attack(doc, target)
        ru = uncached.attack(doc, target)
        assert rc.adversarial == ru.adversarial
        assert rc.adversarial_prob == ru.adversarial_prob  # bitwise, not approx
        assert rc.original_prob == ru.original_prob
        assert rc.n_queries <= ru.n_queries
        assert rc.n_queries + rc.n_cache_hits >= ru.n_queries

    def test_repeat_score_is_served_from_cache(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        atk._queries = 0
        atk._cache_hits = 0
        atk._cache = ScoreCache()
        try:
            first = atk._score(doc, target)
            paid = atk._queries
            again = atk._score(doc, target)
        finally:
            atk._cache = None
        assert again == first
        assert atk._queries == paid  # no extra forward
        assert atk._cache_hits == 1

    def test_dedup_within_one_batch(self, victim, word_paraphraser, attackable_docs):
        """Duplicate documents in a single ``_score_batch`` pay one forward."""
        doc, target = attackable_docs[0]
        variant = apply_word_substitutions(list(doc), {0: "<unk>"})
        batch = [list(doc), variant, list(doc), variant, list(doc)]
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        atk._queries = 0
        atk._cache_hits = 0
        atk._cache = ScoreCache()
        try:
            scores = atk._score_batch(batch, target)
        finally:
            atk._cache = None
        assert atk._queries == 2  # two unique documents
        assert atk._cache_hits == 3
        assert scores[0] == scores[2] == scores[4]
        assert scores[1] == scores[3]

    def test_accounting_covers_every_requested_score(
        self, victim, word_paraphraser, attackable_docs
    ):
        doc, target = attackable_docs[1]
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        result = atk.attack(doc, target)
        assert result.n_queries >= 1
        assert result.n_cache_hits >= 0

    def test_no_caching_without_opt_in(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        atk = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=False
        )
        result = atk.attack(doc, target)
        assert result.n_cache_hits == 0


class TestCacheInvalidation:
    def test_inference_dropout_disables_cache(self, victim, word_paraphraser, attackable_docs):
        """Bayesian-dropout scores are stochastic and must never be memoized."""
        doc, target = attackable_docs[0]
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        assert atk._caching_allowed()
        victim.inference_dropout = 0.3
        try:
            assert not atk._caching_allowed()
            result = atk.attack(doc, target)
        finally:
            victim.inference_dropout = 0.0
        assert result.n_cache_hits == 0

    def test_training_mode_disables_cache(self, victim, word_paraphraser):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        victim.train()
        try:
            assert not atk._caching_allowed()
        finally:
            victim.eval()
        assert atk._caching_allowed()

    def test_wrapper_without_flags_still_caches(self, word_paraphraser):
        """Duck typing: objects lacking training/inference_dropout count as safe."""

        class Wrapper:
            def predict_proba(self, docs):
                return np.full((len(docs), 2), 0.5)

        atk = AttackEngine.__new__(AttackEngine)
        atk.model = Wrapper()
        atk.use_cache = True
        assert atk._caching_allowed()

    def test_cache_is_cleared_between_calls(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        r1 = atk.attack(doc, target)
        assert atk._cache is None  # no state leaks out of attack()
        r2 = atk.attack(doc, target)
        assert r1.n_queries == r2.n_queries  # second call pays the same forwards
        assert r1.n_cache_hits == r2.n_cache_hits
