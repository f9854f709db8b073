"""Tests for the attack algorithms (Alg. 1-3 and baselines)."""

import numpy as np
import pytest

from repro.attacks import build_attack, count_word_changes
from repro.attacks.base import AttackResult


class TestAttackResultHelpers:
    def test_count_word_changes_equal_length(self):
        assert count_word_changes(["a", "b", "c"], ["a", "x", "c"]) == 1

    def test_count_word_changes_length_difference(self):
        assert count_word_changes(["a", "b"], ["a", "b", "c", "d"]) == 2

    def test_count_word_changes_both(self):
        assert count_word_changes(["a", "b"], ["x", "b", "c"]) == 2

    def test_count_word_changes_shifted_paraphrase(self):
        # inserting one word early must not charge every shifted token
        original = "the movie was great and i loved it".split()
        adversarial = ["honestly"] + original
        assert count_word_changes(original, adversarial) == 1

    def test_count_word_changes_phrase_replacement(self):
        # a 1→2 word rewrite costs the larger side, nothing downstream
        original = "it was very good overall in my view".split()
        adversarial = "it was really quite good overall in my view".split()
        assert count_word_changes(original, adversarial) == 2

    def test_prob_gain(self):
        r = AttackResult(["a"], ["b"], 1, 0.2, 0.6, True)
        assert r.prob_gain == pytest.approx(0.4)


class TestAttackValidation:
    def test_empty_doc_rejected(self, victim, word_paraphraser):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        with pytest.raises(ValueError):
            atk.attack([], 1)

    def test_bad_target_rejected(self, victim, word_paraphraser):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        with pytest.raises(ValueError):
            atk.attack(["a"], 2)

    def test_bad_budget_ratio(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack(
                "greedy_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=1.5
            )
        with pytest.raises(ValueError):
            build_attack(
                "gradient_guided", victim, word_paraphraser=word_paraphraser, word_budget_ratio=-0.1
            )

    def test_bad_tau(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, tau=0.0)

    def test_bad_selection(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack(
                "gradient_guided", victim, word_paraphraser=word_paraphraser, selection="psychic"
            )

    def test_bad_words_per_iteration(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack(
                "gradient_guided", victim, word_paraphraser=word_paraphraser, words_per_iteration=0
            )

    def test_gradient_iterations(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            build_attack("gradient_word", victim, word_paraphraser=word_paraphraser, iterations=0)


def _attack_invariants(result: AttackResult, doc, budget_ratio):
    """Shared invariants every attack must satisfy."""
    assert result.original == list(doc)
    assert 0.0 <= result.adversarial_prob <= 1.0
    assert result.n_queries >= 1
    assert result.wall_time >= 0
    # purely word-level attacks must respect the distinct-position budget;
    # sentence paraphrases (joint / sentence attacks) may rewrite several
    # words per sentence without consuming the word budget.
    if "sentence" not in result.stages and len(result.adversarial) == len(doc):
        n_changed = sum(a != b for a, b in zip(doc, result.adversarial))
        assert n_changed <= max(1, int(budget_ratio * len(doc))) + 1


ATTACK_FACTORIES = {
    "objective-greedy": lambda m, wp, sp: build_attack("greedy_word", m, word_paraphraser=wp),
    "objective-greedy-lazy": lambda m, wp, sp: build_attack(
        "greedy_word", m, word_paraphraser=wp, strategy="lazy"
    ),
    "gradient": lambda m, wp, sp: build_attack("gradient_word", m, word_paraphraser=wp),
    "gradient-guided": lambda m, wp, sp: build_attack("gradient_guided", m, word_paraphraser=wp),
    "sentence": lambda m, wp, sp: build_attack(
        "greedy_sentence", m, sentence_paraphraser=sp, sentence_budget_ratio=0.4
    ),
    "sentence-lazy": lambda m, wp, sp: build_attack(
        "greedy_sentence", m, sentence_paraphraser=sp, sentence_budget_ratio=0.4, strategy="lazy"
    ),
    "joint": lambda m, wp, sp: build_attack(
        "joint", m, word_paraphraser=wp, sentence_paraphraser=sp, sentence_budget_ratio=0.4
    ),
    "joint-lazy": lambda m, wp, sp: build_attack(
        "joint_greedy",
        m,
        word_paraphraser=wp,
        sentence_paraphraser=sp,
        sentence_budget_ratio=0.4,
        strategy="lazy",
    ),
    "random": lambda m, wp, sp: build_attack("random_word", m, word_paraphraser=wp),
}


@pytest.mark.parametrize("name", list(ATTACK_FACTORIES))
class TestAllAttacksShared:
    def test_runs_and_respects_invariants(
        self, name, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        atk = ATTACK_FACTORIES[name](victim, word_paraphraser, sentence_paraphraser)
        doc, target = attackable_docs[0]
        result = atk.attack(doc, target)
        _attack_invariants(result, doc, 0.2)

    def test_never_decreases_target_probability(
        self, name, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        if name in ("random", "gradient"):
            pytest.skip("one-shot baselines may decrease the objective")
        atk = ATTACK_FACTORIES[name](victim, word_paraphraser, sentence_paraphraser)
        for doc, target in attackable_docs[:4]:
            result = atk.attack(doc, target)
            assert result.adversarial_prob >= result.original_prob - 1e-9

    def test_success_flag_consistent(
        self, name, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        atk = ATTACK_FACTORIES[name](victim, word_paraphraser, sentence_paraphraser)
        doc, target = attackable_docs[1]
        result = atk.attack(doc, target)
        pred = victim.predict([result.adversarial])[0]
        assert result.success == (pred == target)


class TestGreedyWordAttack:
    def test_improves_objective_on_most_docs(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        gains = [atk.attack(d, t).prob_gain for d, t in attackable_docs]
        assert np.mean([g > 0 for g in gains]) > 0.7

    def test_zero_budget_no_changes(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.0
        )
        doc, target = attackable_docs[0]
        result = atk.attack(doc, target)
        assert result.adversarial == list(doc)

    def test_larger_budget_at_least_as_good(self, victim, word_paraphraser, attackable_docs):
        small = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.05
        )
        large = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3
        )
        doc, target = attackable_docs[2]
        assert large.attack(doc, target).adversarial_prob >= small.attack(doc, target).adversarial_prob - 1e-9


class TestLazyStrategy:
    """CELF (``strategy="lazy"``) vs the full-rescan scan path."""

    def test_invalid_strategy_rejected(self, victim, word_paraphraser, sentence_paraphraser):
        with pytest.raises(ValueError):
            build_attack(
                "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="psychic"
            )
        with pytest.raises(ValueError):
            build_attack(
                "greedy_sentence",
                victim,
                sentence_paraphraser=sentence_paraphraser,
                strategy="psychic",
            )
        for name in ("joint", "joint_greedy"):
            with pytest.raises(ValueError):
                build_attack(
                    name,
                    victim,
                    word_paraphraser=word_paraphraser,
                    sentence_paraphraser=sentence_paraphraser,
                    strategy="psychic",
                )

    def test_lazy_pays_fewer_forwards(self, victim, word_paraphraser, attackable_docs):
        scan = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="scan"
        )
        lazy = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="lazy"
        )
        q_scan = sum(scan.attack(d, t).n_queries for d, t in attackable_docs[:6])
        q_lazy = sum(lazy.attack(d, t).n_queries for d, t in attackable_docs[:6])
        assert q_lazy <= q_scan

    def test_lazy_with_cache_halves_joint_greedy_forwards(
        self, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        def run(strategy, use_cache):
            attack = build_attack(
                "joint_greedy",
                victim,
                word_paraphraser=word_paraphraser,
                sentence_paraphraser=sentence_paraphraser,
                strategy=strategy,
                use_cache=use_cache,
            )
            return [attack.attack(d, t) for d, t in attackable_docs[:6]]

        naive = run("scan", use_cache=False)
        fast = run("lazy", use_cache=True)
        q_naive = sum(r.n_queries for r in naive)
        q_fast = sum(r.n_queries for r in fast)
        assert 2 * q_fast <= q_naive, (q_fast, q_naive)
        assert sum(r.n_cache_hits for r in fast) > 0
        # the fast path must not trade away attack success
        assert sum(r.success for r in fast) >= sum(r.success for r in naive) - 1

    def test_lazy_matches_scan_quality(self, victim, word_paraphraser, attackable_docs):
        scan = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="scan"
        )
        lazy = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="lazy"
        )
        p_scan = np.mean([scan.attack(d, t).adversarial_prob for d, t in attackable_docs[:6]])
        p_lazy = np.mean([lazy.attack(d, t).adversarial_prob for d, t in attackable_docs[:6]])
        assert p_lazy >= p_scan - 0.05

    def test_lazy_never_decreases_objective(self, victim, word_paraphraser, attackable_docs):
        lazy = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="lazy"
        )
        for doc, target in attackable_docs[:4]:
            result = lazy.attack(doc, target)
            assert result.adversarial_prob >= result.original_prob - 1e-9

    def test_lazy_zero_budget_identity(self, victim, word_paraphraser, attackable_docs):
        lazy = build_attack(
            "greedy_word",
            victim,
            word_paraphraser=word_paraphraser,
            word_budget_ratio=0.0,
            strategy="lazy",
        )
        doc, target = attackable_docs[0]
        assert lazy.attack(doc, target).adversarial == list(doc)

    def test_lazy_respects_word_budget(self, victim, word_paraphraser, attackable_docs):
        lazy = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, strategy="lazy"
        )
        doc, target = attackable_docs[0]
        result = lazy.attack(doc, target)
        n_changed = sum(a != b for a, b in zip(doc, result.adversarial))
        assert n_changed <= int(0.2 * len(doc))

    def test_lazy_sentence_budget_respected(self, victim, sentence_paraphraser, attackable_docs):
        from repro.text.sentence import split_sentences

        lazy = build_attack(
            "greedy_sentence",
            victim,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.3,
            strategy="lazy",
        )
        doc, target = attackable_docs[0]
        result = lazy.attack(doc, target)
        n_sentences = len(split_sentences(doc))
        assert result.n_sentence_changes <= max(1, int(round(0.3 * n_sentences)))


class TestGradientGuidedAttack:
    def test_stages_are_word(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack("gradient_guided", victim, word_paraphraser=word_paraphraser)
        doc, target = attackable_docs[0]
        result = atk.attack(doc, target)
        assert set(result.stages) <= {"word"}

    @pytest.mark.parametrize("selection", ["modular", "gs_norm", "random"])
    def test_selection_variants_run(self, selection, victim, word_paraphraser, attackable_docs):
        atk = build_attack(
            "gradient_guided", victim, word_paraphraser=word_paraphraser, selection=selection
        )
        doc, target = attackable_docs[0]
        result = atk.attack(doc, target)
        assert result.adversarial_prob >= result.original_prob - 1e-9

    def test_uses_fewer_queries_than_objective_greedy(
        self, victim, word_paraphraser, attackable_docs
    ):
        ours = build_attack(
            "gradient_guided", victim, word_paraphraser=word_paraphraser, words_per_iteration=3
        )
        greedy = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        q_ours = sum(ours.attack(d, t).n_queries for d, t in attackable_docs)
        q_greedy = sum(greedy.attack(d, t).n_queries for d, t in attackable_docs)
        assert q_ours < q_greedy

    def test_prune_drops_freeloaders(self, victim, word_paraphraser, attackable_docs):
        atk = build_attack("gradient_guided", victim, word_paraphraser=word_paraphraser)
        doc, target = attackable_docs[0]
        subs = {0: doc[0], 1: doc[1]}  # no-op "substitutions" add nothing
        kept = atk.search.prune(atk, subs, list(doc), atk._score(doc, target), target)
        assert len(kept) <= len(subs)


class TestSentenceAttack:
    def test_sentence_budget_respected(self, victim, sentence_paraphraser, attackable_docs):
        atk = build_attack(
            "greedy_sentence",
            victim,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.3,
        )
        doc, target = attackable_docs[0]
        result = atk.attack(doc, target)
        from repro.text.sentence import split_sentences

        n_sentences = len(split_sentences(doc))
        assert result.n_sentence_changes <= max(1, int(round(0.3 * n_sentences)))

    def test_zero_budget_identity(self, victim, sentence_paraphraser, attackable_docs):
        atk = build_attack(
            "greedy_sentence",
            victim,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.0,
        )
        doc, target = attackable_docs[0]
        assert atk.attack(doc, target).adversarial == list(doc)


class TestJointAttack:
    def test_beats_word_only_on_average(
        self, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        word_only = build_attack("gradient_guided", victim, word_paraphraser=word_paraphraser)
        joint = build_attack(
            "joint",
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.6,
        )
        w = np.mean([word_only.attack(d, t).adversarial_prob for d, t in attackable_docs])
        j = np.mean([joint.attack(d, t).adversarial_prob for d, t in attackable_docs])
        assert j >= w - 0.02  # sentence stage adds (or at worst matches)

    def test_query_accounting_resets_between_docs(
        self, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        joint = build_attack(
            "joint",
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.4,
        )
        r1 = joint.attack(*attackable_docs[0])
        r2 = joint.attack(*attackable_docs[0])
        assert r1.n_queries == r2.n_queries  # deterministic & reset correctly

    def test_stage_tags(self, victim, word_paraphraser, sentence_paraphraser, attackable_docs):
        joint = build_attack(
            "joint",
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.6,
        )
        for doc, target in attackable_docs[:4]:
            result = joint.attack(doc, target)
            assert set(result.stages) <= {"sentence", "word"}


class TestRandomAttack:
    def test_reproducible(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        a = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, seed=3
        ).attack(doc, target)
        b = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, seed=3
        ).attack(doc, target)
        assert a.adversarial == b.adversarial

    def test_zero_budget(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        r = build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.0
        ).attack(doc, target)
        assert r.adversarial == list(doc)

    def test_weaker_than_greedy(self, victim, word_paraphraser, attackable_docs):
        rand = build_attack("random_word", victim, word_paraphraser=word_paraphraser)
        greedy = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        r = np.mean([rand.attack(d, t).adversarial_prob for d, t in attackable_docs])
        g = np.mean([greedy.attack(d, t).adversarial_prob for d, t in attackable_docs])
        assert g >= r
