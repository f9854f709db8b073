"""Tests for character-level transformations (Remark 2 / HotFlip-style)."""

import pytest

from repro.attacks.charflip import HOMOGLYPHS, CharFlipCandidates
from repro.attacks import build_attack


class TestConstruction:
    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            CharFlipCandidates(min_word_length=1)

    def test_invalid_max_candidates(self):
        with pytest.raises(ValueError):
            CharFlipCandidates(max_candidates=0)

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            CharFlipCandidates(operations=("swap", "teleport"))


class TestOperations:
    def test_swaps_interior_only(self):
        swaps = CharFlipCandidates._swaps("great")
        assert "graet" in swaps  # e<->a interior swap
        # first and last characters never move
        assert all(s[0] == "g" and s[-1] == "t" for s in swaps)

    def test_homoglyphs(self):
        subs = CharFlipCandidates._homoglyphs("slow")
        assert "5low" in subs and "sl0w" in subs

    def test_deletions_keep_ends(self):
        dels = CharFlipCandidates._deletions("spam")
        assert set(dels) == {"sam", "spm"}

    def test_duplications(self):
        dups = CharFlipCandidates._duplications("spam")
        assert "sppam" in dups and "spaam" in dups


class TestCandidates:
    def test_short_words_skipped(self):
        gen = CharFlipCandidates(min_word_length=4)
        assert gen.candidates_for_word("the") == []

    def test_punctuation_skipped(self):
        gen = CharFlipCandidates()
        assert gen.candidates_for_word("....") == []

    def test_skip_words(self):
        gen = CharFlipCandidates(skip_words=("great",))
        assert gen.candidates_for_word("great") == []

    def test_cap_respected(self):
        gen = CharFlipCandidates(max_candidates=3)
        assert len(gen.candidates_for_word("wonderful")) == 3

    def test_no_duplicates_and_never_original(self):
        gen = CharFlipCandidates(max_candidates=50)
        cands = gen.candidates_for_word("terrible")
        assert len(cands) == len(set(cands))
        assert "terrible" not in cands

    def test_restricted_operations(self):
        gen = CharFlipCandidates(operations=("homoglyph",), max_candidates=50)
        cands = gen.candidates_for_word("slow")
        assert cands
        for c in cands:
            assert len(c) == 4  # homoglyphs preserve length
            assert any(ch in HOMOGLYPHS.values() for ch in c)

    def test_neighbor_sets_interface(self):
        gen = CharFlipCandidates()
        ns = gen.neighbor_sets(["the", "service", "was", "terrible", "."])
        assert len(ns) == 5
        assert 1 in ns.attackable_positions and 3 in ns.attackable_positions
        assert 0 not in ns.attackable_positions  # too short


class TestCharFlipAttackIntegration:
    """Character edits map words to <unk>, the classic OOV evasion."""

    def test_charflip_attack_reduces_confidence(self, victim, attackable_docs):
        gen = CharFlipCandidates(min_word_length=4, max_candidates=6)
        attack = build_attack("greedy_word", victim, word_paraphraser=gen, word_budget_ratio=0.2)
        gains = []
        for doc, target in attackable_docs[:6]:
            result = attack.attack(doc, target)
            gains.append(result.prob_gain)
        # knocking signal words out-of-vocabulary should help on most docs
        assert sum(g > 0 for g in gains) >= len(gains) // 2

    def test_edited_words_leave_vocabulary(self, victim):
        gen = CharFlipCandidates(operations=("homoglyph",))
        cands = gen.candidates_for_word("terrible")
        for c in cands:
            assert victim.vocab.id(c) == victim.vocab.unk_id
