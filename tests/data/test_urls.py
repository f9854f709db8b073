"""Tests for the URL domain (Table 1 generality)."""

import pytest

from repro.data.urls import (
    UrlCharCandidates,
    UrlCorpusConfig,
    make_url_corpus,
    tokens_to_url,
    url_to_tokens,
)


class TestTokenization:
    def test_roundtrip(self):
        url = "paypa1-login.xyz/verify?id=42"
        assert tokens_to_url(url_to_tokens(url)) == url

    def test_tokens_are_chars(self):
        assert url_to_tokens("ab.c") == ["a", "b", ".", "c"]


class TestCorpus:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            UrlCorpusConfig(squat_prob=2.0)

    def test_balanced_and_sized(self):
        ds = make_url_corpus(UrlCorpusConfig(n_train=60, n_test=20, seed=1))
        assert len(ds.train) == 60 and len(ds.test) == 20
        assert ds.labels("train").mean() == 0.5

    def test_deterministic(self):
        a = make_url_corpus(UrlCorpusConfig(n_train=20, n_test=4, seed=5))
        b = make_url_corpus(UrlCorpusConfig(n_train=20, n_test=4, seed=5))
        assert a.documents("train") == b.documents("train")

    def test_malicious_urls_have_phishing_signals(self):
        ds = make_url_corpus(UrlCorpusConfig(n_train=40, n_test=4, seed=2))
        for ex in ds.train:
            url = tokens_to_url(list(ex.tokens))
            if ex.label == 1:
                assert any(tld in url for tld in (".xyz", ".top", ".click", ".info", ".live"))
                assert "?id=" in url
            else:
                assert any(tld in url for tld in (".com", ".org", ".edu", ".gov"))

    def test_squat_prob_zero_keeps_brands_clean(self):
        ds = make_url_corpus(UrlCorpusConfig(n_train=40, n_test=4, squat_prob=0.0, seed=3))
        for ex in ds.train:
            if ex.label == 1:
                host = tokens_to_url(list(ex.tokens)).split("-")[0]
                assert not any(ch.isdigit() for ch in host)


class TestUrlCharCandidates:
    def test_protected_chars_untouched(self):
        gen = UrlCharCandidates()
        for ch in "/?.=-&":
            assert gen.candidates_for_char(ch) == []

    def test_homoglyph_toggles(self):
        gen = UrlCharCandidates()
        assert gen.candidates_for_char("1") == ["i"]
        assert gen.candidates_for_char("o") == ["0"]

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            UrlCharCandidates(max_candidates=0)

    def test_neighbor_sets(self):
        gen = UrlCharCandidates()
        ns = gen.neighbor_sets(url_to_tokens("pay.xyz"))
        assert 0 not in ns.attackable_positions  # 'p' has no pair
        assert 1 in ns.attackable_positions  # 'a' -> '4'


class TestUrlClassifierAndAttack:
    """End-to-end: char-WCNN detector + framework attack, new domain."""

    @pytest.fixture(scope="class")
    def url_setup(self):
        from repro.models import WCNN, TrainConfig, fit
        from repro.text import Vocabulary

        ds = make_url_corpus(UrlCorpusConfig(n_train=300, n_test=80, seed=0))
        vocab = Vocabulary.build(ds.documents("train"))
        model = WCNN(vocab, max_len=48, embedding_dim=12, num_filters=32, seed=0)
        fit(model, ds.train, TrainConfig(epochs=8, seed=0))
        return ds, model

    def test_detector_accuracy(self, url_setup):
        ds, model = url_setup
        assert model.accuracy(ds.documents("test"), ds.labels("test")) >= 0.95

    def test_framework_attack_transfers_to_urls(self, url_setup):
        from repro.attacks import build_attack

        ds, model = url_setup
        attack = build_attack(
            "greedy_word",
            model,
            word_paraphraser=UrlCharCandidates(),
            word_budget_ratio=0.2,
            tau=0.7,
        )
        docs = ds.documents("test")
        labels = ds.labels("test")
        preds = model.predict(docs)
        malicious = [
            i for i in range(len(docs)) if labels[i] == 1 and preds[i] == 1
        ][:15]
        assert malicious
        successes = 0
        for i in malicious:
            result = attack.attack(docs[i], target_label=0)
            assert result.adversarial_prob >= result.original_prob - 1e-9
            successes += result.success
        # homoglyph toggling evades the detector on a meaningful fraction
        assert successes / len(malicious) >= 0.2
