"""Benchmark: Table 1 generality — the framework on the URL domain.

Trains a character-level phishing detector and attacks it with the same
objective-guided greedy machinery used for text, with homoglyph character
substitutions as the transformation family.  The paper's claim: the
discrete-attack formulation is not text-specific.
"""

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.data.urls import UrlCharCandidates, UrlCorpusConfig, make_url_corpus
from repro.eval.metrics import evaluate_attack
from repro.models import WCNN, TrainConfig, fit
from repro.text import Vocabulary


def test_url_domain_end_to_end(benchmark):
    def run():
        dataset = make_url_corpus(UrlCorpusConfig(n_train=400, n_test=120, seed=0))
        vocab = Vocabulary.build(dataset.documents("train"))
        model = WCNN(vocab, max_len=48, embedding_dim=12, num_filters=32, seed=0)
        fit(model, dataset.train, TrainConfig(epochs=8, seed=0))
        attack = build_attack(
            "greedy_word",
            model,
            word_paraphraser=UrlCharCandidates(),
            word_budget_ratio=0.3,
            tau=0.7,
        )
        malicious = [ex for ex in dataset.test if ex.label == 1]
        ev = evaluate_attack(model, attack, malicious, max_examples=30)
        return ev

    ev = run_once(benchmark, run)
    print("\n=== Table 1 generality: malicious-URL domain ===")
    print(f"  detector accuracy on malicious URLs: {ev.clean_accuracy:.1%}")
    print(f"  evasion success rate (homoglyph substitutions): {ev.success_rate:.1%}")
    print(f"  mean characters changed: {ev.mean_word_changes:.1f}")
    assert ev.clean_accuracy >= 0.9
    assert ev.success_rate >= 0.2
