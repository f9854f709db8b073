"""Scenario: the framework beyond text — malicious-URL evasion (Table 1).

The paper's Table 1 lists URL addresses / malicious-website checking as an
application of the same discrete-attack framework.  This example trains a
character-level WCNN phishing detector and evades it with the *unchanged*
objective-guided greedy attack, using function-preserving character
homoglyph substitutions as the transformation family.

Usage::

    python examples/malicious_url_attack.py
"""

from repro.attacks import build_attack
from repro.data.urls import UrlCharCandidates, UrlCorpusConfig, make_url_corpus, tokens_to_url
from repro.models import WCNN, TrainConfig, evaluate, fit
from repro.text import Vocabulary


def main() -> None:
    dataset = make_url_corpus(UrlCorpusConfig(n_train=400, n_test=120, seed=0))
    vocab = Vocabulary.build(dataset.documents("train"))
    model = WCNN(vocab, max_len=48, embedding_dim=12, num_filters=32, seed=0)
    fit(model, dataset.train, TrainConfig(epochs=8, seed=0))
    print(f"phishing detector accuracy: {evaluate(model, dataset.test):.1%}\n")

    attack = build_attack(
        "greedy_word", model, word_paraphraser=UrlCharCandidates(), word_budget_ratio=0.2, tau=0.7
    )
    docs = dataset.documents("test")
    labels = dataset.labels("test")
    preds = model.predict(docs)
    shown = 0
    for i in range(len(docs)):
        if shown >= 4 or labels[i] != 1 or preds[i] != 1:
            continue
        result = attack.attack(docs[i], target_label=0)
        if not result.success:
            continue
        shown += 1
        print(f"detected phish ({result.original_prob:.0%} benign before attack):")
        print(f"  {tokens_to_url(result.original)}")
        print(f"evades as ({result.adversarial_prob:.0%} benign, "
              f"{result.n_word_changes} characters changed):")
        print(f"  {tokens_to_url(result.adversarial)}\n")
    if shown == 0:
        print("no successful evasions in this sample — try a larger budget")


if __name__ == "__main__":
    main()
