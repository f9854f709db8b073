"""Quickstart: train a classifier, attack one review, inspect the result.

Runs in well under a minute on a laptop CPU.  Demonstrates the core public
API: synthetic corpora, the WCNN victim, candidate generation with WMD/LM
filters, and the paper's joint sentence+word paraphrasing attack (Alg. 1).

Usage::

    python examples/quickstart.py
"""

from repro.attacks import ParaphraseConfig, SentenceParaphraser, WordParaphraser, build_attack
from repro.data import CorpusConfig, make_sentiment_corpus, sentiment_lexicon
from repro.models import WCNN, TrainConfig, evaluate, fit
from repro.text import (
    NGramLM,
    Vocabulary,
    detokenize,
    embedding_matrix_for_vocab,
    synonym_clustered_embeddings,
)


def main() -> None:
    # 1. A Yelp-style sentiment corpus (synthetic; see DESIGN.md).
    dataset = make_sentiment_corpus(CorpusConfig(n_train=300, n_test=100, canonical_prob=0.9, seed=100))
    print(f"dataset: {dataset}")

    # 2. Vocabulary + synonym-clustered "pretrained" embeddings.
    vocab = Vocabulary.build(dataset.documents("train"))
    lexicon = sentiment_lexicon()
    vectors = synonym_clustered_embeddings(
        lexicon.word_cluster_lists(), extra_words=lexicon.function_words,
        dim=32, cluster_radius=0.6,
    )
    embeddings = embedding_matrix_for_vocab(vocab, vectors)

    # 3. Train the WCNN victim (Kim 2014 style).
    model = WCNN(vocab, max_len=72, pretrained_embeddings=embeddings, seed=0)
    fit(model, dataset.train, TrainConfig(epochs=8, seed=0))
    print(f"clean test accuracy: {evaluate(model, dataset.test):.1%}")

    # 4. Candidate generation with the paper's semantic + syntactic filters.
    lm = NGramLM(order=3).fit(dataset.documents("train"))
    config = ParaphraseConfig(k=15, delta_w=0.45, delta_s=0.4, delta_lm=7.5)
    word_paraphraser = WordParaphraser(lexicon, vectors, lm=lm, config=config)
    sentence_paraphraser = SentenceParaphraser(lexicon, vectors, config=config)

    # 5. The joint attack (Algorithm 1): sentence stage then word stage.
    attack = build_attack(
        "joint",
        model,
        word_paraphraser=word_paraphraser,
        sentence_paraphraser=sentence_paraphraser,
        word_budget_ratio=0.2,
        sentence_budget_ratio=0.2,
        tau=0.7,
    )

    # 6. Attack the first correctly-classified review.
    docs = dataset.documents("test")
    labels = dataset.labels("test")
    preds = model.predict(docs)
    idx = next(i for i in range(len(docs)) if preds[i] == labels[i])
    doc, label = docs[idx], int(labels[idx])
    result = attack.attack(doc, target_label=1 - label)

    names = dataset.class_names
    print(f"\noriginal  ({names[label]}, P[{names[1 - label]}]={result.original_prob:.2f}):")
    print(" ", detokenize(result.original))
    print(f"\nadversarial (P[{names[1 - label]}]={result.adversarial_prob:.2f}, "
          f"success={result.success}, {result.n_word_changes} words changed, "
          f"{result.n_sentence_changes} sentences paraphrased):")
    print(" ", detokenize(result.adversarial))
    print(f"\nmodel queries: {result.n_queries}, wall time: {result.wall_time:.2f}s")


if __name__ == "__main__":
    main()
