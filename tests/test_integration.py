"""Cross-module integration tests: the full pipelines of the paper.

These exercise realistic end-to-end flows (generate → embed → train →
attack → evaluate / defend) and the two Proposition-2 embedding cases on
real models, complementing the per-module unit tests.
"""

import numpy as np

from repro.attacks import build_attack
from repro.text.transformations import apply_word_substitutions
from repro.eval.metrics import evaluate_attack
from repro.models.bow import BowClassifier
from repro.submodular.modular import modular_relaxation_bow
from repro.text import Vocabulary


class TestProposition2BowAttack:
    """Prop. 2's bag-of-words case drives a working attack on a BoW model."""

    def test_modular_bow_attack_increases_target_probability(
        self, atk_corpus, word_paraphraser
    ):
        vocab = Vocabulary.build(atk_corpus.documents("train"))
        bow = BowClassifier(vocab, seed=0).fit(
            atk_corpus.documents("train"), atk_corpus.labels("train"), epochs=150, lr=0.1
        )
        improved = 0
        attempted = 0
        for ex in atk_corpus.test[:10]:
            doc = list(ex.tokens)
            target = 1 - ex.label
            base = float(bow.predict_proba([doc])[0, target])
            gradient = bow.feature_gradient(doc, target)
            ns = word_paraphraser.neighbor_sets(doc)
            original_ids = [vocab.id(w) for w in doc]
            candidate_ids = [[vocab.id(c) for c in ns[i]] for i in range(len(doc))]
            relaxation = modular_relaxation_bow(original_ids, candidate_ids, gradient)
            chosen, l = relaxation.solve(budget=max(1, len(doc) // 5))
            if not chosen:
                continue
            attempted += 1
            substitutions = {i: ns[i][l[i] - 1] for i in chosen}
            adv = apply_word_substitutions(doc, substitutions)
            after = float(bow.predict_proba([adv])[0, target])
            improved += after > base
        assert attempted >= 5
        assert improved / attempted > 0.7  # first-order steps mostly help

    def test_feature_gradient_matches_numerical(self, atk_corpus):
        vocab = Vocabulary.build(atk_corpus.documents("train"))
        bow = BowClassifier(vocab, seed=0).fit(
            atk_corpus.documents("train")[:50], atk_corpus.labels("train")[:50], epochs=30
        )
        doc = atk_corpus.documents("test")[0][:10]
        grad = bow.feature_gradient(doc, 1)
        feats = bow.featurize([doc])
        eps = 1e-6
        for idx in np.flatnonzero(feats[0])[:5]:
            hi, lo = feats.copy(), feats.copy()
            hi[0, idx] += eps
            lo[0, idx] -= eps
            from repro.nn.functional import softmax

            num = (
                softmax(bow.forward(hi), axis=-1).data[0, 1]
                - softmax(bow.forward(lo), axis=-1).data[0, 1]
            ) / (2 * eps)
            np.testing.assert_allclose(grad[idx], num, atol=1e-6)


class TestEndToEndPipeline:
    """Generate → train → attack → adversarially retrain, in one flow."""

    def test_attack_then_augment_then_improve(self, victim, atk_corpus, word_paraphraser,
                                              sentence_paraphraser):
        attack = build_attack(
            "joint",
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.4,
        )
        ev = evaluate_attack(victim, attack, atk_corpus.test, max_examples=16)
        assert ev.clean_accuracy > 0.8
        assert ev.adversarial_accuracy <= ev.clean_accuracy

        # adversarial examples keep their corrected labels and can be
        # merged into a training set without touching the original
        augmented = atk_corpus.with_extra_train(ev.adversarial_examples)
        assert len(augmented.train) == len(atk_corpus.train) + len(ev.adversarial_examples)

    def test_attack_results_consistent_with_model(self, victim, atk_corpus, word_paraphraser,
                                                  sentence_paraphraser):
        attack = build_attack(
            "joint",
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            sentence_budget_ratio=0.4,
        )
        ev = evaluate_attack(victim, attack, atk_corpus.test, max_examples=8)
        for r in ev.results:
            prob = victim.target_probability(r.adversarial, r.target_label)
            np.testing.assert_allclose(prob, r.adversarial_prob, atol=1e-9)
            assert r.success == (prob > 0.5) or abs(prob - 0.5) < 1e-9
