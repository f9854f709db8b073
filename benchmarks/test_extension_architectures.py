"""Extension study: architectural robustness under identical attacks.

The paper attacks WCNN and LSTM; its framework is architecture-agnostic.
This bench trains four architectures (WCNN, LSTM, GRU, a small
self-attention encoder) on the same corpus with the same embeddings and
subjects them to the identical gradient-guided joint attack, asking which
inductive bias is most robust to paraphrase attacks.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.eval.metrics import evaluate_attack
from repro.models import AttentionClassifier, GRUClassifier, fit
from repro.text import embedding_matrix_for_vocab


def test_architecture_robustness(ctx, benchmark):
    def run():
        dataset = "yelp"
        ds = ctx.dataset(dataset)
        vocab = ctx.vocab(dataset)
        emb = embedding_matrix_for_vocab(vocab, ctx.vectors(dataset), dim=32)
        wp = ctx.word_paraphraser(dataset)

        victims = {
            "wcnn": ctx.model(dataset, "wcnn"),
            "lstm": ctx.model(dataset, "lstm"),
        }
        gru = GRUClassifier(vocab, ctx.settings.max_len, pretrained_embeddings=emb,
                            hidden_dim=ctx.settings.lstm_hidden, seed=0)
        fit(gru, ds.train, ctx.train_config())
        victims["gru"] = gru
        attn = AttentionClassifier(vocab, ctx.settings.max_len, pretrained_embeddings=emb,
                                   num_blocks=2, seed=0)
        fit(attn, ds.train, ctx.train_config())
        victims["attention"] = attn

        rows = []
        for name, model in victims.items():
            attack = build_attack(
                "gradient_guided",
                model,
                word_paraphraser=wp,
                word_budget_ratio=0.2,
                tau=ctx.settings.tau,
            )
            ev = evaluate_attack(model, attack, ds.test, max_examples=30)
            rows.append((name, ev.clean_accuracy, ev.success_rate, ev.mean_word_changes))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Extension: architectural robustness (yelp, Alg. 3, lam_w=20%) ===")
    for name, clean, sr, changes in rows:
        print(f"  {name:10s} clean={clean:6.1%}  attack SR={sr:6.1%}  avg changes={changes:.1f}")
    for name, clean, sr, _ in rows:
        assert clean >= 0.85, name      # all victims are competent
        assert sr <= 1.0
    # every architecture is attackable to some degree
    assert np.mean([sr for _, _, sr, _ in rows]) > 0.1
