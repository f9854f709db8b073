"""Ablation: lazy (Minoux/CELF) greedy vs naive greedy.

Two levels:

1. On Theorem-1 WCNN attack set functions, where submodularity holds
   exactly: identical solutions, fewer underlying evaluations.
2. On the real objective-greedy word attack (``strategy="lazy"``), where
   submodularity only holds empirically: comparable attack quality, far
   fewer paid model forwards.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.models.theory_models import SimplifiedWCNN
from repro.submodular import (
    greedy_maximize,
    lazy_greedy_maximize,
    make_output_increasing_candidates_wcnn,
    wcnn_attack_set_function,
)


def test_lazy_vs_naive_greedy(benchmark):
    def run():
        rows = []
        for seed in range(6):
            model = SimplifiedWCNN.random_instance(num_filters=4, dim=3, seed=seed)
            v = np.random.default_rng(seed + 50).normal(size=(10, 3))
            cands = make_output_increasing_candidates_wcnn(model, v, k=2, seed=seed)
            f = wcnn_attack_set_function(model, v, cands)
            naive = greedy_maximize(f, 4)
            lazy = lazy_greedy_maximize(f, 4)
            rows.append((seed, naive.value, lazy.value, naive.n_evaluations, lazy.n_evaluations))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: lazy vs naive greedy (Thm-1 instances, n=10, budget=4) ===")
    for seed, nv, lv, ne, le in rows:
        print(f"  seed={seed}: value naive={nv:.4f} lazy={lv:.4f} | evals naive={ne} lazy={le}")
        np.testing.assert_allclose(nv, lv, rtol=1e-12)
        assert le <= ne
    total_saved = sum(r[3] - r[4] for r in rows)
    assert total_saved > 0, "lazy greedy should save evaluations overall"


def test_lazy_strategy_on_word_attack(benchmark, ctx):
    def run():
        model = ctx.model("news", "wcnn")
        docs = ctx.dataset("news").documents("test")[:10]
        targets = [1 - int(label) for label in model.predict(docs)]
        rows = []
        for strategy in ("scan", "lazy"):
            attack = build_attack(
                "greedy_word",
                model,
                word_paraphraser=ctx.word_paraphraser("news"),
                strategy=strategy,
            )
            results = [attack.attack(d, t) for d, t in zip(docs, targets)]
            rows.append(
                (
                    strategy,
                    sum(r.n_queries for r in results),
                    float(np.mean([r.adversarial_prob for r in results])),
                    sum(r.success for r in results),
                )
            )
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: scan vs lazy objective-greedy word attack (news/wcnn) ===")
    for strategy, queries, adv_prob, wins in rows:
        print(f"  {strategy}: forwards={queries} mean_adv_prob={adv_prob:.3f} wins={wins}")
    (_, q_scan, _, wins_scan), (_, q_lazy, _, wins_lazy) = rows
    assert q_lazy < q_scan, "lazy strategy should pay fewer model forwards"
    assert wins_lazy >= wins_scan - 1, "lazy strategy should not cost attack success"
