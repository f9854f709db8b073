"""Ablation: joint multi-word moves (N per iteration) in Algorithm 3.

The paper replaces N = 5 words per iteration "to take into consideration
the joint effect of multiple words replacements".  This bench sweeps N and
reports success rate and query cost; N > 1 should cut queries per document
relative to N = 1 (which degenerates to gradient-preselected one-word
greedy) without losing success rate.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.eval.metrics import evaluate_attack


def test_words_per_iteration_ablation(ctx, benchmark):
    def run():
        rows = []
        for dataset in ("trec07p", "yelp"):
            model = ctx.model(dataset, "wcnn")
            test = ctx.dataset(dataset).test
            wp = ctx.word_paraphraser(dataset)
            for n in (1, 3, 5):
                attack = build_attack(
                    "gradient_guided",
                    model,
                    word_paraphraser=wp,
                    word_budget_ratio=0.2,
                    words_per_iteration=n,
                )
                ev = evaluate_attack(model, attack, test, max_examples=30)
                rows.append((dataset, n, ev.success_rate, ev.mean_queries))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: words per iteration (Alg. 3) ===")
    for dataset, n, sr, q in rows:
        print(f"  {dataset:8s} N={n}  SR={sr:6.1%} queries/doc={q:.0f}")

    def agg(n, col):
        return float(np.mean([r[col] for r in rows if r[1] == n]))

    # multi-word moves keep success within noise of one-word moves
    assert agg(5, 2) >= agg(1, 2) - 0.1
