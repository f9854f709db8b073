"""Ablation: Algorithm 3's word-selection rule.

Compares the Gauss-Southwell family on the same victims: ``modular``
(first-order realizable gain, our default), ``gs_norm`` (raw gradient norm,
Alg. 3 step 4 as written) and ``random`` (the no-gradient control the
Gauss-Southwell literature compares against).

Shape: gradient-informed selection beats random; the modular refinement is
at least as good as the raw norm.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.eval.metrics import evaluate_attack


def test_selection_rule_ablation(ctx, benchmark):
    def run():
        rows = []
        for dataset in ("news", "trec07p", "yelp"):
            model = ctx.model(dataset, "wcnn")
            test = ctx.dataset(dataset).test
            wp = ctx.word_paraphraser(dataset)
            for selection in ("modular", "gs_norm", "random"):
                attack = build_attack(
                    "gradient_guided",
                    model,
                    word_paraphraser=wp,
                    word_budget_ratio=0.2,
                    selection=selection,
                )
                ev = evaluate_attack(model, attack, test, max_examples=30)
                rows.append((dataset, selection, ev.success_rate, ev.mean_queries))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: Alg. 3 selection rule ===")
    for dataset, selection, sr, q in rows:
        print(f"  {dataset:8s} {selection:8s} SR={sr:6.1%} queries/doc={q:.0f}")

    def mean_sr(selection):
        return float(np.mean([sr for _, s, sr, _ in rows if s == selection]))

    assert mean_sr("modular") >= mean_sr("random") - 0.02
    assert mean_sr("modular") >= mean_sr("gs_norm") - 0.05
