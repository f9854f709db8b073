"""Ablation: neighbor-set size k (Alg. 1's paraphrase cap).

The paper fixes k = 15 candidates per word.  This bench sweeps k and
measures attack success: richer candidate sets give the search more
directions, with diminishing returns once every useful synonym is
included (our clusters hold ≤ 6 synonyms, so k beyond that is free).
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.attacks import ParaphraseConfig, WordParaphraser, build_attack
from repro.eval.metrics import evaluate_attack


def test_neighbor_set_size_ablation(ctx, benchmark):
    def run():
        rows = []
        for dataset in ("trec07p", "yelp"):
            model = ctx.model(dataset, "wcnn")
            test = ctx.dataset(dataset).test
            base_cfg = ctx.paraphrase_config(dataset)
            for k in (1, 2, 4, 15):
                cfg = ParaphraseConfig(
                    k=k,
                    delta_w=base_cfg.delta_w,
                    delta_s=base_cfg.delta_s,
                    delta_lm=base_cfg.delta_lm,
                    seed=base_cfg.seed,
                )
                wp = WordParaphraser(
                    ctx.lexicon(dataset),
                    ctx.vectors(dataset),
                    lm=ctx.language_model(dataset),
                    config=cfg,
                )
                attack = build_attack(
                    "greedy_word", model, word_paraphraser=wp, tau=ctx.settings.tau
                )
                ev = evaluate_attack(model, attack, test, max_examples=25)
                rows.append((dataset, k, ev.success_rate, ev.mean_queries))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: neighbor-set size k ===")
    for dataset, k, sr, q in rows:
        print(f"  {dataset:8s} k={k:2d}  SR={sr:6.1%}  queries/doc={q:.0f}")

    def mean_sr(k):
        return float(np.mean([sr for _, kk, sr, _ in rows if kk == k]))

    # more candidates never hurt much, and k=1 is clearly weaker than k=15
    assert mean_sr(15) >= mean_sr(1)
    assert mean_sr(15) >= mean_sr(4) - 0.05
