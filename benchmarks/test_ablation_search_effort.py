"""Ablation: the search-effort ladder.

Orders the optimizers by search effort — random, one-shot gradient,
gradient-guided greedy (Alg. 3), objective-guided greedy [19], width-3
beam search — and measures success rate vs model queries on one victim.
Quantifies how much attack success each extra rung of search effort buys
(and what the paper's efficient middle rungs leave on the table).
"""


from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.eval.metrics import evaluate_attack

_LADDER = ("random", "gradient", "gradient-guided", "objective-greedy", "beam-3")


def test_search_effort_ladder(ctx, benchmark):
    def run():
        dataset = "trec07p"
        model = ctx.model(dataset, "wcnn")
        test = ctx.dataset(dataset).test
        wp = ctx.word_paraphraser(dataset)
        tau = ctx.settings.tau
        attacks = {
            "random": build_attack("random_word", model, word_paraphraser=wp),
            "gradient": build_attack("gradient_word", model, word_paraphraser=wp),
            "gradient-guided": build_attack("gradient_guided", model, word_paraphraser=wp, tau=tau),
            "objective-greedy": build_attack("greedy_word", model, word_paraphraser=wp, tau=tau),
            "beam-3": build_attack("beam_word", model, word_paraphraser=wp, tau=tau, beam_width=3),
        }
        rows = []
        for name in _LADDER:
            ev = evaluate_attack(model, attacks[name], test, max_examples=25)
            rows.append((name, ev.success_rate, ev.mean_queries))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Ablation: search-effort ladder (trec07p, WCNN, lam_w=20%) ===")
    for name, sr, q in rows:
        print(f"  {name:16s} SR={sr:6.1%}  queries/doc={q:.0f}")

    by = {name: sr for name, sr, _ in rows}
    # success rate is (weakly) monotone up the ladder's anchor points
    assert by["random"] <= by["objective-greedy"] + 0.05
    assert by["gradient"] <= by["beam-3"] + 0.05
    assert by["beam-3"] >= by["objective-greedy"] - 0.05
