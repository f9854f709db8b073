"""Extension study: randomized synonym smoothing as an inference defense.

Compares the undefended WCNN against the smoothed wrapper under the same
score-based attack (objective-guided greedy, the only applicable attack —
smoothing blocks gradients): clean accuracy cost vs robustness gain.
"""

from benchmarks.conftest import run_once
from repro.attacks import build_attack
from repro.defense import SmoothedClassifier
from repro.eval.metrics import evaluate_attack


def test_smoothing_defense(ctx, benchmark):
    def run():
        rows = []
        for dataset in ("trec07p", "yelp"):
            model = ctx.model(dataset, "wcnn")
            lexicon = ctx.lexicon(dataset)
            wp = ctx.word_paraphraser(dataset)
            test = ctx.dataset(dataset).test
            smoothed = SmoothedClassifier(model, lexicon, n_samples=9, substitution_prob=0.3)
            for name, victim in (("undefended", model), ("smoothed", smoothed)):
                attack = build_attack(
                    "greedy_word", victim, word_paraphraser=wp, tau=ctx.settings.tau
                )
                ev = evaluate_attack(victim, attack, test, max_examples=25)
                rows.append((dataset, name, ev.clean_accuracy, ev.success_rate))
        return rows

    rows = run_once(benchmark, run)
    print("\n=== Extension: randomized synonym smoothing ===")
    for dataset, name, clean, sr in rows:
        print(f"  {dataset:8s} {name:11s} clean={clean:6.1%}  attack SR={sr:6.1%}")

    by = {(d, n): (c, s) for d, n, c, s in rows}
    for dataset in ("trec07p", "yelp"):
        clean_u, sr_u = by[(dataset, "undefended")]
        clean_s, sr_s = by[(dataset, "smoothed")]
        assert clean_s >= clean_u - 0.15  # modest clean-accuracy cost
        assert sr_s <= sr_u + 0.05  # and no free lunch for the attacker
