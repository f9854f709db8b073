"""Scenario: two defenses head-to-head.

Compares the paper's adversarial training (Table 5) against the
randomized synonym-smoothing extension on the same victim and attack:
clean accuracy, attack success rate, and what each defense costs.

Usage::

    python examples/defense_comparison.py
"""

from repro.attacks import build_attack
from repro.defense import SmoothedClassifier, adversarial_training
from repro.eval import evaluate_attack, format_percent, format_table
from repro.experiments import ExperimentContext


def main() -> None:
    ctx = ExperimentContext()
    dataset = "trec07p"
    ds = ctx.dataset(dataset)
    wp = ctx.word_paraphraser(dataset)

    def score(victim) -> tuple[float, float]:
        attack = build_attack("greedy_word", victim, word_paraphraser=wp, tau=ctx.settings.tau)
        ev = evaluate_attack(victim, attack, ds.test, max_examples=30)
        return ev.clean_accuracy, ev.success_rate

    # 1. undefended baseline
    base = ctx.model(dataset, "wcnn")
    base_clean, base_sr = score(base)

    # 2. adversarial training (paper, Table 5)
    at = adversarial_training(
        model_factory=lambda: ctx.build_model(dataset, "wcnn"),
        attack_factory=lambda m: build_attack(
            "greedy_word", m, word_paraphraser=wp, tau=ctx.settings.tau
        ),
        dataset=ds,
        train_config=ctx.train_config(),
        augment_fraction=0.2,
        max_eval_examples=30,
    )
    at_clean, at_sr = score(at.model_after)

    # 3. randomized synonym smoothing (extension, inference-time only)
    smoothed = SmoothedClassifier(base, ctx.lexicon(dataset), n_samples=9, substitution_prob=0.3)
    sm_clean, sm_sr = score(smoothed)

    print(
        format_table(
            ["defense", "clean accuracy", "attack success", "cost"],
            [
                ["none", format_percent(base_clean), format_percent(base_sr), "—"],
                [
                    "adversarial training",
                    format_percent(at_clean),
                    format_percent(at_sr),
                    f"retraining + {at.n_augmented} attacked docs",
                ],
                [
                    "synonym smoothing",
                    format_percent(sm_clean),
                    format_percent(sm_sr),
                    "9x inference compute",
                ],
            ],
        )
    )
    print("\nReading: adversarial training hardens the weights; smoothing hardens")
    print("inference. Both cut the attack success rate sharply; smoothing needs")
    print("no retraining but multiplies inference cost.")


if __name__ == "__main__":
    main()
