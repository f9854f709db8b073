"""Generate the golden attack-parity fixtures.

Run from the repo root::

    PYTHONPATH=src python -m tests.attacks.make_golden

Writes one JSON file per registry attack under ``tests/attacks/golden/``,
containing the normalized ``AttackResult.to_dict()`` payloads for the first
``N_GOLDEN_DOCS`` attackable fixture documents, attacked through
``ParallelAttackRunner`` (1 worker) so the per-document reseeding path is
the one the parity test exercises.

The fixtures were frozen from the pre-refactor attack classes; rerunning
this script against the registry-built engines must reproduce the committed
files byte for byte.
"""

from __future__ import annotations

import json

from repro.attacks import build_attack
from repro.eval.parallel import ParallelAttackRunner

from tests.attacks.golden_setup import (
    BASE_SEED,
    GOLDEN_CASES,
    GOLDEN_DIR,
    fixture_bundle,
    golden_docs,
    normalize,
)


def main() -> None:
    victim, wp, sp, attackable = fixture_bundle()
    docs, targets = golden_docs(attackable)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(GOLDEN_CASES):
        attack = build_attack(
            name, victim, word_paraphraser=wp, sentence_paraphraser=sp, **GOLDEN_CASES[name]
        )
        runner = ParallelAttackRunner(attack, n_workers=1, base_seed=BASE_SEED)
        results = runner.run(docs, targets)
        payloads = [normalize(r.to_dict()) for r in results]
        path = GOLDEN_DIR / f"{name}.json"
        with open(path, "w") as fh:
            json.dump({"attack": name, "results": payloads}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        n_q = sum(p["n_queries"] for p in payloads)
        n_s = sum(p["success"] for p in payloads)
        print(f"{name:<18} {len(payloads)} docs  {n_q:>5} queries  {n_s} successes")


if __name__ == "__main__":
    main()
