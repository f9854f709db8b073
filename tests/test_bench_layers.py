"""The benchmark's traced mode still finds the entry points it wraps.

``bench/layers.py`` times the program from outside: it patches entry
points such as ``Attack.attack``, ``AttackEngine._score_batch`` and
``DeltaScoreFn.__call__``, and reads the delta work counters off every
``DeltaScoreFn`` it sees.  ``bench/test_bench.py`` checks that logic with
fakes only, so this test runs the real wrapping around a small
delta-scored ``evaluate_attack``.  A refactor that renames an entry point,
or stops scoring through ``DeltaScoreFn.__call__``, then fails here rather
than in ``python3 bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.attacks import build_attack
from repro.data.datasets import Example
from repro.eval.metrics import evaluate_attack

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    """``bench/layers.py`` as a private module, leaving ``sys.modules`` alone."""
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_delta_run_reports_delta_work(victim, word_paraphraser, attackable_docs):
    layers = _load_layers()
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    patched = list(patches)
    attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
    # correctly classified documents, attacked toward the flip of their label
    examples = [Example(tuple(doc), 1 - target) for doc, target in attackable_docs[:2]]
    try:
        tracer.enter(layers.ROOT)
        # serial, as the benchmark's delta workload runs: pool workers
        # would score outside this process's tracer
        evaluation = evaluate_attack(
            victim, attack, examples, seed=0, n_workers=1, delta_scoring=True
        )
        tracer.exit()
    finally:
        layers.uninstall(patches)
    for owner, attr, original in patched:
        # each wrapped entry point is defined where the benchmark wraps it
        assert original is not None, f"{owner!r}.{attr}"
        assert vars(owner)[attr] is original, f"{owner!r}.{attr}"
    assert evaluation.n_attacked == 2
    _, start, end, _, _ = tracer.spans[0]
    metrics = layers.layer_metrics(tracer, end - start)
    assert metrics["nn.delta.candidates"] > 0
    assert metrics["nn.delta.forward_reduction"] > 1
