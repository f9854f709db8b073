"""The attacks that predated the engine refactor's instrumentation —
charflip-greedy, random, and pure-gradient — now emit full traces with the
exact reconciliation contract, because every attack routes through the one
``AttackEngine`` choke point.
"""

import pytest

from repro.attacks import build_attack
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PhaseProfiler
from repro.obs.trace import TraceRecorder, iter_trace_files, read_trace


def _attacks(victim, word_paraphraser):
    return {
        "charflip": build_attack("charflip_greedy", victim),
        "random": build_attack(
            "random_word", victim, word_paraphraser=word_paraphraser, word_budget_ratio=0.3, seed=3
        ),
        "gradient": build_attack("gradient_word", victim, word_paraphraser=word_paraphraser),
    }


@pytest.mark.parametrize("kind", ["charflip", "random", "gradient"])
def test_previously_uninstrumented_attacks_reconcile(
    kind, victim, word_paraphraser, attackable_docs, tmp_path
):
    doc, target = attackable_docs[0]
    attack = _attacks(victim, word_paraphraser)[kind]
    attack.tracer = TraceRecorder(tmp_path)
    result = attack.attack(doc, target)

    (path,) = list(iter_trace_files(tmp_path))
    events = read_trace(path)
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "attack_start"
    assert kinds[-1] == "attack_end"
    end = events[-1]
    paid = sum(e["n_forwards"] for e in events if e["kind"] == "forward")
    assert paid == end["n_queries"] == result.n_queries
    assert result.n_queries >= 1  # at least the original-prob score


def test_gradient_attack_traces_gradient_ops(victim, word_paraphraser, attackable_docs, tmp_path):
    doc, target = attackable_docs[0]
    attack = build_attack("gradient_word", victim, word_paraphraser=word_paraphraser, iterations=2)
    attack.tracer = TraceRecorder(tmp_path)
    result = attack.attack(doc, target)
    (path,) = list(iter_trace_files(tmp_path))
    events = read_trace(path)
    grads = [e for e in events if e["kind"] == "forward" and e.get("op") == "gradient"]
    assert 1 <= len(grads) <= 2
    assert result.n_queries == 1 + len(grads)  # original score + gradient passes


@pytest.mark.parametrize("kind", ["charflip", "random", "gradient"])
def test_previously_uninstrumented_attacks_record_spans(
    kind, victim, word_paraphraser, attackable_docs
):
    doc, target = attackable_docs[0]
    attack = _attacks(victim, word_paraphraser)[kind]
    registry = MetricsRegistry()
    attack.set_profiler(PhaseProfiler(registry=registry))
    attack.attack(doc, target)
    spans = [name for name in registry.counters if name.startswith("phase/")]
    assert any("candidate-gen" in name for name in spans)
    assert any("forward" in name for name in spans)
