"""Delta scoring end-to-end: attack results never change, only the cost.

The acceptance contract of the incremental delta-scoring layer: with
``delta_scoring`` on, every registry attack reproduces the frozen golden
``AttackResult``\\ s byte-for-byte — serially and under the 2-worker pool
— while the per-candidate forwards are served by :mod:`repro.nn.delta`
instead of full forwards.  Also covered here: ``REPRO_DELTA_SCORING``
resolved by ``evaluate_attack``, recurrent-model (LSTM/GRU) on/off equality, ScoreCache
key unification across the delta and full paths, and the trace/obs
reconciliation with the new ``delta`` forward-event fields.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.attacks import ScoreCache, build_attack
from repro.data.datasets import Example
from repro.eval import metrics
from repro.eval.metrics import evaluate_attack
from repro.eval.parallel import ParallelAttackRunner, fork_available
from repro.experiments.common import ExperimentContext
from repro.models import GRUClassifier, LSTMClassifier
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import iter_trace_files, read_trace, validate_run_dir
from repro.text import Vocabulary

from tests.attacks.golden_setup import (
    BASE_SEED,
    GOLDEN_CASES,
    GOLDEN_DIR,
    golden_docs,
    normalize,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _load_golden(name: str) -> list[dict]:
    with open(GOLDEN_DIR / f"{name}.json") as fh:
        payload = json.load(fh)
    return payload["results"]


def _run_case(
    name,
    victim,
    word_paraphraser,
    sentence_paraphraser,
    attackable_docs,
    n_workers,
    delta_scoring=True,
):
    attack = build_attack(
        name,
        victim,
        word_paraphraser=word_paraphraser,
        sentence_paraphraser=sentence_paraphraser,
        **GOLDEN_CASES[name],
    )
    attack.delta_scoring = delta_scoring
    docs, targets = golden_docs(attackable_docs)
    runner = ParallelAttackRunner(attack, n_workers=n_workers, base_seed=BASE_SEED)
    return [normalize(r.to_dict()) for r in runner.run(docs, targets)]


# ---------------------------------------------------------------------------
# golden parity with delta scoring on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_delta_golden_parity_serial(
    name, victim, word_paraphraser, sentence_paraphraser, attackable_docs
):
    """Every registry attack: delta on reproduces the goldens bitwise."""
    got = _run_case(
        name, victim, word_paraphraser, sentence_paraphraser, attackable_docs, 1
    )
    assert got == _load_golden(name)


@needs_fork
@pytest.mark.parametrize("name", ["greedy_word", "joint", "random_word", "gradient_guided"])
def test_delta_golden_parity_two_workers(
    name, victim, word_paraphraser, sentence_paraphraser, attackable_docs
):
    got = _run_case(
        name, victim, word_paraphraser, sentence_paraphraser, attackable_docs, 2
    )
    assert got == _load_golden(name)


def test_delta_actually_engages_on_golden_run(
    victim, word_paraphraser, attackable_docs
):
    """Guard against a silently-disabled delta path making parity vacuous."""
    attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
    attack.delta_scoring = True
    docs, targets = golden_docs(attackable_docs)
    fn = attack._delta
    assert fn is not None
    for i, (doc, target) in enumerate(zip(docs, targets)):
        attack.reseed(BASE_SEED + i)
        attack.attack(doc, target)
        assert not fn._states  # base states live for one attack() call
    stats = fn.stats
    assert stats["delta_candidates"] > 0
    assert stats["delta_units"] < stats["delta_units_full"]
    spent = stats["delta_units"] + stats["full_units"] + stats["state_build_units"]
    assert stats["reference_units"] / spent >= 2.0


# ---------------------------------------------------------------------------
# env-flag resolution at the evaluate_attack entry point
# ---------------------------------------------------------------------------

DELTA_SCORING_ENV = "REPRO_DELTA_SCORING"


def _evaluate_golden_docs(name, victim, word_paraphraser, attackable_docs, **kwargs):
    """``evaluate_attack`` over the golden documents, seeded like ``_run_case``."""
    attack = build_attack(name, victim, word_paraphraser=word_paraphraser, **GOLDEN_CASES[name])
    docs, targets = golden_docs(attackable_docs)
    # the golden documents are correctly classified, so every one is
    # attacked, toward the flip of its label, at seed index = position
    examples = [Example(tuple(doc), 1 - target) for doc, target in zip(docs, targets)]
    evaluation = evaluate_attack(victim, attack, examples, seed=BASE_SEED, **kwargs)
    assert evaluation.n_attacked == len(docs)
    return [normalize(r.to_dict()) for r in evaluation.results]


class TestEnvResolution:
    def test_runner_resolves_delta_flag(
        self, victim, word_paraphraser, attackable_docs, monkeypatch, tmp_path
    ):
        """The attack the runner runs carries explicit flag > env > off."""
        seen = []

        class Recording(ParallelAttackRunner):
            def run(self, *args, **kwargs):
                seen.append(self.attack.delta_scoring)
                return super().run(*args, **kwargs)

        monkeypatch.setattr(metrics, "ParallelAttackRunner", Recording)
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        # correctly classified, so the runner is always built
        examples = [Example(tuple(doc), 1 - target) for doc, target in attackable_docs[:1]]

        def resolved(**kwargs):
            evaluate_attack(victim, attack, examples, **kwargs)
            return seen.pop()

        monkeypatch.delenv(DELTA_SCORING_ENV, raising=False)
        assert resolved() is False
        assert resolved(delta_scoring=True) is True
        monkeypatch.setenv(DELTA_SCORING_ENV, "1")
        assert resolved() is True
        # the table drivers' path: ExperimentContext hands on None, and
        # evaluate_attack resolves the environment
        kwargs = ExperimentContext(cache_dir=tmp_path).eval_kwargs("tag")
        assert kwargs["delta_scoring"] is None
        assert resolved(**kwargs) is True
        # an explicit flag always beats the environment
        assert resolved(delta_scoring=False) is False

    def test_env_flag_run_matches_golden(
        self, victim, word_paraphraser, attackable_docs, monkeypatch
    ):
        explicit = _evaluate_golden_docs(
            "greedy_word", victim, word_paraphraser, attackable_docs, delta_scoring=True
        )
        monkeypatch.setenv(DELTA_SCORING_ENV, "1")
        via_env = _evaluate_golden_docs("greedy_word", victim, word_paraphraser, attackable_docs)
        assert via_env == explicit == _load_golden("greedy_word")


# ---------------------------------------------------------------------------
# recurrent families: delta on == off through a real attack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["lstm", "gru"])
def test_recurrent_delta_on_off_equality(family):
    """LSTM/GRU prefix-state caching never changes an AttackResult field."""
    cls = {"lstm": LSTMClassifier, "gru": GRUClassifier}[family]
    words = [f"tok{i:02d}" for i in range(30)]
    vocab = Vocabulary.build([words])
    model = cls(vocab, 24, embedding_dim=12, seed=5)
    model.eval()
    rng = np.random.default_rng(11)
    docs = [
        [words[j] for j in rng.integers(0, 30, size=int(rng.integers(4, 12)))]
        for _ in range(3)
    ]
    targets = [int(1 - p) for p in model.predict(docs)]
    attack = build_attack("charflip_greedy", model)

    def run(delta_scoring):
        attack.delta_scoring = delta_scoring
        out = []
        for i, (doc, target) in enumerate(zip(docs, targets)):
            attack.reseed(i)
            out.append(normalize(attack.attack(list(doc), target).to_dict()))
        return out

    off = run(False)
    fn = attack._delta
    assert fn is not None
    on = run(True)
    assert on == off
    assert fn.stats["delta_candidates"] > 0
    assert fn.stats["state_builds"] > 0


# ---------------------------------------------------------------------------
# ScoreCache key safety across the delta and full paths (satellite)
# ---------------------------------------------------------------------------


class TestCacheKeySafety:
    def test_delta_then_full_is_one_entry_one_forward(
        self, victim, word_paraphraser, attackable_docs
    ):
        """The same candidate scored via delta then via full forward shares
        one cache key: a single paid query, no double count."""
        doc, target = attackable_docs[0]
        base = list(doc)
        cand = list(base)
        cand[0] = "<unk>"
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        atk.delta_scoring = True
        fn = atk._delta
        atk._queries = 0
        atk._cache_hits = 0
        atk._cache = ScoreCache()
        try:
            first = atk._score_batch([cand], target, base=base)
            assert atk._queries == 1
            assert fn.stats["delta_candidates"] == 1
            # same candidate again, now *without* a base: full-forward request
            second = atk._score_batch([cand], target)
            assert atk._queries == 1  # served from cache, not re-forwarded
            assert atk._cache_hits == 1
            assert len(atk._cache) == 1
            assert second == first
            # and again *with* the base: still a pure hit, no state rebuild
            builds = fn.stats["state_builds"]
            third = atk._score_batch([cand], target, base=base)
            assert atk._queries == 1
            assert atk._cache_hits == 2
            assert fn.stats["state_builds"] == builds
            assert third == first
        finally:
            atk._cache = None

    def test_full_then_delta_is_served_from_cache(
        self, victim, word_paraphraser, attackable_docs
    ):
        doc, target = attackable_docs[0]
        base = list(doc)
        cand = list(base)
        cand[-1] = "<unk>"
        atk = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True)
        atk.delta_scoring = True
        fn = atk._delta
        atk._queries = 0
        atk._cache_hits = 0
        atk._cache = ScoreCache()
        try:
            first = atk._score_batch([cand], target)  # full path pays
            assert atk._queries == 1
            again = atk._score_batch([cand], target, base=base)  # delta request
            assert atk._queries == 1
            assert atk._cache_hits == 1
            assert fn.stats["delta_candidates"] == 0  # never reached the kernel
            assert again == first
        finally:
            atk._cache = None


# ---------------------------------------------------------------------------
# obs reconciliation with delta on (trace events carry delta fields)
# ---------------------------------------------------------------------------


class TestDeltaObsReconciliation:
    @pytest.mark.parametrize(
        "n_workers", [1, pytest.param(2, marks=needs_fork)]
    )
    def test_forwards_reconcile_and_delta_fields_present(
        self, victim, word_paraphraser, atk_corpus, tmp_path, n_workers
    ):
        attack = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=True
        )
        evaluation = evaluate_attack(
            victim,
            attack,
            atk_corpus.test[:4],
            seed=0,
            n_workers=n_workers,
            trace_dir=tmp_path,
            delta_scoring=True,
        )
        assert evaluation.n_attacked >= 1
        assert not evaluation.failures
        saw_delta = False
        for path in iter_trace_files(tmp_path):
            events = read_trace(path)
            end = events[-1]
            assert end["kind"] == "attack_end"
            # the traced-forwards contract holds unchanged under delta
            paid = sum(e["n_forwards"] for e in events if e["kind"] == "forward")
            assert paid == end["n_queries"]
            for e in events:
                if e["kind"] == "forward" and e.get("n_delta"):
                    saw_delta = True
                    assert e["n_delta"] <= e["n_forwards"]
                    assert e["delta_units"] <= e["delta_units_full"]
        assert saw_delta
        assert validate_run_dir(tmp_path) > 0

    def test_delta_counters_reach_perf_registry(
        self, victim, word_paraphraser, attackable_docs
    ):
        docs, targets = golden_docs(attackable_docs)
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        attack.delta_scoring = True
        registry = MetricsRegistry()
        victim.metrics = registry
        try:
            ParallelAttackRunner(attack, n_workers=1, base_seed=0).run(docs[:2], targets[:2])
        finally:
            victim.metrics = None
        counters = registry.counters
        assert counters["delta/candidates"] > 0
        assert counters["delta/units"] < counters["delta/units_full"]
        # delta-scored batches count as forwards too, through the model's helper
        assert counters["forward/docs"] >= counters["delta/candidates"]
