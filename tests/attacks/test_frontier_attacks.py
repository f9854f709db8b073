"""Frontier attacks (Gumbel, PSO, heuristic) + budget/RNG bugfix coverage.

Covers the PR-8 additions end to end: the new sources × strategies
compose with the existing axes, the three new registry entries run
serially and bitwise-identically under the fork pool, *every* registry
attack respects ``max_queries`` exactly (the engine truncates the final
scoring batch), ``RandomSearch`` no longer replays identical draws
across calls, and ``LazyGreedySearch`` terminates cleanly when a source
runs out of admissible moves mid-run.
"""

import pickle

import pytest

from repro.attacks import (
    ATTACKS,
    AttackEngine,
    AttackResult,
    CandidateSource,
    CharFlipSource,
    GumbelSource,
    GumbelWordProposal,
    HeuristicRankSearch,
    LazyGreedySearch,
    ParticleSwarmSearch,
    WordParaphraseSource,
    WordProposal,
    build_attack,
)
from repro.attacks.cache import ScoreCache
from repro.eval.parallel import ParallelAttackRunner, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _comparable(result: AttackResult) -> dict:
    payload = result.to_dict()
    payload.pop("wall_time", None)
    return payload


class TestNewCompositions:
    def test_gumbel_lazy_composes(self, victim, word_paraphraser, attackable_docs):
        """gumbel × lazy exists in no attack class — it comes free."""
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim,
            GumbelSource(word_paraphraser, word_budget_ratio=0.3),
            LazyGreedySearch(tau=0.7),
            name="gumbel-lazy",
        )
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        assert result.n_queries >= 1

    def test_charflip_pso_composes(self, victim, attackable_docs):
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim,
            CharFlipSource(word_budget_ratio=0.3),
            ParticleSwarmSearch(tau=0.7, n_particles=4, iterations=3),
            name="charflip-pso",
        )
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        assert all(stage == "word" for stage in result.stages)

    def test_gumbel_restricts_positions(self, victim, word_paraphraser, attackable_docs):
        """The sampled proposal exposes a strict subset of the full scan."""
        doc, target = attackable_docs[0]
        source = GumbelSource(word_paraphraser, keep_ratio=0.5, n_probes=4)
        full = WordParaphraseSource(word_paraphraser)
        engine = AttackEngine(victim, source, LazyGreedySearch())
        proposal = engine.index(source, doc, target)
        full_positions = engine.index(full, doc).positions()
        assert isinstance(proposal, GumbelWordProposal)
        assert set(proposal.positions()) <= set(full_positions)
        if len(full_positions) >= 2:
            assert len(proposal.positions()) < len(full_positions)
        # restricting positions never invents moves
        for j in proposal.positions():
            assert proposal.moves_at(j)

    def test_gumbel_without_target_keeps_all_positions(
        self, victim, word_paraphraser, attackable_docs
    ):
        doc, _ = attackable_docs[0]
        source = GumbelSource(word_paraphraser, keep_ratio=0.5)
        engine = AttackEngine(victim, source, LazyGreedySearch())
        proposal = engine.index(source, doc)  # no label → no probes, no sampling
        full = engine.index(WordParaphraseSource(word_paraphraser), doc)
        assert set(proposal.positions()) == {
            j for j in full.positions() if full.moves_at(j)
        }

    def test_heuristic_first_rule_runs(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim,
            WordParaphraseSource(word_paraphraser, word_budget_ratio=0.3),
            HeuristicRankSearch(tau=0.7, candidate_rule="first"),
        )
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)

    def test_new_engines_pickle(self, victim, word_paraphraser):
        for name in ("gumbel_word", "pso_word", "heuristic_saliency"):
            attack = build_attack(name, victim, word_paraphraser=word_paraphraser)
            clone = pickle.loads(pickle.dumps(attack))
            assert clone.name == attack.name

    def test_new_engines_reseed_reproducibly(
        self, victim, word_paraphraser, attackable_docs
    ):
        doc, target = attackable_docs[0]
        for name in ("gumbel_word", "pso_word"):
            attack = build_attack(name, victim, word_paraphraser=word_paraphraser)
            attack.reseed(11)
            a = attack.attack(doc, target)
            attack.reseed(11)
            b = attack.attack(doc, target)
            assert _comparable(a) == _comparable(b), name


class TestNewRegistryEntries:
    @pytest.mark.parametrize("name", ["gumbel_word", "pso_word", "heuristic_saliency"])
    def test_serial_run(self, name, victim, word_paraphraser, attackable_docs):
        docs = [doc for doc, _ in attackable_docs[:3]]
        targets = [t for _, t in attackable_docs[:3]]
        attack = build_attack(name, victim, word_paraphraser=word_paraphraser)
        outcomes = ParallelAttackRunner(attack, n_workers=1, base_seed=5).run(docs, targets)
        assert len(outcomes) == 3
        assert all(isinstance(o, AttackResult) for o in outcomes)

    @needs_fork
    @pytest.mark.parametrize("name", ["gumbel_word", "pso_word", "heuristic_saliency"])
    def test_pool_matches_serial(self, name, victim, word_paraphraser, attackable_docs):
        docs = [doc for doc, _ in attackable_docs[:4]]
        targets = [t for _, t in attackable_docs[:4]]

        def run(n_workers):
            attack = build_attack(name, victim, word_paraphraser=word_paraphraser)
            runner = ParallelAttackRunner(attack, n_workers=n_workers, base_seed=5)
            return [_comparable(o) for o in runner.run(docs, targets)]

        assert run(1) == run(2)


class TestBudgetExactness:
    """``AttackResult.n_queries <= max_queries`` for *every* registry attack."""

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    @pytest.mark.parametrize("cap", [1, 5, 23])
    def test_cap_is_exact(
        self, name, cap, victim, word_paraphraser, sentence_paraphraser, attackable_docs
    ):
        attack = build_attack(
            name,
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            max_queries=cap,
        )
        for doc, target in attackable_docs[:2]:
            result = attack.attack(doc, target)
            assert result.n_queries <= cap, (name, cap, result.n_queries)

    def test_truncation_walk_counts_like_score_batch(self, victim, word_paraphraser):
        """Cache hits stay free: a repeated doc never burns budget twice."""
        attack = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, max_queries=2
        )
        attack._queries = 0
        attack._cache = ScoreCache(max_entries=attack.cache_max_entries)
        doc = ["great", "food"]
        other = ["bad", "food"]
        third = ["good", "food"]
        # doc is deduped, so [doc, doc, other] costs 2 — exactly the cap
        scores = attack._score_batch([doc, doc, other], 1)
        assert len(scores) == 3
        assert attack._queries == 2
        # budget exhausted: misses truncate away, cached prefixes survive
        assert attack._score_batch([doc, third], 1) == scores[:1]
        assert attack._queries == 2

    def test_truncation_without_cache_counts_every_doc(self, victim, word_paraphraser):
        attack = build_attack(
            "greedy_word", victim, word_paraphraser=word_paraphraser, use_cache=False, max_queries=2
        )
        attack._queries = 0
        doc = ["great", "food"]
        # without a cache there is no dedup: the duplicate costs a query too
        scores = attack._score_batch([doc, doc, doc], 1)
        assert len(scores) == 2
        assert attack._queries == 2


class TestRandomSearchStreams:
    def test_repeat_runs_draw_fresh_streams(
        self, victim, word_paraphraser, attackable_docs
    ):
        """Multi-restart runs on one instance must not replay identical draws."""
        doc, target = attackable_docs[0]
        engine = build_attack("random_word", victim, word_paraphraser=word_paraphraser)
        engine.reseed(3)
        first = engine.attack(doc, target)
        repeat = engine.attack(doc, target)
        assert engine.search._call_count == 2
        assert _comparable(first) != _comparable(repeat)

    def test_reseed_restores_first_stream(
        self, victim, word_paraphraser, attackable_docs
    ):
        """The per-document reseeding contract: reseed → bitwise replay."""
        doc, target = attackable_docs[0]
        engine = build_attack("random_word", victim, word_paraphraser=word_paraphraser)
        engine.reseed(3)
        first = engine.attack(doc, target)
        engine.attack(doc, target)  # advance the call counter
        engine.reseed(3)
        again = engine.attack(doc, target)
        assert _comparable(first) == _comparable(again)

    def test_pso_repeat_runs_draw_fresh_streams(
        self, victim, word_paraphraser, attackable_docs
    ):
        doc, target = attackable_docs[0]
        engine = build_attack("pso_word", victim, word_paraphraser=word_paraphraser)
        engine.reseed(3)
        engine.attack(doc, target)
        assert engine.search._call_count == 1
        engine.reseed(3)
        assert engine.search._call_count == 0


# -- LazyGreedySearch empty-rebuild regression -------------------------------
class _FixedMoveSets:
    """Word neighbor sets with exactly one candidate at one position."""

    def __init__(self, position: int, move: str) -> None:
        self.attackable_positions = [position]
        self._move = move

    def __getitem__(self, position: int) -> list[str]:
        return [self._move]


class _ExhaustibleSource(CandidateSource):
    """One admissible move total; any budget > 1 exhausts the source mid-run."""

    kind = "exhaustible"

    def __init__(self, position: int, move: str, budget: int = 3) -> None:
        self.position = position
        self.move = move
        self.budget_n = budget

    def index(self, engine, doc):
        return WordProposal(doc, _FixedMoveSets(self.position, self.move), self.budget_n)


class TestLazyGreedyEmptyRebuild:
    def _improving_single_move(self, victim, word_paraphraser, attackable_docs):
        """A (doc, target, position, move) whose single edit raises C_y."""
        for doc, target in attackable_docs:
            base = victim.predict_proba([doc])[0][target]
            sets = word_paraphraser.neighbor_sets(doc)
            for j in sets.attackable_positions:
                for move in sets[j]:
                    edited = list(doc)
                    edited[j] = move
                    if victim.predict_proba([edited])[0][target] > base + 1e-9:
                        return doc, target, j, move
        pytest.skip("no improving single substitution on this victim")

    def test_zero_admissible_from_the_start(self, victim, attackable_docs):
        doc, target = attackable_docs[0]
        # the only candidate equals the original word: nothing is admissible
        source = _ExhaustibleSource(0, doc[0], budget=2)
        engine = AttackEngine(victim, source, LazyGreedySearch(tau=0.99))
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        assert result.adversarial == list(doc)
        assert result.stages == []

    def test_moves_exhausted_mid_run(self, victim, word_paraphraser, attackable_docs):
        """Budget left but every move consumed: rebuild returns None, clean end."""
        doc, target, j, move = self._improving_single_move(
            victim, word_paraphraser, attackable_docs
        )
        source = _ExhaustibleSource(j, move, budget=3)
        engine = AttackEngine(victim, source, LazyGreedySearch(tau=0.999999))
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        # the single admissible move was applied, then the source ran dry
        assert result.adversarial[j] == move
        assert len(result.stages) == 1
