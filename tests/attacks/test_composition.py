"""Novel source × strategy combinations and engine plumbing.

The point of the refactor: attacks are one ``AttackEngine(model, source,
strategy)`` composition away, specs pickle for the fork pool, and the
engine's query budget applies to any combination uniformly.
"""

import inspect
import pickle

import pytest

from repro.attacks import (
    ATTACKS,
    AttackEngine,
    AttackResult,
    BeamSearch,
    CharFlipSource,
    FirstOrderSearch,
    GaussSouthwellSearch,
    GradientRankedSource,
    GreedySearch,
    GumbelSource,
    HeuristicRankSearch,
    LazyGreedySearch,
    ParticleSwarmSearch,
    RandomSearch,
    SentenceParaphraseSource,
    StagedSearch,
    WordParaphraseSource,
    build_attack,
)
from repro.eval.parallel import ParallelAttackRunner, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def _comparable(result: AttackResult) -> dict:
    payload = result.to_dict()
    payload.pop("wall_time", None)
    return payload


class TestNovelCombinations:
    def test_charflip_beam_composes(self, victim, attackable_docs):
        """char-flip × beam exists in no attack class — it comes free."""
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim,
            CharFlipSource(word_budget_ratio=0.3),
            BeamSearch(tau=0.7, beam_width=2),
            name="charflip-beam",
        )
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        assert result.n_queries >= 1
        assert engine.name == "charflip-beam"

    def test_sentence_lazy_composes(self, victim, sentence_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim,
            SentenceParaphraseSource(sentence_paraphraser, sentence_budget_ratio=0.4),
            LazyGreedySearch(tau=0.7),
        )
        result = engine.attack(doc, target)
        assert isinstance(result, AttackResult)
        assert all(stage == "sentence" for stage in result.stages)

    def test_composed_engine_reseeds(self, victim, attackable_docs):
        doc, target = attackable_docs[0]
        engine = AttackEngine(
            victim, CharFlipSource(), BeamSearch(tau=0.7, beam_width=2)
        )
        engine.reseed(11)
        a = engine.attack(doc, target)
        engine.reseed(11)
        b = engine.attack(doc, target)
        assert _comparable(a) == _comparable(b)


class TestQueryBudget:
    def test_max_queries_caps_search(self, victim, word_paraphraser, attackable_docs):
        doc, target = attackable_docs[0]

        def run(max_queries):
            engine = build_attack(
                "greedy_word",
                victim,
                word_paraphraser=word_paraphraser,
                tau=0.99,
                max_queries=max_queries,
            )
            return engine.attack(doc, target)

        full = run(None)
        capped = run(2)
        assert capped.n_queries < full.n_queries
        assert isinstance(capped, AttackResult)

    def test_max_queries_validated(self, victim, word_paraphraser):
        with pytest.raises(ValueError):
            AttackEngine(
                victim,
                CharFlipSource(),
                GreedySearch(),
                max_queries=0,
            )


#: what each registry name builds: the engine ``name`` (journal headers,
#: traces and metrics.json record it), the source type and the search type
REGISTRY_COMPOSITIONS = {
    "greedy_word": ("objective-greedy", WordParaphraseSource, GreedySearch),
    "lazy_greedy_word": ("objective-greedy", WordParaphraseSource, LazyGreedySearch),
    "charflip_greedy": ("objective-greedy", CharFlipSource, GreedySearch),
    "greedy_sentence": ("greedy-sentence", SentenceParaphraseSource, GreedySearch),
    "gradient_guided": ("gradient-guided-greedy", GradientRankedSource, GaussSouthwellSearch),
    "gradient_word": ("gradient", WordParaphraseSource, FirstOrderSearch),
    "random_word": ("random", WordParaphraseSource, RandomSearch),
    "beam_word": ("beam-search", WordParaphraseSource, BeamSearch),
    "joint": ("joint-paraphrase", SentenceParaphraseSource, StagedSearch),
    "joint_greedy": ("joint-paraphrase", SentenceParaphraseSource, StagedSearch),
    "gumbel_word": ("gumbel-word", GumbelSource, GreedySearch),
    "pso_word": ("pso-word", WordParaphraseSource, ParticleSwarmSearch),
    "heuristic_saliency": ("heuristic-saliency", WordParaphraseSource, HeuristicRankSearch),
}


class TestRegistryCompositions:
    def test_every_entry_is_pinned(self):
        assert set(REGISTRY_COMPOSITIONS) == set(ATTACKS)

    @pytest.mark.parametrize("name", sorted(REGISTRY_COMPOSITIONS))
    def test_builds_pinned_composition(
        self, name, victim, word_paraphraser, sentence_paraphraser
    ):
        engine = build_attack(
            name,
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
        )
        assert type(engine) is AttackEngine
        assert (engine.name, type(engine.source), type(engine.search)) == (
            REGISTRY_COMPOSITIONS[name]
        )

    @pytest.mark.parametrize(
        "name,word_stage",
        [
            ("joint", (GradientRankedSource, GaussSouthwellSearch)),
            ("joint_greedy", (WordParaphraseSource, GreedySearch)),
        ],
    )
    def test_joint_stages(self, name, word_stage, victim, word_paraphraser, sentence_paraphraser):
        engine = build_attack(
            name,
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
        )
        stages = [(type(source), type(search)) for source, search in engine.search.stages]
        assert stages == [(SentenceParaphraseSource, GreedySearch), word_stage]
        assert engine.search.stages[0][0] is engine.source

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_engine_settings_reach_every_engine(
        self, name, victim, word_paraphraser, sentence_paraphraser
    ):
        engine = build_attack(
            name,
            victim,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            use_cache=False,
            cache_max_entries=7,
            max_queries=5,
        )
        assert (engine.use_cache, engine.cache_max_entries, engine.max_queries) == (False, 7, 5)


class TestSpecParams:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_every_builder_keyword_is_listed(self, name):
        spec = ATTACKS[name]
        kinds: dict = {}
        for p in inspect.signature(spec.builder).parameters.values():
            kinds.setdefault(p.kind, []).append(p.name)
        # the only keywords a signature cannot show are the engine's
        assert kinds[inspect.Parameter.VAR_KEYWORD] == ["engine"]
        own = kinds[inspect.Parameter.KEYWORD_ONLY]
        assert spec.params == (*own, "use_cache", "cache_max_entries", "max_queries")


class TestSpecPickling:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_spec_roundtrips(self, name):
        spec = pickle.loads(pickle.dumps(ATTACKS[name]))
        assert spec.name == name
        assert spec.builder is ATTACKS[name].builder

    def test_built_engine_pickles(self, victim, word_paraphraser, sentence_paraphraser):
        for name in ("greedy_word", "joint", "random_word"):
            attack = build_attack(
                name,
                victim,
                word_paraphraser=word_paraphraser,
                sentence_paraphraser=sentence_paraphraser,
            )
            clone = pickle.loads(pickle.dumps(attack))
            assert clone.name == attack.name

    def test_composed_engine_pickles(self, victim):
        engine = AttackEngine(victim, CharFlipSource(), BeamSearch(beam_width=2))
        clone = pickle.loads(pickle.dumps(engine))
        assert isinstance(clone.search, BeamSearch)
        assert clone.search.beam_width == 2


class TestRunnerFromRegistry:
    def test_serial(self, victim, word_paraphraser, attackable_docs):
        docs = [doc for doc, _ in attackable_docs[:3]]
        targets = [t for _, t in attackable_docs[:3]]
        attack = build_attack("greedy_word", victim, word_paraphraser=word_paraphraser)
        outcomes = ParallelAttackRunner(attack, n_workers=1, base_seed=5).run(docs, targets)
        assert len(outcomes) == 3
        assert all(isinstance(o, AttackResult) for o in outcomes)

    @needs_fork
    def test_pool_matches_serial(self, victim, word_paraphraser, attackable_docs):
        docs = [doc for doc, _ in attackable_docs[:4]]
        targets = [t for _, t in attackable_docs[:4]]

        def run(n_workers):
            attack = build_attack("charflip_greedy", victim, word_budget_ratio=0.3)
            runner = ParallelAttackRunner(attack, n_workers=n_workers, base_seed=5)
            return [_comparable(o) for o in runner.run(docs, targets)]

        assert run(1) == run(2)

    def test_unknown_name_raises(self, victim):
        with pytest.raises(KeyError):
            build_attack("hypnosis", victim)
