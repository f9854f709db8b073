"""Adversarial attacks: the paper's Algorithms 1-3 plus baselines.

Every attack is one point in the compositional space of Problem 1 —
a :class:`CandidateSource` (what can change) × a :class:`SearchStrategy`
(how to search) — run by one :class:`AttackEngine` that owns scoring,
caching, query accounting and observability.  The named combinations
live in :data:`~repro.attacks.registry.ATTACKS`, and
:func:`~repro.attacks.registry.build_attack` is their one constructor:

=========================  =============================================
Registry name              Paper reference
=========================  =============================================
``joint``                  Algorithm 1 (headline attack, "ours")
``greedy_sentence``        Algorithm 2
``gradient_guided``        Algorithm 3
``greedy_word``            objective-guided greedy, Kuleshov [19]
``gradient_word``          gradient method, Gong [18]
``random_word``            random baseline
``beam_word``              beam-search upper reference
=========================  =============================================

The table also holds char-flip, CELF lazy and frontier variants
(``python -m repro.experiments list-attacks`` prints it).  Any other pair
is ``AttackEngine(model, source, search)``.
"""

from repro.attacks.base import (
    Attack,
    AttackFailure,
    AttackResult,
    count_word_changes,
    reseed_object,
)
from repro.attacks.cache import ScoreCache, score_key
from repro.attacks.charflip import HOMOGLYPHS, CharFlipCandidates
from repro.attacks.engine import AttackEngine
from repro.attacks.paraphrase import ParaphraseConfig, SentenceParaphraser, WordParaphraser
from repro.attacks.proposals import (
    CandidateSource,
    CharFlipSource,
    GradientRankedSource,
    GumbelSource,
    GumbelWordProposal,
    Proposal,
    SentenceParaphraseSource,
    SentenceProposal,
    WordParaphraseSource,
    WordProposal,
)
from repro.attacks.registry import ATTACKS, AttackSpec, build_attack
from repro.attacks.search import (
    BeamSearch,
    FirstOrderSearch,
    GaussSouthwellSearch,
    GreedySearch,
    HeuristicRankSearch,
    LazyGreedySearch,
    ParticleSwarmSearch,
    RandomSearch,
    SearchStrategy,
    StagedSearch,
)
from repro.text.transformations import (
    SentenceNeighborSets,
    WordNeighborSets,
    apply_word_substitutions,
    transformation_support,
)

__all__ = [
    "Attack",
    "AttackFailure",
    "AttackResult",
    "count_word_changes",
    "reseed_object",
    "ScoreCache",
    "score_key",
    "CharFlipCandidates",
    "HOMOGLYPHS",
    "ParaphraseConfig",
    "WordParaphraser",
    "SentenceParaphraser",
    "WordNeighborSets",
    "SentenceNeighborSets",
    "apply_word_substitutions",
    "transformation_support",
    # engine layers
    "AttackEngine",
    "Proposal",
    "WordProposal",
    "GumbelWordProposal",
    "SentenceProposal",
    "CandidateSource",
    "WordParaphraseSource",
    "CharFlipSource",
    "SentenceParaphraseSource",
    "GradientRankedSource",
    "GumbelSource",
    "SearchStrategy",
    "GreedySearch",
    "LazyGreedySearch",
    "BeamSearch",
    "RandomSearch",
    "ParticleSwarmSearch",
    "HeuristicRankSearch",
    "FirstOrderSearch",
    "GaussSouthwellSearch",
    "StagedSearch",
    # registry
    "ATTACKS",
    "AttackSpec",
    "build_attack",
]
