"""Adversarial attacks: the paper's Algorithms 1-3 plus baselines.

Every attack is one point in the compositional space of Problem 1 —
a :class:`CandidateSource` (what can change) × a :class:`SearchStrategy`
(how to search) — run by one :class:`AttackEngine` that owns scoring,
caching, query accounting and observability.  The named combinations:

=====================================  ==========================================
Class / registry name                  Paper reference
=====================================  ==========================================
:class:`JointParaphraseAttack`         Algorithm 1 (headline attack, "ours")
:class:`GreedySentenceAttack`          Algorithm 2
:class:`GradientGuidedGreedyAttack`    Algorithm 3
:class:`ObjectiveGreedyWordAttack`     objective-guided greedy, Kuleshov [19]
:class:`GradientWordAttack`            gradient method, Gong [18]
:class:`RandomWordAttack`              random baseline
:class:`BeamSearchWordAttack`          beam-search upper reference
=====================================  ==========================================

See :data:`~repro.attacks.registry.ATTACKS` for the full name → spec
table (including char-flip and CELF lazy variants) and
:func:`~repro.attacks.registry.build_attack` to resolve one by name.
"""

from repro.attacks.base import (
    Attack,
    AttackFailure,
    AttackResult,
    count_word_changes,
    reseed_object,
)
from repro.attacks.beam import BeamSearchWordAttack
from repro.attacks.cache import ScoreCache, score_key
from repro.attacks.charflip import HOMOGLYPHS, CharFlipCandidates
from repro.attacks.engine import AttackEngine
from repro.attacks.gradient_guided import GradientGuidedGreedyAttack
from repro.attacks.gradient_word import GradientWordAttack
from repro.attacks.greedy_word import ObjectiveGreedyWordAttack
from repro.attacks.joint import JointParaphraseAttack
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
from repro.attacks.random_attack import RandomWordAttack
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
from repro.attacks.sentence import GreedySentenceAttack
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
    # named attacks
    "JointParaphraseAttack",
    "GreedySentenceAttack",
    "GradientGuidedGreedyAttack",
    "ObjectiveGreedyWordAttack",
    "GradientWordAttack",
    "RandomWordAttack",
    "BeamSearchWordAttack",
]
