"""Declarative attack registry: name → (source × strategy) spec.

Problem 1 is a two-axis space — what can change × how to search — and
every attack in the repo is one point in it.  This table makes that
explicit: :data:`ATTACKS` maps stable names to :class:`AttackSpec`\\ s, and
:func:`build_attack` — the one constructor of a named attack — composes
its :class:`~repro.attacks.engine.AttackEngine` against a victim model.  The
experiment drivers (:mod:`repro.experiments.common`) and the
``list-attacks`` CLI verb resolve attacks by these names, and novel
combinations (char-flip × beam, sentence × lazy, ...)
are one ``AttackEngine(model, source, strategy)`` away — see
``docs/architecture.md`` for a worked example.

Specs and builders are plain module-level objects, so they pickle across
the fork pool.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass

from repro.attacks.engine import AttackEngine
from repro.attacks.proposals import (
    CharFlipSource,
    GradientRankedSource,
    GumbelSource,
    SentenceParaphraseSource,
    WordParaphraseSource,
)
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

__all__ = ["AttackSpec", "ATTACKS", "build_attack"]

#: AttackEngine keywords that every builder forwards through ``**engine``
_ENGINE_PARAMS = ("use_cache", "cache_max_entries", "max_queries")


@dataclass(frozen=True)
class AttackSpec:
    """One named point in the source × strategy space.

    ``needs`` declares which paraphrasers the builder consumes
    (``"word"`` / ``"sentence"``); :attr:`params` lists the keywords a
    caller may set.  Callers like :meth:`ExperimentContext.make_attack` use both
    to assemble arguments declaratively instead of per-attack branches.

    ``delta`` declares how this source × strategy combination benefits from
    incremental delta scoring (``REPRO_DELTA_SCORING``, :mod:`repro.nn.delta`):

    - ``"yes"`` — candidate scoring is single-edit against an incumbent
      base, so the whole search runs incrementally;
    - ``"word-stage"`` — staged pipeline whose word stage is delta-scored
      while length-changing sentence candidates take full forwards;
    - ``"equal-len"`` — delta applies only when a candidate happens to
      keep the token count (rare for sentence paraphrases);
    - ``"no"`` — the strategy does no candidate scoring (first-order,
      random), so there is nothing to score incrementally.

    Enabling delta scoring is always safe regardless of this value — the
    score function falls back to full forwards per candidate; the field
    is advisory (surfaced by the ``list-attacks`` CLI).
    """

    name: str
    source: str  # candidate-source axis, e.g. "word-paraphrase"
    strategy: str  # search-strategy axis, e.g. "greedy scan"
    paper: str  # paper reference, e.g. "Alg. 3"
    summary: str
    builder: Callable[..., AttackEngine]
    needs: tuple[str, ...] = ("word",)
    delta: str = "no"  # delta-scoring eligibility: yes | word-stage | equal-len | no

    @property
    def params(self) -> tuple[str, ...]:
        """The builder's keyword-only parameters, then the engine keywords
        every builder forwards through ``**engine``."""
        parameters = inspect.signature(self.builder).parameters.values()
        own = tuple(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)
        return own + _ENGINE_PARAMS


# -- builders (module-level for picklability) -------------------------------
# Each composes one AttackEngine.  Its ``name`` is the journal header's
# ``attack`` field (a journal resumes only under the same name) and is
# recorded in traces and metrics.json, so it never changes.  ``**engine``
# carries ``use_cache``, ``cache_max_entries`` and ``max_queries``.


def _greedy(tau: float, strategy: str) -> SearchStrategy:
    """Full-rescan (``"scan"``) or CELF lazy (``"lazy"``) greedy search."""
    if strategy not in ("scan", "lazy"):
        raise ValueError("strategy must be 'scan' or 'lazy'")
    return GreedySearch(tau) if strategy == "scan" else LazyGreedySearch(tau)


def _build_greedy_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, strategy="scan", **engine
):
    """Kuleshov et al. [19], the practical greedy the paper compares against
    in Table 3: one best word substitution per round, until τ or ``λ_w · n``."""
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    return AttackEngine(model, source, _greedy(tau, strategy), name="objective-greedy", **engine)


def _build_lazy_greedy_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, **engine
):
    return _build_greedy_word(
        model, word_paraphraser, word_budget_ratio=word_budget_ratio, tau=tau, strategy="lazy",
        **engine,
    )


def _build_greedy_sentence(
    model, sentence_paraphraser=None, *, sentence_budget_ratio=0.2, tau=0.7, strategy="scan",
    **engine,
):
    """Alg. 2, at most ``λ_s · l`` sentences.  The paper uses no gradients
    here: a sentence paraphrase changes the token count, so a gradient taken
    before it no longer lines up with the positions after it (Sec. 5.2).
    Sentence candidates cost the most to score, so ``"lazy"`` saves most."""
    source = SentenceParaphraseSource(sentence_paraphraser, sentence_budget_ratio)
    return AttackEngine(model, source, _greedy(tau, strategy), name="greedy-sentence", **engine)


def _build_gradient_guided(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, words_per_iteration=5,
    max_candidates=128, per_position_cap=2, max_iterations=50, selection="modular", **engine,
):
    """Alg. 3: the joint candidate product over the ``N =
    words_per_iteration`` positions of highest first-order score (the paper
    uses N = 5)."""
    source = GradientRankedSource(
        WordParaphraseSource(word_paraphraser, word_budget_ratio), selection=selection
    )
    search = GaussSouthwellSearch(
        tau,
        words_per_iteration=words_per_iteration,
        max_candidates=max_candidates,
        per_position_cap=per_position_cap,
        max_iterations=max_iterations,
    )
    return AttackEngine(model, source, search, name="gradient-guided-greedy", **engine)


def _build_gradient_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, iterations=1, **engine
):
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    return AttackEngine(model, source, FirstOrderSearch(iterations), name="gradient", **engine)


def _build_random_word(model, word_paraphraser=None, *, word_budget_ratio=0.2, seed=0, **engine):
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    return AttackEngine(model, source, RandomSearch(seed), name="random", **engine)


def _build_beam_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, beam_width=3, **engine
):
    """Outside the paper's comparison: the next rung of search effort, an
    upper reference for what the cheap methods leave on the table.
    ``beam_width=1`` is the greedy baseline."""
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    search = BeamSearch(tau, beam_width=beam_width)
    return AttackEngine(model, source, search, name="beam-search", **engine)


def _build_charflip_greedy(model, *, word_budget_ratio=0.2, tau=0.7, strategy="scan", **engine):
    source = CharFlipSource(word_budget_ratio=word_budget_ratio)
    return AttackEngine(model, source, _greedy(tau, strategy), name="objective-greedy", **engine)


def _joint(model, sentence_paraphraser, sentence_budget_ratio, tau, strategy, word_stage, engine):
    """Alg. 1: the sentence stage (steps 2-5, Alg. 2), then ``word_stage``
    (steps 6-9) unless τ is already reached.  Both stages run on one
    engine, so they share one ScoreCache and one query count."""
    source = SentenceParaphraseSource(sentence_paraphraser, sentence_budget_ratio)
    search = StagedSearch([(source, _greedy(tau, strategy)), word_stage], tau=tau)
    return AttackEngine(model, source, search, name="joint-paraphrase", **engine)


def _build_joint(
    model, word_paraphraser=None, sentence_paraphraser=None, *, word_budget_ratio=0.2,
    sentence_budget_ratio=0.2, tau=0.7, words_per_iteration=5, strategy="scan", **engine,
):
    """The headline attack ("ours") of Tables 2, 4 and 5 and Figure 4:
    Alg. 2, then Alg. 3 on its output."""
    word_stage = (
        GradientRankedSource(WordParaphraseSource(word_paraphraser, word_budget_ratio)),
        GaussSouthwellSearch(tau, words_per_iteration=words_per_iteration),
    )
    return _joint(
        model, sentence_paraphraser, sentence_budget_ratio, tau, strategy, word_stage, engine
    )


def _build_joint_greedy(
    model, word_paraphraser=None, sentence_paraphraser=None, *, word_budget_ratio=0.2,
    sentence_budget_ratio=0.2, tau=0.7, strategy="scan", **engine,
):
    """Alg. 1 with the objective-greedy word stage in place of Alg. 3."""
    word_stage = (WordParaphraseSource(word_paraphraser, word_budget_ratio), _greedy(tau, strategy))
    return _joint(
        model, sentence_paraphraser, sentence_budget_ratio, tau, strategy, word_stage, engine
    )


def _build_gumbel_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, n_probes=8,
    temperature=0.1, keep_ratio=0.5, seed=0, **engine,
):
    source = GumbelSource(
        word_paraphraser,
        word_budget_ratio=word_budget_ratio,
        n_probes=n_probes,
        temperature=temperature,
        keep_ratio=keep_ratio,
        seed=seed,
    )
    return AttackEngine(model, source, GreedySearch(tau), name="gumbel-word", **engine)


def _build_pso_word(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, n_particles=8,
    iterations=10, inertia=0.5, cognitive=0.3, mutation_rate=0.2, seed=0, **engine,
):
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    search = ParticleSwarmSearch(
        tau=tau,
        n_particles=n_particles,
        iterations=iterations,
        inertia=inertia,
        cognitive=cognitive,
        mutation_rate=mutation_rate,
        seed=seed,
    )
    return AttackEngine(model, source, search, name="pso-word", **engine)


def _build_heuristic_saliency(
    model, word_paraphraser=None, *, word_budget_ratio=0.2, tau=0.7, candidate_rule="best",
    mask_token="<unk>", **engine,
):
    source = WordParaphraseSource(word_paraphraser, word_budget_ratio)
    search = HeuristicRankSearch(tau=tau, candidate_rule=candidate_rule, mask_token=mask_token)
    return AttackEngine(model, source, search, name="heuristic-saliency", **engine)


ATTACKS: dict[str, AttackSpec] = {
    "greedy_word": AttackSpec(
        name="greedy_word",
        source="word-paraphrase",
        strategy="greedy scan",
        paper="Kuleshov [19] baseline",
        summary="one best word substitution per round, full rescan",
        builder=_build_greedy_word,
        needs=("word",),
        delta="yes",
    ),
    "lazy_greedy_word": AttackSpec(
        name="lazy_greedy_word",
        source="word-paraphrase",
        strategy="CELF lazy greedy",
        paper="Kuleshov [19] + Minoux/CELF",
        summary="greedy via stale-bound heap; identical picks under submodularity",
        builder=_build_lazy_greedy_word,
        needs=("word",),
        delta="yes",
    ),
    "greedy_sentence": AttackSpec(
        name="greedy_sentence",
        source="sentence-paraphrase",
        strategy="greedy scan",
        paper="Alg. 2",
        summary="greedy whole-sentence paraphrasing",
        builder=_build_greedy_sentence,
        needs=("sentence",),
        delta="equal-len",
    ),
    "gradient_guided": AttackSpec(
        name="gradient_guided",
        source="gradient-ranked word-paraphrase",
        strategy="Gauss-Southwell joint greedy",
        paper="Alg. 3",
        summary="gradient position preselection + joint candidate product",
        builder=_build_gradient_guided,
        needs=("word",),
        delta="yes",
    ),
    "gradient_word": AttackSpec(
        name="gradient_word",
        source="word-paraphrase",
        strategy="first-order one-shot",
        paper="Gong [18] baseline",
        summary="closed-form linearized substitution, no candidate scoring",
        builder=_build_gradient_word,
        needs=("word",),
        delta="no",
    ),
    "random_word": AttackSpec(
        name="random_word",
        source="word-paraphrase",
        strategy="random",
        paper="random baseline",
        summary="uniformly random substitutions within the budget",
        builder=_build_random_word,
        needs=("word",),
        delta="no",
    ),
    "beam_word": AttackSpec(
        name="beam_word",
        source="word-paraphrase",
        strategy="beam",
        paper="search-effort upper reference",
        summary="width-B beam over substitution sets",
        builder=_build_beam_word,
        needs=("word",),
        delta="yes",
    ),
    "charflip_greedy": AttackSpec(
        name="charflip_greedy",
        source="char-flip",
        strategy="greedy scan",
        paper="Remark 2 (HotFlip-style)",
        summary="greedy over character-edit candidates",
        builder=_build_charflip_greedy,
        needs=(),
        delta="yes",
    ),
    "joint": AttackSpec(
        name="joint",
        source="sentence-paraphrase → gradient-ranked word-paraphrase",
        strategy="staged: greedy then Gauss-Southwell",
        paper="Alg. 1 (headline, 'ours')",
        summary="sentence stage then Alg. 3 word stage, one shared cache",
        builder=_build_joint,
        needs=("word", "sentence"),
        delta="word-stage",
    ),
    "gumbel_word": AttackSpec(
        name="gumbel_word",
        source="gumbel word-paraphrase",
        strategy="greedy scan over sampled positions",
        paper="Yang & Chen et al., arXiv:1805.12316",
        summary="probe forwards fit a position distribution; Gumbel-top-k restricts the scan",
        builder=_build_gumbel_word,
        needs=("word",),
        delta="yes",
    ),
    "pso_word": AttackSpec(
        name="pso_word",
        source="word-paraphrase",
        strategy="particle swarm",
        paper="Zang et al., arXiv:1910.12196",
        summary="population of substitution sets evolved by pbest/gbest crossover",
        builder=_build_pso_word,
        needs=("word",),
        delta="yes",
    ),
    "heuristic_saliency": AttackSpec(
        name="heuristic_saliency",
        source="word-paraphrase",
        strategy="saliency rank-then-replace",
        paper="Berger et al., arXiv:2109.07926",
        summary="mask-saliency ranking, one substitution pass, no search",
        builder=_build_heuristic_saliency,
        needs=("word",),
        delta="yes",
    ),
    "joint_greedy": AttackSpec(
        name="joint_greedy",
        source="sentence-paraphrase → word-paraphrase",
        strategy="staged: greedy then greedy",
        paper="Alg. 1 variant",
        summary="sentence stage then objective-greedy word stage",
        builder=_build_joint_greedy,
        needs=("word", "sentence"),
        delta="word-stage",
    ),
}


def build_attack(
    name: str,
    model,
    *,
    word_paraphraser=None,
    sentence_paraphraser=None,
    **kwargs,
) -> AttackEngine:
    """Compose the registry attack ``name`` against ``model``.

    Paraphrasers are forwarded only when the spec needs them; unknown
    names raise ``KeyError`` with the available choices, unknown keyword
    arguments raise ``TypeError`` (from the builder or the engine) as usual.
    ``use_cache``, ``cache_max_entries`` and ``max_queries`` reach the
    engine for every attack.
    """
    try:
        spec = ATTACKS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r}; choose from {sorted(ATTACKS)}"
        ) from None
    call_kwargs = dict(kwargs)
    if "word" in spec.needs:
        if word_paraphraser is None:
            raise ValueError(f"attack {name!r} needs word_paraphraser")
        call_kwargs["word_paraphraser"] = word_paraphraser
    if "sentence" in spec.needs:
        if sentence_paraphraser is None:
            raise ValueError(f"attack {name!r} needs sentence_paraphraser")
        call_kwargs["sentence_paraphraser"] = sentence_paraphraser
    return spec.builder(model, **call_kwargs)
