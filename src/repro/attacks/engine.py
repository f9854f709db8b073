"""The attack engine: one loop owner for every source × strategy pair.

:class:`AttackEngine` is the composition point of the paper's Problem 1:
a :class:`~repro.attacks.proposals.CandidateSource` (what can change), a
:class:`~repro.attacks.search.SearchStrategy` (how to search), and this
engine owning everything they share — the scoring choke point
(:meth:`Attack._score_batch`: batching, order-preserving dedup, the
per-call :class:`~repro.attacks.cache.ScoreCache` and, with
``delta_scoring`` on, the incremental :class:`~repro.nn.delta.DeltaScoreFn`),
the query budget, the ``n_queries`` / ``n_cache_hits`` accounting, and the
TraceRecorder / PhaseProfiler instrumentation (the victim itself counts its
forwards into its ``metrics`` registry).  Strategies and sources
never touch the victim directly; they call the helpers below, so every
combination — including ones the registry does not name, like
char-flip × beam — gets caching, tracing and reconciliation
(``sum(forward.n_forwards) == attack_end.n_queries == AttackResult.n_queries``)
for free.

Every named attack is an ``AttackEngine`` composed by
:func:`~repro.attacks.registry.build_attack`, which maps the names in
:data:`~repro.attacks.registry.ATTACKS` to a source, a strategy and the
engine ``name`` that results, traces and journals record.
"""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.cache import score_key
from repro.attacks.proposals import CandidateSource, Proposal
from repro.attacks.search import SearchStrategy
from repro.models.base import TextClassifier

__all__ = ["AttackEngine"]


class AttackEngine(Attack):
    """Runs one :class:`SearchStrategy` over one :class:`CandidateSource`.

    ``max_queries`` is an optional hard cap on model forwards per
    document: strategies poll :meth:`out_of_queries` each round and stop
    expanding once the cap is hit (the incumbent found so far is still
    returned and judged).  ``None`` (default) leaves termination to τ and
    the ``m``-constraint, exactly as before.

    The cap is *exact*: :meth:`_score_batch` truncates a request to the
    forwards the budget still affords (cache hits stay free), so
    ``AttackResult.n_queries <= max_queries`` holds even when the final
    proposal set is larger than the remaining budget — strategies receive
    scores for the prefix that was affordable (possibly none) and must
    treat a short return as budget exhaustion.  The frontier benchmark
    sweeps budgets and depends on this equality being exact.
    """

    name = "engine"

    def __init__(
        self,
        model: TextClassifier,
        source: CandidateSource,
        search: SearchStrategy,
        *,
        name: str | None = None,
        use_cache: bool = True,
        cache_max_entries: int | None = None,
        max_queries: int | None = None,
    ) -> None:
        super().__init__(model, use_cache=use_cache, cache_max_entries=cache_max_entries)
        if max_queries is not None and max_queries < 1:
            raise ValueError("max_queries must be >= 1")
        self.source = source
        self.search = search
        self.max_queries = max_queries
        if name is not None:
            self.name = name

    def _run(self, doc: list[str], target_label: int) -> tuple[list[str], list[str]]:
        return self.search.run(self, self.source, doc, target_label)

    # -- helpers for sources and strategies ---------------------------------
    def index(
        self,
        source: CandidateSource,
        doc: list[str],
        target_label: int | None = None,
    ) -> Proposal:
        """Index ``doc`` through ``source`` (candidate-gen phase).

        Sources that probe the victim while indexing (e.g. ``GumbelSource``
        fitting its position distribution from a handful of forwards) set
        ``needs_target = True`` and receive ``target_label``; plain sources
        keep the two-argument interface.
        """
        if getattr(source, "needs_target", False):
            return source.index(self, doc, target_label=target_label)
        return source.index(self, doc)

    def score(self, tokens: list[str], target_label: int) -> float:
        """``C_y`` of one document, through the scoring choke point.

        Returns ``0.0`` when the query budget is exhausted and the score is
        not already cached — the caller cannot learn anything more about
        this document, and every strategy loop re-checks
        :meth:`out_of_queries` before acting on the value.
        """
        scores = self._score_batch([list(tokens)], target_label)
        return scores[0] if scores else 0.0

    def score_batch(
        self,
        docs: list[list[str]],
        target_label: int,
        base: list[str] | None = None,
    ) -> list[float]:
        """``C_y`` for a batch — deduped, cached, counted, traced.

        Search strategies pass ``base`` (the incumbent the candidates are
        edits of) so that, with ``delta_scoring`` on, the delta scorer can
        evaluate single-edit candidates incrementally instead of with full
        forwards.
        """
        return self._score_batch(docs, target_label, base=base)

    def _score_batch(
        self,
        docs: list[list[str]],
        target_label: int,
        base: list[str] | None = None,
    ) -> list[float]:
        if self.max_queries is not None and docs:
            docs = self._truncate_to_budget(docs, target_label)
        return super()._score_batch(docs, target_label, base=base)

    def _truncate_to_budget(
        self, docs: list[list[str]], target_label: int
    ) -> list[list[str]]:
        """Longest prefix of ``docs`` the remaining budget can pay for.

        Walks the batch counting the forwards it would cost — with a cache,
        only first occurrences of uncached documents pay (mirroring the
        dedup in :meth:`Attack._score_batch`); without one, every document
        pays.  Cache membership is probed via ``in`` so the walk leaves the
        hit/miss counters untouched.
        """
        remaining = self.max_queries - self._queries
        cache = self._cache
        pending: set = set()
        kept = 0
        for doc in docs:
            if cache is None:
                miss = True
            else:
                key = score_key(doc, target_label)
                miss = key not in pending and key not in cache
            if miss:
                if remaining <= 0:
                    break
                remaining -= 1
                if cache is not None:
                    pending.add(key)
            kept += 1
        return docs if kept == len(docs) else docs[:kept]

    def gradient(self, tokens: list[str], target_label: int):
        """Embedding gradient of ``C_y`` — one counted, traced forward."""
        with self._span("forward"):
            gradient = self.model.embedding_gradient(tokens, target_label)
        self._queries += 1  # gradient pass = one forward scoring
        self._trace_event(
            "forward", op="gradient", n_docs=1, n_forwards=1, n_cache_hits=0
        )
        return gradient

    def span(self, phase: str):
        """Profiler span for a named phase (no-op without a profiler)."""
        return self._span(phase)

    def trace_iteration(self, **fields) -> None:
        """Emit one ``greedy_iteration`` trace event."""
        self._trace_event("greedy_iteration", **fields)

    def out_of_queries(self) -> bool:
        """True once the per-document query budget is exhausted."""
        return self.max_queries is not None and self._queries >= self.max_queries
