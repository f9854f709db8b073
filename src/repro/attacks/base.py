"""Attack interface and result records.

All attacks are *targeted* (paper Sec. 3): given a document and a target
label ``y``, they search for a transformation maximizing ``C_y(V(T_l(x)))``
subject to the paraphrasing budgets.  For binary classification the usual
usage is ``target = 1 − predicted``.

Model access goes through :meth:`Attack._score_batch`, which batches,
dedups and (for deterministic victims) memoizes candidate scores via
:class:`~repro.attacks.cache.ScoreCache` — see that module for the
``n_queries`` / ``n_cache_hits`` accounting contract.
"""

from __future__ import annotations

import difflib
import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.attacks.cache import ScoreCache, score_key
from repro.models.base import TextClassifier

__all__ = ["AttackResult", "AttackFailure", "Attack", "count_word_changes", "reseed_object"]


def reseed_object(obj, seed: int) -> None:
    """Reset every RNG stream reachable from ``obj`` to a function of ``seed``.

    Streams are discovered by introspection, so components never hand-roll
    reseed logic: ``np.random.Generator`` attributes are replaced with
    ``default_rng((seed, offset))`` (``offset`` = the attribute's index in
    the sorted attribute list, so distinct streams on one object stay
    distinct), plain integer ``seed`` attributes are rewritten, and the
    walk recurses into sub-:class:`Attack`\\ s and into any collaborator
    marked ``_reseed_recurse`` (candidate sources and search strategies).
    """
    for offset, name in enumerate(sorted(vars(obj))):
        value = getattr(obj, name)
        if isinstance(value, np.random.Generator):
            setattr(obj, name, np.random.default_rng((seed, offset)))
        elif name == "seed" and isinstance(value, int):
            setattr(obj, name, seed)
        elif isinstance(value, Attack) and value is not obj:
            value.reseed(seed)
        elif getattr(value, "_reseed_recurse", False):
            value.reseed(seed)


def count_word_changes(original: Sequence[str], adversarial: Sequence[str]) -> int:
    """Number of word edits between the two token lists, under alignment.

    Word-level substitutions keep positions, so for equal-length documents
    this is the positional (Hamming) count — exactly the size of the
    transformation support ``supp(l)``.  When a sentence paraphrase changes
    the length, tokens shift and a positional comparison would charge every
    downstream token; instead the documents are aligned with difflib
    opcodes and edits are counted per aligned block (a replaced block costs
    the larger of its two sides; insertions/deletions cost their length).
    """
    original = list(original)
    adversarial = list(adversarial)
    if len(original) == len(adversarial):
        return sum(1 for a, b in zip(original, adversarial) if a != b)
    matcher = difflib.SequenceMatcher(a=original, b=adversarial, autojunk=False)
    changes = 0
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "replace":
            changes += max(i2 - i1, j2 - j1)
        elif tag == "delete":
            changes += i2 - i1
        elif tag == "insert":
            changes += j2 - j1
    return changes


@dataclass
class AttackResult:
    """Outcome of attacking one document."""

    original: list[str]
    adversarial: list[str]
    target_label: int
    original_prob: float  # C_y before the attack
    adversarial_prob: float  # C_y after the attack
    success: bool  # adversarial prediction == target label
    n_word_changes: int = 0
    n_sentence_changes: int = 0
    n_queries: int = 0  # model forwards actually paid
    n_cache_hits: int = 0  # scores served from the per-call ScoreCache
    n_cache_evictions: int = 0  # entries dropped by a bounded ScoreCache
    wall_time: float = 0.0
    stages: list[str] = field(default_factory=list)  # e.g. ["sentence", "word"]

    @property
    def prob_gain(self) -> float:
        return self.adversarial_prob - self.original_prob

    def to_dict(self) -> dict:
        """JSON-safe payload that round-trips bitwise through :meth:`from_dict`.

        Every field is a str/int/bool/float; ``json`` serializes floats via
        ``repr`` so probabilities and wall-times survive a journal round-trip
        exactly.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackResult":
        return cls(
            original=list(payload["original"]),
            adversarial=list(payload["adversarial"]),
            target_label=int(payload["target_label"]),
            original_prob=float(payload["original_prob"]),
            adversarial_prob=float(payload["adversarial_prob"]),
            success=bool(payload["success"]),
            n_word_changes=int(payload["n_word_changes"]),
            n_sentence_changes=int(payload["n_sentence_changes"]),
            n_queries=int(payload["n_queries"]),
            n_cache_hits=int(payload["n_cache_hits"]),
            # absent in journals written before bounded caches existed
            n_cache_evictions=int(payload.get("n_cache_evictions", 0)),
            wall_time=float(payload["wall_time"]),
            stages=list(payload["stages"]),
        )


@dataclass
class AttackFailure:
    """Structured record of a document whose attack did not complete.

    Produced by the fault-tolerant corpus runner instead of letting one
    pathological document (an attack that raises, or one that kills its
    worker process) abort the whole run.  Carries everything needed to
    reproduce the failure in isolation: the document, the target label,
    and the exact per-document seed the runner used.
    """

    doc_index: int  # seed index within the run (see parallel._document_seed)
    target_label: int
    error_type: str  # exception class name, e.g. "RuntimeError"
    error_message: str
    traceback: str  # formatted traceback; empty for worker crashes
    seed: int  # the per-document seed in effect when the attack failed
    original: list[str] = field(default_factory=list)

    #: failed attacks never flip the prediction; mirroring
    #: :attr:`AttackResult.success` lets aggregation code treat a mixed
    #: outcome list uniformly
    @property
    def success(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackFailure":
        return cls(
            doc_index=int(payload["doc_index"]),
            target_label=int(payload["target_label"]),
            error_type=str(payload["error_type"]),
            error_message=str(payload["error_message"]),
            traceback=str(payload["traceback"]),
            seed=int(payload["seed"]),
            original=list(payload["original"]),
        )


class Attack:
    """Base class: owns the victim model and counts its queries.

    ``use_cache`` enables the per-call :class:`ScoreCache`; it is
    automatically suppressed whenever scoring is stochastic (victim in
    training mode or with ``inference_dropout`` active), so Bayesian-dropout
    scores are never memoized.  ``cache_max_entries`` bounds that cache
    (``None`` = unbounded, the default).

    Observability hooks (all optional, all off by default):

    - ``tracer`` — a :class:`~repro.obs.trace.TraceRecorder`; the corpus
      runner installs a per-document trace on ``_trace`` directly, while
      direct ``attack()`` calls self-open one via ``tracer.next_index()``;
    - ``profiler`` — a :class:`~repro.obs.spans.PhaseProfiler` whose
      spans time the forward / candidate-gen / greedy-select phases.

    ``score_fn`` (a *ScoreBatchFn*, ``docs -> (n, C) probabilities``)
    reroutes the scoring forwards of :meth:`_score_batch` — e.g. to the
    incremental :class:`~repro.nn.delta.DeltaScoreFn` — while gradients
    and the final verdict forward stay on the local model.
    """

    name = "attack"

    # class-level defaults so instances unpickled from old journals or
    # constructed by subclasses that bypass __init__ still have the hooks
    tracer = None
    profiler = None
    _trace = None
    score_fn = None

    def __init__(
        self,
        model: TextClassifier,
        use_cache: bool = True,
        cache_max_entries: int | None = None,
    ) -> None:
        self.model = model
        self.use_cache = use_cache
        self.cache_max_entries = cache_max_entries
        self._queries = 0
        self._cache_hits = 0
        self._cache: ScoreCache | None = None
        self._cache_evictions = 0
        self.tracer = None
        self.profiler = None
        self._trace = None
        self.score_fn = None

    def reseed(self, seed: int) -> None:
        """Reset every RNG stream this attack owns to a function of ``seed``.

        The parallel corpus runner calls this with a per-*document* seed
        before each attack so stochastic attacks produce identical results
        no matter how documents are sharded across workers (1 worker and N
        workers must agree).  Streams are discovered by introspection —
        ``np.random.Generator`` attributes are replaced, plain ``seed``
        integer attributes are rewritten, and sub-attacks (the joint
        attack's stages) are reseeded recursively — so new attacks get
        deterministic sharding for free.
        """
        reseed_object(self, seed)

    # -- observability hooks ------------------------------------------------
    def set_profiler(self, profiler) -> None:
        """Attach a phase profiler to this attack and its sub-attacks."""
        self.profiler = profiler
        for value in vars(self).values():
            if isinstance(value, Attack) and value is not self:
                value.set_profiler(profiler)

    def set_score_fn(self, score_fn) -> None:
        """Attach (or with ``None`` detach) a scoring-forward override.

        Recurses into sub-attacks (the joint attack's stages) so every
        ``_score_batch`` in the composition routes the same way.
        """
        self.score_fn = score_fn
        for value in vars(self).values():
            if isinstance(value, Attack) and value is not self:
                value.set_score_fn(score_fn)

    def _span(self, name: str):
        """Profiler span context, or a no-op when no profiler is attached."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.span(name)

    def _trace_event(self, kind: str, **fields) -> None:
        """Emit one trace event; a single ``None`` check when tracing is off."""
        if self._trace is not None:
            self._trace.emit(kind, **fields)

    def _caching_allowed(self) -> bool:
        """Memoization is sound only for deterministic scoring.

        Duck-typed: wrappers like ``SmoothedClassifier`` expose neither
        ``training`` nor ``inference_dropout`` but are deterministic per
        document by construction, so missing attributes count as safe.
        """
        if not self.use_cache:
            return False
        if getattr(self.model, "training", False):
            return False
        return not getattr(self.model, "inference_dropout", 0.0)

    # -- model access with query accounting --------------------------------
    def _predict_proba(
        self, docs: list[list[str]], base: list[str] | None = None
    ) -> np.ndarray:
        """Scoring forward: the attached ``score_fn``, else the local model.

        ``base`` is the incumbent document the candidates are single-edit
        variants of; it is forwarded only to score functions advertising
        ``accepts_base`` (the delta scorer), which uses it to score candidates incrementally.  Plain score
        functions and the local model ignore it.
        """
        fn = self.score_fn
        if fn is not None:
            if base is not None and getattr(fn, "accepts_base", False):
                return fn(docs, base=base)
            return fn(docs)
        return self.model.predict_proba(docs)

    def _delta_trace_fields(self) -> dict:
        """Extra ``forward``-event fields from a delta-aware score function."""
        pop = getattr(self.score_fn, "pop_stats", None)
        if pop is None:
            return {}
        return pop() or {}

    def _score_batch(
        self,
        docs: list[list[str]],
        target_label: int,
        base: list[str] | None = None,
    ) -> list[float]:
        """``C_y`` for a batch of candidate documents (deduped + memoized).

        ``base`` (optional) is the incumbent the candidates were derived
        from; see :meth:`_predict_proba`.  Delta-scored candidates still
        count as paid forwards in ``n_queries`` — incremental evaluation
        changes what a query *costs*, not how many are accounted.
        """
        if not docs:
            return []
        cache = self._cache
        if cache is None:
            self._queries += len(docs)
            with self._span("forward"):
                probs = self._predict_proba(docs, base=base)
            self._trace_event(
                "forward",
                op="score",
                n_docs=len(docs),
                n_forwards=len(docs),
                n_cache_hits=0,
                **self._delta_trace_fields(),
            )
            return probs[:, target_label].tolist()
        # order-preserving dedup of the request, then forward only misses
        unique: dict[tuple, list[str]] = {}
        for doc in docs:
            unique.setdefault(score_key(doc, target_label), list(doc))
        scores: dict[tuple, float] = {}
        missing: list[tuple] = []
        for key in unique:
            cached = cache.get(key)
            if cached is None:
                missing.append(key)
            else:
                scores[key] = cached
        delta_fields: dict = {}
        if missing:
            with self._span("forward"):
                probs = self._predict_proba([unique[key] for key in missing], base=base)
            delta_fields = self._delta_trace_fields()
            self._queries += len(missing)
            for key, p in zip(missing, probs[:, target_label].tolist()):
                cache.put(key, p)
                scores[key] = p
        served = len(docs) - len(missing)
        self._cache_hits += served
        self._trace_event(
            "forward",
            op="score",
            n_docs=len(docs),
            n_forwards=len(missing),
            n_cache_hits=served,
            **delta_fields,
        )
        if served:
            self._trace_event("cache_hit", n_hits=served)
        return [scores[score_key(doc, target_label)] for doc in docs]

    def _score(self, doc: Sequence[str], target_label: int) -> float:
        return self._score_batch([list(doc)], target_label)[0]

    # -- template method -------------------------------------------------------
    def attack(self, doc: Sequence[str], target_label: int) -> AttackResult:
        """Run the attack; concrete classes implement :meth:`_run`."""
        if target_label not in (0, 1):
            raise ValueError(f"target label must be 0 or 1, got {target_label}")
        doc = list(doc)
        if not doc:
            raise ValueError("cannot attack an empty document")
        # the corpus runner installs a per-document trace on _trace; direct
        # attack() calls self-open one (and then own its close) when a
        # TraceRecorder is attached
        opened_here = False
        if self._trace is None and self.tracer is not None:
            self._trace = self.tracer.document(self.tracer.next_index())
            opened_here = True
        self._queries = 0
        self._cache_hits = 0
        self._cache_evictions = 0
        self._cache = (
            ScoreCache(max_entries=self.cache_max_entries)
            if self._caching_allowed()
            else None
        )
        self._trace_event(
            "attack_start",
            attack=self.name,
            target_label=int(target_label),
            n_tokens=len(doc),
            seed=getattr(self._trace, "seed", None),
        )
        start = time.perf_counter()
        try:
            try:
                original_prob = self._score(doc, target_label)
                adversarial, stages = self._run(doc, target_label)
            finally:
                if self._cache is not None:
                    self._cache_evictions = self._cache.evictions
                self._cache = None  # scores are only valid within one call
            # Success is judged with deterministic inference: if the victim
            # uses Bayesian (inference-time) dropout during the *search* — the
            # paper's WCNN setting (Sec. 6.4) — the verdict must not depend on
            # one noisy sample.
            inference_dropout = getattr(self.model, "inference_dropout", 0.0)
            if inference_dropout:
                self.model.inference_dropout = 0.0
            try:
                adv_probs = self.model.predict_proba([adversarial])[0]
            finally:
                if inference_dropout:
                    self.model.inference_dropout = inference_dropout
            elapsed = time.perf_counter() - start
            result = AttackResult(
                original=doc,
                adversarial=adversarial,
                target_label=target_label,
                original_prob=original_prob,
                adversarial_prob=float(adv_probs[target_label]),
                success=bool(adv_probs.argmax() == target_label),
                n_word_changes=count_word_changes(doc, adversarial),
                n_sentence_changes=stages.count("sentence"),
                n_queries=self._queries,
                n_cache_hits=self._cache_hits,
                n_cache_evictions=self._cache_evictions,
                wall_time=elapsed,
                stages=sorted(set(stages)),
            )
            self._trace_event(
                "attack_end",
                success=result.success,
                n_queries=result.n_queries,
                n_cache_hits=result.n_cache_hits,
                wall_time=round(result.wall_time, 6),
                n_word_changes=result.n_word_changes,
                adversarial_prob=result.adversarial_prob,
            )
            return result
        except Exception as exc:
            self._trace_event(
                "attack_error",
                error_type=type(exc).__name__,
                error_message=str(exc),
            )
            raise
        finally:
            if opened_here:
                trace, self._trace = self._trace, None
                if trace is not None:
                    trace.close()

    def _run(self, doc: list[str], target_label: int) -> tuple[list[str], list[str]]:
        """Return (adversarial tokens, stage tags). Implemented by subclasses."""
        raise NotImplementedError
