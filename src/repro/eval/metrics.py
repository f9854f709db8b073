"""Attack evaluation metrics.

Two views used by the paper:

- *success rate* (Table 3, Fig. 4): fraction of correctly-classified test
  documents whose prediction the attack flips to the target label;
- *adversarial accuracy* (Tables 2, 5): the classifier's accuracy on the
  adversarially perturbed test set (documents it already misclassifies stay
  unperturbed and remain errors).

Every attacked document runs through the fault-tolerant
:class:`~repro.eval.parallel.ParallelAttackRunner` — the serial branch is
the runner's 1-worker path, so serial and pooled runs share the same
per-document reseeding and the documented 1-vs-N-worker determinism
guarantee holds for stochastic attacks too.  A document whose attack
raises (or repeatedly kills its worker) becomes a structured
:class:`~repro.attacks.base.AttackFailure` in
:attr:`AttackEvaluation.failures` instead of aborting the run; it is
conservatively scored as *not flipped* (it stays unperturbed and still
correct in adversarial accuracy) and excluded from the per-result means.

``journal_path`` makes a run durable: each completed document is appended
to a JSONL :class:`~repro.eval.journal.RunJournal` as it lands, and
re-running with the same journal resumes — already-journaled documents
are never attacked twice, and because the remaining documents keep their
original seed indices the final :class:`AttackEvaluation` is identical to
an uninterrupted run's.

``trace_dir`` turns on the observability layer for the run: per-document
attack traces (:mod:`repro.obs.trace`), a run-level
:class:`~repro.obs.registry.MetricsRegistry` of outcome counters and
latency histograms, a ``failures.jsonl`` of structured failure records,
and a ``metrics.json`` consumed by ``python -m repro.experiments report``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attacks.base import Attack, AttackFailure, AttackResult
from repro.data.datasets import Example
from repro.eval.config import RunConfig
from repro.eval.journal import RunJournal, corpus_fingerprint
from repro.eval.parallel import ParallelAttackRunner
from repro.eval.progress import HeartbeatMonitor
from repro.models.base import TextClassifier
from repro.obs.exporter import TelemetryServer
from repro.obs.registry import MetricsRegistry
from repro.obs.report import append_failure, write_run_metrics
from repro.obs.timeseries import SERIES_FILENAME, TimeSeriesSampler
from repro.obs.trace import TraceRecorder

#: power-of-two bounds for query-count histograms (1 .. 65536 forwards/doc)
_QUERY_BOUNDS = [float(2**e) for e in range(17)]

#: /healthz reports ``status: stale`` when no document completed for this
#: long — generous because a single hard document legitimately takes a while
_HEARTBEAT_STALE_SECONDS = 300.0

__all__ = ["AttackEvaluation", "evaluate_attack"]


def _telemetry_health(monitor: HeartbeatMonitor) -> dict:
    """The ``/healthz`` payload: heartbeat age plus the run's vital signs."""
    beat = monitor.snapshot()
    age = time.time() - monitor.last_update_time
    return {
        "status": "stale" if age > _HEARTBEAT_STALE_SECONDS else "running",
        "heartbeat_age_seconds": round(age, 3),
        "done": beat.done,
        "total": beat.total,
        "failures": beat.n_failures,
        "elapsed_seconds": round(beat.elapsed_seconds, 3),
        "docs_per_second": round(beat.docs_per_second, 6),
    }


@dataclass
class AttackEvaluation:
    """Aggregate outcome of attacking a set of examples."""

    clean_accuracy: float
    adversarial_accuracy: float
    success_rate: float
    n_examples: int
    n_attacked: int
    mean_time: float
    mean_queries: float
    mean_word_changes: float
    results: list[AttackResult] = field(default_factory=list)
    adversarial_examples: list[Example] = field(default_factory=list)
    #: documents whose attack did not complete (exception or worker crash);
    #: scored as unperturbed survivors, reported rather than silently lost
    failures: list[AttackFailure] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def summary(self) -> dict[str, float]:
        return {
            "clean_accuracy": self.clean_accuracy,
            "adversarial_accuracy": self.adversarial_accuracy,
            "success_rate": self.success_rate,
            "mean_time": self.mean_time,
            "mean_queries": self.mean_queries,
            "mean_word_changes": self.mean_word_changes,
        }


def evaluate_attack(
    model: TextClassifier,
    attack: Attack,
    examples: list[Example],
    max_examples: int | None = None,
    seed: int = 0,
    n_workers: int | None = None,
    journal_path: str | os.PathLike | None = None,
    progress=None,
    trace_dir: str | os.PathLike | None = None,
    trace_every_n: int | None = None,
    delta_scoring: bool | None = None,
    telemetry: TelemetryServer | None = None,
) -> AttackEvaluation:
    """Attack every correctly-classified example and aggregate the outcome.

    The target label is always the flip of the true label (binary,
    untargeted-as-targeted, the paper's setting).

    One of the two entry points that read the environment
    (:mod:`repro.eval.config`): a ``None`` ``n_workers``,
    ``delta_scoring`` or ``trace_every_n``, and the series sampling
    interval, fall back to their ``REPRO_*`` variables, then to serial,
    full forwards, every document and 1 s.

    ``n_workers`` > 1 shards the per-document attack loop across forked
    processes via :class:`~repro.eval.parallel.ParallelAttackRunner`
    (results are deterministic in the worker count; the serial path is
    the same runner with one worker).

    ``journal_path`` appends each completed document to a JSONL run
    journal and resumes from it if it already exists (see module
    docstring).  ``progress`` receives a
    :class:`~repro.eval.progress.Heartbeat` per completed document.

    ``trace_dir`` writes per-document attack traces, ``failures.jsonl``
    and ``metrics.json`` into that directory; ``trace_every_n`` samples
    the traces (every n-th document).

    ``delta_scoring`` sets ``attack.delta_scoring`` for the run and
    restores it afterwards, as ``trace_dir`` does ``attack.tracer``: the
    attack then scores single-edit candidates incrementally
    (:mod:`repro.nn.delta`).  Its results are deterministic at any worker
    count but not bitwise equal to full forwards: candidates whose scores
    tie to within a few ULPs can resolve differently.  A journal records
    the setting, and a resume under the other one is refused.

    ``telemetry`` attaches a caller-owned (typically
    :class:`~repro.experiments.common.ExperimentContext`-owned)
    :class:`~repro.obs.exporter.TelemetryServer`: this run's live
    registry, health and series are published to it while the run is
    alive and frozen into it at the end, so post-run scrapes match
    ``metrics.json``.  With a server or a ``trace_dir``, a
    :class:`~repro.obs.timeseries.TimeSeriesSampler` records the run's
    trajectory — riding the heartbeat in serial runs, on a background
    thread under the pool — into ``series.jsonl`` next to
    ``metrics.json`` when ``trace_dir`` is set.  Telemetry is read-only:
    attack results are bitwise identical with it on or off.
    """
    if not examples:
        raise ValueError("cannot evaluate an attack on zero examples")
    config = RunConfig.from_env(
        n_workers=n_workers,
        delta_scoring=delta_scoring,
        trace_every_n=trace_every_n,
        series_interval=None,
    )
    if max_examples is not None and len(examples) > max_examples:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(examples), size=max_examples, replace=False)
        examples = [examples[i] for i in sorted(idx)]

    docs = [list(ex.tokens) for ex in examples]
    labels = np.array([ex.label for ex in examples])
    preds = model.predict(docs)
    correct = preds == labels
    clean_accuracy = float(correct.mean())

    attacked = [
        (i, docs[i], 1 - examples[i].label)
        for i in range(len(examples))
        if correct[i]
        # misclassified examples are already errors; they stay unperturbed
        # and remain errors in adversarial accuracy
    ]

    # -- journal: load completed outcomes, schedule only the remainder ------
    journal: RunJournal | None = None
    done: dict[int, AttackResult | AttackFailure] = {}
    if journal_path is not None:
        journal = RunJournal(
            journal_path,
            header={
                "seed": seed,
                "attack": attack.name,
                "n_examples": len(examples),
                "delta_scoring": config.delta_scoring,
                "corpus_sha1": corpus_fingerprint(
                    [doc for _, doc, _ in attacked], [t for _, _, t in attacked]
                ),
            },
        )
        done = journal.outcomes()

    # seed index j = position in the attacked sublist of the *full* run, so
    # a resumed remainder reproduces the uninterrupted run's per-doc seeds
    todo = [
        (j, i, doc, target)
        for j, (i, doc, target) in enumerate(attacked)
        if i not in done
    ]
    run_registry = MetricsRegistry()
    context_metrics = getattr(model, "metrics", None)

    def _live_snapshot() -> dict:
        # the run's own counters plus the victim's (context) registry (phase
        # spans, forward batches, delta units) merged flat — the view the
        # series and every exporter endpoint serve.  Called from sampler /
        # HTTP threads while the run mutates both registries; the sampler
        # and the exporter tolerate a raced snapshot (skip / 500), so no
        # locking is imposed on the hot path.
        merged = MetricsRegistry()
        merged.merge(run_registry.snapshot())
        if context_metrics is not None:
            merged.merge(context_metrics.snapshot())
        return merged.snapshot()

    sampler: TimeSeriesSampler | None = None
    if trace_dir is not None or telemetry is not None:
        sampler = TimeSeriesSampler(
            _live_snapshot,
            path=Path(trace_dir) / SERIES_FILENAME if trace_dir is not None else None,
            interval_seconds=config.series_interval,
        )
    monitor = HeartbeatMonitor(
        total=len(attacked),
        callback=progress,
        done=len(done),
        n_failures=sum(1 for o in done.values() if isinstance(o, AttackFailure)),
        metrics=context_metrics,
        registry=run_registry,
        sampler=sampler,
    )
    if telemetry is not None:
        telemetry.publish(
            _live_snapshot,
            health_fn=lambda: _telemetry_health(monitor),
            series_fn=(lambda: sampler.points) if sampler is not None else None,
        )
    seed_to_corpus = {j: i for j, i, _, _ in todo}

    def on_result(j: int, outcome: AttackResult | AttackFailure) -> None:
        if journal is not None:
            journal.record(seed_to_corpus[j], outcome, seed_index=j)
        run_registry.inc("attack/docs")
        if isinstance(outcome, AttackFailure):
            run_registry.inc("attack/failures")
            if trace_dir is not None:
                append_failure(trace_dir, outcome.to_dict())
        else:
            run_registry.inc("attack/successes", float(outcome.success))
            run_registry.inc("attack/n_queries", outcome.n_queries)
            run_registry.inc("attack/cache_hits", outcome.n_cache_hits)
            run_registry.inc("attack/cache_evictions", outcome.n_cache_evictions)
            run_registry.observe("attack/wall_time_seconds", outcome.wall_time)
            run_registry.observe(
                "attack/queries", outcome.n_queries, bounds=_QUERY_BOUNDS
            )
        monitor.update(outcome)

    fresh: dict[int, AttackResult | AttackFailure] = {}
    prior_tracer, prior_delta = attack.tracer, attack.delta_scoring
    if trace_dir is not None:
        attack.tracer = TraceRecorder(trace_dir, trace_every_n=config.trace_every_n)
    attack.delta_scoring = config.delta_scoring
    try:
        if todo:
            if sampler is not None and config.n_workers > 1:
                # pooled chunk results land bursty; a parent-side thread
                # keeps the cadence steady between heartbeats
                sampler.start()
            runner = ParallelAttackRunner(
                attack,
                n_workers=config.n_workers,
                base_seed=seed,
                on_result=on_result,
            )
            outcomes = runner.run(
                [doc for _, _, doc, _ in todo],
                [target for _, _, _, target in todo],
                indices=[j for j, _, _, _ in todo],
            )
            fresh = {i: outcome for (_, i, _, _), outcome in zip(todo, outcomes)}
    finally:
        attack.tracer, attack.delta_scoring = prior_tracer, prior_delta
        if sampler is not None:
            sampler.stop()
    monitor.finish()
    if sampler is not None:
        # after the last worker snapshot merge, so the series'
        # final point reconciles exactly with metrics.json
        sampler.close()
    if telemetry is not None:
        telemetry.freeze()
    # after the last worker snapshot merge: the journal's perf record and
    # metrics.json's context section are one and the same snapshot
    context_snapshot = context_metrics.snapshot() if context_metrics is not None else None
    if journal is not None and context_snapshot is not None:
        journal.record_perf(context_snapshot)
    if trace_dir is not None:
        write_run_metrics(
            trace_dir, run_registry.snapshot(), context_snapshot=context_snapshot
        )

    results: list[AttackResult] = []
    failures: list[AttackFailure] = []
    adv_examples: list[Example] = []
    still_correct = 0
    for i, doc, _ in attacked:
        outcome = done[i] if i in done else fresh[i]
        if isinstance(outcome, AttackFailure):
            # the attack produced nothing: the document stands unperturbed
            # and the (correctly classified) prediction survives
            failures.append(outcome)
            adv_examples.append(Example(tuple(doc), examples[i].label))
            still_correct += 1
            continue
        results.append(outcome)
        adv_examples.append(Example(tuple(outcome.adversarial), examples[i].label))
        if not outcome.success:
            still_correct += 1

    n_attacked = len(results)
    adversarial_accuracy = still_correct / len(examples)
    success_rate = (
        float(np.mean([r.success for r in results])) if results else 0.0
    )
    return AttackEvaluation(
        clean_accuracy=clean_accuracy,
        adversarial_accuracy=float(adversarial_accuracy),
        success_rate=success_rate,
        n_examples=len(examples),
        n_attacked=n_attacked,
        mean_time=float(np.mean([r.wall_time for r in results])) if results else 0.0,
        mean_queries=float(np.mean([r.n_queries for r in results])) if results else 0.0,
        mean_word_changes=float(np.mean([r.n_word_changes for r in results])) if results else 0.0,
        results=results,
        adversarial_examples=adv_examples,
        failures=failures,
    )
