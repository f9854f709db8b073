"""Fault-tolerant process-pool corpus attack runner.

The per-document attack loop is embarrassingly parallel — each document's
search touches the victim's weights read-only — but the substrate is
single-threaded NumPy, so a serial corpus run leaves every core but one
idle.  :class:`ParallelAttackRunner` shards documents across forked worker
processes:

- **fork-shared weights** — workers are created with the ``fork`` start
  method, so the victim's parameter arrays are shared copy-on-write and
  nothing model-sized is ever pickled;
- **per-document seeded RNG** — before each document the worker calls
  :meth:`repro.attacks.base.Attack.reseed` with a seed derived from the
  document *index*, so results are identical for 1 and N workers no matter
  how documents are sharded;
- **chunked scheduling** — documents are dealt into contiguous chunks to
  amortize task dispatch, with a chunk size that keeps every worker busy;
- **ordered result merge** — results come back tagged with their document
  index and are re-assembled into input order;
- **merge-safe perf accounting** — each worker records forwards into its
  own :class:`~repro.eval.perf.PerfRecorder` (carrying its own
  :class:`~repro.obs.registry.MetricsRegistry`, which the worker's phase
  profiler mirrors into) and returns a serializable snapshot per chunk;
  the parent folds snapshots into the shared recorder, so
  ``n_queries``/wall-time/phase accounting stays correct under
  parallelism;
- **per-document tracing** — when a
  :class:`~repro.obs.trace.TraceRecorder` is attached to the attack, each
  worker writes its documents' trace files directly (one JSONL file per
  document, so workers never contend for a file handle);
- **per-document error isolation** — an attack that raises produces a
  structured :class:`~repro.attacks.base.AttackFailure` (document index,
  exception, traceback, seed) in that document's slot instead of aborting
  the run, in both the serial and the pool path;
- **worker-crash recovery** — a dead pool (segfault, OOM-kill,
  ``os._exit`` inside a worker) is detected through the executor's broken
  state; the chunks whose results were lost are retried on a rebuilt pool
  with exponential backoff, a failing chunk is split down to single
  documents to isolate the culprit, a document that repeatedly kills its
  worker is recorded as an :class:`~repro.attacks.base.AttackFailure`
  (``WorkerCrashError``), and if the pool cannot be kept alive within the
  rebuild budget the survivors degrade gracefully to the in-process
  serial path.  Because every retry re-derives the same per-document
  seed, recovered results are bitwise-identical to an undisturbed run;
- **completion hook** — ``on_result(index, outcome)`` fires in the parent
  as each document lands (journaling, heartbeats);
- **graceful serial fallback** — on platforms without ``fork`` (Windows,
  ``spawn``-only configurations) or when one worker is requested, the
  runner degrades to an in-process loop with the same reseeding and error
  isolation, so results never depend on the platform.

- **incremental delta scoring** — with ``REPRO_DELTA_SCORING=1`` (or
  ``delta_scoring=True``) each worker scores single-edit candidates
  incrementally (:mod:`repro.nn.delta`): recurrent victims re-run only
  the suffix after the edit from a cached prefix state, the WCNN
  recomputes only the conv windows overlapping the edit.  Delta-scored
  runs are deterministic at any worker count.

``REPRO_NUM_WORKERS`` overrides the worker count everywhere the runner is
wired in (``evaluate_attack``, the table drivers, the perf benchmark);
unset, the runner defaults to ``os.cpu_count()``.  An unparseable or
non-positive value raises :class:`WorkerCountError` naming the variable;
a value beyond ``os.cpu_count()`` is clamped to it with a warning
(explicit ``n_workers`` arguments are never clamped).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.attacks.base import Attack, AttackFailure, AttackResult
from repro.eval.perf import PerfRecorder
from repro.nn.delta import DeltaScoreFn, delta_scoring_enabled
from repro.obs.registry import MetricsRegistry

__all__ = [
    "ParallelAttackRunner",
    "WorkerCountError",
    "WorkerCrashError",
    "resolve_num_workers",
    "fork_available",
]

#: env var overriding the worker count for every runner-wired entry point
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"


class WorkerCountError(ValueError):
    """``REPRO_NUM_WORKERS`` or an explicit worker count is invalid."""


class WorkerCrashError(RuntimeError):
    """A pool worker died (segfault, OOM-kill, ``os._exit``) mid-attack.

    Never raised out of :meth:`ParallelAttackRunner.run`; its name is
    recorded as the ``error_type`` of the :class:`AttackFailure` produced
    for a document that repeatedly kills its worker.
    """


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_num_workers(n_workers: int | None = None) -> int:
    """Effective worker count: explicit arg > ``REPRO_NUM_WORKERS`` > CPUs.

    Returns 1 (serial) whenever ``fork`` is unavailable, regardless of the
    request — the runner never pickles models through ``spawn``.  Invalid
    values — a non-integer env var, or any count below 1 — raise
    :class:`WorkerCountError` with one consistent message.
    """
    if n_workers is None:
        env = os.environ.get(NUM_WORKERS_ENV, "").strip()
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                raise WorkerCountError(
                    f"{NUM_WORKERS_ENV} must be a positive integer, got {env!r}"
                ) from None
            if n_workers < 1:
                raise WorkerCountError(
                    f"{NUM_WORKERS_ENV} must be a positive integer, got {env!r}"
                )
            cpus = os.cpu_count() or 1
            if n_workers > cpus:
                # an env-derived count beyond the machine would silently
                # oversubscribe every runner-wired entry point; explicit
                # n_workers arguments stay untouched (tests and callers may
                # deliberately oversubscribe)
                warnings.warn(
                    f"{NUM_WORKERS_ENV}={n_workers} exceeds os.cpu_count()="
                    f"{cpus}; clamping to {cpus} workers",
                    RuntimeWarning,
                    stacklevel=2,
                )
                n_workers = cpus
        else:
            n_workers = os.cpu_count() or 1
    elif n_workers < 1:
        raise WorkerCountError(f"n_workers must be >= 1, got {n_workers}")
    if not fork_available():
        return 1
    return n_workers


def _document_seed(base_seed: int, doc_index: int) -> int:
    """Stable per-document seed, independent of sharding."""
    return (base_seed * 1_000_003 + doc_index) & 0x7FFFFFFF


def _attack_one(
    attack: Attack, idx: int, doc: list[str], target: int, base_seed: int
) -> AttackResult | AttackFailure:
    """Reseed and attack one document, isolating any raised exception."""
    seed = _document_seed(base_seed, idx)
    attack.reseed(seed)
    # open the per-document trace here (not inside attack()) so the trace
    # carries the runner's seed index and the run's per-document seed, and
    # so attack_error events from a raising attack still reach disk
    tracer = getattr(attack, "tracer", None)
    trace = tracer.document(idx, seed=seed) if tracer is not None else None
    attack._trace = trace
    try:
        return attack.attack(doc, target)
    except Exception as exc:  # noqa: BLE001 - one bad doc must not kill the run
        return AttackFailure(
            doc_index=idx,
            target_label=target,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=traceback.format_exc(),
            seed=seed,
            original=list(doc),
        )
    finally:
        attack._trace = None
        if trace is not None:
            trace.close()


# Worker-side state, populated by the pool initializer.  With the fork
# start method the initializer arguments are inherited through os.fork,
# never pickled, so the attack (and the model weights hanging off it)
# stay shared copy-on-write.
_WORKER: dict = {}


def _init_worker(
    attack: Attack, base_seed: int, track_perf: bool, delta_scoring: bool = False
) -> None:
    _WORKER["attack"] = attack
    _WORKER["base_seed"] = base_seed
    # for_model returns None when the model has no delta kernel, which
    # set_score_fn treats as the legacy in-process path
    attack.set_score_fn(DeltaScoreFn.for_model(attack.model) if delta_scoring else None)
    profiler = getattr(attack, "profiler", None)
    if track_perf:
        recorder = PerfRecorder(registry=MetricsRegistry())
        attack.model.perf = recorder
        if profiler is not None:
            # worker phase spans mirror into the worker's own registry,
            # which rides home inside each chunk's perf snapshot
            profiler.registry = recorder.registry
    else:
        recorder = None
        # detach the fork-copied parent recorder: an untracked run must not
        # pay recording overhead into an object the parent never reads
        if getattr(attack.model, "perf", None) is not None:
            attack.model.perf = None
        if profiler is not None:
            profiler.registry = None
    _WORKER["recorder"] = recorder


def _attack_chunk(items: list[tuple[int, list[str], int]]):
    """Run one chunk; return indexed outcomes + this chunk's perf snapshot."""
    attack: Attack = _WORKER["attack"]
    recorder: PerfRecorder | None = _WORKER["recorder"]
    if recorder is not None:
        recorder.reset()
    out = []
    for idx, doc, target in items:
        out.append((idx, _attack_one(attack, idx, doc, target, _WORKER["base_seed"])))
    return out, (recorder.snapshot() if recorder is not None else None)


@dataclass
class _Chunk:
    """A retryable unit of pool work."""

    items: list[tuple[int, list[str], int]]
    crashes: int = 0  # pool breaks this chunk caused while running *alone*


@dataclass
class RunnerFaultPolicy:
    """Retry/backoff policy for worker-crash recovery.

    When a pool breaks, every chunk whose results never arrived is lost —
    the culprit and any innocent chunks that were in flight alongside it.
    Recovery therefore escalates in three blame-narrowing stages:

    1. a lost multi-document chunk is **split** into single-document
       chunks and retried on the next shared pool (innocents complete,
       the culprit breaks the pool again);
    2. a single document lost from a shared pool becomes a **suspect**
       and is re-run alone — one chunk on a one-worker pool — so a break
       is unambiguously its fault;
    3. a suspect that breaks more than ``max_chunk_retries`` solo pools
       is convicted: recorded as a ``WorkerCrashError``
       :class:`~repro.attacks.base.AttackFailure` and never retried.

    Every broken pool counts against ``max_pool_rebuilds``; past the
    budget the runner stops forking and finishes everything still pending
    on the in-process serial path.  Broken round *r* sleeps
    ``backoff_seconds * 2**(r-1)`` before the next pool is forked.
    """

    max_chunk_retries: int = 2
    max_pool_rebuilds: int = 8
    backoff_seconds: float = 0.05


class ParallelAttackRunner:
    """Shard a corpus attack across worker processes, surviving faults.

    Parameters
    ----------
    attack:
        The attack to run; forked into each worker (weights shared
        copy-on-write, per-worker mutable state independent).
    n_workers:
        Worker count; ``None`` resolves via :func:`resolve_num_workers`
        (``REPRO_NUM_WORKERS`` override, then ``os.cpu_count()``).
    chunk_size:
        Documents per task.  ``None`` picks ``ceil(n_docs / (4 *
        n_workers))`` — small enough to balance uneven per-document attack
        cost, large enough to amortize dispatch.
    base_seed:
        Base of the per-document reseeding mix.
    perf:
        Recorder that receives the merged worker snapshots.  Defaults to
        the attack's model recorder (``attack.model.perf``) when attached.
    fault_policy:
        Crash-recovery knobs; see :class:`RunnerFaultPolicy`.
    on_result:
        ``on_result(index, outcome)`` invoked in the parent process as
        each document's :class:`AttackResult`/:class:`AttackFailure`
        lands (completion order, not input order).  Used for journaling
        and heartbeats; exceptions it raises abort the run.
    delta_scoring:
        Scores single-edit candidates incrementally (:mod:`repro.nn.delta`)
        by installing a :class:`~repro.nn.delta.DeltaScoreFn` per worker;
        :mod:`repro.nn.delta` documents how its results relate to full
        forwards.  The default of ``None`` defers to
        ``REPRO_DELTA_SCORING``.
    """

    def __init__(
        self,
        attack: Attack,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        base_seed: int = 0,
        perf: PerfRecorder | None = None,
        fault_policy: RunnerFaultPolicy | None = None,
        on_result: Callable[[int, AttackResult | AttackFailure], None] | None = None,
        delta_scoring: bool | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.attack = attack
        self.n_workers = resolve_num_workers(n_workers)
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.perf = perf if perf is not None else getattr(attack.model, "perf", None)
        self.fault_policy = fault_policy or RunnerFaultPolicy()
        self.on_result = on_result
        self.delta_scoring = delta_scoring

    def _resolve_delta(self) -> bool:
        if self.delta_scoring is None:
            return delta_scoring_enabled()
        return bool(self.delta_scoring)

    @classmethod
    def from_registry(
        cls,
        name: str,
        model,
        *,
        word_paraphraser=None,
        sentence_paraphraser=None,
        attack_kwargs: dict | None = None,
        **runner_kwargs,
    ) -> "ParallelAttackRunner":
        """Build a runner for a registry attack resolved by name.

        The registry specs and their builders are module-level objects, so
        the resulting engine (and everything reachable from it) pickles —
        workers inherit it through ``fork`` without any per-attack shims.
        ``attack_kwargs`` goes to the attack constructor; everything else to
        :class:`ParallelAttackRunner`.
        """
        from repro.attacks.registry import build_attack

        attack = build_attack(
            name,
            model,
            word_paraphraser=word_paraphraser,
            sentence_paraphraser=sentence_paraphraser,
            **(attack_kwargs or {}),
        )
        return cls(attack, **runner_kwargs)

    # -- execution ----------------------------------------------------------
    def run(
        self,
        docs: Sequence[Sequence[str]],
        targets: Sequence[int],
        indices: Sequence[int] | None = None,
    ) -> list[AttackResult | AttackFailure]:
        """Attack every ``(doc, target)`` pair; outcomes in input order.

        ``indices`` overrides the per-document seed indices (default
        ``0..n-1``).  A resumed run passes each document's index from the
        original uninterrupted schedule, so the per-document seeds — and
        therefore the results — are unchanged by which documents were
        already journaled.
        """
        if len(docs) != len(targets):
            raise ValueError(
                f"got {len(docs)} documents but {len(targets)} target labels"
            )
        if indices is None:
            indices = range(len(docs))
        elif len(indices) != len(docs):
            raise ValueError(
                f"got {len(docs)} documents but {len(indices)} seed indices"
            )
        items = [
            (int(idx), list(doc), int(target))
            for idx, doc, target in zip(indices, docs, targets)
        ]
        if len({idx for idx, _, _ in items}) != len(items):
            raise ValueError("seed indices must be unique")
        if not items:
            return []
        n_workers = min(self.n_workers, len(items))
        if n_workers <= 1:
            outcomes = self._run_serial(items)
        else:
            outcomes = self._run_pool(items, n_workers)
        return [outcomes[idx] for idx, _, _ in items]

    def _emit(self, idx: int, outcome: AttackResult | AttackFailure) -> None:
        if self.on_result is not None:
            self.on_result(idx, outcome)

    def _run_serial(
        self,
        items: list[tuple[int, list[str], int]],
        outcomes: dict[int, AttackResult | AttackFailure] | None = None,
    ) -> dict[int, AttackResult | AttackFailure]:
        """In-process path: same reseeding and error isolation, direct
        perf accounting (the model's recorder stays attached)."""
        if outcomes is None:
            outcomes = {}
        attack = self.attack
        if self._resolve_delta():
            attack.set_score_fn(DeltaScoreFn.for_model(attack.model))
        try:
            for idx, doc, target in items:
                outcome = _attack_one(attack, idx, doc, target, self.base_seed)
                outcomes[idx] = outcome
                self._emit(idx, outcome)
        finally:
            attack.set_score_fn(None)
        return outcomes

    def _chunks(
        self, items: list[tuple[int, list[str], int]], n_workers: int
    ) -> list[_Chunk]:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(items) // (4 * n_workers)))
        return [
            _Chunk(items[start : start + size])
            for start in range(0, len(items), size)
        ]

    def _run_pool(
        self, items: list[tuple[int, list[str], int]], n_workers: int
    ) -> dict[int, AttackResult | AttackFailure]:
        """Pool path with crash recovery.

        Each round submits the pending chunks to a fresh executor.  A
        clean round drains everything; a broken pool leaves the chunks
        whose results never arrived, which the fault policy retries,
        splits, or converts to failures before the next round.
        """
        policy = self.fault_policy
        track_perf = self.perf is not None
        ctx = multiprocessing.get_context("fork")
        outcomes: dict[int, AttackResult | AttackFailure] = {}
        shared: deque[_Chunk] = deque(self._chunks(items, n_workers))
        suspects: deque[_Chunk] = deque()
        rebuilds = 0
        while shared or suspects:
            if shared:
                chunks, workers, solo = list(shared), n_workers, False
                shared.clear()
            else:
                # suspects run one at a time on a one-worker pool so a
                # break is unambiguously their fault
                chunks, workers, solo = [suspects.popleft()], 1, True
            lost = self._pool_round(chunks, workers, ctx, track_perf, outcomes)
            if not lost:
                continue
            rebuilds += 1
            if rebuilds > policy.max_pool_rebuilds:
                # the pool cannot be kept alive: degrade to in-process
                # serial for every document still unaccounted for
                survivors = [
                    item
                    for chunk in [*lost, *shared, *suspects]
                    for item in chunk.items
                    if item[0] not in outcomes
                ]
                self._run_serial(survivors, outcomes)
                break
            self._reschedule(lost, solo, shared, suspects, outcomes)
            time.sleep(policy.backoff_seconds * 2 ** (rebuilds - 1))
        return outcomes

    def _pool_round(
        self,
        chunks: list[_Chunk],
        n_workers: int,
        ctx,
        track_perf: bool,
        outcomes: dict[int, AttackResult | AttackFailure],
    ) -> list[_Chunk]:
        """One executor lifetime; returns the chunks whose results were lost."""
        completed: set[int] = set()
        executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.attack, self.base_seed, track_perf, self._resolve_delta()),
        )
        try:
            futures = {}
            for chunk in chunks:
                futures[executor.submit(_attack_chunk, chunk.items)] = chunk
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    chunk_out, snapshot = future.result()
                except Exception:  # noqa: BLE001 - a dead pool or a poisoned
                    # chunk (e.g. an unpicklable result) must be isolated, not
                    # fatal; the retry path splits it and the serial fallback
                    # sidesteps pickling entirely
                    continue
                completed.add(id(chunk))
                for idx, outcome in chunk_out:
                    outcomes[idx] = outcome
                    self._emit(idx, outcome)
                if snapshot is not None and self.perf is not None:
                    self.perf.merge(snapshot)
        except BrokenProcessPool:
            # the pool can also break during submission; every chunk without
            # a completed result is picked up as lost below
            pass
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        return [chunk for chunk in chunks if id(chunk) not in completed]

    def _reschedule(
        self,
        lost: list[_Chunk],
        solo: bool,
        shared: deque[_Chunk],
        suspects: deque[_Chunk],
        outcomes: dict[int, AttackResult | AttackFailure],
    ) -> None:
        """Apply the blame-narrowing fault policy to a broken round's losses."""
        policy = self.fault_policy
        for chunk in lost:
            if len(chunk.items) > 1:
                # stage 1: split; innocents complete on the next shared
                # pool, the culprit breaks it again and becomes a suspect
                shared.extend(_Chunk([item]) for item in chunk.items)
                continue
            if not solo:
                # stage 2: lost from a shared pool — could be collateral
                # damage of another chunk's crash; verify alone
                suspects.append(chunk)
                continue
            # stage 3: it broke a pool it had to itself — its fault
            chunk.crashes += 1
            if chunk.crashes <= policy.max_chunk_retries:
                suspects.append(chunk)
                continue
            idx, doc, target = chunk.items[0]
            failure = AttackFailure(
                doc_index=idx,
                target_label=target,
                error_type=WorkerCrashError.__name__,
                error_message=(
                    f"worker process died while attacking document {idx} "
                    f"({chunk.crashes} solo attempts)"
                ),
                traceback="",
                seed=_document_seed(self.base_seed, idx),
                original=list(doc),
            )
            outcomes[idx] = failure
            self._emit(idx, failure)
