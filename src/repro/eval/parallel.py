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
- **merge-safe metrics** — each worker attaches its own
  :class:`~repro.obs.registry.MetricsRegistry` to the victim and the phase
  profiler and returns the registry's snapshot per chunk; the parent
  merges the snapshots into the runner's registry
  (:meth:`~repro.obs.registry.MetricsRegistry.merge`), so forward, delta
  and phase counters stay correct under parallelism;
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

Workers run the attack as the parent configured it, its
``delta_scoring`` flag included (:mod:`repro.nn.delta`): they inherit it
through fork.  The runner takes plain values: one worker (serial) unless
told otherwise.  ``REPRO_NUM_WORKERS`` is resolved once, by
:mod:`repro.eval.config` at the entry points.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.attacks.base import Attack, AttackFailure, AttackResult
from repro.obs.registry import MetricsRegistry

__all__ = [
    "ParallelAttackRunner",
    "WorkerCountError",
    "WorkerCrashError",
    "resolve_num_workers",
    "fork_available",
]


class WorkerCountError(ValueError):
    """A worker count (``REPRO_NUM_WORKERS`` or an explicit one) is invalid."""


class WorkerCrashError(RuntimeError):
    """A pool worker died (segfault, OOM-kill, ``os._exit``) mid-attack.

    Never raised out of :meth:`ParallelAttackRunner.run`; its name is
    recorded as the ``error_type`` of the :class:`AttackFailure` produced
    for a document that repeatedly kills its worker.
    """


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_num_workers(n_workers: int = 1) -> int:
    """Effective worker count for an explicit request.

    Returns 1 (serial) whenever ``fork`` is unavailable, regardless of the
    request — the runner never pickles models through ``spawn``.  A count
    below 1 raises :class:`WorkerCountError`.
    """
    if n_workers < 1:
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
# never pickled, so the attack (its delta_scoring flag and the model
# weights hanging off it) stays shared copy-on-write.
_WORKER: dict = {}


def _init_worker(attack: Attack, base_seed: int, track_metrics: bool) -> None:
    _WORKER["attack"] = attack
    _WORKER["base_seed"] = base_seed
    # a fresh registry, or none: the fork-copied parent registry is never
    # read again, so an untracked worker must not pay for recording into it
    registry = MetricsRegistry() if track_metrics else None
    attack.model.metrics = registry
    profiler = getattr(attack, "profiler", None)
    if profiler is not None:
        profiler.registry = registry
    _WORKER["metrics"] = registry


def _attack_chunk(items: list[tuple[int, list[str], int]]):
    """Run one chunk; return indexed outcomes + this chunk's metrics snapshot."""
    attack: Attack = _WORKER["attack"]
    registry: MetricsRegistry | None = _WORKER["metrics"]
    if registry is not None:
        registry.reset()
    out = []
    for idx, doc, target in items:
        out.append((idx, _attack_one(attack, idx, doc, target, _WORKER["base_seed"])))
    return out, (registry.snapshot() if registry is not None else None)


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
        Worker count (default 1, serial); see :func:`resolve_num_workers`.
    chunk_size:
        Documents per task.  ``None`` picks ``ceil(n_docs / (4 *
        n_workers))`` — small enough to balance uneven per-document attack
        cost, large enough to amortize dispatch.
    base_seed:
        Base of the per-document reseeding mix.
    metrics:
        :class:`~repro.obs.registry.MetricsRegistry` that receives the
        merged worker snapshots.  Defaults to the attack's model registry
        (``attack.model.metrics``) when attached.
    fault_policy:
        Crash-recovery knobs; see :class:`RunnerFaultPolicy`.
    on_result:
        ``on_result(index, outcome)`` invoked in the parent process as
        each document's :class:`AttackResult`/:class:`AttackFailure`
        lands (completion order, not input order).  Used for journaling
        and heartbeats; exceptions it raises abort the run.
    """

    def __init__(
        self,
        attack: Attack,
        n_workers: int = 1,
        chunk_size: int | None = None,
        base_seed: int = 0,
        metrics: MetricsRegistry | None = None,
        fault_policy: RunnerFaultPolicy | None = None,
        on_result: Callable[[int, AttackResult | AttackFailure], None] | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.attack = attack
        self.n_workers = resolve_num_workers(n_workers)
        self.chunk_size = chunk_size
        self.base_seed = base_seed
        self.metrics = metrics if metrics is not None else getattr(attack.model, "metrics", None)
        self.fault_policy = fault_policy or RunnerFaultPolicy()
        self.on_result = on_result

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
        """In-process path: same reseeding and error isolation; the model
        records straight into its attached registry."""
        if outcomes is None:
            outcomes = {}
        for idx, doc, target in items:
            outcome = _attack_one(self.attack, idx, doc, target, self.base_seed)
            outcomes[idx] = outcome
            self._emit(idx, outcome)
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
        track_metrics = self.metrics is not None
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
            lost = self._pool_round(chunks, workers, ctx, track_metrics, outcomes)
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
        track_metrics: bool,
        outcomes: dict[int, AttackResult | AttackFailure],
    ) -> list[_Chunk]:
        """One executor lifetime; returns the chunks whose results were lost."""
        completed: set[int] = set()
        executor = ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self.attack, self.base_seed, track_metrics),
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
                # merged first, so the chunk's heartbeats count its forwards
                if snapshot is not None and self.metrics is not None:
                    self.metrics.merge(snapshot)
                for idx, outcome in chunk_out:
                    outcomes[idx] = outcome
                    self._emit(idx, outcome)
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
