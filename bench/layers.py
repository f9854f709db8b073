"""Outside-in span timers around each layer's public entry points.

:class:`Tracer` keeps a stack of open spans.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
layers plus the root span's own self time add up to the traced wall time.
A span nested inside an open span of the same name adds its self time to
that layer but is not counted as another call: recursion through a
subclass (``AttackEngine._score_batch`` calling ``Attack._score_batch``)
is one scoring call.

:func:`install` wraps the program's entry points from the outside, in the
benchmark's own process; nothing under ``src/`` knows it is traced.  The
hottest entry points (``ScoreCache.get``/``put``, ``DocumentTrace.emit``)
are counted and timed but not recorded as spans: a run makes hundreds of
thousands of those calls.
"""

from __future__ import annotations

import json
import time

#: model class name -> the family name used in layer names
FAMILIES = {"WCNN": "wcnn", "LSTMClassifier": "lstm", "GRUClassifier": "gru"}

#: the root span; its self time is the time no layer accounts for
ROOT = "bench"


def family(model) -> str:
    name = type(model).__name__
    return FAMILIES.get(name, name.lower())


class Tracer:
    """Span stack, per-layer aggregates and the in-memory span log."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: finished spans as (name, start, end, parent span id, document id);
        #: a span's id is its index here
        self.spans: list = []
        #: layer name -> [calls, items, self seconds]
        self.layers: dict[str, list] = {}
        #: free-standing counters (cache hits, trace events, cells)
        self.counters: dict[str, float] = {}
        #: document id stamped on spans as they close: ``<cell tag>/<doc index>``
        #: inside a document, the cell tag between documents
        self.doc: str | None = None
        #: every delta score function seen, by id, for its work counters
        self.delta_fns: dict = {}
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._open: dict[str, int] = {}

    def _layer(self, name: str) -> list:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = [0, 0, 0.0]
        return stats

    def enter(self, name: str, items: int = 0) -> None:
        depth = self._open.get(name, 0)
        if not depth:
            stats = self._layer(name)
            stats[0] += 1
            stats[1] += items
        self._open[name] = depth + 1
        span_id = len(self.spans)
        self.spans.append(None)  # filled on exit; children point at the id
        self._stack.append([name, self.clock(), 0.0, span_id])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self._layer(name)[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[span_id] = (
            name,
            start,
            end,
            parent[3] if parent is not None else None,
            self.doc,
        )

    def tick(self, name: str, seconds: float) -> None:
        """Account one call that is timed but not recorded as a span."""
        stats = self._layer(name)
        stats[0] += 1
        stats[2] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0, 0.0))[0]

    def items(self, name: str) -> int:
        return self.layers.get(name, (0, 0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0, 0.0))[2]

    def write(self, path) -> None:
        """Write every span as one JSON line, times from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, doc) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "doc": doc,
                        }
                    )
                    + "\n"
                )


# -- wrapping ---------------------------------------------------------------
def patch(owner, attr: str, replacement, patches: list) -> None:
    """Set ``owner.attr``, remembering what :func:`uninstall` restores."""
    patches.append((owner, attr, vars(owner).get(attr)))
    setattr(owner, attr, replacement)


def uninstall(patches: list) -> None:
    """Undo every :func:`patch`, newest first."""
    while patches:
        owner, attr, original = patches.pop()
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def wrap(tracer: Tracer, owner, attr: str, name, items=None, patches=None) -> None:
    """Replace ``owner.attr`` with a span-timed wrapper.

    ``name`` is a layer name or a function of the call's positional
    arguments returning one (per-family layers); ``items`` maps the
    arguments to the work count the layer reports (rows, candidates).
    """
    original = getattr(owner, attr)
    enter, exit_ = tracer.enter, tracer.exit
    static = isinstance(name, str)

    def wrapper(*args, **kwargs):
        enter(name if static else name(args), items(args) if items is not None else 0)
        try:
            return original(*args, **kwargs)
        finally:
            exit_()

    patch(owner, attr, wrapper, patches if patches is not None else [])


def install(tracer: Tracer) -> list:
    """Wrap the public entry points of every layer the workloads cross.

    Returns the patch list for :func:`uninstall`.
    """
    from repro.attacks import base, engine, paraphrase
    from repro.attacks.cache import ScoreCache
    from repro.defense.smoothing import SmoothedClassifier
    from repro.eval import parallel
    from repro.eval.journal import RunJournal
    from repro.experiments import grid
    from repro.experiments.common import ExperimentContext
    from repro.models.base import TextClassifier
    from repro.obs.trace import DocumentTrace
    from repro.nn.delta import DeltaScoreFn
    from repro.text.vocab import Vocabulary

    patches: list = []

    def span(owner, attr, name, items=None):
        wrap(tracer, owner, attr, name, items, patches)

    def rows(args):
        return len(args[1])

    span(TextClassifier, "predict_proba", lambda a: f"models.kernel.{family(a[0])}", rows)
    span(TextClassifier, "embedding_gradient", "models.gradient")
    span(SmoothedClassifier, "predict_proba", "defense.smoothing", rows)
    span(Vocabulary, "encode_batch", "text.encode", rows)
    span(base.Attack, "attack", "attacks.search")
    span(base.Attack, "_score_batch", "attacks.score", rows)
    span(engine.AttackEngine, "_score_batch", "attacks.score", rows)
    span(engine.AttackEngine, "index", "attacks.index")
    span(paraphrase.WordParaphraser, "neighbor_sets", "attacks.paraphrase.word")
    span(paraphrase.SentenceParaphraser, "neighbor_sets", "attacks.paraphrase.sentence")
    span(grid, "evaluate_attack", "eval.evaluate_attack")
    span(parallel.ParallelAttackRunner, "run", "eval.parallel")
    span(RunJournal, "record", "eval.journal")
    span(ExperimentContext, "make_attack", "experiments")

    enter, exit_ = tracer.enter, tracer.exit
    evaluate_cell = grid.GridRunner.evaluate_cell
    attack_one = parallel._attack_one
    delta_call = DeltaScoreFn.__call__

    def cell_span(runner, cell, *args, **kwargs):
        # the cell boundary stamps the cell tag on the spans inside it
        tracer.doc = cell.tag
        tracer.count("experiments.cells")
        enter("experiments")
        try:
            return evaluate_cell(runner, cell, *args, **kwargs)
        finally:
            exit_()
            tracer.doc = None

    def document_span(attack, idx, *args, **kwargs):
        # the runner's per-document call is where the document index is known
        cell = tracer.doc
        tracer.doc = f"{cell}/{idx}"
        enter("eval.parallel")
        try:
            return attack_one(attack, idx, *args, **kwargs)
        finally:
            exit_()
            tracer.doc = cell

    def delta_span(fn, docs, *args, **kwargs):
        tracer.delta_fns[id(fn)] = fn
        enter(f"nn.delta.{family(fn.model)}", len(docs))
        try:
            return delta_call(fn, docs, *args, **kwargs)
        finally:
            exit_()

    # hot paths: counted and timed, no span
    clock, tick, count = tracer.clock, tracer.tick, tracer.count
    cache_get, cache_put = ScoreCache.get, ScoreCache.put
    emit, close = DocumentTrace.emit, DocumentTrace.close

    def timed_get(cache, key):
        tic = clock()
        score = cache_get(cache, key)
        tick("attacks.cache", clock() - tic)
        count("attacks.cache.gets")
        if score is not None:
            count("attacks.cache.hits")
        return score

    def timed_put(cache, key, score):
        tic = clock()
        cache_put(cache, key, score)
        tick("attacks.cache", clock() - tic)

    def timed_emit(trace, kind, **fields):
        tic = clock()
        emit(trace, kind, **fields)
        tick("obs.trace", clock() - tic)
        count("obs.trace.events")

    def timed_close(trace):
        tic = clock()
        close(trace)
        tick("obs.trace", clock() - tic)

    for owner, attr, replacement in (
        (grid.GridRunner, "evaluate_cell", cell_span),
        (parallel, "_attack_one", document_span),
        (DeltaScoreFn, "__call__", delta_span),
        (ScoreCache, "get", timed_get),
        (ScoreCache, "put", timed_put),
        (DocumentTrace, "emit", timed_emit),
        (DocumentTrace, "close", timed_close),
    ):
        patch(owner, attr, replacement, patches)
    return patches


# -- per-layer metrics ------------------------------------------------------
#: layers whose self time the traced run reports, as ``<layer>.self_frac``
SELF_FRAC_LAYERS = (
    "models.kernel.wcnn",
    "models.kernel.lstm",
    "models.gradient",
    "nn.delta.wcnn",
    "nn.delta.lstm",
    "attacks.search",
    "attacks.index",
    "attacks.score",
    "attacks.cache",
    "attacks.paraphrase.word",
    "attacks.paraphrase.sentence",
    "text.encode",
    "defense.smoothing",
    "eval.evaluate_attack",
    "eval.parallel",
    "eval.journal",
    "obs.trace",
    "experiments",
)


def layer_table(tracer: Tracer) -> dict:
    """Every layer's calls, items and self seconds, for the output file."""
    return {
        name: {"calls": calls, "items": items, "self_s": self_s}
        for name, (calls, items, self_s) in sorted(tracer.layers.items())
    }


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced run whose root span lasted ``wall``.

    Self times are shares of the traced wall time, so a layer a workload
    never reaches reads 0 rather than a duration of exactly zero seconds.
    """
    out: dict[str, float] = {
        f"{name}.self_frac": tracer.self_s(name) / wall for name in SELF_FRAC_LAYERS
    }
    kernels = [n for n in tracer.layers if n.startswith("models.kernel.")]
    kernel_calls = sum(tracer.calls(n) for n in kernels)
    kernel_rows = sum(tracer.items(n) for n in kernels)
    deltas = [n for n in tracer.layers if n.startswith("nn.delta.")]
    # forward reduction over every score function, as DeltaScoreFn defines it
    stats = [fn.stats for fn in tracer.delta_fns.values()]
    spent = sum(s["delta_units"] + s["full_units"] + s["state_build_units"] for s in stats)
    gets = tracer.counters.get("attacks.cache.gets", 0)
    out.update(
        {
            "models.kernel.calls": kernel_calls,
            "models.kernel.rows": kernel_rows,
            "models.kernel.rows_per_call": kernel_rows / kernel_calls if kernel_calls else 0.0,
            "models.gradient.calls": tracer.calls("models.gradient"),
            "nn.delta.calls": sum(tracer.calls(n) for n in deltas),
            "nn.delta.candidates": sum(s["delta_candidates"] for s in stats),
            "nn.delta.forward_reduction": (
                sum(s["reference_units"] for s in stats) / spent if spent else 0.0
            ),
            "attacks.score.calls": tracer.calls("attacks.score"),
            "attacks.score.candidates": tracer.items("attacks.score"),
            "attacks.cache.calls": tracer.calls("attacks.cache"),
            "attacks.cache.hit_frac": (
                tracer.counters.get("attacks.cache.hits", 0) / gets if gets else 0.0
            ),
            "attacks.paraphrase.word.calls": tracer.calls("attacks.paraphrase.word"),
            "attacks.paraphrase.sentence.calls": tracer.calls("attacks.paraphrase.sentence"),
            "text.encode.calls": tracer.calls("text.encode"),
            "defense.smoothing.calls": tracer.calls("defense.smoothing"),
            "eval.journal.calls": tracer.calls("eval.journal"),
            "obs.trace.events": tracer.counters.get("obs.trace.events", 0),
            "experiments.cells": tracer.counters.get("experiments.cells", 0),
            "bench.unattributed_frac": tracer.self_s(ROOT) / wall,
        }
    )
    return out
