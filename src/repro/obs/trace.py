"""Structured attack tracing: schema-versioned JSONL per document.

Every attack emits events into a :class:`DocumentTrace` while it runs —
``attack_start``, one ``greedy_iteration`` per accepted move (position
chosen, candidate count, best objective, marginal gain, lazy-heap
rescans), one ``forward`` per scored batch (model forwards actually
paid vs. cache hits, so summed ``n_forwards`` reconciles exactly with
``AttackResult.n_queries``), ``cache_hit``, and ``attack_end`` with the
final verdict.  Traces are written one JSONL file per document
(``trace-<doc_index>.jsonl``) so forked pool workers never contend for a
file, and a crashed retry simply rewrites its document's file.

Tracing is opt-in and sampled: :class:`TraceRecorder` only materializes
a trace for every ``trace_every_n``-th document (default 1 = every
document), so full-corpus runs stay cheap.  With no recorder attached
the per-event hook in ``Attack`` is a single ``None`` check.

Every line carries ``v`` (schema version), ``kind``, ``doc_index`` and
``t`` (seconds since the document's attack started).  Unknown extra
fields are tolerated by :func:`validate_trace_line`; missing required
fields or wrong types are not.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from pathlib import Path

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "EVENT_FIELDS",
    "TraceSchemaError",
    "DocumentTrace",
    "TraceRecorder",
    "read_trace",
    "iter_trace_files",
    "validate_trace_line",
    "validate_run_dir",
]

TRACE_SCHEMA_VERSION = 1

_INT = "int"
_FLOAT = "float"
_STR = "str"
_BOOL = "bool"
_INT_LIST = "list[int]"
_OPT_INT = "int|null"

#: required fields (name -> type tag) per event kind; extra fields are
#: allowed, so attacks can attach kind-specific detail without a schema
#: bump
EVENT_FIELDS: dict[str, dict[str, str]] = {
    "attack_start": {
        "attack": _STR,
        "target_label": _INT,
        "n_tokens": _INT,
        "seed": _OPT_INT,
    },
    "greedy_iteration": {
        "stage": _STR,
        "iteration": _INT,
        "positions": _INT_LIST,
        "n_candidates": _INT,
        "best_objective": _FLOAT,
        "marginal_gain": _FLOAT,
        "rescans": _INT,
    },
    "forward": {
        "op": _STR,
        "n_docs": _INT,
        "n_forwards": _INT,
        "n_cache_hits": _INT,
    },
    "cache_hit": {"n_hits": _INT},
    "attack_end": {
        "success": _BOOL,
        "n_queries": _INT,
        "n_cache_hits": _INT,
        "wall_time": _FLOAT,
        "n_word_changes": _INT,
        "adversarial_prob": _FLOAT,
    },
    "attack_error": {"error_type": _STR, "error_message": _STR},
}

_BASE_FIELDS: dict[str, str] = {"v": _INT, "kind": _STR, "doc_index": _INT, "t": _FLOAT}


class TraceSchemaError(ValueError):
    """A trace line does not conform to the event schema."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_type(value, tag: str) -> bool:
    if tag == _INT:
        return _is_int(value)
    if tag == _FLOAT:
        return _is_int(value) or isinstance(value, float)
    if tag == _STR:
        return isinstance(value, str)
    if tag == _BOOL:
        return isinstance(value, bool)
    if tag == _INT_LIST:
        return isinstance(value, list) and all(_is_int(v) for v in value)
    if tag == _OPT_INT:
        return value is None or _is_int(value)
    raise AssertionError(f"unknown schema type tag {tag!r}")


def validate_trace_line(payload: dict) -> None:
    """Raise :class:`TraceSchemaError` unless ``payload`` is a valid event.

    Required fields must be present with the right type; unknown extra
    fields are tolerated (forward compatibility for richer events).
    """
    if not isinstance(payload, dict):
        raise TraceSchemaError(f"trace line must be an object, got {type(payload).__name__}")
    for name, tag in _BASE_FIELDS.items():
        if name not in payload:
            raise TraceSchemaError(f"trace line missing base field {name!r}")
        if not _check_type(payload[name], tag):
            raise TraceSchemaError(
                f"trace field {name!r} must be {tag}, got {payload[name]!r}"
            )
    if payload["v"] != TRACE_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported trace schema version {payload['v']!r} "
            f"(this reader understands {TRACE_SCHEMA_VERSION})"
        )
    kind = payload["kind"]
    fields = EVENT_FIELDS.get(kind)
    if fields is None:
        raise TraceSchemaError(f"unknown trace event kind {kind!r}")
    for name, tag in fields.items():
        if name not in payload:
            raise TraceSchemaError(f"{kind} event missing field {name!r}")
        if not _check_type(payload[name], tag):
            raise TraceSchemaError(
                f"{kind} field {name!r} must be {tag}, got {payload[name]!r}"
            )


class DocumentTrace:
    """Event sink for one document's attack; one JSONL file on close.

    Events are buffered in memory and written in a single pass by
    :meth:`close` so the file on disk is always a sequence of complete
    lines (a retried document overwrites its file atomically enough for
    our purposes).  ``t`` is seconds since this trace was opened.
    """

    __slots__ = ("path", "doc_index", "seed", "events", "_start")

    def __init__(self, path: str | Path, doc_index: int, seed: int | None = None) -> None:
        self.path = Path(path)
        self.doc_index = int(doc_index)
        self.seed = seed
        self.events: list[dict] = []
        self._start = time.perf_counter()

    def emit(self, kind: str, **fields) -> None:
        self.events.append(
            {
                "v": TRACE_SCHEMA_VERSION,
                "kind": kind,
                "doc_index": self.doc_index,
                "t": round(time.perf_counter() - self._start, 6),
                **fields,
            }
        )

    def close(self) -> None:
        """Write the buffered events; a trace with no events writes nothing."""
        if not self.events:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")


class TraceRecorder:
    """Per-run trace factory with document sampling.

    Attach one to an attack (``attack.tracer = TraceRecorder(dir)``) or
    pass ``trace_dir=`` to ``evaluate_attack``; the corpus runner opens a
    :class:`DocumentTrace` per attacked document.  ``trace_every_n``
    samples: only documents whose index is a multiple of ``n`` are
    traced.
    """

    def __init__(self, dir: str | Path, trace_every_n: int = 1) -> None:
        if trace_every_n < 1:
            raise ValueError(f"trace_every_n must be >= 1, got {trace_every_n}")
        self.dir = Path(dir)
        self.trace_every_n = trace_every_n
        self._auto_index = 0

    def document(self, doc_index: int, seed: int | None = None) -> DocumentTrace | None:
        """A trace for ``doc_index``, or ``None`` when sampled out."""
        if doc_index % self.trace_every_n != 0:
            return None
        return DocumentTrace(
            self.dir / f"trace-{doc_index:06d}.jsonl", doc_index, seed=seed
        )

    def next_index(self) -> int:
        """Auto-incrementing index for direct ``attack.attack()`` calls."""
        index = self._auto_index
        self._auto_index += 1
        return index


def read_trace(path: str | Path) -> list[dict]:
    """Parse one per-document trace file into its event list."""
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            raise TraceSchemaError(f"{path}: undecodable trace line {lineno}") from None
    return events


def iter_trace_files(run_dir: str | Path) -> Iterator[Path]:
    """All per-document trace files under ``run_dir``, recursively, sorted."""
    yield from sorted(Path(run_dir).rglob("trace-*.jsonl"))


def validate_run_dir(run_dir: str | Path) -> int:
    """Validate every trace and series line under ``run_dir``.

    Returns the number of lines checked; raises :class:`TraceSchemaError`
    naming the offending file and line.
    """
    checked = 0
    for path in iter_trace_files(run_dir):
        for lineno, event in enumerate(read_trace(path), start=1):
            try:
                validate_trace_line(event)
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from None
            checked += 1
    # imported lazily: timeseries imports TraceSchemaError from this module
    from repro.obs.timeseries import (
        iter_series_files,
        read_series,
        validate_series_line,
    )

    for path in iter_series_files(run_dir):
        seq = 0
        for lineno, point in enumerate(read_series(path), start=1):
            try:
                validate_series_line(point)
                # one file, one trajectory: a restart would read as time
                # running backwards
                if point["seq"] <= seq:
                    raise TraceSchemaError(f"series seq {point['seq']} after {seq}")
            except TraceSchemaError as exc:
                raise TraceSchemaError(f"{path}:{lineno}: {exc}") from None
            seq = point["seq"]
            checked += 1
    return checked
