"""Pure helpers shared by the benchmark's parent and child processes.

Nothing here imports ``repro`` or NumPy, so the tests in this directory
run without a trained victim.
"""

from __future__ import annotations

import hashlib
import json
import re

#: a metric name as BENCHMARK.json allows it
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a percentile is reported only when at least this many samples lie beyond it
MIN_TAIL = 10


def check_metric_name(name: str) -> str:
    """Return ``name``; raise ``ValueError`` unless BENCHMARK.json accepts it."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def percentile(values, pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond the percentile, so a tail latency is never read off a handful
    of documents.  Integer arithmetic keeps the rank exact.
    """
    n = len(values)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100), 1-based
    if rank < 1 or n - rank < MIN_TAIL:
        raise ValueError(
            f"p{pct} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return sorted(values)[rank - 1]


def digest(records) -> str:
    """Order-independent digest of ``(key, payload)`` records.

    ``key`` is a sortable tuple naming the record's place in the input
    (matrix run, cell, document), so the digest does not depend on the
    order in which a worker pool completed the documents.  ``payload`` is any JSON
    value.
    """
    h = hashlib.sha256()
    for key, payload in sorted(records, key=lambda record: record[0]):
        h.update(json.dumps([list(key), payload], separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
