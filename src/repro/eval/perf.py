"""BENCH file schema for the perf harnesses.

Run metrics themselves live in one place, the
:class:`~repro.obs.registry.MetricsRegistry` that
:class:`~repro.experiments.common.ExperimentContext` attaches to every
victim it builds (``model.metrics``): forward batches, documents, seconds
and per-padded-length counters come from
:meth:`~repro.models.base.TextClassifier.record_forward`.

``write_bench_json`` serializes a metrics dict in the stable schema
``{metric: {"value": ..., "unit": ...}}`` used by ``BENCH_frontier.json``
at the repo root, so successive runs can diff perf trajectories.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["write_bench_json", "read_bench_json"]


def write_bench_json(path: str | Path, metrics: dict[str, tuple[float, str]]) -> dict:
    """Write ``{metric: {"value": v, "unit": u}}`` sorted by metric name.

    ``metrics`` maps metric name → ``(value, unit)``; each entry is written
    as exactly ``{"value", "unit"}``.  Returns the payload that was written
    (useful for asserting on it in benchmarks).
    """
    payload = {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(metrics.items())}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def read_bench_json(path: str | Path) -> dict:
    """Read a ``write_bench_json`` file back into ``{metric: {value, unit}}``.

    Deliberately tolerant: per-metric fields beyond ``value``/``unit``
    (histogram quantiles, fields added by future writers) are preserved
    as-is rather than rejected, so old readers keep working as the BENCH
    schema grows.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: BENCH file must hold a JSON object")
    return payload
