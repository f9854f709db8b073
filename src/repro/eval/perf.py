"""BENCH file schema for the perf harnesses.

Run metrics themselves live in one place, the
:class:`~repro.obs.registry.MetricsRegistry` that
:class:`~repro.experiments.common.ExperimentContext` attaches to every
victim it builds (``model.metrics``): forward batches, documents, seconds
and per-padded-length counters come from
:meth:`~repro.models.base.TextClassifier.record_forward`.

``write_bench_json`` serializes a metrics dict in the stable schema
``{metric: {"value": ..., "unit": ...}}`` used by ``BENCH_frontier.json``
at the repo root, so successive runs can diff perf trajectories.  Passing a
:class:`~repro.obs.registry.Histogram` instead of a scalar value writes a
quantile entry (count / mean / p50-p99 / max) under the same metric name.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import Histogram

__all__ = ["write_bench_json", "read_bench_json"]


def write_bench_json(path: str | Path, metrics: dict[str, tuple[float, str]]) -> dict:
    """Write ``{metric: {"value": v, "unit": u}}`` sorted by metric name.

    ``metrics`` maps metric name → ``(value, unit)``.  A scalar value
    writes exactly ``{"value", "unit"}``; a
    :class:`~repro.obs.registry.Histogram` value writes a quantile entry
    (``count``/``mean``/``quantiles`` p50-p99/``max``) so latency
    distributions can ride in BENCH files next to the scalar trajectory
    metrics.  Returns the payload that was written (useful for asserting
    on it in benchmarks).
    """
    payload: dict[str, dict] = {}
    for name, (value, unit) in sorted(metrics.items()):
        if isinstance(value, Histogram):
            payload[name] = {
                "unit": unit,
                "count": value.count,
                "mean": value.mean,
                "quantiles": {
                    "p50": value.quantile(0.5),
                    "p90": value.quantile(0.9),
                    "p95": value.quantile(0.95),
                    "p99": value.quantile(0.99),
                },
                "max": 0.0 if value.count == 0 else value.max,
            }
        else:
            payload[name] = {"value": value, "unit": unit}
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
