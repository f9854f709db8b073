"""Live time-series telemetry: periodic snapshots of a run's metrics.

The PR-4 observability layer is post-hoc — ``metrics.json`` and the
traces exist only after a run ends.  This module makes the same
:class:`~repro.obs.registry.MetricsRegistry` signals observable *while*
the run is alive: a :class:`TimeSeriesSampler` periodically snapshots a
registry (through a caller-supplied ``snapshot_fn``) into schema-versioned
**points** holding

- the raw **counters** (cumulative, so any suffix of the series still
  reconciles with the final ``metrics.json`` totals),
- per-second **rates** for every counter that moved since the previous
  point (docs/s, queries/s, delta-unit burn, ...),
- the current **gauges** (heartbeat vitals), and
- compact **histogram** digests (count / mean / p50 / p95).

Points live in a bounded ring buffer (served live by the HTTP exporter's
``/series.json``) and are appended to a JSONL file — ``series.jsonl``
next to ``metrics.json`` — so a finished run keeps its whole trajectory
on disk for ``python -m repro.experiments watch`` and the ``compare``
regression verb.

Sampling cadence: serial runs ride the :class:`~repro.eval.progress.
HeartbeatMonitor` (one :meth:`TimeSeriesSampler.maybe_sample` per
completed document, throttled to ``interval_seconds``); pooled runs add a
parent-side daemon thread (:meth:`TimeSeriesSampler.start`) because
chunk results land bursty.  Sampling is read-only with respect to the
run — a failed sample is counted and skipped, never raised — so
telemetry can never change attack results.

This module is dependency-free (stdlib only) and, like the rest of
:mod:`repro.obs`, must not import the attack or eval layers.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.obs.trace import TraceSchemaError

__all__ = [
    "SERIES_SCHEMA_VERSION",
    "SERIES_FILENAME",
    "SERIES_INTERVAL_ENV",
    "resolve_series_interval",
    "TimeSeriesSampler",
    "read_series",
    "iter_series_files",
    "load_run_series",
    "validate_series_line",
    "sparkline",
    "render_dashboard",
]

SERIES_SCHEMA_VERSION = 1

#: the run-level series file, written next to ``metrics.json``
SERIES_FILENAME = "series.jsonl"
#: env var overriding the sampling interval in seconds (default 1.0)
SERIES_INTERVAL_ENV = "REPRO_SERIES_INTERVAL"

_DEFAULT_INTERVAL = 1.0


def resolve_series_interval(interval_seconds: float | None = None) -> float:
    """Effective sampling interval: explicit arg > env > 1.0 s."""
    if interval_seconds is None:
        env = os.environ.get(SERIES_INTERVAL_ENV, "").strip()
        interval_seconds = float(env) if env else _DEFAULT_INTERVAL
    if interval_seconds <= 0:
        raise ValueError(f"interval_seconds must be > 0, got {interval_seconds}")
    return float(interval_seconds)


class TimeSeriesSampler:
    """Periodic registry snapshots into a ring buffer and a JSONL file.

    Parameters
    ----------
    snapshot_fn:
        Zero-argument callable returning a registry snapshot
        (``{"counters": ..., "gauges": ..., "histograms": ...}`` — the
        shape of :meth:`~repro.obs.registry.MetricsRegistry.snapshot`).
        Called under the sampler lock; exceptions are counted in
        :attr:`n_errors` and the point is skipped (a sampler must never
        break the run it observes).
    path:
        JSONL file each point is appended to (parents created); ``None``
        keeps the series in memory only.
    interval_seconds:
        Minimum seconds between points for :meth:`maybe_sample` and the
        background thread; ``None`` reads ``REPRO_SERIES_INTERVAL``
        (default 1.0).
    maxlen:
        Ring-buffer capacity (the file is never truncated).
    source:
        Tag stamped on every point (default ``"run"``) so series from
        several samplers can share a reader.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], dict],
        path: str | Path | None = None,
        interval_seconds: float | None = None,
        maxlen: int = 720,
        source: str = "run",
    ) -> None:
        self.snapshot_fn = snapshot_fn
        self.path = Path(path) if path is not None else None
        self.interval_seconds = resolve_series_interval(interval_seconds)
        self.source = source
        self.n_errors = 0
        self._ring: deque[dict] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._last = -math.inf
        self._seq = 0
        self._prev: tuple[float, dict] | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._closed = False

    # -- sampling ------------------------------------------------------------
    def maybe_sample(self) -> dict | None:
        """One point if ``interval_seconds`` elapsed since the last; else None."""
        if time.perf_counter() - self._last < self.interval_seconds:
            return None
        return self.sample()

    def sample(self) -> dict | None:
        """Take one point now (thread-safe); ``None`` if the snapshot failed."""
        with self._lock:
            if self._closed:
                return None
            self._last = time.perf_counter()
            try:
                snap = self.snapshot_fn()
            except Exception:  # noqa: BLE001 - telemetry must never break the run
                self.n_errors += 1
                return None
            point = self._build_point(snap)
            self._ring.append(point)
            if self.path is not None:
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    with open(self.path, "a") as fh:
                        fh.write(json.dumps(point) + "\n")
                except OSError:
                    self.n_errors += 1
            return point

    def _build_point(self, snap: dict) -> dict:
        elapsed = time.perf_counter() - self._start
        counters = {k: float(v) for k, v in (snap.get("counters") or {}).items()}
        rates: dict[str, float] = {}
        if self._prev is not None:
            prev_elapsed, prev_counters = self._prev
            dt = elapsed - prev_elapsed
            if dt > 0:
                for name, value in counters.items():
                    delta = value - prev_counters.get(name, 0.0)
                    if delta != 0.0:
                        rates[name] = delta / dt
        self._prev = (elapsed, counters)
        histograms = {}
        for name, hist in (snap.get("histograms") or {}).items():
            count = int(hist.get("count", 0))
            total = float(hist.get("total", 0.0))
            digest = {"count": count, "mean": total / count if count else 0.0}
            quantiles = _hist_quantiles(hist)
            if quantiles is not None:
                digest.update(quantiles)
            histograms[name] = digest
        self._seq += 1
        return {
            "v": SERIES_SCHEMA_VERSION,
            "source": self.source,
            "seq": self._seq,
            "t": time.time(),
            "elapsed": round(elapsed, 6),
            "counters": counters,
            "gauges": {k: float(v) for k, v in (snap.get("gauges") or {}).items()},
            "rates": {k: round(v, 6) for k, v in rates.items()},
            "histograms": histograms,
        }

    @property
    def points(self) -> list[dict]:
        """Copy of the ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    # -- background thread (pooled runs) -------------------------------------
    def start(self) -> None:
        """Sample every ``interval_seconds`` from a daemon thread."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_seconds):
                self.sample()

        self._thread = threading.Thread(
            target=loop, name="repro-series-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (idempotent; the sampler stays usable)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def close(self) -> dict | None:
        """Stop the thread and take one final forced point.

        The caller sequences this after the last worker snapshot
        merge, so the final point's counters equal the totals written to
        ``metrics.json``.
        """
        self.stop()
        point = self.sample()
        with self._lock:
            self._closed = True
        return point


def _hist_quantiles(hist_snapshot: dict) -> dict | None:
    """p50/p95 from a Histogram snapshot dict, without importing registry."""
    counts = hist_snapshot.get("counts")
    bounds = hist_snapshot.get("bounds")
    count = int(hist_snapshot.get("count", 0))
    if not counts or not bounds or count == 0:
        return None
    lo = hist_snapshot.get("min")
    hi = hist_snapshot.get("max")
    out = {}
    for label, q in (("p50", 0.5), ("p95", 0.95)):
        target = q * count
        cumulative = 0
        value = hi
        for i, c in enumerate(counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                bucket_lo = bounds[i - 1] if i > 0 else 0.0
                bucket_hi = bounds[i] if i < len(bounds) else hi
                value = bucket_lo + (target - cumulative) / c * (bucket_hi - bucket_lo)
                break
            cumulative += c
        if lo is not None and hi is not None:
            value = min(max(value, lo), hi)
        out[label] = value
    return out


# -- readers -----------------------------------------------------------------
def read_series(path: str | Path) -> list[dict]:
    """Parse one series JSONL file; truncated final lines are tolerated."""
    points: list[dict] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            points.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # a crash mid-append leaves at most one partial line
    return points


def iter_series_files(run_dir: str | Path) -> Iterator[Path]:
    """Every series file under ``run_dir``, sorted."""
    yield from sorted(Path(run_dir).rglob(SERIES_FILENAME))


def load_run_series(run_dir: str | Path) -> list[dict]:
    """All points under ``run_dir``, ordered by wall-clock timestamp."""
    points: list[dict] = []
    for path in iter_series_files(run_dir):
        points.extend(read_series(path))
    points.sort(key=lambda p: p.get("t", 0.0))
    return points


_POINT_FIELDS: dict[str, type] = {
    "source": str,
    "seq": int,
    "t": (int, float),
    "elapsed": (int, float),
    "counters": dict,
    "gauges": dict,
    "rates": dict,
    "histograms": dict,
}


def validate_series_line(payload: dict) -> None:
    """Raise :class:`~repro.obs.trace.TraceSchemaError` for a bad point."""
    if not isinstance(payload, dict):
        raise TraceSchemaError(
            f"series point must be an object, got {type(payload).__name__}"
        )
    if payload.get("v") != SERIES_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"unsupported series schema version {payload.get('v')!r} "
            f"(this reader understands {SERIES_SCHEMA_VERSION})"
        )
    for name, types in _POINT_FIELDS.items():
        if name not in payload:
            raise TraceSchemaError(f"series point missing field {name!r}")
        if not isinstance(payload[name], types) or isinstance(payload[name], bool):
            raise TraceSchemaError(
                f"series field {name!r} must be {types}, got {payload[name]!r}"
            )
    for section in ("counters", "gauges", "rates"):
        for key, value in payload[section].items():
            if not isinstance(key, str) or isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise TraceSchemaError(
                    f"series {section} entry {key!r}: {value!r} is not numeric"
                )


# -- terminal rendering (the `watch` verb) -----------------------------------
_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 48) -> str:
    """Unicode block sparkline of the last ``width`` values."""
    values = [float(v) for v in values if v is not None][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if not math.isfinite(lo) or not math.isfinite(hi):
        values = [v for v in values if math.isfinite(v)]
        if not values:
            return ""
        lo, hi = min(values), max(values)
    if hi <= lo:
        return _BLOCKS[0] * len(values)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int((v - lo) * scale)] for v in values)


def _fmt_value(value: float | None, unit: str = "") -> str:
    if value is None:
        return "—"
    if unit == "%":
        return f"{value:.1%}"
    if abs(value) >= 1000 or value == int(value):
        return f"{value:,.0f}{unit}"
    return f"{value:.2f}{unit}"


#: (label, unit, getter) rows per source; a row renders only when at least
#: one point yields a value.  Getters take one point and return float|None.
def _counter_ratio(num: str, den_terms: tuple[str, ...]):
    def get(point: dict) -> float | None:
        counters = point.get("counters", {})
        den = sum(counters.get(t, 0.0) for t in den_terms)
        return counters.get(num, 0.0) / den if den else None

    return get


def _rate(name: str):
    return lambda point: point.get("rates", {}).get(name)


def _gauge(name: str):
    return lambda point: point.get("gauges", {}).get(name)


DASHBOARD_ROWS: dict[str, list[tuple[str, str, Callable[[dict], float | None]]]] = {
    "run": [
        ("docs done", "", _gauge("run/done")),
        ("docs/s", "", _rate("attack/docs")),
        ("success rate", "%", _counter_ratio("attack/successes", ("attack/docs",))),
        ("queries/s", "", _rate("attack/n_queries")),
        (
            "cache hit rate",
            "%",
            _counter_ratio("attack/cache_hits", ("attack/n_queries", "attack/cache_hits")),
        ),
        ("forward batches/s", "", _rate("forward/batches")),
        (
            "delta savings",
            "%",
            lambda p: (
                1.0 - p["counters"]["delta/units"] / p["counters"]["delta/units_full"]
                if p.get("counters", {}).get("delta/units_full")
                else None
            ),
        ),
        ("phase attack s/s", "", _rate("phase/attack_seconds")),
    ],
}


def render_dashboard(points: list[dict], width: int = 48, health: dict | None = None) -> str:
    """One text frame of the live dashboard for ``watch``.

    ``points`` is any mix of series points, grouped by source (e.g. from
    :func:`load_run_series` or the exporter's ``/series.json``);
    ``health`` is an optional ``/healthz`` payload rendered as a status
    line.
    """
    by_source: dict[str, list[dict]] = {}
    for point in points:
        by_source.setdefault(str(point.get("source", "run")), []).append(point)
    out: list[str] = []
    if health is not None:
        status = health.get("status", "?")
        age = health.get("heartbeat_age_seconds")
        done, total = health.get("done"), health.get("total")
        line = f"health: {status}"
        if age is not None:
            line += f" | heartbeat {age:.1f}s ago"
        if done is not None and total:
            line += f" | {int(done)}/{int(total)} docs"
        if health.get("failures"):
            line += f" | {int(health['failures'])} failed"
        out += [line, ""]
    if not points:
        out.append("_no series points yet_")
        return "\n".join(out)
    for source in sorted(by_source):
        series = sorted(by_source[source], key=lambda p: p.get("t", 0.0))
        elapsed = series[-1].get("elapsed", 0.0)
        out.append(f"== {source} == ({len(series)} points, {elapsed:.0f}s)")
        rows = DASHBOARD_ROWS.get(source, [])
        rendered_any = False
        label_width = max((len(label) for label, _, _ in rows), default=0)
        for label, unit, getter in rows:
            values = [getter(p) for p in series]
            if all(v is None for v in values):
                continue
            rendered_any = True
            current = next((v for v in reversed(values) if v is not None), None)
            out.append(
                f"  {label:<{label_width}}  {sparkline(values, width):<{width}}"
                f"  {_fmt_value(current, unit)}"
            )
        if not rendered_any:
            out.append("  _no recognized metrics in this series_")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
