"""Dependency-free HTTP telemetry exporter for live runs.

A :class:`TelemetryServer` is a stdlib ``http.server`` daemon thread
serving the run's merged :class:`~repro.obs.registry.MetricsRegistry`
while the run is alive:

- ``/metrics`` — Prometheus text exposition format (counters as
  ``repro_<name>_total``, gauges, full cumulative-bucket histograms), so
  any standard scraper can ingest a run;
- ``/metrics.json`` — the raw registry snapshot plus the health payload,
  for tooling that prefers the native schema;
- ``/healthz`` — run vitals (heartbeat age, docs done/total, failure
  count); HTTP 503 once the heartbeat is stale, so a wedged run fails
  load-balancer-style checks;
- ``/series.json`` — the :class:`~repro.obs.timeseries.TimeSeriesSampler`
  ring buffer, which ``python -m repro.experiments watch <url>`` renders
  as a terminal dashboard.

Content is supplied through swappable zero-argument providers
(:meth:`TelemetryServer.publish`); :meth:`TelemetryServer.freeze`
captures their current output and serves it statically, so a server that
outlives one ``evaluate_attack`` call (the
:class:`~repro.experiments.common.ExperimentContext` owns one for a whole
driver run) keeps serving the last finished cell's final state between
cells — final scraped counters therefore match ``metrics.json`` exactly.

The context starts one when it has a ``telemetry_port`` (port 0 binds an
ephemeral port, reported by :attr:`TelemetryServer.port`).  Binds
``127.0.0.1`` by default — this is run introspection, not a public
service.

Like the rest of :mod:`repro.obs`, this module must not import the
attack or eval layers.
"""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "TelemetryServer",
    "render_prometheus",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """``attack/n_queries`` -> ``repro_attack_n_queries`` (Prometheus-safe)."""
    return "repro_" + _NAME_RE.sub("_", name)


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Counters get a ``_total`` suffix, histograms emit the standard
    cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple.
    Values print via ``repr`` so scraped floats round-trip exactly —
    the acceptance contract compares scrapes against ``metrics.json``
    bitwise.
    """
    lines: list[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = _metric_name(name) + "_total"
        lines += [f"# TYPE {metric} counter", f"{metric} {value!r}"]
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        metric = _metric_name(name)
        lines += [f"# TYPE {metric} gauge", f"{metric} {value!r}"]
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        counts = hist.get("counts") or []
        bounds = hist.get("bounds") or []
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += int(count)
            lines.append(f'{metric}_bucket{{le="{bound!r}"}} {cumulative}')
        cumulative += int(counts[-1]) if len(counts) > len(bounds) else 0
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {hist.get('total', 0.0)!r}")
        lines.append(f"{metric}_count {int(hist.get('count', 0))}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    # the server thread must never block the run on a slow client
    timeout = 10

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        server: "TelemetryServer" = self.server.telemetry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = render_prometheus(server.snapshot()).encode()
                ctype, status = "text/plain; version=0.0.4; charset=utf-8", 200
            elif path == "/metrics.json":
                payload = {"snapshot": server.snapshot(), "health": server.health()}
                body = json.dumps(payload, sort_keys=True).encode()
                ctype, status = "application/json", 200
            elif path == "/healthz":
                health = server.health()
                body = json.dumps(health, sort_keys=True).encode()
                ctype = "application/json"
                status = 503 if health.get("status") == "stale" else 200
            elif path == "/series.json":
                body = json.dumps(server.series()).encode()
                ctype, status = "application/json", 200
            else:
                body, ctype, status = b"not found\n", "text/plain", 404
        except Exception as exc:  # noqa: BLE001 - a provider error must
            # surface as a 500, not kill the serving thread
            body = f"telemetry provider error: {exc}\n".encode()
            ctype, status = "text/plain", 500
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - API name
        pass  # scrapes must not spam the run's stderr


class TelemetryServer:
    """HTTP exporter with swappable content providers.

    Lifecycle: ``start()`` binds and serves from a daemon thread;
    :meth:`publish` points the endpoints at a live run's providers;
    :meth:`freeze` captures their current output so the endpoints keep
    serving the final state after the run moves on; ``stop()`` shuts the
    socket down.  All methods are idempotent and safe to call from the
    run's main thread.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        self.host = host
        self.requested_port = int(port)
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._snapshot_fn: Callable[[], dict] | None = None
        self._health_fn: Callable[[], dict] | None = None
        self._series_fn: Callable[[], list] | None = None
        self._static: dict | None = None

    # -- content providers ---------------------------------------------------
    def publish(
        self,
        snapshot_fn: Callable[[], dict],
        health_fn: Callable[[], dict] | None = None,
        series_fn: Callable[[], list] | None = None,
    ) -> None:
        """Attach a live run's providers (replacing any frozen content)."""
        with self._lock:
            self._snapshot_fn = snapshot_fn
            self._health_fn = health_fn
            self._series_fn = series_fn
            self._static = None

    def freeze(self) -> None:
        """Capture the providers' current output and serve it statically."""
        with self._lock:
            self._static = {
                "snapshot": self._snapshot_fn() if self._snapshot_fn else {},
                "health": self._health_fn() if self._health_fn else {},
                "series": list(self._series_fn()) if self._series_fn else [],
            }
            self._snapshot_fn = self._health_fn = self._series_fn = None

    def snapshot(self) -> dict:
        with self._lock:
            if self._static is not None:
                return self._static["snapshot"]
            return self._snapshot_fn() if self._snapshot_fn else {}

    def health(self) -> dict:
        with self._lock:
            if self._static is not None:
                health = dict(self._static["health"])
                health["status"] = "finished"
                return health
            if self._health_fn is not None:
                return self._health_fn()
        return {"status": "idle"}

    def series(self) -> list:
        with self._lock:
            if self._static is not None:
                return self._static["series"]
            return list(self._series_fn()) if self._series_fn else []

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> int:
        """Bind and serve; returns the bound port (useful with port 0)."""
        if self._httpd is not None:
            return self.port
        httpd = ThreadingHTTPServer((self.host, self.requested_port), _Handler)
        httpd.daemon_threads = True
        httpd.telemetry = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-telemetry-exporter",
            daemon=True,
            kwargs={"poll_interval": 0.2},
        )
        self._thread.start()
        return self.port

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
