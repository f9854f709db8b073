"""Unit tests for the HTTP telemetry exporter."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.exporter import TelemetryServer, render_prometheus
from repro.obs.registry import MetricsRegistry


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


@pytest.fixture
def server():
    srv = TelemetryServer(port=0)
    srv.start()
    yield srv
    srv.stop()


class TestRenderPrometheus:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("attack/n_queries", 42)
        reg.set_gauge("run/docs_per_second", 1.5)
        reg.observe("attack/wall_time_seconds", 0.25, bounds=[0.1, 1.0])
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_attack_n_queries_total counter" in text
        assert "repro_attack_n_queries_total 42.0" in text
        assert "repro_run_docs_per_second 1.5" in text
        assert 'repro_attack_wall_time_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_attack_wall_time_seconds_sum 0.25" in text
        assert "repro_attack_wall_time_seconds_count 1" in text

    def test_values_roundtrip_exactly(self):
        reg = MetricsRegistry()
        reg.inc("attack/n_queries", 0.1 + 0.2)  # a float with no short repr
        text = render_prometheus(reg.snapshot())
        line = next(
            ln for ln in text.splitlines() if ln.startswith("repro_attack_n_queries_total ")
        )
        assert float(line.split()[1]) == 0.1 + 0.2


class TestTelemetryServer:
    def test_serves_live_snapshot(self, server):
        reg = MetricsRegistry()
        reg.inc("attack/docs", 3)
        server.publish(reg.snapshot, health_fn=lambda: {"status": "running"})
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert "repro_attack_docs_total 3.0" in body
        reg.inc("attack/docs", 2)  # live provider: next scrape sees the bump
        _, body = _get(server.url + "/metrics")
        assert "repro_attack_docs_total 5.0" in body

    def test_metrics_json_and_series(self, server):
        reg = MetricsRegistry()
        reg.inc("attack/docs")
        server.publish(
            reg.snapshot,
            health_fn=lambda: {"status": "running"},
            series_fn=lambda: [{"seq": 1}],
        )
        _, body = _get(server.url + "/metrics.json")
        payload = json.loads(body)
        assert payload["snapshot"]["counters"]["attack/docs"] == 1.0
        assert payload["health"]["status"] == "running"
        _, body = _get(server.url + "/series.json")
        assert json.loads(body) == [{"seq": 1}]

    def test_healthz_503_when_stale(self, server):
        server.publish(lambda: {}, health_fn=lambda: {"status": "stale"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/healthz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "stale"

    def test_freeze_serves_final_state(self, server):
        reg = MetricsRegistry()
        reg.inc("attack/docs", 6)
        server.publish(reg.snapshot, health_fn=lambda: {"status": "running"})
        server.freeze()
        reg.inc("attack/docs", 10)  # post-freeze mutations must not leak
        _, body = _get(server.url + "/metrics")
        assert "repro_attack_docs_total 6.0" in body
        _, body = _get(server.url + "/healthz")
        assert json.loads(body)["status"] == "finished"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_provider_error_is_500(self, server):
        def boom():
            raise RuntimeError("raced snapshot")

        server.publish(boom)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/metrics")
        assert excinfo.value.code == 500

    def test_idle_health_before_publish(self, server):
        _, body = _get(server.url + "/healthz")
        assert json.loads(body)["status"] == "idle"

    def test_start_is_idempotent(self, server):
        port = server.port
        assert server.start() == port
