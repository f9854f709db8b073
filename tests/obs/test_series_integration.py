"""End-to-end series telemetry: sampled trajectories reconcile exactly.

The acceptance contract for the live layer: whatever the sampling cadence
saw mid-run, the **final** series point is forced after the last worker
snapshot merge, so its cumulative counters equal the
``metrics.json`` totals and the summed ``AttackResult`` fields — at any
worker count — and telemetry must never change attack results.
"""

import json
import urllib.request

import pytest

from repro.attacks import ObjectiveGreedyWordAttack
from repro.eval.metrics import evaluate_attack
from repro.obs.exporter import TelemetryServer
from repro.obs.report import METRICS_FILENAME
from repro.obs.timeseries import SERIES_FILENAME, load_run_series, read_series
from repro.obs.trace import validate_run_dir

N_EXAMPLES = 6


def _run(victim, word_paraphraser, atk_corpus, trace_dir, n_workers, **kwargs):
    attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2, use_cache=True)
    return evaluate_attack(
        victim,
        attack,
        atk_corpus.test[:N_EXAMPLES],
        seed=0,
        n_workers=n_workers,
        trace_dir=trace_dir,
        **kwargs,
    )


class TestSeriesReconciliation:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_final_point_matches_metrics_and_results(
        self, victim, word_paraphraser, atk_corpus, tmp_path, n_workers
    ):
        evaluation = _run(victim, word_paraphraser, atk_corpus, tmp_path, n_workers)
        points = read_series(tmp_path / SERIES_FILENAME)
        assert points, "a traced run must leave a series.jsonl"
        final = points[-1]["counters"]
        payload = json.loads((tmp_path / METRICS_FILENAME).read_text())
        counters = payload["run"]["counters"]
        for name in ("attack/docs", "attack/n_queries", "attack/successes"):
            assert final[name] == counters[name], (n_workers, name)
        assert final["attack/docs"] == evaluation.n_attacked
        assert final["attack/n_queries"] == sum(
            r.n_queries for r in evaluation.results
        )
        assert final["attack/successes"] == sum(
            r.success for r in evaluation.results
        )
        # cumulative counters never decrease along the series
        for name in ("attack/docs", "attack/n_queries"):
            values = [p["counters"].get(name, 0.0) for p in points]
            assert values == sorted(values), (n_workers, name)

    def test_worker_counts_agree_on_final_totals(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        finals = {}
        for n_workers in (1, 2, 4):
            run_dir = tmp_path / f"w{n_workers}"
            _run(victim, word_paraphraser, atk_corpus, run_dir, n_workers)
            finals[n_workers] = read_series(run_dir / SERIES_FILENAME)[-1]["counters"]
        for name in ("attack/docs", "attack/n_queries", "attack/successes"):
            values = {n: finals[n][name] for n in finals}
            assert len(set(values.values())) == 1, (name, values)

    def test_validate_run_dir_covers_series(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        _run(victim, word_paraphraser, atk_corpus, tmp_path, 1)
        n_trace_lines = sum(
            1
            for p in tmp_path.rglob("trace-*.jsonl")
            for line in p.read_text().splitlines()
            if line.strip()
        )
        n_series_points = len(load_run_series(tmp_path))
        assert n_series_points >= 1
        assert validate_run_dir(tmp_path) == n_trace_lines + n_series_points


class TestTelemetryInvariance:
    def test_results_identical_with_exporter_on(
        self, victim, word_paraphraser, atk_corpus, tmp_path
    ):
        plain = _run(victim, word_paraphraser, atk_corpus, tmp_path / "off", 1)
        server = TelemetryServer(port=0)
        server.start()
        try:
            observed = _run(
                victim, word_paraphraser, atk_corpus, tmp_path / "on", 1,
                telemetry=server,
            )
            # the frozen final scrape equals the run's written totals
            body = urllib.request.urlopen(
                server.url + "/metrics", timeout=5
            ).read().decode()
            scraped = {
                line.split()[0]: float(line.split()[1])
                for line in body.splitlines()
                if not line.startswith("#")
            }
            payload = json.loads((tmp_path / "on" / METRICS_FILENAME).read_text())
            assert (
                scraped["repro_attack_n_queries_total"]
                == payload["run"]["counters"]["attack/n_queries"]
            )
        finally:
            server.stop()
        assert [r.n_queries for r in plain.results] == [
            r.n_queries for r in observed.results
        ]
        assert [r.adversarial for r in plain.results] == [
            r.adversarial for r in observed.results
        ]
        assert [r.success for r in plain.results] == [
            r.success for r in observed.results
        ]
