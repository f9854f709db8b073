"""Unit tests for the live time-series sampler and its readers."""

import json
import threading

import pytest

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.timeseries import (
    SERIES_FILENAME,
    SERIES_SCHEMA_VERSION,
    TimeSeriesSampler,
    iter_series_files,
    load_run_series,
    read_series,
    render_dashboard,
    sparkline,
    validate_series_line,
)
from repro.obs.trace import TraceSchemaError, validate_run_dir


def _sampler(reg, tmp_path=None, **kwargs):
    path = tmp_path / SERIES_FILENAME if tmp_path is not None else None
    kwargs.setdefault("interval_seconds", 0.001)
    return TimeSeriesSampler(reg.snapshot, path=path, **kwargs)


class TestResolveInterval:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERIES_INTERVAL", "9")
        assert TimeSeriesSampler(dict, interval_seconds=0.25).interval_seconds == 0.25

    def test_default_is_one_second(self, monkeypatch):
        # the sampler takes a plain value; evaluate_attack resolves the env
        monkeypatch.setenv("REPRO_SERIES_INTERVAL", "2.5")
        assert TimeSeriesSampler(dict).interval_seconds == 1.0

    def test_nonpositive_rejected(self):
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError):
                TimeSeriesSampler(dict, interval_seconds=interval)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, interval):
        # nan never waits between samples; inf kills the sampler thread
        with pytest.raises(ValueError, match="finite"):
            TimeSeriesSampler(dict, interval_seconds=interval)


class TestSampler:
    def test_points_carry_cumulative_counters_and_rates(self, tmp_path):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path)
        reg.inc("attack/docs", 2)
        first = sampler.sample()
        reg.inc("attack/docs", 3)
        second = sampler.sample()
        assert first["counters"]["attack/docs"] == 2.0
        assert second["counters"]["attack/docs"] == 5.0  # cumulative, not deltas
        assert second["seq"] == first["seq"] + 1
        assert second["rates"]["attack/docs"] > 0.0
        assert "attack/docs" not in first["rates"]  # no previous point yet

    def test_unchanged_counters_emit_no_rate(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("attack/docs", 4)
        sampler = _sampler(reg, tmp_path)
        sampler.sample()
        second = sampler.sample()
        assert "attack/docs" not in second["rates"]

    def test_maybe_sample_throttles(self, tmp_path):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path, interval_seconds=60.0)
        assert sampler.maybe_sample() is not None
        assert sampler.maybe_sample() is None  # within the interval
        assert len(sampler.points) == 1

    def test_failing_snapshot_is_counted_not_raised(self, tmp_path):
        def boom():
            raise RuntimeError("raced")

        sampler = TimeSeriesSampler(
            boom, path=tmp_path / SERIES_FILENAME, interval_seconds=0.001
        )
        assert sampler.sample() is None
        assert sampler.n_errors == 1
        assert not (tmp_path / SERIES_FILENAME).exists()

    def test_close_forces_final_point_then_freezes(self, tmp_path):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path, interval_seconds=60.0)
        sampler.sample()
        reg.inc("attack/n_queries", 7)
        final = sampler.close()
        assert final["counters"]["attack/n_queries"] == 7.0
        assert sampler.sample() is None  # closed samplers take no more points
        assert len(sampler.points) == 2

    def test_background_thread_samples(self, tmp_path):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path, interval_seconds=0.01)
        sampler.start()
        try:
            deadline = threading.Event()
            deadline.wait(0.2)
        finally:
            sampler.close()
        assert len(sampler.points) >= 2

    def test_ring_buffer_bounds_memory_but_not_file(self, tmp_path):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path, maxlen=3)
        for _ in range(5):
            reg.inc("attack/docs")
            sampler.sample()
        assert len(sampler.points) == 3
        assert len(read_series(tmp_path / SERIES_FILENAME)) == 5

    def test_histogram_digest(self, tmp_path):
        reg = MetricsRegistry()
        for value in (0.1, 0.2, 0.3, 0.4):
            reg.observe("attack/wall_time_seconds", value)
        reg.histograms["empty"] = Histogram()
        point = _sampler(reg, tmp_path).sample()
        digest = point["histograms"]["attack/wall_time_seconds"]
        assert digest["count"] == 4
        assert digest["mean"] == pytest.approx(0.25)
        assert 0.1 <= digest["p50"] <= digest["p95"] <= 0.4
        hist = reg.histogram("attack/wall_time_seconds")
        assert (digest["p50"], digest["p95"]) == (hist.quantile(0.5), hist.quantile(0.95))
        # an empty histogram has no quantiles to report
        assert point["histograms"]["empty"] == {"count": 0, "mean": 0.0}


class TestReaders:
    def _write_points(self, tmp_path, n=3):
        reg = MetricsRegistry()
        sampler = _sampler(reg, tmp_path)
        for _ in range(n):
            reg.inc("attack/docs")
            sampler.sample()
        return tmp_path / SERIES_FILENAME

    def test_read_series_roundtrip(self, tmp_path):
        path = self._write_points(tmp_path)
        points = read_series(path)
        assert [p["seq"] for p in points] == [1, 2, 3]
        for point in points:
            validate_series_line(point)

    def test_read_series_tolerates_truncated_tail(self, tmp_path):
        path = self._write_points(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"v": 1, "truncat')  # crash mid-append
        assert len(read_series(path)) == 3

    def test_iter_series_files_finds_nested_series(self, tmp_path):
        self._write_points(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / SERIES_FILENAME).write_text("")
        (tmp_path / "sub" / "notes.jsonl").write_text("")
        found = [p.relative_to(tmp_path).as_posix() for p in iter_series_files(tmp_path)]
        assert found == ["series.jsonl", "sub/series.jsonl"]

    def test_load_run_series_orders_by_time(self, tmp_path):
        self._write_points(tmp_path)
        points = load_run_series(tmp_path)
        assert [p["t"] for p in points] == sorted(p["t"] for p in points)

    def test_validate_run_dir_checks_series_lines(self, tmp_path):
        path = self._write_points(tmp_path)
        assert validate_run_dir(tmp_path) == 3
        with open(path, "a") as fh:
            fh.write(json.dumps({"v": SERIES_SCHEMA_VERSION, "source": "run"}) + "\n")
        with pytest.raises(TraceSchemaError, match="series.jsonl:4"):
            validate_run_dir(tmp_path)

    def test_validate_run_dir_rejects_a_restarted_series(self, tmp_path):
        path = self._write_points(tmp_path)
        first = path.read_text().splitlines()[0]
        with open(path, "a") as fh:
            fh.write(first + "\n")  # seq 1, 2, 3, 1
        with pytest.raises(TraceSchemaError, match="series.jsonl:4: series seq 1 after 3"):
            validate_run_dir(tmp_path)

    def test_a_new_sampler_replaces_the_file(self, tmp_path):
        # a rerun or a resumed run writes its own trajectory, not a second one
        path = self._write_points(tmp_path)
        self._write_points(tmp_path, n=2)
        assert [p["seq"] for p in read_series(path)] == [1, 2]


class TestValidateSeriesLine:
    def _point(self, **overrides):
        point = {
            "v": SERIES_SCHEMA_VERSION,
            "source": "run",
            "seq": 1,
            "t": 1000.0,
            "elapsed": 0.5,
            "counters": {"attack/docs": 1.0},
            "gauges": {},
            "rates": {},
            "histograms": {},
        }
        point.update(overrides)
        return point

    def test_accepts_valid_point(self):
        validate_series_line(self._point())

    def test_rejects_wrong_version(self):
        with pytest.raises(TraceSchemaError, match="schema version"):
            validate_series_line(self._point(v=99))

    def test_rejects_missing_field(self):
        point = self._point()
        del point["counters"]
        with pytest.raises(TraceSchemaError, match="counters"):
            validate_series_line(point)

    def test_rejects_non_numeric_counter(self):
        with pytest.raises(TraceSchemaError, match="not numeric"):
            validate_series_line(self._point(counters={"attack/docs": "many"}))


class TestDashboard:
    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3], width=48)
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert sparkline([5.0, 5.0]) == "▁▁"
        assert sparkline([]) == ""

    def test_render_dashboard_groups_sources(self, tmp_path):
        reg = MetricsRegistry()
        run = _sampler(reg, None)
        other = TimeSeriesSampler(reg.snapshot, interval_seconds=0.001, source="other")
        reg.inc("attack/docs")
        reg.set_gauge("run/done", 1)
        run.sample()
        other.sample()
        frame = render_dashboard(run.points + other.points)
        assert "== run ==" in frame
        assert "== other ==" in frame
        assert "docs done" in frame
        # a source without dashboard rows still gets its own section
        assert "_no recognized metrics in this series_" in frame

    def test_render_dashboard_health_line(self):
        frame = render_dashboard(
            [], health={"status": "running", "heartbeat_age_seconds": 0.4, "done": 2, "total": 6}
        )
        assert "health: running" in frame
        assert "2/6 docs" in frame
        assert "_no series points yet_" in frame
