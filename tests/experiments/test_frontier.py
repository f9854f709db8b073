"""Tests for the query-efficiency frontier driver and its CLI verb."""

import pytest

from repro.experiments import ExperimentContext, ExperimentSettings, frontier
from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    settings = ExperimentSettings(n_train=150, n_test=40, epochs=5, wcnn_filters=32, lstm_hidden=24)
    return ExperimentContext(settings, cache_dir=tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def points(ctx):
    return frontier.run(
        ctx,
        max_examples=4,
        budgets=(5, 30),
        attacks=("random_word", "heuristic_saliency"),
    )


class TestFrontierRun:
    def test_one_point_per_cell(self, points):
        assert len(points) == 4
        assert {(p.attack, p.max_queries) for p in points} == {
            ("random_word", 5),
            ("random_word", 30),
            ("heuristic_saliency", 5),
            ("heuristic_saliency", 30),
        }

    def test_budget_respected_in_mean(self, points):
        for p in points:
            assert p.mean_queries <= p.max_queries
            assert 0.0 <= p.success_rate <= 1.0
            assert p.n_examples == 4

    def test_metrics_recorded(self, ctx, points):
        for p in points:
            prefix = f"frontier/{p.attack}/q{p.max_queries}"
            assert ctx.metrics.gauges[f"{prefix}/success_rate"] == p.success_rate
            assert ctx.metrics.gauges[f"{prefix}/mean_queries"] == p.mean_queries
            assert ctx.metrics.counters[f"{prefix}/docs"] == p.n_examples

    def test_curves_sorted_by_budget(self, points):
        series = frontier.curves(points)
        assert set(series) == {"random_word", "heuristic_saliency"}
        for curve in series.values():
            assert [b for b, _ in curve] == [5, 30]

    def test_success_non_decreasing_in_budget(self, points):
        # a larger cap only extends a deterministic trajectory, so a
        # document that flipped under the smaller cap still flips
        for name, curve in frontier.curves(points).items():
            rates = [rate for _, rate in curve]
            assert rates == sorted(rates), (name, curve)

    def test_render_table(self, points):
        text = frontier.render(points)
        assert "max_queries" in text
        assert "heuristic_saliency" in text

    def test_leaderboard_markdown(self, points):
        md = frontier.leaderboard(points)
        assert md.startswith("# Query-efficiency frontier leaderboard")
        assert "| rank | attack |" in md
        assert "success@5" in md and "success@30" in md
        assert "queries@30" in md

    def test_rejects_unknown_attack(self, ctx):
        with pytest.raises(KeyError):
            frontier.run(ctx, attacks=("hypnosis",))

    def test_rejects_bad_budget(self, ctx):
        with pytest.raises(ValueError):
            frontier.run(ctx, budgets=(0,))


class TestFrontierCli:
    def test_smoke_and_out_file(self, capsys, monkeypatch, tmp_path, ctx):
        # reuse the module context (and its trained victim) for the verb
        monkeypatch.setattr(
            "repro.experiments.__main__.ExperimentContext", lambda: ctx
        )
        out_file = tmp_path / "leaderboard.md"
        assert (
            main(
                [
                    "frontier",
                    "--attacks",
                    "random_word",
                    "--budgets",
                    "4",
                    "--max-examples",
                    "2",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "max_queries" in out  # the text table always prints
        content = out_file.read_text()
        assert "# Query-efficiency frontier leaderboard" in content
        assert "random_word" in content

    def test_rejects_unknown_attack(self):
        with pytest.raises(SystemExit):
            main(["frontier", "--attacks", "hypnosis"])
