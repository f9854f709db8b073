"""Tests for the robustness tournament: grid coverage, leaderboard,
summary gauges, the context's live exporter across cells, and the
transfer-replay determinism guarantee."""

import json
import shutil

import pytest

from repro.experiments import ExperimentContext, ExperimentSettings
from repro.experiments import tournament
from repro.experiments.__main__ import main
from repro.obs.report import METRICS_FILENAME, load_run_metrics

from tests.fixtures import prometheus_name, scrape_health, scrape_metrics

SETTINGS = ExperimentSettings(
    n_train=100, n_test=24, epochs=3, wcnn_filters=16, lstm_hidden=12
)

ATTACKS = ("joint", "random")
MODELS = ("wcnn", "lstm")
RUN = dict(
    max_examples=4,
    datasets=("yelp",),
    models=MODELS,
    attacks=ATTACKS,
    defenses=("none", "smoothing"),
)


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("tournament_cache")


@pytest.fixture(scope="module")
def result_and_trace(shared_cache, tmp_path_factory):
    """A traced, journaled tournament with the context's exporter on,
    scraped after every document of every cell."""
    trace_dir = tmp_path_factory.mktemp("tournament_trace")
    scrapes = []

    def scrape(beat):
        server = context.telemetry
        scrapes.append((beat, server, scrape_metrics(server), scrape_health(server)))

    context = ExperimentContext(
        SETTINGS,
        cache_dir=shared_cache,
        progress=scrape,
        trace_dir=trace_dir,
        journal_dir=tmp_path_factory.mktemp("tournament_journals"),
        telemetry_port=0,
    )
    result = tournament.run(context, **RUN)
    yield result, trace_dir, context, scrapes
    context.telemetry.stop()


class TestTournament:
    def test_cell_and_transfer_counts(self, result_and_trace):
        result, *_ = result_and_trace
        # 1 dataset x 2 models x 2 defenses x 2 attacks
        assert len(result.cells) == 8
        # transfer: 2 attacks x 2 src x 2 dst over the undefended cells
        assert len(result.transfers) == 8

    def test_cells_cover_the_declared_cross(self, result_and_trace):
        result, *_ = result_and_trace
        coords = {(c.arch, c.defense, c.attack) for c in result.cells}
        assert coords == {
            (m, d, a) for m in MODELS for d in ("none", "smoothing") for a in ATTACKS
        }

    def test_self_transfer_is_total(self, result_and_trace):
        result, *_ = result_and_trace
        for t in result.transfers:
            if t.src_arch == t.dst_arch and t.n_docs:
                assert t.transfer_rate == 1.0

    def test_summary_cell_carries_all_gauges(self, result_and_trace):
        result, trace_dir, *_ = result_and_trace
        payload = json.loads(
            (trace_dir / "tournament_summary" / "metrics.json").read_text()
        )
        gauges = payload["run"]["gauges"]
        for c in result.cells:
            prefix = f"tournament/{c.dataset}/{c.arch}/{c.defense}/{c.attack}"
            assert gauges[f"{prefix}/adversarial_accuracy"] == c.adversarial_accuracy
            assert gauges[f"{prefix}/success_rate"] == c.success_rate
        for t in result.transfers:
            name = (
                f"tournament/transfer/{t.dataset}/{t.attack}/"
                f"{t.src_arch}_to_{t.dst_arch}/success_rate"
            )
            assert gauges[name] == t.transfer_rate
        # five gauges per cell, one per transfer cell
        n_gauges = sum(name.startswith("tournament/") for name in gauges)
        assert n_gauges == 5 * len(result.cells) + len(result.transfers)
        # merged run metrics see the summary cell alongside attack cells
        merged = load_run_metrics(trace_dir)
        assert "tournament_summary" in merged["per_cell"]

    def test_run_dir_compares_equal_to_a_copy_and_flags_a_slower_one(
        self, result_and_trace, tmp_path, capsys
    ):
        _, trace_dir, *_ = result_and_trace
        copy = tmp_path / "copy"
        shutil.copytree(trace_dir, copy)
        assert main(["compare", str(trace_dir), str(copy)]) == 0
        # every attack cell: merged gauges are last-write-wins, so one
        # doctored cell could be masked by an untouched one
        for path in copy.rglob(METRICS_FILENAME):
            payload = json.loads(path.read_text())
            gauges = payload["run"]["gauges"]
            if "run/docs_per_second" in gauges:
                gauges["run/docs_per_second"] *= 0.7
                path.write_text(json.dumps(payload))
        assert main(["compare", str(trace_dir), str(copy)]) == 1
        capsys.readouterr()

    def test_run_dir_reports_every_cell_and_plays_back(
        self, result_and_trace, tmp_path, capsys
    ):
        _, trace_dir, *_ = result_and_trace
        out = tmp_path / "report.md"
        assert main(["report", str(trace_dir), "--validate", "--out", str(out)]) == 0
        report = out.read_text()
        assert "## Per-cell" in report
        for cell in tournament.matrix(**RUN).cells():
            assert f"`{cell.tag}`" in report
        assert main(["watch", str(trace_dir), "--once"]) == 0
        assert "docs done" in capsys.readouterr().out

    def test_exporter_follows_every_cell_then_freezes(self, result_and_trace):
        result, trace_dir, context, scrapes = result_and_trace
        server = context.telemetry
        # one server, started on the first access and kept across cells
        assert scrapes and all(s is server for _, s, _, _ in scrapes)
        # each cell publishes itself: its heartbeats count from 1 again
        assert [beat.done for beat, *_ in scrapes].count(1) == len(result.cells)
        for beat, _, metrics, health in scrapes:
            assert health["status"] == "running" and health["done"] == beat.done
            assert metrics[prometheus_name("attack/docs")] == beat.done
        # the context registry's forward batches only grow, across cells too
        batches = [metrics[prometheus_name("forward/batches")] for _, _, metrics, _ in scrapes]
        assert batches == sorted(batches)
        # after the run the exporter serves the last cell's frozen state
        last = tournament.matrix(**RUN).cells()[-1].tag
        metrics = json.loads((trace_dir / last / METRICS_FILENAME).read_text())
        final = scrape_metrics(server)
        for name in ("attack/docs", "attack/n_queries", "attack/successes"):
            assert final[prometheus_name(name)] == metrics["run"]["counters"][name]
        assert scrape_health(server)["status"] == "finished"

    def test_journaled_rerun_replays_every_cell_bitwise(self, result_and_trace, shared_cache):
        result, _, context, _ = result_and_trace
        journals = sorted(context.journal_dir.glob("tournament_*.jsonl"))
        assert len(journals) == len(result.cells)
        beats = []
        again = tournament.run(
            ExperimentContext(
                SETTINGS,
                cache_dir=shared_cache,
                journal_dir=context.journal_dir,
                progress=beats.append,
            ),
            **RUN,
        )
        assert beats == []  # no document attacked again
        assert [vars(c) for c in again.cells] == [vars(c) for c in result.cells]
        assert [vars(t) for t in again.transfers] == [vars(t) for t in result.transfers]

    def test_leaderboard_renders(self, result_and_trace):
        result, *_ = result_and_trace
        board = tournament.leaderboard(result)
        assert "## Defenses (by adversarial accuracy under attack)" in board
        assert "## Transferability (crafted on row, replayed on column)" in board
        assert "smoothing" in board and "none" in board
        assert "joint" in board

    def test_unknown_defense_rejected(self):
        with pytest.raises(KeyError, match="quantum"):
            tournament.matrix(defenses=("quantum_shield",))

    def test_default_matrix_uses_whole_registry_none_first(self):
        m = tournament.matrix()
        names = [d.name for d in m.defenses]
        assert names[0] == "none"
        assert set(names) == {"none", "adv_training", "smoothing"}


class TestTransferDeterminism:
    """Satellite: docs crafted on one arch replay bitwise-identically on
    every other victim regardless of worker count."""

    def run_once(self, shared_cache, n_workers=None):
        context = ExperimentContext(SETTINGS, cache_dir=shared_cache, n_workers=n_workers)
        return tournament.run(
            context,
            max_examples=3,
            datasets=("yelp",),
            models=("wcnn", "lstm", "gru"),
            attacks=("joint",),
            defenses=("none",),
        )

    @pytest.fixture(scope="class")
    def serial(self, shared_cache):
        return self.run_once(shared_cache)

    def assert_identical(self, a, b):
        assert [vars(c) for c in a.cells] == [vars(c) for c in b.cells]
        assert [vars(t) for t in a.transfers] == [vars(t) for t in b.transfers]

    def test_pooled_matches_serial(self, shared_cache, serial):
        pooled = self.run_once(shared_cache, n_workers=2)
        self.assert_identical(serial, pooled)


class TestTournamentCli:
    def test_verb_prints_leaderboard(self, capsys, monkeypatch, shared_cache):
        monkeypatch.setattr(
            "repro.experiments.__main__.ExperimentContext",
            lambda: ExperimentContext(SETTINGS, cache_dir=shared_cache),
        )
        argv = ["tournament", "--attacks", "random_word", "--defenses", "none"]
        argv += ["--models", "wcnn", "--max-examples", "2", "--no-transfer"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "## Defenses (by adversarial accuracy under attack)" in out
        assert "random_word" in out
