"""Tests for the robustness tournament: grid coverage, leaderboard,
summary gauges, and the transfer-replay determinism guarantee."""

import json

import pytest

from repro.experiments import ExperimentContext, ExperimentSettings
from repro.experiments import tournament
from repro.obs.report import load_run_metrics

SETTINGS = ExperimentSettings(
    n_train=100, n_test=24, epochs=3, wcnn_filters=16, lstm_hidden=12
)

ATTACKS = ("joint", "random")
MODELS = ("wcnn", "lstm")


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("tournament_cache")


@pytest.fixture(scope="module")
def result_and_trace(shared_cache, tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("tournament_trace")
    context = ExperimentContext(SETTINGS, cache_dir=shared_cache, trace_dir=trace_dir)
    result = tournament.run(
        context,
        max_examples=4,
        datasets=("yelp",),
        models=MODELS,
        attacks=ATTACKS,
        defenses=("none", "smoothing"),
    )
    return result, trace_dir, context


class TestTournament:
    def test_cell_and_transfer_counts(self, result_and_trace):
        result, _, _ = result_and_trace
        # 1 dataset x 2 models x 2 defenses x 2 attacks
        assert len(result.cells) == 8
        # transfer: 2 attacks x 2 src x 2 dst over the undefended cells
        assert len(result.transfers) == 8

    def test_cells_cover_the_declared_cross(self, result_and_trace):
        result, _, _ = result_and_trace
        coords = {(c.arch, c.defense, c.attack) for c in result.cells}
        assert coords == {
            (m, d, a) for m in MODELS for d in ("none", "smoothing") for a in ATTACKS
        }

    def test_self_transfer_is_total(self, result_and_trace):
        result, _, _ = result_and_trace
        for t in result.transfers:
            if t.src_arch == t.dst_arch and t.n_docs:
                assert t.transfer_rate == 1.0

    def test_summary_cell_carries_all_gauges(self, result_and_trace):
        result, trace_dir, _ = result_and_trace
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
        # merged run metrics see the summary cell alongside attack cells
        merged = load_run_metrics(trace_dir)
        assert "tournament_summary" in merged["per_cell"]

    def test_leaderboard_renders(self, result_and_trace):
        result, _, _ = result_and_trace
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
