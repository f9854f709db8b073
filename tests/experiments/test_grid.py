"""Tests for the run-matrix engine: declarations, cell resolution, the
runner's victim assembly, and per-cell journaling/observability."""

import pickle

import numpy as np
import pytest

from repro.defense.smoothing import SmoothedClassifier
from repro.experiments import ExperimentContext, ExperimentSettings
from repro.experiments.grid import (
    CellOverride,
    GridRunner,
    MatrixAttack,
    MatrixDefense,
    RunMatrix,
)
from repro.nn.delta import DeltaScoreFn

SETTINGS = ExperimentSettings(
    n_train=100, n_test=24, epochs=3, wcnn_filters=16, lstm_hidden=12
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    return ExperimentContext(SETTINGS, cache_dir=tmp_path_factory.mktemp("grid_cache"))


def small_matrix(**kwargs) -> RunMatrix:
    base = dict(
        name="t",
        datasets=("yelp",),
        models=("wcnn",),
        attacks=(MatrixAttack.of("random", word_budget=0.2),),
        max_examples=3,
    )
    base.update(kwargs)
    return RunMatrix(**base)


class TestRunMatrix:
    def test_cells_are_the_full_cross_product(self):
        m = small_matrix(
            datasets=("yelp", "news"),
            models=("wcnn", "lstm"),
            attacks=(MatrixAttack.of("random"), MatrixAttack.of("joint")),
            defenses=(MatrixDefense.of("none"), MatrixDefense.of("smoothing")),
        )
        cells = m.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        # axis order: dataset, arch, defense, attack
        assert [c.tag for c in cells[:4]] == [
            "t_yelp_wcnn_random",
            "t_yelp_wcnn_joint",
            "t_yelp_wcnn_smoothing_random",
            "t_yelp_wcnn_smoothing_joint",
        ]

    def test_matrix_is_picklable_and_hashable(self):
        m = small_matrix(
            defenses=(MatrixDefense.of("adv_training", augment_fraction=0.1),),
            overrides=(CellOverride.of(attack="random", max_examples=1),),
        )
        assert pickle.loads(pickle.dumps(m)) == m
        hash(m)

    def test_override_merges_attack_params(self):
        m = small_matrix(
            overrides=(CellOverride.of(dataset="yelp", word_budget=0.5),)
        )
        (cell,) = m.cells()
        assert dict(cell.attack.params)["word_budget"] == 0.5

    def test_override_sets_slice_and_budget(self):
        m = small_matrix(
            overrides=(CellOverride.of(attack="random", max_examples=7, max_queries=9),)
        )
        (cell,) = m.cells()
        assert cell.max_examples == 7
        assert cell.attack.max_queries == 9

    def test_override_pattern_must_match(self):
        m = small_matrix(
            overrides=(CellOverride.of(dataset="news", max_examples=99),)
        )
        (cell,) = m.cells()
        assert cell.max_examples == 3

    def test_tag_omits_none_defense_and_respects_arch_in_tag(self):
        plain = small_matrix().cells()[0]
        assert plain.tag == "t_yelp_wcnn_random"
        hidden = small_matrix(arch_in_tag=False).cells()[0]
        assert hidden.tag == "t_yelp_random"
        defended = small_matrix(
            defenses=(MatrixDefense.of("smoothing"),)
        ).cells()[0]
        assert defended.tag == "t_yelp_wcnn_smoothing_random"

    def test_degenerate_matrix_has_attackless_cells(self):
        m = RunMatrix(name="stats", datasets=("yelp", "news"))
        cells = m.cells()
        assert len(cells) == 2
        assert cells[0].attack is None and cells[0].arch is None
        assert cells[0].tag == "stats_yelp"


class TestGridRunner:
    def test_run_assembles_frame(self, ctx):
        frame = GridRunner(ctx).run(small_matrix())
        assert len(frame) == 1
        result = frame.get(dataset="yelp", attack="random")
        assert result.evaluation.n_examples == 3
        row = result.row()
        assert row["defense"] == "none"
        assert 0.0 <= row["success_rate"] <= 1.0

    def test_get_rejects_ambiguous_and_missing(self, ctx):
        frame = GridRunner(ctx).run(
            small_matrix(attacks=(MatrixAttack.of("random"), MatrixAttack.of("greedy_word")))
        )
        with pytest.raises(KeyError):
            frame.get(dataset="yelp")  # two cells match
        with pytest.raises(KeyError):
            frame.get(attack="nope")

    def test_attackless_matrix_requires_cell_fn(self, ctx):
        m = RunMatrix(name="stats", datasets=("yelp",))
        with pytest.raises(ValueError, match="cell_fn"):
            GridRunner(ctx).run(m)
        frame = GridRunner(ctx).run(
            m, cell_fn=lambda runner, cell: runner.context.dataset(cell.dataset).statistics()
        )
        assert frame.results[0].value["n_train"] == SETTINGS.n_train

    def test_per_cell_journals_and_traces(self, tmp_path):
        context = ExperimentContext(
            SETTINGS,
            cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journals",
            trace_dir=tmp_path / "traces",
        )
        frame = GridRunner(context).run(small_matrix())
        tag = frame.results[0].tag
        key = SETTINGS.cache_key()
        assert (tmp_path / "journals" / f"{tag}_{key}.jsonl").exists()
        assert (tmp_path / "traces" / tag / "metrics.json").exists()

    def test_journal_resume_is_bitwise_stable(self, tmp_path):
        kwargs = dict(cache_dir=tmp_path / "cache", journal_dir=tmp_path / "journals")
        first = GridRunner(ExperimentContext(SETTINGS, **kwargs)).run(small_matrix())
        # a second run resumes every document from the journal
        second = GridRunner(ExperimentContext(SETTINGS, **kwargs)).run(small_matrix())
        a, b = first.results[0].evaluation, second.results[0].evaluation
        assert a.summary() == pytest.approx(b.summary())
        assert [r.adversarial for r in a.results] == [r.adversarial for r in b.results]

    def test_retrained_victim_memoized_and_disk_cached(self, ctx):
        runner = GridRunner(ctx)
        m = small_matrix(
            defenses=(MatrixDefense.of("adv_training", augment_fraction=0.1),),
            attacks=(MatrixAttack.of("random"), MatrixAttack.of("greedy_word")),
        )
        frame = runner.run(m)
        # both attack cells share one retrained victim (one retrain, memoized)
        assert len(runner._retrained) == 1
        victims = [r.victim for r in frame.results]
        assert victims[0] is victims[1]
        cache_files = list(
            (ctx.cache_dir / "models").glob("yelp_wcnn_adv_training*npz")
        )
        assert len(cache_files) == 1
        # a fresh runner loads the hardened weights from disk, bitwise
        reloaded = GridRunner(ctx).victim(
            "yelp", "wcnn", MatrixDefense.of("adv_training", augment_fraction=0.1).build()
        )
        docs = ctx.dataset("yelp").documents("test")[:4]
        np.testing.assert_array_equal(
            victims[0].predict_proba(docs), reloaded.predict_proba(docs)
        )

    def test_wrapped_victim_identical_with_delta_on_and_off(self, ctx):
        # a smoothing victim has no registered delta kernel, so a delta-on
        # cell scores through its plain predict_proba like a delta-off one
        matrix = small_matrix(
            defenses=(MatrixDefense.of("smoothing", n_samples=3),),
            attacks=(MatrixAttack.of("greedy_word"),),
        )
        runs = {}
        for delta in (False, True):
            context = ExperimentContext(
                SETTINGS, cache_dir=ctx.cache_dir, delta_scoring=delta
            )
            result = GridRunner(context).run(matrix).results[0]
            assert isinstance(result.victim, SmoothedClassifier)
            assert DeltaScoreFn.for_model(result.victim) is None
            runs[delta] = [
                {**r.to_dict(), "wall_time": 0.0} for r in result.evaluation.results
            ]
        assert runs[True]
        assert runs[True] == runs[False]

    def test_wrapped_victim_forwards_reach_context_at_any_worker_count(self, ctx):
        # pool workers attach their registry through the smoothing wrapper,
        # so the wrapped model's forwards come home with the chunk snapshots
        matrix = small_matrix(
            defenses=(MatrixDefense.of("smoothing", n_samples=3),),
            attacks=(MatrixAttack.of("greedy_word"),),
            max_examples=6,  # enough correctly classified docs to use both workers
        )
        forwards = {}
        for n_workers in (1, 2):
            context = ExperimentContext(SETTINGS, cache_dir=ctx.cache_dir, n_workers=n_workers)
            GridRunner(context).run(matrix)
            forwards[n_workers] = {
                name: context.metrics.counter(name) for name in ("forward/docs", "forward/batches")
            }
        assert forwards[1]["forward/docs"] > 0
        assert forwards[2] == forwards[1]

    def test_max_queries_pinned_on_attack(self, ctx):
        frame = GridRunner(ctx).run(
            small_matrix(attacks=(MatrixAttack.of("greedy_word", max_queries=10),))
        )
        ev = frame.results[0].evaluation
        assert all(r.n_queries <= 10 for r in ev.results)

    @pytest.mark.parametrize(
        "matrix",
        [
            small_matrix(attacks=(MatrixAttack.of("greedy_word", max_queries=0),)),
            small_matrix(
                attacks=(MatrixAttack.of("greedy_word"),),
                overrides=(CellOverride.of(attack="greedy_word", max_queries=0),),
            ),
        ],
        ids=["attack", "override"],
    )
    def test_zero_query_budget_rejected(self, ctx, matrix):
        # the cap goes through the engine's constructor check; a cell must
        # not run with it and turn every document into an AttackFailure
        with pytest.raises(ValueError, match="max_queries"):
            GridRunner(ctx).run(matrix)
