"""Tests for the experiment drivers (small-scale smoke + schema checks)."""

from pathlib import Path

import numpy as np
import pytest

from repro.eval.progress import ProgressPrinter
from repro.experiments import DATASETS, ExperimentContext, ExperimentSettings
from repro.experiments import (
    examples_gallery,
    figure4,
    table2,
    table3,
    table4,
    table5,
    table6,
)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    settings = ExperimentSettings(n_train=150, n_test=40, epochs=5, wcnn_filters=32, lstm_hidden=24)
    return ExperimentContext(settings, cache_dir=tmp_path_factory.mktemp("cache"))


class TestContext:
    def test_unknown_dataset(self, ctx):
        with pytest.raises(KeyError):
            ctx.dataset("imdb")

    def test_unknown_arch(self, ctx):
        with pytest.raises(KeyError):
            ctx.build_model("yelp", "transformer")

    def test_unknown_attack(self, ctx):
        model = ctx.model("yelp", "wcnn")
        with pytest.raises(KeyError):
            ctx.make_attack("hypnosis", model, "yelp")

    def test_dataset_memoized(self, ctx):
        assert ctx.dataset("yelp") is ctx.dataset("yelp")

    def test_model_trains_to_reasonable_accuracy(self, ctx):
        model = ctx.model("yelp", "wcnn")
        ds = ctx.dataset("yelp")
        assert model.accuracy(ds.documents("test"), ds.labels("test")) >= 0.85

    def test_model_cached_on_disk(self, ctx):
        ctx.model("yelp", "wcnn")
        files = list((ctx.cache_dir / "models").glob("yelp_wcnn_*.npz"))
        assert files

    def test_model_cache_roundtrip(self, ctx):
        a = ctx.model("yelp", "wcnn")
        fresh = ExperimentContext(ctx.settings, cache_dir=ctx.cache_dir)
        b = fresh.model("yelp", "wcnn")
        docs = ctx.dataset("yelp").documents("test")[:5]
        np.testing.assert_allclose(a.predict_proba(docs), b.predict_proba(docs))

    def test_sentence_budget_per_dataset(self, ctx):
        assert ctx.sentence_budget("trec07p") == 0.6
        assert ctx.sentence_budget("yelp") == 0.2

    def test_spam_lm_filter_disabled(self, ctx):
        assert ctx.paraphrase_config("trec07p").delta_lm == float("inf")
        assert np.isfinite(ctx.paraphrase_config("yelp").delta_lm)

    @pytest.mark.parametrize("value", [None, False])
    def test_scoring_service_off_is_accepted_and_dropped(self, tmp_path, value):
        context = ExperimentContext(cache_dir=tmp_path, scoring_service=value)
        assert not hasattr(context, "scoring_service")
        assert "scoring_service" not in context.eval_kwargs("cell")

    @pytest.mark.parametrize("value", [True, 0])
    def test_scoring_service_on_names_the_removed_service(self, tmp_path, value):
        with pytest.raises(ValueError, match="scoring service was removed"):
            ExperimentContext(cache_dir=tmp_path, scoring_service=value)

    @pytest.mark.parametrize("value,on", [("0", False), ("off", False), (" ", False), ("1", True)])
    def test_progress_env(self, tmp_path, monkeypatch, value, on):
        monkeypatch.setenv("REPRO_PROGRESS", value)
        progress = ExperimentContext(cache_dir=tmp_path).progress
        assert isinstance(progress, ProgressPrinter) if on else progress is None

    def test_env_dirs_and_port(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "  ")  # blank means unset
        monkeypatch.setenv("REPRO_JOURNAL_DIR", "journals")
        monkeypatch.setenv("REPRO_TRACE_DIR", "traces")
        monkeypatch.setenv("REPRO_TELEMETRY_PORT", "0")
        context = ExperimentContext()
        assert context.cache_dir == Path(".cache")
        assert (context.journal_dir, context.trace_dir) == (Path("journals"), Path("traces"))
        assert context.telemetry_port == 0
        explicit = ExperimentContext(
            cache_dir=tmp_path, journal_dir="j", trace_dir="t", telemetry_port=8123
        )
        assert (explicit.cache_dir, explicit.journal_dir, explicit.trace_dir) == (
            tmp_path,
            Path("j"),
            Path("t"),
        )
        assert explicit.telemetry_port == 8123

    @pytest.mark.parametrize(
        "var,raw", [("REPRO_TELEMETRY_PORT", "70000"), ("REPRO_PROGRESS", "maybe")]
    )
    def test_malformed_env_fails_at_construction(self, tmp_path, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            ExperimentContext(cache_dir=tmp_path)

    def test_progress_callback_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "maybe")
        beats = []
        assert ExperimentContext(cache_dir=tmp_path, progress=beats.append).progress == beats.append

    def test_settings_cache_key_stable(self):
        a = ExperimentSettings().cache_key()
        b = ExperimentSettings().cache_key()
        c = ExperimentSettings(seed=5).cache_key()
        assert a == b != c

    def test_all_attack_methods_constructible(self, ctx):
        model = ctx.model("yelp", "wcnn")
        for method in ("joint", "gradient-guided", "objective-greedy", "gradient", "random"):
            assert ctx.make_attack(method, model, "yelp") is not None

    def test_make_attack_honours_or_refuses_each_setting(self, ctx):
        # a setting the caller gives is passed on or refused, never dropped
        model = ctx.model("yelp", "wcnn")
        for method in ("random", "gradient"):
            assert ctx.make_attack(method, model, "yelp", use_cache=False).use_cache is False
        with pytest.raises(TypeError, match=r"'gradient_guided' does not take strategy='lazy'"):
            ctx.make_attack("gradient-guided", model, "yelp", strategy="lazy")
        # unset settings keep the registry defaults
        attack = ctx.make_attack("gradient-guided", model, "yelp")
        assert attack.use_cache is True and attack.max_queries is None

    def test_every_alias_resolves(self, ctx):
        # the registry and the alias table live in different modules and
        # have drifted before; every alias must name a registry entry and
        # actually build through make_attack
        from repro.attacks import ATTACKS
        from repro.experiments.common import METHOD_ALIASES

        model = ctx.model("yelp", "wcnn")
        for alias, target in METHOD_ALIASES.items():
            assert target in ATTACKS
            attack = ctx.make_attack(alias, model, "yelp")
            direct = ctx.make_attack(target, model, "yelp")
            assert attack.name == direct.name
            assert type(attack.source) is type(direct.source)
            assert type(attack.search) is type(direct.search)


class TestTable6:
    def test_rows(self, ctx):
        rows = table6.run(ctx)
        assert len(rows) == len(DATASETS)
        for r in rows:
            assert r["n_train"] == 150
        assert "Spam" in table6.render(rows)


class TestTable3:
    def test_schema_and_shape(self, ctx):
        rows = table3.run(ctx, max_examples=12, datasets=("yelp",), word_budgets=(0.2,))
        assert {r.method for r in rows} == set(table3.METHODS)
        for r in rows:
            assert 0.0 <= r.success_rate <= 1.0
        rendered = table3.render(rows)
        assert "gradient-guided" in rendered

    def test_gradient_method_is_fastest(self, ctx):
        rows = table3.run(ctx, max_examples=12, datasets=("yelp",), word_budgets=(0.2,))
        by_method = {r.method: r for r in rows}
        assert by_method["gradient"].mean_queries <= by_method["objective-greedy"].mean_queries
        assert by_method["gradient"].mean_queries <= by_method["gradient-guided"].mean_queries


class TestTable2:
    def test_schema(self, ctx):
        rows = table2.run(ctx, max_examples=10, datasets=("yelp",), models=("wcnn",))
        assert len(rows) == 1
        r = rows[0]
        assert r.adv_ours <= r.clean_accuracy + 1e-9
        assert "clean" in table2.render(rows)


class TestFigure4:
    def test_monotone_in_sentence_budget_on_average(self, ctx):
        pts = figure4.run(
            ctx,
            max_examples=10,
            datasets=("yelp",),
            sentence_budgets=(0.0, 0.6),
            word_budgets=(0.0, 0.2),
            arch="wcnn",
        )
        s = figure4.series(pts, "yelp")
        # more sentence paraphrasing never hurts much at fixed word budget
        for lw, curve in s.items():
            assert curve[-1][1] >= curve[0][1] - 0.15

    def test_zero_budgets_zero_success(self, ctx):
        pts = figure4.run(
            ctx,
            max_examples=6,
            datasets=("yelp",),
            sentence_budgets=(0.0,),
            word_budgets=(0.0,),
            arch="wcnn",
        )
        assert pts[0].success_rate == 0.0

    def test_render(self, ctx):
        pts = [figure4.Figure4Point("yelp", 0.2, 0.1, 0.5)]
        assert "yelp" in figure4.render(pts)


class TestTable4:
    def test_adversarial_close_to_original(self, ctx):
        rows = table4.run(ctx, n_texts=10, datasets=("yelp",))
        r = rows[0]
        assert abs(r.original.naturalness_mean - r.adversarial.naturalness_mean) < 1.5
        assert r.original.label_accuracy >= 0.6
        assert "TaskII" in table4.render(rows)


class TestTable5:
    def test_pipeline(self, ctx):
        rows = table5.run(
            ctx, datasets=("yelp",), models=("wcnn",), max_eval_examples=12
        )
        r = rows[0].result
        assert 0.0 <= r.adv_after <= 1.0
        assert "ADV after" in table5.render(rows)


class TestGallery:
    def test_entries_render(self, ctx):
        entries = examples_gallery.run(ctx, per_dataset=1, datasets=("yelp",), max_examples=15)
        for entry in entries:
            text = examples_gallery.render_entry(entry)
            assert "ORIGINAL" in text and "ADVERSARIAL" in text


class TestAppendixExamples:
    def test_method_comparison_renders(self, ctx):
        from repro.experiments import appendix_examples

        comparisons = appendix_examples.run(ctx, datasets=("yelp",))
        assert len(comparisons) == 1
        text = appendix_examples.render(comparisons)
        assert "[joint]" in text and "[gradient]" in text
        assert "ORIGINAL" in text
