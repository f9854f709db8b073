"""Tests of the benchmark's own logic, with fakes: no victim, no training.

Run with ``python -m pytest bench -q`` from the root of the repository.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

import layers
import run
from measure import METRIC_NAME, check_metric_name, digest, percentile
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def _fake_models(clock):
    """A wrapped classifier whose forward calls the inner classifier's."""

    class Inner:
        def predict_proba(self, docs):
            clock.t += 2.0
            return docs

    class Outer:
        def __init__(self) -> None:
            self.model = Inner()

        def predict_proba(self, docs):
            clock.t += 1.0
            out = self.model.predict_proba(list(docs) * 9)
            clock.t += 1.0
            return out

    return Inner, Outer


def _rows(args):
    return len(args[1])


def test_self_time_excludes_nested_layer():
    # SmoothedClassifier.predict_proba calls TextClassifier.predict_proba
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    inner, outer = _fake_models(clock)
    original = vars(outer)["predict_proba"]
    patches = []
    layers.wrap(tracer, outer, "predict_proba", "defense.smoothing", _rows, patches)
    layers.wrap(tracer, inner, "predict_proba", "models.kernel.fake", _rows, patches)
    tracer.enter(layers.ROOT)
    outer().predict_proba([["a"], ["b"]])
    tracer.exit()
    assert tracer.self_s("defense.smoothing") == 2.0
    assert tracer.self_s("models.kernel.fake") == 2.0
    assert tracer.items("models.kernel.fake") == 18
    assert tracer.self_s(layers.ROOT) == 0.0
    root, smoothing, kernel = tracer.spans
    assert kernel[3] == 1 and smoothing[3] == 0 and root[3] is None
    layers.uninstall(patches)
    assert vars(outer)["predict_proba"] is original


def test_same_name_nesting_counts_one_call_and_no_double_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    inner, outer = _fake_models(clock)
    for cls in (outer, inner):
        layers.wrap(tracer, cls, "predict_proba", "models.kernel", _rows)
    tracer.enter(layers.ROOT)
    outer().predict_proba([["a"], ["b"]])
    clock.t += 0.5
    tracer.exit()
    assert tracer.calls("models.kernel") == 1
    assert tracer.items("models.kernel") == 2  # the outermost call's rows
    assert tracer.self_s("models.kernel") == 4.0
    assert tracer.self_s(layers.ROOT) == 0.5
    total = sum(stats[2] for stats in tracer.layers.values())
    assert total == 4.5  # self times add up to the root's duration


def test_ticks_count_toward_the_enclosing_span():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    tracer.enter("attacks.score")
    clock.t += 3.0
    tracer.tick("attacks.cache", 1.0)
    tracer.exit()
    assert tracer.self_s("attacks.score") == 2.0
    assert tracer.self_s("attacks.cache") == 1.0
    assert len([s for s in tracer.spans if s is not None]) == 1


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 90) == 89  # rank 90, ten samples beyond
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_digest_ignores_pool_completion_order():
    records = [
        ((r, 0, c, i), [f"cell{c}", ["tok", str(i)], i % 2 == 0, 10 + i])
        for r in range(2)
        for c in range(3)
        for i in range(5)
    ]
    shuffled = list(records)
    random.Random(0).shuffle(shuffled)
    assert digest(shuffled) == digest(records)
    changed = list(records)
    key, payload = changed[7]
    changed[7] = (key, [*payload[:3], payload[3] + 1])
    assert digest(changed) != digest(records)


def test_metric_names_are_valid_and_match_the_manifest():
    declared = {
        kind: {m["name"] for m in MANIFEST[kind]} for kind in ("end_to_end", "per_layer")
    }
    for names in declared.values():
        for name in names:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            check_metric_name(name)
    with pytest.raises(ValueError):
        check_metric_name("docs per s")
    assert not METRIC_NAME.fullmatch("x" * 65)

    child_run = {
        "docs": 120,
        "results": 118,
        "wall_s": 10.0,
        "doc_p50_ms": 5.0,
        "doc_p90_ms": 9.0,
        "queries": 1180,
        "successes": 59,
        "rss_mb": 100.0,
        "latency_sum_s": 9.5,
        "setup": {"setup_s": 0.7, "import_s": 0.5, "victims_s": 0.1, "paraphrasers_s": 0.1},
        "traced_wall_s": 10.5,
        "layer_metrics": layers.layer_metrics(layers.Tracer(), 1.0),
    }
    e2e = run.end_to_end_values(child_run, [child_run["setup"]] * 3)
    assert set(e2e) == declared["end_to_end"]
    assert all(value > 0 for value in e2e.values())
    per_layer = run.per_layer_values({"untraced": child_run, "traced": child_run})
    assert set(per_layer) == declared["per_layer"]


def test_manifest_fits_the_benchmark_contract():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["bench"]
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert len(names) == len(set(names))
