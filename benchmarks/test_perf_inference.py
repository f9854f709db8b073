"""Inference-layer perf regression harness.

Measures the fast inference layer on the cached seed victims and writes
``BENCH_inference.json`` at the repo root (stable schema
``{metric: {"value": ..., "unit": ...}}``) so successive PRs have a perf
trajectory:

1. **Length-bucketed batching** — ``predict_proba`` bucketed vs the legacy
   pad-to-``max_len`` path: identical probabilities (≤ 1e-10), fewer
   padded timesteps, measured docs/sec on the LSTM (the architecture that
   pays per timestep).
2. **Graph-free fused kernels** — the ``repro.nn.inference`` forward vs
   the autograd reference on attack-shaped candidate batches, per
   architecture (parity is enforced at ≤ 1e-12 by the unit tests; here
   only throughput is measured).
3. **Candidate score caching + lazy greedy + fused kernels** — the joint
   greedy attack (Alg. 1 with the objective-greedy word stage) with the
   fast configuration (ScoreCache + CELF ``strategy="lazy"`` + fused
   inference) vs the naive baseline (no cache, full rescans, autograd
   path): the acceptance bars are a ≥2× reduction in paid model forwards
   AND a ≥2× single-thread wall-time speedup, at no loss in attack
   success.
4. **Parallel corpus runner** — the same fast attack sharded across
   forked workers via :class:`~repro.eval.parallel.ParallelAttackRunner`.
   A ``docs_per_second`` series is recorded per worker count (1/2/4)
   together with the machine's CPU count; on a single-core container the
   multi-worker numbers honestly sit at/below serial, and the regression
   test (``tests/eval/test_bench_scaling.py``) only requires pooled ≥
   serial when the recorded CPU count can deliver it.  Results must be
   identical to the serial run at every worker count.
5. **Incremental delta scoring** — the same fast joint greedy attack with
   :class:`~repro.nn.delta.DeltaScoreFn` installed: single-edit
   candidates are scored through the windowed-conv delta kernel instead
   of full forwards.  The acceptance bar is a ≥2× further reduction in
   forward FLOP-equivalents (conv-window units) over the CELF fast
   configuration, at byte-identical adversarial documents and success.
"""

import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import run_once
from repro.eval.parallel import ParallelAttackRunner, fork_available
from repro.eval.perf import write_bench_json
from repro.nn.delta import DeltaScoreFn
from repro.obs.registry import MetricsRegistry
from repro.obs.report import padded_length_stats

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_inference.json"

DATASET = "news"
N_DOCS = 12


def _attack_forwards(ctx, model, docs, targets, strategy, use_cache, fused):
    attack = ctx.make_attack(
        "joint-greedy", model, DATASET, strategy=strategy, use_cache=use_cache
    )
    prev_fused = model.fused_inference
    model.fused_inference = fused
    try:
        start = time.perf_counter()
        results = [attack.attack(d, t) for d, t in zip(docs, targets)]
        elapsed = time.perf_counter() - start
    finally:
        model.fused_inference = prev_fused
    return {
        "queries": sum(r.n_queries for r in results),
        "cache_hits": sum(r.n_cache_hits for r in results),
        "successes": sum(r.success for r in results),
        "seconds": elapsed,
        "adversarial": [tuple(r.adversarial) for r in results],
    }


def _candidate_batch(docs, size=16):
    """Attack-shaped workload: single-word variants of the shortest doc."""
    short = min(docs, key=len)
    variants = [list(short) for _ in range(size)]
    for i, variant in enumerate(variants):
        variant[i % len(variant)] = "<unk>"
    return variants


def _fused_forward_timing(model, variants, rounds=20):
    """(reference seconds, fused seconds) per predict_proba call."""
    prev_metrics, model.metrics = model.metrics, None
    prev_fused = model.fused_inference
    times = {}
    try:
        for fused in (False, True):
            model.fused_inference = fused
            model.predict_proba(variants)  # warm
            start = time.perf_counter()
            for _ in range(rounds):
                model.predict_proba(variants)
            times[fused] = (time.perf_counter() - start) / rounds
    finally:
        model.fused_inference = prev_fused
        model.metrics = prev_metrics
    return times[False], times[True]


def test_inference_perf(benchmark, ctx):
    def run():
        metrics: dict[str, tuple[float, str]] = {}

        # -- part 1: bucketed batching on the recurrent victim ---------------
        # (a) correctness sweep over the full mixed-length test set
        lstm = ctx.model(DATASET, "lstm")
        docs = ctx.dataset(DATASET).documents("test")
        dense = lstm.predict_proba(docs, bucketed=False)
        registry = MetricsRegistry()
        lstm.metrics = registry
        bucketed = lstm.predict_proba(docs, bucketed=True)
        max_dev = float(np.abs(dense - bucketed).max())
        assert max_dev < 1e-10, "bucketed probabilities must match unbucketed"
        metrics["bucketed_max_abs_deviation"] = (max_dev, "probability")
        # document-weighted mean padded length: the bucketing win metric
        buckets = padded_length_stats(registry.counters)
        metrics["bucketed_mean_padded_length"] = (
            sum(length * b["docs"] for length, b in buckets.items())
            / registry.counter("forward/docs"),
            "tokens",
        )
        metrics["unbucketed_padded_length"] = (float(lstm.max_len), "tokens")
        # (b) wall-time on the attack-shaped workload `_score_batch` issues:
        # one batch of single-word variants of one (short) document — they
        # share a length band, so bucketing pads to the document instead of
        # max_len and the LSTM skips the all-padding timesteps
        short = min(docs, key=len)
        variants = [list(short) for _ in range(128)]
        for i, variant in enumerate(variants):
            variant[i % len(variant)] = "<unk>"
        rounds = 5
        lstm.metrics = None
        for bucket_flag in (False, True):  # warm both paths
            lstm.predict_proba(variants, bucketed=bucket_flag)
        start = time.perf_counter()
        for _ in range(rounds):
            lstm.predict_proba(variants, bucketed=False)
        t_dense = (time.perf_counter() - start) / rounds
        start = time.perf_counter()
        for _ in range(rounds):
            lstm.predict_proba(variants, bucketed=True)
        t_bucketed = (time.perf_counter() - start) / rounds
        lstm.metrics = ctx.metrics
        metrics["candidate_batch_docs_per_second_bucketed"] = (
            len(variants) / t_bucketed,
            "docs/s",
        )
        metrics["candidate_batch_docs_per_second_unbucketed"] = (
            len(variants) / t_dense,
            "docs/s",
        )
        metrics["candidate_batch_speedup"] = (t_dense / t_bucketed, "x")

        # -- part 1.5: graph-free fused kernels on candidate batches ---------
        variants16 = _candidate_batch(docs)
        speedups = []
        for arch in ("wcnn", "lstm"):
            model = ctx.model(DATASET, arch)
            t_ref, t_fused = _fused_forward_timing(model, variants16)
            speedups.append(t_ref / t_fused)
            metrics[f"fused_forward_docs_per_second_{arch}"] = (
                len(variants16) / t_fused,
                "docs/s",
            )
            metrics[f"reference_forward_docs_per_second_{arch}"] = (
                len(variants16) / t_ref,
                "docs/s",
            )
        fused_speedup = float(np.mean(speedups))
        metrics["fused_forward_speedup"] = (fused_speedup, "x")

        # -- part 2: fused + cache + lazy greedy on the joint greedy attack --
        # naive = the pre-optimization configuration (full rescans, no
        # cache, autograd forward); fast = the whole fast inference layer
        wcnn = ctx.model(DATASET, "wcnn")
        attack_docs = ctx.dataset(DATASET).documents("test")[:N_DOCS]
        targets = [1 - int(label) for label in wcnn.predict(attack_docs)]
        naive = _attack_forwards(ctx, wcnn, attack_docs, targets, "scan", False, False)
        fast = _attack_forwards(ctx, wcnn, attack_docs, targets, "lazy", True, True)
        reduction = naive["queries"] / max(1, fast["queries"])
        wall_speedup = naive["seconds"] / fast["seconds"]
        metrics["attack_forwards_naive"] = (float(naive["queries"]), "forwards")
        metrics["attack_forwards_fast"] = (float(fast["queries"]), "forwards")
        metrics["attack_forward_reduction"] = (reduction, "x")
        metrics["attack_cache_hits_fast"] = (float(fast["cache_hits"]), "hits")
        metrics["attack_seconds_naive"] = (naive["seconds"], "s")
        metrics["attack_seconds_fast"] = (fast["seconds"], "s")
        metrics["attack_wall_speedup"] = (wall_speedup, "x")
        metrics["attack_success_naive"] = (naive["successes"] / N_DOCS, "rate")
        metrics["attack_success_fast"] = (fast["successes"] / N_DOCS, "rate")

        # -- part 3: parallel corpus runner ----------------------------------
        # docs/s series per worker count, so BENCH records the actual scaling curve instead of one opaque
        # speedup scalar.  On a 1-CPU container the multi-worker numbers
        # honestly sit at/below serial; the regression test only demands
        # scaling where the hardware can deliver it (cpu_count >= 2).
        attack = ctx.make_attack(
            "joint-greedy", wcnn, DATASET, strategy="lazy", use_cache=True
        )
        cpus = os.cpu_count() or 1
        metrics["parallel_runner_cpu_count"] = (float(cpus), "cpus")
        worker_counts = (1, 2, 4) if fork_available() else (1,)
        reference = None  # serial adversarial docs
        for workers in worker_counts:
            runner = ParallelAttackRunner(
                attack, n_workers=workers, base_seed=ctx.settings.seed, metrics=ctx.metrics
            )
            start = time.perf_counter()
            results = runner.run(attack_docs, targets)
            elapsed = time.perf_counter() - start
            adversarial = [tuple(r.adversarial) for r in results]
            if reference is None:
                reference = adversarial
            assert adversarial == reference, (
                f"pooled run ({workers} workers) must reproduce the "
                f"serial results exactly"
            )
            metrics[f"parallel_runner_docs_per_second_{workers}w"] = (
                N_DOCS / elapsed,
                "docs/s",
            )
        # -- part 4: incremental delta scoring on the fast joint greedy ------
        # same fast configuration, but single-edit candidates go through
        # the windowed-conv delta kernel; the reduction is measured in
        # forward FLOP-equivalents (conv-window units), the quantity the
        # kernel actually saves, independent of interpreter overhead
        delta_fn = DeltaScoreFn.for_model(wcnn)
        assert delta_fn is not None
        attack_delta = ctx.make_attack(
            "joint-greedy", wcnn, DATASET, strategy="lazy", use_cache=True
        )
        prev_fused = wcnn.fused_inference
        wcnn.fused_inference = True
        attack_delta.set_score_fn(delta_fn)
        try:
            start = time.perf_counter()
            delta_results = [
                attack_delta.attack(d, t) for d, t in zip(attack_docs, targets)
            ]
            delta_seconds = time.perf_counter() - start
        finally:
            attack_delta.set_score_fn(None)
            wcnn.fused_inference = prev_fused
        assert [tuple(r.adversarial) for r in delta_results] == fast["adversarial"], (
            "delta scoring must not change a single adversarial document"
        )
        assert sum(r.success for r in delta_results) == fast["successes"]
        assert sum(r.n_queries for r in delta_results) == fast["queries"]
        stats = delta_fn.stats
        delta_reduction = delta_fn.forward_reduction()
        # fraction of per-candidate window work served from the cached
        # prefix/suffix pooled maxima instead of recomputed
        suffix_fraction = 1.0 - stats["delta_units"] / max(
            stats["delta_units_full"], 1e-12
        )
        metrics["delta_forward_reduction"] = (delta_reduction, "x")
        metrics["delta_suffix_fraction"] = (suffix_fraction, "fraction")
        metrics["delta_candidates"] = (stats["delta_candidates"], "candidates")
        metrics["delta_state_builds"] = (stats["state_builds"], "builds")
        metrics["delta_seconds"] = (delta_seconds, "s")
        metrics["delta_wall_speedup"] = (fast["seconds"] / delta_seconds, "x")

        return metrics, naive, fast, reduction, fused_speedup, wall_speedup, delta_reduction

    metrics, naive, fast, reduction, fused_speedup, wall_speedup, delta_reduction = run_once(
        benchmark, run
    )
    payload = write_bench_json(BENCH_PATH, metrics)

    print(f"\n=== Inference perf ({DATASET}) → {BENCH_PATH.name} ===")
    for name, entry in payload.items():
        print(f"  {name}: {entry['value']:.4g} {entry['unit']}")

    # acceptance bars
    assert reduction >= 2.0, (
        f"cache + lazy greedy must at least halve model forwards on the joint "
        f"greedy attack (got {naive['queries']} → {fast['queries']}, "
        f"{reduction:.2f}x)"
    )
    assert fast["cache_hits"] > 0, "the ScoreCache should serve some hits"
    assert fast["successes"] >= naive["successes"] - 1, (
        "the fast path must not trade away attack success"
    )
    assert payload["candidate_batch_speedup"]["value"] > 1.2, (
        "bucketing should beat pad-to-max_len on candidate batches"
    )
    assert wall_speedup >= 2.0, (
        f"the fast inference layer must at least halve the single-thread "
        f"attack wall time (got {naive['seconds']:.3f}s → "
        f"{fast['seconds']:.3f}s, {wall_speedup:.2f}x)"
    )
    assert fused_speedup > 1.05, (
        f"fused kernels must beat the autograd reference on candidate "
        f"batches (got {fused_speedup:.2f}x)"
    )
    assert delta_reduction >= 2.0, (
        f"delta scoring must at least halve forward FLOP-equivalents over "
        f"the CELF fast configuration (got {delta_reduction:.2f}x)"
    )
