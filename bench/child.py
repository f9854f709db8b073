"""One benchmark process: set up, attack, check, report one JSON line.

``run.py`` starts this script with one BLAS thread and the spec as its
only argument; it never runs on its own.  Modes:

- ``setup``   — imports, the experiment context, every victim the
  workload needs (trained here only when ``allow_train`` is set, which
  ``run.py`` does under a lock before any timed process starts) and the
  paraphrasers and language models of every cell;
- ``measure`` — the same set-up, then the workload's rounds, timed, with
  the layer tracer installed when ``trace`` is set, then the correctness
  checks.

Nothing here is timed except the set-up phases and the rounds; the checks
run after the clock stops.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from measure import digest, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
OUT = BENCH / "out"


class MissingVictim(RuntimeError):
    pass


def _refuse_training(model, *args, **kwargs):
    raise MissingVictim(
        f"no cached victim for {type(model).__name__} under {CACHE}; "
        "run `python3 bench/run.py --prepare`"
    )


def setup(spec: dict) -> tuple[dict, object, list]:
    """Build everything a round needs; return timings, context, matrices."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.attacks import ATTACKS
    from repro.experiments import common
    from repro.experiments.common import ExperimentContext, ExperimentSettings

    from workloads import POOL, WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    matrices = workload.matrices()
    t_import = time.perf_counter()

    trained = []
    if spec.get("allow_train"):
        fit = common.fit

        def counted_fit(model, *args, **kwargs):
            trained.append(type(model).__name__)
            return fit(model, *args, **kwargs)

        common.fit = counted_fit
    else:
        common.fit = _refuse_training
    context = ExperimentContext(
        ExperimentSettings(n_test=POOL),
        cache_dir=CACHE,
        n_workers=spec.get("workers", workload.workers),
        scoring_service=False,
        delta_scoring=workload.delta,
    )
    cells = [cell for matrix in matrices for cell in matrix.cells()]
    for dataset, arch in dict.fromkeys((c.dataset, c.arch) for c in cells):
        context.model(dataset, arch)
    t_victims = time.perf_counter()
    for dataset, method in dict.fromkeys((c.dataset, c.attack.method) for c in cells):
        needs = ATTACKS[common.METHOD_ALIASES.get(method, method)].needs
        if "word" in needs:
            context.word_paraphraser(dataset)
        if "sentence" in needs:
            context.sentence_paraphraser(dataset)
    t_done = time.perf_counter()
    timings = {
        "import_s": t_import - t0,
        "victims_s": t_victims - t_import,
        "paraphrasers_s": t_done - t_victims,
        "setup_s": t_done - t0,
        "trained": len(trained),
        "settings_key": context.settings.cache_key(),
    }
    return timings, context, matrices


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_rounds(spec: dict, context, matrices) -> dict:
    """Run the rounds, then check every result; return the child's report."""
    from repro.experiments.grid import GridRunner

    import layers
    from workloads import WORKLOADS, round_seed

    workload = WORKLOADS[spec["workload"]]
    tracer = patches = None
    if spec.get("trace"):
        tracer = layers.Tracer()
        patches = layers.install(tracer)
    scratch = OUT / f"tmp-{os.getpid()}" if workload.io else None
    runner = GridRunner(context)
    frames = []
    try:
        if tracer is not None:
            tracer.enter(layers.ROOT)
        start = time.perf_counter()
        for r in range(spec["rounds"]):
            if scratch is not None:
                context.journal_dir = scratch / f"r{r}" / "journal"
                context.trace_dir = scratch / f"r{r}" / "trace"
            for matrix in matrices:
                frames.append(runner.run(matrix, seed=round_seed(spec["seed"], r)))
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.exit()
    finally:
        if patches is not None:
            layers.uninstall(patches)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    report = {"wall_s": wall, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    report.update(_summarize(frames, len(matrices)))
    if tracer is not None:
        _, root_start, root_end, _, _ = tracer.spans[0]
        root_wall = root_end - root_start
        report["layer_metrics"] = layers.layer_metrics(tracer, root_wall)
        report["layers"] = layers.layer_table(tracer)
        report["traced_wall_s"] = root_wall
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload.name}.trace.jsonl")
    return report


def _summarize(frames: list, per_round: int) -> dict:
    """Counts, latencies, correctness checks and digests over every cell.

    A record's key is (frame, cell, document): frames are the rounds'
    matrices in order, so the first ``per_round`` frames are round 0.
    """
    latencies, records = [], []
    docs = failed = successes = queries = mismatches = over_cap = 0
    for f, frame in enumerate(frames):
        for c, result in enumerate(frame):
            cell, ev = result.cell, result.evaluation
            cap = cell.attack.max_queries
            docs += ev.n_attacked + ev.n_failures
            failed += ev.n_failures
            for i, res in enumerate(ev.results):
                latencies.append(res.wall_time)
                successes += res.success
                queries += res.n_queries
                if cap is not None and res.n_queries > cap:
                    over_cap += 1
                # the verdict is re-derived exactly as the attack derived it:
                # one document per forward on the cell's (possibly wrapped) victim
                probs = result.victim.predict_proba([res.adversarial])[0]
                if bool(probs.argmax() == res.target_label) != res.success:
                    mismatches += 1
                records.append(
                    ((f, c, i), [result.tag, res.adversarial, res.success, res.n_queries])
                )
            for j, fail in enumerate(ev.failures):
                records.append(
                    ((f, c, len(ev.results) + j), [result.tag, "failure", fail.doc_index])
                )
    return {
        "docs": docs,
        "failed": failed,
        "results": len(latencies),
        "successes": successes,
        "queries": queries,
        "latency_sum_s": sum(latencies),
        "doc_p50_ms": percentile(latencies, 50) * 1000,
        "doc_p90_ms": percentile(latencies, 90) * 1000,
        "rescore_mismatches": mismatches,
        "over_cap": over_cap,
        "digest": digest(records),
        "digest_round0": digest(rec for rec in records if rec[0][0] < per_round),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    timings, context, matrices = setup(spec)
    report = {"setup": timings}
    if spec["mode"] == "measure":
        report.update(run_rounds(spec, context, matrices))
    import numpy

    report["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas(),
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": context.n_workers,
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
