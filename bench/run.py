"""End-to-end attack benchmark: four named workloads, gated metrics, layer trace.

Usage (from the root of the repository)::

    python3 bench/run.py --prepare                       # train the victims once
    python3 bench/run.py --workload table2 --seed 0      # end-to-end metrics
    python3 bench/run.py --workload table2 --trace 1     # per-layer metrics
    python3 bench/run.py --workload all                  # every workload

Each workload runs in fresh child processes (``child.py``) with one BLAS
thread each; this process only orchestrates, checks and reports.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run exits 1
when a correctness check fails and 2 when it cannot run at all.  See
``bench/README.md`` for the workloads, metrics and output files.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import check_metric_name
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CACHE = BENCH / ".cache"
PINNED = BENCH / "digests.json"

#: one BLAS thread per process: with the default, 2 pool workers x 2 BLAS
#: threads oversubscribe a 2-core host and the numbers measure the scheduler
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BLAS_NOTE = (
    "BLAS is pinned to one thread per process so that pool workers do not "
    "oversubscribe the cores"
)

#: fresh-process set-ups whose median is setup_s (the measuring process is
#: one); import time alone varies by 30% between processes on a shared host
SETUPS = 5
#: every measured run ends within this many seconds of starting to measure
DEADLINE_S = 170.0
#: the first run in a checkout may also train the victims
PREPARE_TIMEOUT_S = 850.0


class BenchError(RuntimeError):
    pass


def start(spec: dict) -> subprocess.Popen:
    """Start ``child.py`` with ``spec`` in a fresh process with pinned BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    return subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        text=True,
        start_new_session=True,  # the session holds the child's pool workers too
    )


def side_by_side(specs: list[dict], deadline: float) -> list[dict]:
    """Run one child per spec at the same time; return their reports.

    Every child is stopped and waited for before this returns or raises.
    """
    procs = [start(spec) for spec in specs]
    try:
        reports = []
        for proc, spec in zip(procs, specs):
            label = f"{spec['mode']} process for {spec['workload']}"
            try:
                out, _ = proc.communicate(timeout=max(deadline - time.time(), 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{label} timed out") from None
            if proc.returncode != 0:
                raise BenchError(f"{label} exited {proc.returncode}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
        return reports
    finally:
        for proc in procs:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # it exited after the poll
                    pass
                proc.communicate()


def child(spec: dict, deadline: float) -> dict:
    return side_by_side([spec], deadline)[0]


def prepare(workloads) -> dict:
    """Train every missing victim the workloads need, under a lock.

    Returns each workload's set-up report.  A set-up that trained nothing
    is an ordinary fresh-process sample of ``setup_s``.
    """
    CACHE.mkdir(parents=True, exist_ok=True)
    reports = {}
    with open(CACHE / "prepare.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for name in workloads:
            tic = time.perf_counter()
            reports[name] = child(
                {"mode": "setup", "workload": name, "allow_train": True},
                time.time() + PREPARE_TIMEOUT_S,
            )
            trained = reports[name]["setup"]["trained"]
            if trained:
                print(
                    f"# prepare: trained {trained} victims for {name} in "
                    f"{time.perf_counter() - tic:.1f} s (cold, not a metric)",
                    flush=True,
                )
    return reports


def fingerprint(report: dict) -> dict:
    """Host, toolchain and configuration of a run, recorded with every result."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        **report["env"],
        "settings_key": report["setup"]["settings_key"],
        "git_commit": git_commit(),
        "source_sha1": source_sha1(),
        "note": BLAS_NOTE,
    }


def git_commit() -> str | None:
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha1() -> str:
    """Digest of every source file, for checkouts that are not git repositories."""
    h = hashlib.sha1()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def check(report: dict, workload: str, seed: int, label: str) -> list[str]:
    """The correctness gate for one measuring child; returns the failures."""
    problems = []
    if report["rescore_mismatches"]:
        problems.append(
            f"{label}: {report['rescore_mismatches']} adversarial documents re-scored "
            "to a different success verdict"
        )
    if report["over_cap"]:
        problems.append(f"{label}: {report['over_cap']} documents exceeded max_queries")
    if seed == 0:
        pinned = json.loads(PINNED.read_text()).get(workload)
        if report["digest_round0"] != pinned:
            problems.append(
                f"{label}: seed-0 digest {report['digest_round0']} != pinned {pinned}"
            )
    return problems


def end_to_end_values(run: dict, setups: list[dict]) -> dict:
    """The end-to-end metrics of one untraced measuring run."""
    return {
        "docs_per_s": run["docs"] / run["wall_s"],
        "doc_p50_ms": run["doc_p50_ms"],
        "doc_p90_ms": run["doc_p90_ms"],
        "queries_per_doc": run["queries"] / run["results"],
        "success_rate": run["successes"] / run["results"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": run["rss_mb"],
    }


def per_layer_values(runs: dict) -> dict:
    """The per-layer metrics from a traced run and its untraced references.

    ``runs["traced"]`` gives the layer shares and counts,
    ``runs["untraced"]`` the tracing-overhead denominator, and the pooled
    run, when there is one, the effective parallelism and the contended
    latencies.
    """
    run, plain = runs["traced"], runs["untraced"]
    ref = runs.get("pooled", plain)
    return {
        **run["layer_metrics"],
        "eval.parallel.effective_workers": ref["latency_sum_s"] / ref["wall_s"],
        "eval.parallel.doc_p50_ms": ref["doc_p50_ms"],
        "eval.parallel.doc_p90_ms": ref["doc_p90_ms"],
        "setup.import_s": run["setup"]["import_s"],
        "setup.victims_s": run["setup"]["victims_s"],
        "setup.paraphrasers_s": run["setup"]["paraphrasers_s"],
        "bench.traced_wall_s": run["traced_wall_s"],
        "bench.trace_overhead_frac": run["wall_s"] / plain["wall_s"] - 1.0,
    }


def untraced(name: str, seed: int, seconds: int, deadline: float, prepared: dict) -> tuple:
    """End-to-end metrics of one workload, measured with tracing off."""
    workload = WORKLOADS[name]
    setups = [] if prepared["setup"]["trained"] else [prepared["setup"]]
    while len(setups) < SETUPS - 1:
        setups.append(child({"mode": "setup", "workload": name}, deadline)["setup"])
    spec = {"mode": "measure", "workload": name, "seed": seed, "rounds": workload.rounds(seconds)}
    run = child(spec, deadline)
    setups.append(run["setup"])
    problems = check(run, name, seed, "run")
    return end_to_end_values(run, setups), run, problems, {"runs": [run], "setups": setups}


def traced(name: str, seed: int, seconds: int, deadline: float, prepared: dict) -> tuple:
    """Per-layer metrics: a traced 1-worker run next to an untraced one.

    The two run side by side, one per core, so both see the same host
    load and their wall times give the tracing overhead.  The traced run
    always uses one worker, because timers inside pool workers cannot be
    seen from here; a pooled workload first runs untraced on its own.
    """
    workload = WORKLOADS[name]
    base = {"mode": "measure", "workload": name, "seed": seed, "rounds": workload.rounds(seconds)}
    runs = {}
    if workload.workers > 1:
        runs["pooled"] = child(base, deadline)
    runs["untraced"], runs["traced"] = side_by_side(
        [{**base, "workers": 1}, {**base, "workers": 1, "trace": True}], deadline
    )
    problems = [p for label, r in runs.items() for p in check(r, name, seed, label)]
    digests = {label: r["digest"] for label, r in runs.items()}
    if len(set(digests.values())) != 1:
        problems.append(f"digests differ between runs: {digests}")
    run = runs["traced"]
    return per_layer_values(runs), run, problems, {"runs": runs, "layers": run["layers"]}


def run_workload(name: str, args, manifest: dict, prepared: dict, deadline: float) -> dict:
    """Measure one workload, print and save its results, return the result line."""
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    measure_fn = traced if args.trace else untraced
    values, run, problems, detail = measure_fn(name, args.seed, args.seconds, deadline, prepared)
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    result = {
        "correct": not problems,
        "attempted": run["docs"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    env = fingerprint(run)
    OUT.mkdir(exist_ok=True)
    stem = f"{name}.layers" if args.trace else name
    (OUT / f"{stem}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "rounds": WORKLOADS[name].rounds(args.seconds),
                "fingerprint": env,
                "problems": problems,
                **result,
                **detail,
            },
            indent=1,
        )
    )
    print(f"# {name} fingerprint {json.dumps(env)}")
    print(f"# {name} digest {run['digest']} (round 0: {run['digest_round0']})")
    print(f"# {name} attempted {run['docs']} docs, {run['results']} latency samples")
    for key, metric in metrics.items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"# {name} CHECK FAILED: {problem}", file=sys.stderr)
    sys.stdout.flush()
    return result


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        check_metric_name(metric["name"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help="train every workload's victims into bench/.cache and exit")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(WORKLOADS) if args.workload == "all" or args.prepare else [args.workload]
    try:
        prepared = prepare(names)
        if args.prepare:
            return 0
        results = {}
        for name in names:
            deadline = time.time() + DEADLINE_S
            results[name] = run_workload(name, args, manifest, prepared[name], deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
