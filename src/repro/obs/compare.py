"""Cross-run regression comparison: diff two run directories with gates.

``python -m repro.experiments compare <run_a> <run_b>`` turns the paper's
throughput/query-efficiency story into a standing check: given two run
directories (anything ``REPRO_TRACE_DIR`` pointed at — each holds
``metrics.json``, ``series.jsonl`` and optionally ``BENCH_*.json``
copies), this module

1. derives a flat summary per run — success rate, queries/doc, cache hit
   rate, docs/s (from the run gauges and the sampled series), wall-time
   quantiles, failure counts, plus every scalar metric of any
   ``BENCH_*.json`` found in the run directory root;
2. compares the summaries metric by metric under **relative-tolerance
   gates**: each metric has a direction (``higher`` is better, ``lower``
   is better, or ``info``), and a directional change beyond the
   tolerance is a **regression**;
3. renders a markdown report (same table conventions as
   :mod:`repro.obs.report`) and the CLI exits nonzero when any gated
   metric regressed — CI-able run-to-run comparison without hand-diffing
   JSON.

Deterministic counters (docs, queries, successes) gate tightly even
between two live runs; wall-clock metrics (docs/s, seconds) are inherently
noisy, so the default tolerance is 10% and per-metric overrides are
available (``--gate name=tol``, ``tol >= 1`` disables that gate).

Run ``a`` is the **baseline**, run ``b`` the **candidate** — "regression"
means *b* is worse than *a*.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.report import load_run_metrics, _md_table
from repro.obs.timeseries import load_run_series

__all__ = [
    "DEFAULT_REL_TOL",
    "MetricDelta",
    "RunComparison",
    "compare_runs",
    "metric_direction",
    "render_compare_report",
    "summarize_run_dir",
]

DEFAULT_REL_TOL = 0.1

#: substring -> direction, checked in order; first match wins.  "lower"
#: patterns go first so e.g. ``failure_rate`` is not caught by ``rate``
#: and a transfer-matrix ``success_rate`` is not caught by ``success``:
#: adversarial documents transferring to other victims more often is a
#: robustness *regression* even though attack success is normally the
#: candidate's own figure of merit.
_DIRECTION_PATTERNS: tuple[tuple[str, str], ...] = (
    ("failure", "lower"),
    ("error", "lower"),
    ("eviction", "lower"),
    ("transfer", "lower"),
    ("queries", "lower"),
    ("seconds", "lower"),
    ("wall_time", "lower"),
    ("_time", "lower"),
    ("docs_per_second", "higher"),
    ("per_second", "higher"),
    ("speedup", "higher"),
    ("reduction", "higher"),
    ("success", "higher"),
    ("accuracy", "higher"),
    ("hit_rate", "higher"),
)


def metric_direction(name: str) -> str:
    """``higher`` / ``lower`` is better, or ``info`` (not gated)."""
    lowered = name.lower()
    for pattern, direction in _DIRECTION_PATTERNS:
        if pattern in lowered:
            return direction
    return "info"


@dataclass
class MetricDelta:
    """One metric's baseline-vs-candidate comparison."""

    name: str
    baseline: float | None
    candidate: float | None
    direction: str  # "higher" | "lower" | "info"
    rel_tol: float
    #: signed relative change (candidate - baseline) / |baseline|;
    #: None when the metric is missing on either side, inf when the
    #: baseline is zero and the candidate moved
    rel_change: float | None = None
    regressed: bool = False


@dataclass
class RunComparison:
    """Everything ``compare`` renders and gates on."""

    baseline_dir: str
    candidate_dir: str
    rel_tol: float
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


# -- per-run summaries -------------------------------------------------------
def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def summarize_run_dir(run_dir: str | Path) -> dict[str, float]:
    """Flatten one run directory into ``{metric: value}``.

    Sources: the merged ``metrics.json`` registries, the sampled
    ``series.jsonl`` trajectory, and any ``BENCH_*.json`` in the run-dir
    root (scalar entries only, prefixed ``bench/<stem>/``).
    """
    run_dir = Path(run_dir)
    metrics = load_run_metrics(run_dir)
    run = metrics["run"]
    out: dict[str, float] = {}
    docs = run.counter("attack/docs")
    if docs:
        out["docs"] = docs
        out["success_rate"] = run.counter("attack/successes") / docs
        out["mean_queries_per_doc"] = run.counter("attack/n_queries") / docs
        hits = run.counter("attack/cache_hits")
        hit_rate = _ratio(hits, run.counter("attack/n_queries") + hits)
        if hit_rate is not None:
            out["cache_hit_rate"] = hit_rate
    out["failures"] = run.counter("attack/failures")
    if "run/docs_per_second" in run.gauges:
        out["docs_per_second"] = run.gauges["run/docs_per_second"]
    wall = run.histogram("attack/wall_time_seconds")
    if wall is not None and wall.count:
        out["wall_time_per_doc_p50_seconds"] = wall.quantile(0.5)
        out["wall_time_per_doc_p95_seconds"] = wall.quantile(0.95)

    # standing-leaderboard gauges (tournament cells, transfer matrix,
    # frontier curves) gate directly: each is a stable per-cell scalar.
    # The tournament writes its own summary cell into the run section;
    # frontier gauges ride the cumulative context snapshot.
    context_gauges = (metrics["context"] or {}).get("gauges") or {}
    for source in (context_gauges, run.gauges):
        for name, value in source.items():
            if name.startswith(("tournament/", "frontier/")):
                out[name] = float(value)

    points = [p for p in load_run_series(run_dir) if p.get("source") == "run"]
    if points:
        out["series/points"] = float(len(points))
        rates = [p.get("rates", {}).get("attack/docs") for p in points]
        rates = [r for r in rates if r is not None]
        if rates:
            out["series/docs_per_second_peak"] = max(rates)
            out["series/docs_per_second_mean"] = sum(rates) / len(rates)
        final = points[-1].get("counters", {})
        for name in ("attack/docs", "attack/n_queries", "attack/successes"):
            if name in final:
                out[f"series/final_{name.split('/', 1)[1]}"] = final[name]

    for path in sorted(run_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict):
            continue
        for name, entry in payload.items():
            value = entry.get("value") if isinstance(entry, dict) else None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[f"bench/{path.stem}/{name}"] = float(value)
    return out


# -- comparison --------------------------------------------------------------
def compare_runs(
    baseline_dir: str | Path,
    candidate_dir: str | Path,
    rel_tol: float = DEFAULT_REL_TOL,
    gate_overrides: dict[str, float] | None = None,
) -> RunComparison:
    """Compare two run directories; ``candidate`` regresses or passes.

    ``gate_overrides`` maps metric names to per-metric tolerances; a
    tolerance >= 1 disables that metric's gate (it stays in the report as
    informational).  Metrics whose :func:`metric_direction` is ``info``
    never gate.
    """
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    overrides = gate_overrides or {}
    base = summarize_run_dir(baseline_dir)
    cand = summarize_run_dir(candidate_dir)
    comparison = RunComparison(
        baseline_dir=str(baseline_dir),
        candidate_dir=str(candidate_dir),
        rel_tol=rel_tol,
    )
    for name in sorted(set(base) | set(cand)):
        direction = metric_direction(name)
        tol = overrides.get(name, rel_tol)
        delta = MetricDelta(
            name=name,
            baseline=base.get(name),
            candidate=cand.get(name),
            direction=direction if tol < 1 else "info",
            rel_tol=tol,
        )
        if delta.baseline is not None and delta.candidate is not None:
            diff = delta.candidate - delta.baseline
            if delta.baseline != 0:
                delta.rel_change = diff / abs(delta.baseline)
            elif diff != 0:
                delta.rel_change = float("inf") if diff > 0 else float("-inf")
            else:
                delta.rel_change = 0.0
            if delta.rel_change is not None and delta.direction != "info":
                worse = (
                    -delta.rel_change
                    if delta.direction == "higher"
                    else delta.rel_change
                )
                delta.regressed = worse > tol
        comparison.deltas.append(delta)
    return comparison


# -- rendering ---------------------------------------------------------------
def _fmt_metric(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_change(delta: MetricDelta) -> str:
    if delta.rel_change is None:
        return "—"
    if delta.rel_change in (float("inf"), float("-inf")):
        return "∞" if delta.rel_change > 0 else "-∞"
    return f"{delta.rel_change:+.1%}"


def render_compare_report(comparison: RunComparison) -> str:
    """Markdown regression report for a :class:`RunComparison`."""
    out = [
        "# Run comparison",
        "",
        f"- baseline:  `{comparison.baseline_dir}`",
        f"- candidate: `{comparison.candidate_dir}`",
        f"- tolerance: ±{comparison.rel_tol:.0%} relative on gated metrics",
        "",
    ]

    def verdict(delta: MetricDelta) -> str:
        if delta.direction == "info":
            return ""
        if delta.baseline is None or delta.candidate is None:
            return "missing"
        arrow = "↑" if delta.direction == "higher" else "↓"
        return f"REGRESSED ({arrow} better)" if delta.regressed else "ok"

    sections = (
        ("Run metrics", lambda n: not n.startswith(("bench/", "series/"))),
        ("Series trajectory", lambda n: n.startswith("series/")),
        ("BENCH files", lambda n: n.startswith("bench/")),
    )
    for title, selector in sections:
        rows = [
            [
                f"`{d.name}`",
                _fmt_metric(d.baseline),
                _fmt_metric(d.candidate),
                _fmt_change(d),
                verdict(d),
            ]
            for d in comparison.deltas
            if selector(d.name)
        ]
        if not rows:
            continue
        out += [
            f"## {title}",
            "",
            _md_table(["metric", "baseline", "candidate", "change", "verdict"], rows),
            "",
        ]

    if comparison.ok:
        out.append("**PASS** — no gated metric regressed.")
    else:
        names = ", ".join(f"`{d.name}`" for d in comparison.regressions)
        out.append(
            f"**FAIL** — {len(comparison.regressions)} regression(s): {names}."
        )
    return "\n".join(out)
