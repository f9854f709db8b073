"""Run reports: render a markdown digest of a traced corpus attack run.

A run directory is whatever ``REPRO_TRACE_DIR`` pointed at: the
experiment drivers give each table cell its own subdirectory, each
holding per-document ``trace-*.jsonl`` files plus a ``metrics.json``
(run-level counters merged across resumes, the context registry snapshot
replaced with the latest) and an optional
``failures.jsonl`` of structured :class:`~repro.attacks.base.
AttackFailure` payloads.

``python -m repro.experiments report <run_dir>`` renders:

- a **summary** — documents traced, success rate, query totals and
  exact p50/p95 quantiles (from ``attack_end`` events), cache hit rate,
  wall-time per document;
- a **per-cell table** when the run directory holds several cells;
- the **phase breakdown** (``phase/*`` counters from the merged
  registry) and forward-latency histogram quantiles;
- **forward batch totals and per-padded-length stats** from the context
  registry's ``forward/*`` counters;
- a **failure digest** grouped by error type.

Everything here consumes plain dicts read back from disk — this module
must not import the attack or eval layers.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import iter_trace_files, read_trace

__all__ = [
    "METRICS_FILENAME",
    "FAILURES_FILENAME",
    "write_run_metrics",
    "append_failure",
    "load_run_metrics",
    "load_failures",
    "padded_length_stats",
    "render_report",
    "render_phase_table",
    "render_frontier_leaderboard",
    "render_tournament_report",
]

METRICS_FILENAME = "metrics.json"
FAILURES_FILENAME = "failures.jsonl"
METRICS_SCHEMA_VERSION = 1


# -- artifact writers (called by evaluate_attack) ---------------------------
def write_run_metrics(
    run_dir: str | Path,
    run_snapshot: dict,
    context_snapshot: dict | None = None,
) -> Path:
    """Write/refresh ``metrics.json`` for one cell directory.

    The ``run`` section is *merged* with any existing file (a resumed run
    adds to its earlier counters); ``context`` is a cumulative snapshot of
    the long-lived context registry, so the latest write simply replaces
    it.
    """
    path = Path(run_dir) / METRICS_FILENAME
    merged = MetricsRegistry()
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
        if isinstance(existing.get("run"), dict):
            merged.merge(existing["run"])
    merged.merge(run_snapshot)
    payload = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "run": merged.snapshot(),
        "context": context_snapshot,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def append_failure(run_dir: str | Path, failure_payload: dict) -> None:
    """Append one ``AttackFailure.to_dict()`` line to ``failures.jsonl``."""
    path = Path(run_dir) / FAILURES_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(failure_payload) + "\n")
        fh.flush()


# -- artifact readers --------------------------------------------------------
def load_run_metrics(run_dir: str | Path) -> dict:
    """Aggregate every ``metrics.json`` under ``run_dir``.

    ``run`` sections merge across cells; ``context`` is a cumulative
    snapshot of the registry shared by every cell in one driver process,
    so the latest-written file carries the run-wide totals and is taken
    whole rather than merged (merging would double count).
    """
    run = MetricsRegistry()
    context: dict | None = None
    latest_mtime = -1.0
    per_cell: dict[str, dict] = {}
    for path in sorted(Path(run_dir).rglob(METRICS_FILENAME)):
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if isinstance(payload.get("run"), dict):
            run.merge(payload["run"])
            per_cell[str(path.parent.relative_to(run_dir)) or "."] = payload["run"]
        mtime = path.stat().st_mtime
        if mtime >= latest_mtime:
            latest_mtime = mtime
            context = payload.get("context")
    return {"run": run, "context": context, "per_cell": per_cell}


def load_failures(run_dir: str | Path) -> list[dict]:
    failures: list[dict] = []
    for path in sorted(Path(run_dir).rglob(FAILURES_FILENAME)):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                failures.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # truncated final line from a crash mid-append
    return failures


# -- rendering ---------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _exact_quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def padded_length_stats(counters: dict[str, float]) -> dict[int, dict[str, float]]:
    """``{padded_len: {"batches", "docs", "seconds"}}`` from ``forward/padded/*``.

    Parses the per-padded-length counters that
    :meth:`~repro.models.base.TextClassifier.record_forward` writes as
    ``forward/padded/<padded_len>/<field>``.
    """
    stats: dict[int, dict[str, float]] = {}
    for name, value in counters.items():
        if name.startswith("forward/padded/"):
            padded_len, field = name[len("forward/padded/") :].split("/")
            stats.setdefault(int(padded_len), {})[field] = value
    return dict(sorted(stats.items()))


def render_phase_table(counters: dict[str, float]) -> str:
    """Markdown table of ``phase/*_seconds`` counters with share-of-total."""
    phases: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        if not name.startswith("phase/"):
            continue
        if name.endswith("_seconds"):
            phases.setdefault(name[len("phase/") : -len("_seconds")], {})["seconds"] = value
        elif name.endswith("_calls"):
            phases.setdefault(name[len("phase/") : -len("_calls")], {})["calls"] = value
    if not phases:
        return "_no phase spans recorded_"
    total = sum(entry.get("seconds", 0.0) for entry in phases.values()) or 1.0
    rows = [
        [
            path,
            _fmt(entry.get("calls", 0.0)),
            f"{entry.get('seconds', 0.0):.3f}",
            f"{100.0 * entry.get('seconds', 0.0) / total:.1f}%",
        ]
        for path, entry in sorted(phases.items())
    ]
    return _md_table(["phase", "calls", "seconds", "share"], rows)


def render_frontier_leaderboard(points: list[dict]) -> str:
    """Markdown leaderboard for a query-efficiency frontier sweep.

    ``points`` are plain dicts (one per ``(attack, budget)`` cell) with
    keys ``attack``, ``max_queries``, ``success_rate``, ``mean_queries``
    and ``n_examples`` — the :mod:`repro.experiments.frontier` driver
    passes its dataclasses through ``asdict``, keeping this module free
    of attack/eval imports.  Attacks are ranked by success rate at the
    largest budget, ties broken by fewer queries actually spent there —
    the attack that converts a fixed query budget into the most
    flipped documents wins.
    """
    if not points:
        return "_no frontier points recorded_"
    budgets = sorted({int(p["max_queries"]) for p in points})
    by_attack: dict[str, dict[int, dict]] = {}
    for p in points:
        by_attack.setdefault(str(p["attack"]), {})[int(p["max_queries"])] = p
    top = budgets[-1]

    def rank_key(item: tuple[str, dict[int, dict]]):
        name, cells = item
        best = cells.get(top, {})
        return (
            -float(best.get("success_rate", 0.0)),
            float(best.get("mean_queries", float("inf"))),
            name,
        )

    ranked = sorted(by_attack.items(), key=rank_key)
    headers = (
        ["rank", "attack"]
        + [f"success@{b}" for b in budgets]
        + [f"queries@{top}"]
    )
    rows = []
    for rank, (name, cells) in enumerate(ranked, start=1):
        row = [str(rank), f"`{name}`"]
        for b in budgets:
            cell = cells.get(b)
            row.append(f"{cell['success_rate']:.1%}" if cell else "—")
        best = cells.get(top)
        row.append(f"{best['mean_queries']:.1f}" if best else "—")
        rows.append(row)
    n_docs = max(int(p.get("n_examples", 0)) for p in points)
    return "\n".join(
        [
            "# Query-efficiency frontier leaderboard",
            "",
            f"Success rate under hard `max_queries` budgets ({n_docs} documents; "
            "per-document `n_queries <= budget`, enforced by the engine).",
            "",
            _md_table(headers, rows),
        ]
    )


def render_tournament_report(cells: list[dict], transfers: list[dict]) -> str:
    """Markdown leaderboard for a robustness tournament.

    ``cells`` are flattened tournament cells (keys ``dataset``, ``arch``,
    ``defense``, ``attack``, ``clean_accuracy``, ``adversarial_accuracy``,
    ``success_rate``, ``mean_queries``, ``n_failures``); ``transfers``
    are transfer-matrix entries (``attack``, ``src_arch``, ``dst_arch``,
    ``transfer_rate``, ``n_docs``).  Both arrive as plain dicts — the
    :mod:`repro.experiments.tournament` driver passes its dataclasses
    through ``asdict`` — keeping this module free of attack/eval imports.

    Rankings: defenses by mean adversarial accuracy across every attack
    cell (higher = sturdier), attacks by mean success rate across every
    defended victim (higher = stronger).
    """
    if not cells:
        return "_no tournament cells recorded_"

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    defenses = sorted(
        {str(c["defense"]) for c in cells}, key=lambda d: (d != "none", d)
    )
    attacks = sorted({str(c["attack"]) for c in cells})
    victims = sorted({(str(c["dataset"]), str(c["arch"])) for c in cells})

    out: list[str] = ["# Robustness tournament leaderboard", ""]
    n_docs = max(int(c.get("n_examples", 0)) for c in cells)
    out += [
        f"{len(cells)} cells — {len(attacks)} attacks × {len(defenses)} defenses × "
        f"{len(victims)} victims, {n_docs} documents per cell.",
        "",
    ]

    # -- defense leaderboard -------------------------------------------------
    defense_rows = []
    ranked_defenses = sorted(
        defenses,
        key=lambda d: -mean(
            [c["adversarial_accuracy"] for c in cells if c["defense"] == d]
        ),
    )
    for rank, d in enumerate(ranked_defenses, start=1):
        mine = [c for c in cells if c["defense"] == d]
        defense_rows.append(
            [
                str(rank),
                f"`{d}`",
                f"{mean([c['adversarial_accuracy'] for c in mine]):.1%}",
                f"{mean([c['clean_accuracy'] for c in mine]):.1%}",
                f"{mean([c['success_rate'] for c in mine]):.1%}",
                _fmt(sum(c.get("n_failures", 0) for c in mine)),
            ]
        )
    out += [
        "## Defenses (by adversarial accuracy under attack)",
        "",
        _md_table(
            ["rank", "defense", "adv acc", "clean acc", "attack success", "failures"],
            defense_rows,
        ),
        "",
    ]

    # -- attack leaderboard: success rate per defense column ------------------
    ranked_attacks = sorted(
        attacks,
        key=lambda a: -mean([c["success_rate"] for c in cells if c["attack"] == a]),
    )
    attack_rows = []
    for rank, a in enumerate(ranked_attacks, start=1):
        row = [str(rank), f"`{a}`"]
        for d in defenses:
            mine = [
                c["success_rate"]
                for c in cells
                if c["attack"] == a and c["defense"] == d
            ]
            row.append(f"{mean(mine):.1%}" if mine else "—")
        row.append(
            f"{mean([c['mean_queries'] for c in cells if c['attack'] == a]):.0f}"
        )
        attack_rows.append(row)
    out += [
        "## Attacks (success rate per defense)",
        "",
        _md_table(
            ["rank", "attack"] + [f"vs `{d}`" for d in defenses] + ["queries/doc"],
            attack_rows,
        ),
        "",
    ]

    # -- transferability matrix ----------------------------------------------
    out += ["## Transferability (crafted on row, replayed on column)", ""]
    if transfers:
        archs = sorted(
            {str(t["src_arch"]) for t in transfers}
            | {str(t["dst_arch"]) for t in transfers}
        )
        rows = []
        for src in archs:
            row = [f"`{src}`"]
            for dst in archs:
                # cells with no successful source documents carry no
                # transfer information; keep them out of the mean
                mine = [
                    t["transfer_rate"]
                    for t in transfers
                    if t["src_arch"] == src
                    and t["dst_arch"] == dst
                    and t.get("n_docs", 0) > 0
                ]
                row.append(f"{mean(mine):.1%}" if mine else "—")
            rows.append(row)
        out += [
            _md_table(["crafted on \\ vs"] + [f"`{a}`" for a in archs], rows),
            "",
            "Mean over attacks of the share of successful adversarial "
            "documents that also flip the column victim (diagonal ≈ 100% "
            "by construction).",
            "",
        ]
    else:
        out += ["_no transfer cells recorded_", ""]

    # -- full grid ------------------------------------------------------------
    cell_rows = [
        [
            str(c["dataset"]),
            str(c["arch"]),
            f"`{c['defense']}`",
            f"`{c['attack']}`",
            f"{c['clean_accuracy']:.1%}",
            f"{c['adversarial_accuracy']:.1%}",
            f"{c['success_rate']:.1%}",
            f"{c['mean_queries']:.0f}",
            _fmt(c.get("n_failures", 0)),
        ]
        for c in cells
    ]
    out += [
        "## All cells",
        "",
        _md_table(
            [
                "dataset",
                "victim",
                "defense",
                "attack",
                "clean",
                "adv acc",
                "success",
                "queries",
                "failures",
            ],
            cell_rows,
        ),
    ]
    return "\n".join(out)


def _trace_digest(run_dir: str | Path) -> dict:
    """Fold every per-document trace under ``run_dir`` into aggregates."""
    digest = {
        "n_traces": 0,
        "n_events": 0,
        "n_success": 0,
        "queries": [],  # per-doc n_queries from attack_end
        "wall_times": [],
        "cache_hits": 0,
        "greedy_iterations": 0,
        "rescans": 0,
        "forwards": 0,
        "errors": 0,
        "attacks": set(),
    }
    for path in iter_trace_files(run_dir):
        events = read_trace(path)
        if not events:
            continue
        digest["n_traces"] += 1
        digest["n_events"] += len(events)
        for event in events:
            kind = event.get("kind")
            if kind == "attack_start":
                digest["attacks"].add(event.get("attack", "?"))
            elif kind == "greedy_iteration":
                digest["greedy_iterations"] += 1
                digest["rescans"] += event.get("rescans", 0)
            elif kind == "forward":
                digest["forwards"] += event.get("n_forwards", 0)
            elif kind == "attack_end":
                digest["n_success"] += bool(event.get("success"))
                digest["queries"].append(event.get("n_queries", 0))
                digest["wall_times"].append(event.get("wall_time", 0.0))
                digest["cache_hits"] += event.get("n_cache_hits", 0)
            elif kind == "attack_error":
                digest["errors"] += 1
    return digest


def render_report(run_dir: str | Path) -> str:
    """Render the full markdown run report for ``run_dir``."""
    run_dir = Path(run_dir)
    traces = _trace_digest(run_dir)
    metrics = load_run_metrics(run_dir)
    failures = load_failures(run_dir)
    run: MetricsRegistry = metrics["run"]

    out: list[str] = [f"# Attack run report — `{run_dir.name}`", ""]

    # -- summary ------------------------------------------------------------
    n_docs = traces["n_traces"]
    done = traces["queries"]
    total_queries = sum(done)
    hit_denominator = total_queries + traces["cache_hits"]
    summary_rows = [
        ["documents traced", _fmt(n_docs)],
        ["trace events", _fmt(traces["n_events"])],
        ["attacks", ", ".join(sorted(traces["attacks"])) or "—"],
        [
            "success rate (traced docs)",
            f"{traces['n_success'] / n_docs:.1%}" if n_docs else "—",
        ],
        ["total model queries", _fmt(total_queries)],
        ["queries/doc p50", _fmt(_exact_quantile(done, 0.5))],
        ["queries/doc p95", _fmt(_exact_quantile(done, 0.95))],
        [
            "cache hit rate",
            f"{traces['cache_hits'] / hit_denominator:.1%}" if hit_denominator else "—",
        ],
        ["greedy iterations", _fmt(traces["greedy_iterations"])],
        ["lazy-heap rescans", _fmt(traces["rescans"])],
        [
            "wall time/doc p50",
            f"{_exact_quantile(traces['wall_times'], 0.5):.3f}s" if n_docs else "—",
        ],
        [
            "wall time/doc p95",
            f"{_exact_quantile(traces['wall_times'], 0.95):.3f}s" if n_docs else "—",
        ],
        ["failures recorded", _fmt(len(failures) + traces["errors"])],
    ]
    out += ["## Summary", "", _md_table(["metric", "value"], summary_rows), ""]

    # -- per-cell table -----------------------------------------------------
    per_cell = metrics["per_cell"]
    if len(per_cell) > 1:
        rows = []
        for cell, snap in sorted(per_cell.items()):
            counters = snap.get("counters", {})
            cell_docs = counters.get("attack/docs", 0.0)
            rows.append(
                [
                    f"`{cell}`",
                    _fmt(cell_docs),
                    f"{counters.get('attack/successes', 0.0) / cell_docs:.1%}"
                    if cell_docs
                    else "—",
                    _fmt(counters.get("attack/n_queries", 0.0)),
                    _fmt(counters.get("attack/failures", 0.0)),
                ]
            )
        out += [
            "## Per-cell",
            "",
            _md_table(["cell", "docs", "success", "queries", "failures"], rows),
            "",
        ]

    # -- phase breakdown ----------------------------------------------------
    context = metrics["context"] or {}
    phase_counters = dict(run.counters)
    phase_counters.update(context.get("counters", {}))
    out += ["## Phase breakdown", "", render_phase_table(phase_counters), ""]

    # -- forward batches ----------------------------------------------------
    out += ["## Forward batches", ""]
    counters = context.get("counters", {})
    if "forward/batches" in counters:
        forward_rows = [
            ["forward batches", _fmt(counters["forward/batches"])],
            ["forward docs", _fmt(counters.get("forward/docs", 0.0))],
            ["forward seconds", f"{counters.get('forward/seconds', 0.0):.3f}"],
        ]
        hist_snap = (context.get("histograms") or {}).get("forward/batch_seconds")
        if hist_snap:
            hist = Histogram.from_snapshot(hist_snap)
            forward_rows += [
                ["batch latency p50", f"{hist.quantile(0.5) * 1e3:.2f} ms"],
                ["batch latency p95", f"{hist.quantile(0.95) * 1e3:.2f} ms"],
            ]
        out += [_md_table(["metric", "value"], forward_rows), ""]
        buckets = padded_length_stats(counters)
        if buckets:
            rows = [
                [
                    str(padded_len),
                    _fmt(stats.get("batches", 0.0)),
                    _fmt(stats.get("docs", 0.0)),
                    f"{stats.get('seconds', 0.0):.3f}",
                ]
                for padded_len, stats in buckets.items()
            ]
            out += [
                _md_table(["padded len", "batches", "docs", "seconds"], rows),
                "",
            ]
    else:
        out += ["_no forward batches recorded_", ""]

    # -- failure digest -----------------------------------------------------
    out += ["## Failure digest", ""]
    if failures:
        by_type: dict[str, list[dict]] = {}
        for failure in failures:
            by_type.setdefault(failure.get("error_type", "?"), []).append(failure)
        rows = [
            [
                error_type,
                _fmt(len(items)),
                (items[0].get("error_message", "") or "—")[:80],
            ]
            for error_type, items in sorted(by_type.items())
        ]
        out += [_md_table(["error type", "count", "first message"], rows), ""]
    else:
        out += ["_no failures_", ""]

    return "\n".join(out)
