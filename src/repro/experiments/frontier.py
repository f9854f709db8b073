"""Query-efficiency frontier: success rate vs. query budget, all attacks.

The paper's core claim is that submodular greedy search is *query
efficient* — it converts model forwards into attack success faster than
the alternatives.  This driver restates that claim as a standing,
reproducible benchmark: sweep hard ``max_queries`` budgets across every
registry attack on a fixed corpus slice, record one
``(attack, budget) → success rate`` point per cell, and rank the
attacks on a markdown leaderboard rendered through
:func:`repro.obs.report.render_frontier_leaderboard`.

Budget semantics are *exact*: :class:`~repro.attacks.engine.AttackEngine`
truncates the final scoring batch to the forwards the budget still
affords, so every per-document ``n_queries`` satisfies
``n_queries <= max_queries`` and the curves compare attacks at exactly
equal query cost.  Every point also lands in the context's
``MetricsRegistry`` under ``frontier/<attack>/q<budget>/...`` gauges, so
traced runs carry the curves in their ``metrics.json``.

Run it with ``python -m repro.experiments frontier`` (see ``--help`` for
the budget grid, attack subset, corpus slice, and leaderboard output
path).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.attacks import ATTACKS
from repro.eval.reporting import format_percent, format_table
from repro.experiments.common import ExperimentContext
from repro.experiments.grid import GridRunner, MatrixAttack, RunMatrix
from repro.obs.report import render_frontier_leaderboard

__all__ = ["FrontierPoint", "DEFAULT_BUDGETS", "matrix", "run", "render", "leaderboard", "curves", "main"]

#: default ``max_queries`` grid — log-spaced so the curves resolve both
#: the cheap heuristics (tens of queries) and the search-heavy attacks
DEFAULT_BUDGETS: tuple[int, ...] = (25, 50, 100, 200)


@dataclass
class FrontierPoint:
    """One cell of the sweep: an attack evaluated under one hard budget."""

    attack: str
    max_queries: int
    success_rate: float
    mean_queries: float
    n_examples: int


def matrix(
    max_examples: int = 12,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    attacks: tuple[str, ...] | None = None,
    dataset: str = "yelp",
    arch: str = "wcnn",
) -> RunMatrix:
    """The frontier grid: every attack × every hard budget, one slice.

    ``attacks=None`` sweeps the whole registry (sorted by name); the grid
    pins each cell's exact query cap through
    :attr:`~repro.experiments.grid.MatrixAttack.max_queries`.
    """
    for budget in budgets:
        if budget < 1:
            raise ValueError("every budget must be >= 1")
    names = tuple(attacks) if attacks is not None else tuple(sorted(ATTACKS))
    unknown = [n for n in names if n not in ATTACKS]
    if unknown:
        raise KeyError(f"unknown attacks {unknown}; choose from {sorted(ATTACKS)}")
    return RunMatrix(
        name="frontier",
        datasets=(dataset,),
        models=(arch,),
        attacks=tuple(
            MatrixAttack.of(name, label=f"{name}_q{budget}", max_queries=budget)
            for name in names
            for budget in sorted(budgets)
        ),
        max_examples=max_examples,
    )


def run(
    context: ExperimentContext,
    max_examples: int = 12,
    budgets: tuple[int, ...] = DEFAULT_BUDGETS,
    attacks: tuple[str, ...] | None = None,
    dataset: str = "yelp",
    arch: str = "wcnn",
) -> list[FrontierPoint]:
    """The full sweep: every registry attack × every budget, one slice.

    Each cell builds a fresh attack through
    :meth:`ExperimentContext.make_attack` — so the delta-scoring /
    trace / journal wiring is identical to every other
    driver — and pins its hard query cap.
    """
    grid = matrix(max_examples, budgets, attacks, dataset, arch)
    points: list[FrontierPoint] = []

    def publish(result):
        name = result.cell.attack.method
        budget = result.cell.attack.max_queries
        evaluation = result.evaluation
        over = [r.n_queries for r in evaluation.results if r.n_queries > budget]
        if over:  # the exactness contract the engine guarantees
            raise AssertionError(f"{name} overshot max_queries={budget}: {over}")
        point = FrontierPoint(
            attack=name,
            max_queries=budget,
            success_rate=evaluation.success_rate,
            mean_queries=evaluation.mean_queries,
            n_examples=len(evaluation.results),
        )
        points.append(point)
        prefix = f"frontier/{name}/q{budget}"
        context.metrics.set_gauge(f"{prefix}/success_rate", point.success_rate)
        context.metrics.set_gauge(f"{prefix}/mean_queries", point.mean_queries)
        context.metrics.inc(f"{prefix}/docs", point.n_examples)

    GridRunner(context).run(grid, on_cell=publish)
    return points


def curves(points: list[FrontierPoint]) -> dict[str, list[tuple[int, float]]]:
    """Figure-style series: ``{attack: [(budget, success rate), ...]}``."""
    out: dict[str, list[tuple[int, float]]] = {}
    for p in points:
        out.setdefault(p.attack, []).append((p.max_queries, p.success_rate))
    for curve in out.values():
        curve.sort()
    return out


def render(points: list[FrontierPoint]) -> str:
    """Aligned text table of every sweep cell (the CLI artifact view)."""
    return format_table(
        ["attack", "max_queries", "success rate", "mean queries", "docs"],
        [
            [
                p.attack,
                str(p.max_queries),
                format_percent(p.success_rate),
                f"{p.mean_queries:.1f}",
                str(p.n_examples),
            ]
            for p in points
        ],
    )


def leaderboard(points: list[FrontierPoint]) -> str:
    """The markdown leaderboard, via the obs/report layer."""
    return render_frontier_leaderboard([asdict(p) for p in points])


def main() -> list[FrontierPoint]:  # pragma: no cover - CLI convenience
    context = ExperimentContext()
    points = run(context)
    print(render(points))
    print()
    print(leaderboard(points))
    return points


if __name__ == "__main__":  # pragma: no cover
    main()
