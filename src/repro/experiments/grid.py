"""The run-matrix engine: declarative experiment grids over one runner.

Every artifact driver in this package is a *grid*: some cross of
datasets × victim architectures × attacks × defenses, evaluated cell by
cell with per-cell observability.  Before this module each driver
hand-rolled that loop (and the defenses had no driver at all); now a
driver is a :class:`RunMatrix` *declaration* — the axes plus per-cell
overrides — and one :class:`GridRunner` owns everything operational:

- **cell enumeration** — the cross product of the declared axes, with
  :class:`CellOverride` patterns (first match wins) adjusting individual
  cells;
- **victim assembly** — trained base models from the context cache,
  hardened through the defense registry's ``retrain``/``wrap`` protocol
  (:mod:`repro.defense.registry`); retrained victims are memoized in
  memory *and* on disk so every attack cell sharing a defense reuses one
  hardened model;
- **per-cell journaling/resume** — each cell's tag names its own JSONL
  run journal (when the context has a ``journal_dir``), so an
  interrupted grid resumes mid-cell without re-attacking a single
  document and completed cells replay from disk;
- **per-cell obs subdirs** — the same tag names the cell's trace/metrics
  subdirectory under the context's ``trace_dir``;
- **parallel execution** — the per-document attack loop runs through the
  fault-tolerant :class:`~repro.eval.parallel.ParallelAttackRunner`
  (worker count and delta scoring inherited from the context), with the
  documented any-worker-count determinism guarantee;
- **result-frame assembly** — cells land in a :class:`ResultFrame` with
  coordinate lookup (``frame.get(dataset=..., attack=...)``) and flat
  scalar rows, so drivers reduce to declaration + row shaping.

Matrices are plain frozen dataclasses of strings/numbers — picklable and
hashable — so they can ride journals, cron configs, or a future job
queue verbatim.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace

from repro.defense.registry import Defense, DefenseResources, build_defense
from repro.eval.metrics import AttackEvaluation, evaluate_attack
from repro.models.base import TextClassifier
from repro.nn.serialization import load, save

__all__ = [
    "MatrixAttack",
    "MatrixDefense",
    "CellOverride",
    "RunMatrix",
    "Cell",
    "CellResult",
    "ResultFrame",
    "GridRunner",
]


def _freeze(params: Mapping) -> tuple[tuple[str, object], ...]:
    """A kwargs dict as a sorted tuple, so axis values stay hashable."""
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class MatrixAttack:
    """One attack-axis value: a method name plus per-cell parameters.

    ``method`` is anything :meth:`ExperimentContext.make_attack` accepts
    (paper alias or registry name); ``params`` are its keyword arguments
    (``word_budget``, ``sentence_budget``, ``strategy``, ``use_cache``)
    frozen as a tuple; ``max_queries`` pins the engine's exact query
    budget after construction.  ``label`` names the cell in tags and
    frames (defaults to the method name).
    """

    method: str
    label: str = ""
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    max_queries: int | None = None

    @classmethod
    def of(
        cls,
        method: str,
        label: str | None = None,
        max_queries: int | None = None,
        **params,
    ) -> MatrixAttack:
        return cls(
            method=method,
            label=label if label is not None else method,
            params=_freeze(params),
            max_queries=max_queries,
        )

    @property
    def tag_label(self) -> str:
        return self.label or self.method

    def kwargs(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class MatrixDefense:
    """One defense-axis value: a registry name plus builder parameters."""

    name: str
    label: str = ""
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, name: str, label: str | None = None, **params) -> MatrixDefense:
        return cls(name=name, label=label if label is not None else name, params=_freeze(params))

    @property
    def tag_label(self) -> str:
        return self.label or self.name

    def build(self) -> Defense:
        return build_defense(self.name, **dict(self.params))


#: the implicit defense axis when a matrix declares none: the undefended victim
NO_DEFENSE = MatrixDefense.of("none")


@dataclass(frozen=True)
class CellOverride:
    """A wildcard cell pattern plus the adjustments it applies.

    ``None`` coordinates match everything; ``attack``/``defense`` match
    axis labels.  Overrides apply in declaration order and the first
    matching pattern wins for each field it sets: ``params`` merge into
    the attack's keyword arguments, ``max_examples`` replaces the cell's
    corpus slice, ``max_queries`` the attack's query budget.
    """

    dataset: str | None = None
    arch: str | None = None
    attack: str | None = None
    defense: str | None = None
    params: tuple[tuple[str, object], ...] = field(default_factory=tuple)
    max_examples: int | None = None
    max_queries: int | None = None

    @classmethod
    def of(
        cls,
        dataset: str | None = None,
        arch: str | None = None,
        attack: str | None = None,
        defense: str | None = None,
        max_examples: int | None = None,
        max_queries: int | None = None,
        **params,
    ) -> CellOverride:
        return cls(
            dataset=dataset,
            arch=arch,
            attack=attack,
            defense=defense,
            params=_freeze(params),
            max_examples=max_examples,
            max_queries=max_queries,
        )

    def matches(self, cell: Cell) -> bool:
        return (
            (self.dataset is None or self.dataset == cell.dataset)
            and (self.arch is None or self.arch == cell.arch)
            and (self.attack is None or (cell.attack and self.attack == cell.attack.tag_label))
            and (self.defense is None or self.defense == cell.defense.tag_label)
        )


@dataclass(frozen=True)
class RunMatrix:
    """A declarative experiment grid: axes × overrides, nothing else.

    ``models`` and ``attacks`` may be empty for degenerate matrices
    (table6 iterates datasets only); attack-less cells need a custom
    ``cell_fn`` at run time.  ``defenses`` defaults to the undefended
    baseline so attack-only studies never mention the axis.
    """

    name: str
    datasets: tuple[str, ...]
    models: tuple[str, ...] = ()
    attacks: tuple[MatrixAttack, ...] = ()
    defenses: tuple[MatrixDefense, ...] = (NO_DEFENSE,)
    max_examples: int | None = None
    overrides: tuple[CellOverride, ...] = ()
    #: single-architecture matrices (table3, table4) historically left the
    #: arch out of their journal/trace tags; keep those names stable
    arch_in_tag: bool = True

    def cells(self) -> list[Cell]:
        """The grid's cells in axis order, overrides resolved."""
        out: list[Cell] = []
        for dataset in self.datasets:
            for arch in self.models or (None,):
                for defense in self.defenses:
                    for attack in self.attacks or (None,):
                        cell = Cell(
                            matrix=self.name,
                            dataset=dataset,
                            arch=arch,
                            attack=attack,
                            defense=defense,
                            max_examples=self.max_examples,
                            arch_in_tag=self.arch_in_tag,
                        )
                        out.append(self._apply_overrides(cell))
        return out

    def _apply_overrides(self, cell: Cell) -> Cell:
        for override in self.overrides:
            if not override.matches(cell):
                continue
            if override.params and cell.attack is not None:
                merged = dict(cell.attack.params)
                merged.update(dict(override.params))
                cell = replace(cell, attack=replace(cell.attack, params=_freeze(merged)))
            if override.max_queries is not None and cell.attack is not None:
                cell = replace(
                    cell, attack=replace(cell.attack, max_queries=override.max_queries)
                )
            if override.max_examples is not None:
                cell = replace(cell, max_examples=override.max_examples)
        return cell


@dataclass(frozen=True)
class Cell:
    """One fully-resolved grid coordinate."""

    matrix: str
    dataset: str
    arch: str | None
    attack: MatrixAttack | None
    defense: MatrixDefense
    max_examples: int | None = None
    arch_in_tag: bool = True

    @property
    def tag(self) -> str:
        """The cell's stable name: journal file stem and obs subdir.

        The undefended baseline stays out of the tag so attack-only
        matrices keep the familiar ``<matrix>_<dataset>_<arch>_<attack>``
        names their journals and trace subdirs always had.
        """
        parts = [self.matrix, self.dataset]
        if self.arch is not None and self.arch_in_tag:
            parts.append(self.arch)
        if self.defense.name != "none":
            parts.append(self.defense.tag_label)
        if self.attack is not None:
            parts.append(self.attack.tag_label)
        return "_".join(parts)

    def coords(self) -> dict:
        return {
            "dataset": self.dataset,
            "arch": self.arch,
            "attack": self.attack.tag_label if self.attack else None,
            "defense": self.defense.tag_label,
        }


@dataclass
class CellResult:
    """One executed cell: its coordinate, evaluation, and flat row."""

    cell: Cell
    tag: str
    evaluation: AttackEvaluation | None = None
    #: a custom ``cell_fn``'s return value (attack-less matrices)
    value: object = None
    #: the victim the attack actually targeted (post-defense)
    victim: object = None

    def row(self) -> dict:
        out = dict(self.cell.coords())
        if self.evaluation is not None:
            out.update(self.evaluation.summary())
            out["n_examples"] = self.evaluation.n_examples
            out["n_attacked"] = self.evaluation.n_attacked
            out["n_failures"] = self.evaluation.n_failures
        return out


class ResultFrame:
    """Coordinate-addressable cell results with flat-row export."""

    def __init__(self, matrix: RunMatrix, results: list[CellResult]) -> None:
        self.matrix = matrix
        self.results = results

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def select(self, **coords) -> list[CellResult]:
        """Every cell whose coordinates match (``None`` matches too)."""
        out = []
        for result in self.results:
            have = result.cell.coords()
            if all(have.get(k) == v for k, v in coords.items()):
                out.append(result)
        return out

    def get(self, **coords) -> CellResult:
        """The unique cell at these coordinates; raises otherwise."""
        found = self.select(**coords)
        if len(found) != 1:
            raise KeyError(
                f"{len(found)} cells match {coords!r} in matrix {self.matrix.name!r}"
            )
        return found[0]

    def rows(self) -> list[dict]:
        return [result.row() for result in self.results]


class GridRunner:
    """Executes a :class:`RunMatrix` against one experiment context.

    The runner owns the operational side of a grid run — victim assembly
    through the defense registry (with retrained-victim caching),
    per-cell journals, per-cell trace subdirectories, parallel
    per-document execution, and frame assembly — so drivers contain only
    their declaration and row shaping.
    """

    def __init__(self, context) -> None:
        self.context = context
        #: (dataset, arch, defense cache key) -> retrained base victim
        self._retrained: dict[tuple[str, str, str], TextClassifier] = {}

    # -- victim assembly ---------------------------------------------------
    def resources(self, dataset: str, arch: str | None) -> DefenseResources:
        """The :class:`DefenseResources` bundle for one grid column."""
        context = self.context
        return DefenseResources(
            dataset=context.dataset(dataset),
            lexicon=context.lexicon(dataset),
            train_config=context.train_config(),
            model_factory=lambda: context.build_model(dataset, arch),
            attack_factory=lambda model: context.make_attack("joint", model, dataset),
            seed=context.settings.seed,
        )

    def victim(self, dataset: str, arch: str, defense: Defense):
        """The cell's attack target: trained base model, hardened.

        Retraining defenses are applied once per (dataset, arch, defense
        parameters) and cached like base victims — in memory for the
        grid's lifetime and on disk under the context's cache directory —
        so a tournament's N attacks share one hardened model.  Wrapping
        defenses are cheap and rebuilt per cell.
        """
        context = self.context
        base = context.model(dataset, arch)
        model = base
        if defense.retrains:
            key = (dataset, arch, defense.cache_key())
            if key not in self._retrained:
                cache_file = (
                    context.cache_dir
                    / "models"
                    / f"{dataset}_{arch}_{defense.cache_key()}_{context.settings.cache_key()}.npz"
                )
                if cache_file.exists():
                    model = context.build_model(dataset, arch)
                    load(model, cache_file)
                    model.eval()
                else:
                    model = defense.retrain(base, self.resources(dataset, arch))
                    cache_file.parent.mkdir(parents=True, exist_ok=True)
                    save(model, cache_file)
                model.perf = context.perf
                self._retrained[key] = model
            model = self._retrained[key]
        return defense.wrap(model, self.resources(dataset, arch))

    # -- execution ---------------------------------------------------------
    def evaluate_cell(self, cell: Cell, seed: int = 0) -> CellResult:
        """Run one attack cell end to end (the default ``cell_fn``)."""
        context = self.context
        defense = cell.defense.build()
        victim = self.victim(cell.dataset, cell.arch, defense)
        attack = context.make_attack(
            cell.attack.method, victim, cell.dataset, **cell.attack.kwargs()
        )
        if cell.attack.max_queries is not None:
            attack.max_queries = cell.attack.max_queries
        evaluation = evaluate_attack(
            victim,
            attack,
            context.dataset(cell.dataset).test,
            max_examples=cell.max_examples,
            seed=seed,
            **context.eval_kwargs(cell.tag),
        )
        return CellResult(cell=cell, tag=cell.tag, evaluation=evaluation, victim=victim)

    def run(
        self,
        matrix: RunMatrix,
        cell_fn: Callable[[GridRunner, Cell], object] | None = None,
        on_cell: Callable[[CellResult], None] | None = None,
        seed: int = 0,
    ) -> ResultFrame:
        """Execute every cell and assemble the :class:`ResultFrame`.

        ``cell_fn`` replaces the default attack evaluation for matrices
        whose cells are not attack runs (dataset statistics, single-doc
        galleries); it returns the cell's ``value``.  ``on_cell`` fires
        after each finished cell — tournament-style drivers use it to
        publish per-cell gauges while the grid is still running.
        """
        results: list[CellResult] = []
        for cell in matrix.cells():
            if cell_fn is not None:
                result = CellResult(cell=cell, tag=cell.tag, value=cell_fn(self, cell))
            else:
                if cell.attack is None:
                    raise ValueError(
                        f"cell {cell.tag!r} declares no attack; pass cell_fn to "
                        "run an attack-less matrix"
                    )
                result = self.evaluate_cell(cell, seed=seed)
            if on_cell is not None:
                on_cell(result)
            results.append(result)
        return ResultFrame(matrix, results)
