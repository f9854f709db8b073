"""The benchmark's named workloads.

Every workload attacks the whole test split of its datasets: the
experiment settings shrink the split to :data:`POOL` documents and each
cell asks for all of them.  ``--seed`` therefore changes every random
stream the attacks draw (sentence paraphrase sampling, PSO, Gumbel,
random search), but not which documents are attacked.  Re-drawing 40 of
100 documents per seed moved docs/s by 7% from seed to seed, which on top
of the host's own run-to-run noise would have left no room for a useful
regression bound.

``round_s`` is one round's wall time on the reference host (2 vCPU, one
BLAS thread per process).  A run attacks ``round(seconds / round_s)``
rounds (at least one), each at its own seed, so run length follows
``--seconds`` while the documents attacked never depend on how fast the
build under test is.

Importing this module imports nothing from ``repro``; the matrices are
built on demand inside the child process.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

#: test documents per dataset; every cell attacks all of them
POOL = 40

#: added to the seed for each further round, so rounds never share a seed
ROUND_STRIDE = 1_000_000

FRONTIER_ATTACKS = (
    "greedy_word",
    "gumbel_word",
    "heuristic_saliency",
    "lazy_greedy_word",
    "pso_word",
    "random_word",
)


def _table2():
    from repro.experiments import table2

    return [table2.matrix(max_examples=POOL)]


def _frontier():
    from repro.experiments import frontier

    return [
        frontier.matrix(max_examples=POOL, attacks=FRONTIER_ATTACKS, dataset=dataset)
        for dataset in ("yelp", "news")
    ]


def _tournament():
    from repro.experiments import tournament

    return [
        tournament.matrix(
            max_examples=POOL,
            datasets=("yelp", "news"),
            models=("wcnn", "lstm"),
            attacks=("joint_greedy", "pso_word"),
            defenses=("none", "smoothing"),
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    matrices: Callable[[], list]  # the workload's RunMatrix declarations
    round_s: float
    workers: int = 1
    delta: bool = False
    #: journal and program traces into a fresh directory each round
    io: bool = False

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table2", _table2, round_s=17.5),
        Workload("table2-delta", _table2, round_s=23.5, delta=True),
        Workload("frontier", _frontier, round_s=6.2),
        Workload("tournament-pooled", _tournament, round_s=31.0, workers=2, io=True),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    return seed + round_index * ROUND_STRIDE
