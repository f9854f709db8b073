"""Evaluation: attack metrics, the simulated human study, and table rendering."""

from repro.eval.artifacts import ResultsWriter, rows_to_records, write_csv, write_json
from repro.eval.config import RunConfig
from repro.eval.human_sim import (
    HumanEvalResult,
    SimulatedAnnotator,
    default_annotator_pool,
    make_canonicalizer,
    run_human_evaluation,
)
from repro.eval.journal import (
    JournalError,
    JournalMismatchError,
    RunJournal,
    corpus_fingerprint,
)
from repro.eval.metrics import AttackEvaluation, evaluate_attack
from repro.eval.parallel import (
    ParallelAttackRunner,
    RunnerFaultPolicy,
    WorkerCountError,
    WorkerCrashError,
    fork_available,
    resolve_num_workers,
)
from repro.eval.perf import read_bench_json, write_bench_json
from repro.eval.progress import Heartbeat, HeartbeatMonitor, ProgressPrinter
from repro.eval.reporting import (
    format_markdown_table,
    format_percent,
    format_seconds,
    format_table,
    render_word_diff,
)

__all__ = [
    "AttackEvaluation",
    "evaluate_attack",
    "RunConfig",
    "ParallelAttackRunner",
    "RunnerFaultPolicy",
    "WorkerCountError",
    "WorkerCrashError",
    "fork_available",
    "resolve_num_workers",
    "RunJournal",
    "JournalError",
    "JournalMismatchError",
    "corpus_fingerprint",
    "Heartbeat",
    "HeartbeatMonitor",
    "ProgressPrinter",
    "read_bench_json",
    "write_bench_json",
    "SimulatedAnnotator",
    "HumanEvalResult",
    "run_human_evaluation",
    "default_annotator_pool",
    "make_canonicalizer",
    "format_table",
    "format_markdown_table",
    "format_percent",
    "format_seconds",
    "render_word_diff",
    "ResultsWriter",
    "rows_to_records",
    "write_json",
    "write_csv",
]
