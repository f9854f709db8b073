"""Append-only JSONL run journal: checkpoint/resume for corpus attacks.

A corpus attack run at paper scale (Tables 2-5, Fig. 4: thousands of
documents per dataset x model x attack cell) is hours of wall-clock; an
interrupted run must not discard every finished document.  The journal
makes runs durable:

- every completed document appends **one line** — an
  :class:`~repro.attacks.base.AttackResult` or
  :class:`~repro.attacks.base.AttackFailure` payload tagged with its
  corpus-level document index and the per-document seed — flushed to disk
  before the next document starts, so a crash loses at most the document
  in flight;
- ``evaluate_attack(..., journal_path=...)`` on an existing journal
  **resumes**: already-journaled indices are skipped (never attacked
  twice) and their recorded outcomes are folded back into the aggregate,
  reproducing the exact :class:`~repro.eval.metrics.AttackEvaluation` an
  uninterrupted run would have produced (floats survive the JSON
  round-trip bitwise because ``json`` serializes via ``repr``);
- a **header line** fingerprints the run configuration (seed, corpus,
  attack name, delta scoring), so a journal is never silently resumed
  against a different corpus, subsample, attack or scoring mode —
  :class:`JournalMismatchError` is raised instead;
- a **truncated final line** — anything after the last newline, the
  signature of a crash mid-append — is tolerated and dropped, from the
  file too, so the next record starts on a fresh line; corruption
  anywhere else raises :class:`JournalError` rather than resuming from a
  lie.

Record kinds (one JSON object per line)::

    {"kind": "header", "version": 1, "seed": ..., "attack": ..., ...}
    {"kind": "result", "doc_index": i, "seed_index": j, "result": {...}}
    {"kind": "failure", "doc_index": i, "seed_index": j, "failure": {...}}
    {"kind": "perf", "snapshot": {...}}

``doc_index`` is the position in the evaluated example list (stable
across resume); ``seed_index`` is the position in the attacked sublist,
which determines the per-document seed.  ``perf`` records are informative
(the victim's :class:`~repro.obs.registry.MetricsRegistry` snapshot at the
end of a run, worker metrics merged); resume ignores them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from pathlib import Path

from repro.attacks.base import AttackFailure, AttackResult

__all__ = [
    "RunJournal",
    "JournalError",
    "JournalMismatchError",
    "corpus_fingerprint",
]

JOURNAL_VERSION = 1

#: header keys added after version 1, with the value a journal that lacks
#: one was written under
_HEADER_DEFAULTS = {"delta_scoring": False}


class JournalError(RuntimeError):
    """The journal file is corrupt (undecodable before the final line)."""


class JournalMismatchError(ValueError):
    """The journal's header does not match the run being resumed."""


def corpus_fingerprint(docs: Sequence[Sequence[str]], targets: Sequence[int]) -> str:
    """Stable digest of the attacked (document, target) sequence.

    Stored in the journal header so a journal written for one corpus (or
    one subsample of it) can never be resumed against another.
    """
    h = hashlib.sha1()
    for doc, target in zip(docs, targets):
        h.update(json.dumps([list(doc), int(target)]).encode())
    return h.hexdigest()


class RunJournal:
    """Durable per-document outcome log backing checkpoint/resume.

    Parameters
    ----------
    path:
        JSONL file.  Created (with its parent directory) on the first
        append; an existing non-empty file is loaded for resume.
    header:
        Run-identity payload.  Written as the first line of a fresh
        journal; on an existing journal every key is checked against the
        recorded header and a mismatch raises
        :class:`JournalMismatchError`.
    """

    def __init__(self, path: str | Path, header: dict | None = None) -> None:
        self.path = Path(path)
        self.header: dict | None = None
        self.results: dict[int, AttackResult] = {}
        self.failures: dict[int, AttackFailure] = {}
        self.perf_snapshots: list[dict] = []
        if self.path.exists() and self.path.stat().st_size > 0:
            self._load()
        if header is not None:
            if self.header is None:
                self.header = {"kind": "header", "version": JOURNAL_VERSION, **header}
                self._append(self.header)
            else:
                self._check_header(header)

    # -- resume state -------------------------------------------------------
    def completed_indices(self) -> set[int]:
        """Document indices that must not be attacked again."""
        return set(self.results) | set(self.failures)

    def outcomes(self) -> dict[int, AttackResult | AttackFailure]:
        """Journaled outcome per completed document index."""
        merged: dict[int, AttackResult | AttackFailure] = dict(self.results)
        merged.update(self.failures)
        return merged

    # -- appends ------------------------------------------------------------
    def record(
        self, doc_index: int, outcome: AttackResult | AttackFailure, seed_index: int
    ) -> None:
        """Append one completed document; flushed before returning."""
        if isinstance(outcome, AttackFailure):
            self.failures[doc_index] = outcome
            self._append(
                {
                    "kind": "failure",
                    "doc_index": doc_index,
                    "seed_index": seed_index,
                    "failure": outcome.to_dict(),
                }
            )
        else:
            self.results[doc_index] = outcome
            self._append(
                {
                    "kind": "result",
                    "doc_index": doc_index,
                    "seed_index": seed_index,
                    "result": outcome.to_dict(),
                }
            )

    def record_perf(self, snapshot: dict) -> None:
        """Append a :meth:`~repro.obs.registry.MetricsRegistry.snapshot`."""
        self.perf_snapshots.append(snapshot)
        self._append({"kind": "perf", "snapshot": snapshot})

    def _append(self, payload: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(payload) + "\n")
            fh.flush()

    # -- loading ------------------------------------------------------------
    def _load(self) -> None:
        data = self.path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # every record is appended with its newline, so bytes after the
            # last one are a crash mid-append: the document they described is
            # simply re-attacked on resume.  They go from the file too, or the
            # next record would be appended onto them
            with open(self.path, "r+b") as fh:
                fh.truncate(end)
        for lineno, line in enumerate(data[:end].split(b"\n")[:-1]):
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                raise JournalError(
                    f"{self.path}: undecodable journal line {lineno + 1}"
                ) from None
            kind = payload.get("kind")
            if kind == "header":
                self.header = payload
            elif kind == "result":
                self.results[int(payload["doc_index"])] = AttackResult.from_dict(
                    payload["result"]
                )
            elif kind == "failure":
                self.failures[int(payload["doc_index"])] = AttackFailure.from_dict(
                    payload["failure"]
                )
            elif kind == "perf":
                self.perf_snapshots.append(payload["snapshot"])
            else:
                raise JournalError(
                    f"{self.path}: unknown record kind {kind!r} on line {lineno + 1}"
                )

    def _check_header(self, expected: dict) -> None:
        assert self.header is not None
        for key, value in expected.items():
            recorded = self.header.get(key, _HEADER_DEFAULTS.get(key))
            if recorded != value:
                raise JournalMismatchError(
                    f"{self.path}: journal was written for {key}={recorded!r}, "
                    f"cannot resume a run with {key}={value!r}"
                )
