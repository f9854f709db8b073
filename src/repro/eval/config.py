"""The one reader of the ``REPRO_*`` environment.

:meth:`RunConfig.from_env` is the only code in ``repro`` that reads
``os.environ``.  The library's two entry points call it for the fields
they consume: :class:`~repro.experiments.common.ExperimentContext` for
``cache_dir``, ``progress``, ``journal_dir``, ``trace_dir`` and
``telemetry_port``; :func:`~repro.eval.metrics.evaluate_attack` for
``n_workers``, ``delta_scoring``, ``trace_every_n`` and
``series_interval``.  Every layer below them takes plain values.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

from repro.eval.parallel import WorkerCountError

__all__ = ["RunConfig"]

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _flag(var: str, raw: str) -> bool:
    if raw.lower() in _TRUE | _FALSE:
        return raw.lower() in _TRUE
    raise ValueError(f"{var} must be one of 1/true/yes/on or 0/false/no/off, got {raw!r}")


def _integer(var: str, raw: str, lo: int = 1, hi: int | None = None, error=ValueError) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value < lo or (hi is not None and value > hi):
        expected = "a positive integer" if hi is None else f"an integer from {lo} to {hi}"
        raise error(f"{var} must be {expected}, got {raw!r}")
    return value


_port = partial(_integer, lo=0, hi=65535)


def _workers(var: str, raw: str) -> int:
    count = _integer(var, raw, error=WorkerCountError)
    cpus = os.cpu_count() or 1
    if count > cpus:
        # an env-derived count would silently oversubscribe every run;
        # explicit counts are never clamped (oversubscribing on purpose is fine)
        warnings.warn(
            f"{var}={count} exceeds os.cpu_count()={cpus}; clamping to {cpus} workers",
            RuntimeWarning,
            stacklevel=4,
        )
        count = cpus
    return count


def _interval(var: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{var} must be a finite number > 0, got {raw!r}")
    return value


def _path(var: str, raw: str) -> Path:
    return Path(raw)


def _var(name: str, parse, default):
    return field(default=default, metadata={"env": name, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings, one field per ``REPRO_*`` variable."""

    cache_dir: Path = _var("REPRO_CACHE_DIR", _path, Path(".cache"))
    delta_scoring: bool = _var("REPRO_DELTA_SCORING", _flag, False)
    journal_dir: Path | None = _var("REPRO_JOURNAL_DIR", _path, None)
    n_workers: int = _var("REPRO_NUM_WORKERS", _workers, 1)
    progress: bool = _var("REPRO_PROGRESS", _flag, False)
    series_interval: float = _var("REPRO_SERIES_INTERVAL", _interval, 1.0)
    telemetry_port: int | None = _var("REPRO_TELEMETRY_PORT", _port, None)
    trace_dir: Path | None = _var("REPRO_TRACE_DIR", _path, None)
    trace_every_n: int = _var("REPRO_TRACE_EVERY_N", _integer, 1)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None, **explicit) -> RunConfig:
        """Resolve the fields named in ``explicit``; the others keep their defaults.

        A named field takes its explicit value when that is not ``None``,
        else its variable from ``environ`` (default ``os.environ``), else
        its default.  A blank variable is unset; a malformed one raises a
        :class:`ValueError` naming it.  Explicit values are not parsed
        (paths become :class:`~pathlib.Path`), so an explicit worker count
        is never clamped to ``os.cpu_count()`` as ``REPRO_NUM_WORKERS`` is.
        """
        env = os.environ if environ is None else environ
        specs = {f.name: f.metadata for f in fields(cls)}
        values = {}
        for name, value in explicit.items():
            if name not in specs:
                raise TypeError(f"RunConfig has no field {name!r}")
            var, parse = specs[name]["env"], specs[name]["parse"]
            if value is None:
                raw = env.get(var, "").strip()
                if not raw:
                    continue
                value = parse(var, raw)
            elif parse is _path:
                value = Path(value)
            values[name] = value
        return cls(**values)
