"""RunConfig: the one reader of the ``REPRO_*`` environment.

Each field resolves explicit argument > variable > default; a blank
variable is unset; a malformed one raises a ValueError that names the
variable and the raw value.
"""

from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from repro.eval.config import RunConfig

#: field -> (variable, a well-formed raw value, what that value resolves to)
VARIABLES = {
    "cache_dir": ("REPRO_CACHE_DIR", "runs/cache", Path("runs/cache")),
    "delta_scoring": ("REPRO_DELTA_SCORING", "on", True),
    "journal_dir": ("REPRO_JOURNAL_DIR", "runs/journal", Path("runs/journal")),
    "n_workers": ("REPRO_NUM_WORKERS", "1", 1),
    "progress": ("REPRO_PROGRESS", "yes", True),
    "series_interval": ("REPRO_SERIES_INTERVAL", "2.5", 2.5),
    "telemetry_port": ("REPRO_TELEMETRY_PORT", "0", 0),
    "trace_dir": ("REPRO_TRACE_DIR", "runs/trace", Path("runs/trace")),
    "trace_every_n": ("REPRO_TRACE_EVERY_N", "4", 4),
}

#: every field named, none given: resolve all nine from the environment
EVERY_FIELD = dict.fromkeys(VARIABLES)

#: REPRO_NUM_WORKERS, which raises WorkerCountError, is covered in
#: tests/eval/test_parallel.py::TestResolveNumWorkers
MALFORMED = [
    ("REPRO_DELTA_SCORING", "enabled"),
    ("REPRO_DELTA_SCORING", "2"),
    ("REPRO_PROGRESS", "maybe"),
    ("REPRO_TRACE_EVERY_N", "ten"),
    ("REPRO_TRACE_EVERY_N", "0"),
    ("REPRO_SERIES_INTERVAL", "abc"),
    ("REPRO_SERIES_INTERVAL", "nan"),
    ("REPRO_SERIES_INTERVAL", "inf"),
    ("REPRO_SERIES_INTERVAL", "0"),
    ("REPRO_TELEMETRY_PORT", "not-a-port"),
    ("REPRO_TELEMETRY_PORT", "-1"),
    ("REPRO_TELEMETRY_PORT", "70000"),
]


def resolve(name, raw):
    """Field ``name`` resolved from its variable set to ``raw``."""
    return getattr(RunConfig.from_env({VARIABLES[name][0]: raw}, **{name: None}), name)


def test_defaults():
    assert RunConfig.from_env({}, **EVERY_FIELD) == RunConfig() == RunConfig(
        cache_dir=Path(".cache"),
        delta_scoring=False,
        journal_dir=None,
        n_workers=1,
        progress=False,
        series_interval=1.0,
        telemetry_port=None,
        trace_dir=None,
        trace_every_n=1,
    )


@pytest.mark.parametrize("name", sorted(VARIABLES))
def test_env_value(name):
    _, raw, expected = VARIABLES[name]
    assert resolve(name, raw) == expected


def test_explicit_wins_over_env():
    # the variables are malformed too: an explicit value means they are never parsed
    environ = {var: "garbage" for var, _, _ in VARIABLES.values()}
    explicit = {
        "cache_dir": Path("here"),
        "delta_scoring": False,
        "journal_dir": Path("journals"),
        "n_workers": 64,  # explicit counts are never clamped
        "progress": False,
        "series_interval": 0.25,
        "telemetry_port": 8123,
        "trace_dir": Path("traces"),
        "trace_every_n": 3,
    }
    assert RunConfig.from_env(environ, **explicit) == RunConfig(**explicit)
    assert RunConfig.from_env(environ, trace_dir="traces").trace_dir == Path("traces")


@pytest.mark.parametrize("name", sorted(VARIABLES))
def test_blank_means_unset(name):
    default = getattr(RunConfig(), name)
    for blank in ("", "  ", "\t"):
        assert resolve(name, blank) == default


@pytest.mark.parametrize("var,raw", MALFORMED)
def test_malformed_value_names_the_variable(var, raw):
    environ = {var: raw}
    with pytest.raises(ValueError) as excinfo:
        RunConfig.from_env(environ, **EVERY_FIELD)
    message = str(excinfo.value)
    assert var in message and repr(raw) in message


@pytest.mark.parametrize("name", ["delta_scoring", "progress"])
def test_boolean_grammar(name):
    for raw in ("1", "true", "True", "YES", "on", " On "):
        assert resolve(name, raw) is True, raw
    for raw in ("0", "false", "FALSE", "no", "off"):
        assert resolve(name, raw) is False, raw


def test_only_named_fields_are_read():
    environ = dict(MALFORMED)
    assert RunConfig.from_env(environ) == RunConfig()
    assert RunConfig.from_env({**environ, "REPRO_TRACE_DIR": "t"}, trace_dir=None) == RunConfig(
        trace_dir=Path("t")
    )


def test_reads_the_process_environment_by_default(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_EVERY_N", "3")
    assert RunConfig.from_env(trace_every_n=None).trace_every_n == 3


def test_unknown_field_and_assignment_rejected():
    with pytest.raises(TypeError, match="no field 'workers'"):
        RunConfig.from_env({}, workers=2)
    with pytest.raises(FrozenInstanceError):
        RunConfig().n_workers = 2
