"""Static import-layering check (AST-based, no imports executed).

The architecture is a DAG of layers::

    nn, obs  →  text  →  data  →  models  →  submodular  →  attacks
             →  eval  →  defense  →  experiments

Every ``repro.<pkg>`` module may import only from strictly lower-ranked
packages (or its own).  Back-edges — like the pre-refactor
``data.urls`` / ``submodular.empirical`` imports of the transformation
containers from the attacks layer — break the "one scoring choke point"
story and make fork-pool pickling and incremental builds fragile, so this
test fails the build on any new one.  The same AST walk keeps
``os.environ`` reads in ``repro/eval/config.py``, the one reader of the
``REPRO_*`` variables.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: package -> rank; an import source at rank r may only target rank < r
#: (or its own package).  Equal-rank cross-package imports are back-edges.
LAYER_RANK = {
    "nn": 0,
    "obs": 0,
    "text": 1,
    "data": 2,
    "models": 3,
    "submodular": 4,
    "attacks": 5,
    "eval": 6,
    "defense": 7,
    "experiments": 8,
}


def _package_of(module: str) -> str | None:
    """``repro.attacks.base`` -> ``attacks``; non-repro / top-level -> None."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _imports_of(path: Path) -> list[tuple[str, int]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.append((node.module, node.lineno))
    return out


def _source_modules() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def test_every_package_is_ranked():
    packages = {
        p.name for p in SRC.iterdir() if p.is_dir() and (p / "__init__.py").exists()
    }
    assert packages == set(LAYER_RANK), (
        "package list drifted; update LAYER_RANK in tests/test_layering.py"
    )


def test_no_layering_back_edges():
    violations: list[str] = []
    for path in _source_modules():
        rel = path.relative_to(SRC)
        if len(rel.parts) == 1:
            continue  # repro/__init__.py and top-level modules may see everything
        source_pkg = rel.parts[0]
        source_rank = LAYER_RANK.get(source_pkg)
        if source_rank is None:
            continue
        for module, lineno in _imports_of(path):
            target_pkg = _package_of(module)
            if target_pkg is None or target_pkg == source_pkg:
                continue
            target_rank = LAYER_RANK.get(target_pkg)
            assert target_rank is not None, f"{rel}:{lineno}: unranked package {target_pkg}"
            if target_rank >= source_rank:
                violations.append(
                    f"{rel}:{lineno}: {source_pkg} (rank {source_rank}) imports "
                    f"{module} (rank {target_rank})"
                )
    assert not violations, "import layering back-edges:\n" + "\n".join(violations)


def test_known_former_back_edges_stay_fixed():
    """The two historical offenders import from repro.text now."""
    for rel in ("data/urls.py", "submodular/empirical.py"):
        imports = [m for m, _ in _imports_of(SRC / rel)]
        assert not any(m.startswith("repro.attacks") for m in imports), rel
        assert any(m == "repro.text.transformations" for m in imports), rel


#: the one module allowed to read the process environment
ENV_READER = "eval/config.py"


def _environment_reads(path: Path) -> list[int]:
    """Line numbers of ``os.environ`` / ``os.getenv`` uses, imported names included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_the_run_config_reads_the_environment():
    """``RunConfig.from_env`` is the one reader of the ``REPRO_*`` variables."""
    readers = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in _source_modules()
        if path.relative_to(SRC).as_posix() != ENV_READER
        for lineno in _environment_reads(path)
    ]
    assert not readers, "environment read outside repro/eval/config.py:\n" + "\n".join(readers)
    assert _environment_reads(SRC / ENV_READER), "the guard no longer sees the reader"
