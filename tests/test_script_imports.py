"""Every name that examples/, benchmarks/ and bench/ import from ``repro`` exists.

Tier-1 runs three examples and no benchmark, so a name deleted from the
library would otherwise live on in those scripts until someone ran them.
``bench/`` imports inside functions that only a full ``bench/run.py``
reaches; the AST walk finds those nested imports too.  The scripts are
parsed, never run; only the ``repro`` modules they name are imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py"), *ROOT.glob("bench/*.py")]
)


def repro_imports(path: Path) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` per imported ``repro`` name; ``name`` is
    ``None`` for a plain ``import repro.x``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                out.extend((node.lineno, node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            out.extend(
                (node.lineno, alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
    return out


def resolves(module: str, name: str | None) -> bool:
    """``module`` imports and has ``name`` as an attribute or a submodule."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_scripts_found():
    names = {f"{p.parent.name}/{p.name}" for p in SCRIPTS}
    assert {
        "examples/quickstart.py",
        "benchmarks/test_ablation_lazy.py",
        "bench/child.py",
    } <= names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_repro_imports_resolve(path):
    missing = [
        f"{path.parent.name}/{path.name}:{line}: {module} has no {name}"
        for line, module, name in repro_imports(path)
        if not resolves(module, name)
    ]
    assert not missing, missing


def test_stale_name_is_caught(tmp_path):
    script = tmp_path / "stale.py"
    script.write_text(
        "from repro.attacks import build_attack, NoSuchAttack\nimport repro.no_such_module\n"
    )
    unresolved = [(m, n) for _, m, n in repro_imports(script) if not resolves(m, n)]
    assert unresolved == [("repro.attacks", "NoSuchAttack"), ("repro.no_such_module", None)]
