"""The package imports only the standard library, numpy and scipy.

pyproject.toml declares exactly those two third-party dependencies; this
reads every module's import statements, including those inside functions,
without importing anything.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corefmtl"
ALLOWED = {"numpy", "scipy", "corefmtl"}


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_modules_are_found():
    assert {"encoder.py", "model.py", "training.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_the_declared_dependencies(path):
    foreign = [name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names | ALLOWED]
    assert foreign == [], f"{path.name} imports {foreign}"
