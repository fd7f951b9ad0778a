"""Import rules between the package's modules, checked on their source.

No module imports a private (underscore) name from a sibling module, so
each rule lives in the module that owns it, and ``datasets`` does not
import ``cli``: the command line sits above the data layer.
"""

import ast
from pathlib import Path

import msplogit

PACKAGE_DIR = Path(msplogit.__file__).parent


def _imports(path):
    """(imported module, imported name) pairs of a module; name is None for ``import m``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def _sibling(module, name):
    """The package module an import refers to, or None if it is outside the package."""
    if module.startswith("."):
        target = module.lstrip(".") or name
    elif module.startswith("msplogit."):
        target = module[len("msplogit."):]
    elif module == "msplogit":
        target = name or ""
    else:
        return None
    return target.split(".")[0]


def test_package_sources_found():
    assert {"optimize", "inference", "simulate", "datasets", "cli"} <= {
        path.stem for path in PACKAGE_DIR.glob("*.py")
    }


def _private_imports(path):
    """Imports in ``path`` of an underscore name from the package."""
    return [
        f"{path.name}: {name} from {module}"
        for module, name in _imports(path)
        if _sibling(module, name) is not None
        and any(part.startswith("_") for part in f"{module}.{name or ''}".split(".") if part)
    ]


def test_no_private_names_imported_across_modules():
    offenders = [hit for path in sorted(PACKAGE_DIR.glob("*.py")) for hit in _private_imports(path)]
    assert not offenders, offenders


def test_datasets_does_not_import_cli():
    targets = {_sibling(module, name) for module, name in _imports(PACKAGE_DIR / "datasets.py")}
    assert "cli" not in targets


def test_guard_catches_private_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from __future__ import annotations\n"
        "from .optimize import (\n    FitResult,\n    _hidden,\n)\n"
        "from . import _helpers\n"
        "def f():\n    from msplogit.simulate import _fit_reasons\n",
        encoding="utf-8",
    )
    assert len(_private_imports(source)) == 3
