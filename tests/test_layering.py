"""Import rules between the package's modules, checked on their source.

No module imports a private (underscore) name from a sibling module, so
each rule lives in the module that owns it; what a module imports from
a sibling is in that sibling's ``__all__``, and every ``__all__`` entry
exists.  ``datasets`` does not import ``cli``: the command line sits
above the data layer.  No module imports scipy, which is a test
dependency only: importing it would cost every process more than
numpy does.  Every name the benchmark's tracer wraps exists, so a
rename shows here rather than as a crashed benchmark run.  Every
exception class the package defines is raised somewhere in it, so no
handler waits for an error that cannot happen.  Every module-level
private function and upper-case constant is used somewhere in the
package, so a simplification cannot leave a dead helper behind.
"""

import ast
import builtins
import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import msplogit
import msplogit.cli

PACKAGE_DIR = Path(msplogit.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def _unexported_imports(path):
    """Names ``path`` imports from a sibling module that are not in its ``__all__``."""
    hits = []
    for module, name in _imports(path):
        target = _sibling(module, name)
        if target is None or name is None or name == target:
            continue  # outside the package, or a whole module
        if name not in importlib.import_module(f"msplogit.{target}").__all__:
            hits.append(f"{path.name}: {name} from {target}")
    return hits


def test_sibling_imports_are_exported():
    offenders = [hit for path in sorted(PACKAGE_DIR.glob("*.py")) for hit in _unexported_imports(path)]
    assert not offenders, offenders


def test_every_export_resolves():
    modules = [msplogit] + [
        importlib.import_module(f"msplogit.{path.stem}")
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules for name in module.__all__ if not hasattr(module, name)
    ]
    assert not missing, missing


def test_guard_catches_unexported_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .optimize import FitResult, GRAD_TOL\n"
        "from . import cli\n"
        "def f():\n    from msplogit.likelihood import MODE_MAX_ITER\n",
        encoding="utf-8",
    )
    assert _unexported_imports(source) == [
        "mod.py: GRAD_TOL from optimize", "mod.py: MODE_MAX_ITER from likelihood",
    ]


def _scipy_imports(path):
    return [f"{path.name}: {module}" for module, _ in _imports(path) if module.split(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    offenders = [hit for path in sorted(PACKAGE_DIR.glob("*.py")) for hit in _scipy_imports(path)]
    assert not offenders, offenders


def test_guard_catches_lazy_scipy_imports(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import numpy as np\n"
        "def f():\n    import scipy.linalg\n"
        "class C:\n    def g(self):\n        from scipy.special import expit\n",
        encoding="utf-8",
    )
    assert _scipy_imports(source) == ["mod.py: scipy.linalg", "mod.py: scipy.special"]


def test_importing_the_package_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    code = "import sys, msplogit, msplogit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_benchmark_trace_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look their module up
    spec.loader.exec_module(tracer)
    targets = tracer.program_targets(msplogit)
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets if not hasattr(t.owner, t.attr)]
    assert targets and not missing, missing


BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _unraised_exceptions(paths):
    """Exception classes defined in ``paths`` that no ``raise`` statement there names."""
    defined, raised = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and (base.id in defined or base.id in BUILTIN_EXCEPTIONS)
                for base in node.bases
            ):
                defined.append(node.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return [name for name in defined if name not in raised]


def test_every_exception_class_is_raised():
    unraised = _unraised_exceptions(sorted(PACKAGE_DIR.glob("*.py")))
    assert not unraised, unraised


def test_guard_catches_unraised_exceptions(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from . import errors\n"
        "class Used(ValueError):\n    pass\n"
        "class Unused(RuntimeError):\n    pass\n"
        "class Sub(Used):\n    pass\n"
        "class NotAnError(dict):\n    pass\n"
        "def f(x):\n"
        "    if x:\n        raise Used('x')\n"
        "    try:\n        g()\n    except Unused:\n        raise\n"
        "    raise errors.Sub\n",
        encoding="utf-8",
    )
    assert _unraised_exceptions([source]) == ["Unused"]


def _names_used(node):
    """Counts of the names a node loads and the attributes it takes."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) or isinstance(sub, ast.Attribute)
    )


def _unreferenced_definitions(paths):
    """Module-level private functions and upper-case constants that no other code uses.

    A use is a name, or an attribute of that name, anywhere in ``paths``
    outside the definition itself; a name listed in ``__all__`` only is
    not used.
    """
    defined, used = [], Counter()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used += _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined.append((path.stem, node.name, _names_used(node)[node.name]))
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [
                (path.stem, target.id, 0) for target in targets
                if isinstance(target, ast.Name) and target.id.isupper()
            ]
    return [f"{module}.{name}" for module, name, own in defined if used[name] == own]


def test_every_private_function_and_constant_is_used():
    unused = _unreferenced_definitions(sorted(PACKAGE_DIR.glob("*.py")))
    assert not unused, unused


def test_guard_catches_unreferenced_definitions(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import numpy as np\n"
        "__all__ = ['EXPORTED', 'public']\n"
        "EXPORTED = 1\n"
        "LIMIT = 2\n"
        "TOL: float = 1e-8\n"
        "_lower = 3\n"
        "def _helper(x):\n    return x * LIMIT\n"
        "def _dead(x):\n    return _dead(x - 1) if x else 0\n"
        "def _via_module():\n    return 0\n"
        "def public(x):\n    return _helper(x) + np.mod.TOL + mod._via_module()\n"
        "class C:\n    def _method(self):\n        return 0\n",
        encoding="utf-8",
    )
    assert _unreferenced_definitions([source]) == ["mod.EXPORTED", "mod._dead"]
