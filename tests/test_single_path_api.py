"""Guard: every public algorithm has one production path and no twin switch.

The naive twins the fast paths are pinned to live in ``tests/reference/``.
These checks keep them from drifting back into the production API:

* no public callable in :mod:`repro.core` or :mod:`repro.kernels` takes an
  ``incremental`` or ``vectorized`` parameter;
* :class:`~repro.core.greedy.GreedyDep` takes no ``lazy`` parameter;
* the kernel tiers are exactly ``numpy`` and ``compiled``;
* no file under ``src/`` imports the reference package.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.core
import repro.kernels
from repro import kernels
from repro.core.greedy import GreedyDep

SRC = Path(repro.__file__).resolve().parent
TWIN_SWITCHES = {"incremental", "vectorized"}


def _public_modules(package):
    yield package
    for info in pkgutil.walk_packages(package.__path__, prefix=package.__name__ + "."):
        if not info.name.rsplit(".", 1)[-1].startswith("_"):
            yield importlib.import_module(info.name)


def _public_callables():
    seen = set()
    for package in (repro.core, repro.kernels):
        for module in _public_modules(package):
            for name, obj in vars(module).items():
                if name.startswith("_") or not callable(obj) or id(obj) in seen:
                    continue
                if not getattr(obj, "__module__", "").startswith(package.__name__):
                    continue
                seen.add(id(obj))
                yield f"{obj.__module__}.{name}", obj
                if inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if callable(member) and (attr == "__init__" or not attr.startswith("_")):
                            yield f"{obj.__module__}.{name}.{attr}", member


def _parameters(obj):
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def test_no_public_callable_takes_a_twin_switch():
    offenders = sorted(
        f"{qualname}({', '.join(sorted(_parameters(obj) & TWIN_SWITCHES))})"
        for qualname, obj in _public_callables()
        if _parameters(obj) & TWIN_SWITCHES
    )
    assert not offenders, offenders


def test_greedy_dep_has_no_lazy_mode():
    assert "lazy" not in inspect.signature(GreedyDep).parameters


def test_kernel_tiers_are_production_only():
    assert kernels.TIERS == ("numpy", "compiled")
    with pytest.raises(ValueError, match="unknown kernel tier"):
        kernels.set_kernel_tier("scalar")


def test_src_never_imports_the_reference_package():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in ("reference", "tests"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} imports {name}")
    assert not offenders, offenders
