"""Import hygiene: what a spawned process-pool worker has to import.

A worker of :class:`repro.engine.ProcessBackend` starts a fresh interpreter
and unpickles one :class:`repro.engine.RunTask` per run.  Unpickling a
solver must not drag in SciPy or the predictor package :mod:`repro.core`
(about a second of import per worker), so ``repro/__init__`` resolves its
public names lazily and the Luby sequence lives in a NumPy-only leaf
module.  A spawned worker also re-imports its parent's ``__main__``, and a
fleet worker *is* ``python -m repro.cli worker``, so the entry modules must
not load SciPy either: no ``src/repro`` module imports it at module level,
only inside the functions that call it.  Imports are checked in a fresh
interpreter, where ``sys.modules`` starts clean.
"""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.csp.problems import MagicSquareProblem
from repro.engine.tasks import RunTask
from repro.sat.generators import clause_count_for_ratio, random_ksat
from repro.solvers.adaptive_search import AdaptiveSearch, AdaptiveSearchConfig
from repro.solvers.walksat import WalkSAT, WalkSATConfig

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run in a fresh interpreter: import the package, unpickle the tasks read
#: from stdin, then report which heavy modules got loaded.
_WORKER = """
import pickle, sys
import repro
for task in pickle.loads(sys.stdin.buffer.read()):
    assert task.algorithm.run(task.seed).iterations >= 0
print(",".join(m for m in ("scipy", "repro.core") if m in sys.modules))
"""


def _fresh_python(code: str, stdin: bytes = b"") -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, check=True
    )
    return out.stdout.decode().strip()


def test_unpickling_solver_tasks_imports_neither_scipy_nor_core():
    formula = random_ksat(20, clause_count_for_ratio(20, 4.2), 3, rng=np.random.default_rng(0))
    tasks = [
        RunTask(WalkSAT(formula, WalkSATConfig(max_flips=200)), 0, 1),
        RunTask(AdaptiveSearch(MagicSquareProblem(4), AdaptiveSearchConfig(max_iterations=200)), 1, 2),
    ]
    assert _fresh_python(_WORKER, pickle.dumps(tasks)) == ""


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.service", "repro.campaign.controller", "repro.stats.online"]
)
def test_entry_modules_import_no_scipy(module):
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_python(code) == "[]"


def _module_level_imports(tree: ast.Module):
    """Import statements run at import time: everywhere but inside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if node.level == 0 else []
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_every_public_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert set(repro.__all__) <= set(dir(repro))
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["collect_batch"] is repro.engine.collect_batch


def test_star_import_in_a_fresh_interpreter():
    code = "from repro import *; print(predict_speedup_curve.__module__, run_race.__module__)"
    assert _fresh_python(code) == "repro.core.prediction repro.engine.core"


def test_docstring_quickstart_runs():
    import doctest

    assert doctest.testmod(repro).failed == 0
