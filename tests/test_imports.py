"""Every module-level import in ``src/mplq`` is used, or says why not.

No linter ships with the project, so this is its one lint rule: a name a
module imports at module level must be read somewhere in that module, unless
the import's line carries ``# noqa: F401``. ``__init__.py`` re-exports the
package API and is not checked. Last, ``import mplq.cli`` must not load the
process pool, which only ``mplq bench --jobs`` above 1 uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "mplq").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import in ``source`` that is never read
    and whose statement carries no ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from typing import (Callable,\n"
              "                    Optional)\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: Optional[int]) -> float:\n"
              "    return math.pi\n")
    assert unused_imports(source) == [(3, "os"), (4, "Callable")]


def test_only_the_wrapped_solver_bindings_carry_noqa():
    flagged = [(path.name, line.split("import", 1)[1].split("#")[0].strip())
               for path in SOURCES for line in path.read_text(encoding="utf-8").splitlines()
               if "# noqa: F401" in line]
    assert flagged == [("cli.py", "run_ga"), ("cli.py", "GAMMA, TOL, run_hqm")]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # bench._solve_pools imports ProcessPoolExecutor only when it runs jobs in parallel
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, mplq.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


DRAW_LAYER = {"BLOCK", "Stream", "roulette_cdf", "PickTable"}


def _defined(tree: ast.Module) -> set[str]:
    """Names a module binds at module level by ``def``, ``class`` or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_the_draw_layer_is_defined_once_in_state():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    for name, tree in trees.items():
        assert _defined(tree) & DRAW_LAYER == (DRAW_LAYER if name == "state.py" else set()), name
    import mplq.hqm
    assert not DRAW_LAYER & set(mplq.hqm.__all__)
    from_hqm = [alias.name for node in trees["ga.py"].body
                if isinstance(node, ast.ImportFrom) and node.module == "hqm"
                for alias in node.names]
    assert from_hqm == ["Evaluator", "RunHistory"]
