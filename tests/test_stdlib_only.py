"""The runtime imports nothing outside the standard library, and loads no pool or dataclass machinery at start-up."""

import ast
import os
import pathlib
import subprocess
import sys

SOURCES = pathlib.Path(__file__).parent.parent / "src" / "arborsim"


def _imported_top_levels(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    for path in paths:
        foreign = _imported_top_levels(path) - sys.stdlib_module_names - {"arborsim"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_start_up_imports_no_pool_or_dataclass_machinery():
    # the process pool is imported only when workers start, and the records
    # are NamedTuples, so a single-worker run never loads these modules
    heavy = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect"]
    probe = ("import sys\n"
             "import arborsim.cli, arborsim.experiments, arborsim.edgelist\n"
             f"print(*[m for m in {heavy!r} if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(SOURCES.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
