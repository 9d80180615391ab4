"""The runtime imports nothing outside the standard library."""

import ast
import pathlib
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
