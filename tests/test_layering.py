"""The runtime is the closed form: only the CLI and the package's public
namespace reach the grid oracle."""

import ast
import pathlib

import sgsim

_PACKAGE = pathlib.Path(sgsim.__file__).parent


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if node.module is None:  # from . import oracle
                names.update(base + alias.name for alias in node.names)
    return names


def test_only_cli_and_init_import_the_oracle():
    oracle_names = {".oracle", "sgsim.oracle"}
    importers = sorted(
        path.name for path in _PACKAGE.glob("*.py")
        if _imported_modules(ast.parse(path.read_text())) & oracle_names
    )
    assert importers == ["__init__.py", "cli.py"]
