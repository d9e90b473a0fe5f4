"""The runtime is the closed form: only the CLI and the package's public
namespace reach the grid oracle, and a CLI run imports only the modules its
experiment calls."""

import ast
import importlib.util
import pathlib

import pytest

import sgsim

_PACKAGE = pathlib.Path(sgsim.__file__).parent
_KERNELS = ("analytic", "classical", "density", "experiments", "meanfield", "oracle")


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


def _reached_modules(path: pathlib.Path) -> set[str]:
    names = _imported_modules(ast.parse(path.read_text()))
    if path.name == "__init__.py":  # the namespace imports through its table
        names.update("." + module for module in sgsim._EXPORTS)
    return names


def test_only_cli_and_init_import_the_oracle():
    oracle_names = {".oracle", "sgsim.oracle"}
    importers = sorted(
        path.name for path in _PACKAGE.glob("*.py")
        if _reached_modules(path) & oracle_names
    )
    assert importers == ["__init__.py", "cli.py"]


def _loaded(fresh_python, source: str) -> list[str]:
    out = fresh_python(
        "import sys\n" + source + "\n"
        f"print(sorted(m for m in {_KERNELS!r} if 'sgsim.' + m in sys.modules))"
    )
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_kernel_module(fresh_python):
    assert _loaded(fresh_python, "import sgsim, sgsim.cli") == []


def test_a_classical_run_loads_neither_oracle_nor_experiments(fresh_python, tmp_path):
    out = tmp_path / "c"
    loaded = _loaded(fresh_python, "import sgsim.cli\n"
                     f"assert sgsim.cli.main(['classical', '--n', '1000', '--out', {str(out)!r}]) == 0")
    assert loaded == ["classical"]
    assert (out / "histogram.csv").exists()


def test_every_public_name_resolves_lazily(fresh_python):
    out = fresh_python(
        "import importlib, sgsim\n"
        "for name in sgsim.__all__:\n"
        "    home = importlib.import_module('sgsim.' + sgsim._HOME[name])\n"
        "    assert getattr(sgsim, name) is getattr(home, name), name\n"
        "print('ok')"
    )
    assert out.strip() == "ok"


def test_no_public_name_is_exported_twice():
    # a name listed under two submodules would resolve to the last of them
    names = [name for names in sgsim._EXPORTS.values() for name in names]
    assert sorted(names) == sgsim.__all__


def test_dir_covers_all(fresh_python):
    out = fresh_python("import sgsim; print(sorted(set(sgsim.__all__) - set(dir(sgsim))))")
    assert out.strip() == "[]"


def test_star_import_binds_all(fresh_python):
    out = fresh_python(
        "import sgsim\n"
        "namespace = {}\n"
        "exec('from sgsim import *', namespace)\n"
        "print(sorted(set(sgsim.__all__) ^ (set(namespace) - {'__builtins__'})))"
    )
    assert out.strip() == "[]"


def test_submodules_import_through_the_namespace(fresh_python):
    # `from sgsim import oracle` falls through to the submodule, and a plain
    # `import sgsim` still reaches a submodule as an attribute
    out = fresh_python(
        "import sgsim\n"
        "from sgsim import oracle\n"
        "print(oracle.Grid1D is sgsim.Grid1D, sgsim.core.Apparatus is sgsim.Apparatus)"
    )
    assert out.strip() == "True True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        sgsim.nonexistent


def test_benchmark_tracer_names_resolve():
    # perfbench's traced runs wrap sgsim functions by their module attribute
    # names, so deleting one fails every traced op.  Install the tracer
    # (perfbench/spans.py is loaded, not changed) and take it out again.
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    from sgsim import classical, meanfield

    owners = (classical, meanfield, classical.Histogram)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        tracer.install_sgsim()
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
