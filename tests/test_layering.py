"""The runtime is the closed form: only the CLI and the package's public
namespace reach the grid oracle, a CLI run imports only the modules its
experiment calls, and the ensemble and scalar runs and every failed parse or
validation import no numpy."""

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


def _is_numpy_import(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "numpy" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").partition(".")[0] == "numpy")


def test_numpy_free_modules_and_cli_import_numpy_only_in_functions():
    for name in ("core.py", "scalar.py", "errors.py", "__init__.py"):
        tree = ast.parse((_PACKAGE / name).read_text())
        assert not any(_is_numpy_import(node) for node in ast.walk(tree)), name
    for name in ("cli.py", "classical.py", "meanfield.py"):
        tree = ast.parse((_PACKAGE / name).read_text())
        in_functions = {id(node) for function in ast.walk(tree)
                        if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
        imports = [node for node in ast.walk(tree) if _is_numpy_import(node)]
        assert imports and all(id(node) in in_functions for node in imports), name


@pytest.mark.parametrize("argv,code", [
    (["backtrack"], 0),
    (["recombine"], 0),
    (["recombine", "--separated"], 0),
    (["classical", "--bogus", "1"], 2),  # a parse error
    (["classical", "--n", "0"], 3),  # a validation error of the config
    (["recombine", "--gap", "-0.5"], 3),  # a validation error inside a scalar run
    (["classical"], 0),
    (["meanfield"], 0),
], ids=["backtrack", "recombine", "separated", "parse", "validation", "layout", "classical",
        "meanfield"])
def test_scalar_runs_and_failed_configs_load_no_numpy(fresh_python, tmp_path, argv, code):
    out = fresh_python(
        "import sys, sgsim.cli\n"
        f"code = sgsim.cli.main({argv + ['--out', str(tmp_path / 'out')]!r})\n"
        "print(code, [m for m in sys.modules if m.partition('.')[0] == 'numpy'])"
    )
    assert out.splitlines()[-1] == f"{code} []"


def test_every_public_name_resolves_lazily(fresh_python):
    out = fresh_python(
        "import importlib, sgsim\n"
        "for name in sgsim.__all__:\n"
        "    home = importlib.import_module('sgsim.' + sgsim._HOME[name])\n"
        "    assert getattr(sgsim, name) is getattr(home, name), name\n"
        "print('ok')"
    )
    assert out.strip() == "ok"


def test_public_api_is_pinned():
    # adding or removing a public name is a deliberate change to this list
    assert sgsim.__all__ == [
        "Apparatus", "BimodalityReport", "Branch", "CollapseReport", "ConfigError",
        "DEFAULT_UNITS", "DomainError", "ExtentError", "GaussianPacket", "Grid1D",
        "GridState", "Histogram", "InvalidParameterError", "Layer", "LayerStack",
        "MeanFieldState", "NoSplitError", "OracleComparison", "RecombinationResult",
        "SandwichResult", "SgSimError", "SpinorField", "Timing", "UnitSystem",
        "backtrack_collapse", "classical_ensemble", "classical_trajectory",
        "coherence_norm", "compare_analytic_oracle", "density_sweep", "derive_timing",
        "detect_bimodality", "detection_time", "dispersion_factor", "evolve_packet",
        "kick_velocity", "layer_kappa", "meanfield_ensemble", "meanfield_ensemble_density",
        "meanfield_evolve", "propagate", "propagate_packet", "recombine", "sandwich",
        "spin_moment_average", "suggest_grid",
    ]


def _called_names(tree: ast.Module) -> set[str]:
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_only_core_builds_field_schedules():
    # every field layout reaches its schedule through core.flight_schedule,
    # so no other module turns y positions into time windows of its own
    callers = sorted(
        path.name for path in _PACKAGE.glob("*.py")
        if "field_schedule" in _called_names(ast.parse(path.read_text()))
    )
    assert callers == ["core.py"]


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


def test_benchmark_imports_resolve():
    # perfbench's split_search set-up imports dispersion_factor from analytic,
    # which takes it from the numpy-free core
    from sgsim import analytic, core

    assert analytic.dispersion_factor is core.dispersion_factor
