"""Collapse-free Stern-Gerlach simulation toolkit.

Closed-form entangled spinor evolution, classical and mean-field ensemble
predictions, z-resolved density matrices, an independent split-step grid
propagator for cross-validation, and experiment-level predictions
(collapse-point backtracking, recombination coherence, multilayer splitting).

Each public name is imported from its submodule on first access, so
``import sgsim`` (and every ``sgsim <experiment>`` run) loads only the
submodules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "core": (
        "Apparatus", "Branch", "DEFAULT_UNITS", "GaussianPacket", "Timing", "UnitSystem",
        "derive_timing", "detection_time", "dispersion_factor", "kick_velocity",
    ),
    "scalar": ("CollapseReport", "RecombinationResult", "backtrack_collapse", "recombine"),
    "classical": ("Histogram", "classical_ensemble", "classical_trajectory"),
    "analytic": ("Grid1D", "SpinorField", "evolve_packet", "suggest_grid"),
    "density": ("coherence_norm", "density_sweep"),
    "meanfield": (
        "MeanFieldState", "meanfield_ensemble", "meanfield_ensemble_density",
        "meanfield_evolve", "spin_moment_average",
    ),
    "oracle": (
        "GridState", "OracleComparison", "compare_analytic_oracle", "propagate",
        "propagate_packet",
    ),
    "experiments": (
        "BimodalityReport", "Layer", "LayerStack", "SandwichResult", "detect_bimodality",
        "layer_kappa", "sandwich",
    ),
    "errors": (
        "ConfigError", "DomainError", "ExtentError", "InvalidParameterError",
        "NoSplitError", "SgSimError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound as an eager import would bind it
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
