"""Collapse-free Stern-Gerlach simulation toolkit.

Closed-form entangled spinor evolution, classical and mean-field ensemble
predictions, z-resolved density matrices, an independent split-step grid
propagator for cross-validation, and experiment-level predictions
(collapse-point backtracking, recombination coherence, multilayer splitting).
"""

from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    Timing,
    UnitSystem,
    derive_timing,
    detection_time,
    kick_velocity,
)
from .classical import (
    Histogram,
    classical_ensemble,
    classical_trajectory,
    deflection,
)
from .analytic import (
    Grid1D,
    SpinorField,
    dispersion_factor,
    evolve_packet,
    suggest_grid,
)
from .density import coherence_norm, density_sweep
from .meanfield import (
    MeanFieldState,
    meanfield_ensemble,
    meanfield_ensemble_density,
    meanfield_evolve,
    spin_moment_average,
)
from .oracle import (
    GridState,
    OracleComparison,
    compare_analytic_oracle,
    propagate,
    propagate_packet,
)
from .experiments import (
    BimodalityReport,
    CollapseReport,
    Layer,
    LayerStack,
    RecombinationResult,
    SandwichResult,
    backtrack_collapse,
    detect_bimodality,
    layer_kappa,
    recombine,
    sandwich,
)
from .errors import (
    ConfigError,
    DomainError,
    ExtentError,
    GeometryError,
    InvalidParameterError,
    NoSplitError,
    SgSimError,
)

__version__ = "0.1.0"

__all__ = [
    "Apparatus",
    "BimodalityReport",
    "Branch",
    "CollapseReport",
    "ConfigError",
    "DEFAULT_UNITS",
    "DomainError",
    "ExtentError",
    "GaussianPacket",
    "GeometryError",
    "Grid1D",
    "GridState",
    "Histogram",
    "InvalidParameterError",
    "Layer",
    "LayerStack",
    "MeanFieldState",
    "NoSplitError",
    "OracleComparison",
    "RecombinationResult",
    "SandwichResult",
    "SgSimError",
    "SpinorField",
    "Timing",
    "UnitSystem",
    "backtrack_collapse",
    "classical_ensemble",
    "classical_trajectory",
    "coherence_norm",
    "compare_analytic_oracle",
    "deflection",
    "density_sweep",
    "derive_timing",
    "detect_bimodality",
    "detection_time",
    "dispersion_factor",
    "evolve_packet",
    "kick_velocity",
    "layer_kappa",
    "meanfield_ensemble",
    "meanfield_ensemble_density",
    "meanfield_evolve",
    "propagate",
    "propagate_packet",
    "recombine",
    "sandwich",
    "spin_moment_average",
    "suggest_grid",
]
