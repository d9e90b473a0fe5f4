"""Experimental predictions: virtual collapse point, recombination coherence,
multilayer beam splitting, and bimodality detection.

The collapse point is found exactly as an experimenter would: fit straight
lines to the branch centroids at several post-interaction stations and
intersect them.  Recombination takes the closed-form overlap of the z
factors of the two branches (kicked by -+v_z while the beams stay separated,
unkicked after a perfect reversal), with an injectable relative phase error
modeling imperfect phase maintenance.
The "significantly greater" split condition is operationalized by the peak
detector; the dimensionless kick strength kappa = mu_b*B'*dt*sigma/hbar is
reported alongside so users can calibrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks, peak_widths

from .analytic import dispersion_factor, evolve_packet
from .classical import Histogram
from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    derive_timing,
    detection_time,
    kick_velocity,
)
from .errors import (
    DomainError,
    GeometryError,
    InvalidParameterError,
    NoSplitError,
)
from .oracle import Grid1D, GridState, field_schedule, propagate

_NOMINAL_COUNTS = 1_000_000  # scale for converting grid probability mass to counts


# ---------------------------------------------------------------------------
# bimodality detection


@dataclass(frozen=True)
class BimodalityReport:
    peak_count: int
    peak_positions: tuple[float, ...]
    separation_score: float


def detect_bimodality(
    values: np.ndarray,
    coordinates: np.ndarray | None = None,
    prominence_frac: float = 0.05,
) -> BimodalityReport:
    """Count resolved peaks in a sampled density or histogram.

    The profile is smoothed with a 3-bin moving average, then local maxima
    with prominence above ``prominence_frac`` of the global maximum are
    counted.  The separation score is the distance between the two most
    prominent peaks divided by the full width at half maximum of the taller
    one (0 when fewer than two peaks).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 16:
        raise InvalidParameterError(
            f"need at least 16 bins to detect bimodality, got {values.size}"
        )
    if coordinates is None:
        coordinates = np.arange(values.size, dtype=float)
    else:
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.shape != values.shape:
            raise InvalidParameterError("coordinates must match values in shape")
    smooth = np.convolve(values, np.ones(3) / 3.0, mode="same")
    peak_level = float(smooth.max())
    if peak_level <= 0:
        raise InvalidParameterError("profile has no positive mass")
    idx, props = find_peaks(smooth, prominence=prominence_frac * peak_level)
    positions = tuple(float(coordinates[i]) for i in idx)
    if idx.size < 2:
        return BimodalityReport(int(idx.size), positions, 0.0)
    order = np.argsort(props["prominences"])[::-1][:2]
    top = np.sort(idx[order])
    taller = top[np.argmax(smooth[top])]
    widths, _, _, _ = peak_widths(smooth, np.array([taller]), rel_height=0.5)
    dx = float(np.mean(np.diff(coordinates)))
    fwhm = float(widths[0]) * dx
    separation = abs(float(coordinates[top[1]] - coordinates[top[0]]))
    score = separation / fwhm if fwhm > 0 else math.inf
    return BimodalityReport(int(idx.size), positions, score)


# ---------------------------------------------------------------------------
# collapse-point backtracking


@dataclass(frozen=True)
class CollapseReport:
    """Backtracked virtual collapse location and predicted detector centroids."""

    y_collapse: float
    z_d_plus: float
    z_d_minus: float
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "y_collapse": self.y_collapse,
            "z_d_plus": self.z_d_plus,
            "z_d_minus": self.z_d_minus,
            "residual": self.residual,
        }


def backtrack_collapse(
    packet: GaussianPacket,
    apparatus: Apparatus,
    times: np.ndarray | None = None,
    centroids: tuple[np.ndarray, np.ndarray] | None = None,
    units: UnitSystem = DEFAULT_UNITS,
) -> CollapseReport:
    """Fit straight lines to branch centroids and intersect them.

    ``times`` are post-interaction sampling times (default: five stations
    between the region exit and the detector).  ``centroids`` may supply
    measured (z_plus, z_minus) arrays aligned with ``times``; by default the
    closed-form centroids -+ v_z*(t - tbar) are used.
    """
    timing = derive_timing(apparatus, packet, units)
    if apparatus.grad_Bz == 0:
        raise NoSplitError("zero field gradient: branch paths are parallel")
    t_d = detection_time(apparatus, packet, units)
    if times is None:
        times = timing.t_c + np.linspace(0.05, 1.0, 5) * (t_d - timing.t_c)
    times = np.asarray(times, dtype=float)
    if times.size < 3:
        raise InvalidParameterError("need at least 3 sampling times for the fit")
    if np.any(times < timing.t_c):
        raise DomainError("sampling times must be post-interaction (t >= t_c)")
    if centroids is None:
        z_plus = Branch.PLUS.deflection_sign * timing.v_z * (times - timing.t_bar)
        z_minus = Branch.MINUS.deflection_sign * timing.v_z * (times - timing.t_bar)
    else:
        z_plus, z_minus = (np.asarray(c, dtype=float) for c in centroids)
    y = packet.source_y(apparatus) + timing.v * (times - packet.t_prime)

    (slope_p, icpt_p), res_p, *_ = np.polyfit(y, z_plus, 1, full=True)
    (slope_m, icpt_m), res_m, *_ = np.polyfit(y, z_minus, 1, full=True)
    scale = max(abs(slope_p), abs(slope_m), 1e-300)
    if abs(slope_p - slope_m) <= 1e-12 * scale:
        raise NoSplitError("fitted branch lines are parallel; no intersection")
    y_collapse = (icpt_m - icpt_p) / (slope_p - slope_m)
    residual = float((res_p.sum() if res_p.size else 0.0) + (res_m.sum() if res_m.size else 0.0))
    return CollapseReport(
        y_collapse=float(y_collapse),
        z_d_plus=float(slope_p * apparatus.y_d + icpt_p),
        z_d_minus=float(slope_m * apparatus.y_d + icpt_m),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# recombination


@dataclass(frozen=True)
class RecombinationResult:
    """Spin-x survival probability after split (and optional re-merge)."""

    fidelity: float
    overlap: float
    separation: float

    def to_json_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "overlap": self.overlap,
            "separation": self.separation,
        }


def recombine(
    packet: GaussianPacket,
    stage1: Apparatus,
    stage2: Apparatus | None,
    phase_error: float = 0.0,
    units: UnitSystem = DEFAULT_UNITS,
) -> RecombinationResult:
    """Split the beam with stage1, optionally reverse the kick with stage2,
    and measure the spin along x.

    With stage2 present it must exactly reverse stage1's kick (equal
    magnitude, opposite sign); ``phase_error`` is an injected relative phase
    between the branches at recombination.  Returns
    P(+x) = (1 + 2*Re[exp(i*delta) * chi_+^* chi_- * <g_+|g_->]) / 2,
    which is (1 + O*cos(delta))/2 for a real overlap magnitude O and a +x
    input spin.
    """
    timing1 = derive_timing(stage1, packet, units)
    v_z1 = timing1.v_z
    if v_z1 == 0.0:
        raise NoSplitError("stage 1 has zero gradient; nothing to recombine")
    if stage2 is not None:
        if stage2.y_b < stage1.y_c:
            raise GeometryError("stage 2 must start after stage 1 ends")
        v_z2 = kick_velocity(stage2, packet, units)
        if not math.isclose(v_z2, -v_z1, rel_tol=1e-9):
            raise InvalidParameterError(
                f"stage 2 must reverse stage 1's kick: v_z1 = {v_z1}, v_z2 = {v_z2}"
            )
        y0 = packet.source_y(stage1)
        t_eval = packet.t_prime + (stage2.y_d - y0) / timing1.v
        # A perfect reversal rejoins the branches: both end at the common
        # centroid with zero relative velocity (no net kick), so only
        # phase_error can degrade the overlap.
        s_p, s_m = 0, 0
    else:
        t_eval = detection_time(stage1, packet, units)
        s_p, s_m = Branch.PLUS.deflection_sign, Branch.MINUS.deflection_sign

    field = evolve_packet(packet, stage1, t_eval, units)
    separation = abs(field.kicked_center(s_p) - field.kicked_center(s_m))
    cross = field.overlap(s_p, s_m)
    term = (
        np.exp(1j * phase_error)
        * np.conj(packet.chi_plus) * packet.chi_minus
        * cross
    )
    fidelity = 0.5 * (1.0 + 2.0 * float(np.real(term)))
    return RecombinationResult(
        fidelity=fidelity, overlap=abs(cross), separation=separation
    )


# ---------------------------------------------------------------------------
# multilayer sandwich


@dataclass(frozen=True)
class Layer:
    """One field layer: [y_start, y_end) with gradient grad_Bz along z."""

    y_start: float
    y_end: float
    grad_Bz: float

    def __post_init__(self) -> None:
        if not self.y_start < self.y_end:
            raise InvalidParameterError("layer must have y_start < y_end")
        if not math.isfinite(self.grad_Bz):
            raise InvalidParameterError("layer gradient must be finite")


@dataclass(frozen=True)
class LayerStack:
    """Ordered, non-overlapping field layers (all gradients along z)."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        for a, b in zip(layers[:-1], layers[1:]):
            if b.y_start < a.y_end:
                raise GeometryError(
                    f"layers overlap or are out of order: {a} then {b}"
                )


@dataclass(frozen=True)
class SandwichResult:
    histogram: Histogram
    peak_count: int
    report: BimodalityReport
    kappas: tuple[float, ...]
    state: GridState

    def to_json_dict(self) -> dict:
        return {
            "peak_count": self.peak_count,
            "peak_positions": list(self.report.peak_positions),
            "separation_score": self.report.separation_score,
            "kappas": list(self.kappas),
        }


def layer_kappa(
    layer: Layer, packet: GaussianPacket, units: UnitSystem = DEFAULT_UNITS
) -> float:
    """Dimensionless split strength mu_b*|B'|*dt*sigma/hbar for one layer."""
    v = units.hbar * packet.k_y / units.mass
    dt = (layer.y_end - layer.y_start) / v
    return units.mu_b * abs(layer.grad_Bz) * dt * packet.sigma / units.hbar


def sandwich(
    packet: GaussianPacket,
    layers: LayerStack,
    t_final: float,
    grid: Grid1D | None = None,
    y_source: float = 0.0,
    bins: int = 128,
    n_field_steps: int = 128,
    units: UnitSystem = DEFAULT_UNITS,
) -> SandwichResult:
    """Evolve the packet through the layer stack on the grid and count the
    resolved peaks in the final z density."""
    v = units.hbar * packet.k_y / units.mass
    windows = [
        (packet.t_prime + (layer.y_start - y_source) / v,
         packet.t_prime + (layer.y_end - y_source) / v,
         layer.grad_Bz)
        for layer in layers.layers
    ]
    schedule = field_schedule(packet.t_prime, t_final, windows)
    for layer in layers.layers:
        if layer.y_start < y_source:
            raise GeometryError("layers must lie downstream of the source")

    if grid is None:
        tau = t_final - packet.t_prime
        f = dispersion_factor(tau, packet.sigma, units)
        drift = sum(
            abs(g) * units.mu_b * (t1 - t0) / units.mass
            * (t_final - 0.5 * (t0 + t1))
            for t0, t1, g in schedule
        )
        half = 1.25 * (drift + 8.0 * packet.sigma * abs(f)) + packet.sigma
        grid = Grid1D(z_min=-half, z_max=half, n_points=4096)

    state = GridState.from_packet(packet, grid, units)
    final = propagate(state, schedule, n_field_steps, units)

    density = final.density()
    report = detect_bimodality(density, grid.points)

    edges = np.linspace(grid.z_min, grid.z_max, bins + 1)
    mass, _ = np.histogram(grid.points, bins=edges, weights=density * grid.dz)
    counts = np.rint(mass * _NOMINAL_COUNTS).astype(np.int64)
    histogram = Histogram(edges=edges, counts=counts, n_total=int(counts.sum()))
    kappas = tuple(layer_kappa(layer, packet, units) for layer in layers.layers)
    return SandwichResult(
        histogram=histogram,
        peak_count=report.peak_count,
        report=report,
        kappas=kappas,
        state=final,
    )
