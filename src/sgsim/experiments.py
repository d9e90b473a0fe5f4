"""Experimental predictions: virtual collapse point, recombination coherence,
multilayer beam splitting, and bimodality detection.

The collapse point is found exactly as an experimenter would: fit straight
lines to the branch centroids at several post-interaction stations and
intersect them.  Recombination takes the closed-form overlap of the z
factors of the two branches (kicked by -+v_z while the beams stay separated,
unkicked after a perfect reversal), with an injectable relative phase error
modeling imperfect phase maintenance.
The multilayer sandwich samples the exact closed form of each branch on its
field schedule (:mod:`sgsim.analytic`) at the points of a grid.
The "significantly greater" split condition is operationalized by the peak
detector; the dimensionless kick strength kappa = mu_b*B'*dt*sigma/hbar is
reported alongside so users can calibrate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .analytic import dispersion_factor, evolve_packet, kick_integrals, kicked_factor
from .classical import Histogram
from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    derive_timing,
    detection_time,
    field_schedule,
    kick_velocity,
)
from .errors import (
    DomainError,
    GeometryError,
    InvalidParameterError,
    NoSplitError,
)
from .oracle import Grid1D, GridState

_NOMINAL_COUNTS = 1_000_000  # scale for converting grid probability mass to counts


# ---------------------------------------------------------------------------
# bimodality detection


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x: the middle (rounded down) of every
    plateau whose neighbours on both sides are strictly lower.  The two ends
    never count."""
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    v = x[starts]
    inner = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    return (starts[1:-1][inner] + ends[1:-1][inner]) // 2


def _valley_walk(heights: list[float], valleys: list[float], passes) -> np.ndarray:
    """For each peak k, the lowest valley passed walking back from it until a
    peak it does not pass: min(valleys[m + 1 .. k]), where valleys[k] is the
    lowest point before peak k and m is the nearest earlier peak j with
    passes(heights[j], heights[k]) false (or -1).  One monotonic-stack pass;
    ``passes`` is operator.le to walk through peaks of equal height and
    operator.lt to stop at them."""
    out = np.empty(len(heights))
    stack: list[tuple[float, float]] = []  # (height, min valley it covers)
    for k, (h, low) in enumerate(zip(heights, valleys)):
        while stack and passes(stack[-1][0], h):
            low = min(low, stack.pop()[1])
        stack.append((h, low))
        out[k] = low
    return out


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Prominence of each local maximum of x: its height minus the higher of
    the lowest points reached walking left and right from it, each walk
    ending at the array's end or where the signal rises above the peak.

    Ties go by position: the left walk also ends at an earlier peak of equal
    height, while the right walk passes later ones, so of two equal peaks the
    later one is ranked as if the earlier were higher.  (scipy's
    peak_prominences passes equal peaks both ways, which gives two tied peaks
    full prominence however shallow the dip between them.)

    Between two neighbouring local maxima the signal falls and then rises, so
    each walk's lowest point is the smallest valley minimum it crosses.
    """
    valleys = np.minimum.reduceat(x, np.r_[0, peaks]).tolist()
    heights = x[peaks].tolist()
    left = _valley_walk(heights, valleys[:-1], operator.lt)
    right = _valley_walk(heights[::-1], valleys[:0:-1], operator.le)[::-1]
    return x[peaks] - np.maximum(left, right)


def _half_width(x: np.ndarray, peak: int, prominence: float) -> float:
    """Width in samples of the peak at half its prominence, each side
    interpolated linearly between the last sample above that height and the
    first at or under it.  The half-prominence height is never below the
    lowest point of either prominence walk, so those samples lie within the
    walks."""
    height = x[peak] - prominence * 0.5
    i = int(np.flatnonzero(x[: peak + 1] <= height)[-1])
    left_ip = float(i)
    if x[i] < height:
        left_ip += (height - x[i]) / (x[i + 1] - x[i])
    i = peak + int(np.flatnonzero(x[peak:] <= height)[0])
    right_ip = float(i)
    if x[i] < height:
        right_ip -= (height - x[i]) / (x[i - 1] - x[i])
    return right_ip - left_ip


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
    if not np.isfinite(values).all():
        raise InvalidParameterError("profile values must be finite")
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
    maxima = _local_maxima(smooth)
    prominences = _prominences(smooth, maxima)
    keep = prominence_frac * peak_level <= prominences
    idx, prominences = maxima[keep], prominences[keep]
    positions = tuple(float(coordinates[i]) for i in idx)
    if idx.size < 2:
        return BimodalityReport(int(idx.size), positions, 0.0)
    order = np.argsort(prominences)[::-1][:2]
    top = np.sort(idx[order])
    taller = top[np.argmax(smooth[top])]
    width = _half_width(smooth, taller, prominences[np.searchsorted(idx, taller)])
    dx = float(np.mean(np.diff(coordinates)))
    fwhm = width * dx
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
    units: UnitSystem = DEFAULT_UNITS,
) -> SandwichResult:
    """Sample the closed-form state after the layer stack on the grid points
    and count the resolved peaks in the final z density."""
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

    kicks = kick_integrals(schedule, t_final, units)
    z = grid.points
    final = GridState(
        grid=grid,
        psi_plus=packet.chi_plus * kicked_factor(
            packet, kicks, t_final, Branch.PLUS.deflection_sign, z, units),
        psi_minus=packet.chi_minus * kicked_factor(
            packet, kicks, t_final, Branch.MINUS.deflection_sign, z, units),
        t=t_final,
    )
    final.check_extent()

    density = final.density()
    report = detect_bimodality(density, z)

    edges = np.linspace(grid.z_min, grid.z_max, bins + 1)
    mass, _ = np.histogram(z, bins=edges, weights=density * grid.dz)
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
