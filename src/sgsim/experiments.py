"""Experimental predictions: multilayer beam splitting and bimodality
detection.  (The scalar experiments, the backtracked collapse point and the
recombination coherence, live in :mod:`sgsim.core`, without numpy.)

The multilayer sandwich builds ``evolve``'s closed-form ``SpinorField`` on
the field schedule of its layers (:mod:`sgsim.analytic`), which
``core.flight_schedule`` builds as it builds an apparatus's, and samples its
z density at the points of a grid sized and edge-checked there too; its
histogram is the exact mass of the closed form in each bin
(``SpinorField.branch_mass``), not the grid's sampled probability mass.
Overlapping layers and a layer upstream of the source are
``InvalidParameterError``s.
The "significantly greater" split condition is operationalized by the peak
detector; the dimensionless kick strength kappa = mu_b*B'*dt*sigma/hbar is
reported alongside so users can calibrate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .analytic import Grid1D, SpinorField, schedule_grid
from .classical import Histogram
from .core import (
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    flight_schedule,
    kick_integrals,
)
from .errors import InvalidParameterError

_NOMINAL_COUNTS = 1_000_000  # counts per unit of the closed form's exact bin mass
_PROMINENCE_FRAC = 0.05  # least prominence of a counted peak, as a share of the highest


# ---------------------------------------------------------------------------
# bimodality detection


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of x: the middle (rounded down) of every
    plateau whose neighbours on both sides are strictly lower.  The two ends
    never count.

    A candidate is a sample above its left neighbour and not below its right
    one, so it starts a plateau entered rising; walking right to the
    plateau's last sample keeps it when the next sample is lower and drops it
    when the next is higher or the plateau reaches the end."""
    mid = x[1:-1]
    candidates = np.flatnonzero((mid > x[:-2]) & (mid >= x[2:])) + 1
    peaks = []
    last = x.size - 1
    for start in candidates.tolist():
        end = start
        while end < last and x[end + 1] == x[start]:
            end += 1
        if end < last and x[end + 1] < x[start]:
            peaks.append((start + end) // 2)
    return np.array(peaks, dtype=np.intp)


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


def detect_bimodality(values: np.ndarray, coordinates: np.ndarray) -> BimodalityReport:
    """Count resolved peaks in a density or histogram sampled at ``coordinates``.

    The profile is smoothed with a 3-bin moving average, then local maxima
    with prominence of at least 5% of the global maximum (``_PROMINENCE_FRAC``)
    are counted.  The separation score is the distance between the two most
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
    coordinates = np.asarray(coordinates, dtype=float)
    if coordinates.shape != values.shape:
        raise InvalidParameterError("coordinates must match values in shape")
    smooth = np.convolve(values, np.ones(3) / 3.0, mode="same")
    peak_level = float(smooth.max())
    if peak_level <= 0:
        raise InvalidParameterError("profile has no positive mass")
    maxima = _local_maxima(smooth)
    prominences = _prominences(smooth, maxima)
    keep = _PROMINENCE_FRAC * peak_level <= prominences
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
                raise InvalidParameterError(f"layers overlap or are out of order: {a} then {b}")


@dataclass(frozen=True)
class SandwichResult:
    histogram: Histogram
    peak_count: int
    report: BimodalityReport
    kappas: tuple[float, ...]
    grid: Grid1D
    density: np.ndarray

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
    bins: int = 128,
    units: UnitSystem = DEFAULT_UNITS,
) -> SandwichResult:
    """Sample the closed-form z density after the layer stack on the grid
    points and count its resolved peaks.  The histogram holds the exact mass
    of the closed form in each of ``bins`` equal bins across the grid, in
    counts of a nominal million.  The beam starts at the y of
    ``packet.source``, or at y = 0 when the packet sets no source."""
    y_source = packet.source[1] if packet.source is not None else 0.0
    schedule = flight_schedule(
        packet, y_source,
        [(layer.y_start, layer.y_end, layer.grad_Bz) for layer in layers.layers],
        t_final, units,
    )
    if grid is None:
        grid = schedule_grid(packet, schedule, units=units)

    kicks = kick_integrals(schedule, t_final, units)
    field = SpinorField(packet, units, t_final, kicks, y_source)
    z = grid.points
    density = field.z_marginal_density(z)
    grid.check_extent(density)
    grid.check_resolved(density)
    report = detect_bimodality(density, z)

    edges = np.linspace(grid.z_min, grid.z_max, bins + 1)
    mass = (
        field.branch_mass(Branch.PLUS.deflection_sign, edges) * abs(packet.chi_plus) ** 2
        + field.branch_mass(Branch.MINUS.deflection_sign, edges) * abs(packet.chi_minus) ** 2
    )
    counts = np.rint(mass * _NOMINAL_COUNTS).astype(np.int64)
    histogram = Histogram(edges=edges, counts=counts, n_total=int(counts.sum()))
    kappas = tuple(layer_kappa(layer, packet, units) for layer in layers.layers)
    return SandwichResult(
        histogram=histogram,
        peak_count=report.peak_count,
        report=report,
        kappas=kappas,
        grid=grid,
        density=density,
    )
