"""The two experiments whose results are a handful of scalars, in Python
floats without numpy: the backtracked collapse point (``backtrack_collapse``)
and the recombination coherence (``recombine``).  Only their runs import
this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    _apparatus_window,
    _flight_window,
    _require_finite,
    apparatus_kicks,
    apparatus_schedule,
    branch_overlap,
    detection_time,
    dispersion_factor,
    kick_integrals,
)
from .errors import DomainError, InvalidParameterError, NoSplitError


# ---------------------------------------------------------------------------
# collapse-point backtracking

# the default stations: five even shares, from 0.05 to 1, of the flight from
# the region exit to the detector
_STATIONS = (0.05, 0.2875, 0.525, 0.7625, 1.0)


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


def _fit_line(x: list[float], y: list[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept through the points and its
    sum of squared residuals, from the points centred on their means, with
    every sum taken by math.fsum.  The spread of x squaring past the float
    range is an OverflowError, and coincident x a ZeroDivisionError."""
    n = len(x)
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    dx = [xi - x_mean for xi in x]
    dy = [yi - y_mean for yi in y]
    sxx = math.fsum(a * a for a in dx)
    if sxx == math.inf:
        raise OverflowError(f"the spread of x squares past the float range: {sxx}")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    residual = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    return slope, y_mean - slope * x_mean, residual


def backtrack_collapse(
    packet: GaussianPacket,
    apparatus: Apparatus,
    times=None,
    centroids=None,
    units: UnitSystem = DEFAULT_UNITS,
) -> CollapseReport:
    """Fit straight lines to branch centroids and intersect them.

    ``times`` are post-interaction sampling times (default: five stations
    between the region exit and the detector).  ``centroids`` may supply
    measured (z_plus, z_minus) sequences aligned with ``times``; by default
    the closed-form centroids -+q of the kick integrals are used.  Given
    times must be finite and not all equal, and given centroids finite and
    as many as the times (``InvalidParameterError``); a fit or result past
    the float range is a ``DomainError``.
    """
    _, t_c = _apparatus_window(apparatus, packet, units)
    if apparatus.grad_Bz == 0:
        raise NoSplitError("zero field gradient: branch paths are parallel")
    t_d = detection_time(apparatus, packet, units)
    if times is None:
        times = [t_c + u * (t_d - t_c) for u in _STATIONS]
    else:
        times = [float(t) for t in times]
        _require_finite("sampling times", *times)
        if len(set(times)) < 2:
            raise InvalidParameterError("need at least 2 distinct sampling times for the fit")
    if len(times) < 3:
        raise InvalidParameterError("need at least 3 sampling times for the fit")
    if any(t < t_c for t in times):
        raise DomainError("sampling times must be post-interaction (t >= t_c)")
    if centroids is None:
        schedule = apparatus_schedule(apparatus, packet, max(times), units)
        q = [kick_integrals(schedule, t, units)[1] for t in times]
        z_plus = [Branch.PLUS.deflection_sign * qi for qi in q]
        z_minus = [Branch.MINUS.deflection_sign * qi for qi in q]
    else:
        z_plus, z_minus = ([float(z) for z in c] for c in centroids)
        if not len(z_plus) == len(z_minus) == len(times):
            raise InvalidParameterError("each centroid sequence must match the times in length")
        _require_finite("centroids", *z_plus, *z_minus)
    v = units.hbar * packet.k_y / units.mass
    y = [packet.source_y(apparatus) + v * (t - packet.t_prime) for t in times]

    try:
        fits = [_fit_line(y, z) for z in (z_plus, z_minus)]
    except (ArithmeticError, ValueError) as exc:  # past the float range, or fsum of inf - inf
        raise DomainError(f"the centroid line fit fails: {exc}") from exc
    if not all(math.isfinite(v) for fit in fits for v in fit):
        raise DomainError(f"the centroid line fit is not finite: {fits}")
    (slope_p, icpt_p, res_p), (slope_m, icpt_m, res_m) = fits
    scale = max(abs(slope_p), abs(slope_m), 1e-300)
    if abs(slope_p - slope_m) <= 1e-12 * scale:
        raise NoSplitError("fitted branch lines are parallel; no intersection")
    report = CollapseReport(
        y_collapse=(icpt_m - icpt_p) / (slope_p - slope_m),
        z_d_plus=slope_p * apparatus.y_d + icpt_p,
        z_d_minus=slope_m * apparatus.y_d + icpt_m,
        residual=res_p + res_m,
    )
    if not all(map(math.isfinite, report.to_json_dict().values())):
        raise DomainError(f"the backtracked collapse point overflows: {report}")
    return report


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
    _, t_c1 = _apparatus_window(stage1, packet, units)
    if apparatus_kicks(stage1, packet, t_c1, units)[0] == 0.0:
        raise NoSplitError("stage 1 has zero gradient; nothing to recombine")
    if stage2 is not None:
        if stage2.y_b < stage1.y_c:
            raise InvalidParameterError("stage 2 must start after stage 1 ends")
        # Equal and opposite field integrals grad*dy give equal and opposite
        # kicks.  The kicks themselves are differences of flight times, which
        # a late emission or a far-off field rounds past this tolerance.
        g1, g2 = stage1.grad_Bz * stage1.dy, stage2.grad_Bz * stage2.dy
        if not math.isclose(g2, -g1, rel_tol=1e-9):
            raise InvalidParameterError(
                f"stage 2 must reverse stage 1's kick: grad*dy = {g1} and {g2}"
            )
        y0 = packet.source_y(stage1)
        t_eval = _flight_window(packet, y0, stage1.y_b, stage2.y_d, units)[1]
        # A perfect reversal rejoins the branches: both end at the common
        # centroid with zero relative velocity (no net kick), so only
        # phase_error can degrade the overlap.
        s_p, s_m = 0, 0
    else:
        t_eval = detection_time(stage1, packet, units)
        s_p, s_m = Branch.PLUS.deflection_sign, Branch.MINUS.deflection_sign

    kicks = apparatus_kicks(stage1, packet, t_eval, units)
    f = dispersion_factor(t_eval - packet.t_prime, packet.sigma, units)
    separation = abs(s_p * kicks[1] - s_m * kicks[1])
    cross = branch_overlap(kicks, f, packet.sigma, s_p, s_m, units)
    term = cmath.exp(1j * phase_error) * packet.chi_plus.conjugate() * packet.chi_minus * cross
    fidelity = 0.5 * (1.0 + 2.0 * term.real)
    return RecombinationResult(
        fidelity=fidelity, overlap=abs(cross), separation=separation
    )
