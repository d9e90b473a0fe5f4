"""Unit conventions, apparatus geometry, initial packet, derived kinematics,
the field schedule of a flight through any field layout (``flight_schedule``,
the one way from an apparatus or layer stack to a schedule and the one place
that refuses a layer upstream of the source), and its kick integrals, which
say where every branch is.

This is also the scalar layer, in Python floats without numpy: the
dispersion factor, the closed-form branch overlap, and the two experiments
whose results are a handful of scalars, the backtracked collapse point
(``backtrack_collapse``) and the recombination coherence (``recombine``).

Everything downstream works in the dimensionless defaults hbar = m = mu_b = 1;
physical values can be supplied through :class:`UnitSystem`.

Sign convention, fixed here once and enforced everywhere: the magnetic moment
is mu_vec = -mu_b * sigma_vec, so the spin-up (chi_plus) branch couples to the
field gradient with mu_z = -mu_b and deflects toward -z.  Deflections at the
detector follow z_d = -z_max * cos(beta).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError, NoSplitError


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidParameterError(f"{name} must be finite, got {v!r}")


class Branch(enum.Enum):
    """Spin branch along z.

    ``deflection_sign`` is the sign of the branch's z-deflection: -1 for
    spin-up (plus), +1 for spin-down (minus).
    """

    PLUS = "plus"
    MINUS = "minus"

    @property
    def deflection_sign(self) -> int:
        return -1 if self is Branch.PLUS else +1


@dataclass(frozen=True)
class UnitSystem:
    """Fundamental constants: hbar, particle mass, and magnetic moment scale."""

    hbar: float = 1.0
    mass: float = 1.0
    mu_b: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("unit constants", self.hbar, self.mass, self.mu_b)
        if self.hbar <= 0 or self.mass <= 0 or self.mu_b <= 0:
            raise InvalidParameterError(
                f"unit constants must be strictly positive, got {self}"
            )


DEFAULT_UNITS = UnitSystem()


@dataclass(frozen=True)
class Apparatus:
    """Field-gradient geometry along the beam axis.

    The beam starts at y_a, the field is on between y_b and y_c (abrupt step
    profile), and the detector sits at y_d.  grad_Bz is dBz/dz at z = 0; it
    may be zero (field off) but must be finite.
    """

    y_a: float
    y_b: float
    y_c: float
    y_d: float
    grad_Bz: float

    def __post_init__(self) -> None:
        _require_finite("apparatus geometry", self.y_a, self.y_b, self.y_c, self.y_d)
        _require_finite("grad_Bz", self.grad_Bz)
        if not (self.y_a < self.y_b < self.y_c < self.y_d):
            raise InvalidParameterError(
                "apparatus positions must satisfy y_a < y_b < y_c < y_d, got "
                f"({self.y_a}, {self.y_b}, {self.y_c}, {self.y_d})"
            )

    @property
    def dy(self) -> float:
        """Interaction-region length y_c - y_b."""
        return self.y_c - self.y_b

    @property
    def y_bar(self) -> float:
        """Center of the interaction region."""
        return 0.5 * (self.y_b + self.y_c)


_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianPacket:
    """Minimum-uncertainty Gaussian packet moving along +y with spinor weights.

    ``source`` defaults to (0, y_a, 0) of whatever apparatus the packet is
    paired with; set it explicitly to override.
    """

    sigma: float = 1.0
    k_y: float = 10.0
    chi_plus: complex = complex(_SQRT_HALF, 0.0)
    chi_minus: complex = complex(_SQRT_HALF, 0.0)
    t_prime: float = 0.0
    source: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        _require_finite("packet parameters", self.sigma, self.k_y, self.t_prime)
        if self.sigma <= 0:
            raise InvalidParameterError(f"sigma must be positive, got {self.sigma}")
        if self.k_y <= 0:
            raise InvalidParameterError(f"k_y must be positive, got {self.k_y}")
        _require_finite("spinor amplitudes", *(
            part for c in (self.chi_plus, self.chi_minus) for part in (c.real, c.imag)
        ))
        norm = abs(self.chi_plus) ** 2 + abs(self.chi_minus) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"spinor amplitudes must be normalized, |chi|^2 = {norm}"
            )
        if self.source is not None:
            _require_finite("source point", *self.source)

    def source_y(self, apparatus: Apparatus) -> float:
        return self.source[1] if self.source is not None else apparatus.y_a


@dataclass(frozen=True)
class Timing:
    """Derived kinematic quantities for a packet flying through an apparatus."""

    t_b: float
    t_c: float
    t_bar: float
    v: float
    v_z: float
    z_max: float


def derive_timing(
    apparatus: Apparatus,
    packet: GaussianPacket,
    units: UnitSystem = DEFAULT_UNITS,
) -> Timing:
    """Straight-line flight times and the field-induced kick quantities.

    v = hbar k_y / m; entry/exit times are the apparatus's flight window, as
    ``flight_schedule`` takes it; v_z is the impulsive kick speed and
    z_max = |v_z| * (y_d - y_bar) / v the maximal classical deflection at
    the detector.
    """
    v = units.hbar * packet.k_y / units.mass
    y0 = packet.source_y(apparatus)
    t_b, t_c = _flight_window(packet, y0, apparatus.y_b, apparatus.y_c, units)
    v_z = kick_velocity(apparatus, packet, units)
    z_max = abs(v_z) * ((apparatus.y_d - apparatus.y_bar) / v)
    return Timing(t_b=t_b, t_c=t_c, t_bar=0.5 * (t_b + t_c), v=v, v_z=v_z, z_max=z_max)


def kick_velocity(
    apparatus: Apparatus,
    packet: GaussianPacket,
    units: UnitSystem = DEFAULT_UNITS,
) -> float:
    """Post-interaction z speed v_z = (dy / p_y) * mu_b * dBz/dz."""
    p_y = units.hbar * packet.k_y
    if p_y == 0:
        raise DomainError("kick velocity undefined for zero beam momentum")
    return apparatus.dy * units.mu_b * apparatus.grad_Bz / p_y


def detection_time(
    apparatus: Apparatus,
    packet: GaussianPacket,
    units: UnitSystem = DEFAULT_UNITS,
) -> float:
    """Arrival time of the packet center at the detector plane y_d."""
    timing = derive_timing(apparatus, packet, units)
    return packet.t_prime + (apparatus.y_d - packet.source_y(apparatus)) / timing.v


def field_schedule(
    t_start: float,
    t_final: float,
    fields: list[tuple[float, float, float]],
) -> list[tuple[float, float, float]]:
    """Cut [t_start, t_final] at every edge of the non-overlapping
    (t_on, t_off, grad_Bz) windows in ``fields``.

    Returns the (t0, t1, grad) segments in time order; each carries the
    gradient of the window holding its midpoint, 0 outside every window.
    """
    if not t_final > t_start:
        raise DomainError(f"t_final must exceed the start time {t_start}, got {t_final}")
    edges = {t for t_on, t_off, _ in fields for t in (t_on, t_off)}
    cuts = sorted({t_start, t_final} | {max(t_start, min(t, t_final)) for t in edges})
    schedule = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (t0 + t1)
        grad = next((g for t_on, t_off, g in fields if t_on <= mid < t_off), 0.0)
        schedule.append((t0, t1, grad))
    return schedule


def _flight_window(packet: GaussianPacket, y_source: float, y_start: float, y_end: float,
                   units: UnitSystem) -> tuple[float, float]:
    """Times t' + (y - y_source)/v, v = hbar*k_y/m, at which the packet center
    reaches y_start and y_end; a field upstream of the source, or one that
    the flight crosses in no time at float resolution, is refused."""
    if y_start < y_source:
        raise InvalidParameterError(f"field at y = {y_start} is upstream of source y = {y_source}")
    v = units.hbar * packet.k_y / units.mass
    t_on, t_off = (packet.t_prime + (y - y_source) / v for y in (y_start, y_end))
    if not t_on < t_off:
        raise InvalidParameterError(f"the flight crosses [{y_start}, {y_end}) in no time")
    return t_on, t_off


def flight_schedule(
    packet: GaussianPacket,
    y_source: float,
    layers: list[tuple[float, float, float]],
    t_final: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> list[tuple[float, float, float]]:
    """Field schedule of the packet's flight from emission at y_source to
    t_final through the non-overlapping (y_start, y_end, grad_Bz) ``layers``,
    each on while the packet center is inside it."""
    windows = [(*_flight_window(packet, y_source, y0, y1, units), g) for y0, y1, g in layers]
    return field_schedule(packet.t_prime, t_final, windows)


def apparatus_schedule(
    apparatus: Apparatus,
    packet: GaussianPacket,
    t_final: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> list[tuple[float, float, float]]:
    """``flight_schedule`` through the apparatus's one field window, on
    from y_b to y_c."""
    window = (apparatus.y_b, apparatus.y_c, apparatus.grad_Bz)
    return flight_schedule(packet, packet.source_y(apparatus), [window], t_final, units)


def kick_integrals(
    schedule: list[tuple[float, float, float]],
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[float, float, float]:
    """Kick integrals (p, q, S) at time t of the s = +1 branch driven through
    the (t0, t1, grad) segments of ``schedule`` from its start:
    p = int mu_b*B' dt, q = int p/m dt and S = int p^2/(2m) dt.

    These give where every branch is: a moment mu_z follows the classical
    path z = (mu_z/mu_b)*q, p_z = (mu_z/mu_b)*p, exactly, at every time.
    On a segment of constant force F = mu_b*grad, a time u after its start,
    p gains F*u, q gains (p0*u + F*u^2/2)/m and S gains
    (p0^2*u + p0*F*u^2 + F^2*u^3/3)/(2m), with p0 the momentum at its start.
    """
    if not schedule[0][0] <= t <= schedule[-1][1]:
        raise DomainError(
            f"t = {t} lies outside the schedule [{schedule[0][0]}, {schedule[-1][1]}]"
        )
    m = units.mass
    p = q = action = 0.0
    for t0, t1, grad in schedule:
        u = min(t1, t) - t0
        if u <= 0.0:
            break
        force = units.mu_b * grad
        action += u * (p * p + p * force * u + force * force * u * u / 3.0) / (2.0 * m)
        q += (p * u + 0.5 * force * u * u) / m
        p += force * u
    return p, q, action


def dispersion_factor(tau: float, sigma: float, units: UnitSystem = DEFAULT_UNITS) -> complex:
    """f(tau) = 1 + i*hbar*tau/(m*sigma^2); |f| is the width-growth factor."""
    m_sigma2 = units.mass * sigma * sigma
    if m_sigma2 == 0.0:
        raise DomainError(f"m*sigma^2 underflows to 0 at sigma = {sigma}")
    return 1.0 + 1j * units.hbar * tau / m_sigma2


def branch_overlap(
    kicks: tuple[float, float, float],
    f: complex,
    sigma: float,
    s1: float,
    s2: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> complex:
    """Overlap of the z factors kicked by s1 and s2 times the kick integrals
    (p, q, S), for the dispersion factor f and the packet's sigma, in
    closed form.

    Shifting z by the mean center (s1 + s2)*q/2 leaves the overlap of
    two free Gaussians d = (s2 - s1)*q apart with relative wavenumber
    k = (s2 - s1)*p/hbar, which is real:
    exp(-d^2/(4*w^2) - (k*w - Im(f)*d/w)^2/4) for the width w = sigma*|f|.
    The shift contributes the phase (s2^2 - s1^2)*(p*q/2 - S)/hbar.  Only
    a non-finite phase is refused: an overflowing mismatch is no overlap.
    """
    p, q, action = kicks
    hbar, w = units.hbar, sigma * abs(f)
    phase = (s2 * s2 - s1 * s1) * (0.5 * p * q - action) / hbar
    if not math.isfinite(phase):
        raise DomainError(f"branch overlap phase overflows: {phase}")
    ds = s2 - s1
    d, k = ds * q, ds * p / hbar
    try:
        mismatch = (k * w - f.imag * d / w) ** 2
    except OverflowError:  # a mismatch past the float range: no overlap
        mismatch = math.inf
    return cmath.exp(-d * d / (4.0 * w * w) - mismatch / 4.0 + 1j * phase)


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
    timing = derive_timing(apparatus, packet, units)
    if apparatus.grad_Bz == 0:
        raise NoSplitError("zero field gradient: branch paths are parallel")
    t_d = detection_time(apparatus, packet, units)
    if times is None:
        times = [timing.t_c + u * (t_d - timing.t_c) for u in _STATIONS]
    else:
        times = [float(t) for t in times]
        _require_finite("sampling times", *times)
        if len(set(times)) < 2:
            raise InvalidParameterError("need at least 2 distinct sampling times for the fit")
    if len(times) < 3:
        raise InvalidParameterError("need at least 3 sampling times for the fit")
    if any(t < timing.t_c for t in times):
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
    y = [packet.source_y(apparatus) + timing.v * (t - packet.t_prime) for t in times]

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
    timing1 = derive_timing(stage1, packet, units)
    v_z1 = timing1.v_z
    if v_z1 == 0.0:
        raise NoSplitError("stage 1 has zero gradient; nothing to recombine")
    if stage2 is not None:
        if stage2.y_b < stage1.y_c:
            raise InvalidParameterError("stage 2 must start after stage 1 ends")
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
    if not math.isfinite(t_eval):
        raise InvalidParameterError(f"evaluation time must be finite, got {t_eval}")

    kicks = kick_integrals(apparatus_schedule(stage1, packet, t_eval, units), t_eval, units)
    f = dispersion_factor(t_eval - packet.t_prime, packet.sigma, units)
    separation = abs(s_p * kicks[1] - s_m * kicks[1])
    cross = branch_overlap(kicks, f, packet.sigma, s_p, s_m, units)
    term = cmath.exp(1j * phase_error) * packet.chi_plus.conjugate() * packet.chi_minus * cross
    fidelity = 0.5 * (1.0 + 2.0 * term.real)
    return RecombinationResult(
        fidelity=fidelity, overlap=abs(cross), separation=separation
    )
