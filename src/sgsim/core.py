"""Unit conventions, apparatus geometry, initial packet, derived kinematics,
the field schedule of a flight through any field layout (``flight_schedule``,
the one way from an apparatus or layer stack to a schedule and the one place
that refuses a layer upstream of the source), and its kick integrals, which
say where every branch is.

This is also the scalar layer, in Python floats without numpy: the
dispersion factor, the closed-form branch overlap, a bin's exact mass under
a distribution even about 0 (``_even_bin_mass``) and the bin edges of
``np.linspace`` (``_linspace``).  The two experiments whose results are a
handful of scalars build on it in :mod:`sgsim.scalar`.

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

from .errors import DomainError, InvalidParameterError


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


def apparatus_kicks(
    apparatus: Apparatus,
    packet: GaussianPacket,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[float, float, float]:
    """Kick integrals (p, q, S) of the apparatus's field schedule at any
    finite time t after emission: where the closed form's branches are."""
    if not math.isfinite(t):
        raise InvalidParameterError(f"evaluation time must be finite, got {t}")
    return kick_integrals(apparatus_schedule(apparatus, packet, t, units), t, units)


def packet_width(tau: float, sigma: float, units: UnitSystem = DEFAULT_UNITS) -> float:
    """Gaussian amplitude width sigma*|f(tau)| of a branch a time tau after
    emission; its density's sd is width/sqrt(2)."""
    return sigma * abs(dispersion_factor(tau, sigma, units))


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


def _even_bin_mass(u, outside, inside) -> list[float]:
    """Mass between consecutive ascending points u of a distribution even
    about 0, from its mass ``outside`` [-|u|, |u|] at each point and
    ``inside(i)``, the mass inside it at point i: half the difference of the
    outside masses for a bin on one side of 0, where the inside masses would
    subtract two values near 1 and keep only their absolute precision, and
    half the sum of the inside masses for a bin across 0, the one bin that
    asks for them."""
    mass = []
    for i in range(len(u) - 1):
        if u[i] >= 0.0:
            mass.append(0.5 * (outside[i] - outside[i + 1]))
        elif u[i + 1] <= 0.0:
            mass.append(0.5 * (outside[i + 1] - outside[i]))
        else:
            mass.append(0.5 * (inside(i) + inside(i + 1)))
    return mass


# The edges, masses and counts of a histogram, and its artifacts' text, take
# about 240 B and 4 us a bin in Python floats, so ten million bins already
# take minutes and gigabytes; a bin count past it is refused rather than
# left to run out of memory.
_MAX_POINTS = 10**7 + 1


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` in Python floats, bit for bit:
    i*step + start with step = (stop - start)/(num - 1), or (i/(num - 1))*
    (stop - start) + start where the step underflows to 0, and the last
    point set to stop.  A span past the float range, or more than
    ``_MAX_POINTS`` points, is a DomainError, refused before any point is
    built."""
    if num < 2:
        raise InvalidParameterError(f"need at least 2 points, got {num}")
    if num > _MAX_POINTS:
        raise DomainError(f"{num} points exceed {_MAX_POINTS}, the most bin edges a run builds")
    delta = stop - start
    if not math.isfinite(delta):
        raise DomainError(f"the span from {start} to {stop} is past the float range")
    div = num - 1
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points
