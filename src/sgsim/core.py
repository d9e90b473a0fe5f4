"""Unit conventions, apparatus geometry, initial packet, derived kinematics,
and the field schedule of a flight through field windows.

Everything downstream works in the dimensionless defaults hbar = m = mu_b = 1;
physical values can be supplied through :class:`UnitSystem`.

Sign convention, fixed here once and enforced everywhere: the magnetic moment
is mu_vec = -mu_b * sigma_vec, so the spin-up (chi_plus) branch couples to the
field gradient with mu_z = -mu_b and deflects toward -z.  Deflections at the
detector follow z_d = -z_max * cos(beta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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

    def translated(self, shift: float) -> "Apparatus":
        """Rigidly shift the whole apparatus along y."""
        return Apparatus(
            self.y_a + shift, self.y_b + shift, self.y_c + shift, self.y_d + shift,
            self.grad_Bz,
        )


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

    def with_spin(self, chi_plus: complex, chi_minus: complex) -> "GaussianPacket":
        return GaussianPacket(
            self.sigma, self.k_y, chi_plus, chi_minus, self.t_prime, self.source
        )


@dataclass(frozen=True)
class Timing:
    """Derived kinematic quantities for a packet flying through an apparatus."""

    t_b: float
    t_c: float
    t_bar: float
    dt: float
    dy: float
    v: float
    v_z: float
    L: float
    T: float
    z_max: float

    def __post_init__(self) -> None:
        if not self.t_b < self.t_c:
            raise InvalidParameterError(f"t_b must precede t_c, got {self}")


def derive_timing(
    apparatus: Apparatus,
    packet: GaussianPacket,
    units: UnitSystem = DEFAULT_UNITS,
) -> Timing:
    """Straight-line flight times and the field-induced kick quantities.

    v = hbar k_y / m; entry/exit times follow from uniform motion out of the
    source; v_z is the impulsive kick speed and z_max = v_z * T the maximal
    classical deflection at the detector.
    """
    v = units.hbar * packet.k_y / units.mass
    y0 = packet.source_y(apparatus)
    if apparatus.y_b < y0:
        raise InvalidParameterError(
            f"packet source y = {y0} must not lie past the field entry y_b"
        )
    t_b = packet.t_prime + (apparatus.y_b - y0) / v
    t_c = packet.t_prime + (apparatus.y_c - y0) / v
    dy = apparatus.dy
    dt = dy / v
    v_z = kick_velocity(apparatus, packet, units)
    L = apparatus.y_d - apparatus.y_bar
    T = L / v
    z_max = abs(v_z) * T
    return Timing(
        t_b=t_b, t_c=t_c, t_bar=0.5 * (t_b + t_c), dt=dt, dy=dy, v=v,
        v_z=v_z, L=L, T=T, z_max=z_max,
    )


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
