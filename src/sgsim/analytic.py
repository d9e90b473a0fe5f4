"""Closed-form evolution of the spinor Gaussian through any field schedule.

Each spin component sees a potential linear in z, V = -s*mu_b*B'(t)*z with
s = -1 for the plus (spin-up) branch and +1 for the minus branch, so its
exact solution is the free Gaussian, shifted and phase-kicked (Avron &
Herbst, Commun. Math. Phys. 52, 239 (1977)):

    psi_s(z, t) = chi_s * exp(i*s*(p*z - s*S)/hbar) * phi_free(z - s*q, t),

with the kick integrals p = int mu_b*B' dt, q = int p/m dt and
S = int p^2/(2m) dt taken from emission to t (``core.kick_integrals``).
On each segment of a field schedule p is linear, q quadratic and S cubic in
time, so the form holds at every time, inside a field region or after it;
the grid propagator (:mod:`sgsim.oracle`) is its independent check.

``SpinorField`` is keyed by a field schedule alone, through its kick
integrals at t, and by the source y: ``evolve_packet`` builds it for an
apparatus and ``sandwich`` for a layer stack, so both read one z density.

A ``Grid1D`` is where the form is sampled: ``schedule_grid`` sizes one to
hold both branches at the end of a schedule, from the drift |q| and the
width sigma*|f|, and ``Grid1D.check_extent`` refuses a sampled density above
EDGE_TOL of its peak at either edge.  ``sandwich``, ``evolve`` and the oracle
share them; ``sandwich`` and ``evolve`` also refuse, by
``Grid1D.check_resolved``, a density that the grid samples as 0 everywhere.

Phase conventions: all complex square roots take the principal branch.  The
dispersion factor f(tau) = 1 + i*hbar*tau/(m*sigma^2) has unit real part
for tau >= 0, so the principal branch is continuous along the whole time
sweep.
Every phase is kept, S included, so the z factors equal the grid's
amplitudes without any phase alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    apparatus_schedule,
    branch_overlap,
    dispersion_factor,
    kick_integrals,
)
from .errors import ExtentError, InvalidParameterError

EDGE_TOL = 1e-10  # max tolerated relative density at a grid's edge

_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _even_bin_mass(u: np.ndarray, outside: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Mass between consecutive ascending points u of a distribution even
    about 0, from its mass ``outside`` and ``inside`` [-|u|, |u|] at each
    point: half the difference of the outside masses for a bin on one side
    of 0, where the inside masses would subtract two values near 1 and keep
    only their absolute precision, and half the sum of the inside masses
    for a bin across 0."""
    lo, hi = u[:-1], u[1:]
    return 0.5 * np.where(
        lo >= 0.0, outside[:-1] - outside[1:],
        np.where(hi <= 0.0, outside[1:] - outside[:-1], inside[:-1] + inside[1:]),
    )


@dataclass(frozen=True)
class SpinorField:
    """Entangled two-branch Gaussian at time t.

    The closed form factorizes into x, y, and z pieces; each 1-D factor is
    unit-normalized, which makes marginals exact without quadrature.
    ``kicks`` are the kick integrals (p, q, S) at t of any field schedule
    and ``y_source`` the y the packet left from.  The field is a lazy
    evaluator: call the factor methods at arbitrary points.
    """

    packet: GaussianPacket
    units: UnitSystem
    t: float
    kicks: tuple[float, float, float]
    y_source: float

    @property
    def tau(self) -> float:
        return self.t - self.packet.t_prime

    @cached_property
    def f(self) -> complex:
        return dispersion_factor(self.tau, self.packet.sigma, self.units)

    @property
    def y_center(self) -> float:
        """y of the packet center, in uniform flight from y_source."""
        return self.y_source + self.units.hbar * self.packet.k_y / self.units.mass * self.tau

    @property
    def width(self) -> float:
        """Gaussian amplitude width sigma*|f|; the density sd is width/sqrt(2)."""
        return self.packet.sigma * abs(self.f)

    def kicked_center(self, s: float) -> float:
        """Center s*q of the z factor kicked by s; -+v_z*(t - tbar) once the
        packet has left the field."""
        return s * self.kicks[1]

    def branch_center(self, branch: Branch) -> float:
        """Center of the branch's z marginal."""
        return self.kicked_center(branch.deflection_sign)

    def _norm_1d(self) -> complex:
        sigma = self.packet.sigma
        return self.f ** -0.5 * (math.pi * sigma * sigma) ** -0.25

    def x_factor(self, x):
        sigma = self.packet.sigma
        return self._norm_1d() * np.exp(
            -np.asarray(x) ** 2 / (2.0 * sigma * sigma * self.f)
        )

    def y_factor(self, y):
        sigma, k_y = self.packet.sigma, self.packet.k_y
        hbar, m = self.units.hbar, self.units.mass
        dy = np.asarray(y) - self.y_source
        return self._norm_1d() * np.exp(
            -dy * dy / (2.0 * sigma * sigma * self.f)
            + 1j * k_y * dy / self.f
            - 1j * hbar * k_y * k_y * self.tau / (2.0 * m * self.f)
        )

    def z_factor(self, s: float, z):
        """Unit-norm z factor kicked by s times the kick integrals (p, q, S),
        exp(i*s*(p*z - s*S)/hbar) * phi_free(z - s*q, t): the spin branches
        at s = -+1, the mean-field state at s = <mu_z>/mu_b."""
        p, q, action = self.kicks
        sigma = self.packet.sigma
        z = np.asarray(z)
        dz = z - s * q
        return self._norm_1d() * np.exp(
            -dz * dz / (2.0 * sigma * sigma * self.f)
            + 1j * s * (p * z - s * action) / self.units.hbar
        )

    def overlap(self, s1: float, s2: float) -> complex:
        """<z_factor(s1)|z_factor(s2)> in closed form: ``core.branch_overlap``
        of this field's kick integrals and width."""
        return branch_overlap(self.kicks, self.f, self.packet.sigma, s1, s2, self.units)

    def branch_density(self, s: float, z):
        """|z_factor(s, z)|^2 in real arithmetic: the Gaussian
        exp(-(z - s*q)^2/w^2)/(sqrt(pi)*w) of the width w, since
        Re(1/f) = 1/|f|^2.  The one z density of a branch (s = -+1) or of
        the mean-field state (s = <mu_z>/mu_b)."""
        w = self.width
        # one array, in the order of exp(-dz * dz / (w * w)) / (sqrt(pi) * w)
        dz = np.array(z, dtype=float)
        dz -= self.kicked_center(s)
        np.multiply(dz, dz, out=dz)
        np.negative(dz, out=dz)
        dz /= w * w
        np.exp(dz, out=dz)
        dz /= math.sqrt(math.pi) * w
        return dz if dz.ndim else dz[()]  # a scalar for a scalar z

    def branch_mass(self, s: float, edges) -> np.ndarray:
        """Exact mass of ``branch_density(s)`` between consecutive ascending
        edges, from the edges' distances |u| from the center in widths: half
        of erf(|u_lo|) + erf(|u_hi|) for a bin across the center, and half
        the erfc difference of |u| for a bin on one side of it, where the erf
        difference would subtract two values near 1 and keep only their
        absolute precision."""
        u = (np.asarray(edges, dtype=float) - self.kicked_center(s)) / self.width
        a = np.abs(u)
        tail, core = (np.asarray(f(a), dtype=float) for f in (_erfc, _erf))
        return _even_bin_mass(u, tail, core)

    def z_marginal_density(self, z):
        """|chi_+|^2 * branch_density(-1) + |chi_-|^2 * branch_density(+1),
        exact x/y integration; ``branch_density`` is the one z density."""
        density = self.branch_density(Branch.PLUS.deflection_sign, z)
        density *= abs(self.packet.chi_plus) ** 2
        minus = self.branch_density(Branch.MINUS.deflection_sign, z)
        minus *= abs(self.packet.chi_minus) ** 2
        density += minus
        return density


def evolve_packet(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> SpinorField:
    """Closed-form entangled field at any time t after emission, with the
    apparatus's field on between t_b and t_c."""
    if not math.isfinite(t):
        raise InvalidParameterError(f"evaluation time must be finite, got {t}")
    return SpinorField(
        packet=packet, units=units, t=t,
        kicks=kick_integrals(apparatus_schedule(apparatus, packet, t, units), t, units),
        y_source=packet.source_y(apparatus),
    )


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic z grid with a power-of-two point count."""

    z_min: float
    z_max: float
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 256 or self.n_points & (self.n_points - 1):
            raise InvalidParameterError(
                f"n_points must be a power of two >= 256, got {self.n_points}"
            )
        if not self.z_min < self.z_max:
            raise InvalidParameterError("grid extent must satisfy z_min < z_max")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n_points

    @property
    def points(self) -> np.ndarray:
        points = np.arange(self.n_points, dtype=float)
        points *= self.dz
        points += self.z_min
        return points

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, self.dz)

    def check_extent(self, density: np.ndarray) -> None:
        """Raise ExtentError when the (non-negative) density sampled on the
        points exceeds EDGE_TOL of its peak at either end of the grid."""
        peak = float(density.max())
        edge = max(float(density[0]), float(density[-1]))
        if edge > EDGE_TOL * peak:
            raise ExtentError(
                f"wave function touches the grid boundary (edge/peak = {edge / peak:.3e}); "
                "enlarge the grid extent"
            )

    def check_resolved(self, density: np.ndarray) -> None:
        """Raise ExtentError when the density sampled on the points is 0 at
        every one of them: the state is narrower than the grid step."""
        if not density.any():
            raise ExtentError(
                f"the sampled density is 0 at every grid point; the state is narrower "
                f"than the grid step dz = {self.dz:.3e}: use more grid points"
            )


def schedule_grid(
    packet: GaussianPacket,
    schedule: list[tuple[float, float, float]],
    n_points: int = 4096,
    units: UnitSystem = DEFAULT_UNITS,
) -> Grid1D:
    """Symmetric grid holding both branches at the end of ``schedule``: a
    quarter more than the branch drift |q| plus 8 final amplitude widths, so
    at least 10 widths (e^-100 of the peak density) lie past each center."""
    t_final = schedule[-1][1]
    q = kick_integrals(schedule, t_final, units)[1]
    f = dispersion_factor(t_final - packet.t_prime, packet.sigma, units)
    half = 1.25 * (abs(q) + 8.0 * packet.sigma * abs(f))
    return Grid1D(z_min=-half, z_max=half, n_points=n_points)


def suggest_grid(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t_final: float,
    n_points: int = 4096,
    units: UnitSystem = DEFAULT_UNITS,
) -> Grid1D:
    """``schedule_grid`` of the packet's flight through the apparatus."""
    return schedule_grid(
        packet, apparatus_schedule(apparatus, packet, t_final, units), n_points, units
    )
