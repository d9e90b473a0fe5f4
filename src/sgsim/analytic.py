"""Closed-form evolution of the spinor Gaussian through any field schedule.

Each spin component sees a potential linear in z, V = -s*mu_b*B'(t)*z with
s = -1 for the plus (spin-up) branch and +1 for the minus branch, so its
exact solution is the free Gaussian, shifted and phase-kicked (Avron &
Herbst, Commun. Math. Phys. 52, 239 (1977)):

    psi_s(z, t) = chi_s * exp(i*s*(p*z - s*S)/hbar) * phi_free(z - s*q, t),

with the kick integrals p = int mu_b*B' dt, q = int p/m dt and
S = int p^2/(2m) dt taken from emission to t.  On each segment of a field
schedule p is linear, q quadratic and S cubic in time, so the form holds
at every time, inside a field region or after it; the grid propagator
(:mod:`sgsim.oracle`) is its independent check.

Phase conventions: all complex square roots take the principal branch.  The
dispersion factor f(tau) = 1 + i*hbar*tau/(m*sigma^2) has unit real part
for tau >= 0, so the principal branch is continuous along the whole time
sweep.
Every phase is kept, S included, so the z factors equal the grid's
amplitudes without any phase alignment.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    Timing,
    UnitSystem,
    derive_timing,
    field_schedule,
)
from .errors import DomainError, InvalidParameterError


def dispersion_factor(tau: float, sigma: float, units: UnitSystem = DEFAULT_UNITS) -> complex:
    """f(tau) = 1 + i*hbar*tau/(m*sigma^2); |f| is the width-growth factor."""
    return 1.0 + 1j * units.hbar * tau / (units.mass * sigma * sigma)


def kick_integrals(
    schedule: list[tuple[float, float, float]],
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> tuple[float, float, float]:
    """Kick integrals (p, q, S) at time t of the s = +1 branch driven through
    the (t0, t1, grad) segments of ``schedule`` from its start:
    p = int mu_b*B' dt, q = int p/m dt and S = int p^2/(2m) dt.

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


def kicked_factor(
    packet: GaussianPacket,
    kicks: tuple[float, float, float],
    t: float,
    s: float,
    z,
    units: UnitSystem = DEFAULT_UNITS,
):
    """Unit-norm z factor of the packet at time t, kicked by s times the
    kick integrals (p, q, S): exp(i*s*(p*z - s*S)/hbar) * phi_free(z - s*q, t).

    s = -+1 gives the spin branches; the mean-field state scales the kick by
    s = <mu_z>/mu_b.
    """
    p, q, action = kicks
    sigma = packet.sigma
    f = dispersion_factor(t - packet.t_prime, sigma, units)
    z = np.asarray(z)
    dz = z - s * q
    return (math.pi * sigma * sigma) ** -0.25 * f ** -0.5 * np.exp(
        -dz * dz / (2.0 * sigma * sigma * f) + 1j * s * (p * z - s * action) / units.hbar
    )


@dataclass(frozen=True)
class SpinorField:
    """Entangled two-branch Gaussian at time t.

    The closed form factorizes into x, y, and z pieces; each 1-D factor is
    unit-normalized, which makes marginals exact without quadrature.
    ``kicks`` are the kick integrals (p, q, S) of the apparatus's field
    schedule at t.  The field is a lazy evaluator: call the factor methods
    at arbitrary points or sample a grid explicitly.
    """

    packet: GaussianPacket
    apparatus: Apparatus
    timing: Timing
    units: UnitSystem
    t: float
    kicks: tuple[float, float, float]

    @property
    def tau(self) -> float:
        return self.t - self.packet.t_prime

    @cached_property
    def f(self) -> complex:
        return dispersion_factor(self.tau, self.packet.sigma, self.units)

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
        return (math.pi * sigma * sigma) ** -0.25 * self.f ** -0.5

    def x_factor(self, x):
        sigma = self.packet.sigma
        return self._norm_1d() * np.exp(
            -np.asarray(x) ** 2 / (2.0 * sigma * sigma * self.f)
        )

    def y_factor(self, y):
        sigma, k_y = self.packet.sigma, self.packet.k_y
        hbar, m = self.units.hbar, self.units.mass
        dy = np.asarray(y) - self.packet.source_y(self.apparatus)
        return self._norm_1d() * np.exp(
            -dy * dy / (2.0 * sigma * sigma * self.f)
            + 1j * k_y * dy / self.f
            - 1j * hbar * k_y * k_y * self.tau / (2.0 * m * self.f)
        )

    def z_factor(self, s: float, z):
        """Unit-norm z factor kicked by s, centered at kicked_center(s)."""
        return kicked_factor(self.packet, self.kicks, self.t, s, z, self.units)

    def overlap(self, s1: float, s2: float) -> complex:
        """<z_factor(s1)|z_factor(s2)> in closed form.

        Shifting z by the mean center (s1 + s2)*q/2 leaves the overlap of
        two free Gaussians d = (s2 - s1)*q apart with relative wavenumber
        k = (s2 - s1)*p/hbar, which is real:
        exp(-d^2/(4*w^2) - (k*w - Im(f)*d/w)^2/4) for the width w.  The
        shift contributes the phase (s2^2 - s1^2)*(p*q/2 - S)/hbar.
        """
        p, q, action = self.kicks
        hbar, w = self.units.hbar, self.width
        ds = s2 - s1
        d, k = ds * q, ds * p / hbar
        return cmath.exp(
            -d * d / (4.0 * w * w) - (k * w - self.f.imag * d / w) ** 2 / 4.0
            + 1j * (s2 * s2 - s1 * s1) * (0.5 * p * q - action) / hbar
        )

    def z_marginal_amplitude(self, branch: Branch, z):
        """Unit-norm z factor of the branch wave function (spinor weight excluded)."""
        return self.z_factor(branch.deflection_sign, z)

    def z_marginal_density(self, z):
        """|h_+|^2 |chi_+|^2 + |h_-|^2 |chi_-|^2, exact x/y integration."""
        return (
            np.abs(self.z_marginal_amplitude(Branch.PLUS, z)) ** 2
            * abs(self.packet.chi_plus) ** 2
            + np.abs(self.z_marginal_amplitude(Branch.MINUS, z)) ** 2
            * abs(self.packet.chi_minus) ** 2
        )

    def sample_grid(self, x, y, z):
        """Sample both components on the outer product of coordinate arrays.

        Returns (phi_plus, phi_minus) with shape (len(x), len(y), len(z)),
        spinor weights included.
        """
        gx = self.x_factor(np.asarray(x))[:, None, None]
        gy = self.y_factor(np.asarray(y))[None, :, None]
        hp = self.z_marginal_amplitude(Branch.PLUS, np.asarray(z))[None, None, :]
        hm = self.z_marginal_amplitude(Branch.MINUS, np.asarray(z))[None, None, :]
        return (
            self.packet.chi_plus * gx * gy * hp,
            self.packet.chi_minus * gx * gy * hm,
        )


def evolve_packet(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> SpinorField:
    """Closed-form entangled field at any time t after emission, with the
    field on between t_b and t_c."""
    if not math.isfinite(t):
        raise InvalidParameterError(f"evaluation time must be finite, got {t}")
    timing = derive_timing(apparatus, packet, units)
    schedule = field_schedule(
        packet.t_prime, t, [(timing.t_b, timing.t_c, apparatus.grad_Bz)]
    )
    return SpinorField(
        packet=packet, apparatus=apparatus, timing=timing, units=units, t=t,
        kicks=kick_integrals(schedule, t, units),
    )
