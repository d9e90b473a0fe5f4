"""Closed-form spin-dependent kernel and the entangled spinor Gaussian it produces.

Valid for evaluation times at or after the packet leaves the interaction
region; terms of order dt (transit time) and second order in the field are
dropped, exactly as in the impulsive-kick derivation.  In-region states are
the grid propagator's job (see :mod:`sgsim.oracle`).

Phase conventions: all complex square roots take the principal branch.  The
dispersion factor f(s) = 1 + i*hbar*s/(m*sigma^2) has unit real part for
s >= 0, so the principal branch is continuous along the whole time sweep.
The branch-independent phase -i*m*v_z^2*(t-tbar)*(tbar-t')/(2*hbar*(t-t'))
is omitted from the kernel; it is common to both spin branches and drops out
of every probability and relative phase.
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
)
from .errors import DomainError, InvalidParameterError


def dispersion_factor(tau: float, sigma: float, units: UnitSystem = DEFAULT_UNITS) -> complex:
    """f(tau) = 1 + i*hbar*tau/(m*sigma^2); |f| is the width-growth factor."""
    return 1.0 + 1j * units.hbar * tau / (units.mass * sigma * sigma)


@dataclass(frozen=True)
class ZKernelParams:
    """Arguments of the z-kernel: endpoint times, interaction midpoint, kick."""

    t: float
    t_prime: float
    t_bar: float
    v_z: float
    branch: Branch

    def __post_init__(self) -> None:
        if not self.t > self.t_prime:
            raise DomainError(
                f"kernel needs t > t', got t = {self.t}, t' = {self.t_prime}"
            )
        if not (self.t_prime <= self.t_bar <= self.t):
            raise DomainError(
                f"interaction midpoint t_bar = {self.t_bar} outside [t', t]"
            )


@dataclass(frozen=True)
class ZAction:
    """Value of the z part of the action along the three-segment path."""

    value: float
    branch: Branch | None


def z_action(
    z: float,
    z_c: float,
    z_b: float,
    z_prime: float,
    t: float,
    t_c: float,
    t_b: float,
    t_prime: float,
    mu_z: float,
    grad_Bz: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> ZAction:
    """Three-segment z action with the linear-in-field coupling term.

    S = (m/2)[(z-z_c)^2/(t-t_c) + (z_c-z_b)^2/(t_c-t_b) + (z_b-z')^2/(t_b-t')]
        + mu_z * dBz/dz * (t_c - t_b) * (z_c + z_b)/2,
    with the (mu_z * dBz/dz)^2 term dropped.
    """
    if not (t > t_c > t_b > t_prime):
        raise DomainError(
            f"times must satisfy t > t_c > t_b > t', got {(t, t_c, t_b, t_prime)}"
        )
    m = units.mass
    free = (
        0.5 * m * (z - z_c) ** 2 / (t - t_c)
        + 0.5 * m * (z_c - z_b) ** 2 / (t_c - t_b)
        + 0.5 * m * (z_b - z_prime) ** 2 / (t_b - t_prime)
    )
    coupling = mu_z * grad_Bz * (t_c - t_b) * 0.5 * (z_c + z_b)
    if mu_z < 0:
        branch = Branch.PLUS
    elif mu_z > 0:
        branch = Branch.MINUS
    else:
        branch = None
    return ZAction(value=free + coupling, branch=branch)


def free_kernel(
    t: float | complex,
    z,
    t_prime: float | complex,
    z_prime,
    units: UnitSystem = DEFAULT_UNITS,
):
    """1-D free-particle kernel sqrt(m/(2*pi*i*hbar*dt)) * exp(i*m*(z-z')^2/(2*hbar*dt)).

    Accepts complex times (used by quadrature oracles that damp the
    oscillatory tails); the principal square root is taken.
    """
    dt = t - t_prime
    if dt == 0:
        raise DomainError("free kernel is a delta function at t = t'")
    m, hbar = units.mass, units.hbar
    prefactor = (m / (2j * math.pi * hbar * dt)) ** 0.5
    dz = np.asarray(z) - np.asarray(z_prime)
    return prefactor * np.exp(1j * m * dz * dz / (2.0 * hbar * dt))


def sg_kernel(
    params: ZKernelParams,
    z,
    z_prime,
    units: UnitSystem = DEFAULT_UNITS,
):
    """Spin-branch z kernel: free kernel times the split-kick phase.

    K_branch = K_free * exp(s*i*(m*v_z/hbar) * [z*(tbar-t') + z'*(t-tbar)] / (t-t'))
    with s = -1 for the plus branch and +1 for the minus branch, so part of
    the momentum kick acts at entry and the rest at exit of the region.
    """
    tau = params.t - params.t_prime
    s = params.branch.deflection_sign
    m, hbar = units.mass, units.hbar
    phase = (
        s * 1j * m * params.v_z
        * (np.asarray(z) * (params.t_bar - params.t_prime)
           + np.asarray(z_prime) * (params.t - params.t_bar))
        / (hbar * tau)
    )
    return free_kernel(params.t, z, params.t_prime, z_prime, units) * np.exp(phase)


@dataclass(frozen=True)
class SpinorField:
    """Entangled two-branch Gaussian at a fixed post-interaction time.

    The closed form factorizes into x, y, and z pieces; each 1-D factor is
    unit-normalized, which makes marginals exact without quadrature.  The
    field is a lazy evaluator: call the factor methods at arbitrary points
    or sample a grid explicitly.
    """

    packet: GaussianPacket
    apparatus: Apparatus
    timing: Timing
    units: UnitSystem
    t: float

    @property
    def tau(self) -> float:
        return self.t - self.packet.t_prime

    @cached_property
    def f(self) -> complex:
        return dispersion_factor(self.tau, self.packet.sigma, self.units)

    @cached_property
    def f_bar(self) -> complex:
        """Dispersion factor at the interaction midpoint, f(tbar - t')."""
        return dispersion_factor(
            self.timing.t_bar - self.packet.t_prime, self.packet.sigma, self.units
        )

    @property
    def width(self) -> float:
        """Gaussian amplitude width sigma*|f|; the density sd is width/sqrt(2)."""
        return self.packet.sigma * abs(self.f)

    def kicked_center(self, s: float) -> float:
        """Center s * v_z * (t - tbar) of the z factor kicked by s * v_z."""
        return s * self.timing.v_z * (self.t - self.timing.t_bar)

    def branch_center(self, branch: Branch) -> float:
        """Center of the branch's z marginal: -+ v_z * (t - tbar)."""
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
        """Unit-norm z factor kicked by s * v_z, centered at kicked_center(s).

        s = -+1 gives the spin branches; the mean-field state scales the kick
        by s = <mu_z>/mu_b.  The s*s term is the constant companion of the
        kick; its real part keeps the factor normalized.
        """
        sigma = self.packet.sigma
        hbar, m = self.units.hbar, self.units.mass
        v_z = self.timing.v_z
        z = np.asarray(z)
        drift = self.t - self.timing.t_bar
        return self._norm_1d() * np.exp(
            -z * z / (2.0 * sigma * sigma * self.f)
            + s * 1j * m * v_z * self.f_bar * z / (hbar * self.f)
            - s * s * 1j * m * v_z * v_z * drift * drift / (2.0 * hbar * self.tau * self.f)
        )

    def overlap(self, s1: float, s2: float) -> complex:
        """<z_factor(s1)|z_factor(s2)> in closed form.

        Write the z_factor exponent as -a*z^2 + s*b*z + s^2*c.  The Gaussian
        integral is |N|^2 * sqrt(pi/A) * exp(B^2/(4A) + C) with A = 2*Re(a)
        = 1/width^2, B = s1*conj(b) + s2*b and C = s1^2*conj(c) + s2^2*c.
        The factor has unit norm for every s, so the prefactor is 1 and
        q = b^2/(4A) + c has Re(q) = -|b|^2/(4A); the exponent is then
        -(s1 - s2)^2 * |b|^2/(4A) + i*(s2^2 - s1^2)*Im(q), which keeps the
        large terms of B^2/(4A) and C from cancelling in floating point.
        """
        hbar, m = self.units.hbar, self.units.mass
        v_z = self.timing.v_z
        drift = self.t - self.timing.t_bar
        b = 1j * m * v_z * self.f_bar / (hbar * self.f)
        c = -1j * m * v_z * v_z * drift * drift / (2.0 * hbar * self.tau * self.f)
        quarter_w2 = self.width ** 2 / 4.0
        q = b * b * quarter_w2 + c
        return cmath.exp(
            -(s1 - s2) ** 2 * abs(b) ** 2 * quarter_w2 + 1j * (s2 * s2 - s1 * s1) * q.imag
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
    """Closed-form entangled field at a post-interaction time t >= t_c."""
    if not math.isfinite(t):
        raise InvalidParameterError(f"evaluation time must be finite, got {t}")
    timing = derive_timing(apparatus, packet, units)
    if t < timing.t_c:
        raise DomainError(
            f"closed form is valid only for t >= t_c = {timing.t_c}; use the "
            "grid propagator (sgsim.oracle) for in-region times"
        )
    return SpinorField(packet=packet, apparatus=apparatus, timing=timing, units=units, t=t)
