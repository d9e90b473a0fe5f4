"""The path-integral derivation of the closed form, kept as test references.

The three-segment z action, the free kernel and the spin-branch kernel are
the impulsive-kick derivation of the paper.  ``sgsim.analytic`` no longer
uses them: its closed form is exact on any field schedule.  The tests
compose these kernels with the initial packet as an independent check of
that form after the field region.

The kernel omits two phase factors that the closed form keeps, both common
to the two spin branches: exp(-i*m*v_z^2*(t - tbar)*(tbar - t')/(2*hbar*(t - t'))),
the drift phase, and exp(i*m*v_z^2*dt/(12*hbar)), which comes with the
(mu_z * dBz/dz)^2 term the action drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sgsim.core import Branch, DEFAULT_UNITS, UnitSystem
from sgsim.errors import DomainError


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
