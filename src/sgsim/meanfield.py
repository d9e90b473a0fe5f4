"""Disentangled mean-field ansatz: a single Gaussian steered by <mu_z>.

Forcing psi = phi(t, x) * chi(t) and coupling space and spin only through the
averages <mu> and <B> turns the two-humped entangled solution into one
Gaussian centered at z = (<mu_z>/mu_b) * q, with q the kick integral of the
field schedule: the closed form's z factor (``SpinorField.z_factor``) with
the kick scaled by <mu_z>/mu_b.
Averaged over an isotropic spin ensemble this recreates the flat classical
distribution, smoothed by the packet width.

<mu_z> is frozen at its initial value (to lowest order in B the spin part is
constant); no self-consistent iteration is performed.  The state is the
same kicked factor at any time after emission, inside the field region or
after it.  The width convention
for the smoothing Gaussian is sd = sigma*|f|/sqrt(2), i.e. the standard
deviation of the single-packet probability density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import SpinorField, _erf, _erfc, evolve_packet
from .classical import Histogram, chunked_samples
from .core import Apparatus, DEFAULT_UNITS, GaussianPacket, UnitSystem
from .errors import InvalidParameterError


def spin_moment_average(
    chi_plus: complex, chi_minus: complex, units: UnitSystem = DEFAULT_UNITS
) -> np.ndarray:
    """<mu_vec> = -mu_b * <chi| sigma_vec |chi> for a normalized spinor."""
    cp, cm = complex(chi_plus), complex(chi_minus)
    sx = 2.0 * (np.conj(cp) * cm).real
    sy = 2.0 * (np.conj(cp) * cm).imag
    sz = abs(cp) ** 2 - abs(cm) ** 2
    return -units.mu_b * np.array([sx, sy, sz])


@dataclass(frozen=True)
class MeanFieldState:
    """Single-Gaussian field for a fixed spin orientation at any time t after
    emission: the closed form's z factor with the kick scaled by <mu_z>/mu_b.

    Callable: ``state(x, y, z)`` returns the complex amplitude phi.
    """

    mu_z_avg: float
    field: SpinorField

    def __post_init__(self) -> None:
        mu_b = self.field.units.mu_b
        if abs(self.mu_z_avg) > mu_b * (1.0 + 1e-12):
            raise InvalidParameterError(
                f"|<mu_z>| = {abs(self.mu_z_avg)} exceeds mu_b = {mu_b}"
            )

    @property
    def center_z(self) -> float:
        """(<mu_z>/mu_b) * q: the classical path of the moment <mu_z>."""
        return self.field.kicked_center(self.mu_z_avg / self.field.units.mu_b)

    def __call__(self, x, y, z):
        """Complex amplitude phi(t, x, y, z) of the disentangled spatial part."""
        fld = self.field
        return (
            fld.x_factor(x)
            * fld.y_factor(y)
            * fld.z_factor(self.mu_z_avg / fld.units.mu_b, z)
        )

    def z_density(self, z):
        """Unimodal z marginal: the one z density formula,
        ``SpinorField.branch_density`` at s = <mu_z>/mu_b, a Gaussian of sd
        width/sqrt(2) at center_z."""
        return self.field.branch_density(self.mu_z_avg / self.field.units.mu_b, z)


def meanfield_evolve(
    beta: float,
    packet: GaussianPacket,
    apparatus: Apparatus,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> MeanFieldState:
    """Mean-field Gaussian for polar spin angle beta, <mu_z> = -mu_b*cos(beta)."""
    if not math.isfinite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta}")
    return MeanFieldState(
        mu_z_avg=-units.mu_b * math.cos(beta),
        field=evolve_packet(packet, apparatus, t, units),
    )


def meanfield_ensemble(
    n: int,
    seed: int,
    packet: GaussianPacket,
    apparatus: Apparatus,
    t: float,
    bins: int | np.ndarray = 60,
    units: UnitSystem = DEFAULT_UNITS,
) -> Histogram:
    """Histogram of detector draws over isotropic spin orientations.

    Each sample draws cos(beta) uniform on [-1, 1] and one z from the
    corresponding mean-field Gaussian.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise InvalidParameterError(f"ensemble size must be >= 1, got {n}")
    fld = evolve_packet(packet, apparatus, t, units)
    span = abs(fld.kicked_center(1.0))
    sd = fld.width / math.sqrt(2.0)

    def sampler(rng, size):
        # <mu_z>/mu_b = -cos(beta), with cos(beta) uniform on [-1, 1]
        return rng.normal(fld.kicked_center(-rng.uniform(-1.0, 1.0, size)), sd)

    samples = chunked_samples(n, seed, sampler)
    if np.isscalar(bins):
        edges = np.linspace(-(span + 5.0 * sd), span + 5.0 * sd, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=float)
    return Histogram.from_samples(samples, edges)


def meanfield_ensemble_density(z, span: float, sd: float):
    """Closed-form ensemble density: flat on [-span, span] convolved with a
    Gaussian of standard deviation sd.

    p(z) = (1/(2*span)) * [Phi((z+span)/sd) - Phi((z-span)/sd)] with Phi the
    standard normal CDF; reduces to the bare Gaussian as span -> 0.
    """
    z = np.asarray(z, dtype=float)
    if span <= 1e-8 * sd:
        # bare-Gaussian limit; the erf difference below would cancel badly
        return np.exp(-z * z / (2.0 * sd * sd)) / (math.sqrt(2.0 * math.pi) * sd)
    # p is even in z.  Outside the span, where erf(a) - erf(b) subtracts two
    # values near 1, take erfc(b) - erfc(a) of the same arguments instead.
    a = (np.abs(z) + span) / (sd * math.sqrt(2.0))
    b = (np.abs(z) - span) / (sd * math.sqrt(2.0))
    diff = np.where(b > 0.0, _erfc(b) - _erfc(a), _erf(a) - _erf(b))
    # the ufuncs give Python floats (a bare one for 0-d input); back to floats
    return np.asarray(diff, dtype=float) / (4.0 * span)
