"""Disentangled mean-field ansatz: a single Gaussian steered by <mu_z>.

Forcing psi = phi(t, x) * chi(t) and coupling space and spin only through the
averages <mu> and <B> turns the two-humped entangled solution into one
Gaussian centered at z = (<mu_z>/mu_b) * q, with q the kick integral of the
field schedule: the closed form's z factor (``SpinorField.z_factor``) with
the kick scaled by <mu_z>/mu_b.
Averaged over an isotropic spin ensemble this recreates the flat classical
distribution, smoothed by the packet width.  The histogram of n such spins is
Multinomial(n, p) over that distribution's exact bin masses p
(``meanfield_ensemble_mass``) and the mass outside the edges, drawn as one
multinomial draw (``Histogram.draw``).

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

from .analytic import SpinorField, _erf, _erfc, _even_bin_mass, evolve_packet
# chunked_samples is not called here: the benchmark's tracer wraps it (ROADMAP open item 1)
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
    bins: int = 60,
    units: UnitSystem = DEFAULT_UNITS,
) -> Histogram:
    """Histogram of detector positions over n isotropic spin orientations in
    ``bins`` equal bins over [-(span + 5 sd), span + 5 sd]: one multinomial
    draw over ``meanfield_ensemble_mass``.

    A spin of polar angle beta lands in the mean-field Gaussian centered at
    -cos(beta) times the kick, with cos(beta) uniform on [-1, 1], so the
    ensemble density is ``meanfield_ensemble_density``.  Deterministic for a
    fixed seed.  Draws outside the edges are not binned, so n_total may be
    below n.
    """
    fld = evolve_packet(packet, apparatus, t, units)
    span = abs(fld.kicked_center(1.0))
    sd = fld.width / math.sqrt(2.0)
    edges = np.linspace(-(span + 5.0 * sd), span + 5.0 * sd, bins + 1)
    return Histogram.draw(n, seed, edges, *meanfield_ensemble_mass(edges, span, sd))


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


def _phi(x):
    """Standard normal density; |x| is capped where it is 0 anyway, so that
    x*x cannot overflow."""
    x = np.minimum(np.abs(x), 40.0)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def meanfield_ensemble_mass(edges, span: float, sd: float) -> tuple[np.ndarray, float]:
    """Exact masses of ``meanfield_ensemble_density`` between consecutive
    ascending edges, and its mass outside the edges.

    The density's CDF is (sd/(2*span))*[G((z+span)/sd) - G((z-span)/sd)],
    with G(x) = x*Phi(x) + phi(x) the antiderivative of Phi.  At each edge,
    with b = (|z| - span)/sd and c = (|z| + span)/sd, the mass outside
    [-|z|, |z|] is (sd/span)*[G(-b) - G(-c)] beyond the span (b > 0), with
    G(-x) = phi(x) - x*Phi(-x) and Phi(-x) from erfc, so that the tails keep
    their relative precision (to about x^4 ulp, as phi(x)'s exponent rounds
    and G(-x) cancels to phi(x)/x^2), and the mass inside is
    (sd/(2*span))*[H(c) - H(b)] within it, with H(x) = G(x) + G(-x) =
    x*erf(x/sqrt(2)) + 2*phi(x): the erfc/erf split of the density.  Reduces
    to the bare Gaussian's erfc and erf as span -> 0.
    """
    z = np.asarray(edges, dtype=float)
    a = np.abs(z)
    if span <= 1e-8 * sd:  # the bare-Gaussian limit, as in the density
        x = a / (sd * math.sqrt(2.0))
        tail = np.asarray(_erfc(x), dtype=float)
        core = np.asarray(_erf(x), dtype=float)
    else:
        b = (a - span) / sd
        c = (a + span) / sd

        def g_minus(x):  # G(-x)
            return _phi(x) - 0.5 * x * np.asarray(_erfc(x / math.sqrt(2.0)), dtype=float)

        def h(x):
            return x * np.asarray(_erf(x / math.sqrt(2.0)), dtype=float) + 2.0 * _phi(x)

        beyond = b > 0.0
        outside = (sd / span) * (g_minus(b) - g_minus(c))
        inside = (sd / (2.0 * span)) * (h(c) - h(b))
        tail = np.where(beyond, outside, 1.0 - inside)
        core = np.where(beyond, 1.0 - outside, inside)
    # the points -inf and +inf, with nothing outside and everything inside,
    # make the masses below and above the edges the first and last "bins"
    mass = _even_bin_mass(
        np.concatenate(([-np.inf], z, [np.inf])),
        np.concatenate(([0.0], tail, [0.0])),
        np.concatenate(([1.0], core, [1.0])),
    )
    return mass[1:-1], float(mass[0] + mass[-1])
