"""Independent grid propagator: 1-D two-component split-step Fourier evolution.

This is the independent check of the closed form of :mod:`sgsim.analytic`,
in and after the field regions, computed on a grid in Fourier space.  Only
the z axis is evolved: the potential is diagonal in spin and independent of
x and y, so those directions factor out exactly.

Scheme: one Strang step, exp(-i*V*dt/2) F^-1 exp(-i*T*dt) F exp(-i*V*dt/2)
per component and per constant-gradient segment of length dt, with
V_plus = +mu_b*B'*z and V_minus = -mu_b*B'*z while the packet center is
inside a field window and zero otherwise (the spin-up branch feels a force
toward -z).  For a potential linear in z that step is exact up to a phase
common to both spins, exp(i*(mu_b*B'*dt)^2*dt/(24*m*hbar)), and ``propagate``
takes that phase out; so the oracle has no step size, and its only errors
are the grid's aliasing and sampling, which the edge tests bound.  The
slicing-dependent check of the closed form is the path-integral kernel in
``tests/path_integral.py``.  The kinetic step is exact on the grid and
unitary; the potential step is a pure phase, so the norm is conserved to
rounding.  ``core.field_schedule`` cuts the time axis at every window edge,
so the abrupt field never needs sub-step blending, and ``propagate`` is the
one loop that steps a state through such a schedule.  The grid, its sizer
and its position edge test are the closed form's (``analytic.Grid1D``,
``analytic.suggest_grid``); the spectral-edge test reuses their tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analytic import EDGE_TOL, Grid1D, evolve_packet, suggest_grid
from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    apparatus_schedule,
)
from .errors import ExtentError, InvalidParameterError


@dataclass(frozen=True)
class GridState:
    """Sampled two-component wave function on a grid at time t."""

    grid: Grid1D
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    t: float

    def __post_init__(self) -> None:
        for psi in (self.psi_plus, self.psi_minus):
            if np.asarray(psi).shape != (self.grid.n_points,):
                raise InvalidParameterError("component shape does not match grid")

    @classmethod
    def from_packet(
        cls,
        packet: GaussianPacket,
        grid: Grid1D,
        units: UnitSystem = DEFAULT_UNITS,
    ) -> "GridState":
        """z factor of the initial packet at emission time, spinor weights included."""
        z = grid.points
        envelope = (math.pi * packet.sigma**2) ** -0.25 * np.exp(
            -z * z / (2.0 * packet.sigma**2)
        )
        state = cls(
            grid=grid,
            psi_plus=packet.chi_plus * envelope,
            psi_minus=packet.chi_minus * envelope,
            t=packet.t_prime,
        )
        grid.check_extent(state.density())
        return state

    def density(self) -> np.ndarray:
        return np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2

    def norm(self) -> float:
        return float(self.grid.dz * self.density().sum())


def propagate(
    state: GridState,
    schedule: list[tuple[float, float, float]],
    units: UnitSystem = DEFAULT_UNITS,
) -> GridState:
    """Step the state through the (t0, t1, grad) segments of ``schedule``,
    which starts at ``state.t``: one exact Strang step per segment.

    Raises ExtentError when the grid cannot hold the state, in momentum
    before stepping (the largest held |k| plus the largest accumulated kick
    reaches pi/dz) or in position afterwards.
    """
    grid = state.grid
    psi_p = np.array(state.psi_plus, dtype=complex)
    psi_m = np.array(state.psi_minus, dtype=complex)
    spectrum = np.abs(np.fft.fft(psi_p)) ** 2 + np.abs(np.fft.fft(psi_m)) ** 2
    peak = float(spectrum.max())
    if peak > 0.0:
        k_held = float(np.abs(grid.wavenumbers[spectrum > EDGE_TOL * peak]).max())
        kicks = np.cumsum([units.mu_b * g * (t1 - t0) / units.hbar
                           for t0, t1, g in schedule])
        k_reach = k_held + float(np.abs(kicks).max(initial=0.0))
        if k_reach >= math.pi / grid.dz:
            raise ExtentError(
                f"state needs wavenumbers up to {k_reach:.4g} but the grid holds "
                f"{math.pi / grid.dz:.4g}; refine the grid"
            )
    # Every FFT and array temporary of the loop below is freshly allocated.
    # glibc maps a block above its mmap threshold (128 KiB at start) and
    # unmaps it on free, so each step would fault all its pages in again.
    # Freeing one block larger than the state raises that threshold to the
    # block's size, and the steps reuse heap memory.  The block stays under
    # 32 MiB, glibc's cap: a larger one would leave the threshold where it is.
    # At 16384 points and three segments that saves about 2,000 minor page
    # faults, a third of the propagation's time.
    np.empty(min(16 * psi_p.nbytes, 16 << 20), dtype=np.uint8)
    k2 = grid.wavenumbers ** 2
    for t0, t1, grad in schedule:
        dt = t1 - t0
        # V_plus = +F*z and V_minus = -F*z with F = mu_b*B'.  [V, [V, T]] is
        # the c-number -F^2*hbar^2/m and [T, [T, V]] = 0, so the BCH series of
        # the Strang step ends in one phase common to both spins; it is taken
        # out here, and (F*dt)^2 is formed first so that it stays finite
        # wherever the kick F*dt/hbar fits on the grid.
        kick = units.mu_b * grad * dt
        defect = kick * kick * dt / (24.0 * units.mass * units.hbar)
        kinetic = np.exp(-1j * (units.hbar * dt / (2.0 * units.mass) * k2 + defect))
        half_p = np.exp(-0.5j * kick / units.hbar * grid.points)
        half_m = np.conj(half_p)
        psi_p = half_p * np.fft.ifft(kinetic * np.fft.fft(half_p * psi_p))
        psi_m = half_m * np.fft.ifft(kinetic * np.fft.fft(half_m * psi_m))
    t = schedule[-1][1] if schedule else state.t
    out = GridState(grid=grid, psi_plus=psi_p, psi_minus=psi_m, t=t)
    grid.check_extent(out.density())
    return out


def propagate_packet(
    packet: GaussianPacket,
    apparatus: Apparatus,
    grid: Grid1D,
    t_final: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> GridState:
    """Evolve the packet's z factor from emission to t_final on the grid,
    with the field on between t_b and t_c."""
    state = GridState.from_packet(packet, grid, units)
    return propagate(state, apparatus_schedule(apparatus, packet, t_final, units), units)


@dataclass(frozen=True)
class OracleComparison:
    """Per-component L2 error of the closed form against the grid propagator;
    ``state`` is the propagated grid state the errors were measured on."""

    err_plus: float
    err_minus: float
    rel_phase_diff: float
    norm_grid: float
    norm_analytic: float
    t_final: float
    n_points: int
    state: GridState

    def to_json_dict(self) -> dict:
        return {
            "err_plus": self.err_plus,
            "err_minus": self.err_minus,
            "rel_phase_diff": self.rel_phase_diff,
            "norm_grid": self.norm_grid,
            "norm_analytic": self.norm_analytic,
            "t_final": self.t_final,
            "n_points": self.n_points,
        }


def _aligned_l2_error(
    psi: np.ndarray, target: np.ndarray, dz: float
) -> tuple[float, complex]:
    """Relative L2 distance after removing the global phase of best overlap,
    and that overlap <target|psi>."""
    norm_t = math.sqrt(float(np.sum(np.abs(target) ** 2)) * dz)
    overlap = complex(np.vdot(target, psi) * dz)
    if norm_t < 1e-12 or abs(overlap) == 0.0:
        return math.sqrt(float(np.sum(np.abs(psi - target) ** 2)) * dz), overlap
    phase = overlap / abs(overlap)
    diff = psi - phase * target
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * dz) / norm_t, overlap


def compare_analytic_oracle(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t_final: float,
    grid: Grid1D | None = None,
    units: UnitSystem = DEFAULT_UNITS,
) -> OracleComparison:
    """Grid-propagate the packet and compare with the closed-form z marginals
    at any time t_final after emission, inside the field region or after it.

    Errors are relative L2 per spin component with the global phase aligned.
    rel_phase_diff is the inter-branch phase mismatch, arg<target+|psi+> -
    arg<target-|psi->, wrapped to (-pi, pi]; it is defined however far apart
    the humps are.  A branch with no weight (a zero overlap) has no phase, and
    rel_phase_diff is then 0.
    """
    if grid is None:
        grid = suggest_grid(packet, apparatus, t_final, units=units)
    state = propagate_packet(packet, apparatus, grid, t_final, units)
    field = evolve_packet(packet, apparatus, t_final, units)
    z = grid.points
    target_p = packet.chi_plus * field.z_factor(Branch.PLUS.deflection_sign, z)
    target_m = packet.chi_minus * field.z_factor(Branch.MINUS.deflection_sign, z)
    err_p, overlap_p = _aligned_l2_error(state.psi_plus, target_p, grid.dz)
    err_m, overlap_m = _aligned_l2_error(state.psi_minus, target_m, grid.dz)
    phase_diff = 0.0
    if overlap_p != 0 and overlap_m != 0:
        raw = cmath.phase(overlap_p) - cmath.phase(overlap_m)
        phase_diff = math.pi - (math.pi - raw) % (2.0 * math.pi)
    analytic_norm = float(
        np.sum(np.abs(target_p) ** 2 + np.abs(target_m) ** 2) * grid.dz
    )
    return OracleComparison(
        err_plus=err_p,
        err_minus=err_m,
        rel_phase_diff=phase_diff,
        norm_grid=state.norm(),
        norm_analytic=analytic_norm,
        t_final=t_final,
        n_points=grid.n_points,
        state=state,
    )
