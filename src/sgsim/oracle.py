"""Independent grid propagator: 1-D two-component split-step Fourier evolution.

This realizes the time-slicing limit of the propagator construction
numerically and is the independent check of the closed form of
:mod:`sgsim.analytic`, in and after the field regions.  Only the z axis is
evolved: the potential is diagonal in spin and independent of x and y, so
those directions factor out exactly.

Scheme: Strang splitting, exp(-i*V*dt/2) F^-1 exp(-i*T*dt) F exp(-i*V*dt/2)
per component, with V_plus = +mu_b*B'*z and V_minus = -mu_b*B'*z while the
packet center is inside a field window and zero otherwise (the spin-up
branch feels a force toward -z).  The kinetic step is exact on the grid and
unitary; the potential step is a pure phase, so the norm is conserved to
rounding.  ``core.field_schedule`` cuts the time axis at every window edge,
so the abrupt field never needs sub-step blending, and ``propagate`` is the
one loop that steps a state through such a schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import dispersion_factor, evolve_packet
from .core import (
    Apparatus,
    Branch,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    derive_timing,
    field_schedule,
)
from .errors import DomainError, ExtentError, InvalidParameterError

_EDGE_TOL = 1e-10  # max tolerated relative density at the grid boundary
_FREE_STEPS = 16  # Strang steps per free segment (the kinetic step is exact there)


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
        return self.z_min + self.dz * np.arange(self.n_points)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, self.dz)


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
        state.check_extent()
        return state

    def density(self) -> np.ndarray:
        return np.abs(self.psi_plus) ** 2 + np.abs(self.psi_minus) ** 2

    def norm(self) -> float:
        return float(self.grid.dz * self.density().sum())

    def check_extent(self) -> None:
        rho = self.density()
        peak = float(rho.max())
        if peak == 0.0:
            return
        edge = max(float(rho[0]), float(rho[-1]))
        if edge > _EDGE_TOL * peak:
            raise ExtentError(
                f"wave function touches the grid boundary (edge/peak = {edge / peak:.3e}); "
                "enlarge the grid extent"
            )

    def mean_z(self) -> tuple[float, float]:
        """Norm-weighted <z> per component (nan for an empty component)."""
        z = self.grid.points
        out = []
        for psi in (self.psi_plus, self.psi_minus):
            w = np.abs(psi) ** 2
            total = w.sum()
            out.append(float((z * w).sum() / total) if total > 0 else math.nan)
        return out[0], out[1]


def _strang(
    psi_p: np.ndarray,
    psi_m: np.ndarray,
    grid: Grid1D,
    grad_Bz: float,
    dt: float,
    n_steps: int,
    units: UnitSystem,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve both components for n_steps of size dt under a constant gradient."""
    k = grid.wavenumbers
    kinetic = np.exp(-1j * units.hbar * k * k * dt / (2.0 * units.mass))
    # V_plus = +mu_b*B'*z, V_minus = -mu_b*B'*z
    v = units.mu_b * grad_Bz * grid.points
    half_p = np.exp(-1j * v * dt / (2.0 * units.hbar))
    half_m = np.conj(half_p)
    for _ in range(n_steps):
        psi_p = half_p * np.fft.ifft(kinetic * np.fft.fft(half_p * psi_p))
        psi_m = half_m * np.fft.ifft(kinetic * np.fft.fft(half_m * psi_m))
    return psi_p, psi_m


def propagate(
    state: GridState,
    schedule: list[tuple[float, float, float]],
    n_field_steps: int,
    units: UnitSystem = DEFAULT_UNITS,
) -> GridState:
    """Step the state through the (t0, t1, grad) segments of ``schedule``,
    which starts at ``state.t``: n_field_steps Strang steps per field segment,
    _FREE_STEPS per free one.

    Raises ExtentError when the grid cannot hold the state, in momentum
    before stepping (the largest held |k| plus the largest accumulated kick
    reaches pi/dz) or in position afterwards.
    """
    if n_field_steps < 1:
        raise InvalidParameterError(f"n_field_steps must be >= 1, got {n_field_steps}")
    grid = state.grid
    psi_p = np.array(state.psi_plus, dtype=complex)
    psi_m = np.array(state.psi_minus, dtype=complex)
    spectrum = np.abs(np.fft.fft(psi_p)) ** 2 + np.abs(np.fft.fft(psi_m)) ** 2
    peak = float(spectrum.max())
    if peak > 0.0:
        k_held = float(np.abs(grid.wavenumbers[spectrum > _EDGE_TOL * peak]).max())
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
    np.empty(min(16 * psi_p.nbytes, 16 << 20), dtype=np.uint8)
    for t0, t1, grad in schedule:
        n = n_field_steps if grad != 0.0 else _FREE_STEPS
        psi_p, psi_m = _strang(psi_p, psi_m, grid, grad, (t1 - t0) / n, n, units)
    t = schedule[-1][1] if schedule else state.t
    out = GridState(grid=grid, psi_plus=psi_p, psi_minus=psi_m, t=t)
    out.check_extent()
    return out


def propagate_packet(
    packet: GaussianPacket,
    apparatus: Apparatus,
    grid: Grid1D,
    t_final: float,
    units: UnitSystem = DEFAULT_UNITS,
    n_field_steps: int = 256,
) -> GridState:
    """Evolve the packet's z factor from emission to t_final on the grid,
    with the field on between t_b and t_c."""
    timing = derive_timing(apparatus, packet, units)
    schedule = field_schedule(
        packet.t_prime, t_final, [(timing.t_b, timing.t_c, apparatus.grad_Bz)]
    )
    state = GridState.from_packet(packet, grid, units)
    return propagate(state, schedule, n_field_steps, units)


def suggest_grid(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t_final: float,
    n_points: int = 4096,
    units: UnitSystem = DEFAULT_UNITS,
) -> Grid1D:
    """Symmetric grid covering the branch drift plus 8 final widths of margin."""
    timing = derive_timing(apparatus, packet, units)
    f = dispersion_factor(t_final - packet.t_prime, packet.sigma, units)
    drift = abs(timing.v_z) * max(t_final - timing.t_bar, 0.0)
    half = 1.25 * (drift + 8.0 * packet.sigma * abs(f))
    return Grid1D(z_min=-half, z_max=half, n_points=n_points)


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


def _aligned_l2_error(psi: np.ndarray, target: np.ndarray, dz: float) -> float:
    """Relative L2 distance after removing the global phase of best overlap."""
    norm_t = math.sqrt(float(np.sum(np.abs(target) ** 2)) * dz)
    overlap = complex(np.vdot(target, psi) * dz)
    if norm_t < 1e-12 or abs(overlap) == 0.0:
        return math.sqrt(float(np.sum(np.abs(psi - target) ** 2)) * dz)
    phase = overlap / abs(overlap)
    diff = psi - phase * target
    return math.sqrt(float(np.sum(np.abs(diff) ** 2)) * dz) / norm_t


def compare_analytic_oracle(
    packet: GaussianPacket,
    apparatus: Apparatus,
    t_final: float,
    grid: Grid1D | None = None,
    units: UnitSystem = DEFAULT_UNITS,
    n_field_steps: int = 256,
) -> OracleComparison:
    """Grid-propagate the packet and compare with the closed-form z marginals.

    Errors are relative L2 per spin component with the global phase aligned;
    rel_phase_diff is the inter-branch phase mismatch at the midpoint between
    the two humps (physical, so no alignment is applied there).
    """
    timing = derive_timing(apparatus, packet, units)
    if t_final <= timing.t_c:
        raise DomainError(f"t_final must exceed t_c = {timing.t_c}")
    if grid is None:
        grid = suggest_grid(packet, apparatus, t_final, units=units)
    state = propagate_packet(packet, apparatus, grid, t_final, units, n_field_steps)
    field = evolve_packet(packet, apparatus, t_final, units)
    z = grid.points
    target_p = packet.chi_plus * field.z_marginal_amplitude(Branch.PLUS, z)
    target_m = packet.chi_minus * field.z_marginal_amplitude(Branch.MINUS, z)
    err_p = _aligned_l2_error(state.psi_plus, target_p, grid.dz)
    err_m = _aligned_l2_error(state.psi_minus, target_m, grid.dz)

    mid = 0.5 * (field.branch_center(Branch.PLUS) + field.branch_center(Branch.MINUS))
    idx = int(np.argmin(np.abs(z - mid)))
    cross_grid = state.psi_plus[idx] * np.conj(state.psi_minus[idx])
    cross_analytic = target_p[idx] * np.conj(target_m[idx])
    if abs(cross_grid) > 0 and abs(cross_analytic) > 0:
        raw = np.angle(cross_grid) - np.angle(cross_analytic)
        phase_diff = float((raw + math.pi) % (2.0 * math.pi) - math.pi)
    else:
        phase_diff = math.nan
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
