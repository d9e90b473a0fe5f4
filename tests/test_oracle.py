import math
import platform
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgsim import (
    Apparatus,
    Branch,
    DomainError,
    ExtentError,
    GaussianPacket,
    Grid1D,
    GridState,
    InvalidParameterError,
    Layer,
    LayerStack,
    classical_trajectory,
    compare_analytic_oracle,
    derive_timing,
    detection_time,
    dispersion_factor,
    propagate,
    propagate_packet,
    sandwich,
    suggest_grid,
)
from sgsim.core import field_schedule


def _mean_z(state):
    """Norm-weighted <z> per component (nan for an empty component)."""
    z = state.grid.points
    out = []
    for psi in (state.psi_plus, state.psi_minus):
        w = np.abs(psi) ** 2
        total = w.sum()
        out.append(float((z * w).sum() / total) if total > 0 else math.nan)
    return out[0], out[1]


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        Grid1D(-1.0, 1.0, 300)  # not a power of two
    with pytest.raises(InvalidParameterError):
        Grid1D(-1.0, 1.0, 128)  # too small
    with pytest.raises(InvalidParameterError):
        Grid1D(1.0, -1.0, 512)
    g = Grid1D(-4.0, 4.0, 512)
    assert g.dz == pytest.approx(8.0 / 512)
    assert g.points.size == 512 and g.wavenumbers.size == 512


def test_initial_state_normalized(default_packet):
    grid = Grid1D(-20.0, 20.0, 1024)
    state = GridState.from_packet(default_packet, grid)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)
    assert state.t == default_packet.t_prime


def test_extent_error_for_small_grid(default_packet):
    grid = Grid1D(-2.0, 2.0, 256)
    with pytest.raises(ExtentError):
        GridState.from_packet(default_packet, grid)


def test_norm_conserved_per_step(default_apparatus, default_packet):
    timing = derive_timing(default_apparatus, default_packet)
    grid = Grid1D(-40.0, 40.0, 1024)
    state = GridState.from_packet(default_packet, grid)
    field = [(timing.t_b, timing.t_c, default_apparatus.grad_Bz)]
    norms = [state.norm()]
    for _ in range(40):
        state = propagate(state, field_schedule(state.t, state.t + 0.02, field))
        norms.append(state.norm())
    drifts = np.abs(np.diff(norms))
    assert np.all(drifts < 1e-12)


def test_free_case_matches_closed_form(default_packet):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    report = compare_analytic_oracle(default_packet, app, 2.0)
    assert report.err_plus < 1e-12 and report.err_minus < 1e-12
    assert report.norm_grid == pytest.approx(1.0, abs=1e-12)


def test_impulsive_regime_matches_closed_form(impulsive_apparatus, default_packet):
    t_d = detection_time(impulsive_apparatus, default_packet)
    report = compare_analytic_oracle(default_packet, impulsive_apparatus, t_d)
    assert report.err_plus < 1e-12 and report.err_minus < 1e-12
    assert abs(report.rel_phase_diff) < 1e-12


def test_region_length_sweep(default_packet):
    """Closed-form error across interaction-region lengths.

    For the abrupt step profile the potential is linear in z, the action is
    quadratic, and the split-kick kernel is exact up to branch-independent
    global phases, so the per-component error stays at rounding even
    for long regions.  The sweep documents that instead of asserting growth.
    """
    t_final = 2.0
    for dy in (0.02, 0.2, 1.0):  # transit fractions 0.1%, 1%, 5% of flight
        y_b = 5.0 - dy / 2
        grad = 2.0 / dy  # keep the total kick v_z fixed
        app = Apparatus(0.0, y_b, y_b + dy, 19.0, grad)
        rep = compare_analytic_oracle(default_packet, app, t_final)
        assert max(rep.err_plus, rep.err_minus) < 1e-12
        assert abs(rep.rel_phase_diff) < 1e-12


def test_field_segment_slicing_invariance(default_apparatus, default_packet):
    # one exact Strang step per segment: cutting the field segment into
    # pieces changes nothing but rounding, in both components and in phase
    timing = derive_timing(default_apparatus, default_packet)
    grid = Grid1D(-40.0, 40.0, 2048)
    start = GridState.from_packet(default_packet, grid)
    grad = default_apparatus.grad_Bz
    free = (start.t, timing.t_b, 0.0)
    whole = propagate(start, [free, (timing.t_b, timing.t_c, grad)])
    for pieces in (2, 3, 16):
        cuts = np.linspace(timing.t_b, timing.t_c, pieces + 1)
        sliced = propagate(start, [free, *((a, b, grad) for a, b in zip(cuts[:-1], cuts[1:]))])
        err = math.sqrt(grid.dz * float(
            np.sum(np.abs(whole.psi_plus - sliced.psi_plus) ** 2)
            + np.sum(np.abs(whole.psi_minus - sliced.psi_minus) ** 2)
        ))
        assert err <= 1e-12, pieces


def test_component_independence(default_apparatus, default_packet):
    timing = derive_timing(default_apparatus, default_packet)
    grid = Grid1D(-40.0, 40.0, 1024)
    both = GridState.from_packet(default_packet, grid)
    up_only = GridState(
        grid=grid, psi_plus=both.psi_plus, psi_minus=np.zeros_like(both.psi_minus),
        t=both.t,
    )
    schedule = field_schedule(
        both.t, both.t + 0.8, [(timing.t_b, timing.t_c, default_apparatus.grad_Bz)]
    )
    a = propagate(both, schedule)
    b = propagate(up_only, schedule)
    assert np.array_equal(a.psi_plus, b.psi_plus)


def test_ehrenfest_centroids(default_apparatus, default_packet):
    # component <z> follows the classical trajectory for mu_z = -+ mu_b
    t_final = 1.4
    grid = Grid1D(-60.0, 60.0, 4096)
    state = propagate_packet(default_packet, default_apparatus, grid, t_final)
    mean_p, mean_m = _mean_z(state)
    up = classical_trajectory(-1.0, default_apparatus, default_packet, t_final)
    down = classical_trajectory(+1.0, default_apparatus, default_packet, t_final)
    assert mean_p == pytest.approx(up.z, abs=1e-6)
    assert mean_m == pytest.approx(down.z, abs=1e-6)


def test_suggest_grid_contains_packet(default_apparatus, default_packet):
    t = 3.0
    grid = suggest_grid(default_packet, default_apparatus, t)
    state = propagate_packet(default_packet, default_apparatus, grid, t)
    grid.check_extent(state.density())  # no ExtentError
    assert grid.z_max > abs(derive_timing(default_apparatus, default_packet).v_z) * (
        t - derive_timing(default_apparatus, default_packet).t_bar
    )


def test_propagate_rejects_bad_time(default_apparatus, default_packet):
    grid = Grid1D(-40.0, 40.0, 1024)
    with pytest.raises(DomainError):
        propagate_packet(default_packet, default_apparatus, grid, 0.0)


@pytest.mark.parametrize("apparatus", ["default_apparatus", "impulsive_apparatus"])
@pytest.mark.parametrize("frac", [0.2, 0.5, 0.9])
def test_compare_inside_the_region(request, default_packet, apparatus, frac):
    # strictly between t_b and t_c: the closed form holds there too, and the
    # grid steps the same field schedule, cut at t_final
    app = request.getfixturevalue(apparatus)
    timing = derive_timing(app, default_packet)
    t = timing.t_b + frac * (timing.t_c - timing.t_b)
    rep = compare_analytic_oracle(default_packet, app, t)
    assert max(rep.err_plus, rep.err_minus) < 1e-12
    assert abs(rep.rel_phase_diff) < 1e-12


@pytest.mark.parametrize("t", [1.4, 2.6, 6.0])
def test_rel_phase_diff_between_separated_humps(default_apparatus, default_packet, t):
    # at these times both amplitudes are below rounding midway between the
    # humps, so a phase read there is noise (-3.75e-10, 1.12e-3, -0.285 rad);
    # the aligned overlaps take it from the whole humps
    grid = suggest_grid(default_packet, default_apparatus, t, 8192)
    rep = compare_analytic_oracle(default_packet, default_apparatus, t, grid)
    assert max(rep.err_plus, rep.err_minus) < 1e-11
    assert abs(rep.rel_phase_diff) < 1e-11


@pytest.mark.parametrize("chi", [(1 + 0j, 0j), (0j, 1 + 0j)])
def test_rel_phase_diff_of_a_pure_spin_is_zero(impulsive_apparatus, chi):
    # a branch with no weight has no phase to compare
    packet = GaussianPacket(chi_plus=chi[0], chi_minus=chi[1])
    rep = compare_analytic_oracle(packet, impulsive_apparatus, 1.0)
    assert rep.rel_phase_diff == 0.0
    assert max(rep.err_plus, rep.err_minus) < 1e-12


def test_split_step_parameter_validation(default_apparatus, default_packet):
    timing = derive_timing(default_apparatus, default_packet)
    t = default_packet.t_prime
    field = [(timing.t_b, timing.t_c, default_apparatus.grad_Bz)]
    with pytest.raises(DomainError):
        field_schedule(t, t - 0.1, field)
    with pytest.raises(DomainError):
        field_schedule(t, t, field)


_times = st.floats(-50.0, 50.0, allow_nan=False)


@given(
    t_start=_times,
    length=st.floats(1e-6, 50.0),
    edges=st.lists(_times, max_size=8, unique=True),
    grads=st.lists(st.sampled_from([0.0, 1.5, -2.0, 300.0]), min_size=4, max_size=4),
)
def test_field_schedule_tiles_interval(t_start, length, edges, grads):
    t_final = t_start + length
    edges = sorted(edges)
    fields = [
        (on, off, grads[i % 4])
        for i, (on, off) in enumerate(zip(edges[0::2], edges[1::2]))
    ]
    schedule = field_schedule(t_start, t_final, fields)
    assert schedule[0][0] == t_start and schedule[-1][1] == t_final
    for (_, a1, _), (b0, _, _) in zip(schedule[:-1], schedule[1:]):
        assert a1 == b0
    for t0, t1, grad in schedule:
        assert t1 > t0
        mid = 0.5 * (t0 + t1)
        holder = [(on, off, g) for on, off, g in fields if on <= mid < off]
        assert grad == (holder[0][2] if holder else 0.0)
        # no window edge falls strictly inside a segment
        assert not any(t0 < e < t1 for window in fields for e in window[:2])


def test_propagate_refuses_momentum_overflow(default_packet):
    # kick k = mu_b * 400 * 0.1 = 40 against pi/dz = 20.1 on this grid
    grid = Grid1D(-40.0, 40.0, 512)
    state = GridState.from_packet(default_packet, grid)
    schedule = field_schedule(0.0, 1.0, [(0.5, 0.6, 400.0)])
    with pytest.raises(ExtentError, match="wavenumbers"):
        propagate(state, schedule)
    # a kick that stays inside the band passes; kicks accumulate over windows
    propagate(state, field_schedule(0.0, 1.0, [(0.5, 0.6, 100.0)]))
    same = [(0.5, 0.6, 100.0), (0.7, 0.8, 100.0)]
    with pytest.raises(ExtentError, match="wavenumbers"):
        propagate(state, field_schedule(0.0, 1.0, same))
    opposed = [(0.5, 0.6, 100.0), (0.7, 0.8, -100.0)]
    propagate(state, field_schedule(0.0, 1.0, opposed))
    empty = GridState(grid, np.zeros(512, complex), np.zeros(512, complex), 0.0)
    assert propagate(empty, schedule).norm() == 0.0


def test_branch_separation_direction(default_apparatus, default_packet):
    # spin-up drifts toward -z, spin-down toward +z
    grid = Grid1D(-60.0, 60.0, 4096)
    state = propagate_packet(default_packet, default_apparatus, grid, 2.0)
    mean_p, mean_m = _mean_z(state)
    assert mean_p < -1.0 and mean_m > 1.0
    field = None
    from sgsim import evolve_packet

    field = evolve_packet(default_packet, default_apparatus, 2.0)
    assert mean_p == pytest.approx(field.branch_center(Branch.PLUS), abs=1e-6)


_FAULT_PROBE = """
import resource, sys
from sgsim import GaussianPacket, Grid1D, GridState, propagate
from sgsim.core import field_schedule

state = GridState.from_packet(GaussianPacket(), Grid1D(-80.0, 80.0, 16384))
schedule = field_schedule(0.0, 3.0, [(0.5, 0.6, 100.0)])
propagate(state, schedule)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
propagate(state, schedule)
assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the mmap threshold it guards is glibc's",
)
def test_propagate_reuses_heap_memory(fresh_python):
    # Without the allocator warm-up in propagate, every 256 KiB FFT buffer of
    # a 16384-point grid is mapped and unmapped afresh: about 2,000 minor
    # page faults per propagation of these three segments against 1 with it.
    # Run in a fresh process that has not imported scipy, whose import
    # happens to hide the problem.
    assert int(fresh_python(_FAULT_PROBE)) < 200


def test_sandwich_temporaries_fit_in_four_grid_arrays():
    # One sandwich call of the split-threshold bisection (sigma = 1, g = 8,
    # 16384 points).  Grid-sized temporaries above glibc's heap-trim
    # threshold are handed back to the OS and faulted in again on every
    # call, so the call must build its density and peak search in place:
    # under four 128 KiB grid arrays at its peak.  tracemalloc rather than
    # page faults, whose count depends on the heap's layout.
    sigma, g, t = 1.0, 8.0, 50.0
    half = 1.25 * (0.1 * g * (t - 0.55) + 8 * sigma * abs(dispersion_factor(t, sigma))) + sigma
    args = (GaussianPacket(sigma=sigma), LayerStack((Layer(5.0, 6.0, g),)), t)
    grid = Grid1D(-half, half, 16384)
    sandwich(*args, grid=grid)
    tracemalloc.start()
    try:
        sandwich(*args, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16384 * 8
