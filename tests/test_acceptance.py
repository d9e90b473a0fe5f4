"""End-to-end acceptance checks, one per headline claim.

Each test prints a single pass/fail line with the measured quantity so the
whole gate can be audited from the pytest output (run with -s or look at
captured stdout on failure).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chi2

from sgsim import (
    Apparatus,
    Branch,
    GaussianPacket,
    Grid1D,
    GridState,
    Layer,
    LayerStack,
    backtrack_collapse,
    classical_ensemble,
    coherence_norm,
    compare_analytic_oracle,
    density_sweep,
    derive_timing,
    detect_bimodality,
    detection_time,
    dispersion_factor,
    evolve_packet,
    meanfield_ensemble,
    meanfield_ensemble_density,
    propagate,
    recombine,
    sandwich,
)
from sgsim.core import field_schedule

APP = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
PACKET = GaussianPacket()


def _report(idx: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {idx}: {label} ({detail})")
    return ok


def test_acceptance_1_classical_flatness():
    n, bins = 1_000_000, 40
    start = time.time()
    hist = classical_ensemble(n, 42, APP, PACKET, bins)
    elapsed = time.time() - start
    p = 1.0 / bins
    se = math.sqrt(p * (1 - p) / n)
    dev = np.max(np.abs(np.asarray(hist.frequencies[1:-1]) - p)) / se
    ok = dev < 5.0 and elapsed < 5.0
    assert _report(
        1, "classical flatness", ok,
        f"max interior deviation {dev:.2f} se, {elapsed:.2f} s"
    )


def test_acceptance_2_two_humped_quantization():
    timing = derive_timing(APP, PACKET)
    t = timing.t_c + 5.0
    start = time.time()
    field = evolve_packet(PACKET, APP, t)
    expected = timing.v_z * (t - timing.t_bar)
    z = np.linspace(-1.5 * expected, 1.5 * expected, 4096)
    cell = z[1] - z[0]
    rep = detect_bimodality(field.z_marginal_density(z), z)
    elapsed = time.time() - start
    ok = (
        rep.peak_count == 2
        and abs(rep.peak_positions[0] + expected) <= cell
        and abs(rep.peak_positions[1] - expected) <= cell
        and elapsed < 1.0
    )
    assert _report(
        2, "two-humped quantization", ok,
        f"peaks {rep.peak_positions} vs -+{expected:.3g}, cell {cell:.3g}"
    )


def test_acceptance_3_oracle_equivalence():
    start = time.time()
    impulsive = Apparatus(0.0, 4.975, 5.025, 10.0, 200.0)  # transit 0.5% of flight
    rep_imp = compare_analytic_oracle(
        PACKET, impulsive, detection_time(impulsive, PACKET)
    )
    free = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    rep_free = compare_analytic_oracle(PACKET, free, 2.0)
    elapsed = time.time() - start
    err_imp = max(rep_imp.err_plus, rep_imp.err_minus)
    err_free = max(rep_free.err_plus, rep_free.err_minus)
    ok = (
        err_imp < 1e-3
        and err_free < 1e-6
        and rep_imp.n_points == 4096
        and elapsed < 30.0
    )
    assert _report(
        3, "oracle equivalence", ok,
        f"impulsive {err_imp:.2e}, free {err_free:.2e}, {elapsed:.2f} s"
    )


def test_acceptance_4_trace_identity():
    field = evolve_packet(PACKET, APP, 3.0)
    z_values = np.linspace(-40.0, 40.0, 1000)
    a = np.trace(density_sweep(field, z_values, "collapse_free"), axis1=1, axis2=2).real
    b = np.trace(density_sweep(field, z_values, "collapsed"), axis1=1, axis2=2).real
    worst = float(np.max(np.abs(a - b)))
    ok = worst == 0.0
    assert _report(4, "trace identity", ok, f"max trace difference {worst:.1e} at 1000 z")


def test_acceptance_5_coherence_decay():
    timing = derive_timing(APP, PACKET)
    weight = abs(PACKET.chi_plus * PACKET.chi_minus)

    def time_at(s):
        return brentq(
            lambda t: timing.v_z * (t - timing.t_bar)
            - s * PACKET.sigma * abs(dispersion_factor(t, PACKET.sigma)),
            timing.t_c, 1e4,
        )

    values = [coherence_norm(evolve_packet(PACKET, APP, time_at(s))) for s in (1, 2, 4, 8)]
    # s = 0 needs the impulsive limit: vanishing region, evaluated at exit
    tiny = Apparatus(0.0, 4.9995, 5.0005, 26.0, 10.0)
    v0 = coherence_norm(evolve_packet(PACKET, tiny, derive_timing(tiny, PACKET).t_c))
    seq = [v0] + values
    ok = (
        all(a > b for a, b in zip(seq, seq[1:]))
        and values[-1] < 1e-3
        and abs(v0 - weight) < 1e-6
    )
    assert _report(
        5, "coherence decay", ok,
        f"s=0 {v0:.6f} (target {weight:.6f}), s=8 {values[-1]:.1e}"
    )


def test_acceptance_6_meanfield_classical_recovery():
    # choose t so the branch span v_z*(t - tbar) is 20 final widths; the
    # asymptotic ratio is v_z*m*sigma/hbar, so this needs a kick above 20
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 300.0)  # v_z = 30
    timing = derive_timing(app, PACKET)
    t = brentq(
        lambda tt: timing.v_z * (tt - timing.t_bar)
        - 20.0 * PACKET.sigma * abs(dispersion_factor(tt, PACKET.sigma)),
        timing.t_c, 1e4,
    )
    n, bins = 1_000_000, 60
    start = time.time()
    hist = meanfield_ensemble(n, 42, PACKET, app, t, bins)
    elapsed = time.time() - start
    span = timing.v_z * (t - timing.t_bar)
    sd = PACKET.sigma * abs(dispersion_factor(t, PACKET.sigma)) / math.sqrt(2.0)
    expected = np.array([
        quad(lambda z: meanfield_ensemble_density(z, span, sd), lo, hi)[0] * n
        for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
    ])
    keep = expected >= 10.0
    stat = float(np.sum((np.asarray(hist.counts)[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    threshold = chi2.ppf(0.99, dof)
    ok = stat < threshold and elapsed < 10.0
    assert _report(
        6, "mean-field classical recovery", ok,
        f"chi2 {stat:.1f} < {threshold:.1f} (dof {dof}), {elapsed:.2f} s"
    )


def test_acceptance_7_collapse_location():
    rep = backtrack_collapse(PACKET, APP)
    err = abs(rep.y_collapse - APP.y_bar)
    ok = err < 1e-6 * APP.dy
    assert _report(7, "collapse location", ok, f"|y_collapse - y_bar| = {err:.2e}")


def test_acceptance_8_recombination():
    gap = 1e-4 * APP.dy
    stage2 = Apparatus(
        APP.y_c + 0.5 * gap, APP.y_c + gap, APP.y_c + gap + APP.dy,
        APP.y_c + gap + APP.dy + (APP.y_d - APP.y_c), -APP.grad_Bz,
    )
    perfect = recombine(PACKET, APP, stage2).fidelity
    flipped = recombine(PACKET, APP, stage2, phase_error=math.pi).fidelity
    separated = recombine(PACKET, APP, None).fidelity
    ok = (
        abs(perfect - 1.0) < 1e-6
        and abs(flipped) < 1e-6
        and abs(separated - 0.5) < 1e-3
    )
    assert _report(
        8, "recombination", ok,
        f"perfect {perfect:.8f}, pi {flipped:.2e}, separated {separated:.6f}"
    )


def _split_threshold(sigma):
    """Least gradient of the layer 5:6 that splits a packet of width sigma at
    t = 50: 18 geometric bisection steps on [0.05, 60], on a 16384-point grid
    of the branch drift v_z*(t - t_bar) plus eight final widths."""
    pkt = GaussianPacket(sigma=sigma)
    t_final = 50.0

    def splits(g):
        v_z = 0.1 * g
        half = (
            1.25 * (v_z * (t_final - 0.55) + 8 * sigma * abs(dispersion_factor(t_final, sigma)))
            + sigma
        )
        res = sandwich(
            pkt, LayerStack((Layer(5.0, 6.0, g),)), t_final,
            grid=Grid1D(-half, half, 16384),
        )
        return res.peak_count >= 2

    lo, hi = 0.05, 60.0
    for _ in range(18):
        mid = math.sqrt(lo * hi)
        if splits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_acceptance_9_split_condition():
    start = time.time()
    strong = sandwich(PACKET, LayerStack((Layer(5.0, 6.0, 100.0),)), 5.6)
    weak = sandwich(PACKET, LayerStack((Layer(5.0, 6.0, 1.0),)), 5.6)
    thresholds = [_split_threshold(s) for s in (1.0, 2.0, 4.0)]
    elapsed = time.time() - start
    ok = (
        strong.peak_count == 2
        and weak.peak_count == 1
        and thresholds[0] > thresholds[1] > thresholds[2]
        and elapsed < 60.0
    )
    assert _report(
        9, "split condition", ok,
        f"kappa=10: {strong.peak_count} peaks, kappa=0.1: {weak.peak_count}, "
        f"thresholds {['%.2f' % x for x in thresholds]}, {elapsed:.1f} s"
    )


def test_split_thresholds_are_pinned_bit_for_bit():
    # Exact values: a change to the density, its grid points or the peak
    # detector that moves one bit of what the detector sees can move a
    # threshold, so this guards "same outputs" for the whole sandwich path.
    thresholds = [_split_threshold(s) for s in (1.0, 2.0, 4.0)]
    assert thresholds == [8.176254216891031, 4.1003060726061085, 2.145688125476484]


def test_acceptance_10_numerics_hygiene():
    timing = derive_timing(APP, PACKET)
    # (a) per-step norm conservation
    grid = Grid1D(-40.0, 40.0, 1024)
    state = GridState.from_packet(PACKET, grid)
    field = [(timing.t_b, timing.t_c, APP.grad_Bz)]
    max_drift = 0.0
    prev = state.norm()
    for _ in range(50):
        state = propagate(state, field_schedule(state.t, state.t + 0.015, field))
        cur = state.norm()
        max_drift = max(max_drift, abs(cur - prev))
        prev = cur
    # (b) no time-step error: with a potential linear in z one Strang step
    # per segment is exact, so the field segment cut into 16 pieces gives
    # the uncut result, both components and their phase, to rounding
    cgrid = Grid1D(-40.0, 40.0, 2048)
    base = GridState.from_packet(PACKET, cgrid)
    cuts = np.linspace(timing.t_b, timing.t_c, 17)
    whole, sliced = (
        propagate(base, [(0.0, timing.t_b, 0.0), *segments])
        for segments in ([(timing.t_b, timing.t_c, APP.grad_Bz)],
                         [(a, b, APP.grad_Bz) for a, b in zip(cuts[:-1], cuts[1:])])
    )
    slicing = math.sqrt(cgrid.dz * float(
        np.sum(np.abs(whole.psi_plus - sliced.psi_plus) ** 2)
        + np.sum(np.abs(whole.psi_minus - sliced.psi_minus) ** 2)
    ))
    # (c) 3-D normalization over a t sweep; the closed form factorizes, so the
    # 3-D trapezoid of the product grid is the product of 1-D trapezoids
    worst_norm = 0.0
    for t in np.linspace(timing.t_c + 0.1, timing.t_c + 12.0, 10):
        field = evolve_packet(PACKET, APP, t)
        w = field.width
        x = np.linspace(-8 * w, 8 * w, 2001)
        y0 = PACKET.source_y(APP) + timing.v * field.tau
        y = np.linspace(y0 - 8 * w, y0 + 8 * w, 2001)
        reach = abs(field.branch_center(Branch.MINUS)) + 8 * w
        z = np.linspace(-reach, reach, 8001)
        ix = np.trapezoid(np.abs(field.x_factor(x)) ** 2, x)
        iy = np.trapezoid(np.abs(field.y_factor(y)) ** 2, y)
        iz = np.trapezoid(field.z_marginal_density(z), z)
        worst_norm = max(worst_norm, abs(ix * iy * iz - 1.0))
    ok = max_drift < 1e-12 and slicing < 1e-12 and worst_norm < 1e-6
    assert _report(
        10, "numerics hygiene", ok,
        f"norm drift {max_drift:.1e}/step, slicing defect {slicing:.1e}, "
        f"3-D norm deviation {worst_norm:.1e}"
    )
