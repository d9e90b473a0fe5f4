import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import chi2

from sgsim import (
    Apparatus,
    Branch,
    DomainError,
    GaussianPacket,
    derive_timing,
    dispersion_factor,
    evolve_packet,
    meanfield_ensemble,
    meanfield_ensemble_density,
    meanfield_evolve,
    spin_moment_average,
)
from sgsim.core import DEFAULT_UNITS


def test_spin_moment_known_states():
    r = 1.0 / math.sqrt(2.0)
    assert spin_moment_average(r, r) == pytest.approx([-1.0, 0.0, 0.0])
    assert spin_moment_average(1.0, 0.0) == pytest.approx([0.0, 0.0, -1.0])
    assert spin_moment_average(0.0, 1.0) == pytest.approx([0.0, 0.0, 1.0])
    assert spin_moment_average(r, 1j * r) == pytest.approx([0.0, -1.0, 0.0])


@given(
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_spin_moment_magnitude_for_pure_states(theta, phi):
    cp = math.cos(theta / 2)
    cm = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)
    mu = spin_moment_average(cp, cm)
    assert np.linalg.norm(mu) == pytest.approx(DEFAULT_UNITS.mu_b, rel=1e-9)


@pytest.mark.parametrize(
    "beta,cos_beta",
    [(0.0, 1.0), (math.pi, -1.0), (math.pi / 2, 0.0), (math.pi / 3, 0.5)],
)
def test_meanfield_center(default_apparatus, default_packet, beta, cos_beta):
    t = 3.0
    state = meanfield_evolve(beta, default_packet, default_apparatus, t)
    timing = derive_timing(default_apparatus, default_packet)
    expected = -cos_beta * timing.v_z * (t - timing.t_bar)
    assert state.center_z == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("t", [0.6, 3.0, 20.0])
@pytest.mark.parametrize("beta,branch", [(0.0, Branch.PLUS), (math.pi, Branch.MINUS)])
def test_pure_spin_meanfield_is_entangled_branch(
    default_apparatus, default_packet, t, beta, branch
):
    # at a pure spin state the scaled kick is the branch's own kick
    state = meanfield_evolve(beta, default_packet, default_apparatus, t)
    fld = evolve_packet(default_packet, default_apparatus, t)
    w, c = fld.width, fld.branch_center(branch)
    y0 = default_packet.source_y(default_apparatus) + fld.timing.v * fld.tau
    x = np.linspace(-3 * w, 3 * w, 7)[:, None, None]
    y = np.linspace(y0 - 3 * w, y0 + 3 * w, 7)[None, :, None]
    z = np.linspace(c - 6 * w, c + 6 * w, 401)[None, None, :]
    expected = fld.x_factor(x) * fld.y_factor(y) * fld.z_marginal_amplitude(branch, z)
    assert np.array_equal(state(x, y, z), expected)


def test_meanfield_unimodal_over_beta_grid(default_apparatus, default_packet):
    z = np.linspace(-60, 60, 4001)
    for beta in np.linspace(0.0, math.pi, 21):
        rho = meanfield_evolve(beta, default_packet, default_apparatus, 3.0).z_density(z)
        k = int(np.argmax(rho))
        assert np.all(np.diff(rho[: k + 1]) >= 0)
        assert np.all(np.diff(rho[k:]) <= 0)


def test_meanfield_density_is_normalized_gaussian(default_apparatus, default_packet):
    state = meanfield_evolve(1.0, default_packet, default_apparatus, 4.0)
    total, _ = quad(lambda z: state.z_density(z), -200, 200, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)
    # width convention: density sd is sigma|f|/sqrt(2)
    sd = state.field.width / math.sqrt(2.0)
    var, _ = quad(
        lambda z: (z - state.center_z) ** 2 * state.z_density(z), -200, 200, limit=200
    )
    assert var == pytest.approx(sd * sd, rel=1e-9)


def test_meanfield_rejects_pre_exit_times(default_apparatus, default_packet):
    with pytest.raises(DomainError):
        meanfield_evolve(0.5, default_packet, default_apparatus, 0.55)


def test_field_average_matches_grid_quadrature(default_apparatus, default_packet):
    # <B_z> = B' * integral of z * theta(y in region) * |phi|^2, evaluated by
    # brute-force trapezoid over the amplitude returned by the state itself
    t = derive_timing(default_apparatus, default_packet).t_c  # packet half-in
    state = meanfield_evolve(math.pi / 4, default_packet, default_apparatus, t)
    fld = state.field
    w = fld.width
    y_ctr = default_packet.source_y(default_apparatus) + fld.timing.v * fld.tau
    x = np.linspace(-6 * w, 6 * w, 121)
    # the step profile restricts the y integral to [y_b, y_c] exactly
    y = np.linspace(default_apparatus.y_b, default_apparatus.y_c, 801)
    z = np.linspace(state.center_z - 8 * w, state.center_z + 8 * w, 401)
    amp = state(x[:, None, None], y[None, :, None], z[None, None, :])
    rho = np.abs(amp) ** 2
    integrand = rho * z[None, None, :]
    val = default_apparatus.grad_Bz * np.trapezoid(
        np.trapezoid(np.trapezoid(integrand, z, axis=2), y, axis=1), x, axis=0
    )
    assert state.field_average_Bz() == pytest.approx(val, rel=1e-6)


def test_ensemble_matches_convolution_closed_form(default_apparatus, default_packet):
    n, bins, seed = 200_000, 60, 4
    t = 3.0
    hist = meanfield_ensemble(n, seed, default_packet, default_apparatus, t, bins)
    timing = derive_timing(default_apparatus, default_packet)
    span = timing.v_z * (t - timing.t_bar)
    f = dispersion_factor(t - default_packet.t_prime, default_packet.sigma)
    sd = default_packet.sigma * abs(f) / math.sqrt(2.0)

    expected = np.array([
        quad(lambda z: meanfield_ensemble_density(z, span, sd), lo, hi)[0] * n
        for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
    ])
    keep = expected >= 10.0
    stat = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    assert stat < chi2.ppf(0.99, dof)


def test_ensemble_mean_zero_by_isotropy(default_apparatus, default_packet):
    n = 400_000
    hist = meanfield_ensemble(n, 21, default_packet, default_apparatus, 3.0, 80)
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    mean = float(np.sum(centers * hist.counts) / hist.n_total)
    spread = float(
        np.sqrt(np.sum(centers**2 * hist.counts) / hist.n_total)
    )
    assert abs(mean) < 5 * spread / math.sqrt(n)


def test_zero_kick_gives_bare_gaussian(default_packet):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    t = 3.0
    hist = meanfield_ensemble(150_000, 8, default_packet, app, t, 40)
    f = dispersion_factor(t, default_packet.sigma)
    sd = default_packet.sigma * abs(f) / math.sqrt(2.0)
    expected = np.array([
        quad(lambda z: meanfield_ensemble_density(z, 0.0, sd), lo, hi)[0] * hist.n_total
        for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
    ])
    keep = expected >= 10.0
    stat = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
    assert stat < chi2.ppf(0.999, int(keep.sum()) - 1)


def test_ensemble_deterministic(default_apparatus, default_packet):
    h1 = meanfield_ensemble(50_000, 33, default_packet, default_apparatus, 3.0)
    h2 = meanfield_ensemble(50_000, 33, default_packet, default_apparatus, 3.0)
    assert np.array_equal(h1.counts, h2.counts)


@settings(max_examples=15, deadline=None)
@given(span=st.floats(min_value=0.0, max_value=50.0), sd=st.floats(0.05, 10.0))
def test_convolution_density_normalized(span, sd):
    z = np.linspace(-(span + 12 * sd), span + 12 * sd, 20_001)
    total = np.trapezoid(meanfield_ensemble_density(z, span, sd), z)
    assert total == pytest.approx(1.0, abs=1e-5)


def _scipy_ensemble_density(z, span, sd):
    """meanfield_ensemble_density's erf form, on scipy.special.erf."""
    a = (z + span) / (sd * math.sqrt(2.0))
    b = (z - span) / (sd * math.sqrt(2.0))
    return (erf(a) - erf(b)) / (4.0 * span)


@settings(max_examples=50, deadline=None)
@given(span=st.floats(1e-6, 1e3), sd=st.floats(1e-2, 1e2), seed=st.integers(0, 2**32 - 1))
def test_ensemble_density_erf_matches_scipy(span, sd, seed):
    z = np.random.default_rng(seed).uniform(-(span + 10 * sd), span + 10 * sd, 200)
    ours = meanfield_ensemble_density(z, span, sd)
    ref = _scipy_ensemble_density(z, span, sd)
    # each erf agrees to 4.3e-16 relative: the difference to 1e-15 of erf's
    # unit scale everywhere, and relatively wherever it does not cancel
    np.testing.assert_allclose(ours * 4.0 * span, ref * 4.0 * span, rtol=0, atol=1e-15)
    inside = np.abs(z) <= span
    np.testing.assert_allclose(ours[inside], ref[inside], rtol=1e-15, atol=0)


def test_ensemble_density_tails_match_mpmath():
    # (erfc(b) - erfc(a))/(4*span) at |z|, in 50-digit arithmetic; the erf
    # difference of two values near 1 used to return exactly 0 from 8.5 sd on
    span, sd = 10.0, 1.0
    for k in (0.0, 6.0, 8.5, 10.0, 20.0):
        z = span + k * sd
        with mpmath.workdps(50):
            a = (mpmath.mpf(z) + span) / (sd * mpmath.sqrt(2))
            b = (mpmath.mpf(z) - span) / (sd * mpmath.sqrt(2))
            ref = float((mpmath.erfc(b) - mpmath.erfc(a)) / (4 * span))
        for signed in (z, -z):
            value = meanfield_ensemble_density(signed, span, sd)
            assert value == pytest.approx(ref, rel=1e-13, abs=0.0)
    tails = meanfield_ensemble_density(span + np.array([8.5, 10.0]) * sd, span, sd)
    np.testing.assert_allclose(tails, [4.74e-19, 3.81e-25], rtol=1e-3, atol=0)


def test_ensemble_density_erf_scalar_inputs():
    span, sd = 3.0, 0.7
    ref = float(_scipy_ensemble_density(0.5, span, sd))
    for z in (0.5, np.float64(0.5), np.array(0.5)):
        value = meanfield_ensemble_density(z, span, sd)
        assert isinstance(value, np.float64)
        assert value == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert meanfield_ensemble_density(np.array([0.5]), span, sd).dtype == np.float64


@pytest.mark.parametrize("delay", [0.0, 0.01, 0.05])
def test_field_average_erf_matches_scipy(default_apparatus, default_packet, delay):
    # from half the packet in the region (erf(0) = 0) to its tail leaving
    t = derive_timing(default_apparatus, default_packet).t_c + delay
    state = meanfield_evolve(math.pi / 4, default_packet, default_apparatus, t)
    fld = state.field
    y_ctr = default_packet.source_y(default_apparatus) + fld.timing.v * fld.tau
    mass = 0.5 * (
        erf((default_apparatus.y_c - y_ctr) / fld.width)
        - erf((default_apparatus.y_b - y_ctr) / fld.width)
    )
    ref = default_apparatus.grad_Bz * state.center_z * float(mass)
    assert state.field_average_Bz() == pytest.approx(ref, rel=1e-15, abs=0.0)
