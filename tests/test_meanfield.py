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
    GaussianPacket,
    derive_timing,
    dispersion_factor,
    evolve_packet,
    meanfield_ensemble,
    meanfield_ensemble_density,
    meanfield_evolve,
    spin_moment_average,
)
from sgsim.core import DEFAULT_UNITS, _linspace
from sgsim.meanfield import meanfield_ensemble_mass
from test_classical import _rk4_oracle


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
    y0 = fld.y_center
    x = np.linspace(-3 * w, 3 * w, 7)[:, None, None]
    y = np.linspace(y0 - 3 * w, y0 + 3 * w, 7)[None, :, None]
    z = np.linspace(c - 6 * w, c + 6 * w, 401)[None, None, :]
    expected = fld.x_factor(x) * fld.y_factor(y) * fld.z_factor(branch.deflection_sign, z)
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


@pytest.mark.parametrize("beta", [0.0, math.pi / 3, 2.0, math.pi])
@pytest.mark.parametrize("t", [0.52, 0.55, 0.58])
def test_meanfield_center_in_region_matches_rk4(default_apparatus, default_packet, beta, t):
    # inside the region (t_b = 0.5, t_c = 0.6) the state is the same kicked
    # factor, centered on the classical path of <mu_z> = -mu_b*cos(beta),
    # here integrated independently
    state = meanfield_evolve(beta, default_packet, default_apparatus, t)
    z_ref, _ = _rk4_oracle(-math.cos(beta), default_apparatus, default_packet, t)
    assert state.center_z == pytest.approx(z_ref, abs=1e-9)


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
    stat = float(np.sum((np.asarray(hist.counts)[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    assert stat < chi2.ppf(0.99, dof)


def test_ensemble_mean_zero_by_isotropy(default_apparatus, default_packet):
    n = 400_000
    hist = meanfield_ensemble(n, 21, default_packet, default_apparatus, 3.0, 80)
    edges = np.asarray(hist.edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
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
    stat = float(np.sum((np.asarray(hist.counts)[keep] - expected[keep]) ** 2 / expected[keep]))
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


def _mp_ensemble_density(span, sd):
    """meanfield_ensemble_density in mpmath, from the upper tails at |z| so
    that it keeps its relative precision in both tails; the bare Gaussian at
    span 0."""
    def density(z):
        a = abs(z)
        if span == 0:
            return mpmath.npdf(a, 0, sd)
        return (mpmath.ncdf((span - a) / sd) - mpmath.ncdf((-span - a) / sd)) / (2 * span)
    return density


def _mp_mass(density, lo, hi, breaks):
    """mpmath quadrature of density from lo to hi, split at the breaks inside
    and taken relative to its maximum there (mpmath's tolerance is absolute)."""
    points = [mpmath.mpf(lo)] + [mpmath.mpf(b) for b in breaks if lo < b < hi] + [mpmath.mpf(hi)]
    top = max(density(p) for p in points)
    return float(top * mpmath.quad(lambda z: density(z) / top, points))


@pytest.mark.parametrize("span,sd", [(10.0, 1.0), (0.3, 2.0), (0.0, 1.3), (1e-9, 1.0)])
def test_ensemble_mass_matches_mpmath_quadrature(span, sd):
    # bins inside the span, across it, and out to 38 sds beyond it, where
    # the mass is 1e-300.  x sds beyond the span, G(-x) = phi(x) - x*Phi(-x)
    # cancels to about phi(x)/x^2, and phi(x) carries the rounding of x^2/2
    # in its exponent, so the relative error grows as x^4; the difference
    # G(-b) - G(-c), c - b = 2*span/sd, cancels by a further factor of about
    # 1 + sd/span.  A bin that reaches into the span is a difference of
    # masses of order 1, which keeps their absolute precision.  Measured: at
    # most 2.2 ulp * (1 + x^2)^2 * (1 + sd/span) relative (1.1e-10 at 38
    # sds, 1.9e-12 at 12) and 2.3 ulp absolute.
    beyond = np.array([0.25, 0.7, 3.0, 8.5, 9.0, 12.0, 20.0, 21.0, 30.0, 38.0])
    inside = span * np.array([0.2, 0.55, 0.9]) if span > 0.0 else []
    half = np.concatenate((inside, span + beyond * sd))
    edges = np.concatenate((-half[::-1], [0.3 * half[0]], half))
    masses, outside = meanfield_ensemble_mass(edges, span, sd)
    with mpmath.workdps(30):
        density = _mp_ensemble_density(mpmath.mpf(span), mpmath.mpf(sd))
        want = np.array([_mp_mass(density, lo, hi, (-span, 0.0, span))
                         for lo, hi in zip(edges[:-1], edges[1:])])
    lo, hi = edges[:-1], edges[1:]
    x = np.maximum(np.maximum(lo - span, -hi - span), 0.0) / sd
    cancel = 1.0 + sd / span if span > 1e-8 * sd else 1.0  # not in the bare-Gaussian limit
    bound = 4 * np.finfo(float).eps * ((1 + x * x) ** 2 * cancel * want + (x == 0.0))
    assert np.all(np.abs(masses - want) <= bound)
    assert 0.0 <= outside < 1e-300


@pytest.mark.parametrize("span,sd", [(10.0, 1.0), (0.3, 2.0), (0.0, 1.3)])
def test_ensemble_outside_mass_matches_mpmath(span, sd):
    # the default edges, span + 5 sd out, and edges that leave out a tail
    for edges in ([-(span + 5 * sd), 0.0, span + 5 * sd], [-(span + 2 * sd), span + 9 * sd]):
        _, outside = meanfield_ensemble_mass(np.array(edges), span, sd)
        with mpmath.workdps(30):
            density = _mp_ensemble_density(mpmath.mpf(span), mpmath.mpf(sd))
            want = (_mp_mass(density, -np.inf, edges[0], ())
                    + _mp_mass(density, edges[-1], np.inf, ()))
        assert outside == pytest.approx(want, rel=1e-13, abs=0.0)


def test_ensemble_mass_far_out_does_not_overflow():
    # x*x overflows from 1.3e154 sds; at apparatus.grad_Bz = 1e160 and
    # packet.sigma = 30, `sgsim meanfield` puts its edges 1e159 sds from the
    # far end of the span
    with np.errstate(over="raise", invalid="raise"):
        masses, outside = meanfield_ensemble_mass(np.array([-1e200, 0.0, 1e200]), 3.0, 1.0)
    assert np.array_equal(masses, [0.5, 0.5]) and outside == 0.0


@settings(max_examples=50, deadline=None)
@given(
    span=st.floats(0.0, 1e3), sd=st.floats(1e-2, 1e2),
    reach=st.floats(0.0, 12.0), bins=st.integers(1, 100), with_zero=st.booleans(),
)
def test_ensemble_mass_is_a_mirrored_distribution(span, sd, reach, bins, with_zero):
    # mirrored edges give mirrored masses; with the outside mass they sum to 1
    half = np.linspace(0.0, span + reach * sd + sd, bins + 1)[1:]
    edges = np.concatenate((-half[::-1], [0.0] if with_zero else [], half))
    masses, outside = meanfield_ensemble_mass(edges, span, sd)
    assert np.all(np.asarray(masses) >= 0.0) and outside >= 0.0
    assert np.array_equal(masses, masses[::-1])
    assert math.fsum(masses) + outside == pytest.approx(1.0, rel=0, abs=1e-13)


def _array_meanfield_mass(edges, span, sd, exp):
    """meanfield_ensemble_mass as numpy arrays computed it, with the
    exponential ``exp``."""
    erf, erfc = np.frompyfunc(math.erf, 1, 1), np.frompyfunc(math.erfc, 1, 1)

    def phi(x):
        x = np.minimum(np.abs(x), 40.0)
        return exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    z = np.asarray(edges, dtype=float)
    a = np.abs(z)
    if span <= 1e-8 * sd:
        x = a / (sd * math.sqrt(2.0))
        tail, core = np.asarray(erfc(x), dtype=float), np.asarray(erf(x), dtype=float)
    else:
        b, c = (a - span) / sd, (a + span) / sd

        def g_minus(x):
            return phi(x) - 0.5 * x * np.asarray(erfc(x / math.sqrt(2.0)), dtype=float)

        def h(x):
            return x * np.asarray(erf(x / math.sqrt(2.0)), dtype=float) + 2.0 * phi(x)

        outside = (sd / span) * (g_minus(b) - g_minus(c))
        inside = (sd / (2.0 * span)) * (h(c) - h(b))
        tail = np.where(b > 0.0, outside, 1.0 - inside)
        core = np.where(b > 0.0, 1.0 - outside, inside)
    u = np.concatenate(([-np.inf], z, [np.inf]))
    outside = np.concatenate(([0.0], tail, [0.0]))
    inside = np.concatenate(([1.0], core, [1.0]))
    lo, hi = u[:-1], u[1:]
    mass = 0.5 * np.where(lo >= 0.0, outside[:-1] - outside[1:],
                          np.where(hi <= 0.0, outside[1:] - outside[:-1], inside[:-1] + inside[1:]))
    return mass[1:-1], float(mass[0] + mass[-1])


@settings(max_examples=200, deadline=None)
@given(
    span=st.one_of(st.just(0.0), st.just(1e-9), st.floats(1e-6, 1e5)), sd=st.floats(1e-2, 1e2),
    reach=st.floats(0.5, 40.0), bins=st.integers(1, 200),
)
def test_ensemble_mass_equals_the_array_formula(span, sd, reach, bins):
    # bit for bit, once both take exp from the math module.  numpy's exp
    # differs from it by 1 ulp at about 4% of arguments, and a bin mass that
    # is a difference of two tails carries that rounding: up to 65 of the
    # units of test_ensemble_mass_matches_mpmath_quadrature's bound over
    # 4000 random configs, and 4e8 ulp on an outside mass of a span below
    # 1e-2 sd, where the tails cancel by a factor of sd/span
    edges = np.linspace(-(span + reach * sd), span + reach * sd, bins + 1)
    masses, outside = meanfield_ensemble_mass(edges.tolist(), span, sd)
    math_exp = np.frompyfunc(math.exp, 1, 1)
    want, want_outside = _array_meanfield_mass(
        edges, span, sd, lambda x: np.asarray(math_exp(x), dtype=float))
    assert masses == want.tolist() and outside == want_outside


@pytest.mark.parametrize("n", [10**3, 10**5, 10**7])
def test_ensemble_chi_square_against_quadrature(default_apparatus, default_packet, n):
    t, bins = 3.0, 40
    hist = meanfield_ensemble(n, 2024, default_packet, default_apparatus, t, bins)
    timing = derive_timing(default_apparatus, default_packet)
    span = timing.v_z * (t - timing.t_bar)
    sd = default_packet.sigma * abs(dispersion_factor(t - default_packet.t_prime,
                                                      default_packet.sigma)) / math.sqrt(2.0)
    expected = n * np.array([
        quad(lambda z: meanfield_ensemble_density(z, span, sd), lo, hi, epsabs=0.0)[0]
        for lo, hi in zip(hist.edges[:-1], hist.edges[1:])
    ])
    keep = expected >= 10.0
    stat = float(np.sum((np.asarray(hist.counts)[keep] - expected[keep]) ** 2 / expected[keep]))
    assert stat < chi2.ppf(0.999, int(keep.sum()) - 1)


@pytest.mark.parametrize("t", [0.57, 3.0])  # inside the field region and after it
def test_ensemble_edges_take_the_closed_forms_kick_and_width(default_apparatus,
                                                             default_packet, t):
    # the ensemble's branches sit where evolve_packet's field puts them
    fld = evolve_packet(default_packet, default_apparatus, t)
    span, sd = abs(fld.branch_center(Branch.PLUS)), fld.width / math.sqrt(2.0)
    hist = meanfield_ensemble(1000, 7, default_packet, default_apparatus, t, 60)
    assert hist.edges.tolist() == _linspace(-(span + 5.0 * sd), span + 5.0 * sd, 61)
