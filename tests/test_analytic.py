import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq, curve_fit

from path_integral import ZKernelParams, free_kernel, sg_kernel, z_action
from sgsim import (
    Branch,
    DomainError,
    GaussianPacket,
    Grid1D,
    GridState,
    InvalidParameterError,
    derive_timing,
    dispersion_factor,
    evolve_packet,
    propagate,
    suggest_grid,
)
from sgsim.analytic import SpinorField, kick_integrals
from sgsim.core import DEFAULT_UNITS, field_schedule


# ---------------------------------------------------------------------------
# action


def _action_quadrature_oracle(z, z_c, z_b, z_prime, t, t_c, t_b, t_prime, mu_z, grad):
    """Full classical action via numeric integration of the Lagrangian.

    The extremal in-region path is a parabola matching (z_b, z_c); the
    Lagrangian there is (m/2) zdot^2 + mu_z * B' * z(t).  The free segments
    contribute chord kinetic terms, integrated numerically as well.
    """
    m = DEFAULT_UNITS.mass

    def segment_free(za, zb, ta, tb):
        v = (zb - za) / (tb - ta)
        val, _ = quad(lambda s: 0.5 * m * v * v, ta, tb)
        return val

    a = mu_z * grad / m
    dt = t_c - t_b
    v0 = (z_c - z_b) / dt - 0.5 * a * dt

    def lagrangian(s):
        u = s - t_b
        zp = v0 + a * u
        zz = z_b + v0 * u + 0.5 * a * u * u
        return 0.5 * m * zp * zp + mu_z * grad * zz

    region, _ = quad(lagrangian, t_b, t_c, limit=200)
    return (
        segment_free(z_prime, z_b, t_prime, t_b)
        + region
        + segment_free(z_c, z, t_c, t)
    )


@pytest.mark.parametrize(
    "z,z_c,z_b,z_prime,mu_z,grad",
    [
        (1.2, 0.4, 0.1, -0.3, -1.0, 100.0),
        (-2.0, -0.8, -0.2, 0.5, 1.0, 100.0),
        (0.7, 0.7, 0.7, 0.7, -0.5, 40.0),
        (3.0, 1.0, 0.0, 0.0, 0.0, 100.0),
    ],
)
def test_z_action_matches_quadrature(z, z_c, z_b, z_prime, mu_z, grad):
    t, t_c, t_b, t_prime = 2.6, 0.6, 0.5, 0.0
    got = z_action(z, z_c, z_b, z_prime, t, t_c, t_b, t_prime, mu_z, grad)
    oracle = _action_quadrature_oracle(
        z, z_c, z_b, z_prime, t, t_c, t_b, t_prime, mu_z, grad
    )
    # the closed form keeps the chord path: it exceeds the extremal action by
    # exactly (1/24m) * (mu_z B')^2 * dt^3
    dropped = (mu_z * grad) ** 2 * (t_c - t_b) ** 3 / (24.0 * DEFAULT_UNITS.mass)
    assert got.value == pytest.approx(oracle + dropped, abs=1e-8)


def test_z_action_branch_tagging():
    args = (1.0, 0.5, 0.2, 0.0, 2.6, 0.6, 0.5, 0.0)
    assert z_action(*args, -1.0, 10.0).branch is Branch.PLUS
    assert z_action(*args, 1.0, 10.0).branch is Branch.MINUS
    assert z_action(*args, 0.0, 10.0).branch is None
    with pytest.raises(DomainError):
        z_action(1.0, 0.5, 0.2, 0.0, 0.4, 0.6, 0.5, 0.0, 1.0, 10.0)


# ---------------------------------------------------------------------------
# kernels


def test_free_kernel_semigroup():
    # composition over an intermediate time; times are rotated slightly into
    # the lower half-plane to damp the oscillatory tails, which is legitimate
    # because both sides are analytic in the time arguments
    eta = 1.0 - 0.05j
    t0, t1, t2 = 0.0, 0.4 * eta, 1.0 * eta
    z, z_prime = 0.3, -0.2
    z_mid = np.linspace(-60.0, 60.0, 240_001)
    integrand = free_kernel(t2, z, t1, z_mid) * free_kernel(t1, z_mid, t0, z_prime)
    composed = np.trapezoid(integrand, z_mid)
    direct = complex(free_kernel(t2, z, t0, z_prime))
    assert abs(composed - direct) < 1e-6


def test_sg_kernel_reduces_to_free_for_zero_kick():
    params = ZKernelParams(t=2.6, t_prime=0.0, t_bar=0.55, v_z=0.0, branch=Branch.PLUS)
    z, zp = 0.7, -0.4
    assert complex(sg_kernel(params, z, zp)) == pytest.approx(
        complex(free_kernel(2.6, z, 0.0, zp))
    )


def test_sg_kernel_branch_phases_conjugate():
    base = dict(t=2.6, t_prime=0.0, t_bar=0.55, v_z=10.0)
    z, zp = 0.7, -0.4
    kp = complex(sg_kernel(ZKernelParams(branch=Branch.PLUS, **base), z, zp))
    km = complex(sg_kernel(ZKernelParams(branch=Branch.MINUS, **base), z, zp))
    kf = complex(free_kernel(2.6, z, 0.0, zp))
    # the two branch phases are inverse rotations of the free kernel
    assert kp * km == pytest.approx(kf * kf)
    assert abs(kp) == pytest.approx(abs(kf))


def test_kernel_params_domain_checks():
    with pytest.raises(DomainError):
        ZKernelParams(t=1.0, t_prime=1.0, t_bar=1.0, v_z=1.0, branch=Branch.PLUS)
    with pytest.raises(DomainError):
        ZKernelParams(t=1.0, t_prime=0.0, t_bar=2.0, v_z=1.0, branch=Branch.PLUS)


def test_underflowing_width_is_a_domain_error(default_apparatus):
    # sigma = 1e-300 is a valid packet, but m*sigma^2 underflows to 0
    packet = GaussianPacket(sigma=1e-300)
    field = evolve_packet(packet, default_apparatus, 5.6)
    with pytest.raises(DomainError, match="underflows"):
        field.z_marginal_density(np.zeros(3))
    with pytest.raises(DomainError, match="underflows"):
        field.x_factor(np.zeros(3))
    with pytest.raises(DomainError, match="underflows"):
        suggest_grid(packet, default_apparatus, 5.6)


def test_kernel_propagates_packet_to_closed_form(
    default_apparatus, default_packet
):
    """Quadrature of kernel x initial Gaussian reproduces the z marginal."""
    timing = derive_timing(default_apparatus, default_packet)
    t = timing.t_c + 2.0
    field = evolve_packet(default_packet, default_apparatus, t)
    sigma = default_packet.sigma
    zp = np.linspace(-10 * sigma, 10 * sigma, 20_001)
    psi0 = (math.pi * sigma**2) ** -0.25 * np.exp(-zp * zp / (2 * sigma**2))
    # the kernel omits two phases common to both branches (see path_integral)
    m, hbar = DEFAULT_UNITS.mass, DEFAULT_UNITS.hbar
    omitted = cmath.exp(1j * m * timing.v_z ** 2 / (2.0 * hbar) * (
        default_apparatus.dy / timing.v / 6.0
        - (t - timing.t_bar) * (timing.t_bar - default_packet.t_prime)
        / (t - default_packet.t_prime)
    ))
    for branch in Branch:
        params = ZKernelParams(
            t=t, t_prime=default_packet.t_prime, t_bar=timing.t_bar,
            v_z=timing.v_z, branch=branch,
        )
        z_eval = np.linspace(field.branch_center(branch) - 3, field.branch_center(branch) + 3, 7)
        for z in z_eval:
            integ = omitted * np.trapezoid(sg_kernel(params, z, zp) * psi0, zp)
            expected = complex(field.z_factor(branch.deflection_sign, z))
            assert abs(integ - expected) < 1e-4


# ---------------------------------------------------------------------------
# dispersion and field shape


@given(tau=st.floats(min_value=0.0, max_value=100.0), sigma=st.floats(0.1, 10.0))
def test_dispersion_magnitude_formula(tau, sigma):
    f = dispersion_factor(tau, sigma)
    expected = 1.0 + (DEFAULT_UNITS.hbar * tau / (DEFAULT_UNITS.mass * sigma**2)) ** 2
    assert abs(f) ** 2 == pytest.approx(expected, rel=1e-12)


def test_fitted_width_matches_dispersion(default_apparatus, default_packet):
    t = 3.0
    field = evolve_packet(default_packet, default_apparatus, t)
    center = field.branch_center(Branch.PLUS)
    z = np.linspace(center - 8 * field.width, center + 8 * field.width, 4001)
    rho = np.abs(field.z_factor(Branch.PLUS.deflection_sign, z)) ** 2

    def gauss(zv, amp, mu, w):
        return amp * np.exp(-((zv - mu) ** 2) / (w * w))

    (amp, mu, w), _ = curve_fit(gauss, z, rho, p0=(rho.max(), center, field.width))
    assert abs(w) == pytest.approx(field.width, rel=1e-6)
    assert mu == pytest.approx(center, abs=1e-8)


def test_wider_packets_diverge_slower(default_apparatus):
    t = 5.0
    ratios = []
    for sigma in (0.5, 1.0, 2.0, 4.0):
        pkt = GaussianPacket(sigma=sigma)
        field = evolve_packet(pkt, default_apparatus, t)
        ratios.append(field.width / sigma)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_pure_spin_up_single_hump(default_apparatus):
    pkt = GaussianPacket(chi_plus=1.0, chi_minus=0.0)
    field = evolve_packet(pkt, default_apparatus, 3.0)
    z = np.linspace(-40, 40, 8001)
    rho = field.z_marginal_density(z)
    peak_z = z[np.argmax(rho)]
    assert peak_z == pytest.approx(field.branch_center(Branch.PLUS), abs=z[1] - z[0])
    # single hump: density decreases monotonically away from the peak
    k = np.argmax(rho)
    assert np.all(np.diff(rho[:k]) >= 0) and np.all(np.diff(rho[k:]) <= 0)


def test_midpoint_suppression_at_six_widths(default_apparatus, default_packet):
    # find t where the branch centers sit 6 sigma|f| from the origin
    timing = derive_timing(default_apparatus, default_packet)

    def gap(t):
        f = dispersion_factor(t - default_packet.t_prime, default_packet.sigma)
        return timing.v_z * (t - timing.t_bar) - 6.0 * default_packet.sigma * abs(f)

    t6 = brentq(gap, timing.t_c, 100.0)
    field = evolve_packet(default_packet, default_apparatus, t6)
    center = field.branch_center(Branch.MINUS)
    ratio = field.z_marginal_density(0.0) / field.z_marginal_density(center)
    # each branch is e^-36 down at the midpoint (two branches contribute)
    assert ratio <= 2.0 * math.exp(-36.0) * (1.0 + 1e-9)
    assert ratio >= math.exp(-36.0)


def test_evolve_accepts_in_region_times(default_apparatus, default_packet):
    # halfway through the region: kick F*u with F = mu_b*B' = 100, u = 0.05,
    # and the branch centers at -+F*u^2/(2m)
    field = evolve_packet(default_packet, default_apparatus, 0.55)
    p, q, _ = field.kicks
    assert p == pytest.approx(5.0, rel=1e-12)
    assert field.branch_center(Branch.PLUS) == pytest.approx(-0.125, rel=1e-12)
    assert q == pytest.approx(0.125, rel=1e-12)
    for t in (0.0, -1.0):  # at or before emission
        with pytest.raises(DomainError):
            evolve_packet(default_packet, default_apparatus, t)
    for t in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            evolve_packet(default_packet, default_apparatus, t)


def _stack_schedule(layers, post, frac):
    """Field windows of (gap, length, grad) layers flown through one after
    another from t = 0, and an evaluation time inside the window frac of the
    way through the stack, or a delay of frac after its end."""
    windows, t = [], 0.0
    for gap, length, grad in layers:
        windows.append((t + gap, t + gap + length, grad))
        t += gap + length
    if post:
        t_final = t + frac
    else:
        t_on, t_off, _ = windows[int(frac * len(windows))]
        t_final = t_on + (frac * len(windows) % 1.0) * (t_off - t_on)
    return field_schedule(0.0, t_final, windows), t_final


def _grid_holding(packet, schedule, t_final):
    """Grid wide enough for the packet's largest drift and fine enough for
    its largest kicked wavenumber, with 10 widths and 10/sigma to spare."""
    kick = sum(abs(g) * (t1 - t0) for t0, t1, g in schedule)  # mu_b = 1
    f = dispersion_factor(t_final - packet.t_prime, packet.sigma)
    half = kick * t_final + 10.0 * packet.sigma * abs(f)
    n = 256
    while math.pi * n / (2.0 * half) < kick + 10.0 / packet.sigma:
        n *= 2
    return Grid1D(-half, half, n)


@settings(max_examples=50, deadline=None)
@given(
    layers=st.lists(
        st.tuples(st.floats(0.02, 0.3), st.floats(0.02, 0.15), st.floats(-60.0, 60.0)),
        min_size=1, max_size=3,
    ),
    post=st.booleans(),
    frac=st.floats(0.0, 0.999),
    sigma=st.floats(0.5, 2.0),
)
def test_closed_form_amplitudes_match_grid(layers, post, frac, sigma):
    """Both complex components, no phase aligned, against the grid.  For a
    potential linear in z one Strang step per segment is exact once its
    common phase is taken out, so the grid's state is the true one, global
    phase included, and the closed form must match it to rounding."""
    packet = GaussianPacket(sigma=sigma)
    schedule, t_final = _stack_schedule(layers, post, frac)
    grid = _grid_holding(packet, schedule, t_final)
    state = propagate(GridState.from_packet(packet, grid), schedule)
    field = SpinorField(packet, DEFAULT_UNITS, t_final, kick_integrals(schedule, t_final), 0.0)
    err = math.sqrt(grid.dz * sum(
        float(np.sum(np.abs(psi - chi * field.z_factor(branch.deflection_sign, grid.points)) ** 2))
        for psi, chi, branch in ((state.psi_plus, packet.chi_plus, Branch.PLUS),
                                 (state.psi_minus, packet.chi_minus, Branch.MINUS))
    ))
    assert err <= 1e-12


@settings(max_examples=20, deadline=None)
@given(t=st.floats(min_value=0.61, max_value=50.0))
def test_z_marginal_normalized(t):
    from sgsim import Apparatus

    app = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    field = evolve_packet(GaussianPacket(), app, t)
    reach = abs(field.branch_center(Branch.MINUS)) + 10 * field.width
    z = np.linspace(-reach, reach, 20_001)
    total = np.trapezoid(field.z_marginal_density(z), z)
    assert total == pytest.approx(1.0, abs=1e-7)


def _mp_branch_density(field, s):
    """50-digit Gaussian exp(-(z - s*q)^2/w^2)/(sqrt(pi)*w) of mpf z, with
    w = sigma*|f| from the packet's parameters and the float center s*q."""
    units, sigma = field.units, mpmath.mpf(field.packet.sigma)
    tau = mpmath.mpf(field.t) - field.packet.t_prime
    w = sigma * mpmath.sqrt(1 + (units.hbar * tau / (units.mass * sigma ** 2)) ** 2)
    center = mpmath.mpf(field.kicked_center(s))
    return lambda z: mpmath.exp(-((z - center) / w) ** 2) / (mpmath.sqrt(mpmath.pi) * w)


PACKETS = [GaussianPacket(), GaussianPacket(sigma=1.3, chi_plus=0.6, chi_minus=0.8j)]


def _rounding_bound(u):
    """4 ulp of relative error per unit condition number 1 + 2*u^2 of the
    Gaussian exp(-u^2) (and of its tail mass) at u widths from the center."""
    return 4.0 * np.finfo(float).eps * (1.0 + 2.0 * np.asarray(u) ** 2)


@pytest.mark.parametrize("packet", PACKETS)
def test_branch_density_matches_mpmath(default_apparatus, packet):
    # Measured: at most 3.4e-16 relative within one width of the center and
    # 3.0e-14 at 10 widths, at most 1.5 ulp per unit condition number
    # (|z_factor|^2 measured 8.2e-16 and 2.3e-14 against the same reference)
    field = evolve_packet(packet, default_apparatus, 5.6)
    u = np.r_[np.linspace(-10, -1, 37), np.linspace(-1, 1, 21), np.linspace(1, 10, 37)]
    bound = _rounding_bound(u)
    w_plus, w_minus = abs(packet.chi_plus) ** 2, abs(packet.chi_minus) ** 2
    with mpmath.workdps(50):
        ref = {s: _mp_branch_density(field, s) for s in (-1, 1, 0.3)}
        for s in (-1, 1, 0.3):
            z = field.kicked_center(s) + u * field.width
            want = np.array([float(ref[s](mpmath.mpf(x))) for x in z])
            assert np.all(np.abs(field.branch_density(s, z) - want) <= bound * want)
            if s == 0.3:
                continue
            want = np.array([
                float(w_plus * ref[-1](mpmath.mpf(x)) + w_minus * ref[1](mpmath.mpf(x)))
                for x in z
            ])
            assert np.all(np.abs(field.z_marginal_density(z) - want) <= bound * want)


def _reference_branch_density(field, s, z):
    """The branch density as one expression: the in-place version must equal it
    bit for bit."""
    w = field.width
    dz = np.asarray(z) - field.kicked_center(s)
    return np.exp(-dz * dz / (w * w)) / (math.sqrt(math.pi) * w)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    z=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
    s=st.floats(min_value=-1.0, max_value=1.0),
    sigma=st.floats(min_value=1e-3, max_value=1e3),
    tau=st.floats(min_value=0.0, max_value=1e4),
    q=st.floats(min_value=-1e4, max_value=1e4),
    a=st.floats(min_value=0.0, max_value=1.0),
)
def test_in_place_density_is_bitwise_the_expression(z, s, sigma, tau, q, a):
    packet = GaussianPacket(sigma=sigma, chi_plus=a, chi_minus=math.sqrt(1.0 - a * a))
    field = SpinorField(packet, DEFAULT_UNITS, tau, (0.0, q, 0.0), 0.0)
    z = np.array(z)
    with np.errstate(all="ignore"):
        assert _bits(field.branch_density(s, z)) == _bits(_reference_branch_density(field, s, z))
        want = (
            _reference_branch_density(field, -1, z) * abs(packet.chi_plus) ** 2
            + _reference_branch_density(field, 1, z) * abs(packet.chi_minus) ** 2
        )
        assert _bits(field.z_marginal_density(z)) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(
    z_min=st.floats(min_value=-1e6, max_value=1e6),
    span=st.floats(min_value=1e-6, max_value=1e6),
    log2_n=st.integers(8, 14),
)
def test_grid_points_are_bitwise_the_expression(z_min, span, log2_n):
    grid = Grid1D(z_min, z_min + span, 2 ** log2_n)
    want = _bits(grid.z_min + grid.dz * np.arange(grid.n_points))
    points = grid.points
    assert _bits(points) == want
    points[:] = 0.0  # each call builds its own array
    assert _bits(grid.points) == want


def test_in_place_density_leaves_its_input_alone(default_apparatus, default_packet):
    field = evolve_packet(default_packet, default_apparatus, 5.6)
    for z in (np.linspace(-20.0, 20.0, 101), np.arange(-20, 21)):
        before = z.copy()
        for density in (field.branch_density(-1, z), field.z_marginal_density(z)):
            assert not np.shares_memory(density, z)
        assert _bits(z) == _bits(before)


def test_in_place_density_takes_scalars_lists_and_ints(default_apparatus, default_packet):
    field = evolve_packet(default_packet, default_apparatus, 5.6)
    for read in (lambda z: field.branch_density(1, z), field.z_marginal_density):
        for z in (0.0, 3, np.float64(2.5)):
            value = read(z)
            assert type(value) is np.float64
            assert value == read(np.array([float(z)]))[0]
        ints = np.arange(-5, 6)
        want = read(ints.astype(float))
        assert _bits(read(ints)) == _bits(want)
        assert _bits(read(ints.tolist())) == _bits(want)


@pytest.mark.parametrize("packet", PACKETS)
def test_branch_mass_matches_mpmath_quadrature(default_apparatus, packet):
    # bins in widths from the center: across it, beside it, and in both
    # tails out to e^-441 of the peak density.  Measured: at most 3.4e-16
    # relative for bins within a width of the center and 1.2e-13 for the bin
    # from 20 to 21 widths, at most 1.3 ulp per unit condition number at a
    # bin's inner edge.
    field = evolve_packet(packet, default_apparatus, 5.6)
    u = np.array([-21.0, -20.0, -9.0, -8.5, -3.0, -0.5, 0.25, 0.7, 4.0, 9.5, 10.0, 20.0, 21.0])
    inner = np.where(u[:-1] * u[1:] < 0.0, 0.0, np.minimum(np.abs(u[:-1]), np.abs(u[1:])))
    for s in (-1, 0.3):
        edges = field.kicked_center(s) + u * field.width
        got = field.branch_mass(s, edges)
        with mpmath.workdps(50):
            density = _mp_branch_density(field, s)
            want = []
            for a, b in zip(edges[:-1], edges[1:]):
                # mpmath's tolerance is absolute: integrate the density
                # relative to its maximum on the bin
                top = density(mpmath.mpf(min(max(field.kicked_center(s), a), b)))
                span = [mpmath.mpf(a), mpmath.mpf(b)]
                want.append(float(top * mpmath.quad(lambda z: density(z) / top, span)))
        want = np.array(want)
        assert np.all(np.abs(got - want) <= _rounding_bound(inner) * want)


def _overlap_by_quadrature(field, s1, s2):
    """Trapezoid of conj(z_factor(s1)) * z_factor(s2) with 12-width margins."""
    c1, c2 = field.kicked_center(s1), field.kicked_center(s2)
    half = 0.5 * abs(c1 - c2) + 12.0 * field.width
    mid = 0.5 * (c1 + c2)
    z = np.linspace(mid - half, mid + half, 16385)
    integrand = np.conj(field.z_factor(s1, z)) * field.z_factor(s2, z)
    return complex(np.trapezoid(integrand, z))


@settings(max_examples=60, deadline=None)
@given(
    grad=st.floats(min_value=0.01, max_value=20.0),
    t=st.floats(min_value=0.6, max_value=30.0),
    s1=st.floats(min_value=-1.0, max_value=1.0),
    s2=st.floats(min_value=-1.0, max_value=1.0),
)
def test_overlap_matches_quadrature(grad, t, s1, s2):
    from sgsim import Apparatus

    field = evolve_packet(GaussianPacket(), Apparatus(0.0, 5.0, 6.0, 26.0, grad), t)
    exact = field.overlap(s1, s2)
    assert abs(exact) <= 1.0 + 1e-15
    if abs(exact) > 1e-8:
        reference = _overlap_by_quadrature(field, s1, s2)
        assert abs(exact - reference) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("s", [0.0, 0.3, -1.0, 1.0])
def test_overlap_of_factor_with_itself_is_one(default_apparatus, default_packet, s):
    # exactly, so a perfect reversal reports an overlap of 1
    field = evolve_packet(default_packet, default_apparatus, 3.0)
    assert field.overlap(s, s) == 1.0
