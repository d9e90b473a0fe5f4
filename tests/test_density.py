import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from sgsim import (
    Apparatus,
    Branch,
    GaussianPacket,
    InvalidParameterError,
    coherence_norm,
    density_sweep,
    derive_timing,
    dispersion_factor,
    evolve_packet,
)


def _spinor(theta: float, phi: float) -> tuple[complex, complex]:
    return (
        math.cos(theta / 2),
        cmath.exp(1j * phi) * math.sin(theta / 2),
    )


spinors = st.builds(
    _spinor,
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)


def _field(chi=(None, None), t=3.0):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    pkt = GaussianPacket()
    if chi[0] is not None:
        pkt = GaussianPacket(chi_plus=chi[0], chi_minus=chi[1])
    return evolve_packet(pkt, app, t)


def test_trace_identity_many_z():
    field = _field()
    z_values = np.linspace(-60, 60, 1000)
    for z in z_values:
        free = density_sweep(field, [z], "collapse_free")[0]
        collapsed = density_sweep(field, [z], "collapsed")[0]
        # identical diagonals by construction
        assert np.trace(free).real == np.trace(collapsed).real


@pytest.mark.parametrize("t", [0.6, 3.0, 20.0])
def test_sweep_trace_is_z_marginal_density(t):
    field = _field(chi=_spinor(1.1, 2.3), t=t)
    z = np.linspace(-80.0, 80.0, 1001)
    for variant in ("collapse_free", "collapsed"):
        rho = density_sweep(field, z, variant)
        assert rho.shape == (1001, 2, 2)
        assert np.array_equal(
            np.trace(rho, axis1=1, axis2=2).real, field.z_marginal_density(z)
        )


def test_collapsed_has_zero_offdiagonal():
    field = _field()
    mat = density_sweep(field, [5.0], "collapsed")[0]
    assert mat[0, 1] == 0.0 and mat[1, 0] == 0.0


@settings(max_examples=40, deadline=None)
@given(chi=spinors, z=st.floats(min_value=-30.0, max_value=30.0))
def test_collapse_free_matrix_properties(chi, z):
    field = _field(chi=chi)
    e = density_sweep(field, [z], "collapse_free")[0]
    # Hermitian, positive semidefinite (pure state: rank <= 1), Cauchy-Schwarz
    assert e[1, 0] == np.conj(e[0, 1])
    eigs = np.linalg.eigvalsh(e)
    assert eigs.min() >= -1e-10
    assert abs(e[0, 1]) <= math.sqrt(e[0, 0].real * e[1, 1].real) + 1e-15
    # pure state: determinant vanishes
    assert abs(np.linalg.det(e)) <= 1e-12 * max(np.trace(e).real ** 2, 1e-30)


def test_variant_validation():
    field = _field()
    with pytest.raises(InvalidParameterError):
        density_sweep(field, [0.0], "partial")


def test_density_sweep_shapes():
    field = _field()
    mats = density_sweep(field, np.linspace(-5, 5, 11), "collapse_free")
    assert len(mats) == 11 and mats.shape == (11, 2, 2)


def _time_at_separation(app, pkt, s: float) -> float:
    """Time at which v_z*(t - tbar) = s * sigma*|f(t - t')|."""
    timing = derive_timing(app, pkt)

    def gap(t):
        f = dispersion_factor(t - pkt.t_prime, pkt.sigma)
        return timing.v_z * (t - timing.t_bar) - s * pkt.sigma * abs(f)

    return brentq(gap, timing.t_c, 1e4)


def test_coherence_matches_gaussian_overlap():
    # the off-diagonal overlap of two equal-width Gaussians separated by
    # 2*s*sigma|f| integrates to exp(-s^2)
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    pkt = GaussianPacket()
    weight = abs(pkt.chi_plus * pkt.chi_minus)
    values = []
    for s in (1.0, 2.0, 4.0, 8.0):
        t = _time_at_separation(app, pkt, s)
        c = coherence_norm(evolve_packet(pkt, app, t))
        values.append(c)
        assert c == pytest.approx(weight * math.exp(-s * s), rel=1e-6, abs=0.0)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3


def test_coherence_impulsive_limit_full():
    # vanishing separation: t = t_c with a very short interaction region
    app = Apparatus(0.0, 4.9995, 5.0005, 26.0, 10.0)
    pkt = GaussianPacket()
    timing = derive_timing(app, pkt)
    c = coherence_norm(evolve_packet(pkt, app, timing.t_c))
    assert c == pytest.approx(abs(pkt.chi_plus * pkt.chi_minus), abs=1e-6)


def test_coherence_zero_for_polarized_spin():
    field = _field(chi=(1.0, 0.0))
    assert coherence_norm(field) == 0.0


def _coherence_by_quadrature(field):
    """Trapezoid of |h_+ h_-| |chi_+ chi_-| over both humps with 10-width margins."""
    centers = [field.branch_center(b) for b in (Branch.PLUS, Branch.MINUS)]
    half_span = 0.5 * abs(centers[0] - centers[1]) + 10.0 * field.width
    mid = 0.5 * (centers[0] + centers[1])
    z = np.linspace(mid - half_span, mid + half_span, 8193)
    integrand = np.abs(
        field.z_factor(Branch.PLUS.deflection_sign, z)
        * field.z_factor(Branch.MINUS.deflection_sign, z)
    )
    weight = abs(field.packet.chi_plus) * abs(field.packet.chi_minus)
    return weight * float(np.trapezoid(integrand, z))


@settings(max_examples=40, deadline=None)
@given(
    chi=spinors,
    grad=st.floats(min_value=0.01, max_value=20.0),
    t=st.floats(min_value=0.6, max_value=30.0),
)
def test_coherence_matches_quadrature(chi, grad, t):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, grad)
    field = evolve_packet(GaussianPacket(chi_plus=chi[0], chi_minus=chi[1]), app, t)
    assert coherence_norm(field) == pytest.approx(
        _coherence_by_quadrature(field), rel=1e-12, abs=0.0
    )


@settings(max_examples=25, deadline=None)
@given(chi=spinors, t=st.floats(min_value=0.61, max_value=20.0))
def test_coherence_bounded_by_spinor_weight(chi, t):
    field = _field(chi=chi, t=t)
    c = coherence_norm(field)
    assert -1e-12 <= c <= abs(chi[0] * chi[1]) + 1e-9
