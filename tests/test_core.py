import math

import pytest
from hypothesis import given, strategies as st

from sgsim import (
    Apparatus,
    Branch,
    GaussianPacket,
    InvalidParameterError,
    UnitSystem,
    derive_timing,
    detection_time,
    kick_velocity,
)


def test_branch_signs():
    assert Branch.PLUS.deflection_sign == -1
    assert Branch.MINUS.deflection_sign == +1


def test_unit_system_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        UnitSystem(hbar=0.0)
    with pytest.raises(InvalidParameterError):
        UnitSystem(mass=-1.0)
    with pytest.raises(InvalidParameterError):
        UnitSystem(mu_b=math.inf)


def test_apparatus_ordering_enforced():
    with pytest.raises(InvalidParameterError):
        Apparatus(0.0, 2.0, 1.0, 3.0, 1.0)
    with pytest.raises(InvalidParameterError):
        Apparatus(0.0, 0.0, 1.0, 3.0, 1.0)


def test_apparatus_derived_geometry(default_apparatus):
    assert default_apparatus.dy == 1.0
    assert default_apparatus.y_bar == 5.5
    shifted = default_apparatus.translated(3.0)
    assert shifted.y_b == 8.0 and shifted.grad_Bz == default_apparatus.grad_Bz


def test_packet_requires_normalized_spinor():
    with pytest.raises(InvalidParameterError):
        GaussianPacket(chi_plus=1.0, chi_minus=1.0)
    with pytest.raises(InvalidParameterError):
        GaussianPacket(sigma=-1.0)
    with pytest.raises(InvalidParameterError):
        GaussianPacket(k_y=0.0)


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.0, math.nan), math.nan])
def test_packet_rejects_non_finite_spinor(bad):
    # abs(norm - 1) > tol is False for NaN, so the norm check alone lets it in
    with pytest.raises(InvalidParameterError):
        GaussianPacket(chi_plus=bad)
    with pytest.raises(InvalidParameterError):
        GaussianPacket(chi_plus=1.0, chi_minus=bad)


def test_with_spin_replaces_only_spinor(default_packet):
    p = default_packet.with_spin(1.0, 0.0)
    assert p.chi_plus == 1.0 and p.chi_minus == 0.0
    assert p.sigma == default_packet.sigma and p.k_y == default_packet.k_y


def test_derive_timing_hand_example():
    # v = 10, dy = 1, B' = 2 gives v_z = 0.2; L = 20 gives T = 2, z_max = 0.4
    app = Apparatus(y_a=0.0, y_b=5.0, y_c=6.0, y_d=25.5, grad_Bz=2.0)
    pkt = GaussianPacket(k_y=10.0)
    timing = derive_timing(app, pkt)
    assert timing.v == pytest.approx(10.0)
    assert timing.t_b == pytest.approx(0.5)
    assert timing.t_c == pytest.approx(0.6)
    assert timing.t_bar == pytest.approx(0.55)
    assert kick_velocity(app, pkt) == pytest.approx(0.2)
    assert timing.T == pytest.approx(2.0)
    assert timing.z_max == pytest.approx(0.4)


def test_kick_velocity_trivia(default_packet):
    app0 = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    assert kick_velocity(app0, default_packet) == 0.0
    app1 = Apparatus(0.0, 5.0, 6.0, 26.0, 7.0)
    app2 = Apparatus(0.0, 5.0, 6.0, 26.0, 14.0)
    assert kick_velocity(app2, default_packet) == pytest.approx(
        2.0 * kick_velocity(app1, default_packet)
    )


def test_detection_time(default_apparatus, default_packet):
    t_d = detection_time(default_apparatus, default_packet)
    assert t_d == pytest.approx(2.6)


def test_source_past_field_entry_rejected(default_apparatus):
    pkt = GaussianPacket(source=(0.0, 5.5, 0.0))
    with pytest.raises(InvalidParameterError):
        derive_timing(default_apparatus, pkt)


@given(lam=st.floats(min_value=0.1, max_value=10.0))
def test_zmax_scales_with_geometry(lam):
    # rescaling all lengths by lam at fixed beam speed and fixed field step
    # (so the gradient scales by 1/lam) rescales z_max by lam
    base = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    scaled = Apparatus(0.0, 5.0 * lam, 6.0 * lam, 26.0 * lam, 100.0 / lam)
    pkt = GaussianPacket()
    z1 = derive_timing(base, pkt).z_max
    z2 = derive_timing(scaled, pkt).z_max
    assert z2 == pytest.approx(lam * z1, rel=1e-12)


@given(
    y_b=st.floats(min_value=1.0, max_value=50.0),
    dy=st.floats(min_value=0.01, max_value=5.0),
    tail=st.floats(min_value=1.0, max_value=100.0),
    grad=st.floats(min_value=-100.0, max_value=100.0),
    k_y=st.floats(min_value=0.5, max_value=100.0),
)
def test_zmax_two_computations_agree(y_b, dy, tail, grad, k_y):
    # L * dtheta (angular kick) and v_z * T must be the same number
    app = Apparatus(0.0, y_b, y_b + dy, y_b + dy + tail, grad)
    pkt = GaussianPacket(k_y=k_y)
    units = UnitSystem()
    timing = derive_timing(app, pkt, units)
    p_y = units.hbar * pkt.k_y
    dtheta = units.mass * timing.v_z / p_y
    lhs = abs(timing.L * dtheta)
    assert lhs == pytest.approx(timing.z_max, rel=1e-12, abs=1e-300)
