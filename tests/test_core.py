import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from sgsim.core import _fit_line, apparatus_schedule, flight_schedule


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


def test_flight_schedule_hand_example():
    # at v = 10 from y = 2, layers on [7, 8) and [9, 10) are on from 0.5 to
    # 0.6 and from 0.7 to 0.8 after t' = 0
    schedule = flight_schedule(GaussianPacket(), 2.0, [(7.0, 8.0, 3.0), (9.0, 10.0, -1.0)], 1.0)
    expected = [(0.0, 0.5, 0.0), (0.5, 0.6, 3.0), (0.6, 0.7, 0.0), (0.7, 0.8, -1.0),
                (0.8, 1.0, 0.0)]
    assert len(schedule) == len(expected)
    for segment, want in zip(schedule, expected):
        assert segment == pytest.approx(want, abs=1e-15)


def test_field_crossed_in_no_time_rejected(default_apparatus):
    # next to t' = 1e16 the 0.1 the packet spends in the field rounds away,
    # which would drop the kick; the flight window refuses it
    pkt = GaussianPacket(t_prime=1e16)
    with pytest.raises(InvalidParameterError, match="no time"):
        derive_timing(default_apparatus, pkt)
    with pytest.raises(InvalidParameterError, match="no time"):
        apparatus_schedule(default_apparatus, pkt, 2e16)


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
    lhs = abs((app.y_d - app.y_bar) * dtheta)
    assert lhs == pytest.approx(timing.z_max, rel=1e-12, abs=1e-300)


@settings(deadline=None)
@given(
    x0=st.floats(-10.0, 10.0),
    steps=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=7),
    slope=st.floats(0.1, 100.0) | st.floats(-100.0, -0.1),
    intercept=st.floats(1.0, 100.0) | st.floats(-100.0, -1.0),
    noise=st.lists(st.floats(-1e-3, 1e-3), min_size=8, max_size=8),
)
def test_line_fit_matches_polyfit(x0, steps, slope, intercept, noise):
    # backtrack's fit in Python floats against numpy's least squares, on
    # well-conditioned points: at least 1 apart, within 10 of 0 at the first
    x = list(itertools.accumulate([x0, *steps]))
    y = [slope * xi + intercept + e for xi, e in zip(x, noise)]
    fit_slope, fit_intercept, residual = _fit_line(x, y)
    (ref_slope, ref_intercept), _, *_ = np.polyfit(x, y, 1, full=True)
    assert fit_slope == pytest.approx(ref_slope, rel=1e-9, abs=0.0)
    assert fit_intercept == pytest.approx(ref_intercept, rel=1e-9, abs=0.0)
    assert residual >= 0.0
    # points on a line leave only rounding: a few ulps of the largest |y| per point
    line = [slope * xi + intercept for xi in x]
    ulp = sys.float_info.epsilon * max(map(abs, line))
    assert 0.0 <= _fit_line(x, line)[2] <= len(x) * (8.0 * ulp) ** 2
