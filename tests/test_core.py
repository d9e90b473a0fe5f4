import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgsim import (
    Apparatus,
    Branch,
    GaussianPacket,
    DomainError,
    InvalidParameterError,
    UnitSystem,
    detection_time,
)
from path_integral import hand_kinematics
from sgsim.core import (
    _MAX_POINTS,
    _apparatus_window,
    _linspace,
    apparatus_kicks,
    apparatus_schedule,
    flight_schedule,
)
from sgsim.scalar import _fit_line


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


def _kicks_at_detector(app, pkt, units=UnitSystem()):
    return apparatus_kicks(app, pkt, detection_time(app, pkt, units), units)


def test_derive_timing_hand_example():
    # v = 10, dy = 1, B' = 2 gives v_z = 0.2; L = 20 gives T = 2, z_max = 0.4
    app = Apparatus(y_a=0.0, y_b=5.0, y_c=6.0, y_d=25.5, grad_Bz=2.0)
    pkt = GaussianPacket(k_y=10.0)
    t_b, t_c = _apparatus_window(app, pkt)
    t_d = detection_time(app, pkt)
    assert t_d == pytest.approx(25.5 / 10.0)
    assert t_b == pytest.approx(0.5)
    assert t_c == pytest.approx(0.6)
    p, q, _ = apparatus_kicks(app, pkt, t_d)
    assert p == pytest.approx(0.2)  # v_z = p/m
    assert q == pytest.approx(0.2 * (t_d - 0.55))  # a kick at t_bar = 0.55
    assert abs(q) == pytest.approx(0.4)


def test_kick_velocity_trivia(default_packet):
    app0 = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    assert _kicks_at_detector(app0, default_packet)[0] == 0.0
    app1 = Apparatus(0.0, 5.0, 6.0, 26.0, 7.0)
    app2 = Apparatus(0.0, 5.0, 6.0, 26.0, 14.0)
    assert _kicks_at_detector(app2, default_packet)[0] == pytest.approx(
        2.0 * _kicks_at_detector(app1, default_packet)[0]
    )


def test_detection_time(default_apparatus, default_packet):
    t_d = detection_time(default_apparatus, default_packet)
    assert t_d == pytest.approx(2.6)


def test_source_past_field_entry_rejected(default_apparatus):
    pkt = GaussianPacket(source=(0.0, 5.5, 0.0))
    with pytest.raises(InvalidParameterError, match="upstream"):
        detection_time(default_apparatus, pkt)


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
        detection_time(default_apparatus, pkt)
    with pytest.raises(InvalidParameterError, match="no time"):
        apparatus_schedule(default_apparatus, pkt, 2e16)


@given(lam=st.floats(min_value=0.1, max_value=10.0))
def test_zmax_scales_with_geometry(lam):
    # rescaling all lengths by lam at fixed beam speed and fixed field step
    # (so the gradient scales by 1/lam) rescales z_max by lam
    base = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    scaled = Apparatus(0.0, 5.0 * lam, 6.0 * lam, 26.0 * lam, 100.0 / lam)
    pkt = GaussianPacket()
    z1 = abs(_kicks_at_detector(base, pkt)[1])
    z2 = abs(_kicks_at_detector(scaled, pkt)[1])
    assert z2 == pytest.approx(lam * z1, rel=1e-12)


@given(
    y_b=st.floats(min_value=1.0, max_value=50.0),
    dy=st.floats(min_value=0.01, max_value=5.0),
    tail=st.floats(min_value=1.0, max_value=100.0),
    grad=st.floats(min_value=-100.0, max_value=100.0),
    k_y=st.floats(min_value=0.5, max_value=100.0),
)
@example(y_b=50.0, dy=0.01, tail=100.0, grad=100.0, k_y=0.5)
@example(y_b=50.0, dy=0.01, tail=1.0, grad=-100.0, k_y=100.0)
@example(y_b=49.99999, dy=0.01, tail=1.0, grad=100.0, k_y=6.249987747839336)
def test_zmax_two_computations_agree(y_b, dy, tail, grad, k_y):
    # L * dtheta (angular kick, by hand) and the kick integral q at the
    # detector must be the same number.  The field's crossing time is
    # t_c - t_b, a difference of two rounded flight times, so q carries
    # up to ulp(t_b)/(t_c - t_b) ~ 2**-52 * y_b/dy of relative error,
    # most at y_b = 50, dy = 0.01 with t_b just above a power of 2; the
    # last example is the worst of a scan of that corner (9.2e-13).
    app = Apparatus(0.0, y_b, y_b + dy, y_b + dy + tail, grad)
    pkt = GaussianPacket(k_y=k_y)
    units = UnitSystem()
    hand = hand_kinematics(app, pkt, units)
    p_y = units.hbar * pkt.k_y
    dtheta = units.mass * hand.v_z / p_y
    lhs = abs((app.y_d - hand.y_bar) * dtheta)
    z_max = abs(_kicks_at_detector(app, pkt, units)[1])
    assert lhs == pytest.approx(z_max, rel=1e-12, abs=1e-300)


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


@given(
    start=st.floats(-1e300, 1e300), width=st.floats(0.0, 1e300),
    num=st.integers(2, 300),
)
def test_linspace_is_numpy_bit_for_bit(start, width, num):
    # the ensembles' edges, which numpy drew before and the artifacts hold
    stop = start + width
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


@pytest.mark.parametrize("start,stop", [(-5e-324, 5e-324), (0.0, 1e-320), (-1e-310, 1e-310)])
def test_linspace_of_an_underflowing_step_is_numpy_bit_for_bit(start, stop):
    assert _linspace(start, stop, 41) == np.linspace(start, stop, 41).tolist()


def test_linspace_refuses_a_span_past_the_float_range():
    # numpy's overflow error, which the ensembles' array runs raised
    with pytest.raises(DomainError):
        _linspace(-1e308, 1e308, 41)
    with pytest.raises(DomainError):
        _linspace(-math.inf, math.inf, 41)
    with pytest.raises(InvalidParameterError):
        _linspace(0.0, 1.0, 1)


def test_linspace_refuses_too_many_points_before_building_any():
    # a bin count past the bound would otherwise fill memory one edge at a time
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="points exceed"):
            _linspace(-1.0, 1.0, 10**11 + 1)
        with pytest.raises(DomainError):
            _linspace(-1.0, 1.0, _MAX_POINTS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert len(_linspace(-1.0, 1.0, 1001)) == 1001
