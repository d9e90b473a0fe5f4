import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import find_peaks, peak_prominences, peak_widths

from sgsim import (
    Apparatus,
    BimodalityReport,
    DomainError,
    ExtentError,
    GaussianPacket,
    Grid1D,
    GridState,
    InvalidParameterError,
    Layer,
    LayerStack,
    NoSplitError,
    backtrack_collapse,
    detect_bimodality,
    detection_time,
    dispersion_factor,
    evolve_packet,
    layer_kappa,
    propagate,
    recombine,
    sandwich,
)
from path_integral import hand_kinematics
from sgsim.core import _apparatus_window, apparatus_kicks, field_schedule
from sgsim.experiments import _half_width, _local_maxima, _prominences


# ---------------------------------------------------------------------------
# bimodality


def _gaussian(z, mu, s=1.0):
    return np.exp(-((z - mu) ** 2) / (2 * s * s))


def test_two_separated_gaussians_two_peaks():
    z = np.linspace(-10, 10, 501)
    rep = detect_bimodality(_gaussian(z, -4) + _gaussian(z, 4), z)
    assert rep.peak_count == 2
    assert rep.peak_positions[0] == pytest.approx(-4, abs=0.1)
    assert rep.peak_positions[1] == pytest.approx(4, abs=0.1)
    assert rep.separation_score > 1.0


def test_single_gaussian_one_peak():
    z = np.linspace(-10, 10, 501)
    rep = detect_bimodality(_gaussian(z, 0.0), z)
    assert rep.peak_count == 1
    assert rep.separation_score == 0.0


def test_close_gaussians_merge():
    # equal Gaussians separated by less than 2 sigma form a single hump
    z = np.linspace(-10, 10, 1001)
    rep = detect_bimodality(_gaussian(z, -0.5) + _gaussian(z, 0.5), z)
    assert rep.peak_count == 1


def test_bimodality_input_validation():
    with pytest.raises(InvalidParameterError):
        detect_bimodality(np.ones(8), np.arange(8.0))
    with pytest.raises(InvalidParameterError):
        detect_bimodality(np.zeros(32), np.arange(32.0))
    with pytest.raises(InvalidParameterError):
        detect_bimodality(np.ones(32), np.ones(16))
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            detect_bimodality(np.r_[np.ones(31), bad], np.arange(32.0))


# The numpy peak finder against scipy.signal, the reference it replaces.  The
# two differ only in how they rank peaks of equal height (see _prominences),
# so where two local maxima tie the reference is a sample-by-sample walk.


def _walk_prominences(x, peaks):
    """Prominences and bases by walking from each peak sample by sample:
    left past its own plateau and on to the first sample at or above it,
    right to the first sample above it, each walk keeping its lowest sample
    (of equal lows the one nearest the peak, as scipy does)."""
    prominences, left_bases, right_bases = [], [], []
    for peak in peaks:
        h = x[peak]
        i = peak
        while i > 0 and x[i - 1] == h:
            i -= 1
        left = i
        while i > 0 and x[i - 1] < h:
            i -= 1
            if x[i] < x[left]:
                left = i
        j = right = peak
        while j < x.size - 1 and x[j + 1] <= h:
            j += 1
            if x[j] < x[right]:
                right = j
        prominences.append(h - max(x[left], x[right]))
        left_bases.append(left)
        right_bases.append(right)
    return (np.array(prominences, dtype=float), np.array(left_bases, dtype=np.intp),
            np.array(right_bases, dtype=np.intp))


def _has_ties(x, peaks):
    return np.unique(x[peaks]).size < peaks.size


def _scipy_bimodality(values, coordinates, prominence_frac=0.05):
    """detect_bimodality written on scipy.signal's find_peaks and
    peak_widths, with the walk's prominences where two maxima tie."""
    smooth = np.convolve(values, np.ones(3) / 3.0, mode="same")
    idx, _ = find_peaks(smooth)
    data = (_walk_prominences if _has_ties(smooth, idx) else peak_prominences)(smooth, idx)
    keep = prominence_frac * float(smooth.max()) <= data[0]
    idx, data = idx[keep], tuple(d[keep] for d in data)
    positions = tuple(float(coordinates[i]) for i in idx)
    if idx.size < 2:
        return BimodalityReport(int(idx.size), positions, 0.0)
    order = np.argsort(data[0])[::-1][:2]
    top = np.sort(idx[order])
    k = int(np.searchsorted(idx, top[np.argmax(smooth[top])]))
    widths, _, _, _ = peak_widths(
        smooth, idx[k:k + 1], rel_height=0.5, prominence_data=tuple(d[k:k + 1] for d in data)
    )
    fwhm = float(widths[0]) * float(np.mean(np.diff(coordinates)))
    separation = abs(float(coordinates[top[1]] - coordinates[top[0]]))
    return BimodalityReport(
        int(idx.size), positions, separation / fwhm if fwhm > 0 else math.inf
    )


def _assert_peaks_match_scipy(x, coordinates):
    peaks, _ = find_peaks(x)
    assert np.array_equal(_local_maxima(x), peaks)
    walked = _walk_prominences(x, peaks)
    if not _has_ties(x, peaks):
        for ours, theirs in zip(walked, peak_prominences(x, peaks)):
            assert np.array_equal(ours, theirs)
    prominences = walked[0]
    assert np.array_equal(_prominences(x, peaks), prominences)
    widths = peak_widths(x, peaks, rel_height=0.5, prominence_data=walked)[0]
    ours = [_half_width(x, int(p), q) for p, q in zip(peaks, prominences)]
    assert np.array_equal(np.array(ours, dtype=float), widths)
    if np.convolve(x, np.ones(3) / 3.0, mode="same").max() > 0:
        assert detect_bimodality(x, coordinates) == _scipy_bimodality(x, coordinates)


def _mixture(seed: int) -> np.ndarray:
    """Two Gaussians on 16 to 4096 points over a noise tail of 1e-31 to 1e-3
    of the peak; half of them rounded, which turns the tails into plateaus."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(16, 4097))
    z = np.linspace(-10.0, 10.0, n)
    x = sum(
        rng.uniform(0.2, 1.0) * np.exp(-(((z - rng.uniform(-6, 6)) / rng.uniform(0.3, 3)) ** 2))
        for _ in range(2)
    )
    x = x + 10.0 ** rng.uniform(-31, -3) * rng.random(n)
    if rng.random() < 0.5:
        x = np.round(x, int(rng.integers(1, 16)))
    return x


_PROFILES = st.one_of(
    st.lists(st.integers(0, 4), min_size=16, max_size=300),  # plateaus and ties
    st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=300),
    st.integers(0, 2**32 - 1).map(_mixture),
).map(lambda v: np.asarray(v, dtype=float))


# scipy warns about a zero width, which a subnormal peak has (half of 5e-324
# rounds to 0); the numpy finder must then give 0 too
@pytest.mark.filterwarnings("ignore:some peaks have a width of 0")
@settings(max_examples=300, deadline=None)
@given(profile=_PROFILES, pad=st.tuples(st.integers(0, 20), st.integers(0, 20)))
@example(profile=np.r_[np.zeros(14), 5e-324, 0.0], pad=(0, 0))
@example(profile=np.r_[np.zeros(12), 2.0, 1.0, 2.0, 0.0], pad=(0, 0))
def test_peak_finder_matches_scipy(profile, pad):
    # flat ends: the profile's end values repeated on either side
    x = np.r_[np.full(pad[0], profile[0]), profile, np.full(pad[1], profile[-1])]
    _assert_peaks_match_scipy(x, np.arange(x.size, dtype=float))


def test_tied_peaks_rank_by_position():
    # scipy gives both tied peaks the full prominence 2; ranked by position,
    # the later one rises only 1 above the dip it shares with the earlier one
    x = np.r_[np.zeros(12), 2.0, 1.0, 2.0, 0.0]
    peaks = _local_maxima(x)
    assert peaks.tolist() == [12, 14]
    assert peak_prominences(x, peaks)[0].tolist() == [2.0, 2.0]
    assert _prominences(x, peaks).tolist() == [2.0, 1.0]
    assert _walk_prominences(x, peaks)[0].tolist() == [2.0, 1.0]


@pytest.mark.parametrize(
    "sigma, grad, t_final, n_points",
    [(1.0, 100.0, 5.6, None), (1.0, 1.0, 5.6, None), (2.0, 4.0, 50.0, 16384),
     (2.0, 8.0, 50.0, 16384)],
)
def test_peak_finder_matches_scipy_on_sandwich_densities(sigma, grad, t_final, n_points):
    # The grid propagator's densities on sandwich's grids: at 16384 points
    # their far-field tails carry hundreds of maxima in rounding noise, where
    # the closed form that sandwich samples has two.
    pkt = GaussianPacket(sigma=sigma)
    grid = None
    if n_points is not None:
        f = dispersion_factor(t_final, sigma)
        half = 1.25 * (0.1 * grad * (t_final - 0.55) + 8 * sigma * abs(f)) + sigma
        grid = Grid1D(-half, half, n_points)
    grid = sandwich(pkt, LayerStack((Layer(5.0, 6.0, grad),)), t_final, grid=grid).grid
    schedule = field_schedule(0.0, t_final, [(0.5, 0.6, grad)])  # beam speed 10
    density = propagate(GridState.from_packet(pkt, grid), schedule).density()
    coordinates = grid.points
    _assert_peaks_match_scipy(density, coordinates)
    _assert_peaks_match_scipy(np.convolve(density, np.ones(3) / 3.0, mode="same"), coordinates)


# ---------------------------------------------------------------------------
# collapse backtracking


def test_collapse_point_is_region_center(default_apparatus, default_packet):
    rep = backtrack_collapse(default_packet, default_apparatus)
    hand = hand_kinematics(default_apparatus, default_packet)
    tol = 1e-6 * default_apparatus.dy
    assert abs(rep.y_collapse - hand.y_bar) < tol
    assert rep.residual >= 0.0
    # detector centroids are symmetric and match -+ z_max for this geometry
    assert rep.z_d_plus == pytest.approx(-hand.z_max, rel=1e-9)
    assert rep.z_d_minus == pytest.approx(hand.z_max, rel=1e-9)


def test_collapse_point_translation_invariant(default_apparatus, default_packet):
    base = backtrack_collapse(default_packet, default_apparatus)
    a = default_apparatus
    shifted_app = Apparatus(a.y_a + 7.5, a.y_b + 7.5, a.y_c + 7.5, a.y_d + 7.5, a.grad_Bz)
    shifted = backtrack_collapse(default_packet, shifted_app)
    assert shifted.y_collapse - base.y_collapse == pytest.approx(7.5, abs=1e-9)


def test_collapse_point_asymmetric_station_choice(default_apparatus, default_packet):
    _, t_c = _apparatus_window(default_apparatus, default_packet)
    t_d = detection_time(default_apparatus, default_packet)
    times = t_c + np.array([0.2, 0.35, 0.8]) * (t_d - t_c)
    rep = backtrack_collapse(default_packet, default_apparatus, times=times)
    y_bar = hand_kinematics(default_apparatus, default_packet).y_bar
    assert abs(rep.y_collapse - y_bar) < 1e-6 * default_apparatus.dy


def test_backtrack_errors(default_apparatus, default_packet):
    no_field = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    with pytest.raises(NoSplitError):
        backtrack_collapse(default_packet, no_field)
    with pytest.raises(InvalidParameterError):
        backtrack_collapse(default_packet, default_apparatus, times=np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        backtrack_collapse(
            default_packet, default_apparatus, times=np.array([0.1, 0.7, 1.0])
        )


def _measured_stations(apparatus, packet):
    times = _apparatus_window(apparatus, packet)[1] + np.linspace(0.1, 1.0, 5)
    z_minus = hand_kinematics(apparatus, packet).center(times)
    return times, -z_minus, z_minus


def test_backtrack_refuses_non_finite_times(default_apparatus, default_packet):
    times, _, _ = _measured_stations(default_apparatus, default_packet)
    times[-1] = math.inf
    with pytest.raises(InvalidParameterError, match="finite"):
        backtrack_collapse(default_packet, default_apparatus, times=times)


def test_backtrack_refuses_non_finite_centroids(default_apparatus, default_packet):
    # an inf centroid made every value of the report NaN
    times, z_plus, z_minus = _measured_stations(default_apparatus, default_packet)
    z_plus[2] = math.inf
    with pytest.raises(InvalidParameterError, match="finite"):
        backtrack_collapse(default_packet, default_apparatus, times=times,
                           centroids=(z_plus, z_minus))


def test_backtrack_refuses_centroids_unlike_the_times(default_apparatus, default_packet):
    times, z_plus, z_minus = _measured_stations(default_apparatus, default_packet)
    with pytest.raises(InvalidParameterError, match="length"):
        backtrack_collapse(default_packet, default_apparatus, times=times,
                           centroids=(z_plus, z_minus[:-1]))


def test_backtrack_refuses_coincident_times(default_apparatus, default_packet):
    # three stations at one time gave y_collapse = -7 from a rank-deficient fit
    t = _apparatus_window(default_apparatus, default_packet)[1] + 1.0
    with pytest.raises(InvalidParameterError, match="distinct"):
        backtrack_collapse(default_packet, default_apparatus, times=[t, t, t])


@pytest.mark.parametrize("grad,y_d", [(1e-300, 1e300), (-1e300, 1e6)])
def test_backtrack_overflowing_fit_is_a_domain_error(default_packet, grad, y_d):
    # the stations' y spread squares past the float range, or the centroids
    # do: a numeric failure, not parallel lines
    with pytest.raises(DomainError, match="fit"):
        backtrack_collapse(default_packet, Apparatus(0.0, 5.0, 6.0, y_d, grad))


def test_backtrack_overflowing_result_is_a_domain_error(default_packet):
    # steep lines extrapolated to a detector at y = 1e300 leave the float range
    app = Apparatus(0.0, 5.0, 6.0, 1e300, 100.0)
    times = _apparatus_window(app, default_packet)[1] + np.linspace(0.1, 1.0, 5)
    z = 1e10 * (10.0 * times - 5.5)
    with pytest.raises(DomainError, match="overflows"):
        backtrack_collapse(default_packet, app, times=times, centroids=(z, -z))


def test_backtrack_with_measured_centroids(default_apparatus, default_packet):
    hand = hand_kinematics(default_apparatus, default_packet)
    times = _apparatus_window(default_apparatus, default_packet)[1] + np.linspace(0.1, 1.0, 5)
    z_p = -hand.center(times) + 1e-4 * np.sin(np.arange(5))
    z_m = +hand.center(times) - 1e-4 * np.sin(np.arange(5))
    rep = backtrack_collapse(
        default_packet, default_apparatus, times=times, centroids=(z_p, z_m)
    )
    assert abs(rep.y_collapse - hand.y_bar) < 1e-3
    assert rep.residual > 0.0


# ---------------------------------------------------------------------------
# recombination


def _reversal(stage1: Apparatus, gap: float = 1e-4) -> Apparatus:
    y_b2 = stage1.y_c + gap * stage1.dy
    return Apparatus(
        y_a=stage1.y_a,
        y_b=y_b2,
        y_c=y_b2 + stage1.dy,
        y_d=y_b2 + stage1.dy + (stage1.y_d - stage1.y_c),
        grad_Bz=-stage1.grad_Bz,
    )


def test_perfect_recombination(default_apparatus, default_packet):
    stage2 = _reversal(default_apparatus)
    res = recombine(default_packet, default_apparatus, stage2)
    assert res.fidelity == pytest.approx(1.0, abs=1e-6)
    assert res.overlap == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t_prime,shift", [(1e8, 0.0), (0.0, 1e7)])
def test_late_or_far_reversal_recombines(default_apparatus, t_prime, shift):
    # near t' = 1e8, or with the fields 1e7 downstream, the stages' kicks,
    # differences of flight times, differ past the reversal's tolerance; the
    # reversal is read from the fields, so the stages still recombine
    a = default_apparatus
    stage1 = Apparatus(a.y_a, a.y_b + shift, a.y_c + shift, a.y_d + shift, a.grad_Bz)
    res = recombine(GaussianPacket(t_prime=t_prime), stage1, _reversal(stage1))
    assert res.fidelity == pytest.approx(1.0, abs=1e-6)


def test_pi_phase_error_destroys_coherence(default_apparatus, default_packet):
    stage2 = _reversal(default_apparatus)
    res = recombine(default_packet, default_apparatus, stage2, phase_error=math.pi)
    assert res.fidelity == pytest.approx(0.0, abs=1e-6)


def test_separated_beams_half_probability(default_apparatus, default_packet):
    res = recombine(default_packet, default_apparatus, None)
    assert res.fidelity == pytest.approx(0.5, abs=1e-3)
    assert res.separation > 0.0


@pytest.mark.parametrize("grad", [1.0, 5.0, 10.0, 20.0, 100.0])
def test_separated_overlap_matches_closed_form(default_packet, grad):
    # Free flight preserves the branch overlap, so it is the overlap of the
    # two oppositely kicked packets at the kick:
    # exp(-(m * v_z * sigma * |f(tbar - t')| / hbar)^2).
    app = Apparatus(0.0, 5.0, 6.0, 26.0, grad)
    hand = hand_kinematics(app, default_packet)
    sigma = default_packet.sigma
    f_bar = dispersion_factor(hand.t_bar - default_packet.t_prime, sigma)
    expected = math.exp(-(hand.v_z * sigma * abs(f_bar)) ** 2)  # hbar = m = 1
    assert recombine(default_packet, app, None).overlap == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


def test_fidelity_monotone_in_phase_error(default_apparatus, default_packet):
    stage2 = _reversal(default_apparatus)
    deltas = np.linspace(0.0, math.pi, 15)
    fids = [
        recombine(default_packet, default_apparatus, stage2, phase_error=d).fidelity
        for d in deltas
    ]
    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))


def test_recombine_refuses_an_overflowing_overlap():
    # at a gradient of 1e160 the momentum mismatch of the two branches squares
    # past the float range (and S is inf); a library caller gets a DomainError
    with pytest.raises(DomainError, match="overflows"):
        recombine(GaussianPacket(sigma=1e-8), Apparatus(0.0, 5.0, 6.0, 26.0, 1e160), None)


def test_recombine_past_an_overflowing_mismatch_has_no_overlap():
    # at a gradient of 1e150 the momentum mismatch squares past the float
    # range while the phase stays finite: the branches do not overlap at all
    result = recombine(GaussianPacket(sigma=1e-8), Apparatus(0.0, 5.0, 6.0, 26.0, 1e150), None)
    assert result.fidelity == 0.5 and result.overlap == 0.0


def test_recombine_geometry_errors(default_apparatus, default_packet):
    overlapping = Apparatus(0.0, 5.5, 6.5, 26.0, -100.0)
    with pytest.raises(InvalidParameterError, match="stage 2"):
        recombine(default_packet, default_apparatus, overlapping)
    same_sign = _reversal(default_apparatus)
    same_sign = Apparatus(
        same_sign.y_a, same_sign.y_b, same_sign.y_c, same_sign.y_d,
        +default_apparatus.grad_Bz,
    )
    with pytest.raises(InvalidParameterError):
        recombine(default_packet, default_apparatus, same_sign)
    no_field = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    with pytest.raises(NoSplitError):
        recombine(default_packet, no_field, None)


# ---------------------------------------------------------------------------
# multilayer sandwich


def test_layer_validation():
    with pytest.raises(InvalidParameterError):
        Layer(2.0, 1.0, 5.0)
    with pytest.raises(InvalidParameterError, match="overlap"):
        LayerStack((Layer(1.0, 3.0, 5.0), Layer(2.0, 4.0, 5.0)))


def test_layer_kappa(default_packet):
    layer = Layer(5.0, 6.0, 100.0)
    # dt = dy / v = 0.1, so kappa = 1 * 100 * 0.1 * 1 = 10
    assert layer_kappa(layer, default_packet) == pytest.approx(10.0)


def test_strong_layer_splits(default_packet):
    res = sandwich(default_packet, LayerStack((Layer(5.0, 6.0, 100.0),)), 5.6)
    assert res.peak_count == 2
    assert res.kappas == (10.0,)
    assert res.histogram.n_total > 0


def test_weak_layer_does_not_split(default_packet):
    res = sandwich(default_packet, LayerStack((Layer(5.0, 6.0, 1.0),)), 5.6)
    assert res.peak_count == 1
    assert res.kappas == (0.1,)


def test_no_layers_single_peak(default_packet):
    res = sandwich(default_packet, LayerStack(()), 3.0)
    assert res.peak_count == 1


def test_opposed_layers_cancel(default_packet):
    stack = LayerStack((Layer(5.0, 6.0, 100.0), Layer(6.0, 7.0, -100.0)))
    res = sandwich(default_packet, stack, 3.0)
    assert res.peak_count == 1  # second layer undoes the first kick


def _min_splitting_gradient(sigma: float) -> float:
    """Bisect for the smallest layer gradient that yields two peaks.

    Evaluated in the far field, where the split criterion reduces to the
    momentum kick exceeding the packet's intrinsic momentum spread.
    """
    from sgsim import Grid1D, dispersion_factor

    pkt = GaussianPacket(sigma=sigma)
    t_final = 50.0

    def splits(g: float) -> bool:
        v_z = 0.1 * g  # layer transit time 0.1 at beam speed 10
        f = dispersion_factor(t_final, sigma)
        half = 1.25 * (v_z * (t_final - 0.55) + 8 * sigma * abs(f)) + sigma
        grid = Grid1D(-half, half, 16384)
        res = sandwich(pkt, LayerStack((Layer(5.0, 6.0, g),)), t_final, grid=grid)
        return res.peak_count >= 2

    lo, hi = 0.05, 60.0
    assert not splits(lo) and splits(hi)
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        if splits(mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_wider_beams_split_at_weaker_fields():
    thresholds = [_min_splitting_gradient(s) for s in (1.0, 2.0, 4.0)]
    assert thresholds[0] > thresholds[1] > thresholds[2]


def test_sandwich_rejects_upstream_layers(default_packet):
    with pytest.raises(InvalidParameterError, match="upstream"):
        sandwich(default_packet, LayerStack((Layer(-1.0, 1.0, 10.0),)), 2.0)
    with pytest.raises(DomainError):
        sandwich(default_packet, LayerStack(()), 0.0)


def test_sandwich_reads_the_packet_source():
    # a beam leaving y = 2 meets the layer at 7..8 when an unsourced beam,
    # leaving y = 0, meets it at 5..6: the field schedules are the same
    sourced = sandwich(GaussianPacket(source=(0.0, 2.0, 0.0)),
                       LayerStack((Layer(7.0, 8.0, 100.0),)), 5.6)
    plain = sandwich(GaussianPacket(), LayerStack((Layer(5.0, 6.0, 100.0),)), 5.6)
    assert sourced.to_json_dict() == plain.to_json_dict()
    assert np.array_equal(sourced.histogram.counts, plain.histogram.counts)
    for got, want in zip(sourced.report.peak_positions, (-50.512, 50.512)):
        assert got == pytest.approx(want, abs=sourced.grid.dz)


def test_sandwich_resolves_kicks_past_the_grid_band(default_packet):
    # kick k = 40 against pi/dz = 20.7 on the default 4096-point grid, which a
    # split-step propagation on that grid could not hold: the sampled closed
    # form puts the branches at -+v_z*(t - tbar) = -+40*5.05
    res = sandwich(default_packet, LayerStack((Layer(5.0, 6.0, 400.0),)), 5.6)
    dz = res.grid.dz
    assert 40.0 > math.pi / dz
    assert res.peak_count == 2
    for got, want in zip(res.report.peak_positions, (-202.0, 202.0)):
        assert got == pytest.approx(want, abs=dz)


def test_sandwich_refuses_grid_too_narrow(default_packet):
    stack = LayerStack((Layer(5.0, 6.0, 100.0),))
    with pytest.raises(ExtentError, match="boundary"):
        sandwich(default_packet, stack, 5.6, grid=Grid1D(-20.0, 20.0, 1024))


def test_sandwich_refuses_a_grid_too_coarse(default_packet):
    # at a gradient of 1e7 the branches, about 1 wide, lie 5e5 out on a
    # default grid whose step is 3e3: every sampled point reads 0
    with pytest.raises(ExtentError, match="grid step"):
        sandwich(default_packet, LayerStack((Layer(5.0, 6.0, 1e7),)), 5.6)


@pytest.mark.parametrize("grad", [3e4, 1e5, 2e5, 1e6])
def test_sandwich_histogram_holds_the_nominal_mass(grad):
    # the default grid's step (9.3 at 3e4, 310 at 1e6) is past the density
    # sd of 4.0 here; each bin holds the closed form's exact mass, so the
    # counts sum to the nominal million up to one rounding per bin
    res = sandwich(GaussianPacket(), LayerStack((Layer(5.0, 6.0, grad),)), 5.6)
    assert res.grid.dz > 4.0
    bins = len(res.histogram.counts)
    assert abs(res.histogram.n_total - 1_000_000) <= bins / 2


@pytest.mark.parametrize("chi", [(0.5 ** 0.5, 0.5 ** 0.5), (0.6, 0.8j)])
def test_sandwich_and_evolve_read_one_density(chi):
    # one layer at 5..6 is the apparatus's one field window: the same state,
    # so the same density, bit for bit
    packet = GaussianPacket(chi_plus=chi[0], chi_minus=chi[1])
    result = sandwich(packet, LayerStack((Layer(5.0, 6.0, 100.0),)), 5.6)
    field = evolve_packet(packet, Apparatus(0.0, 5.0, 6.0, 26.0, 100.0), 5.6)
    assert np.array_equal(result.density, field.z_marginal_density(result.grid.points))


def test_kick_velocity_consistency(default_apparatus, default_packet):
    # the layer picture and the apparatus picture agree on the kick
    layer = Layer(default_apparatus.y_b, default_apparatus.y_c, default_apparatus.grad_Bz)
    v = default_packet.k_y  # hbar = m = 1
    dt = (layer.y_end - layer.y_start) / v
    v_z_layer = layer.grad_Bz * dt  # mu_b = m = 1
    t_d = detection_time(default_apparatus, default_packet)
    p, _, _ = apparatus_kicks(default_apparatus, default_packet, t_d)
    assert p == pytest.approx(v_z_layer)
