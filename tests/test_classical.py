import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from sgsim import (
    Apparatus,
    GaussianPacket,
    Histogram,
    InvalidParameterError,
    classical_ensemble,
    classical_trajectory,
    derive_timing,
    meanfield_ensemble,
)
from sgsim.classical import classical_ensemble_mass, default_edges


def _rk4_oracle(mu_z, apparatus, packet, t, n_steps=4000):
    """Integrate z'' = mu_z * B' * theta(y in region) / m with RK4.

    Steps are aligned with the field switch times, so the discontinuous force
    never straddles a step.
    """
    timing = derive_timing(apparatus, packet)
    cuts = sorted({packet.t_prime, timing.t_b, timing.t_c, t})
    cuts = [c for c in cuts if packet.t_prime <= c <= t]
    z, p = 0.0, 0.0
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (t0 + t1)
        force = mu_z * apparatus.grad_Bz if timing.t_b <= mid < timing.t_c else 0.0
        h = (t1 - t0) / n_steps
        for _ in range(n_steps):
            # rhs: dz/dt = p/m, dp/dt = force (constant within the segment)
            k1z, k1p = p, force
            k2z, k2p = p + 0.5 * h * k1p, force
            k3z, k3p = p + 0.5 * h * k2p, force
            k4z, k4p = p + h * k3p, force
            z += h * (k1z + 2 * k2z + 2 * k3z + k4z) / 6.0
            p += h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return z, p


@pytest.mark.parametrize("mu_z", [-1.0, -0.3, 0.0, 0.7, 1.0])
@pytest.mark.parametrize("t", [0.3, 0.55, 1.7, 2.6])
def test_trajectory_matches_rk4(default_apparatus, default_packet, mu_z, t):
    state = classical_trajectory(mu_z, default_apparatus, default_packet, t)
    z_ref, p_ref = _rk4_oracle(mu_z, default_apparatus, default_packet, t)
    assert state.z == pytest.approx(z_ref, abs=1e-9)
    assert state.p_z == pytest.approx(p_ref, abs=1e-9)


def test_trajectory_continuity_at_switches(default_apparatus, default_packet):
    timing = derive_timing(default_apparatus, default_packet)
    for t_switch in (timing.t_b, timing.t_c):
        eps = 1e-12
        before = classical_trajectory(0.5, default_apparatus, default_packet, t_switch - eps)
        at = classical_trajectory(0.5, default_apparatus, default_packet, t_switch)
        after = classical_trajectory(0.5, default_apparatus, default_packet, t_switch + eps)
        assert abs(before.z - at.z) < 1e-9 and abs(after.z - at.z) < 1e-9
        assert abs(before.p_z - at.p_z) < 1e-9 and abs(after.p_z - at.p_z) < 1e-9


def test_region_displacement_second_order(default_apparatus, default_packet):
    # starting from p_z = 0, the z change across the region is exactly
    # (mu_z / 2m) * B' * dt^2
    timing = derive_timing(default_apparatus, default_packet)
    mu_z = 0.8
    at_exit = classical_trajectory(mu_z, default_apparatus, default_packet, timing.t_c)
    dt = default_apparatus.dy / timing.v
    expected = 0.5 * mu_z * default_apparatus.grad_Bz * dt**2
    assert at_exit.z == pytest.approx(expected, rel=1e-14)


def test_trajectory_domain_errors(default_apparatus, default_packet):
    from sgsim import DomainError

    with pytest.raises(DomainError):
        classical_trajectory(1.0, default_apparatus, default_packet, -0.1)
    with pytest.raises(InvalidParameterError):
        classical_trajectory(math.nan, default_apparatus, default_packet, 1.0)


def test_ensemble_flat_interior(default_apparatus, default_packet):
    n, bins = 200_000, 20
    hist = classical_ensemble(n, 7, default_apparatus, default_packet, bins)
    p = 1.0 / bins  # equal-width bins over the full support
    se = math.sqrt(p * (1 - p) / n)
    interior = hist.frequencies[1:-1]
    assert np.all(np.abs(interior - p) < 5 * se)


def test_ensemble_support(default_apparatus, default_packet):
    timing = derive_timing(default_apparatus, default_packet)
    wide = np.linspace(-2 * timing.z_max, 2 * timing.z_max, 81)
    hist = Histogram.draw(50_000, 3, wide, *classical_ensemble_mass(wide, timing.z_max))
    centers = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    occupied = centers[hist.counts > 0]
    assert np.all(np.abs(occupied) <= timing.z_max + hist.widths[0])


def test_zero_gradient_all_in_central_bin(default_packet):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 0.0)
    hist = classical_ensemble(10_000, 5, app, default_packet, 9)
    center_bin = np.argmax(hist.counts)
    assert hist.counts[center_bin] == hist.n_total
    assert hist.edges[center_bin] <= 0.0 <= hist.edges[center_bin + 1]


def test_ensemble_deterministic(default_apparatus, default_packet):
    h1 = classical_ensemble(30_000, 99, default_apparatus, default_packet)
    h2 = classical_ensemble(30_000, 99, default_apparatus, default_packet)
    assert np.array_equal(h1.counts, h2.counts)
    assert np.array_equal(h1.edges, h2.edges)


def test_ensemble_masses_are_overlaps_with_the_support():
    # z_d is uniform on [-z_max, z_max]: a bin's mass is its overlap with that
    # interval over 2*z_max, so bins past it hold none
    z_max = 20.5
    edges = z_max * np.array([-3.0, -1.5, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0])
    masses, outside = classical_ensemble_mass(edges, z_max)
    assert np.array_equal(masses, [0.0, 0.0, 0.25, 0.25, 0.125, 0.375, 0.0])
    assert outside == 0.0
    masses, outside = classical_ensemble_mass(z_max * np.array([-0.5, 0.0, 0.75]), z_max)
    assert np.array_equal(masses, [0.25, 0.375]) and outside == 0.375
    # at z_max = 0 the point mass lies in the bin that np.histogram puts 0
    # in (its last bin is closed), or outside the edges
    for edges in ([-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0], [-1.0, 0.5, 2.0], [1.0, 2.0]):
        masses, outside = classical_ensemble_mass(edges, 0.0)
        assert np.array_equal(masses, np.histogram([0.0], edges)[0])
        assert outside == 1.0 - masses.sum()


@pytest.mark.parametrize("bins", [33, 97, "wide"])
def test_draw_gives_no_draw_to_a_massless_category(default_apparatus, default_packet, bins):
    # numpy gives the last category whatever the others leave.  Drawn last,
    # the heaviest category absorbs the rounding of the masses' sum, so
    # edges that cover the support lose no draw and a bin past it gets none,
    # even at n = 10**18 (with the outside category last, 33 and 97 bins
    # lost 347 and 1666 draws to it)
    n = 10**18
    if bins == "wide":
        z_max = derive_timing(default_apparatus, default_packet).z_max
        edges = z_max * np.array([-3.0, -1.0, -0.3, 0.5, 1.0, 3.0])
        hist = Histogram.draw(n, 5, edges, *classical_ensemble_mass(edges, z_max))
    else:
        hist = classical_ensemble(n, 5, default_apparatus, default_packet, bins)
    assert hist.n_total == n
    if bins == "wide":
        assert hist.counts[0] == hist.counts[-1] == 0


@pytest.mark.parametrize("n", [10**3, 10**5, 10**7])
def test_ensemble_chi_square_against_flat(default_apparatus, default_packet, n):
    bins = 40
    hist = classical_ensemble(n, 2024, default_apparatus, default_packet, bins)
    expected = n / bins  # the default edges cut the support into equal bins
    stat = float(np.sum((hist.counts - expected) ** 2 / expected))
    assert hist.n_total == n
    assert stat < chi2.ppf(0.999, bins - 1)


@pytest.mark.parametrize("ensemble", ["classical", "meanfield"])
def test_ensemble_memory_does_not_grow_with_n(default_apparatus, default_packet, ensemble):
    # one multinomial draw over the bins' masses takes O(bins) memory at any
    # n; drawing 10**7 samples and binning them peaked at 153 MiB
    def draw():
        if ensemble == "classical":
            return classical_ensemble(10**7, 1, default_apparatus, default_packet)
        return meanfield_ensemble(10**7, 1, default_packet, default_apparatus, 3.0)

    draw()
    tracemalloc.start()
    try:
        draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_histogram_validation():
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0, 0.5], counts=[1, 1], n_total=2)
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0], counts=[1, 1], n_total=2)
    with pytest.raises(InvalidParameterError):
        Histogram(edges=[0.0, 1.0, 2.0], counts=[1, 1], n_total=5)


def _histogram_from_json(d: dict) -> Histogram:
    """The inverse of ``Histogram.to_json_dict``."""
    return Histogram(np.asarray(d["edges"], float), np.asarray(d["counts"]), int(d["n_total"]))


def test_histogram_serialization_roundtrip(rng):
    samples = rng.normal(size=1000)
    hist = Histogram.from_samples(samples, np.linspace(-4, 4, 17))
    again = _histogram_from_json(json.loads(hist.to_json_text()))
    assert np.array_equal(again.counts, hist.counts)
    assert np.allclose(again.edges, hist.edges)
    csv = hist.to_csv_text()
    assert csv.splitlines()[0] == "bin_lo,bin_hi,count"
    assert len(csv.splitlines()) == 17


@given(
    z_max=st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=100.0)),
    bins=st.integers(2, 200),
)
def test_default_edges_properties(z_max, bins):
    edges = default_edges(z_max, bins)
    assert edges.size == bins + 1
    assert np.all(np.diff(edges) > 0)
    assert edges[0] == -edges[-1]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 5000))
def test_ensemble_count_conserved(seed, n):
    app = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    hist = classical_ensemble(n, seed, app, GaussianPacket())
    assert hist.n_total == int(hist.counts.sum()) <= n
