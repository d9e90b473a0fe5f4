"""Classical trajectories and the isotropic-spin ensemble.

For isotropic spins cos(beta) is uniform on [-1, 1] (isotropy reduces the
solid-angle measure to exactly that), so the detector deflection
z_d = -z_max * cos(beta) is uniform on [-z_max, z_max]: the "expected" flat
distribution.  The histogram of n such spins is Multinomial(n, p) over the
bins' exact masses p and the mass outside the edges, and it is drawn as one
multinomial draw (``Histogram.draw``), in O(bins) time and memory for any n.

This module runs in Python floats: numpy is imported only inside the names
kept for the benchmark's tracer (``chunked_samples``,
``Histogram.from_samples``).  RNG: Python's MT19937 via
``random.Random(seed)``, with exact binomial draws (``_binomial``) up to
a mean of about 2**53 draws, so a seed gives the same counts on every run.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import random
from array import array
from dataclasses import dataclass

from .core import (
    Apparatus,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    _linspace,
    apparatus_schedule,
    derive_timing,
    kick_integrals,
)
from .errors import DomainError, InvalidParameterError

_CHUNK = 1 << 18  # samples per RNG sub-stream of chunked_samples
# counts past it do not fit Histogram.counts' int64
_MAX_DRAWS = 2**63 - 1
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2*pi*k) * (k/e)**k) for an integer k >= 1: from
    lgamma up to 15, and by its asymptotic series past it, which is exact to
    rounding there."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    x = float(k)
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _bd0(x: int, mean: float) -> float:
    """x*log(x/mean) + mean - x, by its series in (x - mean)/(x + mean) where
    x is near the mean, so that it keeps its relative precision there."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = d / (x + mean)
    s, term, v2, j = d * v, 2.0 * x * v, v * v, 3
    while True:
        term *= v2
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2


def _log_pmf(n: int, p: float, k: int) -> float:
    """log of the Binomial(n, p) probability of k, in Loader's saddle-point
    form (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000): near the mode it keeps its absolute precision at
    any n, where a difference of lgammas of order n*log(n) would not."""
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p)
            - _bd0(n - k, n * (1.0 - p)) - _HALF_LOG_2PI - 0.5 * math.log(k * (n - k) / n))


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """A Binomial(n, p) draw: Devroye's geometric method (BG) for n*p < 10
    and Hormann's transformed rejection with squeeze (BTRS, 1993) above it,
    the pair Python 3.12's ``random.binomialvariate`` uses, taken for
    p <= 1/2 and mirrored above it.  Every log is of a number in (0, 1],
    1 - random() in place of random(), so that no draw fails on 0.  The
    draw is exact while n*p is below about 2**53; above it BTRS's candidate
    count, computed in doubles, lands on their spacing."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    uniform = rng.random
    if n * p < 10.0:
        # the gaps between successes are geometric: the count of gaps that
        # fit in n trials; a gap past the trials left ends the draw before
        # it is floored, so that a gap past the float range cannot overflow
        log_q = math.log1p(-p)
        successes = trials = 0
        while True:
            gap = math.log(1.0 - uniform()) / log_q
            if gap >= n - trials:
                return successes
            trials += math.floor(gap) + 1
            successes += 1
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    log_mode = None
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # random() gave 0: the hat is unbounded there
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - uniform()
        if us >= 0.07 and v <= v_r:
            return k
        if log_mode is None:  # set up on the first draw the squeeze misses
            alpha = (2.83 + 5.1 / b) * spq
            mode = math.floor((n + 1) * p)
            log_mode = _log_pmf(n, p, mode)
        if math.log(v * alpha / (a / (us * us) + b)) <= _log_pmf(n, p, k) - log_mode:
            return k


@dataclass(frozen=True)
class ClassicalState:
    """Position and momentum along z at time t."""

    z: float
    p_z: float
    t: float


@dataclass(frozen=True)
class Histogram:
    """Binned counts with strictly increasing edges; counts sum to n_total.

    ``edges`` and ``counts`` are held as ``array('d')`` and ``array('q')``,
    which ``np.asarray`` views without a copy.
    """

    edges: array
    counts: array
    n_total: int

    def __post_init__(self) -> None:
        try:
            edges, counts = array("d", self.edges), array("q", self.counts)
        except (TypeError, OverflowError) as exc:  # not floats, or counts not int64
            raise InvalidParameterError(f"histogram edges or counts malformed: {exc}") from exc
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        if len(edges) < 2 or not all(map(operator.lt, edges, edges[1:])):
            raise InvalidParameterError("histogram edges must be strictly increasing")
        if len(counts) != len(edges) - 1 or min(counts) < 0:
            raise InvalidParameterError("histogram counts malformed")
        if sum(counts) != self.n_total:
            raise InvalidParameterError(f"counts sum {sum(counts)} != n_total {self.n_total}")

    @classmethod
    def draw(cls, n: int, seed: int, edges, masses, outside: float) -> "Histogram":
        """Counts of n independent draws from a distribution whose mass is
        ``masses[i]`` in bin i and ``outside`` beyond the edges: one
        Multinomial(n, [*masses, outside]) draw of ``random.Random(seed)``,
        as a binomial draw per category of the draws the categories before
        it left, with its share of the mass they left.

        Draws outside the edges are not binned: n_total counts the rest.  The
        masses are clipped to [0, 1] and scaled down if their sum passes 1;
        a NaN mass is a DomainError.  The last category gets whatever
        the others leave, so the heaviest category is drawn last: it absorbs
        the rounding of the masses' sum, and a category of mass 0 gets no
        draw.
        """
        if n < 1:
            raise InvalidParameterError(f"ensemble size must be >= 1, got {n}")
        if n > _MAX_DRAWS:
            raise DomainError(f"ensemble size {n} exceeds {_MAX_DRAWS}, the largest draw")
        p = [min(max(m, 0.0), 1.0) for m in (*masses, outside)]
        if any(map(math.isnan, p)):
            raise DomainError("an ensemble bin mass is NaN")
        total = max(1.0, math.fsum(p))
        p = [m / total for m in p]
        order = list(range(len(p)))
        heaviest = max(order, key=p.__getitem__)
        order[heaviest], order[-1] = order[-1], heaviest
        rng = random.Random(seed)
        counts = [0] * len(p)
        left, rest = n, math.fsum(p)
        for i in order[:-1]:
            if left == 0:
                break
            if p[i] > 0.0:
                counts[i] = _binomial(rng, left, min(1.0, p[i] / rest))
                left -= counts[i]
            rest -= p[i]
        counts[order[-1]] = left
        return cls(edges=edges, counts=counts[:-1], n_total=n - counts[-1])

    # Not called by sgsim: the benchmark's tracer wraps it by name (ROADMAP open item 1).
    @classmethod
    def from_samples(cls, samples, edges) -> "Histogram":
        """Bin samples; values outside the edges are dropped, and n_total
        reflects the binned count."""
        import numpy as np

        counts, _ = np.histogram(samples, bins=edges)
        return cls(edges=np.asarray(edges, float).tolist(), counts=counts.tolist(),
                   n_total=int(counts.sum()))

    @property
    def widths(self) -> array:
        return array("d", [hi - lo for lo, hi in zip(self.edges, self.edges[1:])])

    @property
    def frequencies(self) -> array:
        n = max(self.n_total, 1)
        return array("d", [c / n for c in self.counts])

    def to_csv_text(self) -> str:
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, c in zip(self.edges, self.edges[1:], self.counts):
            lines.append(f"{lo:.17g},{hi:.17g},{c}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "n_total": int(self.n_total),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True) + "\n"


def classical_trajectory(
    mu_z: float,
    apparatus: Apparatus,
    packet: GaussianPacket,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> ClassicalState:
    """Classical z(t), p_z(t) of a moment mu_z, with z = p_z = 0 at emission:
    (mu_z/mu_b) * (q, p) of the kick integrals of the apparatus's field
    schedule, so free flight outside the region and uniform acceleration
    mu_z * dBz/dz / m inside it.
    """
    if not math.isfinite(mu_z) or not math.isfinite(t):
        raise InvalidParameterError("mu_z and t must be finite")
    if t < packet.t_prime:
        raise DomainError(f"t = {t} precedes emission time t' = {packet.t_prime}")
    if t == packet.t_prime:
        return ClassicalState(z=0.0, p_z=0.0, t=t)
    p, q, _ = kick_integrals(apparatus_schedule(apparatus, packet, t, units), t, units)
    scale = mu_z / units.mu_b
    return ClassicalState(z=scale * q, p_z=scale * p, t=t)


# Not called by sgsim: the benchmark's tracer wraps it by name (ROADMAP open item 1).
def chunked_samples(n: int, seed: int, sampler):
    """Draw n samples deterministically from fixed-size sub-seeded chunks;
    ``sampler(rng, size)`` produces one chunk."""
    import numpy as np

    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return np.concatenate(
        [sampler(np.random.default_rng(child), size) for child, size in zip(children, sizes)]
    )


def default_edges(z_max: float, bins: int) -> list[float]:
    """Equal-width bin edges over [-z_max, z_max], those of ``np.linspace``;
    [-1, 1] when z_max = 0."""
    span = z_max if z_max > 0 else 1.0
    return _linspace(-span, span, bins + 1)


def classical_ensemble_mass(edges, z_max: float) -> tuple[list[float], float]:
    """Exact masses of z_d uniform on [-z_max, z_max]: each bin's overlap with
    that interval over 2*z_max, for ascending edges, and the mass outside
    the edges.  At z_max = 0 the point mass at 0 lies in the bin that
    ``np.histogram`` puts 0 in (the last bin is closed), or outside."""
    if z_max > 0.0:
        u = [min(max(e, -z_max), z_max) / z_max for e in edges]
        masses = [0.5 * (hi - lo) for lo, hi in zip(u, u[1:])]
        return masses, 0.5 * ((1.0 + u[0]) + (1.0 - u[-1]))
    masses = [0.0] * (len(edges) - 1)
    holder = bisect.bisect_right(edges, 0.0) - 1
    if holder == len(masses) and edges[-1] == 0.0:  # the last bin is closed
        holder -= 1
    if 0 <= holder < len(masses):
        masses[holder] = 1.0
    return masses, 1.0 - sum(masses)


def classical_ensemble(
    n: int,
    seed: int,
    apparatus: Apparatus,
    packet: GaussianPacket,
    bins: int = 40,
    units: UnitSystem = DEFAULT_UNITS,
) -> Histogram:
    """Histogram of z_d over n isotropically oriented spins in ``bins``
    equal bins over [-z_max, z_max]: one multinomial draw over
    ``classical_ensemble_mass``.  Deterministic for a fixed seed.

    For other edges, call ``Histogram.draw(n, seed, edges,
    *classical_ensemble_mass(edges, z_max))``; draws outside the edges are
    not binned, so n_total may be below n.
    """
    timing = derive_timing(apparatus, packet, units)
    edges = default_edges(timing.z_max, bins)
    return Histogram.draw(n, seed, edges, *classical_ensemble_mass(edges, timing.z_max))
