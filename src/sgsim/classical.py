"""Classical trajectories and the isotropic-spin ensemble.

For isotropic spins cos(beta) is uniform on [-1, 1] (isotropy reduces the
solid-angle measure to exactly that), so the detector deflection
z_d = -z_max * cos(beta) is uniform on [-z_max, z_max]: the "expected" flat
distribution.  The histogram of n such spins is Multinomial(n, p) over the
bins' exact masses p and the mass outside the edges, and it is drawn as one
multinomial draw (``Histogram.draw``), in O(bins) time and memory for any n.

RNG: numpy's PCG64 via ``default_rng(seed)``, so a seed gives the same
counts on every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Apparatus,
    DEFAULT_UNITS,
    GaussianPacket,
    UnitSystem,
    apparatus_schedule,
    derive_timing,
    kick_integrals,
)
from .errors import DomainError, InvalidParameterError

_CHUNK = 1 << 18  # samples per RNG sub-stream of chunked_samples
_MAX_DRAWS = 2**63 - 1  # numpy draws counts as int64


@dataclass(frozen=True)
class ClassicalState:
    """Position and momentum along z at time t."""

    z: float
    p_z: float
    t: float


@dataclass(frozen=True)
class Histogram:
    """Binned counts with strictly increasing edges; counts sum to n_total."""

    edges: np.ndarray
    counts: np.ndarray
    n_total: int

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
            raise InvalidParameterError("histogram edges must be strictly increasing")
        if counts.shape != (edges.size - 1,) or np.any(counts < 0):
            raise InvalidParameterError("histogram counts malformed")
        if int(counts.sum()) != self.n_total:
            raise InvalidParameterError(
                f"counts sum {int(counts.sum())} != n_total {self.n_total}"
            )

    @classmethod
    def draw(cls, n: int, seed: int, edges, masses, outside: float) -> "Histogram":
        """Counts of n independent draws from a distribution whose mass is
        ``masses[i]`` in bin i and ``outside`` beyond the edges: one
        Multinomial(n, [*masses, outside]) draw of ``default_rng(seed)``.

        Draws outside the edges are not binned: n_total counts the rest.  The
        masses are clipped to [0, 1] and scaled down if their sum passes 1,
        so numpy's check sum(pvals[:-1]) <= 1 always holds.  numpy gives the
        last category whatever the others leave, so the heaviest category is
        drawn last: it absorbs the rounding of the masses' sum, and a
        category of mass 0 gets no draw.
        """
        if n < 1:
            raise InvalidParameterError(f"ensemble size must be >= 1, got {n}")
        if n > _MAX_DRAWS:
            raise DomainError(f"ensemble size {n} exceeds {_MAX_DRAWS}, the largest draw")
        p = np.clip(np.append(masses, outside), 0.0, 1.0)
        p /= max(1.0, math.fsum(p))
        order = np.arange(p.size)
        heaviest = int(np.argmax(p))
        order[[heaviest, -1]] = order[[-1, heaviest]]
        counts = np.empty(p.size, dtype=np.int64)
        counts[order] = np.random.default_rng(seed).multinomial(n, p[order])
        return cls(edges=edges, counts=counts[:-1], n_total=n - int(counts[-1]))

    # Not called by sgsim: the benchmark's tracer wraps it by name (ROADMAP open item 1).
    @classmethod
    def from_samples(cls, samples: np.ndarray, edges: np.ndarray) -> "Histogram":
        """Bin samples; values outside the edges are dropped, and n_total
        reflects the binned count."""
        counts, _ = np.histogram(samples, bins=edges)
        return cls(edges=np.asarray(edges, float), counts=counts, n_total=int(counts.sum()))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / max(self.n_total, 1)

    def to_csv_text(self) -> str:
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, c in zip(self.edges[:-1], self.edges[1:], self.counts):
            lines.append(f"{lo:.17g},{hi:.17g},{int(c)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
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


def deflection(
    beta: float,
    apparatus: Apparatus,
    packet: GaussianPacket,
    units: UnitSystem = DEFAULT_UNITS,
) -> float:
    """Detector-plane deflection z_d = -z_max * cos(beta) for polar angle beta."""
    if not math.isfinite(beta) or not (0.0 <= beta <= math.pi):
        raise InvalidParameterError(f"beta must lie in [0, pi], got {beta}")
    timing = derive_timing(apparatus, packet, units)
    return -timing.z_max * math.cos(beta)


# Not called by sgsim: the benchmark's tracer wraps it by name (ROADMAP open item 1).
def chunked_samples(n: int, seed: int, sampler) -> np.ndarray:
    """Draw n samples deterministically from fixed-size sub-seeded chunks;
    ``sampler(rng, size)`` produces one chunk."""
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return np.concatenate(
        [sampler(np.random.default_rng(child), size) for child, size in zip(children, sizes)]
    )


def default_edges(z_max: float, bins: int) -> np.ndarray:
    """Equal-width bin edges over [-z_max, z_max]; [-1, 1] when z_max = 0."""
    span = z_max if z_max > 0 else 1.0
    return np.linspace(-span, span, bins + 1)


def classical_ensemble_mass(edges, z_max: float) -> tuple[np.ndarray, float]:
    """Exact masses of z_d uniform on [-z_max, z_max]: each bin's overlap with
    that interval over 2*z_max, for ascending edges, and the mass outside
    the edges.  At z_max = 0 the point mass at 0 lies in the bin that
    ``np.histogram`` puts 0 in (the last bin is closed), or outside."""
    edges = np.asarray(edges, dtype=float)
    if z_max > 0.0:
        u = np.clip(edges, -z_max, z_max) / z_max
        return 0.5 * np.diff(u), 0.5 * ((1.0 + u[0]) + (1.0 - u[-1]))
    mass = np.histogram([0.0], bins=edges)[0].astype(float)
    return mass, 1.0 - float(mass.sum())


def classical_ensemble(
    n: int,
    seed: int,
    apparatus: Apparatus,
    packet: GaussianPacket,
    bins: int | np.ndarray = 40,
    units: UnitSystem = DEFAULT_UNITS,
) -> Histogram:
    """Histogram of z_d over n isotropically oriented spins: one multinomial
    draw over ``classical_ensemble_mass``.

    Deterministic for a fixed seed.  ``bins`` is either a bin count over
    [-z_max, z_max] or an explicit edge array; draws outside the edges are
    not binned, so n_total may be below n.
    """
    timing = derive_timing(apparatus, packet, units)
    edges = (
        default_edges(timing.z_max, int(bins))
        if np.isscalar(bins)
        else np.asarray(bins, dtype=float)
    )
    return Histogram.draw(n, seed, edges, *classical_ensemble_mass(edges, timing.z_max))
