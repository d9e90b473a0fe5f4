"""Classical trajectories and the isotropic-spin Monte-Carlo ensemble.

The ensemble samples cos(beta) uniformly on [-1, 1] (isotropy reduces the
solid-angle measure to exactly that) and histograms the detector deflections
z_d = -z_max * cos(beta), which gives the "expected" flat distribution.

RNG: numpy's PCG64 via ``default_rng``.  A 64-bit run seed is expanded with
``SeedSequence.spawn`` into a fixed number of sub-streams, so histograms are
bit-reproducible regardless of how many worker threads process the chunks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Apparatus, DEFAULT_UNITS, GaussianPacket, Timing, UnitSystem, derive_timing
from .errors import DomainError, InvalidParameterError

_CHUNK = 1 << 18  # samples per RNG sub-stream


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

    @classmethod
    def from_json_dict(cls, d: dict) -> "Histogram":
        return cls(np.asarray(d["edges"], float), np.asarray(d["counts"]), int(d["n_total"]))


def classical_trajectory(
    mu_z: float,
    apparatus: Apparatus,
    packet: GaussianPacket,
    t: float,
    units: UnitSystem = DEFAULT_UNITS,
) -> ClassicalState:
    """Piecewise classical solution for z(t), p_z(t) with z = p_z = 0 at emission.

    Free flight before t_b, uniform acceleration mu_z * dBz/dz in the
    interaction region, free flight after t_c.
    """
    if not math.isfinite(mu_z) or not math.isfinite(t):
        raise InvalidParameterError("mu_z and t must be finite")
    if t < packet.t_prime:
        raise DomainError(f"t = {t} precedes emission time t' = {packet.t_prime}")
    timing = derive_timing(apparatus, packet, units)
    accel = mu_z * apparatus.grad_Bz / units.mass
    if t <= timing.t_b:
        return ClassicalState(z=0.0, p_z=0.0, t=t)
    if t <= timing.t_c:
        tau = t - timing.t_b
        return ClassicalState(
            z=0.5 * accel * tau * tau,
            p_z=units.mass * accel * tau,
            t=t,
        )
    dt = timing.dt
    z_c = 0.5 * accel * dt * dt
    v_after = accel * dt
    return ClassicalState(
        z=z_c + v_after * (t - timing.t_c),
        p_z=units.mass * v_after,
        t=t,
    )


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


def _worker_count() -> int:
    raw = os.environ.get("SG_SIM_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidParameterError(f"SG_SIM_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def chunked_samples(n: int, seed: int, sampler) -> np.ndarray:
    """Draw n samples deterministically from fixed-size sub-seeded chunks.

    ``sampler(rng, size)`` produces one chunk.  Chunk boundaries depend only
    on n, and chunks are merged in order, so the result is identical whether
    chunks run serially or on a thread pool (capped by SG_SIM_THREADS).
    """
    if n < 1:
        raise InvalidParameterError(f"sample count must be >= 1, got {n}")
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [(np.random.default_rng(child), size) for child, size in zip(children, sizes)]
    workers = min(_worker_count(), len(jobs))
    if workers == 1:
        parts = [sampler(rng, size) for rng, size in jobs]
    else:
        # imported here: concurrent.futures pulls in logging, which every
        # process would otherwise pay for at import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda job: sampler(*job), jobs))
    return np.concatenate(parts)


def default_edges(z_max: float, bins: int) -> np.ndarray:
    """Equal-width bin edges over [-z_max, z_max]; [-1, 1] when z_max = 0."""
    span = z_max if z_max > 0 else 1.0
    return np.linspace(-span, span, bins + 1)


def classical_ensemble(
    n: int,
    seed: int,
    apparatus: Apparatus,
    packet: GaussianPacket,
    bins: int | np.ndarray = 40,
    units: UnitSystem = DEFAULT_UNITS,
) -> Histogram:
    """Histogram of z_d over n isotropically oriented spins.

    Deterministic for a fixed seed.  ``bins`` is either a bin count over
    [-z_max, z_max] or an explicit edge array.
    """
    if n < 1:
        raise InvalidParameterError(f"ensemble size must be >= 1, got {n}")
    timing = derive_timing(apparatus, packet, units)
    edges = (
        default_edges(timing.z_max, int(bins))
        if np.isscalar(bins)
        else np.asarray(bins, dtype=float)
    )
    z_d = chunked_samples(
        n, seed, lambda rng, size: -timing.z_max * rng.uniform(-1.0, 1.0, size)
    )
    return Histogram.from_samples(z_d, edges)
