"""The benchmark workloads: inputs from the seed, one timed op, its checks.

Imports of sgsim happen in ``setup`` (that import is set-up time), and
calls go through module attributes, so a traced run's wrappers see every
call.  ``op`` is the timed work; ``check`` runs untimed afterwards and
returns the list of failed checks for that op.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _kib_to_bytes(kib: int) -> int:
    return kib * 1024  # ru_maxrss is in KiB on Linux


def _tree_digest(directory: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class CliDefaults:
    """One op is one fresh ``python -m sgsim.cli <exp>`` process; the eight
    experiments run in a fixed cyclic order with their default configs.

    This process never imports sgsim (cli_setup.py writes the configs), so
    its own memory does not enter the peak RSS of the CLI processes.
    """

    name = "cli_defaults"

    def __init__(self, seed: int, work: str, small: bool) -> None:
        self.seed = random.Random(seed).getrandbits(31)
        self.work = work
        self.peak_rss_kib = 0
        self.tracer = None
        self.reference: dict[str, dict[str, str]] = {}

    def setup(self) -> list[str]:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_setup.py"),
             os.path.join(self.work, "configs"), str(self.seed)],
            capture_output=True, text=True, check=True)
        plan = json.loads(done.stdout)
        self.experiments, self.configs = plan["experiments"], plan["configs"]
        self.cycle = len(self.experiments)
        self.coherence = plan["coherence"]
        # warm-up: the first experiment of the cycle, kept as its reference
        return plan["problems"] + self._verify(
            self._launch("warmup", self.experiments[0], traced=False))

    def _launch(self, tag, exp: str, traced: bool) -> dict:
        out = os.path.join(self.work, f"out-{tag}")
        flags = [exp, "--config", self.configs[exp], "--out", out]
        trace_path = os.path.join(self.work, f"trace-{tag}.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_path, *flags]
        else:
            argv = [sys.executable, "-m", "sgsim.cli", *flags]
        err_path = os.path.join(self.work, f"stderr-{tag}.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exp": exp, "out": out, "code": proc.returncode, "rss_kib": usage.ru_maxrss,
                "stderr": err_path, "trace": trace_path if traced else None}

    def op(self, i: int) -> dict:
        exp = self.experiments[i % self.cycle]
        return self._launch(f"op{i}", exp, traced=self.tracer is not None)

    def _verify(self, result: dict) -> list[str]:
        exp = result["exp"]
        if result["code"] != 0:
            with open(result["stderr"], encoding="utf-8", errors="replace") as fh:
                return [f"{exp}: exit code {result['code']}: {fh.read().strip()[:500]}"]
        problems = []
        digest = _tree_digest(result["out"])
        if self.reference.setdefault(exp, digest) != digest:
            problems.append(f"{exp}: artifacts differ from an earlier run with the same config")
        check = getattr(self, "_check_" + exp.replace("-", "_"), None)
        if check is not None:
            problems += check(result["out"])
        shutil.rmtree(result["out"])
        return problems

    @staticmethod
    def _check_classical(out: str) -> list[str]:
        with open(os.path.join(out, "histogram.json"), encoding="utf-8") as fh:
            hist = json.load(fh)
        counts, n = hist["counts"], hist["n_total"]
        if sum(counts) != n:
            return [f"classical: counts sum {sum(counts)} != n_total {n}"]
        # the flatness bound of acceptance check 1: interior bins within 5 se
        p = 1.0 / len(counts)
        se = math.sqrt(p * (1 - p) / n)
        deviation = max(abs(c / n - p) for c in counts[1:-1]) / se
        if deviation >= 5.0:
            return [f"classical: interior deviation {deviation:.2f} se >= 5"]
        return []

    @staticmethod
    def _check_meanfield(out: str) -> list[str]:
        with open(os.path.join(out, "histogram.json"), encoding="utf-8") as fh:
            hist = json.load(fh)
        if sum(hist["counts"]) != hist["n_total"]:
            return [f"meanfield: counts sum {sum(hist['counts'])} != n_total {hist['n_total']}"]
        return []

    @staticmethod
    def _check_evolve(out: str) -> list[str]:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            peaks = json.load(fh)["peak_count"]
        return [] if peaks == 2 else [f"evolve: {peaks} peaks, expected 2"]

    def _check_density(self, out: str) -> list[str]:
        problems = []
        with open(os.path.join(out, "density_sweep.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        diagonals = {"1": [], "0": []}
        for z, rho_pp, rho_mm, _, _, collapse_free in rows:
            diagonals[collapse_free].append((z, rho_pp, rho_mm))
        if diagonals["1"] != diagonals["0"]:
            problems.append("density: collapsed and collapse-free diagonals differ")
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            coherence = json.load(fh)["coherence_norm"]
        if abs(coherence - self.coherence) > 1e-9 * self.coherence:
            problems.append(f"density: coherence {coherence!r} != closed form {self.coherence!r}")
        return problems

    def check(self, i: int, result: dict) -> list[str]:
        self.peak_rss_kib = max(self.peak_rss_kib, result["rss_kib"])
        if result["trace"] is not None and result["code"] == 0:
            with open(result["trace"], encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh), i)
        return self._verify(result)

    def peak_rss_bytes(self) -> int:
        return _kib_to_bytes(self.peak_rss_kib)


class SplitSearch:
    """One op is one ``sandwich`` call of the split-threshold bisection: one
    layer 5:6:g, t_final = 50, an explicit grid, g bracketed in [0.05, 60]."""

    name = "split_search"
    cycle = 1
    T_FINAL = 50.0
    LO, HI = 0.05, 60.0

    def __init__(self, seed: int, work: str, small: bool) -> None:
        rng = random.Random(seed)
        self.sigmas = [s * rng.uniform(0.8, 1.25) for s in (1.0, 2.0, 4.0)]
        self.n_points = 8192 if small else 16384
        self.iterations = 5 if small else 18
        self.tracer = None
        self.previous: list[float] | None = None
        self._start_search()

    def _start_search(self) -> None:
        self.j, self.step = 0, "lo"
        self.lo, self.hi = self.LO, self.HI
        self.thresholds: list[float] = []

    def setup(self) -> list[str]:
        import sgsim.experiments
        from sgsim.analytic import dispersion_factor
        from sgsim.core import GaussianPacket
        from sgsim.experiments import Layer, LayerStack
        from sgsim.oracle import Grid1D

        self.experiments = sgsim.experiments
        self.df, self.Packet, self.Layer, self.LayerStack, self.Grid1D = (
            dispersion_factor, GaussianPacket, Layer, LayerStack, Grid1D)
        self._sandwich(self.sigmas[0], self.HI)  # warm-up
        return []

    def _sandwich(self, sigma: float, g: float) -> int:
        t = self.T_FINAL
        # the grid of acceptance check 9: branch drift v_z (t - t_bar), with
        # v_z = 0.1 g and t_bar = 0.55, plus eight final widths
        half = 1.25 * (0.1 * g * (t - 0.55) + 8 * sigma * abs(self.df(t, sigma))) + sigma
        result = self.experiments.sandwich(
            self.Packet(sigma=sigma), self.LayerStack((self.Layer(5.0, 6.0, g),)), t,
            grid=self.Grid1D(-half, half, self.n_points),
        )
        return result.peak_count

    def _next_gradient(self) -> float:
        if self.step == "lo":
            return self.lo
        if self.step == "hi":
            return self.hi
        return math.sqrt(self.lo * self.hi)

    def op(self, i: int) -> tuple[str, float, int]:
        g = self._next_gradient()
        return self.step, g, self._sandwich(self.sigmas[self.j], g)

    def check(self, i: int, result) -> list[str]:
        step, g, peaks = result
        split = peaks >= 2
        problems = []
        sigma = self.sigmas[self.j]
        if step == "lo":
            if split:
                problems.append(f"sigma={sigma:.4g}: bracket invalid, split at g={g}")
            self.step = "hi"
            return problems
        if step == "hi":
            if not split:
                problems.append(f"sigma={sigma:.4g}: bracket invalid, no split at g={g}")
            self.step = 0
            return problems
        if split:
            self.hi = g
        else:
            self.lo = g
        self.step += 1
        if self.step < self.iterations:
            return problems
        kappa = 0.1 * self.hi * sigma
        if not 0.5 <= kappa <= 1.5:
            problems.append(f"sigma={sigma:.4g}: kappa*={kappa:.4g} outside [0.5, 1.5]")
        self.thresholds.append(self.hi)
        self.j, self.step, self.lo, self.hi = self.j + 1, "lo", self.LO, self.HI
        if self.j < len(self.sigmas):
            return problems
        th = self.thresholds
        if not all(a > b for a, b in zip(th, th[1:])):
            problems.append(f"thresholds {th} do not strictly decrease with sigma")
        if self.previous is not None and self.previous != th:
            problems.append(f"thresholds {th} differ from the previous search {self.previous}")
        self.previous = th
        self._start_search()
        return problems

    def peak_rss_bytes(self) -> int:
        return _kib_to_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


WORKLOADS = {w.name: w for w in (CliDefaults, SplitSearch)}
