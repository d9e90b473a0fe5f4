"""In-memory spans and counters recorded around calls into sgsim's modules.

The benchmark never edits sgsim.  In a traced run it replaces the module
attributes that callers reach a function through (modules import names, so
``sgsim.meanfield.chunked_samples`` is wrapped beside
``sgsim.classical.chunked_samples``) and restores them afterwards.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans whose time counts as artifact writing inside a CLI runner.
WRITE_SPANS = frozenset({
    "cli.write_atomic", "cli._csv_text", "cli._json_text",
    "classical.Histogram.to_csv_text", "classical.Histogram.to_json_text",
})


class Tracer:
    """Records spans (id, name, start, end, parent, op) and per-op counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name, "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    def _instrumented(self, func, name, counter):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                with self.span(name):
                    result = func(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result
        return wrapper

    def wrap(self, owner, attr: str, name: str | None, counter=None) -> None:
        """Until :meth:`uninstall`, record a span called ``name`` around each
        call of ``owner.attr`` (function, method or classmethod) and then call
        ``counter(self, args, result)``."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._instrumented(raw.__func__, name, counter))
        else:
            new = self._instrumented(raw, name, counter)
        setattr(owner, attr, new)
        self._undo.append((setattr, owner, attr, raw))

    def wrap_item(self, mapping: dict, key, name: str) -> None:
        raw = mapping[key]
        mapping[key] = self._instrumented(raw, name, None)
        self._undo.append((dict.__setitem__, mapping, key, raw))

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, raw = self._undo.pop()
            restore(owner, key, raw)

    def install_sgsim(self) -> None:
        """Wrap every entry point that a per-layer metric names."""
        import numpy.fft
        from sgsim import analytic, classical, cli, density, experiments, meanfield, oracle

        def fft_counter(tracer, args, result):
            tracer.count("oracle.fft_calls")
            # complex128 input plus output, computed from the array length
            tracer.count("oracle.fft_bytes_computed", 2 * 16 * result.shape[-1])

        def drawn_counter(tracer, args, result):
            tracer.count("ensemble.samples_drawn", int(result.size))

        def binned_counter(tracer, args, result):
            tracer.count("ensemble.samples_binned", int(result.n_total))

        def points_counter(tracer, args, result):
            tracer.count("density.points", len(result))

        def write_counter(tracer, args, result):
            tracer.count("cli.write_bytes", len(args[1].encode("utf-8")))

        for owner, attr, name, counter in (
            (analytic, "evolve_packet", "analytic.evolve_packet", None),
            (oracle, "evolve_packet", "analytic.evolve_packet", None),
            (analytic.SpinorField, "z_marginal_density", "analytic.z_marginal_density", None),
            (density, "density_sweep", "density.density_sweep", points_counter),
            (density, "coherence_norm", "density.coherence_norm", None),
            (classical, "classical_ensemble", "classical.classical_ensemble", None),
            (classical, "chunked_samples", "classical.chunked_samples", drawn_counter),
            (meanfield, "chunked_samples", "classical.chunked_samples", drawn_counter),
            (classical.Histogram, "from_samples", "classical.from_samples", binned_counter),
            (classical.Histogram, "to_csv_text", "classical.Histogram.to_csv_text", None),
            (classical.Histogram, "to_json_text", "classical.Histogram.to_json_text", None),
            (meanfield, "meanfield_ensemble", "meanfield.meanfield_ensemble", None),
            (oracle, "propagate_packet", "oracle.propagate_packet", None),
            (experiments, "sandwich", "experiments.sandwich", None),
            (experiments, "detect_bimodality", "experiments.detect_bimodality", None),
            (cli, "load_config", "cli.load_config", None),
            (cli, "write_atomic", "cli.write_atomic", write_counter),
            (cli, "_csv_text", "cli._csv_text", None),
            (cli, "_json_text", "cli._json_text", None),
            (numpy.fft, "fft", None, fft_counter),
            (numpy.fft, "ifft", None, fft_counter),
        ):
            self.wrap(owner, attr, name, counter)
        for experiment in list(cli._RUNNERS):
            self.wrap_item(cli._RUNNERS, experiment, f"cli.{experiment}")

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }

    def merge(self, data: dict, op: int) -> None:
        """Add one op's spans and counts recorded by another process."""
        base = len(self.spans)
        for s in data["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "id": s["id"] + base, "parent": parent, "op": op})
        for counts in data["counts"].values():
            self.counts[op].update(counts)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    One thread records all spans, so children of one parent never overlap.
    """
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}
