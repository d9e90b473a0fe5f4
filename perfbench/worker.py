"""Run one workload in this process and print its raw figures as one JSON line.

Started by run.py, never by hand.  Closed loop with one client: the next op
starts when the previous one and its checks have finished.  Only op time is
timed; a timed phase lasts until the ops' own time reaches ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict

from spans import WRITE_SPANS, Tracer, self_times
from workloads import WORKLOADS


def timed_phase(workload, seconds: float, tracer: Tracer | None, start: int) -> dict:
    """Run ops from index ``start`` until their time reaches ``seconds``.

    A traced phase runs whole cycles, so every CLI experiment is traced.
    """
    workload.tracer = tracer
    durations: list[float] = []
    failures: list[dict] = []
    busy = 0.0
    i = start
    while busy < seconds or (tracer is not None and (i - start) % workload.cycle):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result, error = workload.op(i), None
        except Exception as exc:
            result, error = None, exc
        durations.append(time.perf_counter() - t0)
        busy += durations[-1]
        try:
            if error is not None:
                raise error
            problems = workload.check(i, result)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failures.append({"op": i, "problems": problems})
        i += 1
    workload.tracer = None
    return {"durations": durations, "failures": failures, "first": start}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(workload, tracer: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer figures of the traced phase.

    Times are medians over the ops that reach the span, except ``cli.write_s``;
    it and the counts are totals per cycle (one op, or the eight CLI
    experiments).  A layer the workload does not reach reads 0.
    """
    from sgsim.cli import EXPERIMENTS

    spans = tracer.spans
    own = self_times(spans)
    by_op: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        by_op[s["op"]].append(s)

    def per_op(select, value=lambda s: s["end"] - s["start"]) -> list[float]:
        totals = []
        for op_spans in by_op.values():
            chosen = [value(s) for s in op_spans if select(s)]
            if chosen:
                totals.append(sum(chosen))
        return totals

    def span_s(name: str) -> float:
        return _median(per_op(lambda s: s["name"] == name))

    n_traced = len(traced["durations"])
    cycles = max(1, n_traced // workload.cycle)

    def per_cycle(name: str) -> float:
        return sum(c[name] for c in tracer.counts.values()) / cycles

    write_time: dict[int, float] = defaultdict(float)  # parent span id -> writing
    for s in spans:
        if s["name"] in WRITE_SPANS and s["parent"] is not None:
            write_time[s["parent"]] += s["end"] - s["start"]

    def kernel_s(experiment: str) -> float:
        return _median(per_op(lambda s: s["name"] == f"cli.{experiment}",
                              lambda s: s["end"] - s["start"] - write_time[s["id"]]))

    shares = []
    for k, duration in enumerate(traced["durations"]):
        top = [s for s in by_op.get(traced["first"] + k, ()) if s["parent"] is None]
        shares.append(sum(s["end"] - s["start"] for s in top) / duration)

    metrics = {
        "cli.import_s": span_s("cli.import"),
        "cli.load_config_s": span_s("cli.load_config"),
        "cli.write_s": sum(per_op(lambda s: s["name"] in WRITE_SPANS)) / cycles,
        "cli.write_bytes": per_cycle("cli.write_bytes"),
    }
    for experiment in EXPERIMENTS:
        metrics[f"cli.{experiment}.kernel_s"] = kernel_s(experiment)
    metrics.update({
        "oracle.propagate_packet_s": span_s("oracle.propagate_packet"),
        "oracle.propagate_packet.calls": _median(
            per_op(lambda s: s["name"] == "oracle.propagate_packet", lambda s: 1)),
        "experiments.sandwich.self_s": _median(
            per_op(lambda s: s["name"] == "experiments.sandwich", lambda s: own[s["id"]])),
        "oracle.fft_calls": per_cycle("oracle.fft_calls"),
        "oracle.fft_bytes_computed": per_cycle("oracle.fft_bytes_computed"),
        "experiments.detect_bimodality_s": span_s("experiments.detect_bimodality"),
        "classical.chunked_samples_s": span_s("classical.chunked_samples"),
        "classical.from_samples_s": span_s("classical.from_samples"),
        "classical.classical_ensemble_s": span_s("classical.classical_ensemble"),
        "meanfield.meanfield_ensemble_s": span_s("meanfield.meanfield_ensemble"),
        "ensemble.samples_drawn": per_cycle("ensemble.samples_drawn"),
        "ensemble.samples_binned": per_cycle("ensemble.samples_binned"),
        "ensemble.samples_dropped": per_cycle("ensemble.samples_drawn")
        - per_cycle("ensemble.samples_binned"),
        "analytic.evolve_packet_s": span_s("analytic.evolve_packet"),
        "analytic.z_marginal_density_s": span_s("analytic.z_marginal_density"),
        "density.density_sweep_s": span_s("density.density_sweep"),
        "density.coherence_norm_s": span_s("density.coherence_norm"),
        "density.points": per_cycle("density.points"),
        "trace.overhead_ratio": (len(untraced["durations"]) / sum(untraced["durations"]))
        / (n_traced / sum(traced["durations"])),
        "trace.layer_time_share": _median(shares),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="working directory for this process")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true", help="tiny sizes for the smoke test")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.work, args.small)
    setup_problems = workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    untraced = timed_phase(workload, args.seconds, None, 0)
    if setup_problems:
        untraced["failures"].insert(0, {"op": 0, "problems": setup_problems})
    report = {
        "ready": ready,
        "durations": untraced["durations"],
        "failures": untraced["failures"],
        "peak_rss_bytes": workload.peak_rss_bytes(),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install_sgsim()
        try:
            traced = timed_phase(workload, args.seconds, tracer, len(untraced["durations"]))
        finally:
            tracer.uninstall()
        report["traced_durations"] = traced["durations"]
        report["failures"] += traced["failures"]
        report["per_layer"] = layer_metrics(workload, tracer, traced, untraced)
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
