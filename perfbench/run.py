"""sgsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sgsim is imported from ./src.  The
workload runs in a worker process (worker.py), so its set-up time and peak
RSS are those of a fresh process.  With ``--trace 0`` the last stdout line
is a JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a second, traced timed phase.  Records (machine,
metrics, spans) go to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 3  # setup_s is the median over this many fresh worker processes
PROBE_RUNS = 3  # import and interpreter start-up probes, median of this many
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("SG_SIM_THREADS", None)  # the library default, one thread
    return env


def _run_worker(args, work: str, extra: list[str]) -> tuple[float, dict]:
    """Start one worker; returns (monotonic start time, its JSON report)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", work, *extra]
    if args.small:
        argv.append("--small")
    os.makedirs(work)
    try:
        started = time.monotonic()
        # its own process group, so a kill also reaches the CLI children it runs
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT,
                                start_new_session=True)
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return started, json.loads(stdout.decode().strip().splitlines()[-1])


def _timed_process(argv: list[str]) -> tuple[float, str]:
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=_worker_env(),
                          cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - started, done.stderr


def import_probes() -> dict:
    """Interpreter start-up and the import breakdown, from fresh processes
    (never from this benchmark's own, already warm, interpreter)."""
    startup, rows = [], []
    for _ in range(PROBE_RUNS):
        startup.append(_timed_process([sys.executable, "-c", "pass"])[0])
        _, stderr = _timed_process([sys.executable, "-X", "importtime", "-c", "import sgsim"])
        table = []
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            table.append((name.strip(), int(own) * 1e-6, int(cumulative) * 1e-6))
        rows.append(table)

    def own_sum(table, package):
        return sum(o for n, o, _ in table if n == package or n.startswith(package + "."))

    def cumulative(table, module):
        return next((c for n, _, c in table if n == module), 0.0)

    med = lambda f: statistics.median(f(t) for t in rows)  # noqa: E731
    return {
        "process.startup_s": statistics.median(startup),
        "import.sgsim_s": med(lambda t: cumulative(t, "sgsim")),
        "import.numpy_s": med(lambda t: own_sum(t, "numpy")),
        "import.scipy_s": med(lambda t: own_sum(t, "scipy")),
        "import.scipy_signal_s": med(lambda t: cumulative(t, "scipy.signal")),
        "import.scipy_special_s": med(lambda t: cumulative(t, "scipy.special")),
    }


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def machine_record(args) -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size"))
    model = next((line.split(":", 1)[1].strip()
                  for line in (_read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), None)

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "SG_SIM_THREADS": "unset (library default 1)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "waits": "none: one process, no pool or lock at SG_SIM_THREADS=1",
    }


def tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when fewer than 21 samples leave no such percentile at or above
    the median."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"max of {n} ops (fewer than 21)"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops (10 beyond it)"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny problem sizes, for the smoke test only")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sgsim", "__init__.py")):
        print(f"error: no sgsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    record = {"machine": machine_record(args)}
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{tag}.json")
            _, report = _run_worker(args, work, ["--spans", spans_path])
            metrics = {**import_probes(), **report["per_layer"]}
            record["traced_op_durations_s"] = report["traced_durations"]
            attempted = len(report["durations"]) + len(report["traced_durations"])
        else:
            setups = []
            for k in range(SETUP_RUNS - 1):
                started, probe = _run_worker(args, f"{work}-setup{k}", ["--setup-only"])
                setups.append(probe["ready"] - started)
            started, report = _run_worker(args, work, [])
            setups.append(report["ready"] - started)
            durations = report["durations"]
            tail_value, tail_label = tail(durations)
            record.update({"op_s.tail": tail_label, "setup_s_runs": setups})
            print(f"# op_s.tail is the {tail_label}")
            metrics = {
                "setup_s": statistics.median(setups),
                "op_s.p50": statistics.median(durations),
                "op_s.tail": tail_value,
                "ops_per_s": len(durations) / sum(durations),
                "peak_rss_mb": report["peak_rss_bytes"] / 1e6,
            }
            attempted = len(durations)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    failed = len({f["op"] for f in report["failures"]})
    for failure in report["failures"]:
        print(f"# op {failure['op']} failed: " + " | ".join(failure["problems"]),
              file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record.update(result, failures=report["failures"], op_durations_s=report["durations"])
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# machine " + json.dumps(record["machine"]))
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
