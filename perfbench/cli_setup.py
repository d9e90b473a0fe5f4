"""Write the cli_defaults configs and the reference values their checks need.

Usage: python cli_setup.py WORK_DIR SEED

Prints one JSON object: the experiments in cycle order, their config paths,
the closed-form coherence of the density experiment, and any failed set-up
check.  It runs in a process of its own so that the worker, which starts
every CLI process, never imports sgsim: Linux counts the memory of the
process a child was started from in the child's peak RSS.
"""

import json
import math
import os
import sys
from dataclasses import replace

from sgsim.analytic import evolve_packet
from sgsim.classical import classical_ensemble
from sgsim.cli import EXPERIMENTS, config_to_text, default_config
from sgsim.core import Branch
from sgsim.meanfield import meanfield_ensemble


def closed_form_coherence(cfg) -> float:
    """|chi+ chi-| exp(-s^2), s = branch separation / (2 * amplitude width)."""
    field = evolve_packet(cfg.packet, cfg.apparatus, cfg.default_time(), cfg.units)
    sep = abs(field.branch_center(Branch.PLUS) - field.branch_center(Branch.MINUS))
    s = sep / (2.0 * field.width)
    return abs(cfg.packet.chi_plus * cfg.packet.chi_minus) * math.exp(-s * s)


def threads_agree(cfg, seed: int) -> list[str]:
    """Ensembles of several RNG chunks (the CLI default n fits in one) must
    not depend on SG_SIM_THREADS."""
    n, t = 1_000_000, cfg.default_time()
    runs = []
    for threads in ("1", "2"):
        os.environ["SG_SIM_THREADS"] = threads
        runs.append([
            classical_ensemble(n, seed, cfg.apparatus, cfg.packet).counts.tolist(),
            meanfield_ensemble(n, seed, cfg.packet, cfg.apparatus, t).counts.tolist(),
        ])
    return [] if runs[0] == runs[1] else [
        "ensembles differ between SG_SIM_THREADS=1 and SG_SIM_THREADS=2"]


def main() -> int:
    work, seed = sys.argv[1], int(sys.argv[2])
    os.makedirs(work, exist_ok=True)
    configs = {}
    for exp in EXPERIMENTS:
        configs[exp] = os.path.join(work, f"{exp}.cfg")
        with open(configs[exp], "w", encoding="utf-8") as fh:
            fh.write(config_to_text(replace(default_config(exp), seed=seed)))
    cfg = default_config("density")
    print(json.dumps({
        "experiments": list(EXPERIMENTS),
        "configs": configs,
        "coherence": closed_form_coherence(cfg),
        "problems": threads_agree(cfg, seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
