"""Regenerate tests/golden.json, the recorded outputs of the default runs
that need no numpy: for each, its exit code, its stdout line and each
artifact's byte count and SHA-256.

    PYTHONPATH=src python tests/make_golden.py

The table records the Python version it was taken with: the ensembles draw
from Python's ``random`` and take ``math.erf``, ``erfc`` and ``exp``, so
another version may give other bytes.  A change to an entry is a change to
an artifact, to be named with its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
RUNS = ("backtrack", "recombine", "classical", "meanfield")


def golden_runs(work: str) -> dict:
    """Run each of RUNS at its defaults with its artifacts under work."""
    from sgsim.cli import main

    runs = {}
    for experiment in RUNS:
        out = os.path.join(work, experiment)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([experiment, "--out", out])
        artifacts = {}
        for name in sorted(os.listdir(out)):
            data = pathlib.Path(out, name).read_bytes()
            artifacts[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        runs[experiment] = {"exit": code, "stdout": stdout.getvalue().replace(out, "OUT"),
                            "artifacts": artifacts}
    return runs


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        table = {"python": platform.python_version(), "runs": golden_runs(work)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
