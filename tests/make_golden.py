"""Regenerate tests/golden.json, the recorded outputs of the default runs
that need no numpy: for each, its exit code, its stdout line and each
artifact's byte count and SHA-256.

    PYTHONPATH=src python tests/make_golden.py

The table records the Python version it was taken with: the ensembles draw
from Python's ``random`` and take ``math.erf``, ``erfc`` and ``exp``, so
another version may give other bytes.  A change to an entry is a change to
an artifact, to be named with its reason in CHANGES.md: before it writes the
new table, the script prints each run whose entry moved and what in it moved.
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


def moved(old: dict, new: dict) -> list[str]:
    """One line per run whose entry differs between the run tables old and
    new, naming its changed exit, stdout and artifacts."""
    lines = []
    for experiment in sorted(old.keys() | new.keys()):
        was, now = old.get(experiment), new.get(experiment)
        if was == now:
            continue
        if was is None or now is None:
            lines.append(f"{experiment}: {'added' if was is None else 'removed'}")
            continue
        parts = [key for key in ("exit", "stdout") if was[key] != now[key]]
        names = sorted(was["artifacts"].keys() | now["artifacts"].keys())
        parts += [name for name in names
                  if was["artifacts"].get(name) != now["artifacts"].get(name)]
        lines.append(f"{experiment}: {', '.join(parts)}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        table = {"python": platform.python_version(), "runs": golden_runs(work)}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"runs": {}}
    if old.get("python") != table["python"]:
        print(f"python: {old.get('python')} -> {table['python']}")
    for line in moved(old["runs"], table["runs"]):
        print(line)
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
