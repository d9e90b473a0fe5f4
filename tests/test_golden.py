"""The default runs that need no numpy give the bytes recorded in
golden.json: "same outputs" as a test, regenerated by make_golden.py."""

import json
import platform

from make_golden import GOLDEN, golden_runs, moved


def test_numpy_free_default_runs_match_the_golden_table(tmp_path):
    table = json.loads(GOLDEN.read_text())
    # the table holds for the Python it was taken with, and never skips
    assert table["python"] == platform.python_version(), (
        f"golden.json was taken under Python {table['python']}, this is Python "
        f"{platform.python_version()}: check the artifacts by hand and regenerate "
        "it with tests/make_golden.py"
    )
    assert golden_runs(str(tmp_path)) == table["runs"]


def test_make_golden_names_what_moved():
    same = {"exit": 0, "stdout": "run -> OUT\n",
            "artifacts": {"a.csv": {"bytes": 1, "sha256": "0"},
                          "b.json": {"bytes": 2, "sha256": "1"}}}
    other = dict(same, stdout="run! -> OUT\n",
                 artifacts=dict(same["artifacts"], **{"b.json": {"bytes": 2, "sha256": "2"}}))
    old = {"kept": same, "changed": same, "dropped": same}
    new = {"kept": same, "changed": other, "added": same}
    assert moved(old, new) == ["added: added", "changed: stdout, b.json", "dropped: removed"]
