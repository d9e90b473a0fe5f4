import io
import itertools
import json
import math
import os
import pathlib
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgsim import cli, oracle
from sgsim.cli import (
    EXPERIMENTS,
    RunConfig,
    config_from_mapping,
    config_to_text,
    default_config,
    load_config,
    main,
    parse_config_text,
)
from sgsim.core import Apparatus, GaussianPacket, UnitSystem
from sgsim.errors import ConfigError, InvalidParameterError


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_bytes_tree(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as fh:
                blobs[os.path.relpath(path, root)] = fh.read()
    return blobs


# ---------------------------------------------------------------------------
# config format


def test_config_roundtrip_all_experiments():
    for experiment in (
        "classical", "evolve", "density", "meanfield",
        "oracle-compare", "backtrack", "recombine", "sandwich",
    ):
        cfg = default_config(experiment)
        text = config_to_text(cfg)
        again = config_from_mapping(parse_config_text(text))
        assert again == cfg


def test_config_roundtrip_nondefault_values():
    cfg = RunConfig(
        experiment="sandwich",
        n=123,
        seed=9,
        bins=64,
        t=7.25,
        layers=((4.0, 4.5, 30.0), (5.0, 5.5, -30.0)),
        phase_error=0.4,
        out="elsewhere",
    )
    again = config_from_mapping(parse_config_text(config_to_text(cfg)))
    assert again == cfg


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _run_configs(draw):
    y_a, y_b, y_c, y_d = sorted(draw(st.sets(_finite, min_size=4, max_size=4)))
    theta, phi_p, phi_m = (draw(st.floats(-7.0, 7.0)) for _ in range(3))
    packet = GaussianPacket(
        sigma=draw(_positive),
        k_y=draw(_positive),
        chi_plus=complex(math.cos(theta) * math.cos(phi_p), math.cos(theta) * math.sin(phi_p)),
        chi_minus=complex(math.sin(theta) * math.cos(phi_m), math.sin(theta) * math.sin(phi_m)),
        t_prime=draw(_finite),
    )
    return RunConfig(
        experiment=draw(st.sampled_from(EXPERIMENTS)),
        units=UnitSystem(draw(_positive), draw(_positive), draw(_positive)),
        apparatus=Apparatus(y_a, y_b, y_c, y_d, draw(_finite)),
        packet=packet,
        n=draw(st.integers(1, 10**12)),
        seed=draw(st.integers(0, 2**64)),
        bins=draw(st.integers(2, 10**6)),
        t=draw(st.none() | _finite),
        grid_n=draw(st.integers(-(10**6), 10**6)),
        phase_error=draw(_finite),
        stage_gap=draw(_finite),
        separated=draw(st.booleans()),
        layers=tuple(draw(st.lists(st.tuples(_finite, _finite, _finite), max_size=3))),
        out=draw(st.text("abcxyz0123456789-_./", max_size=20)),
    )


@settings(max_examples=300, deadline=None)
@given(_run_configs())
def test_config_text_roundtrip_property(cfg):
    assert config_from_mapping(parse_config_text(config_to_text(cfg))) == cfg


def test_config_text_golden():
    assert config_to_text(default_config("oracle-compare")) == (
        "run.experiment = oracle-compare\n"
        "run.n = 100000\n"
        "run.seed = 42\n"
        "run.bins = 40\n"
        "run.out = sgsim-out\n"
        "units.hbar = 1\n"
        "units.mass = 1\n"
        "units.mu_b = 1\n"
        "apparatus.y_a = 0\n"
        "apparatus.y_b = 4.9749999999999996\n"
        "apparatus.y_c = 5.0250000000000004\n"
        "apparatus.y_d = 10\n"
        "apparatus.grad_Bz = 200\n"
        "packet.sigma = 1\n"
        "packet.k_y = 10\n"
        "packet.chi_plus = 0.70710678118654746+0j\n"
        "packet.chi_minus = 0.70710678118654746+0j\n"
        "packet.t_prime = 0\n"
        "grid.n_points = 4096\n"
        "recombine.phase_error = 0\n"
        "recombine.gap = 0.0001\n"
        "recombine.separated = false\n"
        "sandwich.layers = 5:6:100\n"
    )


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("this is not a key value pair")
    with pytest.raises(ConfigError):
        parse_config_text("= 3")


def test_parse_ignores_comments_and_blank_lines():
    kv = parse_config_text("# note\n\nrun.seed = 5  # trailing\n")
    assert kv == {"run.seed": "5"}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"run.experiment": "classical", "run.bogus": "1"})


def test_non_numeric_value_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping(
            {"run.experiment": "classical", "apparatus.y_b": "wide"}
        )


@pytest.mark.parametrize(
    "changes",
    [{"seed": -1}, {"t": math.inf}, {"t": math.nan}, {"phase_error": math.inf},
     {"stage_gap": math.nan}, {"layers": ((5.0, math.inf, 1.0),)}],
    ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()),
)
def test_run_config_bounds(changes):
    with pytest.raises(InvalidParameterError):
        RunConfig(experiment="oracle-compare", **changes)


def test_missing_experiment_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"run.seed": "1"})


# ---------------------------------------------------------------------------
# subcommands and artifacts


def test_classical_artifacts(tmp_path, capsys):
    code, out = run_cli(["classical", "--n", "5000", "--seed", "3"], tmp_path, "c")
    assert code == 0
    assert (out / "histogram.csv").exists()
    assert (out / "histogram.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n"] == 5000 and summary["seed"] == 3
    header = (out / "histogram.csv").read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,count"
    assert "histogram.csv" in capsys.readouterr().out


def test_evolve_artifacts(tmp_path):
    code, out = run_cli(["evolve", "--t", "5.0"], tmp_path, "e")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["peak_count"] == 2
    data = np.loadtxt(out / "z_marginal.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 2 and np.all(data[:, 1] >= 0)


def test_evolve_zero_kick_single_peak(tmp_path):
    cfg_path = tmp_path / "free.cfg"
    cfg_path.write_text(
        "run.experiment = evolve\napparatus.grad_Bz = 0\n"
    )
    code, out = run_cli(
        ["evolve", "--config", str(cfg_path), "--t", "5.0"], tmp_path, "e0"
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["peak_count"] == 1


def test_density_artifacts(tmp_path):
    code, out = run_cli(["density", "--t", "3.0"], tmp_path, "d")
    assert code == 0
    rows = (out / "density_sweep.csv").read_text().splitlines()
    assert rows[0] == "z,rho_pp,rho_mm,re_rho_pm,im_rho_pm,collapse_free"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["coherence_norm"] >= 0.0


def test_oracle_compare_report(tmp_path):
    code, out = run_cli(["oracle-compare"], tmp_path, "o")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["err_plus"] < 1e-3 and report["err_minus"] < 1e-3


def test_backtrack_report(tmp_path):
    code, out = run_cli(["backtrack"], tmp_path, "b")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["y_collapse"] == pytest.approx(5.5, abs=1e-6)


def test_recombine_reports(tmp_path):
    code, out = run_cli(["recombine"], tmp_path, "r1")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["fidelity"] == pytest.approx(
        1.0, abs=1e-6
    )
    code, out = run_cli(
        ["recombine", "--phase-error", str(math.pi)], tmp_path, "r2"
    )
    assert json.loads((out / "report.json").read_text())["fidelity"] == pytest.approx(
        0.0, abs=1e-6
    )
    code, out = run_cli(["recombine", "--separated"], tmp_path, "r3")
    assert json.loads((out / "report.json").read_text())["fidelity"] == pytest.approx(
        0.5, abs=1e-3
    )


def test_recombine_gap_zero(tmp_path):
    # the reversal stage starts where stage 1 ends; its source is stage 1's
    code, out = run_cli(["recombine", "--gap", "0"], tmp_path, "g")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["fidelity"] == pytest.approx(
        1.0, abs=1e-6
    )


def test_sandwich_layers_flag(tmp_path):
    code, out = run_cli(
        ["sandwich", "--layers", "5:6:1", "--t", "5.6"], tmp_path, "s"
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["peak_count"] == 1 and report["kappas"] == [0.1]


def test_sandwich_strong_layer_peaks(tmp_path):
    # k = 38.8 > pi/dz = 23.6 on the default grid: the sampled closed form
    # needs no momentum band, and the peaks sit at -+v_z*(t - tbar) = -+34*5.05
    code, out = run_cli(
        ["sandwich", "--layers", "5:6:340", "--t", "5.6"], tmp_path, "s"
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["peak_count"] == 2
    for got, want in zip(report["peak_positions"], (-171.7, 171.7)):
        assert got == pytest.approx(want, abs=0.1)


def test_default_sandwich_histogram_is_mirror_symmetric(tmp_path):
    # equal spinor weights and a grid symmetric about z = 0: the branches
    # are mirror images, and so is each bin's exact mass
    code, out = run_cli(["sandwich"], tmp_path, "s")
    assert code == 0
    counts = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.array_equal(counts, counts[::-1])


def test_sandwich_bins_flag_below_16(tmp_path):
    # the peak detector runs on the grid density, so any bins >= 2 is honoured
    code, out = run_cli(["sandwich", "--bins", "10"], tmp_path, "s")
    assert code == 0
    rows = (out / "histogram.csv").read_text().splitlines()[1:]
    assert len(rows) == 10


def test_meanfield_artifacts(tmp_path):
    code, out = run_cli(["meanfield", "--n", "20000", "--t", "3.0"], tmp_path, "m")
    assert code == 0
    hist = json.loads((out / "histogram.json").read_text())
    assert sum(hist["counts"]) == hist["n_total"]


@pytest.mark.parametrize("experiment", ["classical", "meanfield"])
def test_huge_ensemble_runs_at_once(experiment, tmp_path):
    # one multinomial draw: no time or memory per draw, and the draws
    # outside the edges are counted in summary.json
    n = 10**18
    code, out = run_cli([experiment, "--n", str(n)], tmp_path, "huge")
    assert code == 0
    hist = json.loads((out / "histogram.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert sum(hist["counts"]) == hist["n_total"] <= n
    assert summary["n_outside"] == n - hist["n_total"]


@pytest.mark.parametrize("experiment", ["classical", "meanfield"])
def test_ensemble_beyond_int64_exits_domain(experiment, tmp_path, capsys):
    # numpy draws the counts as int64
    code, out = run_cli([experiment, "--n", str(2**63)], tmp_path, "over")
    assert code == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "DomainError"
    assert not out.exists() or os.listdir(out) == []


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_byte_identical_reruns(tmp_path):
    args = ["classical", "--n", "40000", "--seed", "17", "--bins", "24"]
    _, out1 = run_cli(args, tmp_path, "run1")
    _, out2 = run_cli(args, tmp_path, "run2")
    assert read_bytes_tree(out1) == read_bytes_tree(out2)


def test_meanfield_byte_identical(tmp_path):
    args = ["meanfield", "--n", "30000", "--seed", "5", "--t", "3.0"]
    _, out1 = run_cli(args, tmp_path, "m1")
    _, out2 = run_cli(args, tmp_path, "m2")
    assert read_bytes_tree(out1) == read_bytes_tree(out2)


def test_exit_code_parse_error(tmp_path, capsys):
    code = main(["classical", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_exit_code_validation_error(tmp_path, capsys):
    code = main(["classical", "--n", "0", "--out", str(tmp_path / "x")])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InvalidParameterError"


def test_exit_code_numeric_error(tmp_path, capsys):
    # a time before emission; in-region times are valid since the closed form
    # holds at every time
    code = main(["evolve", "--t", "-1", "--out", str(tmp_path / "y")])
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DomainError"


def test_non_utf8_config_exits_parse(tmp_path, capsys):
    cfg_path = tmp_path / "utf16.cfg"
    cfg_path.write_bytes(b"\xff\xferun.n = 10\n")
    out = tmp_path / "u"
    assert main(["classical", "--config", str(cfg_path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and str(cfg_path) in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["histogram.csv", "summary.json"])
def test_unwritable_artifact_exits_parse(blocked, tmp_path, capsys):
    # a directory where an artifact goes: the write fails, leaving the
    # artifacts written before it whole, and no temp file
    argv = ["classical", "--n", "1000"]
    _, whole = run_cli(argv, tmp_path, "whole")
    out = tmp_path / "w"
    (out / blocked).mkdir(parents=True)
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("run.out:") and blocked in record["message"]
    assert captured.out == ""
    names = ["histogram.csv", "histogram.json", "summary.json"]
    written = names[:names.index(blocked)]
    assert sorted(os.listdir(out)) == sorted(written + [blocked])
    assert all((out / name).read_bytes() == (whole / name).read_bytes() for name in written)


def test_out_of_memory_exits_numeric(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setitem(cli._RUNNERS, "classical", exhausted)
    out = tmp_path / "m"
    assert main(["classical", "--bins", "100000000000", "--out", str(out)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "DomainError" and "745. GiB" in record["message"]
    assert os.listdir(out) == []


def test_argparse_rejects_unknown_subcommand(capsys):
    # usage errors get the same exit code and JSON record as a bad config; a
    # flag the subcommand would not read is one, not a silent no-op
    for argv in (["warp-drive"], ["recombine", "--grad", "1"], [], ["density", "--t"],
                 ["sandwich", "--grid-n", "8192"], ["backtrack", "--t", "3"],
                 ["recombine", "--seed", "1"], ["density", "--bins", "10"]):
        assert main(argv) == 2, argv
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"


def test_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "base.cfg"
    cfg_path.write_text("run.experiment = classical\nrun.seed = 1\nrun.n = 1000\n")
    cfg = load_config(str(cfg_path))
    assert cfg.seed == 1 and cfg.n == 1000
    code, out = run_cli(
        ["classical", "--config", str(cfg_path), "--seed", "2", "--n", "500"],
        tmp_path, "ov",
    )
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 2


def test_csv_floats_have_full_precision(tmp_path):
    _, out = run_cli(["classical", "--n", "1000"], tmp_path, "p")
    row = (out / "histogram.csv").read_text().splitlines()[1]
    lo = row.split(",")[0]
    assert float(lo) == -20.5  # parses back exactly


def test_cli_bounds_exit_validation(tmp_path, capsys):
    assert main(["classical", "--seed", "-1", "--out", str(tmp_path / "x")]) == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InvalidParameterError"


def _one_config_error(capsys) -> str:
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError"
    return record["message"]


def test_removed_step_count_key_exits_parse(tmp_path, capsys):
    # the oracle has no step count: a config file that still sets one is
    # refused as an unknown key, and nothing is written
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text("run.experiment = oracle-compare\noracle.n_field_steps = 256\n")
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "oracle.n_field_steps" in _one_config_error(capsys)
    assert not out.exists()


def test_removed_step_count_flag_exits_parse(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["oracle-compare", "--n-field-steps", "4", "--out", str(out)]) == 2
    assert "--n-field-steps" in _one_config_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["evolve", "density"])
def test_non_finite_results_not_written(experiment, tmp_path, capsys):
    out = tmp_path / experiment
    code = main([experiment, "--t", "1e300", "--out", str(out)])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv", [
    ["oracle-compare", "--t", "100", "--grid-n", "256"],  # k = 1.36 > pi/dz = 0.36
    ["oracle-compare", "--t", "10000"],
    ["oracle-compare", "--t", "100"],  # k = 5.80 > pi/dz = 5.72
])
def test_grid_refuses_unheld_momentum(argv, tmp_path, capsys):
    out = tmp_path / "m"
    assert main(argv + ["--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ExtentError" and "wavenumbers" in record["message"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("experiment", ["sandwich", "evolve"])
def test_unresolved_branches_exit_extent(experiment, tmp_path, capsys):
    # at a gradient of 1e7 both branches are far narrower than the default
    # grid's step, so the sampled density is 0 at every point
    cfg_path = tmp_path / "steep.cfg"
    cfg_path.write_text("apparatus.grad_Bz = 1e7\n")
    argv = {"sandwich": ["sandwich", "--layers", "5:6:1e7"],
            "evolve": ["evolve", "--config", str(cfg_path)]}[experiment]
    out = tmp_path / experiment
    assert main(argv + ["--out", str(out)]) == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ExtentError" and "grid step" in record["message"]
    assert os.listdir(out) == []


def test_nan_spinor_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "nan.cfg"
    cfg_path.write_text("run.experiment = backtrack\npacket.chi_plus = nan+0j\n")
    code = main(["backtrack", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParameterError"


@pytest.mark.parametrize("chi", [("1+0j", "0+0j"), ("0+0j", "1+0j")])
def test_oracle_compare_pure_spin(chi, tmp_path):
    # one branch has no weight, so no inter-branch phase: rel_phase_diff is 0
    cfg_path = tmp_path / "pure.cfg"
    cfg_path.write_text(f"packet.chi_plus = {chi[0]}\npacket.chi_minus = {chi[1]}\n")
    code, out = run_cli(["oracle-compare", "--config", str(cfg_path)], tmp_path, "o")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rel_phase_diff"] == 0.0


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_artifacts_get_the_umask_mode(umask, tmp_path):
    old = os.umask(umask)
    try:
        code, out = run_cli(["backtrack"], tmp_path, "b")
    finally:
        os.umask(old)
    assert code == 0
    assert os.stat(out / "report.json").st_mode & 0o777 == 0o666 & ~umask


def test_oracle_compare_propagates_once(tmp_path, monkeypatch):
    calls = []
    propagate = oracle.propagate_packet

    def counting(*args, **kwargs):
        calls.append(1)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(oracle, "propagate_packet", counting)
    code, out = run_cli(["oracle-compare"], tmp_path, "o1")
    assert code == 0 and len(calls) == 1
    assert (out / "snapshot.csv").exists()


# Malformed text per key; "abc" where the key takes a number.
_MALFORMED = {
    "run.experiment": "warp-drive",
    "run.out": "{blocker}/sub",  # a directory that cannot be made
    "recombine.separated": "maybe",
    "sandwich.layers": "5:x:1",
}


@pytest.mark.parametrize("row", cli._KEYS, ids=lambda row: row.key)
def test_malformed_key_value_gives_one_json_record(row, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    bad = _MALFORMED.get(row.key, "abc").format(blocker=blocker)
    command = row.commands[0]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"{row.key} = {bad}\n")
    argvs = [[command, "--config", str(cfg_path)]]
    flag, _, metavar = (row.flag or "").partition(" ")
    if metavar:
        argvs.append([command, flag, bad])
    for argv in argvs:
        if row.key != "run.out":
            argv += ["--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (2, 3), argv
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error", "message"}


def test_flags_per_subcommand(capsys):
    # each subcommand offers only the flags whose keys it reads
    reads = {
        "classical": {"--n", "--seed", "--bins"},
        "evolve": {"--t", "--grid-n"},
        "density": {"--t"},
        "meanfield": {"--n", "--seed", "--bins", "--t"},
        "oracle-compare": {"--t", "--grid-n"},
        "backtrack": set(),
        "recombine": {"--phase-error", "--gap", "--separated"},
        "sandwich": {"--bins", "--t", "--layers"},
    }
    offered = 0
    for name in EXPERIMENTS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert flags == {"--help", "--config", "--out"} | reads[name], name
        offered += len(flags - {"--help", "--config"})
    assert offered == 26


def test_config_file_sets_any_key(tmp_path):
    # config_to_text writes every key, so a file written for one subcommand
    # runs under another that ignores some of its keys
    cfg_path = tmp_path / "evolve.cfg"
    cfg_path.write_text(config_to_text(RunConfig(experiment="evolve", grid_n=8192, t=5.6)))
    for name in ("sandwich", "backtrack"):
        code, _ = run_cli([name, "--config", str(cfg_path)], tmp_path, name)
        assert code == 0, name


def _readme_table(header):
    """Cells of each row of the README table whose header line is header."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_names_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    readme = (root / "README.md").read_text(encoding="utf-8")
    install = readme[readme.index("## Install"):readme.index("## Tests")]
    for requirement in project["optional-dependencies"]["test"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        assert name in install, name


def test_readme_key_table_matches_keys():
    flagged = {row.key: row for row in cli._KEYS if row.flag}
    listed = set()
    for key_cell, _, flag_cell, commands_cell in _readme_table(
        "| key | value | flag | subcommands |"
    ):
        if not flag_cell.startswith("`--"):
            continue
        (key,) = re.findall(r"`([^`]+)`", key_cell)
        row = flagged[key]
        assert flag_cell.startswith(f"`{row.flag}`"), key
        commands = (
            set(EXPERIMENTS) if commands_cell == "all"
            else set(re.findall(r"`([^`]+)`", commands_cell))
        )
        assert commands == set(row.commands), key
        listed.add(key)
    assert listed == flagged.keys()


def test_readme_artifact_table_matches_runners():
    # each runner at small sizes: the files it returns, in writing order
    listed = {}
    for command_cell, files_cell in _readme_table("| subcommand | artifacts, in writing order |"):
        (command,) = re.findall(r"`([^`]+)`", command_cell)
        listed[command] = re.findall(r"`([^`]+)`", files_cell)
    returned = {}
    for name in EXPERIMENTS:
        cfg = replace(default_config(name), n=500, grid_n=512)
        _, artifacts = cli._RUNNERS[name](cfg)
        returned[name] = list(artifacts)
    assert listed == returned


def _json_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _json_numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@pytest.mark.parametrize("argv", [["meanfield", "--t", "0.55"], ["oracle-compare", "--t", "0.5"]])
def test_in_region_times_run(argv, tmp_path):
    # both times lie inside the field region of the subcommand's default
    # apparatus (0.5-0.6 and 0.4975-0.5025)
    code, out = run_cli(argv, tmp_path, "in")
    assert code == 0
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            values = np.loadtxt(path, delimiter=",", skiprows=1)
        else:
            values = np.array(_json_numbers(json.loads(path.read_text())), dtype=float)
        assert values.size > 0 and np.isfinite(values).all(), path.name


_FLAGS = sorted({row.flag.split(" ")[0] for row in cli._KEYS if row.flag})
_VALUE_FLAGS = sorted({row.flag.split(" ")[0] for row in cli._KEYS if row.flag and " " in row.flag})
_UNKNOWN_FLAGS = ["--grad", "--bogus", "-x", "--n-points"]
_VALUES = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", "-1e400", "abc", "0",
                     "-1", "true", "5:x:1", "5:6:inf", "1:2:3;4:5:6"]),
    st.integers(min_value=-10**30, max_value=10**30).map(str),
    st.floats().map(repr),
)
# Strict prefixes of the real flags: "--se" may not stand for --seed.
_PREFIXES = sorted({flag[:n] for flag in _FLAGS for n in range(3, len(flag))})
_ARGS = st.one_of(
    st.tuples(st.sampled_from(_VALUE_FLAGS), _VALUES).map(list),
    st.sampled_from(_FLAGS).map(lambda flag: [flag]),  # a switch, or a missing value
    st.tuples(st.sampled_from(_UNKNOWN_FLAGS), _VALUES).map(list),
    st.tuples(st.sampled_from(_PREFIXES), _VALUES).map(list),
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.lists(st.sampled_from(EXPERIMENTS + ("warp-drive",)), max_size=1),
    args=st.lists(_ARGS, max_size=5),
)
def test_main_never_raises_on_any_argv(command, args):
    argv = command + [token for group in args for token in group]
    configs = []
    err = io.StringIO()
    with mock.patch.object(cli, "run", lambda cfg: configs.append(cfg) or 0), \
            redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3), argv
    if code == 0:
        assert len(configs) == 1 and lines == [], argv
        # only flags spelled in full are accepted
        assert all(t in _FLAGS for t in argv if t.startswith("--")), argv
    else:
        assert configs == [], argv
        (line,) = lines
        record = json.loads(line)
        assert set(record) == {"error", "message"}
        assert record["error"] == ("ConfigError" if code == 2 else "InvalidParameterError")


# Small sizes, so that every experiment runs in milliseconds; the drawn
# overrides below follow them in the config file and win.
_SMALL = "run.n = 500\nrun.bins = 16\ngrid.n_points = 512\n"
_EXTREMES = {
    "run.n": ["1", "2000"],
    "run.bins": ["2", "200"],
    "grid.n_points": ["256", "1024", "300"],
    "run.t": ["-1", "0", "1e-300", "0.5", "0.55", "5.6", "100", "1e8", "1e300"],
    "apparatus.grad_Bz": ["0", "1e-300", "-100", "1e8", "1e160", "-1e300"],
    "apparatus.y_d": ["6.5", "1e6", "1e300"],
    "packet.sigma": ["1e-300", "1e-8", "0.1", "30", "1e8", "1e300", "0"],
    "packet.k_y": ["1e-300", "1e-3", "1", "1e6", "1e160", "1e300", "-5"],
    "packet.t_prime": ["-1e300", "-3", "1e300"],
    "sandwich.layers": ["", "5:6:1e160", "5:6:-1e300", "4:5:100;5:6:-100", "0:1e300:1",
                        "-1e300:6:100", "6:5:100", "5:6:0;7:8:1e-300"],
    "recombine.phase_error": ["1e300", "-3.14"],
    "recombine.gap": ["0", "1e-300", "1", "1e300"],
    "recombine.separated": ["true"],
}
_SPINS = [("1+0j", "0+0j"), ("0+0j", "1+0j"), ("0.6+0j", "0+0.8j"),
          ("1e-200+0j", "1+0j"), ("0.1+0j", "0.99498743710662+0j"), ("2+0j", "0+0j")]


def _artifact_values(path):
    text = path.read_text()
    if path.suffix == ".csv":
        return [float(v) for line in text.splitlines()[1:] for v in line.split(",")]
    return _json_numbers(json.loads(text))


@settings(max_examples=150, deadline=None)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    overrides=st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(values) for key, values in _EXTREMES.items()}
    ),
    spin=st.none() | st.sampled_from(_SPINS),
)
@example(experiment="evolve", overrides={"packet.k_y": "1e160"}, spin=None)
def test_main_runs_any_config_to_a_whole_result(experiment, overrides, spin):
    # every experiment really runs: it exits 0 with only finite artifacts and
    # a silent stderr, or fails with one JSON line and writes no artifact
    if spin is not None:
        overrides = dict(overrides, **{"packet.chi_plus": spin[0], "packet.chi_minus": spin[1]})
    text = _SMALL + "".join(f"{key} = {value}\n" for key, value in overrides.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "run.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = pathlib.Path(tmp, "out")
        err, summary = io.StringIO(), io.StringIO()
        with redirect_stderr(err), redirect_stdout(summary):
            code = main([experiment, "--config", cfg_path, "--out", str(out)])
        assert code in (0, 2, 3, 4), text
        if code == 0:
            assert err.getvalue() == "", text
            # the summary line names the first artifact
            assert os.path.isfile(summary.getvalue().rstrip("\n").rsplit(" -> ", 1)[1])
            for path in out.iterdir():
                assert np.isfinite(_artifact_values(path)).all(), (path.name, text)
        else:
            (line,) = err.getvalue().splitlines()
            assert set(json.loads(line)) == {"error", "message"}, text
            assert not out.exists() or os.listdir(out) == [], text


# Extreme ensemble configs that exit 0 with finite artifacts; the property
# above accepts exit 4 for any config, so a change that turns one of these
# into a DomainError fails only here
_MUST_RUN = [
    (experiment, {"apparatus.grad_Bz": grad, key: value})
    for experiment in ("classical", "meanfield")
    for grad in ("1e8", "1e160", "-1e300")
    for key, value in (("packet.sigma", "1e-8"), ("packet.sigma", "30"),
                       ("packet.sigma", "1e300"), ("packet.k_y", "1e-3"),
                       ("packet.k_y", "1e300"), ("run.t", "0.55"), ("run.t", "1e8"))
]


@pytest.mark.parametrize(
    "experiment,overrides", _MUST_RUN,
    ids=[f"{e}-" + "-".join(f"{k}={v}" for k, v in o.items()) for e, o in _MUST_RUN],
)
def test_extreme_ensemble_configs_run(experiment, overrides, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_SMALL + "".join(f"{k} = {v}\n" for k, v in overrides.items()))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    for path in out.iterdir():
        assert np.isfinite(_artifact_values(path)).all(), path.name


# Exit of backtrack and recombine, as (backtrack, recombine), over every
# single-key override of _EXTREMES, with no spin and with each of
# _SCALAR_SPINS (one group of four per value), and over two products of
# extremes, the last key varying fastest.  Each character is one config: 0
# (exit 0), 3 (InvalidParameterError, exit 3), D (DomainError, exit 4) or N
# (NoSplitError, exit 4).  The property above accepts exit 4 for any config,
# so a change that runs a config that failed, or fails one that ran, fails
# only here.
_SCALAR_SPINS = [("1+0j", "0+0j"), ("0.6+0j", "0+0.8j"), ("1e-200+0j", "1+0j")]
_EXIT_CHAR = {(0, None): "0", (3, "InvalidParameterError"): "3", (4, "DomainError"): "D",
              (4, "NoSplitError"): "N"}
_SCALAR_EXITS = {
    "run.n": ("0000 0000", "0000 0000"),
    "run.bins": ("0000 0000", "0000 0000"),
    "grid.n_points": ("0000 0000 0000", "0000 0000 0000"),
    "run.t": ("0000 0000 0000 0000 0000 0000 0000 0000 0000",
              "0000 0000 0000 0000 0000 0000 0000 0000 0000"),
    "apparatus.grad_Bz": ("NNNN 0000 0000 0000 0000 DDDD", "NNNN 0000 0000 0000 DDDD DDDD"),
    "apparatus.y_d": ("0000 0000 DDDD", "0000 0000 0000"),
    "packet.sigma": ("0000 0000 0000 0000 0000 0000 3333", "DDDD 0000 0000 0000 0000 0000 3333"),
    "packet.k_y": ("DDDD 0000 0000 0000 NNNN NNNN 3333", "DDDD 0000 0000 0000 0000 0000 3333"),
    "packet.t_prime": ("3333 0000 3333", "3333 0000 3333"),
    "sandwich.layers": ("0000 0000 0000 0000 0000 0000 0000 0000",
                        "0000 0000 0000 0000 0000 0000 0000 0000"),
    "recombine.phase_error": ("0000 0000", "0000 0000"),
    "recombine.gap": ("0000 0000 0000 0000", "0000 0000 0000 3333"),
    "recombine.separated": ("0000", "0000"),
    "apparatus.grad_Bz*packet.sigma*packet.k_y": (
        "NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 3333333 "
        "D000NN3 D000NN3 D000NN3 D000NN3 D000NN3 D000NN3 3333333 "
        "D000NN3 D000NN3 D000NN3 D000NN3 D000NN3 D000NN3 3333333 "
        "D0000N3 D0000N3 D0000N3 D0000N3 D0000N3 D0000N3 3333333 "
        "D0000N3 D0000N3 D0000N3 D0000N3 D0000N3 D0000N3 3333333 "
        "DDDD003 DDDD003 DDDD003 DDDD003 DDDD003 DDDD003 3333333",
        "NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 NNNNNN3 3333333 "
        "DDDDNN3 D000NN3 0000NN3 0000NN3 0000NN3 0000NN3 3333333 "
        "DDDDDD3 D000003 D000003 D000003 D000003 D000003 3333333 "
        "DDDDDD3 D000003 D000003 D000003 D000003 D000003 3333333 "
        "DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 3333333 "
        "DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 DDDDDD3 3333333",
    ),
    "recombine.gap*recombine.phase_error*apparatus.grad_Bz": (
        "N0000D N0000D N0000D N0000D N0000D N0000D N0000D N0000D",
        "N000DD N000DD N000DD N000DD N000DD N000DD 333333 333333",
    ),
}


def _scalar_configs(group: str) -> list[dict[str, str]]:
    if "*" in group:
        keys = group.split("*")
        return [dict(zip(keys, values))
                for values in itertools.product(*(_EXTREMES[key] for key in keys))]
    spins = [{}] + [{"packet.chi_plus": plus, "packet.chi_minus": minus}
                    for plus, minus in _SCALAR_SPINS]
    return [{group: value, **spin} for value in _EXTREMES[group] for spin in spins]


@pytest.mark.parametrize("group", list(_SCALAR_EXITS))
@pytest.mark.parametrize("experiment", cli._SCALAR)
def test_scalar_exit_codes_are_pinned(experiment, group, tmp_path, capsys):
    expected = _SCALAR_EXITS[group][cli._SCALAR.index(experiment)].replace(" ", "")
    configs = _scalar_configs(group)
    assert len(configs) == len(expected)
    changed = []
    for i, (overrides, want) in enumerate(zip(configs, expected)):
        cfg_path = tmp_path / f"{i}.cfg"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
        code = main([experiment, "--config", str(cfg_path), "--out", str(tmp_path / f"o{i}")])
        lines = capsys.readouterr().err.splitlines()
        error = json.loads(lines[0])["error"] if len(lines) == 1 else None
        got = _EXIT_CHAR.get((code, error), "?")
        if got != want:
            changed.append((overrides, want, got, lines))
    assert changed == []


@pytest.mark.parametrize("argv", [
    ["sandwich", "--layers", "5:6:1;5.5:7:1"],  # overlapping layers
    ["sandwich", "--layers=-1:6:100"],  # a layer upstream of the source at y = 0
    ["recombine", "--gap", "-0.5"],  # stage 2 starts before stage 1 ends
])
def test_layout_faults_exit_validation(argv, tmp_path, capsys):
    # a bad field layout is a validation error, as a bad apparatus is
    out = tmp_path / "layout"
    assert main(argv + ["--out", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "InvalidParameterError"
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("argv", [["evolve", "--gr", "8192"], ["classical", "--se", "7"]])
def test_abbreviated_flag_rejected(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and argv[1] in record["message"]
    assert not (tmp_path / "a").exists()


def test_runtime_imports_no_scipy(fresh_python):
    # scipy is a test dependency only: its import would cost every CLI run
    # about 1.5 s, and concurrent.futures would load logging.  The star
    # import loads every module behind the lazy namespace.
    out = fresh_python(
        "import sys, sgsim.cli; from sgsim import *; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m in ('concurrent.futures', 'logging')))"
    )
    assert out.strip() == "[]"
