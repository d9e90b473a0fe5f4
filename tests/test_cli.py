import io
import json
import math
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
        n_field_steps=draw(st.integers(1, 10**6)),
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
        "oracle.n_field_steps = 256\n"
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
    [{"seed": -1}, {"n_field_steps": 0}, {"n_field_steps": -3}, {"t": math.inf},
     {"t": math.nan}, {"phase_error": math.inf}, {"stage_gap": math.nan},
     {"layers": ((5.0, math.inf, 1.0),)}],
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


def test_argparse_rejects_unknown_subcommand(capsys):
    # usage errors get the same exit code and JSON record as a bad config
    for argv in (["warp-drive"], ["recombine", "--grad", "1"], [], ["density", "--t"]):
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
    for argv in (
        ["oracle-compare", "--n-field-steps", "-3"],
        ["oracle-compare", "--n-field-steps", "0"],
        ["classical", "--seed", "-1"],
    ):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidParameterError"


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


def test_nan_spinor_config_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "nan.cfg"
    cfg_path.write_text("run.experiment = backtrack\npacket.chi_plus = nan+0j\n")
    code = main(["backtrack", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "InvalidParameterError"


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
    common = {"--config", "--out", "--seed", "--n", "--t", "--bins", "--grid-n"}
    extra = {
        "oracle-compare": {"--n-field-steps"},
        "recombine": {"--phase-error", "--gap", "--separated"},
        "sandwich": {"--layers"},
    }
    for name in EXPERIMENTS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        assert flags == {"--help"} | common | extra.get(name, set()), name


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


@pytest.mark.parametrize("argv", [["evolve", "--gr", "8192"], ["evolve", "--se", "7"]])
def test_abbreviated_flag_rejected(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ConfigError" and argv[1] in record["message"]
    assert not (tmp_path / "a").exists()


def test_runtime_imports_no_scipy(fresh_python):
    # scipy is a test dependency only: its import would cost every CLI run
    # about 1.5 s.  The thread pool's concurrent.futures, which loads logging,
    # is imported only when an ensemble runs on more than one thread.
    out = fresh_python(
        "import sys, sgsim, sgsim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m in ('concurrent.futures', 'logging')))"
    )
    assert out.strip() == "[]"
