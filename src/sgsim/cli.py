"""Batch front-end: parse a run configuration, dispatch, emit CSV/JSON artifacts.

Config format: flat ``key = value`` lines with dotted section keys
(``apparatus.y_b = 5.0``), '#' comments, later keys overriding earlier ones.
Command-line flags override file values.  All numeric output uses 17
significant digits, so identical config + seed gives byte-identical outputs.
Each experiment runner returns its artifacts as texts; ``run`` builds all of
them before it writes any, each atomically (temp file + rename), so an
experiment that fails writes no artifact, and a write that fails leaves only
the whole artifacts written before it.

Exit codes: 0 success, 2 parse or usage error or an unwritable artifact,
3 validation error, 4 numeric/domain failure or out of memory.  Failures
also emit a machine-readable JSON error record on stderr.

numpy is imported only by the runners of array experiments, which run with
its overflow and invalid-operation errors raised; the scalar experiments
(``_SCALAR``), and every failure to parse or validate the config, run
without it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable

from .core import (
    Apparatus,
    Branch,
    GaussianPacket,
    UnitSystem,
    _require_finite,
    backtrack_collapse,
    derive_timing,
    detection_time,
    recombine,
)
from .errors import ConfigError, DomainError, InvalidParameterError, SgSimError

EXPERIMENTS = (
    "classical",
    "evolve",
    "density",
    "meanfield",
    "oracle-compare",
    "backtrack",
    "recombine",
    "sandwich",
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4


def _g(x: float) -> str:
    """17 significant digits; NaN and Inf are refused so no artifact holds them."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"refusing to write non-finite value {x!r}")
    return f"{x:.17g}"


@dataclass(frozen=True)
class RunConfig:
    """Everything one batch run needs; round-trips through the text format."""

    experiment: str
    units: UnitSystem = UnitSystem()
    apparatus: Apparatus = Apparatus(0.0, 5.0, 6.0, 26.0, 100.0)
    packet: GaussianPacket = GaussianPacket()
    n: int = 100_000
    seed: int = 42
    bins: int = 40
    t: float | None = None
    grid_n: int = 4096
    phase_error: float = 0.0
    stage_gap: float = 0.0001
    separated: bool = False
    layers: tuple[tuple[float, float, float], ...] = ((5.0, 6.0, 100.0),)
    out: str = "sgsim-out"

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if self.bins < 2:
            raise InvalidParameterError(f"bins must be >= 2, got {self.bins}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.t is not None:
            _require_finite("t", self.t)
        _require_finite("phase_error", self.phase_error)
        _require_finite("stage_gap", self.stage_gap)
        _require_finite("layers", *(v for layer in self.layers for v in layer))

    def default_time(self) -> float:
        if self.experiment == "oracle-compare":
            return detection_time(self.apparatus, self.packet, self.units)
        return derive_timing(self.apparatus, self.packet, self.units).t_c + 5.0


def impulsive_defaults() -> RunConfig:
    """Default oracle-compare setup: short, weak interaction region."""
    return RunConfig(
        experiment="oracle-compare",
        apparatus=Apparatus(0.0, 4.975, 5.025, 10.0, 200.0),
    )


def default_config(experiment: str) -> RunConfig:
    if experiment == "oracle-compare":
        return impulsive_defaults()
    return RunConfig(experiment=experiment)


# ---------------------------------------------------------------------------
# config text format


def parse_config_text(text: str) -> dict[str, str]:
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        kv[key] = value
    return kv


def _parse_layers(text: str) -> tuple[tuple[float, float, float], ...]:
    if not text.strip():
        return ()
    layers = []
    for item in text.split(";"):
        parts = item.split(":")
        if len(parts) != 3:
            raise ValueError(f"layer must be 'y0:y1:grad', got {item!r}")
        layers.append(tuple(float(p) for p in parts))
    return tuple(layers)


def _layers_text(layers) -> str:
    return ";".join(f"{_g(a)}:{_g(b)}:{_g(g)}" for a, b, g in layers)


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be 'true' or 'false', got {text!r}")
    return text == "true"


# (parse, format) pairs; parsers raise ValueError on malformed text
_TEXT = (str, str)
_INT = (int, str)
_FLOAT = (float, _g)
_COMPLEX = (lambda s: complex(s.replace(" ", "")), lambda c: f"{c.real:.17g}{c.imag:+.17g}j")
_BOOL = (_parse_bool, lambda b: "true" if b else "false")
_LAYERS = (_parse_layers, _layers_text)


@dataclass(frozen=True)
class _Key:
    """One config key: the ``RunConfig`` field it sets (dotted for a nested
    object), its text parser and formatter, and the CLI flag that sets it.

    ``flag`` is ``"--name METAVAR"``, or a bare ``"--name"`` for a switch
    that sets the key to ``true``; ``commands`` are the subcommands that
    take it.
    """

    key: str
    field: str
    parse: Callable[[str], object]
    fmt: Callable[[object], str]
    flag: str | None = None
    commands: tuple[str, ...] = EXPERIMENTS
    help: str | None = None


def _floats(section: str, *names: str) -> tuple[_Key, ...]:
    return tuple(_Key(f"{section}.{n}", f"{section}.{n}", *_FLOAT) for n in names)


_ENSEMBLES = ("classical", "meanfield")
_TIMED = ("evolve", "density", "meanfield", "oracle-compare", "sandwich")
# experiments computed in Python floats, which run without importing numpy
_SCALAR = ("backtrack", "recombine")

# Every config key, in the order config_to_text writes them.  A flag is
# offered only by the subcommands that read its key; a config file may set
# any key, since config_to_text writes them all.
_KEYS = (
    _Key("run.experiment", "experiment", *_TEXT),
    _Key("run.n", "n", *_INT, "--n N", _ENSEMBLES),
    _Key("run.seed", "seed", *_INT, "--seed N", _ENSEMBLES),
    _Key("run.bins", "bins", *_INT, "--bins N", _ENSEMBLES + ("sandwich",)),
    _Key("run.out", "out", *_TEXT, "--out DIR"),
    *_floats("units", "hbar", "mass", "mu_b"),
    *_floats("apparatus", "y_a", "y_b", "y_c", "y_d", "grad_Bz"),
    *_floats("packet", "sigma", "k_y"),
    _Key("packet.chi_plus", "packet.chi_plus", *_COMPLEX),
    _Key("packet.chi_minus", "packet.chi_minus", *_COMPLEX),
    *_floats("packet", "t_prime"),
    _Key("grid.n_points", "grid_n", *_INT, "--grid-n N", ("evolve", "oracle-compare")),
    _Key("recombine.phase_error", "phase_error", *_FLOAT,
         "--phase-error PHASE_ERROR", ("recombine",)),
    _Key("recombine.gap", "stage_gap", *_FLOAT, "--gap GAP", ("recombine",)),
    _Key("recombine.separated", "separated", *_BOOL, "--separated", ("recombine",)),
    _Key("sandwich.layers", "layers", *_LAYERS, "--layers LAYERS", ("sandwich",),
         "semicolon-separated y0:y1:grad triples"),
    _Key("run.t", "t", *_FLOAT, "--t T", _TIMED),  # written only when set
)
_BY_KEY = {row.key: row for row in _KEYS}


def config_from_mapping(kv: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    experiment = kv.get("run.experiment", base.experiment if base else None)
    if experiment is None:
        raise ConfigError("run.experiment is required")
    cfg = base if base is not None and base.experiment == experiment else default_config(experiment)
    unknown = kv.keys() - _BY_KEY.keys()
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # Each nested object is rebuilt once from all of its overrides, because
    # its validation spans fields (Apparatus orders y_a < y_b < y_c < y_d).
    updates: dict[str, dict] = {"": {}}
    for key, text in kv.items():
        row = _BY_KEY[key]
        owner, _, name = row.field.rpartition(".")
        try:
            updates.setdefault(owner, {})[name] = row.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    top = updates.pop("")
    for owner, changes in updates.items():
        top[owner] = replace(getattr(cfg, owner), **changes)
    return replace(cfg, **top)


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for row in _KEYS:
        value = attrgetter(row.field)(cfg)
        if value is not None:
            lines.append(f"{row.key} = {row.fmt(value)}")
    return "\n".join(lines) + "\n"


def load_config(path: str, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text), base)


# ---------------------------------------------------------------------------
# artifact writing


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # open()'s mode; mkstemp gives 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj: dict) -> str:
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"refusing to write non-finite value: {exc}") from exc


def _csv_text(header: list[str], columns) -> str:
    """One row per index of the equal-length ``columns``, each value as ``_g``
    writes it: the %-format's %.17g gives the same digits as its format spec."""
    import numpy as np

    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        raise DomainError(f"refusing to write non-finite value {float(table[~finite][0])!r}")
    row = ",".join(["%.17g"] * len(header))
    return "\n".join([",".join(header), *(row % tuple(r) for r in table.tolist())]) + "\n"


# ---------------------------------------------------------------------------
# experiment runners

# A runner's result: its one-line summary and its artifacts, an ordered
# mapping from file name to text whose first entry the summary line names.
# Each runner imports the modules it calls, so that a run loads only those;
# the scalar runners call only ``core`` and load no numpy.
_Result = tuple[str, dict[str, str]]


def _run_classical(cfg: RunConfig) -> _Result:
    from . import classical

    hist = classical.classical_ensemble(
        cfg.n, cfg.seed, cfg.apparatus, cfg.packet, cfg.bins, cfg.units
    )
    timing = derive_timing(cfg.apparatus, cfg.packet, cfg.units)
    return f"classical: n={cfg.n} z_max={_g(timing.z_max)}", {
        "histogram.csv": hist.to_csv_text(),
        "histogram.json": hist.to_json_text(),
        "summary.json": _json_text({"experiment": "classical", "n": cfg.n,
                                    "n_outside": cfg.n - hist.n_total, "seed": cfg.seed,
                                    "z_max": timing.z_max, "v_z": timing.v_z}),
    }


def _field_time(cfg: RunConfig) -> float:
    return cfg.t if cfg.t is not None else cfg.default_time()


def _run_evolve(cfg: RunConfig) -> _Result:
    import numpy as np

    from . import analytic, experiments

    t = _field_time(cfg)
    fld = analytic.evolve_packet(cfg.packet, cfg.apparatus, t, cfg.units)
    grid = analytic.suggest_grid(cfg.packet, cfg.apparatus, t, cfg.grid_n, cfg.units)
    z = grid.points
    marginal = fld.z_marginal_density(z)
    grid.check_resolved(marginal)
    gx, gy = fld.x_factor([0.0]), fld.y_factor([fld.y_center])  # arrays: scalars round the tails
    chi = {Branch.PLUS: cfg.packet.chi_plus, Branch.MINUS: cfg.packet.chi_minus}
    phi_p, phi_m = (chi[b] * gx * gy * fld.z_factor(b.deflection_sign, z) for b in Branch)
    columns = [np.zeros_like(z), np.full_like(z, fld.y_center), z,
               phi_p.real, phi_p.imag, phi_m.real, phi_m.imag]
    report = experiments.detect_bimodality(marginal, z)
    return f"evolve: t={_g(t)} peaks={report.peak_count}", {
        "z_marginal.csv": _csv_text(["z", "density"], [z, marginal]),
        "field_line.csv": _csv_text(["x", "y", "z", "re_phi_plus", "im_phi_plus",
                                     "re_phi_minus", "im_phi_minus"], columns),
        "summary.json": _json_text({
            "experiment": "evolve", "t": t,
            "peak_count": report.peak_count,
            "peak_positions": list(report.peak_positions),
            "expected_centers": [fld.branch_center(b) for b in Branch],
            "width": fld.width,
        }),
    }


def _run_density(cfg: RunConfig) -> _Result:
    import numpy as np

    from . import analytic, density

    t = _field_time(cfg)
    fld = analytic.evolve_packet(cfg.packet, cfg.apparatus, t, cfg.units)
    half = abs(fld.branch_center(Branch.PLUS)) + 6.0 * fld.width
    z_values = np.linspace(-half, half, 1001)
    # the collapse-free sweep's rows (flag 1), then the collapsed one's (flag 0)
    rho = np.concatenate([density.density_sweep(fld, z_values, variant)
                          for variant in ("collapse_free", "collapsed")])
    columns = [np.tile(z_values, 2), rho[:, 0, 0].real, rho[:, 1, 1].real,
               rho[:, 0, 1].real, rho[:, 0, 1].imag, np.repeat([1.0, 0.0], z_values.size)]
    coherence = density.coherence_norm(fld)
    return f"density: t={_g(t)} coherence={_g(coherence)}", {
        "density_sweep.csv": _csv_text(["z", "rho_pp", "rho_mm", "re_rho_pm",
                                        "im_rho_pm", "collapse_free"], columns),
        "summary.json": _json_text({"experiment": "density", "t": t,
                                    "coherence_norm": coherence}),
    }


def _run_meanfield(cfg: RunConfig) -> _Result:
    from . import meanfield

    t = _field_time(cfg)
    hist = meanfield.meanfield_ensemble(
        cfg.n, cfg.seed, cfg.packet, cfg.apparatus, t, cfg.bins, cfg.units
    )
    return f"meanfield: n={cfg.n} t={_g(t)}", {
        "histogram.csv": hist.to_csv_text(),
        "histogram.json": hist.to_json_text(),
        "summary.json": _json_text({"experiment": "meanfield", "n": cfg.n,
                                    "n_outside": cfg.n - hist.n_total,
                                    "seed": cfg.seed, "t": t}),
    }


def _run_oracle_compare(cfg: RunConfig) -> _Result:
    from . import analytic, oracle

    t = _field_time(cfg)
    grid = analytic.suggest_grid(cfg.packet, cfg.apparatus, t, cfg.grid_n, cfg.units)
    report = oracle.compare_analytic_oracle(cfg.packet, cfg.apparatus, t, grid, cfg.units)
    state = report.state
    columns = [grid.points, state.psi_plus.real, state.psi_plus.imag,
               state.psi_minus.real, state.psi_minus.imag]
    summary = (f"oracle-compare: t={_g(t)} err_plus={_g(report.err_plus)} "
               f"err_minus={_g(report.err_minus)}")
    return summary, {
        "report.json": _json_text(report.to_json_dict()),
        "snapshot.csv": _csv_text(["z", "re_psi_plus", "im_psi_plus", "re_psi_minus",
                                   "im_psi_minus"], columns),
    }


def _run_backtrack(cfg: RunConfig) -> _Result:
    report = backtrack_collapse(cfg.packet, cfg.apparatus, units=cfg.units)
    return (f"backtrack: y_collapse={_g(report.y_collapse)}",
            {"report.json": _json_text(report.to_json_dict())})


def _reversal_stage(cfg: RunConfig) -> Apparatus:
    a = cfg.apparatus
    gap = cfg.stage_gap * a.dy
    y_b2 = a.y_c + gap
    return Apparatus(
        y_a=a.y_a, y_b=y_b2, y_c=y_b2 + a.dy,
        y_d=y_b2 + a.dy + (a.y_d - a.y_c), grad_Bz=-a.grad_Bz,
    )


def _run_recombine(cfg: RunConfig) -> _Result:
    stage2 = None if cfg.separated else _reversal_stage(cfg)
    result = recombine(cfg.packet, cfg.apparatus, stage2, cfg.phase_error, cfg.units)
    return (f"recombine: fidelity={_g(result.fidelity)}",
            {"report.json": _json_text(result.to_json_dict())})


def _run_sandwich(cfg: RunConfig) -> _Result:
    from . import experiments

    stack = experiments.LayerStack(
        tuple(experiments.Layer(*triple) for triple in cfg.layers)
    )
    t = _field_time(cfg)
    result = experiments.sandwich(cfg.packet, stack, t, bins=cfg.bins, units=cfg.units)
    return f"sandwich: peaks={result.peak_count}", {
        "report.json": _json_text(result.to_json_dict()),
        "histogram.csv": result.histogram.to_csv_text(),
    }


_RUNNERS: dict[str, Callable[[RunConfig], _Result]] = {
    "classical": _run_classical,
    "evolve": _run_evolve,
    "density": _run_density,
    "meanfield": _run_meanfield,
    "oracle-compare": _run_oracle_compare,
    "backtrack": _run_backtrack,
    "recombine": _run_recombine,
    "sandwich": _run_sandwich,
}


def _output_dir(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"run.out: cannot create directory {path!r}: {exc}") from exc
    return path


def run(config: RunConfig) -> int:
    """Execute one configured experiment, then write all of its artifacts;
    returns the process exit code."""
    runner = _RUNNERS[config.experiment]
    try:
        out = _output_dir(config.out)
        if config.experiment in _SCALAR:
            summary, artifacts = runner(config)
        else:
            import numpy as np

            with np.errstate(over="raise", invalid="raise"):
                summary, artifacts = runner(config)
    # numpy's FloatingPointError in an array run, or a Python float's
    # OverflowError or ZeroDivisionError (a variance that underflows to 0)
    except ArithmeticError as exc:
        return _fail(DomainError(f"numeric overflow or invalid operation: {exc}"))
    except MemoryError as exc:  # a size too large to allocate (run.n, run.bins)
        return _fail(DomainError(f"out of memory: {exc}"))
    except SgSimError as exc:
        return _fail(exc)
    for name, text in artifacts.items():
        path = os.path.join(out, name)
        try:
            write_atomic(path, text)
        except OSError as exc:
            return _fail(ConfigError(f"run.out: cannot write {path!r}: {exc}"))
    print(f"{summary} -> {out}/{next(iter(artifacts))}")
    return EXIT_OK


def _fail(exc: SgSimError) -> int:
    """Emit the JSON error record on stderr; return the exit code for exc."""
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if isinstance(exc, ConfigError):
        return EXIT_PARSE
    if isinstance(exc, InvalidParameterError):
        return EXIT_VALIDATION
    return EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it gets the JSON record and
    exit 2 like any other bad flag; subparsers inherit the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag (--gr, --se) is an error, not
    # silently the flag it abbreviates
    parser = _Parser(
        prog="sgsim",
        description="Collapse-free Stern-Gerlach simulations",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH", default=None)
        for row in _KEYS:
            if row.flag is None or name not in row.commands:
                continue
            flag, _, metavar = row.flag.partition(" ")
            if metavar:
                p.add_argument(flag, dest=row.key, metavar=metavar, help=row.help)
            else:
                p.add_argument(flag, dest=row.key, action="store_const", const="true")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config file over the experiment's defaults, then flags over both; flag
    values are text and go through the same parsers as file values."""
    cfg = default_config(args.experiment)
    if args.config:
        cfg = load_config(args.config, cfg)
        if cfg.experiment != args.experiment:
            cfg = replace(cfg, experiment=args.experiment)
    flags = {k: v for k, v in vars(args).items() if k in _BY_KEY and v is not None}
    return config_from_mapping(flags, cfg)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _config_from_args(_build_parser().parse_args(argv))
    except SgSimError as exc:
        return _fail(exc)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
