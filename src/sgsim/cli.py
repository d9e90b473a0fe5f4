"""Batch front-end: parse a run configuration, dispatch, emit CSV/JSON artifacts.

Config format: flat ``key = value`` lines with dotted section keys
(``apparatus.y_b = 5.0``), '#' comments, later keys overriding earlier ones.
Command-line flags override file values.  All numeric output uses 17
significant digits, and every artifact is written atomically (temp file +
rename), so identical config + seed gives byte-identical outputs.

Exit codes: 0 success, 2 parse or usage error, 3 validation error,
4 numeric/domain failure.  Failures also emit a machine-readable JSON error
record on stderr.
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

import numpy as np

from . import analytic, classical, density, experiments, meanfield, oracle
from .core import (
    Apparatus,
    Branch,
    GaussianPacket,
    UnitSystem,
    _require_finite,
    derive_timing,
    detection_time,
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
    n_field_steps: int = 256
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
        if self.n_field_steps < 1:
            raise InvalidParameterError(
                f"n_field_steps must be >= 1, got {self.n_field_steps}"
            )
        if self.t is not None:
            _require_finite("t", self.t)
        _require_finite("phase_error", self.phase_error)
        _require_finite("stage_gap", self.stage_gap)
        _require_finite("layers", *(v for layer in self.layers for v in layer))

    def default_time(self) -> float:
        timing = derive_timing(self.apparatus, self.packet, self.units)
        if self.experiment == "oracle-compare":
            return detection_time(self.apparatus, self.packet, self.units)
        return timing.t_c + 5.0


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


# Every config key, in the order config_to_text writes them.
_KEYS = (
    _Key("run.experiment", "experiment", *_TEXT),
    _Key("run.n", "n", *_INT, "--n N"),
    _Key("run.seed", "seed", *_INT, "--seed N"),
    _Key("run.bins", "bins", *_INT, "--bins N"),
    _Key("run.out", "out", *_TEXT, "--out DIR"),
    *_floats("units", "hbar", "mass", "mu_b"),
    *_floats("apparatus", "y_a", "y_b", "y_c", "y_d", "grad_Bz"),
    *_floats("packet", "sigma", "k_y"),
    _Key("packet.chi_plus", "packet.chi_plus", *_COMPLEX),
    _Key("packet.chi_minus", "packet.chi_minus", *_COMPLEX),
    *_floats("packet", "t_prime"),
    _Key("grid.n_points", "grid_n", *_INT, "--grid-n N"),
    _Key("oracle.n_field_steps", "n_field_steps", *_INT,
         "--n-field-steps N_FIELD_STEPS", ("oracle-compare",)),
    _Key("recombine.phase_error", "phase_error", *_FLOAT,
         "--phase-error PHASE_ERROR", ("recombine",)),
    _Key("recombine.gap", "stage_gap", *_FLOAT, "--gap GAP", ("recombine",)),
    _Key("recombine.separated", "separated", *_BOOL, "--separated", ("recombine",)),
    _Key("sandwich.layers", "layers", *_LAYERS, "--layers LAYERS", ("sandwich",),
         "semicolon-separated y0:y1:grad triples"),
    _Key("run.t", "t", *_FLOAT, "--t T"),  # written only when set
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
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text), base)


# ---------------------------------------------------------------------------
# artifact writing


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_g(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment runners (each returns a one-line summary)


def _run_classical(cfg: RunConfig, out: str) -> str:
    hist = classical.classical_ensemble(
        cfg.n, cfg.seed, cfg.apparatus, cfg.packet, cfg.bins, cfg.units
    )
    timing = derive_timing(cfg.apparatus, cfg.packet, cfg.units)
    write_atomic(os.path.join(out, "histogram.csv"), hist.to_csv_text())
    write_atomic(os.path.join(out, "histogram.json"), hist.to_json_text())
    write_atomic(
        os.path.join(out, "summary.json"),
        _json_text({"experiment": "classical", "n": cfg.n, "seed": cfg.seed,
                    "z_max": timing.z_max, "v_z": timing.v_z}),
    )
    return f"classical: n={cfg.n} z_max={_g(timing.z_max)} -> {out}/histogram.csv"


def _field_time(cfg: RunConfig) -> float:
    return cfg.t if cfg.t is not None else cfg.default_time()


def _run_evolve(cfg: RunConfig, out: str) -> str:
    t = _field_time(cfg)
    fld = analytic.evolve_packet(cfg.packet, cfg.apparatus, t, cfg.units)
    grid = oracle.suggest_grid(cfg.packet, cfg.apparatus, t, cfg.grid_n, cfg.units)
    z = grid.points
    marginal = fld.z_marginal_density(z)
    write_atomic(
        os.path.join(out, "z_marginal.csv"),
        _csv_text(["z", "density"], zip(z, marginal)),
    )
    y_center = cfg.packet.source_y(cfg.apparatus) + fld.timing.v * fld.tau
    phi_p, phi_m = fld.sample_grid([0.0], [y_center], z)
    rows = zip(
        np.zeros_like(z), np.full_like(z, y_center), z,
        phi_p[0, 0].real, phi_p[0, 0].imag, phi_m[0, 0].real, phi_m[0, 0].imag,
    )
    write_atomic(
        os.path.join(out, "field_line.csv"),
        _csv_text(["x", "y", "z", "re_phi_plus", "im_phi_plus",
                   "re_phi_minus", "im_phi_minus"], rows),
    )
    report = experiments.detect_bimodality(marginal, z)
    write_atomic(
        os.path.join(out, "summary.json"),
        _json_text({
            "experiment": "evolve", "t": t,
            "peak_count": report.peak_count,
            "peak_positions": list(report.peak_positions),
            "expected_centers": [fld.branch_center(b) for b in Branch],
            "width": fld.width,
        }),
    )
    return f"evolve: t={_g(t)} peaks={report.peak_count} -> {out}/z_marginal.csv"


def _run_density(cfg: RunConfig, out: str) -> str:
    t = _field_time(cfg)
    fld = analytic.evolve_packet(cfg.packet, cfg.apparatus, t, cfg.units)
    half = abs(fld.branch_center(Branch.PLUS)) + 6.0 * fld.width
    z_values = np.linspace(-half, half, 1001)
    rows = []
    for variant, flag in (("collapse_free", 1.0), ("collapsed", 0.0)):
        rho = density.density_sweep(fld, z_values, variant)
        rows.extend(zip(
            z_values, rho[:, 0, 0].real, rho[:, 1, 1].real,
            rho[:, 0, 1].real, rho[:, 0, 1].imag, np.full_like(z_values, flag),
        ))
    write_atomic(
        os.path.join(out, "density_sweep.csv"),
        _csv_text(["z", "rho_pp", "rho_mm", "re_rho_pm", "im_rho_pm",
                   "collapse_free"], rows),
    )
    coherence = density.coherence_norm(fld)
    write_atomic(
        os.path.join(out, "summary.json"),
        _json_text({"experiment": "density", "t": t, "coherence_norm": coherence}),
    )
    return f"density: t={_g(t)} coherence={_g(coherence)} -> {out}/density_sweep.csv"


def _run_meanfield(cfg: RunConfig, out: str) -> str:
    t = _field_time(cfg)
    hist = meanfield.meanfield_ensemble(
        cfg.n, cfg.seed, cfg.packet, cfg.apparatus, t, cfg.bins, cfg.units
    )
    write_atomic(os.path.join(out, "histogram.csv"), hist.to_csv_text())
    write_atomic(os.path.join(out, "histogram.json"), hist.to_json_text())
    write_atomic(
        os.path.join(out, "summary.json"),
        _json_text({"experiment": "meanfield", "n": cfg.n, "seed": cfg.seed, "t": t}),
    )
    return f"meanfield: n={cfg.n} t={_g(t)} -> {out}/histogram.csv"


def _run_oracle_compare(cfg: RunConfig, out: str) -> str:
    t = _field_time(cfg)
    grid = oracle.suggest_grid(cfg.packet, cfg.apparatus, t, cfg.grid_n, cfg.units)
    report = oracle.compare_analytic_oracle(
        cfg.packet, cfg.apparatus, t, grid, cfg.units, cfg.n_field_steps
    )
    write_atomic(os.path.join(out, "report.json"), _json_text(report.to_json_dict()))
    state = report.state
    rows = zip(grid.points, state.psi_plus.real, state.psi_plus.imag,
               state.psi_minus.real, state.psi_minus.imag)
    write_atomic(
        os.path.join(out, "snapshot.csv"),
        _csv_text(["z", "re_psi_plus", "im_psi_plus", "re_psi_minus",
                   "im_psi_minus"], rows),
    )
    return (
        f"oracle-compare: t={_g(t)} err_plus={_g(report.err_plus)} "
        f"err_minus={_g(report.err_minus)} -> {out}/report.json"
    )


def _run_backtrack(cfg: RunConfig, out: str) -> str:
    report = experiments.backtrack_collapse(cfg.packet, cfg.apparatus, units=cfg.units)
    write_atomic(os.path.join(out, "report.json"), _json_text(report.to_json_dict()))
    return f"backtrack: y_collapse={_g(report.y_collapse)} -> {out}/report.json"


def _reversal_stage(cfg: RunConfig) -> Apparatus:
    a = cfg.apparatus
    gap = cfg.stage_gap * a.dy
    y_b2 = a.y_c + gap
    return Apparatus(
        y_a=a.y_c + 0.5 * gap, y_b=y_b2, y_c=y_b2 + a.dy,
        y_d=y_b2 + a.dy + (a.y_d - a.y_c), grad_Bz=-a.grad_Bz,
    )


def _run_recombine(cfg: RunConfig, out: str) -> str:
    stage2 = None if cfg.separated else _reversal_stage(cfg)
    result = experiments.recombine(
        cfg.packet, cfg.apparatus, stage2, cfg.phase_error, cfg.units
    )
    write_atomic(os.path.join(out, "report.json"), _json_text(result.to_json_dict()))
    return f"recombine: fidelity={_g(result.fidelity)} -> {out}/report.json"


def _run_sandwich(cfg: RunConfig, out: str) -> str:
    stack = experiments.LayerStack(
        tuple(experiments.Layer(*triple) for triple in cfg.layers)
    )
    t = _field_time(cfg)
    result = experiments.sandwich(cfg.packet, stack, t, bins=cfg.bins, units=cfg.units)
    write_atomic(os.path.join(out, "histogram.csv"), result.histogram.to_csv_text())
    write_atomic(os.path.join(out, "report.json"), _json_text(result.to_json_dict()))
    return f"sandwich: peaks={result.peak_count} -> {out}/report.json"


_RUNNERS = {
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
    """Execute one configured experiment; returns the process exit code."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            summary = _RUNNERS[config.experiment](config, _output_dir(config.out))
    except FloatingPointError as exc:
        return _fail(DomainError(f"numeric overflow or invalid operation: {exc}"))
    except SgSimError as exc:
        return _fail(exc)
    print(summary)
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
