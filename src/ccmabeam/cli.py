"""Command-line driver: design, eval, sweep, compare, gradcheck.

Config files are JSON with angles in degrees; everything internal runs
in radians.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure (in a sweep: any point failed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import ArrayConfig, ArrayGeometry, build_geometry, mics_per_ring
from .loss import VARIANTS, LossConfig
from .metrics import (
    GRID_RESOLUTION, METRIC_COLUMNS, BandTables, MetricCurves, NumericalError, metric_cells,
    write_csv,
)
from .optimizer import DesignPipeline, gradcheck, optimize, seeded_uniform
from .wavefield import (
    AngularGrid, BeampatternRows, Direction, export_beampattern_csv, steering_vector,
)
from .weighting import DesignParams, das_gains, normalized_filter, params_gains

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

SWEEP_KEYS = ("alpha", "lambda1", "lambda2", "lambda3")
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_POINTS = 5
REQUIRED = object()  # the default of a field the config must give

# each config object's fields and their defaults, by its path ("" is the root),
# in the order manifest.json writes them; a sweep gives only the fields it sweeps
DEFAULTS = {
    "": {"array": REQUIRED, "doa_deg": REQUIRED,
         "frequencies_hz": [float(f) for f in range(500, 7501, 500)], "loss": {},
         "grid_resolution_deg": math.degrees(GRID_RESOLUTION), "optimizer": {},
         "output_dir": "out", "version": None, "sweep": None},
    "array": {"ring_radii_m": REQUIRED, "sample_rate_hz": REQUIRED, "sound_speed_mps": 343.0},
    "doa_deg": {"elevation": REQUIRED, "azimuth": REQUIRED},
    "loss": {"variant": "L1", "alpha": 1.0, "lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0,
             "target_theta_deg": 40.0, "target_phi_deg": 40.0},
    "optimizer": {"budget": 2000, "seed": 0},
    "sweep": dict.fromkeys(SWEEP_KEYS),
}


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """A checked config; ``fields`` is its JSON with every default filled in."""

    fields: dict
    array: ArrayConfig
    doa: Direction
    frequencies: tuple[float, ...]
    loss: LossConfig
    grid_resolution: float
    budget: int
    seed: int
    output_dir: str
    sweep: dict[str, list[float]] | None

    def resolved(self) -> dict:
        """Full config echo; feeding this back through ``design`` reproduces the run."""
        # sweep is the one field that can hold None: an absent sweep stays absent
        return {k: v for k, v in {**self.fields, "version": __version__}.items() if v is not None}

    def replaced(self, **root_fields) -> "RunConfig":
        """This config with some root fields changed, checked as any config is."""
        return parse_config({**self.fields, **root_fields})


def _point_name(key: str, value: float) -> str:
    """One swept value as a sweep point's directory name spells it."""
    return f"{key}={value:g}"


def _object(value, path: str) -> dict:
    """``value``, checked against ``DEFAULTS[path]``, as a copy with the defaults filled in."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'config root'}: expected a JSON object")
    table = DEFAULTS[path]
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown field, expected one of {list(table)}")
    for key, default in table.items():
        if default is REQUIRED and key not in value:
            raise ConfigError(f"{prefix}{key}: required field is missing")
    return {key: value.get(key, default) for key, default in table.items()}


def _number(value, field: str, minimum=None, strict=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json reads NaN and Infinity
        raise ConfigError(f"{field}: expected a finite number")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        raise ConfigError(f"{field}: must be {bound} {minimum}, got {value}")
    return value


def _numbers(obj: dict, path: str, keys, minimum=None, strict=False) -> None:
    """Check each of ``obj``'s ``keys`` with ``_number`` and write it back as a float."""
    for key in keys:
        obj[key] = _number(obj[key], f"{path}.{key}", minimum, strict)


def parse_config(raw: dict) -> RunConfig:
    fields = _object(raw, "")
    array_raw = fields["array"] = _object(fields["array"], "array")
    radii = array_raw["ring_radii_m"]
    if not isinstance(radii, list) or not radii:
        raise ConfigError("array.ring_radii_m: expected a non-empty list of radii")
    array_raw["ring_radii_m"] = [_number(r, f"array.ring_radii_m[{i}]") for i, r in enumerate(radii)]
    _numbers(array_raw, "array", ("sample_rate_hz", "sound_speed_mps"), 0.0, strict=True)
    try:
        array = ArrayConfig(
            tuple(array_raw["ring_radii_m"]), array_raw["sample_rate_hz"], array_raw["sound_speed_mps"]
        )
        for r in array.ring_radii:
            mics_per_ring(r, array.min_wavelength)
    except ValueError as err:  # the rates passed _number; only the radii are left
        raise ConfigError(f"array.ring_radii_m: {err}") from None

    doa_raw = fields["doa_deg"] = _object(fields["doa_deg"], "doa_deg")
    _numbers(doa_raw, "doa_deg", ("elevation", "azimuth"))
    if not 0.0 <= doa_raw["elevation"] <= 90.0:
        # a planar array cannot separate mirror directions; the fit sector
        # covers [0, 90] degrees only
        raise ConfigError(f"doa_deg.elevation: must lie in [0, 90], got {doa_raw['elevation']}")
    doa = Direction.from_degrees(doa_raw["elevation"], doa_raw["azimuth"])

    freqs_raw = fields["frequencies_hz"]
    if not isinstance(freqs_raw, list) or not freqs_raw:
        raise ConfigError("frequencies_hz: expected a non-empty list of frequencies")
    nyquist = array.sample_rate / 2.0
    frequencies = fields["frequencies_hz"] = []
    for i, f in enumerate(freqs_raw):
        f = _number(f, f"frequencies_hz[{i}]", 0.0, strict=True)
        if f > nyquist:
            raise ConfigError(
                f"frequencies_hz[{i}]: {f} Hz exceeds the Nyquist frequency {nyquist} Hz"
            )
        if frequencies and f <= frequencies[-1]:
            # bands are looked up by frequency and L3 pairs them by position
            raise ConfigError(
                f"frequencies_hz[{i}]: {f} Hz does not exceed the previous band "
                f"{frequencies[-1]} Hz; bands must be strictly increasing"
            )
        if frequencies and f"{f:g}" == f"{frequencies[-1]:g}":
            # artifacts name a band by its %g spelling, which is monotone in f,
            # so a repeated spelling repeats the previous band's
            raise ConfigError(
                f"frequencies_hz[{i}]: {f} Hz is written as {f:g} Hz in artifact names, "
                f"as frequencies_hz[{i - 1}] is; the second band would overwrite the first"
            )
        frequencies.append(f)

    loss_raw = fields["loss"] = _object(fields["loss"], "loss")
    variant = loss_raw["variant"]
    if variant not in VARIANTS:
        raise ConfigError(f"loss.variant: must be one of {list(VARIANTS)}, got {variant!r}")
    for key in ("target_theta_deg", "target_phi_deg"):
        target = loss_raw[key] = _number(loss_raw[key], f"loss.{key}", 0.0, strict=True)
        if target > 180.0:
            raise ConfigError(f"loss.{key}: must be at most 180 degrees, got {target}")
    _numbers(loss_raw, "loss", ("alpha",))
    _numbers(loss_raw, "loss", ("lambda1", "lambda2", "lambda3"), 0.0)
    try:
        loss = LossConfig(
            variant=variant,
            target_theta=math.radians(loss_raw["target_theta_deg"]),
            target_phi=math.radians(loss_raw["target_phi_deg"]),
            **{key: loss_raw[key] for key in SWEEP_KEYS},
        )
    except ValueError as err:
        raise ConfigError(f"loss: {err}") from None

    grid_deg = _number(fields["grid_resolution_deg"], "grid_resolution_deg", 0.0, strict=True)
    fields["grid_resolution_deg"] = grid_deg

    opt_raw = fields["optimizer"] = _object(fields["optimizer"], "optimizer")
    budget, seed = opt_raw["budget"], opt_raw["seed"]
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ConfigError(f"optimizer.budget: expected a positive integer, got {budget!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"optimizer.seed: expected an integer, got {seed!r}")
    if seed < 0:  # seeded_uniform takes non-negative integers only
        raise ConfigError(f"optimizer.seed: must be at least 0, got {seed}")

    sweep = fields["sweep"]
    if sweep is not None:
        _object(sweep, "sweep")
        if not sweep:
            raise ConfigError("sweep: expected a non-empty object of parameter value lists")
        for key, values in sweep.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep.{key}: expected a non-empty list of values")
            names = {}  # point directory name -> index of its value
            for i, v in enumerate(values):
                field = f"sweep.{key}[{i}]"
                value = _number(v, field)
                try:  # sweeps run under L3 only
                    replace(loss, variant="L3", **{key: value})
                except ValueError as err:
                    raise ConfigError(f"{field}: {err}") from None
                name = _point_name(key, value)
                if names.setdefault(name, i) != i:
                    raise ConfigError(
                        f"{field}: point directory {name!r} repeats sweep.{key}[{names[name]}]"
                    )
        sweep = fields["sweep"] = {k: [float(v) for v in vals] for k, vals in sweep.items()}
    if (variant == "L3" or sweep is not None) and len(frequencies) < 2:
        raise ConfigError(
            "frequencies_hz: the L3 loss, which every sweep runs, needs at least 2 bands, "
            f"got {len(frequencies)}"
        )

    output_dir = fields["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a non-empty string")

    return RunConfig(
        fields, array, doa, tuple(frequencies), loss, math.radians(grid_deg), budget, seed,
        output_dir, sweep,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"config file {path}: {err.strerror}") from None
    except ValueError as err:  # not JSON, or not text
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return parse_config(raw)


def _write_manifest(cfg: RunConfig, out: Path) -> None:
    (out / "manifest.json").write_text(json.dumps(cfg.resolved(), indent=2) + "\n")


def _write_beampatterns(cfg: RunConfig, geometry: ArrayGeometry, out: Path, gains) -> None:
    """Write each band's beampattern CSV for the filter of its real gains,
    one row of ``gains`` (bands, mics) per band, streamed a block of rows at
    a time from the band's :class:`BeampatternRows`."""
    grid = AngularGrid.build(cfg.grid_resolution, cfg.doa)
    for f, band_gains in zip(cfg.frequencies, gains):
        h = normalized_filter(band_gains, steering_vector(geometry, f, cfg.doa))
        export_beampattern_csv(
            out / f"beampattern_{f:g}.csv", grid.elevations, grid.azimuths,
            BeampatternRows(geometry, h, f, grid),
        )


def _output_dir(out_dir: str | Path) -> Path:
    """``out_dir``, checked before any work: ``mkdir`` needs its nearest
    existing part, a dangling link included, to be a directory."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"output_dir: {existing} exists and is not a directory")
    return out


def _check_baseline(tag: str) -> None:
    if tag != "das":  # delay-and-sum is the one baseline
        raise ConfigError(f"baseline: expected 'das', got {tag!r}")


def cmd_design(cfg: RunConfig, out_dir: str | Path) -> MetricCurves:
    out = _output_dir(out_dir)
    geometry = build_geometry(cfg.array)
    result = optimize(
        geometry,
        cfg.doa,
        cfg.frequencies,
        cfg.loss,
        budget=cfg.budget,
        seed=cfg.seed,
        grid_resolution=cfg.grid_resolution,
    )
    out.mkdir(parents=True, exist_ok=True)
    result.params.save(out / "params.json")
    result.curves.to_csv(out / "metrics.csv")
    result.record.to_csv(out / "run_record.csv")
    _write_beampatterns(cfg, geometry, out, params_gains(geometry, cfg.doa, result.params))
    _write_manifest(cfg, out)
    print(
        f"design finished after {result.record.iteration_count} iterations "
        f"({result.record.stopping_reason}); artifacts in {out}"
    )
    if result.record.stopping_reason == "numerical_failure":
        # the artifacts hold the best parameters before the failure; exit 2
        raise NumericalError(
            f"non-finite loss or gradient after iteration {result.record.iteration_count}; "
            f"{out} holds the best parameters found before it"
        )
    return result.curves


def cmd_eval(cfg: RunConfig, out_dir: str | Path, params_path=None, baseline=None) -> MetricCurves:
    out = _output_dir(out_dir)
    geometry = build_geometry(cfg.array)
    if (params_path is None) == (baseline is None):
        raise ConfigError("eval: provide exactly one of --params or --baseline")
    if baseline is not None:
        _check_baseline(baseline)
        gains = das_gains(geometry, cfg.frequencies)
    else:
        params = DesignParams.load(params_path).select(cfg.frequencies)
        gains = params_gains(geometry, cfg.doa, params)
    curves = BandTables(geometry, cfg.doa, cfg.frequencies, cfg.grid_resolution).curves(gains)
    out.mkdir(parents=True, exist_ok=True)
    curves.to_csv(out / "metrics.csv")
    _write_beampatterns(cfg, geometry, out, gains)
    print(f"eval wrote metrics and beampattern grids to {out}")
    return curves


def _sweep_point(cfg: RunConfig) -> list[list[str]]:
    """summary.csv rows of one point; a failed point's status is its error class."""
    knobs = [f"{getattr(cfg.loss, k):g}" for k in SWEEP_KEYS]
    try:
        curves = cmd_design(cfg, cfg.output_dir)
    except NumericalError as err:
        empty = [""] * len(METRIC_COLUMNS)
        return [[*knobs, f"{f:g}", *empty, type(err).__name__] for f in cfg.frequencies]
    bands = enumerate(curves.frequencies)
    return [[*knobs, f"{f:g}", *metric_cells(curves, b), "ok"] for b, f in bands]


def cmd_sweep(cfg: RunConfig, out_dir: str | Path) -> int:
    out = _output_dir(out_dir)
    if not cfg.sweep:
        raise ConfigError("sweep: the config has no sweep section")
    if cfg.loss.variant != "L3":
        raise ConfigError("sweep: parameter sweeps require loss.variant == 'L3'")
    keys = list(cfg.sweep.keys())
    combos = [dict(zip(keys, values)) for values in itertools.product(*cfg.sweep.values())]
    jobs = []
    for overrides in combos:
        point = _output_dir(out / "_".join(_point_name(k, overrides[k]) for k in keys))
        loss = {**cfg.fields["loss"], **overrides}
        jobs.append(cfg.replaced(loss=loss, output_dir=str(point), sweep=None))
    # every process runs BLAS on one thread: one process per usable CPU, and
    # no more than the points, as a fork pool starts every process at once
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    # imported here, so design, eval and compare do not pay for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(cpus, len(jobs))) as pool:
        results = list(pool.map(_sweep_point, jobs))
    header = [*SWEEP_KEYS, "frequency_hz", *METRIC_COLUMNS, "status"]
    # only now: a point that fails validation must leave no directory behind
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "summary.csv", header, itertools.chain.from_iterable(results))
    failed = sum(rows[0][-1] != "ok" for rows in results)
    print(f"sweep finished: {len(combos)} points, summary in {out / 'summary.csv'}")
    if failed:
        raise NumericalError(f"sweep: {failed} of {len(combos)} points failed (summary.csv status)")
    return len(combos)


def cmd_compare(cfg: RunConfig, out_dir: str | Path, params_path, baseline: str = "das") -> None:
    out = _output_dir(out_dir)
    geometry = build_geometry(cfg.array)
    _check_baseline(baseline)
    params = DesignParams.load(params_path).select(cfg.frequencies)
    # one table build scores both filters
    tables = BandTables(geometry, cfg.doa, cfg.frequencies, cfg.grid_resolution)
    designed = tables.curves(params_gains(geometry, cfg.doa, params))
    reference = tables.curves(das_gains(geometry, tables.frequencies))
    out.mkdir(parents=True, exist_ok=True)
    header = ["frequency_hz", *(f"{tag}_{c}" for tag in ("designed", baseline) for c in METRIC_COLUMNS)]
    rows = ([f"{f:g}", *metric_cells(designed, b), *metric_cells(reference, b)]
            for b, f in enumerate(designed.frequencies))
    write_csv(out / "compare.csv", header, rows)
    print(f"comparison written to {out / 'compare.csv'}")


def cmd_gradcheck() -> float:
    """Self-test: pipeline gradient vs. finite differences on a small array."""
    geometry = build_geometry(ArrayConfig(ring_radii=(0.0, 0.05), sample_rate=16000.0))
    doa = Direction.from_degrees(45.0, 45.0)
    loss = LossConfig(
        variant="L3",
        target_theta=math.radians(40.0),
        target_phi=math.radians(40.0),
        alpha=0.5,
        lambda1=1.0,
        lambda2=1.0,
        lambda3=0.01,
    )
    pipeline = DesignPipeline(geometry, doa, (2000.0, 3000.0, 4000.0), loss)
    # one draw split into rows: the stream of GRADCHECK_POINTS successive draws
    offsets = seeded_uniform(0, -0.5, 0.5, GRADCHECK_POINTS * pipeline.param_count)
    errors = []
    for p, offset in enumerate(offsets.reshape(GRADCHECK_POINTS, -1)):
        x = pipeline.initial_params(0) + offset
        value, _ = pipeline.build_loss(x)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], x, value.gradient())
        print(
            f"point {p}: max relative error {result.max_rel_error:.3e}"
            + (f" ({len(result.excluded)} branch-boundary coords skipped)" if result.excluded else "")
        )
        errors.append(result.max_rel_error)
    worst = float(np.max(errors))  # a NaN at any point is carried, and fails
    status = "OK" if worst < GRADCHECK_TOLERANCE else "FAIL"
    print(f"gradcheck {status}: worst relative error {worst:.3e} (tolerance {GRADCHECK_TOLERANCE:g})")
    return worst


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation failures exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccmabeam", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")

    p = sub.add_parser("design", help="optimize a filter set and write artifacts")
    common(p)

    p = sub.add_parser("eval", help="recompute metrics from saved params or a baseline")
    common(p)
    p.add_argument("--params", default=None, help="params.json from a design run")
    p.add_argument("--baseline", default=None, choices=["das"])

    p = sub.add_parser("sweep", help="run the config's sweep grid")
    common(p)

    p = sub.add_parser("compare", help="designed params vs. a baseline")
    common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--baseline", default="das", choices=["das"])

    sub.add_parser("gradcheck", help="gradient self-test on a small array")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            worst = cmd_gradcheck()
            return 0 if worst < GRADCHECK_TOLERANCE else 2
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = cfg.replaced(output_dir=args.out)
        out = cfg.output_dir
        if args.command == "design":
            cmd_design(cfg, out)
        elif args.command == "eval":
            cmd_eval(cfg, out, params_path=args.params, baseline=args.baseline)
        elif args.command == "sweep":
            cmd_sweep(cfg, out)
        elif args.command == "compare":
            cmd_compare(cfg, out, args.params, args.baseline)
        return 0
    except (NumericalError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
