"""Command-line driver: design, eval, sweep, compare, gradcheck.

Config files are JSON with angles in degrees; everything internal runs
in radians.  Exit codes: 0 success, 1 validation failure, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import gradcheck
from .baselines import BASELINE_TAGS, evaluate_baseline, get_baseline
from .geometry import ArrayConfig, ArrayGeometry, GeometryError, build_geometry
from .loss import VARIANTS, LossConfig
from .metrics import MetricCurves, NumericalError, evaluate_params
from .optimizer import DesignPipeline, optimize
from .wavefield import AngularGrid, Direction, beampattern_grid, export_beampattern_csv, pattern_db
from .weighting import DesignParams, assemble_filter

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

DEFAULT_FREQUENCIES = tuple(float(f) for f in range(500, 7501, 500))
SWEEP_KEYS = ("alpha", "lambda1", "lambda2", "lambda3")


class ConfigError(ValueError):
    """Config validation failure; the message names the offending field."""


@dataclass
class RunConfig:
    array: ArrayConfig
    doa: Direction
    frequencies: tuple[float, ...]
    loss: LossConfig
    grid_resolution_deg: float
    budget: int
    seed: int
    output_dir: str
    sweep: dict[str, list[float]] | None = None

    @property
    def grid_resolution(self) -> float:
        return math.radians(self.grid_resolution_deg)

    def resolved(self) -> dict:
        """Full config echo; feeding this back through ``design`` reproduces the run."""
        payload = {
            "array": {
                "ring_radii_m": list(self.array.ring_radii),
                "sample_rate_hz": self.array.sample_rate,
                "sound_speed_mps": self.array.sound_speed,
            },
            "doa_deg": {
                "elevation": math.degrees(self.doa.elevation),
                "azimuth": math.degrees(self.doa.azimuth),
            },
            "frequencies_hz": list(self.frequencies),
            "loss": {
                "variant": self.loss.variant,
                "alpha": self.loss.alpha,
                "lambda1": self.loss.lambda1,
                "lambda2": self.loss.lambda2,
                "lambda3": self.loss.lambda3,
                "target_theta_deg": math.degrees(self.loss.target_theta),
                "target_phi_deg": math.degrees(self.loss.target_phi),
            },
            "grid_resolution_deg": self.grid_resolution_deg,
            "optimizer": {"budget": self.budget, "seed": self.seed},
            "output_dir": self.output_dir,
            "version": __version__,
        }
        if self.sweep is not None:
            payload["sweep"] = self.sweep
        return payload


def _require(mapping: dict, field: str, context: str = ""):
    if field not in mapping:
        raise ConfigError(f"{context}{field}: required field is missing")
    return mapping[field]


def _number(value, field: str, minimum=None, strict=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        raise ConfigError(f"{field}: must be {bound} {minimum}, got {value}")
    return value


def parse_config(raw: dict, path: str = "") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")

    array_raw = _require(raw, "array")
    if not isinstance(array_raw, dict):
        raise ConfigError("array: expected an object")
    radii = _require(array_raw, "ring_radii_m", "array.")
    if not isinstance(radii, list) or not radii:
        raise ConfigError("array.ring_radii_m: expected a non-empty list of radii")
    try:
        array = ArrayConfig(
            ring_radii=tuple(
                _number(r, f"array.ring_radii_m[{i}]") for i, r in enumerate(radii)
            ),
            sample_rate=_number(
                _require(array_raw, "sample_rate_hz", "array."),
                "array.sample_rate_hz",
                0.0,
                strict=True,
            ),
            sound_speed=_number(
                array_raw.get("sound_speed_mps", 343.0), "array.sound_speed_mps", 0.0, strict=True
            ),
        )
    except GeometryError as err:
        raise ConfigError(f"array: {err}") from None

    doa_raw = _require(raw, "doa_deg")
    if not isinstance(doa_raw, dict):
        raise ConfigError("doa_deg: expected an object with elevation and azimuth")
    elevation = _number(_require(doa_raw, "elevation", "doa_deg."), "doa_deg.elevation")
    azimuth = _number(_require(doa_raw, "azimuth", "doa_deg."), "doa_deg.azimuth")
    if not 0.0 <= elevation <= 90.0:
        # a planar array cannot separate mirror directions; the fit sector
        # covers [0, 90] degrees only
        raise ConfigError(f"doa_deg.elevation: must lie in [0, 90], got {elevation}")
    doa = Direction.from_degrees(elevation, azimuth)

    freqs_raw = raw.get("frequencies_hz", list(DEFAULT_FREQUENCIES))
    if not isinstance(freqs_raw, list) or not freqs_raw:
        raise ConfigError("frequencies_hz: expected a non-empty list of frequencies")
    nyquist = array.sample_rate / 2.0
    frequencies = []
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
        frequencies.append(f)

    loss_raw = raw.get("loss", {})
    if not isinstance(loss_raw, dict):
        raise ConfigError("loss: expected an object")
    variant = loss_raw.get("variant", "L1")
    if variant not in VARIANTS:
        raise ConfigError(f"loss.variant: must be one of {list(VARIANTS)}, got {variant!r}")
    target_theta = _number(
        loss_raw.get("target_theta_deg", 40.0), "loss.target_theta_deg", 0.0, strict=True
    )
    target_phi = _number(
        loss_raw.get("target_phi_deg", 40.0), "loss.target_phi_deg", 0.0, strict=True
    )
    if target_theta > 180.0 or target_phi > 180.0:
        raise ConfigError("loss targets: beamwidth targets cannot exceed 180 degrees")
    try:
        loss = LossConfig(
            variant=variant,
            target_theta=math.radians(target_theta),
            target_phi=math.radians(target_phi),
            alpha=_number(loss_raw.get("alpha", 1.0), "loss.alpha"),
            lambda1=_number(loss_raw.get("lambda1", 0.0), "loss.lambda1", 0.0),
            lambda2=_number(loss_raw.get("lambda2", 0.0), "loss.lambda2", 0.0),
            lambda3=_number(loss_raw.get("lambda3", 0.0), "loss.lambda3", 0.0),
        )
    except ValueError as err:
        raise ConfigError(f"loss: {err}") from None

    grid_deg = _number(raw.get("grid_resolution_deg", 1.0), "grid_resolution_deg", 0.0, strict=True)

    opt_raw = raw.get("optimizer", {})
    if not isinstance(opt_raw, dict):
        raise ConfigError("optimizer: expected an object")
    budget = opt_raw.get("budget", 2000)
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ConfigError(f"optimizer.budget: expected a positive integer, got {budget!r}")
    seed = opt_raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"optimizer.seed: expected an integer, got {seed!r}")

    sweep = raw.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or not sweep:
            raise ConfigError("sweep: expected a non-empty object of parameter value lists")
        for key, values in sweep.items():
            if key not in SWEEP_KEYS:
                raise ConfigError(f"sweep.{key}: unknown sweep parameter, expected {SWEEP_KEYS}")
            if not isinstance(values, list) or not values:
                raise ConfigError(f"sweep.{key}: expected a non-empty list of values")
            for i, v in enumerate(values):
                field = f"sweep.{key}[{i}]"
                try:
                    replace(loss, **{key: _number(v, field)})
                except ValueError as err:
                    raise ConfigError(f"{field}: {err}") from None
        sweep = {k: [float(v) for v in vals] for k, vals in sweep.items()}

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a non-empty string")

    return RunConfig(
        array=array,
        doa=doa,
        frequencies=tuple(frequencies),
        loss=loss,
        grid_resolution_deg=grid_deg,
        budget=budget,
        seed=seed,
        output_dir=output_dir,
        sweep=sweep,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    return parse_config(raw, str(path))


def _write_manifest(cfg: RunConfig, out: Path) -> None:
    (out / "manifest.json").write_text(json.dumps(cfg.resolved(), indent=2) + "\n")


def _write_beampatterns(
    cfg: RunConfig, geometry: ArrayGeometry, out: Path, filter_fn, prefix: str = "beampattern"
) -> None:
    grid = AngularGrid.build(cfg.grid_resolution, cfg.doa)
    for f in cfg.frequencies:
        h = filter_fn(f)
        grid_db = pattern_db(beampattern_grid(geometry, h, f, grid))
        export_beampattern_csv(
            out / f"{prefix}_{f:g}.csv", grid.elevations, grid.azimuths, grid_db
        )


def _design_filter_fn(cfg: RunConfig, geometry: ArrayGeometry, params: DesignParams):
    lookup = {f: b for b, f in enumerate(params.frequencies)}

    def fn(f: float):
        b = lookup[f]
        return assemble_filter(
            geometry, f, cfg.doa, params.ring_weights[b], params.window_widths[b]
        )

    return fn


def cmd_design(cfg: RunConfig, out_dir: str | Path) -> MetricCurves:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    result.params.save(out / "params.json")
    result.curves.to_csv(out / "metrics.csv")
    result.record.to_csv(out / "run_record.csv")
    _write_beampatterns(cfg, geometry, out, _design_filter_fn(cfg, geometry, result.params))
    _write_manifest(cfg, out)
    print(
        f"design finished after {result.record.iteration_count} iterations "
        f"({result.record.stopping_reason}); artifacts in {out}"
    )
    return result.curves


def cmd_eval(cfg: RunConfig, out_dir: str | Path, params_path=None, baseline=None) -> MetricCurves:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geometry = build_geometry(cfg.array)
    if (params_path is None) == (baseline is None):
        raise ConfigError("eval: provide exactly one of --params or --baseline")
    if baseline is not None:
        fn = get_baseline(baseline)
        filter_fn = lambda f: fn(geometry, f, cfg.doa)
        curves = evaluate_baseline(
            geometry, cfg.doa, cfg.frequencies, baseline, cfg.grid_resolution
        )
    else:
        params = DesignParams.load(params_path)
        if params.ring_count != geometry.ring_count:
            raise ConfigError(
                f"params: file covers {params.ring_count} rings but the array has "
                f"{geometry.ring_count}"
            )
        missing = [f for f in cfg.frequencies if f not in params.frequencies]
        if missing:
            raise ConfigError(f"params: no saved band for frequencies {missing}")
        sub = DesignParams(
            frequencies=tuple(cfg.frequencies),
            ring_weights=tuple(
                params.ring_weights[params.frequencies.index(f)] for f in cfg.frequencies
            ),
            window_widths=tuple(
                params.window_widths[params.frequencies.index(f)] for f in cfg.frequencies
            ),
        )
        curves = evaluate_params(geometry, cfg.doa, sub, cfg.grid_resolution)
        filter_fn = _design_filter_fn(cfg, geometry, sub)
    curves.to_csv(out / "metrics.csv")
    _write_beampatterns(cfg, geometry, out, filter_fn)
    print(f"eval wrote metrics and beampattern grids to {out}")
    return curves


def _sweep_point(args) -> tuple[dict, list[list[str]]]:
    raw_cfg, overrides, point_dir = args
    cfg = parse_config(raw_cfg)
    loss = replace(cfg.loss, **overrides)
    point_cfg = RunConfig(
        array=cfg.array,
        doa=cfg.doa,
        frequencies=cfg.frequencies,
        loss=loss,
        grid_resolution_deg=cfg.grid_resolution_deg,
        budget=cfg.budget,
        seed=cfg.seed,
        output_dir=str(point_dir),
        sweep=None,
    )
    curves = cmd_design(point_cfg, point_dir)
    rows = []
    for b, f in enumerate(curves.frequencies):
        rows.append(
            [
                *(f"{getattr(loss, k):g}" for k in SWEEP_KEYS),
                f"{f:g}",
                f"{10.0 * math.log10(curves.df[b]):.6f}",
                f"{10.0 * math.log10(curves.wng[b]):.6f}",
                f"{math.degrees(curves.theta[b]):.6f}",
                f"{math.degrees(curves.phi[b]):.6f}",
            ]
        )
    return overrides, rows


def cmd_sweep(cfg: RunConfig, raw_cfg: dict, out_dir: str | Path, workers: int = 1) -> int:
    if not cfg.sweep:
        raise ConfigError("sweep: the config has no sweep section")
    if cfg.loss.variant != "L3":
        raise ConfigError("sweep: parameter sweeps require loss.variant == 'L3'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = list(cfg.sweep.keys())
    combos = [dict(zip(keys, values)) for values in itertools.product(*cfg.sweep.values())]
    jobs = []
    for overrides in combos:
        tag = "_".join(f"{k}={overrides[k]:g}" for k in keys)
        jobs.append((raw_cfg, overrides, out / tag))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [*SWEEP_KEYS, "frequency_hz", "df_db", "wng_db", "theta_deg", "phi_deg"]
        )
        for _, rows in results:
            writer.writerows(rows)
    print(f"sweep finished: {len(combos)} points, summary in {out / 'summary.csv'}")
    return len(combos)


def cmd_compare(cfg: RunConfig, out_dir: str | Path, params_path, baseline: str = "das") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geometry = build_geometry(cfg.array)
    params = DesignParams.load(params_path)
    if params.ring_count != geometry.ring_count:
        raise ConfigError(
            f"params: file covers {params.ring_count} rings but the array has "
            f"{geometry.ring_count}"
        )
    designed = evaluate_params(geometry, cfg.doa, params, cfg.grid_resolution)
    reference = evaluate_baseline(
        geometry, cfg.doa, params.frequencies, baseline, cfg.grid_resolution
    )
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "frequency_hz",
                "designed_df_db", "designed_wng_db", "designed_theta_deg", "designed_phi_deg",
                f"{baseline}_df_db", f"{baseline}_wng_db", f"{baseline}_theta_deg", f"{baseline}_phi_deg",
            ]
        )
        for b, f in enumerate(designed.frequencies):
            writer.writerow(
                [
                    f"{f:g}",
                    f"{10.0 * math.log10(designed.df[b]):.6f}",
                    f"{10.0 * math.log10(designed.wng[b]):.6f}",
                    f"{math.degrees(designed.theta[b]):.6f}",
                    f"{math.degrees(designed.phi[b]):.6f}",
                    f"{10.0 * math.log10(reference.df[b]):.6f}",
                    f"{10.0 * math.log10(reference.wng[b]):.6f}",
                    f"{math.degrees(reference.theta[b]):.6f}",
                    f"{math.degrees(reference.phi[b]):.6f}",
                ]
            )
    print(f"comparison written to {out / 'compare.csv'}")


def cmd_gradcheck(seed: int = 0, points: int = 5, tolerance: float = 1e-4) -> float:
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in range(points):
        x = pipeline.initial_params(seed) + rng.uniform(-0.5, 0.5, pipeline.param_count)
        value, _ = pipeline.build_loss(x)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], x, value.gradient())
        print(
            f"point {p}: max relative error {result.max_rel_error:.3e}"
            + (f" ({len(result.excluded)} branch-boundary coords skipped)" if result.excluded else "")
        )
        worst = max(worst, result.max_rel_error)
    status = "OK" if worst < tolerance else "FAIL"
    print(f"gradcheck {status}: worst relative error {worst:.3e} (tolerance {tolerance:g})")
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run config JSON")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="optimizer seed override")
        p.add_argument("--grid-deg", type=float, default=None, help="grid resolution override")

    p = sub.add_parser("design", help="optimize a filter set and write artifacts")
    common(p)

    p = sub.add_parser("eval", help="recompute metrics from saved params or a baseline")
    common(p)
    p.add_argument("--params", default=None, help="params.json from a design run")
    p.add_argument("--baseline", default=None, choices=BASELINE_TAGS)

    p = sub.add_parser("sweep", help="run the config's sweep grid")
    common(p)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("compare", help="designed params vs. a baseline")
    common(p)
    p.add_argument("--params", required=True)
    p.add_argument("--baseline", default="das", choices=BASELINE_TAGS)

    p = sub.add_parser("gradcheck", help="gradient self-test on a small array")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=5)
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "grid_deg", None) is not None:
        if args.grid_deg <= 0:
            raise ConfigError("--grid-deg: must be positive")
        cfg.grid_resolution_deg = args.grid_deg
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            worst = cmd_gradcheck(seed=args.seed, points=args.points)
            return 0 if worst < 1e-4 else 2
        cfg = _apply_overrides(load_config(args.config), args)
        out = cfg.output_dir
        if args.command == "design":
            cmd_design(cfg, out)
        elif args.command == "eval":
            cmd_eval(cfg, out, params_path=args.params, baseline=args.baseline)
        elif args.command == "sweep":
            cmd_sweep(cfg, cfg.resolved(), out, workers=args.workers)
        elif args.command == "compare":
            cmd_compare(cfg, out, args.params, args.baseline)
        return 0
    except (NumericalError, ArithmeticError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ConfigError, GeometryError, ValueError) as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
