import concurrent.futures
import csv
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ccmabeam import cli, metrics, optimizer, wavefield
from ccmabeam.cli import ConfigError, load_config, main, parse_config
from ccmabeam.geometry import build_geometry
from ccmabeam.metrics import NumericalError
from ccmabeam.optimizer import DesignPipeline
from ccmabeam.wavefield import AngularGrid, BeampatternRows, pattern_db, steering_vector
from ccmabeam.weighting import DesignParams, normalized_filter, params_gains
from blas import blas_thread_calls
from oracles import assemble_filter, csv_reference, das_filter
from pools import InProcessPool


def small_config(out_dir, **overrides):
    cfg = {
        "array": {"ring_radii_m": [0.0, 0.05], "sample_rate_hz": 16000.0},
        "doa_deg": {"elevation": 45.0, "azimuth": 45.0},
        "frequencies_hz": [2000.0, 3000.0],
        "loss": {"variant": "L1", "target_theta_deg": 40.0, "target_phi_deg": 40.0},
        "grid_resolution_deg": 2.0,
        "optimizer": {"budget": 8, "seed": 3},
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_defaults_filled(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        del cfg["frequencies_hz"]
        del cfg["grid_resolution_deg"]
        parsed = parse_config(cfg)
        assert parsed.fields["frequencies_hz"] == cli.DEFAULTS[""]["frequencies_hz"]
        assert parsed.frequencies == tuple(float(f) for f in range(500, 7501, 500))
        assert parsed.fields["grid_resolution_deg"] == 1.0
        assert parsed.loss.variant == "L1"

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda c: c.update(frequencies_hz=[]), "frequencies_hz"),
            (lambda c: c.update(frequencies_hz=[9000.0]), "frequencies_hz[0]"),
            (lambda c: c["array"].update(ring_radii_m=[]), "array.ring_radii_m"),
            (lambda c: c["array"].update(ring_radii_m=[0.0, -0.05]), "array.ring_radii_m: ring"),
            (lambda c: c["array"].update(ring_radii_m=[0.05, 0.05]), "array.ring_radii_m: ring"),
            (lambda c: c["loss"].update(target_phi_deg=180.5), "loss.target_phi_deg: must be at most"),
            (lambda c: c["array"].pop("sample_rate_hz"), "sample_rate_hz"),
            (lambda c: c.pop("doa_deg"), "doa_deg"),
            (lambda c: c["doa_deg"].update(elevation=200.0), "doa_deg.elevation"),
            (lambda c: c["doa_deg"].update(elevation=120.0), "doa_deg.elevation"),
            (lambda c: c["loss"].update(variant="L7"), "loss.variant"),
            (lambda c: c["loss"].update(alpha=3.0), "loss"),
            (lambda c: c["loss"].update(lambda1=5.0), "loss: lambda1"),
            (lambda c: c["loss"].update(variant="L2", alpha=0.2), "loss: alpha"),
            (lambda c: c["optimizer"].update(budget=0), "optimizer.budget"),
            (lambda c: c["optimizer"].update(seed=-1), "optimizer.seed: must be at least 0, got -1"),
            (lambda c: c.update(grid_resolution_deg=-1.0), "grid_resolution_deg"),
            (lambda c: c.update(sweep={"bogus": [1.0]}), "sweep.bogus"),
            (lambda c: c.update(sweep={"alpha": []}), "sweep.alpha"),
            (lambda c: c.update(frequencies_hz=[3000.0, 2000.0]), "frequencies_hz[1]"),
            (lambda c: c.update(frequencies_hz=[2000.0, 3000.0, 3000.0]), "frequencies_hz[2]"),
            (lambda c: c.update(sweep={"alpha": [1.5]}), "sweep.alpha[0]"),
            (lambda c: c.update(sweep={"lambda3": [0.1, -0.5]}), "sweep.lambda3[1]"),
            # a misspelled field would otherwise leave its default in force
            (lambda c: c["loss"].update(target_theta=30.0), "loss.target_theta: unknown field"),
            (lambda c: c.update(grid_resolution=2.0), "grid_resolution: unknown field"),
            (lambda c: c["optimizer"].update(sed=3), "optimizer.sed: unknown field"),
            # 1 mm cannot hold two mics half a wavelength apart
            (lambda c: c["array"].update(ring_radii_m=[0.0, 0.001]),
             "array.ring_radii_m: ring radius 0.001 m cannot hold two microphones"),
        ],
    )
    def test_field_level_errors(self, tmp_path, mutate, needle):
        cfg = small_config(tmp_path / "out")
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "args",
        [["design", "--seed", "3"], ["sweep", "--seed", "3"], ["design", "--grid-deg", "2"],
         ["eval", "--baseline", "das", "--grid-deg", "2"]],
        ids=["design-seed", "sweep-seed", "design-grid", "eval-grid"],
    )
    def test_config_fields_have_no_flags(self, tmp_path, capsys, args):
        """The seed and the grid are set in the config only; a flag for
        either is a usage error."""
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exits:
            main([args[0], "--config", str(path), *args[1:]])
        assert exits.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {args[-2]}" in err
        assert not (tmp_path / "out").exists()

    def test_azimuth_a_hair_below_zero(self, tmp_path, capsys):
        """-1e-14 % 360 is 360.0; the azimuth wraps to 0 and the design runs."""
        cfg = small_config(tmp_path / "out", doa_deg={"elevation": 45.0, "azimuth": -1e-14})
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert (tmp_path / "out" / "params.json").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        assert main(["design", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_exits_validation(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["design", "--config", str(path)]) == 1

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_names_the_file(self, tmp_path, capsys, kind):
        """The config reader fails as the params reader does: exit 1, naming the file."""
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'\xff{"array": {}}')
        assert main(["design", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config file {path}" in err and "Traceback" not in err


# every float config field, set to ``value``
NUMERIC_FIELDS = [
    ("array.ring_radii_m[1]", lambda c, v: c["array"].update(ring_radii_m=[0.0, v])),
    ("array.sample_rate_hz", lambda c, v: c["array"].update(sample_rate_hz=v)),
    ("array.sound_speed_mps", lambda c, v: c["array"].update(sound_speed_mps=v)),
    ("doa_deg.elevation", lambda c, v: c["doa_deg"].update(elevation=v)),
    ("doa_deg.azimuth", lambda c, v: c["doa_deg"].update(azimuth=v)),
    ("frequencies_hz[1]", lambda c, v: c.update(frequencies_hz=[2000.0, v])),
    ("loss.target_theta_deg", lambda c, v: c["loss"].update(target_theta_deg=v)),
    ("loss.target_phi_deg", lambda c, v: c["loss"].update(target_phi_deg=v)),
    ("loss.alpha", lambda c, v: c["loss"].update(alpha=v)),
    ("loss.lambda1", lambda c, v: c["loss"].update(lambda1=v)),
    ("loss.lambda2", lambda c, v: c["loss"].update(lambda2=v)),
    ("loss.lambda3", lambda c, v: c["loss"].update(lambda3=v)),
    ("grid_resolution_deg", lambda c, v: c.update(grid_resolution_deg=v)),
    *(
        (f"sweep.{key}[1]", lambda c, v, key=key: c.update(sweep={key: [0.5, v]}))
        for key in cli.SWEEP_KEYS
    ),
]
# the integer fields reject any float, naming the field
INTEGER_FIELDS = [
    ("optimizer.budget", lambda c, v: c["optimizer"].update(budget=v), "expected a positive integer"),
    ("optimizer.seed", lambda c, v: c["optimizer"].update(seed=v), "expected an integer"),
]


class TestNonFiniteNumbers:
    """json reads NaN and Infinity; each is rejected naming its field."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "field,mutate,message",
        [(f, m, "expected a finite number") for f, m in NUMERIC_FIELDS] + INTEGER_FIELDS,
        ids=[f[0] for f in NUMERIC_FIELDS + INTEGER_FIELDS],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, field, mutate, message, value):
        cfg = small_config(tmp_path / "out")
        mutate(cfg, value)
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert f"{field}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "out")
        cfg["array"]["sample_rate_hz"] = 10**400
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "array.sample_rate_hz: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDesignCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        for name in (
            "params.json",
            "metrics.csv",
            "run_record.csv",
            "manifest.json",
            "beampattern_2000.csv",
            "beampattern_3000.csv",
        ):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["array"]["ring_radii_m"] == [0.0, 0.05]
        assert manifest["optimizer"] == {"budget": 8, "seed": 3}
        assert manifest["loss"]["variant"] == "L1"

    def test_same_seed_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = write_config(tmp_path, small_config(out1), "c1.json")
        p2 = write_config(tmp_path, small_config(out2), "c2.json")
        assert main(["design", "--config", str(p1)]) == 0
        assert main(["design", "--config", str(p2)]) == 0
        for name in ("metrics.csv", "params.json", "run_record.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_run_record_widths_clamped_like_metrics(self, tmp_path):
        # this config's raw parabola width reaches 185.55 degrees at 2 kHz
        out = tmp_path / "out"
        assert main(["design", "--config", str(write_config(tmp_path, small_config(out)))]) == 0
        with open(out / "run_record.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        widths = [
            float(v)
            for row in rows
            for k, v in row.items()
            if k.startswith(("theta_deg_", "phi_deg_"))
        ]
        assert len(widths) == 4 * len(rows)
        assert max(widths) == 180.0

    def test_manifest_reruns_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = write_config(tmp_path, small_config(out1), "c1.json")
        assert main(["design", "--config", str(p1)]) == 0
        assert main(["design", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_out_flag_is_the_manifest_output_dir(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "config-out"))
        out = tmp_path / "flag-out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["output_dir"] == str(out)
        assert not (tmp_path / "config-out").exists()

    def test_manifest_echoes_the_config_degrees(self, tmp_path):
        # both round trip through radians to 12.000000000000002 and 10.600000000000001
        cfg = small_config(tmp_path / "out", doa_deg={"elevation": 12.0, "azimuth": 10.6})
        cfg["loss"].update(target_theta_deg=12.0, target_phi_deg=10.6)
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["doa_deg"] == {"elevation": 12.0, "azimuth": 10.6}
        assert manifest["loss"]["target_theta_deg"] == 12.0
        assert manifest["loss"]["target_phi_deg"] == 10.6
        text = (tmp_path / "out" / "manifest.json").read_text()
        assert "12.000000000000002" not in text and "10.600000000000001" not in text

    def test_empty_frequency_list_fails_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path / "out", frequencies_hz=[]))
        assert main(["design", "--config", str(path)]) == 1
        assert "frequencies_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,section",
        [("design", {}), ("sweep", {"sweep": {"alpha": [0.5]}})],
        ids=["design", "sweep"],
    )
    def test_single_band_l3_fails_validation(self, tmp_path, capsys, command, section):
        cfg = small_config(tmp_path / "out", frequencies_hz=[2000.0], **section)
        cfg["loss"]["variant"] = "L3"
        assert main([command, "--config", str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert "frequencies_hz" in err and "at least 2 bands" in err
        assert not (tmp_path / "out").exists()


class TestEvalCommand:
    def test_round_trip_reproduces_metrics(self, tmp_path):
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        out2 = tmp_path / "eval"
        assert (
            main(
                [
                    "eval",
                    "--config", str(path),
                    "--params", str(out / "params.json"),
                    "--out", str(out2),
                ]
            )
            == 0
        )
        assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_baseline_eval(self, tmp_path):
        out = tmp_path / "das"
        path = write_config(tmp_path, small_config(out))
        assert main(["eval", "--config", str(path), "--baseline", "das"]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "beampattern_2000.csv").exists()

    @pytest.mark.parametrize("source", ["params", "baseline"])
    def test_beampatterns_hold_the_filter(self, tmp_path, source):
        """Every beampattern cell is the dB grid of the intended filter:
        das_filter for the baseline, assemble_filter of each saved band."""
        out = tmp_path / "eval"
        path = write_config(tmp_path, small_config(out))
        params = DesignParams((2000.0, 3000.0), [[0.3, 0.7], [0.8, 0.2]], [[0.4, 2.0], [1.5, 0.2]])
        saved = tmp_path / "params.json"
        params.save(saved)
        args = ["--baseline", "das"] if source == "baseline" else ["--params", str(saved)]
        assert main(["eval", "--config", str(path), *args]) == 0
        cfg = load_config(path)
        geometry = build_geometry(cfg.array)
        grid = AngularGrid.build(cfg.grid_resolution, cfg.doa)
        for b, f in enumerate(cfg.frequencies):
            if source == "baseline":
                h = das_filter(geometry, f, cfg.doa)
            else:
                w, s = params.ring_weights[b], params.window_widths[b]
                h = assemble_filter(geometry, f, cfg.doa, w, s)
            expected = pattern_db(BeampatternRows(geometry, h, f, grid).response(slice(None)))
            with open(out / f"beampattern_{f:g}.csv") as fh:
                header, *rows = list(csv.reader(fh))
            np.testing.assert_allclose(
                [float(c) for c in header[1:]], np.degrees(grid.azimuths), rtol=0, atol=5e-4
            )
            np.testing.assert_allclose(
                [float(row[0]) for row in rows], np.degrees(grid.elevations), rtol=0, atol=5e-4
            )
            cells = np.array([[float(c) for c in row[1:]] for row in rows])
            np.testing.assert_allclose(cells, expected, rtol=0, atol=2e-6)

    def test_ring_count_mismatch(self, tmp_path, capsys):
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        other = small_config(tmp_path / "other")
        other["array"]["ring_radii_m"] = [0.0]
        path2 = write_config(tmp_path, other, "other.json")
        assert (
            main(["eval", "--config", str(path2), "--params", str(out / "params.json")])
            == 1
        )
        assert "rings" in capsys.readouterr().err

    def test_non_finite_params_fail_validation(self, tmp_path, capsys):
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        payload = json.loads((out / "params.json").read_text())
        payload["bands"][1]["window_widths"][0] = math.nan
        bad = tmp_path / "nan_params.json"
        bad.write_text(json.dumps(payload))
        assert main(["eval", "--config", str(path), "--params", str(bad)]) == 1
        assert "band 1: window_widths must be finite" in capsys.readouterr().err

    def test_tiny_window_widths_give_finite_metrics(self, tmp_path):
        """Widths whose square underflows keep the taps at the arrival
        direction on the route from params.json to metrics.csv."""
        params = tmp_path / "tiny.json"
        DesignParams(
            (2000.0, 3000.0), (np.array([0.5, 0.5]),) * 2, (np.full(2, 1e-200),) * 2
        ).save(params)
        out = tmp_path / "eval"
        path = write_config(tmp_path, small_config(out))
        assert main(["eval", "--config", str(path), "--params", str(params)]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_requires_exactly_one_source(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["eval", "--config", str(path)]) == 1

    def test_missing_band_fails_validation(self, tmp_path, capsys):
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        other = write_config(
            tmp_path, small_config(tmp_path / "eval", frequencies_hz=[2000.0, 4000.0]), "other.json"
        )
        assert main(["eval", "--config", str(other), "--params", str(out / "params.json")]) == 1
        assert "params: no saved band for frequencies [4000.0]" in capsys.readouterr().err

    def test_unknown_baseline_is_a_usage_error(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        with pytest.raises(SystemExit) as exits:
            main(["eval", "--config", str(path), "--baseline", "delay_and_sum"])
        assert exits.value.code == 1


class TestStreamedBeampatterns:
    """_write_beampatterns streams each band a block of rows at a time; its
    bytes are those of the whole-grid path written by the csv module."""

    def assert_matches_whole_grid(self, tmp_path, cfg):
        geometry = build_geometry(cfg.array)
        u = np.linspace(-0.8, 0.6, geometry.ring_count)
        params = DesignParams.from_unconstrained(
            cfg.frequencies, [u] * len(cfg.frequencies), [-u] * len(cfg.frequencies)
        )
        gains = params_gains(geometry, cfg.doa, params)
        out = tmp_path / "streamed"
        out.mkdir()
        cli._write_beampatterns(cfg, geometry, out, gains)
        grid = AngularGrid.build(cfg.grid_resolution, cfg.doa)
        for f, band_gains in zip(cfg.frequencies, gains):
            h = normalized_filter(band_gains, steering_vector(geometry, f, cfg.doa))
            grid_db = pattern_db(BeampatternRows(geometry, h, f, grid).response(slice(None)))
            csv_reference(tmp_path / "whole.csv", grid.elevations, grid.azimuths, grid_db)
            streamed = (out / f"beampattern_{f:g}.csv").read_bytes()
            assert streamed == (tmp_path / "whole.csv").read_bytes(), f
        return grid

    @pytest.mark.parametrize(
        "block_rows", [9, 7, 45, 64], ids=["divides", "straddles", "one-block", "above"]
    )
    def test_blocks_of_any_size(self, tmp_path, monkeypatch, block_rows):
        cfg = load_config(write_config(tmp_path, small_config(tmp_path / "out")))
        # 45 elevations x 180 azimuths: 9 rows a block divide them, 7 do not
        monkeypatch.setattr(wavefield, "_CSV_BLOCK_CELLS", block_rows * 180)
        grid = self.assert_matches_whole_grid(tmp_path, cfg)
        assert grid.azimuths.shape == (180,) and grid.elevations.shape == (45,)

    def test_one_elevation(self, tmp_path):
        cfg = load_config(write_config(tmp_path, small_config(tmp_path / "out")))
        # a grid coarser than the elevation range holds the look elevation only
        cfg = replace(cfg, grid_resolution=math.radians(100.0))
        grid = self.assert_matches_whole_grid(tmp_path, cfg)
        assert grid.elevations.shape == (1,) and grid.azimuths.shape == (4,)

    def test_first_row_is_labelled_broadside(self, tmp_path):
        """At a 3-degree grid, 45 - 15 * 3 degrees rounds a hair below 0;
        the grid clips it, so the first row is not labelled -0.000."""
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config(out, grid_resolution_deg=3.0))
        assert main(["eval", "--config", str(path), "--baseline", "das"]) == 0
        for f in (2000, 3000):
            rows = (out / f"beampattern_{f}.csv").read_bytes().split(b"\r\n")
            assert rows[1].startswith(b"0.000,") and rows[-2].startswith(b"90.000,")

    def test_reference_array_at_half_degree(self, tmp_path):
        raw = small_config(
            tmp_path / "out", grid_resolution_deg=0.5, frequencies_hz=[1000.0, 5500.0]
        )
        raw["array"]["ring_radii_m"] = [0.0, 0.05, 0.10, 0.15, 0.20]
        cfg = load_config(write_config(tmp_path, raw))
        grid = self.assert_matches_whole_grid(tmp_path, cfg)
        assert grid.elevations.shape == (181,) and grid.azimuths.shape == (720,)


@pytest.mark.parametrize("command", ["eval", "compare"])
class TestParamsFileErrors:
    def test_missing_file(self, tmp_path, capsys, command):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        missing = tmp_path / "nope.json"
        assert main([command, "--config", str(path), "--params", str(missing)]) == 1
        assert f"parameter file {missing}" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys, command):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main([command, "--config", str(path), "--params", str(broken)]) == 1
        assert f"parameter file {broken} is not valid JSON" in capsys.readouterr().err

    def test_malformed_params_name_the_field(self, tmp_path, capsys, command, malformed_params):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        bad, needle = malformed_params
        assert main([command, "--config", str(path), "--params", str(bad)]) == 1
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFailedRunsCreateNoDirectory:
    def test_design(self, tmp_path, capsys):
        # 1 mm is too small a ring for two mics half a wavelength apart
        cfg = small_config(tmp_path / "out")
        cfg["array"]["ring_radii_m"] = [0.001]
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 1
        assert "cannot hold two microphones" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [["--params", "nope.json"], ["--baseline", "das", "--params", "nope.json"]],
        ids=["missing-params", "two-sources"],
    )
    def test_eval(self, tmp_path, args):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        args = [str(tmp_path / a) if a == "nope.json" else a for a in args]
        assert main(["eval", "--config", str(path), *args]) == 1
        assert not (tmp_path / "out").exists()

    def test_compare(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["compare", "--config", str(path), "--params", str(tmp_path / "nope.json")]) == 1
        assert not (tmp_path / "out").exists()


class TestOutputDirIsChecked:
    """An output path at or under a regular file or a dangling link is a
    config error naming output_dir, raised before any work and with no
    directory made."""

    @pytest.mark.parametrize("below", ["file", "file/sub", "dangling", "dangling/sub"])
    @pytest.mark.parametrize("command", ["design", "eval", "compare", "sweep"])
    def test_path_under_a_file_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, below):
        def never_called(*args, **kwargs):
            raise AssertionError("optimize ran")

        monkeypatch.setattr(cli, "optimize", never_called)
        params = tmp_path / "params.json"
        DesignParams((2000.0, 3000.0), [[0.5, 0.5]] * 2, [[0.5, 0.5]] * 2).save(params)
        cfg = small_config(tmp_path / "cfg-out")
        if command == "sweep":
            cfg["loss"]["variant"] = "L3"
            cfg["sweep"] = {"alpha": [0.0, 1.0]}
        path = write_config(tmp_path, cfg)
        (tmp_path / "file").write_text("a regular file")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        flags = {"eval": ["--baseline", "das"], "compare": ["--params", str(params)]}.get(command, [])
        assert main([command, "--config", str(path), *flags, "--out", str(tmp_path / below)]) == 1
        err = capsys.readouterr().err
        assert "output_dir" in err and "Traceback" not in err
        assert not (tmp_path / "cfg-out").exists()

    def test_empty_out_flag_fails_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path / "cfg-out"))
        assert main(["design", "--config", str(path), "--out", ""]) == 1
        assert "output_dir: expected a non-empty string" in capsys.readouterr().err
        assert not (tmp_path / "cfg-out").exists()


class TestCoarseGrid:
    """A grid that leaves a fit cut fewer than 3 samples is a config error
    naming grid_resolution_deg and the band."""

    @pytest.mark.parametrize(
        "args", [["design"], ["eval", "--baseline", "das"]], ids=["design", "eval"]
    )
    def test_names_the_field_and_band(self, tmp_path, capsys, args):
        cfg = small_config(tmp_path / "out", grid_resolution_deg=30.0)
        cfg["array"]["ring_radii_m"] = [0.0, 0.05, 0.10, 0.15, 0.20]
        cfg["frequencies_hz"] = [2000.0, 6000.0]  # the 6 kHz elevation cut holds 1 sample
        path = write_config(tmp_path, cfg)
        assert main([args[0], "--config", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert "grid_resolution_deg" in err and "elevation fit cut of the 6000 Hz band" in err
        assert "2000 Hz" not in err
        assert not (tmp_path / "out").exists()


class TestBandsSpelledAlike:
    """Two bands that artifact names spell alike (%g) are a config error: the
    second band's beampattern file would overwrite the first's."""

    @pytest.mark.parametrize(
        "args", [["design"], ["eval", "--params", "params.json"]], ids=["design", "eval"]
    )
    def test_names_the_field_and_writes_nothing(self, tmp_path, capsys, args):
        bands = (2000.0, 2000.0001)
        DesignParams(bands, [[0.5, 0.5]] * 2, [[0.3, 0.3]] * 2).save(tmp_path / "params.json")
        path = write_config(tmp_path, small_config(tmp_path / "out", frequencies_hz=list(bands)))
        args = [str(tmp_path / a) if a == "params.json" else a for a in args]
        assert main([args[0], "--config", str(path), *args[1:]]) == 1
        err = capsys.readouterr().err
        assert "frequencies_hz[1]" in err and "frequencies_hz[0]" in err
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def sweep_config(self, tmp_path, sweep):
        cfg = small_config(tmp_path / "sweep")
        cfg["loss"]["variant"] = "L3"
        cfg["optimizer"]["budget"] = 5
        cfg["sweep"] = sweep
        return write_config(tmp_path, cfg, "sweep.json")

    def test_alpha_sweep_directories_and_summary(self, tmp_path):
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 0.25, 0.5, 0.75, 1.0]})
        assert main(["sweep", "--config", str(path)]) == 0
        out = tmp_path / "sweep"
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == ["alpha=0", "alpha=0.25", "alpha=0.5", "alpha=0.75", "alpha=1"]
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "alpha", "lambda1", "lambda2", "lambda3",
            "frequency_hz", "df_db", "wng_db", "theta_deg", "phi_deg", "status",
        ]
        assert len(rows) == 1 + 5 * 2  # five points, two bands each
        assert all(row[-1] == "ok" for row in rows[1:])
        assert all((p / "manifest.json").exists() for p in out.iterdir() if p.is_dir())

    def test_lambda3_sweep_with_fixed_alpha(self, tmp_path):
        path = self.sweep_config(tmp_path, {"lambda3": [0.001, 0.005, 0.01, 0.05]})
        assert main(["sweep", "--config", str(path)]) == 0
        out = tmp_path / "sweep"
        assert sum(1 for p in out.iterdir() if p.is_dir()) == 4

    def test_cross_product(self, tmp_path):
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 1.0], "lambda3": [0.001, 0.05]})
        assert main(["sweep", "--config", str(path)]) == 0
        out = tmp_path / "sweep"
        assert sum(1 for p in out.iterdir() if p.is_dir()) == 4

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        """A pool of 1 process and one of 2 write the same bytes."""
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 1.0]})
        for cpus in (1, 2):
            # the same relative --out each time: manifest.json records it
            (tmp_path / str(cpus)).mkdir()
            monkeypatch.chdir(tmp_path / str(cpus))
            affinity = set(range(cpus))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            assert main(["sweep", "--config", str(path), "--out", "sweep"]) == 0
        names = sorted(str(p.relative_to(tmp_path / "1")) for p in (tmp_path / "1").rglob("*.*"))
        assert len(names) == 1 + 2 * 6  # summary.csv, and 6 files per point
        assert names == sorted(str(p.relative_to(tmp_path / "2")) for p in (tmp_path / "2").rglob("*.*"))
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_point_matches_design_run(self, tmp_path):
        path = self.sweep_config(tmp_path, {"alpha": [0.5], "lambda1": [1.0]})
        assert main(["sweep", "--config", str(path)]) == 0
        cfg = small_config(tmp_path / "design")
        cfg["loss"].update(variant="L3", alpha=0.5, lambda1=1.0)
        cfg["optimizer"]["budget"] = 5
        assert main(["design", "--config", str(write_config(tmp_path, cfg, "design.json"))]) == 0
        point = tmp_path / "sweep" / "alpha=0.5_lambda1=1"
        for name in ("metrics.csv", "params.json", "run_record.csv"):
            assert (point / name).read_bytes() == (tmp_path / "design" / name).read_bytes(), name

    def test_point_manifest_reruns_the_point(self, tmp_path):
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 0.5], "lambda3": [0.01]})
        assert main(["sweep", "--config", str(path)]) == 0
        point = tmp_path / "sweep" / "alpha=0.5_lambda3=0.01"
        manifest = json.loads((point / "manifest.json").read_text())
        assert "sweep" not in manifest and manifest["output_dir"] == str(point)
        assert manifest["loss"]["alpha"] == 0.5 and manifest["loss"]["lambda3"] == 0.01
        rerun = tmp_path / "rerun"
        assert main(["design", "--config", str(point / "manifest.json"), "--out", str(rerun)]) == 0
        for name in ("metrics.csv", "params.json", "run_record.csv"):
            assert (rerun / name).read_bytes() == (point / name).read_bytes(), name

    def test_sweep_requires_l3(self, tmp_path):
        cfg = small_config(tmp_path / "sweep")
        cfg["sweep"] = {"alpha": [0.5]}
        path = write_config(tmp_path, cfg, "bad.json")
        assert main(["sweep", "--config", str(path)]) == 1

    @pytest.mark.parametrize("values", [[0.5, 0.5], [0.1, 0.1000001]], ids=["equal", "same-name"])
    def test_colliding_point_names_fail_validation(self, tmp_path, capsys, values):
        """Two values that one point directory name spells fail before any
        point runs, naming both indices."""
        path = self.sweep_config(tmp_path, {"lambda1": [0.0], "alpha": [0.3, *values]})
        assert main(["sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.alpha[2]: point directory" in err and "repeats sweep.alpha[1]" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_point_failing_validation_leaves_no_directory(self, tmp_path, monkeypatch, capsys, cpus):
        """The grid check runs inside each point's design; the sweep exits 1
        without creating its output directory, with a pool of 1 process or 2."""
        affinity = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        cfg = small_config(tmp_path / "sweep", grid_resolution_deg=70.0)
        cfg["loss"]["variant"] = "L3"
        cfg["sweep"] = {"alpha": [0.0, 0.5]}
        path = write_config(tmp_path, cfg, "sweep.json")
        assert main(["sweep", "--config", str(path)]) == 1
        assert "grid_resolution_deg" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_non_number_value_is_named_once(self, tmp_path, capsys):
        path = self.sweep_config(tmp_path, {"alpha": ["x"]})
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.count("sweep.alpha[0]") == 1

    def test_sweep_without_section(self, tmp_path):
        cfg = small_config(tmp_path / "sweep")
        cfg["loss"]["variant"] = "L3"
        path = write_config(tmp_path, cfg, "nosweep.json")
        assert main(["sweep", "--config", str(path)]) == 1

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        """The pool is sized from the usable CPUs; --workers is no option."""
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 1.0]})
        with pytest.raises(SystemExit) as exits:
            main(["sweep", "--config", str(path), "--workers", "2"])
        assert exits.value.code == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("blocker", ["file", "dangling-link"])
    def test_blocked_point_directory_fails_before_any_point(self, tmp_path, capsys, blocker):
        """A point whose directory cannot be made fails the sweep before any point runs."""
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 0.5]})
        out = tmp_path / "sweep"
        out.mkdir()
        if blocker == "file":
            (out / "alpha=0.5").write_text("")
        else:
            (out / "alpha=0.5").symlink_to(tmp_path / "nowhere")
        assert main(["sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"output_dir: {out / 'alpha=0.5'} exists and is not a directory" in err
        assert sorted(p.name for p in out.iterdir()) == ["alpha=0.5"]

    def pool_sizes(self, tmp_path, monkeypatch, points):
        """The pool size of a sweep of ``points`` points, run in this process."""
        sizes = []
        pool = functools.partial(InProcessPool, sizes)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        path = self.sweep_config(tmp_path, {"alpha": [0.25 * i for i in range(points)]})
        assert main(["sweep", "--config", str(path)]) == 0
        return sizes

    def test_pool_capped_at_point_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert self.pool_sizes(tmp_path, monkeypatch, 3) == [3]

    @pytest.mark.parametrize(
        "affinity,count,size", [({0}, 8, 1), (None, 8, 3), (None, None, 1)],
        ids=["one-cpu-of-8", "no-affinity", "no-affinity-unknown-count"],
    )
    def test_pool_size_follows_usable_cpus(self, tmp_path, monkeypatch, affinity, count, size):
        """The CPUs the process may run on size the pool; where the platform
        has no CPU affinity the CPU count does, and an unknown count gives
        one process."""
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert self.pool_sizes(tmp_path, monkeypatch, 3) == [size]

    @pytest.mark.parametrize("error", [NumericalError])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_failed_point_gets_a_status_row(self, tmp_path, monkeypatch, capsys, error, cpus):
        """A point that fails at run time keeps its rows, with empty metric
        cells and the error class as status; the other points finish, the
        summary is written and the sweep exits 2, with a pool of 1 process or 2."""
        affinity = set(range(cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        real = cli.optimize

        def fail_alpha_one(geometry, doa, frequencies, loss, **kwargs):
            if loss.alpha == 1.0:
                raise error("synthetic failure")
            return real(geometry, doa, frequencies, loss, **kwargs)

        monkeypatch.setattr(cli, "optimize", fail_alpha_one)
        # the points must see the patched optimize: fork the pool's processes
        fork_pool = functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fork_pool)
        path = self.sweep_config(tmp_path, {"alpha": [0.0, 1.0, 0.5]})
        assert main(["sweep", "--config", str(path)]) == 2
        assert "sweep: 1 of 3 points failed" in capsys.readouterr().err
        with open(tmp_path / "sweep" / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 2
        assert [row[-1] for row in rows[1:]] == ["ok", "ok", error.__name__, error.__name__, "ok", "ok"]
        assert rows[3][:5] == ["1", "0", "0", "0", "2000"] and rows[3][5:9] == [""] * 4
        assert all(cell for row in rows[1:3] + rows[5:] for cell in row)
        assert (tmp_path / "sweep" / "alpha=0.5" / "metrics.csv").exists()


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.fixture
def blas_threads():
    """(set, get) of the BLAS thread count; the test's count is undone after it."""
    calls = blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread-count handle found")
    set_threads, get_threads = calls
    before = get_threads()
    yield set_threads, get_threads
    set_threads(before)


class TestOneBlasThread:
    """Commands run at the caller's BLAS thread count, so one thread is only
    what a process that loads ccmabeam first starts with; no written byte
    depends on it."""

    def test_bytes_do_not_depend_on_caller_threads(self, tmp_path, monkeypatch, blas_threads):
        # OpenBLAS caps its count at the CPU count, so 2 is the most this
        # checks on a 2-CPU machine; larger counts are untested
        if usable_cpus() < 2:
            pytest.skip("OpenBLAS runs at most one thread per CPU")
        set_threads, get_threads = blas_threads
        path = write_config(
            tmp_path,
            small_config(
                tmp_path / "unused",
                array={"ring_radii_m": [0.0, 0.05, 0.10, 0.15, 0.20], "sample_rate_hz": 16000.0},
                frequencies_hz=[5000.0, 6000.0],
                grid_resolution_deg=1.0,
            ),
        )
        params = "design/params.json"
        for threads in (1, 2):
            # the same relative --out each time: manifest.json records it
            (tmp_path / str(threads)).mkdir()
            monkeypatch.chdir(tmp_path / str(threads))
            set_threads(threads)
            assert main(["design", "--config", str(path), "--out", "design"]) == 0
            assert main(["eval", "--config", str(path), "--params", params, "--out", "eval"]) == 0
            assert main(["compare", "--config", str(path), "--params", params, "--out", "compare"]) == 0
            assert get_threads() == threads
        names = sorted(str(p.relative_to(tmp_path / "1")) for p in (tmp_path / "1").rglob("*.*"))
        assert len(names) == 10  # design: 6 files, eval: 3, compare: 1
        assert names == sorted(str(p.relative_to(tmp_path / "2")) for p in (tmp_path / "2").rglob("*.*"))
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# prints the BLAS thread count and OPENBLAS_NUM_THREADS as the process then sees it
BLAS_AT_LOAD = """
import json, os
import ccmabeam.cli
from blas import blas_thread_calls
set_threads, get_threads = blas_thread_calls()
{after}
print(json.dumps([get_threads(), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.usefixtures("blas_threads")  # skips without an OpenBLAS handle
class TestBlasThreadsAtLoad:
    """The OpenBLAS pool of a fresh interpreter, by what it loaded first."""

    def run(self, before="", after="", **variables):
        """(thread count, OPENBLAS_NUM_THREADS) after ``before``, then the
        import of ccmabeam.cli, then ``after``; no thread variable is set but
        ``variables``."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)  # for the blas helper
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        env.update(variables, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", before + BLAS_AT_LOAD.format(after=after)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return tuple(json.loads(done.stdout))

    def test_ccmabeam_first_starts_one_thread(self):
        assert self.run() == (1, None)

    @pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
    def test_a_callers_count_is_kept(self, variable):
        if usable_cpus() < 2:
            pytest.skip("OpenBLAS starts at most one thread per CPU")
        count, openblas = self.run(**{variable: "2"})
        assert count == 2
        assert openblas == ("2" if variable == "OPENBLAS_NUM_THREADS" else None)

    def test_numpy_first_keeps_its_default(self):
        if usable_cpus() < 2:
            pytest.skip("with one CPU numpy's default is one thread too")
        count, openblas = self.run(before="import numpy\n")
        assert count > 1 and openblas is None

    def test_count_raised_after_a_one_thread_start(self):
        assert self.run(after="set_threads(2)") == (2, None)


class TestCompareCommand:
    def test_compare_csv(self, tmp_path):
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        out2 = tmp_path / "cmp"
        assert (
            main(
                [
                    "compare",
                    "--config", str(path),
                    "--params", str(out / "params.json"),
                    "--out", str(out2),
                ]
            )
            == 0
        )
        with open(out2 / "compare.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "frequency_hz"
        assert "designed_df_db" in rows[0] and "das_df_db" in rows[0]
        assert len(rows) == 3

    def test_one_table_scores_both_filters(self, tmp_path, monkeypatch):
        """compare builds one BandTables, and its cells are those of eval
        --params and eval --baseline das."""
        out = tmp_path / "design"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 0
        params = str(out / "params.json")
        assert main(["eval", "--config", str(path), "--params", params,
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["eval", "--config", str(path), "--baseline", "das",
                     "--out", str(tmp_path / "das")]) == 0

        builds = []

        class CountingTables(metrics.BandTables):
            def __init__(self, *args, **kwargs):
                builds.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics, "BandTables", CountingTables)
        monkeypatch.setattr(cli, "BandTables", CountingTables)
        assert main(["compare", "--config", str(path), "--params", params,
                     "--out", str(tmp_path / "cmp")]) == 0
        assert len(builds) == 1

        def read(path):
            with open(path) as fh:
                return list(csv.DictReader(fh))

        compared = read(tmp_path / "cmp" / "compare.csv")
        for prefix, source in (("designed", "eval"), ("das", "das")):
            expected = read(tmp_path / source / "metrics.csv")
            assert len(compared) == len(expected) == 2
            for row, want in zip(compared, expected):
                assert row["frequency_hz"] == want["frequency_hz"]
                for column in ("df_db", "wng_db", "theta_deg", "phi_deg"):
                    assert row[f"{prefix}_{column}"] == want[column], (prefix, column)

    def test_scores_the_configured_bands(self, tmp_path):
        """Params that hold more bands than the config: compare, like eval,
        scores the configured bands only."""
        design = tmp_path / "design"
        assert main(["design", "--config", str(write_config(tmp_path, small_config(design)))]) == 0
        path = write_config(tmp_path, small_config(tmp_path / "x", frequencies_hz=[2000.0]), "one.json")
        params = str(design / "params.json")
        assert main(["eval", "--config", str(path), "--params", params,
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["compare", "--config", str(path), "--params", params,
                     "--out", str(tmp_path / "cmp")]) == 0
        with open(tmp_path / "eval" / "metrics.csv") as fh:
            expected = list(csv.reader(fh))
        with open(tmp_path / "cmp" / "compare.csv") as fh:
            compared = list(csv.reader(fh))
        assert len(compared) == len(expected) == 2
        assert [c.removeprefix("designed_") for c in compared[0][:5]] == expected[0]
        assert compared[1][:5] == expected[1]

    def test_missing_configured_band(self, tmp_path, capsys):
        """Params that lack a configured band: compare fails as eval does."""
        design = tmp_path / "design"
        cfg = small_config(design, frequencies_hz=[2000.0])
        assert main(["design", "--config", str(write_config(tmp_path, cfg))]) == 0
        path = write_config(tmp_path, small_config(tmp_path / "cmp"), "two.json")
        capsys.readouterr()
        assert main(["compare", "--config", str(path), "--params", str(design / "params.json")]) == 1
        assert "params: no saved band for frequencies [3000.0]" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


class TestGradcheckCommand:
    def test_self_test_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck OK" in out
        assert out.count("point ") == cli.GRADCHECK_POINTS

    def test_nan_at_a_later_point_fails(self, capsys, monkeypatch):
        """A NaN error at point 1 is carried into the worst error: FAIL, exit 2."""
        real = cli.gradcheck
        calls = []

        def nan_at_one(*args):
            result = real(*args)
            calls.append(result)
            return replace(result, max_rel_error=math.nan) if len(calls) == 2 else result

        monkeypatch.setattr(cli, "gradcheck", nan_at_one)
        assert main(["gradcheck"]) == 2
        out = capsys.readouterr().out
        assert "point 1: max relative error nan" in out
        assert "gradcheck FAIL: worst relative error nan" in out

    @pytest.mark.parametrize("args", [["--seed", "1"], ["--points", "2"]], ids=["seed", "points"])
    def test_takes_no_flags(self, capsys, args):
        """The self-test always checks the same points; a flag is a usage error."""
        with pytest.raises(SystemExit) as exits:
            main(["gradcheck", *args])
        assert exits.value.code == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(args)}" in captured.err
        assert captured.out == ""


# every command in one fresh interpreter, the sweep last; asserts that no
# command before it imports the process pool, and prints whether numpy.random
# was loaded
NO_NUMPY_RANDOM = """
import sys
from ccmabeam import cli
design, sweep, tmp = sys.argv[1:]
params = tmp + "/design/params.json"
assert cli.main(["design", "--config", design]) == 0
assert cli.main(["eval", "--config", design, "--params", params, "--out", tmp + "/eval"]) == 0
assert cli.main(["compare", "--config", design, "--params", params, "--out", tmp + "/compare"]) == 0
assert cli.main(["gradcheck"]) == 0
pool = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
assert not pool, pool
assert cli.main(["sweep", "--config", sweep]) == 0
print("numpy.random" in sys.modules)
"""


def test_commands_never_load_numpy_random(tmp_path):
    """The start point and gradcheck's points are drawn in the package, so no
    command imports numpy.random (and OpenSSL through its secrets import);
    only a sweep imports its process pool."""
    design = write_config(tmp_path, small_config(tmp_path / "design"), "design.json")
    cfg = small_config(tmp_path / "sweep", sweep={"alpha": [0.0, 0.5]})
    cfg["loss"] = {"variant": "L3", "lambda3": 0.01}
    sweep = write_config(tmp_path, cfg, "sweep.json")
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, str(design), str(sweep), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "sweep" / "summary.csv").exists()


class TestExitCodes:
    def test_numerical_failure_maps_to_two(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "optimize", boom)
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["design", "--config", str(path)]) == 2

    def test_numerical_failure_keeps_best_artifacts(self, tmp_path, monkeypatch):
        """NaN loss at iteration 4: every artifact is written from the best
        of iterations 1-3, and the run exits 2."""
        real = optimizer.total_loss
        calls = [0]

        def nan_at_four(*args):
            value, terms = real(*args)
            calls[0] += 1
            return (math.nan if calls[0] == 4 else value), terms

        monkeypatch.setattr(optimizer, "total_loss", nan_at_four)
        out = tmp_path / "out"
        path = write_config(tmp_path, small_config(out))
        assert main(["design", "--config", str(path)]) == 2
        monkeypatch.undo()
        names = {"params.json", "metrics.csv", "run_record.csv", "manifest.json",
                 "beampattern_2000.csv", "beampattern_3000.csv"}
        assert names <= {p.name for p in out.iterdir()}
        with open(out / "run_record.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iteration"]) for r in rows] == [1, 2, 3]
        cfg = load_config(path)
        pipeline = DesignPipeline(
            build_geometry(cfg.array), cfg.doa, cfg.frequencies, cfg.loss, cfg.grid_resolution
        )
        params = DesignParams.load(out / "params.json")
        x = np.stack([params.unconstrained_weights, params.unconstrained_widths], axis=1).reshape(-1)
        best = min(float(r["loss"]) for r in rows)
        assert float(pipeline.build_loss(x)[0]) == pytest.approx(best, rel=1e-9)

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exits:
            main(["design"])  # --config missing
        assert exits.value.code == 1
