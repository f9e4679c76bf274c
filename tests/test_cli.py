import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ccmabeam import cli
from ccmabeam.cli import ConfigError, load_config, main, parse_config
from ccmabeam.metrics import NumericalError


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
        assert parsed.frequencies == cli.DEFAULT_FREQUENCIES
        assert parsed.grid_resolution_deg == 1.0
        assert parsed.loss.variant == "L1"

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda c: c.update(frequencies_hz=[]), "frequencies_hz"),
            (lambda c: c.update(frequencies_hz=[9000.0]), "frequencies_hz[0]"),
            (lambda c: c["array"].update(ring_radii_m=[]), "array.ring_radii_m"),
            (lambda c: c["array"].pop("sample_rate_hz"), "sample_rate_hz"),
            (lambda c: c.pop("doa_deg"), "doa_deg"),
            (lambda c: c["doa_deg"].update(elevation=200.0), "doa_deg.elevation"),
            (lambda c: c["doa_deg"].update(elevation=120.0), "doa_deg.elevation"),
            (lambda c: c["loss"].update(variant="L7"), "loss.variant"),
            (lambda c: c["loss"].update(alpha=3.0), "loss"),
            (lambda c: c["optimizer"].update(budget=0), "optimizer.budget"),
            (lambda c: c.update(grid_resolution_deg=-1.0), "grid_resolution_deg"),
            (lambda c: c.update(sweep={"bogus": [1.0]}), "sweep.bogus"),
            (lambda c: c.update(sweep={"alpha": []}), "sweep.alpha"),
            (lambda c: c.update(frequencies_hz=[3000.0, 2000.0]), "frequencies_hz[1]"),
            (lambda c: c.update(frequencies_hz=[2000.0, 3000.0, 3000.0]), "frequencies_hz[2]"),
            (lambda c: c.update(sweep={"alpha": [1.5]}), "sweep.alpha[0]"),
            (lambda c: c.update(sweep={"lambda3": [0.1, -0.5]}), "sweep.lambda3[1]"),
        ],
    )
    def test_field_level_errors(self, tmp_path, mutate, needle):
        cfg = small_config(tmp_path / "out")
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert needle in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")
        assert main(["design", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_exits_validation(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["design", "--config", str(path)]) == 1


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

    def test_manifest_reruns_identically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        p1 = write_config(tmp_path, small_config(out1), "c1.json")
        assert main(["design", "--config", str(p1)]) == 0
        assert main(["design", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_empty_frequency_list_fails_validation(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config(tmp_path / "out", frequencies_hz=[]))
        assert main(["design", "--config", str(path)]) == 1
        assert "frequencies_hz" in capsys.readouterr().err


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

    def test_requires_exactly_one_source(self, tmp_path):
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["eval", "--config", str(path)]) == 1


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
            "frequency_hz", "df_db", "wng_db", "theta_deg", "phi_deg",
        ]
        assert len(rows) == 1 + 5 * 2  # five points, two bands each
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

    def test_parallel_workers_match_serial(self, tmp_path):
        p1 = self.sweep_config(tmp_path, {"alpha": [0.0, 1.0]})
        assert main(["sweep", "--config", str(p1)]) == 0
        serial = (tmp_path / "sweep" / "summary.csv").read_bytes()
        out2 = tmp_path / "parallel"
        assert main(["sweep", "--config", str(p1), "--out", str(out2), "--workers", "2"]) == 0
        assert (out2 / "summary.csv").read_bytes() == serial

    def test_sweep_requires_l3(self, tmp_path):
        cfg = small_config(tmp_path / "sweep")
        cfg["sweep"] = {"alpha": [0.5]}
        path = write_config(tmp_path, cfg, "bad.json")
        assert main(["sweep", "--config", str(path)]) == 1

    def test_sweep_without_section(self, tmp_path):
        cfg = small_config(tmp_path / "sweep")
        cfg["loss"]["variant"] = "L3"
        path = write_config(tmp_path, cfg, "nosweep.json")
        assert main(["sweep", "--config", str(path)]) == 1


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


class TestGradcheckCommand:
    def test_self_test_passes(self, capsys):
        assert main(["gradcheck", "--points", "1"]) == 0
        assert "gradcheck OK" in capsys.readouterr().out


class TestExitCodes:
    def test_numerical_failure_maps_to_two(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "optimize", boom)
        path = write_config(tmp_path, small_config(tmp_path / "out"))
        assert main(["design", "--config", str(path)]) == 2

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exits:
            main(["design"])  # --config missing
        assert exits.value.code == 1
