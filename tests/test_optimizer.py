import csv
import math

import numpy as np
import pytest

import ccmabeam as cb
from ccmabeam.autodiff import gradcheck
from ccmabeam.loss import LossConfig
from ccmabeam.metrics import NumericalError, build_fit_cuts
from ccmabeam.optimizer import (
    DesignPipeline,
    RPropConfig,
    RPropState,
    optimize,
    rprop_step,
)

L1_CFG = LossConfig(
    variant="L1", target_theta=math.radians(40.0), target_phi=math.radians(40.0)
)


class TestRProp:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RPropConfig(grow=0.9)
        with pytest.raises(ValueError):
            RPropConfig(step_min=1.0, initial_step=0.1)

    def test_quadratic_bowl_converges(self):
        cfg = RPropConfig()
        state = RPropState.create(1, cfg)
        x = np.array([10.0])
        best = abs(x[0])
        hit = None
        for step in range(200):
            x = rprop_step(state, 2.0 * x, x, cfg)
            best = min(best, abs(x[0]))
            if hit is None and abs(x[0]) < 1e-3:
                hit = step
        assert hit is not None and hit < 200
        assert abs(x[0]) < 1e-3

    def test_same_sign_growth_capped(self):
        cfg = RPropConfig(initial_step=10.0)
        state = RPropState.create(1, cfg)
        x = np.array([1000.0])
        for _ in range(30):
            x = rprop_step(state, np.array([1.0]), x, cfg)
            assert state.steps[0] <= cfg.step_max
        assert state.steps[0] == cfg.step_max

    def test_alternating_sign_shrinks_to_floor(self):
        cfg = RPropConfig()
        state = RPropState.create(1, cfg)
        x = np.array([0.0])
        sign = 1.0
        for _ in range(100):
            x = rprop_step(state, np.array([sign]), x, cfg)
            sign = -sign
            assert state.steps[0] >= cfg.step_min
        assert state.steps[0] == pytest.approx(cfg.step_min)

    def test_sign_flip_skips_update_and_resets(self):
        cfg = RPropConfig()
        state = RPropState.create(1, cfg)
        x = np.array([5.0])
        x = rprop_step(state, np.array([1.0]), x, cfg)  # moves by -0.1
        assert x[0] == pytest.approx(4.9)
        x = rprop_step(state, np.array([-1.0]), x, cfg)  # flip: no move, shrink
        assert x[0] == pytest.approx(4.9)
        assert state.steps[0] == pytest.approx(0.05)
        assert state.prev_grad[0] == 0.0  # stored sign reset
        x = rprop_step(state, np.array([-1.0]), x, cfg)  # treated as fresh sign
        assert x[0] == pytest.approx(4.95)

    def test_zero_gradient_coordinate_untouched(self):
        cfg = RPropConfig()
        state = RPropState.create(2, cfg)
        x = np.array([1.0, 2.0])
        x = rprop_step(state, np.array([1.0, 0.0]), x, cfg)
        assert x[1] == 2.0
        assert state.steps[1] == cfg.initial_step

    def test_steps_stay_bounded_forever(self):
        cfg = RPropConfig()
        state = RPropState.create(3, cfg)
        rng = np.random.default_rng(0)
        x = np.zeros(3)
        for _ in range(500):
            x = rprop_step(state, rng.normal(size=3), x, cfg)
            assert np.all(state.steps >= cfg.step_min)
            assert np.all(state.steps <= cfg.step_max)

    def test_nan_gradient_aborts(self):
        state = RPropState.create(2)
        with pytest.raises(NumericalError):
            rprop_step(state, np.array([1.0, math.nan]), np.zeros(2))

    def test_gradient_length_checked(self):
        state = RPropState.create(2)
        with pytest.raises(ValueError):
            rprop_step(state, np.ones(3), np.zeros(3))


class TestDesignPipeline:
    @pytest.fixture(scope="class")
    @staticmethod
    def pipeline(toy_array, doa45):
        return DesignPipeline(toy_array, doa45, (2000.0, 4000.0), L1_CFG)

    def test_param_layout_round_trip(self, pipeline):
        assert pipeline.param_count == 2 * 2 * 2
        x = pipeline.initial_params(seed=3)
        u, v = pipeline.split_vector(x)
        assert len(u) == 2 and len(u[0]) == 2
        params = pipeline.params_from_vector(x)
        assert params.band_count == 2
        assert params.ring_count == 2

    def test_initial_params_deterministic(self, pipeline):
        a = pipeline.initial_params(seed=5)
        b = pipeline.initial_params(seed=5)
        c = pipeline.initial_params(seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_float_list_and_array_agree(self, pipeline):
        x = pipeline.initial_params(seed=1)
        array_loss, array_snap = pipeline.build_loss(x)
        list_loss, list_snap = pipeline.build_loss([float(v) for v in x])
        assert float(list_loss) == float(array_loss)
        assert list_snap == array_snap
        assert np.array_equal(list_loss.gradient(), array_loss.gradient())

    def test_wrong_length_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.build_loss([0.0] * 3)

    @staticmethod
    def check_piecewise_gradient(array_16k, doa45, variant):
        """At these points one band overshoots both targets and two sit on
        the directivity branch, which L2 flips (DF partial > 0)."""
        cfg = LossConfig(
            variant=variant, target_theta=math.radians(40.0), target_phi=math.radians(40.0)
        )
        pipeline = DesignPipeline(array_16k, doa45, (2000.0, 3000.0, 4000.0), cfg)
        rng = np.random.default_rng(13)
        for _ in range(3):
            point = pipeline.initial_params(seed=0) + rng.uniform(
                -0.5, 0.5, pipeline.param_count
            )
            loss, snap = pipeline.build_loss(point)
            assert snap.branches == ["both", "perf", "perf"]
            sign = 1.0 if variant == "L2" else -1.0
            assert all(sign * d > 0.0 for d in snap.d_df[1:])
            result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, loss.gradient())
            assert result.max_rel_error < 1e-4

    def test_l1_gradient_matches_finite_differences(self, array_16k, doa45):
        self.check_piecewise_gradient(array_16k, doa45, "L1")

    def test_l2_gradient_matches_finite_differences(self, array_16k, doa45):
        self.check_piecewise_gradient(array_16k, doa45, "L2")

    def test_five_ring_gradient_matches_finite_differences(self, array_16k, doa45):
        cfg = LossConfig(
            variant="L3",
            target_theta=math.radians(40.0),
            target_phi=math.radians(40.0),
            alpha=0.5,
            lambda1=1.0,
            lambda2=1.0,
            lambda3=0.01,
        )
        pipeline = DesignPipeline(array_16k, doa45, (2000.0, 5000.0), cfg)
        point = pipeline.initial_params(seed=4) + np.random.default_rng(4).uniform(
            -0.4, 0.4, pipeline.param_count
        )
        loss, _ = pipeline.build_loss(point)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, loss.gradient())
        assert result.max_rel_error < 1e-4

    def test_wide_l3_gradient_matches_finite_differences(self):
        """15 bands whose fit cuts run from 91/181 samples at 0.5 kHz down to
        62/63 at 7.5 kHz, so the zero padding to a common length is live."""
        geometry = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.0, 0.05, 0.10), sample_rate=16000.0)
        )
        doa = cb.Direction.from_degrees(30.0, 120.0)
        freqs = tuple(500.0 * k for k in range(1, 16))
        lengths = [
            tuple(len(cut.x) for cut in build_fit_cuts(geometry, doa, f, math.radians(1.0)))
            for f in (freqs[0], freqs[-1])
        ]
        assert lengths == [(91, 181), (62, 63)]
        cfg = LossConfig(
            variant="L3",
            target_theta=math.radians(40.0),
            target_phi=math.radians(40.0),
            alpha=0.5,
            lambda1=1.0,
            lambda2=1.0,
            lambda3=0.1,
        )
        pipeline = DesignPipeline(geometry, doa, freqs, cfg)
        point = pipeline.initial_params(seed=0) + np.random.default_rng(21).uniform(
            -0.5, 0.5, pipeline.param_count
        )
        loss, snap = pipeline.build_loss(point)
        assert "perf" in snap.branches and snap.branches.count("perf") < len(freqs)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, loss.gradient())
        assert pipeline.param_count - len(result.excluded) >= 80
        assert result.max_rel_error < 1e-4

    def test_df_floor_gradient_matches_finite_differences(self, toy_array, doa45):
        """A diffuse form shrunk under GAMMA_DIAGONAL_REG times the filter power
        (as a numerically indefinite one would be) holds the DF denominator at
        its floor, whose adjoint goes to the filter power."""
        cfg = LossConfig(
            variant="L3",
            target_theta=math.radians(179.0),
            target_phi=math.radians(179.0),
            alpha=0.5,
            lambda1=1.0,
        )
        pipeline = DesignPipeline(toy_array, doa45, (2000.0, 4000.0), cfg)
        pipeline._a_gamma = pipeline._a_gamma * 1e-12
        point = pipeline.initial_params(seed=3) + 0.2
        loss, snap = pipeline.build_loss(point)
        assert snap.branches == ["perf", "perf"]
        assert snap.df == pytest.approx(list(1e10 * np.array(snap.wng)), rel=1e-12)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, loss.gradient())
        assert result.max_rel_error < 1e-4

    def test_centre_mic_width_gets_zero_gradient(self, pipeline):
        """The centre ring's only mic sits at distance 0, so its window width
        cannot reach the loss."""
        loss, _ = pipeline.build_loss(pipeline.initial_params(seed=2) + 0.3)
        grad = loss.gradient().reshape(2, 2, 2)  # (band, u/v, ring)
        assert np.all(grad[:, 1, 0] == 0.0)
        assert np.all(grad[:, 1, 1] != 0.0)

    def test_sentinel_band_gets_zero_gradient(self, toy_array, doa45):
        """All weight on the centre mic leaves a flat pattern, a non-concave
        fit and the sentinel width pi; the band then has no descent direction."""
        pipeline = DesignPipeline(toy_array, doa45, (2000.0,), L1_CFG)
        loss, snap = pipeline.build_loss([50.0, -50.0, 0.0, 0.0])
        assert snap.theta == [math.pi] and snap.phi == [math.pi]
        assert snap.branches == ["both"]
        assert np.all(loss.gradient() == 0.0)

    @pytest.mark.parametrize(
        "freqs", [(3000.0, 2000.0), (2000.0, 3000.0, 3000.0)], ids=["unsorted", "duplicate"]
    )
    def test_bands_must_be_strictly_increasing(self, toy_array, doa45, freqs):
        with pytest.raises(ValueError, match="strictly increasing"):
            DesignPipeline(toy_array, doa45, freqs, L1_CFG)

    def test_snapshot_matches_evaluator_on_same_params(self, array_16k, doa45):
        """The batched pipeline and the per-filter evaluation path must report
        the same metrics for identical parameters (same cuts, same estimator)."""
        from ccmabeam.metrics import evaluate_params

        freqs = (1500.0, 4000.0)
        pipeline = DesignPipeline(array_16k, doa45, freqs, L1_CFG)
        x = pipeline.initial_params(seed=8) + 0.3
        _, snap = pipeline.build_loss(list(x))
        curves = evaluate_params(array_16k, doa45, pipeline.params_from_vector(x))
        assert snap.theta == pytest.approx(list(curves.theta), rel=1e-9)
        assert snap.phi == pytest.approx(list(curves.phi), rel=1e-9)
        assert snap.df == pytest.approx(list(curves.df), rel=1e-9)
        assert snap.wng == pytest.approx(list(curves.wng), rel=1e-9)

    def test_empty_band_list_rejected(self, toy_array, doa45):
        with pytest.raises(ValueError):
            DesignPipeline(toy_array, doa45, (), L1_CFG)


class TestOptimize:
    def test_single_ring_toy_best_loss_non_increasing(self, doa45):
        geometry = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.05,), sample_rate=16000.0)
        )
        result = optimize(geometry, doa45, (4000.0,), L1_CFG, budget=40, seed=0)
        best = result.record.best_so_far()
        assert np.all(np.diff(best) <= 0.0)
        assert result.record.iteration_count <= 40

    def test_same_seed_bit_identical(self, toy_array, doa45):
        a = optimize(toy_array, doa45, (2000.0, 4000.0), L1_CFG, budget=15, seed=7)
        b = optimize(toy_array, doa45, (2000.0, 4000.0), L1_CFG, budget=15, seed=7)
        assert a.record.rows == b.record.rows
        assert a.record.stopping_reason == b.record.stopping_reason
        for wa, wb in zip(a.params.ring_weights, b.params.ring_weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a.curves.df, b.curves.df)

    def test_returned_params_feasible_and_best(self, toy_array, doa45):
        result = optimize(toy_array, doa45, (2000.0, 3000.0), L1_CFG, budget=25, seed=1)
        for w in result.params.ring_weights:
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.all((w >= 0.0) & (w <= 1.0))
        for s in result.params.window_widths:
            assert np.all(s > 0.0)
        losses = result.record.losses()
        assert result.record.best_so_far()[-1] == losses.min()

    def test_l2_broadens_where_l1_narrows(self, array_16k, doa45):
        """At 4 kHz the directivity-maximizing branch of L1 leaves a narrow
        beam; L2's flip branch trades directivity away until the widths sit
        just inside the tolerance band below target."""
        target = math.radians(40.0)
        results = {}
        for variant in ("L1", "L2"):
            cfg = LossConfig(variant=variant, target_theta=target, target_phi=target)
            results[variant] = optimize(
                array_16k, doa45, (4000.0,), cfg, budget=400, seed=0
            )
        l1_theta = results["L1"].curves.theta[0]
        l2_theta = results["L2"].curves.theta[0]
        assert l1_theta < math.radians(30.0)
        assert math.radians(35.0) <= l2_theta <= target
        assert results["L2"].curves.df[0] < results["L1"].curves.df[0]

    def test_stops_when_no_improvement(self, toy_array, doa45):
        result = optimize(
            toy_array, doa45, (2000.0,), L1_CFG, budget=500, seed=0, no_improve_limit=10
        )
        assert result.record.iteration_count < 500
        assert result.record.stopping_reason == "no_improvement"

    def test_budget_validation(self, toy_array, doa45):
        with pytest.raises(ValueError):
            optimize(toy_array, doa45, (2000.0,), L1_CFG, budget=0)

    def test_record_csv_layout(self, toy_array, doa45, tmp_path):
        result = optimize(toy_array, doa45, (2000.0, 4000.0), L1_CFG, budget=5, seed=2)
        path = tmp_path / "record.csv"
        result.record.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iteration", "loss",
            "theta_deg_2000", "phi_deg_2000", "df_db_2000", "wng_db_2000",
            "theta_deg_4000", "phi_deg_4000", "df_db_4000", "wng_db_4000",
        ]
        assert len(rows) == 1 + result.record.iteration_count
        assert int(rows[1][0]) == 1
