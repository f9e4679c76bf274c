import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccmabeam as cb
from ccmabeam import optimizer as opt
from ccmabeam.optimizer import gradcheck
from ccmabeam.loss import LossConfig
from ccmabeam.metrics import NumericalError, build_fit_cuts
from ccmabeam.optimizer import (
    RPROP_INITIAL_STEP,
    RPROP_STEP_MAX,
    RPROP_STEP_MIN,
    DesignPipeline,
    RPropState,
    optimize,
    rprop_step,
    seeded_uniform,
)

L1_CFG = LossConfig(
    variant="L1", target_theta=math.radians(40.0), target_phi=math.radians(40.0)
)


class TestRProp:
    def test_quadratic_bowl_converges(self):
        state = RPropState.create(1)
        x = np.array([10.0])
        best = abs(x[0])
        hit = None
        for step in range(200):
            x = rprop_step(state, 2.0 * x, x)
            best = min(best, abs(x[0]))
            if hit is None and abs(x[0]) < 1e-3:
                hit = step
        assert hit is not None and hit < 200
        assert abs(x[0]) < 1e-3

    def test_same_sign_growth_capped(self):
        state = RPropState.create(1)
        x = np.array([1000.0])
        for _ in range(40):  # 0.1 * 1.2**k passes 50 at k = 35
            x = rprop_step(state, np.array([1.0]), x)
            assert state.steps[0] <= RPROP_STEP_MAX
        assert state.steps[0] == RPROP_STEP_MAX

    def test_alternating_sign_shrinks_to_floor(self):
        state = RPropState.create(1)
        x = np.array([0.0])
        sign = 1.0
        for _ in range(100):
            x = rprop_step(state, np.array([sign]), x)
            sign = -sign
            assert state.steps[0] >= RPROP_STEP_MIN
        assert state.steps[0] == pytest.approx(RPROP_STEP_MIN)

    def test_sign_flip_skips_update_and_resets(self):
        state = RPropState.create(1)
        x = np.array([5.0])
        x = rprop_step(state, np.array([1.0]), x)  # moves by -0.1
        assert x[0] == pytest.approx(4.9)
        x = rprop_step(state, np.array([-1.0]), x)  # flip: no move, shrink
        assert x[0] == pytest.approx(4.9)
        assert state.steps[0] == pytest.approx(0.05)
        assert state.prev_grad[0] == 0.0  # stored sign reset
        x = rprop_step(state, np.array([-1.0]), x)  # treated as fresh sign
        assert x[0] == pytest.approx(4.95)

    def test_zero_gradient_coordinate_untouched(self):
        state = RPropState.create(2)
        x = np.array([1.0, 2.0])
        x = rprop_step(state, np.array([1.0, 0.0]), x)
        assert x[1] == 2.0
        assert state.steps[1] == RPROP_INITIAL_STEP

    def test_steps_stay_bounded_forever(self):
        state = RPropState.create(3)
        rng = np.random.default_rng(0)
        x = np.zeros(3)
        for _ in range(500):
            x = rprop_step(state, rng.normal(size=3), x)
            assert np.all(state.steps >= RPROP_STEP_MIN)
            assert np.all(state.steps <= RPROP_STEP_MAX)

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
        params = pipeline.params_from_vector(x)
        u = params.unconstrained_weights
        assert len(u) == 2 and len(u[0]) == 2
        assert np.array_equal(np.stack([u, params.unconstrained_widths], axis=1).reshape(-1), x)
        assert len(params.frequencies) == 2
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
        assert list_loss == array_loss
        for field in dataclasses.fields(array_snap):
            name = field.name
            if name != "pullback":  # each evaluation holds its own closure
                assert np.array_equal(getattr(list_snap, name), getattr(array_snap, name)), name
        assert np.array_equal(list_snap.gradient(), array_snap.gradient())

    @pytest.mark.parametrize("length", [3, 7, 12])
    @pytest.mark.parametrize("method", ["build_loss", "params_from_vector"])
    def test_wrong_length_rejected(self, pipeline, method, length):
        """12 would reshape into three rings and 7 not at all; both name the count."""
        with pytest.raises(ValueError, match=f"^expected 8 parameters, got {length}$"):
            getattr(pipeline, method)(np.zeros(length))

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
            _, snap = pipeline.build_loss(point)
            assert snap.branches == ["both", "perf", "perf"]
            sign = 1.0 if variant == "L2" else -1.0
            assert all(sign * d > 0.0 for d in snap.d_df[1:])
            result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, snap.gradient())
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
        _, terms = pipeline.build_loss(point)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, terms.gradient())
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
        _, snap = pipeline.build_loss(point)
        assert "perf" in snap.branches and snap.branches.count("perf") < len(freqs)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, snap.gradient())
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
        pipeline.tables.a_gamma = pipeline.tables.a_gamma * 1e-12
        point = pipeline.initial_params(seed=3) + 0.2
        _, snap = pipeline.build_loss(point)
        assert snap.branches == ["perf", "perf"]
        assert snap.df == pytest.approx(list(1e10 * np.array(snap.wng)), rel=1e-12)
        result = gradcheck(lambda xs: pipeline.build_loss(xs)[0], point, snap.gradient())
        assert result.max_rel_error < 1e-4

    def test_centre_mic_width_gets_zero_gradient(self, pipeline):
        """The centre ring's only mic sits at distance 0, so its window width
        cannot reach the loss."""
        _, terms = pipeline.build_loss(pipeline.initial_params(seed=2) + 0.3)
        grad = terms.gradient().reshape(2, 2, 2)  # (band, u/v, ring)
        assert np.all(grad[:, 1, 0] == 0.0)
        assert np.all(grad[:, 1, 1] != 0.0)

    def test_sentinel_band_gets_zero_gradient(self, toy_array, doa45):
        """All weight on the centre mic leaves a flat pattern, a non-concave
        fit and the sentinel width pi; the band then has no descent direction."""
        pipeline = DesignPipeline(toy_array, doa45, (2000.0,), L1_CFG)
        _, snap = pipeline.build_loss([50.0, -50.0, 0.0, 0.0])
        assert snap.theta.tolist() == [math.pi] and snap.phi.tolist() == [math.pi]
        assert snap.branches == ["both"]
        assert np.all(snap.gradient() == 0.0)

    @pytest.mark.parametrize(
        "freqs", [(3000.0, 2000.0), (2000.0, 3000.0, 3000.0)], ids=["unsorted", "duplicate"]
    )
    def test_bands_must_be_strictly_increasing(self, toy_array, doa45, freqs):
        with pytest.raises(ValueError, match="strictly increasing"):
            DesignPipeline(toy_array, doa45, freqs, L1_CFG)

    def test_empty_band_list_rejected(self, toy_array, doa45):
        with pytest.raises(ValueError):
            DesignPipeline(toy_array, doa45, (), L1_CFG)


def same_bits(a, b):
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSeededUniform:
    """The start point's draw equals numpy's default_rng draw bit for bit."""

    @given(
        seed=st.integers(0, 2**160 - 1),
        n=st.integers(1, 300),
        bounds=st.sampled_from([(-opt.INIT_NOISE, opt.INIT_NOISE), (-0.5, 0.5), (0.0, 1.0), (2.0, 7.5)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_default_rng(self, seed, n, bounds):
        expected = np.random.default_rng(seed).uniform(*bounds, n)
        assert same_bits(seeded_uniform(seed, *bounds, n), expected)

    @pytest.mark.parametrize(
        "seed",
        # every word count from one to seven, the words past four mixed in one by one
        [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**30, 2**128 - 1, 2**128 + 5, 2**160, 2**200 + 3],
    )
    def test_matches_default_rng_at_word_boundaries(self, seed):
        expected = np.random.default_rng(seed).uniform(-0.5, 0.5, 64)
        assert same_bits(seeded_uniform(seed, -0.5, 0.5, 64), expected)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed(self, seed):
        expected = np.random.default_rng(seed).uniform(0.0, 1.0, 16)
        assert same_bits(seeded_uniform(seed, 0.0, 1.0, 16), expected)

    def test_one_long_draw_is_successive_draws(self):
        """cmd_gradcheck's one 5*n draw, split into rows, is five n-draws of one generator."""
        rng = np.random.default_rng(0)
        expected = np.stack([rng.uniform(-0.5, 0.5, 8) for _ in range(5)])
        assert same_bits(seeded_uniform(0, -0.5, 0.5, 5 * 8).reshape(5, 8), expected)

    def test_initial_params_jitter(self, toy_array, doa45):
        pipeline = DesignPipeline(toy_array, doa45, (2000.0, 4000.0), L1_CFG)
        jitter = np.random.default_rng(11).uniform(-opt.INIT_NOISE, opt.INIT_NOISE, 8)
        expected = np.tile(np.repeat([0.0, opt.INITIAL_V], 2), 2) + jitter
        assert same_bits(pipeline.initial_params(11), expected)

    @pytest.mark.parametrize("seed", [-1, -(2**100)])
    def test_negative_seed_rejected(self, seed):
        """A word-splitting loop on a negative int would never end; this raises at once."""
        with pytest.raises(ValueError, match="seed"):
            seeded_uniform(seed, 0.0, 1.0, 4)

    @pytest.mark.parametrize("seed", [None, 1.0, np.float64(2.0), "3"])
    def test_non_integer_seed_rejected(self, seed):
        """numpy would seed None from OS entropy; a start point is always reproducible."""
        with pytest.raises(TypeError):
            seeded_uniform(seed, 0.0, 1.0, 4)


class TestOptimize:
    def test_single_ring_toy_best_loss_non_increasing(self, doa45):
        geometry = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.05,), sample_rate=16000.0)
        )
        result = optimize(geometry, doa45, (4000.0,), L1_CFG, budget=40, seed=0)
        best = np.minimum.accumulate(result.record.loss)
        assert np.all(np.diff(best) <= 0.0)
        assert result.record.iteration_count <= 40

    def test_same_seed_bit_identical(self, toy_array, doa45):
        a = optimize(toy_array, doa45, (2000.0, 4000.0), L1_CFG, budget=15, seed=7)
        b = optimize(toy_array, doa45, (2000.0, 4000.0), L1_CFG, budget=15, seed=7)
        for name in ("loss", "theta", "phi", "df", "wng"):
            assert np.array_equal(getattr(a.record, name), getattr(b.record, name)), name
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
        assert np.minimum.accumulate(result.record.loss)[-1] == result.record.loss.min()

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
        result = optimize(toy_array, doa45, (2000.0,), L1_CFG, budget=500, seed=0)
        assert result.record.iteration_count < 500
        assert result.record.stopping_reason == "no_improvement"

    @staticmethod
    def fail_at(monkeypatch, call, where):
        """Make the loss (or its gradient) of the ``call``-th evaluation non-finite."""
        calls = [0]
        if where == "loss":
            real = opt.total_loss

            def patched(*args):
                value, terms = real(*args)
                calls[0] += 1
                return (math.nan if calls[0] == call else value), terms

            monkeypatch.setattr(opt, "total_loss", patched)
        else:
            real = opt.BandLossTerms.gradient

            def patched(self):
                g = real(self)
                calls[0] += 1
                return g * math.nan if calls[0] == call else g

            monkeypatch.setattr(opt.BandLossTerms, "gradient", patched)

    @pytest.mark.parametrize("where,kept", [("loss", 5), ("gradient", 6)])
    def test_numerical_failure_returns_best_so_far(self, toy_array, doa45, monkeypatch, where, kept):
        """A failure at iteration 6 keeps the iterations with a finite loss,
        and exactly the parameters a run stopped by budget there returns."""
        clean = optimize(toy_array, doa45, (2000.0, 3000.0), L1_CFG, budget=kept, seed=4)
        self.fail_at(monkeypatch, 6, where)
        failed = optimize(toy_array, doa45, (2000.0, 3000.0), L1_CFG, budget=20, seed=4)
        assert failed.record.stopping_reason == "numerical_failure"
        for name in ("loss", "theta", "phi", "df", "wng"):
            assert np.array_equal(getattr(failed.record, name), getattr(clean.record, name)), name
        for name in ("unconstrained_weights", "unconstrained_widths"):
            assert np.array_equal(getattr(failed.params, name), getattr(clean.params, name)), name
        assert np.array_equal(failed.curves.df, clean.curves.df)

    @pytest.mark.parametrize("where", ["loss", "gradient"])
    def test_numerical_failure_at_first_iteration_raises(self, toy_array, doa45, monkeypatch, where):
        self.fail_at(monkeypatch, 1, where)
        with pytest.raises(NumericalError, match="iteration 1|non-finite gradient"):
            optimize(toy_array, doa45, (2000.0, 3000.0), L1_CFG, budget=20, seed=4)

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
