"""The gradcheck oracle and the hand-written reverse pass it guards.

The design loss is differentiated by a reverse pass written out by hand
over the band-batched forward arrays of :class:`DesignPipeline`.  Its
steps (softmax and softplus, the weight x window-tap product, the sum,
sum of squares and diffuse quadratic form of the gains, the complex cut
responses and their squared modulus, the fit-coefficient dot products,
the loss's branch routing) are checked here through
the ``pullback`` that each evaluation's ``BandLossTerms`` carries, which
runs the same pass from chosen adjoints of the band metrics, against
central differences of the forward and against closed forms.
"""

import dataclasses
import math

import numpy as np
import pytest

import ccmabeam as cb
from ccmabeam.loss import LossConfig, total_loss
from ccmabeam.metrics import (
    GAMMA_DIAGONAL_REG,
    NumericalError,
    curvature_width,
    fit_coefficients,
    gamma_matrix,
)
from ccmabeam.optimizer import DesignPipeline, RPropState, gradcheck, rprop_step
from ccmabeam.wavefield import steering_vector
from ccmabeam.weighting import SIGMA_FLOOR, constrain_band, gaussian_window, mic_layout
from oracles import assemble_filter, directivity_factor, white_noise_gain

METRICS = ("theta", "phi", "df", "wng")


def cfg(variant="L1", target=40.0, **kw):
    return LossConfig(
        variant=variant, target_theta=math.radians(target), target_phi=math.radians(target), **kw
    )


def seeds(bands, **metrics):
    """Per-band metric adjoints, zero where not given."""
    return [np.asarray(metrics.get(m, np.zeros(bands)), dtype=float) for m in METRICS]


def one_hot(bands, metric, band):
    e = np.zeros(bands)
    e[band] = 1.0
    return seeds(bands, **{metric: e})


def metric_of(pipeline, metric, band):
    return lambda xs: getattr(pipeline.build_loss(xs)[1], metric)[band]


def band_gains(geometry, doa, u, v):
    """Per-mic gains (ring weight x window tap) of one band, from the public
    building blocks."""
    weights, sigmas = constrain_band(u, v)
    _, distances = mic_layout(geometry, doa)
    return np.concatenate(
        [
            weights[r] * gaussian_window(distances[s], sigmas[r])
            for r, s in enumerate(geometry.ring_slices)
        ]
    )


@pytest.fixture(scope="module")
def toy_pipeline(toy_array, doa45):
    return DesignPipeline(toy_array, doa45, (2000.0, 4000.0), cfg())


@pytest.fixture(scope="module")
def ref_pipeline(array_16k, doa45):
    return DesignPipeline(array_16k, doa45, (2000.0, 4000.0), cfg())


def jitter(pipeline, seed, scale=0.5):
    return pipeline.initial_params(seed=0) + np.random.default_rng(seed).uniform(
        -scale, scale, pipeline.param_count
    )


class TestReversePassSteps:
    def test_product_gradient(self, toy_array, doa45):
        """With flat windows (taps within 5e-7 of 1) the gain of a mic is its
        ring weight, so WNG = (sum_r M_r w_r)^2 / sum_r M_r w_r^2; the pullback
        in u must match that closed form through the softmax."""
        pipeline = DesignPipeline(toy_array, doa45, (2000.0,), cfg())
        u = np.array([0.4, -0.3])
        _, snap = pipeline.build_loss(np.concatenate([u, [1e3, 1e3]]))
        counts = np.array([ring.mic_count for ring in toy_array.rings], dtype=float)
        w, _ = constrain_band(u, [1e3, 1e3])
        s1, s2 = counts @ w, counts @ (w * w)
        assert snap.wng[0] == pytest.approx(s1 * s1 / s2, rel=1e-6)
        g_w = 2.0 * s1 * counts / s2 - 2.0 * s1 * s1 * counts * w / (s2 * s2)
        g_u = w * (g_w - w @ g_w)
        g = snap.pullback(*one_hot(1, "wng", 0))
        assert g[:2] == pytest.approx(g_u, rel=1e-5)
        assert np.all(np.abs(g[2:]) < 1e-6)

    def test_exp_at_zero(self, ref_pipeline):
        """At x = 0 every softmax and softplus input sits at zero, where the
        stable sigmoid's two branches meet."""
        x = np.zeros(ref_pipeline.param_count)
        weights, sigmas = constrain_band(np.zeros(5), np.zeros(5))
        assert weights.tolist() == [0.2] * 5
        assert sigmas == pytest.approx(math.log(2.0) + SIGMA_FLOOR, rel=1e-15)
        _, snap = ref_pipeline.build_loss(x)
        assert snap.branches == ["both", "perf"]
        result = gradcheck(lambda xs: ref_pipeline.build_loss(xs)[0], x, snap.gradient())
        assert result.excluded == ()
        assert result.max_rel_error < 1e-5

    def test_modulus_squared_gradient(self):
        """The widths reach the gains through |cut response|^2.  Bands at 0.5
        and 7.5 kHz have cuts of 91/181 and 62/63 samples, so the padded
        samples of the shorter band are in this path too."""
        geometry = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.0, 0.05, 0.10), sample_rate=16000.0)
        )
        doa = cb.Direction.from_degrees(30.0, 120.0)
        pipeline = DesignPipeline(geometry, doa, (500.0, 7500.0), cfg())
        point = jitter(pipeline, 8)
        _, snap = pipeline.build_loss(point)
        assert math.pi not in snap.theta.tolist() + snap.phi.tolist()  # concave fits, no sentinel
        for metric in ("theta", "phi"):
            for band in range(2):
                g = snap.pullback(*one_hot(2, metric, band))
                result = gradcheck(metric_of(pipeline, metric, band), point, g)
                assert result.max_rel_error < 1e-5, (metric, band)

    def test_real_fold_matches_complex_filter(self, array_16k, doa45, ref_pipeline):
        """The pipeline folds the complex product with the conjugate look
        steering into real arithmetic; the complex filter must agree."""
        point = jitter(ref_pipeline, 5)
        _, snap = ref_pipeline.build_loss(point)
        params = ref_pipeline.params_from_vector(point)
        for b, f in enumerate(ref_pipeline.frequencies):
            h = assemble_filter(
                array_16k, f, doa45, params.ring_weights[b], params.window_widths[b]
            )
            d = steering_vector(array_16k, f, doa45)
            assert np.vdot(h, d) == pytest.approx(1.0, abs=1e-12)
            assert snap.wng[b] == pytest.approx(white_noise_gain(h, d), rel=1e-12)
            assert snap.df[b] == pytest.approx(
                directivity_factor(h, d, gamma_matrix(array_16k, f)), rel=1e-10
            )

    def test_abs_subgradient_zero_at_kink(self):
        """Equal performance terms in an opposing band pair put the L3
        difference term |P_i - P_j| at its kink, where it adds no gradient."""
        width = math.radians(30.0)
        args = ([width] * 4, [width] * 4, [10.0, 20.0, 20.0, 40.0], [5.0] * 4)
        plain_total, plain = total_loss(*args, cfg("L3", alpha=0.5))
        total, kinked = total_loss(*args, cfg("L3", alpha=0.5, lambda3=0.3))
        assert kinked.delta_term == 0.0 and total == plain_total
        assert np.array_equal(kinked.d_df, plain.d_df) and np.array_equal(kinked.d_wng, plain.d_wng)

    def test_df_and_wng_quotients_match_finite_differences(self, toy_pipeline):
        """DF and WNG are quotients of the gains' sum squared; the width
        parameters enter the taps through 1 / sigma^2."""
        for seed in (1, 2, 3):
            point = jitter(toy_pipeline, seed)
            _, terms = toy_pipeline.build_loss(point)
            for metric in ("df", "wng"):
                for band in range(2):
                    g = terms.pullback(*one_hot(2, metric, band))
                    assert np.any(g[2:4] != 0.0) or np.any(g[6:] != 0.0)
                    result = gradcheck(metric_of(toy_pipeline, metric, band), point, g)
                    assert result.max_rel_error < 1e-6, (seed, metric, band)

    def test_gradient_follows_active_branch_and_sentinel_is_flat(self):
        """The loss routes its gradient to the active branch, and the width
        map clamps a non-concave fit to the sentinel with a zero slope."""
        deg = math.radians
        thetas = [deg(50.0), deg(30.0), deg(50.0), deg(30.0)]
        phis = [deg(30.0), deg(50.0), deg(50.0), deg(30.0)]
        _, snap = total_loss(thetas, phis, [10.0] * 4, [5.0] * 4, cfg())
        assert snap.branches == ["theta", "phi", "both", "perf"]
        assert snap.d_theta.tolist() == [1.0, 0.0, 1.0, 0.0]
        assert snap.d_phi.tolist() == [0.0, 1.0, 1.0, 0.0]
        assert snap.d_df[:3].tolist() == [0.0] * 3 and snap.d_wng.tolist() == [0.0] * 4
        assert snap.d_df[3] == pytest.approx(-1.0 / (10.0 * math.log(10.0)), rel=1e-15)
        width, slope, concave = curvature_width(np.array([-2.0, 0.0, 3.0]))
        assert concave.tolist() == [True, False, False]
        assert width[1:].tolist() == [math.pi, math.pi] and slope[1:].tolist() == [0.0, 0.0]
        assert slope[0] == pytest.approx(width[0] / 4.0, rel=1e-15)

    def test_loss_is_a_float_and_takes_numpy_scalars(self):
        """The loss takes numpy scalars and ints as it takes floats."""
        deg = math.radians(30.0)
        ref = total_loss([deg, deg], [deg, deg], [10.0, 20.0], [5.0, 6.0], cfg("L3", alpha=0.5))
        mixed = total_loss(
            [np.float64(deg), deg], [deg, np.float32(deg).item()], [10, np.int64(20)], [5, 6.0],
            cfg("L3", alpha=0.5),
        )
        assert mixed[0] == ref[0] and type(mixed[0]) is float
        assert np.array_equal(mixed[1].d_df, ref[1].d_df)
        assert mixed[1].df.dtype == mixed[1].d_wng.dtype == np.float64

    def test_loss_is_a_float_and_the_terms_carry_the_pullback(self, toy_pipeline):
        """build_loss returns total_loss's plain float; its terms' gradient is
        the pullback of their loss partials, and terms that total_loss
        returns on its own have no pullback."""
        value, terms = toy_pipeline.build_loss(toy_pipeline.initial_params(seed=1))
        assert type(value) is float
        alone, alone_terms = total_loss(terms.theta, terms.phi, terms.df, terms.wng, cfg())
        assert value == alone and alone_terms.pullback is None
        expected = terms.pullback(terms.d_theta, terms.d_phi, terms.d_df, terms.d_wng)
        assert np.array_equal(terms.gradient(), expected)

    def test_domain_errors(self):
        deg = math.radians(30.0)
        for df, wng in ((0.0, 5.0), (-1.0, 5.0), (10.0, 0.0)):
            with pytest.raises(ValueError, match="math domain"):
                total_loss([deg, deg], [deg, deg], [df, 10.0], [wng, 5.0], cfg("L3", alpha=0.5))
        with pytest.raises(NumericalError):
            rprop_step(RPropState.create(2), np.array([1.0, math.inf]), np.zeros(2))

    def test_metric_jacobian_matches_finite_differences(self, ref_pipeline):
        """Every band metric of the reference array against central
        differences: the full Jacobian, one pullback per row."""
        for seed in (11, 12):
            point = jitter(ref_pipeline, seed)
            _, terms = ref_pipeline.build_loss(point)
            for metric in METRICS:
                for band in range(2):
                    g = terms.pullback(*one_hot(2, metric, band))
                    result = gradcheck(metric_of(ref_pipeline, metric, band), point, g)
                    assert len(result.excluded) <= 2, (seed, metric, band)
                    assert result.max_rel_error < 1e-5, (seed, metric, band)


class TestBackward:
    def test_sum_of_squares(self, ref_pipeline):
        """Pullback of sum_b theta_b^2 + phi_b^2, seeded with 2 theta, 2 phi."""
        point = jitter(ref_pipeline, 3)
        _, snap = ref_pipeline.build_loss(point)

        def f(xs):
            s = ref_pipeline.build_loss(xs)[1]
            return sum(t * t for t in s.theta) + sum(p * p for p in s.phi)

        g = snap.pullback(*seeds(2, theta=2.0 * np.array(snap.theta), phi=2.0 * np.array(snap.phi)))
        result = gradcheck(f, point, g)
        assert result.max_rel_error < 1e-5

    def test_unreachable_leaf_gets_zero(self, ref_pipeline):
        """Band metrics depend only on their own band's parameters, and the
        centre ring's single mic (distance 0) does not see its width."""
        _, terms = ref_pipeline.build_loss(jitter(ref_pipeline, 4))
        for metric in METRICS:
            g = terms.pullback(*one_hot(2, metric, 0)).reshape(2, 2, 5)  # (band, u/v, ring)
            assert np.all(g[1] == 0.0), metric
            assert g[0, 1, 0] == 0.0, metric
            assert np.all(g[0, 1, 1:] != 0.0), metric

    def test_constant_expression_zero_gradient(self, ref_pipeline):
        """Zero adjoints give an exactly zero gradient; and no metric moves
        when a band's u shifts by a constant (the softmax ignores it), so
        each band's u-gradient sums to zero."""
        _, terms = ref_pipeline.build_loss(jitter(ref_pipeline, 6))
        assert np.all(terms.pullback(*seeds(2)) == 0.0)
        for metric in METRICS:
            g = terms.pullback(*seeds(2, **{metric: np.ones(2)})).reshape(2, 2, 5)
            for band in range(2):
                g_u = g[band, 0]
                assert abs(g_u.sum()) <= 1e-12 * np.abs(g_u).sum(), (metric, band)

    def test_backward_is_linear(self, ref_pipeline):
        _, terms = ref_pipeline.build_loss(jitter(ref_pipeline, 7))
        rng = np.random.default_rng(7)
        s1 = [rng.normal(size=2) for _ in METRICS]
        s2 = [rng.normal(size=2) for _ in METRICS]
        a, b = 2.5, -0.3
        combined = terms.pullback(*(a * x + b * y for x, y in zip(s1, s2)))
        expected = a * terms.pullback(*s1) + b * terms.pullback(*s2)
        assert combined == pytest.approx(expected, rel=1e-12, abs=1e-12 * np.abs(expected).max())

    def test_replay_determinism(self, ref_pipeline):
        point = jitter(ref_pipeline, 9)
        first, snap1 = ref_pipeline.build_loss(point)
        second, snap2 = ref_pipeline.build_loss(point)
        assert first == second
        for field in dataclasses.fields(snap1):
            name = field.name
            if name != "pullback":  # each evaluation holds its own closure
                assert np.array_equal(getattr(snap1, name), getattr(snap2, name)), name
        g = snap1.gradient()
        assert np.array_equal(g, snap2.gradient())
        assert np.array_equal(g, snap1.gradient())  # the reverse pass leaves the forward intact


class TestReductions:
    def test_fit_coefficients_give_least_squares_curvature(self):
        """The fit-coefficient dot product equals the curvature of a
        weighted least-squares parabola solved directly."""
        rng = np.random.default_rng(2)
        x = np.radians(np.arange(-30.0, 41.0))
        doa_index, sigma = 30, math.radians(9.0)
        y = -20.0 * x**2 + 0.5 * x + rng.normal(scale=0.3, size=x.size)
        xo = x - x[doa_index]
        w = np.exp(-0.5 * (xo / sigma) ** 4)
        design = np.column_stack([xo * xo, np.ones_like(x)]) * np.sqrt(w)[:, None]
        (a, _), *_ = np.linalg.lstsq(design, y * np.sqrt(w), rcond=None)
        assert fit_coefficients(x, doa_index, sigma) @ y == pytest.approx(a, rel=1e-10)

    def test_batched_bands_match_one_pipeline_per_band(self, array_16k, doa45):
        """The band-batched forward and reverse pass agree with one pipeline
        per band (bands with different cut lengths, so padding included)."""
        freqs = (1000.0, 3000.0, 6000.0)
        batched = DesignPipeline(array_16k, doa45, freqs, cfg())
        point = jitter(batched, 10)
        _, snap = batched.build_loss(point)
        grad = snap.gradient().reshape(3, -1)
        for b, f in enumerate(freqs):
            single = DesignPipeline(array_16k, doa45, (f,), cfg())
            _, one = single.build_loss(point.reshape(3, -1)[b])
            for m in METRICS:
                assert getattr(one, m)[0] == pytest.approx(getattr(snap, m)[b], rel=1e-12), m
            assert one.gradient() == pytest.approx(grad[b], rel=1e-10, abs=1e-14)

    def test_df_matches_diffuse_form_summed_by_hand(self, toy_array, doa45, toy_pipeline):
        """DF = (sum g)^2 / sum_ij g_i g_j Gamma_ij Re(conj(d_i) d_j), summed by hand."""
        point = jitter(toy_pipeline, 12)
        _, snap = toy_pipeline.build_loss(point)
        for b, f in enumerate(toy_pipeline.frequencies):
            u, v = point.reshape(2, 2, 2)[b]
            g = band_gains(toy_array, doa45, u, v)
            d = steering_vector(toy_array, f, doa45)
            gamma = gamma_matrix(toy_array, f)
            diffuse = 0.0
            for i in range(len(g)):
                for j in range(len(g)):
                    diffuse += g[i] * g[j] * gamma[i, j] * (np.conj(d[i]) * d[j]).real
            assert diffuse > GAMMA_DIAGONAL_REG * float(g @ g)
            assert snap.df[b] == pytest.approx(g.sum() ** 2 / diffuse, rel=1e-12)

    def test_wng_matches_sum_of_squares(self, toy_array, doa45):
        """WNG = (sum g)^2 / sum g^2: with flat windows and all weight on one
        ring it is that ring's mic count."""
        pipeline = DesignPipeline(toy_array, doa45, (2000.0,), cfg())
        point = jitter(pipeline, 13)
        _, snap = pipeline.build_loss(point)
        g = band_gains(toy_array, doa45, point[:2], point[2:])
        assert snap.wng[0] == pytest.approx(g.sum() ** 2 / (g @ g), rel=1e-12)
        for u, mics in (([-50.0, 50.0], 14.0), ([50.0, -50.0], 1.0)):
            _, snap = pipeline.build_loss(u + [1e3, 1e3])
            assert snap.wng[0] == pytest.approx(mics, rel=1e-9)

    def test_shape_validation(self, toy_pipeline):
        _, terms = toy_pipeline.build_loss(toy_pipeline.initial_params(seed=1))
        for bad in (seeds(1), seeds(3), [np.zeros((2, 1))] * 4):
            with pytest.raises(ValueError, match="2 band values"):
                terms.pullback(*bad)
        with pytest.raises(ValueError):
            toy_pipeline.build_loss(np.zeros((toy_pipeline.param_count, 1)))
        with pytest.raises(ValueError):
            toy_pipeline.build_loss([0.0] * (toy_pipeline.param_count + 1))


class TestGradcheck:
    def test_quadratic_bowl(self):
        point = [0.5, -1.5, 2.0]
        result = gradcheck(lambda xs: sum(x * x for x in xs), point, [2.0 * p for p in point])
        assert result.max_rel_error < 1e-8
        assert result.excluded == ()

    def test_wrong_gradient_is_reported(self):
        point = [0.5, -1.5, 2.0]
        result = gradcheck(lambda xs: sum(x * x for x in xs), point, [1.0, -3.0, 3.0])
        # only the last coordinate is off: |3 - 4| / max(1, |4|)
        assert result.max_rel_error == pytest.approx(0.25, rel=1e-6)
        assert result.rel_errors[:2] == pytest.approx([0.0, 0.0], abs=1e-8)

    def test_branch_boundary_excluded(self):
        def f(xs):
            x = xs[0]
            if x > 1.0:  # value jump across the branch
                return x * 2.0
            return 5.0

        result = gradcheck(f, [1.0], [0.0])
        assert result.excluded == (0,)
        assert result.max_rel_error == 0.0  # nothing left to compare

    def test_nan_gradient_coordinate_fails(self):
        """A NaN after the first coordinate is not dropped from the maximum."""
        result = gradcheck(lambda xs: sum(x * x for x in xs), [0.5, 1.0], [1.0, math.nan])
        assert math.isnan(result.max_rel_error)
        assert result.excluded == ()

    def test_nan_value_beside_the_point_fails(self):
        def f(xs):
            return math.nan if xs[1] > 1.0 else float(xs[0] ** 2 + xs[1] ** 2)

        result = gradcheck(f, [0.5, 1.0], [1.0, 2.0])
        assert math.isnan(result.max_rel_error)
        assert result.excluded == ()

    def test_rejects_non_scalar_output(self):
        """The checked function must return a scalar."""
        with pytest.raises(TypeError):
            gradcheck(lambda xs: [xs[0], 2.0 * xs[0]], [0.5], [1.0])

    def test_rejects_gradient_of_wrong_length(self):
        with pytest.raises(ValueError):
            gradcheck(lambda xs: xs[0], [0.5], [1.0, 2.0])
