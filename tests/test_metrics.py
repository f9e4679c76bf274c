import csv
import math
import re

import numpy as np
import pytest

import ccmabeam as cb
from ccmabeam import optimizer as ad
from ccmabeam import metrics
from ccmabeam.loss import LossConfig
from ccmabeam.metrics import (
    DELTA_L_DB,
    MetricCurves,
    NumericalError,
    build_fit_cuts,
    curvature_width,
    fit_coefficients,
    gamma_matrix,
    sigma_schedule,
)
from ccmabeam.optimizer import DesignPipeline
from ccmabeam.wavefield import Direction, pattern_db, steering_vector
from ccmabeam.weighting import DesignParams
from oracles import (
    ORACLE_DELTA_L_DB,
    assemble_filter,
    beampattern,
    beamwidth_oracle,
    beamwidth_parabola,
    das_filter,
    directivity_factor,
    evaluate_baseline,
    evaluate_params,
    steering_matrix,
    white_noise_gain,
)


def single_mic_array():
    return cb.build_geometry(cb.ArrayConfig(ring_radii=(0.0,), sample_rate=16000.0))


class TestGammaMatrix:
    def test_unit_diagonal(self, array_16k):
        g = gamma_matrix(array_16k, 1234.0)
        assert np.all(np.diag(g) == 1.0)

    @pytest.mark.parametrize(
        "radii", [(0.0, 0.05, 0.10, 0.15, 0.20), (0.0, 0.0123), (0.031, 0.077)]
    )
    def test_bitwise_numpy_sinc(self, radii):
        # formed in place, bit for bit np.sinc of 2 f l / c, the coincident mics included
        geo = cb.build_geometry(cb.ArrayConfig(ring_radii=radii, sample_rate=16000.0))
        for f in np.linspace(1.0, 8000.0, 97):
            x = 2.0 * math.pi * f * geo.distances / geo.sound_speed
            assert np.array_equal(gamma_matrix(geo, f), np.sinc(x / math.pi)), f

    def test_zero_crossing_at_half_wavelength_pair(self):
        # two mics spaced exactly c / (2 f): the sinc argument is pi
        f = 2000.0
        spacing = 343.0 / (2.0 * f)
        # sample rate picked so the non-aliasing count for this radius is 2
        geo = cb.build_geometry(cb.ArrayConfig(ring_radii=(spacing / 2.0,), sample_rate=4300.0))
        assert geo.rings[0].mic_count == 2
        assert geo.distances[0, 1] == pytest.approx(spacing)
        g = gamma_matrix(geo, f)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_positive_semidefinite_reference_array(self, array_16k):
        g = gamma_matrix(array_16k, 1000.0)
        assert np.allclose(g, g.T)
        eigmin = float(np.linalg.eigvalsh(g).min())
        assert eigmin >= -1e-8

    def test_entries_within_sinc_range(self, array_16k):
        # global minimum of sin(x)/x is about -0.2172 near x = 4.49
        for f in (500.0, 2000.0, 8000.0):
            g = gamma_matrix(array_16k, f)
            assert g.max() <= 1.0
            assert g.min() >= -0.2173

    def test_depends_only_on_frequency_distance_product(self, array_16k):
        # doubling frequency while halving distances leaves gamma unchanged
        half = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.0, 0.025, 0.05, 0.075, 0.10), sample_rate=32000.0)
        )
        assert half.total_mics == array_16k.total_mics
        assert np.allclose(half.distances, array_16k.distances / 2.0)
        assert np.allclose(
            gamma_matrix(half, 2000.0), gamma_matrix(array_16k, 1000.0), atol=1e-12
        )

    def test_rejects_non_positive_frequency(self, array_16k):
        with pytest.raises(ValueError):
            gamma_matrix(array_16k, 0.0)


class TestDirectivityAndNoiseGain:
    def test_single_mic_unity(self):
        geo = single_mic_array()
        doa = Direction(0.3, 0.4)
        h = np.array([1.0 + 0.0j])
        d = steering_vector(geo, 1000.0, doa)
        g = gamma_matrix(geo, 1000.0)
        assert abs(directivity_factor(h, d, g) - 1.0) < 1e-9
        assert abs(white_noise_gain(h, d) - 1.0) < 1e-12

    def test_das_wng_equals_mic_count(self, array_16k, doa45):
        f = 2000.0
        h = das_filter(array_16k, f, doa45)
        d = steering_vector(array_16k, f, doa45)
        assert white_noise_gain(h, d) == pytest.approx(array_16k.total_mics, abs=1e-9)

    def test_scaling_invariance(self, array_16k, doa45):
        f = 2000.0
        h = das_filter(array_16k, f, doa45)
        d = steering_vector(array_16k, f, doa45)
        g = gamma_matrix(array_16k, f)
        base_df = directivity_factor(h, d, g)
        base_wng = white_noise_gain(h, d)
        for k in (1e-3, -2.0, 17.5 + 3j):
            assert directivity_factor(k * h, d, g) == pytest.approx(base_df, rel=1e-12)
            assert white_noise_gain(k * h, d) == pytest.approx(base_wng, rel=1e-12)

    def test_quadratic_form_matches_spherical_integral(self, array_16k, doa45):
        f = 2000.0
        h = das_filter(array_16k, f, doa45)
        d = steering_vector(array_16k, f, doa45)
        quad = directivity_factor(h, d, gamma_matrix(array_16k, f))
        # independent oracle: 1 degree Riemann sum over the sphere with the
        # sin(theta) solid-angle weight
        th = np.radians(np.arange(0.5, 180.0, 1.0))
        ph = np.radians(np.arange(0.0, 360.0, 1.0))
        tg, pg = np.meshgrid(th, ph, indexing="ij")
        b2 = np.abs(steering_matrix(array_16k, f, tg.ravel(), pg.ravel()) @ np.conj(h)) ** 2
        avg = float(np.sum(b2 * np.sin(tg.ravel()))) * math.radians(1.0) ** 2 / (4.0 * math.pi)
        integral_df = abs(np.vdot(h, d)) ** 2 / avg
        assert abs(quad - integral_df) / integral_df < 0.02

    def test_zero_filter_rejected(self, array_16k, doa45):
        d = steering_vector(array_16k, 1000.0, doa45)
        with pytest.raises(ValueError):
            white_noise_gain(np.zeros(array_16k.total_mics, dtype=complex), d)

    def test_indefinite_gamma_detected(self):
        d = np.ones(2, dtype=complex)
        bad = np.array([[1.0, -2.0], [-2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NumericalError):
            directivity_factor(np.array([1.0, 1.0], dtype=complex), d, bad)
        assert directivity_factor(np.array([1.0, 1.0], dtype=complex), d, np.eye(2)) > 0.0


class TestSigmaSchedule:
    def test_monotone_in_frequency(self):
        values = [sigma_schedule(f, 0.4, 343.0) for f in np.linspace(300, 8000, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_clamps(self):
        lo = sigma_schedule(1e6, 0.4, 343.0)
        hi = sigma_schedule(1.0, 0.4, 343.0)
        assert lo == pytest.approx(math.radians(4.0))
        assert hi == pytest.approx(math.radians(30.0))

    def test_zero_aperture_pins_to_max(self):
        assert sigma_schedule(1000.0, 0.0, 343.0) == pytest.approx(math.radians(30.0))

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError, match="frequency must be positive"):
            sigma_schedule(0.0, 0.4, 343.0)


class TestBeamwidthParabola:
    def test_exact_on_quadratic_degrees(self):
        # -6 dB at +-20 degrees: width 40 degrees exactly
        x = np.arange(-30.0, 31.0)
        cut = -(6.0 / 20.0**2) * x**2
        width, ok = beamwidth_parabola(x, cut, doa_index=30, sigma_window=10.0)
        assert ok
        assert width == pytest.approx(40.0, rel=1e-12)

    def test_exact_for_random_widths_and_masks(self):
        rng = np.random.default_rng(11)
        x = np.radians(np.arange(-40.0, 41.0))
        for _ in range(50):
            target = rng.uniform(math.radians(5.0), math.radians(120.0))
            a = -DELTA_L_DB / (target / 2.0) ** 2
            cut = a * x**2 + rng.uniform(-3.0, 0.0)  # intercept must not bias the fit
            sigma = rng.uniform(math.radians(3.0), math.radians(60.0))
            width, ok = beamwidth_parabola(x, cut, doa_index=40, sigma_window=sigma)
            assert ok
            assert abs(width - target) / target < 1e-9

    def test_flat_pattern_returns_sentinel(self):
        x = np.radians(np.arange(-30.0, 31.0))
        width, ok = beamwidth_parabola(x, np.zeros_like(x), 30, math.radians(10.0))
        assert not ok
        assert width == math.pi

    def test_sentinel_width_carries_zero_slope(self):
        """The sentinel width pi carries a zero slope, so no gradient reaches
        the cut samples of a non-concave fit."""
        x = np.arange(-2.0, 3.0)
        coeffs = fit_coefficients(x, 2, 1.0)
        width, slope, concave = curvature_width(coeffs @ np.zeros(5))
        assert not concave
        assert width == math.pi
        assert np.all(slope * coeffs == 0.0)

    def test_fit_coefficients_give_the_curvature(self):
        x = np.radians(np.arange(-20.0, 21.0))
        coeffs = fit_coefficients(x, 20, math.radians(6.0))
        assert coeffs @ (-3.5 * x**2 + 1.25) == pytest.approx(-3.5, rel=1e-9)
        assert coeffs @ np.ones_like(x) == pytest.approx(0.0, abs=1e-9)

    def test_fit_coefficients_reject_a_degenerate_cut(self):
        with pytest.raises(ValueError, match="degenerate cut"):
            fit_coefficients([0.0, 0.0, 0.0], 1, 1.0)

    def test_single_far_sidelobe_barely_moves_fit(self):
        x = np.arange(-40.0, 41.0)
        sigma = 10.0
        clean = -(6.0 / 20.0**2) * x**2
        width_clean, _ = beamwidth_parabola(x, clean, 40, sigma)
        dirty = clean.copy()
        dirty[np.argmin(np.abs(x - 3.0 * sigma))] = -30.0
        width_dirty, _ = beamwidth_parabola(x, dirty, 40, sigma)
        assert abs(width_dirty - width_clean) / width_clean < 0.01

    def test_gradient_matches_finite_differences(self):
        x = np.radians(np.arange(-25.0, 26.0))
        a = -DELTA_L_DB / math.radians(18.0) ** 2
        base = a * x**2 + 0.02 * np.sin(7.0 * x)
        sigma = math.radians(8.0)

        def f(samples):
            width, _ = beamwidth_parabola(x, samples, 25, sigma)
            return width

        coeffs = fit_coefficients(x, 25, sigma)
        _, slope, _ = curvature_width(coeffs @ base)
        result = ad.gradcheck(f, list(base), slope * coeffs)
        assert result.max_rel_error < 1e-5

    def test_input_validation(self):
        x = np.arange(-2.0, 3.0)
        with pytest.raises(ValueError):
            beamwidth_parabola(x[:2], np.zeros(2), 0, 1.0)
        with pytest.raises(ValueError):
            beamwidth_parabola(x, np.zeros(5), 9, 1.0)
        with pytest.raises(ValueError):
            beamwidth_parabola(x, np.zeros(5), 2, 0.0)


class TestBeamwidthOracle:
    def test_exact_crossings(self):
        x = np.arange(-40.0, 41.0)
        cut = -(ORACLE_DELTA_L_DB / 20.0**2) * x**2  # crossings exactly at +-20
        width, ok = beamwidth_oracle(x, cut, 40)
        assert ok
        assert width == pytest.approx(40.0, rel=1e-12)

    def test_interpolates_between_samples(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        cut = np.array([-12.0, -4.0, 0.0, -4.0, -12.0])
        width, ok = beamwidth_oracle(x, cut, 2, delta_l=6.0)
        # crossing at 1 + (6 - 4) / (12 - 4) = 1.25 on each side
        assert ok
        assert width == pytest.approx(2.5)

    def test_monotone_cut_capped_with_flag(self):
        x = np.arange(0.0, 10.0)
        cut = -0.1 * x  # never reaches -6 dB
        width, ok = beamwidth_oracle(x, cut, 0)
        assert not ok
        assert width == pytest.approx(9.0 + 0.0)  # capped at the cut extent

    def test_estimator_tracks_oracle_on_quadratic_dominated(self):
        rng = np.random.default_rng(23)
        x = np.radians(np.arange(-60.0, 61.0))
        agree = 0
        total = 0
        for _ in range(50):
            target = rng.uniform(math.radians(15.0), math.radians(50.0))
            a = -DELTA_L_DB / (target / 2.0) ** 2
            sigma = rng.uniform(math.radians(5.0), math.radians(15.0))
            quartic = rng.uniform(-0.05, 0.05) * abs(a) / (3.0 * sigma) ** 2
            cut = a * x**2 + quartic * x**4
            inside = np.abs(x) <= 2.0 * sigma
            fit_res = cut[inside] - a * x[inside] ** 2
            if math.sqrt(float(np.mean(fit_res**2))) >= 0.5:
                continue
            est, ok_e = beamwidth_parabola(x, cut, 60, sigma)
            orc, ok_o = beamwidth_oracle(x, cut, 60)
            assert ok_e and ok_o
            total += 1
            if abs(est - orc) / orc <= 0.15:
                agree += 1
        assert total >= 40
        assert agree == total


class TestMetricCurves:
    def make(self):
        return MetricCurves(
            frequencies=(1000.0, 2000.0),
            df=np.array([5.0, 8.0]),
            wng=np.array([10.0, 20.0]),
            theta=np.radians([40.0, 38.0]),
            phi=np.radians([41.0, 37.0]),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricCurves((1000.0,), np.array([-1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            MetricCurves((1000.0,), np.array([1.0]), np.array([1.0]), np.array([4.0]), np.array([1.0]))
        with pytest.raises(ValueError, match=re.escape("azimuth beamwidths must lie in (0, pi]")):
            MetricCurves((1000.0,), np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([4.0]))
        with pytest.raises(ValueError):
            MetricCurves((1000.0, 2000.0), np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]))

    @pytest.mark.parametrize("name", ["df", "wng", "theta", "phi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, name, bad):
        values = {"df": [5.0], "wng": [10.0], "theta": [0.5], "phi": [0.6]}
        values[name] = [bad]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            MetricCurves((1000.0,), *(np.array(values[k]) for k in ("df", "wng", "theta", "phi")))

    def test_csv_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.make().to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frequency_hz", "df_db", "wng_db", "theta_deg", "phi_deg"]
        assert len(rows) == 3
        assert float(rows[1][1]) == pytest.approx(10.0 * math.log10(5.0), abs=1e-6)
        assert float(rows[2][3]) == pytest.approx(38.0, abs=1e-6)


class TestEvaluateFilterBank:
    def test_matches_direct_computation(self, array_16k, doa45):
        freqs = (1000.0, 3000.0)
        curves = evaluate_baseline(array_16k, doa45, freqs)
        for b, f in enumerate(freqs):
            h = das_filter(array_16k, f, doa45)
            d = steering_vector(array_16k, f, doa45)
            assert curves.df[b] == pytest.approx(
                directivity_factor(h, d, gamma_matrix(array_16k, f)), rel=1e-12
            )
            assert curves.wng[b] == pytest.approx(white_noise_gain(h, d), rel=1e-12)
            assert 0.0 < curves.theta[b] <= math.pi
            assert 0.0 < curves.phi[b] <= math.pi

    def test_fit_cuts_contain_doa_sample(self, array_16k, doa45):
        for f in (700.0, 2000.0, 6000.0):
            theta_cut, phi_cut = build_fit_cuts(array_16k, doa45, f, math.radians(1.0))
            assert theta_cut.x[theta_cut.doa_index] == pytest.approx(0.0, abs=1e-12)
            assert phi_cut.x[phi_cut.doa_index] == pytest.approx(0.0, abs=1e-12)
            assert theta_cut.elevations.min() >= 0.0
            assert theta_cut.elevations.max() <= math.pi / 2.0 + 1e-12

    def test_non_positive_diffuse_form_raises(self, toy_array, doa45, monkeypatch):
        """The loss floors the DF denominator; a reported metric must not."""
        monkeypatch.setattr(metrics, "gamma_matrix", lambda geometry, f: -np.eye(geometry.total_mics))
        with pytest.raises(NumericalError, match=r"band 0 \(2000 Hz\).*not positive"):
            evaluate_baseline(toy_array, doa45, (2000.0,))


ORACLE_BANDS = (1000.0, 2500.0, 4000.0, 5500.0)


def per_band_oracle(geometry, doa, frequencies, filter_fn):
    """(df, wng, theta, phi) lists from the per-filter oracles, band by band:
    DF and WNG of the complex filter, and the parabola widths of its dB fit
    cuts, clamped to pi as reported."""
    df, wng, theta, phi = [], [], [], []
    for f in frequencies:
        h = filter_fn(f)
        d = steering_vector(geometry, f, doa)
        df.append(directivity_factor(h, d, gamma_matrix(geometry, f)))
        wng.append(white_noise_gain(h, d))
        widths = []
        for cut in build_fit_cuts(geometry, doa, f, math.radians(1.0)):
            steering = steering_matrix(geometry, f, cut.elevations, cut.azimuths)
            cut_db = pattern_db(beampattern(h, steering))
            width, _ = beamwidth_parabola(cut.x, cut_db, cut.doa_index, cut.sigma)
            widths.append(min(width, math.pi))
        theta.append(widths[0])
        phi.append(widths[1])
    return {"df": df, "wng": wng, "theta": theta, "phi": phi}


def assembled_filters(geometry, doa, params):
    """Band frequency -> :func:`assemble_filter` of that band's parameters."""
    bands = {f: b for b, f in enumerate(params.frequencies)}

    def filter_of(f):
        b = bands[f]
        return assemble_filter(geometry, f, doa, params.ring_weights[b], params.window_widths[b])

    return filter_of


def random_params(geometry, seed):
    rng = np.random.default_rng(seed)
    u = [rng.uniform(-1.0, 1.0, geometry.ring_count) for _ in ORACLE_BANDS]
    v = [rng.uniform(-1.0, 1.0, geometry.ring_count) for _ in ORACLE_BANDS]
    return DesignParams.from_unconstrained(ORACLE_BANDS, u, v)


def assert_matches_oracle(metrics, expected):
    for name, values in expected.items():
        assert list(getattr(metrics, name)) == pytest.approx(values, rel=1e-9), name


class TestPerBandOracle:
    """Every production route scores filters through BandTables; the
    per-band path, filter by filter through the public oracles, must agree."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("array", ["toy_array", "array_16k"])
    def test_evaluate_params(self, request, doa45, array, seed):
        geometry = request.getfixturevalue(array)
        params = random_params(geometry, seed)
        expected = per_band_oracle(
            geometry, doa45, ORACLE_BANDS, assembled_filters(geometry, doa45, params)
        )
        assert_matches_oracle(evaluate_params(geometry, doa45, params), expected)

    @pytest.mark.parametrize("array", ["toy_array", "array_16k"])
    def test_evaluate_baseline(self, request, doa45, array):
        geometry = request.getfixturevalue(array)
        expected = per_band_oracle(
            geometry, doa45, ORACLE_BANDS, lambda f: das_filter(geometry, f, doa45)
        )
        assert_matches_oracle(evaluate_baseline(geometry, doa45, ORACLE_BANDS), expected)

    def test_pipeline_snapshot(self, array_16k, doa45):
        """The loss terms the optimizer sees are the reported metrics."""
        cfg = LossConfig(variant="L1", target_theta=math.radians(40.0), target_phi=math.radians(40.0))
        pipeline = DesignPipeline(array_16k, doa45, ORACLE_BANDS, cfg)
        for seed in (0, 1, 2):
            params = random_params(array_16k, seed)
            x = np.stack([params.unconstrained_weights, params.unconstrained_widths], axis=1)
            _, snap = pipeline.build_loss(x.reshape(-1))
            expected = per_band_oracle(
                array_16k, doa45, ORACLE_BANDS, assembled_filters(array_16k, doa45, params)
            )
            reported = MetricCurves(
                ORACLE_BANDS, snap.df, snap.wng,
                np.minimum(snap.theta, math.pi), np.minimum(snap.phi, math.pi),
            )
            assert_matches_oracle(reported, expected)


class TestBandTablesResolution:
    @pytest.mark.parametrize(
        "resolution", [math.nan, math.inf, 0.0, -0.01], ids=["nan", "inf", "zero", "negative"]
    )
    def test_rejects_a_resolution_that_is_not_positive_and_finite(self, toy_array, resolution):
        with pytest.raises(ValueError, match="grid_resolution_deg: must be positive and finite"):
            metrics.BandTables(toy_array, Direction.from_degrees(45.0, 45.0), (2000.0,), resolution)


class TestBandTablesCutRows:
    """The closed-form cut phases give the rows of the steering matrix
    times conj(d), and the padding past each cut stays zero."""

    @pytest.mark.parametrize(
        "doa_deg", [(45.0, 45.0), (0.0, 30.0), (60.0, 359.5)],
        ids=["doa45", "broadside", "azimuth-cut-crosses-2pi"],
    )
    @pytest.mark.parametrize("array", ["toy_array", "array_16k"])
    def test_rows_match_steering_matrix(self, request, array, doa_deg):
        geometry = request.getfixturevalue(array)
        doa = Direction.from_degrees(*doa_deg)
        resolution = math.radians(1.0)
        tables = metrics.BandTables(geometry, doa, ORACLE_BANDS, resolution)
        samples = tables.fit.shape[2]
        rows = tables.cut_rows.reshape(len(ORACLE_BANDS), 2, 2, samples, geometry.total_mics)
        for b, f in enumerate(ORACLE_BANDS):
            d = steering_vector(geometry, f, doa)
            for c, cut in enumerate(build_fit_cuts(geometry, doa, f, resolution)):
                n = len(cut.x)
                expected = steering_matrix(geometry, f, cut.elevations, cut.azimuths) * np.conj(d)
                np.testing.assert_allclose(rows[b, 0, c, :n], expected.real, rtol=0, atol=1e-13)
                np.testing.assert_allclose(rows[b, 1, c, :n], expected.imag, rtol=0, atol=1e-13)
                assert not np.any(rows[b, :, c, n:])
        if doa_deg[1] == 359.5:  # the azimuth cut runs past 2 pi
            cut = build_fit_cuts(geometry, doa, ORACLE_BANDS[0], resolution)[1]
            assert cut.azimuths.max() > 2.0 * math.pi

    @pytest.mark.parametrize(
        "doa_deg", [(45.0, 45.0), (60.0, 359.5)], ids=["doa45", "azimuth-cut-crosses-2pi"]
    )
    def test_tables_built_in_place_equal_their_complex_expressions(self, array_16k, doa_deg):
        """Bit for bit: a_gamma is Gamma * Re(conj(d) d^T), and each cut row
        the cosine and sine of its phase as one outer-product expression."""
        doa = Direction.from_degrees(*doa_deg)
        resolution = math.radians(0.5)
        tables = metrics.BandTables(array_16k, doa, ORACLE_BANDS, resolution)
        samples = tables.fit.shape[2]
        rows = tables.cut_rows.reshape(len(ORACLE_BANDS), 2, 2, samples, array_16k.total_mics)
        offset = doa.azimuth - array_16k.mic_angles
        radial_cos = array_16k.mic_radii * np.cos(offset)
        radial_sin = array_16k.mic_radii * np.sin(offset)
        sin_el = math.sin(doa.elevation)
        for b, f in enumerate(ORACLE_BANDS):
            d = steering_vector(array_16k, f, doa)
            expected = gamma_matrix(array_16k, f) * np.real(np.outer(np.conj(d), d))
            assert np.array_equal(tables.a_gamma[b], expected)
            k = 2.0 * math.pi * f / array_16k.sound_speed
            theta_cut, phi_cut = build_fit_cuts(array_16k, doa, f, resolution)
            phases = (
                np.multiply.outer(sin_el - np.sin(theta_cut.elevations), k * radial_cos),
                np.multiply.outer(1.0 - np.cos(phi_cut.x), k * sin_el * radial_cos)
                + np.multiply.outer(np.sin(phi_cut.x), k * sin_el * radial_sin),
            )
            for c, phase in enumerate(phases):
                assert np.array_equal(rows[b, 0, c, : len(phase)], np.cos(phase))
                assert np.array_equal(rows[b, 1, c, : len(phase)], np.sin(phase))
