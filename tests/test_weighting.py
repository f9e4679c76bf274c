import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccmabeam as cb
from ccmabeam.metrics import evaluate_filter_bank
from ccmabeam.wavefield import Direction, steering_vector
from ccmabeam.weighting import (
    SIGMA_FLOOR,
    DegenerateFilterError,
    DesignParams,
    angular_distance,
    assemble_filter,
    constrain_band,
    gaussian_window,
    ring_distances,
    softplus,
    softplus_inverse,
    unconstrain_band,
)


def wrapped_sep(angles, azimuth):
    return np.abs((angles - azimuth + math.pi) % (2.0 * math.pi) - math.pi)


class TestRingDistances:
    def test_aligned_mic_is_zero_and_unique_min(self, array_16k):
        # in-plane arrival along the first mic of ring 1
        doa = Direction(math.pi / 2.0, float(array_16k.rings[1].angles[0]))
        d = ring_distances(array_16k, 1, doa)
        assert d[0] == 0.0
        assert np.argmin(d) == 0
        assert np.sum(d == 0.0) == 1

    def test_range_normalized(self, array_16k, doa45):
        for r in range(1, array_16k.ring_count):
            d = ring_distances(array_16k, r, doa45)
            assert d.min() == 0.0
            assert d.max() == pytest.approx(1.0)
            assert np.all((d >= 0.0) & (d <= 1.0))

    def test_most_aligned_mic_on_14_ring(self, array_16k, doa45):
        # exhaustive check: the minimizing mic is the one closest in azimuth
        d = ring_distances(array_16k, 1, doa45)
        sep = wrapped_sep(array_16k.rings[1].angles, doa45.azimuth)
        assert np.argmin(d) == np.argmin(sep)

    def test_monotone_in_azimuth_separation(self, array_16k):
        doa = Direction.from_degrees(35.0, 77.0)
        for r in (1, 4):
            d = ring_distances(array_16k, r, doa)
            sep = wrapped_sep(array_16k.rings[r].angles, doa.azimuth)
            order = np.argsort(sep)
            assert np.all(np.diff(d[order]) >= -1e-12)

    def test_rear_mics_penalized_beyond_front(self, array_16k):
        doa = Direction.from_degrees(45.0, 0.0)
        r = 4
        d = ring_distances(array_16k, r, doa)
        sep = wrapped_sep(array_16k.rings[r].angles, doa.azimuth)
        front = sep <= math.pi / 2.0
        assert d[~front].min() >= d[front].max() - 1e-9

    def test_single_mic_ring(self, array_16k, doa45):
        assert ring_distances(array_16k, 0, doa45).tolist() == [0.0]

    def test_zenith_arrival_degenerates_to_uniform(self, array_16k):
        d = ring_distances(array_16k, 2, Direction(0.0, 0.0))
        assert np.all(d == 0.0)

    def test_angular_distance_indexing(self, array_16k, doa45):
        d = ring_distances(array_16k, 1, doa45)
        assert angular_distance(array_16k, 1, 3, doa45) == d[3]
        with pytest.raises(IndexError):
            angular_distance(array_16k, 1, 99, doa45)


class TestGaussianWindow:
    def test_unit_at_zero_distance(self):
        assert gaussian_window(0.0, 0.7) == 1.0

    def test_huge_width_is_uniform(self):
        assert gaussian_window(1.0, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_analytic_point(self):
        s = 0.42
        assert gaussian_window(s, s) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            gaussian_window(0.5, 0.0)

    @given(
        d1=st.floats(0.0, 1.0),
        d2=st.floats(0.0, 1.0),
        sigma=st.floats(0.05, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_decreasing_in_distance(self, d1, d2, sigma):
        lo, hi = sorted((d1, d2))
        assert gaussian_window(hi, sigma) <= gaussian_window(lo, sigma) + 1e-15

    @given(
        delta=st.floats(0.01, 1.0),
        s1=st.floats(0.05, 10.0),
        s2=st.floats(0.05, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_increasing_in_width(self, delta, s1, s2):
        lo, hi = sorted((s1, s2))
        assert gaussian_window(delta, lo) <= gaussian_window(delta, hi) + 1e-15

    def test_var_path_matches_float_path(self):
        """A vector of distances gives the scalar results elementwise."""
        delta = np.array([0.0, 0.3, 1.0])
        assert gaussian_window(delta, 0.6).tolist() == [gaussian_window(d, 0.6) for d in delta]

    @pytest.mark.parametrize("sigma", [1e-200, 5e-324])
    def test_tiny_width_keeps_only_the_zero_distance_tap(self, sigma):
        assert gaussian_window(np.array([0.0, 1e-3, 1.0]), sigma).tolist() == [1.0, 0.0, 0.0]


class TestConstrain:
    def test_uniform_at_zero(self):
        w, s = constrain_band([0.0] * 5, [0.0] * 5)
        assert w == pytest.approx([0.2] * 5)
        assert s == pytest.approx([math.log(2.0) + SIGMA_FLOOR] * 5)

    def test_softplus_reference_points(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert softplus(50.0) == pytest.approx(50.0, rel=1e-12)
        assert softplus(-50.0) == pytest.approx(math.exp(-50.0), rel=1e-6)
        with pytest.raises(ValueError):
            softplus_inverse(0.0)

    @given(
        u=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
        v=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_feasible(self, u, v):
        w, s = constrain_band(u, v)
        assert all(0.0 <= x <= 1.0 for x in w)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(x > 0.0 for x in s)

    def test_feasible_at_extremes(self):
        w, s = constrain_band([1e6, -1e6, 0.0], [1e6, -1e6, 0.0])
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert all(x >= SIGMA_FLOOR for x in s)

    @given(
        raw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        widths=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_interior(self, raw, widths):
        n = min(len(raw), len(widths))
        w = np.asarray(raw[:n]) / np.sum(raw[:n])
        s = np.asarray(widths[:n])
        u, v = unconstrain_band(w, s)
        w2, s2 = constrain_band(list(u), list(v))
        assert np.allclose(w2, w, atol=1e-9)
        assert np.allclose(s2, s, atol=1e-9)

    def test_unconstrain_rejects_boundary(self):
        with pytest.raises(ValueError):
            unconstrain_band([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            unconstrain_band([0.5, 0.5], [SIGMA_FLOOR / 2.0, 0.5])

    def test_var_path_matches_float_path(self):
        """A stack of bands gives the one-band results row by row."""
        u = np.array([[0.3, -0.8, 1.1], [2.0, 0.0, -4.0]])
        v = np.array([[-0.2, 0.5, 2.0], [1.0, -3.0, 0.0]])
        w_stack, s_stack = constrain_band(u, v)
        for b in range(2):
            w, s = constrain_band(u[b], v[b])
            assert w_stack[b].tolist() == w.tolist()
            assert s_stack[b].tolist() == s.tolist()


class TestAssembleFilter:
    def test_single_center_mic(self):
        g = cb.build_geometry(cb.ArrayConfig(ring_radii=(0.0,), sample_rate=16000.0))
        h = assemble_filter(g, 1000.0, Direction(0.0, 0.0), [1.0], [0.5])
        assert np.allclose(h, [1.0 + 0.0j])

    def test_uniform_wide_window_equals_das(self, array_16k, doa45):
        f = 2000.0
        rings = array_16k.ring_count
        h = assemble_filter(array_16k, f, doa45, [1.0 / rings] * rings, [1e9] * rings)
        das = cb.das_filter(array_16k, f, doa45)
        assert np.allclose(h, das, atol=1e-9)

    def test_distortionless_at_doa(self, array_16k, doa45):
        f = 3000.0
        h = assemble_filter(
            array_16k, f, doa45, [0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.5, 0.7, 0.4, 0.6]
        )
        d = steering_vector(array_16k, f, doa45)
        assert np.vdot(h, d) == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_positive_scaling_invariance(self, array_16k, doa45):
        f = 1500.0
        w = np.array([0.1, 0.2, 0.3, 0.2, 0.2])
        s = [0.4] * 5
        h1 = assemble_filter(array_16k, f, doa45, w, s)
        h2 = assemble_filter(array_16k, f, doa45, 7.5 * w, s)
        assert np.allclose(h1, h2, atol=1e-15)

    def test_degenerate_weights_rejected(self, array_16k, doa45):
        with pytest.raises(DegenerateFilterError):
            assemble_filter(array_16k, 1000.0, doa45, [0.0] * 5, [0.5] * 5)

    def test_ring_count_mismatch(self, array_16k, doa45):
        with pytest.raises(ValueError):
            assemble_filter(array_16k, 1000.0, doa45, [1.0], [0.5])

    def test_tiny_widths_give_a_finite_filter(self, toy_array, doa45):
        """A positive width squared underflows below about 1e-154; the filter
        must keep the taps closest to the arrival direction, not turn NaN."""
        h = assemble_filter(toy_array, 2000.0, doa45, [0.5, 0.5], [1e-200, 1e-200])
        assert np.all(np.isfinite(h))
        assert np.count_nonzero(h) == 2  # the centre mic and the closest ring mic
        curves = evaluate_filter_bank(
            toy_array,
            doa45,
            (2000.0,),
            lambda f: assemble_filter(toy_array, f, doa45, [0.5, 0.5], [1e-200, 1e-200]),
        )
        for name in ("df", "wng", "theta", "phi"):
            assert np.all(np.isfinite(getattr(curves, name))), name


class TestDesignParams:
    def make(self):
        return DesignParams.from_unconstrained(
            (1000.0, 2000.0),
            [np.array([0.1, -0.2, 0.3]), np.zeros(3)],
            [np.zeros(3), np.array([0.5, -0.5, 0.0])],
        )

    def test_from_unconstrained_is_feasible(self):
        p = self.make()
        for b in range(p.band_count):
            w = p.ring_weights[b]
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert np.all(p.window_widths[b] > 0.0)

    def test_validation_rejects_bad_simplex(self):
        with pytest.raises(ValueError):
            DesignParams(
                frequencies=(1000.0,),
                ring_weights=(np.array([0.5, 0.6]),),
                window_widths=(np.array([0.5, 0.5]),),
            )
        with pytest.raises(ValueError):
            DesignParams(
                frequencies=(1000.0,),
                ring_weights=(np.array([0.5, 0.5]),),
                window_widths=(np.array([0.5, 0.0]),),
            )
        with pytest.raises(ValueError):
            DesignParams(
                frequencies=(1000.0, 2000.0),
                ring_weights=(np.array([1.0]),),
                window_widths=(np.array([0.5]),),
            )
        with pytest.raises(ValueError, match="frequencies"):
            DesignParams(
                frequencies=(1000.0, 1000.0),
                ring_weights=(np.array([1.0]), np.array([1.0])),
                window_widths=(np.array([0.5]), np.array([0.5])),
            )

    @pytest.mark.parametrize("field", ["ring_weights", "window_widths"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_validation_rejects_non_finite_values(self, field, bad):
        values = {
            "ring_weights": (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            "window_widths": (np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        }
        values[field][1][0] = bad
        with pytest.raises(ValueError, match=f"band 1: {field} must be finite"):
            DesignParams(frequencies=(1000.0, 2000.0), **values)

    def test_save_load_round_trip(self, tmp_path):
        p = self.make()
        path = tmp_path / "params.json"
        p.save(path)
        q = DesignParams.load(path)
        assert q.frequencies == p.frequencies
        for b in range(p.band_count):
            assert np.array_equal(q.ring_weights[b], p.ring_weights[b])
            assert np.array_equal(q.window_widths[b], p.window_widths[b])
            assert np.array_equal(q.unconstrained_weights[b], p.unconstrained_weights[b])

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bands": [{"frequency_hz": 1000.0}]}')
        with pytest.raises(ValueError):
            DesignParams.load(path)
