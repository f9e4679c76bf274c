import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccmabeam as cb
from ccmabeam.geometry import Ring, _assemble
from ccmabeam.wavefield import Direction, steering_vector
from ccmabeam.weighting import (
    SIGMA_FLOOR,
    DesignParams,
    constrain_band,
    gaussian_window,
    mic_layout,
    params_gains,
    softplus,
)
from oracles import assemble_filter, das_filter, evaluate_params


def wrapped_sep(angles, azimuth):
    return np.abs((angles - azimuth + math.pi) % (2.0 * math.pi) - math.pi)


def ring_slice(geometry, ring, doa):
    """One ring's slice of the :func:`mic_layout` distances."""
    return mic_layout(geometry, doa)[1][geometry.ring_slices[ring]]


@st.composite
def uneven_rings(draw):
    """A geometry of 1-5 rings, each of 1-12 evenly spaced mics at its own
    angle offset, so ring sizes differ and single-mic rings occur anywhere."""
    counts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=5))
    offsets = draw(st.lists(st.floats(-10.0, 10.0), min_size=len(counts), max_size=len(counts)))
    rings = tuple(
        Ring(0.02 * (k + 1), count, offset + 2.0 * math.pi * np.arange(count) / count)
        for k, (count, offset) in enumerate(zip(counts, offsets))
    )
    return _assemble(cb.ArrayConfig(tuple(r.radius for r in rings), 16000.0), rings)


class TestRingDistances:
    def test_aligned_mic_is_zero_and_unique_min(self, array_16k):
        # in-plane arrival along the first mic of ring 1
        doa = Direction(math.pi / 2.0, float(array_16k.rings[1].angles[0]))
        d = ring_slice(array_16k, 1, doa)
        assert d[0] == 0.0
        assert np.argmin(d) == 0
        assert np.sum(d == 0.0) == 1

    def test_range_normalized(self, array_16k, doa45):
        for r in range(1, array_16k.ring_count):
            d = ring_slice(array_16k, r, doa45)
            assert d.min() == 0.0
            assert d.max() == pytest.approx(1.0)
            assert np.all((d >= 0.0) & (d <= 1.0))

    def test_most_aligned_mic_on_14_ring(self, array_16k, doa45):
        # exhaustive check: the minimizing mic is the one closest in azimuth
        d = ring_slice(array_16k, 1, doa45)
        sep = wrapped_sep(array_16k.rings[1].angles, doa45.azimuth)
        assert np.argmin(d) == np.argmin(sep)

    def test_monotone_in_azimuth_separation(self, array_16k):
        doa = Direction.from_degrees(35.0, 77.0)
        for r in (1, 4):
            d = ring_slice(array_16k, r, doa)
            sep = wrapped_sep(array_16k.rings[r].angles, doa.azimuth)
            order = np.argsort(sep)
            assert np.all(np.diff(d[order]) >= -1e-12)

    def test_rear_mics_penalized_beyond_front(self, array_16k):
        doa = Direction.from_degrees(45.0, 0.0)
        r = 4
        d = ring_slice(array_16k, r, doa)
        sep = wrapped_sep(array_16k.rings[r].angles, doa.azimuth)
        front = sep <= math.pi / 2.0
        assert d[~front].min() >= d[front].max() - 1e-9

    def test_single_mic_ring(self, array_16k, doa45):
        assert ring_slice(array_16k, 0, doa45).tolist() == [0.0]

    def test_zenith_arrival_degenerates_to_uniform(self, array_16k):
        d = ring_slice(array_16k, 2, Direction(0.0, 0.0))
        assert np.all(d == 0.0)

    @given(
        geometry=uneven_rings(),
        elevation=st.floats(0.0, math.pi / 2.0),
        azimuth=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_ring_normalized_on_its_own_slice(self, geometry, elevation, azimuth):
        ring_of_mic, distances = mic_layout(geometry, Direction(elevation, azimuth))
        assert distances.shape == (geometry.total_mics,)
        for r, s in enumerate(geometry.ring_slices):
            assert np.all(ring_of_mic[s] == r)
            d = distances[s]
            # range-normalized exactly, or all zeros for a ring without spread
            assert (d.min() == 0.0 and d.max() == 1.0) or np.all(d == 0.0)
            if geometry.rings[r].mic_count == 1:
                assert d.tolist() == [0.0]


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

    def test_vector_of_distances_matches_scalar_calls(self):
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

    def test_stacked_bands_match_one_band_calls(self):
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
        das = das_filter(array_16k, f, doa45)
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

    def test_ring_count_mismatch(self, array_16k, doa45):
        with pytest.raises(ValueError):
            assemble_filter(array_16k, 1000.0, doa45, [1.0], [0.5])

    def test_tiny_widths_give_a_finite_filter(self, toy_array, doa45):
        """A positive width squared underflows below about 1e-154; the filter
        must keep the taps closest to the arrival direction, not turn NaN."""
        h = assemble_filter(toy_array, 2000.0, doa45, [0.5, 0.5], [1e-200, 1e-200])
        assert np.all(np.isfinite(h))
        assert np.count_nonzero(h) == 2  # the centre mic and the closest ring mic
        curves = evaluate_params(
            toy_array, doa45, DesignParams((2000.0,), [[0.5, 0.5]], [[1e-200, 1e-200]])
        )
        for name in ("df", "wng", "theta", "phi"):
            assert np.all(np.isfinite(getattr(curves, name))), name


# rings of the gains-sum property: a lone centre mic, a ring without one,
# the toy and the reference layouts, and uneven radii
GAINS_SUM_LAYOUTS = (
    (0.0,),
    (0.05,),
    (0.0, 0.05),
    (0.0, 0.05, 0.10, 0.15, 0.20),
    (0.0, 0.03, 0.11),
)


class TestGainsSum:
    """The export normalizes a band's filter by the sum of its gains.  Each
    ring's mic nearest the arrival direction has a tap of exactly 1 and the
    ring weights sum to 1, so for any valid parameter set that sum is at
    least 1: the division never meets a vanishing sum."""

    @given(
        layout=st.sampled_from(GAINS_SUM_LAYOUTS),
        elevation=st.one_of(st.sampled_from([0.0, 90.0]), st.floats(0.0, 90.0)),
        azimuth=st.floats(0.0, 360.0, exclude_max=True),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_at_least_one(self, layout, elevation, azimuth, data):
        geometry = cb.build_geometry(cb.ArrayConfig(ring_radii=layout, sample_rate=16000.0))
        rings = geometry.ring_count

        def per_ring(values):
            return data.draw(st.lists(values, min_size=rings, max_size=rings))

        # u spread over hundreds reaches the simplex vertices exactly
        weights, _ = constrain_band(per_ring(st.floats(-1000.0, 1000.0)), np.zeros(rings))
        widths = 10.0 ** np.array(per_ring(st.floats(-300.0, 300.0)))
        params = DesignParams((1000.0,), [weights], [widths])
        doa = Direction.from_degrees(elevation, azimuth)
        assert params_gains(geometry, doa, params).sum(axis=1)[0] >= 1.0 - 1e-12


class TestDesignParams:
    def make(self):
        return DesignParams.from_unconstrained(
            (1000.0, 2000.0),
            [np.array([0.1, -0.2, 0.3]), np.zeros(3)],
            [np.zeros(3), np.array([0.5, -0.5, 0.0])],
        )

    def test_from_unconstrained_is_feasible(self):
        p = self.make()
        for b in range(len(p.frequencies)):
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
        # a scalar for the whole field, which only the Python API can pass
        with pytest.raises(
            ValueError, match="ring_weights: expected one list of ring values for each of the 1 bands"
        ):
            DesignParams((2000.0,), 0.5, [[0.5]])
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
        for b in range(len(p.frequencies)):
            assert np.array_equal(q.ring_weights[b], p.ring_weights[b])
            assert np.array_equal(q.window_widths[b], p.window_widths[b])
            assert np.array_equal(q.unconstrained_weights[b], p.unconstrained_weights[b])

    def test_load_names_the_malformed_field(self, malformed_params):
        path, needle = malformed_params
        with pytest.raises(ValueError, match=re.escape(needle)):  # the needle is literal
            DesignParams.load(path)

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"bands": [{"frequency_hz": 1000.0}]}')
        with pytest.raises(ValueError):
            DesignParams.load(path)
