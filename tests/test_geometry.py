import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccmabeam as cb
from ccmabeam.geometry import ArrayConfig, Ring, _assemble, mics_per_ring

LAMBDA_16K = 343.0 / 8000.0  # Nyquist wavelength at f_s = 16 kHz, c = 343


def count_oracle(radius: float, lam: float) -> int:
    """Independent scalar evaluation of the non-aliasing mic count."""
    return math.floor(math.pi / math.asin(lam / (4.0 * radius)))


class TestMicsPerRing:
    def test_center_mic_convention(self):
        assert mics_per_ring(0.0, LAMBDA_16K) == 1
        assert mics_per_ring(0.0, 1e-6) == 1

    @pytest.mark.parametrize(
        "radius,expected", [(0.05, 14), (0.20, 58), (0.10, 29), (0.15, 43)]
    )
    def test_known_counts(self, radius, expected):
        assert mics_per_ring(radius, LAMBDA_16K) == expected
        assert count_oracle(radius, LAMBDA_16K) == expected

    def test_ring_too_small(self):
        # half-wavelength chord cannot fit: lam / (4 rho) > 1
        with pytest.raises(ValueError, match="cannot hold two microphones a half-wavelength"):
            mics_per_ring(0.005, LAMBDA_16K * 2.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            mics_per_ring(-0.1, LAMBDA_16K)
        with pytest.raises(ValueError, match="min_wavelength must be positive"):
            mics_per_ring(0.1, 0.0)

    @given(
        radius=st.floats(0.01, 1.0),
        fs_low=st.floats(4000.0, 20000.0),
        factor=st.floats(1.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_higher_sample_rate_never_drops_mics(self, radius, fs_low, factor):
        lam_low = 343.0 / (fs_low / 2.0)
        lam_high = 343.0 / (fs_low * factor / 2.0)
        if lam_low / (4.0 * radius) > 1.0:
            return  # ring invalid at the lower rate; nothing to compare
        assert mics_per_ring(radius, lam_high) >= mics_per_ring(radius, lam_low)

    @given(radius=st.floats(0.01, 1.0), fs=st.floats(4000.0, 48000.0))
    @settings(max_examples=200, deadline=None)
    def test_chord_at_least_half_wavelength(self, radius, fs):
        lam = 343.0 / (fs / 2.0)
        if lam / (4.0 * radius) > 1.0:
            return
        m = mics_per_ring(radius, lam)
        chord = 2.0 * radius * math.sin(math.pi / m)
        assert chord >= lam / 2.0 - 1e-12


class TestBuildGeometry:
    def test_reference_array(self, array_16k):
        assert [r.mic_count for r in array_16k.rings] == [1, 14, 29, 43, 58]
        assert array_16k.total_mics == 145
        lam = array_16k.config.min_wavelength
        for ring in array_16k.rings[1:]:
            assert ring.mic_count == count_oracle(ring.radius, lam)

    def test_single_center_ring(self):
        g = cb.build_geometry(ArrayConfig(ring_radii=(0.0,), sample_rate=16000.0))
        assert g.total_mics == 1
        assert np.allclose(g.positions, [[0.0, 0.0, 0.0]])
        assert g.distances.tolist() == [[0.0]]

    def test_two_mics_across_diameter(self):
        # radius chosen so exactly 2 mics satisfy the chord constraint
        rho = LAMBDA_16K / (4.0 * 0.9)
        g = cb.build_geometry(ArrayConfig(ring_radii=(rho,), sample_rate=16000.0))
        assert g.rings[0].mic_count == 2
        assert np.allclose(g.rings[0].angles, [0.0, math.pi])
        assert g.distances[0, 1] == pytest.approx(2.0 * rho, rel=1e-12)

    def test_positions_follow_ring_coordinates(self, array_16k):
        for r, ring in enumerate(array_16k.rings):
            block = array_16k.positions[array_16k.ring_slices[r]]
            expect = np.column_stack(
                (
                    ring.radius * np.cos(ring.angles),
                    ring.radius * np.sin(ring.angles),
                    np.zeros(ring.mic_count),
                )
            )
            assert np.allclose(block, expect)
        assert np.all(np.abs(array_16k.mic_angles) < 2.0 * math.pi)

    def test_uniform_spacing_starts_at_zero(self, array_16k):
        ring = array_16k.rings[2]
        gaps = np.diff(ring.angles)
        assert ring.angles[0] == 0.0
        assert np.allclose(gaps, 2.0 * math.pi / ring.mic_count)

    def test_distance_matrix_properties(self, array_16k):
        d = array_16k.distances
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        # triangle inequality over all triples, vectorized
        worst = np.max(d[:, None, :] - (d[:, :, None] + d[None, :, :]))
        assert worst <= 1e-12

    @given(
        rings=st.lists(
            st.tuples(
                st.floats(1e-3, 2.0),
                st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda ring: ring[0],
        ),
        centre=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_distances_equal_the_three_axis_sum(self, rings, centre):
        """The planar sqrt(dx^2 + dy^2) is bit for bit the norm of the 3-D
        position differences: their z term adds +0 last."""
        rings = ([(0.0, [0.0])] if centre else []) + sorted(rings)
        g = _assemble(
            ArrayConfig(ring_radii=tuple(r for r, _ in rings), sample_rate=16000.0),
            tuple(Ring(r, len(a), np.array(a)) for r, a in rings),
        )
        deltas = g.positions[:, None, :] - g.positions[None, :, :]
        assert np.array_equal(g.distances, np.sqrt(np.sum(deltas * deltas, axis=2)))

    def test_geometry_arrays_read_only(self, array_16k):
        """Every array of the geometry and of its rings: a write to a ring's
        angles would leave mic_angles disagreeing with it."""
        owners = [array_16k, *array_16k.rings]
        arrays = [
            (type(owner).__name__, field.name, getattr(owner, field.name))
            for owner in owners
            for field in dataclasses.fields(owner)
            if isinstance(getattr(owner, field.name), np.ndarray)
        ]
        names = {(owner, name) for owner, name, _ in arrays}
        assert names == {
            ("ArrayGeometry", "positions"),
            ("ArrayGeometry", "distances"),
            ("ArrayGeometry", "mic_radii"),
            ("ArrayGeometry", "mic_angles"),
            ("Ring", "angles"),
        }
        for owner, name, arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0


class TestArrayConfigValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="ring_radii must list at least one ring"):
            ArrayConfig(ring_radii=(), sample_rate=16000.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="ring radii must be finite and non-negative"):
            ArrayConfig(ring_radii=(-0.1, 0.2), sample_rate=16000.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="ring radii must be strictly increasing"):
            ArrayConfig(ring_radii=(0.1, 0.1), sample_rate=16000.0)
        with pytest.raises(ValueError, match="ring radii must be strictly increasing"):
            ArrayConfig(ring_radii=(0.2, 0.1), sample_rate=16000.0)
        with pytest.raises(ValueError, match="ring radii must be strictly increasing"):
            ArrayConfig(ring_radii=(0.0, 0.0, 0.1), sample_rate=16000.0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            ArrayConfig(ring_radii=(0.1,), sample_rate=0.0)
        with pytest.raises(ValueError, match="sound_speed must be positive"):
            ArrayConfig(ring_radii=(0.1,), sample_rate=16000.0, sound_speed=-1.0)

    def test_min_wavelength_is_nyquist(self):
        cfg = ArrayConfig(ring_radii=(0.1,), sample_rate=16000.0)
        assert cfg.min_wavelength == pytest.approx(343.0 / 8000.0)

    def test_diameter(self, array_16k):
        assert array_16k.diameter() == pytest.approx(0.4)
