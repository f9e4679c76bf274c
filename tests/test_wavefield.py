import csv
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccmabeam as cb
from ccmabeam import wavefield
from ccmabeam.geometry import Ring, _assemble
from ccmabeam.metrics import build_fit_cuts
from ccmabeam.wavefield import (
    ELEVATION_RANGE,
    AngularGrid,
    BeampatternRows,
    Direction,
    _harmonic_order,
    bessel_table,
    export_beampattern_csv,
    pattern_db,
    snapped_range,
    steering_vector,
)
from oracles import beampattern, csv_reference, das_filter, steering_matrix


def delays(geometry, frequency, direction):
    """Per-mic arrival delay (s) after the centre, from the steering phase / (2 pi f)."""
    return np.angle(steering_vector(geometry, frequency, direction)) / (2.0 * math.pi * frequency)


def grid_reference(geometry, h, frequency, grid):
    """The direct sum over a steering matrix, one elevation row at a time."""
    rows = [
        steering_matrix(geometry, frequency, np.full(len(grid.azimuths), el), grid.azimuths)
        @ np.conj(h)
        for el in grid.elevations
    ]
    return np.array(rows).reshape(len(grid.elevations), len(grid.azimuths))


def ulps_from(x, steps):
    """The double ``steps`` ulps above ``x`` (below it for negative ``steps``)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


class TestDirection:
    def test_validation(self):
        with pytest.raises(ValueError):
            Direction(-0.1, 0.0)
        with pytest.raises(ValueError):
            Direction(0.1, 2.0 * math.pi)

    @pytest.mark.parametrize(
        "make",
        [lambda: Direction(math.pi / 2.0 + 1e-9, 0.0), lambda: Direction.from_degrees(135.0, 0.0)],
        ids=["hair-below-plane", "135-degrees"],
    )
    def test_elevation_below_the_array_plane_rejected(self, make):
        """The grid and the fit cuts cover ELEVATION_RANGE only."""
        with pytest.raises(ValueError, match=r"elevation must lie in \[0, pi/2\]"):
            make()

    def test_from_degrees_wraps_azimuth(self):
        d = Direction.from_degrees(45.0, 450.0)
        assert d.azimuth == pytest.approx(math.radians(90.0))

    @pytest.mark.parametrize("azimuth", [-1e-14, -1e-300, -5e-324])
    def test_azimuth_a_hair_below_zero_wraps_to_zero(self, azimuth):
        assert azimuth % 360.0 == 360.0  # one wrap alone leaves the range
        assert Direction.from_degrees(45.0, azimuth).azimuth == 0.0

    @given(st.floats(0.0, 360.0, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_in_range_azimuth_keeps_its_bits(self, azimuth):
        assert Direction.from_degrees(45.0, azimuth).azimuth == math.radians(azimuth)

    @given(
        elevation=st.floats(0.0, 90.0),
        azimuth=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            # a few ulps either side of k full turns, where the wraps round
            st.builds(ulps_from, st.integers(-3, 3).map(lambda k: k * 360.0), st.integers(-4, 4)),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_finite_azimuth_builds_a_direction(self, elevation, azimuth):
        """from_degrees maps any finite azimuth into [0, 2 pi), so Direction
        never rejects it."""
        assert 0.0 <= Direction.from_degrees(elevation, azimuth).azimuth < 2.0 * math.pi

    def test_unit_vector(self):
        d = Direction.from_degrees(90.0, 0.0)
        assert np.allclose(d.unit_vector(), [1.0, 0.0, 0.0], atol=1e-15)
        z = Direction(0.0, 0.0)
        assert np.allclose(z.unit_vector(), [0.0, 0.0, 1.0])


class TestPropagationDelay:
    def test_broadside_is_zero(self, array_16k):
        for f in (1000.0, 5000.0):
            assert np.all(delays(array_16k, f, Direction(0.0, 1.0)) == 0.0)

    def test_center_mic_is_zero(self, array_16k):
        d = Direction.from_degrees(70.0, 10.0)
        assert delays(array_16k, 2000.0, d)[0] == 0.0

    def test_aligned_in_plane_value(self):
        g = cb.build_geometry(cb.ArrayConfig(ring_radii=(0.1,), sample_rate=16000.0))
        # arrival from the plane, along the first mic's azimuth: that mic hears it first
        d = Direction(math.pi / 2.0, g.rings[0].angles[0])
        tau = delays(g, 1000.0, d)[0]
        assert tau == pytest.approx(-0.1 / 343.0, rel=1e-12)


class TestSteering:
    def test_broadside_all_ones(self, array_16k):
        d = steering_vector(array_16k, 1000.0, Direction(0.0, 0.0))
        assert np.allclose(d, 1.0, atol=1e-15)

    def test_center_entry_always_one(self, array_16k, doa45):
        d = steering_vector(array_16k, 3333.0, doa45)
        assert d[0] == 1.0 + 0.0j

    def test_unit_modulus(self, array_16k, doa45):
        d = steering_vector(array_16k, 5000.0, doa45)
        assert np.max(np.abs(np.abs(d) - 1.0)) < 1e-12

    def test_conjugate_symmetry_across_azimuth_flip(self, array_16k):
        f = 2000.0
        a = steering_vector(array_16k, f, Direction(math.pi / 2.0, 0.3))
        b = steering_vector(array_16k, f, Direction(math.pi / 2.0, 0.3 + math.pi))
        assert np.allclose(a, np.conj(b), atol=1e-12)

    def test_frequency_range_enforced(self, array_16k, doa45):
        with pytest.raises(ValueError):
            steering_vector(array_16k, 0.0, doa45)
        with pytest.raises(ValueError):
            steering_vector(array_16k, 8000.1, doa45)

    def test_matrix_matches_vector(self, array_16k):
        f = 1500.0
        dirs = [(0.2, 1.1), (1.0, 4.0)]
        mat = steering_matrix(
            array_16k, f, np.array([d[0] for d in dirs]), np.array([d[1] for d in dirs])
        )
        for row, (el, az) in zip(mat, dirs):
            assert np.allclose(row, steering_vector(array_16k, f, Direction(el, az)))

    def test_steering_field_invariants(self, array_16k, doa45):
        grid = AngularGrid.build(math.radians(15.0), doa45)
        th, ph = np.meshgrid(grid.elevations, grid.azimuths, indexing="ij")
        for f in (1000.0, 2000.0):
            mat = steering_matrix(array_16k, f, th.ravel(), ph.ravel())
            assert mat.shape == (th.size, array_16k.total_mics)
            assert np.max(np.abs(np.abs(mat) - 1.0)) < 1e-12
            assert np.all(mat[:, 0] == 1.0 + 0.0j)  # center mic column


class TestBeampattern:
    def test_das_distortionless_at_doa(self, array_16k, doa45):
        f = 1000.0
        d = steering_vector(array_16k, f, doa45)
        h = d / array_16k.total_mics
        assert beampattern(h, d) == pytest.approx(1.0 + 0.0j, abs=1e-9)

    def test_single_mic_unity_everywhere(self):
        g = cb.build_geometry(cb.ArrayConfig(ring_radii=(0.0,), sample_rate=16000.0))
        grid = AngularGrid.build(math.radians(10.0), Direction(0.0, 0.0))
        b = BeampatternRows(g, np.array([1.0 + 0.0j]), 1000.0, grid).response(slice(None))
        assert np.allclose(b, 1.0)

    def test_das_mainlobe_peaks_at_doa(self, array_16k, doa45):
        f = 1000.0
        h = das_filter(array_16k, f, doa45)
        grid = AngularGrid.build(math.radians(1.0), doa45)
        b = np.abs(BeampatternRows(array_16k, h, f, grid).response(slice(None)))
        peak = np.unravel_index(np.argmax(b), b.shape)
        doa_cell = (
            np.argmin(np.abs(grid.elevations - doa45.elevation)),
            np.argmin(np.abs(grid.azimuths - doa45.azimuth)),
        )
        assert peak == doa_cell

    def test_magnitude_bounded_by_l1_norm(self, array_16k, doa45):
        rng = np.random.default_rng(5)
        h = rng.normal(size=array_16k.total_mics) + 1j * rng.normal(
            size=array_16k.total_mics
        )
        norm1 = np.sum(np.abs(h))
        grid = AngularGrid.build(math.radians(10.0), doa45)
        b = BeampatternRows(array_16k, h, 2000.0, grid).response(slice(None))
        assert np.max(np.abs(b)) <= norm1 + 1e-9

    def test_global_phase_invariance(self, array_16k, doa45):
        f = 1200.0
        h = das_filter(array_16k, f, doa45)
        grid = AngularGrid.build(math.radians(10.0), doa45)
        b1, b2 = (
            np.abs(BeampatternRows(array_16k, h * phase, f, grid).response(slice(None)))
            for phase in (1.0, np.exp(1j * 0.7))
        )
        assert np.allclose(b1, b2, atol=1e-12)

    def test_dimension_mismatch(self, array_16k, doa45):
        d = steering_vector(array_16k, 1000.0, doa45)
        with pytest.raises(ValueError):
            beampattern(np.ones(3), d)


class TestBeampatternGrid:
    @staticmethod
    def random_filter(mics, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=mics) + 1j * rng.normal(size=mics)

    def test_matches_steering_matrix(self, array_16k, doa45):
        grid = AngularGrid.build(math.radians(2.0), doa45)
        h = self.random_filter(array_16k.total_mics, 11)
        for f in (1000.0, 6000.0):
            b = BeampatternRows(array_16k, h, f, grid).response(slice(None))
            assert b.shape == (len(grid.elevations), len(grid.azimuths))
            assert np.max(np.abs(b - grid_reference(array_16k, h, f, grid))) < 1e-12

    @staticmethod
    def assert_matches_oracle(geometry, h, f, grid):
        b = BeampatternRows(geometry, h, f, grid).response(slice(None))
        ref = grid_reference(geometry, h, f, grid)
        assert np.max(np.abs(b - ref)) <= 1e-14 * np.sum(np.abs(h))
        # the exported cells: at most one unit apart in the 6th decimal
        cells = np.char.mod("%.6f", pattern_db(b)).astype(float)
        ref_cells = np.char.mod("%.6f", pattern_db(ref)).astype(float)
        assert np.max(np.abs(cells - ref_cells)) < 1.5e-6

    @pytest.mark.parametrize("f", [1000.0, 2500.0, 4000.0, 5500.0, 8000.0])
    def test_reference_array_at_half_degree_matches_oracle(self, f):
        g = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.0, 0.05, 0.10, 0.15, 0.20), sample_rate=16000.0)
        )
        doa = Direction.from_degrees(45.0, 45.0)
        grid = AngularGrid.build(math.radians(0.5), doa)
        self.assert_matches_oracle(g, das_filter(g, f, doa), f, grid)

    def test_one_metre_ring_at_8khz_matches_oracle(self, doa45):
        # k r = 146.5: the largest Jacobi-Anger order here (N = 215)
        g = cb.build_geometry(cb.ArrayConfig(ring_radii=(1.0,), sample_rate=16000.0))
        grid = AngularGrid.build(math.radians(0.5), doa45)
        self.assert_matches_oracle(g, self.random_filter(g.total_mics, 15), 8000.0, grid)

    def test_matches_steering_matrix_on_unsorted_uneven_rings(self):
        rng = np.random.default_rng(12)
        angles = ([0.0], [2.5, 0.3, -1.0, 4.0, 1.1], rng.uniform(-6.0, 6.0, 9).tolist())
        radii = (0.0, 0.04, 0.11)
        g = _assemble(
            cb.ArrayConfig(ring_radii=radii, sample_rate=16000.0),
            tuple(Ring(r, len(a), np.array(a)) for r, a in zip(radii, angles)),
        )
        grid = AngularGrid.build(math.radians(3.0), Direction.from_degrees(30.0, 200.0))
        h = self.random_filter(g.total_mics, 13)
        for f in (700.0, 4500.0):
            b = BeampatternRows(g, h, f, grid).response(slice(None))
            assert np.max(np.abs(b - grid_reference(g, h, f, grid))) < 1e-12

    def test_coarse_grid_folds_orders_onto_fewer_azimuths(self):
        # 8 kHz on the reference array: 2N + 1 = 153 harmonics meet 24 azimuths,
        # and the first azimuth (5 degrees) is not 0
        g = cb.build_geometry(
            cb.ArrayConfig(ring_radii=(0.0, 0.05, 0.10, 0.15, 0.20), sample_rate=16000.0)
        )
        grid = AngularGrid.build(math.radians(15.0), Direction.from_degrees(30.0, 200.0))
        order = _harmonic_order(2.0 * math.pi * 8000.0 / g.sound_speed * 0.20)
        assert (2 * order + 1, len(grid.azimuths)) == (153, 24)
        assert grid.azimuths[0] == pytest.approx(math.radians(5.0), abs=1e-12)
        self.assert_matches_oracle(g, self.random_filter(g.total_mics, 16), 8000.0, grid)

    @pytest.mark.parametrize("f", [1000.0, 6000.0])
    def test_array_without_centre_mic_matches_oracle(self, f):
        g = cb.build_geometry(cb.ArrayConfig(ring_radii=(0.05, 0.10, 0.15), sample_rate=16000.0))
        assert all(ring.radius > 0.0 for ring in g.rings)
        grid = AngularGrid.build(math.radians(1.0), Direction.from_degrees(60.0, 100.3))
        self.assert_matches_oracle(g, self.random_filter(g.total_mics, 17), f, grid)

    @given(
        rings=st.lists(
            st.tuples(
                st.floats(0.01, 0.10),
                # within one turn, as build_geometry places them: the direct
                # sum's own phase error grows with |azimuth - mic angle|
                st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=1, max_size=6),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda ring: round(ring[0], 6),
        ),
        centre=st.booleans(),
        resolution_deg=st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.5, 7.5, 10.0, 15.0, 120.0, 180.0]),
        elevation_deg=st.floats(0.0, 90.0),
        azimuth_deg=st.floats(0.0, 360.0, exclude_max=True),
        f=st.floats(100.0, 8000.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_arrays_match_oracle_at_any_look_azimuth(
        self, rings, centre, resolution_deg, elevation_deg, azimuth_deg, f, seed
    ):
        """The phase shift to the first azimuth and the fold, on grids whose
        first azimuth is rarely 0."""
        rings = sorted(rings) if not centre else [(0.0, [0.0])] + sorted(rings)
        radii = tuple(radius for radius, _ in rings)
        g = _assemble(
            cb.ArrayConfig(ring_radii=radii, sample_rate=16000.0),
            tuple(Ring(r, len(a), np.array(a)) for r, a in rings),
        )
        grid = AngularGrid.build(
            math.radians(resolution_deg), Direction.from_degrees(elevation_deg, azimuth_deg)
        )
        h = self.random_filter(g.total_mics, seed)
        b = BeampatternRows(g, h, f, grid).response(slice(None))
        ref = grid_reference(g, h, f, grid)
        assert np.max(np.abs(b - ref)) <= 1e-14 * np.sum(np.abs(h))

    def test_rejects_bad_filter_and_frequency(self, array_16k, doa45):
        grid = AngularGrid.build(math.radians(15.0), doa45)
        with pytest.raises(ValueError):
            BeampatternRows(array_16k, np.ones(array_16k.total_mics - 1), 1000.0, grid)
        with pytest.raises(ValueError):
            BeampatternRows(array_16k, np.ones(array_16k.total_mics), 8000.1, grid)

    def test_empty_azimuth_axis(self, doa45):
        """No grid has fewer than 2 azimuths: above pi (180 degrees) the
        resolution is rejected, at pi the grid holds 2."""
        for resolution in (ulps_from(math.pi, 1), 4.0, 13.0, 2.0 * math.pi):
            with pytest.raises(ValueError, match=r"grid resolution must be at most pi"):
                AngularGrid.build(resolution, doa45)
        grid = AngularGrid.build(math.pi, doa45)
        assert len(grid.azimuths) == 2 and doa45.azimuth in grid.azimuths

    def test_memory_stays_blocked(self, array_16k, doa45):
        # 181 x 720 directions: the direct sum's (directions x mics) steering
        # matrix would peak near 755 MB; the ring-harmonic form peaks near 4 MB
        grid = AngularGrid.build(math.radians(0.5), doa45)
        h = self.random_filter(array_16k.total_mics, 14)
        tracemalloc.start()
        try:
            BeampatternRows(array_16k, h, 5500.0, grid).response(slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_export_memory_stays_blocked(self, array_16k, doa45, tmp_path):
        # one 181 x 720 band: the row blocks keep the writer's scratch near
        # 1 MB, inside the benchmark's peak-RSS bound
        grid = AngularGrid.build(math.radians(0.5), doa45)
        h = self.random_filter(array_16k.total_mics, 15)
        grid_db = pattern_db(BeampatternRows(array_16k, h, 3000.0, grid).response(slice(None)))
        tracemalloc.start()
        try:
            export_beampattern_csv(tmp_path / "new.csv", grid.elevations, grid.azimuths, grid_db)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        csv_reference(tmp_path / "old.csv", grid.elevations, grid.azimuths, grid_db)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


    @pytest.mark.parametrize("f", [1000.0, 8000.0])
    def test_row_blocks_are_bitwise_slices_of_the_grid(self, array_16k, doa45, f):
        # one buffer folds every block; the blocks overlap and revisit rows
        grid = AngularGrid.build(math.radians(2.0), doa45)
        h = self.random_filter(array_16k.total_mics, 18)
        whole = BeampatternRows(array_16k, h, f, grid).response(slice(None))
        rows = BeampatternRows(array_16k, h, f, grid)
        assert rows.shape == whole.shape
        for block in (slice(0, 7), slice(40, None), slice(3, 4), slice(10, 10), slice(0, 7)):
            assert np.array_equal(rows.response(block), whole[block])
            assert np.array_equal(rows[block], pattern_db(whole[block]))

    def test_streamed_export_memory_stays_blocked(self, array_16k, doa45, tmp_path):
        # one 181 x 720 band, formed and written a block of rows at a time:
        # measured 1.3 MB, the band's harmonic coefficients (0.4 MB) and one
        # block's scratch among it; the whole grid in dB, then exported, 4.5 MB
        grid = AngularGrid.build(math.radians(0.5), doa45)
        h = self.random_filter(array_16k.total_mics, 15)
        tracemalloc.start()
        try:
            rows = BeampatternRows(array_16k, h, 5500.0, grid)
            export_beampattern_csv(tmp_path / "new.csv", grid.elevations, grid.azimuths, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        grid_db = pattern_db(BeampatternRows(array_16k, h, 5500.0, grid).response(slice(None)))
        csv_reference(tmp_path / "old.csv", grid.elevations, grid.azimuths, grid_db)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestBesselTable:
    X = np.concatenate([[0.0, 1e-3, 0.5], np.linspace(1.0, 146.5, 60)])

    def table(self):
        order = _harmonic_order(self.X.max())
        return np.arange(-order, order + 1), bessel_table(self.X, order)

    def test_shape_follows_argument(self):
        assert bessel_table(np.zeros((2, 3)), 4).shape == (2, 3, 9)

    def test_sum_of_squares_is_one(self):
        _, table = self.table()
        assert np.max(np.abs(np.sum(table**2, axis=-1) - 1.0)) < 1e-14

    def test_at_zero_is_kronecker_delta(self):
        n, table = self.table()
        assert np.max(np.abs(table[0] - (n == 0))) < 1e-15

    def test_negative_orders(self):
        n, table = self.table()
        order = n[-1]
        sign = (-1.0) ** np.arange(1, order + 1)
        assert np.max(np.abs(table[:, :order][:, ::-1] - sign * table[:, order + 1 :])) < 1e-14

    def test_recurrence(self):
        # x (J_{n-1} + J_{n+1}) = 2 n J_n
        n, table = self.table()
        x, table = self.X[1:, None], table[1:]
        residual = x * (table[:, :-2] + table[:, 2:]) - 2.0 * n[1:-1] * table[:, 1:-1]
        assert np.max(np.abs(residual) / (x + 2.0 * np.abs(n[1:-1]))) < 1e-14

    def test_orders_past_the_truncation_are_at_rounding_level(self):
        # a fixed order of x + 30 would leave |J_{x+31}(x)| near 1e-7 at x = 146.5
        wide = 2 * _harmonic_order(self.X.max())
        n = np.arange(-wide, wide + 1)
        for x, row in zip(self.X, bessel_table(self.X, wide)):
            assert np.max(np.abs(row[np.abs(n) > _harmonic_order(x)])) < 1e-14

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        n, table = self.table()
        assert np.max(np.abs(table - special.jv(n, self.X[:, None]))) < 1e-14


class TestAngularGrid:
    def test_contains_doa_exactly(self):
        doa = Direction.from_degrees(45.3, 44.7)
        grid = AngularGrid.build(math.radians(1.0), doa)
        assert np.min(np.abs(grid.elevations - doa.elevation)) < 1e-12
        assert np.min(np.abs(grid.azimuths - doa.azimuth)) < 1e-12

    def test_uniform_spacing_and_coverage(self, doa45):
        res = math.radians(1.0)
        grid = AngularGrid.build(res, doa45)
        assert len(grid.elevations) == 91
        assert len(grid.azimuths) == 360
        assert np.allclose(np.diff(grid.elevations), res)
        assert np.allclose(np.diff(grid.azimuths), res)
        assert grid.elevations[0] >= 0.0 and grid.elevations[-1] <= math.pi / 2.0

    @pytest.mark.parametrize("resolution_deg,count", [(7.0, 51), (13.0, 28)])
    def test_azimuths_close_the_circle(self, resolution_deg, count):
        """A resolution that does not divide 360 degrees still spaces
        round(360 / resolution) azimuths evenly, across the wrap too."""
        doa = Direction.from_degrees(45.0, 100.0)
        azimuths = AngularGrid.build(math.radians(resolution_deg), doa).azimuths
        assert len(azimuths) == count
        gaps = np.diff(np.append(azimuths, azimuths[0] + 2.0 * math.pi))
        assert np.max(np.abs(gaps - 2.0 * math.pi / count)) < 1e-12
        assert doa.azimuth in azimuths
        assert azimuths[0] >= 0.0 and azimuths[-1] < 2.0 * math.pi

    @pytest.mark.parametrize("azimuth_deg", [0.0, 45.0, 120.0, 359.5, 17.3])
    def test_divisor_resolutions_keep_their_grid(self, azimuth_deg):
        """Where the resolution divides 360 degrees, the azimuths are those of
        the DoA azimuth plus whole steps, and print the same header labels."""
        doa = Direction.from_degrees(45.0, azimuth_deg)
        for step in (0.5, 1, 1.5, 2, 2.5, 3, 4, 4.5, 5, 6, 7.5, 8, 9, 10, 12, 15):
            resolution = math.radians(step)
            azimuths = AngularGrid.build(resolution, doa).azimuths
            stepped = np.sort(
                (doa.azimuth + np.arange(round(360 / step)) * resolution) % (2.0 * math.pi)
            )
            assert np.max(np.abs(azimuths - stepped)) < 1e-12
            labels = [f"{math.degrees(a):.3f}" for a in azimuths]
            assert labels == [f"{math.degrees(a):.3f}" for a in stepped]
            assert doa.azimuth in azimuths

    def test_snapped_range_anchor(self):
        pts = snapped_range(0.0, 1.0, 0.35, 0.1)
        assert np.min(np.abs(pts - 0.35)) < 1e-15
        assert pts[0] >= 0.0 and pts[-1] <= 1.0

    @pytest.mark.parametrize("resolution_deg", [0.5, 1.0, 2.0, 3.0, 7.0])
    def test_grid_and_fit_cuts_stay_in_the_elevation_range(self, array_16k, resolution_deg):
        """anchor + k step can round a hair outside [0, pi/2] (at 3 degrees,
        for 17 of the 91 whole-degree look elevations); such points are
        clipped onto the bound."""
        lo, hi = ELEVATION_RANGE
        resolution = math.radians(resolution_deg)
        for elevation_deg in range(91):
            doa = Direction.from_degrees(elevation_deg, 45.0)
            elevations = [AngularGrid.build(resolution, doa).elevations]
            for f in (1000.0, 4000.0, 8000.0):
                elevations.append(build_fit_cuts(array_16k, doa, f, resolution)[0].elevations)
            for points in elevations:
                assert lo <= points.min() and points.max() <= hi, (elevation_deg, points)

    def test_rejects_bad_resolution(self, doa45):
        with pytest.raises(ValueError):
            AngularGrid.build(0.0, doa45)

    @pytest.mark.parametrize(
        "resolution", [math.nan, math.inf, 0.0, -0.01], ids=["nan", "inf", "zero", "negative"]
    )
    def test_rejects_a_resolution_that_is_not_positive_and_finite(self, doa45, resolution):
        with pytest.raises(ValueError, match="grid resolution must be positive and finite"):
            AngularGrid.build(resolution, doa45)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        elevations = np.radians([0.0, 45.0, 90.0])
        azimuths = np.radians([0.0, 180.0])
        grid_db = pattern_db(np.array([[1.0, 0.5], [0.25, 1.0], [1.0, 0.1]]))
        path = tmp_path / "pattern.csv"
        export_beampattern_csv(path, elevations, azimuths, grid_db)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4  # header + one per elevation
        assert rows[0][1:] == ["0.000", "180.000"]
        assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-6)
        assert float(rows[2][1]) == pytest.approx(20.0 * math.log10(0.25), abs=1e-5)

    @pytest.mark.parametrize("value", [0.5, np.complex128(0.3 - 0.4j), np.array(-0.5j)])
    def test_pattern_db_of_a_scalar(self, value):
        assert float(pattern_db(value)) == pytest.approx(20.0 * math.log10(0.5), abs=1e-12)
        assert np.ndim(pattern_db(value)) == 0

    @pytest.mark.parametrize(
        "grid_db,needle",
        [
            (np.array([[0.0, -0.0, -1e-9], [-4e-7, 4e-7, 0.0]]), b",-0.000000,-0.000000\r\n"),
            (pattern_db(np.array([[1.0, 0.0, 1e-3], [0.5, -1e-16, 2.0]])), b",-300.000000,"),
            (np.array([[-0.0]]), b"\r\n0.000,-0.000000\r\n"),
        ],
        ids=["signed-zeros", "floor", "1x1"],
    )
    def test_bytes_match_csv_writer(self, tmp_path, grid_db, needle):
        elevations = np.radians(np.arange(grid_db.shape[0]) * 45.3)
        azimuths = np.radians(np.arange(grid_db.shape[1]) * 120.0 + 0.25)
        export_beampattern_csv(tmp_path / "new.csv", elevations, azimuths, grid_db)
        csv_reference(tmp_path / "old.csv", elevations, azimuths, grid_db)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert data.count(b"\r\n") == grid_db.shape[0] + 1
        assert needle in data

    @given(
        data=st.data(),
        pool=st.lists(
            st.one_of(
                st.floats(),  # any float64: NaN, infinities, signed zeros, subnormals
                st.floats(-1e12, 1e12),
                st.sampled_from([-300.0, -0.0, 999.9999995, -999.9999994, 1e9, -5e-7]),
                # ties of the 6th decimal and their neighbours one ulp away
                st.builds(
                    lambda k, ulps: np.nextafter((k + 0.5) / 1e6, math.copysign(math.inf, ulps))
                    if ulps else (k + 0.5) / 1e6,
                    st.integers(-10**9, 10**9),
                    st.sampled_from([-1, 0, 1]),
                ),
                st.integers(-128_000, 128_000).map(lambda j: j / 128),  # exact dyadic ties
            ),
            min_size=1,
            max_size=40,
        ),
        rows=st.integers(1, 12),
        cols=st.integers(1, 9),
        block_cells=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_csv_writer_on_any_cells(
        self, tmp_path_factory, data, pool, rows, cols, block_cells
    ):
        grid_db = np.resize(np.array(pool, dtype=float), (rows, cols))
        elevations = np.radians(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows)))
        azimuths = np.radians(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=cols, max_size=cols)))
        # small blocks, so the row counts straddle block ends
        out = tmp_path_factory.mktemp("export")
        self.assert_bytes_match(out, elevations, azimuths, grid_db, block_cells)

    def test_bytes_match_csv_writer_on_fallback_cells_at_row_ends(self, tmp_path):
        """The explicit case of the property above: cells the byte tables
        cannot spell (a rounding tie, NaN, infinities, 1e9) in the first and
        last columns, spliced between the commas of rows in a partial last
        block (2-row blocks of 5 rows) and of a full one."""
        grid_db = np.linspace(-40.0, 3.0, 20).reshape(5, 4)
        grid_db[4, 0], grid_db[4, 3] = 5e-7, math.nan
        grid_db[1, 0], grid_db[1, 3] = -math.inf, 1e9
        grid_db[3, 3] = -2.5e-6
        elevations = np.radians([0.0, 22.5, 45.0, 67.5, 90.0])
        azimuths = np.radians([0.0, 90.0, 180.0, 270.0])
        self.assert_bytes_match(tmp_path, elevations, azimuths, grid_db, 8)
        lines = (tmp_path / "new.csv").read_bytes().split(b"\r\n")
        assert lines[5].startswith(b"90.000,0.000000,") and lines[5].endswith(b",nan")
        assert lines[2].startswith(b"22.500,-inf,") and lines[2].endswith(b",1000000000.000000")

    @staticmethod
    def assert_bytes_match(out, elevations, azimuths, grid_db, block_cells):
        with mock.patch.object(wavefield, "_CSV_BLOCK_CELLS", block_cells):
            export_beampattern_csv(out / "new.csv", elevations, azimuths, grid_db)
        csv_reference(out / "old.csv", elevations, azimuths, grid_db)
        assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_beampattern_csv(
                tmp_path / "x.csv", np.zeros(2), np.zeros(2), np.zeros((3, 2))
            )
