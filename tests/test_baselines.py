import math

import numpy as np
import pytest

import ccmabeam as cb
from ccmabeam.metrics import gamma_matrix
from ccmabeam.wavefield import Direction, steering_vector
from oracles import (
    beampattern,
    das_filter,
    directivity_factor,
    evaluate_baseline,
    white_noise_gain,
)


class TestDasFilter:
    def test_distortionless_at_doa(self, array_16k, doa45):
        f = 1000.0
        h = das_filter(array_16k, f, doa45)
        d = steering_vector(array_16k, f, doa45)
        assert beampattern(h, d) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_wng_equals_mic_count(self, array_16k, doa45):
        f = 2000.0
        h = das_filter(array_16k, f, doa45)
        d = steering_vector(array_16k, f, doa45)
        assert white_noise_gain(h, d) == pytest.approx(145.0, abs=1e-9)

    def test_broadside_is_uniform(self, array_16k):
        h = das_filter(array_16k, 1000.0, Direction(0.0, 0.0))
        assert np.allclose(h, 1.0 / array_16k.total_mics)

    def test_df_at_least_unity_across_band(self, array_16k, doa45):
        # never worse than a single microphone in diffuse noise
        for f in np.arange(500.0, 8000.1, 500.0):
            h = das_filter(array_16k, f, doa45)
            d = steering_vector(array_16k, f, doa45)
            df = directivity_factor(h, d, gamma_matrix(array_16k, f))
            assert df >= 1.0, f"DAS DF fell below 1 at {f} Hz: {df}"


class TestEvaluateBaseline:
    def test_evaluate_baseline_curves(self, array_16k, doa45):
        curves = evaluate_baseline(array_16k, doa45, (1000.0, 4000.0))
        assert curves.frequencies == (1000.0, 4000.0)
        assert curves.wng[0] == pytest.approx(145.0, abs=1e-9)
        assert np.all(curves.df > 0.0)
        assert np.all((curves.theta > 0.0) & (curves.theta <= math.pi))
