import json
import math

import pytest

import ccmabeam as cb


@pytest.fixture(scope="session")
def array_16k():
    """Five-ring layout, 16 kHz sampling: ring counts [1, 14, 29, 43, 58]."""
    return cb.build_geometry(
        cb.ArrayConfig(ring_radii=(0.0, 0.05, 0.10, 0.15, 0.20), sample_rate=16000.0)
    )


@pytest.fixture(scope="session")
def toy_array():
    """Small two-ring layout used by gradient and CLI tests."""
    return cb.build_geometry(cb.ArrayConfig(ring_radii=(0.0, 0.05), sample_rate=16000.0))


@pytest.fixture(scope="session")
def doa45():
    return cb.Direction.from_degrees(45.0, 45.0)


def _set(*bands, **fields):
    """A mutation that sets ``fields`` in each of ``bands``."""
    def mutate(payload):
        for b in bands:
            payload["bands"][b].update(fields)
    return mutate


# params.json files the toy two-ring, two-band (2 and 3 kHz) design cannot
# hold: a mutation of a valid payload, and the field its error must name
MALFORMED_PARAMS = {
    "nested-weights": (_set(1, ring_weights=[[0.5], [0.5]]), "band 1: ring_weights"),
    "scalar-weights": (_set(0, ring_weights=1.0), "band 0: ring_weights"),
    "nested-widths": (_set(0, window_widths=[[0.5, 0.5]]), "band 0: window_widths"),
    "scalar-widths": (_set(1, window_widths=0.5), "band 1: window_widths"),
    "ring-counts-differ": (
        _set(1, ring_weights=[0.4, 0.3, 0.3], window_widths=[0.5] * 3), "band 1: ring_weights"
    ),
    "widths-per-ring-differ": (_set(0, 1, window_widths=[0.5] * 3), "band 0: window_widths"),
    "no-bands": (lambda p: p.update(bands=[]), "bands:"),
    "non-numeric-weight": (_set(0, ring_weights=["a", 0.5]), "band 0: ring_weights"),
    # numpy reads a bool beside numbers as 0 or 1
    "bool-in-weights": (
        _set(0, ring_weights=[True, 0.0]), "band 0: ring_weights must hold numbers, got [True, 0.0]"
    ),
    "bool-in-widths": (
        _set(1, window_widths=[0.5, False]),
        "band 1: window_widths must hold numbers, got [0.5, False]",
    ),
    "bool-in-v": (
        lambda p: (_set(0, 1, u=[0.0, 0.0], v=[0.0, 0.0])(p), _set(1, v=[0.0, True])(p)),
        "band 1: unconstrained_widths must hold numbers, got [0.0, True]",
    ),
    "bool-frequency": (_set(0, frequency_hz=True), "band 0: frequency_hz"),
    "string-frequency": (_set(0, frequency_hz="2000"), "band 0: frequency_hz"),
    "nan-frequency": (_set(1, frequency_hz=math.nan), "band 1: frequency_hz"),
    "huge-frequency": (_set(1, frequency_hz=10**400), "band 1: frequency_hz"),
    "weights-sum-above-one": (
        _set(1, ring_weights=[0.6, 0.5]), "band 1: ring_weights must sum to 1, got 1.1"
    ),
    "all-zero-weights": (
        _set(1, ring_weights=[0.0, 0.0]), "band 1: ring_weights must sum to 1, got 0.0"
    ),
    "weight-outside-unit-interval": (
        _set(0, ring_weights=[1.5, -0.5]), "band 0: ring_weights must lie in [0, 1], got [1.5, -0.5]"
    ),
    "zero-width": (
        _set(1, window_widths=[0.5, 0.0]), "band 1: window_widths must be positive, got [0.5, 0.0]"
    ),
    "ragged-weights": (_set(0, ring_weights=[0.5, [0.5]]), "band 0: ring_weights must be a flat list"),
}


@pytest.fixture(params=list(MALFORMED_PARAMS))
def malformed_params(request, tmp_path):
    """(path, needle): a malformed params.json, and the field its error names."""
    mutate, needle = MALFORMED_PARAMS[request.param]
    band = {"ring_weights": [0.5, 0.5], "window_widths": [0.5, 0.5]}
    payload = {"bands": [{"frequency_hz": f, **band} for f in (2000.0, 3000.0)]}
    mutate(payload)
    path = tmp_path / "malformed_params.json"
    path.write_text(json.dumps(payload))
    return path, needle
