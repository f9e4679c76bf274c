"""Properties of ``design`` over generated configs.

Every config starts from a valid toy config (2 rings, 1-3 bands, a 2-5
degree grid, a budget of 1-3).  Left valid, ``design`` runs it to exit 0
or 2.  With exactly one field corrupted from the table of bad values
below, ``design`` exits 1, names that field on stderr and creates no
output directory.  A sweep section either fails to parse, naming
``sweep``, or gives each of its points a directory of its own.
"""

import concurrent.futures
import contextlib
import copy
import functools
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmabeam import cli
from ccmabeam.cli import main, parse_config
from pools import InProcessPool

MISSING = object()  # delete the field instead of setting it

# field path -> values that make the config invalid whatever the rest holds
BAD_VALUES = {
    ("array",): [MISSING, "ring", [0.0, 0.05]],
    ("array", "ring_radii_m"): [MISSING, [], "0.05", [0.0, "x"], [0.0, -0.05], [0.05, 0.05],
                                [0.0, math.nan], [0.0, math.inf]],
    ("array", "sample_rate_hz"): [MISSING, 0.0, -16000.0, "16k", True, math.nan, math.inf, 10**400],
    ("array", "sound_speed_mps"): [0.0, -343.0, "343", math.nan],
    ("doa_deg",): [MISSING, [45.0, 45.0], "45"],
    ("doa_deg", "elevation"): [MISSING, -1.0, 90.5, "45", None, math.nan, -math.inf],
    ("doa_deg", "azimuth"): [MISSING, "45", True, math.inf, math.nan],
    ("frequencies_hz",): [[], "2000", [0.0], [-1000.0], [9000.0], [3000.0, 2000.0],
                          [2000.0, 2000.0], [2000.0, "3000"], [math.nan]],
    ("loss",): [[], "L1"],
    ("loss", "variant"): ["L4", "l1", 1, None],
    ("loss", "target_theta_deg"): [0.0, -10.0, 180.5, "40", math.inf],
    ("loss", "target_phi_deg"): [0.0, -10.0, 180.5, "40", math.nan],
    ("loss", "alpha"): [1.5, -0.1, "0.5", math.nan],
    ("loss", "lambda1"): [-1.0, "1", math.inf],
    ("loss", "lambda2"): [-1.0, None],
    ("loss", "lambda3"): [-0.5, math.nan],
    ("grid_resolution_deg",): [0.0, -1.0, "2", None, math.nan, math.inf, 90.0],
    ("optimizer",): [[], 3],
    ("optimizer", "budget"): [0, -1, 1.5, "3", True, None],
    ("optimizer", "seed"): [-1, 1.5, "0", True, None],
    ("sweep",): [{}, [], {"gamma": [1.0]}, {"alpha": []}, {"alpha": [2.0]}, {"lambda1": [-1.0]}],
    ("output_dir",): ["", 5, None],
    # misspelled fields, none a substring of a field the config defines
    ("array", "ring_radius_m"): [[0.0, 0.05]],
    ("doa_deg", "elevaton"): [45.0],
    ("freqs_hz",): [[2000.0]],
    ("loss", "targt_phi_deg"): [40.0],
    ("optimizer", "sed"): [3],
    ("grid_deg",): [2.0],
}

CORRUPTIONS = [(field, value) for field, values in BAD_VALUES.items() for value in values]
# a ring too small for two mics, appended so that the numbered ids above keep their numbers
CORRUPTIONS.append((("array", "ring_radii_m"), [0.0, 0.001]))
# sweep values whose point directories share a name, appended likewise
CORRUPTIONS += [(("sweep",), {"alpha": [0.5, 0.5]}), (("sweep",), {"alpha": [0.1, 0.1000001]})]
# two bands whose artifacts one %g spelling names, appended likewise
CORRUPTIONS.append((("frequencies_hz",), [2000.0, 2000.0001]))
# a zero and a negative zero, which %g spells apart but which are one point, appended likewise
CORRUPTIONS.append((("sweep",), {"alpha": [0.0, -0.0]}))

BANDS = [1000.0 * k for k in range(1, 8)]  # below the 8 kHz Nyquist frequency


@st.composite
def valid_configs(draw):
    variant = draw(st.sampled_from(["L1", "L2", "L3"]))
    count = draw(st.integers(2 if variant == "L3" else 1, 3))
    loss = {"variant": variant}
    for key in ("target_theta_deg", "target_phi_deg"):
        loss[key] = draw(st.floats(5.0, 180.0))
    if variant == "L3":
        loss["alpha"] = draw(st.floats(0.0, 1.0))
        for key in ("lambda1", "lambda2", "lambda3"):
            loss[key] = draw(st.floats(0.0, 2.0))
    return {
        "array": {
            "ring_radii_m": [0.0, draw(st.floats(0.03, 0.08))],
            "sample_rate_hz": 16000.0,
            "sound_speed_mps": draw(st.floats(330.0, 350.0)),
        },
        "doa_deg": {
            "elevation": draw(st.floats(0.0, 90.0)),
            "azimuth": draw(st.floats(-720.0, 720.0)),
        },
        "frequencies_hz": sorted(draw(st.lists(st.sampled_from(BANDS), min_size=count,
                                               max_size=count, unique=True))),
        "loss": loss,
        "grid_resolution_deg": draw(st.floats(2.0, 5.0)),
        "optimizer": {"budget": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2**32))},
    }


def run_design(cfg: dict) -> tuple[int, str, bool]:
    """(exit code, stderr, whether the output directory exists) of ``design``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity as json writes them
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["design", "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), out.exists()


@given(valid_configs())
@settings(max_examples=25, deadline=None)
def test_valid_config_runs(cfg):
    code, err, made = run_design(cfg)
    assert code in (0, 2), err
    assert made or code == 2  # a failure at iteration 1 has nothing to write


@given(valid_configs())
@settings(max_examples=50, deadline=None)
def test_resolved_config_parses_to_itself(cfg):
    """The manifest echo is a fixed point of parsing, and parsing copies:
    neither the caller's dict nor the defaults table changes."""
    given_cfg, defaults = copy.deepcopy(cfg), repr(cli.DEFAULTS)
    resolved = parse_config(cfg).resolved()
    assert parse_config(resolved).resolved() == resolved
    assert cfg == given_cfg
    assert repr(cli.DEFAULTS) == defaults


@pytest.mark.parametrize(
    "field,value",
    CORRUPTIONS,
    ids=[f"{'.'.join(field)}-{i}" for i, (field, _) in enumerate(CORRUPTIONS)],
)
@given(cfg=valid_configs())
@settings(max_examples=4, deadline=None)
def test_one_bad_field_is_named(cfg, field, value):
    *parents, leaf = field
    holder = cfg
    for key in parents:
        holder = holder[key]
    if value is MISSING:
        del holder[leaf]
    else:
        holder[leaf] = value
    code, err, made = run_design(cfg)
    assert code == 1, err
    assert all(key in err for key in field), err
    assert not made


@given(
    sweep=st.dictionaries(
        st.sampled_from(cli.SWEEP_KEYS), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        min_size=1,
    )
)
@settings(max_examples=100, deadline=None)
def test_every_sweep_point_gets_its_own_directory(sweep):
    cfg = {
        "array": {"ring_radii_m": [0.0, 0.05], "sample_rate_hz": 16000.0},
        "doa_deg": {"elevation": 45.0, "azimuth": 45.0},
        "frequencies_hz": [2000.0, 3000.0],
        "loss": {"variant": "L3"},
        "sweep": sweep,
    }
    try:
        parsed = parse_config(cfg)
    except ValueError as err:
        assert str(err).startswith("sweep."), err
        return
    directories = []

    def record(job):  # the point's directory, in place of its design
        directories.append(job[1])
        return "", [["ok"]]

    pool = functools.partial(InProcessPool, [])  # the points must run the patched _sweep_point
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_sweep_point", record), \
            mock.patch.object(concurrent.futures, "ProcessPoolExecutor", pool), \
            contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_sweep(parsed, tmp)
    assert len(set(directories)) == len(directories), directories
