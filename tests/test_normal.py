"""The numpy normal CDF and quantile against scipy, and a runtime without scipy.

scipy stays the reference here: `lpstats._normal` ports the Cephes
routines that `scipy.special.ndtr` and `ndtri` wrap, and differs from them
only where numpy's exp and log round differently from the C library's.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_array_equal
from scipy import special

import lpstats
from lpstats._normal import ndtr, ndtri

HERE = Path(__file__).parent

# The largest gap seen, in units in the last place of scipy's value, over
# about 3.4 million points and as many levels, sweeping five seeds was 4
# for both functions.
ULPS = 4

# Each branch and its neighbours: |x| / sqrt(2) at 1 (erf to erfc), at 8
# (P/Q to R/S) and at the least double whose square exceeds Cephes' MAXLOG
# (where erfc is taken as 0), and the levels exp(-2) and 1 - exp(-2) of ndtri.
X_EDGES = np.array([1.0, 8.0, 26.64174755704633]) * np.sqrt(2.0)
Y_EDGES = np.array([0.13533528323661269189, 1.0 - 0.13533528323661269189,
                    np.exp(-32.0), 1.0 - np.exp(-32.0)])


def neighbours(edges):
    """Each edge, the two doubles either side of it, and their negatives."""
    near = np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, np.inf)])
    return np.concatenate([near, -near])


def ulp_gap(got, want):
    """|got - want| in ulps of want; 0 where both are equal or both NaN."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    gap = np.zeros_like(want)
    gap[~same] = (np.abs(got[~same] - want[~same])
                  / np.spacing(np.abs(want[~same])))
    return gap


def assert_near_scipy(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    gap = ulp_gap(got, want)
    assert gap.max() <= ULPS, (gap.max(), np.argmax(gap))


class TestNdtr:
    def test_grid_within_the_bound_of_scipy(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 400001),
                            neighbours(X_EDGES), [0.0, -0.0, 5e-324]])
        got = ndtr(x)
        assert_near_scipy(got, special.ndtr(x))
        # most points agree bit for bit; a failed exp or erf port would not
        assert np.mean(got == special.ndtr(x)) > 0.95

    @settings(deadline=None, max_examples=200)
    @given(arrays(np.float64, st.integers(1, 300),
                  elements=st.floats(-40.0, 40.0)))
    def test_any_points_within_the_bound_of_scipy(self, x):
        assert_near_scipy(ndtr(x), special.ndtr(x))

    def test_infinities_and_nan(self):
        x = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308, 1e155])
        assert_array_equal(ndtr(x), special.ndtr(x))

    def test_no_floating_point_error_under_the_cli_error_state(self):
        # the CLI raises on overflow, division by zero and invalid values
        x = np.array([1e308, -1e308, 1e200, -1e155, np.inf, -np.inf, np.nan])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = ndtr(x)
        assert_array_equal(got, special.ndtr(x))

    def test_empty_input(self):
        assert ndtr(np.array([])).shape == (0,)


class TestNdtri:
    def test_levels_within_the_bound_of_scipy(self):
        rng = np.random.default_rng(44)
        y = np.concatenate([
            10.0 ** rng.uniform(-300.0, 0.0, 100000),
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100000),
            np.linspace(1e-300, 1.0 - 1e-16, 100001),
            neighbours(Y_EDGES)[:12], [5e-324, 1e-310, 0.5]])
        got = ndtri(y)
        assert_near_scipy(got, special.ndtri(y))
        assert np.mean(got == special.ndtri(y)) > 0.99

    @settings(deadline=None, max_examples=200)
    @given(arrays(np.float64, st.integers(1, 300),
                  elements=st.floats(1e-300, 1.0 - 1e-16)))
    def test_any_levels_within_the_bound_of_scipy(self, y):
        assert_near_scipy(ndtri(y), special.ndtri(y))

    def test_zero_and_one_give_infinities(self):
        y = np.array([0.0, -0.0, 1.0])
        assert_array_equal(ndtri(y), [-np.inf, -np.inf, np.inf])
        assert_array_equal(ndtri(y), special.ndtri(y))

    def test_levels_outside_the_unit_interval_give_nan(self):
        y = np.array([-1.0, -5e-324, 1.0 + 2.0 ** -52, 2.0, np.inf, np.nan])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = ndtri(y)
        assert np.isnan(got).all()
        assert np.isnan(special.ndtri(y)).all()

    def test_empty_input(self):
        assert ndtri(np.array([])).shape == (0,)


# Runs describe and fit on the bundled table in a fresh interpreter and
# prints one JSON object: each command's exit code and stdout, and whether
# scipy was imported. The blocked run first makes `import scipy` fail.
FRESH = """
import sys
if {block}:
    sys.modules["scipy"] = None
import contextlib, io, json
from lpstats.cli import main
runs = {{}}
for name, argv in (("describe.json", ["describe", "--col", "GAG"]),
                   ("fit.json", ["fit", "--col", "GAG", "--g", "normal"])):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    runs[name] = [code, buf.getvalue()]
print(json.dumps({{"runs": runs, "scipy": "scipy" in sys.modules}}))
"""


def run_fresh(block):
    src = str(Path(lpstats.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", FRESH.format(block=block)],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": src})
    return json.loads(done.stdout)


class TestRuntimeWithoutScipy:
    @pytest.mark.parametrize("block", [True, False])
    def test_describe_and_fit_print_their_goldens(self, block):
        out = run_fresh(block)
        for name, (code, text) in out["runs"].items():
            assert code == 0
            assert text == (HERE / "golden" / name).read_text(
                encoding="utf-8")
        # blocked, "scipy" stays mapped to None; otherwise nothing imports it
        assert out["scipy"] is block
