"""Shared fixtures: the bundled urine-screening columns and CLI helpers."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest

from lpstats import fixture_path
from lpstats.cli import ingest_csv, main
from lpstats.empirical import Sample


@pytest.fixture(scope="session")
def gag_data():
    """Both fixture columns as float arrays, loaded once per session."""
    values, _ = ingest_csv(fixture_path(), ["Age", "GAG"])
    return tuple(values)


@pytest.fixture(scope="session")
def age(gag_data):
    return gag_data[0]


@pytest.fixture(scope="session")
def gag(gag_data):
    return gag_data[1]


def run_cli(argv):
    """Run the CLI in process, returning (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def cli():
    return run_cli


def random_sample_values(rng, n, tied=True):
    """Draw test data, tie-heavy (small integer support) or continuous."""
    if tied:
        support = rng.integers(2, 12)
        return rng.integers(0, support, size=n).astype(float)
    return rng.standard_normal(n)


def search_only():
    """Patch `Sample.atom_at` to search even a sample's own observations."""
    return mock.patch.object(
        Sample, "atom_at", lambda self, x: np.clip(
            np.searchsorted(self.values, x, side="right") - 1, 0, None))
