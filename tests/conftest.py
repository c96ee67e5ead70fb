"""Shared fixtures: the bundled urine-screening columns and CLI helpers."""

import contextlib
import io
from decimal import Decimal
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


def decimal_scores(p, x, max_order):
    """The recurrence of `build_score_basis` in the current decimal context.

    Orthonormal polynomials of degree 1..max_order in x under the masses p,
    both lists of Decimals: x T_{k-1} less its three-term projections, then
    one pass against every earlier row. Without that pass a 60-digit build
    lost every digit on samples with two heavy ends. Returns the rows as
    lists of Decimals.
    """
    rows = [[1 / sum(p).sqrt()] * len(p)]
    beta = Decimal(0)
    for k in range(max_order):
        cur, prev = rows[-1], rows[-2] if k else [Decimal(0)] * len(p)
        alpha = sum(pi * xi * ci * ci for pi, xi, ci in zip(p, x, cur))
        v = [(xi - alpha) * ci - beta * qi for xi, ci, qi in zip(x, cur, prev)]
        for row in rows:
            d = sum(pi * vi * wi for pi, vi, wi in zip(p, v, row))
            v = [vi - d * wi for vi, wi in zip(v, row)]
        beta = sum(pi * vi * vi for pi, vi in zip(p, v)).sqrt()
        rows.append([vi / beta for vi in v])
    return rows[1:]


def search_only():
    """Patch `Sample.atom_at` to search even a sample's own atoms.

    Indices found so are the reference for a stored `atom_index`: the
    paired estimators, which read it, give the sums over them, bit for bit.
    """
    return mock.patch.object(
        Sample, "atom_at", lambda self, x: np.clip(
            np.searchsorted(self.values, x, side="right") - 1, 0, None))
