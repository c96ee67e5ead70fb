"""Seeded input tables and command mixes of the benchmark workloads.

A workload is one generated CSV table plus the subcommands run on it, each
with default flags, once per pass. The same (workload, seed) pair always
gives the same file, byte for byte. In every table x and y are dependent
and `group` depends on y, so that AIC keeps comoment cells, the MaxEnt
solve iterates and the conditional slices are not flat.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Arguments of each subcommand, without --data; every flag not named here
# keeps the CLI default.
COMMAND_ARGS = {
    "describe": ["describe", "--col", "y"],
    "depend": ["depend", "--x", "x", "--y", "y"],
    "regress": ["regress", "--x", "x", "--y", "y"],
    "fit": ["fit", "--col", "y", "--g", "normal"],
    "twosample": ["twosample", "--y", "y", "--group", "group"],
    "cquantile": ["cquantile", "--x", "x", "--y", "y"],
}

_BULK = ("describe", "depend", "regress", "fit", "twosample")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    shape: str  # how x and y are drawn: "continuous", "tied" or "rounded"
    commands: tuple
    pass_s: float  # nominal seconds of one pass at reference speed
    why: str


# cquantile is left out of bulk-continuous: with r = n its slice inversion
# grows as r_x * r_y and would not finish. bayes-update reads no data.
WORKLOADS = {w.name: w for w in (
    Workload("bulk-continuous", 100_000, "continuous", _BULK, 3.0,
             "n=1e5 untied: CSV ingest and JSON rendering of MB outputs "
             "dominate; the score and estimator layers see their largest "
             "tables"),
    Workload("bulk-tied", 100_000, "tied", _BULK + ("cquantile",), 1.7,
             "n=1e5 on 31 x 33 integer values: same ingest, KB outputs that "
             "bypass the serializer, heavy ties in make_sample and a cheap "
             "copula"),
    Workload("conditional-curves", 314, "rounded", ("cquantile",), 0.27,
             "n=314 rounded like the bundled table: slice inversion in "
             "copula.quantile_curves dominates; ingest and rendering are "
             "bypassed"),
)}


def _on_cent_grid(values, r: int, rng) -> np.ndarray:
    """Put `values` on the 0.01 grid with exactly r distinct values.

    Ranks are kept, so the dependence between columns survives; the n - r
    repeats go to randomly chosen values. A fixed r keeps the work of every
    seed the same: cquantile's cost grows as r_x * r_y.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    picks = values[order][np.rint(np.linspace(0, n - 1, r)).astype(int)]
    steps = np.arange(r)
    cents = np.maximum.accumulate(np.rint(picks * 100) - steps) + steps
    counts = 1 + np.bincount(rng.integers(0, r, n - r), minlength=r)
    out = np.empty(n)
    out[order] = np.repeat(cents, counts) / 100
    return out


def draw(shape: str, n: int, seed: int) -> dict:
    """Columns of one table, keyed by name, as (values, field format).

    Each value is exactly the float the CLI parses back from its field.
    """
    rng = np.random.default_rng([seed, zlib.crc32(shape.encode())])
    if shape == "rounded":
        # Shaped like the bundled Age/GAG table: a decreasing, skewed,
        # heteroscedastic response, r_x = 285 and r_y = 296 at its n = 314.
        x = rng.uniform(0.0, 17.0, n)
        y = 2.0 + 25.0 * np.exp(-0.15 * x + 0.35 * rng.standard_normal(n))
        return {"x": (_on_cent_grid(x, round(n * 285 / 314), rng), "%.2f"),
                "y": (_on_cent_grid(y, round(n * 296 / 314), rng), "%.2f")}
    z1 = rng.standard_normal(n)
    z2 = 0.6 * z1 + 0.8 * rng.standard_normal(n)
    group = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.2 * z2))).astype(float)
    if shape == "continuous":
        cols = {"x": (np.exp(0.75 * z1), "%r"),
                "y": (np.exp(0.6 * z2) + 0.2 * z2 ** 2, "%r")}
    elif shape == "tied":
        # x takes 31 values, each with at least ~0.1% of the rows, so at
        # n = 1e5 every value occurs whatever the seed. y takes 33 values in
        # fixed, skewed shares: it is a step function of z2's ranks.
        u2 = (np.argsort(np.argsort(z2)) + 0.5) / n
        cols = {"x": (np.clip(np.rint(18.0 + 5.0 * z1), 3, 33), "%d"),
                "y": (np.rint(4.0 + 32.0 * u2 ** 1.6), "%d")}
    else:
        raise ValueError(f"unknown shape {shape!r}")
    cols["group"] = (group, "%d")
    return cols


def write_csv(path: Path, cols: dict, chunk: int = 10_000) -> int:
    """Write the columns with a header row; returns the file size in bytes.

    Rows are formatted a chunk at a time, so the text of the whole table is
    never held in memory and does not count in the process's peak RSS.
    """
    names = list(cols)
    line = ",".join(cols[k][1] for k in names) + "\n"
    values = [cols[k][0].tolist() for k in names]
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(values[0]), chunk):
            fh.writelines(line % row for row in
                          zip(*(v[lo:lo + chunk] for v in values)))
    return path.stat().st_size


def properties(cols: dict, file_bytes: int) -> dict:
    """What a reader needs to see that no layer was bypassed by accident.

    Selected comoment cells and MaxEnt iterations use the CLI defaults
    (order 4, AIC) of `depend` and `fit`.
    """
    from lpstats import compdensity, copula, empirical

    x, y = cols["x"][0], cols["y"][0]
    sy = empirical.make_sample(y)
    fit = compdensity.maxent_fit(compdensity.l2_fit(
        sy, compdensity.fit_reference("normal", sy), 4, rule="aic"))
    props = {
        "n": int(x.size),
        "r_x": int(np.unique(x).size),
        "r_y": int(sy.r),
        "file_bytes": int(file_bytes),
        "comoment_cells_selected": int(
            copula.fit_copula(x, y, order=4, rule="aic").lpm.selected.sum()),
        "maxent_iterations": int(fit.maxent_iterations),
    }
    if "group" in cols:
        props["group_1_share"] = float(np.mean(cols["group"][0]))
    return props
