"""Command-line interface: CSV in, deterministic JSON (or tidy CSV) out.

Seven subcommands cover the pipeline: `describe` (one variable:
quartiles, LP moments, tail index, normality flag, QIQ grid), `depend`
(comoment matrix, correlations, LPINFOR, copula grid), `regress` (series
regression curve), `cquantile` (conditional mean and quantile curves plus
extreme-slice modality flags), `fit` (comparison density against a
reference family, MaxEnt parameters, skew-G density grid), `twosample`
(the full two-sample report with classification curve), and
`bayes-update` (conjugate-normal posterior from summary flags).

Output is reproducible byte for byte: floats are rendered with %.10g,
key order is fixed, and no subcommand draws random numbers. Exit codes:
0 success, 2 input problems (files, columns, flag values), 3 computation
failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import compdensity as cdmod
from . import copula as cpmod
from . import twosample as tsmod
from .datasets import fixture_path
from .empirical import (informative_quantile, make_sample, mid_quantile,
                        quartile_summary)
from .errors import (EmptyAfterFilter, FileNotFound, InputError,
                     LPStatsError, MissingColumn)
from .lp import correlations, lhermite_normality, lp_moments
from .scores import build_score_basis

__all__ = ["Dataset", "ingest_csv", "main"]

SCHEMA_VERSION = "2"
MAX_GRID = 1000  # bound on --grid (depend: grid**2 cells) and on --p's count
MAX_ORDER = 50  # bound on --order: a basis of order m holds m x r scores
INGEST_CHUNK_ROWS = 8192  # CSV rows held and parsed at once by ingest_csv

# Default --data: names the bundled table without its install path, so the
# echoed arguments are the same on every machine.
BUNDLED_DATA = "bundled:gagurine.csv"


class Dataset:
    """Named numeric columns of equal length plus a parse report."""

    __slots__ = ("columns", "source", "kept", "dropped", "reasons")

    def __init__(self, columns, source, kept, dropped, reasons):
        self.columns = columns
        self.source = source
        self.kept = kept
        self.dropped = dropped
        self.reasons = reasons


def _row_problem(row, idx):
    """The requested fields of a nonblank row as floats, or why it is dropped.

    The checks run in a fixed order: a requested column missing from the
    row (short_row), then an empty field (empty_field), then a field that
    does not parse as a finite float (non_numeric).
    """
    if any(i >= len(row) for i in idx):
        return "short_row"
    fields = [row[i].strip() for i in idx]
    if any(not f for f in fields):
        return "empty_field"
    try:
        values = [float(f) for f in fields]
    except ValueError:
        return "non_numeric"
    if not all(math.isfinite(v) for v in values):
        return "non_numeric"
    return values


def _walk(rows, idx, reasons) -> np.ndarray:
    """The exact path: the nonblank rows that `_row_problem` passes.

    Returns their requested fields as a (len(idx), kept) float table;
    dropped rows are counted by reason into `reasons`.
    """
    kept = []
    for row in filter(None, rows):
        got = _row_problem(row, idx)
        if isinstance(got, str):
            reasons[got] = reasons.get(got, 0) + 1
        else:
            kept.append(got)
    return np.array(kept, dtype=float).reshape(len(kept), len(idx)).T


def _loadtxt_chunk(lines, idx):
    """Requested fields of unquoted `lines` by np.loadtxt, or None.

    None wherever csv.reader and float() could read the lines otherwise:
    loadtxt rejects a field, returns a non-finite value, or returns fewer
    rows than lines (it skips blank lines). A chunk of blank lines never
    reaches loadtxt, which would warn that it holds no data.
    """
    if not any(map(str.strip, lines)):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", usecols=idx, comments=None,
                           ndmin=2)
    except ValueError:
        return None
    if len(table) != len(lines) or not np.isfinite(table).all():
        return None
    return table.T


def ingest_csv(path, columns) -> Dataset:
    """Parse the requested columns, dropping rows that fail to be numeric.

    The file needs a header row; unknown column names report the
    available ones. Rows with short length, empty fields, or non-numeric
    entries (NaN and infinities included) in the requested columns are
    dropped and counted by reason; blank lines are skipped uncounted.

    The header goes through csv.reader. The rows after it are read in
    chunks of INGEST_CHUNK_ROWS raw lines, and each chunk is parsed in C by
    np.loadtxt. A chunk loadtxt cannot vouch for (see `_loadtxt_chunk`) is
    walked on its own by csv.reader, `_row_problem` and float(). Once a
    chunk holds a `"`, the rest of the file is walked that way, since a
    quoted field may span lines. Both paths give the same columns, bit for
    bit, and the same drop counts; only the csv module refuses a field
    longer than `csv.field_size_limit()`.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFound(f"no such file: {path}")
    with p.open(newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise EmptyAfterFilter(f"{path} is empty")
        header = [h.strip() for h in header]
        for name in columns:
            if name not in header:
                raise MissingColumn(name, header)
        idx = [header.index(name) for name in columns]
        chunks = []
        reasons = {}
        while lines := list(islice(fh, INGEST_CHUNK_ROWS)):
            if '"' in "".join(lines):
                rows = csv.reader(chain(lines, fh))
                while batch := list(islice(rows, INGEST_CHUNK_ROWS)):
                    chunks.append(_walk(batch, idx, reasons))
                break
            table = _loadtxt_chunk(lines, idx)
            if table is None:
                table = _walk(csv.reader(lines), idx, reasons)
            chunks.append(table)
    # with no requested columns there is nothing to keep
    kept = sum(t.shape[1] for t in chunks) if columns else 0
    if kept == 0:
        raise EmptyAfterFilter(f"no usable rows in {path} for {columns}")
    return Dataset(
        columns={name: np.concatenate([t[j] for t in chunks])
                 for j, name in enumerate(columns)},
        source=str(path), kept=kept, dropped=sum(reasons.values()),
        reasons=reasons,
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _num(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isnan(v) or math.isinf(v):
        raise LPStatsError("non-finite value reached the serializer")
    return f"{v:.10g}"


def _float_text(a, sep) -> str:
    """`_num`'s text of every value of a float array, joined by `sep`.

    One %-format over the whole array; a non-finite value raises as it
    does in `_num`.
    """
    a = np.asarray(a, dtype=float).ravel()
    if not np.isfinite(a).all():
        raise LPStatsError("non-finite value reached the serializer")
    return (f"%.10g{sep}" * a.size % tuple(a.tolist()))[:-len(sep)]


def _jsonify(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        parts.append(_num(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _jsonify(val, parts)
        parts.append("}")
    elif (isinstance(obj, np.ndarray) and obj.ndim == 1
          and obj.dtype.kind == "f"):
        parts.append("[" + _float_text(obj, ",") + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(",")
            _jsonify(val, parts)
        parts.append("]")
    else:
        raise LPStatsError(f"cannot serialize {type(obj).__name__}")


def render_json(envelope) -> str:
    parts = []
    _jsonify(envelope, parts)
    parts.append("\n")
    return "".join(parts)


def render_csv(header, columns) -> str:
    """A header line, then one line per row of equal-length columns.

    Float columns are formatted whole by `_float_text`; int and bool
    columns go through `_num` value by value.
    """
    text = [_float_text(c, "\n").splitlines()
            if np.asarray(c).dtype.kind == "f" else list(map(_num, c))
            for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*text))]) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, warnings, csv_view), where csv_view is
# the (header, columns) of its tidy CSV, taken from arrays in the payload

def _grid_u(n: int) -> np.ndarray:
    return (np.arange(int(n)) + 0.5) / int(n)


def _load(args, names):
    path = fixture_path() if args.data == BUNDLED_DATA else args.data
    ds = ingest_csv(path, names)
    warnings = []
    if ds.dropped:
        detail = ", ".join(f"{k}: {v}" for k, v in sorted(ds.reasons.items()))
        warnings.append(f"dropped {ds.dropped} rows ({detail})")
    return ds, warnings


def cmd_describe(args):
    ds, warnings = _load(args, [args.col])
    s = make_sample(ds.columns[args.col])
    b = build_score_basis(s, args.order)
    mom = lp_moments(s, b)
    q = quartile_summary(s)
    grid = _grid_u(args.grid)
    lh = lhermite_normality(s)
    qiq = {"u": grid, "qmid": mid_quantile(s, grid),
           "qiq": informative_quantile(s, grid)}
    payload = {
        "column": args.col,
        "n": s.n,
        "distinct": s.r,
        "mean": s.mean,
        "sd": s.sd,
        "quartiles": {"q1": q.q1, "q2": q.q2, "q3": q.q3,
                      "mq": q.mq, "dq": q.dq},
        "lp_moments": mom.moments,
        "tail_index": mom.tail_index,
        "lp_square_sum": float(np.sum(mom.moments ** 2)),
        "lhermite": {"statistic": lh.statistic,
                     "significant": lh.significant},
        "qiq_grid": qiq,
    }
    if b.max_order < args.order:
        warnings.append(f"score basis truncated at order {b.max_order}")
    return payload, warnings, (list(qiq), list(qiq.values()))


def cmd_depend(args):
    ds, warnings = _load(args, [args.x, args.y])
    x, y = ds.columns[args.x], ds.columns[args.y]
    mod = cpmod.fit_copula(x, y, order=args.order, rule=args.select)
    cor = correlations(mod.sx, mod.sy)
    grid = _grid_u(args.grid)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    cop = cpmod.eval_copula(mod, uu.ravel(), vv.ravel()).reshape(uu.shape)
    j, k = np.indices(mod.lpm.entries.shape) + 1
    payload = {
        "n": x.size,
        "correlations": {
            "pearson": cor.pearson,
            "spearman_mid": cor.spearman_mid,
            "gini_xy": cor.gini_xy,
            "gini_yx": cor.gini_yx,
        },
        "comoments": {
            "order_x": mod.lpm.entries.shape[0],
            "order_y": mod.lpm.entries.shape[1],
            "rule": mod.lpm.rule,
            "entries": mod.lpm.entries,
            "selected": mod.lpm.selected,
            "lpinfor": mod.lpm.lpinfor,
        },
        "copula_grid": {"u": grid, "v": grid, "density": cop},
    }
    return payload, warnings, (["j", "k", "lp", "selected"], [
        j.ravel(), k.ravel(), mod.lpm.entries.ravel(),
        np.ravel(mod.lpm.selected)])


def cmd_regress(args):
    ds, warnings = _load(args, [args.x, args.y])
    x, y = ds.columns[args.x], ds.columns[args.y]
    sx = make_sample(x)
    bx = build_score_basis(sx, args.order)
    fit = cpmod.series_regression(x, y, bx, rule=args.select)
    curve = {"x": sx.values, "fitted": fit.predict(sx.values)}
    payload = {
        "n": x.size,
        "ybar": fit.ybar,
        "y_sd": fit.y_sd,
        "coefficients": fit.coefficients,
        "selected": fit.selected,
        "curve": curve,
    }
    return payload, warnings, (list(curve), list(curve.values()))


def cmd_cquantile(args):
    ds, warnings = _load(args, [args.x, args.y])
    x, y = ds.columns[args.x], ds.columns[args.y]
    mod = cpmod.fit_copula(x, y, order=args.order, rule=args.select)
    us = mod.sx.fmid
    means, table = cpmod.quantile_curves(mod, us, args.p)
    quantiles = {_num(p): table[:, j] for j, p in enumerate(args.p)}
    extreme = []
    for u in (0.05, 0.95):
        count, where = cpmod.slice_modes(mod, u)
        extreme.append({"u": u, "modes": count, "bimodal": count >= 2,
                        "mode_values": where})
    payload = {
        "n": x.size,
        "curve": {"x": mod.sx.values, "u": us, "mean": means,
                  "quantiles": quantiles},
        "extreme_slices": extreme,
    }
    header = ["x", "u", "mean"] + [f"p{k}" for k in quantiles]
    return payload, warnings, (header, [mod.sx.values, us, means,
                                        *quantiles.values()])


def cmd_fit(args):
    ds, warnings = _load(args, [args.col])
    s = make_sample(ds.columns[args.col])
    g = cdmod.fit_reference(args.g, s)
    mod = cdmod.maxent_fit(cdmod.l2_fit(s, g, args.order, rule=args.select))
    grid = _grid_u(args.grid)
    xs = np.linspace(float(s.values[0]), float(s.values[-1]), int(args.grid))
    gu, fu = cdmod.pp_grid(s, g)
    dens = {"x": xs, "g_pdf": g.pdf(xs),
            "skew_g": cdmod.skew_g_density(mod, xs)}
    payload = {
        "column": args.col,
        "n": s.n,
        "g": {"kind": g.kind, "params": dict(sorted(g.params.items()))},
        "c": mod.c,
        "selected": mod.selected,
        "gof": cdmod.gof_distance(mod),
        "maxent": {
            "theta0": mod.theta0,
            "theta": mod.theta,
            "iterations": mod.maxent_iterations,
            # round-off below tol: its later digits depend on BLAS
            # summation order, so only two significant digits are emitted
            "residual": float(f"{mod.maxent_residual:.2g}"),
        },
        "pp_grid": {"g": gu, "f": fu},
        "dhat_grid": {
            "u": grid,
            "l2": cdmod.eval_density(mod, grid, "l2"),
            "clipped": cdmod.eval_density(mod, grid, "l2_clipped"),
            "maxent": cdmod.eval_density(mod, grid, "maxent"),
        },
        "density_grid": dens,
    }
    return payload, warnings, (list(dens), list(dens.values()))


def cmd_twosample(args):
    ds, warnings = _load(args, [args.y, args.group])
    y, grp = ds.columns[args.y], ds.columns[args.group]
    rep = tsmod.analyze(grp, y, m=args.order, rule=args.select,
                        small_sample=args.small_sample)
    dens = rep.density
    curve = {"y": dens.sy.values, "density": dens.atom_density,
             "posterior": tsmod.classify(dens, dens.sy.values)}
    payload = {
        "n": y.size,
        "labels": list(rep.labels),
        "groups": [
            {"label": rep.labels[0], "n": rep.g1.n, "mean": rep.g1.m,
             "var": rep.g1.v},
            {"label": rep.labels[1], "n": rep.g2.n, "mean": rep.g2.m,
             "var": rep.g2.v},
        ],
        "combined": {
            "n": rep.combined.n, "tau1": rep.combined.tau1,
            "tau2": rep.combined.tau2, "mean": rep.combined.m,
            "var": rep.combined.v, "vpool": rep.combined.vpool,
        },
        "student": {"t_core": rep.t, "t_scaled": rep.t_scaled,
                    "df": rep.combined.n - 2},
        "correlation": {"r": rep.r, "r2": rep.r2,
                        "identities_ok": rep.identities_ok},
        "wilcoxon": {"w": rep.w, "z": rep.z_stat},
        "high_order": {"c": dens.c, "lp1k": dens.lp1k,
                       "selected": dens.selected},
        "classification": {"prior": dens.tau, **curve},
    }
    return payload, warnings, (list(curve), list(curve.values()))


def cmd_bayes_update(args):
    prior = tsmod.BayesNormalState(n_eff=args.prior_n, m=args.prior_mean,
                                   v=args.prior_var)
    data = tsmod.GroupSummary(n=args.n, m=args.mean, v=args.var)
    post = tsmod.bayes_normal_update(prior, data)
    posterior = {"n_eff": post.n_eff, "mean": post.m, "var": post.v}
    payload = {
        "prior": {"n_eff": prior.n_eff, "mean": prior.m, "var": prior.v},
        "data": {"n": data.n, "mean": data.m, "var": data.v},
        "posterior": posterior,
    }
    return payload, [], (list(posterior), [[v] for v in posterior.values()])


# ---------------------------------------------------------------------------
# parser and dispatch

def _positive_int_to(limit):
    """argparse type: an integer in 1..limit."""
    def positive_int(text):
        v = int(text)
        if v < 1:
            raise argparse.ArgumentTypeError("must be a positive integer")
        if v > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        return v
    return positive_int


def _prob_list(text):
    try:
        ps = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not ps or any(not 0.0 < p < 1.0 for p in ps):
        raise argparse.ArgumentTypeError(
            "probabilities must lie strictly between 0 and 1")
    if len(ps) > MAX_GRID:
        raise argparse.ArgumentTypeError(f"at most {MAX_GRID} probabilities")
    if len(set(map(_num, ps))) < len(ps):
        raise argparse.ArgumentTypeError("probabilities share a column label")
    return ps


def _add_options(sub, *flags):
    """Add the named shared options to `sub`, each from its one definition."""
    # fit's L2 series stops at L2_ORDER_CAP: a higher order could only fail
    top = cdmod.L2_ORDER_CAP if sub.prog.endswith(" fit") else MAX_ORDER
    options = {
        "--data": dict(default=BUNDLED_DATA,
                       help=f"CSV file (default: {BUNDLED_DATA}, the bundled "
                            "example table)"),
        "--order": dict(type=_positive_int_to(top), default=4,
                        help=f"series order, 1..{top} (default %(default)s)"),
        "--grid": dict(type=_positive_int_to(MAX_GRID), default=101,
                       help=f"grid size, 1..{MAX_GRID} (default %(default)s)"),
        "--select": dict(choices=["aic", "bic", "none"], default="aic",
                         help="coefficient selection rule"),
        "--format": dict(choices=["json", "csv"], default="json"),
        "--out": dict(default=None, help="write output to a file"),
    }
    for flag in flags:
        sub.add_argument(flag, **options[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="lpstats",
        description="Rank-based nonparametric statistics on CSV columns.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("describe", help="one-variable diagnostics")
    p.add_argument("--col", required=True)
    _add_options(p, "--data", "--order", "--grid")
    p.set_defaults(handler=cmd_describe, order=5)

    p = subs.add_parser("depend", help="dependence diagnostics of a pair")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_options(p, "--data", "--order", "--grid", "--select")
    p.set_defaults(handler=cmd_depend, grid=51)

    p = subs.add_parser("regress", help="orthogonal series regression")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_options(p, "--data", "--order", "--select")
    p.set_defaults(handler=cmd_regress)

    p = subs.add_parser("cquantile", help="conditional mean/quantile curves")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--p", type=_prob_list, default=(.05, .25, .5, .75, .95),
                   help="comma-separated probabilities")
    _add_options(p, "--data", "--order", "--select")
    p.set_defaults(handler=cmd_cquantile)

    p = subs.add_parser("fit", help="comparison density against a reference")
    p.add_argument("--col", required=True)
    p.add_argument("--g", choices=["normal", "exponential", "uniform"],
                   required=True)
    _add_options(p, "--data", "--order", "--grid", "--select")
    p.set_defaults(handler=cmd_fit)

    p = subs.add_parser("twosample", help="two-group analysis of a response")
    p.add_argument("--y", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--small-sample", action="store_true",
                   help="scale the Wilcoxon z by sqrt(n-1) instead of sqrt(n)")
    _add_options(p, "--data", "--order", "--select")
    p.set_defaults(handler=cmd_twosample)

    p = subs.add_parser("bayes-update", help="conjugate-normal belief update")
    p.add_argument("--prior-n", type=float, required=True)
    p.add_argument("--prior-mean", type=float, required=True)
    p.add_argument("--prior-var", type=float, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--var", type=float, required=True)
    p.set_defaults(handler=cmd_bayes_update)

    for p in subs.choices.values():  # the envelope's options
        _add_options(p, "--format", "--out")

    return parser


_ECHO_SKIP = {"handler", "command", "format", "out"}


def _echo_args(args) -> dict:
    echo = {}
    for key in sorted(vars(args)):
        if key in _ECHO_SKIP:
            continue
        echo[key] = getattr(args, key)
    return echo


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, warnings, csv_view = args.handler(args)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": {
                "name": args.command,
                "args": _echo_args(args),
            },
            "payload": payload,
            "warnings": warnings,
        }
        if args.format == "csv":
            text = render_csv(*csv_view)
        else:
            text = render_json(envelope)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (InputError, OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LPStatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # e.g. LinAlgError: still a computation failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
