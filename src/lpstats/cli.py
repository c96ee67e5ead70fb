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
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import compdensity as cdmod
from . import copula as cpmod
from . import twosample as tsmod
from .datasets import fixture_path
from .empirical import (informative_quantile, make_sample, mid_quantile,
                        quartile_summary)
from .errors import (EmptyAfterFilter, FileNotFound, FloatingPointFault,
                     InputError, LPStatsError, MissingColumn)
from .lp import correlations, lhermite_normality, lp_moments
from .scores import MAX_ORDER, build_score_basis

__all__ = ["ingest_csv", "main"]

SCHEMA_VERSION = "2"
MAX_GRID = 1000  # bound on --grid (depend: grid**2 cells) and on --p's count
# Bytes read from a body at a time: each block is scanned, and parsed while
# the body is integral, as it is read, so that only a few blocks of memory
# are held at once.
_BLOCK = 1 << 16
# Bound on the header line, and on how far a body line is read past the
# block that starts it.
_LINE_CAP = 1 << 20
# Suffixes of files that np.loadtxt, given a path, decompresses.
_COMPRESSED = {".gz", ".bz2", ".xz", ".lzma"}

# glibc's mallopt parameters, and the values `main` gives them: glibc's own
# highest, those a freed 32 MiB block would set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD, _MMAP_THRESHOLD = 64 << 20, 32 << 20

# Default --data: names the bundled table without its install path, so the
# echoed arguments are the same on every machine.
BUNDLED_DATA = "bundled:gagurine.csv"


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


def _walk(rows, idx, reasons):
    """The exact path: yields the requested fields of each nonblank row
    that `_row_problem` passes, in file order; dropped rows are counted by
    reason into `reasons`.
    """
    for row in filter(None, rows):
        got = _row_problem(row, idx)
        if isinstance(got, str):
            reasons[got] = reasons.get(got, 0) + 1
        else:
            yield from got


def _line_blocks(fb, start):
    """Binary file `fb` from offset `start`, an LF, in blocks of whole lines.

    Each block starts at the LF that ends the line before it, the one at
    `start` for the first, and ends at an LF, so no line end or empty line
    is split between two blocks. A block is one `_BLOCK` read cut back to
    its last LF, and the file is rewound to that LF; the read is dropped
    before the block is yielded. A read that ends no line is finished by
    one `readline(_LINE_CAP)`. A line that this too leaves open comes in
    pieces that do not end in LF, each starting with the last byte of the
    one before. A last line with no LF is given one.
    """
    fb.seek(start)
    while block := fb.read(_BLOCK):
        cut = block.rfind(b"\n", 1) + 1
        if cut:
            fb.seek(cut - 1 - len(block), 1)
            block = block[:cut]
        else:
            more = fb.readline(_LINE_CAP)
            block += more
            if not more.endswith(b"\n") and len(more) < _LINE_CAP:
                if block != b"\n":  # the end of the file
                    yield block + b"\n"
                return
            fb.seek(-1, 1)
        yield block


def _int_rows(b, seps, rows, fields, idx):
    """The (len(idx), rows) int64 requested fields of a block, or None.

    `b` is the `uint8` view of a block of `rows` whole lines after the LF
    that ends the line before them (`_line_blocks`), in digits, ',' and
    LFs alone, and `seps` the mask of its ',' and LF bytes, both built by
    `_body_lines`. The lines are integral when each holds `fields` fields,
    split by ',' and ended by LF, and each requested field `idx` has 1 to
    18 digits. So value < 10**18 < 2**63, and int64 to float64 rounds to
    nearest even, as a correctly rounded float() of the same decimal
    integer does. Anything else, a blank line, an empty requested field or
    a piece of a line longer than `_LINE_CAP` included, gives None.
    """
    if b[-1] != 10:  # a piece of a line longer than `_LINE_CAP`
        return None
    seps = np.flatnonzero(seps)
    # an LF at every `fields`-th end, and no other: each line holds
    # `fields` - 1 commas
    if (seps.size != rows * fields + 1
            or not (b[seps[fields::fields]] == 10).all()
            or any(i >= fields for i in idx)):
        return None
    # each requested field is the bytes after `prev`, a ',' or LF, up to
    # `end`, one (rows, len(idx)) table of positions each
    prev = seps[:-1].reshape(rows, fields)[:, idx]
    end = seps[1:].reshape(rows, fields)[:, idx]
    digit = b[end - 1] - 48
    if digit.max(initial=0) > 9:  # an empty field
        return None
    top = (end - prev - 1).max(initial=1)
    if top > 18:
        return None
    if top > 1:  # a field of one digit has its `prev` there
        digit += 10 * (np.maximum(b[end - 2], 48) - 48)
    value = digit.astype(np.int64)
    for j in range(2, top):
        # past a field's first digit, `prev` is read: a digit of 0
        digit = np.maximum(b[np.maximum(end - 1 - j, prev)], 48) - 48
        value += 10 ** j * digit.astype(np.int64)
    return value.T


def _body_lines(blocks, idx):
    """The lines, empty lines and integral table of a body, or None.

    Each block of `_line_blocks` is read once, as a `uint8` view whose LF
    mask counts its lines: its LFs, less the LF the block starts with if
    it does. While the body is integral, masks of the view also check that
    it holds only digits (`b - 48 < 10`, which wraps below '0'), ',' and
    LF, and `_int_rows` parses the requested columns `idx` from the ','
    and LF mask, each line holding the first line's count of fields; such
    a block holds no empty line. From the block where the parse ends, a
    '-', '.', CR or letter included, each block's empty lines (an LF right
    after an LF) are counted from the same LF mask. The table is None for
    a body `_int_rows` refuses. The whole result is None for a body with a
    '"', since a quoted field may hide a ',' or a line end, and for one
    made only of line ends, which np.loadtxt would warn holds no data. No
    block outlives its iteration.
    """
    lines, empty, data, parts, fields = 0, 0, False, [], None
    for block in blocks:
        b = np.frombuffer(block, np.uint8)
        ends = b == 10
        rows = np.count_nonzero(ends) - (block[0] == 10)
        if parts is not None:
            seps = b == 44
            seps |= ends
            if (seps | (b - 48 < 10)).all():
                if fields is None:  # the first line's; a piece has no LF
                    fields = block.count(b",", 0, block.find(b"\n", 1)) + 1
                part = _int_rows(b, seps, rows, fields, idx)
                parts = None if part is None else parts + [part]
            else:  # a '-', '.', CR or worse
                parts = None
        if parts is None:
            if b'"' in block:  # a quoted field may hide a ',' or a line end
                return None
            empty += np.count_nonzero(ends[1:] & ends[:-1])
        lines += rows
        data = data or bool(block.strip(b"\r\n"))
        block = b = ends = seps = None  # not held while the next is read
    if not data:
        return None
    return lines, empty, np.concatenate(parts, axis=1) if parts else None


def _loadtxt_body(p, idx):
    """The body's requested fields, parsed whole, or None.

    The body is read only when `p` has no suffix np.loadtxt decompresses,
    the header line ends in LF within `_LINE_CAP` with no CR before its
    line end, and the body after it holds no '"' (`_body_lines`; so a
    quoted header spanning lines is refused). An integral body
    (`_int_rows`) is parsed as its byte masks are checked and returned as
    int64, whose rows `ingest_csv` returns as they are; it makes no
    np.loadtxt call.

    Any other body is read by one float np.loadtxt over path `p` and the
    requested columns `idx`, which reads a path in blocks in C (given lines
    or a file object it iterates in Python) and converts no other field,
    so a text column that is not requested costs no walk. np.loadtxt on a
    path and csv.reader on a `newline=""` handle both end a line at CR, LF
    and CRLF. np.loadtxt skips empty lines and raises on whitespace-only
    ones. So the result is kept when every value is finite and it has one
    row per LF that ends a nonempty line, `lines - empty` as counted in the
    scan that decided to read; a loadtxt that skipped any other line, or
    split one at a bare CR, fails that count, unless an empty line ended by
    CRLF offsets the split, where csv.reader reads the same rows. None
    wherever loadtxt rejects a requested field or the file's UTF-8.
    """
    if p.suffix in _COMPRESSED:
        return None
    with p.open("rb") as fb:
        # bounded, so a file with bare-CR line ends is not read in one piece
        head = fb.readline(_LINE_CAP)
        # a CR inside a quoted header name would make np.loadtxt, but not
        # csv.reader, read the rest of the header as a row
        if not head.endswith(b"\n") or b"\r" in head[:-2]:
            return None
        scan = _body_lines(_line_blocks(fb, len(head) - 1), idx)
        if scan is None:
            return None
        lines, empty, table = scan
        if table is not None:
            return table
        try:
            table = np.loadtxt(os.fspath(p), delimiter=",", usecols=idx,
                               comments=None, ndmin=2, skiprows=1,
                               encoding="utf-8-sig")
        except ValueError:  # UnicodeDecodeError included
            return None
        if len(table) != lines - empty:
            return None
    if not np.isfinite(table).all():
        return None
    return table.T


def ingest_csv(path, columns) -> tuple[list[np.ndarray], dict[str, int]]:
    """Parse the requested columns, dropping rows that fail to be numeric.

    Returns (values, reasons): one array per requested name, in the order
    asked, so a name asked twice gives two equal arrays, and the
    count of dropped rows by reason. The file needs a header row; unknown
    names report the available ones. Rows with short length, empty
    fields, or non-numeric entries (NaN and infinities included) in the
    requested columns are dropped; blank lines are skipped uncounted.

    The header goes through csv.reader. A body with no '"', in LF, CRLF
    or CR line ends, blank lines and text in columns not requested
    included, is read whole, with no Python string per line (see
    `_loadtxt_body`); deciding to try takes one pass over each block of
    whole lines (`_line_blocks`), whose LF mask counts its lines, and
    after the body stops being integral its empty lines (`_body_lines`).
    An integral body, unsigned digits and ',' in LF-ended lines of equal
    field counts, is parsed in numpy in that same pass (`_int_rows`); any
    other, one with a '-', a CRLF or a letter included, is read by one
    float np.loadtxt over the path and the requested columns. Where
    neither read can vouch for every row, csv.reader, `_row_problem` and
    float() walk the body, and one np.fromiter takes the kept values,
    holding no Python list of rows. All paths give the same columns, bit
    for bit, and the same drop counts; only the csv module refuses a field
    longer than `csv.field_size_limit()`. Each path gives a
    (len(columns), rows) table, and the columns are its rows, uncopied. An
    integral body's are int64, so that `make_sample` counts them with no
    float round trip; their float64 casts are the float paths' columns,
    bit for bit. Any other body's are float64, each value float() of its
    field, so a "-0" field reads as -0.0 until `make_sample` forms atoms.
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
        unusable = f"no usable rows in {path} for {columns}"
        # with no requested columns there is nothing to keep
        if not columns:
            raise EmptyAfterFilter(unusable)
        reasons = {}
        table = _loadtxt_body(p, idx)
        if table is None:
            table = np.fromiter(_walk(csv.reader(fh), idx, reasons),
                                float).reshape(-1, len(idx)).T
    if table.shape[1] == 0:
        raise EmptyAfterFilter(unusable)
    return list(table), reasons


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


def _load(args, *names):
    """The arrays of the named columns, in order, and the drop warnings."""
    path = fixture_path() if args.data == BUNDLED_DATA else args.data
    values, reasons = ingest_csv(path, list(names))
    warnings = []
    if reasons:
        detail = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        warnings.append(f"dropped {sum(reasons.values())} rows ({detail})")
    return values, warnings


def cmd_describe(args):
    (col,), warnings = _load(args, args.col)
    s = make_sample(col)
    b = build_score_basis(s, args.order)
    mom = lp_moments(b)
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
        "quartiles": asdict(q),
        "lp_moments": mom.moments,
        "tail_index": mom.tail_index,
        "lp_square_sum": float(np.sum(mom.moments ** 2)),
        "lhermite": asdict(lh),
        "qiq_grid": qiq,
    }
    if b.max_order < args.order:
        warnings.append(f"score basis truncated at order {b.max_order}")
    return payload, warnings, (list(qiq), list(qiq.values()))


def cmd_depend(args):
    (x, y), warnings = _load(args, args.x, args.y)
    mod = cpmod.fit_copula(x, y, order=args.order, rule=args.select)
    grid = _grid_u(args.grid)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    cop = cpmod.eval_copula(mod, uu.ravel(), vv.ravel()).reshape(uu.shape)
    j, k = np.indices(mod.lpm.entries.shape) + 1
    payload = {
        "n": x.size,
        "correlations": asdict(correlations(mod.lpm)),
        "comoments": {
            "order_x": mod.lpm.entries.shape[0],
            "order_y": mod.lpm.entries.shape[1],
            "rule": args.select,
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
    (x, y), warnings = _load(args, args.x, args.y)
    sx = make_sample(x)
    bx = build_score_basis(sx, args.order)
    fit = cpmod.series_regression(bx, y, rule=args.select)
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
    (x, y), warnings = _load(args, args.x, args.y)
    mod = cpmod.fit_copula(x, y, order=args.order, rule=args.select)
    us = mod.bx.source.fmid
    means, table = cpmod.quantile_curves(mod, us, args.p)
    quantiles = {_num(p): table[:, j] for j, p in enumerate(args.p)}
    extreme = []
    for u in (0.05, 0.95):
        count, where = cpmod.slice_modes(mod, u)
        extreme.append({"u": u, "modes": count, "bimodal": count >= 2,
                        "mode_values": where})
    payload = {
        "n": x.size,
        "curve": {"x": mod.bx.source.values, "u": us, "mean": means,
                  "quantiles": quantiles},
        "extreme_slices": extreme,
    }
    header = ["x", "u", "mean"] + [f"p{k}" for k in quantiles]
    return payload, warnings, (header, [mod.bx.source.values, us, means,
                                        *quantiles.values()])


def cmd_fit(args):
    (col,), warnings = _load(args, args.col)
    s = make_sample(col)
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
            # round-off below MAXENT_TOL: its later digits depend on BLAS
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
    (y, grp), warnings = _load(args, args.y, args.group)
    # float labels print by %.10g, whichever body they were read from
    rep = tsmod.analyze(np.asarray(grp, dtype=float), y, m=args.order,
                        rule=args.select, small_sample=args.small_sample)
    dens = rep.density
    curve = {"y": dens.by.source.values, "density": dens.atom_density,
             "posterior": tsmod.classify(dens, dens.by.source.values)}
    payload = {
        "n": y.size,
        "labels": list(dens.labels),
        "groups": [
            {"label": dens.labels[0], "n": rep.g1.n, "mean": rep.g1.m,
             "var": rep.g1.v},
            {"label": dens.labels[1], "n": rep.g2.n, "mean": rep.g2.m,
             "var": rep.g2.v},
        ],
        "combined": {
            "n": rep.combined.n, "tau1": rep.combined.tau1,
            "tau2": rep.combined.tau2, "mean": rep.combined.m,
            "var": rep.combined.v, "vpool": rep.combined.vpool,
        },
        "student": asdict(rep.student),
        "correlation": {"r": rep.correlation.r, "r2": rep.correlation.r2,
                        "identities_ok": rep.identities_ok},
        "wilcoxon": {"w": rep.wilcoxon.w, "z": rep.wilcoxon.z_stat},
        "high_order": {"c": dens.c, "lp1k": dens.lp1k,
                       "selected": dens.selected},
        "classification": {"prior": dens.tau, **curve},
    }
    return payload, warnings, (list(curve), list(curve.values()))


def cmd_bayes_update(args):
    prior = tsmod.GroupSummary(n=args.prior_n, m=args.prior_mean,
                               v=args.prior_var)
    data = tsmod.GroupSummary(n=args.n, m=args.mean, v=args.var)
    post = tsmod.bayes_normal_update(prior, data)
    posterior = {"n_eff": post.n, "mean": post.m, "var": post.v}
    payload = {
        "prior": {"n_eff": prior.n, "mean": prior.m, "var": prior.v},
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


def _finite_from(low, strict=False):
    """argparse type: a finite float, at least `low` (above it if strict)."""
    def finite_float(text):
        v = float(text)
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError("must be finite")
        if v < low or (strict and v == low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {low:g}")
        return v
    return finite_float


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


# Every option, defined once: its flag and its add_argument keywords.
_OPTIONS = {
    "--col": dict(required=True),
    "--x": dict(required=True),
    "--y": dict(required=True),
    "--group": dict(required=True),
    "--small-sample": dict(
        action="store_true",
        help="scale the Wilcoxon z by sqrt(n-1) instead of sqrt(n)"),
    "--p": dict(type=_prob_list, default=(.05, .25, .5, .75, .95),
                help="comma-separated probabilities"),
    "--g": dict(choices=["normal", "exponential", "uniform"], required=True),
    "--data": dict(default=BUNDLED_DATA,
                   help=f"CSV file (default: {BUNDLED_DATA}, the bundled "
                        "example table)"),
    "--order": dict(type=_positive_int_to(MAX_ORDER), default=4,
                    help=f"series order, 1..{MAX_ORDER} "
                         "(default %(default)s)"),
    "--grid": dict(type=_positive_int_to(MAX_GRID), default=101,
                   help=f"grid size, 1..{MAX_GRID} (default %(default)s)"),
    "--select": dict(choices=["aic", "bic", "none"], default="aic",
                     help="coefficient selection rule"),
    "--prior-n": dict(type=_finite_from(0.0, strict=True), required=True),
    "--prior-mean": dict(type=_finite_from(-math.inf), required=True),
    "--prior-var": dict(type=_finite_from(0.0), required=True),
    "--n": dict(type=_finite_from(1.0), required=True),
    "--mean": dict(type=_finite_from(-math.inf), required=True),
    "--var": dict(type=_finite_from(0.0), required=True),
    "--format": dict(choices=["json", "csv"], default="json"),
    "--out": dict(default=None, help="write output to a file"),
}

# One row per subcommand: its name, handler and help, its options in --help
# order (each then takes the envelope's --format and --out), and the
# defaults that differ from the options' own.
_SUBCOMMANDS = (
    ("describe", cmd_describe, "one-variable diagnostics",
     ("--col", "--data", "--order", "--grid"), {"order": 5}),
    ("depend", cmd_depend, "dependence diagnostics of a pair",
     ("--x", "--y", "--data", "--order", "--grid", "--select"), {"grid": 51}),
    ("regress", cmd_regress, "orthogonal series regression",
     ("--x", "--y", "--data", "--order", "--select"), {}),
    ("cquantile", cmd_cquantile, "conditional mean/quantile curves",
     ("--x", "--y", "--p", "--data", "--order", "--select"), {}),
    ("fit", cmd_fit, "comparison density against a reference",
     ("--col", "--g", "--data", "--order", "--grid", "--select"), {}),
    ("twosample", cmd_twosample, "two-group analysis of a response",
     ("--y", "--group", "--small-sample", "--data", "--order", "--select"),
     {}),
    ("bayes-update", cmd_bayes_update, "conjugate-normal belief update",
     ("--prior-n", "--prior-mean", "--prior-var", "--n", "--mean", "--var"),
     {}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built on first use and then shared."""
    parser = argparse.ArgumentParser(
        prog="lpstats",
        description="Rank-based nonparametric statistics on CSV columns.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, handler, text, flags, defaults in _SUBCOMMANDS:
        p = subs.add_parser(name, help=text)
        for flag in (*flags, "--format", "--out"):
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(handler=handler, **defaults)
    return parser


_ECHO_SKIP = {"handler", "command", "format", "out"}


def _echo_args(args) -> dict:
    echo = {}
    for key in sorted(vars(args)):
        if key in _ECHO_SKIP:
            continue
        echo[key] = getattr(args, key)
    return echo


def _run(args):
    """The handler's (payload, warnings, csv_view).

    A floating-point overflow, division by zero or invalid operation
    raises FloatingPointFault, rather than carrying an inf or NaN on with a
    warning; underflow to zero or a subnormal stays silent. numpy's error
    state is set for the handler's call only.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise",
                         under="ignore"):
            return args.handler(args)
    except FloatingPointError as exc:
        raise FloatingPointFault(f"floating-point {exc}") from None
    except OverflowError:  # in Python float arithmetic, such as a `**`
        raise FloatingPointFault("floating-point overflow") from None


def _unexpected(exc) -> int:
    """Report an error that no lpstats class names: a computation failure."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


@functools.cache
def _keep_freed_memory():
    """Fix glibc's thresholds for mapping and for trimming memory, once.

    glibc maps each block above one threshold afresh, and hands the freed
    top of its heap back to the OS past another. Both start low and rise
    only as large blocks are freed, so whether a process ever raises them
    depends on what it happened to free. Where they stay low, a command
    run again in the same process faults anew on every page of its
    arrays: 300-900 minor faults and 20-30% of the time of each bulk-tied
    benchmark command. Set once, they stay put. Elsewhere than glibc this
    does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        payload, warnings, csv_view = _run(args)
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
            # the CSV view has no place for the envelope's warnings
            text = render_csv(*csv_view)
            for warning in warnings:
                print(f"warning: {warning}", file=sys.stderr)
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
        return _unexpected(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
