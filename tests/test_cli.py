"""CLI behavior: golden outputs, determinism, exit codes, CSV ingestion.

Golden files are regenerated by running the same commands from this
directory, e.g. `PYTHONPATH=../src python -m lpstats.cli describe --col
GAG > golden/describe.json`. They hold no machine-dependent bytes: the
default --data is echoed as the token `bundled:gagurine.csv`, other
--data paths are relative to this directory, and `fit` reports its
round-off-level maxent residual to 2 significant digits. Before
committing a regenerated golden, diff it field by field against the old
one and account for every field that moved.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpstats import (cli, compdensity, fit_reference, fixture_path, l2_fit,
                     make_sample, maxent_fit)
from lpstats import copula as cpmod
from lpstats import lp
from lpstats import twosample as tsmod
from lpstats.cli import ingest_csv, main
from lpstats.errors import (
    EmptyAfterFilter,
    FileNotFound,
    LPStatsError,
    MissingColumn,
)

from conftest import run_cli

HERE = Path(__file__).parent

GOLDEN_CASES = {
    "describe.json": ["describe", "--col", "GAG"],
    "describe.csv": ["describe", "--col", "GAG", "--format", "csv"],
    "depend.json": ["depend", "--x", "Age", "--y", "GAG"],
    "regress.json": ["regress", "--x", "Age", "--y", "GAG"],
    "cquantile.json": ["cquantile", "--x", "Age", "--y", "GAG"],
    "fit.json": ["fit", "--col", "GAG", "--g", "normal"],
    "twosample.json": ["twosample", "--y", "response", "--group", "group",
                       "--data", "data/clinic.csv"],
    # y of order 1e-300: its squared deviations underflow, so its sd is 0
    "cquantile_underflow.json": ["cquantile", "--x", "x", "--y", "y",
                                 "--data", "data/underflow.csv"],
    "regress_underflow.json": ["regress", "--x", "x", "--y", "y",
                               "--data", "data/underflow.csv"],
    "bayes_update.json": ["bayes-update", "--prior-n", "4", "--prior-mean",
                          "0", "--prior-var", "1", "--n", "4", "--mean",
                          "2", "--var", "1"],
}


@pytest.fixture(autouse=True)
def run_from_tests_dir(monkeypatch):
    """Keep --data paths in the goldens relative and machine independent."""
    monkeypatch.chdir(HERE)


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_output_matches_golden(self, name):
        code, text = run_cli(GOLDEN_CASES[name])
        assert code == 0
        assert text == (HERE / "golden" / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_double_run_is_byte_identical(self, name):
        first = run_cli(GOLDEN_CASES[name])
        second = run_cli(GOLDEN_CASES[name])
        assert first == second

    def test_twosample_fits_the_density_once(self, monkeypatch):
        calls = []
        fit = tsmod.two_sample_comp_density

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(tsmod, "two_sample_comp_density", counted)
        code, _ = run_cli(GOLDEN_CASES["twosample.json"])
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("x, y", [("Age", "GAG"), ("GAG", "Age"),
                                      ("x", "y")])
    def test_depend_sums_one_pair_table(self, x, y, tmp_path, monkeypatch):
        # the comoments and the correlations are one `_pair_mean`; with
        # the coarser margin first it recurses once, to sum per atom of
        # the finer one, and on a tied pair it counts the pair table once
        argv = ["depend", "--x", x, "--y", y]
        if x == "x":  # 7 x 5 atoms on 100 rows
            f = tmp_path / "tied.csv"
            f.write_text("x,y\n" + "".join(f"{i % 7},{i * 3 % 5}\n"
                                            for i in range(100)))
            argv += ["--data", str(f)]
        depth, top, counts = [0], [], []
        pair_mean, pair_counts = lp._pair_mean, lp._pair_counts

        def spy_mean(*args):
            top.append(depth[0] == 0)
            depth[0] += 1
            try:
                return pair_mean(*args)
            finally:
                depth[0] -= 1

        def spy_counts(*args):
            counts.append(args)
            return pair_counts(*args)

        monkeypatch.setattr(lp, "_pair_mean", spy_mean)
        monkeypatch.setattr(lp, "_pair_counts", spy_counts)
        code, _ = run_cli(argv)
        assert code == 0
        assert top == ([True, False] if x == "GAG" else [True])
        assert len(counts) == (x == "x")

    def test_csv_view_available_everywhere(self):
        for name, argv in GOLDEN_CASES.items():
            if argv[-2:] == ["--format", "csv"]:
                continue
            code, text = run_cli(argv + ["--format", "csv"])
            assert code == 0, name
            header = text.splitlines()[0]
            assert "," in header, name


class TestPrintedSettings:
    """Payload values that the command's own options set."""

    @pytest.mark.parametrize("rule", ["aic", "bic", "none"])
    def test_depend_prints_its_rule(self, rule):
        code, text = run_cli(["depend", "--x", "Age", "--y", "GAG",
                              "--select", rule])
        assert code == 0
        assert json.loads(text)["payload"]["comoments"]["rule"] == rule

    def test_small_sample_scales_the_printed_z(self):
        group, response = np.loadtxt("data/clinic.csv", delimiter=",",
                                     skiprows=1, unpack=True)
        want = tsmod.wilcoxon(group, response, small_sample=True).z_stat
        argv = GOLDEN_CASES["twosample.json"]
        printed = []
        for extra in ([], ["--small-sample"]):
            code, text = run_cli(argv + extra)
            assert code == 0
            printed.append(re.search(r'"wilcoxon":\{"w":[^,]*,"z":([^}]*)\}',
                                     text).group(1))
        assert printed[1] == cli._num(want)
        assert printed[0] != printed[1]


class TestEnvelope:
    def test_structure(self):
        code, text = run_cli(["describe", "--col", "GAG"])
        assert code == 0
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema_version"] == "2"
        assert set(doc) == {"schema_version", "command", "payload",
                            "warnings"}
        assert set(doc["command"]) == {"name", "args"}
        assert doc["command"]["name"] == "describe"
        assert doc["command"]["args"]["col"] == "GAG"

    @pytest.mark.parametrize("name", sorted(set(GOLDEN_CASES)
                                            - {"describe.csv"}))
    def test_seed_is_not_an_option(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main(GOLDEN_CASES[name] + ["--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_floats_use_ten_significant_digits(self):
        _, text = run_cli(["describe", "--col", "GAG"])
        assert '"mean":12.39506369' in text

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path):
        target = tmp_path / "report.json"
        code, text = run_cli(["describe", "--col", "GAG", "--out",
                              str(target)])
        assert code == 0
        assert text == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["command"]["name"] == "describe"

    def test_truncated_score_basis_is_warned(self, tmp_path):
        f = tmp_path / "three.csv"
        f.write_text("a\n" + "1\n2\n3\n" * 3, encoding="utf-8")
        code, text = run_cli(["describe", "--col", "a", "--data", str(f),
                              "--order", "5"])
        assert code == 0
        assert json.loads(text)["warnings"] == [
            "score basis truncated at order 2"]

    def test_csv_output_writes_the_warnings_to_stderr(self, tmp_path,
                                                      capsys):
        # the CSV view cannot carry the envelope's warnings; each goes to
        # stderr, and stdout and the JSON run are as they were
        f = tmp_path / "na.csv"
        f.write_text("y\n" + "1\n2\n3\n" * 3 + "NA\n", encoding="utf-8")
        argv = ["describe", "--col", "y", "--data", str(f), "--order", "5"]
        code, text = run_cli(argv)
        assert (code, capsys.readouterr().err) == (0, "")
        doc = json.loads(text)
        assert doc["warnings"] == ["dropped 1 rows (non_numeric: 1)",
                                   "score basis truncated at order 2"]
        code, text = run_cli(argv + ["--format", "csv"])
        assert code == 0
        assert text == cli.render_csv(["u", "qmid", "qiq"], [
            np.array(doc["payload"]["qiq_grid"][k])
            for k in ("u", "qmid", "qiq")])
        assert capsys.readouterr().err == (
            "warning: dropped 1 rows (non_numeric: 1)\n"
            "warning: score basis truncated at order 2\n")


class TestBundledData:
    def test_default_is_echoed_as_a_token_from_any_cwd(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(["describe", "--col", "GAG"])
        assert code == 0
        assert json.loads(text)["command"]["args"]["data"] == \
            "bundled:gagurine.csv"
        code, explicit = run_cli(["describe", "--col", "GAG", "--data",
                                  fixture_path()])
        assert code == 0
        assert text.split('"payload":', 1)[1] == \
            explicit.split('"payload":', 1)[1]

    @pytest.mark.parametrize("value", ["bundled:GAGurine.csv",
                                       "bundled:gagurine.csv ",
                                       "./bundled:gagurine.csv",
                                       "bundled:"])
    def test_only_the_exact_token_names_the_bundled_table(self, value,
                                                          capsys):
        code, _ = run_cli(["describe", "--col", "GAG", "--data",
                           "bundled:gagurine.csv"])
        assert code == 0
        code, _ = run_cli(["describe", "--col", "GAG", "--data", value])
        assert code == 2
        assert f"no such file: {value}" in capsys.readouterr().err


class TestFitResidual:
    def test_residual_is_emitted_at_two_significant_digits(self, gag):
        code, text = run_cli(GOLDEN_CASES["fit.json"])
        assert code == 0
        emitted = json.loads(text)["payload"]["maxent"]["residual"]
        s = make_sample(gag)
        mod = maxent_fit(l2_fit(s, fit_reference("normal", s), 4,
                                rule="aic"))
        assert emitted == float(f"{mod.maxent_residual:.2g}")
        assert emitted < compdensity.MAXENT_TOL


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        code, _ = run_cli(["describe", "--col", "GAG", "--data",
                           "nope.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_column_lists_available(self, capsys):
        code, _ = run_cli(["describe", "--col", "Weight"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Weight" in err and "GAG" in err

    def test_non_binary_group_is_input_error(self):
        code, _ = run_cli(["twosample", "--y", "GAG", "--group", "Age"])
        assert code == 2

    def test_constant_column_is_compute_error(self, tmp_path, capsys):
        f = tmp_path / "const.csv"
        f.write_text("a\n3\n3\n3\n", encoding="utf-8")
        code, _ = run_cli(["describe", "--col", "a", "--data", str(f)])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_constant_twosample_response_names_the_cause(self, tmp_path,
                                                         capsys):
        # the count table refuses the single atom before the score basis
        # or the t statistic sees it
        f = tmp_path / "const.csv"
        f.write_text("y,g\n1,0\n1,1\n1,0\n1,1\n", encoding="utf-8")
        code, _ = run_cli(["twosample", "--y", "y", "--group", "g",
                           "--data", str(f)])
        assert code == 3
        assert capsys.readouterr().err == "error: the response is constant\n"

    @pytest.mark.parametrize("content", [b"\xff\xfe\n",
                                         b"x,y\n1,\xff\xfe\n"])
    def test_undecodable_file_is_input_error(self, tmp_path, capsys,
                                             content):
        f = tmp_path / "binary.csv"
        f.write_bytes(content)
        code, _ = run_cli(["describe", "--col", "x", "--data", str(f)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_byte_file_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "empty.csv"
        f.write_bytes(b"")
        code, _ = run_cli(["describe", "--col", "a", "--data", str(f)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {f} is empty\n"

    def test_oversized_quoted_field_is_input_error(self, tmp_path, capsys):
        # longer than csv.field_size_limit(), which the csv module refuses
        f = tmp_path / "wide.csv"
        f.write_text('a\n1\n"' + "9" * 140001 + '"\n', encoding="utf-8")
        code, _ = run_cli(["describe", "--col", "a", "--data", str(f)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "field limit" in err

    def test_out_in_missing_directory_is_input_error(self, tmp_path,
                                                     capsys):
        target = tmp_path / "missing" / "report.json"
        code, text = run_cli(["describe", "--col", "GAG", "--out",
                              str(target)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err.startswith("error:")

    def test_unexpected_failure_is_compute_error(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "lhermite_normality", singular)
        code, _ = run_cli(["describe", "--col", "GAG"])
        assert code == 3
        assert capsys.readouterr().err == \
            "error: LinAlgError: Singular matrix\n"

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["describe", "--col", "GAG", "--fancy"])
        assert exc.value.code == 2

    def test_bad_probability_list(self):
        # rejected during argument parsing, still process exit 2
        with pytest.raises(SystemExit) as exc:
            main(["cquantile", "--x", "Age", "--y", "GAG",
                  "--p", "0.5,1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("ps", ["0.1,0.10000000001,0.9", "0.5,0.5"])
    def test_probabilities_with_one_label_are_usage_error(self, ps, capsys):
        # each labels a quantile column; a second would overwrite the first
        with pytest.raises(SystemExit) as exc:
            main(["cquantile", "--x", "Age", "--y", "GAG", "--p", ps])
        assert exc.value.code == 2
        assert "--p: probabilities share a column label" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--prior-n", "nan"), ("--prior-n", "0"), ("--prior-n", "-1"),
        ("--prior-mean", "inf"), ("--prior-var", "-1"), ("--n", "0.5"),
        ("--n", "-inf"), ("--mean", "nan"), ("--var", "-1e-300"),
        ("--var", "x"),
    ])
    def test_bad_bayes_update_value_is_usage_error(self, flag, value,
                                                   capsys):
        argv = list(GOLDEN_CASES["bayes_update.json"])
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


class TestProbabilityBound:
    """--p holds at most MAX_GRID values; each is a quantile per slice."""

    @staticmethod
    def probabilities(count):
        return ",".join(str((i + 1) / (count + 1)) for i in range(count))

    def test_the_bound_itself_parses(self):
        args = cli.build_parser().parse_args(
            ["cquantile", "--x", "Age", "--y", "GAG", "--p",
             self.probabilities(cli.MAX_GRID)])
        assert len(args.p) == cli.MAX_GRID

    def test_one_past_the_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cquantile", "--x", "Age", "--y", "GAG", "--data",
                  "no-such-file.csv", "--p",
                  self.probabilities(cli.MAX_GRID + 1)])
        assert exc.value.code == 2
        assert f"--p: at most {cli.MAX_GRID} probabilities" in \
            capsys.readouterr().err


class TestGridBound:
    """--grid is bounded at parse time; depend allocates grid**2 cells."""

    @pytest.mark.parametrize("grid", [cli.MAX_GRID + 1, 0])
    def test_out_of_range_grid_is_usage_error(self, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["depend", "--x", "Age", "--y", "GAG", "--grid", str(grid)])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_the_bound_itself_parses(self):
        args = cli.build_parser().parse_args(
            ["depend", "--x", "Age", "--y", "GAG", "--grid",
             str(cli.MAX_GRID)])
        assert args.grid == cli.MAX_GRID


class TestOrderBound:
    """--order is bounded at parse time; a basis of order m is m x r."""

    @pytest.mark.parametrize("order", [cli.MAX_ORDER + 1, 0])
    def test_out_of_range_order_is_usage_error(self, order, capsys):
        for argv in (["describe", "--col", "GAG"],
                     ["fit", "--col", "GAG", "--g", "normal"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--order", str(order)])
            assert exc.value.code == 2
            assert "--order" in capsys.readouterr().err

    def test_the_bound_itself_parses(self):
        args = cli.build_parser().parse_args(
            ["describe", "--col", "GAG", "--order", str(cli.MAX_ORDER)])
        assert args.order == cli.MAX_ORDER

    def test_fit_is_refused_by_its_normalizer_not_its_order(self, tmp_path,
                                                           capsys):
        code, text = run_cli(["fit", "--col", "GAG", "--g", "normal",
                              "--order", "8"])
        assert code == 0
        assert sum(json.loads(text)["payload"]["selected"]) == 7
        # r = 2 atoms cannot carry 6 moments: the solve converges on the
        # quadrature nodes, but the density does not integrate to 1
        f = tmp_path / "two_atoms.csv"
        f.write_text("y\n" + "1\n" * 8 + "2\n" * 2, encoding="utf-8")
        code, text = run_cli(["fit", "--col", "y", "--g", "normal",
                              "--order", "6", "--data", str(f)])
        assert (code, text) == (3, "")
        assert "normalizer gap of -1.127e-03" in capsys.readouterr().err


class TestHighOrderCurves:
    """cquantile serves every slice from one path at any order."""

    def test_order_20_builds_no_dense_curve_slice(self, tmp_path,
                                                   monkeypatch):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(20000)
        y = np.sin(2.0 * x) + 0.3 * rng.standard_normal(x.size)
        f = tmp_path / "wide.csv"
        np.savetxt(f, np.column_stack((x, y)), delimiter=",", header="x,y",
                   comments="")
        calls = []
        dense = cpmod.conditional_slice
        monkeypatch.setattr(cpmod, "conditional_slice",
                            lambda mod, u: calls.append(u) or dense(mod, u))
        code, _ = run_cli(["cquantile", "--x", "x", "--y", "y", "--data",
                           str(f), "--order", "20", "--select", "none"])
        assert code == 0
        # only slice_modes' two extreme slices, no curve slice: the dense
        # loop would cost r_x r_y m = 8e9 operations here
        assert calls == [0.05, 0.95]


class TestOptionSurface:
    """Each subcommand declares only the options its handler reads."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_every_declared_option_is_read(self, name):
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, key):
                read.add(key)
                return super().__getattribute__(key)

        args = cli.build_parser().parse_args(GOLDEN_CASES[name],
                                             namespace=Recording())
        read.clear()  # drop the parser's own reads
        args.handler(args)
        # the envelope reads these; the handler has no use for them
        declared = set(vars(args)) - {"handler", "command", "format", "out"}
        assert declared - read == set()

    @pytest.mark.parametrize("argv", [
        ["regress", "--x", "Age", "--y", "GAG", "--grid", "5"],
        ["cquantile", "--x", "Age", "--y", "GAG", "--grid", "5"],
        ["twosample", "--y", "response", "--group", "group", "--grid", "5"],
        ["describe", "--col", "GAG", "--select", "bic"],
    ])
    def test_an_option_the_command_does_not_read_is_usage_error(self, argv,
                                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             sorted({a[0] for a in GOLDEN_CASES.values()}))
    def test_help_formats(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--format" in capsys.readouterr().out


class TestParser:
    def test_built_once_with_an_immutable_default(self):
        assert cli.build_parser() is cli.build_parser()
        args = cli.build_parser().parse_args(["cquantile", "--x", "Age",
                                              "--y", "GAG"])
        assert args.p == (.05, .25, .5, .75, .95)
        # a list given on the command line echoes as the default does
        code, text = run_cli(["cquantile", "--x", "Age", "--y", "GAG",
                              "--p", ".05,.25,.5,.75,.95"])
        assert code == 0
        assert text == (HERE / "golden" / "cquantile.json").read_text(
            encoding="utf-8")


def render_elementwise(obj):
    """The per-element serializer that whole-array rendering replaced."""
    def num(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        v = float(x)
        if math.isnan(v) or math.isinf(v):
            raise LPStatsError("non-finite value reached the serializer")
        return f"{v:.10g}"

    def walk(obj, parts):
        if obj is None:
            parts.append("null")
        elif isinstance(obj, str):
            parts.append(json.dumps(obj))
        elif isinstance(obj, (bool, np.bool_, int, np.integer, float,
                              np.floating)):
            parts.append(num(obj))
        elif isinstance(obj, dict):
            parts.append("{")
            for i, (key, val) in enumerate(obj.items()):
                if i:
                    parts.append(",")
                parts.append(json.dumps(str(key)))
                parts.append(":")
                walk(val, parts)
            parts.append("}")
        elif isinstance(obj, (list, tuple, np.ndarray)):
            parts.append("[")
            for i, val in enumerate(obj):
                if i:
                    parts.append(",")
                walk(val, parts)
            parts.append("]")
        else:
            raise LPStatsError(f"cannot serialize {type(obj).__name__}")

    parts = []
    walk(obj, parts)
    parts.append("\n")
    return "".join(parts)


EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                        1e-300, -1e300, 1e300, 1.7976931348623157e308,
                        0.1, 1 / 3, -123456789.123456789, 1e10, 1e-5])


class TestRenderJson:
    def test_matches_the_elementwise_serializer(self):
        envelope = {
            "edges": EDGE_FLOATS,
            "empty": np.array([]),
            "empty_2d": np.empty((0, 3)),
            "matrix": EDGE_FLOATS.reshape(2, 7),
            "float32": EDGE_FLOATS[9:].astype(np.float32),
            "ints": np.arange(-3, 4),
            "bools": np.array([True, False, True]),
            "nested": [[1.5, np.float64(-0.0)], (2, "s", None),
                       {"k": [EDGE_FLOATS[:3], np.arange(2)]}, []],
            "scalars": {"f": -0.0, "i": np.int64(7), "b": np.bool_(False)},
        }
        assert cli.render_json(envelope) == render_elementwise(envelope)

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=40), st.integers(1, 4))
    def test_random_arrays_match(self, values, rows):
        a = np.array(values[:len(values) - len(values) % rows])
        doc = {"flat": a, "table": a.reshape(rows, -1)}
        assert cli.render_json(doc) == render_elementwise(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 6, 13])
    def test_non_finite_anywhere_raises(self, bad, where):
        a = EDGE_FLOATS.copy()
        a[where] = bad
        for doc in ({"x": a}, {"x": a.reshape(7, 2)}, [[1, "s", a]]):
            with pytest.raises(LPStatsError, match="non-finite"):
                cli.render_json(doc)
            with pytest.raises(LPStatsError, match="non-finite"):
                render_elementwise(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_scalar_raises(self, bad):
        for value in (float(bad), np.float64(bad)):
            with pytest.raises(LPStatsError, match="non-finite"):
                cli.render_json({"x": value})

    def test_an_unknown_type_raises(self):
        with pytest.raises(LPStatsError, match="cannot serialize object"):
            cli.render_json({"x": [1, object()]})


def render_csv_rowwise(name, payload):
    """The row-by-row CSV view and renderer that the columnar ones replaced."""
    num = cli._num
    if name == "describe":
        g = payload["qiq_grid"]
        header, rows = ["u", "qmid", "qiq"], list(zip(g["u"], g["qmid"],
                                                      g["qiq"]))
    elif name == "depend":
        cm = payload["comoments"]
        rows = []
        for j in range(cm["order_x"]):
            for k in range(cm["order_y"]):
                rows.append((j + 1, k + 1, cm["entries"][j][k],
                             bool(cm["selected"][j][k])))
        header = ["j", "k", "lp", "selected"]
    elif name == "regress":
        c = payload["curve"]
        header, rows = ["x", "fitted"], list(zip(c["x"], c["fitted"]))
    elif name == "cquantile":
        c = payload["curve"]
        header = ["x", "u", "mean"] + [f"p{k}" for k in c["quantiles"]]
        cols = [c["x"], c["u"], c["mean"]] + list(c["quantiles"].values())
        rows = list(zip(*cols))
    elif name == "fit":
        d = payload["density_grid"]
        header, rows = ["x", "g_pdf", "skew_g"], list(zip(d["x"], d["g_pdf"],
                                                          d["skew_g"]))
    elif name == "twosample":
        c = payload["classification"]
        header, rows = ["y", "density", "posterior"], list(zip(
            c["y"], c["density"], c["posterior"]))
    else:
        p = payload["posterior"]
        header, rows = ["n_eff", "mean", "var"], [(p["n_eff"], p["mean"],
                                                   p["var"])]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(num(v) if not isinstance(v, str) else v
                              for v in row))
    return "\n".join(lines) + "\n"


CSV_CASES = {argv[0]: [a for a in argv if a not in ("--format", "csv")]
             for argv in GOLDEN_CASES.values()}


class TestRenderCsv:
    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_matches_the_rowwise_renderer(self, name):
        argv = CSV_CASES[name]
        args = cli.build_parser().parse_args(argv)
        payload, _, _ = args.handler(args)
        code, text = run_cli(argv + ["--format", "csv"])
        assert code == 0
        assert text == render_csv_rowwise(name, payload)

    def test_edge_values_and_column_kinds(self):
        n = EDGE_FLOATS.size
        single = np.resize(EDGE_FLOATS[9:], n).astype(np.float32)
        text = cli.render_csv(
            ["f", "i", "b", "g"],
            [EDGE_FLOATS, np.arange(n), np.arange(n) % 2 == 0, single])
        rows = zip(EDGE_FLOATS, range(n), np.arange(n) % 2 == 0, single)
        assert text == "f,i,b,g\n" + "".join(
            ",".join(map(cli._num, row)) + "\n" for row in rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(LPStatsError, match="non-finite"):
            cli.render_csv(["a", "b"], [np.arange(2), np.array([1.0, bad])])


def ingest_rowwise(path, columns):
    """The row-by-row ingest loop that the columnar one replaced.

    Returns (values, reasons) as ingest_csv does, or None where ingest_csv
    raises EmptyAfterFilter.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        idx = [header.index(name) for name in columns]
        out = [[] for _ in columns]
        reasons = {}

        def drop(reason):
            reasons[reason] = reasons.get(reason, 0) + 1

        for row in reader:
            if not row:
                continue
            if any(i >= len(row) for i in idx):
                drop("short_row")
                continue
            fields = [row[i].strip() for i in idx]
            if any(not f for f in fields):
                drop("empty_field")
                continue
            try:
                values = [float(f) for f in fields]
            except ValueError:
                drop("non_numeric")
                continue
            if not all(math.isfinite(v) for v in values):
                drop("non_numeric")
                continue
            for slot, v in zip(out, values):
                slot.append(v)
    if not out or not out[0]:
        return None
    return [np.array(vals) for vals in out], reasons


def assert_same_ingest(got, want, dtype=np.float64):
    """Equal drop counts by reason, and columns of `dtype` whose float64
    casts equal the row walk's float64 columns in bytes.

    An integral body gives int64 columns, which a float64 cast rounds as
    float() rounds their text; any other gives float64 columns, equal to
    the walk's in dtype and bytes.
    """
    (values, reasons), (want_values, want_reasons) = got, want
    assert reasons == want_reasons
    assert len(values) == len(want_values)
    for col, want_col in zip(values, want_values):
        assert (col.dtype, want_col.dtype) == (dtype, np.float64)
        assert col.astype(np.float64).tobytes() == want_col.tobytes()


FIELDS = ["1", "-2.5", "0", "-0", "3e2", "1e-320", " 4 ", "\t5", "\u20036",
          "", " ", "abc", "nan", "NaN", "inf", "-Infinity", "1e400", "1_0",
          "0x1", '"7"', '" 8 "', '"9,5"', '""', '"a""b"',
          # where np.loadtxt's reading could part from csv.reader + float()
          "#", "1#2", "+3", ".5", "5.", "\uff11", "1 2", "4.9e-324",
          "1.7976931348623159e308", '"1\n2"', '"3\r\n"',
          # signed integers, which the float read takes, and fields past
          # the integral reader's 18 digits
          "-3", "-00", "-9223372036854775808", "-9223372036854775809",
          "- 1", "--1", "+-1", "1-"]


@st.composite
def messy_csvs(draw):
    """CSV text under an a,b,c header, with every kind of row ingest drops.

    Lines end in LF, CRLF or a bare CR; some hold only whitespace.
    """
    row = st.one_of(
        st.lists(st.sampled_from(FIELDS), min_size=0, max_size=4)
        .map(",".join),
        st.sampled_from([" ", "\t", " \t "]))
    rows = draw(st.lists(row, max_size=14))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(rows) + 1, max_size=len(rows) + 1))
    return "".join(line + end for line, end in zip(["a,b,c"] + rows, ends))


def kept_field(field):
    """Whether ingest keeps a row for this field: a finite float."""
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


# the FIELDS made only of bytes that let ingest_csv read a body whole, and
# those of them that keep a row
NUMERIC_FIELDS = [f for f in FIELDS if set(f) <= set("0123456789.+-eE \t")]
KEPT_FIELDS = list(filter(kept_field, NUMERIC_FIELDS))


@st.composite
def numeric_csvs(draw):
    """CSV text under an a,b,c header, in the bytes of a whole-body read.

    Rows of 3 or 4 kept fields, with up to two odd lines put in: a row
    with any numeric field, one ending in a trailing comma, a short row, a
    blank line or one holding only whitespace. Every line ends in the same
    drawn LF, CRLF or bare CR, and the last one may have none.
    """
    field = st.sampled_from(NUMERIC_FIELDS)
    full = st.lists(st.sampled_from(KEPT_FIELDS), min_size=3, max_size=4)
    odd = st.one_of(
        st.lists(field, min_size=3, max_size=3).map(",".join),
        st.lists(field, max_size=3).map(lambda f: ",".join(f) + ","),
        st.lists(field, min_size=1, max_size=2).map(",".join),
        st.sampled_from(["", " ", "\t", " \t "]))
    rows = draw(st.lists(full.map(",".join), min_size=1, max_size=14))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(["a,b,c"] + rows) + draw(st.sampled_from([end, ""]))


# csv.reader reads a NUL from Python 3.11 on; before, it raises csv.Error
CSV_READS_NUL = sys.version_info >= (3, 11)

# what a label or id column may hold, and requested fields that the float
# read must refuse as the walk does: letters, non-ASCII digits and spaces,
# a CR inside a field (a line end to both readers), NUL, underscores,
# quotes (split at its commas, "x,5,y" would put a number under the next
# column), and names numpy and float() spell alike or not
TEXT_FIELDS = ["A", "B", "site 2", "NA", "n/a", "1_000", "0x10", "\u00e9",
               "\u00a0", "\u0661", "\uff11", "\U0001f600", "x\ry", "1\r",
               "#", "\x0b", "\x0c", "\x1c", "\x85", "2\x7f", "1e5x", "inf",
               "nan", '"q"', '"1,2"', '"x,5,y"', '"3\n4"', "", " "]
if CSV_READS_NUL:
    TEXT_FIELDS += ["\x00", "a\x00"]


@st.composite
def text_csvs(draw):
    """CSV text under an a,b,c header, with a text column among numbers,
    and the columns to request.

    One drawn column holds up to three TEXT_FIELDS values, the others
    kept numbers, and now and then up to two other fields hold text too.
    Every line ends in the same drawn LF, CRLF or bare CR, and the last
    one may have none. Half the time the text column is not requested.
    """
    labels = draw(st.lists(st.sampled_from(TEXT_FIELDS), min_size=1,
                           max_size=3))
    column = draw(st.integers(0, 2))
    rows = draw(st.lists(
        st.lists(st.sampled_from(KEPT_FIELDS), min_size=3, max_size=3),
        min_size=1, max_size=14))
    for row in rows:
        row[column] = draw(st.sampled_from(labels))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 2))] = draw(st.sampled_from(TEXT_FIELDS))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = [",".join(row) for row in rows]
    text = end.join(["a,b,c"] + lines) + draw(st.sampled_from([end, ""]))
    names = draw(st.sampled_from(["abc", "abc".replace("abc"[column], "")]))
    columns = draw(st.lists(st.sampled_from(names), min_size=1,
                            max_size=len(names), unique=True))
    return text, columns


def ingest_and_walk(text, columns):
    """ingest_csv's and the row walk's (values, reasons) of CSV text, or
    None where the walk keeps no row and ingest_csv raises."""
    # every warning, not only the RuntimeWarning pytest is set to raise:
    # np.loadtxt's "input contained no data" is a UserWarning
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        f = Path(tmp) / "messy.csv"
        f.write_bytes(text.encode("utf-8"))
        want = ingest_rowwise(f, columns)
        if want is None:
            with pytest.raises(EmptyAfterFilter):
                ingest_csv(f, columns)
            return None
        return ingest_csv(f, columns), want


def assert_ingest_matches_rowwise(text, columns):
    both = ingest_and_walk(text, columns)
    if both is not None:
        integral = read_as_integers(text, columns)
        assert_same_ingest(*both, np.int64 if integral else np.float64)


COLUMN_LISTS = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                        max_size=3, unique=True)

# where float64 rounds, and where the integral reader's 18 digits end:
# 10**18 - 1 is its widest field; 10**18, 2**63 and wider are read as
# float() reads them
EDGE_INTS = [0, 2**53 - 1, 2**53, 2**53 + 1, 10**17, 10**18 - 1, 10**18,
             2**63 - 1, 2**63, 2**63 + 1]


@st.composite
def integral_csvs(draw):
    """CSV text under an a,b,c header, mostly in the bytes of an integral body.

    Rows of 3 unsigned integers of up to 18 digits, leading zeros
    included, in LF-ended lines. Now and then up to two fields are odd:
    padded with spaces or tabs, signed with '+' or '-', or of 19 digits
    and more; now and then up to two blank lines are put in, or every line
    ends in CRLF. The last line may have no end.
    """
    def joined(*parts):
        return st.tuples(*parts).map(lambda t: "".join(map(str, t)))

    zeros = st.sampled_from(["", "0", "007"])
    field = st.one_of(
        joined(zeros, st.integers(0, 999)),
        st.sampled_from([i for i in EDGE_INTS if i < 10**18]).map(str))
    pad = st.sampled_from(["", " ", "\t", " \t"])
    odd = st.one_of(
        joined(pad, st.sampled_from(["", "+", "-"]), field, pad)
        .filter(lambda f: not f.isdigit()),
        joined(zeros, st.sampled_from(EDGE_INTS))
        .filter(lambda f: len(f) > 18))
    rows = draw(st.lists(st.lists(field, min_size=3, max_size=3),
                         min_size=1, max_size=12))
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, 2))] = draw(odd)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    return end.join(["a,b,c"] + lines) + draw(st.sampled_from([end, ""]))


def record_loadtxt(monkeypatch):
    """The (file name, dtype) of each np.loadtxt call made from here on."""
    calls = []
    loadtxt = np.loadtxt

    def recorded(fname, *args, **kwargs):
        calls.append((fname, kwargs.get("dtype", float)))
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recorded)
    return calls


INT_FIELD = re.compile(r"[0-9]{1,18}")


def read_as_integers(text, columns):
    """Whether the integral reader takes the body of CSV text under an
    a,b,c header, with no np.loadtxt call.

    It does when the header line ends in LF, with no CR before its CRLF,
    and the body is lines of ',' separated fields, each ended by LF (the
    last may have none), every line with the first line's field count,
    every field unsigned digits, and every requested field 1 to 18
    digits. A '-' or CR anywhere in the body takes the float read.
    """
    head, lf, body = text.partition("\n")
    if not lf or "\r" in head.removesuffix("\r"):
        return False
    lines = body.split("\n")
    if not lines[-1]:
        lines.pop()
    rows = [line.split(",") for line in lines]
    idx = ["abc".index(name) for name in columns]
    return (bool(rows) and all(len(row) == len(rows[0]) for row in rows)
            and all(re.fullmatch(r"[0-9]*", f) for row in rows for f in row)
            and all(i < len(row) and INT_FIELD.fullmatch(row[i])
                    for row in rows for i in idx))


@st.composite
def int_reader_csvs(draw):
    """CSV text under an a,b,c header, near the integral reader's bounds.

    Fields are unsigned integers, with leading zeros, or of 18, 19 or
    more digits, 2**63 included. Most rows have 3 fields; up to three odd
    lines are put in: a ragged row of 2 or 4, a row with one empty field,
    one '-'-signed field or one '-' out of place, or a blank line. All
    lines end in LF, or now and then all in CRLF; now and then one line
    ends in CRLF, and one row in a bare CR. The last line may have no
    end.
    """
    field = st.tuples(
        st.sampled_from(["", "0", "007"]),
        st.one_of(st.integers(0, 999), st.sampled_from(EDGE_INTS)),
    ).map(lambda t: "".join(map(str, t)))
    fields = st.lists(field, min_size=3, max_size=3)

    def put(row, i, new):
        return ",".join(row[:i] + [new] + row[i + 1:])

    odd = st.one_of(
        st.lists(field, min_size=2, max_size=4).map(",".join),
        st.builds(put, fields, st.integers(0, 2),
                  st.sampled_from(["", "-", "--1", "1-", "1-2", "-0", "-7",
                                   f"-{10**18 - 1}"])),
        st.just(""))
    rows = draw(st.lists(fields.map(",".join), min_size=1, max_size=10))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    usual = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    ends = [usual] * (len(rows) + 1)
    if draw(st.integers(0, 3)) == 0:
        ends[draw(st.integers(0, len(rows)))] = "\r\n"
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
        ends[draw(st.integers(1, len(rows) - 1))] = "\r"
    text = "".join(line + end for line, end in zip(["a,b,c"] + rows, ends))
    return text.removesuffix(ends[-1]) if draw(st.booleans()) else text


class TestIngest:
    @settings(deadline=None, max_examples=300)
    # loadtxt's default comments="#" would read the last field "4#5" as 4
    @example(text="a,b,c\n1,2\n3,4#5\n", columns=["a", "b"])
    # a quoted field across two lines, each of which loadtxt would read as
    # a row of its own
    @example(text='a,b,c\n1,"x\n2,3"\n4,5\n', columns=["a"])
    @given(text=messy_csvs(), columns=COLUMN_LISTS)
    def test_columnar_ingest_matches_the_rowwise_loop(self, text, columns):
        assert_ingest_matches_rowwise(text, columns)

    @settings(deadline=None, max_examples=300)
    @given(text=numeric_csvs(), columns=COLUMN_LISTS)
    def test_whole_body_ingest_matches_the_rowwise_loop(self, text, columns):
        # Every body is tried whole; a bad row, or a blank line among CRLF
        # or bare-CR ends, makes the row walk read it instead.
        assert_ingest_matches_rowwise(text, columns)

    @settings(deadline=None, max_examples=300)
    @given(table=text_csvs())
    def test_text_column_ingest_matches_the_rowwise_loop(self, table):
        # A text column that is not requested leaves the body to the float
        # read; text in a requested field, or a '"' anywhere, walks it.
        assert_ingest_matches_rowwise(*table)

    @settings(deadline=None, max_examples=200)
    @example(text="a,b,c\n1,2,9223372036854775808\n", columns=["a"])
    @example(text="a,b,c\n-1,-0,-9223372036854775809\n", columns=["b"])
    @given(text=integral_csvs(), columns=COLUMN_LISTS)
    def test_integral_ingest_matches_the_rowwise_loop(self, text, columns):
        # A body of LF-ended lines with no '-', '+', space, tab, CR or
        # blank line, whose requested fields have at most 18 digits, is
        # parsed with no np.loadtxt call; any other makes one float read.
        with pytest.MonkeyPatch.context() as mp:
            calls = record_loadtxt(mp)
            assert_ingest_matches_rowwise(text, columns)
        want = [] if read_as_integers(text, columns) else [float]
        assert [dtype for _, dtype in calls] == want

    @settings(deadline=None, max_examples=400)
    @example(text="a,b,c\n1,2,3\r\n-0,-00,4", columns=["a", "b"],
             block=1, cap=None)
    @example(text=f"a,b,c\n{10**18 - 1},-{10**18 - 1},{2**63}\n",
             columns=["c", "b", "a"], block=5, cap=None)
    # as many ends as 3 rows of 3, in rows of 3, 2 and 4
    @example(text="a,b,c\n1,2,3\n4,5\n6,7,8,9\n", columns=["a", "c"],
             block=64, cap=None)
    # a '-' inside a field that is not requested, and a bare CR
    @example(text="a,b,c\n1,2,3\n4,1-2,5\n", columns=["a"], block=7,
             cap=None)
    @example(text="a,b,c\n1,2,3\r4,5,6\n", columns=["c"], block=64,
             cap=None)
    # a last line with no LF, cut into pieces of 6 bytes; its last piece
    # is the byte the one before it ends with
    @example(text="a,b,c\n1,2,3\n4,5,123456789012", columns=["a"],
             block=1, cap=6)
    # a ragged line whose first 25 bytes, a block and 6 bytes more, are
    # one piece; the block after it holds as many ends as its 2 lines
    # would, but starts inside the first of them
    @example(text="a,b,c\n1,2,3\n" + "1" * 26 + ",4,5,6\n7,8,9\n",
             columns=["a"], block=20, cap=6)
    @given(text=int_reader_csvs(), columns=COLUMN_LISTS,
           block=st.integers(1, 64),
           cap=st.one_of(st.none(), st.integers(4, 64)))
    def test_block_by_block_ingest_matches_the_rowwise_loop(
            self, text, columns, block, cap):
        # Blocks of 1 to 64 bytes put line ends, CRLFs and fields across
        # block edges. A `_LINE_CAP` of 4 to 64 bytes, the header's bound
        # too, cuts a line that a block and that many bytes more do not
        # end into pieces, which end the integral parse.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK", block)
            if cap is not None:
                mp.setattr(cli, "_LINE_CAP", cap)
            calls = record_loadtxt(mp)
            both = ingest_and_walk(text, columns)
        dtypes = [dtype for _, dtype in calls]
        integral = read_as_integers(text, columns)
        if cap is None:
            read_whole = text.split("\n", 1)[1].strip("\r\n")
            assert dtypes == ([] if integral or not read_whole else [float])
        else:
            # int64 columns come only from the integral parse, with no
            # np.loadtxt call
            assert dtypes in ([], [float])
            got_int = both is not None and both[0][0][0].dtype == np.int64
            assert not got_int or (integral and not dtypes)
            integral = got_int
        if both is not None:
            assert_same_ingest(*both, np.int64 if integral else np.float64)

    def test_a_field_past_18_digits_is_read_as_float(self, tmp_path,
                                                      monkeypatch):
        # 2**63 and -2**63 - 1 are read as float() reads them, by the one
        # float np.loadtxt call, with no walk
        def walk(*args):
            raise AssertionError("the row walk was taken")

        calls = record_loadtxt(monkeypatch)
        monkeypatch.setattr(cli, "_row_problem", walk)
        f = tmp_path / "t.csv"
        for big in ("9223372036854775808", "-9223372036854775809"):
            f.write_text(f"a,b\n1,2\n3,{big}\n", encoding="utf-8")
            values, reasons = ingest_csv(f, ["a", "b"])
            assert calls == [(str(f), float)]
            calls.clear()
            assert values[1].tolist() == [2.0, float(big)]
            assert_same_ingest((values, reasons),
                               ingest_rowwise(f, ["a", "b"]))

    def test_a_clean_body_is_read_whole(self, tmp_path, monkeypatch):
        def walk(*args):
            raise AssertionError("the row walk was taken")

        monkeypatch.setattr(cli, "_row_problem", walk)
        calls = record_loadtxt(monkeypatch)
        # a '-', '+', space, tab or CRLF takes the float read, as a '.'
        # or 'e' does; unsigned digits in LF-ended lines take the integral
        # reader, with no np.loadtxt call, and give int64 columns; "-0" is
        # read as -0.0
        for rows, integral, a, b in (
                (["1,2", "-3.5e1, 4"], False, [1.0, -35.0], [2.0, 4.0]),
                (["1,2", "+35,\t04"], False, [1.0, 35.0], [2.0, 4.0]),
                (["1,2", "35, 4"], False, [1.0, 35.0], [2.0, 4.0]),
                (["1,-0", "35,4"], False, [1.0, 35.0], [-0.0, 4.0]),
                (["1,0", "35,04"], True, [1.0, 35.0], [0.0, 4.0])):
            for name, end in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
                f = tmp_path / name
                f.write_bytes(end.join(["a,b", *rows * 4, ""])
                              .encode("utf-8"))
                (got_b, got_a), reasons = ingest_csv(f, ["b", "a"])
                want = [] if integral and end == "\n" else [float]
                assert calls == [(str(f), dtype) for dtype in want]
                calls.clear()
                dtype = np.float64 if want else np.int64
                assert got_a.dtype == got_b.dtype == dtype
                assert (got_a.astype(np.float64).tobytes()
                        == np.array(a * 4).tobytes())
                assert (got_b.astype(np.float64).tobytes()
                        == np.array(b * 4).tobytes())
                assert (got_b.size, reasons) == (8, {})

    @pytest.mark.parametrize("body, walked", [
        ("1,2\n\n-3.5e1, 4\n\n\n5,6\n7,8\n", 0),
        ("1,2\n-3.5e1, 4\n5,6\n7,8\n\n\n", 0),
        # an empty CRLF line holds no LF after an LF, so the float read
        # falls one row short of the LF count and the body is walked
        ("1,2\r\n\r\n-3.5e1, 4\r\n5,6\r\n7,8\r\n", 4),
    ], ids=["interior", "trailing", "crlf-walks"])
    def test_blank_lines_are_read_whole(self, tmp_path, monkeypatch, body,
                                        walked):
        # The empty lines are counted in the one scan that counts the
        # lines: the body's blocks are read once per ingest.
        f = tmp_path / "t.csv"
        f.write_text("a,b\n" + body, encoding="utf-8", newline="")
        want = ingest_rowwise(f, ["b", "a"])
        calls = record_loadtxt(monkeypatch)
        rows = self.walked_rows(monkeypatch)
        scans = []
        line_blocks = cli._line_blocks

        def scanned(*args):
            scans.append(args)
            return line_blocks(*args)

        monkeypatch.setattr(cli, "_line_blocks", scanned)
        got = ingest_csv(f, ["b", "a"])
        assert calls == [(str(f), float)]
        assert (len(scans), len(rows)) == (1, walked)
        assert_same_ingest(got, want)
        assert want[0][0].size == 4

    def test_body_lines_counts_lfs_and_refuses_other_bytes(self):
        def blocks(body):  # the body after a header's LF
            return cli._line_blocks(io.BytesIO(b"\n" + body), 0)

        def scan(body):
            got = cli._body_lines(blocks(body), [0, 1])
            return got and (got[0], got[1], got[2] is not None)

        # an empty line whose two LFs straddle a block edge, in the block
        # where the integral parse ends
        size, line = cli._BLOCK, b"1,2\n"
        pad = (size - 1 - line.index(b"\n")) % len(line)
        body = b"0" * pad + line * (size // len(line)) + b"\n" + line * 3
        assert body[size - 1:size + 1] == b"\n\n"
        assert scan(body) == (body.count(b"\n"), 1, False)
        assert scan(b"1,2\n\n3,4") == (3, 1, False)
        # empty lines are counted in the block where the parse ends and
        # in every block after it; an empty CRLF line holds no LF pair
        assert scan(b"1.5,2\n\n\n3,4\n\n") == (5, 3, False)
        assert scan(b"1,2\n" + line * size + b"-3,4\n\n") == (
            size + 3, 1, False)
        assert scan(b"1,2\r\n\r\n3,4\r\n") == (3, 0, False)
        # an LF integer body is parsed, and a CRLF one is left to the
        # float read
        assert scan(b"1,2\n3,4\n") == (2, 0, True)
        assert scan(b"1,2\r\n3,4\r\n") == (2, 0, False)
        # a '"' refuses the body, also one after the integral parse ends;
        # a letter only ends the parse
        for bad in (b'1,"2"\n', b'1,"2"\r\n', b'1.5,2\n3,"a"\n'):
            assert cli._body_lines(blocks(bad), [0, 1]) is None
        for text in (b"1,2\n3,a\n", b"1.5,2\n3,a\n", b"1,2,\xc3\xa9\0\n"):
            assert scan(text) == (text.count(b"\n"), 0, False)
        # a body of line ends alone would make np.loadtxt warn
        for ends in (b"\n\n\n", b"\r\n\r\n", b"\r\r", b"\r"):
            assert cli._body_lines(blocks(ends), [0, 1]) is None
        # the table: unsigned digits keep it; a '-', '.', 'e', 'E', '+'
        # or CR anywhere clears it, also one only in the second block
        head = line * (size // len(line))
        assert len(head) == size
        for cell, integral in ((b"2", True), (b"0", True), (b"-2", False),
                               (b"-0", False), (b"2.", False),
                               (b"2e0", False), (b"2E0", False),
                               (b"+2", False)):
            for body in (cell + b",2\n" + head, head + cell + b",2\n" + line,
                         b"1,2\r\n3," + cell):
                assert scan(body) == (
                    body.count(b"\n") + (not body.endswith(b"\n")), 0,
                    integral and b"\r" not in body)

    @pytest.mark.parametrize("place", ["requested", "unrequested", "later"])
    def test_body_lines_byte_table(self, place):
        # Every byte value, inside a field of columns 0 and 1 (requested)
        # or 2 (unrequested) of every line, or of every line after the
        # first block only. Digits and ',' keep the table, '"' refuses the
        # body, and any other byte (CR, letters, NUL and non-ASCII
        # included) gives the line and empty-line counts alone.
        line = b"12,34,56\n"
        head = line * (cli._BLOCK // len(line) + 1)
        assert len(head) >= cli._BLOCK  # the first block holds no `v`
        for v in range(256):
            byte = bytes([v])
            if place == "later":
                body = head + line.replace(b"34", b"3" + byte + b"4") * 9
            else:
                field = b"34" if place == "requested" else b"56"
                body = line.replace(field, field[:1] + byte + field[1:]) * 9
            if byte.isdigit() or byte == b",":
                kind = "table"
            elif byte == b'"':
                kind = None
            else:
                kind = "lines"
            if byte in b",\n":
                # a separator or a line end: the table stands while every
                # line holds the first line's count of fields
                counts = {r.count(b",") for r in body.splitlines()}
                kind = "table" if len(counts) == 1 else "lines"
            got = cli._body_lines(
                cli._line_blocks(io.BytesIO(b"\n" + body), 0), [0, 1])
            if kind is None:
                assert got is None, v
                continue
            lines, empty, table = got
            assert lines == body.count(b"\n"), v
            # an LF byte splits a field, so it makes no empty line
            assert empty == 0, v
            if kind == "lines":
                assert table is None, v
                continue
            rows = [r.split(b",") for r in body.splitlines()]
            want = [[int(r[0]) for r in rows], [int(r[1]) for r in rows]]
            assert table.dtype == np.int64, v
            assert table.tolist() == want, v

    @pytest.mark.parametrize("place", ["requested", "unrequested"])
    def test_every_code_point_below_256_ingests_as_the_walk(self, place):
        # each of U+0000 to U+00FF, written as UTF-8 inside a field of
        # column a (requested) or c (not)
        for v in range(0 if CSV_READS_NUL else 1, 256):
            cell = f"1{chr(v)}2"
            row = f"{cell},3,4" if place == "requested" else f"5,6,{cell}"
            assert_ingest_matches_rowwise(f"a,b,c\n1,2,3\n{row}\n7,8,9\n",
                                          ["a", "b"])

    def test_a_text_column_is_read_whole(self, tmp_path, monkeypatch):
        # 1e5 rows of bulk-tied's x and y and a `site` column of A/B
        # labels, x and y requested: one float np.loadtxt call, no walk
        rng = np.random.default_rng(5)
        n = 100_000
        x = rng.integers(3, 34, n)
        y = rng.integers(4, 37, n)
        site = rng.choice(["A", "B"], n)
        f = tmp_path / "site.csv"
        with open(f, "w", encoding="ascii", newline="") as fh:
            fh.write("x,y,site\n")
            fh.writelines(f"{a},{b},{c}\n" for a, b, c in
                          zip(x.tolist(), y.tolist(), site.tolist()))

        def walk(*args):
            raise AssertionError("the row walk was taken")

        monkeypatch.setattr(cli, "_row_problem", walk)
        calls = record_loadtxt(monkeypatch)
        values, reasons = ingest_csv(f, ["x", "y"])
        assert calls == [(str(f), float)]
        assert [col.dtype for col in values] == [np.float64] * 2
        assert values[0].tolist() == x.tolist()
        assert (values[1].tolist(), reasons) == (y.tolist(), {})

    def test_a_quote_in_a_column_not_requested_walks(self, tmp_path,
                                                     monkeypatch):
        # split at the quoted commas, np.loadtxt would read the number 5
        # under column "b"; only the '"' keeps the body from it
        f = tmp_path / "quoted.csv"
        f.write_text('a,c,b\n1,2,3\n4,"x,5,y",7\n8,9,10\n',
                     encoding="utf-8")
        calls = record_loadtxt(monkeypatch)
        walked = self.walked_rows(monkeypatch)
        values, reasons = ingest_csv(f, ["a", "b"])
        assert calls == [] and len(walked) == 3
        assert [col.tolist() for col in values] == [[1.0, 4.0, 8.0],
                                                    [3.0, 7.0, 10.0]]
        assert_same_ingest((values, reasons), ingest_rowwise(f, ["a", "b"]))

    def test_an_integral_read_peaks_below_the_translate_scan(self,
                                                             tmp_path):
        # 1e5 unsigned rows of x, y and a 0/1 group, shaped like the
        # bulk-tied benchmark table, `x` and `y` requested. The peak is the
        # block parts and their concatenation, twice the kept values, plus
        # file buffers: 3.07 MiB when a translate checked each block.
        rng = np.random.default_rng(5)
        n = 100_000
        x = np.clip(np.rint(18 + 5 * rng.standard_normal(n)), 3, 33)
        y = rng.integers(4, 37, n)
        group = rng.integers(0, 2, n)
        f = tmp_path / "tied.csv"
        with open(f, "w", encoding="ascii", newline="") as fh:
            fh.write("x,y,group\n")
            fh.writelines(f"{a:.0f},{b},{c}\n" for a, b, c in
                          zip(x.tolist(), y.tolist(), group.tolist()))
        ingest_csv(f, ["x", "y"])  # first-call allocations not counted
        tracemalloc.start()
        try:
            values, reasons = ingest_csv(f, ["x", "y"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [col.dtype for col in values] == [np.int64] * 2
        assert (values[1].tolist(), reasons) == (y.tolist(), {})
        assert sum(col.nbytes for col in values) == 1_600_000
        assert peak <= 3.08 * 2 ** 20

    def test_a_float_read_holds_its_table_once(self, tmp_path):
        # 1e5 continuous rows of x, y and a 0/1 group, shaped like the
        # bulk-continuous benchmark table, `x` and `y` requested. The
        # columns are the rows of np.loadtxt's table, so the peak is that
        # table and loadtxt's buffers, 1.13 times the kept values; a copy
        # of each column made it 2.0 times.
        rng = np.random.default_rng(5)
        n = 100_000
        z1 = rng.standard_normal(n)
        z2 = 0.6 * z1 + 0.8 * rng.standard_normal(n)
        x, y = np.exp(0.75 * z1), np.exp(0.6 * z2) + 0.2 * z2 ** 2
        group = rng.integers(0, 2, n)
        f = tmp_path / "continuous.csv"
        with open(f, "w", encoding="ascii", newline="") as fh:
            fh.write("x,y,group\n")
            fh.writelines(f"{a!r},{b!r},{c}\n" for a, b, c in
                          zip(x.tolist(), y.tolist(), group.tolist()))
        ingest_csv(f, ["x", "y"])  # first-call allocations not counted
        tracemalloc.start()
        try:
            values, reasons = ingest_csv(f, ["x", "y"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [col.dtype for col in values] == [np.float64] * 2
        assert values[0].tobytes() == x.tobytes() and reasons == {}
        assert values[1].tobytes() == y.tobytes()
        assert peak < 1.5 * sum(col.nbytes for col in values)

    def test_a_cr_in_the_header_is_not_read_whole(self, tmp_path,
                                                   monkeypatch):
        f = tmp_path / "cr.csv"
        # csv.reader ends the header at the CR, so "2,3" is the first row
        f.write_bytes(b"1\r2,3\n" + b"4,5\n" * 8)
        want = ingest_rowwise(f, ["1"])
        g = tmp_path / "quoted.csv"
        # csv.reader keeps the quoted CR in the name of column 0; split at
        # the CR, np.loadtxt would read "3" under column "4", and the blank
        # line would hide that extra row from the LF count
        g.write_bytes(b'"a\r1,2",3,4\n5,6,7\n\n')
        want_quoted = ingest_rowwise(g, ["4"])

        def whole_read(*args, **kwargs):
            raise AssertionError("the body was read whole")

        monkeypatch.setattr(np, "loadtxt", whole_read)
        (got,), _ = ingest_csv(f, ["1"])
        assert got.tolist() == [2.0] + [4.0] * 8
        assert got.tobytes() == want[0][0].tobytes()
        (got,), _ = ingest_csv(g, ["4"])
        assert got.tolist() == [7.0]
        assert got.tobytes() == want_quoted[0][0].tobytes()

    def test_no_requested_column_is_empty_after_a_whole_read(
            self, tmp_path, monkeypatch):
        f = tmp_path / "clean.csv"
        f.write_text("a,b\n" + "1,2\n" * 8, encoding="utf-8")
        assert cli._loadtxt_body(f, []).shape == (0, 8)
        with pytest.raises(EmptyAfterFilter):
            ingest_csv(f, [])

    def test_a_blank_body_raises_no_warning(self, tmp_path, monkeypatch):
        f = tmp_path / "blank.csv"
        f.write_text("a,b\n" + "\r\n" * 10, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyAfterFilter):
                ingest_csv(f, ["a", "b"])

    def test_a_plain_table_named_gz_is_read_as_text(self, tmp_path,
                                                    monkeypatch):
        # np.loadtxt would gunzip a path ending in .gz and fail
        f = tmp_path / "t.csv.gz"
        f.write_text("a,b\n" + "1,2\n3,4\n" * 4, encoding="utf-8")
        assert_same_ingest(ingest_csv(f, ["a", "b"]),
                           ingest_rowwise(f, ["a", "b"]))

    @staticmethod
    def walked_rows(monkeypatch):
        """Rows that reach `_row_problem`, in the order they reach it."""
        walked = []
        problem = cli._row_problem

        def counted(row, idx):
            walked.append(row)
            return problem(row, idx)

        monkeypatch.setattr(cli, "_row_problem", counted)
        return walked

    def test_a_dirty_body_walks_each_nonblank_row_once(self, tmp_path,
                                                       monkeypatch):
        # the bad row keeps the body from being read whole; the walk skips
        # the blank lines and passes every other row once, in file order
        f = tmp_path / "dirty.csv"
        f.write_text("a,b\n1,2\n\n3,4\nx,2\n" + "5,6\n" * 4 + "\n7,8\n",
                     encoding="utf-8")
        walked = self.walked_rows(monkeypatch)
        values, reasons = ingest_csv(f, ["a", "b"])
        assert (values[0].size, reasons) == (7, {"non_numeric": 1})
        assert walked == [["1", "2"], ["3", "4"], ["x", "2"],
                          *[["5", "6"]] * 4, ["7", "8"]]

    def test_a_quote_sends_the_rest_of_the_file_to_csv_reader(
            self, tmp_path, monkeypatch):
        # The quoted field "4\n" spans lines 3 and 4; its quotes keep the
        # body from being read whole, so every row is walked.
        f = tmp_path / "quoted.csv"
        f.write_text('a,b\n1,2\n1,2\n3,"4\n"\n5,6\n7,8\n',
                     encoding="utf-8")
        walked = self.walked_rows(monkeypatch)
        (_, b), _ = ingest_csv(f, ["a", "b"])
        assert b.tolist() == [2.0, 2.0, 4.0, 6.0, 8.0]
        assert walked == [["1", "2"], ["1", "2"], ["3", "4\n"], ["5", "6"],
                          ["7", "8"]]

    def test_blank_lines_in_a_walk_raise_no_warning(self, tmp_path,
                                                    monkeypatch):
        # runs of blank LF, CRLF and CR lines, in a body that is walked
        f = tmp_path / "blank.csv"
        f.write_text("a,b\n1,2\n" + "\n" * 4 + "\r\n\r" + "3,4\n"
                     + "\r\n" * 3 + "\r" * 3 + "x,5\n", encoding="utf-8")
        walked = self.walked_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, reasons = ingest_csv(f, ["a", "b"])
        assert walked == [["1", "2"], ["3", "4"], ["x", "5"]]
        assert (values[0].size, sum(reasons.values())) == (2, 1)

    def test_a_long_walk_matches_the_rowwise_loop(self):
        # 9000 walked rows, with a bad row of each kind at rows 8191-8193
        # and one at the end
        rows = [f"{i * 0.37!r},{i % 7},{-i}" for i in range(9000)]
        rows[8191:8194] = ["NA,1,2", "3,,4", "5"]
        rows[-1] = "6,abc,7"
        text = "\n".join(["a,b,c"] + rows) + "\n"
        for columns in (["a", "b"], ["c", "a"], ["b"]):
            assert_ingest_matches_rowwise(text, columns)

    def test_a_walk_holds_no_list_of_rows(self, tmp_path):
        # one NA cell sends 1e5 rows to the walk; its peak stays near the
        # fromiter table and its column copies, twice the kept values
        rows = [f"{i * 0.37!r},{i % 31},{i % 5}" for i in range(100_000)]
        rows[50_000] = "NA,1,2"
        f = tmp_path / "walk.csv"
        f.write_text("\n".join(["a,b,c"] + rows) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            values, reasons = ingest_csv(f, ["a", "b"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (values[0].size, reasons) == (99_999, {"non_numeric": 1})
        kept_bytes = sum(col.nbytes for col in values)
        assert peak < 2.5 * kept_bytes

    def test_drop_reasons_counted(self, tmp_path):
        f = tmp_path / "messy.csv"
        f.write_text(
            "a,b\n1,2\n3\n4,\n5,abc\n6,nan\n7,inf\n8,9\n",
            encoding="utf-8",
        )
        values, reasons = ingest_csv(f, ["a", "b"])
        assert values[0].size == 2
        assert sum(reasons.values()) == 5
        assert reasons == {"short_row": 1, "empty_field": 1,
                           "non_numeric": 3}

    def test_bom_and_padded_headers(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes("﻿ a , b\n1,2\n".encode("utf-8"))
        (a, _), _ = ingest_csv(f, ["a", "b"])
        assert a.tolist() == [1.0]

    @pytest.mark.parametrize("body, dtype", [("1,2\n3,4\n", np.int64),
                                             ("1,2\nx,4\n5,6\n", np.float64)],
                             ids=["whole", "walked"])
    def test_a_name_asked_twice_gives_two_equal_arrays(self, tmp_path, body,
                                                       dtype):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n" + body, encoding="utf-8")
        values, reasons = ingest_csv(f, ["b", "a", "b"])
        assert_same_ingest((values, reasons),
                           ingest_rowwise(f, ["b", "a", "b"]), dtype)
        assert values[0].tobytes() == values[2].tobytes()

    def test_all_rows_dropped(self, tmp_path):
        f = tmp_path / "junk.csv"
        f.write_text("a\nx\ny\n", encoding="utf-8")
        with pytest.raises(EmptyAfterFilter):
            ingest_csv(f, ["a"])

    def test_missing_pieces(self, tmp_path):
        with pytest.raises(FileNotFound):
            ingest_csv(tmp_path / "ghost.csv", ["a"])
        f = tmp_path / "one.csv"
        f.write_text("x,y\n1,2\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            ingest_csv(f, ["z"])

    def test_drop_report_reaches_cli_warnings(self, tmp_path):
        f = tmp_path / "messy.csv"
        f.write_text("a\n1\n2\nbad\n3\n4\n", encoding="utf-8")
        code, text = run_cli(["describe", "--col", "a", "--data", str(f),
                              "--order", "1"])
        assert code == 0
        doc = json.loads(text)
        assert any("dropped" in w for w in doc["warnings"])


# each zero in a signed tied table is written one of four ways
ZEROS = ["0", "-0", "0.0", "-0.0"]


@st.composite
def signed_tied_tables(draw):
    """Rows of x, y and a label g, and a shuffle of rows of equal value.

    x and y hold integers in -2..2 and g holds 0 or 1, each zero spelt as
    one of `ZEROS`. The shuffle trades rows that are equal as numbers, so
    it moves which spelling of a zero comes first and nothing else.
    """
    cell = st.sampled_from(["-2", "-1", "1", "2", *ZEROS])
    label = st.sampled_from(["1", *ZEROS])
    rows = draw(st.lists(st.tuples(cell, cell, label), min_size=6,
                         max_size=20))
    alike = {}
    for i, row in enumerate(rows):
        alike.setdefault(tuple(map(float, row)), []).append(i)
    shuffled = list(rows)
    for where in alike.values():
        for i, j in zip(where, draw(st.permutations(where))):
            shuffled[i] = rows[j]
    return [",".join(r) for r in rows], [",".join(r) for r in shuffled]


DATA_COMMANDS = [
    ["describe", "--col", "x"],
    ["depend", "--x", "x", "--y", "y"],
    ["regress", "--x", "x", "--y", "y"],
    ["cquantile", "--x", "x", "--y", "y"],
    ["fit", "--col", "y", "--g", "normal"],
    ["twosample", "--y", "y", "--group", "g"],
]


class TestSignOfZero:
    """Every zero is read as +0.0, so no output depends on how a zero is
    written or on which spelling of it comes first."""

    @settings(deadline=None, max_examples=40)
    @given(signed_tied_tables())
    def test_a_shuffle_of_equal_rows_prints_the_same_bytes(self, tables):
        # A free shuffle would also reorder the row sums of statistics
        # such as twosample's r, whose round-off prints where the exact
        # value is 0.
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            f = Path(tmp) / "t.csv"
            for rows in tables:
                f.write_text("\n".join(["x,y,g", *rows, ""]),
                             encoding="utf-8")
                with contextlib.redirect_stderr(io.StringIO()):
                    outputs.append([run_cli([*argv, "--data", str(f)])
                                    for argv in DATA_COMMANDS])
        assert outputs[0] == outputs[1]


@st.composite
def scaled_tables(draw):
    """CSV text of a small dependent table x, y, g, its columns scaled by
    powers of ten from 10**-300 to 10**300."""
    n = draw(st.integers(2, 30))
    cells = st.lists(st.integers(0, draw(st.integers(1, 10))), min_size=n,
                     max_size=n)
    x, noise = draw(cells), draw(cells)
    g = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    sx, sy = (10.0 ** draw(st.integers(-300, 300)) for _ in "xy")
    rows = [f"{a * sx!r},{(a + b) * sy!r},{c}"
            for a, b, c in zip(x, noise, g)]
    return "\n".join(["x,y,g", *rows, ""])


BIG_Y = "x,y,g\n1,1e200,0\n2,3e200,1\n3,-2e200,0\n4,5e199,1\n5,1.5e200,1\n"


class TestFloatingPointFaults:
    """A floating-point fault in a command is a named refusal (exit 3),
    not a number printed after a numpy warning."""

    @settings(deadline=None, max_examples=60)
    @example(text=BIG_Y, order=4)
    @given(text=scaled_tables(), order=st.integers(1, 8))
    def test_every_run_succeeds_quietly_or_refuses_by_name(self, text,
                                                            order):
        unexpected = []

        def spy(exc):
            unexpected.append(exc)
            return 3

        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_unexpected", spy)
            f = Path(tmp) / "t.csv"
            f.write_text(text, encoding="utf-8")
            for argv in DATA_COMMANDS:
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as seen, \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code, _ = run_cli([*argv, "--data", str(f),
                                       "--order", str(order)])
                # numpy reports a floating-point fault as a RuntimeWarning
                assert [w for w in seen
                        if issubclass(w.category, RuntimeWarning)] == []
                assert unexpected == []
                assert code == 0 or (code in (2, 3)
                                     and err.getvalue().startswith("error: "))

    def test_a_spread_that_underflows_is_refused_by_name(self):
        # the golden table whose y has sd 0: the rank commands print it,
        # and depend refuses its correlations
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["depend", "--x", "x", "--y", "y",
                                 "--data", "data/underflow.csv"])
        assert (code, out) == (3, "")
        assert err.getvalue() == "error: zero variance in correlation input\n"

    def test_a_python_float_overflow_is_refused_by_name(self, tmp_path):
        # the pooled variance squares the group means' gap, 2e154, as a
        # Python float, outside numpy's error state
        f = tmp_path / "gap.csv"
        f.write_text("y,g\n0,0\n0,0\n2e154,1\n2e154,1\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["twosample", "--y", "y", "--group", "g",
                                 "--data", str(f)])
        assert (code, out) == (3, "")
        assert err.getvalue() == "error: floating-point overflow\n"

    def test_an_overflow_is_refused_and_numpy_state_restored(self,
                                                             tmp_path):
        # y of order 1e200 overflows the square in each variance of y
        f = tmp_path / "big.csv"
        f.write_text(BIG_Y, encoding="utf-8")
        before = np.geterr()
        for argv in [["describe", "--col", "y"], *DATA_COMMANDS[1:]]:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run_cli([*argv, "--data", str(f)])
            assert (code, out) == (3, "")
            assert err.getvalue() == (
                "error: floating-point overflow encountered in square\n")
            assert np.geterr() == before
        assert issubclass(cli.FloatingPointFault, LPStatsError)


# In a fresh interpreter: one command, then a 16 MiB array made, written
# and freed twice; prints the minor page faults of the second.
REUSE = """
import contextlib, io, resource
import numpy as np
from lpstats.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["describe", "--col", "GAG"])
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    np.ones(1 << 21)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="sets glibc's malloc thresholds")
class TestFreedMemory:
    def test_a_freed_block_is_reused_without_faults(self):
        # under glibc's default thresholds the second block faulted anew,
        # on about 520 of its 4096 pages
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", REUSE], capture_output=True, text=True,
            timeout=120, check=True, env={**os.environ, "PYTHONPATH": src})
        assert int(done.stdout) < 100

    def test_elsewhere_than_linux_nothing_is_called(self, monkeypatch):
        # the cached call has already run; its body runs again unwrapped
        monkeypatch.setattr(sys, "platform", "darwin")
        cdll = mock.Mock()
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_memory.__wrapped__() is None
        cdll.assert_not_called()
