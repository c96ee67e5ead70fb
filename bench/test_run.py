"""Self-test of the benchmark. Run from the repository root with

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import COMMAND_ARGS, WORKLOADS, draw, write_csv  # noqa: E402

TINY_N = 120
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.csv"
    write_csv(path, draw("tied", TINY_N, 3))
    return path


def _describe(table):
    from lpstats import cli

    argv = COMMAND_ARGS["describe"] + ["--data", str(table)]
    rc, text, problem, _ = run.invoke(cli.main, argv)
    assert rc == 0 and problem is None
    return text


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    res = run.run_workload(name, seed=7, seconds=0.01, trace=trace,
                           n=TINY_N, out_dir=tmp_path)
    summary = res["summary"]
    assert summary["correct"], res["failures"] + res["problems"]
    assert summary["failed"] == 0 and summary["attempted"] >= 2
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for key, metric in summary["metrics"].items():
        if key != "trace.overhead_frac":
            assert metric["value"] > 0, key
    if trace:
        assert res["trace_check"]["violations"] == 0
        if set(WORKLOADS[name].commands) == set(COMMAND_ARGS):
            assert set(run.PER_LAYER + run.PER_LAYER_WHERE_REACHED) <= \
                set(res["per_layer"])
    else:
        assert {f"{c}_s" for c in WORKLOADS[name].commands} <= \
            set(res["metrics"])
    assert (tmp_path / f"{name}-seed7-trace{int(trace)}.json").is_file()


def test_declared_workloads_match():
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [m["name"] for m in DECLARED["per_layer"]] == list(run.PER_LAYER)


def test_inputs_repeat_for_a_seed(tmp_path):
    for shape in ("continuous", "tied", "rounded"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, draw(shape, 500, 5))
        write_csv(b, draw(shape, 500, 5))
        assert a.read_bytes() == b.read_bytes()
        write_csv(b, draw(shape, 500, 6))
        assert a.read_bytes() != b.read_bytes()


def test_each_flipped_byte_is_caught(tiny_table):
    text = _describe(tiny_table)
    digest, problems = run.check_output(0, text, TINY_N)
    assert problems == []
    for pos in range(0, len(text), max(1, len(text) // 40)):
        bad = text[:pos] + chr(ord(text[pos]) ^ 1) + text[pos + 1:]
        _, problems = run.check_output(0, bad, TINY_N, reference=digest)
        assert problems, pos


def test_each_check_can_fail(tiny_table):
    text = _describe(tiny_table)
    doc = json.loads(text)
    assert run.check_output(2, text, TINY_N)[1] == ["exit code 2"]
    assert run.check_output(0, text, TINY_N + 1)[1][0].startswith(
        "payload.n")
    assert run.check_output(0, text[:-3], TINY_N)[1] == \
        ["output is not valid JSON"]
    doc["warnings"] = ["dropped 1 rows (short_row: 1)"]
    assert run.check_output(0, json.dumps(doc), TINY_N)[1] == \
        ["warnings is not empty"]


def test_a_corrupted_invocation_counts_as_failed(tiny_table):
    from lpstats import cli

    calls = []

    class Corrupting:
        """The CLI, with one byte of its second output flipped."""

        @staticmethod
        def main(argv):
            rc = cli.main(argv)
            calls.append(argv)
            if len(calls) == 2:
                out = sys.stdout
                text = out.getvalue()
                out.seek(len(text) // 2)
                out.write(chr(ord(text[len(text) // 2]) ^ 1))
            return rc

    session = run.Session(Corrupting, WORKLOADS["bulk-tied"], tiny_table,
                          TINY_N, probe=lambda: run.PROBE_REFERENCE_S)
    for _ in range(3):
        session.call("describe", 0, "timed")
    assert session.attempted == 3 and session.failed == 1
    assert [r["ok"] for r in session.records] == [True, False, True]


def test_tracer_rebinds_and_restores():
    import lpstats
    from lpstats import copula, scores

    original = scores.build_score_basis
    tracer = Tracer()
    tracer.install()
    try:
        assert copula.build_score_basis is not original
        assert copula.build_score_basis is scores.build_score_basis
        assert lpstats.build_score_basis is scores.build_score_basis
    finally:
        tracer.uninstall()
    assert copula.build_score_basis is original
    assert lpstats.build_score_basis is original


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(range(1, 26)) == (15, 60.0, 10)
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + cmd[1:] + ["--workload", "bulk-tied", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
