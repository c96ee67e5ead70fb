"""Benchmark of the lpstats CLI: seeded CSV tables through `cli.main(argv)`.

Run from the repository root:

    python3 bench/run.py --workload bulk-tied --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload in turn
    python3 -m pytest -q bench                       # the benchmark's self-test

Load model: a closed loop with one client in one process. The next
invocation starts only when the previous one has returned, and output is
captured in memory. A pass is one invocation of each command in the
workload's mix. A run times a fixed number of whole passes, as many as the
workload's nominal pass time fits into --seconds at reference speed (see
below), so every run pools the same samples of every command; on a host so
slow that timing passes WALL_CAP times --seconds, the run stops early.
Before timing, one untimed pass over the table's first rows fills lazy
imports and caches.

`--trace 0` times each invocation end to end and reports the end-to-end
metrics. `--trace 1` alternates untraced passes with passes traced by
`spans.py` and reports the per-layer metrics, per traced pass, together with
the tracing overhead. Every invocation's output is checked: exit code 0, the
JSON parses, `payload.n` is the generated row count, `warnings` is empty,
and the bytes equal those of the first invocation of that command.

The host's speed drifts, so the speed probe of `speed.py` runs between
invocations and in each interpreter start, and each time is reported in
seconds at reference speed: the measured time times the probe's reference
time over the mean time of the probes just before and just after it. The
measured values are kept in the results file.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full results (input
properties, environment, output digests, every metric with its sample count)
are written to `bench/out/`. Exit code: 0 when every check passed, 1 when
one failed, 2 when the package source is missing or the input is invalid.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import io
import json
import os
import resource
import statistics
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import Tracer, self_times, write_spans
from speed import PROBE_REFERENCE_S, SpeedProbe
from workloads import COMMAND_ARGS, WORKLOADS, draw, properties, write_csv

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_STARTS = 5     # timed interpreter starts behind setup_s
TAIL_BEYOND = 10     # samples that must lie beyond the tail percentile
WARMUP_ROWS = 1000   # rows of the table the untimed warm-up pass reads
WALL_CAP = 1.5       # a slow host stops timing after this many --seconds

# The metrics the driver-facing result line carries; each applies to every
# workload. Names and units match BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "cli.ingest_csv.self_s", "cli.ingest_csv.bytes",
    "cli.render_json.self_s", "cli.render_json.bytes", "cli.main.self_s",
    "empirical.make_sample.self_s", "empirical.make_sample.calls",
    "empirical.mid_quantile.calls",
    "scores.build_score_basis.self_s", "scores.build_score_basis.calls",
    "lp.lp_comoments.self_s", "copula.fit_copula.self_s",
    "trace.overhead_frac",
)
# Layer metrics recorded in the results file wherever the workload reaches
# them; only some workloads run the functions behind them.
PER_LAYER_WHERE_REACHED = (
    "scores.legendre_eval.calls", "lp.correlations.self_s",
    "compdensity.l2_fit.self_s", "compdensity.maxent_fit.self_s",
    "compdensity.maxent_fit.iterations", "compdensity.eval_density.self_s",
    "copula.eval_copula.self_s", "copula.series_regression.self_s",
    "copula.quantile_curves.self_s", "copula.conditional_slice.calls",
    "copula.slice_modes.self_s",
    "twosample.analyze.self_s", "twosample.two_sample_comp_density.self_s",
    "twosample.two_sample_comp_density.calls", "twosample.classify.self_s",
)
_UNITS = {"self_s": "s", "calls": "count", "bytes": "bytes",
          "iterations": "count", "overhead_frac": "frac"}


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or _UNITS[metric.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# one invocation and its output check

def invoke(main, argv):
    """Call the CLI entry point with output captured in memory.

    Returns (exit code or None, stdout text, problem or None, wall seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        rc = exc.code
    except Exception:  # a raise is a failed invocation, not a crash
        rc = None
        problem = "raised: " + traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    if problem is None and err.getvalue():
        problem = "stderr: " + err.getvalue().strip()[:200]
    return rc, out.getvalue(), problem, wall


def check_output(rc, text: str, n: int, reference: str | None = None):
    """Return (sha256 of the text, list of failed checks)."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        doc = json.loads(text)
    except ValueError:
        problems.append("output is not valid JSON")
    else:
        payload = doc.get("payload") if isinstance(doc, dict) else None
        got = payload.get("n") if isinstance(payload, dict) else None
        if got != n:
            problems.append(f"payload.n is {got!r}, expected {n}")
        if not isinstance(doc, dict) or doc.get("warnings") != []:
            problems.append("warnings is not empty")
    if reference is not None and digest != reference:
        problems.append("output differs from the first invocation")
    return digest, problems


class Session:
    """Runs and checks the invocations of one workload on one input file."""

    def __init__(self, cli, workload, data_path: Path, n: int, probe):
        self.cli = cli
        self.workload = workload
        self.data_path = data_path
        self.n = n
        self.probe = probe
        self._last_probe = None  # the probe run just after the last call
        self.records = []       # one dict per invocation
        self.digests = {}       # command -> sha256 of its first output
        self.failures = []      # (invocation, command, problem)

    def call(self, command: str, pass_no: int, phase: str,
             tracer=None) -> float:
        argv = COMMAND_ARGS[command] + ["--data", str(self.data_path)]
        index = len(self.records)
        if tracer is not None:
            tracer.invocation = index
        gc.collect()
        before = self._last_probe or self.probe()
        # Looked up at call time so that a traced run calls the wrapper.
        rc, text, problem, wall = invoke(self.cli.main, argv)
        self._last_probe = self.probe()
        # The host's speed during the call, from the probes on either side.
        probe = (before + self._last_probe) / 2
        digest, problems = check_output(rc, text, self.n,
                                        self.digests.get(command))
        self.digests.setdefault(command, digest)
        if problem:
            problems.append(problem)
        for p in problems:
            self.failures.append((index, command, p))
        self.records.append({"pass": pass_no, "command": command,
                             "phase": phase, "wall": wall, "probe": probe,
                             "scaled": wall * PROBE_REFERENCE_S / probe,
                             "ok": not problems})
        return wall

    def run_pass(self, pass_no: int, phase: str, tracer=None) -> float:
        return sum(self.call(c, pass_no, phase, tracer)
                   for c in self.workload.commands)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


def timed_loop(steps: int, cap_s: float, step) -> int:
    """Call step(i) for i < steps, stopping early once `cap_s` seconds have
    passed; at least one step runs. Returns how many did."""
    start = time.perf_counter()
    for i in range(steps):
        step(i)
        if time.perf_counter() - start > cap_s:
            return i + 1
    return steps


# ---------------------------------------------------------------------------
# set-up time, environment

# Imports the CLI, then times the speed probe in the same fresh process and
# prints the probe's time and the seconds spent after the import.
_SETUP_CHILD = """\
import time
import lpstats.cli
imported = time.perf_counter()
from speed import SpeedProbe
probe = SpeedProbe()
probe()
print(probe(), time.perf_counter() - imported)
"""


def measure_setup(starts: int = SETUP_STARTS):
    """Seconds for a fresh interpreter to start and import lpstats.cli, per
    start, and the speed probe's time in that interpreter.

    One extra start runs first and is not counted: it may compile bytecode.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT / "bench"), env.get("PYTHONPATH"))
        if p)
    times, probes = [], []
    for i in range(starts + 1):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=env,
                             cwd=ROOT, check=True, timeout=120,
                             stdout=subprocess.PIPE, text=True).stdout
        wall = time.perf_counter() - t
        probed, after = map(float, out.split())
        if i:
            times.append(wall - after)
            probes.append(probed)
    return times, probes


def _openblas_threads():
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    source = hashlib.sha256()
    for path in sorted((SRC / "lpstats").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# metrics

def tail(samples):
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it; the maximum when
    there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0, 0
    return ordered[rank - 1], 100.0 * rank / len(ordered), TAIL_BEYOND


def end_to_end(session: Session, setup):
    """(driver-facing metrics, every end-to-end metric with its detail).

    Each time is first scaled to reference speed by the probes around it;
    the same statistics of the measured times are kept as `measured`.
    """
    setup_times, setup_probes = setup
    timed = [r for r in session.records if r["phase"] == "timed"]
    walls = [r["wall"] for r in timed]
    scaled = [r["scaled"] for r in timed]
    value, pct, beyond = tail(scaled)
    metrics = {
        "setup_s": statistics.median(
            t * PROBE_REFERENCE_S / p for t, p in zip(setup_times,
                                                      setup_probes)),
        "latency_s.p50": statistics.median(scaled),
        "latency_s.tail": value,
        "rows_per_s": session.n * len(scaled) / sum(scaled),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "setup_s": statistics.median(setup_times),
        "latency_s.p50": statistics.median(walls),
        "latency_s.tail": tail(walls)[0],
        "rows_per_s": session.n * len(walls) / sum(walls),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    detail = {name: {"value": v, "unit": unit_of(name),
                     "measured": measured[name]}
              for name, v in metrics.items()}
    detail["latency_s.tail"].update(percentile=pct, beyond=beyond,
                                    samples=len(walls))
    detail["setup_s"]["samples"] = setup_times
    for command in session.workload.commands:
        mine = [r for r in timed if r["command"] == command]
        detail[f"{command}_s"] = {
            "value": statistics.median(r["scaled"] for r in mine),
            "unit": "s", "samples": len(mine),
            "measured": statistics.median(r["wall"] for r in mine)}
    detail["slowdown"] = {
        "value": statistics.median(r["probe"] for r in timed)
        / PROBE_REFERENCE_S,
        "unit": "x", "setup": statistics.median(setup_probes)
        / PROBE_REFERENCE_S}
    return metrics, detail


def layer_metrics(session: Session, tracer, untraced, traced):
    """Per-layer metrics from the traced passes, each a median per pass.

    Self times are scaled to reference speed by the probes around their
    invocation.

    Returns (metrics, self time and calls by function, functions whose call
    count differs between passes).
    """
    selfs = self_times(tracer.spans)
    invocation_pass = {i: r["pass"] for i, r in enumerate(session.records)}
    per_pass = defaultdict(lambda: defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "value": 0.0}))
    for span, own in zip(tracer.spans, selfs):
        entry = per_pass[invocation_pass[span.invocation]][span.name]
        entry["self_s"] += own * PROBE_REFERENCE_S / \
            session.records[span.invocation]["probe"]
        entry["calls"] += 1
        if span.value is not None:
            entry["value"] += span.value
    passes = sorted(per_pass)
    names = sorted({name for p in passes for name in per_pass[p]})

    def in_pass(p, name, field):
        value = per_pass[p][name][field]
        if name == "cli.main" and field == "self_s":
            # argparse, envelope and cmd_* glue
            value += sum(e["self_s"] for k, e in per_pass[p].items()
                         if k.startswith("cli.cmd_"))
        return value

    def median_of(name, field):
        return statistics.median(in_pass(p, name, field) for p in passes)

    table = {name: {"self_s": statistics.median(
                        per_pass[p][name]["self_s"] for p in passes),
                    "calls": median_of(name, "calls")} for name in names}
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / total if total else 0.0
    field = {"self_s": "self_s", "calls": "calls", "bytes": "value",
             "iterations": "value"}
    metrics = {}
    for metric in PER_LAYER + PER_LAYER_WHERE_REACHED:
        if metric == "trace.overhead_frac":
            metrics[metric] = (statistics.median(traced)
                               / statistics.median(untraced) - 1.0)
            continue
        name, kind = metric.rsplit(".", 1)
        if name not in table:
            continue
        metrics[metric] = median_of(name, field[kind])
    unequal = sorted(name for name in names
                     if len({per_pass[p][name]["calls"] for p in passes}) > 1)
    return metrics, table, unequal


def trace_check(session: Session, tracer) -> dict:
    """Top-level spans of each traced invocation must fit in its wall time."""
    top = defaultdict(float)
    for span in tracer.spans:
        if span.parent is None:
            top[span.invocation] += span.end - span.start
    violations = [i for i, spent in top.items()
                  if spent > session.records[i]["wall"]]
    return {"invocations": len(top), "violations": len(violations)}


# ---------------------------------------------------------------------------
# one workload, end to end

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, out_dir: Path = OUT) -> dict:
    """Generate the input, run the workload and return the full results.

    `n` overrides the workload's row count (the self-test runs at tiny n).
    """
    from lpstats import cli

    workload = WORKLOADS[name]
    n = workload.n if n is None else n
    cap_s = WALL_CAP * seconds
    probe = SpeedProbe()
    setup = None if trace else measure_setup()
    # The CLI echoes --data into its output, so the input's path is fixed
    # and relative: outputs of the same seed are then byte-identical across
    # runs and checkouts, and their digests can be compared.
    tmp = Path(os.path.relpath(out_dir / f"input-{name}-seed{seed}"))
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        data_path = tmp / f"{name}.csv"
        warm_path = tmp / f"{name}-warmup.csv"
        cols = draw(workload.shape, n, seed)
        props = properties(cols, write_csv(data_path, cols))
        warm_n = min(n, WARMUP_ROWS)
        write_csv(warm_path, {k: (v[:warm_n], fmt)
                              for k, (v, fmt) in cols.items()})
        del cols
        problems = []
        if workload.shape == "continuous" and \
                (props["r_x"], props["r_y"]) != (n, n):
            problems.append("continuous columns have ties")

        # Lazy imports and caches fill on a small table, so the full-size
        # work of the warm-up pass does not add to the run's set-up.
        warm = Session(cli, workload, warm_path, warm_n, probe)
        warm.run_pass(0, "warmup")
        session = Session(cli, workload, data_path, n, probe)
        results = {"workload": name, "seed": seed, "seconds": seconds,
                   "trace": int(trace), "n": n, "why": workload.why,
                   "commands": list(workload.commands),
                   "load_model": "closed loop, 1 client, in process",
                   "input": props}
        if not trace:
            passes = timed_loop(
                max(1, round(seconds / workload.pass_s)), cap_s,
                lambda i: session.run_pass(i + 1, "timed"))
            metrics, detail = end_to_end(session, setup)
            results["metrics"] = detail
        else:
            tracer = Tracer()
            untraced, traced = [], []

            def pair(i):
                untraced.append(session.run_pass(2 * i + 1, "untraced"))
                tracer.install()
                try:
                    traced.append(
                        session.run_pass(2 * i + 2, "traced", tracer))
                finally:
                    tracer.uninstall()

            passes = 2 * timed_loop(
                max(1, round(seconds / (2 * workload.pass_s))), cap_s, pair)
            metrics, table, unequal = layer_metrics(
                session, tracer, untraced, traced)
            missing = [m for m in PER_LAYER if m not in metrics]
            if missing:
                problems.append(f"layers not reached: {missing}")
            if unequal:
                problems.append(f"call counts differ between passes: "
                                f"{unequal}")
            check = trace_check(session, tracer)
            if check["violations"]:
                problems.append(f"top-level spans exceed wall time in "
                                f"{check['violations']} invocations")
            # The timed run of the same seed and source, when there is one,
            # must have produced the same bytes.
            timed_run = out_dir / f"{name}-seed{seed}-trace0.json"
            if timed_run.is_file():
                timed = json.loads(timed_run.read_text(encoding="utf-8"))
                if (timed["n"], timed["environment"]["source_sha256"]) == \
                        (n, environment()["source_sha256"]):
                    same = timed["digests"] == session.digests
                    check["timed_run_digests_match"] = same
                    if not same:
                        problems.append("outputs differ from the timed run")
            results["per_layer"] = {m: {"value": v, "unit": unit_of(m)}
                                    for m, v in metrics.items()}
            results["spans_by_function"] = table
            results["trace_check"] = check
            results["spans"] = len(tracer.spans)
            with gzip.open(out_dir / f"{name}-seed{seed}-spans.csv.gz",
                           "wt", encoding="ascii") as fh:
                write_spans(fh, tracer.spans)
            metrics = {m: metrics[m] for m in PER_LAYER if m in metrics}
    finally:
        shutil.rmtree(tmp)
    results["passes"] = passes
    results["digests"] = session.digests
    results["invocations"] = session.records
    results["failures"] = [
        {"table": s.data_path.name, "invocation": i, "command": c,
         "problem": p}
        for s in (warm, session) for i, c, p in s.failures][:20]
    results["problems"] = problems
    results["environment"] = environment()
    failed = warm.failed + session.failed
    attempted = warm.attempted + session.attempted
    results["failed_frac"] = {"value": failed / attempted, "unit": "frac",
                              "failed": failed, "attempted": attempted}
    results["summary"] = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)}
                    for m, v in metrics.items()},
    }
    (out_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return results


def report(results: dict) -> None:
    """Print every metric by name with its unit, for a human reader."""
    head = (f"{results['workload']}  seed {results['seed']}  "
            f"n {results['n']}  passes {results['passes']}  "
            f"trace {results['trace']}")
    print(head)
    print("  input: " + ", ".join(f"{k}={v}" for k, v in
                                  results["input"].items()))
    rows = results.get("metrics") or results.get("per_layer")
    for name, m in rows.items():
        extra = ""
        if "measured" in m and m["unit"] != "MB":
            extra += f"  (measured {m['measured']:.6g})"
        if "percentile" in m:
            extra += (f"  (p{m['percentile']:.1f}, {m['beyond']} of "
                      f"{m['samples']} samples beyond)")
        elif "samples" in m and not isinstance(m["samples"], list):
            extra += f"  ({m['samples']} samples)"
        value = m["value"]
        shown = f"{value:.0f}" if m["unit"] in ("count", "bytes") \
            else f"{value:.6g}"
        print(f"  {name:42s} {shown} {m['unit']}{extra}")
    f = results["failed_frac"]
    print(f"  {'failed_frac':42s} {f['value']:.6g} frac  "
          f"({f['failed']} of {f['attempted']} invocations)")
    if "spans_by_function" in results:
        top = sorted(results["spans_by_function"].items(),
                     key=lambda kv: -kv[1]["self_s"])[:3]
        print("  largest self time: " + ", ".join(
            f"{k} {v['share']:.0%}" for k, v in top))
        print(f"  trace check: {results['trace_check']}")
    for f in results["failures"]:
        print(f"  FAILED {f['table']} invocation {f['invocation']} "
              f"{f['command']}: {f['problem']}")
    for p in results["problems"]:
        print(f"  FAILED: {p}")


def run_all(args) -> int:
    """Run each workload in its own process, one after the other."""
    summary, worst = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except ValueError:
            summary[name] = None
        worst = max(worst, proc.returncode)
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lpstats" / "cli.py").is_file():
        print(f"error: no lpstats source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    report(results)
    summary = results["summary"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
