"""Acceptance gate: one test per release criterion, stated tolerances.

Each test prints a single `[acceptance] C## name: PASS|FAIL` line (visible
with `pytest -s`, and in the captured output of any failing test) and
asserts afterwards, so a red criterion carries its full numeric detail.
"""

import io
import json
import math
import time
import contextlib
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import kstest, ttest_ind

from lpstats import (
    GroupSummary,
    analyze,
    bayes_normal_update,
    build_score_basis,
    combine,
    conditional_mean,
    conditional_slice,
    eval_copula,
    eval_density,
    fit_copula,
    gof_distance,
    group_summary,
    l2_fit,
    legendre_eval,
    make_sample,
    maxent_fit,
    recursive_update,
    simulate_skew_g,
    student_t,
    uniform_reference,
    wilcoxon,
)
from lpstats.cli import main

from conftest import random_sample_values
from test_cli import GOLDEN_CASES

HERE = Path(__file__).parent

# C01 and C02 pin published values of the original 314-child GAG-urine
# table (columns Age, GAG), e.g. the GAGurine data of R's MASS package.
# The bundled gagurine.csv is a simulated surrogate that cannot match them,
# so they run only where the original table has been placed at this path.
ORIGINAL_TABLE = HERE / "data" / "gagurine_original.csv"
needs_original_table = pytest.mark.skipif(
    not ORIGINAL_TABLE.is_file(),
    reason="original GAG-urine table not found at "
           "tests/data/gagurine_original.csv",
)

# published reference values for the urine-screening example
GAG_LP_MOMENTS = np.array([0.90, 0.32, 0.21, 0.11, 0.12])
GAG_TAIL_INDEX = 3
AGE_GAG_COMOMENTS = np.array([
    [-0.910, -0.010, 0.009, 0.037],
    [0.032, 0.716, -0.074, 0.031],
    [0.068, 0.019, -0.587, 0.120],
    [-0.048, -0.094, -0.071, 0.421],
])
AGE_GAG_LPINFOR = 1.863


def run_cli_json(argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - t0
    assert code == 0, f"{argv} exited {code}"
    return json.loads(buf.getvalue()), elapsed


def finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {status}")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"{name}: " + " | ".join(failures)


@needs_original_table
def test_c01_gag_lp_moments():
    failures = []
    doc, elapsed = run_cli_json(["describe", "--col", "GAG",
                                 "--data", str(ORIGINAL_TABLE)])
    moments = np.array(doc["payload"]["lp_moments"])
    deltas = np.abs(moments - GAG_LP_MOMENTS)
    if np.any(deltas > 0.02):
        failures.append(
            f"lp_moments {np.round(moments, 4).tolist()} off the published "
            f"{GAG_LP_MOMENTS.tolist()} by up to {deltas.max():.3f} (> 0.02)"
        )
    if doc["payload"]["tail_index"] != GAG_TAIL_INDEX:
        failures.append(
            f"tail_index {doc['payload']['tail_index']} != {GAG_TAIL_INDEX}"
        )
    if elapsed >= 1.0:
        failures.append(f"describe took {elapsed:.2f}s (>= 1s)")
    finish("C01 gag-lp-moments", failures)


@needs_original_table
def test_c02_age_gag_comoment_matrix():
    failures = []
    doc, elapsed = run_cli_json(["depend", "--x", "Age", "--y", "GAG",
                                 "--order", "4",
                                 "--data", str(ORIGINAL_TABLE)])
    block = doc["payload"]["comoments"]
    entries = np.array(block["entries"])
    selected = np.array(block["selected"])
    deltas = np.abs(entries - AGE_GAG_COMOMENTS)
    if np.any(deltas > 0.02):
        failures.append(
            f"entries deviate from the published matrix by up to "
            f"{deltas.max():.3f} (> 0.02); worst cell "
            f"{np.unravel_index(deltas.argmax(), deltas.shape)}"
        )
    if not np.array_equal(selected, np.eye(4, dtype=bool)):
        extra = np.argwhere(selected & ~np.eye(4, dtype=bool)) + 1
        missing = np.argwhere(~selected & np.eye(4, dtype=bool)) + 1
        failures.append(
            f"selection is not exactly the diagonal: extra cells "
            f"{extra.tolist()}, missing {missing.tolist()}"
        )
    if abs(block["lpinfor"] - AGE_GAG_LPINFOR) > 0.05:
        failures.append(
            f"lpinfor {block['lpinfor']:.4f} != {AGE_GAG_LPINFOR} +- 0.05"
        )
    if elapsed >= 2.0:
        failures.append(f"depend took {elapsed:.2f}s (>= 2s)")
    finish("C02 age-gag-comoments", failures)


def test_c03_combined_sample_identities():
    failures = []
    rng = np.random.default_rng(300)
    pairs = 100000
    max_n = 20
    counts = rng.integers(1, max_n + 1, size=(pairs, 2))
    raw1 = rng.standard_normal((pairs, max_n)) * 2.0 + 1.0
    raw2 = rng.standard_normal((pairs, max_n)) - 0.5
    mask1 = np.arange(max_n) < counts[:, :1]
    mask2 = np.arange(max_n) < counts[:, 1:]
    s1 = np.where(mask1, raw1, 0.0)
    s2 = np.where(mask2, raw2, 0.0)
    n1, n2 = counts[:, 0].astype(float), counts[:, 1].astype(float)
    m1 = s1.sum(axis=1) / n1
    m2 = s2.sum(axis=1) / n2
    v1 = (s1 ** 2).sum(axis=1) / n1 - m1 ** 2
    v2 = (s2 ** 2).sum(axis=1) / n2 - m2 ** 2
    # pooled oracle straight from the raw values
    n = n1 + n2
    mp = (s1.sum(axis=1) + s2.sum(axis=1)) / n
    vp = ((s1 ** 2).sum(axis=1) + (s2 ** 2).sum(axis=1)) / n - mp ** 2

    out_m = np.empty(pairs)
    out_v = np.empty(pairs)
    out_vpool = np.empty(pairs)
    for i in range(pairs):
        res = combine(GroupSummary(n1[i], m1[i], v1[i]),
                      GroupSummary(n2[i], m2[i], v2[i]))
        out_m[i] = res.m
        out_v[i] = res.v
        out_vpool[i] = res.vpool
    tau1, tau2 = n1 / n, n2 / n
    id_m = np.max(np.abs(out_m - (tau1 * m1 + tau2 * m2)))
    id_v = np.max(np.abs(out_v - (out_vpool + tau1 * tau2 * (m2 - m1) ** 2)))
    if id_m > 1e-12:
        failures.append(f"mean identity off by {id_m:.2e} (> 1e-12)")
    if id_v > 1e-12:
        failures.append(f"variance identity off by {id_v:.2e} (> 1e-12)")
    rel_m = np.max(np.abs(out_m - mp) / np.maximum(1e-30, np.abs(mp)))
    rel_v = np.max(np.abs(out_v - vp) / np.maximum(1e-30, np.abs(vp)))
    if rel_m > 1e-10 or rel_v > 1e-10:
        failures.append(
            f"combine vs concatenation: rel mean err {rel_m:.2e}, rel var "
            f"err {rel_v:.2e} (> 1e-10)"
        )
    finish("C03 combined-sample-identities", failures)


def test_c04_recursive_squariance_identity():
    failures = []
    rng = np.random.default_rng(400)
    worst_v = worst_m = worst_inn = 0.0
    for _ in range(1000):
        y = rng.standard_normal(int(rng.integers(2, 201))) * 3.0 + 2.0
        state = group_summary(y[:1])
        innovations = 0.0
        for k, value in enumerate(y[1:], start=2):
            innovations += (value - state.m) ** 2 * (k - 1) / k
            state = recursive_update(state, float(value))
        worst_m = max(worst_m, abs(state.m - y.mean()) / max(1.0, abs(y.mean())))
        direct = y.var()
        worst_v = max(worst_v, abs(state.v - direct) / max(1e-30, direct))
        worst_inn = max(worst_inn,
                        abs(state.v - innovations / y.size) / max(1e-30, direct))
    if worst_m > 1e-10:
        failures.append(f"folded mean rel err {worst_m:.2e} (> 1e-10)")
    if worst_v > 1e-10:
        failures.append(f"folded variance rel err {worst_v:.2e} (> 1e-10)")
    if worst_inn > 1e-10:
        failures.append(f"innovations-sum rel err {worst_inn:.2e} (> 1e-10)")
    finish("C04 recursive-squariance", failures)


def test_c05_student_correlation_unification():
    failures = []
    rng = np.random.default_rng(500)
    worst_t = worst_r2 = worst_vpool = 0.0
    for _ in range(1000):
        y1 = rng.standard_normal(int(rng.integers(3, 41))) * \
            rng.uniform(0.5, 2.0)
        y2 = rng.standard_normal(int(rng.integers(3, 41))) + rng.normal()
        x = np.concatenate([np.zeros(y1.size), np.ones(y2.size)])
        y = np.concatenate([y1, y2])
        st = student_t(group_summary(y1), group_summary(y2))
        cs = analyze(x, y, 1, "none").correlation
        comb = combine(group_summary(y1), group_summary(y2))
        ref = ttest_ind(y2, y1, equal_var=True).statistic
        worst_t = max(worst_t, abs(st.t_scaled - ref) / max(1.0, abs(ref)))
        worst_r2 = max(worst_r2,
                       abs(cs.r2 - st.t_core ** 2 / (1 + st.t_core ** 2)))
        worst_vpool = max(worst_vpool,
                          abs((1.0 - cs.r2) - comb.vpool / comb.v))
    if worst_t > 1e-10:
        failures.append(f"pooled-t oracle rel err {worst_t:.2e} (> 1e-10)")
    if worst_r2 > 1e-10:
        failures.append(f"r^2 = t^2/(1+t^2) off by {worst_r2:.2e} (> 1e-10)")
    if worst_vpool > 1e-10:
        failures.append(f"1-r^2 = vpool/v off by {worst_vpool:.2e} (> 1e-10)")
    finish("C05 student-correlation", failures)


def test_c06_wilcoxon_unification():
    failures = []
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(500):
        n1 = int(rng.integers(2, 50))
        n2 = int(rng.integers(2, 50))
        y = rng.integers(0, 5, size=n1 + n2).astype(float)
        if np.unique(y).size < 2:
            continue
        x = np.concatenate([np.zeros(n1), np.ones(n2)])
        res = wilcoxon(x, y)
        worst = max(worst, abs(res.w - res.w_direct))
    if worst > 1e-12:
        failures.append(f"LP(1,1) vs direct form off by {worst:.2e} "
                        f"(> 1e-12) on tie-heavy data")
    hand = wilcoxon(np.array([0.0, 0.0, 1.0, 1.0]),
                    np.array([1.0, 2.0, 3.0, 4.0])).w
    if abs(hand - 0.8944) > 1e-4:
        failures.append(f"hand example w = {hand:.6f} != 0.8944 +- 1e-4")
    rejections = 0
    reps = 2000
    for _ in range(reps):
        y = rng.standard_normal(100)
        x = np.repeat([0.0, 1.0], 50)
        if abs(wilcoxon(x, y).z_stat) > 1.96:
            rejections += 1
    rate = rejections / reps
    if not 0.03 <= rate <= 0.07:
        failures.append(f"H0 rejection rate {rate:.4f} outside [.03, .07]")
    finish("C06 wilcoxon-unification", failures)


def test_c07_score_orthonormality():
    failures = []
    rng = np.random.default_rng(700)
    worst_mean = worst_gram = 0.0
    r_seen = []
    for _ in range(500):
        tied = bool(rng.integers(0, 2))
        n = int(rng.integers(6, 2001))
        if tied:
            x = rng.integers(0, max(5, n // 3), size=n).astype(float)
        else:
            x = rng.standard_normal(n)
        s = make_sample(x)
        if s.r < 5:
            continue
        r_seen.append(s.r)
        b = build_score_basis(s, 4)
        worst_mean = max(worst_mean, float(np.max(np.abs(b.table @ s.masses))))
        gram = (b.table * s.masses) @ b.table.T
        worst_gram = max(worst_gram,
                         float(np.max(np.abs(gram - np.eye(b.max_order)))))
    if min(r_seen) < 5 or max(r_seen) < 1500 or len(r_seen) < 450:
        failures.append(
            f"coverage too thin: {len(r_seen)} samples, r in "
            f"[{min(r_seen)}, {max(r_seen)}]"
        )
    if worst_mean > 1e-10:
        failures.append(f"zero-mean violated by {worst_mean:.2e} (> 1e-10)")
    if worst_gram > 1e-10:
        failures.append(f"Gram identity violated by {worst_gram:.2e} "
                        f"(> 1e-10)")
    s = make_sample(np.random.default_rng(701).standard_normal(1000))
    b = build_score_basis(s, 4)
    sup = max(float(np.max(np.abs(b.table[j - 1] - legendre_eval(j, s.fmid))))
              for j in range(1, 5))
    if sup >= 0.05:
        failures.append(f"Legendre sup deviation {sup:.4f} (>= .05) at "
                        f"n=1000")
    finish("C07 score-orthonormality", failures)


def test_c08_comparison_density_round_trips():
    failures = []
    rng = np.random.default_rng(88)
    s = make_sample(rng.beta(2.0, 2.0, size=5000))
    g = uniform_reference(0.0, 1.0)
    mod = l2_fit(s, g)
    mx = maxent_fit(mod)
    from numpy.polynomial.legendre import leggauss
    xq, wq = leggauss(128)
    uq, wq = 0.5 * (xq + 1.0), 0.5 * wq
    norm_err = abs(float(wq @ eval_density(mx, uq, "maxent")) - 1.0)
    if norm_err > 1e-8:
        failures.append(f"maxent normalization off by {norm_err:.2e} "
                        f"(> 1e-8)")
    parseval = abs(gof_distance(mod)
                   - float(wq @ (eval_density(mod, uq, "l2") - 1.0) ** 2))
    if parseval > 1e-8:
        failures.append(f"Parseval gap {parseval:.2e} (> 1e-8)")
    grid = np.linspace(0.0, 1.0, 2001)
    sup = float(np.max(np.abs(eval_density(mod, grid, "l2_clipped")
                              - 6.0 * grid * (1.0 - grid))))
    if sup >= 0.05:
        failures.append(f"Beta(2,2) recovery sup error {sup:.4f} (>= .05)")
    draws = simulate_skew_g(mod, 10000, seed=5)
    ks = kstest(draws, beta_dist(2, 2).cdf).statistic
    if ks >= 0.02:
        failures.append(f"simulation Kolmogorov distance {ks:.4f} (>= .02)")
    finish("C08 comparison-density", failures)


def test_c09_copula_contracts(age, gag):
    failures = []
    rng = np.random.default_rng(900)
    models = [fit_copula(age, gag)]
    for _ in range(3):
        x = random_sample_values(rng, 200, tied=bool(rng.integers(2)))
        y = random_sample_values(rng, 200, tied=bool(rng.integers(2)))
        models.append(fit_copula(x, y))
    worst_dbl = 0.0
    for mod in models:
        sx, sy = mod.bx.source, mod.by.source
        grid = eval_copula(mod, sx.fmid[:, None], sy.fmid[None, :])
        dbl = float(sx.masses @ grid @ sy.masses)
        worst_dbl = max(worst_dbl, abs(dbl - 1.0))
    if worst_dbl > 1e-8:
        failures.append(f"raw double integral off by {worst_dbl:.2e} "
                        f"(> 1e-8)")
    mod = models[0]
    sx, sy = mod.bx.source, mod.by.source
    worst_slice = max(
        abs(float(sy.masses @ conditional_slice(mod, float(u)).density)
            - 1.0)
        for u in (np.arange(101) + 0.5) / 101.0
    )
    if worst_slice > 1e-8:
        failures.append(f"slice normalization off by {worst_slice:.2e} "
                        f"(> 1e-8)")
    total = sum(float(sx.masses[i]) * conditional_mean(mod,
                                                       float(sx.fmid[i]))
                for i in range(sx.r))
    if abs(total - gag.mean()) > 2e-3:
        failures.append(
            f"total expectation {total:.5f} vs E[Y] {gag.mean():.5f}, "
            f"gap {abs(total - gag.mean()):.2e} (> 2e-3)"
        )
    worst_bayes = 0.0
    for table in product(range(1, 4), repeat=6):
        counts = np.array(table, dtype=float).reshape(2, 3)
        x = np.repeat([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], table)
        y = np.repeat([0.0, 1.0, 2.0, 0.0, 1.0, 2.0], table)
        sx, sy = make_sample(x), make_sample(y)
        ratio = (counts / counts.sum()) / np.outer(sx.masses, sy.masses)
        m = fit_copula(x, y, order=4, rule="none")
        grid = eval_copula(m, sx.fmid[:, None], sy.fmid[None, :])
        worst_bayes = max(worst_bayes, float(np.max(np.abs(grid - ratio))))
    if worst_bayes > 1e-12:
        failures.append(
            f"Bayes factorization off by {worst_bayes:.2e} (> 1e-12) "
            f"over the exhaustive 2x3 tables"
        )
    finish("C09 copula-contracts", failures)


def test_c10_conditional_curves(age, gag):
    failures = []
    doc, _ = run_cli_json(["cquantile", "--x", "Age", "--y", "GAG"])
    curve = doc["payload"]["curve"]
    levels = ["0.05", "0.25", "0.5", "0.75", "0.95"]
    q = np.array([curve["quantiles"][k] for k in levels])
    if not np.all(np.diff(q, axis=0) > 0):
        bad = int(np.sum(~(np.diff(q, axis=0) > 0)))
        failures.append(f"quantile ordering broken at {bad} grid cells")
    mod = fit_copula(age, gag)
    lo, hi = conditional_mean(mod, 0.1), conditional_mean(mod, 0.9)
    if not lo > hi:
        failures.append(f"conditional mean not decreasing: {lo:.3f} at "
                        f"u=.1 vs {hi:.3f} at u=.9")
    extremes = {e["u"]: e for e in doc["payload"]["extreme_slices"]}
    for u in (0.05, 0.95):
        if not extremes[u]["bimodal"]:
            failures.append(f"slice at u={u} not flagged bimodal "
                            f"(modes={extremes[u]['modes']})")
    finish("C10 conditional-curves", failures)


def test_c11_bayes_update():
    failures = []
    rng = np.random.default_rng(1100)
    worst_mean = 0.0
    for _ in range(1000):
        n0 = float(rng.uniform(0.5, 30.0))
        m0 = float(rng.normal())
        v0 = float(rng.uniform(0.1, 4.0))
        n = float(rng.integers(1, 50))
        mbar = float(rng.normal())
        vbar = float(rng.uniform(0.0, 4.0))
        post = bayes_normal_update(GroupSummary(n0, m0, v0),
                                   GroupSummary(n, mbar, vbar))
        oracle = (n0 * m0 + n * mbar) / (n0 + n)
        worst_mean = max(worst_mean, abs(post.m - oracle))
    if worst_mean > 1e-12:
        failures.append(f"posterior mean off the conjugate oracle by "
                        f"{worst_mean:.2e} (> 1e-12)")
    worst_batch = 0.0
    for _ in range(200):
        y = rng.standard_normal(int(rng.integers(2, 26)))
        prior = GroupSummary(float(rng.uniform(0.5, 10.0)),
                             float(rng.normal()),
                             float(rng.uniform(0.1, 2.0)))
        batch = bayes_normal_update(prior, group_summary(y))
        seq = prior
        for value in y:
            seq = bayes_normal_update(seq, GroupSummary(1.0, float(value),
                                                        0.0))
        worst_batch = max(worst_batch, abs(seq.m - batch.m),
                          abs(seq.v - batch.v), abs(seq.n - batch.n))
    if worst_batch > 1e-12:
        failures.append(f"batch vs sequential differ by {worst_batch:.2e} "
                        f"(> 1e-12)")
    finish("C11 bayes-update", failures)


def test_c12_cli_determinism(monkeypatch):
    monkeypatch.chdir(HERE)
    failures = []
    for name, argv in GOLDEN_CASES.items():
        variants = [argv]
        if argv[-2:] != ["--format", "csv"]:
            variants.append(argv + ["--format", "csv"])
        for variant in variants:
            first = io.StringIO()
            with contextlib.redirect_stdout(first):
                c1 = main(variant)
            second = io.StringIO()
            with contextlib.redirect_stdout(second):
                c2 = main(variant)
            if c1 != 0 or c2 != 0:
                failures.append(f"{variant} exited {c1}/{c2}")
            elif first.getvalue().encode() != second.getvalue().encode():
                failures.append(f"{variant} output differs between runs")
    finish("C12 cli-determinism", failures)
