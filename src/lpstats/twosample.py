"""Two-sample analysis through one algebra: pooling, updating, testing.

Everything here rests on the exact pooling identities for a sample split
into two groups with weights tau_i = n_i / n:

    M = tau1 M1 + tau2 M2
    V = Vpool + tau1 tau2 (M2 - M1)^2,   Vpool = tau1 V1 + tau2 V2.

The classical two-sample statistics are algebraic readings of the same
quantities: the point-biserial correlation r of the group indicator with
the response satisfies r^2 = tau1 tau2 (M2 - M1)^2 / V, the pooled t
statistic is r / sqrt(1 - r^2) times sqrt(n - 2), and replacing the
response by its mid-ranks turns the same correlation into the Wilcoxon
statistic, which is also the (1, 1) LP comoment of (group, response):
r, w and LP(1, k) are one LP row, summed once by `two_sample_comp_density`.
The comparison density of group 1 is the copula of (group, response)
sliced at group 1, so its coefficients are that row's LP(1, k) T_1(1).
The recursive mean/variance update and the conjugate-normal Bayes update
are `combine` of a one-point group and of a prior, a `GroupSummary` of
pseudo-count n; `combine` refuses non-finite fields, non-positive counts
and negative variances, so every pooled update is checked in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copula import _step_density
from .empirical import (Sample, _finite, _of_length, _pair_counts, _real,
                        _scalar_or_array, make_sample)
from .errors import DegenerateScale, DomainError, EmptyInput, SingleGroup
from .lp import select_significant
from .scores import ScoreBasis, _row_sums, build_score_basis

__all__ = [
    "GroupSummary",
    "CombineResult",
    "StudentT",
    "CorrelationStats",
    "WilcoxonResult",
    "TwoSampleDensity",
    "TwoSampleReport",
    "group_summary",
    "combine",
    "recursive_update",
    "student_t",
    "wilcoxon",
    "two_sample_comp_density",
    "classify",
    "bayes_normal_update",
    "analyze",
]


@dataclass(frozen=True)
class GroupSummary:
    """Count, mean, and population variance (divide by n) of one group."""

    n: float
    m: float
    v: float


@dataclass(frozen=True)
class CombineResult:
    n: float
    tau1: float
    tau2: float
    m: float
    v: float
    vpool: float


@dataclass(frozen=True)
class StudentT:
    t_core: float
    t_scaled: float
    df: float


@dataclass(frozen=True)
class CorrelationStats:
    """Point-biserial r, r^2 and t; `vpool_identity_ok` checks r against
    (M1 - M0) sqrt(tau (1 - tau) / V) and t against the pooled t, no Vpool."""

    r: float
    r2: float
    t: float
    vpool_identity_ok: bool


@dataclass(frozen=True)
class WilcoxonResult:
    """Standardized mid-rank statistic with its normal z form.

    `w` is the LP(1,1) comoment of the group indicator with the response;
    `w_direct` recomputes it from the group mean of mid-ranks as
    (M1 - .5) sqrt(tau / ((1 - tau) V)), V = (1 - sum p^3)/12, and stays
    within float noise of `w`. `z_stat` is w times sqrt(n), or times
    sqrt(n - 1) where the caller set `small_sample`.
    """

    w: float
    z_stat: float
    w_direct: float


def group_summary(obs) -> GroupSummary:
    arr = _finite(obs)
    if arr.size == 0:
        raise EmptyInput("empty group")
    # a constant group has no spread, whatever round-off its mean carries
    v = float(arr.var()) if (arr != arr[0]).any() else 0.0
    return GroupSummary(n=float(arr.size), m=float(arr.mean()), v=v)


def combine(g1: GroupSummary, g2: GroupSummary) -> CombineResult:
    """Exact mean/variance of the concatenation of two summarized groups.

    Raises DomainError when a field is not finite, a count is not
    positive or a variance is negative.
    """
    if not all(map(math.isfinite, (g1.n, g1.m, g1.v, g2.n, g2.m, g2.v))):
        raise DomainError("group summaries must be finite")
    if g1.n <= 0 or g2.n <= 0:
        raise DomainError("group counts must be positive")
    if g1.v < 0.0 or g2.v < 0.0:
        raise DomainError("variances must be non-negative")
    n = g1.n + g2.n
    tau1 = g1.n / n
    tau2 = g2.n / n
    m = tau1 * g1.m + tau2 * g2.m
    vpool = tau1 * g1.v + tau2 * g2.v
    v = vpool + tau1 * tau2 * (g2.m - g1.m) ** 2
    return CombineResult(n=n, tau1=tau1, tau2=tau2, m=m, v=v, vpool=vpool)


def recursive_update(state: GroupSummary, y: float) -> GroupSummary:
    """Fold one observation into a running mean/variance summary.

    `combine` with the one-point group (1, y, 0): its variance is
    V_n = ((n-1)/n) V_{n-1} + ((n-1)/n^2) (y - M)^2, so n V_n accumulates
    the weighted squared innovations (y_k - M_{k-1})^2 (k-1)/k. A
    non-finite y raises DomainError there.
    """
    if state.n < 1:
        raise DomainError("state must summarize at least one observation")
    comb = combine(state, GroupSummary(n=1.0, m=float(y), v=0.0))
    return GroupSummary(n=comb.n, m=comb.m, v=comb.v)


def student_t(g1: GroupSummary, g2: GroupSummary) -> StudentT:
    """Pooled-variance t statistic in its correlation-core form.

    t_core = (M2 - M1) sqrt(tau1 tau2 / Vpool) needs no sample-size
    inflation; the classical statistic is sqrt(n - 2) t_core against
    Student's t with n - 2 degrees of freedom; n < 2 raises DomainError.
    """
    comb = combine(g1, g2)
    if comb.n < 2.0:
        raise DomainError(f"group counts must sum to at least 2, got {comb.n}")
    if comb.vpool <= 0.0:
        raise DegenerateScale("pooled variance is zero")
    t_core = (g2.m - g1.m) * math.sqrt(comb.tau1 * comb.tau2 / comb.vpool)
    return StudentT(t_core=t_core,
                    t_scaled=math.sqrt(comb.n - 2.0) * t_core,
                    df=comb.n - 2.0)


def _split_cells(x_obs, y_obs):
    """Count a finite response by a binary label: (labels, sy, cells).

    `cells` is the r_y x 2 table of (response atom, group) counts, column
    1 the higher label. A zero label of either sign is read as +0.0. A
    constant response raises DegenerateScale: it has no scores to fit.
    """
    x = np.asarray(x_obs).ravel()
    y = _of_length(y_obs, x.size)
    x, y = (_finite(x) if x.dtype.kind == "f" else x), _real(y)
    labels = np.unique(x)
    if labels.dtype.kind == "f":
        labels += 0.0  # -0.0 read as 0.0; x == labels[1] ignores signs
    if labels.size != 2:
        raise SingleGroup(
            f"grouping variable must take exactly two values, got {labels.size}"
        )
    sy = make_sample(y)
    if sy.r < 2:
        raise DegenerateScale("the response is constant")
    return labels, sy, _pair_counts(sy.atom_index, x == labels[1], sy.r, 2)


def _group_summaries(sy: Sample, cells):
    """GroupSummary of each label's responses, summed over its counts.

    A group on one atom has v = 0, whatever round-off its mean carries.
    """
    for counts in cells.T:
        n = float(counts.sum())
        m = float(sy.values @ counts / n)
        v = ((sy.values - m) ** 2 @ counts / n
             if np.count_nonzero(counts) > 1 else 0.0)
        yield GroupSummary(n=n, m=m, v=float(v))


def wilcoxon(x_obs, y_obs, small_sample: bool = False) -> WilcoxonResult:
    """Wilcoxon statistic as the (1, 1) LP comoment of (label, response).

    w is `lp1k[0]` of the order-1 fit. Ties need no correction: the
    mid-rank variance (1 - sum p^3)/12 absorbs them; a constant response
    raises DegenerateScale. z_stat scales by sqrt(n), or sqrt(n - 1) when
    small_sample is set. All three statistics are summed over the counts
    of (response atom, group) pairs, in O(n + r_y), so none depends on
    row order.
    """
    return _wilcoxon(two_sample_comp_density(x_obs, y_obs, 1, "none"),
                     small_sample)


def _wilcoxon(dens: TwoSampleDensity, small_sample: bool) -> WilcoxonResult:
    """`wilcoxon` read from a comparison-density fit of any order."""
    sy, tau = dens.by.source, dens.tau
    w = float(dens.lp1k[0])
    m1 = float(sy.fmid @ dens.cells[:, 1] / int(dens.cells[:, 1].sum()))
    v_mid = sy.mid_rank_variance
    w_direct = (m1 - 0.5) * math.sqrt(tau / ((1.0 - tau) * v_mid))
    scale = math.sqrt(sy.n - 1.0) if small_sample else math.sqrt(sy.n)
    return WilcoxonResult(w=w, z_stat=scale * w, w_direct=w_direct)


@dataclass(frozen=True)
class TwoSampleDensity:
    """Comparison density of group 1's responses inside the pooled sample.

    The pooled response sample is `by.source`. One LP row E[T_1(G) f(Y)],
    G the 0/1 label and f each row [Z, T_1..T_m] of `by.rows`, summed
    over `cells`, the r_y x 2 table of (response atom, group) counts,
    gives the point-biserial r and lp1k, the LP(1, k) comoments (the
    high-order Wilcoxon statistics) on which selection runs. The slice
    coefficients c[k-1] = E[T_k(Y) | group 1] are lp1k T_1(1),
    T_1(1) = sqrt((1 - tau) / tau), since E[T_k(Y)] = 0; a lower order's
    c and lp1k are byte prefixes of a higher order's. `atom_density` is
    the clipped, renormalized density over the pooled atoms, the object
    classification consumes, and `mass` (at least 1) what it was divided
    by.
    """

    by: ScoreBasis
    tau: float
    labels: tuple
    cells: np.ndarray
    c: np.ndarray
    r: float
    lp1k: np.ndarray
    selected: np.ndarray
    atom_density: np.ndarray
    mass: float


def two_sample_comp_density(x_obs, y_obs, m: int = 4,
                            rule: str = "aic") -> TwoSampleDensity:
    """Fit d(v) = 1 + sum_k C_k S_k(v; Y) for the group-1 responses."""
    labels, sy, cells = _split_cells(x_obs, y_obs)
    by = build_score_basis(sy, m)
    tau = int(cells[:, 1].sum()) / sy.n
    # Z(G) = T_1(G) for a 0/1 G
    t1g = (np.array([0.0, 1.0]) - tau) / math.sqrt(tau * (1.0 - tau))
    v = cells @ t1g / sy.n
    row = _row_sums(by.rows, v)
    # E[T_k(Y) | G = 1] = LP(1, k) T_1(1), since E[T_k(Y)] = 0
    c = row[1:] * t1g[1]
    selected = select_significant(row[1:], sy.n, rule=rule)
    _, density, mass = _step_density(sy, by.table, c * selected)
    return TwoSampleDensity(by=by, tau=tau,
                            labels=tuple(labels.tolist()), cells=cells,
                            c=c, r=float(row[0]), lp1k=row[1:],
                            selected=selected, atom_density=density, mass=mass)


@_scalar_or_array(1)
def classify(model: TwoSampleDensity, y):
    """Posterior probability of group 1 at response value(s) y.

    Bayes' theorem: Pr[G = 1 | Y = y] = tau d(v), tau the sample's share
    of group 1 and v the pooled mid-rank of y; on a saturated fit, group
    1's share of the atom of y. Clipped only where tau d exceeds 1.
    """
    d = model.atom_density[model.by.source.atom_at(y)]
    return np.clip(model.tau * d, 0.0, 1.0)


def bayes_normal_update(prior: GroupSummary,
                        data: GroupSummary) -> GroupSummary:
    """Conjugate-normal belief update as a pooling operation.

    The prior is a pseudo-sample whose n is its pseudo-count n0; `combine`
    of it with the data gives the textbook posterior mean
    (n0 m_prior + n m_data) / (n0 + n) and keeps the variance bookkeeping
    exact. `combine` refuses non-finite fields and negative variances.
    """
    if prior.n <= 0.0:
        raise DomainError("prior pseudo-count must be positive")
    if data.n < 1:
        raise DomainError("data summary must hold at least one observation")
    comb = combine(prior, data)
    return GroupSummary(n=comb.n, m=comb.m, v=comb.v)


@dataclass(frozen=True)
class TwoSampleReport:
    """Everything the two-sample pipeline produces, in one record."""

    g1: GroupSummary
    g2: GroupSummary
    combined: CombineResult
    student: StudentT
    correlation: CorrelationStats
    wilcoxon: WilcoxonResult
    identities_ok: bool
    density: TwoSampleDensity


def analyze(x_obs, y_obs, m: int = 4, rule: str = "aic",
            small_sample: bool = False) -> TwoSampleReport:
    """Full two-sample report for a response and a binary label.

    Groups are ordered by sorted label, so positive r, t, and w all mean
    the higher label goes with larger responses. The group summaries, r
    and w are read from the density fit's count table. `identities_ok`
    verifies r^2 = t^2 / (1 + t^2) and Vpool = V (1 - r^2) at 1e-12, with
    `correlation`'s own checks. A zero pooled or response variance or
    r = +-1 raises DegenerateScale.
    """
    dens = two_sample_comp_density(x_obs, y_obs, m, rule=rule)
    sy, tau, r = dens.by.source, dens.tau, dens.r
    g1, g2 = _group_summaries(sy, dens.cells)
    comb = combine(g1, g2)
    # student_t refuses a zero pooled variance before any division here
    st = student_t(g1, g2)
    if sy.var <= 0.0:  # two atoms whose squared gap underflows
        raise DegenerateScale("the response variance underflows to zero")
    r_groups = (g2.m - g1.m) * math.sqrt(tau * (1.0 - tau) / sy.var)
    if 1.0 - r ** 2 <= 0.0:
        raise DegenerateScale("|r| = 1 leaves the t form undefined")
    t = r / math.sqrt(1.0 - r ** 2)
    cs_ok = (abs(r - r_groups) <= 1e-12 * max(1.0, abs(r))
             and abs(t - st.t_core) <= 1e-12 * max(1.0, abs(t)))
    cs = CorrelationStats(r=r, r2=r ** 2, t=t, vpool_identity_ok=bool(cs_ok))
    ok = (abs(cs.r2 - st.t_core ** 2 / (1.0 + st.t_core ** 2)) <= 1e-12
          and abs(comb.vpool - comb.v * (1.0 - cs.r2))
          <= 1e-12 * max(1.0, comb.v))
    return TwoSampleReport(g1=g1, g2=g2, combined=comb, student=st,
                           correlation=cs,
                           wilcoxon=_wilcoxon(dens, small_sample),
                           identities_ok=bool(ok and cs_ok), density=dens)
