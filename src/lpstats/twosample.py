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
statistic, which is also the (1, 1) LP comoment of (group, response).
The recursive mean/variance update and the conjugate-normal Bayes update
are the n2 = 1 and prior-as-pseudo-sample special cases of the pooling
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compdensity import CLIP_FLOOR
from .empirical import (Sample, _finite, _scalar_or_array, make_sample,
                        mid_ranks)
from .errors import (DegenerateScale, DomainError, EmptyInput,
                     LengthMismatch, SingleGroup)
from .lp import _pearson, select_significant
from .scores import ScoreBasis, build_score_basis

__all__ = [
    "GroupSummary",
    "CombineResult",
    "StudentT",
    "CorrelationStats",
    "WilcoxonResult",
    "TwoSampleDensity",
    "ScoreFeatures",
    "TwoSampleReport",
    "BayesNormalState",
    "group_summary",
    "combine",
    "recursive_update",
    "student_t",
    "correlation_stats",
    "wilcoxon",
    "two_sample_comp_density",
    "classify",
    "logistic_score_features",
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
    within float noise of `w`. `scale` records the factor used for
    z_stat (sqrt(n), or sqrt(n - 1) under the small-sample flag).
    """

    w: float
    z_stat: float
    w_direct: float
    scale: float


@dataclass(frozen=True)
class BayesNormalState:
    """Normal mean/variance belief encoded as a pseudo-sample."""

    n_eff: float
    m: float
    v: float


def group_summary(obs) -> GroupSummary:
    arr = _finite(obs)
    if arr.size == 0:
        raise EmptyInput("empty group")
    return GroupSummary(n=float(arr.size), m=float(arr.mean()),
                        v=float(arr.var()))


def combine(g1: GroupSummary, g2: GroupSummary) -> CombineResult:
    """Exact mean/variance of the concatenation of two summarized groups."""
    if g1.n <= 0 or g2.n <= 0:
        raise DomainError("group counts must be positive")
    n = g1.n + g2.n
    tau1 = g1.n / n
    tau2 = g2.n / n
    m = tau1 * g1.m + tau2 * g2.m
    vpool = tau1 * g1.v + tau2 * g2.v
    v = vpool + tau1 * tau2 * (g2.m - g1.m) ** 2
    return CombineResult(n=n, tau1=tau1, tau2=tau2, m=m, v=v, vpool=vpool)


def recursive_update(state: GroupSummary, y: float) -> GroupSummary:
    """Fold one observation into a running mean/variance summary.

    The variance update V_n = ((n-1)/n) V_{n-1} + ((n-1)/n^2) (y - M)^2
    is `combine` with a single-point second group; n V_n accumulates the
    weighted squared innovations (y_k - M_{k-1})^2 (k-1)/k.
    """
    if state.n < 1:
        raise DomainError("state must summarize at least one observation")
    y = float(y)
    n = state.n + 1.0
    delta = y - state.m
    return GroupSummary(
        n=n,
        m=state.m + delta / n,
        v=(state.n / n) * state.v + (state.n / n ** 2) * delta ** 2,
    )


def student_t(g1: GroupSummary, g2: GroupSummary) -> StudentT:
    """Pooled-variance t statistic in its correlation-core form.

    t_core = (M2 - M1) sqrt(tau1 tau2 / Vpool) needs no sample-size
    inflation; the classical statistic is sqrt(n - 2) t_core against
    Student's t with n - 2 degrees of freedom.
    """
    comb = combine(g1, g2)
    if comb.vpool <= 0.0:
        raise DegenerateScale("pooled variance is zero")
    t_core = (g2.m - g1.m) * math.sqrt(comb.tau1 * comb.tau2 / comb.vpool)
    return StudentT(t_core=t_core,
                    t_scaled=math.sqrt(comb.n - 2.0) * t_core,
                    df=comb.n - 2.0)


def _split_binary(x_obs, y_obs):
    """Group a finite response by a binary label: (labels, x01, y)."""
    x = np.asarray(x_obs).ravel()
    y = np.asarray(y_obs, dtype=float).ravel()
    if x.size != y.size:
        raise LengthMismatch(x.size, y.size)
    x, y = (_finite(x) if x.dtype.kind == "f" else x), _finite(y)
    labels = np.unique(x)
    if labels.size != 2:
        raise SingleGroup(
            f"grouping variable must take exactly two values, got {labels.size}"
        )
    return labels, (x == labels[1]).astype(float), y


def correlation_stats(x_obs, y_obs) -> CorrelationStats:
    """Point-biserial correlation of a binary label with the response.

    Verifies the algebra linking it to the group means and the pooled
    variance: r = (M1 - M0) sqrt(tau (1 - tau) / V) and
    t_core = r / sqrt(1 - r^2), each to 1e-12 relative; the returned flag
    reports whether both held. r = +-1 leaves t undefined and raises.
    """
    _, x01, y = _split_binary(x_obs, y_obs)
    return _correlation_stats(x01, y, group_summary(y[x01 == 0.0]),
                              group_summary(y[x01 == 1.0]))


def _correlation_stats(x01, y, g0: GroupSummary,
                       g1: GroupSummary) -> CorrelationStats:
    """`correlation_stats` on a split sample and its two group summaries."""
    r = _pearson(x01, y)
    tau = float(x01.mean())
    m0, m1 = g0.m, g1.m
    v = float(y.var())
    r_groups = (m1 - m0) * math.sqrt(tau * (1.0 - tau) / v)
    if 1.0 - r ** 2 <= 0.0:
        raise DegenerateScale("|r| = 1 leaves the t form undefined")
    t = r / math.sqrt(1.0 - r ** 2)
    comb = combine(g0, g1)
    t_pool = (m1 - m0) * math.sqrt(comb.tau1 * comb.tau2 / comb.vpool) \
        if comb.vpool > 0.0 else t
    ok = (abs(r - r_groups) <= 1e-12 * max(1.0, abs(r))
          and abs(t - t_pool) <= 1e-12 * max(1.0, abs(t)))
    return CorrelationStats(r=r, r2=r ** 2, t=t, vpool_identity_ok=bool(ok))


def wilcoxon(x_obs, y_obs, small_sample: bool = False) -> WilcoxonResult:
    """Wilcoxon statistic as the (1, 1) LP comoment of (label, response).

    Ties need no correction: the mid-rank variance (1 - sum p^3)/12
    absorbs them. z_stat scales by sqrt(n), or sqrt(n - 1) when
    small_sample is set.
    """
    _, x01, y = _split_binary(x_obs, y_obs)
    return _wilcoxon(x01, make_sample(y), small_sample)


def _wilcoxon(x01, sy: Sample, small_sample: bool) -> WilcoxonResult:
    """`wilcoxon` on a split sample, given the response's Sample."""
    n = sy.n
    tau = float(x01.mean())
    # the indicator's standardized mid-rank, in closed form from its masses
    t1x = (x01 - tau) / math.sqrt(tau * (1.0 - tau))
    ry = mid_ranks(sy)
    t1y = (ry - 0.5) / math.sqrt(sy.mid_rank_variance)
    w = float(np.mean(t1x * t1y))
    m1 = float(ry[x01 == 1.0].mean())
    v_mid = sy.mid_rank_variance
    w_direct = (m1 - 0.5) * math.sqrt(tau / ((1.0 - tau) * v_mid))
    scale = math.sqrt(n - 1.0) if small_sample else math.sqrt(n)
    return WilcoxonResult(w=w, z_stat=scale * w, w_direct=w_direct,
                          scale=scale)


@dataclass(frozen=True)
class TwoSampleDensity:
    """Comparison density of group 1's responses inside the pooled sample.

    c[k-1] = E[T_k(Y; pooled) | group 1] are the slice coefficients;
    lp1k = sqrt(tau / (1 - tau)) c are the matching LP(1, k) comoments
    (the high-order Wilcoxon statistics), and selection runs on that
    scale. `atom_density` is the clipped, renormalized density over the
    pooled atoms, the object classification consumes. `group` is the 0/1
    indicator of the higher label, in `sy.obs` order.
    """

    sy: Sample
    by: ScoreBasis
    tau: float
    labels: tuple
    group: np.ndarray
    c: np.ndarray
    lp1k: np.ndarray
    selected: np.ndarray
    atom_density: np.ndarray
    mass: float


def two_sample_comp_density(x_obs, y_obs, m: int = 4,
                            rule: str = "aic") -> TwoSampleDensity:
    """Fit d(v) = 1 + sum_k C_k S_k(v; Y) for the group-1 responses."""
    labels, x01, y = _split_binary(x_obs, y_obs)
    sy = make_sample(y)
    by = build_score_basis(sy, m)
    table = by.table[:, sy.atom_index]
    in1 = x01 == 1.0
    c = table[:, in1].mean(axis=1)
    tau = float(x01.mean())
    lp1k = math.sqrt(tau / (1.0 - tau)) * c
    selected = select_significant(lp1k, sy.n, rule=rule)
    raw = 1.0 + (c * selected) @ by.table
    clipped = np.maximum(raw, CLIP_FLOOR)
    mass = float(sy.masses @ clipped)
    return TwoSampleDensity(sy=sy, by=by, tau=tau,
                            labels=tuple(labels.tolist()), group=x01,
                            c=c, lp1k=lp1k, selected=selected,
                            atom_density=clipped / mass, mass=mass)


@_scalar_or_array(1)
def classify(model: TwoSampleDensity, y, prior: float | None = None):
    """Posterior probability of group 1 at response value(s) y.

    posterior = prior * d(v) with v the pooled mid-rank of y; the
    complementary class uses the mixture complement (1 - prior d) /
    (1 - prior), so the two posteriors sum to one by construction.
    Clipping applies only when prior * d exceeds 1.
    """
    if prior is None:
        prior = model.tau
    prior = float(prior)
    if not 0.0 < prior < 1.0:
        raise DomainError("prior must lie in (0, 1)")
    return np.clip(prior * model.atom_density[model.sy.atom_at(y)], 0.0, 1.0)


@dataclass(frozen=True)
class ScoreFeatures:
    """Selected score orders and their per-observation feature columns."""

    orders: list
    columns: np.ndarray


def logistic_score_features(x_obs, y_obs, m: int = 4,
                            rule: str = "aic") -> ScoreFeatures:
    """Export the selected T_k(y) columns for an external logit fit.

    Selection is by the high-order Wilcoxon comoments LP(1, k); the
    returned columns are orthonormal under the pooled empirical measure.
    No regression is fitted here.
    """
    model = two_sample_comp_density(x_obs, y_obs, m, rule=rule)
    ks = np.flatnonzero(model.selected)
    return ScoreFeatures(orders=(ks + 1).tolist(),
                         columns=model.by.table[ks][:, model.sy.atom_index].T)


def bayes_normal_update(prior: BayesNormalState,
                        data: GroupSummary) -> BayesNormalState:
    """Conjugate-normal belief update as a pooling operation.

    The prior acts as a pseudo-sample of size n_eff; pooling it with the
    data reproduces the textbook posterior mean
    (n_eff m_prior + n m_data) / (n_eff + n) and keeps the variance
    bookkeeping exact.
    """
    if prior.n_eff <= 0.0:
        raise DomainError("prior pseudo-count must be positive")
    if data.n < 1:
        raise DomainError("data summary must hold at least one observation")
    comb = combine(GroupSummary(n=prior.n_eff, m=prior.m, v=prior.v), data)
    return BayesNormalState(n_eff=comb.n, m=comb.m, v=comb.v)


@dataclass(frozen=True)
class TwoSampleReport:
    """Everything the two-sample pipeline produces, in one record."""

    labels: tuple
    g1: GroupSummary
    g2: GroupSummary
    combined: CombineResult
    r: float
    r2: float
    t: float
    t_scaled: float
    w: float
    z_stat: float
    high_order_w: np.ndarray
    identities_ok: bool
    density: TwoSampleDensity


def analyze(x_obs, y_obs, m: int = 4, rule: str = "aic",
            small_sample: bool = False) -> TwoSampleReport:
    """Full two-sample report for a response and a binary label.

    Groups are ordered by sorted label, so positive r, t, and w all mean
    the higher label goes with larger responses. `identities_ok` verifies
    r^2 = t^2 / (1 + t^2) and Vpool = V (1 - r^2) at 1e-12.
    """
    dens = two_sample_comp_density(x_obs, y_obs, m, rule=rule)
    x01, y = dens.group, dens.sy.obs
    g1 = group_summary(y[x01 == 0.0])
    g2 = group_summary(y[x01 == 1.0])
    comb = combine(g1, g2)
    st = student_t(g1, g2)
    cs = _correlation_stats(x01, y, g1, g2)
    wr = _wilcoxon(x01, dens.sy, small_sample)
    ok = (abs(cs.r2 - st.t_core ** 2 / (1.0 + st.t_core ** 2)) <= 1e-12
          and abs(comb.vpool - comb.v * (1.0 - cs.r2))
          <= 1e-12 * max(1.0, comb.v))
    return TwoSampleReport(labels=dens.labels, g1=g1, g2=g2,
                           combined=comb, r=cs.r, r2=cs.r2, t=st.t_core,
                           t_scaled=st.t_scaled, w=wr.w, z_stat=wr.z_stat,
                           high_order_w=dens.lp1k,
                           identities_ok=bool(ok and cs.vpool_identity_ok),
                           density=dens)
