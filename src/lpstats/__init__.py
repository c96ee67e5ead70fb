"""Rank-based nonparametric statistics.

Mid-distribution empirical machinery, custom orthonormal score functions,
LP moments and comoments, comparison-density and copula-density series
estimation, conditional mean and quantile curves, and the algebra that
unifies the classical two-sample statistics with their rank and Bayesian
counterparts. A CLI (`lpstats`) exposes the whole pipeline on CSV files.
"""

from .empirical import (Sample, QuartileSummary, make_sample,
                        mid_distribution, mid_ranks, quantile, mid_quantile,
                        quartile_summary, informative_quantile, standardize,
                        mid_clt_approx)
from .scores import (ScoreBasis, legendre_eval, build_score_basis,
                     eval_score, score_quantile)
from .lp import (LPMomentVector, LPComomentMatrix, CorrelationReport,
                 LHermiteResult, lp_moments, lp_comoments, correlations,
                 select_significant, lpinfor, lhermite_normality)
from .compdensity import (ReferenceDistribution, CompDensityModel,
                          normal_reference, exponential_reference,
                          uniform_reference, empirical_reference,
                          fit_reference, comparison_distribution, pp_grid,
                          l2_fit, maxent_fit, eval_density, skew_g_density,
                          gof_distance, simulate_skew_g)
from .copula import (CopulaModel, ConditionalSlice, RegressionFit,
                     fit_copula, eval_copula, conditional_slice,
                     conditional_density, conditional_mean,
                     conditional_quantile, quantile_curves, slice_modes,
                     simulate_conditional, series_regression)
from .twosample import (GroupSummary, CombineResult, StudentT,
                        CorrelationStats, WilcoxonResult, TwoSampleDensity,
                        ScoreFeatures, TwoSampleReport, group_summary,
                        combine, recursive_update, student_t,
                        correlation_stats, wilcoxon, two_sample_comp_density,
                        classify, logistic_score_features,
                        bayes_normal_update, analyze)
from .datasets import fixture_path

__version__ = "0.1.0"
