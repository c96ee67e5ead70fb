"""Refusals that no other test reaches: each raises its named error class."""

import contextlib
import io

import numpy as np
import pytest

from lpstats import (GroupSummary, build_score_basis, combine,
                     correlation_stats, correlations, exponential_reference,
                     fit_reference, l2_fit, lhermite_normality, lp_comoments,
                     make_sample, mid_clt_approx, normal_reference,
                     recursive_update, select_significant,
                     series_regression, student_t, uniform_reference)
from lpstats.cli import main
from lpstats.errors import DegenerateScale, DomainError

NAN, INF = float("nan"), float("inf")
SAMPLE = make_sample([1.0, 2.0, 2.0, 5.0])


def cli_exit(*argv):
    """Run the CLI; a SystemExit is raised again with its code and stderr."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            main(list(argv))
    except SystemExit as exc:
        raise SystemExit(f"exit {exc.code}: {err.getvalue()}") from None


CASES = {
    "cquantile-p-not-a-float": (
        lambda: cli_exit("cquantile", "--x", "Age", "--y", "GAG",
                         "--p", "0.2,abc"), SystemExit,
        "(?s)^exit 2: .*argument --p: could not convert string to float"),
    "normal-zero-sigma": (lambda: normal_reference(0.0, 0.0),
                          DegenerateScale, "sigma must be positive"),
    "exponential-zero-rate": (lambda: exponential_reference(0.0),
                              DegenerateScale, "rate must be positive"),
    "uniform-empty-range": (lambda: uniform_reference(1.0, 1.0),
                            DegenerateScale, "need a < b"),
    "empirical-fit-has-no-pdf": (
        lambda: fit_reference("empirical", SAMPLE).pdf(2.0), DomainError,
        "reference kind 'empirical' has no density"),
    "l2-fit-order-zero": (
        lambda: l2_fit(SAMPLE, normal_reference(0.0, 1.0), m=0),
        DomainError, "order must be at least 1"),
    "score-basis-order-zero": (lambda: build_score_basis(SAMPLE, 0),
                               DomainError, "max_order must be at least 1"),
    "unknown-selection-rule": (
        lambda: select_significant([0.5], 10, rule="x"), DomainError,
        "unknown selection rule 'x'"),
    "regression-unknown-rule-constant-y": (
        lambda: series_regression(build_score_basis(SAMPLE, 2), np.ones(4),
                                  rule="bogus"), DomainError,
        "unknown selection rule 'bogus'"),
    "selection-aic-n-zero": (
        lambda: select_significant([0.5], 0), DomainError,
        "sample size must be at least 1, got 0"),
    "selection-bic-n-negative": (
        lambda: select_significant([0.5], -3, rule="bic"), DomainError,
        "sample size must be at least 1, got -3"),
    "correlations-zero-spread": (
        lambda: correlations(lp_comoments(
            build_score_basis(make_sample(np.arange(5.0)), 1),
            build_score_basis(make_sample(np.arange(5.0) * 1e-300), 1))),
        DegenerateScale, "zero variance in correlation input"),
    "pearson-constant-column": (
        lambda: correlation_stats(np.arange(3.0) % 2, np.ones(3)),
        DegenerateScale, "the response is constant"),
    "student-t-counts-below-two": (
        lambda: student_t(GroupSummary(0.5, 0.0, 1.0),
                          GroupSummary(0.5, 1.0, 1.0)),
        DomainError, "group counts must sum to at least 2, got 1.0"),
    "lhermite-constant-sample": (
        lambda: lhermite_normality(make_sample([2.0, 2.0, 2.0])),
        DegenerateScale, "sample standard deviation is zero"),
    "mid-clt-zero-sd": (lambda: mid_clt_approx(0.0, 0.0, 1.0),
                        DegenerateScale, "sd must be positive"),
    "recursive-update-empty-state": (
        lambda: recursive_update(GroupSummary(n=0.0, m=0.0, v=0.0), 1.0),
        DomainError, "at least one observation"),
    "combine-nan-count": (
        lambda: combine(GroupSummary(NAN, 0.0, 1.0), GroupSummary(2, 1, 1)),
        DomainError, "group summaries must be finite"),
    "combine-infinite-mean": (
        lambda: combine(GroupSummary(2, INF, 1.0), GroupSummary(2, 1, 1)),
        DomainError, "group summaries must be finite"),
    "combine-nan-variance": (
        lambda: combine(GroupSummary(2, 0.0, 1.0), GroupSummary(2, 1, NAN)),
        DomainError, "group summaries must be finite"),
    "combine-negative-variance": (
        lambda: combine(GroupSummary(2, 0.0, -1.0), GroupSummary(2, 1, 1)),
        DomainError, "variances must be non-negative"),
    "recursive-update-nan-y": (
        lambda: recursive_update(GroupSummary(3.0, 1.0, 1.0), NAN),
        DomainError, "group summaries must be finite"),
    "student-t-infinite-variance": (
        lambda: student_t(GroupSummary(2, 0.0, INF), GroupSummary(2, 1, 1)),
        DomainError, "group summaries must be finite"),
    "normal-nan-mu": (lambda: normal_reference(NAN, 1.0), DomainError,
                      "mu must be finite, got nan"),
    "normal-infinite-sigma": (lambda: normal_reference(0.0, INF),
                              DomainError, "sigma must be finite, got inf"),
    "exponential-infinite-rate": (lambda: exponential_reference(INF),
                                  DomainError, "rate must be finite"),
    "uniform-nan-a": (lambda: uniform_reference(NAN, 1.0), DomainError,
                      "a must be finite, got nan"),
    "uniform-infinite-b": (lambda: uniform_reference(0.0, INF), DomainError,
                           "b must be finite, got inf"),
    "mid-clt-nan-mean": (lambda: mid_clt_approx(NAN, 1.0, 0.0), DomainError,
                         "mean must be finite, got nan"),
    "mid-clt-infinite-sd": (lambda: mid_clt_approx(0.0, INF, 0.0),
                            DomainError, "sd must be finite, got inf"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(),
                         ids=list(CASES))
def test_refuses_with_its_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
