"""The scalar-or-array convention shared by the elementwise functions.

A 0-d argument gives a Python float, an n-d argument an ndarray of the
same shape, and out-of-domain input raises the same error whatever the
shape it arrives in. A NaN probability level is out of every domain.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpstats import (
    build_score_basis,
    classify,
    comparison_distribution,
    conditional_density,
    conditional_mean,
    conditional_quantile,
    conditional_slice,
    empirical_reference,
    eval_copula,
    eval_density,
    exponential_reference,
    fit_copula,
    l2_fit,
    legendre_eval,
    make_sample,
    maxent_fit,
    mid_clt_approx,
    mid_distribution,
    mid_quantile,
    normal_reference,
    quantile,
    quantile_curves,
    series_regression,
    skew_g_density,
    slice_modes,
    two_sample_comp_density,
    uniform_reference,
)
from lpstats.errors import DomainError

_rng = np.random.default_rng(7)
_x = np.round(_rng.standard_normal(80), 1)
_y = _x + np.round(_rng.standard_normal(80), 1)
_s = make_sample(_x)
_b = build_score_basis(_s, 3)
_g = normal_reference(0.0, 1.0)
_comp = maxent_fit(l2_fit(make_sample(_y), normal_reference(0.0, 1.5), 3))
_cop = fit_copula(_x, _y, order=3)
_reg = series_regression(_b, _y)
_two = two_sample_comp_density((_y > 0).astype(float), _x)

# name -> (function of the array argument, an out-of-domain value or None)
ADAPTED = {
    "mid_distribution": (lambda a: mid_distribution(_s, a), None),
    "quantile": (lambda a: quantile(_s, a), 0.0),
    "mid_quantile": (lambda a: mid_quantile(_s, a), 1.0),
    "mid_clt_approx": (lambda a: mid_clt_approx(0.0, 1.0, a), None),
    "legendre_eval": (lambda a: legendre_eval(3, a), None),
    "ReferenceDistribution.cdf": (_g.cdf, None),
    "ReferenceDistribution.quantile": (_g.quantile, 1.0),
    "ReferenceDistribution.pdf": (_g.pdf, None),
    "comparison_distribution": (
        lambda a: comparison_distribution(_s, _g, a), 0.0),
    "eval_density": (lambda a: eval_density(_comp, a), 1.5),
    "skew_g_density": (lambda a: skew_g_density(_comp, a), None),
    "conditional_density": (lambda a: conditional_density(_cop, 0.3, a), 1.0),
    "conditional_quantile": (
        lambda a: conditional_quantile(_cop, 0.3, a), 1.0),
    "RegressionFit.predict": (_reg.predict, None),
    "classify": (lambda a: classify(_two, a), None),
}

GRID = np.linspace(0.1, 0.9, 6)


@pytest.mark.parametrize("name", sorted(ADAPTED))
def test_zero_d_input_gives_float(name):
    fn, _ = ADAPTED[name]
    assert type(fn(0.4)) is float
    assert type(fn(np.array(0.4))) is float


@pytest.mark.parametrize("shape", [(6,), (2, 3)])
@pytest.mark.parametrize("name", sorted(ADAPTED))
def test_array_input_keeps_its_shape(name, shape):
    fn, _ = ADAPTED[name]
    out = fn(GRID.reshape(shape))
    assert isinstance(out, np.ndarray)
    assert out.shape == shape
    assert_allclose(out.ravel(), [fn(u) for u in GRID], rtol=1e-12)


@pytest.mark.parametrize("name", sorted(n for n, (_, bad) in ADAPTED.items()
                                        if bad is not None))
def test_out_of_domain_raises_for_every_shape(name):
    fn, bad = ADAPTED[name]
    for arg in (bad, np.array([0.5, bad]), np.array([[0.5], [bad]])):
        with pytest.raises(DomainError):
            fn(arg)


# name -> function of one probability level, passed on as a scalar or array
LEVEL_TAKING = {
    "quantile": lambda a: quantile(_s, a),
    "mid_quantile": lambda a: mid_quantile(_s, a),
    "normal_reference.quantile": _g.quantile,
    "empirical_reference.quantile": empirical_reference(_s).quantile,
    "exponential_reference.quantile": exponential_reference(1.0).quantile,
    "uniform_reference.quantile": uniform_reference(0.0, 1.0).quantile,
    "eval_density": lambda a: eval_density(_comp, a),
    "comparison_distribution": lambda a: comparison_distribution(_s, _g, a),
    "eval_copula(u)": lambda a: eval_copula(_cop, a, 0.5),
    "eval_copula(v)": lambda a: eval_copula(_cop, 0.5, a),
    "conditional_density(v)": lambda a: conditional_density(_cop, 0.5, a),
    "conditional_quantile(p)": lambda a: conditional_quantile(_cop, 0.5, a),
    "quantile_curves(us)": lambda a: quantile_curves(_cop, a, [0.5]),
    "quantile_curves(ps)": lambda a: quantile_curves(_cop, [0.5], a),
}
# the same for functions that take one conditioning level u as a scalar
U_TAKING = {
    "conditional_slice": lambda u: conditional_slice(_cop, u),
    "conditional_density(u)": lambda u: conditional_density(_cop, u, 0.5),
    "conditional_mean": lambda u: conditional_mean(_cop, u),
    "conditional_quantile(u)": lambda u: conditional_quantile(_cop, u, 0.5),
    "slice_modes": lambda u: slice_modes(_cop, u),
}


@pytest.mark.parametrize("name", sorted(LEVEL_TAKING))
def test_nan_level_raises_domain_error(name):
    fn = LEVEL_TAKING[name]
    fn(np.array([0.5]))  # a valid level passes
    for arg in (np.nan, np.array([0.5, np.nan]), np.array([[np.nan], [0.5]])):
        with pytest.raises(DomainError):
            fn(arg)


@pytest.mark.parametrize("name", sorted(U_TAKING))
def test_nan_conditioning_level_raises_domain_error(name):
    U_TAKING[name](0.5)
    with pytest.raises(DomainError):
        U_TAKING[name](np.nan)
