"""The public surface: each name declared once, in its module's __all__."""

import inspect
import types
from dataclasses import fields

import pytest

import lpstats
from lpstats import (cli, compdensity, copula, datasets, empirical, errors, lp,
                     scores, twosample)

# The library modules whose __all__ the package re-exports; `cli` (the
# command line) and `errors` are imported from their modules.
LIBRARY = (empirical, scores, lp, compdensity, copula, twosample, datasets)

# Removed names, each a re-spelling of another public path (see README).
REMOVED = ("standardize", "lpinfor", "eval_score", "score_quantile",
           "simulate_conditional", "correlation_stats", "mid_ranks",
           "logistic_score_features", "ScoreFeatures")

# The parameters of each function whose order is its basis's, and whose
# other settings are module constants or read off the fit (`classify`'s
# prior is the model's tau; see README's removed parameters).
PARAMETERS = {
    lp.lp_moments: ["b"],
    lp.lp_comoments: ["bx", "by", "rule"],
    copula.series_regression: ["bx", "y_obs", "rule"],
    copula.eval_copula: ["mod", "u", "v"],
    compdensity.maxent_fit: ["mod"],
    twosample.classify: ["model", "y"],
}


def test_the_package_exports_the_union_of_the_module_lists():
    exported = {name for name, value in vars(lpstats).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    declared = [name for module in LIBRARY for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert exported == set(declared)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_every_listed_name_resolves_to_the_package_attribute(module):
    for name in module.__all__:
        assert getattr(lpstats, name) is getattr(module, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_unreachable(name):
    for module in (lpstats, *LIBRARY, cli, errors):
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("fn", PARAMETERS, ids=lambda fn: fn.__name__)
def test_an_order_is_set_only_where_a_basis_is_built(fn):
    assert list(inspect.signature(fn).parameters) == PARAMETERS[fn]


def test_paired_estimators_take_what_was_built():
    # rows come from the Samples and bases given, so no Sample keeps a
    # copy of its observations (see README's changed call forms)
    params = inspect.signature(lp.correlations).parameters
    assert list(params) == ["c"]
    assert "obs" not in empirical.Sample.__slots__
    assert not hasattr(empirical.make_sample([1.0, 2.0]), "obs")


def test_the_order_checks_are_gone():
    assert not hasattr(errors, "OrderOutOfRange")
    assert not hasattr(scores, "_check_order")
    assert "order" not in [f.name for f in fields(copula.CopulaModel)]
    assert "threshold" not in [f.name for f in fields(lp.LPMomentVector)]


def test_no_record_restates_its_fit():
    # the order is c.size, and n and the rule are the caller's own
    names = [f.name for f in fields(compdensity.CompDensityModel)]
    assert not {"order", "n", "rule"} & set(names)
    assert not {"n", "rule"} & {f.name for f in fields(lp.LPComomentMatrix)}
    # a sample is its basis's source; u, the requested order and the
    # small-sample scale are the caller's own; a density is `_pdf`'s; a
    # slice's weights are the coefficients against its own level's scores;
    # a sample's counts are `np.bincount(atom_index, minlength=r)`
    restated = {empirical.Sample: {"counts"},
                copula.CopulaModel: {"sx", "sy"},
                twosample.TwoSampleDensity: {"sy"},
                copula.ConditionalSlice: {"u", "weights"},
                scores.ScoreBasis: {"requested_order"},
                twosample.WilcoxonResult: {"scale"},
                compdensity.ReferenceDistribution: {"has_density"}}
    for record, gone in restated.items():
        # fields, slots and properties alike
        held = set(dir(record)) | set(getattr(record, "__dataclass_fields__",
                                              ()))
        assert not gone & held, record
