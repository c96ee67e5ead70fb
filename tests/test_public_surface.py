"""The public surface: each name declared once, in its module's __all__."""

import types

import pytest

import lpstats
from lpstats import (cli, compdensity, copula, datasets, empirical, errors, lp,
                     scores, twosample)

# The library modules whose __all__ the package re-exports; `cli` (the
# command line) and `errors` are imported from their modules.
LIBRARY = (empirical, scores, lp, compdensity, copula, twosample, datasets)

# Removed names, each a re-spelling of another public path (see README).
REMOVED = ("standardize", "lpinfor", "eval_score", "score_quantile",
           "simulate_conditional")


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
