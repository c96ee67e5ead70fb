"""Rank-based nonparametric statistics.

Mid-distribution empirical machinery, custom orthonormal score functions,
LP moments and comoments, comparison-density and copula-density series
estimation, conditional mean and quantile curves, and the algebra that
unifies the classical two-sample statistics with their rank and Bayesian
counterparts. A CLI (`lpstats`) exposes the whole pipeline on CSV files.

The package re-exports the `__all__` of each library module below, so each
public name is declared once, in its own module.
"""

from .empirical import *
from .scores import *
from .lp import *
from .compdensity import *
from .copula import *
from .twosample import *
from .datasets import *

__version__ = "0.1.0"
