"""Numerical laboratory for canonical correlation spectra under independence.

The package samples independent data pairs, computes squared canonical
correlation spectra, evaluates the deterministic limit objects they
converge to, verifies exact finite-size resolvent identities, and runs
Monte Carlo experiments for eigenvalue rigidity and edge fluctuations.
"""

__version__ = "0.1.0"

from . import errors, spectral_model, sampler, scc_core, linearized_resolvent, config, edge_stats
from .errors import *
from .spectral_model import *
from .sampler import *
from .scc_core import *
from .linearized_resolvent import *
from .config import *
from .edge_stats import *

_LAYERS = (errors, spectral_model, sampler, scc_core, linearized_resolvent, config, edge_stats)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
