"""Numerical laboratory for canonical correlation spectra under independence.

The package samples independent data pairs, computes squared canonical
correlation spectra, evaluates the deterministic limit objects they
converge to, verifies exact finite-size resolvent identities, and runs
Monte Carlo experiments for eigenvalue rigidity and edge fluctuations.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    NumericalError,
    ParameterError,
    ScclabError,
    SingularityError,
)
from .spectral_model import (
    PiDescriptor,
    SpectralModel,
    SpectralParameter,
    StieltjesQuadruple,
    classical_location,
    classical_locations,
    density,
    make_model,
    pi_limit,
    psi_control,
    sc_residuals,
    solve_m3,
    stieltjes,
    support_edges,
    support_mass,
)
from .sampler import (
    DataPair,
    PairMeta,
    TailSpec,
    dump_pair,
    load_pair,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    truncate_center_rescale,
)
from .scc_core import (
    SpectrumResult,
    WhitenedCross,
    ccc_eigenvalues,
    det_characterization_residual,
    rigidity_profile,
    sample_covariances,
    whitened_cross,
    write_spectrum_csv,
)
from .linearized_resolvent import (
    LinearizationMatrix,
    LocalLawReport,
    ResolventBundle,
    blocks_via_schur,
    build_H,
    local_law_errors,
    resolvent,
)
from .config import ExperimentConfig
from .edge_stats import (
    EdgeSamples,
    ExperimentReport,
    derived_seed,
    goe_reference,
    ks_two_sample,
    rigidity_experiment,
    run_edge_trials,
    sample_pair,
    tw_experiment,
    tw_rescale,
)

__all__ = [
    "__version__",
    "ScclabError", "ParameterError", "DomainError", "NumericalError", "SingularityError",
    "SpectralModel", "SpectralParameter", "StieltjesQuadruple", "PiDescriptor",
    "make_model", "support_edges", "density", "support_mass",
    "classical_location", "classical_locations", "stieltjes", "sc_residuals",
    "solve_m3", "pi_limit", "psi_control",
    "DataPair", "PairMeta", "TailSpec",
    "sample_gaussian", "sample_bounded", "sample_heavy_tail",
    "truncate_center_rescale", "dump_pair", "load_pair",
    "SpectrumResult", "WhitenedCross",
    "sample_covariances", "whitened_cross", "ccc_eigenvalues",
    "det_characterization_residual", "rigidity_profile", "write_spectrum_csv",
    "LinearizationMatrix", "ResolventBundle", "LocalLawReport",
    "build_H", "resolvent", "blocks_via_schur", "local_law_errors",
    "ExperimentConfig", "EdgeSamples", "ExperimentReport",
    "sample_pair", "derived_seed", "tw_rescale", "goe_reference",
    "ks_two_sample", "run_edge_trials", "tw_experiment", "rigidity_experiment",
]
