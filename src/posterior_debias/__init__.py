"""Bias-corrected posterior estimation when the prior is only available
through samples.

The package splits into exact machinery on the discrete simplex (lattices,
transfer matrices, signed debiasing combinations), Bayes maps and plug-in
functionals, a deterministic resampling Monte Carlo driver, a rejection
sampler for the corrected posterior, and an experiment harness with a CLI.
"""

from ._version import __version__
from .bayes import (
    BoundedLikelihood,
    DiscreteBayesMap,
    GaussianMixture,
    WeightedSampleSet,
    discrete_bayes,
    gaussian_likelihood,
    mixture_posterior_tail_prob,
    plugin_expectation,
    plugin_posterior_prob,
)
from .errors import (
    CapExceededError,
    DegenerateError,
    IterationCapError,
    SupportError,
    UnderpoweredRunError,
)
from .operators import (
    LatticeFunction,
    central_moment,
    contraction_norm,
    debias_weights,
    debiased_estimate,
    debiased_estimate_mean,
    exact_bias,
    exact_variance,
    iterate_operator,
    transfer_matrix,
)
from .experiments import (
    default_binary_config,
    default_identity_config,
    default_mixture_config,
    fit_slope,
    run_binary_exact,
    run_identity_check,
    run_mixture_mc,
    run_rejection_demo,
)
from .rejection import (
    RejectionSpec,
    make_rejection_spec,
    rejection_sample_batch,
)
from .resampling import (
    MCConfig,
    build_chain,
    debiased_expectation,
    debiased_realization,
    exhaustive_chain_expectation,
    outer_mc,
)
from .simplex import (
    CountsVector,
    ProbVector,
    enumerate_lattice,
    multinomial_pmf_vector,
)

__all__ = [
    "__version__",
    "BoundedLikelihood",
    "CapExceededError",
    "CountsVector",
    "DegenerateError",
    "DiscreteBayesMap",
    "GaussianMixture",
    "IterationCapError",
    "LatticeFunction",
    "MCConfig",
    "ProbVector",
    "RejectionSpec",
    "SupportError",
    "UnderpoweredRunError",
    "WeightedSampleSet",
    "build_chain",
    "central_moment",
    "contraction_norm",
    "debias_weights",
    "debiased_estimate",
    "debiased_estimate_mean",
    "debiased_expectation",
    "debiased_realization",
    "default_binary_config",
    "default_identity_config",
    "default_mixture_config",
    "discrete_bayes",
    "enumerate_lattice",
    "exact_bias",
    "exact_variance",
    "exhaustive_chain_expectation",
    "fit_slope",
    "gaussian_likelihood",
    "iterate_operator",
    "make_rejection_spec",
    "mixture_posterior_tail_prob",
    "multinomial_pmf_vector",
    "outer_mc",
    "plugin_expectation",
    "plugin_posterior_prob",
    "rejection_sample_batch",
    "run_binary_exact",
    "run_identity_check",
    "run_mixture_mc",
    "run_rejection_demo",
    "transfer_matrix",
]
