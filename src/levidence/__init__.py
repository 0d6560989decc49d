"""Evidence estimation over likelihood levels, with model selection."""

from .baselines import NestedConfig, run_mc, run_nested
from .core import (BayesianProblem, EvidenceEstimate, LevelTrace,
                   MarginalPrior, TerminationReason, normal_prior,
                   truncated_normal_prior, uniform_prior)
from .lla_is import ISConfig, run_lla_is
from .lla_mcmc import KernelConfig, MCMCConfig, run_lla_mcmc
from .lla_ss import SSConfig, run_lla_ss
from .models import (ConjugateGaussianProblem, conjugate_exact_log_evidence,
                     grid_log_evidence, make_benchmark)
from .schedule import LevelPolicy, StoppingPolicy
from .selection import ModelSet, posterior_model_probabilities

__all__ = [
    "BayesianProblem", "MarginalPrior", "normal_prior",
    "truncated_normal_prior", "uniform_prior", "ISConfig", "KernelConfig",
    "MCMCConfig", "NestedConfig", "SSConfig", "LevelPolicy", "StoppingPolicy",
    "run_mc", "run_nested", "run_lla_is", "run_lla_ss", "run_lla_mcmc",
    "EvidenceEstimate", "LevelTrace", "TerminationReason",
    "ConjugateGaussianProblem", "conjugate_exact_log_evidence",
    "grid_log_evidence", "make_benchmark",
    "ModelSet", "posterior_model_probabilities",
]

__version__ = "0.1.0"
