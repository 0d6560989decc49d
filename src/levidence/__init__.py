"""Evidence estimation over likelihood levels, with model selection."""

from .baselines import NestedConfig, run_mc, run_nested
from .core import (BayesianProblem, CountingLikelihood, EvidenceEstimate,
                   LevelTrace, MarginalPrior, TerminationReason,
                   effective_sample_size, evidence_update, log_sum_exp,
                   normal_prior, posterior_moments, shell_statistics,
                   truncated_normal_prior, uniform_prior)
from .lla_is import GaussianISD, ISConfig, fit_isd, run_lla_is
from .lla_mcmc import (KernelConfig, MCMCConfig, constrained_mh_step,
                       run_lla_mcmc)
from .lla_ss import SSConfig, StrataGrid, build_strata, run_lla_ss
from .models import (ConjugateGaussianProblem, QuadratureOracle,
                     conjugate_exact_log_evidence, grid_log_evidence,
                     make_benchmark)
from .schedule import (LevelPolicy, StoppingPolicy, select_level, should_stop)
from .selection import (ModelSet, log_bayes_factor,
                        posterior_model_probabilities)

__all__ = [
    "BayesianProblem", "CountingLikelihood", "EvidenceEstimate", "LevelTrace",
    "MarginalPrior", "TerminationReason", "effective_sample_size",
    "evidence_update", "log_sum_exp", "normal_prior",
    "posterior_moments", "shell_statistics", "truncated_normal_prior",
    "uniform_prior", "LevelPolicy", "StoppingPolicy", "select_level",
    "should_stop", "GaussianISD", "ISConfig", "fit_isd", "run_lla_is",
    "SSConfig", "StrataGrid", "build_strata", "run_lla_ss", "KernelConfig",
    "MCMCConfig", "constrained_mh_step", "run_lla_mcmc", "NestedConfig",
    "run_mc", "run_nested", "ConjugateGaussianProblem", "QuadratureOracle",
    "conjugate_exact_log_evidence", "grid_log_evidence", "make_benchmark",
    "ModelSet", "log_bayes_factor", "posterior_model_probabilities",
]

__version__ = "0.1.0"
