"""Model selection from estimated log evidences.

All arithmetic stays in the log domain so that models whose evidences
differ by hundreds of log units still normalize cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import NEG_INF, log_sum_exp


class NoViableModelError(ValueError):
    pass


@dataclass
class ModelSet:
    """Candidate models with log evidences and prior model probabilities."""

    names: list
    log_evidences: list
    prior_probs: list = field(default=None)

    def __post_init__(self):
        if len(self.names) == 0:
            raise ValueError("empty model set")
        if self.prior_probs is None:
            self.prior_probs = [1.0 / len(self.names)] * len(self.names)
        if not (len(self.names) == len(self.log_evidences)
                == len(self.prior_probs)):
            raise ValueError("names, evidences and priors must align")
        # written so that a NaN fails too; it would pass the sum check
        if not all(p >= 0 for p in self.prior_probs):
            raise ValueError("prior probabilities must be nonnegative")
        if abs(sum(self.prior_probs) - 1.0) > 1e-12:
            raise ValueError("prior probabilities must sum to 1")


def posterior_model_probabilities(ms):
    """Posterior probability of each model by Bayes' theorem, log domain."""
    log_terms = []
    for log_E, prior in zip(ms.log_evidences, ms.prior_probs):
        if prior == 0.0 or log_E == NEG_INF:
            log_terms.append(NEG_INF)
        else:
            log_terms.append(log_E + math.log(prior))
    log_Z = log_sum_exp(log_terms)
    if log_Z == NEG_INF:
        raise NoViableModelError("no model explains the data")
    probs = np.exp(np.asarray(log_terms) - log_Z)
    return list(probs / probs.sum())
