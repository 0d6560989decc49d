"""Tests for posterior model probabilities."""

import math

import pytest

from levidence.core import NEG_INF
from levidence.selection import (ModelSet, NoViableModelError,
                                 posterior_model_probabilities)


class TestModelSet:
    def test_default_uniform_prior(self):
        ms = ModelSet(names=["a", "b"], log_evidences=[0.0, 0.0])
        assert ms.prior_probs == [0.5, 0.5]

    def test_misaligned_lengths(self):
        with pytest.raises(ValueError):
            ModelSet(names=["a"], log_evidences=[0.0, 1.0])

    def test_empty_set(self):
        with pytest.raises(ValueError):
            ModelSet(names=[], log_evidences=[])

    def test_negative_prior(self):
        with pytest.raises(ValueError):
            ModelSet(names=["a", "b"], log_evidences=[0.0, 0.0],
                     prior_probs=[1.5, -0.5])

    def test_priors_must_normalize(self):
        with pytest.raises(ValueError):
            ModelSet(names=["a", "b"], log_evidences=[0.0, 0.0],
                     prior_probs=[0.5, 0.4])


class TestPosteriorProbabilities:
    def test_dominant_model(self):
        ms = ModelSet(names=["m1", "m2", "m3"],
                      log_evidences=[45.6893, -46.1149, -821.0503])
        probs = posterior_model_probabilities(ms)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(0.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_equal_evidences_split_evenly(self):
        ms = ModelSet(names=list("abcd"), log_evidences=[-3.2] * 4)
        probs = posterior_model_probabilities(ms)
        assert probs == pytest.approx([0.25] * 4, abs=1e-12)

    def test_log3_gap(self):
        # evidence ratio 3:1 with a flat model prior: 0.75 / 0.25
        ms = ModelSet(names=["a", "b"], log_evidences=[math.log(3.0), 0.0])
        probs = posterior_model_probabilities(ms)
        assert probs == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_shift_invariance(self):
        evid = [-10.0, -12.5, -11.7]
        base = posterior_model_probabilities(
            ModelSet(names=list("abc"), log_evidences=evid))
        shifted = posterior_model_probabilities(
            ModelSet(names=list("abc"),
                     log_evidences=[e + 500.0 for e in evid]))
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_permutation_equivariance(self):
        evid = [-10.0, -12.5, -11.7]
        base = posterior_model_probabilities(
            ModelSet(names=list("abc"), log_evidences=evid))
        perm = posterior_model_probabilities(
            ModelSet(names=list("cab"),
                     log_evidences=[evid[2], evid[0], evid[1]]))
        assert perm == pytest.approx([base[2], base[0], base[1]], abs=1e-12)

    def test_nonuniform_prior(self):
        ms = ModelSet(names=["a", "b"], log_evidences=[0.0, 0.0],
                      prior_probs=[0.9, 0.1])
        probs = posterior_model_probabilities(ms)
        assert probs == pytest.approx([0.9, 0.1], abs=1e-12)

    def test_zero_prior_model_gets_zero_posterior(self):
        ms = ModelSet(names=["a", "b"], log_evidences=[0.0, 100.0],
                      prior_probs=[1.0, 0.0])
        probs = posterior_model_probabilities(ms)
        assert probs == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_all_impossible_raises(self):
        ms = ModelSet(names=["a", "b"], log_evidences=[NEG_INF, NEG_INF])
        with pytest.raises(NoViableModelError,
                           match="no model explains the data"):
            posterior_model_probabilities(ms)

    def test_one_impossible_model(self):
        ms = ModelSet(names=["a", "b"], log_evidences=[-1.0, NEG_INF])
        probs = posterior_model_probabilities(ms)
        assert probs == pytest.approx([1.0, 0.0], abs=1e-12)
