"""Unit tests for the log-domain primitives and shared types."""

import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from levidence import (ISConfig, KernelConfig, LevelPolicy, MCMCConfig,
                       NestedConfig, SSConfig, StoppingPolicy,
                       grid_log_evidence, run_lla_is, run_lla_mcmc,
                       run_lla_ss, run_mc, run_nested)
from levidence.core import (NEG_INF, BayesianProblem, ConfigFieldError,
                            CountingLikelihood, DegenerateWeightsError,
                            LevelTrace, MarginalPrior,
                            _TruncatedNormal, effective_sample_size,
                            evidence_update, finalize_estimate, from_unit,
                            keyed_generators, log_density, log_sum_exp,
                            log_terms, marginal_blocks, normal_prior,
                            posterior_moments, shell_statistics,
                            truncated_normal_prior, uniform_prior)
from levidence.lla_is import fit_isd

INF = math.inf


def normalization_defect(prior):
    """|integral of exp(log_pdf) - 1| by adaptive quadrature; an infinite
    bound is cut 12 standard deviations from the mean."""
    lo, hi = prior.support
    if not np.isfinite(lo):
        lo = prior.mean - 12.0 * prior.std
    if not np.isfinite(hi):
        hi = prior.mean + 12.0 * prior.std
    total, _ = integrate.quad(lambda x: math.exp(prior.log_pdf(x)), lo, hi,
                              limit=200)
    return abs(total - 1.0)


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_large_offset_is_stable(self):
        # both terms overflow a naive exp
        val = log_sum_exp([1000.0, 1000.0])
        assert val == pytest.approx(1000.0 + math.log(2.0))

    def test_dominant_term(self):
        assert log_sum_exp([-1e308, 5.0]) == pytest.approx(5.0)

    def test_all_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, float("nan")])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=50)
        assert log_sum_exp(xs) == pytest.approx(np.log(np.exp(xs).sum()))


class TestEffectiveSampleSize:
    def test_uniform_weights(self):
        assert effective_sample_size(np.ones(100)) == pytest.approx(100.0)

    def test_single_nonzero_weight(self):
        w = np.zeros(10)
        w[3] = 5.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_scale_invariant(self):
        w = np.array([0.1, 0.4, 0.5, 2.0])
        assert effective_sample_size(w) == pytest.approx(
            effective_sample_size(1e6 * w))

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.uniform(size=17)
            ess = effective_sample_size(w)
            assert 1.0 <= ess <= 17.0 + 1e-12

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateWeightsError):
            effective_sample_size(np.zeros(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            effective_sample_size([])


class TestEvidenceUpdate:
    def test_single_shell(self):
        # lambda = e^2, delta chi = 0.25 -> increment log = 2 + log(0.25)
        inc = evidence_update(2.0, 0.5, 0.25)
        assert inc == pytest.approx(2.0 + math.log(0.25))

    def test_nonmonotone_chi_clamped(self):
        # a chi above chi_prev is an empty shell, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evidence_update(0.0, 0.3, 0.4) == NEG_INF

    def test_zero_width_shell(self):
        assert evidence_update(5.0, 0.3, 0.3) == NEG_INF

    def test_chi_prev_above_one_raises(self):
        with pytest.raises(ValueError):
            evidence_update(0.0, 1.5, 0.5)


class TestPriors:
    def test_normal_prior_normalized(self):
        assert normalization_defect(normal_prior(1.0, 0.25)) < 1e-8

    def test_uniform_prior_normalized(self):
        assert normalization_defect(uniform_prior(-2.0, 3.0)) < 1e-8

    def test_truncated_normal_prior_normalized(self):
        assert normalization_defect(
            truncated_normal_prior(0.0, 1.0, -1.0, 2.0)) < 1e-8

    def test_normal_log_pdf_value(self):
        p = normal_prior(0.0, 1.0)
        assert p.log_pdf(0.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi))

    def test_normal_inverse_cdf_median(self):
        p = normal_prior(3.0, 2.0)
        assert p.inverse_cdf(0.5) == pytest.approx(3.0)

    def test_uniform_log_pdf_outside_support(self):
        p = uniform_prior(0.0, 1.0)
        assert p.log_pdf(0.5) == pytest.approx(0.0)
        assert p.log_pdf(1.5) == NEG_INF

    def test_uniform_inverse_cdf(self):
        p = uniform_prior(2.0, 6.0)
        assert p.inverse_cdf(0.25) == pytest.approx(3.0)

    def test_sample_moments(self):
        problem = BayesianProblem(dimension=1, priors=[normal_prior(1.0, 0.5)],
                                  log_likelihood=lambda t: 0.0)
        xs = problem.sample_prior(np.random.default_rng(5), 20000)[:, 0]
        assert xs.mean() == pytest.approx(1.0, abs=0.02)
        assert xs.std() == pytest.approx(0.5, abs=0.02)

    def test_array_calls_match_elementwise(self):
        xs = np.linspace(-2.5, 2.5, 11)  # outside every bounded support too
        us = np.linspace(0.01, 0.99, 11)
        for p in (normal_prior(0.5, 2.0), uniform_prior(-1.0, 1.5),
                  truncated_normal_prior(0.0, 1.0, -1.0, 2.0)):
            assert np.all(p.log_pdf(xs) == [p.log_pdf(x) for x in xs])
            assert np.all(p.inverse_cdf(us) == [p.inverse_cdf(u) for u in us])

    @pytest.mark.parametrize("make, args, message", [
        (normal_prior, (0.0, 0.0), "need std > 0"),
        (normal_prior, (0.0, -1.0), "need std > 0"),
        (truncated_normal_prior, (0.0, -1.0, 0.0, 1.0), "need std > 0"),
        (truncated_normal_prior, (0.0, 0.0, 0.0, 1.0), "need std > 0"),
        (truncated_normal_prior, (0.0, 1.0, 2.0, 1.0), "need hi > lo"),
        (truncated_normal_prior, (0.0, 1.0, 1.0, 1.0), "need hi > lo"),
        (uniform_prior, (1.0, 1.0), "need hi > lo"),
        (normal_prior, (math.nan, 1.0), "need a finite mean"),
        (normal_prior, (0.0, INF), "need a finite std"),
        (normal_prior, (0.0, math.nan), "need std > 0"),
        (truncated_normal_prior, (math.nan, 1.0, 0.0, 1.0),
         "need a finite mean"),
        (truncated_normal_prior, (INF, 1.0, 0.0, 1.0), "need a finite mean"),
        (truncated_normal_prior, (0.0, INF, 0.0, 1.0), "need a finite std"),
        (truncated_normal_prior, (0.0, 1.0, math.nan, 1.0), "need hi > lo"),
        (uniform_prior, (0.0, INF), "need finite lo and hi"),
        (uniform_prior, (-INF, 0.0), "need finite lo and hi"),
        (uniform_prior, (math.nan, 1.0), "need hi > lo"),
    ])
    def test_invalid_parameters_rejected(self, make, args, message):
        with pytest.raises(ValueError, match=message):
            make(*args)

    def test_truncated_normal_prior_takes_infinite_bounds(self):
        for lo, hi in ((-INF, 1.0), (0.0, INF), (-INF, INF)):
            p = truncated_normal_prior(0.5, 2.0, lo, hi)
            assert p.support == (lo, hi)
            assert np.isfinite(p.mean) and p.std > 0


class TestMarginalBlocks:
    """One call per family of identical marginals, with the per-column
    results bit for bit."""

    @staticmethod
    def _marginals(seen):
        # seen collects the shape of every value the custom marginal, which
        # has no family key, is called with
        g = normal_prior(0.5, 3.0)

        def log_pdf(x):
            seen.append(np.shape(x))
            return g.log_pdf(x)

        return [normal_prior(0.0, 1.0), uniform_prior(0.0, 2.0),
                normal_prior(0.0, 1.0),
                truncated_normal_prior(1.25, 0.5, 1.0, 1.5),
                normal_prior(0.0, 2.0),
                MarginalPrior(log_pdf, g.inverse_cdf, g.support)]

    def test_family_keys(self):
        ms = self._marginals([])
        assert ms[0].family == ms[2].family == ("normal", 0.0, 1.0)
        assert ms[1].family == ("uniform", 0.0, 2.0)
        assert ms[3].family == ("truncated_normal", 1.25, 0.5, 1.0, 1.5)
        assert ms[5].family is None
        (m0, cols0), *rest = marginal_blocks(ms)
        assert m0 is ms[0] and np.array_equal(cols0, [0, 2])
        assert rest == [(ms[k], k) for k in (1, 3, 4, 5)]
        ns = [normal_prior(0.0, 1.0) for _ in range(4)]
        assert marginal_blocks(ns) == ((ns[0], slice(None)),)
        u = uniform_prior(0.0, 1.0)
        assert marginal_blocks([u]) == ((u, 0),)

    def test_equal_to_one_call_per_column(self):
        seen = []
        ms = self._marginals(seen)
        blocks = marginal_blocks(ms)
        rng = np.random.default_rng(11)
        # points inside and outside the bounded supports
        X = rng.uniform(-1.0, 2.5, size=(40, len(ms)))
        terms = np.column_stack([m.log_pdf(x) for m, x in zip(ms, X.T)])
        total = 0.0
        for m, x in zip(ms, X.T):
            total += m.log_pdf(x)
        assert np.isinf(terms).any() and np.isfinite(total).any()
        del seen[:]
        assert np.array_equal(log_terms(blocks, X), terms)
        assert np.array_equal(log_density(blocks, X), total)
        assert seen == [(40,), (40,)]
        for x in X[:5]:
            assert np.array_equal(log_terms(blocks, x),
                                  [m.log_pdf(v) for m, v in zip(ms, x)])
            expect = 0.0
            for m, v in zip(ms, x):
                expect += m.log_pdf(v)
            assert log_density(blocks, x) == expect
        assert seen[-1] == ()

        u = np.concatenate([[[0.0, 1.0]] * len(ms),
                            rng.random((len(ms), 30))], axis=1)
        clipped = np.clip(u, 1e-16, 1.0 - 1e-16)
        expect = np.column_stack([m.inverse_cdf(r)
                                  for m, r in zip(ms, clipped)])
        assert np.array_equal(from_unit(blocks, u), expect)
        assert from_unit(blocks, u).flags.c_contiguous

    def test_one_block_covering_every_column(self):
        # 12 columns: a pairwise sum over the rows would round differently
        ms = [truncated_normal_prior(0.0, 1.0, -1.0, 2.0) for _ in range(12)]
        blocks = marginal_blocks(ms)
        X = np.random.default_rng(12).normal(0.5, 0.5, size=(30, 12))
        terms = np.column_stack([m.log_pdf(x) for m, x in zip(ms, X.T)])
        assert np.array_equal(log_terms(blocks, X), terms)
        total = 0.0
        for column in terms.T:
            total += column
        assert np.array_equal(log_density(blocks, X), total)
        u = np.random.default_rng(13).random((12, 30))
        assert np.array_equal(from_unit(blocks, u), np.column_stack(
            [m.inverse_cdf(r) for m, r in zip(ms, u)]))


# standard bounds (a, b) that take every branch of the closed form: b <= 0,
# a > 0 and the central case for the mass, a < 0 and a >= 0 for the
# quantile, with one or both bounds infinite, and far tails
STANDARD_BOUNDS = [
    (-INF, INF), (-INF, -1.0), (-INF, 0.0), (-INF, 2.0), (-0.5, INF),
    (0.0, INF), (1.0, INF), (-3.0, -1.0), (-2.0, 0.0), (0.0, 1.0),
    (0.5, 3.0), (-1.0, 2.0), (-0.3, 0.1), (-40.0, -38.0), (38.0, 40.0),
    (5.0, 5.5),
]


class TestTruncatedNormalClosedForm:
    """Every value equals scipy.stats.truncnorm's bit for bit."""

    @pytest.mark.parametrize("a, b", STANDARD_BOUNDS)
    @pytest.mark.parametrize("loc, scale", [(0.0, 1.0), (1.25, 0.5),
                                            (-3.7, 2.3)])
    def test_equals_scipy(self, a, b, loc, scale):
        lo, hi = loc + a * scale, loc + b * scale
        ref = stats.truncnorm((lo - loc) / scale, (hi - loc) / scale,
                              loc=loc, scale=scale)
        d = _TruncatedNormal(loc, scale, lo, hi)

        us = np.concatenate([[1e-16, 1.0 - 1e-16, 0.5],
                             np.random.default_rng(3).uniform(size=50)])
        assert np.array_equal(d.inverse_cdf(us), ref.ppf(us))
        for u in us[:5]:
            assert d.inverse_cdf(u) == ref.ppf(u)

        # the quantiles, the bounds and the points just outside them, and
        # points outside the support, where both give -inf
        left = lo if np.isfinite(lo) else loc - 10.0 * scale
        right = hi if np.isfinite(hi) else loc + 10.0 * scale
        xs = np.concatenate([
            ref.ppf(us), np.linspace(left - 1.0, right + 1.0, 41),
            [lo, hi, np.nextafter(lo, -INF), np.nextafter(hi, INF),
             -INF, INF]])
        assert np.array_equal(d.log_pdf(xs), ref.logpdf(xs))
        for x in xs:
            assert d.log_pdf(x) == ref.logpdf(x)
        assert d.moments() == (float(ref.mean()), float(ref.std()))

    def test_prior_and_isd_use_it(self):
        p = truncated_normal_prior(1.25, 0.5, 1.0, 1.5)
        ref = stats.truncnorm(-0.5, 0.5, loc=1.25, scale=0.5)
        xs, us = np.linspace(0.9, 1.6, 15), np.linspace(0.05, 0.95, 15)
        assert np.array_equal(p.log_pdf(xs), ref.logpdf(xs))
        assert np.array_equal(p.inverse_cdf(us), ref.ppf(us))
        assert (p.mean, p.std) == (float(ref.mean()), float(ref.std()))

        isd = fit_isd(np.array([[0.2, 1.0], [0.4, 3.0], [0.9, 2.0]]), 2.0,
                      [(0.0, 1.0), (-INF, INF)])
        refs = [stats.truncnorm((lo - m) / s, (hi - m) / s, loc=m, scale=s)
                for (lo, hi), m, s in zip(isd.support, isd.mean, isd.stddev)]
        thetas = isd.sample(np.random.default_rng(4), 20)
        rng = np.random.default_rng(4)
        assert np.array_equal(thetas, np.column_stack([
            r.ppf(np.clip(rng.uniform(size=20), 1e-16, 1.0 - 1e-16))
            for r in refs]))
        assert np.array_equal(isd.log_pdf(thetas),
                              sum(r.logpdf(x) for r, x in zip(refs, thetas.T)))


@pytest.mark.parametrize("loc, scale, lo, hi", [
    (0.0, 1.0, 0.0, 1e-6), (5.0, 1.0, 5.0, 5.000001),
    (0.0, 1.0, 5.0, 5.000001)])
def test_truncated_normal_moments_on_narrow_supports(loc, scale, lo, hi):
    # the closed form gives std NaN on the first two and 1.2e-4 on the
    # third; quad integrates over the offset u = x - lo, with the density
    # relative to its value at lo
    def density(u):
        return math.exp(-u * (u + 2.0 * (lo - loc)) / (2.0 * scale * scale))

    def quad(f):
        return integrate.quad(f, 0.0, hi - lo, epsabs=0.0, epsrel=1e-10)[0]

    mass = quad(density)
    mean = quad(lambda u: u * density(u)) / mass
    std = math.sqrt(quad(lambda u: (u - mean) ** 2 * density(u)) / mass)
    d_mean, d_std = _TruncatedNormal(loc, scale, lo, hi).moments()
    assert d_mean - lo == pytest.approx(mean, rel=1e-6)
    assert d_std == pytest.approx(std, rel=1e-6)
    assert std == pytest.approx((hi - lo) / math.sqrt(12.0), rel=1e-3)


def _seed_sequence_state(*entropy):
    return np.random.PCG64(np.random.SeedSequence(list(entropy))).state


class TestKeyedGenerators:
    """Each generator starts where SeedSequence([*prefix, key]) starts one."""

    ENTRIES = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**90,
               np.int64(5), True]
    KEYS = [0, 1, 999, 2**32 - 1]

    @pytest.mark.parametrize("entry", ENTRIES, ids=repr)
    def test_equals_seed_sequence(self, entry):
        # prefixes of 1 to 4 entries: with 2**90 (three words) the entropy
        # runs past the 4-word pool
        for size in range(1, 5):
            prefix = (entry,) + (7, 2**33 + 1, 0)[:size - 1]
            gens = list(keyed_generators(prefix, self.KEYS))
            assert len(gens) == len(self.KEYS)
            for key, gen in zip(self.KEYS, gens):
                assert (gen.bit_generator.state
                        == _seed_sequence_state(*prefix, key))

    def test_long_prefix(self):
        # entropy of 20 words, past the precomputed hash constants
        prefix = (2**600, 3)
        for key, gen in zip(self.KEYS, keyed_generators(prefix, self.KEYS)):
            assert (gen.bit_generator.state
                    == _seed_sequence_state(*prefix, key))

    def test_blocks_equal_single_keys(self):
        gens = list(itertools.islice(
            keyed_generators((11, 4), itertools.count(1)), 1025))
        for key in (1, 1023, 1024, 1025):
            (alone,) = keyed_generators((11, 4), [key])
            assert (gens[key - 1].bit_generator.state
                    == alone.bit_generator.state
                    == _seed_sequence_state(11, 4, key))

    def test_generators_are_fresh(self):
        a, b = keyed_generators((3,), [0, 0])
        assert a is not b and a.bit_generator is not b.bit_generator
        assert a.random() == b.random()
        a.random()
        assert a.random() != b.random()

    def test_bad_entries_and_keys_raise(self):
        with pytest.raises(ValueError):
            keyed_generators((7, -1), [0])
        with pytest.raises(TypeError):
            keyed_generators((1.5,), [0])
        with pytest.raises(ValueError):
            next(keyed_generators((7,), [2**32]))
        with pytest.raises(ValueError):
            next(keyed_generators((7,), [-1]))
        with pytest.raises(TypeError):
            next(keyed_generators((7,), [1.0]))


def test_import_skips_scipy_stats_and_integrate():
    # scipy.stats alone takes longer to import than the rest of the package
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, levidence, levidence.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.strip() == "[]"


class TestBayesianProblem:
    def _problem(self):
        return BayesianProblem(
            dimension=2,
            priors=[normal_prior(0.0, 1.0), uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.0,
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            BayesianProblem(dimension=2, priors=[normal_prior(0, 1)],
                            log_likelihood=lambda t: 0.0)

    def test_log_prior_is_sum_of_marginals(self):
        p = self._problem()
        theta = np.array([0.3, 0.4])
        expect = p.priors[0].log_pdf(0.3) + p.priors[1].log_pdf(0.4)
        assert p.log_prior(theta) == pytest.approx(expect)

    def test_log_prior_rows_match_vectors(self):
        p = self._problem()
        X = np.array([[0.3, 0.4], [-1.0, 1.5], [2.0, 0.0], [0.1, -0.2]])
        assert np.all(p.log_prior(X) == [p.log_prior(x) for x in X])

    def test_sample_prior_shape_and_support(self):
        p = self._problem()
        s = p.sample_prior(np.random.default_rng(2), 500)
        assert s.shape == (500, 2)
        assert np.all((s[:, 1] >= 0.0) & (s[:, 1] <= 1.0))


class TestCountingLikelihood:
    def test_counts_calls(self):
        fn = CountingLikelihood(lambda t: float(t[0]))
        for i in range(7):
            fn.rows(np.array([[float(i)]]))
        assert fn.count == 7

    def test_rows_equal_calls_and_count(self):
        problem = BayesianProblem(
            dimension=2, priors=[normal_prior(0.0, 1.0)] * 2,
            log_likelihood=lambda t: -0.5 * float(t @ t) + math.sin(t[0]))
        x = problem.sample_prior(np.random.default_rng(4), 50)
        batch, single = (CountingLikelihood(problem.log_likelihood)
                         for _ in range(2))
        values = batch.rows(x)
        assert values.dtype == float and values.shape == (50,)
        assert values.tolist() == [single.rows(t[None])[0] for t in x]
        assert values.tolist() == [problem.log_likelihood(t) for t in x]
        assert batch.count == single.count == 50

    def test_empty_rows(self):
        def no_batch(thetas):
            raise AssertionError("batch form called on no rows")

        for fn in (CountingLikelihood(lambda t: 0.0),
                   CountingLikelihood(lambda t: 0.0, no_batch)):
            values = fn.rows(np.empty((0, 3)))
            assert values.dtype == float and values.shape == (0,)
            assert fn.count == 0

    def test_rows_call_batch_form_once_and_count_rows(self):
        calls = []

        def batch(thetas):
            calls.append(len(thetas))
            return thetas.sum(axis=1).astype(int)  # cast to float by rows

        loop, fn = (CountingLikelihood(lambda t: float(t.sum()), rows_fn)
                    for rows_fn in (None, batch))
        x = np.arange(12.0).reshape(6, 2)
        for n in (6, 1, 3):
            values = fn.rows(x[:n])
            assert values.dtype == float and values.shape == (n,)
            assert values.tolist() == loop.rows(x[:n]).tolist()
        assert calls == [6, 1, 3]
        assert fn.count == loop.count == 10

    @pytest.mark.parametrize("shape", [(3, 1), (2,), (4,), ()])
    def test_wrong_shape_batch_form_raises(self, shape):
        fn = CountingLikelihood(lambda t: 0.0, lambda x: np.zeros(shape))
        with pytest.raises(ValueError, match=r"returned shape %s; expected "
                           r"\(3,\)" % re.escape(str(shape))):
            fn.rows(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_plus_inf_raise(self, bad):
        scalar = lambda t: bad if t[0] > 0.5 else NEG_INF
        fn = CountingLikelihood(scalar)
        assert fn.rows(np.array([[0.1]])) == NEG_INF
        with pytest.raises(ValueError, match=r"%s at theta = \[0.75\]" % bad):
            fn.rows(np.array([[0.75]]))
        x = np.array([[0.25], [0.75], [1.0]])
        with pytest.raises(ValueError, match=r"%s at theta = \[0.75\]" % bad):
            fn.rows(x)
        batch = CountingLikelihood(
            scalar, lambda x: np.where(x[:, 0] > 0.5, bad, NEG_INF))
        with pytest.raises(ValueError, match=r"%s at theta = \[0.75\]" % bad):
            batch.rows(x)

    @pytest.mark.parametrize("run", [
        lambda p: run_mc(p, 2000, 0),
        lambda p: run_nested(p, NestedConfig(), 0),
        lambda p: run_lla_is(p, ISConfig(), 0),
        lambda p: run_lla_ss(p, SSConfig(), 0),
        lambda p: run_lla_mcmc(p, MCMCConfig(), 0),
        grid_log_evidence,
    ], ids=["mc", "nested", "lla_is", "lla_ss", "lla_mcmc", "grid"])
    def test_nan_likelihood_stops_every_estimator(self, run):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: math.nan if t[0] > 0.99 else 0.0)
        with pytest.raises(ValueError, match="log-likelihood nan"):
            run(problem)


class TestLevelTrace:
    def test_empty_defaults(self):
        t = LevelTrace()
        assert len(t) == 0
        assert t.chi_current == 1.0
        assert t.log_lambda_current == NEG_INF
        assert t.log_evidence == NEG_INF

    def test_nonincreasing_chi_enforced(self):
        t = LevelTrace()
        t.add_level(0.0, 0.5, -1.0, None, None, 10)
        with pytest.raises(ValueError):
            t.add_level(1.0, 0.6, -1.0, None, None, 20)

    def test_log_evidence_sums_increments(self):
        t = LevelTrace()
        t.add_level(0.0, 0.5, math.log(0.5), None, None, 10)
        t.add_level(1.0, 0.25, 1.0 + math.log(0.25), None, None, 20)
        assert t.log_evidence == pytest.approx(
            log_sum_exp([math.log(0.5), 1.0 + math.log(0.25)]))


class TestPosteriorMoments:
    def test_single_shell_passthrough(self):
        t = LevelTrace()
        t.add_level(0.0, 0.0, 0.0, np.array([2.0]), np.array([5.0]), 10)
        mean, var = posterior_moments(t, 0.0)
        assert mean[0] == pytest.approx(2.0)
        assert var[0] == pytest.approx(1.0)  # 5 - 2^2

    def test_weighted_two_shells(self):
        t = LevelTrace()
        # equal-weight shells at means 0 and 2, second moments 1 and 5
        t.add_level(0.0, 0.5, math.log(0.5), np.array([0.0]),
                    np.array([1.0]), 10)
        t.add_level(0.0, 0.0, math.log(0.5), np.array([2.0]),
                    np.array([5.0]), 20)
        mean, var = posterior_moments(t, 0.0)
        assert mean[0] == pytest.approx(1.0)
        assert var[0] == pytest.approx(3.0 - 1.0)

    def test_variance_clamped_nonnegative(self):
        t = LevelTrace()
        t.add_level(0.0, 0.0, 0.0, np.array([2.0]), np.array([3.9]), 10)
        _, var = posterior_moments(t, 0.0)
        assert var[0] == 0.0

    def test_empty_trace_gives_none(self):
        assert posterior_moments(LevelTrace(), 0.0) == (None, None)


class TestShellStatistics:
    def test_empty_shell(self):
        assert shell_statistics(np.empty((0, 2))) == (None, None)

    def test_unweighted(self):
        mean, second = shell_statistics(np.array([[1.0], [3.0]]))
        assert mean[0] == pytest.approx(2.0)
        assert second[0] == pytest.approx(5.0)

    def test_weighted(self):
        mean, _ = shell_statistics(np.array([[0.0], [4.0]]), [3.0, 1.0])
        assert mean[0] == pytest.approx(1.0)


class TestFinalizeEstimate:
    def test_nan_moments_on_empty_shells(self):
        t = LevelTrace()
        t.add_level(0.0, 0.5, -1.0, None, None, 10)
        est = finalize_estimate(t, None, 10, 3)
        assert np.isnan(est.posterior_mean).all()
        assert est.posterior_mean.shape == (3,)
        assert est.standard_error_log is None
        assert finalize_estimate(t, None, 10, 3, 0.25).standard_error_log \
            == 0.25


@pytest.mark.parametrize("config, field, bad", [
    (SSConfig, "per_dim_counts", (2.5,)),
    (SSConfig, "per_dim_counts", (True,)),
    (SSConfig, "n_per_iteration", 100.5),
    (SSConfig, "n_per_iteration", True),
    (ISConfig, "n_initial", 100.5),
    (MCMCConfig, "n_samples", 100.5),
    (MCMCConfig, "n_replace", 5.0),
    (KernelConfig, "steps_per_sample", 2.5),
    (NestedConfig, "n_live", 50.5),
    (LevelPolicy, "max_escalations", 2.5),
    (StoppingPolicy, "max_iterations", True),
    (StoppingPolicy, "max_evals", 2e4),
])
def test_count_fields_reject_non_integers(config, field, bad):
    # n_samples is checked with an n_replace below it
    extra = {"n_replace": 5} if field == "n_samples" else {}
    with pytest.raises(ConfigFieldError) as info:
        config(**{field: bad}, **extra)
    assert info.value.field == field
    # a NumPy integer is a count
    good = (tuple(np.int64(math.ceil(c)) for c in bad)
            if isinstance(bad, tuple) else np.int64(math.ceil(bad)))
    config(**{field: good}, **extra)
