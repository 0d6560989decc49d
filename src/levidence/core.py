"""Log-domain primitives, prior/problem types, and evidence accumulation.

Everything here is shared by the level-adapted estimators and the baselines:
numerically safe log-sum-exp, effective sample size, the rectangle-rule
evidence update, posterior-moment recovery from a level trace, the keyed
generators that seed the Markov chains, and the one inverse-CDF draw
(from_unit), per-coordinate log density (log_terms) and product density
(log_density) that the prior, the IS density and the SS strata share.
These three act on blocks (marginal_blocks): the coordinates whose
marginals share a family key are one block, drawn and evaluated in one
call, so a 100-d problem with one shared prior makes one call, not 100.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

NEG_INF = float("-inf")
# log sqrt(2 pi), computed as scipy.stats computes it for the normal density
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


class DegenerateWeightsError(ValueError):
    pass


class ConfigFieldError(ValueError):
    """A config value that does not fit the problem, with its field's name."""

    def __init__(self, field, message):
        # both arguments stay in args, so the error pickles and unpickles
        super().__init__(field, message)
        self.field = field

    def __str__(self):
        return self.args[1]


def check_count(field, value, minimum):
    """Raise ConfigFieldError naming field unless value is an integer (a
    NumPy one included, not a bool) of at least minimum."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not value >= minimum):
        raise ConfigFieldError(field, "%s must be >= %d and an integer, not "
                               "%r" % (field, minimum, value))


def log_sum_exp(xs):
    """log(sum(exp(xs))) without overflow; -inf for an all-(-inf) input."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("log_sum_exp of empty sequence")
    if np.isnan(xs).any():
        raise ValueError("non-numeric term")
    m = np.max(xs)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(xs - m))))


def log_add_exp(a, b):
    """log(exp(a) + exp(b)) for a and b above -inf and not NaN: the bits of
    log_sum_exp([a, b]), from NumPy's scalar ufuncs without an array."""
    m = max(a, b)
    return float(m + np.log(np.exp(a - m) + np.exp(b - m)))


def effective_sample_size(weights):
    """(sum w)^2 / sum w^2 for nonnegative weights; in [1, N]."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("empty weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weights")
    s = w.sum()
    if s <= 0.0:
        raise DegenerateWeightsError("degenerate weights")
    return float(s * s / np.sum(w * w))


def evidence_update(log_lambda, chi_prev, chi_cur):
    """log of one rectangle-rule increment, lambda * (chi_prev - chi_cur).

    -inf for an empty shell, including a chi_cur above chi_prev; the running
    sum is LevelTrace.add_level's.
    """
    if chi_prev > 1.0 + 1e-12:
        raise ValueError("chi_prev above 1")
    d_chi = chi_prev - chi_cur
    if d_chi <= 0.0 or log_lambda == NEG_INF:
        return NEG_INF
    return log_lambda + math.log(d_chi)


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word pool,
# a hash whose constant advances by one multiplication per call, and a
# mixing step
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_KEY_BLOCK = 1024


def _hash_constants(init, mult, n):
    """init * mult**k mod 2**32 for k < n, as an (n, 1) uint32 column."""
    out, c = [], init
    for _ in range(n):
        out.append(c)
        c = c * mult & _MASK32
    return np.array(out, dtype=np.uint32).reshape(n, 1)


# hash call k XORs in constant k and multiplies by constant k + 1.
# _HASH_A covers entropy of up to 16 words; generate_state(4, np.uint64)
# makes 8 calls on the B sequence
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL * _POOL + 1)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)
# the all-pairs pass hashes pool word s once for every other word d, in
# order, with hash call 4 + 3s + d - (d > s); call 0 stands in on the
# diagonal, whose word keeps its value.  Row s holds (4, 1) columns
_PAIR_CALLS = np.array([[_POOL + (_POOL - 1) * s + d - (d > s) if d != s
                         else 0 for d in range(_POOL)]
                        for s in range(_POOL)])
_PAIR_XOR, _PAIR_MUL = _HASH_A[_PAIR_CALLS], _HASH_A[_PAIR_CALLS + 1]


def _hashmix(value, xor, mul):
    h = (value ^ xor) * mul
    return h ^ (h >> 16)


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _entropy_words(entry):
    """An integer as SeedSequence splits it: little-endian 32-bit words."""
    n = operator.index(entry)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_words(head, keys, hash_a):
    """SeedSequence([*head, key]).generate_state(4, np.uint64) for each key.

    head is the (P, 1) column of prefix words, keys a list of 32-bit keys,
    and the rows are hashed side by side: returns an (m, 4) uint64 array.
    """
    n = len(head) + 1
    entropy = np.zeros((max(n, _POOL), len(keys)), dtype=np.uint32)
    entropy[:n - 1] = head
    entropy[n - 1] = keys
    with np.errstate(over="ignore"):
        pool = _hashmix(entropy[:_POOL], hash_a[:_POOL], hash_a[1:_POOL + 1])
        for s in range(_POOL):
            mixed = _mix(pool, _hashmix(pool[s], _PAIR_XOR[s], _PAIR_MUL[s]))
            mixed[s] = pool[s]
            pool = mixed
        # each word beyond the pool is hashed anew for every pool word
        for k, word in enumerate(entropy[_POOL:], start=_POOL):
            k *= _POOL
            pool = _mix(pool, _hashmix(word, hash_a[k:k + _POOL],
                                       hash_a[k + 1:k + _POOL + 1]))
        state = _hashmix(np.concatenate([pool, pool]), _HASH_B[:-1],
                         _HASH_B[1:])
    lo, hi = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    return (lo | hi << np.uint64(32)).T.copy()


class _PresetState(ISeedSequence):
    """Hands PCG64 the seeding words it asks a SeedSequence for."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def keyed_generators(prefix, keys):
    """A fresh np.random.Generator per key, lazily, whose stream is that of
    np.random.default_rng(np.random.SeedSequence([*prefix, key])).

    Prefix entries are non-negative integers of any size; keys must lie in
    [0, 2**32).  Keys are hashed in blocks of up to 1024, all rows of a
    block at once, so a generator costs a few microseconds rather than the
    twenty of a SeedSequence of its own.
    """
    head = [w for entry in prefix for w in _entropy_words(entry)]
    calls = _POOL * (_POOL + max(len(head) + 1 - _POOL, 0))
    hash_a = (_HASH_A if calls < len(_HASH_A)
              else _hash_constants(_INIT_A, _MULT_A, calls + 1))
    head = np.array(head, dtype=np.uint32).reshape(-1, 1)
    return _keyed_generators(head, iter(keys), hash_a)


def _keyed_generators(head, keys, hash_a):
    while block := [operator.index(k)
                    for k in itertools.islice(keys, _KEY_BLOCK)]:
        if min(block) < 0 or max(block) > _MASK32:
            raise ValueError("keys must lie in [0, 2**32)")
        for words in _pcg64_words(head, block, hash_a):
            yield np.random.Generator(np.random.PCG64(_PresetState(words)))


@dataclass
class MarginalPrior:
    """One independent 1-D prior marginal.

    log_pdf and inverse_cdf act elementwise on a float or an array of any
    shape and must agree; support is a (lo, hi) pair (entries may be
    infinite).  mean/std set the MCMC proposal scale and the grid oracle's
    bounds on an infinite support.  family, if not None, is a hashable key
    that names the distribution: marginals with equal keys must be the same
    distribution, and are evaluated and drawn together (marginal_blocks).
    """

    log_pdf: Callable
    inverse_cdf: Callable
    support: tuple
    mean: float = 0.0
    std: float = 1.0
    family: Hashable = None


def marginal_blocks(marginals):
    """(marginal, cols) pairs in order of first column: the columns of
    marginals with one family key (an attribute; None for no key), each
    evaluated and drawn in one call through the first marginal's attributes,
    looked up at call time so that a wrapper set on that object sees it.

    cols is slice(None) when one family covers every column (a 1-D prior
    included, whose marginal then sees the whole array), the index array of
    a family of several columns, or else one column index, whose marginal
    sees 1-D columns.  Build the blocks once per product, not per call.
    """
    groups = {}
    for k, m in enumerate(marginals):
        key = getattr(m, "family", None)
        # a marginal without a key is a family of its own, named by its
        # column; an int never equals the 1-tuple of a key
        groups.setdefault(k if key is None else (key,), (m, []))[1].append(k)
    if len(groups) == 1:
        return ((marginals[0], slice(None)),)
    return tuple((m, cols[0] if len(cols) == 1 else np.array(cols))
                 for m, cols in groups.values())


def from_unit(blocks, u):
    """(n, d) points: column k is the inverse CDF of row k of the (d, n)
    uniforms u, clipped to [1e-16, 1 - 1e-16] so that no quantile is
    infinite; one inverse_cdf call per block, on its rows of u.  Every
    inverse-CDF draw of a set of points goes through here."""
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    out = np.empty(u.shape[::-1])
    for m, cols in blocks:
        out.T[cols] = m.inverse_cdf(u[cols])
    return out


def log_terms(blocks, theta):
    """Each coordinate's log density at one vector, or at each row of an
    (n, d) array, in theta's shape: one log_pdf call per block."""
    theta = np.asarray(theta, dtype=float)
    first, cols = blocks[0]
    if isinstance(cols, slice):
        return first.log_pdf(theta)
    out = np.empty(theta.shape)
    for m, cols in blocks:
        out.T[cols] = m.log_pdf(theta.T[cols])
    return out


def log_density(blocks, theta):
    """Log density of a product of marginals at one vector, or at each row
    of an (n, d) array: log_terms summed in column order, as a loop, since
    a pairwise sum would round differently."""
    total = 0.0
    for term in log_terms(blocks, theta).T:
        total += term
    return total


def _check_normal(mean, std):
    if not math.isfinite(mean):
        raise ValueError("need a finite mean")
    if not std > 0:
        raise ValueError("need std > 0")
    if not math.isfinite(std):
        raise ValueError("need a finite std")


def normal_prior(mean, std):
    # closed-form density and ndtri quantile from scipy.special, which is
    # cheap to import and cheap per call in the samplers' hot loops
    mean, std = float(mean), float(std)
    _check_normal(mean, std)
    log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(std)
    inv2v = 0.5 / (std * std)

    def log_pdf(x):
        d = x - mean
        return log_norm - inv2v * d * d

    def inverse_cdf(u):
        return mean + std * special.ndtri(u)

    return MarginalPrior(
        log_pdf=log_pdf,
        inverse_cdf=inverse_cdf,
        support=(-math.inf, math.inf),
        mean=mean,
        std=std,
        family=("normal", mean, std),
    )


def uniform_prior(lo, hi):
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("need hi > lo")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("need finite lo and hi")
    log_density = -math.log(hi - lo)

    def log_pdf(x):
        return np.where((lo <= x) & (x <= hi), log_density, NEG_INF)

    return MarginalPrior(
        log_pdf=log_pdf,
        inverse_cdf=lambda u: lo + (hi - lo) * u,
        support=(lo, hi),
        mean=0.5 * (lo + hi),
        std=(hi - lo) / math.sqrt(12.0),
        family=("uniform", lo, hi),
    )


def truncated_normal_prior(mean, std, lo, hi):
    """N(mean, std^2) restricted to [lo, hi]; either bound may be infinite."""
    mean, std, lo, hi = float(mean), float(std), float(lo), float(hi)
    _check_normal(mean, std)
    if not hi > lo:
        raise ValueError("need hi > lo")
    d = _TruncatedNormal(mean, std, lo, hi)
    d_mean, d_std = d.moments()
    return MarginalPrior(
        log_pdf=d.log_pdf,
        inverse_cdf=d.inverse_cdf,
        support=(lo, hi),
        mean=d_mean,
        std=d_std,
        family=("truncated_normal", mean, std, lo, hi),
    )


class _TruncatedNormal:
    """N(loc, scale^2) restricted to [lo, hi], from scipy.special alone.

    Each formula is SciPy 1.17's scipy.stats.truncnorm with the same
    operations in the same order, so every value equals truncnorm's to the
    last bit, except the moments of a narrow support; importing scipy.stats
    would cost more than the rest of the package.  In standard units the
    support is [a, b].
    """

    def __init__(self, loc, scale, lo, hi):
        self.loc, self.scale = loc, scale
        self.a, self.b = (lo - loc) / scale, (hi - loc) / scale
        self.log_mass = _log_gauss_mass(self.a, self.b)
        self.log_scale = np.log(scale)

    def log_pdf(self, x):
        """Log density elementwise; -inf outside the support."""
        z = (x - self.loc) / self.scale
        value = (-z * z / 2.0 - _LOG_SQRT_2PI - self.log_mass) - self.log_scale
        return np.where((z < self.a) | (z > self.b), NEG_INF, value)

    def inverse_cdf(self, u):
        """Quantile of each u in (0, 1), in the tail where it is accurate."""
        q = np.asarray(u, dtype=float)
        if self.a < 0:
            log_cdf = np.full(q.shape, special.log_ndtr(self.a))
            z = special.ndtri_exp(special.logsumexp(
                [log_cdf, np.log(q) + self.log_mass], axis=0))
        else:
            log_cdf = np.full(q.shape, special.log_ndtr(-self.b))
            z = -special.ndtri_exp(special.logsumexp(
                [log_cdf, np.log1p(-q) + self.log_mass], axis=0))
        return z * self.scale + self.loc

    def moments(self):
        """(mean, std) as floats.

        On a support so narrow that the density varies by under about 10 %
        across it, the closed form's variance, 1 less nearly 1, loses every
        digit and its mean may leave the support; there both come from
        quadrature instead.
        """
        a, b = self.a, self.b
        if (b - a) * (1.0 + max(abs(a), abs(b))) < _NARROW_SUPPORT:
            mu, sd = _narrow_moments(a, b)
            return float(mu * self.scale + self.loc), float(sd * self.scale)
        p_a, p_b = np.exp(-np.array([a, b]) ** 2 / 2.0 - _LOG_SQRT_2PI
                          - self.log_mass)
        mu = p_a - p_b
        # a term whose density is 0 (an infinite bound) is dropped, not
        # 0 * inf; the two terms are summed before the 1 is added
        terms = (p_a * (a - mu) if p_a != 0 else 0.0) \
            + (-p_b * (b - mu) if p_b != 0 else 0.0)
        var = (1 + terms) * self.scale * self.scale
        return float(mu * self.scale + self.loc), float(np.sqrt(var))


# supports narrower than this over (1 + the largest |bound|), in standard
# units, take _narrow_moments; every wider one keeps truncnorm's bits
_NARROW_SUPPORT = 0.1


def _narrow_moments(a, b):
    """(mean, std) of N(0, 1) restricted to [a, b], by Gauss-Legendre
    quadrature over the offsets from the midpoint.

    The log density varies by less than _NARROW_SUPPORT over [a, b], so an
    8-node rule is exact to rounding.
    """
    # imported here: numpy.polynomial would add about 10 ms to every
    # import of the package, for a branch few priors take
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(8)
    c = (a + b) / 2.0
    t = (b - a) / 2.0 * x
    w = w * np.exp(-c * t - t * t / 2.0)
    m = w @ t / w.sum()
    return c + m, math.sqrt(w @ (t - m) ** 2 / w.sum())


def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) for a < b, worked in the left tail."""
    if b <= 0:
        log_p, log_q = special.log_ndtr(b), special.log_ndtr(a)
    elif a > 0:
        log_p, log_q = special.log_ndtr(-a), special.log_ndtr(-b)
    else:
        return special.log1p(-special.ndtr(a) - special.ndtr(-b))
    # log(p - q) as a complex log-sum-exp, with -q = q e^(i pi)
    return np.real(special.logsumexp([log_p, log_q + np.pi * 1j], axis=0))


@dataclass
class BayesianProblem:
    """Product-of-marginals prior plus a deterministic log-likelihood.

    log_likelihood_rows, if given, maps an (n, d) array to the (n,)
    log-likelihoods of its rows in one call, and must give for each row
    exactly the value log_likelihood gives: CountingLikelihood.rows
    evaluates every set of points with it, and without it calls
    log_likelihood on each row.
    """

    dimension: int
    priors: list
    log_likelihood: Callable[[np.ndarray], float]
    log_likelihood_rows: Callable[[np.ndarray], np.ndarray] | None = None
    # the priors' blocks, built once here: replacing a prior later needs a
    # new problem
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.priors) != self.dimension:
            raise ValueError("prior count does not match dimension")
        self.blocks = marginal_blocks(self.priors)

    def log_prior(self, theta):
        """Log prior density of one vector, or of each row of an (n, d) array."""
        return log_density(self.blocks, theta)

    def sample_prior(self, rng, n=1):
        return from_unit(self.blocks, rng.random((self.dimension, n)))

    @property
    def support(self):
        return [p.support for p in self.priors]


class CountingLikelihood:
    """Wraps a log-likelihood with an evaluation counter; a NaN or +inf
    value raises ValueError naming the value and the point.

    rows_fn, a problem's log_likelihood_rows, evaluates a whole set of
    points in one call; without it, rows calls fn on each row.
    """

    def __init__(self, fn, rows_fn=None):
        self.fn = fn
        self.rows_fn = rows_fn
        self.count = 0

    def rows(self, samples):
        """The (n,) log-likelihoods of the rows of an (n, d) array, in order;
        every set of points is evaluated here, n evaluations a call."""
        n = len(samples)
        if self.rows_fn is None or n == 0:
            values = np.fromiter(map(self.fn, samples), dtype=float, count=n)
        else:
            values = np.asarray(self.rows_fn(samples), dtype=float)
            if values.shape != (n,):
                raise ValueError("log_likelihood_rows returned shape %s; "
                                 "expected %s" % (values.shape, (n,)))
        self.count += n
        finite = values < math.inf      # False at NaN and at +inf
        if not finite.all():
            bad = np.flatnonzero(~finite)[0]
            raise ValueError(_invalid_log_likelihood(values[bad],
                                                     samples[bad]))
        return values


def _invalid_log_likelihood(value, theta):
    return "log-likelihood %r at theta = %s" % (float(value),
                                                np.asarray(theta).tolist())


class TerminationReason(str, Enum):
    delta_evidence = "delta_evidence"
    chi_floor = "chi_floor"
    max_iterations = "max_iterations"
    max_evals = "max_evals"
    degenerate_level = "degenerate_level"


@dataclass
class LevelTrace:
    """The (lambda_i, chi_i) staircase with per-shell summaries.

    chi starts implicitly at 1.0; entries are appended once per accepted
    level.  Shell means/second moments may be None for empty shells.
    log_evidence is the running sum of the increments.  var_chi and
    active_counts are filled only by stratified sampling: the plug-in
    variance of each chi and the active stratum count after each retirement.
    """

    log_lambda: list = field(default_factory=list)
    chi: list = field(default_factory=list)
    log_evidence_increments: list = field(default_factory=list)
    shell_means: list = field(default_factory=list)
    shell_second_moments: list = field(default_factory=list)
    n_evals: list = field(default_factory=list)
    log_evidence: float = NEG_INF
    var_chi: list = field(default_factory=list)
    active_counts: list = field(default_factory=list)

    def __len__(self):
        return len(self.log_lambda)

    @property
    def chi_current(self):
        return self.chi[-1] if self.chi else 1.0

    @property
    def log_lambda_current(self):
        return self.log_lambda[-1] if self.log_lambda else NEG_INF

    def add_level(self, log_lambda, chi, log_increment, shell_mean,
                  shell_second_moment, cumulative_evals):
        if self.chi and chi > self.chi[-1] + 1e-15:
            raise ValueError("chi must be nonincreasing")
        self.log_lambda.append(float(log_lambda))
        self.chi.append(float(chi))
        self.log_evidence_increments.append(float(log_increment))
        self.shell_means.append(shell_mean)
        self.shell_second_moments.append(shell_second_moment)
        self.n_evals.append(int(cumulative_evals))
        if log_increment > NEG_INF:
            self.log_evidence = (
                float(log_increment) if self.log_evidence == NEG_INF
                else log_add_exp(self.log_evidence, log_increment))


@dataclass
class EvidenceEstimate:
    log_evidence: float
    trace: LevelTrace
    posterior_mean: np.ndarray
    posterior_variance: np.ndarray
    termination_reason: TerminationReason
    total_evals: int
    standard_error_log: float | None = None


def posterior_moments(trace, log_evidence):
    """Shell-weighted posterior mean and variance.

    Weights are exp(log_increment - log_evidence); shells without samples
    carry no weight.  Variance is clamped at zero elementwise.  Returns
    (None, None) when no shell carries weight, as shell_statistics does for
    an empty shell.
    """
    pairs = [
        (li, m, s2)
        for li, m, s2 in zip(trace.log_evidence_increments, trace.shell_means,
                             trace.shell_second_moments)
        if m is not None and li > NEG_INF
    ]
    if not pairs or log_evidence == NEG_INF:
        return None, None
    w = np.array([math.exp(li - log_evidence) for li, _, _ in pairs])
    w = w / w.sum()
    means = np.array([m for _, m, _ in pairs], dtype=float)
    seconds = np.array([s2 for _, _, s2 in pairs], dtype=float)
    mean = w @ means
    var = np.maximum(w @ seconds - mean**2, 0.0)
    return mean, var


def finalize_estimate(trace, reason, total_evals, dimension,
                      standard_error_log=None):
    """Build an EvidenceEstimate, falling back to NaN moments on empty shells."""
    log_E = trace.log_evidence
    mean, var = posterior_moments(trace, log_E)
    if mean is None:
        mean, var = np.full(dimension, np.nan), np.full(dimension, np.nan)
    return EvidenceEstimate(
        log_evidence=log_E,
        trace=trace,
        posterior_mean=np.asarray(mean, dtype=float),
        posterior_variance=np.asarray(var, dtype=float),
        termination_reason=reason,
        total_evals=int(total_evals),
        standard_error_log=standard_error_log,
    )


def shell_statistics(samples, weights=None):
    """Mean and elementwise second moment of the (n, d) samples in a shell.

    Returns (None, None) for an empty shell; optional per-sample weights.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return None, None
    if weights is None and len(samples) == 1:
        # the mean over one row sums it onto 0.0 (so -0.0 reads 0.0) and
        # divides by 1, which is exact
        row = samples[0] + 0.0
        return row, row * row
    if weights is None:
        mean = samples.mean(axis=0)
        second = (samples**2).mean(axis=0)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        mean = w @ samples
        second = w @ samples**2
    return mean, second
