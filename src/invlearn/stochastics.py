"""Sampling from the joint data distribution and Orlicz-norm diagnostics.

The joint law couples a prior on the unknown x, a zero-mean noise law, and
a linear forward map: y = A x + eps.  All randomness flows through a
documented split function ``substream(seed, *indices)``, so that every
trial draws the same numbers however the trials are ordered.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError
from .hypotheses import STACK_ROWS
from .operators import ForwardOperator, GaussianSpec

ORLICZ_REL_TOL = 1e-4   # relative bracket width at which the bisection stops
TAIL_GRID = 12          # thresholds checked by tail_check
TAIL_CONFIDENCE = 0.99  # binomial quantile allowed at each threshold


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic, disjoint random stream keyed by (seed, indices).

    Streams with distinct index tuples are statistically independent; the
    same tuple always reproduces the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(i) for i in indices))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class BoundedSpec:
    """Uniform law on the centered Euclidean ball of the given radius."""

    dim: int
    radius: float

    def __post_init__(self):
        if self.radius <= 0 or self.dim < 1:
            raise ConfigurationError("radius and dimension must be positive")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        u = rng.random(size) ** (1.0 / self.dim)
        z *= self.radius  # in place, in the order of radius * z * u[:, None]
        z *= u[:, None]
        return z


@dataclass(frozen=True)
class ProblemDistribution:
    """Joint law of x ~ prior and y = A x + eps, eps ~ noise; see ``draw``."""

    prior: GaussianSpec | BoundedSpec
    noise: GaussianSpec
    forward: ForwardOperator

    def __post_init__(self):
        if self.prior.dim != self.forward.n_x:
            raise DimensionMismatchError("prior dimension != operator input dim")
        if self.noise.dim != self.forward.n_y:
            raise DimensionMismatchError("noise dimension != operator output dim")
        if np.any(self.noise.mean != 0):
            raise ConfigurationError("noise must be zero-mean")

    def draw(self, rng: np.random.Generator, size: int):
        """x of ``size`` pairs, and a generator of (rows, y[rows]) in blocks of
        ``STACK_ROWS`` rows.  All x are drawn first; the noise of the blocks
        follows from the same stream, in order, so no value depends on the
        block size.  When there is more than one block and neither A nor
        the noise law has a basis, a one-worker thread pool draws that
        noise, at most two blocks ahead, while the caller works on the
        current block.  Consume every block before the next draw from
        ``rng``: after an early close the worker may have drawn up to two
        blocks more, so ``rng`` is spent.  A degenerate noise law adds its
        mean and draws nothing from ``rng``."""
        x = self.prior.sample(rng, size)
        return x, self._blocks(x, rng)

    def sample(self, rng: np.random.Generator, size: int):
        """(x, y) with y = A x + eps: the blocks of ``draw`` in one array."""
        x, blocks = self.draw(rng, size)
        y = np.empty((size, self.forward.n_y))
        for rows, y_b in blocks:
            y[rows] = y_b
        return x, y

    def _blocks(self, x, rng):
        noise = self.noise
        starts = range(0, len(x), STACK_ROWS)
        # the worker pays only when neither side calls BLAS, whose worker
        # threads would spin on the core the other side needs: no basis of
        # A for the caller's A x, none of the noise law for the worker
        bases = (self.forward.left_basis, self.forward.right_basis,
                 noise.covariance_basis)
        ahead = (len(starts) > 1 and not noise.degenerate
                 and all(b is None for b in bases))
        with ThreadPoolExecutor(1) if ahead else nullcontext() as pool:
            if ahead:
                # one worker fills block k into buffer k % 2, in order; block
                # k + 2 is submitted once block k is added.  It only calls
                # GaussianSpec.fill on a law without a basis, so it allocates
                # no block (its malloc arena would keep what it frees), calls
                # no BLAS, and nothing that perfbench/tracing.py spans (its
                # span stack is not thread-safe)
                buffers = np.empty((2, STACK_ROWS, noise.dim))

                def fill(k):  # the slice stops at STACK_ROWS rows
                    out = buffers[k % 2, :len(x) - starts[k]]
                    return pool.submit(noise.fill, rng, out)

                fills = deque([fill(0), fill(1)])
            for k, i in enumerate(starts):
                rows = slice(i, i + STACK_ROWS)
                y_b = self.forward.apply(x[rows])
                if noise.degenerate:
                    y_b += noise.mean
                elif ahead:
                    y_b += fills.popleft().result()
                    if k + 2 < len(starts):
                        fills.append(fill(k + 2))
                else:
                    y_b += noise.sample(rng, len(y_b))
                yield rows, y_b


@dataclass(frozen=True)
class TrainingSet:
    """i.i.d. labeled pairs (x_j, y_j), reproducible from the seed."""

    x: np.ndarray  # (m, n_x)
    y: np.ndarray  # (m, n_y)
    seed: int

    @property
    def m(self) -> int:
        return self.x.shape[0]

    def to_csv(self, path) -> None:
        m, n_x = self.x.shape
        n_y = self.y.shape[1]
        header = "j," + ",".join(f"x_{i}" for i in range(n_x)) + "," + \
                 ",".join(f"y_{i}" for i in range(n_y))
        data = np.column_stack([np.arange(m), self.x, self.y])
        fmt = ["%d"] + ["%.17g"] * (n_x + n_y)
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=fmt)


def draw_training_set(dist: ProblemDistribution, m: int, seed: int) -> TrainingSet:
    """m i.i.d. pairs from the joint law, bitwise-deterministic given seed.

    The prior and noise draws come from one substream keyed by the seed, in
    the order of ``ProblemDistribution.draw``, so the set is reproducible.
    """
    if m < 1:
        raise ConfigurationError("training set size must be >= 1")
    x, y = dist.sample(substream(seed, 0), m)
    return TrainingSet(x=x, y=y, seed=int(seed))


# ---------------------------------------------------------------------------
# Orlicz-norm estimation
# ---------------------------------------------------------------------------

def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-d array, shifted by its maximum.

    The k maximal entries are taken out of the sum and added back as
    log(k), so the result is log1p(s / k) + log(k) + max(a), with s the
    sum of the other entries' exp(a - max(a)) (Blanchard, Higham & Higham
    2021).  The arithmetic is that of ``scipy.special.logsumexp``: the
    results are equal bit for bit.
    """
    a_max = a.max()
    top = a == a_max
    k = np.count_nonzero(top)
    shifted = a - a_max
    shifted[top] = -np.inf
    return np.log1p(np.exp(shifted).sum() / k) + np.log(k) + a_max


def orlicz_norm(samples, q: int) -> float:
    """Variational psi_q norm estimate: inf{t>0 : mean exp(|W|^q/t^q) <= 2}.

    Bisection on t against the sample exponential moment (computed in log
    space), relative tolerance ``ORLICZ_REL_TOL``, in the bracket
    [max|W| / log(2n)^(1/q), max|W| / log(2)^(1/q)] that holds every
    sample's norm: below it the largest term alone exceeds 2n, above it
    no term exceeds 2.
    """
    w = np.asarray(samples, dtype=float).ravel()
    if q not in (1, 2):
        raise ConfigurationError("q must be 1 or 2")
    if w.size == 0:
        raise ConfigurationError("empty sample")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("non-finite samples rejected")
    wq = np.abs(w) ** q
    if np.all(wq == 0):
        return 0.0
    log2n = np.log(2.0) + np.log(w.size)

    def feasible(t):
        return _logsumexp(wq / t**q) - log2n <= 0

    top = float(np.max(np.abs(w)))
    lo, hi = top / log2n ** (1 / q), top / np.log(2.0) ** (1 / q)
    while hi / lo > 1 + ORLICZ_REL_TOL:
        mid = np.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


def tail_check(samples, K: float, q: int) -> bool:
    """Whether the empirical survival function passes 2 exp(-t^q/K^q).

    The ``TAIL_GRID`` thresholds cover the 50th-99.9th percentiles of |W|.
    At each point the observed exceedance count is allowed up to the
    ``TAIL_CONFIDENCE`` binomial quantile under the claimed tail probability
    (one-sided tolerance).
    """
    w = np.abs(np.asarray(samples, dtype=float).ravel())
    if w.size == 0:
        raise ConfigurationError("empty sample")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("non-finite samples rejected")
    if K <= 0:
        raise ConfigurationError("K must be positive")
    if q not in (1, 2):
        raise ConfigurationError("q must be 1 or 2")
    pct = np.linspace(50.0, 99.9, TAIL_GRID)
    t_grid = np.percentile(w, pct)
    exceedances = np.array([(w > t).sum() for t in t_grid], dtype=float)
    p_bound = np.minimum(1.0, 2.0 * np.exp(-(t_grid / K) ** q))
    return bool(np.all(_within_quantile(exceedances, w.size, p_bound,
                                        TAIL_CONFIDENCE)))


def _within_quantile(k: np.ndarray, n: int, p, q: float) -> np.ndarray:
    """Whether each count k is at most the q-quantile of Bin(n, p), the
    smallest j with P(Bin(n, p) <= j) >= q: that is when k = 0 or
    P(Bin(n, p) <= k - 1) < q."""
    return (k == 0) | (_binom_cdf(np.maximum(k - 1, 0), n, p) < q)


# log(j!) - log(sqrt(2 pi j) (j/e)^j) for j = 0..15, with 0 at j = 0
_STIRLERR = np.array([0.0] + [
    math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j
    - 0.5 * math.log(2 * math.pi) for j in range(1, 16)])


def _stirlerr(j: np.ndarray) -> np.ndarray:
    """Stirling's error log(j!) - log(sqrt(2 pi j) (j/e)^j) at integers j:
    a table up to 15, its asymptotic series beyond."""
    jj = np.maximum(j, 1.0) ** 2
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj)
                        / jj) / jj) / np.maximum(j, 1.0)
    return np.where(j > 15, series, _STIRLERR[np.minimum(j, 15).astype(int)])


def _bd0(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Deviance x log(x / M) + M - x, by its series in v = (x - M)/(x + M)
    where x is within 10 % of M and the direct form would cancel."""
    out = x * np.log(x / M) + M - x
    near = np.abs(x - M) < 0.1 * (x + M)
    x, M = x[near], M[near]
    v = (x - M) / (x + M)
    s = (x - M) * v
    term = 2 * x * v
    for j in range(1, 40):  # |v| < 0.1: each term is < 1 % of the last
        term = term * v * v
        s_next = s + term / (2 * j + 1)
        if np.array_equal(s_next, s):
            break
        s = s_next
    out[near] = s
    return out


def _binom_pmf(j: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """P(Bin(n, p) = j) for integers 0 <= j <= n and 0 < p < 1, in Loader's
    saddle-point form (2000): its exponent has no cancelling lgamma terms,
    so it keeps its relative accuracy at n = 10^6."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lc = (_stirlerr(np.float64(n)) - _stirlerr(j) - _stirlerr(n - j)
              - _bd0(j, n * p) - _bd0(n - j, n * (1.0 - p)))
        inner = np.exp(lc) / np.sqrt(2 * math.pi * j * (1.0 - j / n))
    return np.select([j == 0, j == n],
                     [np.exp(n * np.log1p(-p)), np.exp(n * np.log(p))], inner)


def _lentz(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction of the incomplete beta I_x(a, b), elementwise, by
    the modified Lentz method (Numerical Recipes, section 6.4); it converges
    fast where x < (a + 1)/(a + b + 2).  Each entry stops at its own
    relative step 1e-15."""
    tiny = 1e-300

    def guard(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    active = np.ones(x.shape, dtype=bool)
    m = 0
    while active.any():
        m += 1
        for coeff in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                      -(a + m) * (a + b + m) * x
                      / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / guard(1.0 + coeff * d)
            c = guard(1.0 + coeff / c)
            step = d * c
            h = np.where(active, h * step, h)
        active &= np.abs(step - 1.0) > 1e-15
    return h


def _binom_cdf(k, n: int, p) -> np.ndarray:
    """P(Bin(n, p) <= k) elementwise over integer counts k and p in [0, 1].

    For k < n and 0 < p < 1 this is I_{1-p}(n - k, k + 1).  Where
    1 - p < (n - k + 1)/(n + 3) the continued fraction gives it directly,
    as pmf(k) p cf; elsewhere it gives the complement I_p(k + 1, n - k) =
    pmf(k + 1) (1 - p) cf.  These pmf terms are the prefactors
    x^a (1 - x)^b / (a B(a, b)) of the two sides.
    """
    k, p = np.broadcast_arrays(np.asarray(k, dtype=float),
                               np.asarray(p, dtype=float))
    out = np.where((k >= n) | (p == 0), 1.0, np.where(p == 1, 0.0, np.nan))
    inner = (k < n) & (p > 0) & (p < 1)
    k, p = k[inner], p[inner]
    direct = p > (k + 2) / (n + 3)
    tail = (_binom_pmf(np.where(direct, k, k + 1), n, p)
            * np.where(direct, p, 1.0 - p)
            * _lentz(np.where(direct, n - k, k + 1),
                     np.where(direct, k + 1, n - k),
                     np.where(direct, 1.0 - p, p)))
    out[inner] = np.where(direct, tail, 1.0 - tail)
    return out


@dataclass(frozen=True)
class ContractionTable:
    """psi_q norm of m-sample empirical averages, per m, plus log-log slope."""

    m_grid: np.ndarray
    k_hat: np.ndarray
    slope: float


def empirical_average_contraction(draws, q: int, m_grid) -> ContractionTable:
    """Estimate how the psi_q norm of empirical averages shrinks with m.

    ``draws`` is a (trials, max m) array of i.i.d. draws of a scalar
    variable W, or an iterator of such arrays that hold consecutive trials
    (row blocks), read one at a time so that the full array never exists.
    A trial's m-average is the mean of the first m entries of its row, so
    every m reads the same draw.  For each m the trials' averages are
    centred on their own mean (so W need not be zero-mean, and the
    centring error shrinks with m like the spread of the averages), and
    their psi_q norm estimated; the fitted log-log slope of K_hat versus m
    is reported (the theoretical envelope is K/sqrt(m)).
    """
    m_grid = np.asarray(sorted(m_grid), dtype=int)
    if m_grid.size == 0:
        raise ConfigurationError("m_grid must be non-empty")
    averages = []  # per block, (m_grid.size, trials in the block)
    for block in draws if isinstance(draws, Iterator) else [draws]:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] < m_grid[-1]:
            raise ConfigurationError(
                f"draws must be a 2-d array with at least max(m_grid) = "
                f"{m_grid[-1]} columns, got shape {block.shape}")
        averages.append([block[:, :m].mean(axis=1) for m in m_grid])
    k_hat = np.empty(m_grid.size)
    for i, a in enumerate(np.concatenate(averages, axis=1)):
        k_hat[i] = orlicz_norm(a - a.mean(), q)
    if np.all(k_hat == 0):
        slope = 0.0
    else:
        mask = k_hat > 0
        slope = float(np.polyfit(np.log(m_grid[mask]), np.log(k_hat[mask]), 1)[0])
    return ContractionTable(m_grid=m_grid, k_hat=k_hat, slope=slope)
