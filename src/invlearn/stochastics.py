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
from .operators import ForwardOperator, GaussianSpec

ORLICZ_REL_TOL = 1e-4   # relative bracket width at which the bisection stops
TAIL_GRID = 12          # thresholds checked by tail_check
TAIL_CONFIDENCE = 0.99  # binomial quantile allowed at each threshold
AHEAD = 3               # blocks ProblemDistribution.draw's workers draw ahead
STACK_ROWS = 1 << 16    # rows of a draw block; (theta, row) pairs of a risk solve


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

    def draw(self, key: tuple, size: int):
        """A generator of (x, y) of ``size`` pairs in independent blocks of
        ``STACK_ROWS`` rows, the last one shorter.  Block b is drawn by
        ``_x_eps(substream(*key, b), rows)``, so it equals ``sample`` of its
        rows from that stream bit for bit, and no value depends on which
        thread draws it or when.  When there is more than one block and no
        basis of A, of the noise law or of a Gaussian prior makes a side
        call BLAS, two worker threads draw the blocks' x and noise, at most
        ``AHEAD`` blocks ahead of the one the caller holds, and the caller
        forms y = A x + eps; otherwise every block is drawn on the caller's
        thread.  The workers call only ``GaussianSpec.sample`` and
        ``BoundedSpec.sample``.  Closing the generator, or an exception,
        joins the workers before it returns or propagates."""
        starts = range(0, size, STACK_ROWS)

        def block(b):
            return self._x_eps(substream(*key, b),
                               min(STACK_ROWS, size - starts[b]))

        # a BLAS call on either side would spin its worker threads on the
        # cores the other side needs
        bases = (self.forward.left_basis, self.forward.right_basis,
                 self.noise.covariance_basis,
                 getattr(self.prior, "covariance_basis", None))
        ahead = len(starts) > 1 and all(b is None for b in bases)
        with ThreadPoolExecutor(2) if ahead else nullcontext() as pool:
            if ahead:
                drawn = deque(pool.submit(block, b)
                              for b in range(min(AHEAD, len(starts))))
            for b in range(len(starts)):
                if ahead:
                    x, eps = drawn.popleft().result()
                    if b + AHEAD < len(starts):
                        drawn.append(pool.submit(block, b + AHEAD))
                else:
                    x, eps = block(b)
                yield x, self._outputs(x, eps)

    def sample(self, rng: np.random.Generator, size: int):
        """(x, y) with y = A x + eps from one stream: every x, then every
        noise row (``_x_eps``)."""
        x, eps = self._x_eps(rng, size)
        return x, self._outputs(x, eps)

    def _x_eps(self, rng: np.random.Generator, size: int):
        """``size`` rows of x, then ``size`` rows of noise, from ``rng``;
        the noise is None for a degenerate noise law, which draws nothing."""
        x = self.prior.sample(rng, size)
        return x, None if self.noise.degenerate else \
            self.noise.sample(rng, size)

    def _outputs(self, x, eps):
        """A x + eps, or A x plus the noise mean where eps is None."""
        y = self.forward.apply(x)
        y += self.noise.mean if eps is None else eps
        return y


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
    the order of ``ProblemDistribution.sample``, so the set is reproducible.
    """
    if m < 1:
        raise ConfigurationError("training set size must be >= 1")
    x, y = dist.sample(substream(seed, 0), m)
    return TrainingSet(x=x, y=y, seed=int(seed))


# ---------------------------------------------------------------------------
# Orlicz-norm estimation
# ---------------------------------------------------------------------------

def orlicz_norm(samples, q: int) -> float:
    """Variational psi_q norm estimate: inf{t>0 : mean exp(|W|^q/t^q) <= 2}.

    The norm is homogeneous, so the bisection runs on W / max|W|, whose
    norm lies in [1 / log(2n)^(1/q), 1 / log(2)^(1/q)]: below it the
    largest term alone exceeds 2n, above it no term exceeds 2.  So every
    exponent it tests is at most log 2n, and it sums the sample
    exponential moment directly, to the relative tolerance
    ``ORLICZ_REL_TOL``.  The result is scaled back by max|W|: inf only
    where the norm exceeds the largest float.
    """
    w = np.asarray(samples, dtype=float).ravel()
    if q not in (1, 2):
        raise ConfigurationError("q must be 1 or 2")
    if w.size == 0:
        raise ConfigurationError("empty sample")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("non-finite samples rejected")
    top = float(np.max(np.abs(w)))
    if top == 0:
        return 0.0
    log2n = np.log(2.0) + np.log(w.size)
    lo, hi = 1 / log2n ** (1 / q), 1 / np.log(2.0) ** (1 / q)
    # a term that underflows is exp(0) = 1 either way
    with np.errstate(under="ignore"):
        wq = np.abs(w / top) ** q
        while hi / lo > 1 + ORLICZ_REL_TOL:
            mid = np.sqrt(lo * hi)
            if np.exp(wq / mid**q).sum() <= 2 * w.size:
                hi = mid
            else:
                lo = mid
    return float(hi) * top


def tail_check(samples, K: float, q: int) -> bool:
    """Whether the empirical survival function passes 2 exp(-t^q/K^q).

    The ``TAIL_GRID`` thresholds cover the 50th-99.9th percentiles of |W|.
    At each point the observed exceedance count is allowed up to the
    ``TAIL_CONFIDENCE`` binomial quantile under the claimed tail probability
    (one-sided tolerance).  K must be finite and positive.
    """
    w = np.abs(np.asarray(samples, dtype=float).ravel())
    if w.size == 0:
        raise ConfigurationError("empty sample")
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("non-finite samples rejected")
    if not (math.isfinite(K) and K > 0):
        raise ConfigurationError("K must be finite and positive")
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


def _binom_cdf(k, n: int, p) -> np.ndarray:
    """P(Bin(n, p) <= k) elementwise over integer counts k and p in [0, 1].

    For each distinct 0 < p < 1 the pmf is taken relative to its value at
    the mode M = min(n, floor((n + 1) p)): cumulative products of the
    ratios pmf(j + 1)/pmf(j) = (n - j)/(j + 1) p/(1 - p) upwards from M,
    and of their inverses downwards.  Every factor is at most 1, so
    nothing overflows.  Below M the CDF is the sum of the terms up to k
    over the sum S of all terms; from M on it is 1 - (terms above k)/S,
    so that a CDF near 1 keeps its digits.  Only the terms within
    w = floor(40 sigma) + 40 of M are summed, sigma^2 = n p (1 - p).  A
    left-out j lies t > w > 40 sigma + 39 from the mean n p, so by
    Bernstein's inequality those j hold probability at most
    2 exp(-t^2 / (2 sigma^2 + 2 t / 3)) < 2 exp(-54) < 1e-23, as
    sigma^2 < t^2 / 1600 and t > 39: the error of leaving them out.
    """
    k, p = np.broadcast_arrays(np.asarray(k, dtype=float),
                               np.asarray(p, dtype=float))
    out = np.where((k >= n) | (p == 0), 1.0, np.where(p == 1, 0.0, np.nan))
    inner = (k < n) & (p > 0) & (p < 1)
    for pj in np.unique(p[inner]):
        at = inner & (p == pj)
        mode = min(n, math.floor((n + 1) * pj))
        w = math.floor(40 * math.sqrt(n * pj * (1 - pj))) + 40
        lo, hi = max(0, mode - w), min(n, mode + w)
        odds = pj / (1 - pj)
        up, down = np.arange(mode, hi), np.arange(mode - 1, lo - 1, -1)
        terms = np.r_[np.cumprod((down + 1) / (n - down) / odds)[::-1], 1.0,
                      np.cumprod((n - up) / (up + 1) * odds)]
        # the sums of the terms lo..j - 1 and j..hi, at j = k + 1
        below = np.r_[0.0, np.cumsum(terms)]
        above = np.r_[np.cumsum(terms[::-1])[::-1], 0.0]
        j = np.clip(k[at] - lo + 1, 0, terms.size).astype(int)
        out[at] = np.where(k[at] < mode, below[j] / below[-1],
                           1.0 - above[j] / below[-1])
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
