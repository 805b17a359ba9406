"""Tests for sampling, Orlicz-norm estimation, and concentration checks."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invlearn import (BoundedSpec, ForwardOperator, GaussianSpec,
                      ProblemDistribution, draw_training_set,
                      empirical_average_contraction, orlicz_norm, substream,
                      tail_check)
from invlearn.errors import ConfigurationError
from invlearn.hypotheses import STACK_ROWS
from invlearn.stochastics import _binom_cdf, _logsumexp, _within_quantile


def scalar_problem(noise_var=1.0):
    return ProblemDistribution(
        prior=GaussianSpec.iso(1, 1.0),
        noise=GaussianSpec.iso(1, noise_var),
        forward=ForwardOperator.identity(1))


# -- draw_training_set -----------------------------------------------------

def test_noiseless_identity_pairs():
    dist = ProblemDistribution(
        prior=GaussianSpec.iso(2, 1.0),
        noise=GaussianSpec.iso(2, 0.0),
        forward=ForwardOperator.identity(2))
    ts = draw_training_set(dist, 50, seed=0)
    assert np.array_equal(ts.x, ts.y)


def test_determinism_bitwise():
    dist = scalar_problem()
    a = draw_training_set(dist, 64, seed=42)
    b = draw_training_set(dist, 64, seed=42)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = draw_training_set(dist, 64, seed=43)
    assert not np.array_equal(a.x, c.x)


def test_sample_covariance_lln():
    dist = ProblemDistribution(
        prior=GaussianSpec(mean=[0.0, 0.0], covariance_eigenvalues=[1.0, 0.25]),
        noise=GaussianSpec.iso(2, 0.0),
        forward=ForwardOperator.identity(2))
    ts = draw_training_set(dist, 10**5, seed=5)
    cov = np.cov(ts.x.T)
    # variance of the sample variance of a Gaussian: 2 lam^2 / m
    for k, lam in enumerate((1.0, 0.25)):
        se = np.sqrt(2.0 * lam**2 / 10**5)
        assert abs(cov[k, k] - lam) <= 3 * se
    assert abs(cov[0, 1]) <= 3 * np.sqrt(1.0 * 0.25 / 10**5)


def test_empty_training_set_rejected():
    with pytest.raises(ConfigurationError):
        draw_training_set(scalar_problem(), 0, seed=0)


def test_noise_marginals_within_budget():
    dist = scalar_problem(noise_var=0.25)
    ts = draw_training_set(dist, 10**5, seed=9)
    eps = ts.y - ts.x
    se = eps.std() / np.sqrt(eps.size)
    assert abs(eps.mean()) <= 4 * se
    var_se = np.sqrt(2 * 0.25**2 / eps.size)  # std error of the variance
    assert abs(eps.var() - 0.25) <= 4 * var_se


def test_csv_dump_header(tmp_path):
    dist = scalar_problem()
    ts = draw_training_set(dist, 3, seed=1)
    path = tmp_path / "dump.csv"
    ts.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "j,x_0,y_0"


# -- the block stream of ProblemDistribution.draw --------------------------

def full_draw(dist, rng, size):
    """The reference draw: all x, then all eps, then y = A x + eps, each a
    full-size array."""
    x = dist.prior.sample(rng, size)
    eps = dist.noise.sample(rng, size)
    y = dist.forward.apply(x)
    y += eps
    return x, y


def _rotation(n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q


BLOCK_LAWS = {
    # Gaussian prior and noise, each with a covariance basis
    "gaussian_cov_basis": ProblemDistribution(
        prior=GaussianSpec(mean=[0.5, -1.0, 0.0],
                           covariance_eigenvalues=[1.0, 0.3, 0.7],
                           covariance_basis=_rotation(3, 1)),
        noise=GaussianSpec(mean=[0.0] * 3,
                           covariance_eigenvalues=[0.1, 0.2, 0.05],
                           covariance_basis=_rotation(3, 2)),
        forward=ForwardOperator.power_decay(3, 1.0)),
    "uniform_ball": ProblemDistribution(
        prior=BoundedSpec(dim=2, radius=0.7),
        noise=GaussianSpec.iso(2, 0.1),
        forward=ForwardOperator.diagonal([1.0, 0.5])),
    # n_y = 4 != n_x = 3
    "from_matrix": ProblemDistribution(
        prior=GaussianSpec.iso(3, 1.0),
        noise=GaussianSpec.iso(4, 0.3),
        forward=ForwardOperator.from_matrix(
            np.random.default_rng(3).standard_normal((4, 3)))),
}


@pytest.mark.parametrize("law", sorted(BLOCK_LAWS))
@pytest.mark.parametrize("size", [1, STACK_ROWS - 1, STACK_ROWS,
                                  STACK_ROWS + 1, 2 * STACK_ROWS + 3])
def test_draw_blocks_join_to_the_full_draw(law, size):
    # the blocks continue one stream: joined, they equal the full-size draw
    # bit for bit, and so does sample, which is built on them
    dist = BLOCK_LAWS[law]
    x_ref, y_ref = full_draw(dist, substream(7, 0), size)
    x, blocks = dist.draw(substream(7, 0), size)
    blocks = list(blocks)
    assert [b[0] for b in blocks] == [slice(i, i + STACK_ROWS)
                                      for i in range(0, size, STACK_ROWS)]
    assert np.array_equal(x, x_ref)
    assert np.array_equal(np.concatenate([y_b for _, y_b in blocks]), y_ref)
    x_s, y_s = dist.sample(substream(7, 0), size)
    assert np.array_equal(x_s, x_ref) and np.array_equal(y_s, y_ref)


@pytest.mark.parametrize("prior", [GaussianSpec.iso(2, 1.0),
                                   BoundedSpec(dim=2, radius=0.7)])
def test_zero_noise_is_not_drawn(prior):
    # noise with every eigenvalue 0 draws nothing: the generator ends where
    # the x draw alone leaves it, and x and y are those of the full draw,
    # whose noise is all zeros
    dist = ProblemDistribution(prior=prior, noise=GaussianSpec.iso(2, 0.0),
                               forward=ForwardOperator.diagonal([1.0, 0.5]))
    size = STACK_ROWS + 3
    x_ref, y_ref = full_draw(dist, substream(7, 0), size)
    after_x = substream(7, 0)
    prior.sample(after_x, size)
    rng = substream(7, 0)
    x, blocks = dist.draw(rng, size)
    y = np.concatenate([y_b for _, y_b in blocks])
    assert rng.bit_generator.state == after_x.bit_generator.state
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
    rng = substream(7, 0)
    x, y = dist.sample(rng, size)
    assert rng.bit_generator.state == after_x.bit_generator.state
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)


def wait_for_threads(count, timeout=5.0):
    """Whether at most ``count`` threads are alive within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def fill_threads(monkeypatch):
    """The threads of the ``GaussianSpec.fill`` calls made from now on."""
    fill, threads = GaussianSpec.fill, []

    def recording_fill(self, rng, out):
        threads.append(threading.get_ident())
        return fill(self, rng, out)

    monkeypatch.setattr(GaussianSpec, "fill", recording_fill)
    return threads


@pytest.mark.parametrize("law, size, ahead", [
    ("uniform_ball", STACK_ROWS, False),
    ("uniform_ball", STACK_ROWS + 1, True),
    # a basis of the noise law or of A: its product calls BLAS
    ("gaussian_cov_basis", 2 * STACK_ROWS, False),
    ("from_matrix", 2 * STACK_ROWS, False),
])
def test_noise_is_drawn_ahead_only_beside_blas_free_blocks(monkeypatch, law,
                                                           size, ahead):
    # a thread draws the noise only of a draw of more than one block whose
    # A x and noise take no BLAS call; sample is draw, so it does the same
    threads = fill_threads(monkeypatch)
    x, y = BLOCK_LAWS[law].sample(substream(7, 0), size)
    assert (set(threads) != {threading.get_ident()}) == ahead
    assert np.array_equal(y, full_draw(BLOCK_LAWS[law], substream(7, 0),
                                       size)[1])


def test_draw_stopped_after_one_block_leaves_no_thread():
    dist = BLOCK_LAWS["uniform_ball"]
    before = threading.active_count()

    def first_block():
        _, blocks = dist.draw(substream(7, 0), 4 * STACK_ROWS)
        for rows, y_b in blocks:
            return rows

    assert first_block() == slice(0, STACK_ROWS)
    assert wait_for_threads(before)
    _, blocks = dist.draw(substream(7, 0), 4 * STACK_ROWS)
    next(blocks)
    blocks.close()
    assert threading.active_count() == before


def test_draw_reraises_what_the_noise_thread_raised(monkeypatch):
    # the second block's noise fails on the draw thread; the consumer gets
    # the first block, then the same exception, and no thread is left (the
    # prior is not Gaussian, so every fill is a noise fill)
    dist = BLOCK_LAWS["uniform_ball"]
    error = FloatingPointError("noise fill failed")
    fill, calls = GaussianSpec.fill, []

    def failing_fill(self, rng, out):
        calls.append(threading.get_ident())
        if len(calls) == 2:
            raise error
        return fill(self, rng, out)

    monkeypatch.setattr(GaussianSpec, "fill", failing_fill)
    before = threading.active_count()
    _, blocks = dist.draw(substream(7, 0), 3 * STACK_ROWS)
    next(blocks)
    with pytest.raises(FloatingPointError) as raised:
        next(blocks)
    assert raised.value is error
    assert threading.get_ident() not in calls
    assert wait_for_threads(before)


def test_noise_ahead_reuses_two_buffers_at_most_two_blocks_ahead(
        monkeypatch):
    # every block's noise is filled into one of two buffers, so none is
    # allocated per block, and however slow the consumer, the fills started
    # are never more than two ahead of the blocks it has received
    fill, buffers, started = GaussianSpec.fill, set(), [0]

    def recording_fill(self, rng, out):
        buffers.add(out.__array_interface__["data"][0])
        started[0] += 1
        return fill(self, rng, out)

    monkeypatch.setattr(GaussianSpec, "fill", recording_fill)
    dist = BLOCK_LAWS["uniform_ball"]
    size = 5 * STACK_ROWS + 3
    _, blocks = dist.draw(substream(7, 0), size)
    ahead = []
    for received, _ in enumerate(blocks, start=1):
        time.sleep(0.02)  # time for a worker that may run ahead to do so
        ahead.append(started[0] - received)
    assert len(ahead) == 6 and started[0] == 6
    assert len(buffers) == 2
    assert max(ahead) <= 2


def test_concurrent_draws_keep_their_values():
    # three consumers and their three draw threads on two cores, switching
    # threads every microsecond: a noise buffer refilled while its block
    # was still being added would change a value
    dist = BLOCK_LAWS["uniform_ball"]
    size = 3 * STACK_ROWS + 5
    drawn = {}

    def consume(k):
        x, blocks = dist.draw(substream(7, k), size)
        drawn[k] = x, np.concatenate([y_b for _, y_b in blocks])

    workers = [threading.Thread(target=consume, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for k in range(3):
        x_ref, y_ref = full_draw(dist, substream(7, k), size)
        assert np.array_equal(drawn[k][0], x_ref)
        assert np.array_equal(drawn[k][1], y_ref)


@pytest.mark.parametrize("dim, radius", [(1, 1.0), (2, 0.7), (5, 3.3)])
def test_bounded_sample_in_place_keeps_its_rounding(dim, radius):
    # the in-place draw rounds as radius * z * u[:, None] did
    rng = np.random.default_rng(11)
    z = rng.standard_normal((1000, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    u = rng.random(1000) ** (1.0 / dim)
    expected = radius * z * u[:, None]
    drawn = BoundedSpec(dim=dim, radius=radius).sample(
        np.random.default_rng(11), 1000)
    assert np.array_equal(drawn, expected)


# -- orlicz_norm -----------------------------------------------------------

def test_orlicz_constant_variable():
    c = 3.0
    est = orlicz_norm(np.full(20_000, c), q=2)
    assert abs(est - c / np.sqrt(np.log(2))) <= \
        0.02 * c / np.sqrt(np.log(2))


def test_orlicz_standard_gaussian():
    rng = substream(123, 0)
    w = rng.standard_normal(10**6)
    est = orlicz_norm(w, q=2)
    target = np.sqrt(8.0 / 3.0)
    assert abs(est - target) <= 0.05 * target


def test_orlicz_squared_gaussian_subexponential():
    rng = substream(124, 0)
    w = rng.standard_normal(200_000) ** 2
    est = orlicz_norm(w, q=1)
    assert np.isfinite(est) and est > 0
    assert tail_check(w, est, q=1)


def test_orlicz_zero_and_invalid_samples():
    assert orlicz_norm(np.zeros(20_000), q=2) == 0.0
    with pytest.raises(ConfigurationError):
        orlicz_norm([1.0, np.inf], q=2)
    with pytest.raises(ConfigurationError):
        orlicz_norm([], q=2)


def test_orlicz_homogeneity():
    # down to 1e-12 and up to 1e12: the bisection bracket scales with the
    # sample
    rng = substream(125, 0)
    w = rng.standard_normal(50_000)
    for q in (1, 2):
        base = orlicz_norm(w, q)
        for scale in (2.5, 1e-12, 1e12):
            scaled = orlicz_norm(scale * w, q)
            assert abs(scaled - scale * base) <= 1e-3 * scale * base


def test_orlicz_monotone_under_domination():
    rng = substream(126, 0)
    w2 = rng.standard_normal(50_000)
    w1 = 0.5 * w2  # |w1| <= |w2| entrywise
    n1 = orlicz_norm(w1, q=2)
    n2 = orlicz_norm(w2, q=2)
    assert n1 <= n2 * (1 + 1e-3)


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0),
       q=st.sampled_from([1, 2]))
def test_orlicz_homogeneity_property(scale, q):
    rng = np.random.default_rng(0)
    w = rng.standard_normal(12_000)
    base = orlicz_norm(w, q)
    scaled = orlicz_norm(scale * w, q)
    assert scaled == pytest.approx(scale * base, rel=5e-4)


# -- tail_check ------------------------------------------------------------

def test_tail_bounded_samples_pass():
    rng = substream(200, 0)
    w = rng.uniform(-1, 1, 50_000)
    assert tail_check(w, K=2.0, q=2) is True


def test_tail_gaussian_with_estimated_norm_passes():
    rng = substream(201, 0)
    w = rng.standard_normal(200_000)
    est = orlicz_norm(w, q=2)
    assert tail_check(w, est, q=2)


def test_tail_gaussian_with_tiny_k_fails():
    rng = substream(202, 0)
    w = rng.standard_normal(200_000)
    assert tail_check(w, K=0.1, q=2) is False


def test_tail_decisions_match_scipy_stats_binom_ppf():
    # a count k passes a threshold iff k <= binom.ppf(q, n, p), checked at
    # the counts around each quantile and at both ends; at a q that equals
    # a CDF value exactly (e.g. q = 0.5, n = 7, p = 0.5) the two CDF
    # implementations may round to opposite sides of q
    from scipy.stats import binom
    p = np.concatenate([[0.0, 1.0], np.logspace(-90, 0, 61),
                        np.linspace(0.0, 1.0, 41)])
    for n in (1, 2, 7, 100, 1_001, 50_000, 1_000_000):
        for q in (0.9, 0.95, 0.99, 0.999):
            ppf = binom.ppf(q, n, p)
            for k in (np.zeros_like(ppf), ppf - 1, ppf, ppf + 1,
                      np.full_like(ppf, n)):
                k = np.clip(k, 0, n)
                assert np.array_equal(_within_quantile(k, n, p, q),
                                      k <= ppf), (n, q)


def test_binom_cdf_matches_scipy():
    # the oracle is scipy.stats.binom.cdf, accurate to about 1e-15; at
    # n = 10^6 scipy.special.bdtr itself is off from it by up to 1.2e-9
    # near the mean (its lgamma prefactor loses digits), so bdtr is held
    # to 1e-9 only up to n = 10^5
    from scipy.special import bdtr
    from scipy.stats import binom
    p = np.concatenate([[0.0, 1e-300, 1e-9, 1.0 - 1e-12, 1.0],
                        np.linspace(0.0, 1.0, 21), np.logspace(-4, -1, 7)])
    for n in (2_000, 100_000, 1_000_000):
        k = np.unique(np.r_[np.arange(0, n + 1, n // 1_000), n - 1, n])
        for pj in p:
            got = _binom_cdf(k, n, pj)
            np.testing.assert_allclose(got, binom.cdf(k, n, pj),
                                       rtol=0, atol=1e-12)
            if n <= 100_000:
                np.testing.assert_allclose(got, bdtr(k, n, pj),
                                           rtol=0, atol=1e-9)


def test_binom_cdf_endpoints():
    # k >= n is certain, p = 0 puts all mass at 0 and p = 1 all at n
    assert np.array_equal(_binom_cdf([0, 5, 7], 5, [0.0, 0.5, 1.0]),
                          [1.0, 1.0, 1.0])
    # P(Bin(5, 1/2) <= 3) = 26/32
    assert _binom_cdf(3, 5, 0.5)[()] == pytest.approx(0.8125, rel=1e-15)
    assert np.array_equal(_binom_cdf([0, 4], 5, 1.0), [0.0, 0.0])
    assert np.isnan(_binom_cdf(1, 5, np.nan))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=1_000_000),
       u=st.floats(min_value=0.0, max_value=1.0),
       law=st.sampled_from(["uniform", "log-uniform", "near one"]))
def test_binom_cdf_property(n, u, law):
    # (n, p) off the fixed grid of test_binom_cdf_matches_scipy: p uniform,
    # log-uniform down to 1e-300, or 1 - p log-uniform down to 1e-15.  The
    # kernel sums the lower terms below the mode and the upper ones from
    # it on, so the k-grid holds the counts around the mode, where the CDF
    # must stay non-decreasing.  The oracle sums scipy's pmf within
    # 50 sd + 50 of the mean, the lower terms below it and the upper ones
    # above: scipy.stats.binom.cdf itself is off by up to 1.4e-11 near
    # p = 4e-5, n = 9e5 (against 40-digit sums, where this kernel is
    # within 3e-16)
    from scipy.stats import binom
    p = {"uniform": u, "log-uniform": 10.0 ** (-300 * u),
         "near one": 1.0 - 10.0 ** (-15 * u)}[law]
    assume(p == 0 or p >= 1e-300)  # below it scipy's pmf overflows
    mode, sd = np.floor((n + 1) * p), np.sqrt(n * p * (1 - p))
    k = np.unique(np.r_[np.linspace(0, n, 101), mode + np.arange(-2, 3),
                        n * p + sd * np.linspace(-8, 8, 161)]
                  .round().clip(0, n))
    lo = max(0, int(n * p - 50 * sd) - 50)
    pmf = binom.pmf(np.arange(lo, min(n, int(n * p + 50 * sd) + 51) + 1),
                    n, p)
    want = [pmf[:j].sum() if kj < n * p else 1.0 - pmf[j:].sum()
            for kj, j in zip(k, np.clip(k - lo + 1, 0, pmf.size).astype(int))]
    got = _binom_cdf(k, n, p)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(np.diff(got) >= 0)
    assert got[-1] == 1.0  # k = n


def test_logsumexp_equals_scipy():
    # bit for bit, so every Orlicz bisection decision is scipy's
    from scipy.special import logsumexp
    rng = np.random.default_rng(4)
    arrays = [np.array([2.5]), np.zeros(7), np.array([1e300, 1e300])]
    for size in (1, 2, 3, 100, 1_000, 10_007):
        for scale in (1e-3, 1.0, 1e3):
            a = rng.standard_normal(size) ** 2 * scale
            tied = a.copy()
            tied[rng.integers(0, size, 3)] = a.max()
            arrays += [a, tied, np.round(a)]
    for a in arrays:
        assert _logsumexp(a) == logsumexp(a)


def test_tail_check_input_validation():
    with pytest.raises(ConfigurationError):
        tail_check([], K=1.0, q=2)
    for K in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            tail_check([1.0], K=K, q=2)


@pytest.mark.parametrize("samples", [
    [np.inf] * 10,
    [np.nan, 1.0, 2.0],
    np.append(np.random.default_rng(5).standard_normal(1000), np.inf),
])
def test_tail_check_rejects_non_finite_samples(samples):
    # as orlicz_norm does: an infinite or NaN sample has no tail to check
    with pytest.raises(ConfigurationError, match="non-finite"):
        tail_check(samples, K=1.0, q=2)


# -- empirical_average_contraction ----------------------------------------

def test_average_contraction_gaussian_slope():
    draws = substream(7, 0).standard_normal((2000, 4096))
    table = empirical_average_contraction(
        draws, q=2, m_grid=[16, 64, 256, 1024, 4096])
    assert -0.6 <= table.slope <= -0.4


def test_average_contraction_zero_variable():
    table = empirical_average_contraction(
        np.zeros((100, 64)), q=2, m_grid=[16, 64])
    assert np.all(table.k_hat == 0.0)
    assert table.slope == 0.0


def test_average_contraction_subexponential_envelope():
    draws = substream(11, 0).standard_normal((4000, 1024)) ** 2 - 1.0
    grid = [1, 16, 64, 256, 1024]
    table = empirical_average_contraction(draws, q=1, m_grid=grid)
    k1 = table.k_hat[0]
    for m, k in zip(table.m_grid[1:], table.k_hat[1:]):
        assert k <= k1 / np.sqrt(m) * 1.25


def test_average_contraction_is_shift_invariant():
    # each m's averages are centred on their own mean, so draws shifted by
    # a constant give the same norms
    draws = substream(3, 0).standard_normal((500, 256))
    kwargs = dict(q=2, m_grid=[16, 64, 256])
    base = empirical_average_contraction(draws, **kwargs)
    moved = empirical_average_contraction(draws + 1.0, **kwargs)
    np.testing.assert_allclose(moved.k_hat, base.k_hat, rtol=1e-12)


def test_average_contraction_reads_prefix_means():
    # a trial's m-average is the mean of the first m entries of its row;
    # columns beyond max(m_grid) are never read
    draws = substream(5, 0).standard_normal((300, 80))
    grid = [4, 16, 64]
    table = empirical_average_contraction(draws, q=2, m_grid=grid)
    for m, k in zip(grid, table.k_hat):
        means = draws[:, :m].mean(axis=1)
        assert k == orlicz_norm(means - means.mean(), q=2)


def test_average_contraction_reads_row_blocks_as_one_array():
    # an iterator of row blocks gives the table of the joined array, bit
    # for bit, however the trials are split
    draws = substream(5, 0).standard_normal((300, 80))
    grid = [4, 16, 64]
    whole = empirical_average_contraction(draws, q=1, m_grid=grid)
    blocked = empirical_average_contraction(
        iter(np.split(draws, [64, 128, 250])), q=1, m_grid=grid)
    assert np.array_equal(blocked.k_hat, whole.k_hat)
    assert blocked.slope == whole.slope


def test_average_contraction_rejects_too_few_columns():
    with pytest.raises(ConfigurationError, match="columns"):
        empirical_average_contraction(np.ones((10, 63)), q=2,
                                      m_grid=[16, 64])
    with pytest.raises(ConfigurationError, match="columns"):
        empirical_average_contraction(np.ones(64), q=2, m_grid=[16, 64])


# -- substream -------------------------------------------------------------

def test_substreams_disjoint_and_reproducible():
    a = substream(5, 1, 2).standard_normal(8)
    b = substream(5, 1, 2).standard_normal(8)
    c = substream(5, 1, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
