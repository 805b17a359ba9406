"""Tests for sampling, Orlicz-norm estimation, and concentration checks."""

import contextlib
import math
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invlearn import (BoundedSpec, ForwardOperator, GaussianSpec,
                      ProblemDistribution, draw_training_set,
                      empirical_average_contraction, orlicz_norm, substream,
                      tail_check)
from invlearn.errors import ConfigurationError, DimensionMismatchError
from invlearn.stochastics import (AHEAD, ORLICZ_REL_TOL, STACK_ROWS,
                                  _binom_cdf, _within_quantile)


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


# -- ProblemDistribution.sample and the blocks of draw ----------------------

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
    # no basis anywhere, noise that is never drawn, and rank 2 < n_y = 3
    "gaussian_zero_noise": ProblemDistribution(
        prior=GaussianSpec(mean=[0.5, -1.0, 0.0],
                           covariance_eigenvalues=[1.0, 0.3, 0.7]),
        noise=GaussianSpec.iso(3, 0.0),
        forward=ForwardOperator(n_x=3, n_y=3, singular_values=[1.0, 0.5])),
}
BLOCK_SIZES = [1, STACK_ROWS - 1, STACK_ROWS, STACK_ROWS + 1,
               2 * STACK_ROWS + 3]


def keyed_blocks(dist, key, size):
    """The blocks ``draw(key, size)`` must give: block b is ``sample`` of
    its rows from ``substream(*key, b)``."""
    return [dist.sample(substream(*key, b), min(STACK_ROWS, size - i))
            for b, i in enumerate(range(0, size, STACK_ROWS))]


def assert_blocks_equal(blocks, expected):
    assert len(blocks) == len(expected)
    for (x, y), (x_ref, y_ref) in zip(blocks, expected):
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)


@pytest.mark.parametrize("law", sorted(BLOCK_LAWS))
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_draw_blocks_join_to_the_full_draw(law, size):
    # block b of draw((7, 0), size) is sample of its rows from stream
    # (7, 0, b), bit for bit, whichever thread drew it; sample reads one
    # stream, all x first, and equals the full-size draw bit for bit, so
    # the blocks join to the full draws of their own streams
    dist = BLOCK_LAWS[law]
    assert_blocks_equal(list(dist.draw((7, 0), size)),
                        keyed_blocks(dist, (7, 0), size))
    x_ref, y_ref = full_draw(dist, substream(7, 0), size)
    x, y = dist.sample(substream(7, 0), size)
    assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)


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


def record_law_samples(monkeypatch, fail_rows=None):
    """The threads of the ``GaussianSpec.sample`` and ``BoundedSpec.sample``
    calls made from now on; a Gaussian draw of ``fail_rows`` rows raises."""
    threads = []
    for cls in (GaussianSpec, BoundedSpec):
        def recording_sample(self, rng, size, sample=cls.sample):
            threads.append(threading.get_ident())
            if size == fail_rows and isinstance(self, GaussianSpec):
                raise FloatingPointError("noise draw failed")
            return sample(self, rng, size)

        monkeypatch.setattr(cls, "sample", recording_sample)
    return threads


def prior_basis_law():
    """``gaussian_zero_noise`` with a covariance basis of its prior."""
    law = BLOCK_LAWS["gaussian_zero_noise"]
    prior = GaussianSpec(law.prior.mean, law.prior.covariance_eigenvalues,
                         _rotation(3, 4))
    return ProblemDistribution(prior=prior, noise=law.noise,
                               forward=law.forward)


@pytest.mark.parametrize("law, size, ahead", [
    ("uniform_ball", STACK_ROWS, False),
    ("uniform_ball", STACK_ROWS + 1, True),
    # a basis of the noise law, of A or of the prior: its product calls BLAS
    ("gaussian_cov_basis", 2 * STACK_ROWS, False),
    ("from_matrix", 2 * STACK_ROWS, False),
    ("prior_basis", 2 * STACK_ROWS, False),
    ("gaussian_zero_noise", 2 * STACK_ROWS, True),
])
def test_noise_is_drawn_ahead_only_beside_blas_free_blocks(monkeypatch, law,
                                                           size, ahead):
    # worker threads draw the blocks' x and noise ahead only in a draw of
    # more than one block whose laws and A take no BLAS call; the caller
    # gets the same blocks either way
    dist = prior_basis_law() if law == "prior_basis" else BLOCK_LAWS[law]
    expected = keyed_blocks(dist, (7, 0), size)
    threads = record_law_samples(monkeypatch)
    blocks = list(dist.draw((7, 0), size))
    assert threading.get_ident() not in threads if ahead \
        else set(threads) == {threading.get_ident()}
    assert_blocks_equal(blocks, expected)


def test_draw_stopped_after_one_block_leaves_no_thread():
    dist = BLOCK_LAWS["uniform_ball"]
    before = threading.active_count()

    def first_block():
        for x, _ in dist.draw((7, 0), 6 * STACK_ROWS):
            return len(x)

    assert first_block() == STACK_ROWS
    assert wait_for_threads(before)
    blocks = dist.draw((7, 0), 6 * STACK_ROWS)
    next(blocks)
    blocks.close()
    assert threading.active_count() == before


def test_draw_reraises_what_the_noise_thread_raised(monkeypatch):
    # the noise of the short last block fails on a worker (the prior is not
    # Gaussian, so every Gaussian draw is a noise draw); the caller gets the
    # two full blocks, then the same exception, and no thread is left
    dist = BLOCK_LAWS["uniform_ball"]
    threads = record_law_samples(monkeypatch, fail_rows=3)
    before = threading.active_count()
    blocks = dist.draw((7, 0), 2 * STACK_ROWS + 3)
    assert [len(next(blocks)[0]) for _ in range(2)] == [STACK_ROWS] * 2
    with pytest.raises(FloatingPointError, match="noise draw failed"):
        next(blocks)
    assert threading.get_ident() not in threads
    assert threading.active_count() == before


def test_draw_holds_at_most_AHEAD_blocks_in_flight(monkeypatch):
    # however slow the caller, the workers never start a block more than
    # AHEAD blocks after the last one it received, and they do reach that
    n_blocks = 8
    started, lock = [], threading.Lock()
    sample = BoundedSpec.sample

    def recording_sample(self, rng, size):
        with lock:
            started.append(size)
        return sample(self, rng, size)

    monkeypatch.setattr(BoundedSpec, "sample", recording_sample)
    dist = BLOCK_LAWS["uniform_ball"]
    ahead = []
    for received, _ in enumerate(dist.draw((7, 0), n_blocks * STACK_ROWS),
                                 start=1):
        deadline = time.monotonic() + 5.0
        while (len(started) < min(n_blocks, received + AHEAD)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        time.sleep(0.01)  # time for a worker that would overshoot to do so
        ahead.append(len(started) - received)
    assert len(started) == n_blocks
    assert max(ahead) == AHEAD


def test_concurrent_draws_keep_their_values():
    # three callers and their six workers on two cores, switching threads
    # every microsecond: no value may depend on the timing
    dist = BLOCK_LAWS["uniform_ball"]
    size = 3 * STACK_ROWS + 5
    drawn = {}

    def consume(k):
        drawn[k] = list(dist.draw((7, k), size))

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
        assert_blocks_equal(drawn[k], keyed_blocks(dist, (7, k), size))


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


@pytest.mark.parametrize("build, error, match", [
    pytest.param(
        lambda: ProblemDistribution(prior=GaussianSpec.iso(2, 1.0),
                                    noise=GaussianSpec.iso(1, 1.0),
                                    forward=ForwardOperator.identity(1)),
        DimensionMismatchError, "prior dimension", id="prior dim"),
    pytest.param(
        lambda: ProblemDistribution(prior=GaussianSpec.iso(1, 1.0),
                                    noise=GaussianSpec.iso(2, 1.0),
                                    forward=ForwardOperator.identity(1)),
        DimensionMismatchError, "noise dimension", id="noise dim"),
    pytest.param(
        lambda: ProblemDistribution(
            prior=GaussianSpec.iso(1, 1.0),
            noise=GaussianSpec(mean=[1.0], covariance_eigenvalues=[1.0]),
            forward=ForwardOperator.identity(1)),
        ConfigurationError, "zero-mean", id="noise mean"),
    pytest.param(lambda: orlicz_norm([1.0], q=3), ConfigurationError,
                 "q must be 1 or 2", id="orlicz q"),
    pytest.param(lambda: tail_check([1.0], K=1.0, q=3), ConfigurationError,
                 "q must be 1 or 2", id="tail q"),
    pytest.param(
        lambda: empirical_average_contraction(np.ones((4, 4)), q=2,
                                              m_grid=[]),
        ConfigurationError, "m_grid must be non-empty", id="empty m-grid"),
])
def test_input_checks(build, error, match):
    with pytest.raises(error, match=match):
        build()


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


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("w, q, norm", [
    # exp(1e308 / t) + e^(1 / t) <= 4 at t = 1e308 / log 3, where the
    # product of the unscaled bracket's ends exceeds the float maximum
    ([1e308, 1.0], 1, 1e308 / math.log(3)),
    # |w|^2 exceeds the float maximum
    ([1.4e154, 1.0], 2, 1.4e154 / math.sqrt(math.log(3))),
    # one sample: its norm 1.2e308 / log 2 is just below the float maximum
    ([1.2e308], 1, 1.2e308 / math.log(2)),
])
def test_orlicz_norm_near_the_float_maximum(w, q, norm):
    with time_limit(5), np.errstate(all="raise"):
        est = orlicz_norm(w, q)
    assert est == pytest.approx(norm, rel=2 * ORLICZ_REL_TOL)


def test_orlicz_norm_above_the_float_maximum_is_inf():
    # 1.7e308 / log 2 exceeds the largest float: no finite norm is right
    with time_limit(5), np.errstate(all="raise"):
        assert orlicz_norm([1.7e308], 1) == math.inf


def _log_space_orlicz_norm(w, q):
    """The bisection of ``orlicz_norm`` with its decision taken in log
    space by ``scipy.special.logsumexp``, which shifts by the maximum and
    so cannot overflow."""
    from scipy.special import logsumexp
    top = np.max(np.abs(w))
    log2n = np.log(2.0) + np.log(w.size)
    lo, hi = 1 / log2n ** (1 / q), 1 / np.log(2.0) ** (1 / q)
    with np.errstate(under="ignore"):
        wq = np.abs(w / top) ** q
        while hi / lo > 1 + ORLICZ_REL_TOL:
            mid = np.sqrt(lo * hi)
            if logsumexp(wq / mid**q) <= log2n:
                hi = mid
            else:
                lo = mid
    return float(hi) * top


def test_orlicz_norm_equals_the_log_space_bisection():
    # every exponent is at most log 2n, so the direct sum takes each of
    # the overflow-safe bisection's decisions: the norms are equal
    rng = np.random.default_rng(30)
    laws = {
        "squared gaussian": lambda n: rng.standard_normal(n) ** 2,
        "exponential": lambda n: rng.exponential(size=n),
        "squared t3": lambda n: rng.standard_t(3, n) ** 2,
        "gaussian": lambda n: rng.standard_normal(n),
        "scaled uniform": lambda n: rng.random(n) * 10.0 ** rng.integers(
            -300, 301),
        "rounded, with ties": lambda n: np.round(4 * rng.random(n)),
    }
    with np.errstate(all="raise"):
        for n in (1, 2, 3, 10, 100, 1_000, 10_007, 100_000):
            for name, law in laws.items():
                w = law(n)
                if not np.any(w):
                    continue
                for q in (1, 2):
                    assert orlicz_norm(w, q) == \
                        _log_space_orlicz_norm(w, q), (name, n, q)


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


def test_tail_check_input_validation():
    with pytest.raises(ConfigurationError):
        tail_check([], K=1.0, q=2)
    for K in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError):
            tail_check([1.0], K=K, q=2)


def heavy_tailed(law, n, rng):
    """n draws of a law with no finite psi_1 norm, or n - 1 ones and one
    spike."""
    if law == "cauchy":
        return rng.standard_cauchy(n)
    if law == "student_t":
        return rng.standard_t(rng.uniform(0.5, 2.5), n)
    if law == "pareto":
        return rng.pareto(rng.uniform(0.5, 3.0), n)
    w = np.ones(n)
    w[rng.integers(n)] = 10.0 ** rng.uniform(0.0, 12.0)
    return w


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       law=st.sampled_from(["cauchy", "student_t", "pareto", "spike"]),
       n=st.integers(1, 100_000), q=st.sampled_from([1, 2]))
@example(seed=0, law="spike", n=1, q=2)
@example(seed=1, law="cauchy", n=100_000, q=1)
def test_tail_check_passes_at_the_samples_own_orlicz_norm(seed, law, n, q):
    # the mean of exp(|w|^q / K^q) is at most 2 at the fitted norm K, so by
    # Markov's inequality at most n 2 exp(-(t / K)^q) = n p entries exceed
    # t, below the median of Bin(n, p): every finite sample passes against
    # its own fitted norm, which is why the verification suite runs no tail
    # test
    w = heavy_tailed(law, n, np.random.default_rng(seed))
    assume(np.all(np.isfinite(w)))
    norm = orlicz_norm(w, q)
    assume(0 < norm < math.inf)
    assert tail_check(w, 1.05 * norm, q)


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
