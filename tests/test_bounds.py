"""Tests for covering models, bound curves, rate exponents, and PAC tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlearn import (BoundInputs, CoveringModel, chaining_bound,
                      covering_ball, covering_bound, greedy_cover,
                      predicted_exponent)
from invlearn.bounds import C2, COVER_BLOCK, _cover_matrix, entropy_integral
from invlearn.errors import ConfigurationError


# -- covering_ball ---------------------------------------------------------

def test_covering_ball_values():
    assert covering_ball(1, 1.0, 1.0) == pytest.approx(2.0)
    assert covering_ball(2, 1.0, 1.0) == pytest.approx(8.0)
    assert covering_ball(1, 1.0, 0.5) == pytest.approx(4.0)
    assert covering_ball(2, 1.0, 0.5) == pytest.approx((4 * math.sqrt(2)) ** 2)


def test_covering_ball_single_ball_beyond_diameter():
    assert covering_ball(1, 1.0, 1.5) == 1.0
    assert covering_ball(3, 2.0, 5.0) == 1.0


def test_covering_ball_validation():
    with pytest.raises(ConfigurationError):
        covering_ball(1, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        covering_ball(0, 1.0, 0.5)


# -- greedy_cover ----------------------------------------------------------

def test_greedy_cover_single_ball():
    pts = np.linspace(-1, 1, 201)[:, None]
    assert greedy_cover(pts, r=1.0) == 1


def test_greedy_cover_interval_midrange():
    pts = np.linspace(-1, 1, 201)[:, None]
    n = greedy_cover(pts, r=0.4)
    assert 2 <= n <= 3
    assert n <= covering_ball(1, 1.0, 0.4)


def test_greedy_cover_antipodal_points():
    pts = np.array([[1.0], [-1.0]])
    assert greedy_cover(pts, r=0.5) == 2


def test_greedy_cover_reads_a_1d_array_as_scalar_points():
    # [0, 1, 2] is three points on the line, as its column form, not one
    # point in R^3; a 3-d array is no point set
    assert greedy_cover([0.0, 1.0, 2.0], 0.5) == 3
    assert greedy_cover([[0.0], [1.0], [2.0]], 0.5) == 3
    with pytest.raises(ConfigurationError, match="points"):
        greedy_cover(np.zeros((2, 3, 1)), 0.5)


def test_greedy_cover_within_formula_bound_low_dim():
    rng = np.random.default_rng(0)
    D = 1.0
    for d in (1, 2, 3):
        grid = rng.uniform(-D, D, size=(4000, d))
        grid = grid[np.linalg.norm(grid, axis=1) <= D]
        for r in (D, D / 2, D / 4, D / 8):
            assert greedy_cover(grid, r) <= math.ceil(covering_ball(d, D, r))


def greedy_cover_reference(points, r):
    """The plain greedy loop, the reference for ``greedy_cover``: every step
    recounts the uncovered points of every ball (O(n^2) per step)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    covers = d2 <= (r * r) * (1 + 1e-9)
    uncovered = np.ones(pts.shape[0], dtype=bool)
    count = 0
    while uncovered.any():
        center = int(np.argmax(covers[:, uncovered].sum(axis=1)))
        uncovered &= ~covers[center]
        count += 1
    return count


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_greedy_cover_matches_reference_on_lattices(d, data):
    # lattice points with spacing 1/4 put many points exactly on a ball
    # boundary (e.g. 4 steps from a center at r = 1), and repeated draws
    # and the appended copies give duplicate points
    lattice = data.draw(st.lists(
        st.lists(st.integers(-4, 4), min_size=d, max_size=d),
        min_size=1, max_size=40))
    step = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    r = data.draw(st.sampled_from([0.25, 0.5, 1.0, 2 ** 0.5, 2.0]))
    pts = step * np.array(lattice, dtype=float)
    pts = np.vstack([pts, pts[:data.draw(st.integers(0, len(pts)))]])
    assert greedy_cover(pts, r) == greedy_cover_reference(pts, r)


def test_greedy_cover_matches_reference_on_random_clouds():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        pts = rng.uniform(-1.0, 1.0, size=(600, d))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        for r in (1.0, 0.5, 0.25, 0.125):
            assert greedy_cover(pts, r) == greedy_cover_reference(pts, r)


@pytest.mark.parametrize("points, r, name", [
    ([[0.0], [np.nan]], 0.5, "points"),
    ([[0.0], [np.inf]], 0.5, "points"),
    ([[0.0, -np.inf], [1.0, 0.0]], 0.5, "points"),
    ([[0.0], [1.0]], -0.5, "radius r"),
    ([[0.0], [1.0]], 0.0, "radius r"),
    ([[0.0], [1.0]], np.nan, "radius r"),
    ([[0.0], [1.0]], np.inf, "radius r"),
    (np.zeros((0, 1)), 0.5, "non-empty"),
])
def test_greedy_cover_rejects_bad_input(points, r, name):
    # a NaN coordinate is covered by no ball, so the greedy would not end;
    # a negative r would act as |r|
    with pytest.raises(ConfigurationError, match=name):
        greedy_cover(points, r)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_greedy_cover_matches_reference_across_blocks(d):
    # 300-700 lattice points with spacing 1/4 span several COVER_BLOCKs, so
    # boundary points and runs of equal first coordinates (the sort key)
    # straddle block edges; some clouds have only 2 or 3 distinct first
    # coordinates, and the appended copies give duplicate points
    rng = np.random.default_rng(20 + d)
    for n, n_first in ((700, 9), (300, 3), (500, 2), (400, 9)):
        lattice = rng.integers(-4, 5, size=(n, d))
        lattice[:, 0] = rng.integers(0, n_first, size=n) - n_first // 2
        pts = 0.25 * lattice.astype(float)
        pts = np.vstack([pts, pts[:n // 4]])
        assert len(pts) > 4 * COVER_BLOCK
        for r in (0.25, 0.5, 1.0, 2 ** 0.5, 2.0):
            assert greedy_cover(pts, r) == greedy_cover_reference(pts, r)


def test_cover_matrix_equals_cdist():
    # the oracle is scipy's cdist of the points in the returned order, a
    # stable sort by first coordinate; every entry is compared, inside and
    # outside the computed band.  Lattice points with spacing 1/4 sit
    # exactly on ball boundaries at r = 1/2 and 1 and tie on the sort key,
    # and 2 * COVER_BLOCK + 7 random points end in a partial block
    from scipy.spatial.distance import cdist
    rng = np.random.default_rng(9)
    for d in (1, 2, 3, 5):
        axes = [np.arange(-2, 3) * 0.25] * min(d, 3) + [[0.0]] * (d - 3)
        lattice = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, d)
        cloud = rng.uniform(-1.0, 1.0, size=(2 * COVER_BLOCK + 7, d))
        for pts in (lattice, cloud, np.vstack([cloud, lattice])):
            for r in (0.125, 0.25, 0.5, 1.0, 2 ** 0.5 / 4):
                order, covers = _cover_matrix(pts, r)
                assert np.array_equal(
                    order, np.argsort(pts[:, 0], kind="stable"))
                d2 = cdist(pts[order], pts[order], "sqeuclidean")
                assert np.array_equal(covers, d2 <= (r * r) * (1 + 1e-9))


# -- CoveringModel ---------------------------------------------------------

def test_entropy_decay_log_n_values():
    def log_n(s, r, c):
        return CoveringModel(kind="entropy_decay", s=s, c=c).log_n(r)

    assert log_n(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert log_n(1.0, 0.5, 1.0) == pytest.approx(2.0)
    assert log_n(0.5, 0.1, 3.0) == pytest.approx(300.0)


def test_entropy_decay_rejects_bad_inputs():
    for c in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="c > 0"):
            CoveringModel(kind="entropy_decay", s=1.0, c=c)
    for s in (None, 0.0, -1.0):
        with pytest.raises(ConfigurationError, match="s > 0"):
            CoveringModel(kind="entropy_decay", s=s)
    with pytest.raises(ConfigurationError, match="positive"):
        CoveringModel(kind="entropy_decay", s=1.0).log_n(0.0)


def test_covering_model_log_n_non_increasing():
    for model in (CoveringModel(kind="euclidean_ball", d=3, D=2.0),
                  CoveringModel(kind="entropy_decay", s=1.5, c=2.0)):
        rs = np.geomspace(1e-3, 2.0, 50)
        vals = [model.log_n(r) for r in rs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_ball_log_n_is_finite_in_high_dimension():
    # the full n = 8 Tikhonov class (dim 72) at the covering grid's
    # smallest radius: (2 D sqrt(d) / r)^d overflows a float, its log does
    # not
    cov = CoveringModel(kind="euclidean_ball", d=72, D=1.0)
    expected = 72 * (math.log(2.0 * math.sqrt(72)) - math.log(1e-6))
    assert cov.log_n(1e-6) == pytest.approx(expected, rel=1e-14)
    assert cov.log_n(1.5) == 0.0
    with pytest.raises(ConfigurationError, match="D > 0"):
        CoveringModel(kind="euclidean_ball", d=2, D=0.0)


# -- covering_bound --------------------------------------------------------

@pytest.mark.parametrize("changes, match", [
    ({"q": 3}, "q must be 1 or 2"),
    ({"alpha": 0.0}, "alpha"),
    ({"alpha": 1.5}, "alpha"),
    ({"K": -1.0}, "K, M_ell >= 0"),
    ({"M_ell": -1.0}, "K, M_ell >= 0"),
    ({"m": 0}, "m >= 1"),
    ({"D": 0.5}, "D >= 1"),
])
def test_bound_inputs_validation(changes, match):
    with pytest.raises(ConfigurationError, match=match):
        BoundInputs(**{"m": 16, **changes})


@pytest.mark.parametrize("bound, r", [(covering_bound, 0.0),
                                      (covering_bound, -0.5),
                                      (chaining_bound, -0.5)])
def test_bound_rejects_a_radius_out_of_range(bound, r):
    # r = 0 is the chaining bound's improper integral, not an error
    cov = CoveringModel(kind="euclidean_ball", d=1, D=1.0)
    with pytest.raises(ConfigurationError, match="r must be"):
        bound(BoundInputs(m=16), cov, r=r)


def test_covering_bound_no_stability_term():
    cov = CoveringModel(kind="euclidean_ball", d=2, D=1.0)
    inputs = BoundInputs(K=1.0, M_ell=0.0, q=2, alpha=1.0, m=100)
    curve = covering_bound(inputs, cov, r=0.5)
    # entropy-only bound decreases in r, so the grid argmin is at r = D
    assert curve.argmin_r == pytest.approx(1.0)


def test_covering_bound_no_entropy_term():
    cov = CoveringModel(kind="euclidean_ball", d=2, D=1.0)
    inputs = BoundInputs(K=0.0, M_ell=1.0, q=2, alpha=1.0, m=100)
    curve = covering_bound(inputs, cov, r=0.5)
    assert curve.value == pytest.approx(2.0 * 0.5)
    assert curve.argmin_r == pytest.approx(curve.r_grid[0])


def test_covering_bound_grid_minimum_matches_dense_grid():
    cov = CoveringModel(kind="euclidean_ball", d=4, D=1.0)
    inputs = BoundInputs(K=1.0, M_ell=1.0, q=2, alpha=1.0, m=1024)
    curve = covering_bound(inputs, cov, r=0.5)
    dense = np.geomspace(1e-6, 1.0, 10_000)

    def value_at(r):
        return (1.0 / math.sqrt(1024) * cov.log_n(r) ** 0.5 + 2.0 * r)

    dense_min = min(value_at(r) for r in dense)
    assert curve.min_value == pytest.approx(dense_min, rel=0.01)


# -- chaining_bound --------------------------------------------------------

def test_chaining_bound_singleton_model():
    # log N == 0 for all r >= D with the ball model in d=1 and tiny D is not
    # expressible; use entropy integral over an empty interval instead:
    cov = CoveringModel(kind="euclidean_ball", d=1, D=1.0)
    inputs = BoundInputs(K=2.0, M_ell=1.0, q=1, alpha=1.0, m=4)
    # r^alpha / 4 = D makes the integral empty, leaving C2 K r^alpha
    r = 4.0
    val = chaining_bound(inputs, cov, r=r)
    assert val == pytest.approx(C2 * inputs.K * r)


def test_chaining_closed_form_sqrt_integral():
    # s=2, alpha=1, q=1: integral of c^{-1/2} from 0 to D is 2 sqrt(D)
    for D in (1.0, 2.0, 7.5):
        cov = CoveringModel(kind="entropy_decay", s=2.0, c=1.0)
        inputs = BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=16, D=D)
        val = chaining_bound(inputs, cov, r=0.0)
        assert val == pytest.approx(2.0 * math.sqrt(D) / 4.0, rel=1e-10)


def test_entropy_integral_closed_form_beta_above_one():
    # s=1/2, alpha=1, q=1, c=2: beta = 2, and the integral of 2 c^{-2} from
    # 1/4 to 1 is 2 (4 - 1) = 6
    cov = CoveringModel(kind="entropy_decay", s=0.5, c=2.0)
    val = entropy_integral(cov, alpha=1.0, q=1, lower=0.25, upper=1.0)
    assert val == pytest.approx(6.0, rel=1e-14)


@pytest.mark.parametrize("alpha, s, q", [
    (1.0, 1.0, 1), (0.5, 2.0, 1), (1.0, 0.5, 2), (0.8, 0.625, 2)])
def test_entropy_integral_at_alpha_s_q_one_vs_quadrature(alpha, s, q):
    # alpha s q = 1: the integrand is c^(1/q) / t, whose integral from a
    # positive lower limit is a logarithm
    from scipy.integrate import quad
    for c in (1.0, 2.5):
        cov = CoveringModel(kind="entropy_decay", s=s, c=c)

        def integrand(t):
            return cov.log_n(t ** (1.0 / alpha)) ** (1.0 / q)

        for lower, upper in ((1e-3, 1.0), (0.25, 4.0)):
            exact = quad(integrand, lower, upper, epsrel=1e-13, epsabs=0.0,
                         limit=400)[0]
            assert entropy_integral(cov, alpha, q, lower, upper) == \
                pytest.approx(exact, rel=1e-12)


def test_chaining_euclidean_integrand_vs_antiderivative():
    # q=1, alpha=1 euclidean ball: integrand d log(2 D sqrt(d) / c) has the
    # closed-form antiderivative d c (log(2 D sqrt(d)/c) + 1)
    d, D = 3, 1.0
    cov = CoveringModel(kind="euclidean_ball", d=d, D=D)
    lower, upper = 0.05, D
    a = 2 * D * math.sqrt(d)

    def anti(c):
        return d * c * (math.log(a / c) + 1.0)

    num = entropy_integral(cov, alpha=1.0, q=1, lower=lower, upper=upper)
    exact = anti(upper) - anti(lower)
    assert num == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("q", [1, 2])
def test_ball_entropy_integral_closed_form_vs_quadrature(d, alpha, q):
    # the oracle is scipy's quad at epsrel 1e-13, told of the integrand's
    # jump to 0 at c = D^alpha (one ball covers beyond it); the limits
    # put 0 or a positive lower limit below the jump, and the upper limit
    # below or above it
    from scipy.integrate import quad
    for D in (1.0, 2.0):
        cov = CoveringModel(kind="euclidean_ball", d=d, D=D)
        top = D ** alpha

        def integrand(c):
            return cov.log_n(c ** (1.0 / alpha)) ** (1.0 / q)

        for lower in (0.0, top / 1024, 0.3 * top):
            for upper in (0.5 * top, top, 2.0 * D):
                exact = quad(integrand, lower, upper, epsrel=1e-13,
                             epsabs=0.0, limit=400,
                             points=[top] if lower < top < upper else None)[0]
                assert entropy_integral(cov, alpha, q, lower, upper) == \
                    pytest.approx(exact, rel=1e-12)


def test_chaining_r_zero_regime_check():
    cov = CoveringModel(kind="entropy_decay", s=0.5, c=1.0)  # alpha*s*q = 0.5
    inputs = BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=16)
    with pytest.raises(ConfigurationError):
        chaining_bound(inputs, cov, r=0.0)
    # positive r is fine in the same regime
    assert np.isfinite(chaining_bound(inputs, cov, r=0.1))


def test_bounds_non_increasing_in_m():
    cov = CoveringModel(kind="euclidean_ball", d=2, D=1.0)
    cov_vals, chain_vals = [], []
    for m in (4, 16, 64, 256, 1024, 4096):
        inputs = BoundInputs(K=1.0, M_ell=1.0, q=2, alpha=1.0, m=m)
        cov_vals.append(covering_bound(inputs, cov, r=0.5).value)
        chain_vals.append(chaining_bound(inputs, cov, r=0.5))
    assert all(b <= a for a, b in zip(cov_vals, cov_vals[1:]))
    assert all(b <= a for a, b in zip(chain_vals, chain_vals[1:]))


def test_chaining_larger_r_dominates_r_zero():
    cov = CoveringModel(kind="entropy_decay", s=2.0, c=1.0)  # alpha*s*q = 2
    inputs = BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=64)
    base = chaining_bound(inputs, cov, r=0.0)
    for r in np.linspace(0.05, 1.0, 12):
        assert chaining_bound(inputs, cov, r=float(r)) >= base - 1e-12


# -- predicted_exponent ----------------------------------------------------

def _decay(s):
    return CoveringModel(kind="entropy_decay", s=s)


def test_predicted_exponent_finite_dim():
    for d in (1, 2, 5, 20):
        for q in (1, 2):
            cov = CoveringModel(kind="euclidean_ball", d=d)
            assert predicted_exponent(cov, 1.0, q,
                                      "chaining").exponent == -0.5
            assert predicted_exponent(cov, 1.0, q,
                                      "covering").exponent == -0.5


def test_predicted_exponent_saturation_boundary():
    # s = 1/(alpha q) with alpha = 1: -alpha^2 s q / 2 = -1/2, continuous
    p = predicted_exponent(_decay(1.0), 1.0, 1, "chaining")
    assert p.exponent == pytest.approx(-0.5)
    p = predicted_exponent(_decay(0.5), 1.0, 2, "chaining")
    assert p.exponent == pytest.approx(-0.5)


def test_predicted_exponent_saturated_regime():
    p = predicted_exponent(_decay(2.0), 1.0, 1, "chaining")
    assert p.exponent == -0.5
    assert p.regime == "saturated"


def test_predicted_exponent_sub_saturation():
    p = predicted_exponent(_decay(0.4), 0.5, 2, "chaining")
    assert p.exponent == pytest.approx(-0.5 * 0.5**2 * 0.4 * 2)
    assert p.regime == "sub-saturation"


def test_predicted_exponent_covering_infinite_dim():
    s, alpha, q = 0.8, 0.9, 1
    p = predicted_exponent(_decay(s), alpha, q, "covering")
    assert p.exponent == pytest.approx(-0.5 * (1 - 1 / (1 + alpha * s * q)))


def test_predicted_exponent_crossover_note():
    # s < (1 - alpha) / (alpha^2 q): covering route faster
    alpha, q = 0.5, 1
    s = 0.5 * (1 - alpha) / (alpha**2 * q)
    p = predicted_exponent(_decay(s), alpha, q, "covering")
    assert "faster" in p.note


def test_predicted_exponent_validation():
    cov = CoveringModel(kind="euclidean_ball", d=2)
    with pytest.raises(ConfigurationError):
        predicted_exponent(cov, 1.0, 3)
    with pytest.raises(ConfigurationError):
        predicted_exponent(cov, 1.5, 1)
    with pytest.raises(ConfigurationError):
        predicted_exponent(cov, 1.0, 1, "local")
    # the class checks are the covering model's
    with pytest.raises(ConfigurationError):
        CoveringModel(kind="entropy_decay", s=-1.0)
    with pytest.raises(ConfigurationError):
        CoveringModel(kind="euclidean_ball", d=0)
    with pytest.raises(ConfigurationError):
        CoveringModel(kind="unknown", d=2)
