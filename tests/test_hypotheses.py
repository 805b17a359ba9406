"""Tests for the parametric reconstruction families and their certificates."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from invlearn import (ElasticNetFamily, ElasticNetParams, FixedPointFamily,
                      FixedPointParams, ForwardOperator, GaussianSpec,
                      ParamClass, TikhonovFamily, TikhonovParams,
                      certify_stability, check_g_hypotheses,
                      reconstruct_elastic_net, reconstruct_fixed_point,
                      reconstruct_tikhonov)
from invlearn.errors import (ConfigurationError, ContractivityError,
                             ConvergenceError, DimensionMismatchError)
from invlearn import hypotheses
from invlearn.hypotheses import _stacked_dot
from invlearn.risk import _batch_losses, _Moments, _risk_and_grad_factory
from invlearn.stochastics import TrainingSet


def moment_gradient(fam, theta, X, Y):
    """``fam.risk_gradient`` of the empirical risk on (X, Y) at theta, or
    at each row of a theta stack."""
    moments = _Moments.of(np.asarray(X, float), np.asarray(Y, float))
    return fam.risk_gradient(theta, fam.affine_map(theta), moments.S,
                             moments.C)


# -- ParamClass ------------------------------------------------------------

def test_param_class_projection_idempotent():
    pc = ParamClass(kind="euclidean_ball", dim=3, radius=2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = rng.standard_normal(3) * 5
        p = pc.project(theta)
        assert pc.contains(p)
        assert np.allclose(pc.project(p), p)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_param_class_projection_nonexpansive(a, b):
    pc = ParamClass(kind="euclidean_ball", dim=2, radius=1.0)
    pa, pb = pc.project(np.array(a)), pc.project(np.array(b))
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(np.array(a) - np.array(b)) + 1e-12


def test_stacked_dot_rows_equal_one_d_dot_and_norm():
    # the form of every reduction over theta in ERM: each row is the 1-d
    # BLAS dot, and its root the 1-d norm, bit for bit
    rng = np.random.default_rng(2)
    for dim in range(1, 31):
        a, b = rng.standard_normal((2, 5, dim)) * rng.uniform(0.1, 10.0)
        dots, sq = _stacked_dot(a, b), _stacked_dot(a, a)
        for i in range(5):
            assert dots[i] == a[i] @ b[i]
            assert np.sqrt(sq[i]) == np.linalg.norm(a[i])


@pytest.mark.parametrize("kind", ["euclidean_ball", "sobolev_ball"])
def test_param_class_projects_a_stack_row_by_row(kind):
    pc = ParamClass(kind=kind, dim=5, radius=0.7,
                    smoothness=1.0 if kind == "sobolev_ball" else None)
    rng = np.random.default_rng(3)
    thetas = rng.standard_normal((6, 5)) * rng.choice([0.01, 1.0], (6, 1))
    projected = pc.project(thetas)
    for theta, row in zip(thetas, projected):
        np.testing.assert_array_equal(row, pc.project(theta))
    with pytest.raises(DimensionMismatchError):
        pc.project(thetas[:, :4])


def test_param_class_sobolev_membership():
    pc = ParamClass(kind="sobolev_ball", dim=4, radius=1.0, smoothness=2.0)
    # constraint is sum_k (k^s theta_k)^2 <= 1
    assert pc.contains([1.0, 0, 0, 0])
    assert not pc.contains([0, 0, 0, 1.0])  # 4^2 * 1 > 1
    p = pc.project(np.array([0.0, 0.0, 0.0, 1.0]))
    assert pc.contains(p)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       smoothness=st.sampled_from([0.4, 1.0, 2.0]),
       radius=st.sampled_from([0.1, 0.5, 2.0]),
       scale=st.sampled_from([1e-3, 0.3, 1.0, 10.0, 1e4]))
def test_sobolev_projection_is_the_nearest_point(seed, dim, smoothness,
                                                 radius, scale):
    # a row outside the ellipsoid {sum_k (k^s theta_k)^2 <= r^2} lands on
    # its boundary, inside as computed, at the point x with theta - x =
    # lam W^2 x, lam >= 0 (the optimality condition of the nearest
    # point); the map is idempotent and non-expansive
    pc = ParamClass(kind="sobolev_ball", dim=dim, radius=radius,
                    smoothness=smoothness)
    w2 = np.arange(1, dim + 1) ** (2 * smoothness)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, dim)) * scale
    pa, pb = pc.project(a), pc.project(b)
    for theta, x in ((a, pa), (b, pb)):
        assert pc.contains(x, tol=0.0)
        np.testing.assert_array_equal(pc.project(x), x)
        if np.sum(w2 * theta**2) > radius**2:
            assert np.sqrt(np.sum(w2 * x**2)) >= radius * (1 - 1e-12)
            lam = (theta - x) @ (w2 * x) / np.sum((w2 * x)**2)
            assert lam >= 0
            np.testing.assert_allclose(theta - x, lam * w2 * x, rtol=0,
                                       atol=1e-12 * np.linalg.norm(theta))
        else:
            np.testing.assert_array_equal(x, theta)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1 + 1e-9)


def test_param_class_singleton():
    pc = ParamClass(kind="euclidean_ball", dim=2, radius=0.0)
    assert np.allclose(pc.sample(np.random.default_rng(0)), 0.0)
    assert pc.contains([0.0, 0.0])


# -- Tikhonov --------------------------------------------------------------

def test_tikhonov_no_regularization():
    A = ForwardOperator.identity(3)
    noise = GaussianSpec.iso(3, 1.0)
    params = TikhonovParams(h=np.array([5.0, 5.0, 5.0]), B=np.zeros((3, 3)))
    y = np.array([1.0, -2.0, 0.5])
    assert np.allclose(reconstruct_tikhonov(params, A, noise, y), y, atol=1e-10)


def test_tikhonov_scalar_formula():
    A = ForwardOperator.identity(1)
    sigma2, b = 0.5, 1.5
    noise = GaussianSpec.iso(1, sigma2)
    params = TikhonovParams(h=np.zeros(1), B=np.array([[b]]))
    y = 2.0
    expected = (y / sigma2) / (1.0 / sigma2 + 2.0 * b**2)
    out = reconstruct_tikhonov(params, A, noise, np.array([y]))
    assert np.isclose(out[0], expected, atol=1e-12)


def test_tikhonov_penalty_dominated_limit():
    A = ForwardOperator.identity(1)
    noise = GaussianSpec.iso(1, 1.0)
    params = TikhonovParams(h=np.array([5.0]), B=np.array([[1e3]]))
    out = reconstruct_tikhonov(params, A, noise, np.array([0.3]))
    assert abs(out[0] - 5.0) <= 1e-4


def test_tikhonov_singular_normal_matrix():
    # rank-deficient A with B = 0: normal matrix singular
    A = ForwardOperator(n_x=2, n_y=2, singular_values=np.array([1.0]))
    noise = GaussianSpec.iso(2, 1.0)
    params = TikhonovParams(h=np.zeros(2), B=np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        reconstruct_tikhonov(params, A, noise, np.array([1.0, 1.0]))


def test_tikhonov_singular_noise_covariance_rejected():
    # the data term weighs residuals by Se^{-1}: a zero noise eigenvalue must
    # fail as a config error naming the key, not as a numpy LinAlgError
    A = ForwardOperator.identity(2)
    noise = GaussianSpec(mean=np.zeros(2),
                         covariance_eigenvalues=np.array([1.0, 0.0]))
    with pytest.raises(ConfigurationError,
                       match=r"problem\.noise\.cov_eigenvalues"):
        TikhonovFamily(A, noise, structure="scale")
    params = TikhonovParams(h=np.zeros(2), B=np.eye(2))
    with pytest.raises(ConfigurationError,
                       match=r"problem\.noise\.cov_eigenvalues"):
        reconstruct_tikhonov(params, A, noise, np.ones(2))


def test_tikhonov_family_batch_matches_single():
    rng = np.random.default_rng(1)
    A = ForwardOperator.from_matrix(rng.standard_normal((3, 3)))
    noise = GaussianSpec.iso(3, 0.5)
    fam = TikhonovFamily(A, noise, structure="full")
    theta = rng.standard_normal(fam.dim) * 0.3
    Y = rng.standard_normal((5, 3))
    batch = fam.reconstruct_batch(theta, Y)
    params = fam.unpack(theta)
    for j in range(5):
        single = reconstruct_tikhonov(params, A, noise, Y[j])
        assert np.allclose(batch[j], single, atol=1e-10)


def test_tikhonov_risk_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    A = ForwardOperator.identity(2)
    noise = GaussianSpec.iso(2, 1.0)
    for structure in ("scale", "diagonal", "full"):
        fam = TikhonovFamily(A, noise, structure=structure)
        theta = rng.standard_normal(fam.dim) * 0.4
        X = rng.standard_normal((20, 2))
        Y = rng.standard_normal((20, 2))

        def risk(t):
            R = fam.reconstruct_batch(t, Y)
            return 0.5 * np.mean(np.sum((R - X) ** 2, axis=1))

        g = moment_gradient(fam, theta, X, Y)
        fd = np.empty_like(g)
        eps = 1e-6
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = eps
            fd[i] = (risk(theta + e) - risk(theta - e)) / (2 * eps)
        assert np.allclose(g, fd, atol=1e-6), structure


# -- affine families: R_theta(y) = G y + c ---------------------------------

AFFINE_SHAPES = [(3, 3), (2, 3), (3, 2)]  # (n_y, n_x) of the operator


def _affine_case(seed, kind, structure, shape, k):
    """A random affine family on a ``from_matrix`` operator, its theta, a
    data batch, and the per-row normal equations M x = P y + s."""
    rng = np.random.default_rng(seed)
    n_y, n_x = shape
    A = ForwardOperator.from_matrix(rng.standard_normal(shape))
    if kind == "tikhonov":
        noise = GaussianSpec(mean=np.zeros(n_y),
                             covariance_eigenvalues=rng.uniform(0.2, 2.0, n_y))
        fam = TikhonovFamily(A, noise, structure=structure)
    else:
        fam = ElasticNetFamily(A, alpha=1.0, eta=0.5, structure=structure)
    theta = rng.standard_normal(fam.dim) * 0.7
    Y = rng.standard_normal((k, n_y)) * rng.choice([0.1, 1.0, 5.0],
                                                   size=(k, 1))
    h, B = fam._h_B(theta)
    Am = A.as_matrix()
    if kind == "tikhonov":
        P = Am.T @ np.linalg.inv(noise.covariance_matrix())
        M, s = P @ Am + 2.0 * B.T @ B, 2.0 * B.T @ B @ h
    else:
        P = Am.T
        M = Am.T @ Am + 2.0 * B.T @ B + np.eye(n_x)
        s = 2.0 * B.T @ h
    return fam, theta, Y, M, P, s


@pytest.mark.parametrize("kind", ["tikhonov", "elastic_net"])
@pytest.mark.parametrize("structure", ["scale", "diagonal"])
def test_diagonal_map_reconstructs_as_the_matmul(kind, structure):
    # a diagonal A, noise law and B give a diagonal G, which is applied
    # entrywise: each reconstruction, stacked, one-theta or one-row, equals
    # (y, 1) V by the matmul bit for bit
    op = ForwardOperator.power_decay(3, 1.0)
    fam = (TikhonovFamily(op, GaussianSpec.iso(3, 0.1), structure)
           if kind == "tikhonov" else
           ElasticNetFamily(op, alpha=1.0, eta=0.5, structure=structure))
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((1000, 3))
    thetas = rng.standard_normal((3, fam.dim)) * 0.7
    V = fam.affine_map(thetas)
    G = V[:, :-1]
    assert np.array_equal(G, G * np.eye(3)) and np.all(np.diagonal(
        G, axis1=1, axis2=2) != 0)
    R = fam.reconstruct_batch(thetas, Y)
    for i, theta in enumerate(thetas):
        np.testing.assert_array_equal(R[i], Y @ V[i, :-1] + V[i, -1])
        np.testing.assert_array_equal(fam.reconstruct_batch(theta, Y), R[i])
        np.testing.assert_array_equal(fam.reconstruct_batch(theta, Y[7]),
                                      R[i, 7])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["tikhonov", "elastic_net"]),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       shape=st.sampled_from(AFFINE_SHAPES), k=st.integers(1, 6))
def test_affine_batch_matches_per_row_reference(seed, kind, structure, shape,
                                                k):
    # the batch X = Y G^T + c against the per-row references: the Tikhonov
    # normal-equation solve of one row, and the Elastic-Net first-order
    # solver at tol 1e-12; each row also solves its own normal equations
    fam, theta, Y, M, P, s = _affine_case(seed, kind, structure, shape, k)
    assume(np.linalg.cond(M) <= 1e4)  # the tolerances below assume it
    batch = fam.reconstruct_batch(theta, Y)
    assert batch.shape == Y.shape[:1] + (shape[1],)
    params = fam.unpack(theta)
    for j in range(k):
        if kind == "tikhonov":
            ref = reconstruct_tikhonov(params, fam.op, fam.noise, Y[j])
            tol = 1e-10 * (1.0 + np.linalg.norm(ref))
        else:
            # the reference stops at gradient norm 1e-12 with curvature >= 1
            ref = reconstruct_elastic_net(params, fam.op, Y[j], tol=1e-12)
            tol = 1e-12 + 1e-10 * (1.0 + np.linalg.norm(ref))
        assert np.linalg.norm(batch[j] - ref) <= tol
        rhs = P @ Y[j] + s
        assert np.max(np.abs(M @ batch[j] - rhs)) \
            <= 1e-8 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("kind", ["tikhonov", "elastic_net"])
def test_affine_map_checks_its_solve(monkeypatch, kind):
    # the one solve of affine_map keeps its residual check, for one theta
    # and for every row of a stack: only the last slice's solve is perturbed
    fam, theta, Y, *_ = _affine_case(3, kind, "full", (3, 3), 4)
    solve = np.linalg.solve

    def perturbed_solve(M, rhs):
        X = solve(M, rhs)
        X[-1] *= 1.0 + 1e-6
        return X

    monkeypatch.setattr(np.linalg, "solve", perturbed_solve)
    for thetas in (theta, np.stack([0.5 * theta, theta])):
        with pytest.raises(ConvergenceError, match="residual"):
            fam.reconstruct_batch(thetas, Y)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["tikhonov", "elastic_net"]),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       shape=st.sampled_from(AFFINE_SHAPES), k=st.integers(1, 4))
def test_stacked_affine_calls_equal_one_theta_calls(seed, kind, structure,
                                                    shape, k):
    # each row of a (k, dim) stack of thetas gets the affine map,
    # reconstructions and moment-form risk gradient of its 1-d call, bit
    # for bit; a stack with a singular row raises as that row does alone
    fam, _, Y, *_ = _affine_case(seed, kind, structure, shape, 5)
    rng = np.random.default_rng(seed)
    thetas = rng.standard_normal((k, fam.dim)) * 0.7
    X = rng.standard_normal((5, shape[1]))
    try:
        maps = [fam.affine_map(t) for t in thetas]
    except ConfigurationError:
        with pytest.raises(ConfigurationError, match="singular"):
            fam.affine_map(thetas)
        return
    V = fam.affine_map(thetas)
    R = fam.reconstruct_batch(thetas, Y)
    assert V.shape == (k, shape[0] + 1, shape[1])
    assert R.shape == (k, 5, shape[1])
    for i, theta in enumerate(thetas):
        np.testing.assert_array_equal(V[i], maps[i])
        np.testing.assert_array_equal(R[i], fam.reconstruct_batch(theta, Y))
        # R_theta(y) = (y, 1) V
        np.testing.assert_array_equal(R[i], Y @ V[i, :-1] + V[i, -1])
    g = moment_gradient(fam, thetas, X, Y)
    for i, theta in enumerate(thetas):
        np.testing.assert_array_equal(g[i], moment_gradient(fam, theta, X, Y))


def _parent_h_B(structure, n, theta):
    """(h, B) by the per-structure construction that ``slots`` replaced."""
    stack = theta.shape[:-1]
    if structure == "scale":
        return np.zeros(stack + (n,)), theta[..., :1, None] * np.eye(n)
    if structure == "diagonal":
        B = np.zeros(stack + (n, n))
        B[..., range(n), range(n)] = theta[..., n:]
        return theta[..., :n], B
    return theta[..., :n], theta[..., n:].reshape(stack + (n, n))


def _parent_risk_gradient(fam, structure, theta, X, R):
    """The per-sample Tikhonov risk gradient, given the reconstructions R
    of theta, with the trace, diagonal and concatenate chain rule that
    ``slots`` replaced: a second reference of the moment-form gradient."""
    n = fam.op.n_x
    h, B = _parent_h_B(structure, n, theta)
    BtB = np.swapaxes(B, -1, -2) @ B
    U = np.swapaxes(np.linalg.solve(fam._K + 2.0 * BtB,
                                    np.swapaxes(R - X, -1, -2)), -1, -2)
    m = R.shape[-2]
    grad_h = 2.0 * (BtB @ U.mean(axis=-2)[..., None])[..., 0]
    HmR = h[..., None, :] - R
    grad_B = 2.0 / m * ((B @ np.swapaxes(HmR, -1, -2)) @ U
                        + (B @ np.swapaxes(U, -1, -2)) @ HmR)
    if structure == "scale":
        return np.trace(grad_B, axis1=-2, axis2=-1)[..., None]
    if structure == "diagonal":
        return np.concatenate(
            [grad_h, np.diagonal(grad_B, axis1=-2, axis2=-1)], axis=-1)
    return np.concatenate(
        [grad_h, grad_B.reshape(grad_h.shape[:-1] + (-1,))], axis=-1)


def _parent_layout(structure, n, flat):
    """The theta gradient of a structure from the (h, vec B) gradient
    ``flat``, by the trace, diagonal and concatenate layout that ``slots``
    replaced."""
    grad_h, grad_B = flat[..., :n], flat[..., n:].reshape(
        flat.shape[:-1] + (n, n))
    if structure == "scale":
        return np.trace(grad_B, axis1=-2, axis2=-1)[..., None]
    if structure == "diagonal":
        return np.concatenate(
            [grad_h, np.diagonal(grad_B, axis1=-2, axis2=-1)], axis=-1)
    return flat


def _slots_case(seed, structure, n_x, n_y, k, m=5):
    """A Tikhonov family, a theta (k = 0) or (k, dim) stack and random X
    and Y for a risk gradient, and that gradient by the parent layout: the
    (h, vec B) gradient of the ``full`` family at the same (h, B)."""
    rng = np.random.default_rng(seed)
    A = ForwardOperator.from_matrix(rng.standard_normal((n_y, n_x)))
    fam = TikhonovFamily(A, GaussianSpec.iso(n_y, 0.5), structure=structure)
    theta = rng.standard_normal((k, fam.dim) if k else fam.dim)
    X = rng.standard_normal((m, n_x))
    Y = rng.standard_normal((m, n_y))
    full = TikhonovFamily(A, fam.noise, structure="full")
    h, B = fam._h_B(theta)
    flat = moment_gradient(
        full, np.concatenate([h, B.reshape(h.shape[:-1] + (-1,))], axis=-1),
        X, Y)
    return fam, theta, X, Y, _parent_layout(structure, n_x, flat)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       n_x=st.integers(1, 4), n_y=st.integers(1, 4), k=st.integers(0, 4))
def test_slots_table_equals_per_structure_layout(seed, structure, n_x, n_y,
                                                 k):
    # the one theta layout gives the (h, B) and the risk gradient of the
    # per-structure branches it replaced, entry for entry (only the sign
    # of an exact zero may differ: b I carries -0.0 off the diagonal for
    # b < 0)
    fam, theta, X, Y, ref = _slots_case(seed, structure, n_x, n_y, k)
    h, B = fam._h_B(theta)
    h_ref, B_ref = _parent_h_B(structure, n_x, theta)
    np.testing.assert_array_equal(h, h_ref)
    np.testing.assert_array_equal(B, B_ref)
    np.testing.assert_array_equal(moment_gradient(fam, theta, X, Y), ref)


@pytest.mark.parametrize("n_x", [5, 7, 8, 16, 32, 64])
def test_scale_gradient_sum_against_trace(n_x):
    # the scale gradient sums the diagonal of grad_B as a gathered copy,
    # where np.trace summed it in place: the same up to n_x = 7, and from
    # n_x = 8 apart by the summation order only (at most 8.2e-16 relative
    # over 600 random gradients at each n_x = 8, 16, 32, 64)
    fam, theta, X, Y, ref = _slots_case(21, "scale", n_x, n_x, 3, m=20)
    g = moment_gradient(fam, theta, X, Y)
    if n_x <= 7:
        np.testing.assert_array_equal(g, ref)
    else:
        np.testing.assert_allclose(g, ref, rtol=2e-15, atol=0)


# the moment path against the per-sample reference: over 400 random cases
# of this test's law the risk and its change agreed to 3.9e-16 (1 + L) and
# the gradient with the per-sample chain rule to 7.3e-15 (1 + max |g|);
# over 1 200 cases (4 810 rows) the gradient agreed with the Richardson
# difference at step 1e-5 to 1.1e-6 (1 + L), and with central differences
# at step 1e-6 only to 1.1e-5 (1 + L)
MOMENT_RISK_TOL = 1e-14
PARENT_GRADIENT_TOL = 1e-13
FD_GRADIENT_TOL = 2e-6


def richardson_difference(f, theta, e, h=1e-5):
    """Derivative of f at theta along e, (4 D(h/2) - D(h)) / 3 with D the
    central difference at step h: this cancels D's h^2 error term, which
    the third derivative of a near-singular normal matrix makes large.
    The step balances the h^4 term left against the rounding error of f
    over h, which an ill-conditioned solve makes large."""
    def central(step):
        return (f(theta + step * e) - f(theta - step * e)) / (2 * step)
    return (4 * central(h / 2) - central(h)) / 3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["scale", "diagonal", "full", "elastic_net"]),
       shape=st.sampled_from([(1, 1)] + AFFINE_SHAPES),
       n_trials=st.integers(1, 3), n_starts=st.integers(1, 3))
# a near-singular normal matrix: L = 986 and a gradient entry of 7.15e5,
# where the central difference at step 1e-6 is 0.106 off it
@example(seed=37770, kind="diagonal", shape=(1, 1), n_trials=2, n_starts=3)
def test_moment_path_matches_per_sample_reference(seed, kind, shape,
                                                  n_trials, n_starts):
    # every row of an ERM stack -- one theta, the starts of one trial, or
    # those of several trials, row i reading trial i // n_starts -- gets
    # the per-sample risk, risk change and gradient on its own trial's
    # data, within the tolerances above; Tikhonov's gradient also matches
    # the per-sample chain rule
    rng = np.random.default_rng(seed)
    n_y, n_x = shape
    A = ForwardOperator.from_matrix(rng.standard_normal(shape))
    if kind == "elastic_net":
        fam = ElasticNetFamily(A, alpha=1.0, eta=0.5, structure="diagonal")
    else:
        noise = GaussianSpec(mean=np.zeros(n_y),
                             covariance_eigenvalues=rng.uniform(0.2, 2.0, n_y))
        fam = TikhonovFamily(A, noise, structure=kind)
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0)
    X = rng.standard_normal((n_trials, 7, n_x))
    Y = rng.standard_normal((n_trials, 7, n_y))
    k = n_trials * n_starts
    thetas = np.array([pc.sample(rng) for _ in range(k)])
    thetas_c = pc.project(thetas + 1e-3 * rng.standard_normal(thetas.shape))
    sets = [TrainingSet(x, y, 0) for x, y in zip(X, Y)]
    risk, grad, change = _risk_and_grad_factory(fam, pc, sets, n_starts)
    rows = np.arange(k)
    try:
        (f, V), (f_c, V_c) = risk(thetas, rows), risk(thetas_c, rows)
    except ConfigurationError:  # a singular M: the per-sample path raises too
        with pytest.raises(ConfigurationError, match="singular"):
            fam.reconstruct_batch(np.concatenate([thetas, thetas_c]), Y[0])
        return
    g, d = grad(thetas, V, rows), change(V_c, V, rows)

    def per_sample(theta, t):
        return _batch_losses(fam, theta, X[t], Y[t]).mean()

    for i, (theta, theta_c) in enumerate(zip(thetas, thetas_c)):
        t = i // n_starts
        ref, ref_c = per_sample(theta, t), per_sample(theta_c, t)
        tol = MOMENT_RISK_TOL * (1 + ref)
        assert abs(f[i] - ref) <= tol
        assert abs(d[i] - (ref_c - ref)) <= tol
        assert abs(d[i] - (f_c[i] - f[i])) <= tol
        fd = np.array([richardson_difference(lambda th: per_sample(th, t),
                                             theta, e)
                       for e in np.eye(fam.dim)])
        assert np.max(np.abs(g[i] - fd)) <= FD_GRADIENT_TOL * (1 + ref)
        if kind != "elastic_net":
            parent = _parent_risk_gradient(
                fam, kind, theta, X[t], fam.reconstruct_batch(theta, Y[t]))
            assert np.max(np.abs(g[i] - parent)) \
                <= PARENT_GRADIENT_TOL * (1 + np.max(np.abs(parent)))


def test_spd_cond_matches_numpy_cond():
    # the eigenvalue condition number of random SPD stacks is numpy's
    # SVD-based one within 1e-6 relative, for condition numbers up to 1e8
    # (beyond, both lose digits of the smallest eigenvalue: eps cond)
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5):
        Q = np.linalg.qr(rng.standard_normal((40, n, n)))[0]
        ev = 10.0 ** rng.uniform(-8, 0, (40, n))
        M = (Q * ev[:, None, :]) @ np.swapaxes(Q, -1, -2)
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        np.testing.assert_allclose(hypotheses._spd_cond(M),
                                   np.linalg.cond(M), rtol=1e-6)
        np.testing.assert_allclose(hypotheses._spd_cond(M[0]),
                                   np.linalg.cond(M[0]), rtol=1e-6)


@pytest.mark.parametrize("M", [np.zeros((2, 2)), np.ones((2, 2)),
                               np.diag([1.0, 1e-14]), np.diag([1.0, -1e-3])])
def test_solve_normal_rejects_a_singular_matrix(M):
    with pytest.raises(ConfigurationError,
                       match=r"singular normal matrix \(cond=.*\); the "
                             "penalty does not control ker A"):
        hypotheses._solve_normal(M, np.ones((1, 2)))
    with pytest.raises(ConfigurationError, match="singular normal matrix"):
        hypotheses._solve_normal(np.stack([np.eye(2), M]), np.ones((2, 1, 2)))


def test_stacked_theta_with_one_singular_row_raises():
    # B = 0 leaves ker A uncontrolled: the stack fails although its first
    # row solves alone
    rank_one = ForwardOperator(n_x=2, n_y=2, singular_values=np.array([1.0]))
    fam = TikhonovFamily(rank_one, GaussianSpec.iso(2, 1.0), "diagonal")
    good = np.array([0.0, 0.0, 1.0, 1.0])
    fam.reconstruct_batch(good, np.ones((3, 2)))
    with pytest.raises(ConfigurationError, match="singular normal matrix"):
        fam.reconstruct_batch(np.stack([good, np.zeros(4)]), np.ones((3, 2)))


@pytest.mark.parametrize("kind", ["elastic_net", "fixed_point"])
def test_stacked_iterative_reconstruction_is_one_theta_at_a_time(kind):
    A = ForwardOperator.power_decay(2, 1.0)
    fam = ElasticNetFamily(A, alpha=0.5, eta=0.5, structure="diagonal") \
        if kind == "elastic_net" else FixedPointFamily(A, 0.5)
    rng = np.random.default_rng(8)
    thetas = rng.standard_normal((3, fam.dim)) * 0.5
    Y = rng.standard_normal((4, 2))
    R = fam.reconstruct_batch(thetas, Y)
    assert R.shape == (3, 4, 2)
    for theta, R_row in zip(thetas, R):
        np.testing.assert_array_equal(R_row, fam.reconstruct_batch(theta, Y))
    # a family solves at its solver's default tolerance
    solver, tol = ((reconstruct_elastic_net, 1e-8) if kind == "elastic_net"
                   else (reconstruct_fixed_point, 1e-10))
    np.testing.assert_array_equal(R, solver(fam.unpack(thetas), A, Y, tol=tol))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["elastic_net", "fixed_point"]),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       n_x=st.integers(1, 4), n_y=st.integers(1, 4), k=st.integers(1, 4),
       m=st.integers(1, 6), max_iter=st.sampled_from([5, 40, 400]),
       clipped=st.booleans())
def test_stacked_iterative_solves_equal_one_theta_solves(
        seed, kind, structure, n_x, n_y, k, m, max_iter, clipped):
    # every slice of a theta stack is its one-theta solve bit for bit, and
    # the stack raises exactly when a slice raises alone.  The zero theta
    # leads each stack: it stops in fewer iterations than the others.
    # Capped iterations make ConvergenceError; an unclipped W beyond a
    # small budget makes ContractivityError.
    rng = np.random.default_rng(seed)
    A = ForwardOperator.from_matrix(rng.standard_normal((n_y, n_x)))
    if kind == "elastic_net":
        fam = ElasticNetFamily(A, alpha=0.5, eta=0.5, structure=structure)
        solver, tol = reconstruct_elastic_net, 1e-8
    else:
        fam = FixedPointFamily(A, 0.5 if clipped else 0.05)
        solver, tol = reconstruct_fixed_point, 1e-10
    thetas = rng.standard_normal((k, fam.dim)) * rng.choice([0.3, 1.0])
    thetas[0] = 0.0
    Y = rng.standard_normal((m, n_y))

    def solve(theta):
        return solver(fam.unpack(theta), A, Y, tol=tol, max_iter=max_iter)

    with pytest.MonkeyPatch.context() as mp:
        if not clipped:
            mp.setattr(hypotheses, "_spectral_clip", lambda W, limit: W)
        alone = []
        for theta in thetas:
            try:
                alone.append(solve(theta))
            except (ConvergenceError, ContractivityError) as exc:
                alone.append(type(exc))
        errors = {a for a in alone if isinstance(a, type)}
        if errors:
            with pytest.raises(tuple(errors)) as raised:
                solve(thetas)
            if raised.type is ConvergenceError:
                assert str(raised.value) in (
                    "elastic-net solver did not reach tolerance",
                    "fixed-point iteration did not converge")
            return
        stack = solve(thetas)
        assert stack.shape == (k, m, n_x)
        for i in range(k):
            np.testing.assert_array_equal(stack[i], alone[i])


def test_stacked_solve_stops_each_theta_on_its_own_rule(monkeypatch):
    # the zero theta converges in two Picard steps, the other in many: the
    # stack runs the second alone once the first has left, and the first
    # is its one-theta solve although the second is still moving
    A = ForwardOperator.identity(1)
    fam = FixedPointFamily(A, 0.9)
    thetas = np.array([[0.0, 0.0], [0.9, 0.3]])
    Y = np.array([[0.0], [-1.0]])
    iterations = []
    tanh = np.tanh

    def counting_tanh(x):
        iterations.append(x.shape[0])
        return tanh(x)

    def solve(theta):
        return reconstruct_fixed_point(fam.unpack(theta), A, Y, tol=1e-12)

    monkeypatch.setattr(hypotheses.np, "tanh", counting_tanh)
    stack = solve(thetas)
    assert iterations[:2] == [2, 2] and iterations[2:] == \
        [1] * (len(iterations) - 2) and len(iterations) > 10
    monkeypatch.setattr(hypotheses.np, "tanh", tanh)
    for theta, R in zip(thetas, stack):
        np.testing.assert_array_equal(R, solve(theta))


@pytest.mark.parametrize("m", [100_000, 30_000])
def test_stacked_fixed_point_splits_at_the_row_limit(monkeypatch, m):
    # 8 thetas on m rows: each solve holds at most STACK_ROWS (theta, row)
    # pairs, or one theta, and the joined groups are the one-theta solves
    A = ForwardOperator.power_decay(2, 1.0)
    fam = FixedPointFamily(A, 0.5)
    rng = np.random.default_rng(9)
    thetas = rng.standard_normal((8, fam.dim)) * 0.5
    Y = rng.standard_normal((m, 2))
    calls = []
    solve = hypotheses.reconstruct_fixed_point

    def counting_solve(params, *args, **kwargs):
        calls.append(params.b.shape[:-1])
        return solve(params, *args, **kwargs)

    monkeypatch.setattr(hypotheses, "reconstruct_fixed_point", counting_solve)
    stack = fam.reconstruct_batch(thetas, Y)
    size = max(1, hypotheses.STACK_ROWS // m)
    assert calls == [(min(size, 8 - i),) for i in range(0, 8, size)]
    calls.clear()
    for theta, R in zip(thetas, stack):
        np.testing.assert_array_equal(R, fam.reconstruct_batch(theta, Y))
    assert calls == [()] * 8


@pytest.mark.parametrize("kind", ["scale", "diagonal", "full",
                                  "elastic_net_1", "elastic_net_0.5",
                                  "fixed_point"])
def test_reconstruct_batch_rejects_per_theta_batches(kind):
    # the data are one row or one (m, n_y) batch shared by every theta of a
    # stack: a (k, m, n_y) batch, one per theta, is rejected by every
    # family and by both iterative solvers
    rng = np.random.default_rng(10)
    A = ForwardOperator.from_matrix(rng.standard_normal((3, 2)))
    if kind == "fixed_point":
        fam = FixedPointFamily(A, 0.5)
    elif kind.startswith("elastic_net"):
        fam = ElasticNetFamily(A, alpha=float(kind.rsplit("_", 1)[1]),
                               eta=0.5, structure="diagonal")
    else:
        fam = TikhonovFamily(A, GaussianSpec.iso(3, 0.5), structure=kind)
    k, m = 5, 4
    thetas = rng.standard_normal((k, fam.dim)) * 0.5
    Y = rng.standard_normal((k, m, 3))
    assert fam.reconstruct_batch(thetas, Y[0]).shape == (k, m, 2)
    # one row shared by the stack gives one reconstruction per theta
    assert fam.reconstruct_batch(thetas, Y[0, 0]).shape == (k, 2)
    with pytest.raises(DimensionMismatchError):
        fam.reconstruct_batch(thetas, Y)
    solver = {"fixed_point": reconstruct_fixed_point,
              "elastic_net_0.5": reconstruct_elastic_net}.get(kind)
    if solver is not None:
        with pytest.raises(DimensionMismatchError):
            solver(fam.unpack(thetas), A, Y)


@pytest.mark.parametrize("solver", ["tikhonov", "tikhonov_family",
                                    "elastic_net", "fixed_point"])
def test_solvers_share_one_output_batch_check(solver):
    # the per-row Tikhonov reference, the affine batch and both iterative
    # solvers take one row or an (m, n_y) batch: a 3-d batch and a wrong
    # trailing length raise the same DimensionMismatchError
    A = ForwardOperator.from_matrix(
        np.random.default_rng(11).standard_normal((3, 2)))
    noise = GaussianSpec.iso(3, 0.5)
    # h away from the solutions, off the alpha < 1 penalty's kink B x = h
    B, h = np.eye(2), np.array([3.0, -3.0])
    reconstruct = {
        "tikhonov": lambda y: reconstruct_tikhonov(
            TikhonovParams(h=h, B=B), A, noise, y),
        "tikhonov_family": lambda y: TikhonovFamily(
            A, noise, "diagonal").reconstruct_batch(np.r_[h, 1.0, 1.0], y),
        "elastic_net": lambda y: reconstruct_elastic_net(
            ElasticNetParams(h=h, B=B, alpha=0.5, eta=0.5), A, y),
        "fixed_point": lambda y: reconstruct_fixed_point(
            FixedPointParams(W=0.1 * B, b=h, contraction_budget=0.5), A, y),
    }[solver]
    assert reconstruct(np.ones((4, 3))).shape == (4, 2)
    assert reconstruct(np.ones(3)).shape == (2,)
    for y in (np.ones((2, 4, 3)), np.ones((4, 2)), np.ones(2)):
        with pytest.raises(DimensionMismatchError,
                           match="one row or an .m, n_y. batch of outputs"):
            reconstruct(y)


def test_theta_groups_at_bench_and_proxy_sizes():
    # the finite-difference stack of 2 starts x 6 coordinates x 2 signs on
    # 8 rows is one group; at proxy_m 409 600 every theta is alone
    assert len(hypotheses.theta_groups(24, 8)) == 1
    assert hypotheses.theta_groups(3, 409_600) == [slice(0, 1), slice(1, 2),
                                                    slice(2, 3)]


def test_tikhonov_family_rejects_singular_normal_matrix():
    rank_one = ForwardOperator(n_x=2, n_y=2, singular_values=np.array([1.0]))
    fam = TikhonovFamily(rank_one, GaussianSpec.iso(2, 1.0), "diagonal")
    with pytest.raises(ConfigurationError, match="singular normal matrix"):
        fam.reconstruct_batch(np.zeros(4), np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        fam.reconstruct_batch(np.zeros(4), np.ones((3, 3)))


def test_affine_map_only_for_alpha_one():
    fam = ElasticNetFamily(ForwardOperator.identity(2), alpha=0.5,
                           structure="scale")
    with pytest.raises(ConfigurationError, match="alpha = 1"):
        fam.affine_map(np.array([0.3]))


# -- Elastic-Net -----------------------------------------------------------

def test_elastic_net_no_penalty():
    A = ForwardOperator.identity(2)
    params = ElasticNetParams(h=np.zeros(2), B=np.zeros((2, 2)),
                              alpha=1.0, eta=0.5)
    y = np.array([2.0, -4.0])
    out = reconstruct_elastic_net(params, A, y, tol=1e-10)
    assert np.allclose(out, y / 2.0, atol=1e-8)


def test_elastic_net_quadratic_closed_form():
    A = ForwardOperator.identity(2)
    params = ElasticNetParams(h=np.zeros(2), B=np.eye(2), alpha=1.0, eta=0.5)
    y = np.array([1.0, 3.0])
    out = reconstruct_elastic_net(params, A, y, tol=1e-10)
    assert np.allclose(out, y / 4.0, atol=1e-8)


def test_elastic_net_iterative_vs_closed_form_conditioning():
    # distance to closed form bounded by tol times the conditioning
    A = ForwardOperator.identity(3)
    params = ElasticNetParams(h=np.zeros(3), B=np.eye(3), alpha=1.0, eta=0.5)
    rng = np.random.default_rng(3)
    tol = 1e-9
    kappa = 1.0  # Hessian = 4 I for this instance
    for _ in range(10):
        y = rng.standard_normal(3)
        out = reconstruct_elastic_net(params, A, y, tol=tol)
        assert np.linalg.norm(out - y / 4.0) <= tol * kappa


def test_elastic_net_minimality_probe():
    rng = np.random.default_rng(4)
    A = ForwardOperator.diagonal([1.0, 0.5])
    params = ElasticNetParams(h=np.array([0.2, -0.1]),
                              B=rng.standard_normal((2, 2)) * 0.5,
                              alpha=1.0, eta=0.5)
    y = rng.standard_normal(2)
    x = reconstruct_elastic_net(params, A, y, tol=1e-10)
    Am = A.as_matrix()

    def objective(v):
        r = Am @ v - y
        return (0.5 * r @ r + np.linalg.norm(params.B @ v - params.h) ** 2
                + params.eta * v @ v)

    f0 = objective(x)
    for _ in range(100):
        assert f0 <= objective(x + rng.standard_normal(2) * 0.1) + 1e-12


def test_elastic_net_holder_alpha_below_one_runs():
    A = ForwardOperator.identity(2)
    params = ElasticNetParams(h=np.zeros(2), B=np.eye(2), alpha=0.6, eta=0.5)
    y = np.array([1.0, -1.0])
    x = reconstruct_elastic_net(params, A, y, tol=1e-6)
    assert np.all(np.isfinite(x))
    # strong convexity keeps the minimizer inside the data ball
    assert np.linalg.norm(x) <= np.linalg.norm(y)


def test_elastic_net_unpack_rejects_wrong_length():
    fam = ElasticNetFamily(ForwardOperator.identity(2), structure="diagonal")
    with pytest.raises(DimensionMismatchError):
        fam.unpack(np.zeros(fam.dim + 1))
    with pytest.raises(DimensionMismatchError):
        fam.unpack(np.zeros(fam.dim - 1))


@pytest.mark.parametrize("alpha", [1.0, 0.5])
@pytest.mark.parametrize("structure", ["scale", "diagonal", "full"])
def test_elastic_net_family_batch_matches_reference(structure, alpha):
    # alpha = 1 solves the linear optimality system, the reference iterates
    # to tol 1e-12; for alpha < 1 the reference solver's batch rows equal
    # its one-row solves
    rng = np.random.default_rng(13)
    A = ForwardOperator.from_matrix(rng.standard_normal((3, 3)))
    fam = ElasticNetFamily(A, alpha=alpha, eta=0.5, structure=structure)
    theta = rng.standard_normal(fam.dim) * 0.4
    Y = rng.standard_normal((4, 3))
    if alpha == 1.0:
        batch = fam.reconstruct_batch(theta, Y)
    else:
        batch = reconstruct_elastic_net(fam.unpack(theta), A, Y, tol=1e-12)
    for j in range(4):
        ref = reconstruct_elastic_net(fam.unpack(theta), A, Y[j], tol=1e-12)
        if alpha == 1.0:
            assert np.allclose(batch[j], ref, rtol=0, atol=1e-9)
        else:
            assert np.array_equal(batch[j], ref)


def _elastic_net_gradient(params, A, x, y):
    """Gradient of the smoothed Elastic-Net objective, one row at a time."""
    from invlearn.hypotheses import HOLDER_SMOOTHING
    Am = A.as_matrix()
    v = params.B @ x - params.h
    s2 = v @ v + HOLDER_SMOOTHING**2
    return (Am.T @ (Am @ x - y) + 2.0 * params.eta * x
            + 2.0 * params.alpha * s2 ** (params.alpha - 1.0)
            * (params.B.T @ v))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       k=st.integers(1, 6))
def test_elastic_net_batch_rows_equal_one_row_solves(seed, structure, k):
    # every row keeps its own step, momentum and stop: a batch row is its
    # one-row solve bit for bit, whatever the other rows are
    rng = np.random.default_rng(seed)
    A = ForwardOperator.from_matrix(rng.standard_normal((3, 3)))
    fam = ElasticNetFamily(A, alpha=0.5, eta=0.5, structure=structure)
    theta = rng.standard_normal(fam.dim) * 0.5
    Y = rng.standard_normal((k, 3)) * rng.choice([0.1, 1.0, 5.0], size=(k, 1))
    p, tol, max_iter = fam.unpack(theta), 1e-9, 2_000
    try:
        batch = reconstruct_elastic_net(p, A, Y, tol=tol, max_iter=max_iter)
    except ConvergenceError:
        # a batch fails exactly when one of its rows fails on its own (rows
        # whose minimizer sits at the kink B x = h converge slowly)
        with pytest.raises(ConvergenceError):
            for y in Y:
                reconstruct_elastic_net(p, A, y, tol=tol, max_iter=max_iter)
        return
    assert batch.shape == (k, 3)
    for j in range(k):
        single = reconstruct_elastic_net(p, A, Y[j], tol=tol,
                                         max_iter=max_iter)
        assert np.array_equal(batch[j], single)
        g = _elastic_net_gradient(p, A, batch[j], Y[j])
        assert np.linalg.norm(g) <= tol + 1e-12


def test_elastic_net_batch_raises_when_a_row_misses_tolerance():
    A = ForwardOperator.from_matrix(np.array([[1.0, 0.3], [0.0, 0.5]]))
    params = ElasticNetParams(h=np.array([0.2, -0.1]), B=np.eye(2),
                              alpha=0.5, eta=0.5)
    Y = np.array([[1.0, -2.0], [0.5, 0.5], [3.0, 1.0]])
    with pytest.raises(ConvergenceError) as exc:
        reconstruct_elastic_net(params, A, Y, tol=1e-10, max_iter=3)
    assert exc.value.residual > 1e-10
    assert exc.value.iterations == 3


def test_elastic_net_family_rejects_invalid_penalty():
    A = ForwardOperator.identity(2)
    with pytest.raises(ConfigurationError, match="alpha"):
        ElasticNetFamily(A, alpha=1.5)
    with pytest.raises(ConfigurationError, match="alpha"):
        ElasticNetFamily(A, alpha=0.0)
    with pytest.raises(ConfigurationError, match="eta"):
        ElasticNetFamily(A, eta=0.0)


def test_elastic_net_family_rejects_singular_normal_matrix():
    # alpha = 1 shares the Tikhonov solve and its conditioning check
    fam = ElasticNetFamily(ForwardOperator.identity(2), alpha=1.0, eta=0.5,
                           structure="diagonal")
    with pytest.raises(ConfigurationError, match="singular normal matrix"):
        fam.reconstruct_batch(np.array([0.0, 0.0, 1e8, 0.0]), np.ones((1, 2)))


def test_elastic_net_param_validation():
    with pytest.raises(ConfigurationError):
        ElasticNetParams(h=np.zeros(1), B=np.eye(1), alpha=1.5, eta=0.5)
    with pytest.raises(ConfigurationError):
        ElasticNetParams(h=np.zeros(1), B=np.eye(1), alpha=1.0, eta=0.0)


# -- fixed point -----------------------------------------------------------

def test_fixed_point_zero_nonlinearity():
    # W = 0, b = 0: p = tanh(0) + A*y = A*y after one step
    A = ForwardOperator.diagonal([1.0, 0.5])
    params = FixedPointParams(W=np.zeros((2, 2)), b=np.zeros(2),
                              contraction_budget=0.5)
    y = np.array([2.0, 2.0])
    out = reconstruct_fixed_point(params, A, y, tol=1e-12)
    assert np.allclose(out, A.adjoint_apply(y), atol=1e-10)


def test_fixed_point_scalar_root():
    # scalar map p = tanh(0.5 p) + 1 against an independent root finder
    A = ForwardOperator.identity(1)
    params = FixedPointParams(W=np.array([[0.5]]), b=np.zeros(1),
                              contraction_budget=0.5)
    out = reconstruct_fixed_point(params, A, np.array([1.0]), tol=1e-12)
    root = brentq(lambda z: z - np.tanh(0.5 * z) - 1.0, 0.0, 3.0, xtol=1e-14)
    assert abs(out[0] - root) <= 1e-10


def test_fixed_point_posteriori_gap():
    # the returned point is a fixed point of the clipped map up to tol
    from invlearn.hypotheses import _spectral_clip
    A = ForwardOperator.identity(2)
    rng = np.random.default_rng(5)
    W = rng.standard_normal((2, 2))
    params = FixedPointParams(W=W, b=rng.standard_normal(2) * 0.2,
                              contraction_budget=0.3)
    y = rng.standard_normal(2)
    out = reconstruct_fixed_point(params, A, y, tol=1e-12)
    W_eff = _spectral_clip(W, 0.3)
    gap = np.linalg.norm(np.tanh(W_eff @ out + params.b)
                         + A.adjoint_apply(y) - out)
    assert gap <= 1e-12


def test_fixed_point_budget_validation():
    with pytest.raises(ConfigurationError):
        FixedPointParams(W=np.zeros((1, 1)), b=np.zeros(1),
                         contraction_budget=1.2)


def test_fixed_point_contractivity_error_on_bad_certificate(monkeypatch):
    # disable the spectral clip so the certified budget is genuinely violated
    import invlearn.hypotheses as hyp
    monkeypatch.setattr(hyp, "_spectral_clip", lambda W, limit: W)
    A = ForwardOperator.identity(1)
    params = FixedPointParams(W=np.array([[0.9]]), b=np.zeros(1),
                              contraction_budget=0.05)
    with pytest.raises(ContractivityError):
        hyp.reconstruct_fixed_point(params, A, np.array([5.0]), tol=1e-12)


def test_fixed_point_family_batch_matches_single():
    A = ForwardOperator.identity(2)
    fam = FixedPointFamily(A, contraction_budget=0.5)
    rng = np.random.default_rng(6)
    theta = rng.standard_normal(fam.dim) * 0.4
    Y = rng.standard_normal((4, 2))
    params = fam.unpack(theta)
    batch = reconstruct_fixed_point(params, A, Y, tol=1e-12)
    for j in range(4):
        assert np.allclose(batch[j],
                           reconstruct_fixed_point(params, A, Y[j], tol=1e-12),
                           atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       budget=st.sampled_from([0.3, 0.5, 0.9]))
def test_fixed_point_batch_rows_are_fixed_points(seed, k, budget):
    from invlearn.hypotheses import _spectral_clip
    rng = np.random.default_rng(seed)
    A = ForwardOperator.from_matrix(rng.standard_normal((2, 2)))
    fam = FixedPointFamily(A, contraction_budget=budget)
    theta = rng.standard_normal(fam.dim)
    Y = rng.standard_normal((k, 2))
    tol = 1e-10
    p = fam.unpack(theta)
    batch = reconstruct_fixed_point(p, A, Y, tol=tol)
    W_eff = _spectral_clip(p.W, budget)
    for j in range(k):
        gap = np.linalg.norm(np.tanh(W_eff @ batch[j] + p.b)
                             + A.adjoint_apply(Y[j]) - batch[j])
        assert gap <= tol
        single = reconstruct_fixed_point(p, A, Y[j], tol=tol)
        assert np.linalg.norm(batch[j] - single) <= 2 * tol


def test_fixed_point_batch_with_converged_rows_does_not_raise():
    # the y = 0 row converges early and then moves at float resolution
    # while the slow row finishes; its step ratios are noise, not a
    # violated contraction
    A = ForwardOperator.identity(1)
    params = FixedPointParams(W=np.array([[0.9]]), b=np.array([0.3]),
                              contraction_budget=0.9)
    Y = np.array([[0.0], [-1.0]])
    out = reconstruct_fixed_point(params, A, Y, tol=1e-12)
    for j in range(2):
        gap = abs(np.tanh(0.9 * out[j, 0] + 0.3) + Y[j, 0] - out[j, 0])
        assert gap <= 1e-12


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_fixed_point_rate_at_budget_converges(tol):
    # p = tanh(-p/2 + 1) + 2 has its fixed point at p = 2, where the local
    # contraction rate is exactly the budget 0.5; near the stopping step the
    # observed step ratio exceeds 0.5 only by rounding of |p| = 2
    A = ForwardOperator.identity(1)
    params = FixedPointParams(W=np.array([[-0.5]]), b=np.array([1.0]),
                              contraction_budget=0.5)
    p = reconstruct_fixed_point(params, A, np.array([2.0]), tol=tol)
    assert abs(p[0] - 2.0) <= tol


def test_fixed_point_batch_contractivity_error_from_one_row(monkeypatch):
    # only the y = 5 row violates the budget; the y = 0 row sits at its
    # fixed point from the first step
    import invlearn.hypotheses as hyp
    monkeypatch.setattr(hyp, "_spectral_clip", lambda W, limit: W)
    A = ForwardOperator.identity(1)
    params = FixedPointParams(W=np.array([[0.9]]), b=np.zeros(1),
                              contraction_budget=0.05)
    with pytest.raises(ContractivityError):
        hyp.reconstruct_fixed_point(params, A, np.array([[0.0], [5.0]]),
                                    tol=1e-12)
    fam = FixedPointFamily(A, contraction_budget=0.05)
    with pytest.raises(ContractivityError):
        fam.reconstruct_batch(np.array([0.9, 0.0]), np.array([[0.0], [5.0]]))


def test_fixed_point_lipschitz_transfer_probes():
    A = ForwardOperator.identity(2)
    fam = FixedPointFamily(A, contraction_budget=0.5)
    rng = np.random.default_rng(7)
    tol = 1e-11
    ys = [rng.standard_normal(2) for _ in range(5)]
    L_theta = fam.lipschitz_theta_bound(ys)
    L_transfer = L_theta / (1 - fam.L_z)
    for _ in range(50):
        t1 = rng.standard_normal(fam.dim) * 0.5
        t2 = t1 + rng.standard_normal(fam.dim) * 0.1
        for y in ys:
            p1 = reconstruct_fixed_point(fam.unpack(t1), A, y, tol=tol)
            p2 = reconstruct_fixed_point(fam.unpack(t2), A, y, tol=tol)
            lhs = np.linalg.norm(p1 - p2)
            assert lhs <= L_transfer * fam.metric(t1, t2) + 2 * tol


# -- certificates ----------------------------------------------------------

def test_certify_stability_tikhonov_alpha_one():
    A = ForwardOperator.identity(2)
    noise = GaussianSpec.iso(2, 1.0)
    fam = TikhonovFamily(A, noise, structure="scale")
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    rng = np.random.default_rng(8)
    ys = [rng.standard_normal(2) for _ in range(6)]
    pairs = [(pc.sample(rng), pc.sample(rng)) for _ in range(6)]
    cert = certify_stability(fam, pc, ys, pairs)
    assert cert.alpha == 1.0
    assert np.isfinite([cert.L_R, cert.Lp_R, cert.M_R, cert.Mp_R]).all()
    assert cert.r0 == pc.diameter
    # envelope actually dominates every probe ratio
    for theta, theta2 in pairs:
        d = fam.metric(theta, theta2)
        if d == 0:
            continue
        for y in ys:
            r1 = fam.reconstruct(theta, y)
            r2 = fam.reconstruct(theta2, y)
            lhs = np.linalg.norm(r1 - r2) / d
            assert lhs <= cert.L_R * np.linalg.norm(y) + cert.Lp_R + 1e-8


def test_certify_stability_fixed_point_analytic_bound():
    class TightFixedPoint(FixedPointFamily):
        def reconstruct_batch(self, theta, Y):
            return reconstruct_fixed_point(self.unpack(theta), self.op, Y,
                                           tol=1e-11)

    A = ForwardOperator.identity(2)
    fam = TightFixedPoint(A, contraction_budget=0.5)
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0)
    rng = np.random.default_rng(9)
    ys = [rng.standard_normal(2) for _ in range(5)]
    pairs = [(pc.sample(rng), pc.sample(rng)) for _ in range(8)]
    cert = certify_stability(fam, pc, ys, pairs)
    analytic = fam.lipschitz_theta_bound(ys) / (1 - fam.L_z)
    # empirical Lipschitz constant never exceeds the analytic transfer bound
    worst_norm = max(np.linalg.norm(y) for y in ys)
    assert cert.L_R * worst_norm + cert.Lp_R <= analytic * (1 + 0.05)


def test_certify_stability_holder_elastic_net():
    # alpha = 0.5: the certificate solves at the family tolerance, and its
    # Holder envelope dominates every probe ratio
    A = ForwardOperator.power_decay(2, 1.0)
    fam = ElasticNetFamily(A, alpha=0.5, eta=0.5, structure="diagonal")
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0)
    rng = np.random.default_rng(12)
    ys = [rng.standard_normal(2) for _ in range(5)]
    pairs = [(pc.sample(rng), pc.sample(rng)) for _ in range(6)]
    cert = certify_stability(fam, pc, ys, pairs)
    assert cert.alpha == 0.5
    assert np.isfinite([cert.L_R, cert.Lp_R, cert.M_R, cert.Mp_R]).all()
    for theta, theta2 in pairs:
        d = fam.metric(theta, theta2) ** fam.alpha
        for y in ys:
            lhs = np.linalg.norm(fam.reconstruct(theta, y)
                                 - fam.reconstruct(theta2, y)) / d
            assert lhs <= cert.L_R * np.linalg.norm(y) + cert.Lp_R + 1e-8


def test_certify_stability_constant_family():
    class ZeroFamily:
        kind = "constant_zero"
        alpha = 1.0

        def metric(self, a, b):
            return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))

        def reconstruct_batch(self, theta, Y):
            return np.zeros((len(Y), 2))

    pc = ParamClass(kind="euclidean_ball", dim=2, radius=1.0)
    rng = np.random.default_rng(10)
    ys = [rng.standard_normal(2) for _ in range(4)]
    pairs = [(pc.sample(rng), pc.sample(rng)) for _ in range(4)]
    cert = certify_stability(ZeroFamily(), pc, ys, pairs)
    assert cert.L_R == 0 and cert.Lp_R == 0
    assert cert.M_R == 0 and cert.Mp_R == 0


def test_certify_stability_elastic_net_energy_bound():
    A = ForwardOperator.identity(2)
    fam = ElasticNetFamily(A, alpha=1.0, eta=0.5, structure="diagonal")
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=0.5)
    rng = np.random.default_rng(11)
    ys = [rng.standard_normal(2) for _ in range(4)]
    pairs = [(pc.sample(rng), pc.sample(rng)) for _ in range(4)]
    cert = certify_stability(fam, pc, ys, pairs)
    assert cert.extras["energy_bound_slack"] >= 0


def test_certify_stability_zero_energy_slack_is_kept():
    # x = y on the first probe makes the slack ||y||^2/(2 eta) - ||x||^2
    # exactly 0; later probes have positive slack, and the minimum is 0
    class StubEnergyFamily:
        kind = "elastic_net"
        alpha = 1.0
        eta = 0.5

        def metric(self, a, b):
            return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))

        def unpack(self, theta):
            return ElasticNetParams(h=np.zeros(2), B=np.eye(2), alpha=1.0,
                                    eta=0.5)

        def reconstruct_batch(self, theta, Y):
            Y = np.asarray(Y, float)
            return np.where(Y[:, :1] > 0, Y, 0.5 * Y)

    ys = [np.array([1.0, 2.0]), np.array([-1.0, 0.5]),
          np.array([-2.0, 1.0])]
    pairs = [(np.array([0.1, 0.0]), np.array([0.0, 0.2]))]
    pc = ParamClass(kind="euclidean_ball", dim=2, radius=1.0)
    cert = certify_stability(StubEnergyFamily(), pc, ys, pairs)
    assert cert.extras["energy_bound_slack"] == 0.0


def test_certify_stability_empty_probes_rejected():
    A = ForwardOperator.identity(1)
    fam = TikhonovFamily(A, GaussianSpec.iso(1, 1.0), structure="scale")
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    with pytest.raises(ConfigurationError):
        certify_stability(fam, pc, [], [])


def envelope_reference(y_norms, values):
    """The envelope linear program solved by scipy's HiGHS."""
    from scipy.optimize import linprog
    y_norms = np.asarray(y_norms, dtype=float)
    res = linprog(c=[1.0, 1.0],
                  A_ub=np.column_stack([-y_norms, -np.ones_like(y_norms)]),
                  b_ub=-np.asarray(values, dtype=float),
                  bounds=[(0, None), (0, None)], method="highs")
    assert res.success
    return res.x


def test_affine_envelope_matches_highs():
    # random probe sets, all-equal norms (below and above 1, where the
    # optimum puts everything on b or on a), zero norms and single probes;
    # the fit must hold on every probe as computed, with no slack
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(200):
        n = int(rng.integers(2, 65))
        y = rng.uniform(0.0, 3.0, n) * rng.choice([0.01, 1.0, 100.0])
        v = rng.normal(0.0, 1.0, n) + rng.uniform(0.0, 2.0) * y
        cases.append((y, v))
    for norm in (0.5, 2.0):
        cases.append((np.full(12, norm), rng.uniform(-1.0, 3.0, 12)))
    y = rng.uniform(0.0, 3.0, 20)
    y[:3] = 0.0
    cases += [(y, rng.normal(1.0, 1.0, 20)), (np.array([0.7]), [2.0]),
              (np.array([1.5]), [2.0]), (np.array([0.0]), [-1.0])]
    for y, v in cases:
        a, b = hypotheses._fit_affine_envelope(y, v)
        assert a >= 0 and b >= 0
        assert np.all(a * y + b >= v)
        a_ref, b_ref = envelope_reference(y, v)
        tol = 1e-9 * (a_ref + b_ref)
        assert abs(a - a_ref) <= tol and abs(b - b_ref) <= tol, (y, v)


def test_affine_envelope_rejects_non_finite_probes():
    with pytest.raises(ConvergenceError):
        hypotheses._fit_affine_envelope([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(ConvergenceError):
        hypotheses._fit_affine_envelope([1.0, 2.0], [1.0, np.inf])


# -- penalty hypotheses ----------------------------------------------------

def test_g_hypotheses_identity_penalty():
    ys = [np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0])]
    rep = check_g_hypotheses(np.eye(2), np.zeros(2), 1.0, ys)
    assert rep.M_g == 0.0
    assert rep.convex_midpoint_ok


def test_g_hypotheses_offset_bound():
    h = np.array([2.0, 0.0])
    rep = check_g_hypotheses(np.eye(2), h, 1.0, [np.array([1.0, 1.0])])
    assert rep.M_g == pytest.approx(4.0)


def test_g_hypotheses_holder_constant_stable_under_refinement():
    rng = np.random.default_rng(12)
    ys = [v / np.linalg.norm(v) for v in rng.standard_normal((8, 2))]
    B, h = np.eye(2), np.zeros(2)

    def pairs(n, seed):
        r = np.random.default_rng(seed)
        return [(h + r.standard_normal(2) * 0.1,
                 B + r.standard_normal((2, 2)) * 0.1) for _ in range(n)]

    c_small = check_g_hypotheses(B, h, 1.0, ys,
                                 probe_pairs=pairs(64, 1)).holder_constant
    c_big = check_g_hypotheses(B, h, 1.0, ys,
                               probe_pairs=pairs(128, 1) + pairs(128, 2)
                               ).holder_constant
    assert np.isfinite(c_small) and c_small > 0
    assert abs(c_big - c_small) <= 0.10 * c_big


def test_g_hypotheses_alpha_below_one_skips_convexity():
    rep = check_g_hypotheses(np.eye(2), np.zeros(2), 0.5,
                             [np.array([1.0, 0.5])])
    assert not rep.convexity_checked
    assert rep.convex_midpoint_ok is None


# -- tolerance monotonicity ------------------------------------------------

def test_halving_tol_never_increases_residual():
    A = ForwardOperator.identity(2)
    params = ElasticNetParams(h=np.array([0.3, 0.0]), B=np.eye(2),
                              alpha=1.0, eta=0.5)
    y = np.array([1.0, -0.5])
    Am = A.as_matrix()

    def residual(x):
        return np.linalg.norm(Am.T @ (Am @ x - y)
                              + 2 * params.B.T @ (params.B @ x - params.h)
                              + 2 * params.eta * x)

    res = [residual(reconstruct_elastic_net(params, A, y, tol=t))
           for t in (1e-4, 5e-5, 2.5e-5, 1.25e-5)]
    assert all(b <= a + 1e-15 for a, b in zip(res, res[1:]))
