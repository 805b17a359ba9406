"""Tests for forward operators and the Gaussian conditional-mean oracle."""

import numpy as np
import pytest

from invlearn import (ExperimentConfig, ForwardOperator, GaussianSpec,
                      mmse_affine)
from invlearn.errors import ConfigurationError, DimensionMismatchError
from invlearn.experiment import override

from configs import CRITERION_2


def random_orthonormal(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


# -- apply -----------------------------------------------------------------

def test_apply_diagonal():
    A = ForwardOperator.diagonal([1.0, 0.5])
    assert np.allclose(A.apply([1.0, 1.0]), [1.0, 0.5])


def test_apply_identity():
    A = ForwardOperator.identity(3)
    assert np.allclose(A.apply([2.0, -1.0, 0.0]), [2.0, -1.0, 0.0])


def test_apply_power_decay_spectral():
    # sigma_k = k^{-1}, x = third right singular vector -> (1/3) * u_3
    n = 4
    U = random_orthonormal(n, n, 1)
    V = random_orthonormal(n, n, 2)
    s = np.array([1.0, 1 / 2, 1 / 3, 1 / 4])
    A = ForwardOperator(n_x=n, n_y=n, singular_values=s,
                        left_basis=U, right_basis=V)
    out = A.apply(V[:, 2])
    assert np.allclose(out, U[:, 2] / 3.0, atol=1e-10)
    assert np.isclose(np.linalg.norm(out), 1 / 3)


def test_apply_dimension_mismatch():
    A = ForwardOperator.identity(3)
    with pytest.raises(DimensionMismatchError):
        A.apply([1.0, 2.0])


# -- adjoint ---------------------------------------------------------------

def test_adjoint_diagonal():
    A = ForwardOperator.diagonal([1.0, 0.5])
    assert np.allclose(A.adjoint_apply([2.0, 2.0]), [2.0, 1.0])


def test_adjoint_identity():
    A = ForwardOperator.identity(4)
    y = np.array([0.3, -1.0, 2.0, 0.0])
    assert np.allclose(A.adjoint_apply(y), y)


def test_adjoint_inner_product_probe():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((5, 3))
    A = ForwardOperator.from_matrix(M)
    for _ in range(20):
        x = rng.standard_normal(3)
        y = rng.standard_normal(5)
        lhs = np.dot(A.apply(x), y)
        rhs = np.dot(x, A.adjoint_apply(y))
        assert abs(lhs - rhs) <= 1e-10


# -- mmse ------------------------------------------------------------------

def test_mmse_scalar():
    A = ForwardOperator.identity(1)
    est = mmse_affine(A, GaussianSpec.iso(1, 1.0), GaussianSpec.iso(1, 1.0))
    assert np.isclose(est.weight[0, 0], 0.5)
    assert np.isclose(est(np.array([2.0]))[0], 1.0)
    assert np.isclose(est.irreducible_error, 0.25)


def test_mmse_noiseless_limit():
    A = ForwardOperator.diagonal([1.0, 0.5])
    est = mmse_affine(A, GaussianSpec.iso(2, 1.0), GaussianSpec.iso(2, 1e-10))
    A_inv = np.diag([1.0, 2.0])
    assert np.allclose(est.weight, A_inv, atol=1e-6)
    assert est.irreducible_error < 1e-8


def test_mmse_wiener_weights_and_mc_regression():
    # per-mode Wiener weight lambda sigma_k / (lambda sigma_k^2 + sigma_eps^2)
    A = ForwardOperator.diagonal([1.0, 0.5])
    prior = GaussianSpec.iso(2, 1.0)
    noise = GaussianSpec.iso(2, 0.1)
    est = mmse_affine(A, prior, noise)
    expected = np.diag([1.0 / (1.0 + 0.1), 0.5 / (0.25 + 0.1)])
    assert np.allclose(est.weight, expected, atol=1e-12)

    # brute-force Monte Carlo regression of x on y, per mode
    rng = np.random.default_rng(7)
    n = 10**6
    x = prior.sample(rng, n)
    y = A.apply(x) + noise.sample(rng, n)
    for k in range(2):
        w_mc = np.dot(x[:, k], y[:, k]) / np.dot(y[:, k], y[:, k])
        # SE of the regression slope ~ resid std / (||y|| at scale sqrt(n))
        resid = x[:, k] - w_mc * y[:, k]
        se = resid.std() / (y[:, k].std() * np.sqrt(n))
        assert abs(w_mc - expected[k, k]) <= 3 * se


def test_mmse_singular_innovation_rejected():
    A = ForwardOperator.identity(1)
    prior = GaussianSpec(mean=[0.0], covariance_eigenvalues=[0.0])
    noise = GaussianSpec(mean=[0.0], covariance_eigenvalues=[0.0])
    with pytest.raises(ConfigurationError):
        mmse_affine(A, prior, noise)


@pytest.mark.parametrize("build, error, match", [
    pytest.param(
        lambda: ForwardOperator(n_x=2, n_y=2, singular_values=[1.0],
                                left_basis=np.eye(2)),
        ConfigurationError, r"left basis must have shape \(2, 1\)",
        id="basis shape"),
    pytest.param(
        lambda: GaussianSpec(mean=[0.0, 0.0], covariance_eigenvalues=[1.0]),
        ConfigurationError, "lengths differ", id="spec lengths"),
    pytest.param(
        lambda: GaussianSpec(mean=[0.0, 0.0],
                             covariance_eigenvalues=[1.0, 1.0],
                             covariance_basis=np.eye(3)),
        ConfigurationError, "basis shape mismatch", id="spec basis shape"),
    pytest.param(
        lambda: mmse_affine(ForwardOperator.identity(2),
                            GaussianSpec.iso(3, 1.0),
                            GaussianSpec.iso(2, 1.0)),
        DimensionMismatchError, "dimensions do not match",
        id="mmse dimensions"),
])
def test_constructor_checks(build, error, match):
    with pytest.raises(error, match=match):
        build()


# -- invariants ------------------------------------------------------------

def test_apply_linearity():
    rng = np.random.default_rng(11)
    A = ForwardOperator.from_matrix(rng.standard_normal((4, 3)))
    x, z = rng.standard_normal(3), rng.standard_normal(3)
    a, b = 2.5, -0.7
    assert np.allclose(A.apply(a * x + b * z),
                       a * A.apply(x) + b * A.apply(z), atol=1e-10)


def test_irreducible_error_monotone_in_noise():
    A = ForwardOperator.diagonal([1.0, 0.5, 0.25])
    prior = GaussianSpec.iso(3, 1.0)
    losses = [mmse_affine(A, prior, GaussianSpec.iso(3, v)).irreducible_error
              for v in (1.0, 0.5, 0.1, 0.01, 0.001)]
    assert all(l >= 0 for l in losses)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_apply_adjoint_squared_singular_values():
    # A* A acts as diag(sigma^2) on the right basis
    n = 4
    V = random_orthonormal(n, n, 5)
    U = random_orthonormal(n, n, 6)
    s = np.array([2.0, 1.0, 0.5, 0.25])
    A = ForwardOperator(n_x=n, n_y=n, singular_values=s,
                        left_basis=U, right_basis=V)
    for k in range(n):
        out = A.adjoint_apply(A.apply(V[:, k]))
        assert np.allclose(out, s[k] ** 2 * V[:, k], atol=1e-10)


# -- construction and serialization ---------------------------------------

def test_singular_values_must_decrease():
    with pytest.raises(ConfigurationError):
        ForwardOperator.diagonal([0.5, 1.0])
    with pytest.raises(ConfigurationError):
        ForwardOperator.diagonal([1.0, 0.0])


def test_from_dict_dense_basis():
    rng = np.random.default_rng(13)
    A = ForwardOperator.from_matrix(rng.standard_normal((5, 3)))
    forward = {"n_x": 3, "n_y": 5,
               "singular_values": A.singular_values.tolist(),
               "basis": {"left": A.left_basis.tolist(),
                         "right": A.right_basis.tolist()}}
    B = ExperimentConfig.from_dict(override(CRITERION_2, {
        "problem": {
            "forward": forward,
            "prior": {"mean": [0.0] * 3, "cov_eigenvalues": [1.0] * 3},
            "noise": {"cov_eigenvalues": [1.0] * 5}},
        "m_grid": [16], "trials_per_m": 1, "proxy_m": 1600,
        "n_mc": 100})).problem.forward
    x = rng.standard_normal(3)
    assert np.allclose(A.apply(x), B.apply(x), atol=1e-12)


def test_gaussian_spec_trace_and_sampling():
    spec = GaussianSpec(mean=[1.0, -1.0], covariance_eigenvalues=[2.0, 0.5])
    assert np.trace(spec.covariance_matrix()) == 2.5
    rng = np.random.default_rng(17)
    draws = spec.sample(rng, 200_000)
    assert np.allclose(draws.mean(axis=0), [1.0, -1.0], atol=0.02)
    assert np.allclose(draws.var(axis=0), [2.0, 0.5], rtol=0.02)
