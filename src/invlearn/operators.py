"""Linear forward models stored via their singular systems.

A forward operator A maps R^{n_x} -> R^{n_y} and is represented as
U diag(sigma) V^T, so the ill-posedness level is a single knob (e.g.
sigma_k = k^{-p}).  The module also provides the Gaussian conditional-mean
(MMSE) estimator, which serves as the analytic oracle for every learned
reconstruction in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError


def _check_orthonormal(M: np.ndarray, name: str) -> None:
    G = M.T @ M
    if not np.allclose(G, np.eye(M.shape[1]), atol=1e-8):
        raise ConfigurationError(f"{name} columns are not orthonormal")


@dataclass(frozen=True)
class ForwardOperator:
    """Linear map A = U diag(sigma) V^T with sigma_1 >= ... > 0.

    ``left_basis`` (n_y x k) and ``right_basis`` (n_x x k) may be None,
    meaning the identity embedding (diagonal operator).
    """

    n_x: int
    n_y: int
    singular_values: np.ndarray
    left_basis: np.ndarray | None = None
    right_basis: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.singular_values, dtype=float)
        object.__setattr__(self, "singular_values", s)
        k = s.size
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigurationError("dimensions must be positive")
        if k > min(self.n_x, self.n_y):
            raise ConfigurationError("more singular values than min(n_x, n_y)")
        if np.any(s <= 0):
            raise ConfigurationError("singular values must be strictly positive")
        if np.any(np.diff(s) > 0):
            raise ConfigurationError("singular values must be non-increasing")
        for basis, n, name in ((self.left_basis, self.n_y, "left basis"),
                               (self.right_basis, self.n_x, "right basis")):
            if basis is not None:
                basis = np.asarray(basis, dtype=float)
                if basis.shape != (n, k):
                    raise ConfigurationError(f"{name} must have shape ({n}, {k})")
                _check_orthonormal(basis, name)
        if self.left_basis is not None:
            object.__setattr__(self, "left_basis", np.asarray(self.left_basis, float))
        if self.right_basis is not None:
            object.__setattr__(self, "right_basis", np.asarray(self.right_basis, float))

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(cls, singular_values) -> "ForwardOperator":
        s = np.asarray(singular_values, dtype=float)
        return cls(n_x=s.size, n_y=s.size, singular_values=s)

    @classmethod
    def identity(cls, n: int) -> "ForwardOperator":
        return cls.diagonal(np.ones(n))

    @classmethod
    def power_decay(cls, n: int, p: float) -> "ForwardOperator":
        """Diagonal operator with sigma_k = k^{-p}."""
        k = np.arange(1, n + 1, dtype=float)
        return cls.diagonal(k ** (-p))

    @classmethod
    def from_matrix(cls, M) -> "ForwardOperator":
        M = np.asarray(M, dtype=float)
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        keep = s > s[0] * 1e-14 if s.size else slice(0)
        return cls(n_x=M.shape[1], n_y=M.shape[0], singular_values=s[keep],
                   left_basis=U[:, keep], right_basis=Vt.T[:, keep])

    # -- core maps ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.singular_values.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x, evaluated through the stored singular system."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_x:
            raise DimensionMismatchError(
                f"expected input of length {self.n_x}, got {x.shape[-1]}")
        c = x if self.right_basis is None else x @ self.right_basis
        c = c[..., :self.rank] * self.singular_values
        if self.left_basis is None and self.rank == self.n_y:
            return c
        if self.left_basis is None:
            out = np.zeros(x.shape[:-1] + (self.n_y,))
            out[..., :self.rank] = c
            return out
        return c @ self.left_basis.T

    def adjoint_apply(self, y: np.ndarray) -> np.ndarray:
        """A* y; satisfies <Ax, y> = <x, A*y>."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.n_y:
            raise DimensionMismatchError(
                f"expected input of length {self.n_y}, got {y.shape[-1]}")
        c = y if self.left_basis is None else y @ self.left_basis
        c = c[..., :self.rank] * self.singular_values
        if self.right_basis is None:
            out = np.zeros(y.shape[:-1] + (self.n_x,))
            out[..., :self.rank] = c
            return out
        return c @ self.right_basis.T

    def as_matrix(self) -> np.ndarray:
        """Dense n_y x n_x representation (small problems only)."""
        U = self.left_basis if self.left_basis is not None else \
            np.eye(self.n_y, self.rank)
        V = self.right_basis if self.right_basis is not None else \
            np.eye(self.n_x, self.rank)
        return (U * self.singular_values) @ V.T


@dataclass(frozen=True)
class GaussianSpec:
    """Gaussian law with covariance basis diag(eigenvalues) basis^T.

    The eigenvalue sum plays the role of the trace (trace-class surrogate
    at finite dimension).
    """

    mean: np.ndarray
    covariance_eigenvalues: np.ndarray
    covariance_basis: np.ndarray | None = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        lam = np.atleast_1d(np.asarray(self.covariance_eigenvalues, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance_eigenvalues", lam)
        if lam.size != mean.size:
            raise ConfigurationError("mean and eigenvalue lengths differ")
        if np.any(lam < 0):
            raise ConfigurationError("covariance eigenvalues must be >= 0")
        if not np.isfinite(lam.sum()):
            raise ConfigurationError("covariance trace must be finite")
        if self.covariance_basis is not None:
            basis = np.asarray(self.covariance_basis, dtype=float)
            if basis.shape != (mean.size, mean.size):
                raise ConfigurationError("covariance basis shape mismatch")
            _check_orthonormal(basis, "covariance basis")
            object.__setattr__(self, "covariance_basis", basis)

    @classmethod
    def iso(cls, n: int, variance: float, mean=None) -> "GaussianSpec":
        mean = np.zeros(n) if mean is None else np.asarray(mean, float)
        return cls(mean=mean, covariance_eigenvalues=np.full(n, float(variance)))

    @property
    def dim(self) -> int:
        return self.mean.size

    def covariance_matrix(self) -> np.ndarray:
        lam = self.covariance_eigenvalues
        if self.covariance_basis is None:
            return np.diag(lam)
        return (self.covariance_basis * lam) @ self.covariance_basis.T

    @property
    def degenerate(self) -> bool:
        """Whether every eigenvalue is 0: a point mass at the mean."""
        return not np.any(self.covariance_eigenvalues)

    def fill(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Draw ``len(out)`` samples into the C-contiguous (rows, dim) array
        ``out`` and return it; the values of ``sample`` of that size."""
        rng.standard_normal(out=out)
        out *= np.sqrt(self.covariance_eigenvalues)
        if self.covariance_basis is not None:
            out[...] = out @ self.covariance_basis.T
        out += self.mean
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.fill(rng, np.empty((size, self.dim)))


@dataclass(frozen=True)
class AffineEstimator:
    """x_hat = W y + b, with its achieved expected quadratic loss."""

    weight: np.ndarray
    offset: np.ndarray
    irreducible_error: float

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, float) @ self.weight.T + self.offset


def mmse_affine(A: ForwardOperator, prior: GaussianSpec,
                noise: GaussianSpec) -> AffineEstimator:
    """Conditional mean of x given y for the jointly Gaussian linear model.

    Returns the map  y -> Sx A^T (A Sx A^T + Se)^{-1} (y - A mu_x) + mu_x
    together with its expected quadratic loss, which equals half the trace
    of the posterior covariance.
    """
    if prior.dim != A.n_x or noise.dim != A.n_y:
        raise DimensionMismatchError("prior/noise dimensions do not match operator")
    Am = A.as_matrix()
    Sx = prior.covariance_matrix()
    Se = noise.covariance_matrix()
    innovation = Am @ Sx @ Am.T + Se
    # reject singular innovation covariance
    cond = np.linalg.cond(innovation)
    if not np.isfinite(cond) or cond > 1e14:
        raise ConfigurationError(
            f"innovation covariance is numerically singular (cond={cond:.3g})")
    gain = Sx @ Am.T @ np.linalg.inv(innovation)
    # noise mean enters through E[y] = A mu_x + mu_eps
    offset = prior.mean - gain @ (Am @ prior.mean + noise.mean)
    posterior_cov = Sx - gain @ Am @ Sx
    irreducible = 0.5 * float(np.trace(posterior_cov))
    return AffineEstimator(weight=gain, offset=offset,
                           irreducible_error=irreducible)
