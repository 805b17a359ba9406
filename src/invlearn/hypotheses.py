"""Parametric reconstruction families with stability certificates.

Three families are implemented:

* generalized Tikhonov: closed-form minimizer of
  1/2 ||Ax-y||^2_{Se^{-1}} + ||B(x-h)||^2,
* Elastic-Net style: iterative minimizer of
  1/2 ||Ax-y||^2 + ||Bx-h||^{2 alpha} + eta ||x||^2,
* contractive fixed-point maps p = phi(p; y) with a certified contraction
  factor in the state variable.

Each family evaluates deterministically and exposes an empirical
stability/boundedness certificate computed on probe sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (ConfigurationError, ContractivityError, ConvergenceError,
                     DimensionMismatchError)
from .operators import ForwardOperator, GaussianSpec

HOLDER_SMOOTHING = 1e-8  # mu in (||Bx-h||^2 + mu^2)^alpha for alpha < 1


def _stacked_dot(a, b):
    """a . b of two vectors, or of each pair of rows of two stacks.

    One BLAS dot per row, so each row equals its 1-d ``a @ b`` bit for bit
    (and its square root ``np.linalg.norm``); ``einsum``, ``sum(axis=-1)``
    and ``norm(axis=-1)`` do not once the rows are longer than 1."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# Compact parameter classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamClass:
    """Compact parameter set: a closed ball, finite- or Sobolev-type.

    ``euclidean_ball`` is {theta in R^d : ||theta|| <= radius} with the
    Euclidean metric.  ``sobolev_ball`` is the finite truncation
    {theta in R^n : sum_k (k^s theta_k)^2 <= 1}, measured in the ambient
    (unweighted) norm.
    """

    kind: str  # "euclidean_ball" | "sobolev_ball"
    dim: int
    radius: float = 1.0
    smoothness: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean_ball", "sobolev_ball"):
            raise ConfigurationError(f"unknown class kind {self.kind!r}")
        if self.dim < 1 or self.radius < 0:
            raise ConfigurationError("dimension must be positive, radius >= 0")
        if self.kind == "sobolev_ball" and (self.smoothness is None
                                            or self.smoothness <= 0):
            raise ConfigurationError("sobolev_ball requires smoothness > 0")
        if self.kind == "euclidean_ball" and self.smoothness is not None:
            raise ConfigurationError("euclidean_ball takes no smoothness")

    @property
    def diameter(self) -> float:
        """Diameter in the class metric (kept >= 1 for the bound formulas)."""
        return max(1.0, 2.0 * self.radius)

    def _weights(self) -> np.ndarray:
        k = np.arange(1, self.dim + 1, dtype=float)
        return k ** self.smoothness

    def _constraint_norm(self, theta: np.ndarray):
        """The norm of theta, or of each row of a (k, dim) stack."""
        if self.kind == "sobolev_ball":
            theta = self._weights() * theta
        return np.sqrt(_stacked_dot(theta, theta))

    def contains(self, theta, tol: float = 1e-9) -> bool:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.dim:
            return False
        return bool(self._constraint_norm(theta) <= self.radius * (1 + tol))

    def project(self, theta) -> np.ndarray:
        """The nearest point of the class; idempotent and non-expansive.

        A (k, dim) stack is projected row by row, each row bit for bit its
        1-d call."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (self.dim,):
            raise DimensionMismatchError("parameter length != class dimension")
        norm = self._constraint_norm(theta)
        inside = norm <= self.radius
        if self.kind == "euclidean_ball" or self.radius == 0:
            scale = np.divide(self.radius, norm, out=np.ones_like(norm),
                              where=~inside)
            return theta * scale[..., None]
        out = theta.copy()
        out[~inside] = self._onto_ellipsoid(theta[~inside])
        return out

    def _onto_ellipsoid(self, theta):
        """x = theta / (1 + lam w^2), w_k = k^s, for each row of a (k, dim)
        stack outside the sobolev_ball, at the lam > 0 where ||w x|| =
        radius.  Newton steps on 1 / ||w x(lam)||, concave and increasing
        in lam, climb from lam = 0 towards that root without passing it
        until they fall below the resolution of x; then lam rises by
        doubling steps of that resolution until x is inside as computed."""
        w2 = self._weights() ** 2
        lam = np.zeros(len(theta))
        for _ in range(100):
            x = theta / (1.0 + lam[:, None] * w2)
            norm = self._constraint_norm(x)
            step = (norm / self.radius - 1.0) * norm**2 / _stacked_dot(
                w2 * x * x, w2 / (1.0 + lam[:, None] * w2))
            rung = np.finfo(float).eps * (lam + 1.0 / w2[-1])
            if not np.any(live := step > rung):
                break
            lam = np.where(live, lam + step, lam)
        while np.any(over := self._constraint_norm(x) > self.radius):
            lam, rung = lam + over * rung, np.where(over, 2.0 * rung, rung)
            x = theta / (1.0 + lam[:, None] * w2)
        return x

    @property
    def center(self) -> np.ndarray:
        return np.zeros(self.dim)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform-ish draw inside the class (for multi-start and probes)."""
        z = rng.standard_normal(self.dim)
        if self.kind == "sobolev_ball":
            z = z / self._weights()
        z = self.project(z * self.radius / max(np.linalg.norm(z), 1e-300))
        return z * rng.random() ** (1.0 / self.dim)


# ---------------------------------------------------------------------------
# Parameter containers and single-shot reconstruction operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TikhonovParams:
    h: np.ndarray
    B: np.ndarray  # (n_x, n_x)


@dataclass(frozen=True)
class ElasticNetParams:
    h: np.ndarray  # (..., n_x): one h, or one per theta of a stack
    B: np.ndarray  # (..., n_x, n_x)
    alpha: float
    eta: float

    def __post_init__(self):
        self.check_penalty(self.alpha, self.eta)

    @staticmethod
    def check_penalty(alpha: float, eta: float) -> None:
        if not (0 < alpha <= 1):
            raise ConfigurationError("alpha must lie in (0, 1]")
        if eta <= 0:
            raise ConfigurationError("eta must be positive")


@dataclass(frozen=True)
class FixedPointParams:
    W: np.ndarray  # (..., n_x, n_x), spectrally clipped to the budget on use
    b: np.ndarray  # (..., n_x): one (W, b), or one per theta of a stack
    contraction_budget: float

    def __post_init__(self):
        self.check_budget(self.contraction_budget)

    @staticmethod
    def check_budget(contraction_budget: float) -> None:
        if not (0 < contraction_budget < 1):
            raise ConfigurationError("contraction budget must lie in (0, 1)")


def _spectral_clip(W: np.ndarray, limit: float) -> np.ndarray:
    """Project onto {||W||_2 <= limit}; non-expansive in Frobenius norm.

    A (..., n, n) stack is clipped slice by slice."""
    over = ~(np.linalg.norm(W, 2, axis=(-2, -1)) <= limit)
    if not np.any(over):
        return W
    U, s, Vt = np.linalg.svd(W[over])
    W = W.copy()
    W[over] = (U * np.minimum(s, limit)[..., None, :]) @ Vt
    return W


def _outputs(y, A: ForwardOperator) -> np.ndarray:
    """y as floats, checked to be one output of A or an (m, n_y) batch of
    them: the data contract of every solver and ``reconstruct_batch``."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != A.n_y:
        raise DimensionMismatchError(
            "data must be one row or an (m, n_y) batch of outputs")
    return y


def reconstruct_tikhonov(params: TikhonovParams, A: ForwardOperator,
                         noise: GaussianSpec, y: np.ndarray) -> np.ndarray:
    """Unique minimizer (A* Se^{-1} A + 2 B*B)^{-1}(A* Se^{-1} y + 2 B*B h)."""
    P, K = _normal_constants(A, noise)
    y = _outputs(y, A)
    BtB = params.B.T @ params.B
    sol = _solve_normal(K + 2.0 * BtB,
                        np.atleast_2d(y) @ P.T + 2.0 * (BtB @ params.h))
    return sol[0] if y.ndim == 1 else sol


def _normal_constants(A: ForwardOperator, noise: GaussianSpec):
    """Theta-independent pieces of the normal equations: P = A* Se^{-1}
    and K = P A, so that M = K + 2 B*B and rhs = Y P^T + 2 B*B h."""
    if noise.dim != A.n_y:
        raise DimensionMismatchError("noise dimension != operator output dim")
    if np.any(noise.covariance_eigenvalues <= 0):
        raise ConfigurationError(
            "the Tikhonov data term needs an invertible noise covariance; "
            "problem.noise.cov_eigenvalues has a zero entry")
    Am = A.as_matrix()
    P = Am.T @ np.linalg.inv(noise.covariance_matrix())
    return P, P @ Am


def _solve_normal(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Rows X with X M^T = rhs for the normal matrix M of an affine family.

    M may be a (k, n, n) stack with rhs (k, r, n), one solve per slice.
    Rejects a numerically singular M and checks the residual of each solve.
    """
    cond = np.atleast_1d(_spd_cond(M))
    if np.any(singular := ~(cond <= 1e13)):  # inf and nan included
        raise ConfigurationError(
            f"singular normal matrix (cond={cond[singular][0]:.3g}); "
            "the penalty does not control ker A")
    X = np.swapaxes(np.linalg.solve(M, np.swapaxes(rhs, -1, -2)), -1, -2)
    resid = np.atleast_1d(np.max(np.abs(X @ np.swapaxes(M, -1, -2) - rhs),
                                 axis=(-2, -1), initial=0.0))
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=(-2, -1), initial=0.0))
    if np.any(bad := resid > 1e-8 * scale):
        raise ConvergenceError("normal equation residual too large",
                               residual=float(resid[bad][0]))
    return X


def _spd_cond(M):
    """2-norm condition number of a symmetric positive semi-definite M, or
    of each slice of a stack, from its eigenvalues: inf where the smallest
    is not positive."""
    ev = np.linalg.eigvalsh(M)
    low, high = ev[..., 0], ev[..., -1]
    return np.divide(high, low, out=np.full_like(low, np.inf), where=low > 0)


def _rows(M, X):
    """Rows M x_k for the rows x_k of X, with one M or one M_k per row
    (a (k, n, n) stack).  Unlike BLAS ``X @ M.T``, a row's result does not
    depend on the other rows of X, nor on whether M is shared."""
    return np.einsum("ij,kj->ki" if M.ndim == 2 else "kij,kj->ki", M, X)


def _row_dot(U, V):
    return np.einsum("ki,ki->k", U, V)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def reconstruct_elastic_net(params: ElasticNetParams, A: ForwardOperator,
                            y: np.ndarray, tol: float = 1e-8,
                            max_iter: int = 20_000) -> np.ndarray:
    """First-order minimizer of the strongly convex Elastic-Net objective.

    Accelerated gradient descent with backtracking and adaptive restart, run
    until the gradient norm (of the smoothed objective for alpha < 1) drops
    below ``tol``.  ``y`` may be a (m, n_y) batch, and ``params`` may hold
    a stack of (h, B) (h of shape (k, n_x)), which gives (k, m, n_x).
    Every (theta, row) pair is its own problem: it keeps its own step,
    momentum and restarts and is frozen once it reaches ``tol``, so it
    equals its one-row, one-theta solve bit for bit.  The solve raises
    ``ConvergenceError`` when any pair misses ``tol`` in ``max_iter``.
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    y = _outputs(y, A)
    Am = A.as_matrix()
    n = A.n_x
    alpha, eta = params.alpha, params.eta
    mu2 = HOLDER_SMOOTHING**2

    def f_grad(X, Y, B, h):
        """Objective and gradient at the rows of X."""
        R = _rows(Am, X) - Y
        V = _rows(B, X) - h
        s2 = _row_dot(V, V) + mu2
        f = (0.5 * _row_dot(R, R) + s2**alpha - mu2**alpha
             + eta * _row_dot(X, X))
        g_pen = ((2.0 * alpha * s2 ** (alpha - 1.0))[:, None]
                 * _rows(np.swapaxes(B, -1, -2), V))
        return f, _rows(Am.T, R) + g_pen + 2.0 * eta * X

    # one row per (theta, row) pair, theta-major; a single theta's (B, h)
    # serves all its rows
    B, h = params.B.reshape(-1, n, n), params.h.reshape(-1, n)
    Y = np.atleast_2d(y)
    k, m = len(B), Y.shape[-2]
    lip_A = np.linalg.norm(Am, 2) ** 2
    # scalar powers, as a one-theta solve takes them: an array power may
    # round differently
    lip = np.array([lip_A + 2 * norm_B ** 2 + 2 * eta
                    for norm_B in np.linalg.norm(B, 2, axis=(-2, -1))])
    step = np.repeat(1.0 / (lip + 1e-12), m)
    B, h = (B[0], h[0]) if k == 1 else (np.repeat(B, m, axis=0),
                                        np.repeat(h, m, axis=0))
    Y = np.broadcast_to(Y, (k, m, A.n_y)).reshape(k * m, A.n_y)

    def penalty_rows(sel):
        """(B, h) of the pairs ``sel``: the shared one, or their own."""
        return (B, h) if k == 1 else (B[sel], h[sel])

    out = np.empty((Y.shape[0], n))
    live = np.arange(Y.shape[0])  # rows of ``out`` still iterating
    x = z = np.zeros_like(out)
    t_mom = np.ones(live.size)
    for it in range(max_iter + 1):
        f_x, g = f_grad(x, Y, B, h)
        gnorm = np.sqrt(_row_dot(g, g))
        if np.any(done := gnorm <= tol):
            out[live[done]] = x[done]
            B, h = penalty_rows(~done)
            live, Y, x, z, t_mom, step, f_x = (
                a[~done] for a in (live, Y, x, z, t_mom, step, f_x))
        if not live.size:
            return out.reshape(params.h.shape[:-1] + y.shape[:-1] + (n,))
        if it == max_iter:
            raise ConvergenceError("elastic-net solver did not reach tolerance",
                                   residual=float(gnorm.max()),
                                   iterations=max_iter)
        f_z, g = f_grad(z, Y, B, h)
        gg = _row_dot(g, g)
        # backtracking from the momentum point; the relative slack keeps the
        # accept test meaningful once decreases fall below float resolution
        slack = 1e-12 * (np.abs(f_z) + 1.0)
        x_new = z - step[:, None] * g
        f_new = f_grad(x_new, Y, B, h)[0]
        while np.any(back := ~(f_new <= f_z - 0.5 * step * gg + slack)
                     & (step >= 1e-16)):
            step[back] *= 0.5
            x_new[back] = z[back] - step[back, None] * g[back]
            f_new[back] = f_grad(x_new[back], Y[back], *penalty_rows(back))[0]
        t_new = 0.5 * (1 + np.sqrt(1 + 4 * t_mom**2))
        restart = f_new > f_x + slack  # where acceleration overshoots
        z = np.where(restart[:, None], x,
                     x_new + ((t_mom - 1) / t_new)[:, None] * (x_new - x))
        x = np.where(restart[:, None], x, x_new)
        t_mom = np.where(restart, 1.0, t_new)


def reconstruct_fixed_point(params: FixedPointParams, A: ForwardOperator,
                            y: np.ndarray, tol: float = 1e-10,
                            max_iter: int = 100_000) -> np.ndarray:
    """Picard iteration for p = tanh(W_eff p + b) + A* y from p0 = 0.

    ``W_eff`` is W spectrally clipped to the contraction budget L_z, so the
    map is a certified contraction.  The rows of a (m, n_y) batch ``y``
    iterate until every row's step is at most ``tol (1 - L_z)``, which
    bounds each row's a posteriori fixed-point gap by ``tol``.  A row whose
    step grows past L_z times its previous one, by more than the rounding of
    its new iterate (``4 eps ||p||``), raises ``ContractivityError`` unless
    the previous step was below the stopping step (float-level motion).

    ``params`` may hold a stack of (W, b) (b of shape (k, n_x)), which
    gives (k, m, n_x).  Each theta's rows stop on their own rule and leave
    the stack, so each slice equals its one-theta solve bit for bit, and
    the stack raises when a slice would raise alone.
    """
    y = _outputs(y, A)
    L_z = params.contraction_budget
    n = A.n_x
    W_eff = _spectral_clip(params.W, L_z).reshape(-1, n, n)
    b = params.b.reshape(-1, 1, n)
    base = A.adjoint_apply(np.atleast_2d(y))  # (m, n_x)
    stop = tol * (1 - L_z)
    k = len(b)
    live = np.arange(k)  # thetas still iterating
    P, prev = np.zeros((k,) + base.shape[-2:]), None
    out = np.empty((k,) + base.shape)  # each theta's fixed points as it stops
    for _ in range(max_iter):
        P_next = np.tanh(P @ np.swapaxes(W_eff, -1, -2) + b) + base
        steps = np.linalg.norm(P_next - P, axis=-1)
        if prev is not None:
            bad = (steps > (L_z + 1e-6) * prev) & (prev > max(stop, 1e-14))
            if np.any(bad):
                # the excess may be rounding of the new iterate; computed
                # only here, off the per-iteration path
                rounding = 4 * np.finfo(float).eps * np.linalg.norm(P_next,
                                                                   axis=-1)
                bad &= steps > (L_z + 1e-6) * prev + rounding
                if np.any(bad):
                    ratio = np.max(steps[bad] / prev[bad])
                    raise ContractivityError(
                        f"observed contraction ratio {ratio:.6f} exceeds "
                        f"certified budget {L_z}")
        if np.any(done := np.max(steps, axis=-1, initial=0.0) <= stop):
            out[live[done]] = P_next[done]
            live, P_next, steps, W_eff, b = (
                a[~done] for a in (live, P_next, steps, W_eff, b))
            if not live.size:
                break
        P, prev = P_next, steps
    else:
        raise ConvergenceError(
            "fixed-point iteration did not converge", iterations=max_iter,
            residual=None if prev is None else float(np.max(prev)))
    return out.reshape(params.b.shape[:-1] + y.shape[:-1] + (n,))


# ---------------------------------------------------------------------------
# Family objects: flat-parameter interface used by ERM and experiments
# ---------------------------------------------------------------------------

class _Family:
    """Shared by every family: ``reconstruct_batch(theta, Y)`` maps the
    (m, n_y) batch Y to (m, n_x) rows, and one output y (1-d) to R_theta(y);
    a (k, dim) stack of thetas gives (k, m, n_x) in one call, whatever
    its size, each slice bit for bit the 1-d call.  ``affine``: the
    reconstruction is the map G y + c (``_HBFamily.affine_map``), so ERM
    reads the data's moments.
    """

    affine = False


class _HBFamily(_Family):
    """Flat-parameter (h, B) interface shared by Tikhonov and Elastic-Net.

    ``structure`` controls the parametrization.  Row i of the (dim, s)
    table ``slots`` lists the entries of the flat vector (h, vec B) that
    theta_i fills, and it is the only place the structure enters:

    * "scale": theta = [b], B = b I, h = 0 (the 1-parameter family),
    * "diagonal": theta = concat(h, diag(B)),
    * "full":  theta = concat(h, vec(B)) with dense B.

    A (k, dim) stack of thetas gives stacks of (h, B), affine maps,
    reconstructions and gradients.
    """

    affine = property(lambda self: self.alpha == 1.0)

    def __init__(self, op: ForwardOperator, structure: str):
        n = op.n_x
        diag = n + (n + 1) * np.arange(n)  # B_ii in (h, vec B)
        slots = {"scale": diag[None], "diagonal": np.r_[:n, diag][:, None],
                 "full": np.arange(n + n * n)[:, None]}
        if structure not in slots:
            raise ConfigurationError(
                f"unknown structure at family.structure: {structure!r}")
        self.op = op
        self.slots = slots[structure]
        self.dim = len(self.slots)

    def _h_B(self, theta):
        theta = np.asarray(theta, dtype=float)
        n = self.op.n_x
        if theta.shape[-1:] != (self.dim,):
            raise DimensionMismatchError("theta length mismatch")
        flat = np.zeros(theta.shape[:-1] + (n + n * n,))
        flat[..., self.slots] = theta[..., None]
        return flat[..., :n], flat[..., n:].reshape(theta.shape[:-1] + (n, n))

    def metric(self, theta1, theta2) -> float:
        """d((h,B),(h',B')) = ||h-h'|| + ||B-B'||_op."""
        (h1, B1), (h2, B2) = self._h_B(theta1), self._h_B(theta2)
        return float(np.linalg.norm(h1 - h2) + np.linalg.norm(B1 - B2, 2))

    def affine_map(self, theta):
        """V = [G c]^T, (n_y + 1, n_x), with R_theta(y) = G y + c = (y, 1) V,
        for an affine family.

        The optimality condition is M x = P y + s with M = K + 2 B*B and
        the family's shift s, so V M^T = [P^T; s^T]: one checked solve.  A
        (k, dim) theta gives (k, n_y + 1, n_x), one checked solve per row.
        """
        self._require_affine()
        h, B = self._h_B(theta)
        BtB = np.swapaxes(B, -1, -2) @ B
        s = self._shift(h, B, BtB)
        Pt = np.broadcast_to(self._P.T, s.shape[:-1] + self._P.T.shape)
        return _solve_normal(self._K + 2.0 * BtB,
                             np.concatenate([Pt, s[..., None, :]], axis=-2))

    def _affine_batch(self, theta, Y):
        """Rows R_theta(y) = (y, 1) V of the (m, n_y) batch Y, or the one
        of a single row.  A square G with no entry off its diagonal (a
        diagonal A, noise law and B) is applied entrywise: the values of
        the matmul, one rounded product plus exact zeros, without BLAS,
        whose worker threads would take the cores of the pool workers that
        draw the blocks ahead (``ProblemDistribution.draw``)."""
        Y = _outputs(Y, self.op)
        V = self.affine_map(theta)
        Gt = V[..., :-1, :]
        d = np.diagonal(Gt, axis1=-2, axis2=-1)
        if Gt.shape[-2] == Gt.shape[-1] and (np.count_nonzero(Gt)
                                             == np.count_nonzero(d)):
            X = np.atleast_2d(Y) * d[..., None, :]
        else:
            X = np.atleast_2d(Y) @ Gt
        X += V[..., -1:, :]
        return X[..., 0, :] if Y.ndim == 1 else X

    def _require_affine(self):
        if not self.affine:
            raise ConfigurationError("the reconstruction is affine only for "
                                     "alpha = 1")

    def risk_gradient(self, theta, V, S, C):
        """Gradient of the quadratic risk 1/2 tr(V^T S V) - tr(V^T C) + const
        at theta, for alpha = 1.

        V = [G c]^T is theta's affine map as (n_y + 1, n_x) rows, so that
        R_theta(y) = (y, 1) V, and with y~ = (y, 1) the data moments are
        S = E[y~ y~^T] and C = E[y~ x^T].  dL/dV = S V - C is chained once
        through V M = [P^T; s^T], M = K + 2 B*B: its adjoint U = dL/dV M^-1
        gives -2 B (Z + Z^T), Z = V^T U, through M, and the family's shift
        s takes the last row of U (``_shift_vjp``).  The gradient in
        (h, vec B) sums onto theta through ``slots``.  A (k, dim) theta
        with its (k, n_y + 1, n_x) V, and S and C shared or one per theta,
        gives the (k, dim) gradients, each row bit for bit its 1-d call.
        """
        self._require_affine()
        h, B = self._h_B(theta)
        BtB = np.swapaxes(B, -1, -2) @ B
        dL = np.swapaxes(S @ V - C, -1, -2)  # (dL/dV)^T
        U = np.swapaxes(np.linalg.solve(self._K + 2.0 * BtB, dL), -1, -2)
        Z = np.swapaxes(V, -1, -2) @ U
        grad_h, grad_B = self._shift_vjp(h, B, BtB, U[..., -1, :])
        grad_B -= 2.0 * (B @ (Z + np.swapaxes(Z, -1, -2)))
        flat = np.concatenate(
            [grad_h, grad_B.reshape(grad_h.shape[:-1] + (-1,))], axis=-1)
        return flat[..., self.slots].sum(axis=-1)


class TikhonovFamily(_HBFamily):
    """Flat-parameter wrapper around the generalized Tikhonov reconstructor."""

    kind = "tikhonov"
    alpha = 1.0  # the reconstruction map is Lipschitz in theta on the class

    def __init__(self, op: ForwardOperator, noise: GaussianSpec,
                 structure: str = "full"):
        super().__init__(op, structure)
        self.noise = noise
        self._P, self._K = _normal_constants(op, noise)

    @staticmethod
    def _shift(h, B, BtB):
        """s = 2 B*B h, from the penalty ||B(x - h)||^2."""
        return 2.0 * (BtB @ h[..., None])[..., 0]

    @staticmethod
    def _shift_vjp(h, B, BtB, u):
        """(d/dh, d/dB) of u . s for s = 2 B*B h."""
        return (2.0 * (BtB @ u[..., None])[..., 0],
                2.0 * (_outer((B @ h[..., None])[..., 0], u)
                       + _outer((B @ u[..., None])[..., 0], h)))

    # the class's own entry, which perfbench/tracing.py spans
    risk_gradient = _HBFamily.risk_gradient

    def unpack(self, theta) -> TikhonovParams:
        return TikhonovParams(*self._h_B(theta))

    def reconstruct_batch(self, theta, Y):
        return self._affine_batch(theta, Y)


class ElasticNetFamily(_HBFamily):
    """Flat-parameter wrapper around the Elastic-Net reconstructor, with
    fixed alpha and eta."""

    kind = "elastic_net"

    def __init__(self, op: ForwardOperator, alpha: float = 1.0,
                 eta: float = 0.5, structure: str = "full"):
        super().__init__(op, structure)
        ElasticNetParams.check_penalty(alpha, eta)
        self.alpha = float(alpha)
        self.eta = float(eta)
        # P and K of the alpha = 1 normal equations (see ``affine_map``)
        Am = op.as_matrix()
        self._P, self._K = Am.T, Am.T @ Am + 2.0 * self.eta * np.eye(op.n_x)

    @staticmethod
    def _shift(h, B, BtB):
        """s = 2 B* h, from the alpha = 1 penalty ||B x - h||^2."""
        return 2.0 * (np.swapaxes(B, -1, -2) @ h[..., None])[..., 0]

    @staticmethod
    def _shift_vjp(h, B, BtB, u):
        """(d/dh, d/dB) of u . s for s = 2 B* h."""
        return 2.0 * (B @ u[..., None])[..., 0], 2.0 * _outer(h, u)

    def unpack(self, theta) -> ElasticNetParams:
        h, B = self._h_B(theta)
        return ElasticNetParams(h=h, B=B, alpha=self.alpha, eta=self.eta)

    def reconstruct_batch(self, theta, Y):
        if self.affine:
            # smooth quadratic case: the optimality condition is linear
            return self._affine_batch(theta, Y)
        return reconstruct_elastic_net(self.unpack(theta), self.op, Y)


class FixedPointFamily(_Family):
    """theta = concat(vec(W), b) for p = tanh(clip(W) p + b) + A* y."""

    kind = "fixed_point"
    alpha = 1.0

    def __init__(self, op: ForwardOperator, contraction_budget: float = 0.5):
        FixedPointParams.check_budget(contraction_budget)
        self.op = op
        self.L_z = float(contraction_budget)
        self.dim = op.n_x * op.n_x + op.n_x

    def unpack(self, theta) -> FixedPointParams:
        """(W, b) of theta, or the stacked (W, b) of a (k, dim) stack."""
        theta = np.asarray(theta, dtype=float)
        n = self.op.n_x
        if theta.shape[-1:] != (self.dim,):
            raise DimensionMismatchError("theta length mismatch")
        return FixedPointParams(
            W=theta[..., :n * n].reshape(theta.shape[:-1] + (n, n)),
            b=theta[..., n * n:], contraction_budget=self.L_z)

    def metric(self, theta1, theta2) -> float:
        return float(np.linalg.norm(np.asarray(theta1, float)
                                    - np.asarray(theta2, float)))

    def reconstruct_batch(self, theta, Y):
        return reconstruct_fixed_point(self.unpack(theta), self.op, Y)

    def lipschitz_theta_bound(self, probe_ys) -> float:
        """Analytic Lipschitz-in-theta constant over the probe data.

        Iterates satisfy ||z|| <= Z := sqrt(n) + ||A* y||, the spectral clip
        is Frobenius-non-expansive, and tanh is 1-Lipschitz, so
        ||phi_theta(z;y) - phi_theta'(z;y)|| <= ||dW||_F ||z|| + ||db||
        <= sqrt(Z^2 + 1) ||theta - theta'|| by Cauchy-Schwarz on the
        concatenated (W, b) parameter.
        """
        n = self.op.n_x
        r = max(float(np.linalg.norm(self.op.adjoint_apply(np.asarray(y, float))))
                for y in probe_ys)
        z_max = np.sqrt(n) + r
        return float(np.sqrt(z_max**2 + 1.0))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityCertificate:
    """Empirical constants for Holder-in-theta stability and sublinearity.

    ||R_theta(y) - R_theta'(y)|| <= (L_R ||y|| + Lp_R) d(theta,theta')^alpha
    and ||R_theta(y)|| <= M_R ||y|| + Mp_R on all probes.
    """

    family: str
    alpha: float
    L_R: float
    Lp_R: float
    M_R: float
    Mp_R: float
    r0: float
    n_probes: int
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"family": self.family, "alpha": self.alpha, "L_R": self.L_R,
                "L'_R": self.Lp_R, "M_R": self.M_R, "M'_R": self.Mp_R,
                "r0": self.r0, "probes": self.n_probes, **self.extras}


def _fit_affine_envelope(y_norms, values):
    """Smallest (a, b), a||y||+b >= v on all probes, minimizing a + b.

    The linear program in two unknowns is solved exactly.  For a given
    a >= 0 the cheapest feasible b is max(0, max_i (v_i - a ||y_i||)), so
    the cost a + b is convex and piecewise linear in a; its minimum lies at
    a = 0, at the a where every line v_i - a ||y_i|| has fallen to 0 (the
    vertex on b = 0), or where two lines cross.  Each is tried, and the
    cheapest is made to hold in floating point too.
    """
    y_norms = np.asarray(y_norms, dtype=float)
    values = np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(y_norms)) and np.all(np.isfinite(values))):
        raise ConvergenceError("affine envelope fit failed")
    if values.size == 0:
        return 0.0, 0.0
    # only the largest value at each distinct norm can bind
    ys, where = np.unique(y_norms, return_inverse=True)
    vs = np.full(ys.shape, -np.inf)
    np.maximum.at(vs, where, values)
    pos = ys > 0
    a_axis = max(0.0, float(np.max(vs[pos] / ys[pos]))) if pos.any() else 0.0
    while np.any(a_axis * ys[pos] < vs[pos]):  # rounding: raise by ulps
        a_axis = float(np.nextafter(a_axis, np.inf))
    i, j = np.triu_indices(ys.size, k=1)
    crossings = (vs[i] - vs[j]) / (ys[i] - ys[j])
    kinks = np.concatenate([[0.0, a_axis], crossings[crossings > 0]])
    b = np.maximum(0.0, np.max(vs - kinks[:, None] * ys, axis=1))
    k = int(np.argmin(kinks + b))
    a, b = float(kinks[k]), float(b[k])
    # at a crossing, rounding can leave a||y_i|| + b an ulp short of v_i
    while (short := float(np.max(vs - (a * ys + b)))) > 0:
        b = max(b + short, float(np.nextafter(b, np.inf)))
    return a, b


def certify_stability(family, pclass: ParamClass, probe_ys,
                      probe_pairs) -> StabilityCertificate:
    """Empirical stability/sublinearity certificate on probe sets.

    ``probe_pairs`` is a list of (theta, theta') with positive distance in
    the family metric; ``probe_ys`` a list of data vectors.  Each
    reconstruction solves at its family's tolerance.  The affine envelopes
    are fitted by an exact two-variable linear program.
    """
    if not probe_ys or not probe_pairs:
        raise ConfigurationError("probe sets must be non-empty")
    Y = np.asarray(probe_ys, dtype=float)
    y_norms = np.linalg.norm(Y, axis=1)
    energy = family.kind == "elastic_net"
    ys, ratios, norms, worst = [], [], [], math.inf
    for theta, theta2 in probe_pairs:
        R1 = family.reconstruct_batch(theta, Y)  # once per theta
        if energy:
            # energy bound from evaluating the objective at the minimizer and 0
            m_g = float(np.linalg.norm(family.unpack(theta).h)
                        ** (2 * family.alpha))
            slack = (y_norms**2 / (2 * family.eta) + m_g
                     - np.linalg.norm(R1, axis=1)**2)
            worst = min(worst, float(np.min(slack)))
        d = family.metric(theta, theta2)
        if d <= 0:
            continue
        R2 = family.reconstruct_batch(theta2, Y)
        ys.extend(y_norms)
        ratios.extend(np.linalg.norm(R1 - R2, axis=1) / d**family.alpha)
        norms.extend(np.linalg.norm(R1, axis=1))
    L_R, Lp_R = _fit_affine_envelope(ys, ratios)
    M_R, Mp_R = _fit_affine_envelope(ys, norms)
    return StabilityCertificate(
        family=family.kind, alpha=family.alpha,
        L_R=L_R, Lp_R=Lp_R, M_R=M_R, Mp_R=Mp_R,
        r0=pclass.diameter, n_probes=len(probe_ys) * len(probe_pairs),
        extras={"energy_bound_slack": worst} if energy else {})


@dataclass(frozen=True)
class GHypothesesReport:
    """Empirical check of the learned-penalty conditions for g = ||B.-h||^{2a}."""

    alpha: float
    M_g: float  # g at x = 0
    holder_constant: float | None
    convex_midpoint_ok: bool | None
    convexity_checked: bool


def check_g_hypotheses(B, h, alpha: float, probe_xs,
                       probe_pairs=None) -> GHypothesesReport:
    """Verify boundedness at 0, Holder-in-theta, and convexity probes
    of the penalty g(x) = ||B x - h||^{2 alpha} on the probe points x.

    ``probe_pairs`` defaults to 16 random perturbations of (h, B) of scale
    0.1, drawn from a fixed seed.  Convexity (midpoint inequality) is only
    asserted for alpha = 1; for alpha < 1 the penalty need not be convex and
    the report marks the check as skipped.
    """
    if not len(probe_xs):
        raise ConfigurationError("probe set must be non-empty")
    B = np.asarray(B, dtype=float)
    h = np.asarray(h, dtype=float)

    def g(Bm, hv, x):
        return float(np.linalg.norm(Bm @ x - hv) ** (2 * alpha))

    xs = [np.asarray(x, float) for x in probe_xs]
    g0 = g(B, h, np.zeros(h.size))

    if probe_pairs is None:
        rng = np.random.default_rng(0)
        probe_pairs = []
        for _ in range(16):
            dB = rng.standard_normal(B.shape) * 0.1
            dh = rng.standard_normal(h.shape) * 0.1
            probe_pairs.append(((h + dh, B + dB)))
    c_g = 0.0
    for h2, B2 in probe_pairs:
        d = np.linalg.norm(h - h2) + np.linalg.norm(B - np.asarray(B2), 2)
        if d <= 0:
            continue
        for x in xs:
            nx = np.linalg.norm(x)
            if nx <= 0:
                continue
            diff = abs(g(B, h, x) - g(np.asarray(B2, float),
                                      np.asarray(h2, float), x))
            c_g = max(c_g, diff / (nx**2 * d ** (2 * alpha)))

    convex_ok = None
    if alpha == 1.0:
        convex_ok = not any(
            g(B, h, 0.5 * (a + b)) > 0.5 * (g(B, h, a) + g(B, h, b)) + 1e-10
            for a, b in combinations(xs, 2))
    return GHypothesesReport(alpha=alpha, M_g=g0,
                             holder_constant=c_g,
                             convex_midpoint_ok=convex_ok,
                             convexity_checked=alpha == 1.0)
