"""Quadratic loss stack and empirical risk minimization.

The expected loss of a parametric reconstructor is estimated by Monte
Carlo; the empirical target comes from projected gradient descent with
multi-start, the starts advancing in lock-step as one (k, dim) stack whose
every row equals its one-start run bit for bit.  The optimal target is
proxied by ERM on a much larger sample, gated by a second fit from another
seed.  The sample error L(theta_hat) - L(theta_star) itself is measured by
the rate experiment, on one shared Monte Carlo sample so that the
difference cancels common noise: ERM's own risk and change, with that
sample as the data set.  The proxy's gate reads the same sample.

An ``affine`` family (R_theta(y) = G y + c = (y, 1) V, V its
``affine_map``) reads its data only through their moments (``_Moments``):
its ERM risk, gradient and risk change are quadratic forms in V,
independent of m, and one ERM stack may hold the starts of several trials,
each row reading its own trial's moments.  The other families evaluate per
sample, the reference path, one training set per stack.  Either way the
line search decides on the risk change computed in difference form, not
on the difference of two rounded risk levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .hypotheses import _stacked_dot
from .stochastics import (STACK_ROWS, ProblemDistribution, TrainingSet,
                          draw_training_set, substream)

FD_STEP_REL = 1e-5  # central-difference step, relative to the class diameter
ERM_TOL = 1e-8  # projected-gradient residual at which an ERM start has converged


def _losses(R, X) -> np.ndarray:
    """Per-row quadratic losses 1/2 ||r_j - x_j||^2 of reconstructions R,
    or of each slice of a (k, m, n_x) stack.

    R is never written to: ERM keeps it for the gradient."""
    D = R - X
    D *= D
    return 0.5 * np.sum(D, axis=-1)


def _batch_losses(family, theta, X, Y) -> np.ndarray:
    return _losses(family.reconstruct_batch(theta, Y), X)


def theta_groups(k: int, m: int) -> list:
    """Slices of a stack of k thetas on m data rows, each at most
    ``STACK_ROWS`` (theta, row) pairs, or one theta when its rows alone
    exceed that."""
    size = max(1, STACK_ROWS // max(m, 1))
    return [slice(i, i + size) for i in range(0, k, size)]


def _flat_dot(A, B):
    """<A, B> of each (..., a, b) slice, one BLAS dot per slice."""
    return _stacked_dot(A.reshape(A.shape[:-2] + (-1,)),
                        B.reshape(B.shape[:-2] + (-1,)))


class _Moments(NamedTuple):
    """The moments of (x, y) data that the quadratic risk of an affine map
    reads: with y~ = (y, 1), S = E[y~ y~^T], C = E[y~ x^T] and
    xx = E||x||^2, of one data set or stacked one per trial.

    For V = [G c]^T the risk is 1/2 tr(V^T S V) - tr(V^T C) + xx / 2.
    """

    S: np.ndarray
    C: np.ndarray
    xx: np.ndarray

    @classmethod
    def of(cls, X, Y) -> "_Moments":
        """The moments of (m, n) data."""
        m = len(X)
        Yt = np.concatenate([Y, np.ones((m, 1))], axis=1)
        return cls(Yt.T @ Yt / m, Yt.T @ X / m, np.vdot(X, X) / m)

    def take(self, trials) -> "_Moments":
        return _Moments(*(a[trials] for a in self))

    def risk(self, V):
        return _flat_dot(V, 0.5 * (self.S @ V) - self.C) + 0.5 * self.xx

    def change(self, V_c, V):
        """risk(V_c) - risk(V) as 1/2 tr(dV^T S (V_c + V)) - tr(dV^T C),
        dV = V_c - V: the rounding is that of the change, not of the two
        risk levels."""
        return _flat_dot(V_c - V, 0.5 * (self.S @ (V_c + V)) - self.C)


def _mean_halfwidth(per) -> tuple:
    """Mean of per-sample losses and its 95% Monte Carlo half-width."""
    return float(per.mean()), 1.96 * float(per.std(ddof=1)) / np.sqrt(per.size)


def empirical_risk(ts: TrainingSet, theta, family) -> float:
    """(1/m) sum_j 1/2 ||R_theta(y_j) - x_j||^2."""
    if ts.m < 1:
        raise ConfigurationError("empty training set")
    return float(_batch_losses(family, theta, ts.x, ts.y).mean())


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    halfwidth: float


def expected_loss_mc(dist: ProblemDistribution, theta, family,
                     n_mc: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the expected loss with a 95% half-width."""
    if n_mc < 100:
        raise ConfigurationError("n_mc must be >= 100")
    rng = substream(seed, 1)
    x, y = dist.sample(rng, n_mc)
    estimate, halfwidth = _mean_halfwidth(_batch_losses(family, theta, x, y))
    return McEstimate(estimate=estimate, halfwidth=halfwidth)


# ---------------------------------------------------------------------------
# Empirical risk minimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErmOptions:
    max_iter: int = 500
    n_starts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class ErmResult:
    theta: np.ndarray
    objective: float
    residual: float
    converged: bool


def _risk_and_grad_factory(family, pclass, training_sets, n_starts=1):
    """The empirical risk, its gradient and its change on a (k, dim) stack
    of thetas.

    ``risk(thetas, rows)`` returns the k risks at the stack rows ``rows``
    and the thetas' states, ``grad(thetas, states, rows)`` the (k, dim)
    gradients and ``change(states_c, states, rows)`` the k changes
    L(theta_c) - L(theta) in difference form.  An affine family's row i
    reads the moments of trial ``i // n_starts`` (of the one training set,
    if one), its state is its map V and its gradient is analytic; any
    other family fits one training set, its states are the (k, m, n_x)
    reconstructions and its gradient is central differences.  Each row
    equals its one-row stack on its own trial bit for bit.
    """
    if family.affine:
        moments = _Moments(*map(np.stack, zip(*(
            _Moments.of(ts.x, ts.y) for ts in training_sets))))

        def at(rows):
            return moments.take(0 if len(training_sets) == 1
                                else rows // n_starts)

        def risk(thetas, rows):
            V = family.affine_map(thetas)
            return at(rows).risk(V), V

        def grad(thetas, V, rows):
            mo = at(rows)
            return family.risk_gradient(thetas, V, mo.S, mo.C)

        def change(V_c, V, rows):
            return at(rows).change(V_c, V)
        return risk, grad, change

    if len(training_sets) != 1:
        raise ConfigurationError(
            f"the {family.kind} family fits one training set per ERM stack")
    X, Y = training_sets[0].x, training_sets[0].y

    def risk(thetas, rows=None):
        # one solve holds at most STACK_ROWS (theta, row) pairs
        groups = theta_groups(len(thetas), len(X))
        R = family.reconstruct_batch(thetas, Y) if len(groups) == 1 else \
            np.concatenate([family.reconstruct_batch(thetas[g], Y)
                            for g in groups])
        return _losses(R, X).mean(axis=-1), R

    def change(R_c, R, rows):
        # 1/2 ||r_c - x||^2 - 1/2 ||r - x||^2 = 1/2 (r_c - r).(r_c + r - 2x)
        D = R_c - R
        D *= R_c + R - 2.0 * X
        return 0.5 * np.sum(D, axis=-1).mean(axis=-1)

    step = FD_STEP_REL * pclass.diameter

    def grad(thetas, R, rows):
        # the theta +- step e_i of every row and coordinate i, as one
        # (2 k dim, dim) stack, evaluated in groups of at most STACK_ROWS
        # (theta, row) pairs: entry (j, i) of the gradient is
        # (R(theta_j + e_i) - R(theta_j - e_i)) / (2 step)
        k, dim = thetas.shape
        E = step * np.eye(dim)
        shifted = np.concatenate([thetas[:, None] + E,
                                  thetas[:, None] - E]).reshape(-1, dim)
        f = np.concatenate([risk(shifted[g])[0]
                            for g in theta_groups(len(shifted), len(X))])
        f_plus, f_minus = f.reshape(2, k, dim)
        return (f_plus - f_minus) / (2 * step)
    return risk, grad, change


def _projected_gradient(theta0, risk, grad, change, pclass, opts):
    """Projected gradient descent from each row of theta0, in lock-step.

    Every row keeps its own step, Armijo test and iteration count, and
    leaves the stack when its residual reaches ``ERM_TOL``, when its line
    search ends without a move, or at ``max_iter``.  Each iteration takes
    one stacked gradient of the live rows, and each line-search round one
    stacked risk of the rows still searching; all three functions are told
    the rows' indices in the stack.  The Armijo test reads the risk change
    in difference form (``change``), so that a decrease below the
    rounding of the risk level still counts.  Returns the (k, dim) thetas
    and the k objectives and residuals.
    """
    theta = pclass.project(np.asarray(theta0, float))
    live = np.arange(len(theta))  # rows of the outputs still iterating
    f, state = risk(theta, live)
    out_theta, out_f = np.empty_like(theta), np.empty_like(f)
    residual = np.full(len(theta), np.inf)
    step = np.ones(len(theta))

    def leave(keep):
        """Write the rows that leave to the outputs and return the state
        of the rows that stay (the same arrays when none leaves)."""
        if keep.all():
            return live, theta, f, state, step
        out_theta[live[~keep]], out_f[live[~keep]] = theta[~keep], f[~keep]
        return (a[keep] for a in (live, theta, f, state, step))

    for _ in range(opts.max_iter):
        if not live.size:
            break
        g = grad(theta, state, live)
        # projected-gradient residual at unit reference step
        d = theta - pclass.project(theta - g)
        residual[live] = np.sqrt(_stacked_dot(d, d))
        keep = ~(residual[live] <= ERM_TOL)
        g = g[keep]
        live, theta, f, state, step = leave(keep)
        step = np.minimum(step * 2.0, 1e8)
        cand, f_cand, state_cand = map(np.empty_like, (theta, f, state))
        search = np.arange(live.size)  # rows whose line search goes on
        while search.size:
            c = pclass.project(theta[search] - step[search, None] * g[search])
            move = c - theta[search]
            f_c, state_c = risk(c, live[search])
            cand[search], f_cand[search], state_cand[search] = c, f_c, state_c
            accept = (change(state_c, state[search], live[search])
                      <= _stacked_dot(g[search], move)
                      + 0.5 / step[search] * _stacked_dot(move, move)) \
                | (step[search] < 1e-14)
            search = search[~accept]
            step[search] *= 0.5
        moved = np.any(cand != theta, axis=1)
        # a row that did not move leaves: its cand is its theta, bit for
        # bit, and so its f_cand is its f
        theta, f, state = cand, f_cand, state_cand
        live, theta, f, state, step = leave(moved)
    leave(np.zeros(live.size, bool))
    return out_theta, out_f, residual


def erm_solve(pclass, family, ts: TrainingSet,
              opts: ErmOptions = ErmOptions()) -> ErmResult:
    """Multi-start projected gradient descent on the empirical risk.

    Starts at the class center plus projected random points, all run in
    lock-step as one stack.  Gradients are analytic on the data moments
    for an affine family (Tikhonov, alpha = 1 Elastic-Net), otherwise
    central finite differences of the per-sample risk.  Ties
    are broken by lowest objective, then by lexicographically smallest
    parameter vector.  The one-trial call of ``erm_solve_trials``.
    """
    return erm_solve_trials(pclass, family, [ts], [opts.seed], opts)[0]


def erm_solve_trials(pclass, family, training_sets, seeds,
                     opts: ErmOptions = ErmOptions()) -> list:
    """``erm_solve`` of T training sets of one size m, in lock-step.

    Trial t's starts are drawn from ``seeds[t]`` in place of
    ``opts.seed``, and the ``n_starts`` starts of every trial run as one
    (T n_starts, dim) stack whose row i reads the moments of trial
    ``i // n_starts``; only an affine family stacks several trials.
    Returns one ``ErmResult`` per trial, each bit for bit its own
    ``erm_solve``.  A ``ConvergenceError`` fails the stack.
    """
    k = max(1, opts.n_starts)
    starts = []
    for ts, seed in zip(training_sets, seeds, strict=True):
        if ts.m < 1:
            raise ConfigurationError("empty training set")
        rng = substream(seed, 101)
        starts += [pclass.center] + [pclass.sample(rng) for _ in range(k - 1)]
    objective = _risk_and_grad_factory(family, pclass, training_sets, k)
    thetas, fs, residuals = _projected_gradient(np.array(starts), *objective,
                                                pclass, opts)
    results = []
    for i in range(0, len(starts), k):  # the rows of one trial
        f, theta_t, residual = min(zip(fs[i:i + k].tolist(),
                                       map(tuple, thetas[i:i + k].tolist()),
                                       residuals[i:i + k].tolist()))
        results.append(ErmResult(theta=np.asarray(theta_t), objective=f,
                                 residual=residual,
                                 converged=residual <= ERM_TOL))
    return results


def optimal_target_proxy(pclass, family, dist: ProblemDistribution,
                         proxy_m: int, seed: int, x_eval, y_eval,
                         opts: ErmOptions = ErmOptions()) -> np.ndarray:
    """ERM on a proxy sample standing in for the exact expected-loss argmin.

    The fit is repeated from a second seed, and the two candidates' mean
    losses on the evaluation sample (x_eval, y_eval) must agree within the
    first one's 95% half-width; otherwise the proxy is declared unstable.
    Returns the first fit.
    """
    thetas = [erm_solve(pclass, family, draw_training_set(dist, proxy_m, s),
                        opts).theta for s in (seed, seed + 1)]
    losses = [_batch_losses(family, t, x_eval, y_eval) for t in thetas]
    (la, halfwidth), (lb, _) = map(_mean_halfwidth, losses)
    if abs(la - lb) > max(halfwidth, 1e-12):
        raise ConvergenceError(
            "optimal-target proxy unstable across seeds: "
            f"|{la:.6g} - {lb:.6g}| > {halfwidth:.3g}")
    return thetas[0]
