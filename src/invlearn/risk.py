"""Quadratic loss stack and empirical risk minimization.

The expected loss of a parametric reconstructor is estimated by Monte
Carlo; the empirical target comes from projected gradient descent with
multi-start, the starts advancing in lock-step as one (k, dim) stack whose
every row equals its one-start run bit for bit.  The trials of one
training-set size stack the same way, each row reading its own trial's
data, in groups of at most ``TRIAL_STACK_ROWS`` (theta, row) pairs; a
one-trial stack reads its batch as it is.  The optimal target is proxied
by ERM on a much larger sample, gated by a second fit from another seed.
The sample error L(theta_hat) - L(theta_star) itself is measured by the
rate experiment, on one shared Monte Carlo sample so that the difference
cancels common noise; the proxy's gate and theta_star's losses read that
same sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .hypotheses import STACK_ROWS, _stacked_dot, theta_groups
from .stochastics import (ProblemDistribution, TrainingSet,
                          draw_training_set, substream)

FD_STEP_REL = 1e-5  # central-difference step, relative to the class diameter
ERM_TOL = 1e-8  # projected-gradient residual at which an ERM start has converged
# (theta, row) pairs of one trial-stacked ERM at most: past about this many,
# gathering each row's trial data costs as much as the stack saves
TRIAL_STACK_ROWS = STACK_ROWS // 4


def _losses(R, X) -> np.ndarray:
    """Per-row quadratic losses 1/2 ||r_j - x_j||^2 of reconstructions R,
    or of each slice of a (k, m, n_x) stack.

    R is never written to: ERM keeps it for the gradient."""
    D = R - X
    D *= D
    return 0.5 * np.sum(D, axis=-1)


def _batch_losses(family, theta, X, Y) -> np.ndarray:
    return _losses(family.reconstruct_batch(theta, Y), X)


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
    n_mc: int


def expected_loss_mc(dist: ProblemDistribution, theta, family,
                     n_mc: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the expected loss with a 95% half-width."""
    if n_mc < 100:
        raise ConfigurationError("n_mc must be >= 100")
    rng = substream(seed, 1)
    x, y = dist.sample(rng, n_mc)
    estimate, halfwidth = _mean_halfwidth(_batch_losses(family, theta, x, y))
    return McEstimate(estimate=estimate, halfwidth=halfwidth, n_mc=n_mc)


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


def _risk_and_grad_factory(family, pclass, X, Y, n_starts=1):
    """The empirical risk and its gradient on a (k, dim) stack of thetas.

    X and Y hold one training set's (m, n) data, which every theta reads,
    or the (T, m, n) data of T trials, of which row i of the ERM stack
    reads trial ``i // n_starts``.  ``risk(thetas, rows)`` returns the k
    risks and the (k, m, n_x) reconstructions of the thetas at the stack
    rows ``rows``; ``grad(thetas, R, rows)`` their (k, dim) gradients,
    reusing their reconstructions R.  Each row equals its one-row stack on
    its own trial's (m, n) data bit for bit.
    """
    def data(rows):
        if X.ndim == 2:
            return X, Y
        trials = rows // n_starts
        return X[trials], Y[trials]

    def risk(thetas, rows):
        X_rows, Y_rows = data(rows)
        R = family.reconstruct_batch(thetas, Y_rows)
        return _losses(R, X_rows).mean(axis=-1), R

    if hasattr(family, "risk_gradient"):
        def grad(thetas, R, rows):
            return family.risk_gradient(thetas, *data(rows), R=R)
    else:
        step = FD_STEP_REL * pclass.diameter

        def grad(thetas, R, rows):
            # the theta +- step e_i of every row and coordinate i, as one
            # (2 k dim, dim) stack that keeps each row's stack index,
            # evaluated in groups of at most STACK_ROWS (theta, row) pairs:
            # entry (j, i) of the gradient is
            # (R(theta_j + e_i) - R(theta_j - e_i)) / (2 step)
            k, dim = thetas.shape
            E = step * np.eye(dim)
            shifted = np.concatenate([thetas[:, None] + E,
                                      thetas[:, None] - E]).reshape(-1, dim)
            shifted_rows = np.tile(np.repeat(rows, dim), 2)
            f = np.concatenate([
                risk(shifted[g], shifted_rows[g])[0]
                for g in theta_groups(len(shifted), X.shape[-2])])
            f_plus, f_minus = f.reshape(2, k, dim)
            return (f_plus - f_minus) / (2 * step)
    return risk, grad


def _projected_gradient(theta0, risk, grad, pclass, opts):
    """Projected gradient descent from each row of theta0, in lock-step.

    Every row keeps its own step, Armijo test and iteration count, and
    leaves the stack when its residual reaches ``ERM_TOL``, when its line
    search ends without a move, or at ``max_iter``.  Each iteration takes
    one stacked gradient of the live rows, and each line-search round one
    stacked risk of the rows still searching; both are told the rows'
    indices in the stack.  Returns the (k, dim) thetas and the k
    objectives and residuals.
    """
    theta = pclass.project(np.asarray(theta0, float))
    live = np.arange(len(theta))  # rows of the outputs still iterating
    f, R = risk(theta, live)
    out_theta, out_f = np.empty_like(theta), np.empty_like(f)
    residual = np.full(len(theta), np.inf)
    step = np.ones(len(theta))

    def leave(keep):
        """Write the rows that leave to the outputs and return the state
        of the rows that stay (the same arrays when none leaves)."""
        if keep.all():
            return live, theta, f, R, step
        out_theta[live[~keep]], out_f[live[~keep]] = theta[~keep], f[~keep]
        return (a[keep] for a in (live, theta, f, R, step))

    for _ in range(opts.max_iter):
        if not live.size:
            break
        g = grad(theta, R, live)
        # projected-gradient residual at unit reference step
        d = theta - pclass.project(theta - g)
        residual[live] = np.sqrt(_stacked_dot(d, d))
        keep = ~(residual[live] <= ERM_TOL)
        g = g[keep]
        live, theta, f, R, step = leave(keep)
        step = np.minimum(step * 2.0, 1e8)
        cand, f_cand, R_cand = map(np.empty_like, (theta, f, R))
        search = np.arange(live.size)  # rows whose line search goes on
        while search.size:
            c = pclass.project(theta[search] - step[search, None] * g[search])
            move = c - theta[search]
            cand[search] = c
            f_cand[search], R_cand[search] = risk(c, live[search])
            accept = (f_cand[search] <= f[search]
                      + _stacked_dot(g[search], move)
                      + 0.5 / step[search] * _stacked_dot(move, move)) \
                | (step[search] < 1e-14)
            search = search[~accept]
            step[search] *= 0.5
        moved = np.any(cand != theta, axis=1)
        # a row that did not move leaves: its cand is its theta, bit for
        # bit, and so its f_cand is its f
        theta, f, R = cand, f_cand, R_cand
        live, theta, f, R, step = leave(moved)
    leave(np.zeros(live.size, bool))
    return out_theta, out_f, residual


def erm_solve(pclass, family, ts: TrainingSet,
              opts: ErmOptions = ErmOptions()) -> ErmResult:
    """Multi-start projected gradient descent on the empirical risk.

    Starts at the class center plus projected random points, all run in
    lock-step as one stack.  Gradients are analytic when the family
    provides them (Tikhonov), otherwise central finite differences.  Ties
    are broken by lowest objective, then by lexicographically smallest
    parameter vector.  The one-trial call of ``erm_solve_trials``.
    """
    return erm_solve_trials(pclass, family, [ts], [opts.seed], opts)[0]


def erm_solve_trials(pclass, family, training_sets, seeds,
                     opts: ErmOptions = ErmOptions()) -> list:
    """``erm_solve`` of T training sets of one size m, in lock-step.

    Trial t's starts are drawn from ``seeds[t]`` in place of
    ``opts.seed``, and the ``n_starts`` starts of every trial run as one
    (T n_starts, dim) stack whose row i reads the data of trial
    ``i // n_starts``.  Returns one ``ErmResult`` per trial, each bit for
    bit its own ``erm_solve``.  One trial reads its (m, n) batch as it is;
    several are gathered per row, so the caller bounds a stack with
    ``trial_groups``.  A ``ConvergenceError`` of any trial fails the stack.
    """
    k = max(1, opts.n_starts)
    starts = []
    for ts, seed in zip(training_sets, seeds, strict=True):
        if ts.m < 1:
            raise ConfigurationError("empty training set")
        rng = substream(seed, 101)
        starts += [pclass.center] + [pclass.sample(rng) for _ in range(k - 1)]
    if len(training_sets) == 1:
        X, Y = training_sets[0].x, training_sets[0].y
    else:
        X = np.stack([ts.x for ts in training_sets])
        Y = np.stack([ts.y for ts in training_sets])
    risk, grad = _risk_and_grad_factory(family, pclass, X, Y, k)
    thetas, fs, residuals = _projected_gradient(np.array(starts), risk, grad,
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


def trial_groups(n_trials: int, m: int, opts: ErmOptions) -> list:
    """Slices of n_trials trials on m rows, each a stack of at most
    ``TRIAL_STACK_ROWS`` (theta, row) pairs, or one trial when its own
    starts exceed that."""
    return theta_groups(n_trials, max(1, opts.n_starts) * m, TRIAL_STACK_ROWS)


def optimal_target_proxy(pclass, family, dist: ProblemDistribution,
                         proxy_m: int, seed: int, x_eval, y_eval,
                         opts: ErmOptions = ErmOptions()) -> tuple:
    """ERM on a proxy sample standing in for the exact expected-loss argmin.

    The fit is repeated from a second seed, and the two candidates' mean
    losses on the evaluation sample (x_eval, y_eval) must agree within the
    first one's 95% half-width; otherwise the proxy is declared unstable.
    Returns the first fit and its per-sample losses on that sample.
    """
    thetas = [erm_solve(pclass, family, draw_training_set(dist, proxy_m, s),
                        opts).theta for s in (seed, seed + 1)]
    losses = [_batch_losses(family, t, x_eval, y_eval) for t in thetas]
    (la, halfwidth), (lb, _) = map(_mean_halfwidth, losses)
    if abs(la - lb) > max(halfwidth, 1e-12):
        raise ConvergenceError(
            "optimal-target proxy unstable across seeds: "
            f"|{la:.6g} - {lb:.6g}| > {halfwidth:.3g}")
    return thetas[0], losses[0]
