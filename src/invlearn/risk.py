"""Quadratic loss stack and empirical risk minimization.

The expected loss of a parametric reconstructor is estimated by Monte
Carlo; the empirical target comes from projected gradient descent with
multi-start; the optimal target is proxied by ERM on a much larger sample,
gated by a second fit from another seed.  The sample error L(theta_hat) -
L(theta_star) itself is measured by the rate experiment, on one shared
Monte Carlo sample so that the difference cancels common noise; the
proxy's gate and theta_star's losses read that same sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .stochastics import (ProblemDistribution, TrainingSet,
                          draw_training_set, substream)

FD_STEP_REL = 1e-5  # central-difference step, relative to the class diameter
ERM_TOL = 1e-8  # projected-gradient residual at which an ERM start has converged


def _losses(R, X) -> np.ndarray:
    """Per-row quadratic losses 1/2 ||r_j - x_j||^2 of reconstructions R.

    R is never written to: the ERM memo holds it."""
    D = R - X
    D *= D
    return 0.5 * np.sum(D, axis=1)


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


def _risk_and_grad_factory(family, pclass, X, Y):
    # single-entry memo of the latest reconstruction: the gradient is always
    # taken at the point whose risk was just evaluated, so it reuses that
    # solve; local to one ERM run
    last = {}

    def reconstruction(theta):
        key = theta.tobytes()
        if last.get("key") != key:
            last.clear()  # release the old batch before solving the new one
            last.update(key=key, R=family.reconstruct_batch(theta, Y))
        return last["R"]

    def risk(theta):
        return float(_losses(reconstruction(theta), X).mean())

    if hasattr(family, "risk_gradient"):
        def grad(theta):
            return family.risk_gradient(theta, X, Y, R=reconstruction(theta))
    else:
        step = FD_STEP_REL * pclass.diameter

        def grad(theta):
            g = np.empty(theta.size)
            for i in range(theta.size):
                e = np.zeros(theta.size)
                e[i] = step
                g[i] = (risk(theta + e) - risk(theta - e)) / (2 * step)
            return g
    return risk, grad


def _projected_gradient(theta0, risk, grad, pclass, opts):
    theta = pclass.project(np.asarray(theta0, float))
    f = risk(theta)
    step = 1.0
    residual = np.inf
    for _ in range(opts.max_iter):
        g = grad(theta)
        # projected-gradient residual at unit reference step
        residual = float(np.linalg.norm(theta - pclass.project(theta - g)))
        if residual <= ERM_TOL:
            break
        step = min(step * 2.0, 1e8)
        while True:
            cand = pclass.project(theta - step * g)
            move = cand - theta
            f_cand = risk(cand)
            if f_cand <= f + float(g @ move) + \
                    0.5 / step * float(move @ move) or step < 1e-14:
                break
            step *= 0.5
        if np.array_equal(cand, theta):
            break
        theta, f = cand, f_cand
    return theta, f, residual


def erm_solve(pclass, family, ts: TrainingSet,
              opts: ErmOptions = ErmOptions()) -> ErmResult:
    """Multi-start projected gradient descent on the empirical risk.

    Starts at the class center plus projected random points.  Gradients are
    analytic when the family provides them (Tikhonov), otherwise central
    finite differences.  Ties are broken by lowest objective, then by
    lexicographically smallest parameter vector.
    """
    if ts.m < 1:
        raise ConfigurationError("empty training set")
    risk, grad = _risk_and_grad_factory(family, pclass, ts.x, ts.y)
    starts = [pclass.center]
    rng = substream(opts.seed, 101)
    starts += [pclass.sample(rng) for _ in range(max(0, opts.n_starts - 1))]
    best = None
    for theta0 in starts:
        theta, f, residual = _projected_gradient(theta0, risk, grad, pclass, opts)
        cand = (f, tuple(theta), residual)
        if best is None or cand < best:
            best = cand
    f, theta_t, residual = best
    return ErmResult(theta=np.asarray(theta_t), objective=f,
                     residual=residual, converged=residual <= ERM_TOL)


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
