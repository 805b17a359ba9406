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

An affine family (alpha = 1 with an ``affine_map``, R_theta(y) = G y + c)
reads its data only through their first and second moments (``_Moments``):
its ERM risk, gradient and sample error are quadratic forms in G and c,
independent of m.  The other families evaluate per sample, the reference
path.  Either way the line search decides on the risk change computed in
difference form, not on the difference of two rounded risk levels.
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


def affine_moments(family) -> bool:
    """Whether ``family`` fits and evaluates on data moments: its
    reconstruction is the affine map G y + c (alpha = 1)."""
    return family.alpha == 1.0 and hasattr(family, "affine_map")


def _affine_rows(family, theta):
    """V = [G c]^T of theta's affine map, (..., n_y + 1, n_x), so that
    R_theta(y) = (y, 1) V."""
    G, c = family.affine_map(theta)
    return np.concatenate([np.swapaxes(G, -1, -2), c[..., None, :]], axis=-2)


def _flat_dot(A, B):
    """<A, B> of each (..., a, b) slice, one BLAS dot per slice."""
    return _stacked_dot(A.reshape(A.shape[:-2] + (-1,)),
                        B.reshape(B.shape[:-2] + (-1,)))


@dataclass(frozen=True)
class _Moments:
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
        """The moments of (m, n) data, or of each trial of (T, m, n) data
        (each bit for bit its own trial's)."""
        if X.ndim == 3:
            return cls(*map(np.stack, zip(*(
                (mo.S, mo.C, mo.xx) for mo in map(cls.of, X, Y)))))
        m = len(X)
        Yt = np.concatenate([Y, np.ones((m, 1))], axis=1)
        return cls(Yt.T @ Yt / m, Yt.T @ X / m, np.vdot(X, X) / m)

    def take(self, trials) -> "_Moments":
        return _Moments(self.S[trials], self.C[trials], self.xx[trials])

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
    """The empirical risk, its gradient and its change on a (k, dim) stack
    of thetas.

    X and Y hold one training set's (m, n) data, which every theta reads,
    or the (T, m, n) data of T trials, of which row i of the ERM stack
    reads trial ``i // n_starts``.  ``risk(thetas, rows)`` returns the k
    risks at the stack rows ``rows`` and the thetas' states: their affine
    maps V (``_affine_rows``) for an affine family, which reads only the
    data moments, else their (k, m, n_x) reconstructions.
    ``grad(thetas, states, rows)`` returns the (k, dim) gradients, reusing
    the states: analytic (``risk_gradient``) for an affine family, else
    central differences.  ``change(states_c, states, rows)`` returns the
    k changes L(theta_c) - L(theta) in difference form.  Each row equals
    its one-row stack on its own trial's (m, n) data bit for bit.
    """
    if affine_moments(family):
        moments = _Moments.of(X, Y)

        def at(rows):
            return moments if X.ndim == 2 else moments.take(rows // n_starts)

        def risk(thetas, rows):
            V = _affine_rows(family, thetas)
            return at(rows).risk(V), V

        def grad(thetas, V, rows):
            mo = at(rows)
            return family.risk_gradient(thetas, V, mo.S, mo.C)

        def change(V_c, V, rows):
            return at(rows).change(V_c, V)
        return risk, grad, change

    def data(rows):
        if X.ndim == 2:
            return X, Y
        trials = rows // n_starts
        return X[trials], Y[trials]

    def risk(thetas, rows):
        X_rows, Y_rows = data(rows)
        R = family.reconstruct_batch(thetas, Y_rows)
        return _losses(R, X_rows).mean(axis=-1), R

    def change(R_c, R, rows):
        # 1/2 ||r_c - x||^2 - 1/2 ||r - x||^2 = 1/2 (r_c - r).(r_c + r - 2x)
        D = R_c - R
        D *= R_c + R - 2.0 * data(rows)[0]
        return 0.5 * np.sum(D, axis=-1).mean(axis=-1)

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
    (T n_starts, dim) stack whose row i reads the data of trial
    ``i // n_starts``.  Returns one ``ErmResult`` per trial, each bit for
    bit its own ``erm_solve``.  One trial reads its (m, n) batch as it is;
    several are gathered per row (their moments, for an affine family), so
    the caller bounds a stack with ``trial_groups``.  A
    ``ConvergenceError`` of any trial fails the stack.
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
    objective = _risk_and_grad_factory(family, pclass, X, Y, k)
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


def excess_loss(family, x_eval, y_eval, theta_star, per_star):
    """``loss(theta)``: (L(theta), L(theta) - L(theta_star)) on the
    evaluation sample (x_eval, y_eval), on which theta_star has the
    per-sample losses ``per_star``.

    For an affine family both are quadratic forms on the sample's moments,
    the excess in difference form; otherwise they are means of per-sample
    losses.
    """
    if affine_moments(family):
        moments = _Moments.of(x_eval, y_eval)
        V_star = _affine_rows(family, theta_star)

        def loss(theta):
            V = _affine_rows(family, theta)
            return float(moments.risk(V)), float(moments.change(V, V_star))
        return loss

    def loss(theta):
        per = _batch_losses(family, theta, x_eval, y_eval)
        return float(per.mean()), float((per - per_star).mean())
    return loss
