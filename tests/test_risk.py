"""Tests for the loss stack, ERM, and the optimal-target proxy."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlearn import (ElasticNetFamily, ErmOptions, FixedPointFamily,
                      ForwardOperator, GaussianSpec, ParamClass,
                      ProblemDistribution, TikhonovFamily, draw_training_set,
                      empirical_risk, erm_solve, expected_loss_mc, mmse_affine,
                      optimal_target_proxy)
from invlearn import hypotheses, risk
from invlearn.errors import ConfigurationError, ConvergenceError
from invlearn.risk import (ERM_TOL, _batch_losses, _Moments,
                           _projected_gradient, _risk_and_grad_factory,
                           erm_solve_trials)
from invlearn.stochastics import TrainingSet, substream


def scalar_setup(noise_var=1.0):
    A = ForwardOperator.identity(1)
    noise = GaussianSpec.iso(1, noise_var)
    dist = ProblemDistribution(prior=GaussianSpec.iso(1, 1.0), noise=noise,
                               forward=A)
    fam = TikhonovFamily(A, noise, structure="scale")
    return A, noise, dist, fam


def proxy(pc, fam, dist, proxy_m, seed):
    """The proxy's theta; its gate reads the 100 000 rows that
    ``expected_loss_mc(..., seed + 2)`` draws."""
    x_eval, y_eval = dist.sample(substream(seed + 2, 1), 100_000)
    return optimal_target_proxy(pc, fam, dist, proxy_m, seed, x_eval, y_eval)


def one_pair_risk(x, y, theta, fam):
    """Empirical risk on the one-pair training set {(x, y)}."""
    ts = TrainingSet(x=np.array([x], float), y=np.array([y], float), seed=0)
    return empirical_risk(ts, np.asarray(theta, float), fam)


# -- one-pair loss ---------------------------------------------------------

def test_loss_perfect_reconstruction():
    A, noise, dist, fam = scalar_setup(noise_var=1.0)
    # scale family with b=0 is unregularized: R(y) = y; feed x = y
    assert one_pair_risk([2.0], [2.0], [0.0], fam) == pytest.approx(0.0)


def test_loss_zero_estimator():
    A = ForwardOperator.identity(2)
    fam = TikhonovFamily(A, GaussianSpec.iso(2, 1.0), structure="scale")
    # large b drives the reconstruction to h = 0
    val = one_pair_risk([2.0, 0.0], [0.3, 0.1], [1e6], fam)
    assert val == pytest.approx(0.5 * 4.0, abs=1e-6)


def test_loss_scalar_tikhonov_value():
    A, noise, dist, fam = scalar_setup(noise_var=1.0)
    # b=1, sigma=1: R(y) = y/3; loss at (x=1, y=2) is (2/3-1)^2/2 = 1/18
    val = one_pair_risk([1.0], [2.0], [1.0], fam)
    assert val == pytest.approx(1.0 / 18.0, abs=1e-12)


# -- empirical risk --------------------------------------------------------

def test_empirical_risk_identical_pairs():
    A, noise, dist, fam = scalar_setup()
    x = np.full((5, 1), 1.0)
    y = np.full((5, 1), 2.0)
    ts = TrainingSet(x=x, y=y, seed=0)
    single = one_pair_risk([1.0], [2.0], [1.0], fam)
    assert empirical_risk(ts, np.array([1.0]), fam) == pytest.approx(single)


def test_empirical_risk_concatenation_average():
    A, noise, dist, fam = scalar_setup()
    rng = np.random.default_rng(0)
    xa, ya = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    xb, yb = rng.standard_normal((4, 1)), rng.standard_normal((4, 1))
    theta = np.array([0.7])
    ra = empirical_risk(TrainingSet(xa, ya, 0), theta, fam)
    rb = empirical_risk(TrainingSet(xb, yb, 0), theta, fam)
    rc = empirical_risk(TrainingSet(np.vstack([xa, xb]),
                                    np.vstack([ya, yb]), 0), theta, fam)
    assert rc == pytest.approx(0.5 * (ra + rb))


def test_empirical_risk_three_term_hand_check():
    A, noise, dist, fam = scalar_setup()
    # scale family with 2b^2 = 1 gives R(y) = y/2
    b = np.sqrt(0.5)
    pairs = [(1.0, 2.0), (0.0, 1.0), (-1.0, 0.5)]
    expected = np.mean([0.5 * (y / 2 - x) ** 2 for x, y in pairs])
    ts = TrainingSet(np.array([[x] for x, _ in pairs]),
                     np.array([[y] for _, y in pairs]), 0)
    assert empirical_risk(ts, np.array([b]), fam) == pytest.approx(expected)


def test_empirical_risk_empty_rejected():
    A, noise, dist, fam = scalar_setup()
    ts = TrainingSet(np.empty((0, 1)), np.empty((0, 1)), 0)
    with pytest.raises(ConfigurationError):
        empirical_risk(ts, np.array([1.0]), fam)
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    with pytest.raises(ConfigurationError, match="empty training set"):
        erm_solve_trials(pc, fam, [ts], [0])


# -- expected_loss_mc ------------------------------------------------------

def test_expected_loss_zero_noise_inverse():
    A = ForwardOperator.identity(1)
    noise = GaussianSpec.iso(1, 0.0)
    dist = ProblemDistribution(prior=GaussianSpec.iso(1, 1.0), noise=noise,
                               forward=A)
    fam = TikhonovFamily(A, GaussianSpec.iso(1, 1.0), structure="scale")
    est = expected_loss_mc(dist, np.array([0.0]), fam, n_mc=1000, seed=0)
    assert est.estimate == pytest.approx(0.0, abs=1e-12)


def test_expected_loss_mmse_value():
    A, noise, dist, fam = scalar_setup()
    b = np.sqrt(0.5)  # R(y) = y/2, the MMSE map
    est = expected_loss_mc(dist, np.array([b]), fam, n_mc=200_000, seed=1)
    assert abs(est.estimate - 0.25) <= est.halfwidth


def test_expected_loss_halfwidth_clt_scaling():
    A, noise, dist, fam = scalar_setup()
    theta = np.array([0.3])
    h1 = expected_loss_mc(dist, theta, fam, n_mc=50_000, seed=2).halfwidth
    h2 = expected_loss_mc(dist, theta, fam, n_mc=100_000, seed=2).halfwidth
    assert h1 / h2 == pytest.approx(np.sqrt(2.0), rel=0.10)


def test_expected_loss_requires_min_samples():
    A, noise, dist, fam = scalar_setup()
    with pytest.raises(ConfigurationError):
        expected_loss_mc(dist, np.array([0.3]), fam, n_mc=50, seed=0)


# -- erm_solve -------------------------------------------------------------

def test_erm_noiseless_prefers_no_regularization():
    A = ForwardOperator.identity(1)
    noise_model = GaussianSpec.iso(1, 1.0)  # model used by the family
    dist = ProblemDistribution(prior=GaussianSpec.iso(1, 1.0),
                               noise=GaussianSpec.iso(1, 0.0), forward=A)
    fam = TikhonovFamily(A, noise_model, structure="scale")
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 200, seed=3)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=0))
    assert abs(res.theta[0]) <= 1e-3
    assert res.objective <= 1e-6


def test_erm_matches_grid_search():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 500, seed=4)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=0))
    grid = np.linspace(-1.0, 1.0, 20001)
    risks = [empirical_risk(ts, np.array([b]), fam) for b in grid]
    b_grid = grid[int(np.argmin(risks))]
    assert abs(abs(res.theta[0]) - abs(b_grid)) <= 1e-4
    assert res.converged


def test_erm_singleton_class():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=0.0)
    ts = draw_training_set(dist, 50, seed=5)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=0))
    assert res.theta[0] == 0.0


def test_erm_permutation_invariant():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 300, seed=6)
    rng = np.random.default_rng(0)
    perm = rng.permutation(300)
    ts2 = TrainingSet(ts.x[perm], ts.y[perm], ts.seed)
    r1 = erm_solve(pc, fam, ts, ErmOptions(seed=0))
    r2 = erm_solve(pc, fam, ts2, ErmOptions(seed=0))
    assert np.allclose(r1.theta, r2.theta, atol=1e-10)


def vector_setup(structure):
    rng = np.random.default_rng(12)
    A = ForwardOperator.from_matrix(rng.standard_normal((2, 2)))
    noise = GaussianSpec.iso(2, 0.5)
    dist = ProblemDistribution(prior=GaussianSpec.iso(2, 1.0), noise=noise,
                               forward=A)
    fam = TikhonovFamily(A, noise, structure=structure)
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=2.0)
    return dist, fam, pc


@pytest.mark.parametrize("structure", ["scale", "diagonal", "full"])
def test_erm_risk_and_grad_match_reference(structure):
    # each row of the stacked ERM objective is the moment-form risk, affine
    # map and gradient of its theta, bit for bit, whatever stack it comes
    # in; the risk is the per-sample empirical risk up to rounding
    dist, fam, pc = vector_setup(structure)
    ts = draw_training_set(dist, 40, seed=13)
    risk, grad, _ = _risk_and_grad_factory(fam, pc, [ts])
    moments = _Moments.of(ts.x, ts.y)
    rng = np.random.default_rng(14)
    t1, t2 = pc.sample(rng), pc.sample(rng)
    for stack in ([t1], [t1, t2], [t2, t1, t2]):
        thetas = np.array(stack)
        rows = np.arange(len(stack))
        f, V = risk(thetas, rows)
        g = grad(thetas, V, rows)
        assert f.shape == (len(stack),) and g.shape == thetas.shape
        for theta, f_row, V_row, g_row in zip(thetas, f, V, g):
            assert f_row == moments.risk(fam.affine_map(theta))
            assert f_row == pytest.approx(empirical_risk(ts, theta, fam),
                                          rel=1e-13)
            np.testing.assert_array_equal(V_row, fam.affine_map(theta))
            np.testing.assert_array_equal(
                g_row, fam.risk_gradient(theta, V_row, moments.S, moments.C))


def test_erm_reconstructs_each_theta_once(monkeypatch):
    # one solve per distinct theta row: the line search's accepted risk is
    # kept, the gradient and the risk change reuse the affine maps the risk
    # just computed, and the starts share their affine_map calls
    dist, fam, pc = vector_setup("diagonal")
    ts = draw_training_set(dist, 60, seed=15)
    rows, calls, solves = [], [], []
    affine_map = fam.affine_map
    solve_normal = hypotheses._solve_normal

    def counting_affine_map(theta):
        calls.append(1)
        rows.extend(t.tobytes() for t in np.atleast_2d(theta))
        return affine_map(theta)

    def counting_solve(M, rhs):
        # the one checked solve of affine_map, per theta row
        solves.append(int(np.prod(M.shape[:-2])))
        return solve_normal(M, rhs)

    monkeypatch.setattr(fam, "affine_map", counting_affine_map)
    monkeypatch.setattr(hypotheses, "_solve_normal", counting_solve)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=0, n_starts=3))
    assert res.converged
    assert len(rows) > 30
    assert len(rows) == len(set(rows))
    assert sum(solves) == len(rows)
    assert len(calls) < len(rows)


def test_erm_on_a_sobolev_ellipse_ends_at_a_kkt_point():
    # diagonal Tikhonov, theta = (h, b), on the class h^2 + (2 b)^2 <= 1/4:
    # with a radial rescaling in place of the projection, the fit stopped
    # "converged" where -grad L is parallel to theta, at (0.0117, 0.2499)
    # with risk 0.2158060.  It must end where -grad L = mu W^2 theta with
    # mu >= 0, at a risk no higher than the best of a polar grid over the
    # ellipse (0.2157506 at (0.0439, 0.2490) on a fine grid)
    A = ForwardOperator.identity(1)
    noise = GaussianSpec.iso(1, 0.5)
    dist = ProblemDistribution(
        prior=GaussianSpec(mean=np.array([2.0]),
                           covariance_eigenvalues=np.array([1.0])),
        noise=noise, forward=A)
    fam = TikhonovFamily(A, noise, structure="diagonal")
    pc = ParamClass(kind="sobolev_ball", dim=2, radius=0.5, smoothness=1.0)
    ts = draw_training_set(dist, 400, seed=3)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=1))
    assert res.converged
    moments = _Moments.of(ts.x, ts.y)
    g = fam.risk_gradient(res.theta, fam.affine_map(res.theta), moments.S,
                          moments.C)
    normal = np.array([1.0, 4.0]) * res.theta  # W^2 theta
    mu = -(g @ normal) / (normal @ normal)
    assert mu >= 0
    assert np.linalg.norm(g + mu * normal) <= 1e-6
    phi, rho = np.meshgrid(np.linspace(0, 2 * np.pi, 1001),
                           np.linspace(0, 1, 101))
    grid = np.stack([0.5 * rho * np.cos(phi), 0.25 * rho * np.sin(phi)],
                    axis=-1).reshape(-1, 2)
    grid = grid[[pc.contains(t, tol=0.0) for t in grid]]
    assert res.objective <= moments.risk(fam.affine_map(grid)).min()


# -- lock-step multi-start: each row is its own run ------------------------

def one_start_reference(theta0, risk, grad, change, pclass, opts):
    """Projected gradient descent from one start, one theta at a time, with
    the Armijo test on the risk change in difference form: the reference
    the lock-step loop must reproduce."""
    theta = pclass.project(theta0)
    row = np.zeros(1, int)
    (f,), R = risk(theta[None], row)
    step, residual = 1.0, np.inf
    for _ in range(opts.max_iter):
        g = grad(theta[None], R, row)[0]
        residual = float(np.linalg.norm(theta - pclass.project(theta - g)))
        if residual <= ERM_TOL:
            break
        step = min(step * 2.0, 1e8)
        while True:
            cand = pclass.project(theta - step * g)
            move = cand - theta
            (f_cand,), R_cand = risk(cand[None], row)
            if change(R_cand, R, row)[0] <= float(g @ move) + \
                    0.5 / step * float(move @ move) or step < 1e-14:
                break
            step *= 0.5
        if np.array_equal(cand, theta):
            break
        theta, f, R = cand, f_cand, R_cand
    return theta, f, residual


def assert_rows_run_alone(fam, pc, ts, starts, opts):
    """Every row of the lock-step run from ``starts`` returns the theta,
    objective and residual of its one-row run and of the one-start
    reference, bit for bit.  Returns the number of risk evaluations of each
    one-row run."""
    risk, grad, change = _risk_and_grad_factory(fam, pc, [ts])
    thetas, f, residual = _projected_gradient(starts, risk, grad, change, pc,
                                              opts)
    evaluations = []
    for i, start in enumerate(starts):
        calls = []

        def counting_risk(t, rows):
            calls.append(1)
            return risk(t, rows)

        solo = _projected_gradient(start[None], counting_risk, grad, change,
                                   pc, opts)
        ref = one_start_reference(start, risk, grad, change, pc, opts)
        for run in ((a[0] for a in solo), ref):
            theta_run, f_run, residual_run = run
            np.testing.assert_array_equal(thetas[i], theta_run)
            assert f[i] == f_run
            assert residual[i] == residual_run
        evaluations.append(len(calls))
    return evaluations


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       structure=st.sampled_from(["scale", "diagonal", "full"]),
       shape=st.sampled_from([(2, 2), (3, 2), (3, 3)]),
       k=st.integers(1, 4), max_iter=st.sampled_from([0, 1, 4, 60]))
def test_lockstep_rows_equal_one_row_runs_tikhonov(seed, structure, shape, k,
                                                   max_iter):
    # random starts, one on the ball boundary, the ball's center, and one
    # at the last theta of a one-row run.  Every Tikhonov risk gradient
    # term carries a factor B, so it vanishes at the center (B = 0): that
    # row stops at its first residual while the others go on.  The one-row
    # run need not converge in its 500 iterations on an ill-conditioned
    # draw; when it does, its row stops at once too.
    rng = np.random.default_rng(seed)
    n_y, n_x = shape
    A = ForwardOperator.from_matrix(rng.standard_normal(shape))
    noise = GaussianSpec.iso(n_y, 0.5)
    dist = ProblemDistribution(prior=GaussianSpec.iso(n_x, 1.0), noise=noise,
                               forward=A)
    fam = TikhonovFamily(A, noise, structure=structure)
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0)
    ts = draw_training_set(dist, 24, seed=seed % 1000)
    opts = ErmOptions(max_iter=max_iter)
    z = rng.standard_normal(fam.dim)
    starts = [z / np.linalg.norm(z)] + [pc.sample(rng) for _ in range(k)]
    first = _projected_gradient(
        np.array(starts[1:2]), *_risk_and_grad_factory(fam, pc, [ts]),
        pc, ErmOptions())
    starts += [pc.center, first[0][0]]
    assert abs(np.linalg.norm(starts[0]) - 1.0) <= 1e-15
    evaluations = assert_rows_run_alone(fam, pc, ts, np.array(starts),
                                        opts)
    if max_iter > 0:
        assert evaluations[-2] == 1  # the center stops on its first risk
    if max_iter > 0 and first[2][0] <= ERM_TOL:
        # the converged start stops at its first residual, on its first risk
        assert evaluations[-1] == 1
    if max_iter == 60:
        assert len(set(evaluations)) > 1  # rows stopped at different points


def fd_problem(kind):
    """A finite-difference family (alpha = 0.5 Elastic-Net or fixed point)
    on a 2-d power-decay operator, its unit ball and its data law."""
    A = ForwardOperator.power_decay(2, 1.0)
    dist = ProblemDistribution(prior=GaussianSpec.iso(2, 1.0),
                               noise=GaussianSpec.iso(2, 0.01), forward=A)
    fam = FixedPointFamily(A, 0.5) if kind == "fixed_point" else \
        ElasticNetFamily(A, alpha=0.5, eta=0.5, structure="diagonal")
    return fam, ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0), \
        dist


def fd_setup(kind, m, seed):
    """``fd_problem`` with a training set of size m."""
    fam, pc, dist = fd_problem(kind)
    return fam, pc, draw_training_set(dist, m, seed=seed)


@pytest.mark.parametrize("kind", ["fixed_point", "elastic_net"])
def test_per_sample_risk_change_is_the_risk_difference(kind):
    # 1/2 mean((R_c - R).(R_c + R - 2X)) of every row of a stack, against
    # f_c - f, on the one training set a per-sample family fits; it fits
    # no stack of two
    fam, pc, dist = fd_problem(kind)
    rng = np.random.default_rng(22)
    sets = [draw_training_set(dist, 5, seed=s) for s in (23, 24)]
    thetas = np.array([pc.sample(rng) for _ in range(4)])
    thetas_c = pc.project(thetas + 1e-3 * rng.standard_normal(thetas.shape))
    rows = np.arange(4)
    risk, _, change = _risk_and_grad_factory(fam, pc, sets[:1], n_starts=2)
    (f, R), (f_c, R_c) = risk(thetas, rows), risk(thetas_c, rows)
    np.testing.assert_allclose(change(R_c, R, rows), f_c - f,
                               rtol=0, atol=1e-15 * (1 + f.max()))
    with pytest.raises(ConfigurationError, match="one training set"):
        _risk_and_grad_factory(fam, pc, sets, n_starts=2)


@pytest.mark.parametrize("kind", ["fixed_point", "elastic_net"])
def test_lockstep_rows_equal_one_row_runs_finite_differences(kind):
    # the finite-difference path, with a 3-iteration cap
    fam, pc, ts = fd_setup(kind, 4, seed=16)
    rng = np.random.default_rng(17)
    z = rng.standard_normal(fam.dim)
    starts = np.array([pc.center, z / np.linalg.norm(z), pc.sample(rng)])
    assert_rows_run_alone(fam, pc, ts, starts, ErmOptions(max_iter=3))


def fd_gradient_reference(risk, thetas, step):
    """Central differences one coordinate at a time, two risk calls per
    coordinate: the reference of the stacked finite-difference gradient."""
    g = np.empty(thetas.shape)
    rows = np.arange(len(thetas))
    for i in range(thetas.shape[1]):
        e = np.zeros(thetas.shape[1])
        e[i] = step
        g[:, i] = (risk(thetas + e, rows)[0]
                   - risk(thetas - e, rows)[0]) / (2 * step)
    return g


@pytest.mark.parametrize("kind", ["fixed_point", "elastic_net"])
def test_stacked_fd_gradient_equals_per_coordinate_loop(kind):
    fam, pc, ts = fd_setup(kind, 6, seed=18)
    risk_fn, grad, _ = _risk_and_grad_factory(fam, pc, [ts])
    rng = np.random.default_rng(19)
    step = risk.FD_STEP_REL * pc.diameter
    for k in (1, 3):
        thetas = np.array([pc.sample(rng) for _ in range(k)])
        np.testing.assert_array_equal(
            grad(thetas, None, np.arange(k)),
            fd_gradient_reference(risk_fn, thetas, step))


@pytest.mark.parametrize("kind", ["fixed_point", "elastic_net"])
def test_fd_gradient_is_one_reconstruct_batch_call_per_group(monkeypatch,
                                                             kind):
    # below the row limit the 2 k dim shifted thetas of k live starts are
    # one reconstruct_batch call; above it, one call per group of at most
    # STACK_ROWS (theta, row) pairs, with the same gradient
    m, k = 5, 3
    fam, pc, ts = fd_setup(kind, m, seed=18)
    grad = _risk_and_grad_factory(fam, pc, [ts])[1]
    thetas = np.array([pc.sample(np.random.default_rng(i)) for i in range(k)])
    rows = np.arange(k)
    calls = []
    reconstruct_batch = fam.reconstruct_batch

    def counting_reconstruct_batch(theta, Y, **solver):
        calls.append(len(theta))
        return reconstruct_batch(theta, Y, **solver)

    g = grad(thetas, None, rows)
    monkeypatch.setattr(fam, "reconstruct_batch", counting_reconstruct_batch)
    np.testing.assert_array_equal(grad(thetas, None, rows), g)
    assert calls == [2 * k * fam.dim]
    calls.clear()
    monkeypatch.setattr(risk, "STACK_ROWS", 4 * m)
    np.testing.assert_array_equal(grad(thetas, None, rows), g)
    n = 2 * k * fam.dim
    assert calls == [4] * (n // 4) + [n % 4] * (n % 4 > 0)


def test_theta_groups_at_bench_and_proxy_sizes():
    # the finite-difference stack of 2 starts x 6 coordinates x 2 signs on
    # 8 rows is one group; at proxy_m 409 600 every theta is alone
    assert len(risk.theta_groups(24, 8)) == 1
    assert risk.theta_groups(3, 409_600) == [slice(0, 1), slice(1, 2),
                                             slice(2, 3)]


# -- trial-stacked ERM: each trial is its own erm_solve -------------------

def assert_trials_fit_alone(pc, fam, dist, m, n_trials, opts, seed):
    """Fitted in the stacks ``trial_groups`` makes -- for an affine family
    under a budget of two trials, of which an odd count ends on a one-trial
    stack; for any other family, one trial each -- every trial returns the
    theta, objective, residual and convergence flag of its own
    ``erm_solve``, bit for bit."""
    sets = [draw_training_set(dist, m, seed + t) for t in range(n_trials)]
    seeds = [seed + 100 + t for t in range(n_trials)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risk, "TRIAL_STACK_ROWS", 2 * max(1, opts.n_starts))
        groups = risk.trial_groups(n_trials, fam, opts)
    per_stack = 2 if fam.affine else 1
    assert len(groups) == -(-n_trials // per_stack) >= 2
    fits = [fit for g in groups
            for fit in erm_solve_trials(pc, fam, sets[g], seeds[g], opts)]
    assert len(fits) == n_trials
    for ts, s, fit in zip(sets, seeds, fits):
        solo = erm_solve(pc, fam, ts, dataclasses.replace(opts, seed=s))
        np.testing.assert_array_equal(fit.theta, solo.theta)
        assert fit.objective == solo.objective
        assert fit.residual == solo.residual
        assert fit.converged == solo.converged


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["scale", "diagonal", "full", "elastic_net"]),
       shape=st.sampled_from([(1, 1), (2, 2), (3, 2)]),
       m=st.sampled_from([1, 5, 16]), n_trials=st.integers(3, 5),
       n_starts=st.integers(1, 3), max_iter=st.sampled_from([1, 4, 40]))
def test_trial_stack_equals_one_erm_solve_per_trial(seed, kind, shape, m,
                                                    n_trials, n_starts,
                                                    max_iter):
    # Tikhonov with its analytic gradient, and alpha = 1 Elastic-Net,
    # affine but with the finite-difference gradient
    rng = np.random.default_rng(seed)
    n_y, n_x = shape
    A = ForwardOperator.from_matrix(rng.standard_normal(shape))
    noise = GaussianSpec.iso(n_y, 0.5)
    dist = ProblemDistribution(prior=GaussianSpec.iso(n_x, 1.0), noise=noise,
                               forward=A)
    fam = ElasticNetFamily(A, alpha=1.0, eta=0.5, structure="diagonal") \
        if kind == "elastic_net" else TikhonovFamily(A, noise, structure=kind)
    pc = ParamClass(kind="euclidean_ball", dim=fam.dim, radius=1.0)
    assert_trials_fit_alone(pc, fam, dist, m, n_trials,
                            ErmOptions(max_iter=max_iter, n_starts=n_starts),
                            seed % 1000)


@pytest.mark.parametrize("kind", ["elastic_net", "fixed_point"])
def test_trial_stack_equals_one_erm_solve_per_trial_iterative(kind):
    # the alpha = 0.5 Elastic-Net and fixed-point families fit one trial
    # per stack, with a 3-iteration cap; two training sets in one stack
    # are a configuration error
    fam, pc, dist = fd_problem(kind)
    opts = ErmOptions(max_iter=3, n_starts=2)
    assert_trials_fit_alone(pc, fam, dist, 3, 3, opts, 21)
    sets = [draw_training_set(dist, 3, s) for s in (21, 22)]
    with pytest.raises(ConfigurationError, match="one training set"):
        erm_solve_trials(pc, fam, sets, [1, 2], opts)


# -- the affine flag ---------------------------------------------------------

def test_affine_flag_of_each_family():
    A = ForwardOperator.power_decay(2, 1.0)
    noise = GaussianSpec.iso(2, 0.5)
    for structure in ("scale", "diagonal", "full"):
        assert TikhonovFamily(A, noise, structure=structure).affine
    assert ElasticNetFamily(A, alpha=1.0).affine
    assert not ElasticNetFamily(A, alpha=0.5).affine
    assert not FixedPointFamily(A, 0.5).affine


class FixedPointWithAffineMap(FixedPointFamily):
    """A fixed-point family (alpha 1.0) that also has an ``affine_map``:
    neither makes it affine, so nothing may call that map."""

    def affine_map(self, theta):
        raise AssertionError("affine_map of a family that is not affine")


def test_only_the_affine_flag_selects_the_moment_path():
    fam, pc, dist = fd_problem("fixed_point")
    fam = FixedPointWithAffineMap(fam.op, fam.L_z)
    assert fam.alpha == 1.0 and not fam.affine
    ts = draw_training_set(dist, 5, seed=25)
    thetas = np.array([pc.sample(np.random.default_rng(i)) for i in range(3)])
    # the per-sample ERM objective: its states are the reconstructions
    f, R = _risk_and_grad_factory(fam, pc, [ts])[0](thetas, np.arange(3))
    assert R.shape == (3, 5, 2)
    np.testing.assert_array_equal(f, [empirical_risk(ts, t, fam)
                                      for t in thetas])
    # the rate experiment's loss and sample error on an evaluation sample:
    # the mean per-sample loss, and its change in difference form
    x_eval, y_eval = dist.sample(substream(26, 1), 200)
    risk_eval, _, change = _risk_and_grad_factory(
        fam, pc, [TrainingSet(x_eval, y_eval, 0)])
    f, R = risk_eval(thetas[:2], np.arange(2))
    per_star, per = (_batch_losses(fam, t, x_eval, y_eval) for t in thetas[:2])
    np.testing.assert_array_equal(f, [per_star.mean(), per.mean()])
    D = R[1] - R[0]
    assert change(R[1:], R[:1], np.arange(1)) == \
        0.5 * np.sum(D * (R[1] + R[0] - 2.0 * x_eval), axis=-1).mean()
    # one trial per ERM stack
    assert risk.trial_groups(3, fam, ErmOptions()) == [
        slice(0, 1), slice(1, 2), slice(2, 3)]


# -- optimal_target_proxy --------------------------------------------------

def test_proxy_recovers_mmse_weight():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    theta = proxy(pc, fam, dist, proxy_m=100_000, seed=7)
    # scale family: R(y) = y/(1 + 2b^2); MMSE weight 1/2 at 2b^2 = 1
    w = 1.0 / (1.0 + 2.0 * theta[0] ** 2)
    assert abs(w - 0.5) <= 0.01
    est = expected_loss_mc(dist, theta, fam, n_mc=200_000, seed=8)
    assert abs(est.estimate - 0.25) <= 3 * est.halfwidth


def test_proxy_singleton_class():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=0.0)
    theta = proxy(pc, fam, dist, proxy_m=10_000, seed=9)
    assert theta[0] == 0.0


def test_proxy_constrained_class_approximation_gap():
    A, noise, dist, fam = scalar_setup()
    # class excludes the optimum |b| = sqrt(1/2) ~ 0.707: radius 0.3
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=0.3)
    theta_star = proxy(pc, fam, dist, proxy_m=100_000, seed=10)
    assert abs(abs(theta_star[0]) - 0.3) <= 1e-6  # pinned to the boundary
    bayes = mmse_affine(A, dist.prior, dist.noise)
    l_star = expected_loss_mc(dist, theta_star, fam, 200_000, seed=11)
    # R(y) = y/1.18 against the MMSE y/2: a gap of 0.12, about 50 half-widths
    assert l_star.estimate - bayes.irreducible_error > 3 * l_star.halfwidth


def test_proxy_unstable_when_the_second_fit_differs(monkeypatch):
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    x_eval, y_eval = dist.sample(substream(42, 1), 20_000)
    fits = []

    def second_fit_unregularized(*args, **kwargs):
        res = erm_solve(*args, **kwargs)
        fits.append(res)
        # b = 0 is R(y) = y, loss 1/2 against the fit's 1/4
        return dataclasses.replace(res, theta=np.zeros(1)) \
            if len(fits) == 2 else res

    monkeypatch.setattr(risk, "erm_solve", second_fit_unregularized)
    with pytest.raises(ConvergenceError, match="unstable"):
        optimal_target_proxy(pc, fam, dist, 10_000, 43, x_eval, y_eval)
    assert len(fits) == 2
    # unpatched, the same two fits agree
    monkeypatch.undo()
    optimal_target_proxy(pc, fam, dist, 10_000, 43, x_eval, y_eval)



# -- the error split -------------------------------------------------------
# L(theta_hat) - L_Bayes = optimization + sample + approximation, each term
# measured with the empirical risk, the Monte Carlo loss and the MMSE oracle.

def test_decompose_zero_optimization_error():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 200, seed=12)
    theta_hat = erm_solve(pc, fam, ts, ErmOptions(seed=0)).theta
    grid_min = min(empirical_risk(ts, np.array([b]), fam)
                   for b in np.linspace(-1.0, 1.0, 401))
    # ERM reaches the class minimum of the empirical risk
    assert empirical_risk(ts, theta_hat, fam) <= grid_min + 1e-12


def test_decompose_consistency_at_large_m():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 100_000, seed=13)
    theta_hat = erm_solve(pc, fam, ts, ErmOptions(seed=0)).theta
    theta_star = proxy(pc, fam, dist, proxy_m=100_000, seed=14)
    l_hat = expected_loss_mc(dist, theta_hat, fam, 200_000, seed=15)
    l_star = expected_loss_mc(dist, theta_star, fam, 200_000, seed=15)
    bayes = mmse_affine(A, dist.prior, dist.noise)
    hw = max(l_hat.halfwidth, l_star.halfwidth)
    assert (empirical_risk(ts, theta_hat, fam)
            <= empirical_risk(ts, theta_star, fam) + 1e-12)
    assert abs(l_hat.estimate - l_star.estimate) <= 3 * hw + 1e-4
    assert abs(l_star.estimate - bayes.irreducible_error) <= 3 * hw + 1e-4
    assert bayes.irreducible_error == pytest.approx(0.25)


def test_decompose_singleton_sample_error_zero():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=0.0)
    ts = draw_training_set(dist, 50, seed=16)
    theta_hat = erm_solve(pc, fam, ts, ErmOptions(seed=0)).theta
    theta_star = proxy(pc, fam, dist, proxy_m=1000, seed=16)
    l_hat = expected_loss_mc(dist, theta_hat, fam, 10_000, seed=16)
    l_star = expected_loss_mc(dist, theta_star, fam, 10_000, seed=16)
    assert l_hat.estimate - l_star.estimate == 0.0
    # b = 0 is unregularized, R(y) = y: the loss is |noise|^2 / 2, mean 1/2
    assert abs(l_hat.estimate - 0.5) <= 3 * l_hat.halfwidth


# -- representativeness ----------------------------------------------------

def uniform_deviation(ts, fam, grid, dist, n_mc, seed):
    """max over the grid of |L_S(theta) - L(theta)|: how representative the
    training set is of the distribution, uniformly over the grid."""
    return max(abs(empirical_risk(ts, g, fam)
                   - expected_loss_mc(dist, g, fam, n_mc, seed).estimate)
               for g in grid)


def test_representativeness_small_at_large_m():
    A, noise, dist, fam = scalar_setup()
    ts = draw_training_set(dist, 100_000, seed=17)
    grid = [np.array([b]) for b in (-0.9, -0.5, 0.0, 0.5, 0.9)]
    worst = uniform_deviation(ts, fam, grid, dist, n_mc=200_000, seed=18)
    max_loss = max(expected_loss_mc(dist, g, fam, 10_000, seed=18).estimate
                   for g in grid)
    assert worst <= 0.05 * max_loss


def test_representativeness_singleton_grid():
    A, noise, dist, fam = scalar_setup()
    m = 1000
    ts = draw_training_set(dist, m, seed=19)
    theta = np.array([0.4])
    l_mc = expected_loss_mc(dist, theta, fam, 10_000, seed=20)
    # the per-pair loss spread, read back from the 95% half-width
    sigma = l_mc.halfwidth * np.sqrt(l_mc.n_mc) / 1.96
    dev = uniform_deviation(ts, fam, [theta], dist, n_mc=10_000, seed=20)
    assert dev <= 3 * 1.96 * sigma / np.sqrt(m) + 3 * l_mc.halfwidth


def test_representativeness_duplicate_grid_points():
    A, noise, dist, fam = scalar_setup()
    ts = draw_training_set(dist, 1000, seed=21)
    theta = np.array([0.4])
    # both losses are reproducible at a fixed seed, so repeated grid points
    # leave the supremum unchanged
    v1 = uniform_deviation(ts, fam, [theta], dist, n_mc=5_000, seed=22)
    v2 = uniform_deviation(ts, fam, [theta, theta.copy(), theta], dist,
                           n_mc=5_000, seed=22)
    assert v1 == v2


# -- cross-cutting invariants ----------------------------------------------

def test_sample_error_nonnegative_up_to_noise():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    theta_star = proxy(pc, fam, dist, proxy_m=100_000, seed=25)
    for seed in range(5):
        ts = draw_training_set(dist, 100, seed=30 + seed)
        theta_hat = erm_solve(pc, fam, ts, ErmOptions(seed=0)).theta
        l_hat = expected_loss_mc(dist, theta_hat, fam, 100_000, seed=26)
        l_star = expected_loss_mc(dist, theta_star, fam, 100_000, seed=26)
        assert l_hat.estimate - l_star.estimate >= -2 * l_hat.halfwidth


def test_representativeness_bounds_sample_error():
    A, noise, dist, fam = scalar_setup()
    pc = ParamClass(kind="euclidean_ball", dim=1, radius=1.0)
    ts = draw_training_set(dist, 200, seed=27)
    grid = [np.array([b]) for b in np.linspace(-1, 1, 41)]
    theta_hat = erm_solve(pc, fam, ts, ErmOptions(seed=0)).theta
    theta_star = proxy(pc, fam, dist, proxy_m=100_000, seed=28)
    l_hat = expected_loss_mc(dist, theta_hat, fam, 200_000, seed=29)
    l_star = expected_loss_mc(dist, theta_star, fam, 200_000, seed=29)
    sample_error = l_hat.estimate - l_star.estimate
    rep = uniform_deviation(ts, fam, grid, dist, n_mc=200_000, seed=29)
    assert sample_error <= 2 * rep + 3 * l_hat.halfwidth

def test_mmse_mc_matches_closed_form():
    A, noise, dist, fam = scalar_setup()
    bayes = mmse_affine(A, dist.prior, dist.noise)
    rng = np.random.default_rng(31)
    x, y = dist.sample(rng, 200_000)
    per = 0.5 * np.sum((bayes(y) - x) ** 2, axis=1)
    hw = 1.96 * per.std() / np.sqrt(per.size)
    assert abs(per.mean() - bayes.irreducible_error) <= 3 * hw
