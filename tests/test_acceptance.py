"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
all) before asserting, so the verdict of every criterion is visible even
when one of them fails.
"""

import math
import time

import numpy as np
import pytest

from invlearn import (BoundInputs, CoveringModel, ElasticNetParams, ErmOptions,
                      ExperimentConfig, FixedPointFamily, ForwardOperator,
                      GaussianSpec, ParamClass, ProblemDistribution,
                      TikhonovFamily, covering_ball, draw_training_set,
                      empirical_average_contraction, erm_solve,
                      expected_loss_mc, greedy_cover, orlicz_norm,
                      predicted_exponent, reconstruct_elastic_net,
                      reconstruct_fixed_point, run_rate_experiment, substream)
from invlearn.bounds import entropy_integral
from invlearn.experiment import SLOPE_BAND, bound_domination_check


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def scalar_gaussian_problem():
    A = ForwardOperator.identity(1)
    noise = GaussianSpec.iso(1, 1.0)
    dist = ProblemDistribution(prior=GaussianSpec.iso(1, 1.0), noise=noise,
                               forward=A)
    return A, noise, dist


@pytest.fixture(scope="module")
def rate_fit():
    """The shared rate experiment used by criteria 2 and 10."""
    cfg = ExperimentConfig.from_dict({
        "problem": {
            "forward": {"n_x": 1, "n_y": 1, "singular_values": [1.0],
                        "basis": "identity"},
            "prior": {"type": "gaussian", "mean": [0.0],
                      "cov_eigenvalues": [1.0]},
            "noise": {"type": "gaussian", "mean": [0.0],
                      "cov_eigenvalues": [1.0]},
        },
        "family": {"kind": "tikhonov", "structure": "scale"},
        "param_class": {"kind": "euclidean_ball", "dim": 1, "radius": 1.0},
        "m_grid": [16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        "trials_per_m": 50,
        "proxy_m": 409_600,
        "n_mc": 100_000,
        "master_seed": 1,
    })
    start = time.monotonic()
    fit = run_rate_experiment(cfg)
    return fit, time.monotonic() - start


def test_criterion_1_tikhonov_oracle_equivalence():
    # ERM over the full (h, B) class recovers the conditional-mean map
    A, noise, dist = scalar_gaussian_problem()
    fam = TikhonovFamily(A, noise, structure="full")
    pc = ParamClass(kind="euclidean_ball", dim=2, radius=1.0)
    start = time.monotonic()
    ts = draw_training_set(dist, 10**5, seed=101)
    res = erm_solve(pc, fam, ts, ErmOptions(seed=0))
    mc = expected_loss_mc(dist, res.theta, fam, n_mc=10**6, seed=102)
    elapsed = time.monotonic() - start
    gap = abs(mc.estimate - 0.25)
    ok = gap <= 3 * mc.halfwidth and elapsed < 60
    report(1, ok, f"|L(theta_hat) - 1/4| = {gap:.3g} vs 3*hw = "
                  f"{3 * mc.halfwidth:.3g}; runtime {elapsed:.1f}s")


# Criterion 2. The chaining bound m^(-1/2) is an upper envelope, not the
# rate. Here x, eps ~ N(0, 1), y = x + eps and x_hat = c y, so
# L(c) - L(1/2) = (c - 1/2)^2. The interior ERM solution c_hat = sum(xy) /
# sum(y^2) gives c_hat - 1/2 = sum(y u) / sum(y^2) with u = (x - eps) / 2
# independent of y, Var u = 1/2, hence E[sample error] = E[1/sum(y^2)] / 2
# = 1 / (4 (m - 2)): a 1/m rate, whose log-log slope over the m-grid
# 16..4096 is -1.019. The class clips c_hat at 1/3, so the m = 16 and 32
# means are 0.816 and 0.934 of 1 / (4 (m - 2)), and the expected slope is
# -0.994.
FAST_RATE = -1.0


def test_criterion_2_finite_dim_rate_exponent(rate_fit):
    fit, elapsed = rate_fit
    failed = sum(t.failed for t in fit.trials)
    ok = (fit.predicted_exponent == -0.5
          and fit.verdict == "faster-than-predicted"
          and fit.slope is not None
          and abs(fit.slope - FAST_RATE) <= SLOPE_BAND
          and elapsed < 600)
    ci = fit.slope_ci or (math.nan, math.nan)
    slope = math.nan if fit.slope is None else fit.slope
    report(2, ok, f"fitted slope {slope:.3f} (95% CI [{ci[0]:.3f}, "
                  f"{ci[1]:.3f}]) vs fast-rate band {FAST_RATE} +/- "
                  f"{SLOPE_BAND}; bound exponent {fit.predicted_exponent}; "
                  f"verdict {fit.verdict}; failed trials {failed}; "
                  f"runtime {elapsed:.0f}s")


def test_criterion_3_orlicz_estimator():
    rng = substream(303, 0)
    gauss = orlicz_norm(rng.standard_normal(10**6), q=2)
    target = math.sqrt(8.0 / 3.0)
    gauss_rel = abs(gauss - target) / target

    c = 2.0
    const = orlicz_norm(np.full(10**5, c), q=2)
    const_target = c / math.sqrt(math.log(2.0))
    const_rel = abs(const - const_target) / const_target

    ok = gauss_rel <= 0.05 and const_rel <= 0.02
    report(3, ok, f"gaussian psi_2 {gauss:.4f} vs "
                  f"{target:.4f} ({gauss_rel:.2%}); constant "
                  f"{const:.4f} vs {const_target:.4f} "
                  f"({const_rel:.2%})")


def test_criterion_4_average_norm_decay():
    m_grid = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    # one 4000 x 4096 draw per variable; each m averages prefixes of its rows
    draws = substream(404, 0).standard_normal((4000, 4096))
    t2 = empirical_average_contraction(draws, q=2, m_grid=m_grid)
    draws = substream(405, 0).standard_normal((4000, 4096))
    draws **= 2  # centred chi-square(1)
    draws -= 1.0
    t1 = empirical_average_contraction(draws, q=1, m_grid=m_grid)
    ok = -0.6 <= t2.slope <= -0.4 and -0.6 <= t1.slope <= -0.4
    report(4, ok, f"q=2 slope {t2.slope:.3f}, q=1 slope {t1.slope:.3f} "
                  f"vs band [-0.6, -0.4]")


def test_criterion_5_elastic_net_solver():
    A = ForwardOperator.identity(3)
    params = ElasticNetParams(h=np.zeros(3), B=np.eye(3), alpha=1.0, eta=0.5)
    tol = 1e-8
    kappa = 1.0  # Hessian is 4 I: perfectly conditioned
    rng = substream(505, 0)
    worst_dist = worst_resid = 0.0
    for _ in range(100):
        y = rng.standard_normal(3)
        x = reconstruct_elastic_net(params, A, y, tol=tol)
        worst_dist = max(worst_dist, float(np.linalg.norm(x - y / 4.0)))
        worst_resid = max(worst_resid, float(np.linalg.norm(4.0 * x - y)))
    # the first-order residual of the solver's stopping rule is the
    # gradient norm ||4x - y||, checked against the stated 1e-8 tolerance
    ok = worst_dist <= tol * kappa and worst_resid / 4 <= 1e-8
    report(5, ok, f"max |x - y/4| = {worst_dist:.3g} vs tol*kappa = "
                  f"{tol * kappa:.1g}; max residual {worst_resid / 4:.3g}")


def test_criterion_6_fixed_point_lipschitz_transfer():
    A = ForwardOperator.identity(2)
    fam = FixedPointFamily(A, contraction_budget=0.5)
    tol = 1e-11
    rng = substream(606, 0)
    ys = [rng.standard_normal(2) for _ in range(10)]
    L_transfer = fam.lipschitz_theta_bound(ys) / (1 - fam.L_z)
    violations = 0
    for k in range(1000):
        t1 = rng.standard_normal(fam.dim) * 0.6
        t2 = t1 + rng.standard_normal(fam.dim) * rng.choice([0.01, 0.1, 0.5])
        y = ys[k % len(ys)]
        p1 = reconstruct_fixed_point(fam.unpack(t1), A, y, tol=tol)
        p2 = reconstruct_fixed_point(fam.unpack(t2), A, y, tol=tol)
        if np.linalg.norm(p1 - p2) > L_transfer * fam.metric(t1, t2) + 2 * tol:
            violations += 1
    ok = violations == 0
    report(6, ok, f"{violations} violations over 1000 probe pairs "
                  f"(transfer constant {L_transfer:.2f})")


def test_criterion_7_covering_consistency():
    rng = substream(707, 0)
    D = 1.0
    worst = []
    ok = True
    for d in (1, 2, 3):
        pts = rng.uniform(-D, D, size=(5000, d))
        pts = pts[np.linalg.norm(pts, axis=1) <= D]
        for r in (D, D / 2, D / 4, D / 8):
            n = greedy_cover(pts, r)
            bound = covering_ball(d, D, r)
            if n > bound:
                ok = False
            worst.append(f"d={d},r={r:g}:{n}<={bound:.0f}")
    report(7, ok, "; ".join(worst))


def test_criterion_8_chaining_quadrature():
    ok = True
    rels = []
    for D in (1.0, 3.0, 10.0):
        cov = CoveringModel(kind="entropy_decay", s=2.0, c=1.0)
        val = entropy_integral(cov, alpha=1.0, q=1, lower=0.0, upper=D)
        rel = abs(val - 2.0 * math.sqrt(D)) / (2.0 * math.sqrt(D))
        rels.append(rel)
        if rel > 1e-6:
            ok = False
    report(8, ok, f"max relative error {max(rels):.2e} vs 1e-6")


def test_criterion_9_regime_logic():
    def hand_formula(class_kind, alpha, q, s_or_d, method):
        # independently written piecewise rate table
        if class_kind == "euclidean_ball":
            return -0.5
        s = s_or_d
        if method == "covering":
            return -0.5 * (1.0 - 1.0 / (1.0 + alpha * s * q))
        if s > 1.0 / (alpha * q):
            return -0.5  # saturated
        return -0.5 * alpha**2 * s * q

    cases = []
    for d in (1, 2, 3, 7, 50):
        for q in (1, 2):
            cases.append(("euclidean_ball", 1.0, q, d, "chaining"))
    for s in np.linspace(0.15, 3.0, 10):
        for q in (1, 2):
            cases.append(("entropy_decay", 1.0, q, float(s), "chaining"))
            cases.append(("entropy_decay", 0.5, q, float(s), "covering"))
    # off-boundary alpha < 1 chaining points
    for s in (0.2, 0.7, 1.3, 2.6):
        cases.append(("entropy_decay", 0.5, 2, s, "chaining"))
        cases.append(("entropy_decay", 0.8, 1, s, "chaining"))
    assert len(cases) >= 50
    bad = []
    for kind, alpha, q, sd, method in cases:
        cov = (CoveringModel(kind, d=sd) if kind == "euclidean_ball"
               else CoveringModel(kind, s=sd))
        got = predicted_exponent(cov, alpha, q, method).exponent
        want = hand_formula(kind, alpha, q, sd, method)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            bad.append((kind, alpha, q, sd, method, got, want))
    report(9, not bad, f"{len(cases)} grid points checked, "
                       f"{len(bad)} mismatches{': ' + str(bad[:3]) if bad else ''}")


def test_criterion_10_bound_shape_domination(rate_fit):
    fit, _ = rate_fit
    inputs = BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=16, D=2.0)
    cov = CoveringModel(kind="euclidean_ball", d=1, D=2.0)
    ok, ratios = bound_domination_check(fit, inputs, cov, r=0.0)
    worst = max(r for _, r in ratios)
    report(10, ok, f"calibrated empirical/bound ratio <= {worst:.3f} "
                   f"across {len(ratios)} grid points")
