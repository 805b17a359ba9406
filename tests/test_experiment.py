"""Tests for the experiment harness: configs, rate fits, verification."""

import dataclasses
import inspect
import json
import logging
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from invlearn import (ElasticNetFamily, ErmOptions, ExperimentConfig,
                      FixedPointFamily, ForwardOperator, GaussianSpec,
                      ParamClass, ProblemDistribution, TikhonovFamily,
                      erm_solve, experiment, risk, run_rate_experiment,
                      run_verification_suite, stochastics)
from invlearn.bounds import BoundInputs, CoveringModel, predicted_exponent
from invlearn.errors import ConfigurationError, ConvergenceError
from invlearn.experiment import (_FAMILY_KEYS, _weighted_loglog_fit,
                                 bound_domination_check, bound_inputs,
                                 canonical_json, derived_seed, fnv1a64,
                                 override, q_route)
from invlearn.risk import erm_solve_trials, trial_groups
from invlearn.stochastics import STACK_ROWS, substream

from configs import SMALL


# -- config ----------------------------------------------------------------

def test_config_round_trip_and_validation():
    cfg = ExperimentConfig.from_dict(SMALL)
    assert cfg.m_grid == (16, 32, 64, 128)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(override(SMALL, {"m_grid": [16, 16, 32]}))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(override(SMALL, {"proxy_m": 100}))
    with pytest.raises(ConfigurationError, match="m_grid"):
        ExperimentConfig.from_dict({k: v for k, v in SMALL.items()
                                    if k != "m_grid"})


def test_config_unknown_key_names_its_path():
    # a misspelt key must not silently leave its setting at the default;
    # the ERM and reconstruction tolerances and the bound inputs are not
    # settings
    for raw, path in (
            (override(SMALL, {"tolerance": {"erm_tol": 1e-6}}), "tolerance"),
            (override(SMALL, {"tolerances": {"erm_tol": 1e-6}}), "tolerances"),
            (override(SMALL, {"erm": {"n_starts": 2}}), "erm"),
            (override(SMALL, {"bounds": {"K": 2.0}}), "bounds")):
        with pytest.raises(ConfigurationError,
                           match=rf"unknown config key: {path}$"):
            ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("cls", [TikhonovFamily, ElasticNetFamily,
                                 FixedPointFamily])
def test_family_schema_keys_are_constructor_parameters(cls):
    # from_dict passes the checked keys to the constructor as they are
    params = inspect.signature(cls).parameters
    assert set(_FAMILY_KEYS[cls.kind]) - {"kind"} <= set(params)
    assert set(_FAMILY_KEYS) == {"tikhonov", "elastic_net", "fixed_point"}


@pytest.mark.parametrize("family, path", [
    ({"kind": "tikhonov", "structur": "diagonal"}, "family.structur"),
    ({"kind": "elastic_net", "alpha": 0.5, "eps": 0.5}, "family.eps"),
    ({"kind": "fixed_point", "contraction_budget": 0.5, "structure": "full"},
     "family.structure")])
def test_config_unknown_family_key_names_its_path(family, path):
    # the family's own keys are checked against its kind
    with pytest.raises(ConfigurationError,
                       match=rf"unknown config key: {path}$"):
        ExperimentConfig.from_dict(override(SMALL, {"family": family}))


def test_config_unknown_param_class_key_names_its_path():
    pc = {"kind": "euclidean_ball", "dim": 1, "raduis": 0.5}
    with pytest.raises(ConfigurationError,
                       match=r"unknown config key: param_class.raduis$"):
        ExperimentConfig.from_dict(override(SMALL, {"param_class": pc}))
    sobolev = {"kind": "sobolev_ball", "dim": 1, "radius": 1.0,
               "smoothness": 1.0}
    cfg = ExperimentConfig.from_dict(override(SMALL, {"param_class": sobolev}))
    assert cfg.param_class.smoothness == 1.0


def test_config_rejects_small_n_mc():
    with pytest.raises(ConfigurationError, match="n_mc"):
        ExperimentConfig.from_dict(override(SMALL, {"n_mc": 1}))
    assert ExperimentConfig.from_dict(
        override(SMALL, {"n_mc": 100})).n_mc == 100


@pytest.mark.parametrize("overrides, path", [
    ({"m_grid": [32, 16]}, "m_grid"), ({"trials_per_m": 0}, "trials_per_m"),
    ({"proxy_m": 100}, "proxy_m"), ({"n_mc": 1}, "n_mc")])
def test_config_range_errors_name_their_path(overrides, path):
    # like every other load error, a range error starts with its config path
    with pytest.raises(ConfigurationError, match=rf"^config {path} "):
        ExperimentConfig.from_dict(override(SMALL, overrides))


def test_config_overflowing_prior_trace_is_a_config_error():
    # the trace 1e308 + 1e308 overflows: the load raises the config error,
    # with no numpy overflow warning before it
    raw = override(SMALL, {
        "problem.forward": {"n_x": 2, "n_y": 2,
                            "singular_values": [1.0, 1.0]},
        "problem.prior.mean": [0.0, 0.0],
        "problem.prior.cov_eigenvalues": [1e308, 1e308],
        "problem.noise.mean": [0.0, 0.0],
        "problem.noise.cov_eigenvalues": [1.0, 1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=(
                r"^config problem\.prior: covariance trace must be finite")):
            ExperimentConfig.from_dict(raw)


def test_config_nonzero_noise_mean_names_its_path():
    cfg = override(SMALL, {"problem.noise.mean": [0.5]})
    with pytest.raises(ConfigurationError,
                       match=r"^config problem\.noise\.mean must be zero"):
        ExperimentConfig.from_dict(cfg)


def test_config_schema_accepts_every_documented_key():
    problem = {
        "forward": {"n_x": 2, "n_y": 2, "singular_values": [1.0, 0.5],
                    "basis": {"left": [[0.0, 1.0], [1.0, 0.0]],
                              "right": "identity"}},
        "prior": {"type": "uniform_ball", "dim": 2, "radius": 1.0},
        "noise": {"type": "gaussian", "mean": [0.0, 0.0],
                  "cov_eigenvalues": [0.1, 0.1],
                  "cov_basis": [[1.0, 0.0], [0.0, 1.0]]},
    }
    cfg = ExperimentConfig.from_dict(override(SMALL, {
        "problem": problem,
        "family": {"kind": "tikhonov", "structure": "diagonal"},
        "param_class": {"kind": "euclidean_ball", "dim": 4}}))
    assert cfg.problem.forward.left_basis is not None


def test_config_digest_is_fnv1a_of_canonical_text():
    cfg = ExperimentConfig.from_dict(SMALL)
    assert cfg.digest == fnv1a64(canonical_json(SMALL))
    # digest is insensitive to key order, sensitive to values
    shuffled = dict(reversed(list(SMALL.items())))
    assert ExperimentConfig.from_dict(shuffled).digest == cfg.digest
    assert ExperimentConfig.from_dict(
        override(SMALL, {"master_seed": 2})).digest != cfg.digest


def test_config_keeps_a_copy_of_the_dict_it_read():
    # editing the dict after it is read changes neither the config's raw
    # dict nor its digest, which names the config that built the problem
    raw = override(SMALL, {})
    cfg = ExperimentConfig.from_dict(raw)
    raw["master_seed"] = 7
    raw["problem"]["noise"]["cov_eigenvalues"][0] = 2.0
    assert cfg.raw == SMALL and cfg.digest == fnv1a64(canonical_json(SMALL))


def test_override_sets_nested_and_new_leaf_keys():
    raw = override(SMALL, {"problem.noise.cov_eigenvalues": [0.5],
                           "problem.prior.cov_basis": [[1.0]],
                           "family": {"kind": "fixed_point"},
                           "family.contraction_budget": 0.5})
    assert raw["problem"]["noise"]["cov_eigenvalues"] == [0.5]
    assert raw["problem"]["prior"]["cov_basis"] == [[1.0]]
    assert raw["family"] == {"kind": "fixed_point", "contraction_budget": 0.5}
    # every other entry is SMALL's
    del raw["problem"]["prior"]["cov_basis"]
    assert override(raw, {"problem.noise.cov_eigenvalues": [1.0],
                          "family": SMALL["family"]}) == SMALL


def test_override_leaves_its_inputs_unchanged():
    # the result shares no list or object with them
    before, grid = canonical_json(SMALL), [16, 32]
    raw = override(SMALL, {"m_grid": grid})
    raw["m_grid"].append(64)
    raw["problem"]["prior"]["mean"].append(1.0)
    assert grid == [16, 32] and canonical_json(SMALL) == before


@pytest.mark.parametrize("path", [
    "problem.forwards.n_x", "problem.forward.n_x.value", "m_grid.0",
    "family.kind.name"])
def test_override_through_a_missing_key_or_non_object_names_the_path(path):
    with pytest.raises(ConfigurationError,
                       match=rf"^cannot set config {re.escape(path)}: "):
        override(SMALL, {path: 1})


def test_fnv1a64_known_values():
    assert fnv1a64("") == 0xcbf29ce484222325
    assert fnv1a64("a") == 0xaf63dc4c8601ec8c


def test_derived_seed_deterministic_and_distinct():
    assert derived_seed(5, 1, 2) == derived_seed(5, 1, 2)
    seen = {derived_seed(5, i, j) for i in range(10) for j in range(10)}
    assert len(seen) == 100
    assert all(0 <= s < 2**63 for s in seen)


# -- rate experiment -------------------------------------------------------

@pytest.fixture(scope="module")
def small_fit():
    return run_rate_experiment(ExperimentConfig.from_dict(SMALL))


def test_rate_experiment_artifacts(small_fit, tmp_path):
    small_fit.write(tmp_path)
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == ("m,trial,sample_error,emp_risk_hat,exp_loss_hat,"
                       "exp_loss_star,erm_residual,seed")
    assert len(lines) == 1 + 4 * 10
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"config_digest", "theta_star", "per_m", "slope",
                            "slope_ci", "predicted_exponent", "verdict"}
    assert summary["predicted_exponent"] == -0.5
    assert len(summary["per_m"]) == 4


def test_rate_experiment_replay_byte_identical(small_fit):
    again = run_rate_experiment(ExperimentConfig.from_dict(SMALL))
    assert again.csv_text() == small_fit.csv_text()


def test_rate_experiment_mean_nonincreasing_up_to_noise(small_fit):
    per_m = small_fit.per_m
    for a, b in zip(per_m, per_m[1:]):
        assert b["mean"] <= a["mean"] + 2 * (a["stderr"] + b["stderr"])


def test_rate_experiment_per_m_mean_is_plain_mean(monkeypatch):
    # 50 trials per m: every trial that did not fail enters the mean and
    # the standard error, none is trimmed; the first trial at m = 16 and at
    # m = 32 is made to stop short of ERM_TOL, and is left out and counted
    short = set()

    def first_trials_short(pclass, family, sets, seeds, opts):
        fits = erm_solve_trials(pclass, family, sets, seeds, opts)
        m = sets[0].m
        if m in (16, 32) and m not in short:
            short.add(m)
            fits[0] = dataclasses.replace(fits[0], converged=False)
        return fits

    monkeypatch.setattr(experiment, "erm_solve_trials", first_trials_short)
    fit = run_rate_experiment(ExperimentConfig.from_dict(
        override(SMALL, {"trials_per_m": 50})))
    assert [p["n"] for p in fit.per_m] == [49, 49, 50, 50]
    assert [p["failed"] for p in fit.per_m] == [1, 1, 0, 0]
    for p in fit.per_m:
        vals = np.array([t.sample_error for t in fit.trials
                         if t.m == p["m"] and not t.failed])
        assert set(p) == {"m", "mean", "stderr", "n", "failed"}
        assert p["n"] == vals.size
        assert p["mean"] == pytest.approx(vals.mean(), rel=1e-12)
        assert p["stderr"] == pytest.approx(
            vals.std(ddof=1) / np.sqrt(vals.size), rel=1e-12)


def test_rate_experiment_failure_cap(monkeypatch):
    # 40 trials, cap 5 %: the first trial at each m in ``short`` stops short
    # of ERM_TOL; 2 such trials are counted per m, 3 fail the run
    short = {16, 32}

    def first_trials_short(pclass, family, sets, seeds, opts):
        fits = erm_solve_trials(pclass, family, sets, seeds, opts)
        if sets[0].m in short:
            fits[0] = dataclasses.replace(fits[0], converged=False)
        return fits

    monkeypatch.setattr(experiment, "erm_solve_trials", first_trials_short)
    cfg = ExperimentConfig.from_dict(SMALL)
    fit = run_rate_experiment(cfg)
    assert [p["failed"] for p in fit.per_m] == [1, 1, 0, 0]
    assert [p["n"] for p in fit.per_m] == [9, 9, 10, 10]
    short.add(64)
    with pytest.raises(ConvergenceError, match=re.escape(
            "experiment invalid: 3/40 trials failed (cap 5%)")):
        run_rate_experiment(cfg)


class FailsOnOneTrial(TikhonovFamily):
    """Scalar Tikhonov that raises ``ConvergenceError`` whenever its affine
    map, which the moment-form ERM evaluates in place of reconstructions,
    is asked for the theta ``marked``: a start of one trial, alone or as
    one row of a stack of trials."""

    def __init__(self, cfg, marked):
        super().__init__(cfg.problem.forward, cfg.problem.noise, "scale")
        self.marked = marked

    def affine_map(self, theta):
        if np.all(np.atleast_2d(theta) == self.marked, axis=-1).any():
            raise ConvergenceError("the marked trial's start")
        return super().affine_map(theta)


def test_rate_experiment_isolates_a_trial_that_raises(monkeypatch):
    # trial 3 of m = 32 raises inside its stack of 10 trials: it alone is
    # recorded failed, and every other trial keeps the record of the
    # per-trial run, in which erm_solve fits each trial alone
    cfg = ExperimentConfig.from_dict(SMALL)
    # the first random start of trial 3 of m = 32 (erm_solve_trials' draw)
    marked = cfg.param_class.sample(
        substream(derived_seed(cfg.master_seed, 1, 32, 3), 101))
    cfg = dataclasses.replace(cfg, family=FailsOnOneTrial(cfg, marked))
    assert len(trial_groups(10, cfg.family, ErmOptions())) == 1
    fit = run_rate_experiment(cfg)

    def one_trial_at_a_time(pclass, family, sets, seeds, opts):
        return [erm_solve(pclass, family, ts, dataclasses.replace(opts, seed=s))
                for ts, s in zip(sets, seeds)]

    monkeypatch.setattr(experiment, "erm_solve_trials", one_trial_at_a_time)
    per_trial = run_rate_experiment(cfg)
    failed = [r for r in fit.trials if r.failed]
    assert [(r.m, r.trial) for r in failed] == [(32, 3)]
    assert failed[0].erm_residual == math.inf
    assert [p["failed"] for p in fit.per_m] == [0, 1, 0, 0]
    for r, ref in zip(fit.trials, per_trial.trials, strict=True):
        assert r == ref or r is failed[0]
    assert fit.csv_text() == per_trial.csv_text()


def test_rate_experiment_fits_per_sample_trials_one_at_a_time(monkeypatch):
    # the fixed point's trials are one-trial ERM stacks, and the one whose
    # stack raises is recorded failed without being fitted a second time;
    # the proxy and the fits are stand-ins
    cfg = ExperimentConfig.from_dict(override(SMALL, {
        "family": {"kind": "fixed_point", "contraction_budget": 0.5},
        "param_class.dim": 2}))
    marked = derived_seed(cfg.master_seed, 1, 32, 3)
    stacks = []

    def fit_stack(pclass, family, sets, seeds, opts):
        stacks.append(len(sets))
        if seeds[0] == marked:
            raise ConvergenceError("the marked trial")
        return [risk.ErmResult(theta=np.zeros(2), objective=0.0,
                               residual=0.0, converged=True)]

    def refit(*args, **kwargs):
        raise AssertionError("a one-trial stack is not refitted")

    monkeypatch.setattr(experiment, "optimal_target_proxy",
                        lambda *args: np.zeros(2))
    monkeypatch.setattr(experiment, "erm_solve_trials", fit_stack)
    monkeypatch.setattr(experiment, "erm_solve", refit)
    fit = run_rate_experiment(cfg)
    assert stacks == [1] * 40
    assert [(r.m, r.trial) for r in fit.trials if r.failed] == [(32, 3)]


def test_rate_experiment_sample_error_is_the_risk_change(monkeypatch):
    # a per-sample family's trial reads L(theta_hat) and L(theta_star) as
    # mean losses on the evaluation sample, both from ERM's risk, and
    # L(theta_hat) - L(theta_star) as ERM's risk
    # change in difference form, 1/2 mean((R - R*).(R + R* - 2X)), not as a
    # mean of per-sample loss differences; the proxy and the fits are
    # stand-ins
    cfg = ExperimentConfig.from_dict(override(SMALL, {
        "family": {"kind": "fixed_point", "contraction_budget": 0.5},
        "param_class.dim": 2}))
    theta_star = np.array([0.3, -0.2])
    thetas = []

    def fit_stack(pclass, family, sets, seeds, opts):
        thetas.append(pclass.sample(substream(seeds[0])))
        return [risk.ErmResult(theta=thetas[-1], objective=0.0,
                               residual=0.0, converged=True)]

    monkeypatch.setattr(experiment, "optimal_target_proxy",
                        lambda *args: theta_star)
    monkeypatch.setattr(experiment, "erm_solve_trials", fit_stack)
    fit = run_rate_experiment(cfg)
    x, y = cfg.problem.sample(substream(cfg.master_seed, 9999), cfg.n_mc)
    R_star = cfg.family.reconstruct_batch(theta_star, y)
    for r, theta in zip(fit.trials, thetas, strict=True):
        R = cfg.family.reconstruct_batch(theta, y)
        assert r.exp_loss_hat == risk._losses(R, x).mean()
        assert r.sample_error == \
            0.5 * np.sum((R - R_star) * (R + R_star - 2.0 * x), axis=-1).mean()
        assert r.exp_loss_star == risk._losses(R_star, x).mean()


def test_rate_experiment_scalar_trials_reach_the_tolerance():
    # the 30 scalar configs of seeds 100-129 at n_mc 20 000: an Armijo
    # test on the difference of two rounded risk levels stalled 3 of their
    # 1 200 trials just above ERM_TOL (seeds 117, 119 and 126); the test
    # on the change in difference form fails none
    failed = []
    for seed in range(100, 130):
        fit = run_rate_experiment(ExperimentConfig.from_dict(
            override(SMALL, {"n_mc": 20_000, "master_seed": seed})))
        failed += [(seed, r.m, r.trial) for r in fit.trials if r.failed]
    assert failed == []


def test_rate_experiment_logs_one_progress_line_per_m(caplog):
    caplog.set_level(logging.INFO, logger="invlearn.experiment")
    run_rate_experiment(ExperimentConfig.from_dict(SMALL))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "invlearn.experiment"]
    assert [line.split()[0] for line in lines] == \
        ["proxy", "m=16", "m=32", "m=64", "m=128"]
    assert lines[1].startswith("m=16 trials=10 failed=0 groups=1 seconds=")


def test_rate_experiment_singleton_degenerate():
    cfg = ExperimentConfig.from_dict(
        override(SMALL, {"param_class.radius": 0.0}))
    fit = run_rate_experiment(cfg)
    assert fit.verdict == "degenerate"
    assert fit.slope is None and fit.slope_ci is None
    assert all(t.sample_error == 0.0 for t in fit.trials)


def test_rate_experiment_requires_enough_trials():
    cfg = ExperimentConfig.from_dict(override(SMALL, {"trials_per_m": 5}))
    with pytest.raises(ConfigurationError, match=r"^config trials_per_m "):
        run_rate_experiment(cfg)


def test_rate_experiment_slower_than_predicted(monkeypatch):
    # stand-in fits that ignore the data: each trial's theta is a draw from
    # the class, so the sample error does not shrink with m, and the slope
    # lies above the predicted -1/2 by more than the band and its CI
    def random_fits(pclass, family, sets, seeds, opts):
        return [risk.ErmResult(theta=pclass.sample(substream(s)),
                               objective=0.0, residual=0.0, converged=True)
                for s in seeds]

    monkeypatch.setattr(experiment, "erm_solve_trials", random_fits)
    fit = run_rate_experiment(ExperimentConfig.from_dict(SMALL))
    assert fit.verdict == "slower-than-predicted"
    assert fit.slope > fit.predicted_exponent + experiment.SLOPE_BAND
    assert fit.slope_ci[0] > fit.predicted_exponent


def _normal_equations_fit(ms, means, ses, weight_power=2):
    # reference: weighted least squares of log(mean) on log(m) by the
    # explicit normal equations, weights 1/sigma^weight_power
    x, y = np.log(ms), np.log(means)
    sigma = np.clip(ses / means, 1e-6, None)
    w = 1.0 / sigma**weight_power
    X = np.column_stack([x, np.ones_like(x)])
    WX = X * w[:, None]
    cov = np.linalg.inv(X.T @ WX)
    slope = (cov @ (WX.T @ y))[0]
    half = 1.96 * np.sqrt(cov[0, 0])
    return np.array([slope, slope - half, slope + half])


def test_loglog_fit_matches_weighted_normal_equations():
    # doubling m-grids, as the rate experiment's; on grids of nearly equal
    # m the reference's explicit inverse loses more than 1e-12 itself
    rng = np.random.default_rng(16)
    for _ in range(300):
        ms = rng.integers(8, 65) * 2.0 ** np.arange(rng.integers(4, 10))
        means = ms ** rng.uniform(-1.5, -0.5) * np.exp(
            0.2 * rng.standard_normal(ms.size))
        ses = means * rng.uniform(0.01, 0.3, size=ms.size)
        slope, (lo, hi) = _weighted_loglog_fit(ms, means, ses)
        got = np.array([slope, lo, hi])
        np.testing.assert_allclose(
            got, _normal_equations_fit(ms, means, ses), rtol=1e-12, atol=0)
        # weights of 1/sigma^4 (1/sigma^2 passed as polyfit's w) differ
        assert not np.allclose(
            got, _normal_equations_fit(ms, means, ses, weight_power=4),
            rtol=1e-12, atol=0)


def test_rate_experiment_on_an_entropy_decay_class():
    # a Sobolev class of smoothness 0.4 with alpha = q = 1 lies below the
    # saturation threshold 1/(alpha q): -alpha^2 s q / 2 = -0.2
    sobolev = {"kind": "sobolev_ball", "dim": 1, "radius": 1.0,
               "smoothness": 0.4}
    fit = run_rate_experiment(ExperimentConfig.from_dict(
        override(SMALL, {"param_class": sobolev})))
    assert fit.predicted_exponent == -0.2
    # alpha s q = 0.4 <= 1: the chaining integral diverges at r = 0, so
    # there is no bound to calibrate, and the error carries the curve's note
    note = fit.curves()[0]["chaining_note"]
    assert "alpha*s*q <= 1" in note
    with pytest.raises(ConfigurationError, match=f"^{re.escape(note)}$"):
        bound_domination_check(fit)
    # at smoothness 2 the chaining exponent saturates at -1/2
    inputs, cov = bound_inputs(ExperimentConfig.from_dict(override(
        SMALL, {"param_class": {**sobolev, "smoothness": 2.0}})))
    assert cov == CoveringModel("entropy_decay", s=2.0)
    assert predicted_exponent(cov, inputs[0].alpha, inputs[0].q).exponent \
        == -0.5


def test_bound_domination_after_calibration(small_fit):
    ok, ratios = bound_domination_check(small_fit)
    assert ok, ratios
    assert all(r <= 1.0 + 1e-9 for _, r in ratios)


def test_bound_domination_needs_two_usable_grid_points(small_fit):
    # a grid point is usable where its mean sample error is positive
    per_m = [small_fit.per_m[0]] + [{**p, "mean": 0.0}
                                    for p in small_fit.per_m[1:]]
    with pytest.raises(ConfigurationError,
                       match="need at least two usable grid points"):
        bound_domination_check(dataclasses.replace(small_fit, per_m=per_m))


def test_bound_inputs_follow_the_config():
    # the criterion-2 config: criterion 10 reads the chaining curve of these
    grid = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    inputs, cov = bound_inputs(ExperimentConfig.from_dict(
        override(SMALL, {"m_grid": grid, "proxy_m": 409_600})))
    assert inputs == [BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=m,
                                  D=2.0) for m in grid]
    assert cov == CoveringModel("euclidean_ball", d=1, D=1.0)
    # bounded data with zero noise: the q of the verification suite
    cfg = ExperimentConfig.from_dict(override(SMALL, {
        "family": {"kind": "fixed_point", "contraction_budget": 0.5},
        "param_class.dim": 2, "param_class.radius": 0.25,
        "problem.prior": {"type": "uniform_ball", "dim": 1, "radius": 1.0},
        "problem.noise.cov_eigenvalues": [0.0]}))
    inputs, cov = bound_inputs(cfg)
    assert {b.q for b in inputs} == {2} == {
        run_verification_suite(cfg, n_samples=20_000)["q_route"]}
    # a ball of radius max(radius, 1/2) covers the class
    assert cov == CoveringModel("euclidean_ball", d=2, D=0.5)
    assert {b.D for b in inputs} == {1.0}
    # a Hölder family on a Sobolev class
    inputs, cov = bound_inputs(ExperimentConfig.from_dict(override(SMALL, {
        "family": {"kind": "elastic_net", "alpha": 0.5, "eta": 0.5,
                   "structure": "scale"},
        "param_class": {"kind": "sobolev_ball", "dim": 1, "radius": 1.0,
                        "smoothness": 1.5}})))
    assert {(b.q, b.alpha) for b in inputs} == {(1, 0.5)}
    assert cov == CoveringModel("entropy_decay", s=1.5)


# -- verification suite ----------------------------------------------------

def test_verification_suite_gaussian_route():
    report = run_verification_suite(ExperimentConfig.from_dict(SMALL),
                                    n_samples=50_000)
    assert report["q_route"] == 1
    assert report["passed"], report
    # the family was checked when the config was read; the entry stays
    assert report["checks"]["family_invariants"] == {"passed": True}
    assert report["checks"]["orlicz_x_sq_norm"]["passed"]
    assert report["checks"]["stability_certificate"]["passed"]
    assert report["checks"]["loss_average_contraction"]["passed"]


def test_verification_suite_rejects_an_empty_sample():
    cfg = ExperimentConfig.from_dict(SMALL)
    for n in (0, -3):
        with pytest.raises(ConfigurationError,
                           match="verification sample size must be >= 1"):
            run_verification_suite(cfg, n_samples=n)


def test_verification_suite_bounded_route():
    # bounded data with zero noise: the squared norms are sub-Gaussian;
    # the fixed-point family is used because it has no noise model to invert
    cfg = override(SMALL, {
        "family": {"kind": "fixed_point", "contraction_budget": 0.5},
        "param_class.dim": 2,
        "problem.prior": {"type": "uniform_ball", "dim": 1, "radius": 1.0},
        "problem.noise.cov_eigenvalues": [0.0]})
    report = run_verification_suite(ExperimentConfig.from_dict(cfg),
                                    n_samples=50_000)
    assert report["q_route"] == 2
    assert report["passed"], report


def test_verification_suite_passes_a_one_point_class():
    # radius 0: every probe theta is the centre, so there is no pair to
    # certify; the entry passes as degenerate, as the rate run's verdict is
    report = run_verification_suite(ExperimentConfig.from_dict(
        override(SMALL, {"param_class.radius": 0.0})), n_samples=20_000)
    assert report["checks"]["stability_certificate"] == {
        "passed": True, "degenerate": True}
    assert report["passed"], report


@pytest.mark.parametrize("family, dim", [
    ({"kind": "tikhonov", "structure": "scale"}, 1),
    ({"kind": "elastic_net", "alpha": 1.0, "eta": 0.5,
      "structure": "scale"}, 1),
    ({"kind": "fixed_point", "contraction_budget": 0.5}, 2)],
    ids=["tikhonov", "elastic_net", "fixed_point"])
def test_verification_suite_passes_a_point_mass_prior_at_zero(family, dim):
    # x = 0 identically, and y = 0 too under the fixed point's zero noise:
    # such a squared norm has psi_q norm 0 and no tail, and its entry
    # passes as degenerate, as the radius-0 certificate does
    zero_noise = family["kind"] == "fixed_point"
    cfg = override(SMALL, {
        "family": family, "param_class.dim": dim,
        "problem.prior.cov_eigenvalues": [0.0],
        "problem.noise.cov_eigenvalues": [0.0 if zero_noise else 1.0]})
    report = run_verification_suite(ExperimentConfig.from_dict(cfg),
                                    n_samples=20_000)
    zero = {"passed": True, "degenerate": True, "norm": 0.0}
    assert report["checks"]["orlicz_x_sq_norm"] == zero
    assert (report["checks"]["orlicz_y_sq_norm"] == zero) == zero_noise
    assert report["passed"], report


def test_verification_suite_tikhonov_zero_noise_fails_family_check():
    # the family is built when the config is read, so a Tikhonov family
    # without invertible noise never reaches the verification suite
    cfg = override(SMALL, {"problem.noise.cov_eigenvalues": [0.0]})
    with pytest.raises(ConfigurationError,
                       match=r"^config family: .*problem\.noise\.cov_eigenvalues"):
        ExperimentConfig.from_dict(cfg)


def test_q_route_needs_bounded_prior_and_zero_noise():
    # the fixed-point family has no noise model to invert
    def problem(prior, noise_var):
        return ExperimentConfig.from_dict(override(SMALL, {
            "family": {"kind": "fixed_point", "contraction_budget": 0.5},
            "param_class.dim": 2, "problem.prior": prior,
            "problem.noise.cov_eigenvalues": [noise_var]})).problem

    ball = {"type": "uniform_ball", "dim": 1, "radius": 1.0}
    gauss = {"type": "gaussian", "mean": [0.0], "cov_eigenvalues": [1.0]}
    assert q_route(problem(ball, 0.0)) == 2
    assert q_route(problem(ball, 1.0)) == 1
    assert q_route(problem(gauss, 0.0)) == 1


def test_verification_suite_elastic_net_penalty_checks():
    cfg = override(SMALL, {"family": {"kind": "elastic_net", "alpha": 1.0,
                                      "eta": 0.5, "structure": "scale"}})
    report = run_verification_suite(ExperimentConfig.from_dict(cfg),
                                    n_samples=20_000)
    assert "penalty_hypotheses" in report["checks"]
    assert report["checks"]["penalty_hypotheses"]["passed"]


def test_verification_suite_elastic_net_with_n_x_other_than_n_y():
    # the penalty g(x) = ||B x - h||^{2 alpha} is probed at points x, which
    # on a 2 x 3 operator have another length than the data y (alpha < 1
    # takes the same path, at the cost of the per-sample solver)
    problem = {
        "forward": {"n_x": 3, "n_y": 2, "singular_values": [1.0, 0.5]},
        "prior": {"mean": [0.0] * 3, "cov_eigenvalues": [1.0] * 3},
        "noise": {"mean": [0.0] * 2, "cov_eigenvalues": [0.1] * 2}}
    cfg = override(SMALL, {
        "problem": problem,
        "family": {"kind": "elastic_net", "alpha": 1.0, "eta": 0.5,
                   "structure": "diagonal"},
        "param_class": {"kind": "euclidean_ball", "dim": 6}})
    report = run_verification_suite(ExperimentConfig.from_dict(cfg),
                                    n_samples=20_000)
    assert report["checks"]["penalty_hypotheses"]["passed"], report


def test_verification_suite_invalid_contraction_budget():
    # theta = (W, b) has length 2 on the scalar problem; the budget is
    # checked when the config is read
    cfg = override(SMALL, {
        "family": {"kind": "fixed_point", "contraction_budget": 1.2},
        "param_class": {"kind": "euclidean_ball", "dim": 2}})
    with pytest.raises(ConfigurationError,
                       match=r"^config family: contraction budget"):
        ExperimentConfig.from_dict(cfg)


def test_verification_suite_invalid_elastic_net_penalty():
    # an alpha outside (0, 1] is a config error naming the family
    cfg = override(SMALL, {"family": {"kind": "elastic_net", "alpha": 1.5,
                                      "eta": 0.5, "structure": "scale"}})
    with pytest.raises(ConfigurationError, match=r"^config family: alpha"):
        ExperimentConfig.from_dict(cfg)


def _suite_losses(family, theta, dist, size):
    """The verification suite's blocked loss draw at ``theta``, the
    full-batch losses of the same rows, and those rows (x, y)."""
    blocks = list(dist.draw((3, 505), size))
    blocked = np.concatenate([risk._batch_losses(family, theta, x_b, y_b)
                              for x_b, y_b in blocks])
    x, y = (np.concatenate(part) for part in zip(*blocks))
    return blocked, risk._batch_losses(family, theta, x, y), x, y


def _suite_problem():
    op = ForwardOperator.power_decay(2, 1.0)
    return op, ProblemDistribution(prior=GaussianSpec.iso(2, 1.0),
                                   noise=GaussianSpec.iso(2, 0.1), forward=op)


BLOCK_ROWS = 2 * STACK_ROWS + 3  # two full blocks and a short one


SUITE_FAMILIES = {
    "tikhonov": lambda op, noise: TikhonovFamily(op, noise, "diagonal"),
    "elastic_net_1": lambda op, noise: ElasticNetFamily(op, 1.0, 0.5,
                                                        "diagonal"),
    "elastic_net_0.5": lambda op, noise: ElasticNetFamily(op, 0.5, 0.5,
                                                          "diagonal"),
    "fixed_point": lambda op, noise: FixedPointFamily(op, 0.5)}


@pytest.mark.parametrize("kind", sorted(SUITE_FAMILIES))
def test_blocked_suite_losses_equal_the_full_draw(kind):
    # every family at the class centre, the only theta the suite evaluates,
    # and an affine one off it too: the losses block by block are those of
    # the full draw, all its rows in one batch, bit for bit
    op, dist = _suite_problem()
    family = SUITE_FAMILIES[kind](op, dist.noise)
    pclass = ParamClass("euclidean_ball", family.dim)
    thetas = [pclass.center]
    if family.affine:
        thetas.append(pclass.sample(substream(3, 1)))
    for theta in thetas:
        blocked, full, _, _ = _suite_losses(family, theta, dist, BLOCK_ROWS)
        assert np.array_equal(blocked, full)


def test_blocked_fixed_point_losses_off_the_centre_within_two_tol():
    # off the centre a block's rows stop on their own shared rule, so the
    # blocked solve is not the full-batch one; each is within tol = 1e-10
    # of the fixed point, hence within 2 tol of the other, and
    # |dL| <= |dR| (|R - x| + |dR| / 2)
    op, dist = _suite_problem()
    family = FixedPointFamily(op, 0.5)
    theta = ParamClass("euclidean_ball", family.dim).sample(substream(3, 0))
    blocked, full, x, y = _suite_losses(family, theta, dist, BLOCK_ROWS)
    gap = np.linalg.norm(family.reconstruct_batch(theta, y) - x, axis=1)
    tol = 1e-10
    assert np.all(np.abs(blocked - full) <= 2 * tol * (gap + tol))


def _record_threads(monkeypatch, owner, name, seen, fail_rows=None):
    """Replace ``owner.name``, a method of the class ``owner`` or a function
    of the module ``owner`` under every name the package binds it to, by a
    wrapper that records the calling thread, and raises once it is given a
    batch of ``fail_rows`` rows."""
    original = getattr(owner, name)

    def wrapper(*args):
        seen.append(threading.get_ident())
        if fail_rows is not None and len(args[-1]) == fail_rows:
            raise FloatingPointError("block failed")
        return original(*args)

    targets = [owner] if isinstance(owner, type) else [
        module for key, module in list(sys.modules.items())
        if key.startswith("invlearn")
        and getattr(module, name, None) is original]
    for target in targets:
        monkeypatch.setattr(target, name, wrapper)


def test_verification_suite_calls_the_program_on_its_own_thread(
        monkeypatch):
    # every call of the suite that perfbench/tracing.py spans runs on the
    # calling thread, whose span stack is not thread-safe: the draw
    # threads only draw x and noise; no thread is left
    calls = {}
    for owner, name in ((ForwardOperator, "apply"),
                        (TikhonovFamily, "reconstruct_batch"),
                        (ProblemDistribution, "sample"),
                        (risk, "_batch_losses"), (stochastics, "orlicz_norm")):
        _record_threads(monkeypatch, owner, name,
                        calls.setdefault(name, []))
    before = threading.active_count()
    run_verification_suite(ExperimentConfig.from_dict(SMALL),
                           n_samples=3 * STACK_ROWS)
    assert threading.active_count() == before
    # the 32 contraction blocks, and more
    assert len(calls["apply"]) > 32 and len(calls["reconstruct_batch"]) > 32
    assert all(seen for seen in calls.values())
    assert {t for seen in calls.values() for t in seen} == \
        {threading.get_ident()}


def test_verification_suite_that_raises_leaves_no_thread(monkeypatch):
    # a reconstruction that raises on a contraction block ends the suite
    # with that error, and its draw thread is joined before it returns,
    # although the error's traceback still holds the suite's frame
    _record_threads(monkeypatch, TikhonovFamily, "reconstruct_batch", [],
                    fail_rows=STACK_ROWS)
    before = threading.active_count()
    error = None
    try:
        run_verification_suite(ExperimentConfig.from_dict(SMALL),
                               n_samples=1000)
    except FloatingPointError as exc:
        error = exc
    assert str(error) == "block failed"
    assert threading.active_count() == before


def test_verification_suite_peak_memory():
    # the 4-d diagonal Tikhonov config of the benchmark's verify_suite
    # workload: the suite keeps per-row squared norms (2 x 100 000), the
    # per-block m-averages (2 000 x 4) and the blocks in flight, at most
    # AHEAD drawn ahead and the one in hand, 4.2 MB each; its peak is
    # 28 MB, and the bound leaves 22 MB for allocator and timing slack
    n = 4
    cfg = ExperimentConfig.from_dict(override(SMALL, {
        "problem.forward.n_x": n, "problem.forward.n_y": n,
        "problem.forward.singular_values": [1.0 / k for k in range(1, n + 1)],
        "problem.prior.mean": [0.0] * n,
        "problem.prior.cov_eigenvalues": [1.0] * n,
        "problem.noise.mean": [0.0] * n,
        "problem.noise.cov_eigenvalues": [0.1] * n,
        "family.structure": "diagonal", "param_class.dim": 2 * n,
        "n_mc": 20_000}))
    tracemalloc.start()
    try:
        run_verification_suite(cfg, n_samples=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6, peak
