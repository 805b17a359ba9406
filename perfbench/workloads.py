"""The four benchmark workloads, each split into set-up and repeatable passes.

A workload is built once per process (``WORKLOADS[name](size)``: config
parse and validation, problem and family construction) and then runs one
*pass* per call of ``run(seed)``.  A pass returns its operations as
``{key: output}``; an output of ``None`` means the operation raised.
``valid`` checks the seed-independent invariants of one output and
``matches`` compares it with the output recorded for the default seed.

Sizes: ``bench`` is what the benchmark times; ``smoke`` is a reduced size
that finishes in seconds and only proves that everything runs.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

# Layer functions are called through their modules, so that the wrappers
# tracing.Tracer installs there are the ones called.
from invlearn import bounds, experiment, risk, stochastics
from invlearn import (BoundInputs, CoveringModel, ElasticNetFamily,
                      ErmOptions, ExperimentConfig, FixedPointFamily,
                      ForwardOperator, GaussianSpec, ParamClass,
                      ProblemDistribution)
from invlearn.errors import ConvergenceError
from invlearn.experiment import derived_seed

SLOPE_TOL = 1e-3        # rate-fit slope versus the recorded slope
CURVE_RTOL = 1e-6       # bound curves: the chaining quadrature's own accuracy
OBJECTIVE_RTOL = 1e-6   # Hölder ERM objective may be lower, never higher


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception is reported and becomes ``None``."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # any raise is a failed operation, counted by the caller
        traceback.print_exc()
        return None


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _problem(forward, noise_var, prior=None):
    n = len(forward["singular_values"])
    return {
        "forward": {"n_x": n, "n_y": n, "basis": "identity", **forward},
        "prior": prior or {"type": "gaussian", "mean": [0.0] * n,
                           "cov_eigenvalues": [1.0] * n},
        "noise": {"type": "gaussian", "mean": [0.0] * n,
                  "cov_eigenvalues": [noise_var] * n},
    }


def _power_decay(n, p=1.0):
    return {"singular_values": [k ** -p for k in range(1, n + 1)]}


SCALAR_FORWARD = {"singular_values": [1.0]}


def _config(problem, family, dim, **run):
    """An experiment config dict; ``run`` overrides the run settings."""
    return {
        "problem": problem, "family": family,
        "param_class": {"kind": "euclidean_ball", "dim": dim, "radius": 1.0},
        "m_grid": [16, 32, 64, 128], "trials_per_m": 10, "proxy_m": 12_800,
        "n_mc": 20_000, "master_seed": 1, **run,
    }


class Workload:
    """Defaults for the per-operation checks; see the module docstring."""

    def matches(self, key, out, ref) -> bool:
        return out == ref


class RatesScalar(Workload):
    """``run_rate_experiment`` on the criterion-2 scalar Tikhonov config.

    The bench size keeps the acceptance problem, family and ``n_mc`` but
    shortens the m-grid to 16…128 with 10 trials (``proxy_m`` follows as
    100 × max m) so that several passes fit in one run.

    The operation is the whole experiment.  A trial whose ERM stops short
    of ``erm_tol`` is marked failed by the program and left out of the fit;
    the experiment itself fails (raises) only above 5 % such trials.
    """

    SIZES = {
        "bench": {"m_grid": [16, 32, 64, 128], "trials_per_m": 10,
                  "proxy_m": 12_800, "n_mc": 100_000},
        "smoke": {"m_grid": [16, 32, 64, 128], "trials_per_m": 10,
                  "proxy_m": 12_800, "n_mc": 2_000},
    }
    VERDICTS = ("consistent", "faster-than-predicted",
                "slower-than-predicted", "degenerate")

    def __init__(self, size):
        self.cfg = ExperimentConfig.from_dict(_config(
            _problem(SCALAR_FORWARD, 1.0),
            {"kind": "tikhonov", "structure": "scale"}, 1, **self.SIZES[size]))

    def run(self, seed):
        cfg = ExperimentConfig.from_dict({**self.cfg.raw, "master_seed": seed})
        fit = _attempt(experiment.run_rate_experiment, cfg)
        return {"fit": fit and {
            "slope": fit.slope, "verdict": fit.verdict,
            "theta_star_in_class":
                self.cfg.param_class.contains(fit.theta_star)}}

    def valid(self, key, out):
        return (out["verdict"] in self.VERDICTS and out["theta_star_in_class"]
                and (out["verdict"] == "degenerate" or _finite(out["slope"])))

    def matches(self, key, out, ref):
        return (out["verdict"] == ref["verdict"]
                and abs(out["slope"] - ref["slope"]) <= SLOPE_TOL)


class VerifySuite(Workload):
    """``run_verification_suite`` on four configs that never call ERM.

    Scalar Gaussian Tikhonov (q = 1 route), bounded zero-noise fixed point
    (q = 2 route), diagonal Tikhonov on a 4-d power-decay operator, and
    diagonal Elastic-Net with alpha = 1 on a 3-d one.
    """

    SIZES = {"bench": {"n_samples": 100_000, "configs": 4},
             "smoke": {"n_samples": 20_000, "configs": 2}}

    def __init__(self, size):
        bounded = _problem(SCALAR_FORWARD, 0.0,
                           prior={"type": "uniform_ball", "dim": 1,
                                  "radius": 1.0})
        raw = {
            "scalar_tikhonov": _config(
                _problem(SCALAR_FORWARD, 1.0),
                {"kind": "tikhonov", "structure": "scale"}, 1),
            "bounded_fixed_point": _config(
                bounded, {"kind": "fixed_point", "contraction_budget": 0.5},
                2),
            "diagonal_tikhonov_n4": _config(
                _problem(_power_decay(4), 0.1),
                {"kind": "tikhonov", "structure": "diagonal"}, 8),
            "elastic_net_n3": _config(
                _problem(_power_decay(3), 0.1),
                {"kind": "elastic_net", "alpha": 1.0, "eta": 0.5,
                 "structure": "diagonal"}, 6),
        }
        spec = self.SIZES[size]
        self.n_samples = spec["n_samples"]
        self.cfgs = {name: ExperimentConfig.from_dict(d)
                     for name, d in list(raw.items())[:spec["configs"]]}

    def run(self, seed):
        ops = {}
        for name, cfg in self.cfgs.items():
            cfg = ExperimentConfig.from_dict({**cfg.raw, "master_seed": seed})
            report = _attempt(experiment.run_verification_suite, cfg,
                              n_samples=self.n_samples)
            ops[name] = report and {
                "q_route": report["q_route"],
                "checks": {check: entry["passed"]
                           for check, entry in report["checks"].items()}}
        return ops

    def valid(self, key, out):
        expected = {"family_invariants", "orlicz_x_sq_norm",
                    "orlicz_y_sq_norm", "stability_certificate",
                    "loss_average_contraction"}
        if key == "elastic_net_n3":
            expected.add("penalty_hypotheses")
        route = 2 if key == "bounded_fixed_point" else 1
        return set(out["checks"]) == expected and out["q_route"] == route


class BoundsCover(Workload):
    """``greedy_cover`` on the criterion-7 clouds plus the bound curves.

    Clouds: d in {1, 2, 3}, uniform points in [-1, 1]^d clipped to the unit
    ball, r in {1, 1/2, 1/4, 1/8}.  Curves: ``covering_bound`` and
    ``chaining_bound`` at r = m^-1/2 over the 9-point acceptance m-grid for
    a 3-d Euclidean ball and entropy decay s in {0.7, 2}.
    """

    SIZES = {"bench": 2_500, "smoke": 400}
    RADII = (1.0, 0.5, 0.25, 0.125)
    M_GRID = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

    def __init__(self, size):
        self.n_points = self.SIZES[size]
        self.models = {
            "euclidean_ball_d3": CoveringModel(kind="euclidean_ball", d=3),
            "entropy_decay_s0.7": CoveringModel(kind="entropy_decay", s=0.7),
            "entropy_decay_s2": CoveringModel(kind="entropy_decay", s=2.0),
        }
        self.inputs = [BoundInputs(K=1.0, M_ell=1.0, q=1, alpha=1.0, m=m)
                       for m in self.M_GRID]

    def run(self, seed):
        rng = np.random.default_rng(seed)
        ops = {}
        for d in (1, 2, 3):
            pts = rng.uniform(-1.0, 1.0, size=(self.n_points, d))
            pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
            for r in self.RADII:
                ops[f"cover_d{d}_r{r:g}"] = _attempt(bounds.greedy_cover,
                                                     pts, r)
        for name, cov in self.models.items():
            ops[f"covering_{name}"] = _attempt(
                lambda: [bounds.covering_bound(b, cov, b.m ** -0.5).value
                         for b in self.inputs])
            ops[f"chaining_{name}"] = _attempt(
                lambda: [bounds.chaining_bound(b, cov, b.m ** -0.5)
                         for b in self.inputs])
        return ops

    def valid(self, key, out):
        if key.startswith("cover_"):
            d, r = key[len("cover_d"):].split("_r")
            return 1 <= out <= bounds.covering_ball(int(d), 1.0, float(r))
        return all(_finite(v) and v > 0 for v in out)

    def matches(self, key, out, ref):
        if key.startswith("cover_"):
            return out == ref
        return all(_close(a, b, CURVE_RTOL) for a, b in zip(out, ref))


class HolderErm(Workload):
    """``erm_solve`` then ``expected_loss_mc`` for the non-affine families.

    Elastic-Net with alpha = 0.5 (per-sample accelerated solver,
    finite-difference ERM gradients) and the contractive fixed point, both
    on a 2-d power-decay operator, with 2 starts and a 5-iteration cap.

    The per-sample Elastic-Net solver raises ``ConvergenceError`` on a few
    inputs (20 000 iterations; about 1 case in 1 000).  As in the program's
    own rate experiment, which turns that error into a failed trial, such a
    case is a reported outcome, not a failed operation; the traced run
    counts the solves that raised as ``hypotheses.elastic_net_errors``.
    """

    SIZES = {
        "bench": {"m": (4, 8), "n_starts": 2, "max_iter": 5, "n_mc": 100},
        "smoke": {"m": (4,), "n_starts": 1, "max_iter": 2, "n_mc": 100},
    }

    def __init__(self, size):
        spec = self.SIZES[size]
        op = ForwardOperator.power_decay(2, 1.0)
        self.dist = ProblemDistribution(prior=GaussianSpec.iso(2, 1.0),
                                        noise=GaussianSpec.iso(2, 0.01),
                                        forward=op)
        families = {"elastic_net": ElasticNetFamily(op, alpha=0.5, eta=0.5,
                                                    structure="diagonal"),
                    "fixed_point": FixedPointFamily(op, 0.5)}
        self.cases = {
            f"{name}_m{m}": (fam, ParamClass("euclidean_ball", fam.dim), m)
            for name, fam in families.items() for m in spec["m"]}
        self.n_starts, self.max_iter = spec["n_starts"], spec["max_iter"]
        self.n_mc = spec["n_mc"]

    def _case(self, fam, pclass, m, seed):
        ts = stochastics.draw_training_set(self.dist, m,
                                           derived_seed(seed, m))
        opts = ErmOptions(n_starts=self.n_starts, max_iter=self.max_iter,
                          seed=derived_seed(seed, m, 1))
        try:
            res = risk.erm_solve(pclass, fam, ts, opts)
            mc = risk.expected_loss_mc(self.dist, res.theta, fam, self.n_mc,
                                       derived_seed(seed, m, 2))
        except ConvergenceError as exc:
            return {"convergence_error": str(exc)}
        return {"objective": res.objective, "mc_loss": mc.estimate,
                "theta_in_class": pclass.contains(res.theta)}

    def run(self, seed):
        return {key: _attempt(self._case, *case, seed)
                for key, case in self.cases.items()}

    def valid(self, key, out):
        return "convergence_error" in out or (
            out["theta_in_class"] and _finite(out["objective"],
                                              out["mc_loss"]))

    def matches(self, key, out, ref):
        if "objective" not in out or "objective" not in ref:
            return out == ref
        return out["objective"] <= ref["objective"] * (1 + OBJECTIVE_RTOL)


WORKLOADS = {"rates_scalar": RatesScalar, "verify_suite": VerifySuite,
             "bounds_cover": BoundsCover, "holder_erm": HolderErm}


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass ``index`` in a run with workload seed ``seed``."""
    return derived_seed(seed, index)


def score(workload, ops, ref):
    """(attempted, failed, misses) of one pass; ``ref`` is the recorded
    pass or None.  An operation fails when it raised, broke an invariant
    or missed its reference."""
    misses = []
    for key, out in ops.items():
        if out is None:
            misses.append(f"{key}: raised")
        elif not workload.valid(key, out):
            misses.append(f"{key}: invariant violated: {out}")
        elif ref is not None and (key not in ref or
                                  not workload.matches(key, out, ref[key])):
            misses.append(f"{key}: {out} differs from reference "
                          f"{ref.get(key)}")
    return len(ops), len(misses), misses
