"""Experiment harness: configs, rate experiments, verification suite.

The central experiment draws training sets of increasing size m, runs ERM
on each, measures the excess expected loss against the optimal-target
proxy on a shared Monte Carlo sample, and fits the log-log decay rate of
the mean excess, to be compared with the predicted exponent.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import time
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .errors import ConfigurationError, ConvergenceError
from .hypotheses import (STACK_ROWS, ElasticNetFamily, FixedPointFamily,
                         ParamClass, TikhonovFamily, certify_stability,
                         check_g_hypotheses)
from .operators import ForwardOperator, GaussianSpec
from .risk import (ErmOptions, _batch_losses, _risk_and_grad_factory,
                   erm_solve, erm_solve_trials, optimal_target_proxy,
                   trial_groups)
from .stochastics import (BoundedSpec, ProblemDistribution, TrainingSet,
                          draw_training_set, empirical_average_contraction,
                          orlicz_norm, substream, tail_check)

log = logging.getLogger(__name__)

SLOPE_BAND = 0.15  # acceptance band around the predicted exponent
MAX_FAILURE_FRACTION = 0.05  # failed trials above this invalidate a rate run
PROBE_PAIRS = 8  # random theta pairs of the verification suite's certificate
PROBE_YS = 8     # data vectors the certificate is evaluated on
CONTRACTION_M_GRID = (16, 64, 256, 1024)  # m of the loss-average contraction
CONTRACTION_TRIALS = 2000  # m-averages per m of that table
# each row block of the contraction draw holds whole trials
assert STACK_ROWS % max(CONTRACTION_M_GRID) == 0


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a string (config fingerprinting)."""
    h = 0xcbf29ce484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# value types of the checked config leaves (JSON admits NaN and Infinity)
_STR, _INT, _NUM = "a string", "an integer", "a finite number"
_VEC = "a list of finite numbers"
_GRID = "a list of positive integers"
_MAT = "a list of equal-length lists of finite numbers"
_BASIS = f'"identity" or {_MAT}'

_REQUIRED_KEYS = ("problem", "family", "param_class", "m_grid",
                  "trials_per_m", "proxy_m", "n_mc", "master_seed")
# per object: {key: value type, or None where another check reads the
# value}
_TOP_KEYS = {"problem": None, "family": None, "param_class": None,
             "m_grid": _GRID, "trials_per_m": _INT, "proxy_m": _INT,
             "n_mc": _INT, "master_seed": _INT}
_FAMILY_KEYS = {"tikhonov": {"kind": None, "structure": _STR},
                "elastic_net": {"kind": None, "alpha": _NUM, "eta": _NUM,
                                "structure": _STR},
                "fixed_point": {"kind": None, "contraction_budget": _NUM}}
_FAMILIES = {cls.kind: cls for cls in (TikhonovFamily, ElasticNetFamily,
                                        FixedPointFamily)}
_PARAM_CLASS_KEYS = {"kind": None, "dim": _INT, "radius": _NUM,
                     "smoothness": _NUM}
_PROBLEM_KEYS = {"forward": None, "prior": None, "noise": None}
_FORWARD_KEYS = {"n_x": _INT, "n_y": _INT, "singular_values": _VEC,
                 "basis": None}
_GAUSSIAN_KEYS = {"type": None, "mean": _VEC, "cov_eigenvalues": _VEC,
                  "cov_basis": _MAT}
# per law type: (allowed keys, required keys)
_LAW_KEYS = {"gaussian": (_GAUSSIAN_KEYS, ("mean", "cov_eigenvalues")),
             "uniform_ball": ({"type": None, "dim": _INT, "radius": _NUM},
                              ("dim", "radius"))}


def _has_type(value, kind) -> bool:
    if kind == _STR:
        return isinstance(value, str)
    if kind == _GRID:
        return isinstance(value, list) and all(
            _has_type(m, _INT) and m >= 1 for m in value)
    if kind in (_INT, _NUM):
        return isinstance(value, int if kind == _INT else (int, float)) \
            and not isinstance(value, bool) and abs(value) < math.inf
    if kind == _BASIS and value == "identity":
        return True
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        return False
    return (isinstance(value, list) and array.ndim == (1 if kind == _VEC else 2)
            and array.dtype.kind in "iuf" and np.isfinite(array).all())


def _known_keys(cfg, allowed, prefix: str = "", required=()) -> dict:
    """``cfg`` itself, after checking that it is an object whose keys are
    all in ``allowed`` (any key if None) and include ``required``, and that
    each value has the type ``allowed`` gives its key; errors name the
    dotted config path."""
    if not isinstance(cfg, dict):
        raise ConfigurationError(
            f"config {prefix.rstrip('.') or 'root'} must be a JSON object")
    unknown = sorted(set(cfg) - set(allowed)) if allowed is not None else []
    if unknown:
        raise ConfigurationError(f"unknown config key: {prefix}{unknown[0]}")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ConfigurationError(
            f"missing required config key: {prefix}{missing[0]}")
    for key, kind in (allowed or {}).items():
        if kind is not None and key in cfg and not _has_type(cfg[key], kind):
            raise ConfigurationError(
                f"config {prefix}{key} must be {kind}, got {cfg[key]!r}")
    return cfg


def _build(path: str, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, the object at config ``path``; the range
    checks are the constructor's, and its errors are re-raised naming
    ``path``."""
    try:
        return cls(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"config {path}: {exc}") from exc


def _read_problem(problem) -> ProblemDistribution:
    _known_keys(problem, _PROBLEM_KEYS, "problem.",
                ("forward", "prior", "noise"))
    forward = _known_keys(problem["forward"], _FORWARD_KEYS,
                          "problem.forward.", ("n_x", "n_y", "singular_values"))
    basis = forward.get("basis", "identity")
    basis = _known_keys({} if basis == "identity" else basis,
                        {"left": _BASIS, "right": _BASIS},
                        "problem.forward.basis.")
    left, right = (None if basis.get(side, "identity") == "identity"
                   else basis[side] for side in ("left", "right"))
    op = _build("problem.forward", ForwardOperator, n_x=forward["n_x"],
                n_y=forward["n_y"], singular_values=forward["singular_values"],
                left_basis=left, right_basis=right)
    laws = {}
    for name, kinds in (("prior", ("gaussian", "uniform_ball")),
                        ("noise", ("gaussian",))):
        law = _known_keys(problem[name], None, f"problem.{name}.")
        kind = law.get("type", "gaussian")
        if kind not in kinds:
            raise ConfigurationError(
                f"unsupported law at problem.{name}.type: {kind!r}")
        allowed, required = _LAW_KEYS[kind]
        _known_keys(law, allowed, f"problem.{name}.", required)
        # each length of the law's vectors and matrices, or its ball's dim
        n_key = "n_x" if name == "prior" else "n_y"
        for key in ("dim", "mean", "cov_eigenvalues", "cov_basis"):
            if key in law and set(np.shape(law[key]) or (law[key],)) \
                    != {forward[n_key]}:
                raise ConfigurationError(
                    f"config problem.{name}.{key} does not fit "
                    f"problem.forward.{n_key} = {forward[n_key]}")
        if name == "noise" and any(law["mean"]):
            raise ConfigurationError("config problem.noise.mean must be zero")
        if kind == "gaussian":
            laws[name] = _build(f"problem.{name}", GaussianSpec,
                                mean=law["mean"],
                                covariance_eigenvalues=law["cov_eigenvalues"],
                                covariance_basis=law.get("cov_basis"))
        else:
            laws[name] = _build(f"problem.{name}", BoundedSpec,
                                dim=law["dim"], radius=law["radius"])
    return _build("problem", ProblemDistribution, forward=op, **laws)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemDistribution
    family: TikhonovFamily | ElasticNetFamily | FixedPointFamily
    param_class: ParamClass
    m_grid: tuple
    trials_per_m: int
    proxy_m: int
    n_mc: int
    master_seed: int
    raw: dict  # the config as read; its digest identifies a run

    def __post_init__(self):
        mg = self.m_grid  # a tuple of positive integers (schema-checked)
        if any(b <= a for a, b in zip(mg, mg[1:])) or not mg:
            raise ConfigurationError(
                "config m_grid must be non-empty, strictly increasing")
        if self.trials_per_m < 1:
            raise ConfigurationError("config trials_per_m must be >= 1")
        if self.proxy_m < 100 * max(mg):
            raise ConfigurationError("config proxy_m must be >= 100 * max(m_grid)")
        if self.n_mc < 100:
            raise ConfigurationError("config n_mc must be >= 100")

    @property
    def digest(self) -> int:
        return fnv1a64(canonical_json(self.raw))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The one reader of the config format: each object's keys and
        value types are checked, and the object is built on the spot."""
        _known_keys(d, _TOP_KEYS, required=_REQUIRED_KEYS)
        problem = _read_problem(d["problem"])
        param_class = _build("param_class", ParamClass, **_known_keys(
            d["param_class"], _PARAM_CLASS_KEYS, "param_class.",
            ("kind", "dim")))
        params = dict(_known_keys(d["family"], None, "family."))
        kind = params.pop("kind", None)
        if not isinstance(kind, str) or kind not in _FAMILIES:
            raise ConfigurationError(
                f"unknown family kind at family.kind: {kind!r}")
        _known_keys(d["family"], _FAMILY_KEYS[kind], "family.")
        if kind == "tikhonov":
            params["noise"] = problem.noise
            op = problem.forward
            if op.rank < op.n_x:
                # every class holds theta = 0, where B = 0 leaves ker A free
                raise ConfigurationError(
                    "config problem.forward.singular_values: the tikhonov "
                    f"family needs n_x = {op.n_x} of them, got {op.rank}; "
                    "at B = 0 its normal matrix is singular on ker A")
        # the constructors hold the defaults of the family keys
        family = _build("family", _FAMILIES[kind], problem.forward, **params)
        if param_class.dim != family.dim:
            raise ConfigurationError(
                f"config param_class.dim is {param_class.dim}, but the "
                f"family's theta has length {family.dim}")
        return cls(problem=problem, family=family, param_class=param_class,
                   m_grid=tuple(d["m_grid"]),
                   trials_per_m=d["trials_per_m"], proxy_m=d["proxy_m"],
                   n_mc=d["n_mc"], master_seed=d["master_seed"], raw=d)


def q_route(problem: ProblemDistribution) -> int:
    """Orlicz exponent q of the squared data norms.

    Bounded x with zero noise gives sub-Gaussian squared norms (q = 2);
    Gaussian data gives sub-exponential ones (q = 1).
    """
    if isinstance(problem.prior, BoundedSpec) and \
            np.all(problem.noise.covariance_eigenvalues == 0):
        return 2
    return 1


def bound_inputs(cfg: ExperimentConfig) -> tuple:
    """The bound inputs at each m of ``m_grid`` and the covering model, all
    derived from the config: q from ``q_route``, alpha from the family, D
    from the class diameter.  A ``euclidean_ball`` class is covered as the
    ball of radius max(radius, 1/2) that contains it, a ``sobolev_ball``
    class by the polynomial entropy decay of its smoothness."""
    pclass = cfg.param_class
    if pclass.kind == "euclidean_ball":
        cov = bounds_mod.CoveringModel("euclidean_ball", d=pclass.dim,
                                       D=pclass.diameter / 2)
    else:
        cov = bounds_mod.CoveringModel("entropy_decay", s=pclass.smoothness)
    q = q_route(cfg.problem)
    return [bounds_mod.BoundInputs(m=m, q=q, alpha=cfg.family.alpha,
                                   D=pclass.diameter)
            for m in cfg.m_grid], cov


def derived_seed(master: int, *indices: int) -> int:
    """Stable 63-bit child seed for (master, indices), drawn from the seed
    sequence of ``substream(master, *indices)``."""
    ss = substream(master, *indices).bit_generator.seed_seq
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    m: int
    trial: int
    sample_error: float
    emp_risk_hat: float
    exp_loss_hat: float
    exp_loss_star: float
    erm_residual: float
    seed: int
    failed: bool = False


@dataclass(frozen=True)
class RateFit:
    per_m: list
    slope: float | None
    slope_ci: tuple | None
    predicted_exponent: float
    verdict: str
    theta_star: np.ndarray
    trials: list = field(default_factory=list)
    config_digest: int = 0

    def csv_text(self) -> str:
        lines = ["m,trial,sample_error,emp_risk_hat,exp_loss_hat,"
                 "exp_loss_star,erm_residual,seed"]
        for t in self.trials:
            lines.append(f"{t.m},{t.trial},{t.sample_error:.17g},"
                         f"{t.emp_risk_hat:.17g},{t.exp_loss_hat:.17g},"
                         f"{t.exp_loss_star:.17g},{t.erm_residual:.17g},{t.seed}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "theta_star": np.asarray(self.theta_star).tolist(),
            "per_m": self.per_m,
            "slope": self.slope,
            "slope_ci": list(self.slope_ci) if self.slope_ci else None,
            "predicted_exponent": self.predicted_exponent,
            "verdict": self.verdict,
        }

    def write(self, out_dir) -> None:
        import pathlib
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "rates.csv").write_text(self.csv_text())
        (out / "summary.json").write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n")


def run_rate_experiment(cfg: ExperimentConfig, out_dir=None) -> RateFit:
    """The central experiment: mean excess loss versus m, with a rate fit.

    Fully deterministic given the config: each trial draws from seeds keyed
    by (m, trial).  The trials of one m are fitted in lock-step stacks
    (``risk.trial_groups``: one stack of an affine family's trials, one
    trial at a time otherwise); a stack that raises ``ConvergenceError`` is
    refitted one trial at a time, and a trial that raises alone is marked
    failed.  Each fit's loss L(theta_hat) and sample error
    L(theta_hat) - L(theta_star) are ERM's own risk and risk change
    (``risk._risk_and_grad_factory``) with the shared evaluation sample as
    the data set.  Progress goes to this module's logger at INFO.
    """
    if cfg.trials_per_m < 10:
        raise ConfigurationError("config trials_per_m must be >= 10 for a rate fit")
    family = cfg.family
    pclass = cfg.param_class
    # one shared evaluation sample: common random numbers across all trials
    # and the proxy's gate
    x_eval, y_eval = cfg.problem.sample(substream(cfg.master_seed, 9999),
                                        cfg.n_mc)
    start = time.perf_counter()
    theta_star, loss_star = optimal_target_proxy(
        pclass, family, cfg.problem, cfg.proxy_m,
        derived_seed(cfg.master_seed, 11), x_eval, y_eval,
        ErmOptions(seed=derived_seed(cfg.master_seed, 7)))
    eval_set = TrainingSet(x=x_eval, y=y_eval, seed=cfg.master_seed)
    risk, _, change = _risk_and_grad_factory(family, pclass, [eval_set])
    row = np.arange(1)  # every evaluation is a one-theta stack
    state_star = risk(theta_star[None], row)[1]
    log.info("proxy fit seconds=%.3f", time.perf_counter() - start)

    records = []
    opts = ErmOptions()
    for m in cfg.m_grid:
        start = time.perf_counter()
        trials = range(cfg.trials_per_m)
        seeds = [derived_seed(cfg.master_seed, m, t) for t in trials]
        erm_seeds = [derived_seed(cfg.master_seed, 1, m, t) for t in trials]
        groups = trial_groups(len(trials), family, opts)
        fits = []
        for g in groups:
            sets = [draw_training_set(cfg.problem, m, s) for s in seeds[g]]
            try:
                fits += erm_solve_trials(pclass, family, sets, erm_seeds[g],
                                         opts)
            except ConvergenceError:
                # one trial's error must not fail the others: refit alone,
                # unless the stack was one trial
                fits += [None] if len(sets) == 1 else [
                    _fit_alone(pclass, family, ts, seed)
                    for ts, seed in zip(sets, erm_seeds[g])]
        for t, seed, res in zip(trials, seeds, fits):
            if res is None:
                records.append(TrialRecord(m, t, math.nan, math.nan, math.nan,
                                           loss_star, math.inf, seed,
                                           failed=True))
                continue
            f_hat, state = risk(res.theta[None], row)
            records.append(TrialRecord(
                m=m, trial=t,
                sample_error=float(change(state, state_star, row)[0]),
                emp_risk_hat=res.objective,
                exp_loss_hat=float(f_hat[0]),
                exp_loss_star=loss_star,
                erm_residual=res.residual,
                seed=seed,
                failed=not res.converged))
        log.info("m=%d trials=%d failed=%d groups=%d seconds=%.3f", m,
                 len(trials), sum(r.failed for r in records[-len(trials):]),
                 len(groups), time.perf_counter() - start)

    n_failed = sum(r.failed for r in records)
    if n_failed > MAX_FAILURE_FRACTION * len(records):
        raise ConvergenceError(
            f"experiment invalid: {n_failed}/{len(records)} trials failed "
            f"(cap {MAX_FAILURE_FRACTION:.0%})")

    # per m, the sample errors of the trials that did not fail, and how many
    # failed
    shape = (len(cfg.m_grid), cfg.trials_per_m)
    errors = np.array([r.sample_error for r in records]).reshape(shape)
    kept = ~np.array([r.failed for r in records]).reshape(shape)
    vals = [row[keep] for row, keep in zip(errors, kept)]
    means = np.array([v.mean() for v in vals])
    ses = np.array([v.std(ddof=1) / np.sqrt(v.size) for v in vals])
    per_m = [{"m": m, "mean": float(mean), "stderr": float(se), "n": v.size,
              "failed": cfg.trials_per_m - v.size}
             for m, mean, se, v in zip(cfg.m_grid, means, ses, vals)]

    inputs, cov = bound_inputs(cfg)
    predicted = bounds_mod.predicted_exponent(
        cov, alpha=inputs[0].alpha, q=inputs[0].q, method="chaining").exponent

    usable = means > 0
    if pclass.radius == 0 or np.max(np.abs(means)) < 1e-14 or \
            usable.sum() < 4:
        slope, ci, verdict = None, None, "degenerate"
    else:
        ms = np.array(cfg.m_grid, dtype=float)
        slope, ci = _weighted_loglog_fit(ms[usable], means[usable], ses[usable])
        if abs(slope - predicted) <= SLOPE_BAND or \
                (ci[0] <= predicted <= ci[1]):
            verdict = "consistent"
        elif slope < predicted:
            verdict = "faster-than-predicted"
        else:
            verdict = "slower-than-predicted"

    fit = RateFit(per_m=per_m, slope=slope, slope_ci=ci,
                  predicted_exponent=predicted, verdict=verdict,
                  theta_star=theta_star, trials=records,
                  config_digest=cfg.digest)
    if out_dir is not None:
        fit.write(out_dir)
    return fit


def _fit_alone(pclass, family, ts, seed):
    """One trial's ``erm_solve``, or None where it raises
    ``ConvergenceError``."""
    try:
        return erm_solve(pclass, family, ts, ErmOptions(seed=seed))
    except ConvergenceError:
        return None


def _weighted_loglog_fit(ms, means, ses):
    """Weighted least squares of log(mean) on log(m); returns slope, 95% CI."""
    sigma = np.clip(ses / means, 1e-6, None)  # delta method on log scale
    # polyfit weights the residuals, not their squares: w = 1/sigma
    beta, cov = np.polyfit(np.log(ms), np.log(means), 1, w=1.0 / sigma,
                           cov="unscaled")
    slope = float(beta[0])
    se_slope = float(np.sqrt(cov[0, 0]))
    return slope, (slope - 1.96 * se_slope, slope + 1.96 * se_slope)


def bound_domination_check(fit: RateFit, inputs: bounds_mod.BoundInputs,
                           cov: bounds_mod.CoveringModel, r: float = 0.0):
    """Calibrate the chaining bound at the smallest m, then require the
    empirical curve to sit below it at every larger m."""
    per_m = [p for p in fit.per_m if p["mean"] > 0]
    if len(per_m) < 2:
        raise ConfigurationError("need at least two usable grid points")
    m0 = per_m[0]["m"]

    def bound_at(m):
        return bounds_mod.chaining_bound(dataclasses.replace(inputs, m=m),
                                         cov, r)

    calib = per_m[0]["mean"] / bound_at(m0)
    ratios = [(p["m"], p["mean"] / (calib * bound_at(p["m"])))
              for p in per_m[1:]]
    return all(r <= 1.0 + 1e-9 for _, r in ratios), ratios


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def run_verification_suite(cfg: ExperimentConfig,
                           n_samples: int = 100_000) -> dict:
    """Empirical checklist behind the sample-error theory.

    Verifies: (a) the squared norms of x and y are q-Orlicz with finite
    estimated norms and admissible tails, (b) the family admits a
    stability/sublinearity certificate on probes, (c) loss averages
    contract at the expected 1/sqrt(m) envelope, and, for Elastic-Net,
    (d) the learned-penalty hypotheses.

    Its two large draws stream through ``ProblemDistribution.draw`` in row
    blocks, each closed when the suite returns or raises, so that no draw
    thread outlives it; the contraction keeps each block's m-averages, not
    its losses.  Fixed-point rows stop together per block: at
    ``pclass.center`` all stop at step 0 in iteration 2, as unblocked;
    elsewhere within 2 tol.
    """
    report = {"checks": {}, "passed": True}

    def record(name, ok, **info):
        report["checks"][name] = {"passed": bool(ok), **info}
        if not ok:
            report["passed"] = False

    # the family is built and checked when the config is read
    record("family_invariants", True)
    family = cfg.family

    dist = cfg.problem
    q = q_route(dist)
    report["q_route"] = q

    x, blocks = dist.draw(substream(cfg.master_seed, 501), n_samples)
    y_sq = np.empty(n_samples)
    with closing(blocks):
        for rows, y_b in blocks:
            y_sq[rows] = np.sum(y_b**2, axis=1)
    for name, v in (("x_sq_norm", np.sum(x**2, axis=1)), ("y_sq_norm", y_sq)):
        norm = orlicz_norm(v, q)
        record(f"orlicz_{name}", np.isfinite(norm) and norm > 0
               and tail_check(v, norm * 1.05, q), q=q, norm=norm)

    pclass = cfg.param_class
    rng_p = substream(cfg.master_seed, 502)
    pairs = []
    for _ in range(PROBE_PAIRS):
        a = pclass.sample(rng_p)
        b = pclass.sample(rng_p)
        if np.any(a != b):
            pairs.append((a, b))
    probe_xs, probe_ys = map(list, dist.sample(rng_p, PROBE_YS))
    try:
        cert = certify_stability(family, pclass, probe_ys, pairs)
        record("stability_certificate",
               np.isfinite([cert.L_R, cert.Lp_R, cert.M_R, cert.Mp_R]).all(),
               certificate=cert.to_dict())
    except Exception as exc:  # evaluation failures propagate into the report
        record("stability_certificate", False, error=str(exc))

    if family.kind == "elastic_net":
        theta0 = pclass.sample(substream(cfg.master_seed, 503))
        p = family.unpack(theta0)
        g_rep = check_g_hypotheses(p.B, p.h, family.alpha, probe_xs)
        ok = np.isfinite(g_rep.M_g) and g_rep.convex_midpoint_ok is not False
        record("penalty_hypotheses", ok, alpha=family.alpha,
               M_g=g_rep.M_g, holder_constant=g_rep.holder_constant,
               convexity_checked=g_rep.convexity_checked)

    # one draw of losses at the class centre serves every m: a trial's
    # m-average reads the first m losses of its row, and each block holds
    # whole trials, whose averages are taken before the next block
    width = max(CONTRACTION_M_GRID)
    xs, blocks = dist.draw(substream(cfg.master_seed, 505),
                           CONTRACTION_TRIALS * width)
    with closing(blocks):
        table = empirical_average_contraction(
            (_batch_losses(family, pclass.center, xs[rows], y_b)
             .reshape(-1, width) for rows, y_b in blocks),
            q, CONTRACTION_M_GRID)
    degenerate = bool(np.all(table.k_hat == 0))  # identically-zero loss process
    record("loss_average_contraction",
           degenerate or -0.65 <= table.slope <= -0.3,
           slope=table.slope, degenerate=degenerate)
    return report
