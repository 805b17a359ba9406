"""Span tracing of invlearn's six layers, installed from outside the package.

``Tracer.install()`` replaces the public entry points listed in
``ENTRY_POINTS`` with wrappers that open a span (name, start, end, parent
id) around each call; ``uninstall()`` puts the originals back, so untraced
passes run the unmodified program.  A module-level function is replaced
under every name that refers to it, which covers the names other modules
import (``experiment.erm_solve``, ``experiment.draw_training_set``, ...).

Coarse spans are kept in memory one by one.  The fine spans that run
thousands of times per pass (operator applies, ``reconstruct_batch``,
per-sample solves, loss evaluations) are folded into per-name totals as
they close.  Self time (a span's duration minus that of its direct
children) is summed per layer as spans close.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("operators", "stochastics", "hypotheses", "risk", "bounds",
          "experiment")


def _rows(args, result):
    """Row count of the data argument of ``sample(rng, size)`` and
    ``reconstruct_batch(theta, Y)`` (the second argument after self)."""
    data = args[2]
    return {"rows": len(data) if hasattr(data, "__len__") else int(data)}


# (module, attribute, span name, folded, on_close(args, result) -> attrs)
ENTRY_POINTS = [
    ("operators", "ForwardOperator.apply", "operators.apply", True, None),
    ("operators", "ForwardOperator.adjoint_apply", "operators.apply", True,
     None),
    ("operators", "ForwardOperator.as_matrix", "operators.as_matrix", True,
     None),
    ("operators", "mmse_affine", "operators.mmse_affine", False, None),
    ("stochastics", "ProblemDistribution.sample", "stochastics.sample", True,
     _rows),
    ("stochastics", "draw_training_set", "stochastics.draw_training_set",
     True, None),
    ("stochastics", "orlicz_norm", "stochastics.orlicz", True, None),
    ("stochastics", "tail_check", "stochastics.tail_check", False, None),
    ("stochastics", "empirical_average_contraction",
     "stochastics.contraction", False, None),
    ("hypotheses", "TikhonovFamily.reconstruct_batch",
     "hypotheses.reconstruct_batch.tikhonov", True, _rows),
    ("hypotheses", "ElasticNetFamily.reconstruct_batch",
     "hypotheses.reconstruct_batch.elastic_net", True, _rows),
    ("hypotheses", "FixedPointFamily.reconstruct_batch",
     "hypotheses.reconstruct_batch.fixed_point", True, _rows),
    ("hypotheses", "TikhonovFamily.risk_gradient", "hypotheses.risk_gradient",
     True, None),
    ("hypotheses", "reconstruct_elastic_net", "hypotheses.elastic_net_solve",
     True, None),
    ("hypotheses", "reconstruct_fixed_point", "hypotheses.fixed_point_solve",
     True, None),
    ("hypotheses", "certify_stability", "hypotheses.certify", False, None),
    ("hypotheses", "check_g_hypotheses", "hypotheses.check_g", False, None),
    # _batch_losses is private but experiment imports it: without a span its
    # time would count as experiment self time
    ("risk", "_batch_losses", "risk.batch_losses", True, None),
    ("risk", "empirical_risk", "risk.empirical_risk", True, None),
    ("risk", "erm_solve", "risk.erm", False,
     lambda a, r: {"m": a[2].m, "converged": r.converged}),
    ("risk", "expected_loss_mc", "risk.mc", False, None),
    ("risk", "optimal_target_proxy", "risk.proxy", False, None),
    ("bounds", "greedy_cover", "bounds.greedy_cover", False,
     lambda a, r: {"balls": r}),
    ("bounds", "covering_bound", "bounds.covering_bound", True, None),
    ("bounds", "chaining_bound", "bounds.chaining", True, None),
    ("bounds", "predicted_exponent", "bounds.predicted_exponent", True, None),
    ("experiment", "run_rate_experiment", "experiment.rate_run", False,
     lambda a, r: {"failed_trials": sum(t.failed for t in r.trials)}),
    ("experiment", "run_verification_suite", "experiment.verify", False,
     None),
    ("experiment", "bound_domination_check", "experiment.bound_domination",
     False, None),
]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)
    # fine-span calls made below this span, for coarse spans only
    inner_calls: Counter | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass(slots=True)
class Totals:
    calls: int = 0
    seconds: float = 0.0
    rows: int = 0
    errors: int = 0  # calls that raised


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []       # closed coarse spans
        self.totals: dict[str, Totals] = {}
        self.layer_self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[Span] = []
        self._next_id = 0
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name, folded):
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next_id, name, parent, time.perf_counter(),
                    inner_calls=None if folded else Counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span, folded, attrs, raised=False):
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.duration
        if self._stack:
            self._stack[-1].child_s += duration
        self.layer_self_s[span.name.split(".", 1)[0]] += span.self_s
        totals = self.totals.setdefault(span.name, Totals())
        totals.calls += 1
        totals.seconds += duration
        totals.rows += attrs.get("rows", 0)
        totals.errors += raised
        if folded:
            owner = next((s for s in reversed(self._stack)
                          if s.inner_calls is not None), None)
            if owner is not None:
                owner.inner_calls[span.name] += 1
        else:
            span.attrs = attrs
            self.spans.append(span)

    def _wrap(self, fn, name, folded, on_close):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, folded)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, folded, {}, raised=True)
                raise
            self._close(span, folded,
                        on_close(args, result) if on_close else {})
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "invlearn" or n.startswith("invlearn.")]
        for module_name, attr, name, folded, on_close in ENTRY_POINTS:
            owner = importlib.import_module(f"invlearn.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(original, name, folded, on_close)
            targets = [owner] if path else \
                [m for m in modules if getattr(m, leaf, None) is original]
            for target in targets:
                self._patches.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def uninstall(self):
        while self._patches:
            target, leaf, original = self._patches.pop()
            setattr(target, leaf, original)


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, n_passes: int, overhead_s: float,
                  per_m_grid) -> dict:
    """Per-layer metrics, as averages per traced pass where they are sums."""
    def calls(name):
        t = tracer.totals.get(name)
        return t.calls / n_passes if t else 0.0

    def seconds(name):
        t = tracer.totals.get(name)
        return t.seconds / n_passes if t else 0.0

    def rows(name):
        t = tracer.totals.get(name)
        return t.rows / n_passes if t else 0.0

    def errors(name):
        t = tracer.totals.get(name)
        return t.errors / n_passes if t else 0.0

    def coarse(name):
        return [s for s in tracer.spans if s.name == name]

    erms = coarse("risk.erm")
    erm_ms = [s.duration * 1e3 for s in erms]
    batch_calls = sum(n for s in erms for k, n in s.inner_calls.items()
                      if k.startswith("hypotheses.reconstruct_batch."))
    out = {
        "operators.as_matrix_calls": calls("operators.as_matrix"),
        "operators.apply_calls": calls("operators.apply"),
        "operators.apply_s": seconds("operators.apply"),
        "stochastics.sample_rows": rows("stochastics.sample"),
        "stochastics.sample_s": seconds("stochastics.sample"),
        "stochastics.orlicz_calls": calls("stochastics.orlicz"),
        "stochastics.orlicz_s": seconds("stochastics.orlicz"),
        "stochastics.tail_check_s": seconds("stochastics.tail_check"),
        "stochastics.contraction_s": seconds("stochastics.contraction"),
    }
    for fam in ("tikhonov", "elastic_net", "fixed_point"):
        name = f"hypotheses.reconstruct_batch.{fam}"
        out[f"hypotheses.reconstruct_batch_calls.{fam}"] = calls(name)
        out[f"hypotheses.reconstruct_batch_rows.{fam}"] = rows(name)
        out[f"hypotheses.reconstruct_batch_s.{fam}"] = seconds(name)
    out.update({
        "hypotheses.risk_gradient_calls": calls("hypotheses.risk_gradient"),
        "hypotheses.risk_gradient_s": seconds("hypotheses.risk_gradient"),
        "hypotheses.elastic_net_solves": calls("hypotheses.elastic_net_solve"),
        "hypotheses.elastic_net_solve_s":
            seconds("hypotheses.elastic_net_solve"),
        "hypotheses.elastic_net_errors":
            errors("hypotheses.elastic_net_solve"),
        "hypotheses.certify_s": seconds("hypotheses.certify"),
        "risk.erm_calls": len(erms) / n_passes,
        "risk.erm_s": sum(s.duration for s in erms) / n_passes,
        "risk.erm_p50_ms": _quantile(erm_ms, 50),
        "risk.erm_p97_ms": _quantile(erm_ms, 97),
    })
    for m in per_m_grid:
        out[f"risk.erm_p50_ms.m{m}"] = _quantile(
            [s.duration * 1e3 for s in erms if s.attrs.get("m") == m], 50)
    out.update({
        "risk.erm_converged_ratio":
            sum(bool(s.attrs.get("converged")) for s in erms) / len(erms)
            if erms else 0.0,
        "risk.batch_calls_per_erm": batch_calls / len(erms) if erms else 0.0,
        "risk.mc_calls": calls("risk.mc"),
        "risk.mc_s": seconds("risk.mc"),
        "risk.proxy_s": seconds("risk.proxy"),
        "bounds.greedy_cover_calls": calls("bounds.greedy_cover"),
        "bounds.greedy_cover_s": seconds("bounds.greedy_cover"),
        "bounds.cover_balls": sum(s.attrs.get("balls", 0) for s in
                                  coarse("bounds.greedy_cover")) / n_passes,
        "bounds.chaining_calls": calls("bounds.chaining"),
        "bounds.chaining_s": seconds("bounds.chaining"),
        "bounds.covering_bound_s": seconds("bounds.covering_bound"),
        "experiment.rate_run_self_s": sum(
            s.self_s for s in coarse("experiment.rate_run")) / n_passes,
        "experiment.failed_trials": sum(
            s.attrs.get("failed_trials", 0)
            for s in coarse("experiment.rate_run")) / n_passes,
        "experiment.verify_self_s": sum(
            s.self_s for s in coarse("experiment.verify")) / n_passes,
        "trace_overhead_s": overhead_s,
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s[layer] / n_passes
    return out
