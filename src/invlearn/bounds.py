"""Covering-number models, sample-error bound curves, and rate exponents.

The absolute constants ``C``, ``C1`` and ``C2`` of the bounds are left
unspecified by the theory and fixed at 1; the curves are therefore only
compared to experiments in shape (log-log slope or one-point-calibrated
domination), never in level.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError

COVERING_GRID = 200  # log-grid points over which covering_bound is minimized
COVER_BLOCK = 64  # sorted rows of greedy_cover's band computed at once
C = C1 = C2 = 1.0  # absolute constants of the covering and chaining bounds


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------

def covering_ball(d: int, D: float, r: float) -> float:
    """Upper bound (2 D sqrt(d) / r)^d on the covering number of a radius-D
    Euclidean ball in R^d; a single ball suffices once r exceeds D."""
    if r <= 0:
        raise ConfigurationError("radius r must be positive")
    if d < 1 or D <= 0:
        raise ConfigurationError("d >= 1 and D > 0 required")
    if r > D:
        return 1.0
    return max(1.0, (2.0 * D * math.sqrt(d) / r) ** d)


def _band(x0: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Column windows [lo[i], hi[i]) of the sorted first coordinates ``x0``
    outside of which (x0[i] - x0[j])^2 alone exceeds the cover limit.  The
    reach's relative margin absorbs the rounding of that square and of the
    limit, its absolute one the rounding of x0 -/+ reach."""
    reach = r * (1 + 1e-6) + 4 * np.finfo(float).eps * np.abs(x0).max()
    return (np.searchsorted(x0, x0 - reach, side="left"),
            np.searchsorted(x0, x0 + reach, side="right"))


def _cover_matrix(pts: np.ndarray, r: float):
    """The stable sort ``order`` of the points by first coordinate, and
    covers[i, j]: the radius-r ball at sorted point i covers sorted point j.

    The tolerance absorbs floating-point noise for points exactly on a
    ball's boundary.  Squared distances are summed coordinate by coordinate
    in order, ``COVER_BLOCK`` sorted rows at a time, over the columns in
    the ``_band`` of the block's rows only; the rest stay False.  Every
    entry equals the test on ``cdist(pts[order], pts[order],
    "sqeuclidean")`` bit for bit, and the matrix is symmetric.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    pts, n = pts[order], pts.shape[0]
    lo, hi = _band(pts[:, 0], r)
    covers = np.zeros((n, n), dtype=bool)
    acc_buf = np.empty(min(n, COVER_BLOCK) * n)
    tmp_buf = np.empty_like(acc_buf)
    for start in range(0, n, COVER_BLOCK):
        rows = pts[start:start + COVER_BLOCK]
        a, b = lo[start], hi[start + len(rows) - 1]
        acc = acc_buf[:len(rows) * (b - a)].reshape(len(rows), b - a)
        tmp = tmp_buf[:acc.size].reshape(acc.shape)
        np.subtract(rows[:, :1], pts[a:b, 0], out=acc)
        np.multiply(acc, acc, out=acc)
        for k in range(1, pts.shape[1]):
            np.subtract(rows[:, k, None], pts[a:b, k], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        np.less_equal(acc, (r * r) * (1 + 1e-9),
                      out=covers[start:start + COVER_BLOCK, a:b])
    return order, covers


def greedy_cover(points, r: float) -> int:
    """Cardinality of a greedy cover of a finite point set by radius-r balls.

    Each step picks the point whose ball covers the most still-uncovered
    points (ties broken by lowest index).  Upper-bounds the covering number
    of the set; used as a cross-check oracle in low dimension.  The points
    are swept in order of their first coordinate, and gains are summed and
    updated within the ``_band`` windows of ``_cover_matrix`` only.  An
    (n, d) array is n points in R^d, a 1-d one n scalar points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim > 2:
        raise ConfigurationError("points must be an (n, d) or a 1-d array")
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    if n == 0:
        raise ConfigurationError("point set must be non-empty")
    if not np.isfinite(pts).all():
        raise ConfigurationError("points must have finite coordinates")
    if not (math.isfinite(r) and r > 0):
        raise ConfigurationError("radius r must be finite and positive")
    order, covers = _cover_matrix(pts, r)
    lo, hi = _band(pts[order, 0], r)
    # the matrix is symmetric, so row j lists the balls that cover point j;
    # gains count the still-uncovered points in each ball
    gains = np.concatenate([np.count_nonzero(
        covers[s:s + COVER_BLOCK, lo[s]:hi[min(s + COVER_BLOCK, n) - 1]],
        axis=1) for s in range(0, n, COVER_BLOCK)])
    uncovered = np.ones(n, dtype=bool)
    count = 0
    while uncovered.any():
        best = np.flatnonzero(gains == gains.max())
        center = best[np.argmin(order[best])]  # lowest original index
        newly = np.flatnonzero(covers[center] & uncovered)
        uncovered[newly] = False
        a, b = lo[newly[0]], hi[newly[-1]]
        gains[a:b] -= np.count_nonzero(covers[newly, a:b], axis=0)
        count += 1
    return count


@dataclass(frozen=True)
class CoveringModel:
    """r -> log N(Theta, r) upper bound for one of the two compact classes:
    a radius-D ball in R^d, or a compactly embedded ball whose entropy
    decays as log N(r) = c * r^{-1/s}."""

    kind: str  # "euclidean_ball" | "entropy_decay"
    d: int | None = None
    D: float = 1.0
    s: float | None = None
    c: float = 1.0

    def __post_init__(self):
        if self.kind == "euclidean_ball":
            if self.d is None or self.d < 1 or self.D <= 0:
                raise ConfigurationError("euclidean_ball needs d >= 1, D > 0")
        elif self.kind == "entropy_decay":
            if self.s is None or self.s <= 0 or self.c <= 0:
                raise ConfigurationError("entropy_decay needs s > 0 and c > 0")
        else:
            raise ConfigurationError(f"unknown covering model {self.kind!r}")

    def log_n(self, r: float) -> float:
        """log N(r): c r^(-1/s), or for the ball the log of
        ``covering_ball``, d log(2 D sqrt(d) / r) (0 once r > D), taken
        without forming the power, which overflows in high dimension."""
        if r <= 0:
            raise ConfigurationError("radius r must be positive")
        if self.kind == "euclidean_ball":
            if r > self.D:
                return 0.0
            return self.d * math.log(2.0 * self.D * math.sqrt(self.d) / r)
        return self.c * r ** (-1.0 / self.s)


# ---------------------------------------------------------------------------
# Bound evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class BoundInputs:
    m: int
    K: float = 1.0    # Orlicz constant of the loss (or its increments)
    M_ell: float = 1.0  # expectation bound on the stability envelope
    q: int = 1
    alpha: float = 1.0
    D: float = 1.0

    def __post_init__(self):
        if self.q not in (1, 2):
            raise ConfigurationError("q must be 1 or 2")
        if not (0 < self.alpha <= 1):
            raise ConfigurationError("alpha must lie in (0, 1]")
        if self.K < 0 or self.M_ell < 0 or self.m < 1 or self.D < 1:
            raise ConfigurationError("K, M_ell >= 0, m >= 1, D >= 1 required")


@dataclass(frozen=True)
class BoundCurve:
    value: float          # bound at the requested r
    r_grid: np.ndarray
    values: np.ndarray
    argmin_r: float
    min_value: float

    def to_dict(self) -> dict:
        return {"r_grid": self.r_grid.tolist(), "values": self.values.tolist(),
                "argmin_r": self.argmin_r, "min_value": self.min_value}


def covering_bound(inputs: BoundInputs, cov: CoveringModel,
                   r: float) -> BoundCurve:
    """Two-term covering bound C K/sqrt(m) (log N(r))^{1/q} + 2 M_ell r^alpha.

    Also minimizes the bound over a log grid of ``COVERING_GRID`` points in
    [1e-6 D, D].
    """
    if r <= 0:
        raise ConfigurationError("r must be positive")

    def value_at(rr):
        entropy = cov.log_n(rr) ** (1.0 / inputs.q)
        return (C * inputs.K / math.sqrt(inputs.m) * entropy
                + 2.0 * inputs.M_ell * rr ** inputs.alpha)

    grid = np.geomspace(1e-6 * inputs.D, inputs.D, COVERING_GRID)
    values = np.array([value_at(rr) for rr in grid])
    k = int(np.argmin(values))
    return BoundCurve(value=value_at(r), r_grid=grid, values=values,
                      argmin_r=float(grid[k]), min_value=float(values[k]))


def entropy_integral(cov: CoveringModel, alpha: float, q: int,
                     lower: float, upper: float) -> float:
    """Integral of (log N(Theta, c^{1/alpha}))^{1/q} dc over [lower, upper],
    in closed form for both covering models.

    For the polynomial-entropy model the integrand is a power of the
    integration variable, with exponent -beta = -1/(alpha s q).  For the
    radius-D ball in R^d it is (d u)^{1/q} with u = log K - (1/alpha) log c
    and K = 2 D sqrt(d), up to its jump to 0 at c = D^alpha, where one ball
    covers; the antiderivative is d c (u + 1/alpha) for q = 1 and, by the
    substitution c = K^alpha e^{-alpha u}, sqrt(d) (c sqrt(u) +
    sqrt(pi/(4 alpha)) K^alpha erfc(sqrt(alpha u))) for q = 2.
    """
    if upper <= lower:
        return 0.0
    inv_q = 1.0 / q
    if cov.kind == "entropy_decay":
        beta = 1.0 / (alpha * cov.s * q)
        if beta >= 1.0 and lower <= 0:
            raise ConfigurationError(
                "lower limit 0 (chaining r = 0) not admissible: "
                "alpha*s*q <= 1, the entropy integral diverges; use r > 0 "
                "(covering-style regime)")
        if abs(beta - 1.0) < 1e-12:
            # c^{-1} integrand, only reachable with lower > 0
            return cov.c**inv_q * math.log(upper / lower)
        # the antiderivative of c^{-beta} is c^{1-beta} / (1 - beta)
        one = 1.0 - beta
        return cov.c**inv_q * (upper**one - lower**one) / one
    d, K = cov.d, 2.0 * cov.D * math.sqrt(cov.d)
    top = cov.D ** alpha

    def antiderivative(c):
        if c <= 0:
            return 0.0
        u = math.log(K) - math.log(c) / alpha
        if q == 1:
            return d * c * (u + 1.0 / alpha)
        tail = (math.sqrt(math.pi / (4 * alpha)) * K**alpha
                * math.erfc(math.sqrt(alpha * u)))
        return math.sqrt(d) * (c * math.sqrt(u) + tail)

    return antiderivative(min(upper, top)) - antiderivative(min(lower, top))


def chaining_bound(inputs: BoundInputs, cov: CoveringModel, r: float) -> float:
    """Chaining bound
    C1 K/sqrt(m) * int_{r^alpha/4}^{D} (log N(c^{1/alpha}))^{1/q} dc
    + C2 K r^alpha.

    ``r = 0`` is admissible only when the entropy integrand is improperly
    integrable at 0 (for the polynomial model: alpha*s*q > 1).
    """
    if r < 0:
        raise ConfigurationError("r must be >= 0")
    lower = r ** inputs.alpha / 4.0 if r > 0 else 0.0
    integral = entropy_integral(cov, inputs.alpha, inputs.q, lower, inputs.D)
    return (C1 * inputs.K / math.sqrt(inputs.m) * integral
            + C2 * inputs.K * r ** inputs.alpha)


def curve_table(inputs_per_m, cov: CoveringModel) -> list:
    """The bound curves of one class over an m-grid, one JSON-ready row per
    m: its inputs, the covering model, the covering bound on its r grid
    (``BoundCurve.to_dict``) and the chaining bound at r = 0
    (``chaining_r0``, or None with a ``chaining_note`` where the entropy
    integral diverges).  The one evaluation of the curves per m."""
    table = []
    for inputs in inputs_per_m:
        row = {"m": inputs.m, "inputs": asdict(inputs), "model": asdict(cov),
               **covering_bound(inputs, cov, r=inputs.D).to_dict()}
        try:
            row["chaining_r0"] = chaining_bound(inputs, cov, 0.0)
        except ConfigurationError as exc:
            row["chaining_r0"] = None
            row["chaining_note"] = str(exc)
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# Predicted convergence-rate exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePrediction:
    exponent: float   # power of m in the predicted sample-error decay
    regime: str
    note: str = ""


def predicted_exponent(cov: CoveringModel, alpha: float, q: int,
                       method: str = "chaining") -> RatePrediction:
    """Predicted m-exponent of the sample-error decay for the class that
    ``cov`` covers.

    Finite-dimensional balls: the covering route gives m^{-1/2} up to a
    log(m)^{1/q} factor, the chaining route a clean m^{-1/2}.  For the
    polynomial-entropy class the chaining exponent is -alpha^2 s q / 2
    below the saturation threshold s = 1/(alpha q) and -1/2 above it; the
    covering exponent is -(1 - 1/(1 + alpha s q))/2.
    """
    if method not in ("covering", "chaining"):
        raise ConfigurationError("method must be 'covering' or 'chaining'")
    if q not in (1, 2) or not (0 < alpha <= 1):
        raise ConfigurationError("need q in {1,2} and alpha in (0,1]")
    if cov.kind == "euclidean_ball":
        if method == "covering":
            return RatePrediction(-0.5, "finite-dimensional",
                                  f"times log(m)^{{1/{q}}} d^{{1/{q}}}")
        return RatePrediction(-0.5, "finite-dimensional",
                              f"constant factor (d log d)^{{1/{q}}}")
    s = cov.s
    if method == "covering":
        expo = -0.5 * (1.0 - 1.0 / (1.0 + alpha * s * q))
        note = ""
        if s < (1.0 - alpha) / (alpha**2 * q):
            note = "covering route faster than chaining in this regime"
        return RatePrediction(expo, "entropy-decay", note)
    if s > 1.0 / (alpha * q):
        return RatePrediction(-0.5, "saturated",
                              "embedding compact enough for the optimal rate")
    return RatePrediction(-0.5 * alpha**2 * s * q, "sub-saturation")
