"""Exact covariance of the periodic heat field, by two independent routes.

Route "theta" integrates the wrapped Gaussian heat kernel in closed form:

    E[psi(s,x) psi(t,y)] = (1/(4 sqrt(pi))) * sum_n
        int_{|s-t|}^{s+t} l^{-1/2} exp(-(x-y-n)^2 / (4l)) dl,

where each integral has the erfc-based antiderivative
F_q(l) = 2 sqrt(l) exp(-q^2/(4l)) - q sqrt(pi) erfc(q/(2 sqrt(l))),
evaluated as exp(-u^2) (2 sqrt(l) - q sqrt(pi) erfcx(u)), u = q/(2 sqrt(l)),
so that one exponential serves both terms.
The image sum depends on the points only through the triple
(|s-t|, s+t, x-y recentred to [-1/2, 1/2]); each distinct triple (exact
float equality) is summed once and the sums are scattered back, with the
bits of the sum at every point.  On a product grid of n times this is at
most n(n+1)/2 time pairs times the distinct offsets: 153 x 17 = 2,601
rows for cov-check's 17^4 grid of 83,521 points.

Route "fourier" sums the mode-wise Ornstein-Uhlenbeck covariances:

    E[psi(s,x) psi(t,y)] = min(s,t)
        + sum_{n>=1} cos(2 pi n (x-y)) (e^{-lam_n |t-s|} - e^{-lam_n (s+t)}) / lam_n

with lam_n = 4 pi^2 n^2.  At equal times the surviving series is the
exact Fourier expansion of a Bernoulli polynomial and is summed in
closed form; otherwise the Gaussian factor sets an adaptive cutoff.
Pointwise agreement of the two routes is the module's keystone check.

The bound scans fit the constants of the moment inequalities (rectangle
variance, Coutin-Qian, Kolmogorov increments) by maximizing LHS/RHS over
a grid and checking stability under one grid refinement; constants are
reported, never asserted against target values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .special import erfcx

_THETA_WINDOW = 64  # image cap; terms decay like exp(-n^2/(8T))
# -ln of the term cutoff (1e-16, with margin): summation stops once the
# Gaussian factor drops below it.
_LOG_CUTOFF = 37.5
# At or below this time the mode series would need more than 3e6 terms;
# it is evaluated in closed form instead (see _fourier_series).
_TAU_FLOOR = 1e-13


def dist_s1(x, y) -> np.ndarray:
    """Distance on the circle R/Z: inf_n |x - y + n|."""
    d = np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), 1.0)
    return np.minimum(d, 1.0 - d)


def _broadcast(*args):
    arrs = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in args])
    shape = arrs[0].shape
    return [a.reshape(-1) for a in arrs], shape


def _distinct_rows(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the rows of equal-length float keys: first
    indexes one representative of each distinct row (exact float
    equality, so -0.0 joins 0.0 and every NaN stays its own row) and
    rows[first][inverse] recovers every row."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _theta_cov(s, x, t, y) -> np.ndarray:
    l0 = np.abs(s - t)
    l1 = s + t
    delta = x - y
    # Periodicity: recenter so the dominant image is n = 0.
    delta = delta - np.round(delta)
    # Images beyond this decay below the term cutoff (exp(-n^2/(4*l1))).
    if l1.size:
        need = int(np.ceil(1.0 + np.sqrt(4.0 * float(np.max(l1)) * _LOG_CUTOFF)))
    else:
        need = 1
    window = min(_THETA_WINDOW, max(2, need))
    offsets = np.arange(-window, window + 1)
    # Each row is summed on its own, so summing the distinct triples only
    # leaves every value's bits as they are.
    first, inverse = _distinct_rows(l0, l1, delta)
    q = np.abs(delta[first, None] - offsets[None, :])
    terms = _antideriv(q, l1[first, None]) - _antideriv(q, l0[first, None])
    return (terms.sum(axis=1) / (4.0 * np.sqrt(np.pi)))[inverse]


def _antideriv(q: np.ndarray, l: np.ndarray) -> np.ndarray:
    """F_q(l) = 2 sqrt(l) exp(-q^2/(4l)) - q sqrt(pi) erfc(q/(2 sqrt(l)))
    where l > 0, and its limit 0 at l = 0; l broadcasts against q.
    With u = q/(2 sqrt(l)) and erfc(u) = exp(-u^2) erfcx(u) this is
    exp(-u^2) (2 sqrt(l) - q sqrt(pi) erfcx(u))."""
    out = np.zeros_like(q)
    pos = np.broadcast_to(l > 0, q.shape)
    lp = np.broadcast_to(l, q.shape)[pos]
    qp = q[pos]
    sq = np.sqrt(lp)
    # For subnormal l the exponent overflows to -inf and exp gives the
    # right limit 0, so the overflow is expected here and not reported.
    with np.errstate(over="ignore"):
        gauss = np.exp(-(qp**2) / (4.0 * lp))
    out[pos] = gauss * (2.0 * sq - qp * np.sqrt(np.pi) * erfcx(qp / (2.0 * sq)))
    return out


def _bernoulli_tail(delta: np.ndarray) -> np.ndarray:
    # sum_{n>=1} cos(2 pi n u)/(4 pi^2 n^2) = (u^2 - u + 1/6)/4 on [0,1].
    u = np.mod(delta, 1.0)
    return (u * u - u + 1.0 / 6.0) / 4.0


def _fourier_series(tau: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """C(tau, delta) = sum_{n>=1} cos(2 pi n delta) e^{-lam_n tau} / lam_n."""
    out = np.empty_like(tau)
    zero = tau <= _TAU_FLOOR
    # dC/dtau = -(theta(tau, delta) - 1)/2 with theta the wrapped heat
    # kernel, so C(tau) = C(0) + tau/2 - sum_m F_{|delta - m|}(tau)/(4 sqrt(pi)),
    # exact for every tau.  Below the floor only the two images nearest
    # delta are above the term cutoff; at tau = 0 this is C(0) itself.
    u = np.mod(delta[zero], 1.0)
    q = np.abs(u[:, None] - np.array([0.0, 1.0]))
    images = _antideriv(q, tau[zero][:, None]).sum(axis=1)
    out[zero] = _bernoulli_tail(u) + tau[zero] / 2.0 - images / (4.0 * np.sqrt(np.pi))
    for tval in np.unique(tau[~zero]):
        sel = tau == tval
        # e^{-4 pi^2 n^2 tau} < 1e-16 beyond this n.
        n_max = int(np.ceil(np.sqrt(_LOG_CUTOFF / (4.0 * np.pi**2 * tval)))) + 1
        n = np.arange(1, n_max + 1, dtype=float)
        lam = 4.0 * np.pi**2 * n**2
        weights = np.exp(-lam * tval) / lam
        d_sel = delta[sel]
        # Small tau makes n_max large; chunk the outer product.
        chunk = max(1, (1 << 24) // n_max)
        pieces = [
            np.cos(2.0 * np.pi * np.outer(d_sel[lo : lo + chunk], n)) @ weights
            for lo in range(0, d_sel.size, chunk)
        ]
        out[sel] = np.concatenate(pieces) if pieces else np.empty(0)
    return out


def _fourier_cov(s, x, t, y, n_modes: int | None) -> np.ndarray:
    tau = np.abs(s - t)
    sig = s + t
    tmin = np.minimum(s, t)
    delta = x - y
    if n_modes is None:
        return tmin + _fourier_series(tau, delta) - _fourier_series(sig, delta)
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = 4.0 * np.pi**2 * n**2
    cosmat = np.cos(2.0 * np.pi * np.outer(delta, n))
    series = (np.exp(-np.outer(tau, lam)) - np.exp(-np.outer(sig, lam))) / lam
    return tmin + np.einsum("pn,pn->p", cosmat, series)


def cov(s, x, t, y, method: str = "theta", n_modes: int | None = None):
    """E[psi(s,x) psi(t,y)] for one scalar component.

    Broadcasts over array arguments.  n_modes restricts the Fourier route
    to |n| <= n_modes (the sampler's truncated law); the theta route is
    always the full sum.
    """
    (sv, xv, tv, yv), shape = _broadcast(s, x, t, y)
    if np.any(sv < 0) or np.any(tv < 0):
        raise ParameterError("times must be nonnegative")
    if method == "theta":
        if n_modes is not None:
            raise ParameterError("truncated evaluation is Fourier-only")
        out = _theta_cov(sv, xv, tv, yv)
    elif method == "fourier":
        out = _fourier_cov(sv, xv, tv, yv, n_modes)
    else:
        raise ParameterError(f"unknown method {method!r}")
    zero = np.minimum(sv, tv) == 0.0
    out[zero] = 0.0
    out = out.reshape(shape)
    return float(out) if shape == () else out


def rect_var(s, x, t, y, method: str = "fourier", n_modes: int | None = None):
    """Rectangular-increment variance
    E[|psi(t,y) - psi(t,x) - psi(s,y) + psi(s,x)|^2], one component.

    Expands into ten covariance evaluations; tiny negative round-off
    (above -1e-12) is clipped to zero.
    """
    (sv, xv, tv, yv), shape = _broadcast(s, x, t, y)

    def c(a, u, b, v):
        return _call_cov(a, u, b, v, method, n_modes)

    out = (
        c(tv, yv, tv, yv)
        + c(tv, xv, tv, xv)
        + c(sv, yv, sv, yv)
        + c(sv, xv, sv, xv)
        - 2.0 * c(tv, yv, tv, xv)
        - 2.0 * c(tv, yv, sv, yv)
        + 2.0 * c(tv, yv, sv, xv)
        + 2.0 * c(tv, xv, sv, yv)
        - 2.0 * c(tv, xv, sv, xv)
        - 2.0 * c(sv, yv, sv, xv)
    )
    if np.any(out < -1e-12):
        raise ArithmeticError(
            f"rectangle variance dipped to {np.min(out):.3e}; oracle inconsistency"
        )
    # The increment vanishes identically when either pair degenerates.
    out[(sv == tv) | (xv == yv)] = 0.0
    out = np.maximum(out, 0.0).reshape(shape)
    return float(out) if shape == () else out


def _call_cov(s, x, t, y, method, n_modes):
    res = cov(s, x, t, y, method=method, n_modes=n_modes)
    return np.asarray(res, dtype=float)


def time_increment_var(s, t, x, method: str = "fourier") -> np.ndarray:
    """E[|psi(t,x) - psi(s,x)|^2]."""
    (sv, tv, xv), shape = _broadcast(s, t, x)
    out = (
        _call_cov(tv, xv, tv, xv, method, None)
        - 2.0 * _call_cov(sv, xv, tv, xv, method, None)
        + _call_cov(sv, xv, sv, xv, method, None)
    )
    out = np.maximum(out, 0.0).reshape(shape)
    return float(out) if shape == () else out


def space_increment_var(t, x, y, method: str = "fourier") -> np.ndarray:
    """E[|psi(t,x) - psi(t,y)|^2]."""
    (tv, xv, yv), shape = _broadcast(t, x, y)
    out = (
        _call_cov(tv, xv, tv, xv, method, None)
        - 2.0 * _call_cov(tv, xv, tv, yv, method, None)
        + _call_cov(tv, yv, tv, yv, method, None)
    )
    out = np.maximum(out, 0.0).reshape(shape)
    return float(out) if shape == () else out


def second_diff_cov(
    s, t, x, y, h, same_time: bool = False, method: str = "fourier"
):
    """Covariance of double (time then space) increments at two sites.

    Returns E[{D_t(x) - D_s(x)} {D_t(y) - D_s(y)}] with
    D_u(z) = psi(u, z+h) - psi(u, z); with same_time=True the time
    difference is dropped and the value is E[D_t(x) D_t(y)].

    Requires the separation hypothesis 2h <= y - x <= 1/2.
    """
    (sv, tv, xv, yv, hv), shape = _broadcast(s, t, x, y, h)
    gap = yv - xv
    if np.any(hv <= 0):
        raise ParameterError("h must be positive")
    if np.any(2.0 * hv > gap + 1e-15):
        i = int(np.argmax(2.0 * hv - gap))
        raise ParameterError(
            f"hypothesis 2h <= y-x violated: h={hv[i]:.6g}, y-x={gap[i]:.6g}"
        )
    if np.any(gap > 0.5 + 1e-15):
        i = int(np.argmax(gap))
        raise ParameterError(f"hypothesis y-x <= 1/2 violated: y-x={gap[i]:.6g}")

    def g(a, b):
        return (
            _call_cov(a, xv + hv, b, yv + hv, method, None)
            - _call_cov(a, xv + hv, b, yv, method, None)
            - _call_cov(a, xv, b, yv + hv, method, None)
            + _call_cov(a, xv, b, yv, method, None)
        )

    if same_time:
        out = g(tv, tv)
    else:
        out = g(tv, tv) - g(tv, sv) - g(sv, tv) + g(sv, sv)
    out = out.reshape(shape)
    return float(out) if shape == () else out


def dual_method_check(s_values=None, x_values=None) -> dict:
    """Max |cov_theta - cov_fourier| over a product grid; the keystone.
    An empty s_values or x_values raises ParameterError."""
    if s_values is None:
        s_values = np.linspace(0.2, 1.0, 5)
    if x_values is None:
        x_values = np.linspace(0.0, 1.0, 5)
    for name, values in (("s_values", s_values), ("x_values", x_values)):
        if len(values) == 0:
            raise ParameterError(f"{name} must hold at least one value")
    s, t, x, y = np.meshgrid(
        s_values, s_values, x_values, x_values, indexing="ij"
    )
    a = cov(s, x, t, y, method="theta")
    b = cov(s, x, t, y, method="fourier")
    gap = np.abs(a - b)
    worst = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return {
        "max_abs_discrepancy": float(np.max(gap)),
        "grid_points": int(gap.size),
        "argmax": {
            "s": float(s[worst]),
            "t": float(t[worst]),
            "x": float(x[worst]),
            "y": float(y[worst]),
        },
    }


# ---------------------------------------------------------------------------
# Bound scans

BOUND_IDS = ("estD2", "cq1", "cq2", "kolm_t", "kolm_x")
# The bounds with an exponent kappa in (0, 1).
_KAPPA_BOUNDS = ("estD2", "cq2")


@dataclass
class BoundScanReport:
    """Fitted constant of one moment bound and its stability under
    refinement.  max_ratio is taken on the refined grid; argmax is the
    first (lexicographically lowest) maximizing grid point.
    """

    bound_id: str
    kappa: float | None
    grid: dict
    max_ratio: float
    base_ratio: float
    argmax: dict
    refinement_ratio: float
    diverged: bool


def validate_bound_params(bound_ids, kappa: float | None = None):
    """bound_scan's checks of its bound and kappa over a list of bounds, so
    that a caller scanning several can refuse before the first scan."""
    if len(bound_ids) == 0:
        raise ParameterError("bounds must hold at least one bound id")
    for bound_id in bound_ids:
        if bound_id not in BOUND_IDS:
            raise ParameterError(f"unknown bound_id {bound_id!r}; know {BOUND_IDS}")
    takes_kappa = any(bound_id in _KAPPA_BOUNDS for bound_id in bound_ids)
    if takes_kappa and kappa is not None and not 0.0 < kappa < 1.0:
        raise ParameterError(f"kappa must lie in (0,1), got {kappa}")


def default_scan_grid(bound_id: str) -> dict:
    validate_bound_params((bound_id,))
    if bound_id == "estD2":
        return {"n_time": 16, "n_space": 32, "horizon": 1.0}
    if bound_id == "cq1":
        return {"n_time": 4, "n_space": 32, "h_divisors": [2, 4, 8], "horizon": 1.0}
    if bound_id == "cq2":
        return {"n_time": 8, "n_space": 32, "h_divisors": [2, 4, 8], "horizon": 1.0}
    if bound_id == "kolm_t":
        return {"n_time": 16, "horizon": 1.0}
    return {"t_values": [0.25, 0.5, 1.0], "j_max": 8}


def _check_grid(grid: dict):
    """Refuse a scan grid with no points or no time span, naming the key."""
    for key, least in (("n_time", 1), ("n_space", 2), ("j_max", 1)):
        if key in grid and not grid[key] >= least:
            raise ParameterError(f"{key} >= {least} violated: {key}={grid[key]!r}")
    for key in ("h_divisors", "t_values"):
        if key in grid and len(grid[key]) == 0:
            raise ParameterError(f"{key} must hold at least one value")
    if "horizon" in grid and not grid["horizon"] > 0:
        raise ParameterError(f"horizon > 0 violated: horizon={grid['horizon']!r}")


def _refine_grid(grid: dict) -> dict:
    refined = dict(grid)
    for key in ("n_time", "n_space"):
        if key in refined:
            refined[key] = 2 * refined[key]
    if "h_divisors" in refined:
        refined["h_divisors"] = refined["h_divisors"] + [
            2 * max(refined["h_divisors"])
        ]
    if "j_max" in refined:
        refined["j_max"] = refined["j_max"] + 1
    if "t_values" in refined:
        tv = np.asarray(refined["t_values"], dtype=float)
        mids = 0.5 * (tv[:-1] + tv[1:])
        refined["t_values"] = sorted(set(tv.tolist()) | set(mids.tolist()))
    return refined


def _time_pairs(n_time: int, horizon: float):
    ts = np.arange(n_time + 1) * (horizon / n_time)
    i, j = np.triu_indices(n_time + 1, k=1)
    return ts[i], ts[j]


def _scan_ratios(bound_id: str, kappa: float | None, grid: dict, method: str):
    """Return (ratios, coords) in lexicographic grid order; coords maps each
    coordinate to its array over the points, or to the value it is fixed at."""
    if bound_id == "estD2":
        sv, tv = _time_pairs(grid["n_time"], grid["horizon"])
        deltas = np.arange(1, grid["n_space"]) / grid["n_space"]
        s = np.repeat(sv, deltas.size)
        t = np.repeat(tv, deltas.size)
        dl = np.tile(deltas, sv.size)
        lhs = rect_var(s, 0.0, t, dl, method=method)
        rhs = (t - s) ** (kappa / 2.0) * dist_s1(0.0, dl) ** (1.0 - kappa)
        return lhs / rhs, {"s": s, "t": t, "x": 0.0, "y": dl}
    if bound_id == "kolm_t":
        sv, tv = _time_pairs(grid["n_time"], grid["horizon"])
        lhs = time_increment_var(sv, tv, 0.0, method=method)
        rhs = np.sqrt(tv - sv)
        return lhs / rhs, {"s": sv, "t": tv, "x": 0.0}
    if bound_id == "kolm_x":
        tvals = np.asarray(grid["t_values"], dtype=float)
        deltas = 0.5 ** np.arange(1, grid["j_max"] + 1)
        t = np.repeat(tvals, deltas.size)
        dl = np.tile(deltas, tvals.size)
        lhs = space_increment_var(t, 0.0, dl, method=method)
        rhs = dist_s1(0.0, dl)
        return lhs / rhs, {"t": t, "x": 0.0, "y": dl}
    divisors = np.asarray(grid["h_divisors"], dtype=float)
    deltas = np.arange(1, grid["n_space"] // 2 + 1) / grid["n_space"]
    if bound_id == "cq1":
        tvals = np.arange(1, grid["n_time"] + 1) * grid["horizon"] / grid["n_time"]
        t = np.repeat(tvals, deltas.size * divisors.size)
        dl = np.tile(np.repeat(deltas, divisors.size), tvals.size)
        h = dl / np.tile(np.tile(divisors, deltas.size), tvals.size)
        lhs = np.abs(
            second_diff_cov(0.0, t, 0.0, dl, h, same_time=True, method=method)
        )
        rhs = h**2 / dl
        return lhs / rhs, {"t": t, "x": 0.0, "y": dl, "h": h}
    sv, tv = _time_pairs(grid["n_time"], grid["horizon"])
    s = np.repeat(sv, deltas.size * divisors.size)
    t = np.repeat(tv, deltas.size * divisors.size)
    dl = np.tile(np.repeat(deltas, divisors.size), sv.size)
    h = dl / np.tile(np.tile(divisors, deltas.size), sv.size)
    lhs = np.abs(second_diff_cov(s, t, 0.0, dl, h, method=method))
    rhs = (t - s) ** (kappa / 2.0) * h**2 / dl ** (1.0 + kappa)
    return lhs / rhs, {"s": s, "t": t, "x": 0.0, "y": dl, "h": h}


def bound_scan(
    bound_id: str,
    kappa: float | None = None,
    grid: dict | None = None,
    method: str = "fourier",
) -> BoundScanReport:
    """Fit the constant of one bound over a grid and one refinement.

    kappa defaults to 0.5 for the bounds that take it (the constants
    degenerate toward the endpoints of (0,1), so scans stay away).  An
    unknown bound, a bad kappa or an empty grid raises before any scan.
    """
    validate_bound_params((bound_id,), kappa)
    if bound_id in _KAPPA_BOUNDS:
        kappa = 0.5 if kappa is None else kappa
    else:
        kappa = None
    if grid is None:
        grid = default_scan_grid(bound_id)
    _check_grid(grid)

    ratios, _ = _scan_ratios(bound_id, kappa, grid, method)
    base = float(np.max(ratios))

    refined_grid = _refine_grid(grid)
    ratios_r, coords = _scan_ratios(bound_id, kappa, refined_grid, method)
    best = int(np.argmax(ratios_r))
    refined = float(ratios_r[best])
    growth = refined / base if base > 0 else float("inf")
    return BoundScanReport(
        bound_id=bound_id,
        kappa=kappa,
        grid=grid,
        max_ratio=refined,
        base_ratio=base,
        argmax={k: float(v[best]) if np.ndim(v) else v for k, v in coords.items()},
        refinement_ratio=growth,
        diverged=bool(growth > 2.0),
    )
