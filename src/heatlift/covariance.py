"""Exact covariance of the periodic heat field, by two independent routes.

Route "theta" integrates the wrapped Gaussian heat kernel in closed form:

    E[psi(s,x) psi(t,y)] = (1/(4 sqrt(pi))) * sum_n
        int_{|s-t|}^{s+t} l^{-1/2} exp(-(x-y-n)^2 / (4l)) dl,

where each integral has the erfc-based antiderivative
F_q(l) = 2 sqrt(l) exp(-q^2/(4l)) - q sqrt(pi) erfc(q/(2 sqrt(l))),
evaluated as exp(-u^2) (2 sqrt(l) - q sqrt(pi) erfcx(u)), u = q/(2 sqrt(l)),
so that one exponential serves both terms.

Both routes work on the grid their callers already have: cov broadcasts
the times (s, t) apart from the positions (x, y) and lays the points out
as time rows against offsets x - y (_grid), without flattening the grid
to points.  Flat per-point inputs are the case with one offset per row.

The image sum depends on the points only through the triple
(|s-t|, s+t, x-y recentred to [-1/2, 1/2]); each distinct triple (exact
float equality) is summed once and the sums are scattered back, with the
bits of the sum at every point.  The time pairs are read off the time
axis and the offsets off the offset axis; on a product grid of n times
this is at most n(n+1)/2 time pairs times the distinct offsets:
153 x 17 = 2,601 rows for cov-check's 17^4 grid of 83,521 points.  The
rows' terms over all images are formed and summed in blocks of about
_THETA_BLOCK terms, so only one block of them is live at a time.

Route "fourier" sums the mode-wise Ornstein-Uhlenbeck covariances:

    E[psi(s,x) psi(t,y)] = min(s,t)
        + sum_{n>=1} cos(2 pi n (x-y)) (e^{-lam_n |t-s|} - e^{-lam_n (s+t)}) / lam_n

with lam_n = 4 pi^2 n^2.  At equal times the surviving series is the
exact Fourier expansion of a Bernoulli polynomial and is summed in
closed form; otherwise the Gaussian factor sets an adaptive cutoff.
Each series is summed once per distinct time separation, over the
offsets that separation meets: one GEMV of the offsets' cosines against
the mode weights, its rows padded to a multiple of four so that a value
does not depend on its place among them, or the closed form at or below
_TAU_FLOOR.  The cosines of an offset row are formed once for all
separations that meet it, and the result is gathered back to the grid.
The bound scans and rect_var's ten terms pass time columns against
offset rows, and terms sharing a time pair go in one call, stacked.
Pointwise agreement of the two routes is the module's keystone check.

The bound scans fit the constants of the moment inequalities (rectangle
variance, Coutin-Qian, Kolmogorov increments) by maximizing LHS/RHS over
a grid and checking stability under one grid refinement; constants are
reported, never asserted against target values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .special import erfcx

_THETA_WINDOW = 64  # image cap; terms decay like exp(-n^2/(8T))
# Terms (triples x images) per block of the theta route's image sum.
_THETA_BLOCK = 1 << 13
# -ln of the term cutoff (1e-16, with margin): summation stops once the
# Gaussian factor drops below it.
_LOG_CUTOFF = 37.5
# At or below this time the mode series would need more than 3e6 terms;
# it is evaluated in closed form instead (see _series_table).
_TAU_FLOOR = 1e-13


def dist_s1(x, y) -> np.ndarray:
    """Distance on the circle R/Z: inf_n |x - y + n|."""
    d = np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), 1.0)
    return np.minimum(d, 1.0 - d)


def _apart(times, positions):
    """Broadcast the times together and the positions together, each to
    its own shape with the ndim of the broadcast of all, so that every
    covariance term of a caller spans the broadcast shape of all its
    arguments."""
    times = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in times))
    positions = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in positions))
    nd = max(times[0].ndim, positions[0].ndim)
    return tuple(
        [a.reshape((1,) * (nd - a.ndim) + a.shape) for a in arrays]
        for arrays in (times, positions)
    )


def _grid(s, x, t, y):
    """Broadcast the times (s, t) apart from the positions (x, y).

    Returns s and t as (rows, shared, 1) arrays, x and y as
    (1, shared, offsets) arrays and a function that puts a
    (rows, shared, offsets) result back in the broadcast shape of all
    four.  Rows run over the axes only the times vary on, offsets over
    the axes only the positions vary on, and shared over the axes both
    vary on: a time column against a position row has one shared index,
    and flat per-point inputs have one offset per row.
    """
    (s, t), (x, y) = _apart((s, t), (x, y))
    shape = np.broadcast_shapes(s.shape, x.shape)
    in_time = [n != 1 for n in s.shape]
    in_space = [n != 1 for n in x.shape]
    rows = [i for i, varies in enumerate(in_space) if not varies]
    shared = [i for i, varies in enumerate(in_space) if varies and in_time[i]]
    offsets = [i for i, varies in enumerate(in_space) if varies and not in_time[i]]
    perm = rows + shared + offsets
    n_rows, n_shared, n_offsets = (
        math.prod(shape[i] for i in axes) for axes in (rows, shared, offsets)
    )
    s, t = (a.transpose(perm).reshape(n_rows, n_shared, 1) for a in (s, t))
    x, y = (a.transpose(perm).reshape(1, n_shared, n_offsets) for a in (x, y))

    def restore(out):
        out = out.reshape([shape[i] for i in perm])
        return out if perm == sorted(perm) else out.transpose(np.argsort(perm)).copy()

    return s, x, t, y, restore


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
    """The theta route on the grid of _grid: (rows, shared, offsets)."""
    l0 = np.abs(s - t)[..., 0]
    l1 = (s + t)[..., 0]
    delta = (x - y)[0]
    # Periodicity: recenter so the dominant image is n = 0.
    delta = delta - np.round(delta)
    # Images beyond this decay below the term cutoff (exp(-n^2/(4*l1))).
    if l1.size:
        need = int(np.ceil(1.0 + np.sqrt(4.0 * float(np.max(l1)) * _LOG_CUTOFF)))
    else:
        need = 1
    window = min(_THETA_WINDOW, max(2, need))
    images = np.arange(-window, window + 1)
    # Each distinct triple (time pair, offset) is summed on its own, so
    # summing only those leaves every value's bits as they are.  The time
    # pairs come from the time axis and the offsets from the offset axis;
    # with nothing shared every pair of the two meets.
    pairs, pair_of = _distinct_rows(l0.reshape(-1), l1.reshape(-1))
    deltas, delta_of = _distinct_rows(delta.reshape(-1))
    n_deltas = max(deltas.size, 1)
    code = pair_of.reshape(l0.shape)[..., None] * n_deltas + delta_of.reshape(delta.shape)
    if code.shape[1] == 1:
        triples, inverse = np.arange(pairs.size * deltas.size), code
    else:
        first, inverse = _distinct_rows(code.reshape(-1))
        triples, inverse = code.reshape(-1)[first], inverse.reshape(code.shape)
    pair, offset = np.divmod(triples, n_deltas)
    dq = delta.reshape(-1)[deltas[offset], None]
    lo, hi = (l.reshape(-1)[pairs[pair], None] for l in (l0, l1))
    # Each triple sums its own row of images, so the block size leaves
    # every sum's bits alone.
    sums = np.empty(triples.size)
    step = max(1, _THETA_BLOCK // images.size)
    for b in range(0, triples.size, step):
        q = np.abs(dq[b : b + step] - images)
        terms = _antideriv(q, hi[b : b + step]) - _antideriv(q, lo[b : b + step])
        terms.sum(axis=1, out=sums[b : b + step])
    return (sums / (4.0 * np.sqrt(np.pi)))[inverse]


def _antideriv(q: np.ndarray, l: np.ndarray) -> np.ndarray:
    """F_q(l) = 2 sqrt(l) exp(-q^2/(4l)) - q sqrt(pi) erfc(q/(2 sqrt(l)))
    where l > 0, and its limit 0 at l = 0; l broadcasts against q.
    With u = q/(2 sqrt(l)) and erfc(u) = exp(-u^2) erfcx(u) this is
    exp(-u^2) (2 sqrt(l) - q sqrt(pi) erfcx(u))."""
    out = np.zeros_like(q)
    pos = np.broadcast_to(l > 0, q.shape)
    if not pos.any():
        return out
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
    """C(tau, delta) = sum_{n>=1} cos(2 pi n delta) e^{-lam_n tau} / lam_n
    for tau of shape (rows, shared) and delta of shape (shared, offsets),
    as a (rows, shared, offsets) array: each distinct tau is summed once,
    over the offsets it meets."""
    n_shared, n_offsets = delta.shape
    if tau.size * n_offsets == 0:
        return np.empty((*tau.shape, n_offsets))
    flat = tau.reshape(-1)
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    tvals = ranked[new]
    if n_shared == 1:
        # Every row meets the one offset row: one table, one gather.
        inverse = np.empty(flat.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        points = np.bincount(inverse) * n_offsets
        table = _series_table(tvals, delta[0], points)
        return table[inverse].reshape(*tau.shape, n_offsets)
    out = np.empty((flat.size, n_offsets))
    for tval, rows in zip(tvals, np.split(order, np.flatnonzero(new)[1:])):
        d = delta[rows % n_shared]
        out[rows] = _series_table(tval[None], d.reshape(-1), [d.size]).reshape(d.shape)
    return out.reshape(*tau.shape, n_offsets)


def _series_table(tvals: np.ndarray, d: np.ndarray, points) -> np.ndarray:
    """C(tval, d) for ascending distinct tvals at the offsets d, as a
    (tvals, offsets) table; row i stands for points[i] grid points."""
    table = np.empty((tvals.size, d.size))
    small = tvals <= _TAU_FLOOR
    if np.any(small):
        # dC/dtau = -(theta(tau, delta) - 1)/2 with theta the wrapped heat
        # kernel, so C(tau) = C(0) + tau/2 - sum_m F_{|delta - m|}(tau)/(4 sqrt(pi)),
        # exact for every tau.  Below the floor only the two images nearest
        # delta are above the term cutoff; at tau = 0 this is C(0) itself.
        l = tvals[small, None, None]
        u = np.mod(d, 1.0)
        q = np.abs(u[:, None] - np.array([0.0, 1.0]))
        images = _antideriv(np.broadcast_to(q, (l.size, *q.shape)), l).sum(axis=2)
        table[small] = (
            _bernoulli_tail(u) + l[..., 0] / 2.0 - images / (4.0 * np.sqrt(np.pi))
        )
    above = np.flatnonzero(~small)
    if above.size == 0:
        return table
    # e^{-4 pi^2 n^2 tau} < 1e-16 beyond n_max; the smallest tau needs most.
    n_max = np.ceil(np.sqrt(_LOG_CUTOFF / (4.0 * np.pi**2 * tvals[above])))
    n_max = n_max.astype(int) + 1
    n = np.arange(1, n_max[0] + 1, dtype=float)
    lam = 4.0 * np.pi**2 * n**2
    # The GEMV's kernels take its rows four, two or one at a time, and a
    # row's last bit can follow the kernel it lands in.  Padded to a
    # multiple of four rows, every row takes the four-row kernel, so a
    # value does not depend on where its offset sits.  A tau met at one
    # point alone keeps the one-row product.
    padded = np.zeros(-(-d.size // 4) * 4)
    padded[: d.size] = d
    # Small tau makes n_max large; chunk the outer product.
    chunk = max(4, (1 << 24) // n.size // 4 * 4)
    for lo in range(0, d.size, chunk):
        hi = min(lo + chunk, d.size)
        cosines = np.cos(2.0 * np.pi * np.outer(padded[lo : lo + chunk], n))
        for i, modes in zip(above, n_max):
            weights = np.exp(-lam[:modes] * tvals[i]) / lam[:modes]
            rows = cosines[: 1 if points[i] == 1 else None, :modes]
            table[i, lo:hi] = (rows @ weights)[: hi - lo]
    return table


def _fourier_cov(s, x, t, y, n_modes: int | None) -> np.ndarray:
    """The Fourier route on the grid of _grid: (rows, shared, offsets)."""
    tau = np.abs(s - t)[..., 0]
    sig = (s + t)[..., 0]
    tmin = np.minimum(s, t)
    delta = (x - y)[0]
    if n_modes is None:
        return tmin + _fourier_series(tau, delta) - _fourier_series(sig, delta)
    n = np.arange(1, n_modes + 1, dtype=float)
    lam = 4.0 * np.pi**2 * n**2
    cosmat = np.cos(2.0 * np.pi * (delta[..., None] * n))
    series = (np.exp(-(tau[..., None] * lam)) - np.exp(-(sig[..., None] * lam))) / lam
    return tmin + np.einsum("sbn,asn->asb", cosmat, series)


def _result(out):
    return float(out) if out.shape == () else out


def cov(s, x, t, y, method: str = "theta", n_modes: int | None = None):
    """E[psi(s,x) psi(t,y)] for one scalar component.

    Broadcasts over array arguments: the times (s, t) against each other,
    the positions (x, y) against each other, then the two.  A time column
    against a position row is summed as a grid, each time pair once.
    n_modes restricts the Fourier route to |n| <= n_modes (the sampler's
    truncated law); the theta route is always the full sum.  A
    non-finite or negative argument raises ParameterError.
    """
    args = {k: np.asarray(v, dtype=float) for k, v in zip("sxty", (s, x, t, y))}
    for name, value in args.items():
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ParameterError(f"{name} must be finite, got {float(bad[0])}")
    s, x, t, y, restore = _grid(**args)
    if np.any(s < 0) or np.any(t < 0):
        raise ParameterError("times must be nonnegative")
    if method == "theta":
        if n_modes is not None:
            raise ParameterError("truncated evaluation is Fourier-only")
        out = _theta_cov(s, x, t, y)
    elif method == "fourier":
        out = _fourier_cov(s, x, t, y, n_modes)
    else:
        raise ParameterError(f"unknown method {method!r}")
    out[(np.minimum(s, t) == 0.0)[..., 0]] = 0.0
    return _result(restore(out))


def _terms(a, b, pairs, method, n_modes):
    """cov(a, u, b, v) for each position pair (u, v) of pairs, stacked on
    a new first axis.  The terms share the time pair (a, b), so one call
    sums each distinct time separation once for all of them."""
    u = np.stack([u for u, _ in pairs])
    v = np.stack([v for _, v in pairs])
    return _call_cov(a[None], u, b[None], v, method, n_modes)


def rect_var(s, x, t, y, method: str = "fourier", n_modes: int | None = None):
    """Rectangular-increment variance
    E[|psi(t,y) - psi(t,x) - psi(s,y) + psi(s,x)|^2], one component.

    Expands into ten covariance terms, evaluated in three calls, one per
    time pair; tiny negative round-off (above -1e-12) is clipped to zero.
    """
    (s, t), (x, y) = _apart((s, t), (x, y))
    tt = _terms(t, t, [(y, y), (x, x), (y, x)], method, n_modes)
    ss = _terms(s, s, [(y, y), (x, x), (y, x)], method, n_modes)
    ts = _terms(t, s, [(y, y), (y, x), (x, y), (x, x)], method, n_modes)
    out = (
        tt[0]
        + tt[1]
        + ss[0]
        + ss[1]
        - 2.0 * tt[2]
        - 2.0 * ts[0]
        + 2.0 * ts[1]
        + 2.0 * ts[2]
        - 2.0 * ts[3]
        - 2.0 * ss[2]
    )
    if np.any(out < -1e-12):
        raise ArithmeticError(
            f"rectangle variance dipped to {np.min(out):.3e}; oracle inconsistency"
        )
    # The increment vanishes identically when either pair degenerates.
    return _result(np.maximum(np.where((s == t) | (x == y), 0.0, out), 0.0))


def _call_cov(s, x, t, y, method, n_modes):
    res = cov(s, x, t, y, method=method, n_modes=n_modes)
    return np.asarray(res, dtype=float)


def time_increment_var(s, t, x, method: str = "fourier") -> np.ndarray:
    """E[|psi(t,x) - psi(s,x)|^2]."""
    (s, t), (x,) = _apart((s, t), (x,))
    out = (
        _call_cov(t, x, t, x, method, None)
        - 2.0 * _call_cov(s, x, t, x, method, None)
        + _call_cov(s, x, s, x, method, None)
    )
    return _result(np.maximum(out, 0.0))


def space_increment_var(t, x, y, method: str = "fourier") -> np.ndarray:
    """E[|psi(t,x) - psi(t,y)|^2]."""
    (t,), (x, y) = _apart((t,), (x, y))
    tt = _terms(t, t, [(x, x), (x, y), (y, y)], method, None)
    out = tt[0] - 2.0 * tt[1] + tt[2]
    return _result(np.maximum(out, 0.0))


def second_diff_cov(
    s, t, x, y, h, same_time: bool = False, method: str = "fourier"
):
    """Covariance of double (time then space) increments at two sites.

    Returns E[{D_t(x) - D_s(x)} {D_t(y) - D_s(y)}] with
    D_u(z) = psi(u, z+h) - psi(u, z); with same_time=True the time
    difference is dropped and the value is E[D_t(x) D_t(y)].

    Requires the separation hypothesis 2h <= y - x <= 1/2.
    """
    (s, t), (x, y, h) = _apart((s, t), (x, y, h))
    gap = y - x
    if np.any(h <= 0):
        raise ParameterError("h must be positive")
    if np.any(2.0 * h > gap + 1e-15):
        i = np.unravel_index(int(np.argmax(2.0 * h - gap)), gap.shape)
        raise ParameterError(
            f"hypothesis 2h <= y-x violated: h={h[i]:.6g}, y-x={gap[i]:.6g}"
        )
    if np.any(gap > 0.5 + 1e-15):
        i = np.unravel_index(int(np.argmax(gap)), gap.shape)
        raise ParameterError(f"hypothesis y-x <= 1/2 violated: y-x={gap[i]:.6g}")

    pairs = [(x + h, y + h), (x + h, y), (x, y + h), (x, y)]

    def g(a, b):
        k = _terms(a, b, pairs, method, None)
        return k[0] - k[1] - k[2] + k[3]

    if same_time:
        out = g(t, t)
    else:
        out = g(t, t) - g(t, s) - g(s, t) + g(s, s)
    return _result(out)


# Discrepancies within this of the largest are ties.  The two routes round
# differently by a few units in the last place of covariances of order 1
# (at most 4.4e-16 on the 17^4 grid), far below any tolerance in use.
_TIE_FLOOR = 1e-14


def dual_method_check(s_values=None, x_values=None) -> dict:
    """Max |cov_theta - cov_fourier| over a product grid; the keystone.

    argmax is the first grid point in (s, t, x, y) C order whose
    discrepancy lies within _TIE_FLOOR of the maximum, so a last-bit
    change in either route does not move it.  An empty s_values or
    x_values raises ParameterError."""
    if s_values is None:
        s_values = np.linspace(0.2, 1.0, 5)
    if x_values is None:
        x_values = np.linspace(0.0, 1.0, 5)
    for name, values in (("s_values", s_values), ("x_values", x_values)):
        if len(values) == 0:
            raise ParameterError(f"{name} must hold at least one value")
    s, t, x, y = np.meshgrid(
        s_values, s_values, x_values, x_values, indexing="ij", sparse=True
    )
    a = cov(s, x, t, y, method="theta")
    b = cov(s, x, t, y, method="fourier")
    gap = np.abs(a - b)
    top = float(np.max(gap))
    worst = np.unravel_index(int(np.argmax(gap >= top - _TIE_FLOOR)), gap.shape)
    return {
        "max_abs_discrepancy": top,
        "grid_points": int(gap.size),
        "argmax": {
            k: float(np.broadcast_to(v, gap.shape)[worst])
            for k, v in (("s", s), ("t", t), ("x", x), ("y", y))
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
        if key not in grid:
            continue
        if isinstance(grid[key], bool) or not isinstance(grid[key], numbers.Integral):
            raise ParameterError(f"{key} must be an integer: {key}={grid[key]!r}")
        if not grid[key] >= least:
            raise ParameterError(f"{key} >= {least} violated: {key}={grid[key]!r}")
    for key in ("h_divisors", "t_values"):
        if key in grid and len(grid[key]) == 0:
            raise ParameterError(f"{key} must hold at least one value")
    if "horizon" in grid and not grid["horizon"] > 0:
        raise ParameterError(f"horizon > 0 violated: horizon={grid['horizon']!r}")
    for key in ("horizon", "t_values"):
        if key in grid and not np.all(np.isfinite(grid[key])):
            raise ParameterError(f"{key} must be finite: {key}={grid[key]!r}")


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


def _time_pairs(grid: dict, offset_axes: int = 0):
    """The grid's time pairs s < t, as columns with offset_axes trailing
    axes of length one."""
    ts = np.arange(grid["n_time"] + 1) * (grid["horizon"] / grid["n_time"])
    i, j = np.triu_indices(grid["n_time"] + 1, k=1)
    return (ts[k].reshape(-1, *(1,) * offset_axes) for k in (i, j))


def _scan_ratios(bound_id: str, kappa: float | None, grid: dict, method: str):
    """Return (ratios, coords) on the scan grid, whose C order is the
    lexicographic order of its points; coords maps each coordinate to an
    array that broadcasts against the ratios, or to the value it is fixed
    at.  Times run down the first axis and offsets along the others, so
    each covariance term is evaluated as a grid."""
    if bound_id == "kolm_t":
        s, t = _time_pairs(grid)
        lhs = time_increment_var(s, t, 0.0, method=method)
        rhs = np.sqrt(t - s)
        return lhs / rhs, {"s": s, "t": t, "x": 0.0}
    if bound_id == "estD2":
        s, t = _time_pairs(grid, 1)
        dl = (np.arange(1, grid["n_space"]) / grid["n_space"])[None, :]
        lhs = rect_var(s, 0.0, t, dl, method=method)
        rhs = (t - s) ** (kappa / 2.0) * dist_s1(0.0, dl) ** (1.0 - kappa)
        return lhs / rhs, {"s": s, "t": t, "x": 0.0, "y": dl}
    if bound_id == "kolm_x":
        t = np.asarray(grid["t_values"], dtype=float)[:, None]
        dl = (0.5 ** np.arange(1, grid["j_max"] + 1))[None, :]
        lhs = space_increment_var(t, 0.0, dl, method=method)
        rhs = dist_s1(0.0, dl)
        return lhs / rhs, {"t": t, "x": 0.0, "y": dl}
    # cq1 and cq2: times, then offsets, then h divisors.
    divisors = np.asarray(grid["h_divisors"], dtype=float)
    dl = (np.arange(1, grid["n_space"] // 2 + 1) / grid["n_space"])[None, :, None]
    h = dl / divisors
    if bound_id == "cq1":
        tvals = np.arange(1, grid["n_time"] + 1) * grid["horizon"] / grid["n_time"]
        t = tvals[:, None, None]
        lhs = np.abs(
            second_diff_cov(0.0, t, 0.0, dl, h, same_time=True, method=method)
        )
        rhs = h**2 / dl
        return lhs / rhs, {"t": t, "x": 0.0, "y": dl, "h": h}
    s, t = _time_pairs(grid, 2)
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
    best = np.unravel_index(int(np.argmax(ratios_r)), ratios_r.shape)
    refined = float(ratios_r[best])
    growth = refined / base if base > 0 else float("inf")
    return BoundScanReport(
        bound_id=bound_id,
        kappa=kappa,
        grid=grid,
        max_ratio=refined,
        base_ratio=base,
        argmax={
            k: float(np.broadcast_to(v, ratios_r.shape)[best]) if np.ndim(v) else v
            for k, v in coords.items()
        },
        refinement_ratio=growth,
        diverged=bool(growth > 2.0),
    )
