"""Large-deviation experiments for the dilated lifts.

Cameron-Martin shifts are parameterized by finitely many per-mode L^2
controls f_n: the shifted mean path has coefficients
hat{h}_n(t) = int_0^t e^{-lam_n (t-r)} f_n(r) dr and squared norm
sum ||f_n||_{L^2}^2.  With piecewise-constant controls whose breakpoints
sit on the time grid, the convolution is exact step by step: each step
adds the gain sampler._ou_integral(lam, step) times the control value,
through the same recursion sampler._ou_paths that steps the sampled
coefficients.  A path's checks read its grid values: the Hoelder constant
one lag j - i at a time, the lift decay through sheets._lift_decay_sups.

The rate function on lifted shifts is ||h||_H^2 / 2.  Tail probabilities
of the approximation gap are estimated by Monte Carlo with Wilson
intervals (a zero count reports the interval bound, never -inf).  The
dilation eps only moves the threshold to delta / eps, so one pass
samples and measures each replica once and thresholds the same
distances for every eps.  The gap of the two lifts is read from the
sampled values by dyadic._gap_sup, without building either lift; each
worker of the pass takes one contiguous run of replicas.  A distance
has the same bits however the replicas are split, so the rows do not
depend on the worker count.  Chaos moment growth is fitted from batched
scalar replicas, and the pointwise Schilder scaling check is fully
analytic via the Gaussian tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import cov, dist_s1
from .dyadic import _check_k, _gap_sup, lift_level
from .errors import ParameterError, is_integer, is_number
from .parallel import deterministic_map
from .sampler import (
    FieldSample,
    SpectralConfig,
    _check_entries,
    _check_marginal,
    _ou_integral,
    _ou_paths,
    basis_eval,
    mode_rate,
    sample_field,
    sample_slice_marginal,
)
from .sheets import _lift_decay_entries, _lift_decay_sups, _lift_values
# Neither is called here any more, but perfbench/spans.py patches
# heatlift.ldp._increment_tables and heatlift.ldp.dist_infty, so both
# names stay bound.
from .sheets import _increment_tables, dist_infty  # noqa: F401
from .special import erfcx, log_ndtr


# ---------------------------------------------------------------------------
# Cameron-Martin controls and paths

@dataclass(frozen=True)
class ModeControl:
    """Piecewise-constant control for one (mode, component) pair.

    breakpoints run 0 = t_0 < ... < t_p = T; values[i] applies on
    [t_i, t_{i+1}).
    """

    mode: int
    component: int
    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(bp) < 2 or len(vals) != len(bp) - 1:
            raise ParameterError("need p+1 breakpoints for p values")
        if bp[0] != 0.0 or any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ParameterError("breakpoints must increase from 0")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def l2_norm_sq(self) -> float:
        widths = np.diff(self.breakpoints)
        return float(np.sum(np.asarray(self.values) ** 2 * widths))


@dataclass(frozen=True)
class CMControl:
    """Finite family of mode controls; one per (mode, component)."""

    controls: tuple

    def __post_init__(self):
        ctrls = tuple(self.controls)
        keys = [(c.mode, c.component) for c in ctrls]
        if len(set(keys)) != len(keys):
            raise ParameterError("duplicate (mode, component) control")
        object.__setattr__(self, "controls", ctrls)

    def h_norm_sq(self) -> float:
        return sum(c.l2_norm_sq() for c in self.controls)

    def scaled(self, lam: float) -> "CMControl":
        return CMControl(
            tuple(
                ModeControl(
                    c.mode,
                    c.component,
                    c.breakpoints,
                    tuple(lam * v for v in c.values),
                )
                for c in self.controls
            )
        )


def rate_function(ctrl: CMControl) -> float:
    """I = ||h||_H^2 / 2 on lifted shifts (infinite off them)."""
    return 0.5 * ctrl.h_norm_sq()


def _is_finite_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        is_number(v) and np.isfinite(v) for v in value
    )


# The keys of a control's JSON object: what each holds, and its check.
_CONTROL_FIELDS = {
    "mode": ("an integer", is_integer),
    "component": ("an integer", is_integer),
    "breakpoints": ("a list of finite numbers", _is_finite_list),
    "values": ("a list of finite numbers", _is_finite_list),
}


def control_from_dict(doc: dict) -> ModeControl:
    """One control from its JSON object, component 0 by default; raises
    ParameterError naming the first malformed entry."""
    if not isinstance(doc, dict):
        raise ParameterError(f"a control must be a JSON object, got {doc!r}")
    doc = {"component": 0, **doc}
    for key in doc:
        if key not in _CONTROL_FIELDS:
            raise ParameterError(
                f"unknown control key {key!r}; choose from {', '.join(_CONTROL_FIELDS)}"
            )
    for key, (kind, valid) in _CONTROL_FIELDS.items():
        if key not in doc:
            raise ParameterError(f"a control needs the key {key!r}")
        if not valid(doc[key]):
            raise ParameterError(f"control {key} must be {kind}, got {doc[key]!r}")
    return ModeControl(
        int(doc["mode"]), int(doc["component"]),
        tuple(doc["breakpoints"]), tuple(doc["values"]),
    )


@dataclass
class CameronMartinPath:
    """Deterministic shift evaluated on the sampler grid."""

    field: FieldSample
    control: CMControl
    h_norm_sq: float

    @property
    def config(self) -> SpectralConfig:
        return self.field.config


def _step_values(ctrl: ModeControl, times: np.ndarray) -> np.ndarray:
    bp = np.asarray(ctrl.breakpoints)
    horizon = times[-1]
    if abs(bp[-1] - horizon) > 1e-12:
        raise ParameterError(
            f"control ends at {bp[-1]}, grid horizon is {horizon}"
        )
    on_grid = np.min(np.abs(times[None, :] - bp[:, None]), axis=1)
    if np.any(on_grid > 1e-12):
        raise ParameterError("control breakpoints must sit on the time grid")
    mids = 0.5 * (times[:-1] + times[1:])
    idx = np.searchsorted(bp, mids, side="right") - 1
    return np.asarray(ctrl.values)[idx]


def cameron_martin_path(ctrl: CMControl, config: SpectralConfig) -> CameronMartinPath:
    """Evaluate h(t,x) = sum_n hat{h}_n(t) v_n(x) exactly on the grid."""
    for c in ctrl.controls:
        if abs(c.mode) > config.n_modes:
            raise ParameterError(
                f"control mode {c.mode} beyond sampler cutoff {config.n_modes}"
            )
        if not 0 <= c.component < config.dim:
            raise ParameterError(f"component {c.component} outside dim {config.dim}")
    entries = (config.n_time + 1) * config.n_nodes * config.dim
    _check_entries("Cameron-Martin path", entries, "shrink the grid")
    times = config.times()
    nodes = config.nodes()
    delta = config.time_horizon / config.n_time
    values = np.zeros((config.n_time + 1, config.n_nodes, config.dim))
    for c in ctrl.controls:
        lam = mode_rate(abs(c.mode))
        drive = _step_values(c, times) * _ou_integral(lam, delta)
        coeff = _ou_paths(np.exp(-lam * delta), np.concatenate(([0.0], drive)))
        values[:, :, c.component] += np.outer(coeff, basis_eval(c.mode, nodes))
    return CameronMartinPath(
        field=FieldSample(values=values, config=config, replica=-1),
        control=ctrl,
        h_norm_sq=ctrl.h_norm_sq(),
    )


# ---------------------------------------------------------------------------
# Regularity and lift-convergence checks for CM paths

@dataclass(frozen=True)
class CMRegularityReport:
    q: float
    gamma: float
    holder_half: float
    qvar_surrogate: float
    holder_half_normalized: float
    qvar_normalized: float


def _check_q(q: float):
    if not (4.0 / 3.0 < q < 2.0):
        raise ParameterError(f"q must lie in (4/3, 2), got {q}")


def _cm_levels(k_range, grid_level: int) -> tuple:
    """The distinct levels of k_range, sorted, each checked against the
    grid level; at least one is required."""
    given = list(k_range)
    for k in given:
        _check_k(k, grid_level)
    levels = tuple(sorted({int(k) for k in given}))
    if not levels:
        raise ParameterError("k_range must hold at least one level")
    return levels


def validate_cm_params(q: float, k_range, grid_level: int) -> tuple:
    """The checks of cm_regularity_check (q) and cm_lift_uniform_convergence
    (k_range), so a caller that runs both can refuse before either runs;
    returns the distinct levels, sorted."""
    _check_q(q)
    return _cm_levels(k_range, grid_level)


def cm_regularity_check(path: CameronMartinPath, q: float) -> CMRegularityReport:
    """Grid 1/2-Hoelder constant and dyadic q-variation majorant
    sum_k k^gamma sum_i |increment at scale 2^-k|^q, both linearized
    (the majorant via its q-th root) and normalized by ||h||_H.

    The Hoelder sup is taken one lag L = j - i at a time over every time
    row and node: the squared norms of v[:, L:] - v[:, :-L], summed in
    component order, are max-reduced, rooted and divided by sqrt(L / 2^K);
    both are monotone and correctly rounded, so no bit moves."""
    _check_q(q)
    # Any gamma > q - 1 works; staying close to that edge keeps the
    # k-sum's tail small so the report stabilizes at moderate grids.
    gamma = q - 0.75
    values = path.field.values
    K = path.config.grid_level
    n = 2**K
    holder = 0.0
    for lag in range(1, n + 1):
        for c in range(values.shape[2]):
            x = values[..., c]
            diff = x[:, lag:] - x[:, :-lag]
            diff *= diff
            if c == 0:
                sumsq = diff
            else:
                sumsq += diff
        holder = max(holder, math.sqrt(float(np.max(sumsq))) / math.sqrt(lag / n))
    # One level at a time over every time row; each row's total adds the
    # levels in order, as a per-row loop would.
    totals = np.zeros(values.shape[0])
    for k in range(1, K + 1):
        incs = np.linalg.norm(np.diff(values[:, :: 2 ** (K - k)], axis=1), axis=2)
        totals += k**gamma * np.sum(incs**q, axis=1)
    qvar = float(np.max(totals))
    qvar_lin = qvar ** (1.0 / q)
    h = float(np.sqrt(path.h_norm_sq))
    return CMRegularityReport(
        q=q,
        gamma=float(gamma),
        holder_half=holder,
        qvar_surrogate=qvar_lin,
        holder_half_normalized=holder / h if h > 0 else 0.0,
        qvar_normalized=qvar_lin / h if h > 0 else 0.0,
    )


@dataclass(frozen=True)
class LiftDecayRow:
    k: int
    level1_sup: float
    level2_sup: float


def cm_lift_uniform_convergence(
    path: CameronMartinPath, k_range
) -> list[LiftDecayRow]:
    """sup over t and grid pairs of |H(k)^i - H(k_max)^i|, i = 1, 2,
    with k_max the full grid level, for each distinct k of k_range in
    sorted order, by sheets._lift_decay_sups.  Every k, and the node pairs
    and prefixes against the sampler's guard, are checked before any lift."""
    K = path.config.grid_level
    ks = _cm_levels(k_range, K)
    entries = _lift_decay_entries(path.config.n_time + 1, K, path.config.dim, len(ks))
    _check_entries("the lift decay's node pairs and prefixes", entries, "shrink the grid")
    lifts = (lift_level(path.field, k) for k in (K, *ks))
    sups = _lift_decay_sups(lifts, len(ks))
    return [
        LiftDecayRow(k=k, level1_sup=float(s1), level2_sup=float(s2))
        for k, s1, s2 in zip(ks, *sups)
    ]


# ---------------------------------------------------------------------------
# Tail probabilities of the approximation gap

def wilson_interval(count: int, n: int) -> tuple[float, float]:
    z = 1.96  # the 95% normal quantile
    if n <= 0:
        raise ParameterError("need at least one trial")
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, float(center - half)), min(1.0, float(center + half))


@dataclass(frozen=True)
class TailRow:
    epsilon: float
    delta: float
    k: int
    replicas: int
    count: int
    p_hat: float
    ci_low: float
    ci_high: float
    eps2_log: float
    zero_count: bool


def _check_eps_list(eps_list) -> tuple:
    """The epsilons as floats, each checked to be a number in (0, inf)."""
    eps_list = tuple(float(eps) if is_number(eps) else eps for eps in eps_list)
    if len(eps_list) == 0:
        raise ParameterError("eps_list must hold at least one epsilon")
    for eps in eps_list:
        if not (isinstance(eps, float) and 0.0 < eps < np.inf):
            raise ParameterError(f"0 < epsilon < inf violated: epsilon={eps!r}")
    return eps_list


def tail_probability(
    delta: float,
    eps_list,
    k: int,
    replicas: int,
    config: SpectralConfig,
    threads: int = 1,
) -> tuple[TailRow, ...]:
    """Monte Carlo estimates of P(dist_inf(eps*Psi, eps*Psi(k)) > delta),
    one row per eps, in eps_list order.

    By exact homogeneity of dist_inf each estimate is
    P(dist_inf(Psi, Psi(k)) > delta / eps).  Every replica is therefore
    sampled and measured once (dyadic._gap_sup, from the field values),
    and the one ordered array of distances is thresholded at delta / eps
    for every eps.  When no replica exceeds a threshold, eps^2 * log of
    the Wilson upper bound is reported instead of -inf.  An empty
    eps_list, an eps or delta outside (0, inf), replicas < 1, k outside
    [0, grid_level] or threads < 1 raises ParameterError, naming it,
    before anything is sampled.

    parallel.deterministic_map splits the replicas into contiguous runs,
    one per worker process; the distances come back in replica order.
    """
    eps_list = _check_eps_list(eps_list)
    if not 0.0 < delta < np.inf:
        raise ParameterError(f"0 < delta < inf violated: delta={delta!r}")
    if replicas < 1:
        raise ParameterError(f"replicas >= 1 violated: replicas={replicas}")
    _check_k(k, config.grid_level)

    def gap(r: int) -> float:
        return float(_gap_sup(sample_field(config, r).values, config.grid_level, k))

    dists = np.array(deterministic_map(gap, range(replicas), threads=threads))
    rows = []
    for epsilon in eps_list:
        count = int(np.sum(dists > delta / epsilon))
        p_hat = count / replicas
        lo, hi = wilson_interval(count, replicas)
        zero = count == 0
        basis = p_hat if not zero else hi
        rows.append(
            TailRow(
                epsilon=epsilon,
                delta=delta,
                k=k,
                replicas=replicas,
                count=count,
                p_hat=p_hat,
                ci_low=lo,
                ci_high=hi,
                eps2_log=float(epsilon**2 * np.log(basis)),
                zero_count=zero,
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Chaos moment growth

@dataclass
class ChaosReport:
    functional: str
    degree: int
    q_list: tuple
    norm_ratios: dict
    exponent: float
    exponent_stderr: float
    ratio4: float
    ratio4_stderr: float
    replicas: int


def validate_chaos_params(q_list) -> tuple:
    """The moment-order checks of chaos_moment_ratio; returns the distinct
    orders, sorted, as floats.  A growth exponent needs two distinct
    orders, and ratio4 is part of every report, so 4 must be among them."""
    orders = []
    for q in q_list:
        if not is_number(q) or not 2.0 <= q < np.inf:
            raise ParameterError(f"moment orders 2 <= q < inf violated: q={q!r}")
        orders.append(float(q))
    q_sorted = tuple(sorted(set(orders)))
    if len(q_sorted) < 2:
        raise ParameterError(
            f"q_list must hold at least two distinct orders, got {list(q_sorted)}"
        )
    if not np.any(np.isclose(q_sorted, 4.0)):
        raise ParameterError(f"q_list must include 4 for ratio4, got {list(q_sorted)}")
    return q_sorted


# Finest level2 cell 2^-level: x + 2^-52 != x for every double x in [0, 1].
_MAX_CHAOS_LEVEL = 52

# Equal batches of the replicas behind the chaos standard errors.
_CHAOS_BATCHES = 25


def _fit_exponent(qs: np.ndarray, ratios: np.ndarray) -> float:
    # ratios are relative to q = 2, so the q = 2 point is exact (log 1).
    return float(np.polyfit(np.log(qs), np.log(ratios), 1)[0])


def chaos_moment_ratio(
    functional: str,
    q_list,
    replicas: int,
    config: SpectralConfig,
    t: float = 1.0,
    x: float = 0.0,
    y: float | None = None,
    level: int = 5,
) -> ChaosReport:
    """Monte Carlo L^q/L^2 norm ratios of one chaos element and the
    fitted growth exponent of q -> ||Z||_q.

    functional "level1" evaluates a single component of a level-1
    increment (first Wiener chaos); "level2" evaluates an off-diagonal
    entry of the level-`level` polygonal lift between x and y (second
    chaos; needs dim >= 2).  Scalar replicas are drawn from the exact
    single-time marginal.  Standard errors come from _CHAOS_BATCHES equal
    batches, so replicas >= _CHAOS_BATCHES.

    y defaults to x + 1/2 for level1 and to one dyadic cell x + 2^-level
    for level2: over a single cell the entry is a plain product of
    independent component increments, so the fitted growth reflects the
    chaos order instead of being averaged toward Gaussian by aggregation
    over many cells.

    A degenerate element (rounding noise) raises before any draw: level1
    with x = y on the circle (dist_s1 < 1e-12), level2 with level < 1.
    level2 also needs level <= 52, so that a cell x + 2^-level is a
    distinct double for every x in [0, 1].
    """
    q_sorted = validate_chaos_params(q_list)
    q_arr = np.asarray(q_sorted)
    if replicas < _CHAOS_BATCHES:
        raise ParameterError(
            f"replicas >= batches violated: replicas={replicas}, batches={_CHAOS_BATCHES}"
        )
    if not 0 < t < np.inf:
        raise ParameterError(f"0 < t < inf violated: t={t!r}")
    for name, value in (("x", x), ("y", y)):
        if value is not None and not -np.inf < value < np.inf:
            raise ParameterError(f"-inf < {name} < inf violated: {name}={value!r}")
    if functional == "level2":
        if config.dim < 2:
            raise ParameterError("level2 functional needs dim >= 2")
        if level < 1:
            raise ParameterError(f"level >= 1 violated: level={level}")
        if level > _MAX_CHAOS_LEVEL:
            raise ParameterError(
                f"level <= {_MAX_CHAOS_LEVEL} violated: level={level}"
            )
    elif functional != "level1":
        raise ParameterError(f"unknown functional {functional!r}")
    if y is None:
        y = x + (0.5 if functional == "level1" else 2.0**-level)
    if functional == "level1" and not dist_s1(x, y) >= 1e-12:
        raise ParameterError(f"dist_s1(x, y) >= 1e-12 violated: x={x!r}, y={y!r}")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([config.seed, 0xC4A05], dtype=np.uint64))
    )
    if functional == "level1":
        degree = 1
        fields = sample_slice_marginal(
            config, t, replicas, rng, nodes=np.array([x, y])
        )
        z = fields[:, 1, 0] - fields[:, 0, 0]
    else:
        degree = 2
        lo, hi = min(x, y), max(x, y)
        n_cells = (hi - lo) * 2**level
        if abs(n_cells - round(n_cells)) > 1e-9 or round(n_cells) < 1:
            raise ParameterError(
                f"y - x = {hi - lo} is not a positive multiple of 2^-{level}"
            )
        n_cells = int(round(n_cells))
        _check_marginal(config.n_modes, replicas, n_cells + 1, config.dim, lifted=True)
        nodes = lo + np.arange(n_cells + 1) * 2.0**-level
        fields = sample_slice_marginal(config, t, replicas, rng, nodes=nodes)
        # One path per replica on the leading axis; only level2 is read.
        lifted = _lift_values(np.zeros(replicas), fields[:, :, :2], level)
        z = lifted.level2[:, -1, 0, 1]

    absz = np.abs(z)

    def ratios_of(sample: np.ndarray) -> np.ndarray:
        base = float(np.mean(sample**2)) ** 0.5
        return np.array(
            [float(np.mean(sample**q)) ** (1.0 / q) / base for q in q_arr]
        )

    full_ratios = ratios_of(absz)
    exponent = _fit_exponent(q_arr, full_ratios)

    q4 = int(np.flatnonzero(np.isclose(q_arr, 4.0))[0])
    batch_exp = []
    batch_r4 = []
    for part in np.array_split(absz, _CHAOS_BATCHES):
        r = ratios_of(part)
        batch_exp.append(_fit_exponent(q_arr, r))
        batch_r4.append(r[q4])
    exp_se = float(np.std(batch_exp, ddof=1) / np.sqrt(len(batch_exp)))
    ratio4 = float(full_ratios[q4])
    ratio4_se = float(np.std(batch_r4, ddof=1) / np.sqrt(len(batch_r4)))

    return ChaosReport(
        functional=functional,
        degree=degree,
        q_list=q_sorted,
        norm_ratios={float(q): float(r) for q, r in zip(q_arr, full_ratios)},
        exponent=exponent,
        exponent_stderr=exp_se,
        ratio4=ratio4,
        ratio4_stderr=ratio4_se,
        replicas=replicas,
    )


# ---------------------------------------------------------------------------
# Pointwise Schilder scaling (analytic)

# The covariance route of the marginal variance sigma^2.
_SCHILDER_ROUTE = "fourier"


@dataclass(frozen=True)
class SchilderRow:
    epsilon: float
    threshold: float
    probability: float
    eps2_log: float


@dataclass(frozen=True)
class SchilderReport:
    t: float
    x: float
    sigma_sq: float
    limit: float
    rows: tuple


def schilder_point_check(t: float, x: float, a: float | None, eps_list) -> SchilderReport:
    """Analytic curve eps^2 log P(N(0, sigma^2) > a / eps).

    The Gaussian tail gives the exact scaled log-probability through
    erfcx, so no sampling is involved and no eps underflows it to NaN or
    -inf (the probability itself underflows to 0); the curve increases to
    -a^2 / (2 sigma^2) from below as eps decreases.  Needs 0 < t < inf,
    a finite x, 0 < eps < inf and 0 <= a < inf; below a = 0 that limit
    would be wrong, since the probability then tends to one.  a = None
    is one standard deviation, a = sigma.
    """
    eps_list = _check_eps_list(eps_list)
    if not 0.0 < t < np.inf:
        raise ParameterError(f"0 < t < inf violated: t={t!r}")
    if not -np.inf < x < np.inf:
        raise ParameterError(f"-inf < x < inf violated: x={x!r}")
    if a is not None and not 0.0 <= a < np.inf:
        raise ParameterError(f"0 <= a < inf violated: a={a!r}")
    sigma_sq = float(cov(t, x, t, x, method=_SCHILDER_ROUTE))
    if sigma_sq <= 0.0:
        raise ParameterError(f"degenerate marginal at t={t} (variance {sigma_sq})")
    sigma = np.sqrt(sigma_sq)
    if a is None:
        a = float(sigma)
    limit = -a * a / (2.0 * sigma_sq)
    rows = []
    for eps in eps_list:
        z = -a / (eps * sigma)
        # eps^2 log P = eps^2 log(erfcx(u) / 2) - a^2 / (2 sigma^2) with
        # u = -z / sqrt(2): the Gaussian exponent is taken out whole, so an
        # eps^2 that underflows never meets a log P that overflows to -inf.
        log_head = float(np.log(erfcx(-z / np.sqrt(2.0)) / 2.0))
        rows.append(
            SchilderRow(
                epsilon=eps,
                threshold=float(a),
                probability=float(np.exp(log_ndtr(z))),
                eps2_log=float(eps * eps * log_head + limit),
            )
        )
    return SchilderReport(
        t=t,
        x=x,
        sigma_sq=sigma_sq,
        limit=limit,
        rows=tuple(rows),
    )
