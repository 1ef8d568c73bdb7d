"""Dyadic polygonal approximations of the heat field and their lifts.

psi(k) interpolates psi linearly between the level-k dyadic nodes j/2^k
(restrict_values is the one restriction, of a sheet or of a single time
row); its natural lift is built cell-by-cell on the finest grid, where
the interpolant is linear, so Chen's identity and geometricity hold
exactly by construction.

The level-2 difference between consecutive approximations collapses, at
level-k node pairs, to a closed antisymmetric sum over sibling increments

    (1/2) sum_l (D_{2l-1} ⊗ D_{2l} - D_{2l} ⊗ D_{2l-1}),

which this module evaluates independently of the lifts and cross-checks
against the direct lift difference.  The convergence study estimates the
per-level decay of sup-norm and Besov-norm differences by Monte Carlo
and fits the base-2 exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, is_integer
from .group import _outer
from .parallel import deterministic_map
from .sampler import (
    _MAX_FIELD_ENTRIES, FieldSample, GridTooLargeError, SpectralConfig, sample_field,
)
from .sheets import (
    RoughSheet, _lift_values, _table_entries, _view, spacetime_besov_norm,
)

SUP_KIND = "sup"
BESOV_KIND = "besov"


def validate_besov_params(alpha: float, beta: float, m: float):
    """Constraint chain of the Besov convergence estimates; raises with
    the violated inequality named."""
    if not (1.0 / 3.0 < alpha < 0.5):
        raise ParameterError(f"alpha in (1/3, 1/2) violated: alpha={alpha:.6g}")
    if not (4.0 * beta < 1.0 - 2.0 * alpha):
        raise ParameterError(
            f"4*beta < 1 - 2*alpha violated: beta={beta:.6g}, alpha={alpha:.6g}"
        )
    if not m > 0:
        raise ParameterError(f"m > 0 violated: m={m:.6g}")
    if not m < np.inf:
        raise ParameterError(f"m < inf violated: m={m:.6g}")
    if not (beta > 1.0 / m):
        raise ParameterError(f"beta > 1/m violated: beta={beta:.6g}, m={m:.6g}")
    if not (alpha - 1.0 / m > 1.0 / 3.0):
        raise ParameterError(
            f"alpha - 1/m > 1/3 violated: alpha={alpha:.6g}, m={m:.6g}"
        )


def _check_k(k: int, grid_level: int):
    """A polygonal level k is an integer in [0, grid_level]."""
    if not is_integer(k):
        raise ParameterError(f"k must be an integer, got {k!r}")
    if not 0 <= k <= grid_level:
        raise ParameterError(
            f"0 <= k <= grid_level violated: k={k}, grid_level={grid_level}"
        )


def restrict_values(
    values: np.ndarray, grid_level: int, k: int, out=None, work=None
) -> np.ndarray:
    """Linear interpolation between level-k nodes of values (..., 2^K + 1, d),
    on the full grid.  Elementwise in the leading axes, so a row restricted
    alone has the bits of that row of a stack.

    Written into out and returned when out is given, else into a new
    array; work, shaped like values, receives the right nodes' share in
    place of a temporary.  Neither may overlap values; the bits are the
    same either way.  Level K input is copied unchanged (every node is a
    level-K node).  Raises ParameterError unless k is an integer in [0, K].
    """
    K = grid_level
    _check_k(k, K)
    if out is None:
        out = np.empty(values.shape)
    if k == K:
        np.copyto(out, values)
        return out
    stride = 2 ** (K - k)
    n = 2**K
    j = np.arange(n + 1)
    q, r = np.divmod(j, stride)
    # Both weights contiguous and as wide as the trailing axis: a (nodes, 1)
    # column broadcast over a short trailing axis doubles the products' cost.
    w = np.repeat((r.astype(float) / stride)[:, None], values.shape[-1], axis=1)
    w_left = 1.0 - w
    # np.take writes straight into its out only in a mode other than
    # "raise"; the indices are in range, so "clip" changes no value.
    right = np.take(
        values, np.minimum((q + 1) * stride, n), axis=-2, out=work, mode="clip"
    )
    right *= w
    left = np.take(values, np.minimum(q * stride, n), axis=-2, out=out, mode="clip")
    left *= w_left
    # Exactness at the kept nodes (w = 0) is automatic.
    left += right
    return left


def lift_level(
    sample: FieldSample, k: int, out: RoughSheet | None = None, work=None
) -> RoughSheet:
    """Natural lift of the level-k polygonal approximation, prefix-extended
    to the full grid; the initial-value path psi(., 0) rides along (node 0
    is a level-k node for every k, so it is unaffected by restriction).

    With out, a sheet of the sample's shape (an earlier lift's), the lift
    overwrites out's arrays, restricting into out.level1, and returns out;
    with work (sheets._replica_buffers) no temporary of the field's size is
    made.  The bits are those of a fresh lift.  At k = K the sample's
    values are lifted as they are.
    """
    K = sample.config.grid_level
    _check_k(k, K)
    values = sample.values
    if out is not None and out.level1.shape != values.shape:
        raise ValueError(
            f"out sheet holds {out.level1.shape} prefixes, the sample {values.shape}"
        )
    if k < K:
        values = restrict_values(
            values, K, k,
            out=None if out is None else out.level1,
            work=None if work is None else _view(work[0], values.shape),
        )
    return _lift_values(sample.config.times(), values, K, out=out, work=work)


def _sibling_deltas(
    values: np.ndarray, grid_level: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(D_{2l-1}, D_{2l}): increments of the level-(k+1) siblings of values
    (..., 2^K + 1, d), each shaped (..., 2^k, d)."""
    K = grid_level
    if k + 1 > K:
        raise ParameterError(f"need grid level >= {k + 1}, have {K}")
    nodes = values[..., :: 2 ** (K - (k + 1)), :]  # level k+1 nodes
    deltas = np.diff(nodes, axis=-2)
    return deltas[..., 0::2, :], deltas[..., 1::2, :]


def _sibling_products(row: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """w_l = D_{2l-1} ⊗ D_{2l} - D_{2l} ⊗ D_{2l-1} over the level-(k+1)
    siblings of one time row (2^K + 1, d)."""
    odd, even = _sibling_deltas(row, grid_level, k)
    # even ⊗ odd is odd ⊗ even transposed, entry for entry.
    prod = _outer(odd, even)
    return prod - np.swapaxes(prod, -1, -2)


def level2_telescope(
    row: np.ndarray, grid_level: int, k: int, i_node: int, j_node: int
) -> np.ndarray:
    """Closed form for Psi(k+1)^2 - Psi(k)^2 at level-k nodes (I, J) of one
    time row (2^K + 1, d) of a field on a level-grid_level grid.

    Must agree entrywise with the direct lift difference; this is the
    central algebraic identity the whole convergence argument rides on.
    """
    if not (0 <= i_node <= j_node <= 2**k):
        raise IndexError(f"need 0 <= I <= J <= {2 ** k}")
    w = _sibling_products(row, grid_level, k)
    return 0.5 * np.sum(w[i_node:j_node], axis=0)


def _level1_sup(sample: FieldSample, k: int) -> float:
    """sup over (t, x) of |psi(k+1) - psi(k)|; attained at the level-(k+1)
    midpoints, where the difference equals the midpoint minus the mean of
    its level-k neighbours."""
    K = sample.config.grid_level
    stride = 2 ** (K - (k + 1))
    nodes = sample.values[:, ::stride, :]  # (nt, 2^(k+1)+1, d)
    mid = nodes[:, 1::2, :]
    mean = 0.5 * (nodes[:, 0:-1:2, :] + nodes[:, 2::2, :])
    gap = np.linalg.norm(mid - mean, axis=2)
    return float(np.max(gap)) if gap.size else 0.0


def _level2_sup(sample: FieldSample, k: int) -> float:
    """max over t, level-k pairs (I, J) and entries of
    |Psi(k+1)^2 - Psi(k)^2| via the prefix spread of the telescoping sum.

    All times at once.  w is antisymmetric with a zero diagonal and
    negation is exact, so the entries a < b carry every spread; the
    prefix's leading zero row enters as max(., 0) and min(., 0).
    """
    odd, even = _sibling_deltas(sample.values, sample.config.grid_level, k)
    d = odd.shape[2]
    if d == 1:
        return 0.0
    a, b = np.triu_indices(d, 1)
    w = odd[:, :, a] * even[:, :, b] - even[:, :, a] * odd[:, :, b]
    prefix = np.cumsum(w, axis=1)
    spread = np.maximum(prefix.max(axis=1), 0.0) - np.minimum(prefix.min(axis=1), 0.0)
    return 0.5 * float(spread.max())


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    level: int
    norm_kind: str
    estimate: float
    stderr: float
    replicas: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    slope_stderr: float | None  # None below 3 points (no residual dof)
    n_points: int


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow] = field(default_factory=list)
    fits: dict[str, SlopeFit] = field(default_factory=dict)


def _fit_log2_slope(ks: np.ndarray, estimates: np.ndarray) -> SlopeFit:
    y = np.log2(estimates)
    x = ks.astype(float)
    n = x.size
    slope, intercept = np.polyfit(x, y, 1)
    if n > 2:
        resid = y - (slope * x + intercept)
        sigma2 = float(np.sum(resid**2)) / (n - 2)
        se = float(np.sqrt(sigma2 / np.sum((x - x.mean()) ** 2)))
    else:
        se = None
    return SlopeFit(
        slope=float(slope), intercept=float(intercept), slope_stderr=se, n_points=n
    )


def convergence_study(
    config: SpectralConfig,
    k_range,
    replicas: int,
    kinds=(SUP_KIND,),
    alpha: float | None = None,
    beta: float | None = None,
    m: float | None = None,
    threads: int = 1,
) -> ConvergenceTable:
    """Monte Carlo decay of successive dyadic differences, per level.

    Sup mode records E[sup^2 |psi(k+1) - psi(k)|] for level 1 (the square
    keeps it on the variance scale the moment bounds control) and
    E[max |Psi(k+1)^2 - Psi(k)^2|] for level 2.  Besov mode records the
    mean space-time Besov norms of the successive differences and
    requires the full parameter chain to be feasible.

    Replicas run independently (parallelizable) and are reduced in
    replica order.  No kind or no k, a kind other than sup and besov, or
    a negative k raises ParameterError before sampling.  Besov mode
    raises GridTooLargeError before sampling when the increment tables
    live at once would pass the sampler's allocation guard.  Fewer than
    two replicas raise ParameterError (one has no standard error), after
    the checks above and still before sampling.
    """
    k_range = sorted(int(k) for k in k_range)
    if not kinds:
        raise ParameterError("kinds must hold at least one kind")
    if not k_range:
        raise ParameterError("k_range must hold at least one level")
    for kind in kinds:
        if kind not in (SUP_KIND, BESOV_KIND):
            raise ParameterError(f"kind in {{sup, besov}} violated: kind={kind!r}")
    if k_range[0] < 0:
        raise ParameterError(f"k >= 0 violated: k={k_range[0]}")
    if k_range[-1] + 1 > config.grid_level:
        raise ParameterError(
            f"k range up to {k_range[-1]} needs grid_level >= "
            f"{k_range[-1] + 1}, have {config.grid_level}"
        )
    use_besov = BESOV_KIND in kinds
    if use_besov:
        if alpha is None or beta is None or m is None:
            raise ParameterError("besov kind needs alpha, beta and m")
        validate_besov_params(alpha, beta, m)
        per_table = _table_entries(config.n_time + 1, config.grid_level, config.dim)
        # Per replica in flight: two lifts' tables and their difference.
        entries = 3 * per_table * max(1, min(threads, replicas))
        if entries > _MAX_FIELD_ENTRIES:
            raise GridTooLargeError(
                f"Besov increment tables would hold {entries} values at once "
                f"(guard is {_MAX_FIELD_ENTRIES}); shrink the grid or the threads"
            )

    if replicas < 2:
        # One replica has no standard error: every stderr would be NaN.
        raise ParameterError(f"replicas >= 2 violated: replicas={replicas}")

    table = ConvergenceTable()

    def one_replica(r: int):
        sample = sample_field(config, r)
        out = {}
        # Walking k upward, the fine lift of one difference is the coarse
        # lift of the next and carries its increment tables along, so at
        # most two lifts' tables are live.
        lifts = {}
        for k in k_range:
            if SUP_KIND in kinds:
                out[(k, 1, SUP_KIND)] = _level1_sup(sample, k) ** 2
                out[(k, 2, SUP_KIND)] = _level2_sup(sample, k)
            if use_besov:
                coarse = lifts.pop(k) if k in lifts else lift_level(sample, k)
                lifts = {k + 1: lift_level(sample, k + 1)}
                norm = spacetime_besov_norm(
                    lifts[k + 1], beta, alpha, m, relative_to=coarse
                )
                out[(k, 1, BESOV_KIND)] = norm.level1
                out[(k, 2, BESOV_KIND)] = norm.level2
        return out

    results = deterministic_map(one_replica, list(range(replicas)), threads=threads)

    keys = sorted(results[0].keys(), key=lambda kk: (kk[2], kk[1], kk[0]))
    for key in keys:
        vals = np.array([res[key] for res in results])
        k, level, kind = key
        table.rows.append(
            ConvergenceRow(
                k=k,
                level=level,
                norm_kind=kind,
                estimate=float(vals.mean()),
                stderr=float(vals.std(ddof=1) / np.sqrt(replicas)),
                replicas=replicas,
            )
        )

    for kind in kinds:
        for level in (1, 2):
            rows = [r for r in table.rows if r.norm_kind == kind and r.level == level]
            if len(rows) >= 2 and all(r.estimate > 0 for r in rows):
                table.fits[f"{kind}:{level}"] = _fit_log2_slope(
                    np.array([r.k for r in rows]),
                    np.array([r.estimate for r in rows]),
                )
    return table
