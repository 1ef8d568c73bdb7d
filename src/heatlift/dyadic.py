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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, is_integer
from .group import AREA_COEFF, _outer
from .parallel import deterministic_map, worker_runs
from .sampler import (
    _MAX_FIELD_ENTRIES, FieldSample, GridTooLargeError, SpectralConfig, sample_field,
)
from .sheets import (
    RoughSheet, _BesovArena, _besov_arena_shapes, _lift_values, check_besov_m,
    spacetime_besov_norm,
)

SUP_KIND = "sup"
BESOV_KIND = "besov"

# Bytes of sampled fields one convergence_study worker samples and
# measures per batch (three fields at dim 2, grid level 9 and 16 time
# steps).  A larger batch saves the sup reductions little more time and
# costs resident memory: each field adds their temporaries as well.
_SUP_BATCH_BYTES = 1 << 19

# Bytes of one component's values per block of time rows in _gap_sup:
# its temporaries stay in cache (at grid level 10, blocks of 7 rows reduce
# a field about a third faster than the whole field at once).
_GAP_BLOCK_BYTES = 1 << 16


def validate_besov_params(alpha: float, beta: float, m: float):
    """Constraint chain of the Besov convergence estimates; raises with
    the violated inequality named."""
    if not (1.0 / 3.0 < alpha < 0.5):
        raise ParameterError(f"alpha in (1/3, 1/2) violated: alpha={alpha:.6g}")
    if not (4.0 * beta < 1.0 - 2.0 * alpha):
        raise ParameterError(
            f"4*beta < 1 - 2*alpha violated: beta={beta:.6g}, alpha={alpha:.6g}"
        )
    check_besov_m(beta, m)
    if not (alpha - 1.0 / m > 1.0 / 3.0):
        raise ParameterError(
            f"alpha - 1/m > 1/3 violated: alpha={alpha:.6g}, m={m:.6g}"
        )


def _integer_k(k) -> int:
    """k as an int; raises ParameterError unless k is an integer."""
    if not is_integer(k):
        raise ParameterError(f"k must be an integer, got {k!r}")
    return int(k)


def _check_k(k: int, grid_level: int):
    """A polygonal level k is an integer in [0, grid_level]."""
    _integer_k(k)
    if not 0 <= k <= grid_level:
        raise ParameterError(
            f"0 <= k <= grid_level violated: k={k}, grid_level={grid_level}"
        )


def restrict_values(values: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """Linear interpolation between level-k nodes of values (..., 2^K + 1, d),
    on the full grid.  Elementwise in the leading axes, so a row restricted
    alone has the bits of that row of a stack.

    Level K input is copied unchanged (every node is a level-K node).
    Raises ParameterError unless k is an integer in [0, K].
    """
    K = grid_level
    _check_k(k, K)
    if k == K:
        return values.copy()
    stride = 2 ** (K - k)
    n = 2**K
    j = np.arange(n + 1)
    q, r = np.divmod(j, stride)
    # Both weights contiguous and as wide as the trailing axis: a (nodes, 1)
    # column broadcast over a short trailing axis doubles the products' cost.
    w = np.repeat((r.astype(float) / stride)[:, None], values.shape[-1], axis=1)
    w_left = 1.0 - w
    # "clip" is faster than the default "raise"; the indices are in range,
    # so it changes no value.
    right = np.take(values, np.minimum((q + 1) * stride, n), axis=-2, mode="clip")
    right *= w
    left = np.take(values, np.minimum(q * stride, n), axis=-2, mode="clip")
    left *= w_left
    # Exactness at the kept nodes (w = 0) is automatic.
    left += right
    return left


def lift_level(sample: FieldSample, k: int) -> RoughSheet:
    """Natural lift of the level-k polygonal approximation, prefix-extended
    to the full grid; the initial-value path psi(., 0) rides along (node 0
    is a level-k node for every k, so it is unaffected by restriction).
    At k = K the sample's values are lifted as they are.
    """
    K = sample.config.grid_level
    _check_k(k, K)
    values = sample.values
    if k < K:
        values = restrict_values(values, K, k)
    return _lift_values(sample.config.times(), values, K)


def _fine_nodes(values: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """The level-(k+1) nodes of values (..., 2^K + 1, d), a view shaped
    (..., 2^(k+1) + 1, d); raises ParameterError unless k is an integer
    with 0 <= k < K."""
    K = grid_level
    if _integer_k(k) < 0:
        raise ParameterError(f"k >= 0 violated: k={k}")
    if k + 1 > K:
        raise ParameterError(f"need grid level >= {k + 1}, have {K}")
    return values[..., :: 2 ** (K - (k + 1)), :]


def _sibling_products(row: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """w_l = D_{2l-1} ⊗ D_{2l} - D_{2l} ⊗ D_{2l-1} over the level-(k+1)
    siblings of one time row (2^K + 1, d)."""
    deltas = np.diff(_fine_nodes(row, grid_level, k), axis=-2)
    # even ⊗ odd is odd ⊗ even transposed, entry for entry.
    prod = _outer(deltas[..., 0::2, :], deltas[..., 1::2, :])
    return prod - np.swapaxes(prod, -1, -2)


def level2_telescope(
    row: np.ndarray, grid_level: int, k: int, i_node: int, j_node: int
) -> np.ndarray:
    """Closed form for Psi(k+1)^2 - Psi(k)^2 at level-k nodes (I, J) of one
    time row (2^K + 1, d) of a field on a level-grid_level grid.

    Must agree entrywise with the direct lift difference; this is the
    central algebraic identity the whole convergence argument rides on.
    Raises ParameterError unless k is an integer with 0 <= k < grid_level.
    """
    w = _sibling_products(row, grid_level, k)
    if not (0 <= i_node <= j_node <= 2**k):
        raise IndexError(f"need 0 <= I <= J <= {2 ** k}")
    return 0.5 * np.sum(w[i_node:j_node], axis=0)


def _level1_sup(values: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """sup over (t, x) of |psi(k+1) - psi(k)| for each leading index of
    values (..., n_times, 2^K + 1, d), shaped like those leading axes.

    The sup is attained at the level-(k+1) midpoints, where the difference
    equals the midpoint minus the mean of its level-k neighbours.  Formed
    one component at a time, with the squares summed in component order,
    which is how np.linalg.norm sums fewer than 8 components (it sums 8 or
    more pairwise).  The root is taken of the maximum: sqrt is monotone
    and correctly rounded, so that is the maximum of the norms, bit for
    bit.  Elementwise in the leading axes, so a field reduced alone has
    the bits of its entry in a stack.
    """
    nodes = _fine_nodes(values, grid_level, k)
    for c in range(nodes.shape[-1]):
        x = nodes[..., c]
        gap = x[..., 1::2] - 0.5 * (x[..., 0:-1:2] + x[..., 2::2])
        gap *= gap
        if c == 0:
            sumsq = gap
        else:
            sumsq += gap
    return np.sqrt(np.max(sumsq, axis=(-2, -1)))


def _level2_sup(values: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """max over t, level-k pairs (I, J) and entries of
    |Psi(k+1)^2 - Psi(k)^2| for each leading index of values
    (..., n_times, 2^K + 1, d), via the prefix spread of the telescoping
    sum; shaped like the leading axes.

    All times at once, one entry a < b at a time: w is antisymmetric with
    a zero diagonal and negation is exact, so those entries carry every
    spread.  The prefix's leading zero row enters as max(., 0) and
    min(., 0).  Every step is elementwise in the leading axes, or a scan
    or maximum along the others, so a field reduced alone has the bits of
    its entry in a stack.
    """
    nodes = _fine_nodes(values, grid_level, k)
    # The sibling increments D_{2l-1}, D_{2l} of each component, contiguous.
    comps = [nodes[..., c] for c in range(nodes.shape[-1])]
    odd = [x[..., 1::2] - x[..., 0:-1:2] for x in comps]
    even = [x[..., 2::2] - x[..., 1::2] for x in comps]
    spread = np.zeros(nodes.shape[:-3])
    for a in range(len(comps)):
        for b in range(a + 1, len(comps)):
            w = odd[a] * even[b] - even[a] * odd[b]
            prefix = np.cumsum(w, axis=-1)
            entry = np.maximum(prefix.max(axis=-1), 0.0)
            entry -= np.minimum(prefix.min(axis=-1), 0.0)
            np.maximum(spread, entry.max(axis=-1), out=spread)
    return 0.5 * spread


def _gap_sup(values: np.ndarray, grid_level: int, k: int) -> np.ndarray:
    """sup over (t, x) of ||Psi(K)(0, x)^{-1} ⊗ Psi(k)(0, x)|| for each
    leading index of values (..., n_times, 2^K + 1, d), shaped like those
    leading axes: sheets.dist_infty(lift_level(., K), lift_level(., k))
    (whose initial-value gap is zero) without building either lift.

    Level 1 is the gap delta = (psi(k) - psi(0)) - a1, a1 = psi - psi(0),
    as the pair increment of the lifts forms it.  Level 2 needs only the
    doubled areas a < b: the fine path's is the running sum of
    a1_a Delta_b - a1_b Delta_a, and the coarse polygon's at r = 1..S fine
    cells into its cell c (S = 2^(K-k), D = psi((c+1)S) - psi(cS)) is
    area(cS) + (r/S) (a1_a(cS) D_b - a1_b(cS) D_a), which at r = S has the
    running sum's bits (so the gap is exactly 0 at k = K).  Their
    difference minus a1_a delta_b - a1_b delta_a is twice the
    antisymmetric entry, normed as group._hom_norms norms it.  The roots
    are taken of the maxima over (t, x) and over blocks of time rows
    (_GAP_BLOCK_BYTES): sqrt and the scaling are monotone and correctly
    rounded, so neither moves a bit.  Elementwise in the leading axes, so
    a field reduced alone has the bits of its entry in a stack.  Raises
    ParameterError unless k is an integer in [0, K].
    """
    _check_k(k, grid_level)
    rows = max(1, _GAP_BLOCK_BYTES // (8 * math.prod(values.shape[:-3]) * values.shape[-2]))
    level1 = level2 = None
    for lo in range(0, values.shape[-3], rows):
        sq1, sq2 = _gap_sumsq(values[..., lo : lo + rows, :, :], grid_level, k)
        level1 = sq1 if level1 is None else np.maximum(level1, sq1)
        level2 = sq2 if level2 is None else np.maximum(level2, sq2)
    level2 = np.sqrt(np.sqrt(level2))
    level2 *= AREA_COEFF
    return np.maximum(np.sqrt(level1), level2)


def _gap_sumsq(values: np.ndarray, grid_level: int, k: int):
    """The maxima over (t, x) of the squared level-1 gap and of the sum of
    squared antisymmetric entries (see _gap_sup)."""
    stride = 2 ** (grid_level - k)
    coarse = restrict_values(values, grid_level, k)
    d = values.shape[-1]
    # Each component contiguous, as numpy handles a short trailing axis slowly.
    a1, gap = [], []
    for c in range(d):
        start = values[..., :1, c]
        a1.append(values[..., c] - start)
        g = coarse[..., c] - start
        g -= a1[c]
        gap.append(g)
    del coarse
    sumsq = gap[0] * gap[0]
    for c in range(1, d):
        sumsq += gap[c] * gap[c]
    # The cell increments of the fine path and of the coarse polygon.
    fine = [values[..., 1:, c] - values[..., :-1, c] for c in range(d)]
    cells = [values[..., stride::stride, c] - values[..., :-stride:stride, c] for c in range(d)]
    frac = np.arange(1, stride + 1) / stride
    area_sumsq = None
    for a in range(d):
        for b in range(a + 1, d):
            fine_area = a1[a][..., :-1] * fine[b]
            fine_area -= a1[b][..., :-1] * fine[a]
            np.cumsum(fine_area, axis=-1, out=fine_area)
            swept = a1[a][..., :-1:stride] * cells[b]
            swept -= a1[b][..., :-1:stride] * cells[a]
            before = np.zeros(swept.shape)
            np.cumsum(swept[..., :-1], axis=-1, out=before[..., 1:])
            x = frac * swept[..., None]
            x += before[..., None]
            x = x.reshape(fine_area.shape)
            x -= fine_area
            cross = a1[a][..., 1:] * gap[b][..., 1:]
            cross -= a1[b][..., 1:] * gap[a][..., 1:]
            x -= cross
            x *= 0.5
            x *= x
            x *= 2.0
            if area_sumsq is None:
                area_sumsq = x
            else:
                area_sumsq += x
    level1 = sumsq.max(axis=(-2, -1))
    if area_sumsq is None:
        return level1, np.zeros(level1.shape)
    return level1, area_sumsq.max(axis=(-2, -1))


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

    Replicas run independently and are reduced in replica order.  They are
    split into the contiguous runs of parallel.worker_runs(replicas,
    threads), one per worker process.  Each run allocates one buffer of B
    fields, B as many as _SUP_BATCH_BYTES holds (at least one, at most the
    run), and samples its replicas into it B at a time, through
    sample_field per replica.  Each kind turns a batch into one array of
    shape (replicas, level, k).  Sup reduces every level once per batch
    (_level1_sup, _level2_sup); each replica's values are
    float(level1[i]) ** 2 and float(level2[i]), with the bits of that
    replica reduced alone.  Besov walks each replica's k upward in one
    sheets._BesovArena per run, which builds every norm's tables,
    difference and quadrature rows; each fine lift is passed back as the
    next k's coarse lift, whose tables the arena kept.  The runs' arrays
    are joined in replica order, and each row is the mean and standard
    error of one column, in the order kind, level, k.  Each distinct level
    runs once.  A level that is not an integer, no kind or no k, a kind
    other than sup and besov, or a negative k raises ParameterError before
    sampling.  Besov mode raises GridTooLargeError before sampling
    when the arenas of all runs together (each: two increment tables, the
    gather and product rows and one block of quadrature rows, as many as
    1 MiB holds and at least one; sheets._besov_arena_shapes) would hold
    more values than the sampler's allocation guard.  Fewer than two
    replicas raise ParameterError (one has no standard error), after the
    checks above and still before sampling; so does threads < 1.
    """
    k_range = sorted({_integer_k(k) for k in k_range})
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
    # Each worker maps one contiguous run of replicas (see run below).
    runs = worker_runs(replicas, threads)
    if use_besov:
        if alpha is None or beta is None or m is None:
            raise ParameterError("besov kind needs alpha, beta and m")
        validate_besov_params(alpha, beta, m)
        shapes = _besov_arena_shapes(config.n_time + 1, config.grid_level, config.dim)
        entries = len(runs) * sum(math.prod(shape) for shape in shapes)
        if entries > _MAX_FIELD_ENTRIES:
            raise GridTooLargeError(
                f"Besov increment tables would hold, with their rows, {entries} values "
                f"at once (guard is {_MAX_FIELD_ENTRIES}); shrink the grid or the threads"
            )

    if replicas < 2:
        # One replica has no standard error: every stderr would be NaN.
        raise ParameterError(f"replicas >= 2 violated: replicas={replicas}")

    K = config.grid_level
    measured = sorted(set(kinds))  # the row order: kind, then level, then k
    field_shape = (config.n_time + 1, config.n_nodes, config.dim)
    batch = max(1, min(_SUP_BATCH_BYTES // (8 * math.prod(field_shape)), len(runs[0])))

    def sup(values: np.ndarray, out: np.ndarray):
        for j, k in enumerate(k_range):
            # Python's float ** 2 (libm's pow), not numpy's x * x: the two
            # may differ in the last bit.
            out[:, 0, j] = [float(x) ** 2 for x in _level1_sup(values, K, k)]
            out[:, 1, j] = _level2_sup(values, K, k)

    def besov(values: np.ndarray, reps: range, arena: _BesovArena, out: np.ndarray):
        for i, r in enumerate(reps):
            sample = FieldSample(values=values[i], config=config, replica=r)
            # Walking k upward, the fine lift of one difference is the
            # coarse lift of the next: the same object, which the arena
            # recognizes as the sheet it kept.
            fine = fine_k = None
            for j, k in enumerate(k_range):
                coarse = fine if fine_k == k else lift_level(sample, k)
                fine, fine_k = lift_level(sample, k + 1), k + 1
                norm = spacetime_besov_norm(
                    fine, beta, alpha, m, relative_to=coarse, work=arena
                )
                out[i, :, j] = norm.level1, norm.level2

    def run(block: range) -> np.ndarray:
        # One buffer for the run's batches of fields and, in Besov mode,
        # one arena for every norm's tables, difference and rows.
        fields = np.empty((min(batch, len(block)),) + field_shape)
        arena = _BesovArena(config.n_time + 1, K, config.dim) if use_besov else None
        out = np.empty((len(block), len(measured), 2, len(k_range)))
        for lo in range(0, len(block), batch):
            reps = block[lo : lo + batch]
            values = fields[: len(reps)]
            for i, r in enumerate(reps):
                values[i] = sample_field(config, r).values
            for a, kind in enumerate(measured):
                if kind == SUP_KIND:
                    sup(values, out[lo : lo + len(reps), a])
                else:
                    besov(values, reps, arena, out[lo : lo + len(reps), a])
        return out

    # Every value has the same bits in any run, so the rows do not follow
    # the worker count.
    columns = np.concatenate(deterministic_map(run, runs, threads=threads))
    table = ConvergenceTable()
    for a, kind in enumerate(measured):
        for level in (1, 2):
            estimates = []
            for j, k in enumerate(k_range):
                # A contiguous copy: the sums run in the order of a 1-d array.
                vals = np.ascontiguousarray(columns[:, a, level - 1, j])
                estimates.append(float(vals.mean()))
                stderr = float(vals.std(ddof=1) / np.sqrt(replicas))
                table.rows.append(ConvergenceRow(k, level, kind, estimates[-1], stderr, replicas))
            if len(estimates) >= 2 and all(e > 0 for e in estimates):
                table.fits[f"{kind}:{level}"] = _fit_log2_slope(
                    np.array(k_range), np.array(estimates)
                )
    return table
