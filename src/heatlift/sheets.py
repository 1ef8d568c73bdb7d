"""Spatial rough paths on dyadic grids.

A RoughSlice is the lift of one piecewise-linear spatial path, stored as
prefix group elements A(0, x_j) so that any increment A(x_i, x_j) is
reconstructed exactly (Chen's identity holds by construction) in O(1):

    A(x_i, x_j) = A(0, x_i)^{-1} ⊗ A(0, x_j).

A RoughSheet stacks one slice per time-grid point together with the
initial-value path v_t = a(t, 0), which enters all distances additively.

Each mathematical object has one kernel here:

- the increment: every increment and distance goes through the
  broadcasting pair increment group._pair_increment and, for distances,
  the vectorized homogeneous norm group._hom_norms.  Both, like the lift,
  form every outer product (group._outer) and small-axis sum one entry
  (a, b) at a time over the leading node and time axes, since numpy
  handles trailing d x d axes far slower than long ones (the tails
  experiment's gap of a field's two lifts, dyadic._gap_sup, is read
  from the field values without lifting);
- the lift: _lift_values builds the prefixes of every path on its
  leading axis at once, for single slices (lift_piecewise_linear, also
  the sampled rows of the CLI's lift-check), dyadic levels
  (dyadic.lift_level) and the per-replica chaos paths of
  ldp.chaos_moment_ratio alike;
- the pair increments: _pair_increments, component-major, for s stacked
  paths at a run of node pairs, behind every pair-increment table: the
  Besov tables (_increment_tables, for sheets and slices alike) and the
  blocks of _lift_decay_sups, the Cameron-Martin lift decay of ldp, which
  keeps the bits of full tables without one over all pairs;
- the quadrature: _node_pairs enumerates the grid pairs (node pairs live
  here alone), _log_weights gives the logs of their Riemann weights,
  _row_sumsq the squared Euclidean norm of every pair's entries, its
  component rows summed one at a time in memory order, and _log_besov_sum
  the one log-domain Besov sum.

Besov integrals are discretized as node-pair Riemann sums with uniform
weight (2^-K)^2 per pair; the near-diagonal singularity is integrable
under the stated parameter constraints and refinement behaviour is
measured, not assumed.  The sums are taken in log space: each term's
log is (m/(2*level)) log|increment|^2 + log w, the weights' logs are
formed without the power sep^(1+m*alpha), and each sum is reduced by
log-sum-exp about its largest term.  No term overflows or underflows to
a subnormal, whatever m is, so the cost does not depend on m; a Besov
norm that still comes out non-finite raises FloatingPointError.

Every space-time Besov norm runs in a _BesovArena, one allocation that
holds two sheets' increment tables over all node pairs, one time's
gathers and the quadrature's rows; a walk passes one worker's arena to
every norm, and the arena keeps the last sheet tabulated, so a lift
shared by two consecutive differences is tabulated once.  Each (s, t)
row of the sum is reduced by _row_sumsq one component row at a time, in
blocks of _BESOV_BLOCK_BYTES (see spacetime_besov_norm): in bytes, since
rows of all time pairs would be a quarter of the arena at grid level 8
and gigabytes at level 10, while one row per block is only about 5%
slower at level 8.  The sum is a plain loop on one thread; callers
parallelize over replicas instead.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .group import GroupElement, _hom_norms, _outer, _pair_increment
# deterministic_map is no longer called here, but perfbench/spans.py
# patches heatlift.sheets.deterministic_map, so the name stays bound.
from .parallel import chunk_indices, deterministic_map  # noqa: F401

# lift.bin: the magic, then dim, grid level and time count.
_SHEET_MAGIC = b"HLSHEET1"
_SHEET_HEADER = "<qqq"

# Bytes of one block of the space-time Besov quadrature's rows, one row
# of node pairs per (s, t) pair (_besov_block_rows); the blocks' sums are
# combined in block order, so this and the grid fix the result's bits.
_BESOV_BLOCK_BYTES = 1 << 20

# Logs above this overflow exp.
_LOG_MAX = math.log(np.finfo(float).max)

# Log-sum-exp clamps shifted log-terms at this floor before exp.  A term
# that far below the largest one is under 1e-304 of the sum, so the
# clamp cannot change it, and it keeps exp off its slow subnormal path.
_LOG_FLOOR = -700.0


class GridMismatchError(ValueError):
    """Operands are defined on different (time or space) grids."""


@dataclass(frozen=True)
class PathSlice:
    """R^d-valued values at the dyadic nodes x_j = j / 2^K."""

    values: np.ndarray  # (2^K + 1, d)
    grid_level: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        n = 2 ** self.grid_level + 1
        if v.shape[0] != n:
            raise ValueError(
                f"grid level {self.grid_level} needs {n} nodes, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values in path slice")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class RoughSlice:
    """Prefix-assembled lift of one spatial slice.

    level1[j], level2[j] are the two levels of A(0, x_j); level1[0] and
    level2[0] are zero (the unit element).
    """

    grid_level: int
    level1: np.ndarray  # (2^K + 1, d)
    level2: np.ndarray  # (2^K + 1, d, d)
    initial_value: np.ndarray  # (d,)

    @property
    def dim(self) -> int:
        return self.level1.shape[1]

    @property
    def n_cells(self) -> int:
        return 2**self.grid_level

    def prefix(self, j: int) -> GroupElement:
        return GroupElement(self.level1[j], self.level2[j])


@dataclass
class RoughSheet:
    """Time-indexed family of RoughSlices sharing one spatial grid.

    level1 has shape (n_times, 2^K + 1, d), level2 adds a trailing (d, d),
    initial_values is the path t -> a(t, 0).
    """

    times: np.ndarray
    grid_level: int
    level1: np.ndarray
    level2: np.ndarray
    initial_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.level1.shape[2]

    @property
    def n_times(self) -> int:
        return self.times.shape[0]

    def slice(self, t_index: int) -> RoughSlice:
        return RoughSlice(
            grid_level=self.grid_level,
            level1=self.level1[t_index],
            level2=self.level2[t_index],
            initial_value=self.initial_values[t_index],
        )


def _carve(shapes: list) -> list:
    """Arrays of the given shapes, in order, as views of one allocation.

    glibc raises its mmap threshold to the size of a freed mapped block, so
    the next loop's block of the same size comes from the heap and stays
    there; freeing many field-sized pieces instead hands pages back that
    the next loop faults in again."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(flat, shapes)]


def _lift_values(times: np.ndarray, values: np.ndarray, grid_level: int) -> RoughSheet:
    """Lift every time slice of values (nt, 2^K + 1, d); prefix products
    vectorized in t.

    Each cell contributes the exact segment lift (Δ, Δ ⊗ Δ / 2); prefixes
    are the running Chen products, so every reconstructed increment equals
    the exact iterated integral of the interpolant.
    """
    nt, nodes, d = values.shape
    out = RoughSheet(
        times=times,
        grid_level=grid_level,
        level1=np.empty((nt, nodes, d)),
        level2=np.empty((nt, nodes, d, d)),
        initial_values=np.empty((nt, d)),
    )
    deltas = values[:, 1:] - values[:, :-1]
    np.copyto(out.initial_values, values[:, 0, :])
    # Level-1 prefixes telescope exactly (values[j] - values[0]); one
    # component at a time, as numpy broadcasts a length-d axis slowly.
    level1 = out.level1
    for a in range(d):
        np.subtract(values[..., a], out.initial_values[:, a, None], out=level1[..., a])
    # level2[j+1] = level2[j] + level1[j] ⊗ Δ_j + Δ_j ⊗ Δ_j / 2
    contrib = _outer(level1[:, :-1], deltas)
    half = np.empty((nt, nodes - 1))
    for a in range(d):
        for b in range(a, d):
            # Δ_a Δ_b / 2 is symmetric in (a, b): formed once per pair.
            np.multiply(deltas[..., a], deltas[..., b], out=half)
            half *= 0.5
            contrib[..., a, b] += half
            if b != a:
                contrib[..., b, a] += half
    out.level2[:, 0] = 0.0
    np.cumsum(contrib, axis=1, out=out.level2[:, 1:])
    return out


def lift_piecewise_linear(slice_: PathSlice) -> RoughSlice:
    """Natural lift of the piecewise-linear interpolant of the slice."""
    return _lift_values(np.zeros(1), slice_.values[None], slice_.grid_level).slice(0)


def increment(rough: RoughSlice, i: int, j: int) -> GroupElement:
    """A(x_i, x_j) = A(0, x_i)^{-1} ⊗ A(0, x_j)."""
    n = rough.n_cells
    if not (0 <= i <= j <= n):
        raise IndexError(f"need 0 <= i <= j <= {n}, got i={i}, j={j}")
    return GroupElement(
        *_pair_increment(
            rough.level1[i], rough.level2[i], rough.level1[j], rough.level2[j]
        )
    )


def _node_pairs(n: int):
    """Index arrays (i, j) of the node pairs i < j of a grid with n cells,
    and their separations (j - i) / n."""
    iu, ju = np.triu_indices(n + 1, k=1)
    return iu, ju, (ju - iu) / n


def _log_weights(sep: np.ndarray, mesh: float, expo: float) -> np.ndarray:
    """Logs of the Riemann weights mesh^2 / sep^expo of grid pairs at
    separations sep, formed without sep^expo (which underflows to 0 at
    large expo and turns the weight into inf)."""
    return 2.0 * math.log(mesh) - expo * np.log(sep)


def _row_sumsq(
    table: np.ndarray,
    minus: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean norm of each pair's entries of a component-major
    table (components..., pairs), or of table - minus (same shape): the
    squared rows summed in memory order, one row at a time, so every pair
    sums in component order (as np.linalg.norm over a leading axis).

    Each row (table[c] - minus[c] with minus) is formed in work, squared
    there in place and added into out; the first is squared straight into
    out.  out and work are rows of length pairs, fresh when not given, and
    the result is out.  The bits are those of subtracting the tables whole
    and summing the squares of the difference's rows."""
    pairs = table.shape[-1]
    lead = math.prod(table.shape[:-1])
    rows = table.reshape(lead, pairs)
    minus_rows = None if minus is None else minus.reshape(lead, pairs)
    if out is None:
        out = np.empty(pairs)
    if work is None:
        work = np.empty(pairs)
    for c, row in enumerate(rows):
        if minus_rows is not None:
            row = np.subtract(row, minus_rows[c], out=work)
        if c == 0:
            np.multiply(row, row, out=out)
        else:
            np.multiply(row, row, out=work)
            out += work
    return out


def _logsumexp(terms: np.ndarray) -> float:
    """log of sum(exp(terms)), reduced about the largest term; overwrites
    terms.  Empty or all -inf terms give -inf; a non-finite largest term
    is returned as it is."""
    if terms.size == 0:
        return -math.inf
    top = float(np.max(terms))
    if not math.isfinite(top):
        return top
    terms -= top
    np.maximum(terms, _LOG_FLOOR, out=terms)
    return top + math.log(float(np.sum(np.exp(terms, out=terms))))


def _log_besov_sum(sumsq: np.ndarray, level: int, m: float, *log_ws) -> float:
    """log of the Besov Riemann sum  sum_p |a_p|^(m/level) * w_p,  with
    sumsq[p] = |a_p|^2 and log w_p the sum of the log_ws (broadcast
    against sumsq); overwrites sumsq with the terms' logs."""
    # A zero increment's log is -inf.  If every term is zero the sum's log
    # is -inf and the norm exactly 0; otherwise _logsumexp counts a zero
    # term like any term clamped at _LOG_FLOOR (<= 1e-304 of the sum).
    with np.errstate(divide="ignore"):
        terms = np.log(sumsq, out=sumsq)
    terms *= m / (2.0 * level)
    for log_w in log_ws:
        terms += log_w
    return _logsumexp(terms)


def _besov_root(log_sum: float, level: int, m: float) -> float:
    """The norm (sum)^(level/m) from the sum's log; raises
    FloatingPointError when it is not finite."""
    log_norm = level / m * log_sum
    if not log_norm < _LOG_MAX:
        raise FloatingPointError(
            f"non-finite level-{level} Besov norm (log of the norm: {log_norm})"
        )
    return math.exp(log_norm)


def _besov(table: np.ndarray, level: int, m: float, log_w: np.ndarray) -> float:
    """Level-wise Besov Riemann sum over pairs p,
    (sum_p |table[..., p]|^(m/level) * w[p])^(level/m), with log_w = log w."""
    return _besov_root(_log_besov_sum(_row_sumsq(table), level, m, log_w), level, m)


@dataclass(frozen=True)
class SpacetimeBesovNorm:
    """The three components of the (beta, alpha, m)-Besov sheet norm."""

    initial_value: float
    level1: float
    level2: float


def _pair_increments(p1, p2, iu, ju, out, work):
    """Increments A(x_i, x_j) at the node pairs (iu, ju) of s stacked
    paths, from their component-major prefixes p1 (d, s, nodes) and p2
    (d^2, s, nodes), row a*d + b of p2 holding entry (a, b).

    The prefixes at ju are gathered straight into out = (A^1, A^2),
    shaped (d, s, pairs) and (d^2, s, pairs), those at iu into work[:2]
    (shaped as out), and _pair_increment writes over out in place, its
    product term in work[2] (s, pairs).  Every entry has the bits of
    _pair_increment on its own pair.  Returns out."""
    d, s, _ = p1.shape
    pairs = iu.shape[0]
    o1, o2 = out
    w1, w2, row = work
    # np.take gathers as fancy indexing does at a third of its cost, and
    # writes straight into out only in a mode other than "raise"; the
    # indices are in range, so "clip" changes no value.
    for src, index, dst in ((p1, ju, o1), (p2, ju, o2), (p1, iu, w1), (p2, iu, w2)):
        np.take(src, index, 2, out=dst, mode="clip")
    at_j = (o1.transpose(1, 2, 0), o2.reshape(d, d, s, pairs).transpose(2, 3, 0, 1))
    _pair_increment(
        w1.transpose(1, 2, 0), w2.reshape(d, d, s, pairs).transpose(2, 3, 0, 1),
        *at_j, out=at_j, work=row,
    )
    return out


def _increment_tables(
    level1: np.ndarray, level2: np.ndarray, iu, ju, out=None, work=None
):
    """Increment tables A^1, A^2 over the node pairs (iu, ju) of stacked
    prefixes level1 (n_times, nodes, d) and level2 (n_times, nodes, d, d),
    component-major: (n_times, d, pairs) and (n_times, d^2, pairs), row
    a*d + b of the second holding A^2_ab.  A slice is one time (its
    prefixes with a leading axis of length 1).

    Built one time at a time by _pair_increments, as one path, so only
    one time's gathers at iu are live next to the tables.  Written into
    out = (A^1, A^2) when given, else into new arrays.  work = (level-1
    and level-2 rows gathered at iu, product row), shaped (d, pairs),
    (d^2, pairs) and (pairs,), takes each time's gathers and the product
    term in place of temporaries.  The bits are the same either way.
    """
    nt, nodes, d = level1.shape
    pairs = iu.shape[0]
    if out is None:
        out = (np.empty((nt, d, pairs)), np.empty((nt, d * d, pairs)))
    if work is None:
        work = (np.empty((d, pairs)), np.empty((d * d, pairs)), np.empty(pairs))
    f1, f2 = out
    w1, w2, row = work
    one_path = (w1[:, None], w2[:, None], row[None])
    for t in range(nt):
        # np.take copies a non-contiguous source on every call.
        p1 = np.ascontiguousarray(level1[t].T)
        p2 = np.ascontiguousarray(level2[t].reshape(nodes, d * d).T)
        _pair_increments(
            p1[:, None], p2[:, None], iu, ju, (f1[t][:, None], f2[t][:, None]), one_path
        )
    return f1, f2


# At most _PAIR_BLOCK // dim node pairs per block of _lift_decay_sups, so
# that a block's gathers stay in cache.  Any block size gives the same bits.
_PAIR_BLOCK = 4096


def _pair_blocks(pairs: int, dim: int):
    """The width of the blocks of node pairs and the start of each, in
    order: as few blocks of one width as _PAIR_BLOCK allows, the last moved
    back to end at the last pair.  A pair that it shares with the block
    before repeats a value, so it cannot move a max, and one set of
    buffers serves every block."""
    blocks = -(-pairs // max(1, _PAIR_BLOCK // dim))
    width = -(-pairs // blocks)
    return width, [min(lo, pairs - width) for lo in range(0, pairs, width)]


def _lift_decay_entries(n_times: int, grid_level: int, dim: int, levels: int) -> int:
    """Values held by the large arrays of _lift_decay_sups over `levels`
    lifts and their reference: the three arrays of _node_pairs and the
    stacked prefixes of both levels."""
    n = 2**grid_level
    return 3 * (n * (n + 1) // 2) + n_times * (dim + dim * dim) * (levels + 1) * (n + 1)


def _lift_decay_sups(lifts, levels: int) -> np.ndarray:
    """sup over times and node pairs of |A(x_i, x_j) - R(x_i, x_j)| at
    levels 1 and 2, (2, levels), for `levels` lifts A against a reference
    R.  lifts yields R first; each sheet is read in turn into stacked
    component-major prefixes.  Per time row and block of node pairs
    (_pair_blocks), _pair_increments forms every path's increments; each
    level is differenced against R in place, reduced by _row_sumsq and
    folded into a running max, rooted at the end.  Max is exact and sqrt
    monotone and correctly rounded: any block size gives the bits of full
    increment tables."""
    s = levels + 1
    for i, sheet in enumerate(lifts):
        if i == 0:
            nt, nodes, d = sheet.level1.shape
            p1, p2 = np.empty((nt, d, s, nodes)), np.empty((nt, d * d, s, nodes))
        p1[:, :, i] = sheet.level1.transpose(0, 2, 1)
        p2[:, :, i] = sheet.level2.reshape(nt, nodes, d * d).transpose(0, 2, 1)
    iu, ju, _ = _node_pairs(nodes - 1)
    width, starts = _pair_blocks(iu.shape[0], d)
    out = (np.empty((d, s, width)), np.empty((d * d, s, width)))
    work = (np.empty((d, s, width)), np.empty((d * d, s, width)), np.empty((s, width)))
    sumsq, row = np.empty(levels * width), np.empty(levels * width)
    sup_sq = np.zeros((2, levels * width))
    for t in range(nt):
        for lo in starts:
            hi = lo + width
            _pair_increments(p1[t], p2[t], iu[lo:hi], ju[lo:hi], out, work)
            for table, sup in zip(out, sup_sq):
                gap = table[:, 1:]
                np.subtract(gap, table[:, :1], out=gap)
                # (components, levels * pairs): each level's pairs sum
                # their components in component order.
                _row_sumsq(gap.reshape(len(table), -1), out=sumsq, work=row)
                np.maximum(sup, sumsq, out=sup)
    return np.sqrt(np.max(sup_sq.reshape(2, levels, width), axis=2))


def _besov_block_rows(time_pairs: int, pairs: int) -> int:
    """(s, t) pairs per block of the space-time Besov quadrature: as many
    rows of pairs node pairs as _BESOV_BLOCK_BYTES holds, at least one and
    at most time_pairs."""
    return max(1, min(_BESOV_BLOCK_BYTES // (8 * pairs), time_pairs))


def _besov_arena_shapes(n_times: int, grid_level: int, dim: int) -> list:
    """Shapes of the buffers of one _BesovArena for sheets of n_times times
    on a level-grid_level grid in R^dim, in order: two table slots (each
    the two _increment_tables over all node pairs), the work of
    _increment_tables (two gather rows and the product row) and the
    quadrature's block of _besov_block_rows time-pair rows.  Their entries
    are what dyadic.convergence_study's memory guard counts per worker."""
    n = 2**grid_level
    pairs = n * (n + 1) // 2
    slot = [(n_times, dim, pairs), (n_times, dim * dim, pairs)]
    gather = [(dim, pairs), (dim * dim, pairs)]
    time_pairs = n_times * (n_times - 1) // 2
    return slot * 2 + gather + [(pairs,), (_besov_block_rows(time_pairs, pairs), pairs)]


class _BesovArena:
    """The buffers of a walk of space-time Besov norms on one grid
    (spacetime_besov_norm(work=)), views of one allocation (_carve of
    _besov_arena_shapes):

    - slots: two table slots, each one sheet's two increment tables;
    - gather and row: the work of _increment_tables; row is also the
      quadrature's row buffer;
    - block: the quadrature's rows of one block of time pairs, one level
      at a time.

    kept is the last sheet whose tables were built here, and held the slot
    that still holds them, so a walk that passes that sheet back as
    relative_to reads its tables instead of building them again.  The
    sheet is recognized by identity: its levels are not to be changed in
    place while it is kept.  The arena also keeps the grid's node pairs
    (_node_pairs), made once rather than on every norm.  An arena belongs
    to one worker and serves one call at a time."""

    def __init__(self, n_times: int, grid_level: int, dim: int):
        parts = _carve(_besov_arena_shapes(n_times, grid_level, dim))
        self.slots = (tuple(parts[0:2]), tuple(parts[2:4]))
        self.gather = tuple(parts[4:6])
        self.row, self.block = parts[6:]
        self.pairs = _node_pairs(2**grid_level)
        self.kept: RoughSheet | None = None
        self.held = 0

    def tables(self, sheet: RoughSheet, slot: int) -> tuple:
        """sheet's increment tables over all node pairs, built in slot."""
        iu, ju, _ = self.pairs
        return _increment_tables(
            sheet.level1, sheet.level2, iu, ju,
            out=self.slots[slot], work=self.gather + (self.row,),
        )

    def check(self, sheet: RoughSheet):
        n = 2**sheet.grid_level
        need = (sheet.n_times, sheet.dim, n * (n + 1) // 2)
        if self.slots[0][0].shape != need:
            raise ValueError(
                f"Besov arena holds tables of shape {self.slots[0][0].shape}, "
                f"the sheet needs {need}"
            )


def check_besov_m(beta: float, m: float):
    """The exponent m of a Besov norm lies in (0, inf), NaN excluded, and
    beta > 1/m; raises ParameterError naming the violated inequality."""
    if not m > 0:
        raise ParameterError(f"m > 0 violated: m={m:.6g}")
    if not m < np.inf:
        raise ParameterError(f"m < inf violated: m={m:.6g}")
    if not beta > 1.0 / m:
        raise ParameterError(f"beta > 1/m violated: beta={beta:.6g}, m={m:.6g}")


def spacetime_besov_norm(
    sheet: RoughSheet,
    beta: float,
    alpha: float,
    m: float,
    relative_to: RoughSheet | None = None,
    work: _BesovArena | None = None,
) -> SpacetimeBesovNorm:
    """Quadruple Riemann sum over (s < t) x (x < y) grid pairs.

    Level-1 weight is |t-s|^-(1+beta*m) |y-x|^-(1+alpha*m); level 2 uses
    the (2*beta, 2*alpha, m/2) convention which leads to the identical
    denominator and the 2/m outer power.  The initial-value component is
    the usual path Besov norm of t -> v_t (plus |v_0|).

    With relative_to given, the norm is taken of the plain difference of
    the two sheets' increments and initial values (the distance whose
    level-wise decay the dyadic convergence study estimates).

    The norm runs in work (a _BesovArena on the sheet's grid), or else in
    an arena made for the call.  It builds the sheet's increment tables
    there and relative_to's, unless relative_to is the sheet the arena
    kept, writes the difference over relative_to's and keeps the sheet.
    Neither sheet is changed.

    Each (s, t) pair's squared norms come from the two table rows through
    _row_sumsq, one component row at a time, into a block of rows: first
    level 1's, which are reduced, then level 2's in the same block.  The
    sum is taken in log space (_log_besov_sum) over blocks of
    _besov_block_rows (s, t) pairs, one block after another on the calling
    thread, and their logs are combined in block order, so the block size
    (set by _BESOV_BLOCK_BYTES and the grid) alone fixes the result's
    bits.  Raises FloatingPointError when any component is not finite,
    and ParameterError before any table is built when m is not in
    (0, inf) (check_besov_m), beta <= 1/m or m * alpha <= 1.
    """
    check_besov_m(beta, m)
    if m * alpha <= 1.0:
        raise ParameterError(
            f"need m*alpha > 1 for integrability, got {m * alpha:.4g}"
        )
    if relative_to is not None:
        _require_matching(sheet, relative_to)
    if work is None:
        work = _BesovArena(sheet.n_times, sheet.grid_level, sheet.dim)
    work.check(sheet)
    nt = sheet.n_times
    times = sheet.times
    n = 2**sheet.grid_level
    _, _, sep = work.pairs
    log_wx = _log_weights(sep, 1.0 / n, 1.0 + m * alpha)

    coarse, fine = work.held, 1 - work.held
    # Both slots may be written below: until the sheet's tables stand, the
    # arena keeps no sheet, so an exception on the way leaves no stale one.
    kept, work.kept = work.kept, None
    if relative_to is not None and relative_to is not kept:
        work.tables(relative_to, coarse)
    f1m, f2m = work.tables(sheet, fine)
    v = sheet.initial_values
    if relative_to is not None:
        g1m, g2m = work.slots[coarse]
        # f - g written over g has the bits of f - g.
        f1m = np.subtract(f1m, g1m, out=g1m)
        f2m = np.subtract(f2m, g2m, out=g2m)
        v = v - relative_to.initial_values
    work.kept, work.held = sheet, fine

    si, ti = np.triu_indices(nt, k=1)
    tsep = times[ti] - times[si]
    if times.shape[0] > 1:
        dt = (times[-1] - times[0]) / (nt - 1)
    else:
        dt = 1.0
    log_wt = _log_weights(tsep, dt, 1.0 + beta * m)

    rows, row = work.block, work.row
    logs = []
    step = _besov_block_rows(si.shape[0], sep.shape[0])
    for block in chunk_indices(si.shape[0], step):
        sumsq = rows[: len(block)]
        log_wt_block = log_wt[block, None]
        for level, table in ((1, f1m), (2, f2m)):
            for i, p in enumerate(block):
                _row_sumsq(table[ti[p]], table[si[p]], out=sumsq[i], work=row)
            logs.append(_log_besov_sum(sumsq, level, m, log_wx, log_wt_block))
    log1, log2 = np.array(logs).reshape(-1, 2).T

    dv = v.T[:, ti] - v.T[:, si]
    v_norm = float(np.linalg.norm(v[0])) + _besov(dv, 1, m, log_wt)
    if not math.isfinite(v_norm):
        raise FloatingPointError(f"non-finite initial-value norm {v_norm}")
    return SpacetimeBesovNorm(
        initial_value=v_norm,
        level1=_besov_root(_logsumexp(log1), 1, m),
        level2=_besov_root(_logsumexp(log2), 2, m),
    )


def _require_matching(a: RoughSheet, b: RoughSheet):
    if a.grid_level != b.grid_level or a.dim != b.dim:
        raise GridMismatchError("sheets live on different spatial grids")
    if not np.array_equal(a.times, b.times):
        raise GridMismatchError("sheets live on different time grids")


def dist_infty(a: RoughSheet, b: RoughSheet) -> float:
    """sup over (t, x) of the homogeneous group distance of prefixes,
    plus sup over t of the initial-value gap.

    Exactly homogeneous under slice-wise dilation: scaling both sheets
    by eps scales the distance by eps.
    """
    _require_matching(a, b)
    u1, u2 = _pair_increment(a.level1, a.level2, b.level1, b.level2)
    group_part = float(np.max(_hom_norms(u1, u2)))
    v_part = float(np.max(np.linalg.norm(b.initial_values - a.initial_values, axis=1)))
    return group_part + v_part


def dilate_sheet(lam: float, sheet: RoughSheet) -> RoughSheet:
    """Slice-wise dilation: (v, A^1, A^2) -> (lam*v, lam*A^1, lam^2*A^2)."""
    return RoughSheet(
        times=sheet.times,
        grid_level=sheet.grid_level,
        level1=lam * sheet.level1,
        level2=(lam * lam) * sheet.level2,
        initial_values=lam * sheet.initial_values,
    )


# ---------------------------------------------------------------------------
# Serialization: the one binary cache codec, behind lift.bin and field.bin.
# A cache is an 8-byte magic, a little-endian struct header and then
# little-endian float64 arrays in C order, whose shapes the header fixes.

def _write_cache(path: str, magic: bytes, header_format: str, header, arrays):
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(header_format, *header))
        for arr in arrays:
            # A file object takes the array's buffer: no bytes copy.
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def _read_cache(path: str, magic: bytes, kind: str, header_format: str, layout):
    """(header, arrays) of a _write_cache file.  layout(*header) gives the
    arrays' shapes and the words naming them in the length error.  A file
    without `magic`, or whose length does not match its header (truncated,
    or with trailing bytes), raises ValueError naming the `kind` cache."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(magic)] != magic:
        raise ValueError(f"not a heatlift {kind} cache")
    offset = len(magic) + struct.calcsize(header_format)
    if len(raw) < offset:
        raise ValueError(f"{kind} cache is {len(raw)} bytes, expected at least {offset}")
    header = struct.unpack_from(header_format, raw, len(magic))
    shapes, what = layout(*header)
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes)
    if len(raw) != expected:
        raise ValueError(f"{kind} cache is {len(raw)} bytes, expected {expected} for {what}")
    arrays = []
    for shape in shapes:
        count = math.prod(shape)
        arrays.append(
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            .reshape(shape).astype(float)
        )
        offset += 8 * count
    return header, arrays


def _sheet_layout(d, k, nt):
    n = 2**k + 1
    shapes = ((nt,), (nt, d), (nt, n, d), (nt, n, d, d))
    return shapes, f"{nt} times at grid level {k} and dim {d}"


def save_sheet(sheet: RoughSheet, path: str):
    """Write a sheet cache: the header, then the times, initial values,
    level 1 and level 2."""
    header = (sheet.dim, sheet.grid_level, sheet.n_times)
    arrays = (sheet.times, sheet.initial_values, sheet.level1, sheet.level2)
    _write_cache(path, _SHEET_MAGIC, _SHEET_HEADER, header, arrays)


def load_sheet(path: str) -> RoughSheet:
    """Read a save_sheet cache.  A file that is not one, or whose length
    does not match its header (truncated, or with trailing bytes), raises
    ValueError."""
    (_, k, _), (times, iv, l1, l2) = _read_cache(
        path, _SHEET_MAGIC, "sheet", _SHEET_HEADER, _sheet_layout
    )
    return RoughSheet(times=times, grid_level=k, level1=l1, level2=l2,
                      initial_values=iv)
