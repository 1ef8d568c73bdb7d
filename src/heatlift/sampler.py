"""Exact-in-distribution sampling of the periodic stochastic heat field.

The solution with zero initial condition expands over the circle's
trigonometric eigenbasis; each Fourier coefficient is an independent
Ornstein-Uhlenbeck process with rate 4*pi^2*n^2 (a Brownian motion for
n = 0), driven by its own standard Brownian motion.  Simulating those
coefficients with the exact OU transition makes every time-grid marginal
exact in law up to the mode cutoff, so discrepancies in downstream tests
are attributable to truncation or Monte Carlo noise only.  Each OU
formula is written once: _ou_integral (int_0^h e^{-a r} dr, the one
rate -> 0 limit) gives the transition deviation _ou_sd at rate 2*lam
and the Cameron-Martin gain at rate lam, and _ou_paths is the one
recursion c_{j+1} = decay*c_j + drive_j, run in place, driven by sd*xi
here (all components in one call) and by gain*f in
ldp.cameron_martin_path.

Randomness is counter-based: one Philox stream per (seed, replica,
component), with each mode reading a fixed block of that stream (blocks
ordered 0, +1, -1, +2, -2, ...).  Replicas are therefore reproducible
independently and in parallel.  The key packs replica << 8 | component
into one uint64, so streams stay distinct only for dim <= 256 and
replicas below 2^56.  Every stream is the calling thread's one Generator
with its state reset to the stream's key (_philox), so opening a stream
reads no OS entropy.

sample_field evaluates the mode sum at the dyadic nodes by one inverse
real FFT per component, with modes past the Nyquist frequency folded
onto their aliases.  A replica draws all its streams into one buffer
and steps all components' coefficients together; the first n/2 modes
are written straight into the spectrum, and only folded grids add
later blocks of modes on top.  What does not depend on the replica
(the mode order, each mode's OU decay and step deviation, its fold bin
and its interleaved cosine and sine weights) is one read-only
_SynthesisPlan per grid, built once and cached (_synthesis_plan), so a
study that samples many replicas on one grid builds it once.
sample_row is the same synthesis (_synthesize) for one time row: it
draws the same streams, runs the OU recursion only up to that time and
folds and transforms that row alone, with the bits of that row of
sample_field.  sample_slice_marginal draws through _node_factor,
a thin factor of the truncated node covariance at one time, and forms
its rank-one terms elementwise.  Neither projection calls the BLAS, so
their bits do not depend on the BLAS or its thread count.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np
# Loaded here, at start-up, so that the first sample pays no lazy import.
import numpy.fft
import numpy.random

from .covariance import cov
from .errors import ParameterError
from .sheets import _read_cache, _write_cache

# field.bin: the magic, then the header save_field writes.
_FIELD_MAGIC = b"HLFIELD1"
_FIELD_HEADER = "<qqqqqqd"

# Refuse allocations beyond this many float64 entries instead of dying
# with an opaque MemoryError mid-simulation.
_MAX_FIELD_ENTRIES = 1 << 28

# Most replicas sample_slice_marginal draws and projects at once: a chunk
# holds chunk x r normals, r = min(distinct nodes, 2*n_modes + 1), and a
# few chunk x len(nodes) arrays.  Past 16 distinct nodes the chunk
# shrinks so that its projection holds at most _MARGINAL_BLOCK_ENTRIES
# values (512 KiB).
_MARGINAL_CHUNK = 4096
_MARGINAL_BLOCK_ENTRIES = 1 << 16


class GridTooLargeError(ParameterError):
    """Requested field exceeds the sampler's allocation guard."""


def _check_entries(what: str, count: int, remedy: str):
    """Raise GridTooLargeError, naming what, count and remedy, when what
    would hold more than _MAX_FIELD_ENTRIES values."""
    if count > _MAX_FIELD_ENTRIES:
        raise GridTooLargeError(
            f"{what} would hold {count} values (guard is {_MAX_FIELD_ENTRIES}); {remedy}"
        )


@dataclass(frozen=True)
class SpectralConfig:
    """Simulation grid and mode cutoff.

    Modes |n| <= n_modes are simulated; the omitted pointwise variance,
    truncation_residual(n_modes, t), is the Fourier-route covariance
    oracle's variance less its truncation to these modes.
    """

    n_modes: int = 256
    time_horizon: float = 1.0
    n_time: int = 128
    grid_level: int = 10
    dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_modes < 1:
            raise ParameterError("n_modes must be >= 1")
        if self.n_time < 1:
            raise ParameterError(f"n_time >= 1 violated: n_time={self.n_time}")
        if not 0 < self.time_horizon < np.inf:
            raise ParameterError(
                f"0 < time_horizon < inf violated: time_horizon={self.time_horizon!r}"
            )
        if self.grid_level < 0:
            raise ParameterError(
                f"grid_level >= 0 violated: grid_level={self.grid_level}"
            )
        if not 1 <= self.dim <= 256:
            raise ParameterError(f"1 <= dim <= 256 violated: dim={self.dim}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"0 <= seed < 2^64 violated: seed={self.seed}")

    @property
    def n_nodes(self) -> int:
        return 2**self.grid_level + 1

    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * (self.time_horizon / self.n_time)

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_nodes) / 2**self.grid_level


@dataclass
class FieldSample:
    """One realization on the (time x space) grid; values[t, x, component]."""

    values: np.ndarray
    config: SpectralConfig
    replica: int


def mode_rate(n) -> np.ndarray:
    """OU reversion rate of mode n: the Laplacian eigenvalue 4*pi^2*n^2."""
    n = np.asarray(n, dtype=float)
    return 4.0 * np.pi**2 * n**2


def basis_eval(n: int, x) -> np.ndarray:
    """Orthonormal circle basis: 1, sqrt(2)cos(2 pi n x), sqrt(2)sin(2 pi n x)."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    if n > 0:
        return np.sqrt(2.0) * np.cos(2.0 * np.pi * n * x)
    return np.sqrt(2.0) * np.sin(2.0 * np.pi * (-n) * x)


def _mode_order(n_modes: int) -> np.ndarray:
    """Canonical stream order 0, 1, -1, 2, -2, ..., n_modes, -n_modes.

    The block a mode reads does not depend on the cutoff, so enlarging
    n_modes leaves the shared modes' noise unchanged."""
    positive = np.arange(1, n_modes + 1)
    order = np.zeros(2 * n_modes + 1, dtype=positive.dtype)
    order[1::2] = positive
    order[2::2] = -positive
    return order


def basis_matrix(n_modes: int, x: np.ndarray) -> np.ndarray:
    """Rows are basis functions in canonical mode order, evaluated at x."""
    return np.stack([basis_eval(n, x) for n in _mode_order(n_modes)])


def _ou_integral(a, h: float) -> np.ndarray:
    """int_0^h exp(-a*r) dr per rate a: (1 - exp(-a*h))/a, and h where a = 0."""
    a = np.asarray(a, dtype=float)
    out = np.full(a.shape, h)
    pos = a != 0.0
    out[pos] = -np.expm1(-a[pos] * h) / a[pos]
    return out


def _ou_sd(lam, h: float) -> np.ndarray:
    """Standard deviation of the exact OU transition over a step h, per
    rate: sqrt((1 - exp(-2*lam*h))/(2*lam)), and sqrt(h) where lam = 0."""
    return np.sqrt(_ou_integral(2.0 * lam, h))


def _ou_paths(decay, paths: np.ndarray) -> np.ndarray:
    """Run c_{j+1} = decay*c_j + drive_j in place and return paths: on
    entry paths[0] holds c_0 and paths[j + 1] drive_j, on return paths[j]
    holds c_j.  decay broadcasts over a row, so one call steps every
    component.  A step is paths[j + 1] += paths[j] * decay, one multiply
    and one add per value: the bits of decay*c_j + drive_j, as IEEE + and
    * commute."""
    for j in range(paths.shape[0] - 1):
        paths[j + 1] += paths[j] * decay
    return paths


# Each thread's one stream Generator (_philox).
_streams = threading.local()


def _philox(seed: int, replica: int, component: int) -> np.random.Generator:
    """The stream of (seed, replica, component): Philox keyed (seed,
    replica << 8 | component) at counter 0.

    The calling thread's one Generator is returned, its bit generator's
    state reset to that key, counter 0, an empty buffer and no spare
    32-bit half: the draws of a fresh np.random.Philox(key=...), without
    the OS entropy each such construction reads (through the SeedSequence
    it makes when no seed is given) and the key then overrides.  A stream
    is therefore only valid until the thread's next _philox call: draw it
    first, as _simulate_coefficients does, one component after another."""
    key = np.array(
        [np.uint64(seed), np.uint64(replica) << np.uint64(8) | np.uint64(component)],
        dtype=np.uint64,
    )
    gen = getattr(_streams, "gen", None)
    if gen is None:
        # A fixed seed reads no OS entropy; the state below replaces it.
        gen = _streams.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True)
class _SynthesisPlan:
    """The constants of the synthesis on one grid, shared by every replica
    and component (_synthesis_plan); every array is read-only.

    order, decay and sd are per mode in canonical order: the mode, and
    the exact transition's decay and deviation over one time step.  bins
    and weight fold modes 1..n_modes onto the inverse real FFT's bins (see
    _synthesize), block modes at a time: mode k's bin is bins[k - 1], and
    weight[2k - 2], weight[2k - 1] are its cosine and sine weights, in the
    (real, imaginary) order of a complex bin.
    """

    order: np.ndarray
    decay: np.ndarray
    sd: np.ndarray
    bins: np.ndarray
    weight: np.ndarray
    block: int


@functools.lru_cache(maxsize=8)
def _synthesis_plan(
    n_modes: int, n_time: int, time_horizon: float, grid_level: int
) -> _SynthesisPlan:
    """The plan of one grid, built once and cached: a study samples every
    replica and component on the same grid.  Read-only, so no caller can
    change what the next one reads."""
    order = _mode_order(n_modes)
    delta = time_horizon / n_time
    lam = mode_rate(order)
    decay = np.exp(-lam * delta)
    sd = _ou_sd(lam, delta)
    n = 2**grid_level
    r = np.arange(1, n_modes + 1) % n
    bins = np.minimum(r, n - r)
    real = (bins == 0) | (2 * bins == n)
    weight = np.empty(2 * n_modes)
    weight[0::2] = np.where(real, np.sqrt(2.0), np.sqrt(0.5))
    weight[1::2] = np.where(real, 0.0, np.where(r > bins, np.sqrt(0.5), -np.sqrt(0.5)))
    arrays = (order, decay, sd, bins, weight)
    for array in arrays:
        array.flags.writeable = False
    # Modes (j*n/2, (j+1)*n/2] fold onto distinct bins.
    return _SynthesisPlan(*arrays, block=max(n // 2, 1))


def _simulate_coefficients(
    config: SpectralConfig, replica: int, *, steps: int | None = None
) -> np.ndarray:
    """Exact OU paths of every component's mode coefficients over the
    first `steps` time steps (all n_time by default); shape (steps + 1,
    dim, 2*n_modes + 1).  Every component's stream is drawn whole into one
    buffer for any steps, so a shorter run is a prefix of the full one,
    bit for bit; the drive sd*xi is written time-major, and one in-place
    recursion steps all components."""
    plan = _synthesis_plan(
        config.n_modes, config.n_time, config.time_horizon, config.grid_level
    )
    steps = config.n_time if steps is None else steps
    xi = np.empty((config.dim, plan.order.shape[0], config.n_time))
    for component in range(config.dim):
        _philox(config.seed, replica, component).standard_normal(out=xi[component])
    paths = np.empty((steps + 1,) + xi.shape[:2])
    paths[0] = 0.0
    np.multiply(xi[..., :steps].transpose(2, 0, 1), plan.sd, out=paths[1:])
    return _ou_paths(plan.decay, paths)


def _synthesize(
    config: SpectralConfig, replica: int, t_index: int | None = None
) -> np.ndarray:
    """Field values at every time, (n_time + 1, n_nodes, dim), or at time
    row t_index alone, (1, n_nodes, dim).

    The mode sum at the nodes j/n, n = 2**grid_level, is one inverse real
    FFT per row, one call per component.  The constant mode fills bin 0;
    mode k's cosine and sine coefficients a_k, b_k enter bin r = k mod n
    as (a_k - i*b_k)/sqrt(2), or bin n - r with the sine's sign flipped
    when r > n/2.  On bins 0 and n/2 the cosine enters once as
    sqrt(2)*a_k and the sine, zero at every node, gets weight 0 (the
    transform reads only the real part of these bins).  Modes
    1..min(n_modes, n/2) land on bins 1, 2, ... in order, so one multiply
    by the plan's interleaved weights writes them straight into the
    spectrum's (real, imaginary) pairs.  Only folded grids have more
    modes: their weighted pairs are added one block of n/2 modes at a
    time, each block onto distinct bins by one fancy-indexed +=, so every
    bin sums its modes in mode order.  One row runs the OU recursion up to
    t_index and folds and transforms that row only; every step is
    elementwise in the rows, so it has the bits of that row of the full
    field.  The field and the longest run's coefficients are checked
    against _MAX_FIELD_ENTRIES before either is built.
    """
    if not 0 <= replica < 2**56:
        raise ParameterError(f"0 <= replica < 2^56 violated: replica={replica}")
    if t_index is None:
        steps, n_rows = config.n_time, config.n_time + 1
    elif 0 <= t_index <= config.n_time:
        steps, n_rows = t_index, 1
    else:
        raise ParameterError(
            f"0 <= t_index <= n_time violated: t_index={t_index}, "
            f"n_time={config.n_time}"
        )
    _check_entries("field", n_rows * config.n_nodes * config.dim, "shrink the grid")
    # The coefficient paths of the longest run, checked before the plan's
    # per-mode arrays are built.
    coefficients = (config.n_time + 1) * config.dim * (2 * config.n_modes + 1)
    if coefficients > _MAX_FIELD_ENTRIES:
        raise GridTooLargeError(
            f"n_modes={config.n_modes} needs {coefficients} mode coefficients "
            f"(guard is {_MAX_FIELD_ENTRIES}); lower n_modes"
        )
    plan = _synthesis_plan(
        config.n_modes, config.n_time, config.time_horizon, config.grid_level
    )
    n = 2**config.grid_level
    first = min(config.n_modes, n // 2)
    coeffs = _simulate_coefficients(config, replica, steps=steps)[-n_rows:]
    # One spectrum serves every component: bins 0..first are rewritten
    # for each, and the bins past the last mode stay zero.
    spectrum = np.zeros((n_rows, n // 2 + 1), dtype=complex)
    pairs = spectrum.view(float)[:, 2 : 2 * first + 2]
    values = np.empty((n_rows, config.n_nodes, config.dim))
    for component in range(config.dim):
        c = coeffs[:, component]
        spectrum[:, 0] = c[:, 0]
        np.multiply(c[:, 1 : 2 * first + 1], plan.weight[: 2 * first], out=pairs)
        if first < config.n_modes:
            terms = (c[:, 2 * first + 1 :] * plan.weight[2 * first :]).view(complex)
            for lo in range(0, config.n_modes - first, plan.block):
                bins = plan.bins[first + lo : first + lo + plan.block]
                spectrum[:, bins] += terms[:, lo : lo + plan.block]
        values[:, :n, component] = np.fft.irfft(spectrum, n=n, norm="forward")
    values[:, n] = values[:, 0]
    return values


def sample_field(config: SpectralConfig, replica: int = 0) -> FieldSample:
    """Simulate one field realization; components are independent.  See
    _synthesize for the projection."""
    values = _synthesize(config, replica)
    return FieldSample(values=values, config=config, replica=replica)


def sample_row(config: SpectralConfig, replica: int, t_index: int) -> np.ndarray:
    """Time row t_index of sample_field(config, replica).values, shape
    (n_nodes, dim), bit for bit, without synthesizing the other rows."""
    return _synthesize(config, replica, t_index)[0]


def _node_factor(n_modes: int, t: float, nodes) -> np.ndarray:
    """R, shape (r, len(nodes)), with R^T R = basis^T diag(sd^2) basis: the
    node covariance at time t under the cutoff n_modes, sd = _ou_sd(lam, t).

    R is the reduced QR factor of diag(sd) basis over the distinct nodes,
    gathered back to the given order, so r = min(2*n_modes + 1, distinct
    nodes) and repeated nodes get bitwise-equal columns.
    """
    distinct, inverse = np.unique(np.asarray(nodes, dtype=float), return_inverse=True)
    scale = _ou_sd(mode_rate(_mode_order(n_modes)), t)
    factor = np.linalg.qr(scale[:, None] * basis_matrix(n_modes, distinct), mode="r")
    return factor[:, inverse]


def _check_marginal(n_modes: int, replicas: int, nodes: int, dim: int, lifted: bool = False):
    """The guard of a batch of slice marginals, before any array is built:
    its basis, (2*n_modes + 1) * nodes values, its draws, replicas * nodes
    * dim, and when lifted its level-2 lift, replicas * nodes * 4."""
    remedy = "lower the nodes, replicas or n_modes"
    _check_entries("the slice marginal's basis", (2 * n_modes + 1) * nodes, remedy)
    _check_entries("the slice marginal's draws", replicas * nodes * dim, remedy)
    if lifted:
        _check_entries("the slice marginal's level-2 lift", replicas * nodes * 4, remedy)


def sample_slice_marginal(
    config: SpectralConfig,
    t: float,
    n_replicas: int,
    rng: np.random.Generator,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Draw psi(t, .) at a single time for many replicas at once.

    The fixed-time marginal at the nodes is centered Gaussian with the
    truncated covariance R^T R of _node_factor, so no time stepping is
    needed: psi = xi R with r standard normals xi per replica and
    component.  The r rank-one terms are added in row order, elementwise,
    so the bits do not depend on the BLAS and every replica's row is the
    same at any chunking; repeated nodes get equal values.  The projection
    costs about r*len(nodes)/2 multiply-adds per replica, against the
    draw's r normals.  Returns shape (n_replicas, len(nodes), dim).
    This batch entry point draws from the supplied generator, component
    by component and chunk by chunk, rather than the per-replica streams
    of sample_field.  _check_marginal guards its arrays.
    """
    if not 0 < t < np.inf:
        raise ParameterError(f"0 < t < inf violated: t={t!r}")
    n_nodes = config.n_nodes if nodes is None else len(nodes)
    _check_marginal(config.n_modes, n_replicas, n_nodes, config.dim)
    if nodes is None:
        nodes = config.nodes()
    # Over sorted distinct nodes R is upper trapezoidal: row i is zero left
    # of column i, so those terms are skipped.  Node-major rows keep each
    # term one contiguous outer product.
    distinct, inverse = np.unique(np.asarray(nodes, dtype=float), return_inverse=True)
    factor = _node_factor(config.n_modes, t, distinct)
    chunk = max(1, min(_MARGINAL_CHUNK, _MARGINAL_BLOCK_ENTRIES // distinct.size))
    out = np.empty((n_replicas, inverse.size, config.dim))
    for component in range(config.dim):
        for lo in range(0, n_replicas, chunk):
            hi = min(lo + chunk, n_replicas)
            xi = rng.standard_normal((hi - lo, factor.shape[0])).T.copy()
            psi = np.multiply.outer(factor[0], xi[0])
            for i in range(1, factor.shape[0]):
                psi[i:] += np.multiply.outer(factor[i, i:], xi[i])
            out[lo:hi, :, component] = psi[inverse].T
    return out


def truncation_residual(n_modes: int, t: float) -> float:
    """Pointwise variance omitted by the cutoff: sum over |n| > N of
    (1 - exp(-2*lam_n*t))/(2*lam_n).

    Read from the Fourier route of the covariance oracle as the full
    variance at (t, 0) less its truncation to |n| <= N, so its error is a
    rounding of those variances, near t + 1/12: under an ulp of t + 1 as
    measured against mpmath.  Independent of x by translation invariance,
    decreasing in N, and bounded by 1/(4*pi^2*N) uniformly in t.
    """
    if n_modes < 0:
        raise ParameterError(f"n_modes >= 0 violated: n_modes={n_modes}")
    if not 0 <= t < np.inf:
        raise ParameterError(f"0 <= t < inf violated: t={t!r}")
    full = cov(t, 0.0, t, 0.0, method="fourier")
    return full - cov(t, 0.0, t, 0.0, method="fourier", n_modes=n_modes)


def _field_layout(n_modes, n_time, k, dim, *_):
    shape = (n_time + 1, 2**k + 1, dim)
    return (shape,), f"a {shape} field"


def save_field(sample: FieldSample, path: str):
    """Write a field cache: n_modes, n_time, grid level, dim, seed, replica
    and time horizon, then the values."""
    cfg = sample.config
    header = (cfg.n_modes, cfg.n_time, cfg.grid_level, cfg.dim, cfg.seed,
              sample.replica, cfg.time_horizon)
    _write_cache(path, _FIELD_MAGIC, _FIELD_HEADER, header, (sample.values,))


def load_field(path: str) -> FieldSample:
    """Read a save_field cache.  A file that is not one, or whose length
    does not match its header (truncated, or with trailing bytes), raises
    ValueError."""
    (n_modes, n_time, k, dim, seed, replica, horizon), (values,) = _read_cache(
        path, _FIELD_MAGIC, "field", _FIELD_HEADER, _field_layout
    )
    cfg = SpectralConfig(n_modes=n_modes, time_horizon=horizon, n_time=n_time,
                         grid_level=k, dim=dim, seed=seed)
    return FieldSample(values=values, config=cfg, replica=replica)

