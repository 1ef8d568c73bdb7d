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
recursion c_{j+1} = decay*c_j + drive_j, driven by sd*xi here and by
gain*f in ldp.cameron_martin_path.

Randomness is counter-based: one Philox stream per (seed, replica,
component), with each mode reading a fixed block of that stream (blocks
ordered 0, +1, -1, +2, -2, ...).  Replicas are therefore reproducible
independently and in parallel.  The key packs replica << 8 | component
into one uint64, so streams stay distinct only for dim <= 256 and
replicas below 2^56.

sample_field evaluates the mode sum at the dyadic nodes by one inverse
real FFT per component, with modes past the Nyquist frequency folded
onto their aliases.  sample_row is the same synthesis (_synthesize) for
one time row: it draws the same streams, runs the OU recursion only up
to that time and folds and transforms that row alone, with the bits of
that row of sample_field.  sample_slice_marginal draws through _node_factor,
a thin factor of the truncated node covariance at one time, and forms
its rank-one terms elementwise.  Neither projection calls the BLAS, so
their bits do not depend on the BLAS or its thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
# Loaded here, at start-up, so that the first sample pays no lazy import.
import numpy.fft
import numpy.random

from .errors import ParameterError
from .special import trigamma

_FIELD_MAGIC = b"HLFIELD1"

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


@dataclass(frozen=True)
class SpectralConfig:
    """Simulation grid and mode cutoff.

    Modes |n| <= n_modes are simulated; the omitted pointwise variance is
    truncation_residual(n_modes, t).
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


def _mode_order(n_modes: int) -> list[int]:
    # Canonical stream order: 0, 1, -1, 2, -2, ...  The block a mode reads
    # does not depend on the cutoff, so enlarging n_modes leaves the
    # shared modes' noise unchanged.
    order = [0]
    for n in range(1, n_modes + 1):
        order.extend((n, -n))
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


def _ou_paths(decay, drive: np.ndarray) -> np.ndarray:
    """Paths c_0 = 0, c_{j+1} = decay*c_j + drive[j]; drive has one row
    per time step, the result one more."""
    drive = np.asarray(drive, dtype=float)
    paths = np.zeros((drive.shape[0] + 1,) + drive.shape[1:])
    for j, step in enumerate(drive):
        paths[j + 1] = decay * paths[j] + step
    return paths


def _philox(seed: int, replica: int, component: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed), np.uint64(replica) << np.uint64(8) | np.uint64(component)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_coefficients(
    config: SpectralConfig, replica: int, component: int, steps: int | None = None
) -> np.ndarray:
    """Exact OU paths of all mode coefficients over the first `steps` time
    steps (all n_time by default); shape (steps + 1, n_rows).  The whole
    stream is drawn for any steps, so a shorter run is a prefix of the
    full one, bit for bit."""
    order = np.array(_mode_order(config.n_modes))
    n_rows = order.shape[0]
    gen = _philox(config.seed, replica, component)
    xi = gen.standard_normal(n_rows * config.n_time).reshape(n_rows, config.n_time)

    delta = config.time_horizon / config.n_time
    lam = mode_rate(order)
    decay = np.exp(-lam * delta)
    sd = _ou_sd(lam, delta)

    return _ou_paths(decay, (sd[:, None] * xi[:, :steps]).T)


def _synthesize(
    config: SpectralConfig, replica: int, t_index: int | None = None
) -> np.ndarray:
    """Field values at every time, (n_time + 1, n_nodes, dim), or at time
    row t_index alone, (1, n_nodes, dim).

    The mode sum at the nodes j/n, n = 2**grid_level, is one inverse real
    FFT per row.  The constant mode fills bin 0; mode k's cosine and sine
    coefficients a_k, b_k enter bin r = k mod n as (a_k - i*b_k)/sqrt(2),
    or bin n - r with the sine's sign flipped when r > n/2.  On bins 0 and
    n/2 the cosine enters once as sqrt(2)*a_k and the sine, zero at every
    node, drops.  Folded modes add up in their bin.  One row runs the OU
    recursion up to t_index and folds and transforms that row only; every
    step is elementwise in the rows, so it has the bits of that row of the
    full field.
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
    entries = n_rows * config.n_nodes * config.dim
    if entries > _MAX_FIELD_ENTRIES:
        raise GridTooLargeError(
            f"field would hold {entries} values "
            f"(guard is {_MAX_FIELD_ENTRIES}); shrink the grid"
        )
    n = 2**config.grid_level
    r = np.arange(1, config.n_modes + 1) % n
    bins = np.minimum(r, n - r)
    real = (bins == 0) | (2 * bins == n)
    cos_weight = np.where(real, np.sqrt(2.0), np.sqrt(0.5))
    sin_weight = np.where(real, 0.0, np.where(r > bins, np.sqrt(0.5), -np.sqrt(0.5)))
    # Modes (j*n/2, (j+1)*n/2] fold onto distinct bins, so each block adds
    # by one fancy-indexed +=; blocks run in mode order, so every bin sums
    # its modes in mode order.
    block = max(n // 2, 1)
    values = np.empty((n_rows, config.n_nodes, config.dim))
    for component in range(config.dim):
        coeffs = _simulate_coefficients(config, replica, component, steps)[-n_rows:]
        spectrum = np.zeros((n_rows, n // 2 + 1), dtype=complex)
        spectrum[:, 0] = coeffs[:, 0]
        terms = coeffs[:, 1::2] * cos_weight + 1j * (coeffs[:, 2::2] * sin_weight)
        for lo in range(0, config.n_modes, block):
            spectrum[:, bins[lo : lo + block]] += terms[:, lo : lo + block]
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
    of sample_field.
    """
    if not 0 < t < np.inf:
        raise ParameterError(f"0 < t < inf violated: t={t!r}")
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

    Independent of x by translation invariance, decreasing in N, and
    bounded by 1/(4*pi^2*N) uniformly in t.
    """
    if n_modes < 0:
        raise ParameterError(f"n_modes >= 0 violated: n_modes={n_modes}")
    if not 0 <= t < np.inf:
        raise ParameterError(f"0 <= t < inf violated: t={t!r}")
    if t == 0.0:
        return 0.0
    # sum_{n>N} 1/lam_n is the trigamma tail; the exponential part decays
    # like a Gaussian in n, so direct summation terminates quickly.
    tail = trigamma(n_modes + 1) / (4.0 * np.pi**2)
    n = np.arange(n_modes + 1, n_modes + 2000)
    lam = mode_rate(n)
    exp_part = float(np.sum(np.exp(-2.0 * lam * t) / lam))
    return tail - exp_part


def save_field(sample: FieldSample, path: str):
    """Binary cache: header then little-endian float64 values (C order)."""
    cfg = sample.config
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(
            struct.pack(
                "<qqqqqq",
                cfg.n_modes,
                cfg.n_time,
                cfg.grid_level,
                cfg.dim,
                cfg.seed,
                sample.replica,
            )
        )
        fh.write(struct.pack("<d", cfg.time_horizon))
        fh.write(np.ascontiguousarray(sample.values, dtype="<f8").tobytes())


def load_field(path: str) -> FieldSample:
    with open(path, "rb") as fh:
        if fh.read(len(_FIELD_MAGIC)) != _FIELD_MAGIC:
            raise ValueError("not a heatlift field cache")
        n_modes, n_time, k, dim, seed, replica = struct.unpack("<qqqqqq", fh.read(48))
        (horizon,) = struct.unpack("<d", fh.read(8))
        cfg = SpectralConfig(
            n_modes=n_modes,
            time_horizon=horizon,
            n_time=n_time,
            grid_level=k,
            dim=dim,
            seed=seed,
        )
        count = (n_time + 1) * cfg.n_nodes * dim
        values = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(
            n_time + 1, cfg.n_nodes, dim
        )
        return FieldSample(values=values.astype(float), config=cfg, replica=replica)

