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

sample_field projects the coefficients onto the trigonometric basis
evaluated at the grid nodes.  That matrix depends only on (n_modes,
grid_level), so each process keeps one read-only copy of it for the most
recent such pair: (2*n_modes + 1) * (2**grid_level + 1) * 8 bytes,
4.2 MB at the command-line defaults.  A different pair replaces it.  The
copy is built by basis_matrix and used unchanged, so outputs do not
depend on it.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

_FIELD_MAGIC = b"HLFIELD1"

# Refuse allocations beyond this many float64 entries instead of dying
# with an opaque MemoryError mid-simulation.
_MAX_FIELD_ENTRIES = 1 << 28

# Most replicas sample_slice_marginal draws and projects at once:
# 4096 x 513 normals are 16.8 MB at the default cutoff.
_MARGINAL_CHUNK = 4096


class GridTooLargeError(RuntimeError):
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
            raise ValueError("n_modes must be >= 1")
        if self.n_time < 1 or self.time_horizon <= 0:
            raise ValueError("need n_time >= 1 and time_horizon > 0")
        if not 1 <= self.dim <= 256:
            raise ValueError(f"1 <= dim <= 256 violated: dim={self.dim}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"0 <= seed < 2^64 violated: seed={self.seed}")

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


_basis_lock = threading.Lock()
_basis_entry: tuple[tuple[int, int], np.ndarray] | None = None


def _grid_basis(config: SpectralConfig) -> np.ndarray:
    """basis_matrix(n_modes, nodes()), cached for the last (n_modes, grid_level)."""
    global _basis_entry
    key = (config.n_modes, config.grid_level)
    with _basis_lock:
        if _basis_entry is None or _basis_entry[0] != key:
            basis = basis_matrix(config.n_modes, config.nodes())
            basis.flags.writeable = False
            _basis_entry = (key, basis)
        return _basis_entry[1]


def ou_step(lam: float, delta: float, prev, xi) -> np.ndarray:
    """One exact Ornstein-Uhlenbeck transition over a step of length delta.

    Returns exp(-lam*delta)*prev + xi*sqrt((1 - exp(-2*lam*delta))/(2*lam)),
    with the lam -> 0 limit prev + xi*sqrt(delta) (Brownian motion).  Being
    the exact transition kernel, grid marginals are unbiased for any delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    prev = np.asarray(prev, dtype=float)
    xi = np.asarray(xi, dtype=float)
    return np.exp(-lam * delta) * prev + xi * _ou_sd(lam, delta)


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
    config: SpectralConfig, replica: int, component: int
) -> np.ndarray:
    """Exact OU paths of all mode coefficients; shape (n_time+1, n_rows)."""
    order = np.array(_mode_order(config.n_modes))
    n_rows = order.shape[0]
    gen = _philox(config.seed, replica, component)
    xi = gen.standard_normal(n_rows * config.n_time).reshape(n_rows, config.n_time)

    delta = config.time_horizon / config.n_time
    lam = mode_rate(order)
    decay = np.exp(-lam * delta)
    sd = _ou_sd(lam, delta)

    return _ou_paths(decay, (sd[:, None] * xi).T)


def sample_field(config: SpectralConfig, replica: int = 0) -> FieldSample:
    """Simulate one field realization; components are independent."""
    if not 0 <= replica < 2**56:
        raise ValueError(f"0 <= replica < 2^56 violated: replica={replica}")
    entries = (config.n_time + 1) * config.n_nodes * config.dim
    if entries > _MAX_FIELD_ENTRIES:
        raise GridTooLargeError(
            f"field would hold {entries} values "
            f"(guard is {_MAX_FIELD_ENTRIES}); shrink the grid"
        )
    basis = _grid_basis(config)
    values = np.empty((config.n_time + 1, config.n_nodes, config.dim))
    for component in range(config.dim):
        coeffs = _simulate_coefficients(config, replica, component)
        values[:, :, component] = coeffs @ basis
    return FieldSample(values=values, config=config, replica=replica)


def sample_slice_marginal(
    config: SpectralConfig,
    t: float,
    n_replicas: int,
    rng: np.random.Generator,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Draw psi(t, .) at a single time for many replicas at once.

    The fixed-time marginal of mode n is centered Gaussian with variance
    (1 - exp(-2*lam*t))/(2*lam) (t for n = 0), so no time stepping is
    needed.  Returns shape (n_replicas, len(nodes), dim).  This batch
    entry point draws from the supplied generator rather than the
    per-replica streams of sample_field.
    """
    if t <= 0:
        raise ValueError("need t > 0 for a nondegenerate marginal")
    if nodes is None:
        nodes = config.nodes()
    scale = _ou_sd(mode_rate(_mode_order(config.n_modes)), t)
    basis = basis_matrix(config.n_modes, np.asarray(nodes, dtype=float))
    out = np.empty((n_replicas, basis.shape[1], config.dim))
    # Equal chunks read the generator in the order of one block draw.  No
    # chunk is below half of _MARGINAL_CHUNK, which keeps every GEMM off
    # the BLAS small-matrix path: with OpenBLAS the rows then equal one
    # block product's up to 129 nodes (from 257 nodes a chunk's last
    # rows can differ in the last bit of the last column).
    n_chunks = max(1, -(-n_replicas // _MARGINAL_CHUNK))
    bounds = [n_replicas * i // n_chunks for i in range(n_chunks + 1)]
    for component in range(config.dim):
        for lo, hi in zip(bounds, bounds[1:]):
            coeffs = rng.standard_normal((hi - lo, scale.shape[0]))
            coeffs *= scale
            out[lo:hi, :, component] = coeffs @ basis
    return out


def truncation_residual(n_modes: int, t: float) -> float:
    """Pointwise variance omitted by the cutoff: sum over |n| > N of
    (1 - exp(-2*lam_n*t))/(2*lam_n).

    Independent of x by translation invariance, decreasing in N, and
    bounded by 1/(4*pi^2*N) uniformly in t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    # sum_{n>N} 1/lam_n is the trigamma tail; the exponential part decays
    # like a Gaussian in n, so direct summation terminates quickly.
    tail = float(polygamma(1, n_modes + 1)) / (4.0 * np.pi**2)
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

