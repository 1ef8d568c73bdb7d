import dataclasses
import functools
import hashlib
import operator
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import heatlift.sampler as sampler_module
from heatlift.covariance import cov
from heatlift.dyadic import lift_level
from heatlift.errors import ParameterError
from heatlift.sampler import (
    FieldSample,
    GridTooLargeError,
    SpectralConfig,
    _mode_order,
    _node_factor,
    _ou_integral,
    _ou_paths,
    _ou_sd,
    _philox,
    _simulate_coefficients,
    _synthesis_plan,
    basis_eval,
    basis_matrix,
    load_field,
    mode_rate,
    sample_field,
    sample_row,
    sample_slice_marginal,
    save_field,
    truncation_residual,
)
from heatlift.sheets import save_sheet


class TestBasis:
    def test_constant_mode(self):
        assert basis_eval(0, 0.37) == 1.0

    def test_cosine_at_zero(self):
        assert basis_eval(1, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_sine_mode(self):
        assert basis_eval(-1, 0.25) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_orthonormality_on_grid(self):
        K = 10
        x = np.arange(2**K) / 2**K  # one period, no duplicate endpoint
        w = 1.0 / 2**K
        for n in range(-8, 9):
            for m_ in range(n, 9):
                inner = float(np.sum(basis_eval(n, x) * basis_eval(m_, x)) * w)
                target = 1.0 if n == m_ else 0.0
                assert abs(inner - target) <= 2.0 ** (-K)

    def test_mode_order_is_canonical(self):
        for n_modes in (1, 2, 7):
            order = _mode_order(n_modes)
            expected = [0] + [s * n for n in range(1, n_modes + 1) for s in (1, -1)]
            assert order.dtype.kind == "i"
            assert order.tolist() == expected


class TestOuStep:
    """One exact OU step is one _ou_paths step driven by _ou_sd * xi."""

    @staticmethod
    def step(lam, delta, prev, xi):
        # c_0 = prev, then c_1 = exp(-lam*delta)*prev + sd*xi.
        paths = np.array([prev, _ou_sd(lam, delta) * xi], dtype=float)
        return _ou_paths(np.exp(-lam * delta), paths)[1]

    def test_brownian_limit(self):
        assert self.step(0.0, 0.25, 0.0, 1.0) == 0.5

    def test_deterministic_decay(self):
        lam, delta, prev = 2.0, 0.3, 1.7
        assert self.step(lam, delta, prev, 0.0) == pytest.approx(
            np.exp(-lam * delta) * prev, rel=1e-15
        )

    def test_negative_delta_rejected(self):
        # The sampler's step is time_horizon / n_time.
        with pytest.raises(ParameterError):
            SpectralConfig(time_horizon=-0.1)

    def test_one_step_variance_is_exact_transition(self):
        lam, delta = 3.0, 0.2
        shock = self.step(lam, delta, 0.0, 1.0)
        assert shock**2 == pytest.approx(
            (1.0 - np.exp(-2.0 * lam * delta)) / (2.0 * lam), rel=1e-12
        )

    def test_stationary_variance(self):
        # lam=1, delta=0.1 over 1e5 steps; the chain variance approaches
        # 1/(2*lam) = 0.5.  The effective sample size under lag-rho^2
        # autocorrelation of the squares gives SE ~ 0.0071.
        rng = np.random.default_rng(123)
        lam, delta = 1.0, 0.1
        n_steps = 100_000
        xi = rng.standard_normal(n_steps)
        decay = np.exp(-lam * delta)
        paths = np.concatenate([[0.0], _ou_sd(lam, delta) * xi])
        samples = _ou_paths(decay, paths)[1:]
        burn = 100
        var = samples[burn:].var()
        rho2 = decay**2
        ess = (n_steps - burn) * (1.0 - rho2) / (1.0 + rho2)
        se = 0.5 * np.sqrt(2.0 / ess)
        assert abs(var - 0.5) <= 3.0 * se


def separate_ou_step(lam, delta, prev, xi):
    """Reference: the exact transition with its own lam = 0 branch."""
    prev = np.asarray(prev, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if lam == 0.0:
        return prev + xi * np.sqrt(delta)
    sd = np.sqrt(-np.expm1(-2.0 * lam * delta) / (2.0 * lam))
    return np.exp(-lam * delta) * prev + xi * sd


def separate_step_sd(lam, delta):
    """Reference: the step deviation, masked by lam == 0."""
    sd = np.empty(lam.shape[0])
    zero = lam == 0.0
    sd[zero] = np.sqrt(delta)
    sd[~zero] = np.sqrt(-np.expm1(-2.0 * lam[~zero] * delta) / (2.0 * lam[~zero]))
    return sd


def separate_marginal_scale(lam, t):
    """Reference: the fixed-time deviation, as the root of the variance."""
    var = np.empty(lam.shape[0])
    zero = lam == 0.0
    var[zero] = t
    var[~zero] = -np.expm1(-2.0 * lam[~zero] * t) / (2.0 * lam[~zero])
    return np.sqrt(var)


def separate_node_factor(n_modes, t, nodes):
    """Reference: _node_factor from the reduced QR over the sorted set of
    nodes, with its own deviation and a search for each node's column."""
    nodes = np.asarray(nodes, dtype=float)
    distinct = np.array(sorted(set(nodes.tolist())))
    scale = separate_marginal_scale(mode_rate(np.array(_mode_order(n_modes))), t)
    _, factor = np.linalg.qr(scale[:, None] * basis_matrix(n_modes, distinct))
    return factor[:, np.searchsorted(distinct, nodes)]


def separate_marginal(config, t, n_replicas, rng, nodes):
    """Reference: sample_slice_marginal as one block per component, the
    rank-one terms of xi R summed left to right."""
    factor = separate_node_factor(config.n_modes, t, nodes)
    out = np.empty((n_replicas, factor.shape[1], config.dim))
    for component in range(config.dim):
        xi = rng.standard_normal((n_replicas, factor.shape[0]))
        terms = (xi[:, [i]] * factor[i] for i in range(factor.shape[0]))
        out[:, :, component] = functools.reduce(operator.add, terms)
    return out


def separate_coefficients(config, replica, component):
    """Reference: _simulate_coefficients with its own step deviation."""
    order = np.array(_mode_order(config.n_modes))
    n_rows = order.shape[0]
    gen = _philox(config.seed, replica, component)
    xi = gen.standard_normal(n_rows * config.n_time).reshape(n_rows, config.n_time)
    delta = config.time_horizon / config.n_time
    lam = mode_rate(order)
    decay = np.exp(-lam * delta)
    sd = separate_step_sd(lam, delta)
    coeffs = np.zeros((config.n_time + 1, n_rows))
    for j in range(config.n_time):
        coeffs[j + 1] = decay * coeffs[j] + sd * xi[:, j]
    return coeffs


class TestOuIntegral:
    """One exact-OU integral and one recursion serve every caller."""

    def test_integral_limits(self):
        assert _ou_integral(0.0, 0.25) == 0.25
        a = np.array([0.0, 1e-12, 1.0, 1e4])
        got = _ou_integral(a, 0.5)
        assert got[0] == 0.5
        assert got[1] == pytest.approx(0.5, rel=1e-11)
        assert got[2] == pytest.approx(1.0 - np.exp(-0.5), rel=1e-15)
        assert got[3] == pytest.approx(1e-4, rel=1e-15)

    def test_paths_recursion(self):
        # Row 0 is c_0, rows 1.. the drives; the recursion runs in place.
        decay = np.array([1.0, 0.5])
        paths = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 5.0], [4.0, 2.5]])
        assert _ou_paths(decay, paths) is paths
        assert np.array_equal(paths, expected)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_paths_across_components_equal_per_column_runs(self, dim):
        # One run over a trailing (dim, rows) axis has the bits of the run
        # of every column alone, in full and for every prefix of steps (a
        # sample_row run), with c_0 = 0 and decays 0, 1 and in between.
        lam = mode_rate(_mode_order(20))
        decay = np.exp(-lam / 16)
        assert decay[0] == 1.0 and decay[-1] == 0.0
        rng = np.random.default_rng(dim)
        drive = rng.standard_normal((17, dim, lam.size)) * _ou_sd(lam, 1 / 16)
        drive[0] = 0.0
        full = _ou_paths(decay, drive.copy())
        for c in range(dim):
            for m in range(decay.size):
                alone = _ou_paths(decay[m], drive[:, c, m].copy())
                assert alone.tobytes() == full[:, c, m].tobytes(), (c, m)
        for steps in range(17):
            prefix = _ou_paths(decay, drive[: steps + 1].copy())
            assert prefix.tobytes() == full[: steps + 1].tobytes(), steps


class TestOuDeviation:
    """The one exact-OU deviation equals each form it replaced, bit for bit."""

    @pytest.mark.parametrize("n_modes", [16, 64, 256, 1024])
    @pytest.mark.parametrize("h", [1e-9, 1e-5, 1.0 / 128, 1.0 / 16, 0.3, 1.0])
    def test_matches_step_and_marginal_forms(self, n_modes, h):
        lam = mode_rate(_mode_order(n_modes))
        sd = _ou_sd(lam, h)
        assert lam[0] == 0.0 and sd[0] == np.sqrt(h)
        assert np.array_equal(sd, separate_step_sd(lam, h))
        assert np.array_equal(sd, separate_marginal_scale(lam, h))
        assert np.array_equal(sd, np.sqrt(_ou_integral(2.0 * lam, h)))

    def test_ou_paths_matches_separate_form(self):
        # A step from prev: c_0 = prev, c_1 = decay*prev + sd*xi.
        rng = np.random.default_rng(7)
        rates = np.concatenate([[0.0], np.geomspace(1e-6, 1e4, 49)])
        prev = rng.standard_normal(11)
        xi = rng.standard_normal(11)
        for lam in rates:
            for delta in (1.0 / 128, 0.25, 1.0):
                paths = np.stack([prev, _ou_sd(lam, delta) * xi])
                assert np.array_equal(
                    _ou_paths(np.exp(-lam * delta), paths)[1],
                    separate_ou_step(lam, delta, prev, xi),
                )

    @pytest.mark.parametrize("n_modes", [16, 64, 256])
    def test_simulate_coefficients_matches_separate_form(self, n_modes):
        cfg = SpectralConfig(n_modes=n_modes, n_time=16, grid_level=3, dim=2, seed=12)
        for replica in range(3):
            for component in range(cfg.dim):
                assert np.array_equal(
                    _simulate_coefficients(cfg, replica)[:, component],
                    separate_coefficients(cfg, replica, component),
                )

    @pytest.mark.parametrize("t", [0.05, 1.0])
    def test_slice_marginal_matches_separate_form(self, t):
        cfg = SpectralConfig(n_modes=64, grid_level=4, dim=2, seed=13)
        nodes = np.array([0.0, 0.25, 0.5])
        got = sample_slice_marginal(cfg, t, 500, np.random.default_rng(4), nodes=nodes)
        ref = separate_marginal(cfg, t, 500, np.random.default_rng(4), nodes)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_nodes", [2, 9, 129])
    @pytest.mark.parametrize("n_replicas", [4097, 12289])
    def test_chunked_marginal_matches_one_block(self, dim, n_nodes, n_replicas):
        # Both counts exceed sampler_module._MARGINAL_CHUNK, so the draw is
        # split; the one-block reference draws and projects all at once.
        assert n_replicas > sampler_module._MARGINAL_CHUNK
        cfg = SpectralConfig(n_modes=256, grid_level=4, dim=dim, seed=14)
        nodes = np.linspace(0.0, 1.0, n_nodes)
        got = sample_slice_marginal(
            cfg, 0.7, n_replicas, np.random.default_rng(n_replicas), nodes=nodes
        )
        ref = separate_marginal(
            cfg, 0.7, n_replicas, np.random.default_rng(n_replicas), nodes
        )
        assert np.array_equal(got, ref)

    def test_many_node_chunk_follows_the_byte_budget(self):
        # At 513 distinct nodes a chunk holds _MARGINAL_BLOCK_ENTRIES // 513
        # replicas, far fewer than _MARGINAL_CHUNK; three chunks per
        # component keep the bits of the one-block draw.
        chunk = sampler_module._MARGINAL_BLOCK_ENTRIES // 513
        assert chunk < sampler_module._MARGINAL_CHUNK
        cfg = SpectralConfig(n_modes=8, grid_level=4, dim=2, seed=15)
        nodes = np.arange(513) / 512
        n_replicas = 2 * chunk + 5
        draws = []

        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def standard_normal(self, shape):
                draws.append(shape)
                return self.rng.standard_normal(shape)

        got = sample_slice_marginal(cfg, 0.4, n_replicas, CountingRng(3), nodes=nodes)
        ref = separate_marginal(cfg, 0.4, n_replicas, np.random.default_rng(3), nodes)
        assert np.array_equal(got, ref)
        assert [shape[0] for shape in draws] == [chunk, chunk, 5] * cfg.dim


class TestSampleField:
    def test_initial_row_zero(self):
        cfg = SpectralConfig(n_modes=16, n_time=4, grid_level=4, dim=2, seed=1)
        sample = sample_field(cfg, 0)
        assert np.all(sample.values[0] == 0.0)

    def test_periodicity(self):
        cfg = SpectralConfig(n_modes=64, n_time=8, grid_level=6, dim=1, seed=2)
        sample = sample_field(cfg, 0)
        gap = np.max(np.abs(sample.values[:, 0, :] - sample.values[:, -1, :]))
        assert gap <= 1e-12

    def test_bit_identical_replicas(self):
        cfg = SpectralConfig(n_modes=32, n_time=8, grid_level=5, dim=2, seed=7)
        a = sample_field(cfg, 3)
        b = sample_field(cfg, 3)
        assert np.array_equal(a.values, b.values)

    def test_distinct_replicas_differ(self):
        cfg = SpectralConfig(n_modes=32, n_time=8, grid_level=5, dim=1, seed=7)
        a = sample_field(cfg, 0)
        b = sample_field(cfg, 1)
        assert not np.array_equal(a.values[1:], b.values[1:])

    def test_variance_matches_truncated_oracle(self):
        cfg = SpectralConfig(n_modes=64, n_time=8, grid_level=4, dim=1, seed=11)
        n_rep = 3000
        t_idx, x_idx = 5, 3
        vals = np.array(
            [sample_field(cfg, r).values[t_idx, x_idx, 0] for r in range(n_rep)]
        )
        t_val = cfg.times()[t_idx]
        x_val = cfg.nodes()[x_idx]
        oracle = cov(t_val, x_val, t_val, x_val, method="fourier", n_modes=64)
        emp = vals.var(ddof=1)
        se = emp * np.sqrt(2.0 / (n_rep - 1))
        assert abs(emp - oracle) <= 4.0 * se

    def test_component_independence(self):
        cfg = SpectralConfig(n_modes=32, n_time=4, grid_level=4, dim=2, seed=13)
        n_rep = 3000
        vals = np.array([sample_field(cfg, r).values for r in range(n_rep)])
        rng = np.random.default_rng(5)
        for _ in range(10):
            t1, t2 = rng.integers(1, 5, size=2)
            x1, x2 = rng.integers(0, 17, size=2)
            a = vals[:, t1, x1, 0]
            b = vals[:, t2, x2, 1]
            cross = np.mean(a * b)
            se = np.std(a * b, ddof=1) / np.sqrt(n_rep)
            assert abs(cross) <= 4.0 * se

    def test_variance_stationary_in_x(self):
        cfg = SpectralConfig(n_modes=64, n_time=5, grid_level=5, dim=1, seed=17)
        n_rep = 4000
        # 0.1875 and 0.6875 are grid nodes at K=5.
        i1, i2 = 6, 22
        vals = np.array(
            [sample_field(cfg, r).values[5, [i1, i2], 0] for r in range(n_rep)]
        )
        v1, v2 = vals[:, 0] ** 2, vals[:, 1] ** 2
        diff = np.mean(v1 - v2)
        se = np.std(v1 - v2, ddof=1) / np.sqrt(n_rep)
        assert abs(diff) <= 4.0 * se

    def test_mode_cutoff_leaves_shared_streams_unchanged(self):
        # Enlarging the cutoff must not change the noise driving the
        # modes already present (canonical block order).
        small = SpectralConfig(n_modes=8, n_time=4, grid_level=3, dim=1, seed=3)
        big = SpectralConfig(n_modes=16, n_time=4, grid_level=3, dim=1, seed=3)
        ca = _simulate_coefficients(small, 0)[:, 0]
        cb = _simulate_coefficients(big, 0)[:, 0]
        assert np.array_equal(ca, cb[:, : ca.shape[1]])

    def test_streams_equal_fresh_philox(self):
        # Each stream resets one Generator to its key at counter 0: the
        # draws of a freshly built Philox, also after the previous stream
        # left a partly used buffer and a spare 32-bit half behind.
        def fresh(seed, replica, component):
            key = [seed, replica << 8 | component]
            return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))

        keys = [(0, 0, 0), (3, 5, 1), (7, 0, 255), (2**64 - 1, 2**56 - 1, 255)]
        for seed, replica, component in keys * 2:
            gen = _philox(seed, replica, component)
            want = fresh(seed, replica, component)
            assert gen.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()
            assert gen.integers(2**32, dtype=np.uint32) == want.integers(2**32, dtype=np.uint32)
            assert gen.bit_generator.state["has_uint32"] == 1
            out, expected = np.empty(1001), np.empty(1001)
            gen.standard_normal(out=out)
            want.standard_normal(out=expected)
            assert out.tobytes() == expected.tobytes()

    def test_stream_key_bounds(self):
        # Component 256 would read replica 1's component-0 stream.
        a = _philox(0, 0, 256).standard_normal(4)
        b = _philox(0, 1, 0).standard_normal(4)
        assert np.array_equal(a, b)
        SpectralConfig(dim=256)
        with pytest.raises(ValueError, match="1 <= dim <= 256 violated"):
            SpectralConfig(dim=257)
        with pytest.raises(ValueError, match="0 <= seed < 2\\^64 violated"):
            SpectralConfig(seed=-1)
        cfg = SpectralConfig(n_modes=4, n_time=2, grid_level=2)
        for replica in (-1, 2**56):
            with pytest.raises(ValueError, match="0 <= replica < 2\\^56 violated"):
                sample_field(cfg, replica)

    def test_absurd_grid_reported(self):
        cfg = SpectralConfig(n_modes=4, n_time=2**16, grid_level=14, dim=4, seed=0)
        with pytest.raises(GridTooLargeError):
            sample_field(cfg, 0)

    def test_mode_coefficients_count_against_the_guard(self, monkeypatch):
        # 25 field values but (4 + 1) * 1 * 2001 mode coefficients: the
        # guard names n_modes before the plan or any buffer is built.
        monkeypatch.setattr(sampler_module, "_MAX_FIELD_ENTRIES", 100)
        plans_built = sampler_module._synthesis_plan.cache_info().misses
        cfg = SpectralConfig(n_modes=1000, grid_level=2, n_time=4, seed=0)
        for sample in (lambda: sample_field(cfg, 0), lambda: sample_row(cfg, 0, 2)):
            with pytest.raises(GridTooLargeError, match="n_modes=1000 needs 10005"):
                sample()
        assert sampler_module._synthesis_plan.cache_info().misses == plans_built
        # 40 values and 4 * 2 * 9 = 72 coefficients fit; at dim 3 the 60
        # values still fit, the 108 coefficients do not.
        small = SpectralConfig(n_modes=4, grid_level=2, n_time=3, dim=2, seed=0)
        assert sample_field(small, 0).values.shape == (4, 5, 2)
        with pytest.raises(GridTooLargeError, match="n_modes=4 needs 108"):
            sample_field(dataclasses.replace(small, dim=3), 0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.inf, np.nan])
    def test_time_horizon_bounds(self, horizon):
        with pytest.raises(ParameterError, match="0 < time_horizon < inf violated"):
            SpectralConfig(time_horizon=horizon)

    def test_negative_grid_level_rejected(self):
        with pytest.raises(
            ParameterError, match="grid_level >= 0 violated: grid_level=-1"
        ):
            SpectralConfig(grid_level=-1)
        SpectralConfig(grid_level=0)


def gemm_field(cfg, replica):
    basis = basis_matrix(cfg.n_modes, cfg.nodes())
    return np.stack(
        [_simulate_coefficients(cfg, replica)[:, c] @ basis for c in range(cfg.dim)],
        axis=-1,
    )


def add_at_field(cfg, replica):
    """sample_field with the modes folded onto their bins by np.add.at."""
    n = 2**cfg.grid_level
    r = np.arange(1, cfg.n_modes + 1) % n
    bins = np.minimum(r, n - r)
    real = (bins == 0) | (2 * bins == n)
    cos_weight = np.where(real, np.sqrt(2.0), np.sqrt(0.5))
    sin_weight = np.where(real, 0.0, np.where(r > bins, np.sqrt(0.5), -np.sqrt(0.5)))
    values = np.empty((cfg.n_time + 1, cfg.n_nodes, cfg.dim))
    for component in range(cfg.dim):
        coeffs = _simulate_coefficients(cfg, replica)[:, component]
        spectrum = np.zeros((cfg.n_time + 1, n // 2 + 1), dtype=complex)
        spectrum[:, 0] = coeffs[:, 0]
        terms = coeffs[:, 1::2] * cos_weight + 1j * (coeffs[:, 2::2] * sin_weight)
        np.add.at(spectrum, (slice(None), bins), terms)
        values[:, :n, component] = np.fft.irfft(spectrum, n=n, norm="forward")
    values[:, n] = values[:, 0]
    return values


class TestFieldSynthesis:
    # (n_modes, grid_level) in each aliasing regime, with N = 2^K.
    GRIDS = (
        (5, 4), (24, 6), (1, 2),  # n_modes < N/2
        (256, 9), (8, 4), (2, 2), (1, 1),  # n_modes = N/2, the Nyquist bin
        (5, 3), (12, 4), (3, 2),  # N/2 < n_modes < N: the sine flips
        (16, 4), (5, 2), (40, 4), (3, 0), (33, 5),  # n_modes >= N: wraps
    )
    CONFIGS = (
        SpectralConfig(n_modes=16, n_time=4, grid_level=4, dim=2, seed=31),
        SpectralConfig(n_modes=24, n_time=3, grid_level=5, dim=3, seed=32),
        SpectralConfig(n_modes=16, n_time=4, grid_level=6, dim=1, seed=33),
    )

    def test_matches_gemm_projection(self):
        for n_modes, grid_level in self.GRIDS:
            cfg = SpectralConfig(
                n_modes=n_modes, n_time=3, grid_level=grid_level, dim=2, seed=30
            )
            for r in range(2):
                reference = gemm_field(cfg, r)
                error = np.max(np.abs(sample_field(cfg, r).values - reference))
                assert error <= 1e-13 * np.max(np.abs(reference)), (cfg, r)

    def test_block_fold_equals_add_at(self):
        # The first n/2 modes are written straight into their bins and each
        # later block of n/2 modes folds onto distinct bins, in mode order:
        # the same sums, in the same order, as one np.add.at, at every dim
        # (all components are stepped and folded together).
        for n_modes, grid_level in self.GRIDS:
            for dim in (1, 2, 3):
                cfg = SpectralConfig(
                    n_modes=n_modes, n_time=3, grid_level=grid_level, dim=dim, seed=30
                )
                for r in range(2):
                    values = sample_field(cfg, r).values
                    reference = add_at_field(cfg, r)
                    assert np.array_equal(values, reference), (cfg, r)
                    assert np.array_equal(np.signbit(values), np.signbit(reference))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_row_alone_equals_field_row(self, dim):
        # One row runs the recursion to its time and transforms only that
        # row; it must have the bits of that row of the full field.
        for n_modes, grid_level in self.GRIDS:
            cfg = SpectralConfig(
                n_modes=n_modes, n_time=3, grid_level=grid_level, dim=dim, seed=30
            )
            for r in range(2):
                values = sample_field(cfg, r).values
                for t_index in range(cfg.n_time + 1):
                    row = sample_row(cfg, r, t_index)
                    assert row.shape == (cfg.n_nodes, dim)
                    assert row.tobytes() == values[t_index].tobytes(), (cfg, r, t_index)

    def test_row_index_checked(self):
        cfg = SpectralConfig(n_modes=4, n_time=3, grid_level=3, dim=1)
        for t_index in (-1, 4):
            with pytest.raises(ValueError, match="t_index <= n_time"):
                sample_row(cfg, 0, t_index)
        with pytest.raises(ValueError, match="replica"):
            sample_row(cfg, -1, 0)

    def test_threads_interleaving_keys(self):
        expected = {
            (i, r): sample_field(cfg, r).values
            for i, cfg in enumerate(self.CONFIGS)
            for r in range(4)
        }

        def check(item):
            i, r = item
            values = sample_field(self.CONFIGS[i], r).values
            return np.array_equal(values, expected[item])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(check, item) for item in list(expected) * 4]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(old)

    def test_field_bits_independent_of_blas_threads(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            subprocess.run(
                [sys.executable, "-m", "heatlift.cli", "sample", "--out", str(out)]
                + ["--set", "n_modes=256", "--set", "grid_level=8", "--set", "n_time=8"],
                env=env,
                check=True,
                capture_output=True,
            )
            digests.append(hashlib.sha256((out / "field.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "settings", [[], ["--set", "functional=level2", "--set", "dim=2"]]
    )
    def test_chaos_bits_independent_of_blas_threads(self, tmp_path, settings):
        src = str(Path(__file__).resolve().parents[1] / "src")
        payloads = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            subprocess.run(
                [sys.executable, "-m", "heatlift.cli", "chaos", "--out", str(out)]
                + settings,
                env=env,
                check=True,
                capture_output=True,
            )
            payloads.append((out / "chaos.json").read_bytes())
        assert payloads[0] == payloads[1]


class TestPinnedFieldBits:
    """sha256 of sample_field(cfg, r).values.tobytes() at seed 0, dim 2 and
    256 modes, replicas 0 and 1.  add_at_field and gemm_field call
    _simulate_coefficients and _ou_paths themselves, so they would follow
    a defect there; these digests would not.  A change that moves the
    sampled bits must re-pin them and say why."""

    DIGESTS = {
        # converge-sup: n_modes = 2^(K-1), so the last mode is the Nyquist bin.
        (9, 16): (
            "13ba60983376781b56853b512259780f44163f46d98cae24e7af31fff5ba5a12",
            "e15eec3cde3969b3bd96dcf0dbaef0ea474245d68a608bad581ad0d80ba8e2b9",
        ),
        # tails-dist: every mode has its own bin.
        (10, 16): (
            "bf62c28b4ea196d742fe907eb58ff642a4187a930946f970db25f47011752362",
            "307013edf7429ce6a08cfcf4aafe3248fa3eb6f7b9db0344411ddbe47cc90b54",
        ),
        # besov-sheet: modes 129..256 fold onto bins already filled.
        (8, 8): (
            "dee4fe8df1ad1b85d228f42d356ef213f20b53a34ac95f52c1e0c764438153fb",
            "d4ef8c6f16e30d8837840bd59d5f76db7dcae1c18b9aae1e9a545289804b84d8",
        ),
    }

    @pytest.mark.parametrize("grid_level, n_time", list(DIGESTS))
    def test_field_digests(self, grid_level, n_time):
        cfg = SpectralConfig(
            n_modes=256, n_time=n_time, grid_level=grid_level, dim=2, seed=0
        )
        for replica, digest in enumerate(self.DIGESTS[grid_level, n_time]):
            values = sample_field(cfg, replica).values
            assert hashlib.sha256(values.tobytes()).hexdigest() == digest, replica


class TestSynthesisPlan:
    """The synthesis constants of a grid are built once, read-only and
    shared by every replica and component."""

    def test_arrays_are_read_only(self):
        plan = _synthesis_plan(24, 3, 1.0, 5)
        arrays = [getattr(plan, f.name) for f in dataclasses.fields(plan)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 5
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_one_plan_per_grid(self):
        assert _synthesis_plan(24, 3, 1.0, 5) is _synthesis_plan(24, 3, 1.0, 5)
        assert _synthesis_plan(24, 3, 1.0, 5) is not _synthesis_plan(24, 3, 1.0, 6)

    def test_same_bits_after_other_grids(self):
        # More grids than the cache keeps come between: the first grid's
        # plan is evicted and rebuilt, with the same bits.
        first = SpectralConfig(n_modes=24, n_time=3, grid_level=5, dim=2, seed=40)
        field = sample_field(first, 1).values.tobytes()
        row = sample_row(first, 1, 2).tobytes()
        for i in range(10):
            other = SpectralConfig(
                n_modes=8 + i, n_time=2 + i % 3, time_horizon=0.5 + i,
                grid_level=2 + i % 4, dim=2, seed=40,
            )
            sample_field(other, 1)
            sample_row(other, 1, 1)
            assert sample_field(first, 1).values.tobytes() == field
            assert sample_row(first, 1, 2).tobytes() == row


class TestNodeFactor:
    """R^T R is the truncated node covariance, from a thin factor."""

    @pytest.mark.parametrize("t", [0.05, 1.0])
    @pytest.mark.parametrize(
        "n_modes, nodes",
        [
            (64, np.array([0.0, 0.5])),
            (64, np.arange(9) / 8),
            (4, np.arange(17) / 16),
        ],
    )
    def test_gram_matches_fourier_covariance(self, t, n_modes, nodes):
        factor = _node_factor(n_modes, t, nodes)
        assert factor.shape == (min(2 * n_modes + 1, nodes.size), nodes.size)
        oracle = cov(
            t, nodes[:, None], t, nodes[None, :], method="fourier", n_modes=n_modes
        )
        assert np.all(np.abs(factor.T @ factor - oracle) <= 1e-13 * np.abs(oracle))

    def test_repeated_and_unsorted_nodes_share_columns(self):
        nodes = np.array([0.5, 0.0, 0.25, 0.5, 0.0, 0.75])
        factor = _node_factor(16, 0.3, nodes)
        assert factor.shape == (4, 6)
        assert np.array_equal(factor[:, 0], factor[:, 3])
        assert np.array_equal(factor[:, 1], factor[:, 4])
        ordered = _node_factor(16, 0.3, np.array([0.0, 0.25, 0.5, 0.75]))
        assert np.array_equal(factor, ordered[:, [2, 0, 1, 2, 0, 3]])
        cfg = SpectralConfig(n_modes=16, grid_level=3, dim=2, seed=3)
        rng = np.random.default_rng(3)
        draws = sample_slice_marginal(cfg, 0.3, 50, rng, nodes=nodes)
        assert np.array_equal(draws[:, 0], draws[:, 3])
        assert np.array_equal(draws[:, 1], draws[:, 4])


class TestMarginalSampler:
    def test_matches_pointwise_variance(self):
        cfg = SpectralConfig(n_modes=64, n_time=4, grid_level=3, dim=1, seed=23)
        rng = np.random.default_rng(23)
        draws = sample_slice_marginal(cfg, 0.7, 40_000, rng, nodes=np.array([0.25]))
        emp = draws[:, 0, 0].var(ddof=1)
        oracle = cov(0.7, 0.25, 0.7, 0.25, method="fourier", n_modes=64)
        se = emp * np.sqrt(2.0 / (40_000 - 1))
        assert abs(emp - oracle) <= 4.0 * se

    def test_needs_positive_time(self):
        cfg = SpectralConfig(n_modes=8, n_time=4, grid_level=3, dim=1, seed=0)
        with pytest.raises(ValueError):
            sample_slice_marginal(cfg, 0.0, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_needs_finite_time(self, t):
        cfg = SpectralConfig(n_modes=8, n_time=4, grid_level=3, dim=1, seed=0)
        with pytest.raises(ParameterError, match="0 < t < inf violated"):
            sample_slice_marginal(cfg, t, 10, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n_modes,replicas,nodes,message",
        [
            # 2^28 replicas at two nodes: 2^29 draws.
            (8, 2**28, 2, "draws would hold 536870912 values"),
            # 2^20 + 1 nodes: a basis of 513 * 1,048,577 values.
            (256, 1, 2**20 + 1, "basis would hold 537920001 values"),
        ],
    )
    def test_guard_refuses_before_any_array(self, monkeypatch, n_modes, replicas, nodes, message):
        class RefusingRng:
            def standard_normal(self, shape):
                raise AssertionError("drew before the guard")

        def refuse(*args, **kwargs):
            raise AssertionError("factored before the guard")

        monkeypatch.setattr(sampler_module, "_node_factor", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        cfg = SpectralConfig(n_modes=n_modes, grid_level=2, seed=0)
        grid = np.linspace(0.0, 1.0, nodes)
        with pytest.raises(GridTooLargeError, match=message):
            sample_slice_marginal(cfg, 1.0, replicas, RefusingRng(), nodes=grid)


class TestTruncationResidual:
    def test_uniform_bound(self):
        for n_modes in (16, 64, 256):
            bound = 1.0 / (4.0 * np.pi**2 * n_modes)
            for t in (0.1, 1.0, 10.0):
                assert 0.0 < truncation_residual(n_modes, t) <= bound

    def test_decreasing_in_cutoff(self):
        assert truncation_residual(32, 1.0) > truncation_residual(64, 1.0)
        assert truncation_residual(64, 1.0) > truncation_residual(128, 1.0)

    def test_vanishes_for_large_cutoff(self):
        assert truncation_residual(10_000, 1.0) < 1e-5

    def test_zero_time(self):
        assert truncation_residual(16, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError, match="n_modes >= 0 violated"):
            truncation_residual(-1, 1.0)
        for t in (-1.0, np.inf, np.nan):
            with pytest.raises(ParameterError, match="0 <= t < inf violated"):
                truncation_residual(16, t)

    def test_matches_direct_tail_sum(self):
        # Direct summation to n = 2e5 brackets the value up to the
        # analytic remainder bound 1/(4 pi^2 * 2e5).
        n_modes, t = 16, 0.8
        n_big = 200_000
        n = np.arange(n_modes + 1, n_big)
        lam = mode_rate(n)
        direct = float(np.sum((1.0 - np.exp(-2.0 * lam * t)) / lam))
        remainder_bound = 1.0 / (4.0 * np.pi**2 * (n_big - 1))
        value = truncation_residual(n_modes, t)
        assert direct <= value <= direct + 1.1 * remainder_bound


class TestTruncationResidualAgainstMpmath:
    def test_matches_trigamma_tail(self):
        # 40-digit reference: sum_{n>N} 1/lam_n is psi_1(N + 1) / (4 pi^2),
        # less the Gaussian-decaying sum of exp(-2 lam_n t) / lam_n.  The
        # residual is a difference of two variances near t + 1/12, so its
        # error is a rounding of those: at most 0.56 ulp of t + 1 measured.
        mp = pytest.importorskip("mpmath")
        for n_modes in (0, 1, 16, 256, 10_000):
            for t in (1e-3, 0.8, 10.0, 100.0):
                with mp.workdps(40):
                    lam = [4 * mp.pi**2 * n**2 for n in range(n_modes + 1, n_modes + 200)]
                    want = mp.psi(1, n_modes + 1) / (4 * mp.pi**2) - mp.fsum(
                        mp.exp(-2 * v * t) / v for v in lam
                    )
                got = truncation_residual(n_modes, t)
                assert abs(got - float(want)) <= 2.0 * np.finfo(float).eps * (t + 1.0)


class TestFieldIO:
    def test_binary_roundtrip(self, tmp_path):
        cfg = SpectralConfig(n_modes=8, n_time=4, grid_level=3, dim=2, seed=5)
        sample = sample_field(cfg, 2)
        path = tmp_path / "field.bin"
        save_field(sample, str(path))
        back = load_field(str(path))
        assert np.array_equal(back.values, sample.values)
        assert back.config == cfg
        assert back.replica == 2

    def test_binary_is_little_endian_f64(self, tmp_path):
        cfg = SpectralConfig(n_modes=8, n_time=3, grid_level=3, dim=2, seed=5)
        sample = sample_field(cfg, 2)
        path = tmp_path / "field.bin"
        save_field(sample, str(path))
        raw = path.read_bytes()
        assert raw[:8] == b"HLFIELD1"
        assert len(raw) == 64 + 8 * sample.values.size
        assert raw[64:] == sample.values.astype("<f8").tobytes()

    @pytest.mark.parametrize(
        "edit,found",
        [
            (lambda raw: raw[:70], 70),
            (lambda raw: raw[:-8], 632),
            (lambda raw: raw + b"\0" * 8, 648),
            (lambda raw: raw[:30], 30),
        ],
        ids=["truncated-values", "one-value-short", "trailing-bytes", "truncated-header"],
    )
    def test_wrong_length_rejected(self, tmp_path, edit, found):
        cfg = SpectralConfig(n_modes=8, n_time=3, grid_level=3, dim=2, seed=5)
        path = tmp_path / "field.bin"
        save_field(sample_field(cfg, 2), str(path))
        path.write_bytes(edit(path.read_bytes()))
        expected = "at least 64" if found < 64 else "640 for a \\(4, 9, 2\\) field"
        with pytest.raises(ValueError, match=f"field cache is {found} bytes, expected {expected}"):
            load_field(str(path))

    def test_sheet_cache_rejected(self, tmp_path):
        # Both caches go through one codec; the magic keeps them apart.
        cfg = SpectralConfig(n_modes=8, n_time=2, grid_level=2, dim=2, seed=1)
        path = tmp_path / "lift.bin"
        save_sheet(lift_level(sample_field(cfg, 0), cfg.grid_level), str(path))
        with pytest.raises(ValueError, match="not a heatlift field cache"):
            load_field(str(path))

    def test_non_field_file_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        path.write_bytes(b"HLSHEET1" + bytes(56))
        with pytest.raises(ValueError, match="not a heatlift field cache"):
            load_field(str(path))
