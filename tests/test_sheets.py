import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlift.dyadic import convergence_study, lift_level
from heatlift.group import _pair_increment, group_dist
from heatlift.sampler import FieldSample, SpectralConfig, sample_field
from heatlift.sheets import (
    GridMismatchError,
    PathSlice,
    RoughSheet,
    besov_norm,
    dilate_sheet,
    dist_infty,
    embedding_ratio,
    holder_norm,
    increment,
    lift_piecewise_linear,
    load_sheet,
    save_sheet,
    _BESOV_BLOCK,
    _besov,
    _besov_root,
    _log_besov_sum,
    _log_weights,
    _logsumexp,
    _node_pairs,
    _replica_buffers,
    _row_norms,
    _row_sumsq,
    _sheet_tables,
    spacetime_besov_norm,
)


def linear_slice(grid_level: int) -> PathSlice:
    x = np.arange(2**grid_level + 1) / 2**grid_level
    return PathSlice(values=x[:, None], grid_level=grid_level)


def sampled_slice(seed: int, grid_level: int = 8, dim: int = 1):
    cfg = SpectralConfig(
        n_modes=128,
        time_horizon=1.0,
        n_time=1,
        grid_level=grid_level,
        dim=dim,
        seed=seed,
    )
    sample = sample_field(cfg, 0)
    return PathSlice(values=sample.values[1], grid_level=grid_level)


def small_sheet(seed: int, grid_level: int = 5, n_time: int = 6, dim: int = 2):
    cfg = SpectralConfig(
        n_modes=64,
        time_horizon=1.0,
        n_time=n_time,
        grid_level=grid_level,
        dim=dim,
        seed=seed,
    )
    return lift_level(sample_field(cfg, 0), grid_level)


class TestLift:
    def test_constant_slice_lifts_to_unit(self):
        values = np.tile([1.5, -2.0], (2**3 + 1, 1))
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=3))
        assert np.all(rough.level1 == 0)
        assert np.all(rough.level2 == 0)
        assert np.array_equal(rough.initial_value, [1.5, -2.0])

    def test_single_segment_level2(self):
        # One cell from (0,0) to (1,2): A^2 = Delta ⊗ Delta / 2.
        values = np.array([[0.0, 0.0], [1.0, 2.0]])
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=0))
        expected = 0.5 * np.array([[1.0, 2.0], [2.0, 4.0]])
        assert np.array_equal(increment(rough, 0, 1).level2, expected)

    def test_two_segment_chen_composition(self):
        values = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=1))
        expected = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert np.allclose(increment(rough, 0, 2).level2, expected, atol=1e-15)

    def test_rejects_non_finite(self):
        values = np.array([[0.0], [np.nan], [1.0]])
        with pytest.raises(ValueError):
            PathSlice(values=values, grid_level=1)


class TestIncrement:
    def test_diagonal_is_unit(self):
        rough = lift_piecewise_linear(sampled_slice(0))
        g = increment(rough, 5, 5)
        assert np.all(g.level1 == 0) and np.all(g.level2 == 0)

    def test_from_origin_is_prefix(self):
        rough = lift_piecewise_linear(sampled_slice(1))
        g = increment(rough, 0, 17)
        assert np.array_equal(g.level1, rough.level1[17])
        assert np.array_equal(g.level2, rough.level2[17])

    def test_chen_identity_all_triples(self):
        rough = lift_piecewise_linear(sampled_slice(2, grid_level=4, dim=2))
        n = rough.n_cells
        worst = 0.0
        for i in range(n + 1):
            for j in range(i, n + 1):
                for k in range(j, n + 1):
                    whole = increment(rough, i, k)
                    a = increment(rough, i, j)
                    b = increment(rough, j, k)
                    comp = a.level2 + b.level2 + np.outer(a.level1, b.level1)
                    worst = max(
                        worst,
                        float(np.max(np.abs(whole.level2 - comp))),
                        float(np.max(np.abs(whole.level1 - a.level1 - b.level1))),
                    )
        assert worst <= 1e-12

    def test_geometricity_of_increments(self):
        rough = lift_piecewise_linear(sampled_slice(3, grid_level=5, dim=2))
        n = rough.n_cells
        worst = max(
            increment(rough, i, j).symmetric_defect()
            for i in range(0, n, 3)
            for j in range(i, n + 1, 5)
        )
        assert worst <= 1e-12

    def test_index_bounds(self):
        rough = lift_piecewise_linear(sampled_slice(4, grid_level=3))
        with pytest.raises(IndexError):
            increment(rough, 3, 2)
        with pytest.raises(IndexError):
            increment(rough, 0, 99)


class TestHolderNorm:
    def test_constant_is_zero(self):
        values = np.ones((2**4 + 1, 1))
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=4))
        assert holder_norm(rough, 1, 0.5) == 0.0
        assert holder_norm(rough, 2, 0.5) == 0.0

    def test_linear_level1(self):
        rough = lift_piecewise_linear(linear_slice(6))
        # sup (y-x)/(y-x)^0.5 = sup (y-x)^0.5 = 1 at the full interval.
        assert holder_norm(rough, 1, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_linear_level2(self):
        rough = lift_piecewise_linear(linear_slice(6))
        # A^2 = (y-x)^2/2, so sup A^2/(y-x)^{2*0.5} = 1/2.
        assert holder_norm(rough, 2, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_closed_form_level2_general_alpha(self):
        rough = lift_piecewise_linear(linear_slice(6))
        alpha = 0.4
        # sup (y-x)^{2-2a}/2 attained at y-x = 1.
        assert holder_norm(rough, 2, alpha) == pytest.approx(0.5, rel=1e-12)

    def test_homogeneity_under_dilation(self):
        slice_ = sampled_slice(5, grid_level=6)
        rough = lift_piecewise_linear(slice_)
        scaled = lift_piecewise_linear(
            PathSlice(values=0.5 * slice_.values, grid_level=6)
        )
        for level in (1, 2):
            a = holder_norm(scaled, level, 0.45)
            b = 0.5**level * holder_norm(rough, level, 0.45)
            assert a == pytest.approx(b, rel=1e-13)


class TestBesovNorm:
    def test_constant_is_zero(self):
        values = np.zeros((2**4 + 1, 1))
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=4))
        assert besov_norm(rough, 1, 0.4, 4.0) == 0.0

    def test_divergent_parameters_rejected(self):
        rough = lift_piecewise_linear(linear_slice(4))
        with pytest.raises(ValueError):
            besov_norm(rough, 1, 0.2, 4.0)  # m*alpha = 0.8 <= 1

    def test_linear_slice_closed_form(self):
        # For a(x) = x, level 1, alpha=0.4, m=4 the integral is
        # iint (y-x)^{4 - 1 - 1.6} dx dy = 1/(2.4 * 3.4); the node-pair
        # Riemann sum converges to its fourth root from above.
        exact = (1.0 / (2.4 * 3.4)) ** 0.25
        vals = []
        for K in (6, 8, 10):
            rough = lift_piecewise_linear(linear_slice(K))
            vals.append(besov_norm(rough, 1, 0.4, 4.0))
        errs = [abs(v - exact) / exact for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2e-3

    def test_refinement_monotone_on_samples(self):
        # Near alpha = 1/2 most of the integral's mass sits near the
        # diagonal, below the coarse grid scale, so refining the node-pair
        # quadrature on the same realization adds positive mass.
        alpha, m = 0.48, 4.0
        count = 0
        for seed in range(100):
            cfg = SpectralConfig(
                n_modes=256,
                time_horizon=1.0,
                n_time=1,
                grid_level=9,
                dim=1,
                seed=seed,
            )
            sample = sample_field(cfg, 0)
            fine = lift_piecewise_linear(
                PathSlice(values=sample.values[1], grid_level=9)
            )
            coarse = lift_piecewise_linear(
                PathSlice(values=sample.values[1, ::2, :], grid_level=8)
            )
            if besov_norm(coarse, 1, alpha, m) <= besov_norm(fine, 1, alpha, m) + 1e-6:
                count += 1
        assert count == 100

    def test_level2_uses_half_order(self):
        rough = lift_piecewise_linear(linear_slice(10))
        # A^2 = (y-x)^2/2 pointwise; with (2a, m/2) the integrand is
        # ((y-x)^2/2)^{m/2}/(y-x)^{1+m*alpha}.
        alpha, m = 0.4, 4.0
        val = besov_norm(rough, 2, alpha, m)
        sep_exp = m - 1.0 - m * alpha  # (2)*(m/2) - 1 - m*alpha
        exact = (0.5 ** (m / 2.0) / ((sep_exp + 1.0) * (sep_exp + 2.0))) ** (2.0 / m)
        assert val == pytest.approx(exact, rel=5e-3)


class TestSpacetimeBesov:
    def test_zero_sheet(self):
        cfg = SpectralConfig(
            n_modes=4, time_horizon=1.0, n_time=4, grid_level=3, dim=1, seed=0
        )
        zero = FieldSample(
            values=np.zeros((5, 9, 1)), config=cfg, replica=0
        )
        sheet = lift_level(zero, 3)
        norm = spacetime_besov_norm(sheet, beta=0.2, alpha=0.4, m=8.0)
        assert norm.initial_value == 0.0
        assert norm.level1 == 0.0
        assert norm.level2 == 0.0

    def test_separable_single_slice(self):
        # Only one time slice differs from zero: the quadruple sum
        # factorizes into (time factor) x (spatial Besov sum).
        K, nt = 4, 6
        cfg = SpectralConfig(
            n_modes=4, time_horizon=1.0, n_time=nt, grid_level=K, dim=1, seed=0
        )
        beta, alpha, m = 0.2, 0.4, 8.0
        x = np.arange(2**K + 1) / 2**K
        profile = np.sin(2 * np.pi * x)
        values = np.zeros((nt + 1, 2**K + 1, 1))
        slot = 3
        values[slot, :, 0] = profile
        sheet = lift_level(FieldSample(values=values, config=cfg, replica=0), K)
        norm = spacetime_besov_norm(sheet, beta, alpha, m)

        space = besov_norm(
            lift_piecewise_linear(PathSlice(values=profile[:, None], grid_level=K)),
            1,
            alpha,
            m,
        )
        times = cfg.times()
        dt = times[1] - times[0]
        t_factor = 0.0
        for i in range(nt + 1):
            for j in range(i + 1, nt + 1):
                hit = (i == slot) != (j == slot)
                if hit:
                    t_factor += dt**2 / (times[j] - times[i]) ** (1.0 + beta * m)
        expected = (t_factor * space**m) ** (1.0 / m)
        assert norm.level1 == pytest.approx(expected, rel=1e-12)

    def test_single_time_sheet(self):
        # No time pairs: only |v_0| remains.
        rough = lift_piecewise_linear(sampled_slice(3, grid_level=4, dim=2))
        sheet = RoughSheet(
            times=np.zeros(1),
            grid_level=4,
            level1=rough.level1[None],
            level2=rough.level2[None],
            initial_values=rough.initial_value[None],
        )
        norm = spacetime_besov_norm(sheet, beta=0.2, alpha=0.4, m=8.0)
        assert norm.initial_value == float(np.linalg.norm(rough.initial_value))
        assert norm.level1 == 0.0 and norm.level2 == 0.0

    def test_non_finite_norm_raises(self):
        sheet = small_sheet(0)
        sheet.level1[2, 3, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite level-1 Besov norm"):
            spacetime_besov_norm(sheet, beta=0.2, alpha=0.4, m=8.0)
        rough = lift_piecewise_linear(linear_slice(4))
        rough.level2[5, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite level-2 Besov norm"):
            besov_norm(rough, 2, 0.4, 8.0)
        # One time: no Besov sum runs, only |v_0|.
        single = RoughSheet(
            times=np.zeros(1),
            grid_level=4,
            level1=rough.level1[None],
            level2=np.zeros_like(rough.level2)[None],
            initial_values=np.array([[np.inf]]),
        )
        with pytest.raises(FloatingPointError, match="non-finite initial-value norm"):
            spacetime_besov_norm(single, beta=0.2, alpha=0.4, m=8.0)

    def test_parameter_guards(self):
        sheet = small_sheet(0)
        with pytest.raises(ValueError):
            spacetime_besov_norm(sheet, beta=0.01, alpha=0.4, m=8.0)  # beta <= 1/m
        with pytest.raises(ValueError):
            spacetime_besov_norm(sheet, beta=0.2, alpha=0.1, m=8.0)  # m*alpha <= 1

    def test_stability_under_time_refinement(self):
        # Same realization on a 128-step time grid versus its 64-step
        # subsampling: the quadrature moves by only a few percent.
        from heatlift.sheets import RoughSheet

        cfg = SpectralConfig(
            n_modes=128,
            time_horizon=1.0,
            n_time=128,
            grid_level=6,
            dim=1,
            seed=12,
        )
        fine = lift_level(sample_field(cfg, 0), 6)
        coarse = RoughSheet(
            times=fine.times[::2],
            grid_level=fine.grid_level,
            level1=fine.level1[::2],
            level2=fine.level2[::2],
            initial_values=fine.initial_values[::2],
        )
        nf = spacetime_besov_norm(fine, beta=0.04, alpha=0.35, m=30.0)
        nc = spacetime_besov_norm(coarse, beta=0.04, alpha=0.35, m=30.0)
        for a, b in ((nf.level1, nc.level1), (nf.level2, nc.level2)):
            assert np.isfinite(a) and np.isfinite(b)
            assert abs(a - b) / b <= 0.05


def reference_spacetime_besov(sheet, beta, alpha, m, relative_to=None):
    """The quadrature's former body: both sheets tabulated on every call,
    each block's time-pair differences gathered whole and reduced with
    np.linalg.norm."""
    nt, n = sheet.n_times, 2**sheet.grid_level
    iu, ju = np.triu_indices(n + 1, k=1)
    x_weight = (1.0 / n) ** 2 / ((ju - iu) / n) ** (1.0 + m * alpha)

    def tables(sh):
        f1 = np.empty((nt, iu.shape[0], sh.dim))
        f2 = np.empty((nt, iu.shape[0], sh.dim**2))
        for t, (l1, l2) in enumerate(zip(sh.level1, sh.level2)):
            f1[t], a2 = _pair_increment(l1[iu], l2[iu], l1[ju], l2[ju])
            f2[t] = a2.reshape(f2.shape[1:])
        return f1, f2

    f1m, f2m = tables(sheet)
    v = sheet.initial_values
    if relative_to is not None:
        g1m, g2m = tables(relative_to)
        f1m = f1m - g1m
        f2m = f2m - g2m
        v = v - relative_to.initial_values
    si, ti = np.triu_indices(nt, k=1)
    dt = (sheet.times[-1] - sheet.times[0]) / (nt - 1)
    t_weight = dt**2 / (sheet.times[ti] - sheet.times[si]) ** (1.0 + beta * m)
    sum1 = sum2 = 0.0
    for lo in range(0, si.shape[0], 128):
        idx = np.arange(lo, min(lo + 128, si.shape[0]))
        mags1 = np.linalg.norm(f1m[ti[idx]] - f1m[si[idx]], axis=2)
        mags2 = np.linalg.norm(f2m[ti[idx]] - f2m[si[idx]], axis=2)
        sum1 += float((mags1**m @ x_weight) @ t_weight[idx])
        sum2 += float((mags2 ** (m / 2.0) @ x_weight) @ t_weight[idx])
    dv = np.sqrt(np.sum((v[ti] - v[si]) ** 2, axis=1))
    v_norm = float(np.linalg.norm(v[0])) + float(dv**m @ t_weight) ** (1.0 / m)
    return (v_norm, sum1 ** (1.0 / m), sum2 ** (2.0 / m))


class TestSpacetimeBesovMatchesReference:
    # Tables are C-contiguous and component-major, (components..., pairs),
    # as _increment_tables builds them.  A transposed pair-major table is
    # an F-order view, which numpy may reduce in another order.
    @pytest.mark.parametrize("comps", [1, 2, 3, 4, 7, 8, 9, 16, 17, 129, 300])
    def test_row_norms_equal_numpy(self, comps):
        rng = np.random.default_rng(comps)
        table = rng.standard_normal((comps, 500))
        table *= np.exp(4.0 * rng.standard_normal(table.shape))
        assert table.flags.c_contiguous
        expected = table[0] * table[0]
        for c in range(1, comps):
            expected = expected + table[c] * table[c]
        got = _row_norms(table)
        assert np.array_equal(got, np.sqrt(expected))
        assert np.array_equal(got, np.linalg.norm(table, axis=0))

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_row_norms_equal_numpy_over_matrices(self, dim):
        table = np.random.default_rng(dim).standard_normal((dim, dim, 500))
        assert table.flags.c_contiguous
        expected = np.zeros(500)
        for a in range(dim):
            for b in range(dim):
                expected = expected + table[a, b] * table[a, b]
        assert np.array_equal(_row_norms(table), np.sqrt(expected))

    # n_time=16 gives 136 time pairs, i.e. two blocks.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [5, 16])
    def test_equals_block_gather_form(self, dim, n_time):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=n_time, grid_level=5, dim=dim,
            seed=dim,
        )
        sample = sample_field(cfg, 0)
        fine, coarse = lift_level(sample, 4), lift_level(sample, 3)
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        # Coarse first alone, then as relative_to with its tables already
        # built, then the fine sheet alone from its kept tables.  The sum is
        # now taken in log space, so it agrees to rounding, not bit for bit
        # (measured gap <= 4e-16; TestBesovMatchesMpmath gates accuracy).
        for sheet, other in ((coarse, None), (fine, coarse), (fine, None)):
            norm = spacetime_besov_norm(sheet, relative_to=other, **params)
            got = (norm.initial_value, norm.level1, norm.level2)
            expected = reference_spacetime_besov(sheet, relative_to=other, **params)
            assert got == pytest.approx(expected, rel=1e-13)
            assert all(np.isfinite(got)) and got[1] > 0

    @pytest.mark.parametrize(
        "k_range, threads, dim",
        [([2, 4], 1, 2), (range(2, 5), 1, 2), (range(2, 5), 3, 3)],
    )
    def test_convergence_rows_equal_reference(self, k_range, threads, dim):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=dim, seed=9
        )
        replicas = 4
        params = dict(alpha=0.4, beta=0.04, m=30.0)
        table = convergence_study(
            cfg, k_range, replicas, kinds=("besov",), threads=threads, **params
        )
        per_replica = []
        for r in range(replicas):
            sample = sample_field(cfg, r)
            per_replica.append(
                {
                    k: reference_spacetime_besov(
                        lift_level(sample, k + 1),
                        params["beta"],
                        params["alpha"],
                        params["m"],
                        relative_to=lift_level(sample, k),
                    )
                    for k in k_range
                }
            )
        expected = []
        for level in (1, 2):
            for k in k_range:
                vals = np.array([res[k][level] for res in per_replica])
                expected.append(
                    (k, level, float(vals.mean()),
                     float(vals.std(ddof=1) / np.sqrt(replicas)))
                )
        assert [(r.k, r.level) for r in table.rows] == [e[:2] for e in expected]
        for row, (_, _, estimate, stderr) in zip(table.rows, expected):
            assert (row.estimate, row.stderr) == pytest.approx(
                (estimate, stderr), rel=1e-13
            )


def former_row_sumsq(table):
    """The squared-norm kernel before it fused the subtraction: squared
    rows of one table summed in memory order, a fresh square per row."""
    rows = table.reshape(-1, table.shape[-1])
    total = rows[0] * rows[0]
    for row in rows[1:]:
        total += row * row
    return total


def subtract_then_sumsq_besov(sheet, beta, alpha, m, relative_to=None):
    """The quadrature's former block loop: each time pair's two table rows
    subtracted whole, then reduced by former_row_sumsq; every other step
    (weights, log-domain sums, initial-value term) as in the library."""
    n = 2**sheet.grid_level
    _, _, sep = _node_pairs(n)
    log_wx = _log_weights(sep, 1.0 / n, 1.0 + m * alpha)
    f1m, f2m = _sheet_tables(sheet)
    v = sheet.initial_values
    if relative_to is not None:
        g1m, g2m = _sheet_tables(relative_to)
        f1m, f2m = f1m - g1m, f2m - g2m
        v = v - relative_to.initial_values
    times, nt = sheet.times, sheet.n_times
    si, ti = np.triu_indices(nt, k=1)
    dt = (times[-1] - times[0]) / (nt - 1)
    log_wt = _log_weights(times[ti] - times[si], dt, 1.0 + beta * m)
    log1, log2 = [], []
    for lo in range(0, si.shape[0], _BESOV_BLOCK):
        block = range(lo, min(lo + _BESOV_BLOCK, si.shape[0]))
        sumsq1 = np.empty((len(block), sep.shape[0]))
        sumsq2 = np.empty_like(sumsq1)
        for row, p in enumerate(block):
            sumsq1[row] = former_row_sumsq(f1m[ti[p]] - f1m[si[p]])
            sumsq2[row] = former_row_sumsq(f2m[ti[p]] - f2m[si[p]])
        log_wt_block = log_wt[block, None]
        log1.append(_log_besov_sum(sumsq1, 1, m, log_wx, log_wt_block))
        log2.append(_log_besov_sum(sumsq2, 2, m, log_wx, log_wt_block))
    dv = v.T[:, ti] - v.T[:, si]
    return (
        float(np.linalg.norm(v[0])) + _besov(dv, 1, m, log_wt),
        _besov_root(_logsumexp(np.array(log1)), 1, m),
        _besov_root(_logsumexp(np.array(log2)), 2, m),
    )


class TestRowFusedQuadrature:
    """The row-fused quadrature keeps the bits of the former
    subtract-then-reduce block loop and leaves both sheets' tables alone."""

    @pytest.mark.parametrize("a_shape", [(1, 300), (3, 300), (2, 2, 300), (3, 3, 300)])
    def test_fused_difference_equals_difference_first(self, a_shape):
        rng = np.random.default_rng(sum(a_shape))
        a = rng.standard_normal(a_shape) * np.exp(4.0 * rng.standard_normal(a_shape))
        b = rng.standard_normal(a_shape) * np.exp(4.0 * rng.standard_normal(a_shape))
        b.reshape(-1)[::7] = a.reshape(-1)[::7]  # exact zeros in the difference
        want = _row_sumsq(a - b)
        assert want.tobytes() == former_row_sumsq(a - b).tobytes()
        assert _row_sumsq(a, b).tobytes() == want.tobytes()
        out, work = np.full(a_shape[-1], np.nan), np.full(a_shape[-1], np.nan)
        assert _row_sumsq(a, b, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
        # Without minus, out/work leave the single-table bits alone too.
        out.fill(np.nan)
        work.fill(np.nan)
        assert _row_sumsq(a, out=out, work=work).tobytes() == former_row_sumsq(a).tobytes()

    # n_time=16 gives 136 time pairs, i.e. two blocks.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [5, 16])
    @pytest.mark.parametrize("alpha, beta, m", [(0.4, 0.04, 30.0), (0.49, 0.004, 300.0)])
    def test_equals_subtract_then_reduce(self, dim, n_time, alpha, beta, m):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=n_time, grid_level=5, dim=dim,
            seed=dim,
        )
        sample = sample_field(cfg, 0)
        fine, coarse = lift_level(sample, 4), lift_level(sample, 3)
        for sheet, other in ((fine, None), (fine, coarse)):
            expected = subtract_then_sumsq_besov(sheet, beta, alpha, m, relative_to=other)
            kept = [sh._tables for sh in (sheet, other) if sh is not None]
            saved = [tuple(t.copy() for t in tables) for tables in kept]
            norm = spacetime_besov_norm(sheet, beta, alpha, m, relative_to=other)
            assert (norm.initial_value, norm.level1, norm.level2) == expected
            assert np.all(np.isfinite(expected)) and expected[1] > 0
            for sh, tables, copies in zip((sheet, other), kept, saved):
                assert sh._tables is tables
                for table, copy in zip(tables, copies):
                    assert table.tobytes() == copy.tobytes()


# (alpha, beta, m): validate_besov_params accepts both.  At the first,
# (1/n)^2 / sep^(1+m*alpha) overflows at grid level 8 and |a|^m underflows,
# so the former power-domain sums give NaN.
MP_POINTS = ((0.49, 0.004, 300.0), (0.45, 0.02, 60.0))

try:
    import mpmath as mp
except ImportError:  # only the 40-digit comparisons need it
    mp = None
needs_mpmath = pytest.mark.skipif(mp is None, reason="mpmath is not installed")


def mp_sumsq(rows):
    """Squared norms of rows of mpf entries (40 digits hold them exactly)."""
    out = []
    for row in rows:
        total = row[0] * row[0]
        for x in row[1:]:
            total += x * x
        out.append(total)
    return out


def mp_entries(table):
    """The float table's rows, (pairs, components), as lists of mpf."""
    flat = table.reshape(table.shape[0], -1).tolist()
    return [[mp.mpf(x) for x in row] for row in flat]


def mp_weights(seps, mesh, expo):
    """Riemann weights mesh^2 / sep^expo, the float inputs taken exactly."""
    weight = {
        sep: mp.mpf(mesh) ** 2 / mp.power(mp.mpf(sep), mp.mpf(expo))
        for sep in set(seps)
    }
    return [weight[sep] for sep in seps]


def mp_besov(sumsq_rows, row_weights, x_weights, level, m):
    """(sum_r row_weights[r] sum_p x_weights[p] sumsq_rows[r][p]^(m/(2 level)))
    ^(level/m), every term formed and summed at full precision."""
    power = m / (2 * level)
    assert power == int(power)  # integer powers keep mpmath fast
    total = mp.fsum(
        w * mp.fdot(x_weights, [s ** int(power) for s in row])
        for w, row in zip(row_weights, sumsq_rows)
    )
    return float(total ** (mp.mpf(level) / mp.mpf(m)))


def mp_pair_sumsq(level1, level2, time_pairs):
    """Exact squared norms of the increment differences A_t - A_s over all
    node pairs, per level and per (s, t) in time_pairs."""
    iu, ju = np.triu_indices(level1.shape[1], k=1)
    tables = [[], []]
    for l1, l2 in zip(level1, level2):
        for table, a in zip(tables, _pair_increment(l1[iu], l2[iu], l1[ju], l2[ju])):
            table.append(mp_entries(a))
    return [
        [
            mp_sumsq(
                [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(table[t], table[s])]
                if s is not None else table[t]
            )
            for s, t in time_pairs
        ]
        for table in tables
    ]


def overflow_sheet():
    cfg = SpectralConfig(
        n_modes=128, time_horizon=1.0, n_time=2, grid_level=8, dim=1, seed=4
    )
    return lift_level(sample_field(cfg, 0), 8)


class TestBesovMatchesMpmath:
    """The log-domain sums against the same Riemann sums taken term by term
    in 40-digit arithmetic, where nothing overflows or underflows."""

    @pytest.fixture(scope="class")
    def slice_case(self):
        rough = lift_piecewise_linear(sampled_slice(4, grid_level=8, dim=2))
        with mp.workdps(40):
            return rough, mp_pair_sumsq(
                rough.level1[None], rough.level2[None], [(None, 0)]
            )

    @pytest.fixture(scope="class")
    def sheet_case(self):
        sheet = overflow_sheet()
        si, ti = np.triu_indices(sheet.n_times, k=1)
        with mp.workdps(40):
            return sheet, mp_pair_sumsq(sheet.level1, sheet.level2, list(zip(si, ti)))

    @needs_mpmath
    @pytest.mark.parametrize("alpha, beta, m", MP_POINTS)
    def test_slice_norm(self, slice_case, alpha, beta, m):
        rough, sumsq = slice_case
        n = rough.n_cells
        iu, ju = np.triu_indices(n + 1, k=1)
        with mp.workdps(40):
            x_w = mp_weights(((ju - iu) / n).tolist(), 1.0 / n, 1.0 + m * alpha)
            for level in (1, 2):
                exact = mp_besov(sumsq[level - 1], [1], x_w, level, m)
                got = besov_norm(rough, level, alpha, m)
                assert got == pytest.approx(exact, rel=1e-13)

    @needs_mpmath
    @pytest.mark.parametrize("alpha, beta, m", MP_POINTS)
    def test_spacetime_norm(self, sheet_case, alpha, beta, m):
        sheet, sumsq = sheet_case
        norm = spacetime_besov_norm(sheet, beta, alpha, m)
        n, times = 2**sheet.grid_level, sheet.times
        iu, ju = np.triu_indices(n + 1, k=1)
        si, ti = np.triu_indices(sheet.n_times, k=1)
        dt = (times[-1] - times[0]) / (sheet.n_times - 1)
        with mp.workdps(40):
            x_w = mp_weights(((ju - iu) / n).tolist(), 1.0 / n, 1.0 + m * alpha)
            t_w = mp_weights((times[ti] - times[si]).tolist(), dt, 1.0 + beta * m)
            for level, got in ((1, norm.level1), (2, norm.level2)):
                exact = mp_besov(sumsq[level - 1], t_w, x_w, level, m)
                assert got == pytest.approx(exact, rel=1e-13)
            v = mp_entries(sheet.initial_values)
            v_rows = mp_sumsq(
                [[a - b for a, b in zip(v[t], v[s])] for s, t in zip(si, ti)]
            )
            exact_v = float(mp.sqrt(mp_sumsq(v[:1])[0])) + mp_besov(
                [v_rows], [1], t_w, 1, m
            )
        assert norm.initial_value == pytest.approx(exact_v, rel=1e-13)

    def test_former_body_is_nan_at_overflow_point(self):
        alpha, beta, m = MP_POINTS[0]
        with np.errstate(all="ignore"):
            former = reference_spacetime_besov(overflow_sheet(), beta, alpha, m)
        assert np.isnan(former[1]) and np.isnan(former[2])


def random_sheet(rng, grid_level: int, n_times: int, dim: int) -> RoughSheet:
    """Sheet of independently lifted random slices, one per time."""
    shape = (2**grid_level + 1, dim)
    slices = [
        lift_piecewise_linear(
            PathSlice(values=rng.standard_normal(shape), grid_level=grid_level)
        )
        for _ in range(n_times)
    ]
    return RoughSheet(
        times=np.linspace(0.0, 1.0, n_times),
        grid_level=grid_level,
        level1=np.stack([s.level1 for s in slices]),
        level2=np.stack([s.level2 for s in slices]),
        initial_values=np.stack([s.initial_value for s in slices]),
    )


class TestDistInfty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_matches_prefix_group_distances(self, seed, grid_level, n_times, dim):
        rng = np.random.default_rng(seed)
        a = random_sheet(rng, grid_level, n_times, dim)
        b = random_sheet(rng, grid_level, n_times, dim)
        group_part = max(
            group_dist(a.slice(t).prefix(j), b.slice(t).prefix(j))
            for t in range(n_times)
            for j in range(2**grid_level + 1)
        )
        v_part = max(
            float(np.linalg.norm(b.initial_values[t] - a.initial_values[t]))
            for t in range(n_times)
        )
        expected = group_part + v_part
        assert abs(dist_infty(a, b) - expected) <= 1e-14 * max(1.0, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 4),
        st.integers(1, 3),
        st.integers(1, 3),
        st.floats(1e-3, 1e3),
    )
    def test_exact_dilation_property(self, seed, grid_level, n_times, dim, lam):
        # The identity behind the tail experiment's single pass:
        # dist(eps*a, eps*b) > delta  iff  dist(a, b) > delta / eps.
        rng = np.random.default_rng(seed)
        a = random_sheet(rng, grid_level, n_times, dim)
        b = random_sheet(rng, grid_level, n_times, dim)
        base = dist_infty(a, b)
        scaled = dist_infty(dilate_sheet(lam, a), dilate_sheet(lam, b))
        assert abs(scaled - lam * base) <= 1e-14 * lam * base

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 4),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_work_buffers_keep_the_bits(self, seed, grid_level, n_times, dim):
        # Buffers holding NaN, then another pair's scratch, change nothing.
        rng = np.random.default_rng(seed)
        a = random_sheet(rng, grid_level, n_times, dim)
        b = random_sheet(rng, grid_level, n_times, dim)
        _, work = _replica_buffers(a.times, grid_level, dim, sheets=0)
        for buf in work:
            buf.fill(np.nan)
        assert dist_infty(a, b, work=work) == dist_infty(a, b)
        assert dist_infty(b, a, work=work) == dist_infty(b, a)
        assert dist_infty(a, a, work=work) == 0.0

    def test_reused_sheet_drops_its_tables(self):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=3, grid_level=4, dim=2, seed=1
        )
        sheet = lift_level(sample_field(cfg, 0), 4)
        spacetime_besov_norm(sheet, 0.04, 0.4, 30)
        assert sheet._tables is not None
        other = sample_field(cfg, 1)
        lift_level(other, 2, out=sheet)
        assert sheet._tables is None
        assert spacetime_besov_norm(sheet, 0.04, 0.4, 30) == spacetime_besov_norm(
            lift_level(other, 2), 0.04, 0.4, 30
        )

    def test_self_distance_zero(self):
        sheet = small_sheet(2)
        assert dist_infty(sheet, sheet) == 0.0

    def test_dilation_homogeneity(self):
        cfg = SpectralConfig(
            n_modes=64, time_horizon=1.0, n_time=6, grid_level=5, dim=2, seed=3
        )
        sample = sample_field(cfg, 0)
        a = lift_level(sample, 3)
        b = lift_level(sample, 5)
        base = dist_infty(a, b)
        for eps in (0.5, 0.37, 0.125):
            scaled = dist_infty(dilate_sheet(eps, a), dilate_sheet(eps, b))
            assert abs(scaled - eps * base) <= 1e-14 * eps * base

    def test_initial_value_only_difference(self):
        # Zero field versus a field constant in x: only v_t differs.
        cfg = SpectralConfig(
            n_modes=4, time_horizon=1.0, n_time=4, grid_level=3, dim=1, seed=0
        )
        shape = (5, 9, 1)
        zero = lift_level(FieldSample(np.zeros(shape), cfg, 0), 3)
        c_of_t = np.array([0.0, 0.3, -0.7, 0.2, 0.5])
        values = np.tile(c_of_t[:, None, None], (1, 9, 1))
        const = lift_level(FieldSample(values, cfg, 0), 3)
        assert dist_infty(zero, const) == pytest.approx(0.7, abs=1e-15)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            dist_infty(small_sheet(0, grid_level=5), small_sheet(0, grid_level=4))


class TestEmbeddingRatio:
    def test_equal_slices_skipped(self):
        rough = lift_piecewise_linear(sampled_slice(7, grid_level=6))
        rep = embedding_ratio(rough, rough, alpha=0.4, m=20.0)
        assert np.isnan(rep.ratio1) and np.isnan(rep.ratio2)

    def test_against_unit_slice_reduces_to_plain_embedding(self):
        rough = lift_piecewise_linear(sampled_slice(8, grid_level=6))
        unit_slice = lift_piecewise_linear(
            PathSlice(values=np.zeros((2**6 + 1, 1)), grid_level=6)
        )
        rep = embedding_ratio(rough, unit_slice, alpha=0.4, m=20.0)
        # The level-1 sides coincide with the one-path Hoelder/Besov norms.
        assert rep.holder1 == pytest.approx(
            holder_norm(rough, 1, 0.4 - 1.0 / 20.0), rel=1e-12
        )
        assert rep.besov1 == pytest.approx(besov_norm(rough, 1, 0.4, 20.0), rel=1e-12)
        assert rep.ratio1 > 0 and np.isfinite(rep.ratio2)

    def test_precondition(self):
        rough = lift_piecewise_linear(sampled_slice(9, grid_level=5))
        with pytest.raises(ValueError):
            embedding_ratio(rough, rough, alpha=0.35, m=20.0)  # a - 1/m = 0.3

    def test_sampling_study_stable_across_grids(self):
        # Max ratio over sampled slice pairs is finite and moves by well
        # under 20% across grid levels (matched realizations).
        alpha, m = 0.4, 20.0
        n_pairs = 60
        cfg = SpectralConfig(
            n_modes=256, time_horizon=1.0, n_time=1, grid_level=10, dim=1, seed=99
        )
        fields = [
            (sample_field(cfg, 2 * p).values[1], sample_field(cfg, 2 * p + 1).values[1])
            for p in range(n_pairs)
        ]
        maxima = {}
        for K in (8, 9, 10):
            stride = 2 ** (10 - K)
            r1, r2 = [], []
            for va, vb in fields:
                sa = lift_piecewise_linear(
                    PathSlice(values=va[::stride], grid_level=K)
                )
                sb = lift_piecewise_linear(
                    PathSlice(values=vb[::stride], grid_level=K)
                )
                rep = embedding_ratio(sa, sb, alpha, m)
                r1.append(rep.ratio1)
                r2.append(rep.ratio2)
            maxima[K] = (np.nanmax(r1), np.nanmax(r2))
        for idx in (0, 1):
            vals = np.array([maxima[K][idx] for K in (8, 9, 10)])
            assert np.all(np.isfinite(vals))
            assert (vals.max() - vals.min()) / vals.min() <= 0.2


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        sheet = small_sheet(4)
        path = tmp_path / "sheet.bin"
        save_sheet(sheet, str(path))
        back = load_sheet(str(path))
        assert back.grid_level == sheet.grid_level
        assert np.array_equal(back.times, sheet.times)
        assert np.array_equal(back.level1, sheet.level1)
        assert np.array_equal(back.level2, sheet.level2)
        assert np.array_equal(back.initial_values, sheet.initial_values)

    def test_non_sheet_file_rejected(self, tmp_path):
        path = tmp_path / "sheet.json"
        path.write_text('{"format": "heatlift-sheet", "version": 1}')
        with pytest.raises(ValueError, match="not a heatlift sheet cache"):
            load_sheet(str(path))

    def test_binary_is_little_endian_f64(self, tmp_path):
        sheet = small_sheet(6, grid_level=2, n_time=2)
        path = tmp_path / "sheet.bin"
        save_sheet(sheet, str(path))
        raw = path.read_bytes()
        assert raw[:8] == b"HLSHEET1"
        header = np.frombuffer(raw[8:32], dtype="<i8")
        assert header[0] == sheet.dim and header[1] == sheet.grid_level
