import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlift import sheets
from heatlift.dyadic import convergence_study, lift_level
from heatlift.group import _pair_increment, group_dist
from heatlift.sampler import FieldSample, SpectralConfig, sample_field
from heatlift.sheets import (
    GridMismatchError,
    PathSlice,
    RoughSheet,
    dilate_sheet,
    dist_infty,
    increment,
    lift_piecewise_linear,
    load_sheet,
    save_sheet,
    _BesovArena,
    _besov,
    _besov_arena_shapes,
    _besov_block_rows,
    _besov_root,
    _log_besov_sum,
    _log_weights,
    _increment_tables,
    _logsumexp,
    _node_pairs,
    _row_sumsq,
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


# The slice norms below are references built from the quadrature kernels
# that the space-time norm and the Cameron-Martin sups use.


def slice_tables(rough):
    """A slice's increment tables A^1, A^2 over all node pairs, and the
    pairs' separations."""
    iu, ju, sep = _node_pairs(rough.n_cells)
    (a1,), (a2,) = _increment_tables(rough.level1[None], rough.level2[None], iu, ju)
    return a1, a2, sep


def holder_sup(table, sep, expo):
    """sup over node pairs p of |table[..., p]| / sep[p]^expo."""
    return float(np.max(np.sqrt(_row_sumsq(table)) / sep**expo))


def besov_sum(table, sep, level, alpha, m):
    """Node-pair Riemann sum for the (alpha, m)-Besov norm of one level of a
    slice table; level 2 in the (2*alpha, m/2) convention, whose weight
    (y-x)^-(1+m*alpha) is level 1's.  The mesh is the least separation."""
    return _besov(table, level, m, _log_weights(sep, sep[0], 1.0 + m * alpha))


def slice_holder(rough, level, alpha):
    """sup over grid pairs of |A^level(x,y)| / (y-x)^(level*alpha)."""
    a1, a2, sep = slice_tables(rough)
    return holder_sup(a1 if level == 1 else a2, sep, level * alpha)


def slice_besov(rough, level, alpha, m):
    """The (alpha, m)-Besov Riemann sum of one level of a slice."""
    a1, a2, sep = slice_tables(rough)
    return besov_sum(a1 if level == 1 else a2, sep, level, alpha, m)


def embedding_sides(a, b, alpha, m):
    """Both sides of the two Besov-to-Hoelder embedding inequalities on one
    slice pair: (holder1, besov1, holder2, product_bound).  holder1 is the
    (alpha - 1/m)-Hoelder norm of the level-1 difference and besov1 its
    (alpha, m)-Besov norm; holder2 is the (2*alpha - 2/m)-Hoelder norm of
    the level-2 difference and product_bound the difference Besov norms
    times the sum of all four one-path Besov norms."""
    a1, a2, sep = slice_tables(a)
    b1, b2, _ = slice_tables(b)
    d1, d2 = a1 - b1, a2 - b2
    besov1 = besov_sum(d1, sep, 1, alpha, m)
    paths = sum(
        besov_sum(table, sep, level, alpha, m)
        for table, level in ((a1, 1), (a2, 2), (b1, 1), (b2, 2))
    )
    return (
        holder_sup(d1, sep, alpha - 1.0 / m),
        besov1,
        holder_sup(d2, sep, 2.0 * alpha - 2.0 / m),
        (besov1 + besov_sum(d2, sep, 2, alpha, m)) * paths,
    )


def ratio(num, den):
    """num / den, NaN where den vanishes."""
    return num / den if den > 0 else float("nan")


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
        assert slice_holder(rough, 1, 0.5) == 0.0
        assert slice_holder(rough, 2, 0.5) == 0.0

    def test_linear_level1(self):
        rough = lift_piecewise_linear(linear_slice(6))
        # sup (y-x)/(y-x)^0.5 = sup (y-x)^0.5 = 1 at the full interval.
        assert slice_holder(rough, 1, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_linear_level2(self):
        rough = lift_piecewise_linear(linear_slice(6))
        # A^2 = (y-x)^2/2, so sup A^2/(y-x)^{2*0.5} = 1/2.
        assert slice_holder(rough, 2, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_closed_form_level2_general_alpha(self):
        rough = lift_piecewise_linear(linear_slice(6))
        alpha = 0.4
        # sup (y-x)^{2-2a}/2 attained at y-x = 1.
        assert slice_holder(rough, 2, alpha) == pytest.approx(0.5, rel=1e-12)

    def test_homogeneity_under_dilation(self):
        slice_ = sampled_slice(5, grid_level=6)
        rough = lift_piecewise_linear(slice_)
        scaled = lift_piecewise_linear(
            PathSlice(values=0.5 * slice_.values, grid_level=6)
        )
        for level in (1, 2):
            a = slice_holder(scaled, level, 0.45)
            b = 0.5**level * slice_holder(rough, level, 0.45)
            assert a == pytest.approx(b, rel=1e-13)


class TestBesovNorm:
    def test_constant_is_zero(self):
        values = np.zeros((2**4 + 1, 1))
        rough = lift_piecewise_linear(PathSlice(values=values, grid_level=4))
        assert slice_besov(rough, 1, 0.4, 4.0) == 0.0

    def test_linear_slice_closed_form(self):
        # For a(x) = x, level 1, alpha=0.4, m=4 the integral is
        # iint (y-x)^{4 - 1 - 1.6} dx dy = 1/(2.4 * 3.4); the node-pair
        # Riemann sum converges to its fourth root from above.
        exact = (1.0 / (2.4 * 3.4)) ** 0.25
        vals = []
        for K in (6, 8, 10):
            rough = lift_piecewise_linear(linear_slice(K))
            vals.append(slice_besov(rough, 1, 0.4, 4.0))
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
            if slice_besov(coarse, 1, alpha, m) <= slice_besov(fine, 1, alpha, m) + 1e-6:
                count += 1
        assert count == 100

    def test_level2_uses_half_order(self):
        rough = lift_piecewise_linear(linear_slice(10))
        # A^2 = (y-x)^2/2 pointwise; with (2a, m/2) the integrand is
        # ((y-x)^2/2)^{m/2}/(y-x)^{1+m*alpha}.
        alpha, m = 0.4, 4.0
        val = slice_besov(rough, 2, alpha, m)
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

        space = slice_besov(
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
            slice_besov(rough, 2, 0.4, 8.0)
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
        got = np.sqrt(_row_sumsq(table))
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
        assert np.array_equal(np.sqrt(_row_sumsq(table)), np.sqrt(expected))

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
        # Coarse alone, then fine relative to coarse, then fine alone.  The
        # sum is now taken in log space, so it agrees to rounding, not bit
        # for bit (measured gap <= 4e-16; TestBesovMatchesMpmath gates
        # accuracy).
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
    f1m, f2m = fresh_tables(sheet)
    v = sheet.initial_values
    if relative_to is not None:
        g1m, g2m = fresh_tables(relative_to)
        f1m, f2m = f1m - g1m, f2m - g2m
        v = v - relative_to.initial_values
    times, nt = sheet.times, sheet.n_times
    si, ti = np.triu_indices(nt, k=1)
    dt = (times[-1] - times[0]) / (nt - 1)
    log_wt = _log_weights(times[ti] - times[si], dt, 1.0 + beta * m)
    log1, log2 = [], []
    rows = _besov_block_rows(si.shape[0], sep.shape[0])
    for lo in range(0, si.shape[0], rows):
        block = range(lo, min(lo + rows, si.shape[0]))
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


def fresh_tables(sheet):
    """The sheet's increment tables over all node pairs, in new arrays."""
    iu, ju, _ = _node_pairs(2**sheet.grid_level)
    return _increment_tables(sheet.level1, sheet.level2, iu, ju)


def snapshot(sheet):
    """The sheet's attributes, each array as its bytes."""
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(sheet).items()
    }


class TestRowFusedQuadrature:
    """The row-fused quadrature keeps the bits of the former
    subtract-then-reduce block loop and leaves both sheets alone."""

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

    # n_time=16 gives 136 time pairs, two blocks under the budget below.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [5, 16])
    @pytest.mark.parametrize("alpha, beta, m", [(0.4, 0.04, 30.0), (0.49, 0.004, 300.0)])
    def test_equals_subtract_then_reduce(self, monkeypatch, dim, n_time, alpha, beta, m):
        if n_time == 16:
            two_blocks(monkeypatch)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=n_time, grid_level=5, dim=dim,
            seed=dim,
        )
        sample = sample_field(cfg, 0)
        fine, coarse = lift_level(sample, 4), lift_level(sample, 3)
        for sheet, other in ((fine, None), (fine, coarse)):
            expected = subtract_then_sumsq_besov(sheet, beta, alpha, m, relative_to=other)
            before = [snapshot(sh) for sh in (fine, coarse)]
            norm = spacetime_besov_norm(sheet, beta, alpha, m, relative_to=other)
            assert (norm.initial_value, norm.level1, norm.level2) == expected
            assert np.all(np.isfinite(expected)) and expected[1] > 0
            assert [snapshot(sh) for sh in (fine, coarse)] == before


def two_blocks(monkeypatch):
    """A block budget of 128 time pairs' rows at grid level 5 (528 node
    pairs): n_time=16's 136 time pairs take two blocks, the last short.
    Under the default budget they take one."""
    assert _besov_block_rows(136, 528) == 136
    monkeypatch.setattr(sheets, "_BESOV_BLOCK_BYTES", 128 * 8 * 528)
    assert _besov_block_rows(136, 528) == 128


def nan_arena(n_times, grid_level, dim):
    arena = _BesovArena(n_times, grid_level, dim)
    for buf in arena.slots[0] + arena.slots[1] + arena.gather + (arena.row, arena.block):
        buf.fill(np.nan)
    return arena


class TestBesovArena:
    """Tables, differences and quadrature rows formed in one worker's arena
    have the bits of fresh ones, and the arena reads only the tables of the
    sheet it kept."""

    # A slice is one time; n_time=16 is 17 times.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [0, 4, 16])
    def test_increment_tables_into_buffers(self, dim, n_time):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=max(n_time, 1), grid_level=5,
            dim=dim, seed=dim,
        )
        sheet = lift_level(sample_field(cfg, 0), 3)
        level1, level2 = sheet.level1, sheet.level2
        if n_time == 0:
            level1, level2 = level1[1:2], level2[1:2]
        iu, ju, _ = _node_pairs(32)
        want = _increment_tables(level1, level2, iu, ju)
        arena = nan_arena(level1.shape[0], 5, dim)
        got = _increment_tables(
            level1, level2, iu, ju, out=arena.slots[1], work=arena.gather + (arena.row,)
        )
        assert got[0] is arena.slots[1][0] and got[1] is arena.slots[1][1]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_arena_shapes_hold_tables_rows_and_one_block(self):
        # 3 times and 3 time pairs; 16 * 17 / 2 = 136 node pairs.
        assert _besov_arena_shapes(3, 4, 2) == [
            (3, 2, 136), (3, 4, 136), (3, 2, 136), (3, 4, 136),
            (2, 136), (4, 136), (136,), (3, 136),
        ]
        # The block holds as many time pairs' rows as 1 MiB holds, at
        # least one: all 136 of 17 times at 136 node pairs, 3 of 36 at grid
        # level 8 (32,896 node pairs) and 1 at level 10 (524,800).
        assert _besov_arena_shapes(17, 4, 1)[-1] == (136, 136)
        assert _besov_arena_shapes(9, 8, 2)[-1] == (3, 32896)
        assert _besov_arena_shapes(129, 10, 2)[-1] == (1, 524800)

    # Two replicas walk k upward in one arena, as convergence_study does;
    # n_time=16 takes two blocks.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [5, 16])
    def test_k_walk_equals_fresh_norms(self, monkeypatch, dim, n_time):
        if n_time == 16:
            two_blocks(monkeypatch)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=n_time, grid_level=5, dim=dim,
            seed=dim,
        )
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        arena = nan_arena(n_time + 1, 5, dim)
        for replica in range(2):
            sample = sample_field(cfg, replica)
            coarse = lift_level(sample, 1)
            for k in range(1, 5):
                fine = lift_level(sample, k + 1)
                want = spacetime_besov_norm(
                    lift_level(sample, k + 1), relative_to=lift_level(sample, k), **params
                )
                got = spacetime_besov_norm(fine, relative_to=coarse, work=arena, **params)
                assert got == want
                # The difference overwrote the coarse tables; the fine ones
                # are kept, with the bits of a fresh build.
                fine_tables = fresh_tables(lift_level(sample, k + 1))
                coarse_tables = fresh_tables(lift_level(sample, k))
                assert arena.kept is fine
                difference = arena.slots[1 - arena.held]
                for table, f, g in zip(difference, fine_tables, coarse_tables):
                    assert table.tobytes() == (f - g).tobytes()
                for table, f in zip(arena.slots[arena.held], fine_tables):
                    assert table.tobytes() == f.tobytes()
                # Against itself: the norms are exactly 0, the sheet kept.
                zero = spacetime_besov_norm(fine, relative_to=fine, work=arena, **params)
                assert (zero.initial_value, zero.level1, zero.level2) == (0.0, 0.0, 0.0)
                assert zero == spacetime_besov_norm(fine, relative_to=fine, **params)
                assert arena.kept is fine
                for table, f in zip(arena.slots[arena.held], fine_tables):
                    assert table.tobytes() == f.tobytes()
                # Alone, with the arena keeping it.
                assert spacetime_besov_norm(fine, work=arena, **params) == (
                    spacetime_besov_norm(lift_level(sample, k + 1), **params)
                )
                coarse = fine

    def test_kept_sheet_is_the_last_one_tabulated(self):
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=3, grid_level=4, dim=2, seed=1
        )
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        arena = nan_arena(4, 4, 2)
        first, second, third = (lift_level(sample_field(cfg, r), 4) for r in range(3))
        spacetime_besov_norm(first, work=arena, **params)
        assert arena.kept is first
        # third is not kept: its tables go over first's in the held slot,
        # second's into the other, which the arena then holds for second.
        spacetime_besov_norm(second, relative_to=third, work=arena, **params)
        assert arena.kept is second
        for table, fresh in zip(arena.slots[arena.held], fresh_tables(second)):
            assert table.tobytes() == fresh.tobytes()
        for sheet, r in ((first, 0), (second, 1), (third, 2)):
            want = spacetime_besov_norm(lift_level(sample_field(cfg, r), 4), **params)
            assert spacetime_besov_norm(sheet, **params) == want

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_relative_to_not_kept_is_rebuilt(self, dim):
        # The kept sheet and relative_to share the grid and every time but
        # not their values: reading the kept tables would change the norm.
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=dim, seed=dim
        )
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        arena = nan_arena(5, 5, dim)
        sample, other = sample_field(cfg, 0), sample_field(cfg, 1)
        spacetime_besov_norm(lift_level(sample, 4), work=arena, **params)
        # relative_to is first another sample's lift at the kept sheet's
        # level, then a new lift equal to the sheet kept first, which the
        # first norm's fine lift has replaced.
        for source in (other, sample):
            coarse = lift_level(source, 4)
            assert coarse is not arena.kept
            got = spacetime_besov_norm(
                lift_level(sample, 5), relative_to=coarse, work=arena, **params
            )
            want = spacetime_besov_norm(
                lift_level(sample, 5), relative_to=lift_level(source, 4), **params
            )
            assert got == want

    @pytest.mark.parametrize("kept", [False, True])
    def test_self_difference_is_exactly_zero(self, kept):
        sheet = small_sheet(3, grid_level=4, n_time=5)
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        arena = nan_arena(6, 4, 2)
        if kept:
            spacetime_besov_norm(sheet, work=arena, **params)
        for work in (arena, None):
            zero = spacetime_besov_norm(sheet, relative_to=sheet, work=work, **params)
            assert (zero.initial_value, zero.level1, zero.level2) == (0.0, 0.0, 0.0)

    def test_norm_leaves_its_sheets_alone(self):
        fine, coarse = small_sheet(4, grid_level=4), small_sheet(5, grid_level=4)
        before = [snapshot(sh) for sh in (fine, coarse)]
        arena = nan_arena(7, 4, 2)
        for work in (None, arena, arena):
            spacetime_besov_norm(fine, 0.04, 0.4, 30.0, relative_to=coarse, work=work)
            spacetime_besov_norm(coarse, 0.04, 0.4, 30.0, work=work)
            assert [snapshot(sh) for sh in (fine, coarse)] == before

    def test_interrupted_norm_keeps_no_sheet(self, monkeypatch):
        first, second, third = (small_sheet(seed, grid_level=4) for seed in (6, 7, 8))
        params = dict(beta=0.04, alpha=0.4, m=30.0)
        arena = nan_arena(7, 4, 2)
        spacetime_besov_norm(first, work=arena, **params)
        build = sheets._increment_tables

        def interrupted(level1, *args, **kwargs):
            if level1 is second.level1:
                raise KeyboardInterrupt
            return build(level1, *args, **kwargs)

        # third's tables go over first's, then second's build is cut short.
        monkeypatch.setattr(sheets, "_increment_tables", interrupted)
        with pytest.raises(KeyboardInterrupt):
            spacetime_besov_norm(second, relative_to=third, work=arena, **params)
        monkeypatch.undo()
        assert arena.kept is None
        got = spacetime_besov_norm(second, relative_to=first, work=arena, **params)
        assert got == spacetime_besov_norm(second, relative_to=first, **params)

    def test_arena_of_another_grid_rejected(self):
        sheet = small_sheet(0, grid_level=4, n_time=3)
        with pytest.raises(ValueError, match="Besov arena holds tables of shape"):
            spacetime_besov_norm(sheet, 0.04, 0.4, 30.0, work=_BesovArena(4, 5, 2))


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
                got = slice_besov(rough, level, alpha, m)
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
        # A zero difference gives exactly 0 on both sides of both
        # inequalities, so its ratios are NaN and a study skips them.
        rough = lift_piecewise_linear(sampled_slice(7, grid_level=6))
        holder1, besov1, holder2, bound = embedding_sides(rough, rough, 0.4, 20.0)
        assert holder1 == besov1 == holder2 == bound == 0.0
        assert np.isnan(ratio(holder1, besov1)) and np.isnan(ratio(holder2, bound))

    def test_against_unit_slice_reduces_to_plain_embedding(self):
        rough = lift_piecewise_linear(sampled_slice(8, grid_level=6))
        unit_slice = lift_piecewise_linear(
            PathSlice(values=np.zeros((2**6 + 1, 1)), grid_level=6)
        )
        holder1, besov1, holder2, bound = embedding_sides(rough, unit_slice, 0.4, 20.0)
        # The level-1 sides coincide with the one-path Hoelder/Besov norms.
        assert holder1 == pytest.approx(
            slice_holder(rough, 1, 0.4 - 1.0 / 20.0), rel=1e-12
        )
        assert besov1 == pytest.approx(slice_besov(rough, 1, 0.4, 20.0), rel=1e-12)
        assert ratio(holder1, besov1) > 0 and np.isfinite(ratio(holder2, bound))

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
                holder1, besov1, holder2, bound = embedding_sides(sa, sb, alpha, m)
                r1.append(ratio(holder1, besov1))
                r2.append(ratio(holder2, bound))
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

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw[:-8], "is {short} bytes, expected {size} for 3 times"),
            (lambda raw: raw[:100], "is 100 bytes, expected {size} for 3 times"),
            (lambda raw: raw + b"\0", "is {long} bytes, expected {size} for 3 times"),
            (lambda raw: raw[:20], "is 20 bytes, expected at least 32"),
        ],
        ids=["one-value-short", "truncated-values", "trailing-bytes", "truncated-header"],
    )
    def test_wrong_length_rejected(self, tmp_path, edit, message):
        sheet = small_sheet(6, grid_level=2, n_time=2)
        path = tmp_path / "sheet.bin"
        save_sheet(sheet, str(path))
        raw = path.read_bytes()
        size = len(raw)
        path.write_bytes(edit(raw))
        message = message.format(short=size - 8, long=size + 1, size=size)
        with pytest.raises(ValueError, match=f"sheet cache {message}"):
            load_sheet(str(path))

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
