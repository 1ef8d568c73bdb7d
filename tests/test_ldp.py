import numpy as np
import pytest

from heatlift.covariance import cov
from heatlift.ldp import (
    CMControl,
    ModeControl,
    cameron_martin_path,
    chaos_moment_ratio,
    cm_lift_uniform_convergence,
    cm_regularity_check,
    rate_function,
    schilder_point_check,
    tail_probability,
    wilson_interval,
)
from heatlift.sampler import SpectralConfig, mode_rate


def constant_control(mode=0, component=0, value=1.0, horizon=1.0):
    return ModeControl(
        mode=mode,
        component=component,
        breakpoints=(0.0, horizon),
        values=(value,),
    )


def small_config(**kw):
    defaults = dict(
        n_modes=16, time_horizon=1.0, n_time=8, grid_level=5, dim=1, seed=0
    )
    defaults.update(kw)
    return SpectralConfig(**defaults)


class TestControls:
    def test_l2_norm(self):
        ctrl = ModeControl(0, 0, (0.0, 0.5, 1.0), (2.0, 1.0))
        assert ctrl.l2_norm_sq() == pytest.approx(0.5 * 4.0 + 0.5 * 1.0)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            ModeControl(0, 0, (0.0, 0.5, 0.5), (1.0, 1.0))

    def test_duplicate_mode_component_rejected(self):
        with pytest.raises(ValueError):
            CMControl((constant_control(), constant_control()))

    def test_scaling(self):
        ctrl = CMControl((constant_control(value=1.5),))
        assert ctrl.scaled(2.0).h_norm_sq() == pytest.approx(4.0 * ctrl.h_norm_sq())


class TestCameronMartinPath:
    def test_zero_control_zero_path(self):
        cfg = small_config()
        ctrl = CMControl((constant_control(value=0.0),))
        path = cameron_martin_path(ctrl, cfg)
        assert np.all(path.field.values == 0.0)
        assert path.h_norm_sq == 0.0

    def test_mode_zero_integrates_to_time(self):
        # lam = 0: the convolution is plain integration, h_0(t) = t,
        # and the path is constant in x.
        cfg = small_config()
        ctrl = CMControl((constant_control(mode=0, value=1.0),))
        path = cameron_martin_path(ctrl, cfg)
        times = cfg.times()
        for j, t in enumerate(times):
            assert np.allclose(path.field.values[j, :, 0], t, atol=1e-12)
        assert path.h_norm_sq == pytest.approx(1.0)

    def test_mode_one_closed_form(self):
        cfg = small_config()
        ctrl = CMControl((constant_control(mode=1, value=1.0),))
        path = cameron_martin_path(ctrl, cfg)
        lam = float(mode_rate(1))
        times = cfg.times()
        nodes = cfg.nodes()
        expected = (
            (-np.expm1(-lam * times))[:, None]
            / lam
            * (np.sqrt(2.0) * np.cos(2 * np.pi * nodes))[None, :]
        )
        assert np.allclose(path.field.values[:, :, 0], expected, atol=1e-12)

    def test_mode_beyond_cutoff_flagged(self):
        cfg = small_config(n_modes=4)
        ctrl = CMControl((constant_control(mode=9),))
        with pytest.raises(ValueError, match="beyond sampler cutoff"):
            cameron_martin_path(ctrl, cfg)

    def test_breakpoints_off_grid_flagged(self):
        cfg = small_config(n_time=8)
        ctrl = CMControl(
            (ModeControl(0, 0, (0.0, 0.3, 1.0), (1.0, 0.0)),)
        )
        with pytest.raises(ValueError, match="time grid"):
            cameron_martin_path(ctrl, cfg)

    def test_piecewise_constant_control(self):
        # Control switching off halfway: h_0 grows then freezes.
        cfg = small_config()
        ctrl = CMControl((ModeControl(0, 0, (0.0, 0.5, 1.0), (1.0, 0.0)),))
        path = cameron_martin_path(ctrl, cfg)
        values = path.field.values[:, 0, 0]
        times = cfg.times()
        expected = np.minimum(times, 0.5)
        assert np.allclose(values, expected, atol=1e-12)
        assert path.h_norm_sq == pytest.approx(0.5)


class TestRateFunction:
    def test_zero_control(self):
        assert rate_function(CMControl(())) == 0.0

    def test_unit_mode_zero(self):
        ctrl = CMControl((constant_control(),))
        assert rate_function(ctrl) == pytest.approx(0.5)

    def test_additive_across_disjoint_modes(self):
        c1 = CMControl((constant_control(mode=0),))
        c2 = CMControl((constant_control(mode=2, value=-1.3),))
        both = CMControl(c1.controls + c2.controls)
        assert rate_function(both) == pytest.approx(
            rate_function(c1) + rate_function(c2)
        )

    def test_quadratic_scaling_exact_for_dyadic(self):
        ctrl = CMControl((constant_control(value=0.75),))
        assert rate_function(ctrl.scaled(2.0)) == 4.0 * rate_function(ctrl)

    def test_quadratic_scaling_generic(self):
        ctrl = CMControl((constant_control(value=0.75), constant_control(mode=3)))
        lam = 1.7
        assert rate_function(ctrl.scaled(lam)) == pytest.approx(
            lam**2 * rate_function(ctrl), rel=1e-12
        )


class TestRegularityCheck:
    def test_zero_path(self):
        cfg = small_config()
        path = cameron_martin_path(CMControl((constant_control(value=0.0),)), cfg)
        rep = cm_regularity_check(path, q=1.5)
        assert rep.holder_half == 0.0
        assert rep.qvar_surrogate == 0.0

    def test_q_domain(self):
        cfg = small_config()
        path = cameron_martin_path(CMControl((constant_control(),)), cfg)
        for bad_q in (1.2, 2.0, 2.5):
            with pytest.raises(ValueError):
                cm_regularity_check(path, q=bad_q)

    def test_linearity_in_controls(self):
        cfg = small_config(grid_level=6)
        base = CMControl((constant_control(mode=1),))
        doubled = base.scaled(2.0)
        r1 = cm_regularity_check(cameron_martin_path(base, cfg), q=1.5)
        r2 = cm_regularity_check(cameron_martin_path(doubled, cfg), q=1.5)
        assert r2.holder_half == pytest.approx(2.0 * r1.holder_half, rel=1e-12)
        assert r2.qvar_surrogate == pytest.approx(2.0 * r1.qvar_surrogate, rel=1e-12)
        # Normalized reports are scale-free.
        assert r2.holder_half_normalized == pytest.approx(
            r1.holder_half_normalized, rel=1e-12
        )

    def test_single_mode_stable_under_refinement(self):
        values = {}
        for K in (8, 10):
            cfg = small_config(grid_level=K, n_time=4)
            path = cameron_martin_path(CMControl((constant_control(mode=1),)), cfg)
            rep = cm_regularity_check(path, q=1.5)
            values[K] = (rep.holder_half_normalized, rep.qvar_normalized)
        for idx in (0, 1):
            a, b = values[8][idx], values[10][idx]
            assert np.isfinite(a) and np.isfinite(b) and a > 0
            assert abs(b - a) / a <= 0.10


class TestLiftUniformConvergence:
    def test_x_constant_path_lifts_to_unit(self):
        cfg = small_config(grid_level=6)
        path = cameron_martin_path(CMControl((constant_control(mode=0),)), cfg)
        rows = cm_lift_uniform_convergence(path, range(2, 5))
        for row in rows:
            assert row.level1_sup == 0.0
            assert row.level2_sup == 0.0

    def test_level1_prefix_reproduces_path(self):
        # The lift's level-1 prefix at (t, x) is h(t, x) - h(t, 0) exactly.
        from heatlift.dyadic import lift_level

        cfg = small_config(grid_level=6, n_modes=8)
        ctrl = CMControl(
            (constant_control(mode=1), constant_control(mode=-2, value=0.7))
        )
        path = cameron_martin_path(ctrl, cfg)
        sheet = lift_level(path.field, cfg.grid_level)
        expected = path.field.values - path.field.values[:, :1, :]
        assert np.array_equal(sheet.level1, expected)

    def test_single_mode_decay_and_holder_bound(self):
        cfg = small_config(grid_level=9, n_time=4, n_modes=4)
        path = cameron_martin_path(CMControl((constant_control(mode=1),)), cfg)
        rows = cm_lift_uniform_convergence(path, range(2, 9))
        sups = [r.level1_sup for r in rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        holder = cm_regularity_check(path, q=1.5).holder_half
        for row in rows:
            assert row.level1_sup <= 4.0 * holder * 2.0 ** (-row.k / 2.0)
        # level-2 differences decay as well
        sups2 = [r.level2_sup for r in rows]
        assert all(a > b for a, b in zip(sups2, sups2[1:]))


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 < lo < 0.05 < hi < 1.0
        assert type(lo) is float and type(hi) is float

    def test_zero_count_upper_positive(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 0.2
        assert type(lo) is float and type(hi) is float


class TestTailProbability:
    def test_threshold_below_minimum_gives_one(self):
        cfg = small_config(grid_level=5, n_time=4, n_modes=32, dim=2)
        row = tail_probability(1e-9, 1.0, 2, 20, cfg)
        assert row.p_hat == 1.0
        assert not row.zero_count

    def test_astronomical_threshold_gives_zero_with_ci(self):
        cfg = small_config(grid_level=5, n_time=4, n_modes=32, dim=2)
        row = tail_probability(1e6, 1.0, 2, 20, cfg)
        assert row.p_hat == 0.0
        assert row.zero_count
        assert np.isfinite(row.eps2_log)
        assert row.eps2_log < 0

    def test_monotone_in_epsilon_and_level(self):
        # delta small enough that every epsilon keeps a positive count,
        # so the scaled log-probabilities are directly comparable.
        cfg = small_config(grid_level=6, n_time=4, n_modes=64, dim=2)
        delta, m_rep = 0.25, 200
        rows = [
            tail_probability(delta, eps, 2, m_rep, cfg) for eps in (1.0, 0.5, 0.25)
        ]
        assert not any(r.zero_count for r in rows)
        logs = [r.eps2_log for r in rows]
        assert logs[0] >= logs[1] >= logs[2]
        finer = tail_probability(delta, 0.5, 4, m_rep, cfg)
        assert finer.p_hat <= rows[1].p_hat

    def test_replica_guard(self):
        with pytest.raises(ValueError):
            tail_probability(0.5, 1.0, 2, 0, small_config())


class TestChaosMoments:
    def test_gaussian_fourth_moment_ratio(self):
        cfg = small_config(n_modes=64, seed=5)
        rep = chaos_moment_ratio(
            "level1", [2, 3, 4, 6, 8], 30_000, cfg, t=1.0, x=0.0, y=0.5
        )
        assert rep.degree == 1
        assert abs(rep.ratio4 - 3.0**0.25) <= 3.0 * rep.ratio4_stderr

    def test_gaussian_growth_exponent(self):
        cfg = small_config(n_modes=64, seed=6)
        rep = chaos_moment_ratio("level1", [2, 3, 4, 6, 8], 30_000, cfg)
        assert 0.35 <= rep.exponent <= 0.65

    def test_degree_two_growth_exponent(self):
        cfg = small_config(n_modes=64, dim=2, seed=1)
        rep = chaos_moment_ratio("level2", [2, 3, 4, 6, 8], 100_000, cfg)
        assert rep.degree == 2
        assert 0.8 <= rep.exponent <= 1.2

    def test_single_cell_entry_matches_product_ratio(self):
        # Over one cell the off-diagonal entry is (Delta^0 Delta^1)/2 with
        # independent Gaussian factors, so ||Z||_4/||Z||_2 = sqrt(3).
        cfg = small_config(n_modes=64, dim=2, seed=9)
        rep = chaos_moment_ratio("level2", [2, 4], 50_000, cfg)
        assert abs(rep.ratio4 - np.sqrt(3.0)) <= 3.0 * rep.ratio4_stderr

    def test_degenerate_functional_reports_empty(self):
        cfg = small_config(n_modes=16, seed=8)
        rep = chaos_moment_ratio("level1", [2, 4], 100, cfg, x=0.25, y=0.25)
        assert rep.empty

    def test_low_moment_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            chaos_moment_ratio("level1", [1.5, 2.0], 100, cfg)

    def test_level2_needs_two_components(self):
        cfg = small_config(dim=1)
        with pytest.raises(ValueError):
            chaos_moment_ratio("level2", [2, 4], 100, cfg)


class TestSchilder:
    def test_zero_threshold_gives_half(self):
        rep = schilder_point_check(1.0, 0.0, 0, 0.0, [0.5, 0.25, 0.125])
        for row in rep.rows:
            assert row.probability == pytest.approx(0.5, rel=1e-12)
        # eps^2 log(1/2) tends to zero with eps.
        assert abs(rep.rows[-1].eps2_log) < abs(rep.rows[0].eps2_log)

    def test_limit_value_and_gap(self):
        sigma_sq = cov(1.0, 0.0, 1.0, 0.0, method="fourier")
        a = np.sqrt(sigma_sq)
        rep = schilder_point_check(1.0, 0.0, 0, a, [0.5, 0.25, 0.125])
        assert rep.limit == pytest.approx(-0.5, rel=1e-12)
        logs = [row.eps2_log for row in rep.rows]
        # Monotone toward the limit, always from below.
        assert logs[0] < logs[1] < logs[2] < rep.limit
        gap = abs(logs[-1] - rep.limit) / abs(rep.limit)
        assert gap <= 0.15

    def test_degenerate_time_rejected(self):
        with pytest.raises(ValueError):
            schilder_point_check(0.0, 0.0, 0, 1.0, [0.5])
