import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlift import covariance
from heatlift.covariance import (
    bound_scan,
    cov,
    default_scan_grid,
    dist_s1,
    dual_method_check,
    rect_var,
    second_diff_cov,
    space_increment_var,
    time_increment_var,
)
from heatlift.sampler import mode_rate

# Shared value of both formulas at (s,t,x,y) = (0.3, 0.7, 0.1, 0.6),
# cross-checked once against direct quadrature of the wrapped heat
# kernel integral.
REGRESSION_POINT = (0.3, 0.1, 0.7, 0.6)
REGRESSION_VALUE = 0.299999996488144


class TestCov:
    def test_zero_time_kills_covariance(self):
        assert cov(0.0, 0.3, 0.7, 0.9) == 0.0
        assert cov(0.5, 0.3, 0.0, 0.9) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            cov(-0.1, 0.0, 0.5, 0.0)

    def test_theta_rejects_truncation(self):
        with pytest.raises(ValueError):
            cov(0.5, 0.0, 0.5, 0.0, method="theta", n_modes=16)

    def test_symmetry_in_arguments(self):
        s, x, t, y = 0.4, 0.15, 0.9, 0.8
        for method in ("theta", "fourier"):
            a = cov(s, x, t, y, method=method)
            b = cov(t, y, s, x, method=method)
            assert abs(a - b) <= 1e-12

    def test_translation_invariance(self):
        s, x, t, y = 0.4, 0.15, 0.9, 0.8
        for method in ("theta", "fourier"):
            a = cov(s, x, t, y, method=method)
            b = cov(s, x + 0.21, t, y + 0.21, method=method)
            assert abs(a - b) <= 1e-12

    def test_periodicity_and_reflection(self):
        s, x, t, y = 0.3, 0.1, 0.8, 0.45
        a = cov(s, x, t, y)
        assert abs(cov(s, x + 1.0, t, y + 1.0) - a) <= 1e-10
        assert abs(cov(s, -x, t, -y) - a) <= 1e-10

    def test_regression_point(self):
        a = cov(*REGRESSION_POINT, method="theta")
        b = cov(*REGRESSION_POINT, method="fourier")
        assert abs(a - b) <= 1e-8
        assert a == pytest.approx(REGRESSION_VALUE, abs=1e-12)

    def test_dual_methods_agree_on_keystone_grid(self):
        report = dual_method_check()
        assert report["grid_points"] == 625
        assert report["max_abs_discrepancy"] <= 1e-8

    def test_against_brute_force_quadrature(self):
        from scipy.integrate import quad

        def cov_quad(s, x, t, y):
            total = 0.0
            for n in range(-20, 21):
                q = x - y - n
                val, _ = quad(
                    lambda l: l**-0.5 * np.exp(-q * q / (4.0 * l)),
                    abs(s - t),
                    s + t,
                    limit=200,
                )
                total += val
            return total / (4.0 * np.sqrt(np.pi))

        for point in [(0.3, 0.1, 0.7, 0.6), (0.5, 0.2, 0.5, 0.9)]:
            reference = cov_quad(*point)
            assert cov(*point, method="theta") == pytest.approx(reference, abs=1e-10)
            assert cov(*point, method="fourier") == pytest.approx(reference, abs=1e-10)

    @pytest.mark.parametrize(
        "s, x, t, y",
        [
            (0.3, 0.1, 0.3 + 1e-14, 0.1),
            (0.3, 0.1, 0.3 + 1e-14, 0.1 + 1e-7),
            (1e-14, 0.0, 2e-14, 0.0),
            (0.7, 0.25, 0.7 + 5e-14, 0.9),
        ],
    )
    def test_routes_agree_below_series_floor(self, s, x, t, y):
        # |t - s| below the floor where the mode sum is replaced by its
        # closed form: the routes agree to rounding, not to sqrt(|t - s|).
        fourier = cov(s, x, t, y, method="fourier")
        assert abs(fourier - cov(s, x, t, y, method="theta")) <= 1e-15

    def test_truncated_fourier_monotone_in_cutoff(self):
        full = cov(0.5, 0.0, 0.5, 0.0, method="fourier")
        partial = [
            cov(0.5, 0.0, 0.5, 0.0, method="fourier", n_modes=n) for n in (4, 16, 64)
        ]
        assert partial[0] < partial[1] < partial[2] < full

    def test_broadcasting(self):
        s = np.array([0.2, 0.4])
        out = cov(s, 0.0, 0.8, 0.3)
        assert out.shape == (2,)


def theta_cov_every_point(s, x, t, y) -> np.ndarray:
    """Reference: the theta route summed at every point, repeats included."""
    l0 = np.abs(s - t)
    l1 = s + t
    delta = x - y
    delta = delta - np.round(delta)
    if l1.size:
        need = int(
            np.ceil(1.0 + np.sqrt(4.0 * float(np.max(l1)) * covariance._LOG_CUTOFF))
        )
    else:
        need = 1
    window = min(covariance._THETA_WINDOW, max(2, need))
    offsets = np.arange(-window, window + 1)
    q = np.abs(delta[:, None] - offsets[None, :])
    antideriv = covariance._antideriv
    terms = antideriv(q, l1[:, None]) - antideriv(q, l0[:, None])
    return terms.sum(axis=1) / (4.0 * np.sqrt(np.pi))


def grid_points(n):
    v = np.linspace(0.0, 1.0, n)
    return np.meshgrid(v, v, v, v, indexing="ij")  # s, t, x, y


class TestThetaDistinctTriples:
    """The theta route sums each distinct (|s-t|, s+t, recentred x-y) once
    and scatters the sums back: the values are those of the sum over every
    point, byte for byte."""

    @staticmethod
    def assert_same_as_every_point(monkeypatch, s, x, t, y):
        deduplicated = cov(s, x, t, y, method="theta")
        with monkeypatch.context() as m:
            m.setattr(covariance, "_theta_cov", theta_cov_every_point)
            reference = cov(s, x, t, y, method="theta")
        assert type(deduplicated) is type(reference)
        assert np.asarray(deduplicated).tobytes() == np.asarray(reference).tobytes()

    def test_oracle_grid(self, monkeypatch):
        s, t, x, y = grid_points(17)
        self.assert_same_as_every_point(monkeypatch, s, x, t, y)

    @pytest.mark.parametrize("repeats", [False, True])
    def test_random_points(self, monkeypatch, repeats):
        rng = np.random.default_rng(5)
        points = rng.random((4, 2000)) * np.array([[2.0], [3.0], [2.0], [3.0]])
        if repeats:
            points[:, 1000:] = points[:, rng.integers(0, 1000, size=1000)]
        s, x, t, y = points
        self.assert_same_as_every_point(monkeypatch, s, x, t, y)

    def test_signed_zeros(self, monkeypatch):
        # -0.0 == 0.0, so the two share a triple; either must give the
        # bits of the other.
        s = np.array([0.0, -0.0, 0.5, 0.5, -0.0, 0.3, 0.3, 0.3])
        t = np.array([-0.0, 0.0, 0.5, 0.5, 0.7, 0.3, 0.3, 0.3])
        x = np.array([0.2, 0.2, 0.0, -0.0, 0.1, -0.0, 0.0, 1.0])
        y = np.array([0.2, 0.2, -0.0, 0.0, 0.4, 0.0, -0.0, 0.0])
        self.assert_same_as_every_point(monkeypatch, s, x, t, y)
        assert np.asarray(covariance._theta_cov(s, x, t, y)).tobytes() == (
            theta_cov_every_point(s, x, t, y).tobytes()
        )

    def test_empty_and_scalar(self, monkeypatch):
        self.assert_same_as_every_point(monkeypatch, np.empty(0), 0.3, 0.5, 0.1)
        self.assert_same_as_every_point(monkeypatch, 0.4, 0.15, 0.9, 0.8)

    def test_antiderivative_rows_are_distinct_triples(self, monkeypatch):
        s, t, x, y = (a.reshape(-1) for a in grid_points(17))
        delta = (x - y) - np.round(x - y)
        triples = set(zip(np.abs(s - t).tolist(), (s + t).tolist(), delta.tolist()))
        rows = []
        antideriv = covariance._antideriv

        def counting(q, l):
            rows.append(q.shape[0])
            return antideriv(q, l)

        monkeypatch.setattr(covariance, "_antideriv", counting)
        cov(s, x, t, y, method="theta")
        assert s.size == 17**4
        assert len(triples) == 153 * 17
        assert rows == [len(triples)] * 2


class TestRectVar:
    def test_degenerate_space(self):
        assert rect_var(0.2, 0.4, 0.7, 0.4) == 0.0

    def test_degenerate_time(self):
        assert rect_var(0.5, 0.1, 0.5, 0.9) == 0.0

    def test_methods_agree(self):
        a = rect_var(0.2, 0.1, 0.5, 0.4, method="theta")
        b = rect_var(0.2, 0.1, 0.5, 0.4, method="fourier")
        assert a == pytest.approx(b, abs=1e-10)

    def test_monte_carlo_cross_validation(self):
        # Exact two-time mode simulation: psi_hat(s) ~ N(0, v(s)), then
        # the exact OU transition to t; assemble at x and y and compare
        # the rectangle increment's second moment with the oracle.
        s, x, t, y = 0.2, 0.1, 0.5, 0.4
        n_rep, n_modes = 20_000, 128
        rng = np.random.default_rng(321)
        order = np.array([0] + [m for n in range(1, n_modes + 1) for m in (n, -n)])
        lam = mode_rate(np.abs(order))

        def ou_var(duration):
            out = np.full(lam.shape, duration)
            pos = lam > 0
            out[pos] = -np.expm1(-2 * lam[pos] * duration) / (2 * lam[pos])
            return out

        var_s = ou_var(s)
        decay = np.exp(-lam * (t - s))
        var_step = ou_var(t - s)
        coeff_s = rng.standard_normal((n_rep, order.size)) * np.sqrt(var_s)
        coeff_t = coeff_s * decay + rng.standard_normal(
            (n_rep, order.size)
        ) * np.sqrt(var_step)

        def basis_vec(pos):
            out = np.ones(order.size)
            pos_mask = order > 0
            neg_mask = order < 0
            out[pos_mask] = np.sqrt(2.0) * np.cos(2 * np.pi * order[pos_mask] * pos)
            out[neg_mask] = np.sqrt(2.0) * np.sin(-2 * np.pi * order[neg_mask] * pos)
            return out

        bx, by = basis_vec(x), basis_vec(y)
        incr = (coeff_t - coeff_s) @ (by - bx)
        sq = incr**2
        emp, se = sq.mean(), sq.std(ddof=1) / np.sqrt(n_rep)
        oracle = rect_var(s, x, t, y, method="fourier", n_modes=n_modes)
        assert abs(emp - oracle) <= 4.0 * se

    def test_sanity_envelope(self):
        # D <= 2 (E|space increment at t|^2 + E|space increment at s|^2).
        rng = np.random.default_rng(2)
        for _ in range(50):
            s, t = np.sort(rng.uniform(0.05, 1.0, size=2))
            x, y = np.sort(rng.uniform(0.0, 1.0, size=2))
            lhs = rect_var(s, x, t, y)
            rhs = 2.0 * (
                space_increment_var(t, x, y) + space_increment_var(s, x, y)
            )
            assert lhs <= rhs + 1e-12


    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=16,
        ),
        st.sampled_from(["fourier", "theta"]),
    )
    def test_nonnegative_on_random_grids(self, points, method):
        s, x, t, y = (np.asarray(c) for c in zip(*points))
        out = rect_var(np.minimum(s, t), x, np.maximum(s, t), y, method=method)
        assert np.all(out >= 0.0)

    def test_tiny_times_stay_nonnegative(self):
        # Time separation just below the series floor while s + t lies just
        # above it: the two regimes must agree to rounding, or the ten
        # covariances leave an error of order sqrt(t) ~ 1e-7.
        out = rect_var(1.1470623235402315e-22, 0.5, 1e-13, 0.0, method="fourier")
        theta = rect_var(1.1470623235402315e-22, 0.5, 1e-13, 0.0, method="theta")
        assert out >= 0.0
        assert out == pytest.approx(theta, rel=1e-6)

    def test_subnormal_time_raises_no_warning(self):
        # q^2 / (4 l) overflows for subnormal l; exp(-inf) = 0 is the
        # right limit, so the value stands and no warning escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = rect_var(0.0, 0.1, 1e-310, 0.6, method="theta")
        assert value == 7.978845608028642e-156


class TestSecondDiffCov:
    def test_equal_times_vanish(self):
        assert second_diff_cov(0.4, 0.4, 0.0, 0.3, 0.05) == 0.0

    def test_block_swap_symmetry(self):
        # Swapping the two increment sites leaves the value unchanged.
        a = second_diff_cov(0.1, 0.4, 0.0, 0.3, 0.05)
        b = second_diff_cov(0.1, 0.4, 0.0 + 0.7, 0.3 + 0.7, 0.05)
        # Translation invariance moves site x to y's neighbourhood.
        assert a == pytest.approx(b, abs=1e-12)

    def test_separation_hypothesis_named(self):
        with pytest.raises(ValueError, match="2h <= y-x violated"):
            second_diff_cov(0.1, 0.4, 0.0, 0.1, 0.2)
        with pytest.raises(ValueError, match="y-x <= 1/2 violated"):
            second_diff_cov(0.1, 0.4, 0.0, 0.8, 0.05)

    def test_same_time_under_cq1_constant(self):
        report = bound_scan("cq1")
        value = second_diff_cov(
            0.0, 0.4, 0.0, 0.3, 0.05, same_time=True
        )
        assert abs(value) * 0.3 / 0.05**2 <= report.max_ratio * (1 + 1e-9)


class TestBoundScans:
    @pytest.mark.parametrize(
        "bound_id", ["estD2", "cq1", "cq2", "kolm_t", "kolm_x"]
    )
    def test_scan_stable_under_refinement(self, bound_id):
        report = bound_scan(bound_id, kappa=0.5)
        assert np.isfinite(report.max_ratio)
        assert not report.diverged
        assert abs(report.refinement_ratio - 1.0) <= 0.10
        assert report.argmax

    def test_kolm_x_example_grid(self):
        report = bound_scan(
            "kolm_x", grid={"t_values": [0.25, 0.5, 1.0], "j_max": 8}
        )
        assert np.isfinite(report.max_ratio)
        assert abs(report.refinement_ratio - 1.0) <= 0.10

    def test_estD2_respects_kappa_domain(self):
        with pytest.raises(ValueError):
            bound_scan("estD2", kappa=1.5)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            bound_scan("nope")

    def test_degenerate_grid_flags_empty(self):
        report = bound_scan(
            "estD2", kappa=0.5, grid={"n_time": 0, "n_space": 1, "horizon": 1.0}
        )
        assert report.empty
        assert np.isnan(report.max_ratio)

    def test_scan_quantities_periodic_and_reflection_invariant(self):
        s, t, delta = 0.25, 0.75, 0.2
        base = rect_var(s, 0.0, t, delta)
        assert rect_var(s, 1.0, t, 1.0 + delta) == pytest.approx(base, abs=1e-10)
        assert rect_var(s, 0.0, t, -delta) == pytest.approx(base, abs=1e-10)
        assert dist_s1(0.0, delta) == dist_s1(1.0, 1.0 + delta)

    def test_kolm_increment_bounds_shape(self):
        # E|psi(t,x)-psi(s,x)|^2 / sqrt(t-s) and E|psi(t,x)-psi(t,y)|^2 /
        # dist(x,y) stay bounded right down to fine scales.
        ratios_t = [
            time_increment_var(0.5, 0.5 + 2.0**-j, 0.0) / np.sqrt(2.0**-j)
            for j in range(2, 10)
        ]
        ratios_x = [
            space_increment_var(0.5, 0.0, 2.0**-j) / 2.0**-j for j in range(2, 10)
        ]
        assert max(ratios_t) < 2.0
        assert max(ratios_x) < 2.0


class TestDistS1:
    def test_wraps(self):
        assert dist_s1(0.0, 0.75) == pytest.approx(0.25)
        assert dist_s1(0.1, 0.9) == pytest.approx(0.2)
        assert dist_s1(0.3, 0.3) == 0.0
