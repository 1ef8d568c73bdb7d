import hashlib
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
    validate_bound_params,
)
from heatlift.errors import ParameterError
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

    @pytest.mark.parametrize("method", ["theta", "fourier"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["s", "x", "t", "y"])
    def test_nonfinite_argument_named(self, monkeypatch, method, bad, name):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the check")

        monkeypatch.setattr(covariance, "_theta_cov", refuse)
        monkeypatch.setattr(covariance, "_fourier_cov", refuse)
        args = {"s": 0.3, "x": 0.1, "t": np.array([0.5, 0.7]), "y": 0.6}
        args[name] = np.array([0.2, bad]) if name == "t" else bad
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            cov(**args, method=method)

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

    @pytest.mark.parametrize("empty", ["s_values", "x_values"])
    def test_empty_keystone_grid_rejected(self, empty):
        with pytest.raises(ParameterError, match=f"{empty} must hold at least one value"):
            dual_method_check(**{empty: np.empty(0)})

    def test_against_brute_force_quadrature(self):
        mp = pytest.importorskip("mpmath")

        def cov_quad(s, x, t, y):
            total = mp.mpf(0)
            with mp.workdps(20):
                for n in range(-20, 21):
                    q = mp.mpf(x - y - n)
                    total += mp.quad(
                        lambda l: l**-0.5 * mp.exp(-q * q / (4 * l)),
                        [abs(s - t), s + t],
                    )
                return float(total / (4 * mp.sqrt(mp.pi)))

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
    """Reference: the theta route summed at every point, repeats included.
    Takes the arrays cov hands to _theta_cov and returns their broadcast
    shape."""
    s, x, t, y = np.broadcast_arrays(s, x, t, y)
    shape = s.shape
    s, x, t, y = (a.reshape(-1) for a in (s, x, t, y))
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
    return (terms.sum(axis=1) / (4.0 * np.sqrt(np.pi))).reshape(shape)


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
        # Flat points are one shared axis: (1, points, 1) for all four.
        grid = [a[None, :, None] for a in (s, x, t, y)]
        assert covariance._theta_cov(*grid).tobytes() == (
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

    def test_degenerate_grid_rejected(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scanned before validation")

        monkeypatch.setattr(covariance, "_scan_ratios", refuse)
        cases = [
            ("estD2", {"n_time": 0, "n_space": 1, "horizon": 1.0}, "n_time >= 1"),
            ("estD2", {"n_time": 4, "n_space": 1, "horizon": 1.0}, "n_space >= 2"),
            ("estD2", {"n_time": 4, "n_space": 8, "horizon": 0.0}, "horizon > 0"),
            ("kolm_t", {"n_time": -1, "horizon": 1.0}, "n_time >= 1"),
            ("kolm_x", {"t_values": [0.5], "j_max": 0}, "j_max >= 1"),
            ("kolm_x", {"t_values": [], "j_max": 8}, "t_values must hold"),
            (
                "cq1",
                {"n_time": 4, "n_space": 8, "h_divisors": [], "horizon": 1.0},
                "h_divisors must hold",
            ),
            ("estD2", {"n_time": 4, "n_space": 8, "horizon": np.inf}, "horizon must be finite"),
            ("kolm_t", {"n_time": 4, "horizon": np.nan}, "horizon > 0"),
            ("kolm_x", {"t_values": [0.5, np.nan], "j_max": 8}, "t_values must be finite"),
            ("kolm_x", {"t_values": [np.inf], "j_max": 8}, "t_values must be finite"),
            ("kolm_t", {"n_time": np.inf, "horizon": 1.0}, "n_time must be an integer"),
            ("kolm_t", {"n_time": 2.5, "horizon": 1.0}, "n_time must be an integer"),
            ("estD2", {"n_time": True, "n_space": 8, "horizon": 1.0}, "n_time must be an integer"),
            ("kolm_x", {"t_values": [0.5], "j_max": 8.0}, "j_max must be an integer"),
        ]
        for bound_id, grid, named in cases:
            with pytest.raises(ParameterError, match=named):
                bound_scan(bound_id, kappa=0.5, grid=grid)

    @pytest.mark.parametrize(
        "bound_ids, kappa, named",
        [
            ([], 0.5, "bounds must hold at least one bound id"),
            (["kolm_t", "nope"], 0.5, "unknown bound_id 'nope'"),
            (["kolm_t", 5], 0.5, "unknown bound_id 5"),
            (["kolm_t", "cq2"], 1.5, r"kappa must lie in \(0,1\), got 1.5"),
        ],
    )
    def test_bound_list_checked_up_front(self, bound_ids, kappa, named):
        with pytest.raises(ParameterError, match=named):
            validate_bound_params(bound_ids, kappa)

    def test_kappa_ignored_where_not_taken(self):
        validate_bound_params(["kolm_t", "kolm_x"], 1.5)
        assert bound_scan("kolm_t", kappa=1.5).kappa is None

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


def sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


class TestPinnedOracleBits:
    """sha256 of oracle values, taken from the tree before the covariance
    was evaluated on time-pair x offset grids; the grid form kept every bit.
    The Fourier digests hold for numpy's bundled OpenBLAS."""

    SCAN_RATIOS = {
        ("estD2", "base", "fourier"): "d559439c97e133249daf63d23dbc971a1a3f9142304927d75a12b71109025930",
        ("estD2", "base", "theta"): "1f9ebd76b41a1063cbcfb0e1455ad4487e785c714d381a298599e3df698a347f",
        ("estD2", "refined", "fourier"): "4f73dabc2a8b82e655639e1545ec538d144a036eeef3184febcdfc678c5de1d3",
        ("estD2", "refined", "theta"): "4e4e8ad3e860e7c8e7645c3f8bd142d9c10b234d56e6dea53e79daa0b32aac89",
        ("cq1", "base", "fourier"): "417a9be66b6e793ab69eb13d5824f0e6eddfba180a9a5b542e1905bb69e6bcbe",
        ("cq1", "base", "theta"): "0001b77b661e40b820fc79268b48f0bb95e4e8381128f046d73ce27fde06925d",
        ("cq1", "refined", "fourier"): "58d6f1aa60fb60668c5569b885e1d0134d512f12ee44d39eaa4bae8a0eb5478d",
        ("cq1", "refined", "theta"): "5a29cf12bfa2bd8a6f1ca12a558f0c9522d4fe88659f736b95baf7cc19650084",
        ("cq2", "base", "fourier"): "f9e867ecbf01f5219ed3f7546e541eebcb6f1e476000164aaec54842931da9c5",
        ("cq2", "base", "theta"): "9d79a392e062c4b87e03f0f40be3281846bdeb13262a8ffd71e94d88b90f4d1a",
        ("cq2", "refined", "fourier"): "5fa22f9b86759daaa8ec3af2a20e192d8175055a9f526751d3bfbb52e90e17d4",
        ("cq2", "refined", "theta"): "d23dc7e14ec1a934d8931f51cd2e0f6a32a017ba32d8d79a93ba0fb506223cc3",
        ("kolm_t", "base", "fourier"): "4805fd6d68b627221f38cb7b8c84bc19a6af8ac4d0680ed771b5450664ba0333",
        ("kolm_t", "base", "theta"): "a27a66eedf3bc09d6e1a79661d8796b74d89c7648f37c269d9869fe12e01c70e",
        ("kolm_t", "refined", "fourier"): "c77cef3575269148c677ce1128942fa63869d32c8a19be83259dd2e432c34d92",
        ("kolm_t", "refined", "theta"): "d908897511831014b0abf9a7121f92b46d07e3e4f576a66a1e0c9720c994a58e",
        ("kolm_x", "base", "fourier"): "e9b8e1f6e7c64acca04855b47dd73dd56943168b1e7e9e3442370dc8708a3023",
        ("kolm_x", "base", "theta"): "929f8bc25318a40ab6a377ee37de28a18a223887f7ecf3c600b2a4dead3873b4",
        ("kolm_x", "refined", "fourier"): "25dc9210ef317a9281f7f72d63377d5e9c89850fa5967453d924cfa13da26700",
        ("kolm_x", "refined", "theta"): "e1a0ce33439854eef138fbfa7d9bb73f4b72c340c7befff670fc6c6075b33c78",
    }
    DUAL_17 = {
        "theta": "43fcd1c96f4ae3ac73dc31ea563a8fc8ddd98d45358f582fd5961a69ae1af5c2",
        "fourier": "286cfaa74f78fbd283212a68f8f1caaca498c04488e4a1c84893559e5a740fbd",
    }

    @pytest.mark.parametrize("key", sorted(SCAN_RATIOS), ids="/".join)
    def test_scan_ratios(self, key):
        bound_id, which, method = key
        kappa = 0.5 if bound_id in ("estD2", "cq2") else None
        grid = default_scan_grid(bound_id)
        if which == "refined":
            grid = covariance._refine_grid(grid)
        ratios, _ = covariance._scan_ratios(bound_id, kappa, grid, method)
        assert sha(ratios) == self.SCAN_RATIOS[key]

    def test_scalar_fourier_calls(self):
        # A point alone is summed by a one-row product, as before.
        rng = np.random.default_rng(7)
        points = rng.random((4, 256)) * np.array([[1.0], [2.0], [1.0], [2.0]])
        values = [cov(*point, method="fourier") for point in points.T]
        assert sha(values) == (
            "444e6b15b26718f65609467c073c20fcb725c6fe2ea836d9b2656d1a16190f11"
        )

    @pytest.mark.parametrize("method", ["theta", "fourier"])
    def test_dual_check_covariances(self, method):
        sv = np.linspace(0.2, 1.0, 17)
        xv = np.linspace(0.0, 1.0, 17)
        s, t, x, y = np.meshgrid(sv, sv, xv, xv, indexing="ij", sparse=True)
        assert sha(cov(s, x, t, y, method=method)) == self.DUAL_17[method]


# Times with tau = 0, 0 < tau <= _TAU_FLOOR (0.3 against 0.3 + 5e-14), small
# tau whose mode sum runs past 8 terms (0.01 apart), and min(s, t) = 0.
TIMES = np.array([0.0, 0.3, 0.3 + 5e-14, 0.31, 0.32, 0.5, 1e-14, 0.9])
# Offsets inside and outside [0, 1), repeats included.
PLACES = np.array([-0.7, 0.0, 0.25, 0.25, 0.6, 1.3, 2.0])


def per_point(f, *args, **kwargs):
    """f on flat per-point arrays, one offset per row, reshaped back."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = f(*(a.reshape(-1) for a in arrays), **kwargs)
    return np.asarray(flat).reshape(arrays[0].shape)


def assert_same_bits(grid, flat):
    assert np.shape(grid) == flat.shape
    assert np.asarray(grid).tobytes() == flat.tobytes()


ROUTES = [
    {"method": "theta"},
    {"method": "fourier"},
    {"method": "fourier", "n_modes": 16},
]


class TestGridEqualsPerPoint:
    """Column x row and sparse-meshgrid inputs give the bits of the flat
    per-point evaluation of the same points."""

    @pytest.mark.parametrize("route", ROUTES, ids=["theta", "fourier", "truncated"])
    def test_cov_column_by_row(self, route):
        s, t = np.meshgrid(TIMES, TIMES, indexing="ij")
        s, t = s.reshape(-1, 1), t.reshape(-1, 1)
        x, y = np.meshgrid(PLACES, PLACES, indexing="ij")
        x, y = x.reshape(1, -1), y.reshape(1, -1)
        assert_same_bits(cov(s, x, t, y, **route), per_point(cov, s, x, t, y, **route))

    @pytest.mark.parametrize("route", ROUTES, ids=["theta", "fourier", "truncated"])
    def test_cov_sparse_meshgrid(self, route):
        s, t, x, y = np.meshgrid(TIMES, TIMES, PLACES, PLACES, indexing="ij", sparse=True)
        assert_same_bits(cov(s, x, t, y, **route), per_point(cov, s, x, t, y, **route))

    @pytest.mark.parametrize("route", ROUTES, ids=["theta", "fourier", "truncated"])
    def test_cov_mixed_axes(self, route):
        # Axis 0 varies in time only, axis 1 in space only and axis 2 in
        # both; the empty grids return empty arrays of the broadcast shape.
        rng = np.random.default_rng(1)
        s = np.round(rng.random((3, 1, 4)) * 4.0) / 4.0
        x = rng.random((1, 5, 4)) * 3.0 - 1.0
        y = rng.random((5, 1)) * 3.0 - 1.0
        for args in ((s, x, 0.5, y), (s[:0], x, 0.5, y), (s, x[:, :0], 0.5, y[:0])):
            assert_same_bits(cov(*args, **route), per_point(cov, *args, **route))

    def test_cov_long_mode_sums(self):
        # Separations under 0.05 need 8 to 40 modes, where a GEMV row's
        # last bit can follow its place among the rows.
        rng = np.random.default_rng(0)
        times = np.sort(rng.random(12)) * 0.05 + 0.5
        places = rng.random(23) * 3.0 - 1.0
        s, t, x, y = np.meshgrid(times, times, places, places, indexing="ij", sparse=True)
        assert_same_bits(
            cov(s, x, t, y, method="fourier"), per_point(cov, s, x, t, y, method="fourier")
        )

    @pytest.mark.parametrize("route", ROUTES, ids=["theta", "fourier", "truncated"])
    def test_rect_var(self, route):
        s = np.minimum.outer(TIMES, TIMES).reshape(-1, 1)
        t = np.maximum.outer(TIMES, TIMES).reshape(-1, 1)
        x, y = PLACES[None, :], (PLACES + 0.35)[None, :]
        assert_same_bits(
            rect_var(s, x, t, y, **route), per_point(rect_var, s, x, t, y, **route)
        )

    @pytest.mark.parametrize("method", ["theta", "fourier"])
    def test_increment_variances(self, method):
        s, t = TIMES[:, None, None], TIMES[None, :, None]
        x, y = PLACES[None, None, :], PLACES[::-1][None, None, :]
        assert_same_bits(
            time_increment_var(s, t, x, method=method),
            per_point(time_increment_var, s, t, x, method=method),
        )
        assert_same_bits(
            space_increment_var(t, x, y, method=method),
            per_point(space_increment_var, t, x, y, method=method),
        )

    @pytest.mark.parametrize("same_time", [False, True])
    @pytest.mark.parametrize("method", ["theta", "fourier"])
    def test_second_diff_cov(self, method, same_time):
        # Times on the two leading axes; places, gaps and h divisors after.
        s, t = TIMES[:, None, None, None, None], TIMES[None, :, None, None, None]
        gap = np.array([0.1, 0.25, 0.5])[:, None]
        x = PLACES[:, None, None]
        y = x + gap
        h = gap / np.array([2.0, 4.0])
        kwargs = {"same_time": same_time, "method": method}
        assert_same_bits(
            second_diff_cov(s, t, x, y, h, **kwargs),
            per_point(second_diff_cov, s, t, x, y, h, **kwargs),
        )

    @pytest.mark.parametrize("route", ROUTES, ids=["theta", "fourier", "truncated"])
    def test_scalars_stay_floats(self, route):
        point = (0.3, 1.3, 0.3 + 5e-14, -0.7)
        value = cov(*point, **route)
        assert type(value) is float
        assert_same_bits(np.float64(value), per_point(cov, *point, **route))
        value = rect_var(*point, **route)
        assert type(value) is float
        assert_same_bits(np.float64(value), per_point(rect_var, *point, **route))
        for f, args in (
            (time_increment_var, (0.3, 0.5, 1.3)),
            (space_increment_var, (0.5, -0.7, 0.6)),
            (second_diff_cov, (0.3, 0.5, 0.0, 0.25, 0.1)),
        ):
            value = f(*args, method=route["method"])
            assert type(value) is float
            assert_same_bits(np.float64(value), per_point(f, *args, method=route["method"]))


class TestDualCheckArgmax:
    def test_first_point_within_the_floor(self):
        report = dual_method_check()
        sv, xv = np.linspace(0.2, 1.0, 5), np.linspace(0.0, 1.0, 5)
        s, t, x, y = np.meshgrid(sv, sv, xv, xv, indexing="ij")
        gap = np.abs(cov(s, x, t, y, method="theta") - cov(s, x, t, y, method="fourier"))
        assert report["max_abs_discrepancy"] == np.max(gap)
        first = np.flatnonzero(gap >= np.max(gap) - covariance._TIE_FLOOR)[0]
        expected = {k: float(v.flat[first]) for k, v in zip("stxy", (s, t, x, y))}
        assert report["argmax"] == expected

    def test_ties_go_to_the_first_in_c_order(self, monkeypatch):
        # Two real discrepancies that differ by less than the floor: the
        # first in (s, t, x, y) C order is reported, not the larger.
        exact = covariance.cov
        bumps = {(1, 3, 2, 0): 1e-9, (3, 1, 0, 2): 1e-9 + 1e-15, (4, 4, 4, 4): 1e-10}

        def bumped(s, x, t, y, method="theta", n_modes=None):
            out = exact(s, x, t, y, method=method, n_modes=n_modes)
            if method == "theta":
                for index, size in bumps.items():
                    out[index] += size
            return out

        monkeypatch.setattr(covariance, "cov", bumped)
        report = dual_method_check()
        v, p = np.linspace(0.2, 1.0, 5), np.linspace(0.0, 1.0, 5)
        assert report["argmax"] == {"s": v[1], "t": v[3], "x": p[2], "y": p[0]}
        assert report["max_abs_discrepancy"] >= 1e-9 + 1e-15 - 1e-16
