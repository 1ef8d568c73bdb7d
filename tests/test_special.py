"""The numpy special functions against 40-digit mpmath references."""

import math

import numpy as np
import pytest

from heatlift import special
from heatlift.special import erfcx, log_ndtr

mp = pytest.importorskip("mpmath")


def mp_erfcx(x: float) -> float:
    with mp.workdps(40):
        v = mp.mpf(x)
        return float(mp.exp(v * v) * mp.erfc(v))


def max_rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestErfcx:
    def test_accuracy(self):
        edges = [lo for lo, _, _ in special._PIECES] + [special._CF_FROM]
        x = np.concatenate(
            [
                np.linspace(0.0, 40.0, 2000),
                edges,
                np.nextafter(edges[1:], 0.0),
                [1e3, 1e8],
            ]
        )
        assert max_rel(erfcx(x), [mp_erfcx(v) for v in x]) <= 2e-15

    def test_coefficients_are_the_chebyshev_fits(self):
        # Each piece is the fit the module docstring names, rounded to
        # doubles: regenerating it gives the stored coefficients.
        for lo, hi, coeffs in special._PIECES:
            with mp.workdps(40):
                mid, half = mp.mpf(lo + hi) / 2, mp.mpf(hi - lo) / 2
                fit = mp.chebyfit(
                    lambda t: mp.exp((mid + half * t) ** 2) * mp.erfc(mid + half * t),
                    [-1, 1],
                    len(coeffs),
                )
            assert [float(c) for c in fit] == pytest.approx(coeffs, rel=1e-14, abs=1e-30)

    def test_limits_and_domain(self):
        got = erfcx(np.array([0.0, -0.0, np.inf, -1.0, np.nan]))
        assert got[0] == got[1] == 1.0
        assert got[2] == 0.0
        assert np.isnan(got[3]) and np.isnan(got[4])
        # 1/(x sqrt(pi)) is exact to double precision far out.
        assert erfcx(1e200) * 1e200 * math.sqrt(math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_shapes(self):
        assert erfcx(2.5).shape == ()
        assert erfcx(np.zeros((3, 0))).shape == (3, 0)
        grid = np.linspace(0.0, 12.0, 12).reshape(3, 4)
        assert np.array_equal(erfcx(grid), erfcx(grid.ravel()).reshape(3, 4))


class TestLogNdtr:
    def test_accuracy(self):
        z = np.concatenate(
            [np.linspace(-1e3, 0.0, 2001), -np.logspace(-12, 2, 200), [-0.0]]
        )
        with mp.workdps(40):
            want = [
                float(mp.log(mp.erfc(-mp.mpf(v) / mp.sqrt(2)) / 2)) for v in z
            ]
        assert max_rel(log_ndtr(z), want) <= 1e-14

    def test_no_underflow(self):
        # Phi(-1e3) underflows every double; its log does not.
        assert np.isfinite(log_ndtr(-1e3))
        assert float(log_ndtr(0.0)) == pytest.approx(-math.log(2.0), rel=1e-16)
        assert np.isnan(log_ndtr(1.0))
        # Past z = -1.3e154 log Phi itself overflows: -inf, with no
        # floating-point warning (which the suite turns into an error).
        assert np.all(log_ndtr([-1e155, -1e300, -np.inf]) == -np.inf)
