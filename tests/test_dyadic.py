import math
import re

import numpy as np
import pytest

from heatlift import dyadic
from heatlift.dyadic import (
    ConvergenceTable,
    _gap_sup,
    _level1_sup,
    _level2_sup,
    _sibling_products,
    convergence_study,
    level2_telescope,
    lift_level,
    restrict_values,
    validate_besov_params,
)
from heatlift.errors import ParameterError
from heatlift.sampler import FieldSample, GridTooLargeError, SpectralConfig, sample_field
from heatlift.sheets import (
    PathSlice, dilate_sheet, dist_infty, increment, lift_piecewise_linear,
    spacetime_besov_norm,
)


def make_sample(seed=0, grid_level=6, n_time=6, dim=2, n_modes=64):
    cfg = SpectralConfig(
        n_modes=n_modes,
        time_horizon=1.0,
        n_time=n_time,
        grid_level=grid_level,
        dim=dim,
        seed=seed,
    )
    return sample_field(cfg, 0)


class TestPolygonalRestrict:
    def test_full_level_is_identity(self):
        sample = make_sample()
        K = sample.config.grid_level
        restricted = restrict_values(sample.values, K, K)
        assert np.array_equal(restricted, sample.values)

    def test_rejects_excess_level(self):
        sample = make_sample(grid_level=4)
        with pytest.raises(ParameterError):
            restrict_values(sample.values, 4, 5)

    def test_rejects_negative_level(self):
        # k = -1 would interpolate node 0 against node 2^K with weight
        # j / 2^(K+1); lift_level goes through the same check.
        sample = make_sample(grid_level=4)
        named = "0 <= k <= grid_level violated: k=-1, grid_level=4"
        with pytest.raises(ParameterError, match=named):
            restrict_values(sample.values, 4, -1)
        with pytest.raises(ParameterError, match=named):
            lift_level(sample, -1)

    def test_linear_field_unchanged(self):
        cfg = SpectralConfig(
            n_modes=4, time_horizon=1.0, n_time=3, grid_level=5, dim=1, seed=0
        )
        x = cfg.nodes()
        slopes = np.array([0.0, 1.0, -2.0, 0.5])
        values = slopes[:, None, None] * x[None, :, None]
        sample = FieldSample(values=values, config=cfg, replica=0)
        for k in range(0, 6):
            restricted = restrict_values(sample.values, 5, k)
            assert np.allclose(restricted, values, atol=1e-14)

    def test_midpoint_identity_exact(self):
        sample = make_sample(grid_level=6)
        k = 3
        restricted = restrict_values(sample.values, 6, k)
        stride = 2 ** (6 - k)
        for j in range(1, 2**k + 1):
            mid = (2 * j - 1) * stride // 2
            left = sample.values[:, (j - 1) * stride, :]
            right = sample.values[:, j * stride, :]
            assert np.array_equal(restricted[:, mid, :], 0.5 * (left + right))

    def test_kept_nodes_exact(self):
        sample = make_sample(grid_level=6)
        restricted = restrict_values(sample.values, 6, 2)
        stride = 2**4
        assert np.array_equal(restricted[:, ::stride, :], sample.values[:, ::stride, :])


class TestLiftLevel:
    def test_zero_field_lifts_to_unit_sheet(self):
        cfg = SpectralConfig(
            n_modes=4, time_horizon=1.0, n_time=3, grid_level=4, dim=2, seed=0
        )
        zero = FieldSample(np.zeros((4, 17, 2)), cfg, 0)
        sheet = lift_level(zero, 2)
        assert np.all(sheet.level1 == 0) and np.all(sheet.level2 == 0)
        assert np.all(sheet.initial_values == 0)

    def test_matches_slice_lift(self):
        # A time row restricted and lifted alone has the bits of that row
        # of the sheet's restriction and lift, at every level and time.
        for dim in (1, 2, 3):
            sample = make_sample(seed=5, dim=dim)
            K = sample.config.grid_level
            for k in range(K + 1):
                sheet = lift_level(sample, k)
                stack = restrict_values(sample.values, K, k)
                for t_index in range(sample.config.n_time + 1):
                    row = restrict_values(sample.values[t_index], K, k)
                    assert np.array_equal(row, stack[t_index])
                    assert np.array_equal(np.signbit(row), np.signbit(stack[t_index]))
                    direct = lift_piecewise_linear(PathSlice(values=row, grid_level=K))
                    assert np.array_equal(sheet.level1[t_index], direct.level1)
                    assert np.array_equal(sheet.level2[t_index], direct.level2)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_broadcast_weights_keep_the_bits(self, dim, lead):
        # The weights are built as wide as the trailing axis; the products
        # keep the bits of a (nodes, 1) weight column broadcast over it.
        K = 5
        values = np.random.default_rng(dim).standard_normal(lead + (2**K + 1, dim))
        values[..., ::3, :] *= -1e-300  # tiny and signed-zero products
        for k in range(K):
            stride = 2 ** (K - k)
            q, r = np.divmod(np.arange(2**K + 1), stride)
            w = (r.astype(float) / stride)[:, None]
            right = values[..., np.minimum((q + 1) * stride, 2**K), :] * w
            want = values[..., np.minimum(q * stride, 2**K), :] * (1.0 - w) + right
            assert restrict_values(values, K, k).tobytes() == want.tobytes()

    def test_initial_value_path_attached(self):
        sample = make_sample(seed=6)
        for k in (2, 4):
            sheet = lift_level(sample, k)
            assert np.array_equal(sheet.initial_values, sample.values[:, 0, :])

    def test_dilation_equivariance_dyadic_scale_exact(self):
        sample = make_sample(seed=7)
        eps = 0.5
        scaled = FieldSample(eps * sample.values, sample.config, sample.replica)
        a = lift_level(scaled, 3)
        b = dilate_sheet(eps, lift_level(sample, 3))
        assert np.array_equal(a.level1, b.level1)
        assert np.array_equal(a.level2, b.level2)
        assert np.array_equal(a.initial_values, b.initial_values)

    def test_dilation_equivariance_generic_scale(self):
        sample = make_sample(seed=8)
        eps = 0.7317
        scaled = FieldSample(eps * sample.values, sample.config, sample.replica)
        a = lift_level(scaled, 4)
        b = dilate_sheet(eps, lift_level(sample, 4))
        scale1 = np.max(np.abs(b.level1))
        scale2 = np.max(np.abs(b.level2))
        assert np.max(np.abs(a.level1 - b.level1)) <= 1e-14 * scale1
        assert np.max(np.abs(a.level2 - b.level2)) <= 1e-14 * scale2


class TestTelescope:
    def test_empty_interval_is_zero(self):
        sample = make_sample(seed=9)
        out = level2_telescope(sample.values[2], sample.config.grid_level, 3, 5, 5)
        assert np.all(out == 0)

    def test_diagonal_entries_vanish(self):
        sample = make_sample(seed=10)
        out = level2_telescope(sample.values[1], sample.config.grid_level, 4, 2, 11)
        assert np.all(np.diagonal(out) == 0.0)

    def test_matches_direct_lift_difference(self):
        sample = make_sample(seed=11, grid_level=6)
        k, t_index, i_node, j_node = 4, 5, 2, 11
        closed = level2_telescope(sample.values[t_index], 6, k, i_node, j_node)
        stride = 2 ** (6 - k)
        fine = lift_level(sample, k + 1).slice(t_index)
        coarse = lift_level(sample, k).slice(t_index)
        direct = (
            increment(fine, i_node * stride, j_node * stride).level2
            - increment(coarse, i_node * stride, j_node * stride).level2
        )
        assert np.max(np.abs(closed - direct)) <= 1e-12

    def test_many_random_cases(self):
        rng = np.random.default_rng(42)
        for case in range(20):
            sample = make_sample(seed=100 + case, grid_level=6)
            k = int(rng.integers(2, 6))
            t_index = int(rng.integers(0, 7))
            i_node = int(rng.integers(0, 2**k))
            j_node = int(rng.integers(i_node + 1, 2**k + 1))
            closed = level2_telescope(sample.values[t_index], 6, k, i_node, j_node)
            stride = 2 ** (6 - k)
            fine = lift_level(sample, k + 1).slice(t_index)
            coarse = lift_level(sample, k).slice(t_index)
            direct = (
                increment(fine, i_node * stride, j_node * stride).level2
                - increment(coarse, i_node * stride, j_node * stride).level2
            )
            assert np.max(np.abs(closed - direct)) <= 1e-12

    def test_index_bounds(self):
        sample = make_sample(seed=12)
        with pytest.raises(IndexError):
            level2_telescope(sample.values[0], sample.config.grid_level, 3, 5, 3)

    @pytest.mark.parametrize("k", [-1, -2, 1.5, True])
    @pytest.mark.parametrize(
        "reduce",
        [
            lambda v, K, k: level2_telescope(v[0], K, k, 0, 0),
            _level1_sup,
            _level2_sup,
        ],
        ids=["telescope", "level1_sup", "level2_sup"],
    )
    def test_bad_level_refused(self, reduce, k):
        # Negative levels once read a zero matrix, 1.5 a TypeError and True
        # level 1.
        sample = make_sample(seed=12)
        with pytest.raises(ParameterError, match=r"k >= 0 violated|k must be an integer"):
            reduce(sample.values, sample.config.grid_level, k)

    def test_level1_difference_vanishes_at_coarse_nodes(self):
        sample = make_sample(seed=13)
        k = 3
        coarse = restrict_values(sample.values, 6, k)
        finer = restrict_values(sample.values, 6, k + 1)
        stride = 2 ** (6 - k)
        gap = finer[:, ::stride, :] - coarse[:, ::stride, :]
        assert np.max(np.abs(gap)) == 0.0


def level1_sup_loop(values, grid_level, k):
    """Reference: |psi(k+1) - psi(k)| at one time and one level-(k+1)
    midpoint at a time, the norm summed in Python in component order."""
    stride = 2 ** (grid_level - (k + 1))
    worst = 0.0
    for row in values:
        for j in range(1, 2 ** (k + 1), 2):
            left, right = row[(j - 1) * stride], row[(j + 1) * stride]
            gap = row[j * stride] - 0.5 * (left + right)
            worst = max(worst, math.sqrt(sum(float(g) ** 2 for g in gap)))
    return worst


def level2_sup_loop(values, grid_level, k):
    """Reference: one telescoping prefix spread per time index."""
    worst = 0.0
    for row in values:
        w = _sibling_products(row, grid_level, k)
        prefix = np.concatenate(
            [np.zeros((1,) + w.shape[1:]), np.cumsum(w, axis=0)], axis=0
        )
        spread = prefix.max(axis=0) - prefix.min(axis=0)
        worst = max(worst, 0.5 * float(spread.max()))
    return worst


def stacked_fields(seed, grid_level, dim, replicas=6, n_time=5):
    cfg = SpectralConfig(
        n_modes=64, time_horizon=1.0, n_time=n_time, grid_level=grid_level,
        dim=dim, seed=seed,
    )
    return np.stack([sample_field(cfg, r).values for r in range(replicas)])


class TestBlockedSups:
    """Both sup levels reduce a stack of fields at once, one maximum per
    field; each must equal its loop reference over that field alone."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_level", [4, 7])
    # 4 does not divide the 6 replicas: the last block holds 2.
    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_blocks_equal_loop_references(self, dim, grid_level, block):
        stack = stacked_fields(20 + dim, grid_level, dim)
        for k in range(grid_level):
            for lo in range(0, stack.shape[0], block):
                values = stack[lo : lo + block]
                level1 = _level1_sup(values, grid_level, k)
                level2 = _level2_sup(values, grid_level, k)
                assert level1.shape == level2.shape == (values.shape[0],)
                for i, field in enumerate(values):
                    assert level1[i] == level1_sup_loop(field, grid_level, k)
                    assert level2[i] == level2_sup_loop(field, grid_level, k)

    def test_one_field_without_leading_axis(self):
        field = stacked_fields(24, 5, 2, replicas=1)[0]
        for k in range(5):
            assert _level1_sup(field, 5, k).shape == ()
            assert float(_level1_sup(field, 5, k)) == level1_sup_loop(field, 5, k)

    def test_rejects_level1_without_headroom(self):
        stack = stacked_fields(23, 4, 2, replicas=2)
        with pytest.raises(ParameterError, match="need grid level >= 5, have 4"):
            _level1_sup(stack, 4, 4)


class TestLevel2Sup:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_level", [4, 7])
    def test_equals_per_time_loop(self, dim, grid_level):
        for seed in (20, 21):
            sample = make_sample(seed=seed, grid_level=grid_level, n_time=5, dim=dim)
            values = sample.values
            for k in range(grid_level):
                assert _level2_sup(values, grid_level, k) == level2_sup_loop(
                    values, grid_level, k
                )

    def test_scalar_field_is_zero(self):
        sample = make_sample(seed=22, dim=1)
        assert _level2_sup(sample.values, 6, 3) == 0.0

    def test_rejects_level_without_headroom(self):
        sample = make_sample(seed=23, grid_level=4)
        with pytest.raises(ParameterError, match="need grid level >= 5, have 4"):
            _level2_sup(sample.values, 4, 4)


class TestGapSup:
    """_gap_sup reads the gap of a field's lifts at levels K and k from
    the field values; it must match dist_infty of the two fresh lifts."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid_level", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("n_time", [1, 4])
    def test_matches_fresh_lifts(self, dim, grid_level, n_time):
        K = grid_level
        sample = make_sample(seed=30 + dim, grid_level=K, n_time=n_time, dim=dim)
        full = lift_level(sample, K)
        for k in (0, 1, K - 1, K):
            gap = _gap_sup(sample.values, K, k)
            assert gap.shape == ()
            dist = dist_infty(full, lift_level(sample, k))
            assert abs(float(gap) - dist) <= 1e-13 * max(1.0, dist), k
            if dim == 1:
                # Level 1 alone: the gap is formed as the pair increment
                # of the two lifts forms it, so the bits agree.
                assert float(gap) == dist

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid_level", [0, 1, 4, 8])
    def test_zero_at_full_level(self, dim, grid_level):
        # At k = K both doubled areas are the same sums (S = 1).
        values = np.random.default_rng(dim).standard_normal((3, 2**grid_level + 1, dim))
        values[:, 1::3] *= 1e150
        assert _gap_sup(values, grid_level, grid_level) == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_doubling_values_doubles_gap(self, dim):
        values = make_sample(seed=40 + dim, grid_level=6, n_time=4, dim=dim).values
        for k in range(7):
            gap = _gap_sup(values, 6, k)
            assert _gap_sup(2.0 * values, 6, k) == 2.0 * gap
            assert gap > 0.0 or k == 6

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_keeps_each_fields_bits(self, dim):
        stack = stacked_fields(50 + dim, 5, dim)
        for k in (0, 2, 4, 5):
            flat = _gap_sup(stack, 5, k)
            nested = _gap_sup(stack.reshape((2, 3) + stack.shape[1:]), 5, k)
            assert flat.shape == (6,) and nested.shape == (2, 3)
            for i, field in enumerate(stack):
                alone = _gap_sup(field, 5, k)
                assert flat[i].tobytes() == alone.tobytes()
                assert nested[i // 3, i % 3].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("dim", [1, 3])
    def test_time_blocks_keep_the_bits(self, monkeypatch, dim):
        # One time row per block, blocks of 2 and 3 rows (the last one
        # short), and the whole field at once.
        values = make_sample(seed=60 + dim, grid_level=5, n_time=6, dim=dim).values
        row_bytes = 8 * values.shape[-2]
        results = []
        for rows in (1, 2, 3, 100):
            monkeypatch.setattr(dyadic, "_GAP_BLOCK_BYTES", rows * row_bytes)
            results.append([_gap_sup(values, 5, k).tobytes() for k in range(6)])
        assert results[1:] == results[:-1]

    @pytest.mark.parametrize("k", [-1, 5, 1.5])
    def test_rejects_level_outside_grid(self, k):
        values = make_sample(seed=1, grid_level=4, dim=2).values
        with pytest.raises(ParameterError):
            _gap_sup(values, 4, k)


class TestBesovParamValidation:
    def test_valid_chain_passes(self):
        validate_besov_params(alpha=0.4, beta=0.04, m=30.0)

    @pytest.mark.parametrize(
        "alpha,beta,m,fragment",
        [
            (0.6, 0.04, 30.0, "alpha in (1/3, 1/2)"),
            (0.4, 0.1, 30.0, "4*beta < 1 - 2*alpha"),
            (0.4, 0.04, 20.0, "beta > 1/m"),
            (0.35, 0.045, 30.0, "alpha - 1/m > 1/3"),
            # 1/m is undefined at m = 0 and no bound below beta for m < 0.
            (0.4, 0.04, 0.0, "m > 0 violated: m=0"),
            (0.4, -1.0, -0.5, "m > 0 violated: m=-0.5"),
        ],
    )
    def test_violations_named(self, alpha, beta, m, fragment):
        import re

        with pytest.raises(ParameterError, match=re.escape(fragment)):
            validate_besov_params(alpha=alpha, beta=beta, m=m)


class TestConvergenceStudy:
    @pytest.mark.parametrize("replicas", [0, 1])
    def test_too_few_replicas_rejected_before_sampling(self, monkeypatch, replicas):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        with pytest.raises(
            ValueError, match=f"replicas >= 2 violated: replicas={replicas}"
        ):
            convergence_study(cfg, range(2, 4), replicas=replicas)

    def test_k_range_needs_grid_headroom(self):
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=4, dim=2, seed=0
        )
        with pytest.raises(ValueError, match="needs grid_level >= 5"):
            convergence_study(cfg, range(2, 5), replicas=1)

    def test_sup_estimates_decay(self):
        cfg = SpectralConfig(
            n_modes=128, time_horizon=1.0, n_time=8, grid_level=7, dim=2, seed=1
        )
        table = convergence_study(cfg, range(2, 7), replicas=60)
        level1 = {r.k: r.estimate for r in table.rows if r.level == 1}
        level2 = {r.k: r.estimate for r in table.rows if r.level == 2}
        ks = sorted(level1)
        assert all(level1[a] > level1[b] for a, b in zip(ks, ks[1:]))
        assert all(level2[a] > level2[b] for a, b in zip(ks, ks[1:]))
        assert table.fits["sup:1"].slope < -0.5
        assert table.fits["sup:2"].slope < -0.2

    def test_besov_mode_runs_and_is_finite(self):
        cfg = SpectralConfig(
            n_modes=64, time_horizon=1.0, n_time=8, grid_level=5, dim=2, seed=2
        )
        table = convergence_study(
            cfg,
            range(2, 4),
            replicas=4,
            kinds=("besov",),
            alpha=0.4,
            beta=0.04,
            m=30.0,
        )
        assert len(table.rows) == 4
        assert all(np.isfinite(r.estimate) and r.estimate > 0 for r in table.rows)

    def test_besov_mode_requires_parameters(self):
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        with pytest.raises(ValueError, match="besov kind needs alpha, beta and m"):
            convergence_study(cfg, range(2, 4), replicas=1, kinds=("besov",))

    @pytest.mark.parametrize(
        "kinds, k_min, named",
        [
            (("sup",), -1, "k >= 0 violated: k=-1"),
            (("besov",), -1, "k >= 0 violated: k=-1"),
            (("sup", "supp"), 1, r"kind in \{sup, besov\} violated: kind='supp'"),
            ((), 1, "kinds must hold at least one kind"),
            (("sup",), 3, "k_range must hold at least one level"),
        ],
    )
    def test_rejected_before_sampling(self, monkeypatch, kinds, k_min, named):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        with pytest.raises(ParameterError, match=named):
            convergence_study(
                cfg, range(k_min, 3), replicas=2, kinds=kinds,
                alpha=0.4, beta=0.04, m=30.0,
            )

    @pytest.mark.parametrize("k_range", [[2.5, 3], [True, 2], ["3"]])
    def test_non_integer_level_rejected_before_sampling(self, monkeypatch, k_range):
        # Such levels were once truncated: 2.5 ran k = 2, True k = 1.
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        named = re.escape(f"k must be an integer, got {k_range[0]!r}")
        with pytest.raises(ParameterError, match=named):
            convergence_study(cfg, k_range, replicas=2)

    def test_repeated_level_runs_once(self, monkeypatch):
        reduced = []

        def counting(values, K, k):
            reduced.append(k)
            return level1_sup(values, K, k)

        level1_sup = dyadic._level1_sup
        monkeypatch.setattr(dyadic, "_level1_sup", counting)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        table = convergence_study(cfg, [3, 2, 3], replicas=2)
        assert reduced == [2, 3]
        assert table.rows == convergence_study(cfg, [2, 3], replicas=2).rows

    @pytest.mark.parametrize("kinds", [("sup",), ("besov",)])
    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_rejected_before_sampling(self, monkeypatch, kinds, threads):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        with pytest.raises(
            ParameterError, match=f"threads >= 1 violated: threads={threads}"
        ):
            convergence_study(
                cfg, range(2, 4), replicas=2, kinds=kinds,
                alpha=0.4, beta=0.04, m=30.0, threads=threads,
            )

    def test_one_replica_rejected(self):
        # One replica has no standard error; the check follows the k-range
        # and Besov-parameter checks above.
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=0
        )
        with pytest.raises(ValueError, match="replicas >= 2 violated: replicas=1"):
            convergence_study(cfg, range(2, 4), replicas=1)

    def test_threads_do_not_change_results(self, monkeypatch, process_log, usable_cpus):
        # 5 replicas run as [5], [3, 2] and [2, 2, 1] on 1, 2 and 3 worker
        # processes (3 usable CPUs); each run allocates one Besov arena,
        # logged from whichever process runs it.
        usable_cpus(3)

        def counting(*args):
            process_log.append(args)
            return arena_class(*args)

        arena_class = dyadic._BesovArena
        monkeypatch.setattr(dyadic, "_BesovArena", counting)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=3
        )
        besov = dict(kinds=("sup", "besov"), alpha=0.4, beta=0.04, m=30.0)

        def rows_of(table):
            return [(r.k, r.level, r.norm_kind, r.estimate, r.stderr) for r in table.rows]

        rows = []
        for threads in (1, 2, 3):
            process_log.clear()
            rows.append(rows_of(
                convergence_study(cfg, range(2, 5), replicas=5, threads=threads, **besov)
            ))
            arenas = process_log.read()
            assert arenas == [(5, 5, 2)] * threads
        assert len(rows[0]) == 12
        assert rows[1] == rows[0] and rows[2] == rows[0]
        process_log.clear()
        sup_only = convergence_study(cfg, range(2, 5), replicas=5, threads=2)
        arenas = process_log.read()
        assert arenas == []
        assert rows_of(sup_only) == [row for row in rows[0] if row[2] == "sup"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k_range", [[2, 4], range(2, 5)], ids=["2-4", "2-3-4"])
    def test_besov_walk_equals_fresh_norms(self, usable_cpus, k_range, threads):
        # 5 replicas run as [5] or [3, 2].  Each run's arena reads the tables
        # of the fine lift it kept when that lift comes back as the next
        # coarse one; [2, 4] lifts level 4 afresh.  Every row must be the
        # mean and stderr of per-replica norms of fresh lifts, bit for bit.
        usable_cpus(2)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=9
        )
        replicas, beta, alpha, m = 5, 0.04, 0.4, 30.0
        table = convergence_study(
            cfg, k_range, replicas, kinds=("besov",), alpha=alpha, beta=beta, m=m,
            threads=threads,
        )
        norms = []
        for r in range(replicas):
            sample = sample_field(cfg, r)
            norms.append([
                spacetime_besov_norm(
                    lift_level(sample, k + 1), beta, alpha, m,
                    relative_to=lift_level(sample, k),
                )
                for k in k_range
            ])
        expected = []
        for level in (1, 2):
            for i, k in enumerate(k_range):
                vals = np.array([getattr(norm[i], f"level{level}") for norm in norms])
                se = float(vals.std(ddof=1) / np.sqrt(replicas))
                expected.append((k, level, "besov", float(vals.mean()), se))
        got = [(r.k, r.level, r.norm_kind, r.estimate, r.stderr) for r in table.rows]
        assert got == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mixed_besov_rows_equal_besov_only(self, usable_cpus, threads):
        # 5 replicas run as [5] or [3, 2]; a mixed study measures the sup
        # kind on the same batches, which must not move a Besov bit.
        usable_cpus(2)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=2, seed=7
        )
        params = dict(alpha=0.4, beta=0.04, m=30.0, threads=threads)
        mixed = convergence_study(cfg, range(2, 5), 5, kinds=("sup", "besov"), **params)
        besov = convergence_study(cfg, range(2, 5), 5, kinds=("besov",), **params)
        assert [r for r in mixed.rows if r.norm_kind == "besov"] == besov.rows
        assert {key: fit for key, fit in mixed.fits.items() if key.startswith("besov")} == (
            besov.fits
        )

    def test_besov_guard_counts_runs(self, monkeypatch, usable_cpus):
        # 5 replicas at 4 threads run as [2, 2, 1]: three arenas, not four.
        usable_cpus(8)
        per_worker = 2 * 4 * 136 * 6 + (6 + 1 + 6) * 136
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=3, grid_level=4, dim=2, seed=0
        )
        monkeypatch.setattr(dyadic, "_MAX_FIELD_ENTRIES", 3 * per_worker)
        table = convergence_study(
            cfg, range(2, 4), replicas=5, kinds=("besov",), alpha=0.4, beta=0.04, m=30.0,
            threads=4,
        )
        assert len(table.rows) == 4

    @pytest.mark.parametrize("batch", [1, 3, 4])
    def test_sup_batches_keep_per_replica_rows(
        self, monkeypatch, process_log, usable_cpus, batch
    ):
        # 7 replicas run as [7] and [4, 3] on 1 and 2 worker processes; each
        # run reduces batches of at most `batch` fields, and 3 and 4 leave a
        # short last batch.  Every row must be the mean and stderr of the
        # per-replica loop references, each replica sampled once (counted
        # over the workers through the process log).
        usable_cpus(2)
        cfg = SpectralConfig(
            n_modes=32, time_horizon=1.0, n_time=4, grid_level=5, dim=3, seed=4
        )
        monkeypatch.setattr(dyadic, "_SUP_BATCH_BYTES", batch * 8 * 5 * 33 * 3)
        stack = np.stack([sample_field(cfg, r).values for r in range(7)])
        expected = []
        for k in range(2, 5):
            for level, vals in (
                (1, [level1_sup_loop(v, 5, k) ** 2 for v in stack]),
                (2, [level2_sup_loop(v, 5, k) for v in stack]),
            ):
                vals = np.array(vals)
                expected.append(
                    (k, level, float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(7)))
                )
        expected.sort(key=lambda row: (row[1], row[0]))

        def counting(config, replica):
            process_log.append(replica)
            return sample_field(config, replica)

        monkeypatch.setattr(dyadic, "sample_field", counting)
        for threads in (1, 2):
            process_log.clear()
            table = convergence_study(cfg, range(2, 5), replicas=7, threads=threads)
            calls = process_log.read()
            assert sorted(calls) == list(range(7))
            got = [(r.k, r.level, r.estimate, r.stderr) for r in table.rows]
            assert got == expected, threads

    @pytest.mark.parametrize(
        "threads, replicas, cpus, workers",
        [
            pytest.param(1, 3, 8, 1, id="1-3-1"),
            pytest.param(2, 3, 8, 2, id="2-3-2"),
            pytest.param(4, 3, 8, 3, id="4-3-3"),
            pytest.param(4, 3, 2, 2, id="4-3-2-on-2-cpus"),
            pytest.param(64, 3, 1, 1, id="64-3-1-on-1-cpu"),
        ],
    )
    def test_besov_guard_counts_one_arena_per_worker(
        self, monkeypatch, usable_cpus, threads, replicas, cpus, workers
    ):
        # Grid level 4 (136 node pairs), 4 times (6 time pairs), dim 2: two
        # tables of 4 * 136 * (2 + 4) values, 6 gather rows (at one end of
        # each pair), the product row and 6 quadrature rows.  The workers
        # are capped by the usable CPUs, and the guard counts the capped
        # number.
        usable_cpus(cpus)
        per_worker = 2 * 4 * 136 * 6 + (6 + 1 + 6) * 136
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=3, grid_level=4, dim=2, seed=0
        )
        besov = dict(kinds=("besov",), alpha=0.4, beta=0.04, m=30.0, threads=threads)
        monkeypatch.setattr(dyadic, "_MAX_FIELD_ENTRIES", workers * per_worker)
        table = convergence_study(cfg, range(2, 4), replicas=replicas, **besov)
        assert len(table.rows) == 4

        def refuse(config, replica):
            raise AssertionError("sampled before the guard")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        monkeypatch.setattr(dyadic, "_MAX_FIELD_ENTRIES", workers * per_worker - 1)
        with pytest.raises(
            GridTooLargeError, match=f"with their rows, {workers * per_worker} values"
        ):
            convergence_study(cfg, range(2, 4), replicas=replicas, **besov)

    # At grid level 10 (524,800 node pairs) a quadrature row is 4.2 MB,
    # past the block budget, so the arena holds one: at dim 2 the guard
    # admits n_time=40 (262,400,000 values) and refuses 41 (268,697,600);
    # at dim 1, 125 (266,598,400) and 126 (268,697,600).
    @pytest.mark.parametrize(
        "dim, n_time, admitted",
        [(2, 40, True), (2, 41, False), (1, 125, True), (1, 126, False)],
    )
    def test_besov_guard_at_grid_level_10(self, monkeypatch, dim, n_time, admitted):
        class Sampled(Exception):
            pass

        def refuse(config, replica):
            raise Sampled

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        cfg = SpectralConfig(
            n_modes=16, time_horizon=1.0, n_time=n_time, grid_level=10, dim=dim, seed=0
        )
        besov = dict(kinds=("besov",), alpha=0.4, beta=0.04, m=30.0)
        # An admitted run allocates its arena (untouched) and then samples.
        with pytest.raises(Sampled if admitted else GridTooLargeError):
            convergence_study(cfg, [2], replicas=2, **besov)


class TestMonotoneRefinement:
    def test_dist_to_full_lift_decreases_in_k(self):
        cfg = SpectralConfig(
            n_modes=64, time_horizon=1.0, n_time=4, grid_level=7, dim=2, seed=5
        )
        n_rep = 30
        means = []
        for k in (2, 4, 6):
            dists = []
            for r in range(n_rep):
                sample = sample_field(cfg, r)
                full = lift_level(sample, 7)
                approx = lift_level(sample, k)
                dists.append(dist_infty(full, approx))
            means.append(np.mean(dists))
        assert means[0] > means[1] > means[2]
