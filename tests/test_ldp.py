import dataclasses
import hashlib

import numpy as np
import pytest

from heatlift import ldp
from heatlift.covariance import cov
from heatlift.dyadic import _gap_sup, lift_level
from heatlift.errors import ParameterError
from heatlift.ldp import (
    CMControl,
    CMRegularityReport,
    ModeControl,
    cameron_martin_path,
    chaos_moment_ratio,
    cm_lift_uniform_convergence,
    cm_regularity_check,
    control_from_dict,
    rate_function,
    schilder_point_check,
    TailRow,
    tail_probability,
    validate_chaos_params,
    validate_cm_params,
    wilson_interval,
)
from heatlift.sampler import (
    SpectralConfig,
    basis_eval,
    mode_rate,
    sample_field,
    sample_slice_marginal,
)
from heatlift.sheets import _increment_tables, _node_pairs, dist_infty


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

    def test_from_dict(self):
        doc = {"mode": -2, "breakpoints": [0.0, 0.5, 1], "values": [1, 2.5]}
        assert control_from_dict(doc) == ModeControl(-2, 0, (0.0, 0.5, 1.0), (1.0, 2.5))

    @pytest.mark.parametrize(
        "doc, named",
        [
            (5, "a control must be a JSON object, got 5"),
            ([1.0], "a control must be a JSON object, got [1.0]"),
            ({"values": [1.0]}, "a control needs the key 'mode'"),
            ({"mode": 0, "values": [1.0]}, "a control needs the key 'breakpoints'"),
            ({"mode": 0, "breakpoints": [0.0, 1.0]}, "a control needs the key 'values'"),
            (
                {"mode": 0, "breakpoints": [0.0, 1.0], "values": [1.0], "valu": 1},
                "unknown control key 'valu'",
            ),
            (
                {"mode": 1.0, "breakpoints": [0.0, 1.0], "values": [1.0]},
                "control mode must be an integer, got 1.0",
            ),
            (
                {"mode": 0, "component": True, "breakpoints": [0.0, 1.0], "values": [1.0]},
                "control component must be an integer, got True",
            ),
            (
                {"mode": 0, "breakpoints": [0.0, "1"], "values": [1.0]},
                "control breakpoints must be a list of finite numbers",
            ),
            (
                {"mode": 0, "breakpoints": 1.0, "values": [1.0]},
                "control breakpoints must be a list of finite numbers",
            ),
            (
                {"mode": 0, "breakpoints": [0.0, 1.0], "values": [float("nan")]},
                "control values must be a list of finite numbers",
            ),
        ],
    )
    def test_malformed_control_rejected(self, doc, named):
        with pytest.raises(ParameterError) as exc:
            control_from_dict(doc)
        assert str(exc.value).startswith(named)


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


def separate_cm_values(ctrl, config):
    """Reference: the Cameron-Martin path with its own lam = 0 branch,
    expm1 gain and recursion loop."""
    times = config.times()
    nodes = config.nodes()
    delta = config.time_horizon / config.n_time
    values = np.zeros((config.n_time + 1, config.n_nodes, config.dim))
    for c in ctrl.controls:
        lam = float(mode_rate(abs(c.mode)))
        steps = ldp._step_values(c, times)
        coeff = np.zeros(config.n_time + 1)
        if lam == 0.0:
            decay, gain = 1.0, delta
        else:
            decay = np.exp(-lam * delta)
            gain = -np.expm1(-lam * delta) / lam
        for j in range(config.n_time):
            coeff[j + 1] = decay * coeff[j] + steps[j] * gain
        values[:, :, c.component] += np.outer(coeff, basis_eval(c.mode, nodes))
    return values


def _cm_control_sets(horizon):
    def ctrl(mode, component, fractions, values):
        return ModeControl(
            mode, component, tuple(f * horizon for f in fractions), values
        )

    return {
        "empty": (),
        "mode0": (ctrl(0, 0, (0.0, 1.0), (1.0,)),),
        "mode1": (ctrl(1, 0, (0.0, 1.0), (1.0,)),),
        "mode1_minus3": (
            ctrl(1, 0, (0.0, 1.0), (1.0,)),
            ctrl(-3, 0, (0.0, 1.0), (-0.7,)),
        ),
        "piecewise_mix": (
            ctrl(0, 0, (0.0, 0.5, 1.0), (1.0, 0.0)),
            ctrl(2, 0, (0.0, 0.25, 0.75, 1.0), (0.3, -1.2, 2.5)),
            ctrl(-1, 0, (0.0, 0.75, 1.0), (-0.4, 0.9)),
        ),
        "both_components": (
            ctrl(1, 0, (0.0, 1.0), (1.0,)),
            ctrl(-3, 0, (0.0, 0.5, 1.0), (2.0, -1.0)),
            ctrl(2, 1, (0.0, 0.25, 1.0), (0.5, 1.5)),
        ),
    }


class TestCameronMartinMatchesSeparateForm:
    """The path through the sampler's OU integral and recursion equals the
    form with its own branch and loop, bit for bit."""

    @pytest.mark.parametrize("grid_level", [5, 6, 9, 10])
    @pytest.mark.parametrize("horizon", [1.0, 0.3])
    @pytest.mark.parametrize("name", sorted(_cm_control_sets(1.0)))
    def test_bit_identical(self, grid_level, horizon, name):
        cfg = small_config(grid_level=grid_level, time_horizon=horizon, dim=2)
        ctrl = CMControl(_cm_control_sets(horizon)[name])
        got = cameron_martin_path(ctrl, cfg).field.values
        ref = separate_cm_values(ctrl, cfg)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))


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
        assert rep.gamma == 1.5 - 0.75

    def test_q_domain(self):
        cfg = small_config()
        path = cameron_martin_path(CMControl((constant_control(),)), cfg)
        for bad_q in (1.2, 2.0, 2.5):
            with pytest.raises(ValueError):
                cm_regularity_check(path, q=bad_q)

    def test_params_checked_together(self):
        validate_cm_params(1.5, [0, 3, 6], 6)
        with pytest.raises(ValueError, match=r"q must lie in \(4/3, 2\), got 2.0"):
            validate_cm_params(2.0, [2, 3], 6)
        with pytest.raises(ValueError, match="violated: k=7, grid_level=6"):
            validate_cm_params(1.5, [7, 2], 6)
        for bad in (2.0, "3", None, True):
            with pytest.raises(
                ParameterError, match=f"k must be an integer, got {bad!r}"
            ):
                validate_cm_params(1.5, [2, bad], 6)
        validate_cm_params(1.5, [np.int64(2)], 6)

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
        for name in CMRegularityReport.__dataclass_fields__:
            assert type(getattr(r2, name)) is float, name

    def test_holder_half_matches_per_time_loop(self):
        # Reference: one Euclidean-norm pass per time index, on a mode-1 /
        # mode -3 control at K = 9 (a mode-0 control gives 0.0).
        cfg = small_config(grid_level=9, n_modes=8)
        ctrl = CMControl(
            (
                ModeControl(1, 0, (0.0, 0.5, 1.0), (1.0, -2.0)),
                constant_control(mode=-3, value=0.5),
            )
        )
        path = cameron_martin_path(ctrl, cfg)
        values = path.field.values
        iu, ju, sep = _node_pairs(2**cfg.grid_level)
        holder = 0.0
        for t_index in range(values.shape[0]):
            diffs = np.linalg.norm(
                values[t_index, ju, :] - values[t_index, iu, :], axis=1
            )
            holder = max(holder, float(np.max(diffs / np.sqrt(sep))))
        rep = cm_regularity_check(path, q=1.5)
        assert holder > 0.0
        assert rep.holder_half == holder

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


def reference_lift_decay(path, k_range):
    """cm_lift_uniform_convergence's former body, with np.linalg.norm
    over the component axis (axis 1 of the component-major tables)."""
    K = path.config.grid_level
    iu, ju, _ = _node_pairs(2**K)
    ref = lift_level(path.field, K)
    ref1, ref2 = _increment_tables(ref.level1, ref.level2, iu, ju)
    rows = []
    for k in k_range:
        lifted = lift_level(path.field, k)
        f1, f2 = _increment_tables(lifted.level1, lifted.level2, iu, ju)
        rows.append(
            (
                k,
                float(np.max(np.linalg.norm(f1 - ref1, axis=1))),
                float(np.max(np.linalg.norm(f2 - ref2, axis=1))),
            )
        )
    return rows


class TestLiftDecayMatchesReference:
    def test_two_component_controls(self):
        # Mode c + 1 on component c: every row is nonzero at both levels (a
        # mode-0 control gives all zeros).  Three components give 9-entry
        # level-2 rows.
        for dim in (2, 3):
            cfg = small_config(grid_level=7, n_time=8, n_modes=8, dim=dim)
            ctrl = CMControl(
                tuple(constant_control(mode=c + 1, component=c) for c in range(dim))
            )
            path = cameron_martin_path(ctrl, cfg)
            rows = cm_lift_uniform_convergence(path, range(2, 7))
            got = [(r.k, r.level1_sup, r.level2_sup) for r in rows]
            assert got == reference_lift_decay(path, range(2, 7)), dim
            assert all(r.level1_sup > 0 and r.level2_sup > 0 for r in rows)


def mode_one_three_control(dim):
    """Modes 1 and -3 on every component, with component-dependent values:
    every lift-decay row is nonzero at both levels (unlike the mode-0
    control), and at dim > 1 the components' areas do not cancel."""
    return CMControl(
        tuple(
            c
            for comp in range(dim)
            for c in (
                ModeControl(1, comp, (0.0, 0.5, 1.0), (1.0 + comp, -2.0)),
                ModeControl(-3, comp, (0.0, 1.0), (0.5 - 0.25 * comp,)),
            )
        )
    )


def cm_digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def decay_digest(rows) -> str:
    return cm_digest([v for r in rows for v in (r.k, r.level1_sup, r.level2_sup)])


def per_time_holder(path):
    """The Hoelder sup as one np.linalg.norm pass per time index."""
    values = path.field.values
    iu, ju, sep = _node_pairs(2**path.config.grid_level)
    holder = 0.0
    for t_index in range(values.shape[0]):
        diffs = np.linalg.norm(values[t_index, ju, :] - values[t_index, iu, :], axis=1)
        holder = max(holder, float(np.max(diffs / np.sqrt(sep))))
    return holder


def per_time_qvar(path, q):
    """The q-variation majorant as one loop over levels per time index."""
    values = path.field.values
    K = path.config.grid_level
    qvar = 0.0
    for t_index in range(values.shape[0]):
        total = 0.0
        for k in range(1, K + 1):
            nodes = values[t_index, :: 2 ** (K - k), :]
            incs = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
            total += k ** (q - 0.75) * float(np.sum(incs**q))
        qvar = max(qvar, total)
    return qvar ** (1.0 / q)


# sha256 of the k = 2..8 lift-decay rows (k, level1_sup, level2_sup as
# float64) and of the regularity report's fields, taken before the
# node-pair reductions were blocked, at cm's benchmark grid (grid_level 9,
# n_time 8, n_modes 8) with mode_one_three_control.
CM_PINS = {
    1: (
        "5caf5920a5b6d1c4057c69b0e744f1ac1330b08c5ac5b65cbda2fa972e955f3d",
        "8b352ab2df058068098bb06469be574eba920330c828078a3880e0b319625603",
    ),
    2: (
        "49e08aa06df7a27e05e785dd53dd591fa23980fcba0588bccdfa21c80155a156",
        "a0910b9ad5fc14e2b60a70daf4cb2ce2ada58db366bc4ab8f6ef63c75d2932b4",
    ),
    3: (
        "50086e060030660df1adac1119b3ef77fe3887ac69e3694fa72aaac8e1755853",
        "3c226ea1e06155077e8cf3cbee09fccf370453b47ce35289992c44f062486346",
    ),
}


class TestCmBlockedReductions:
    """The node-pair reductions of cm keep the bits of full tables."""

    @staticmethod
    def path(dim, grid_level=9, n_time=8):
        cfg = small_config(grid_level=grid_level, n_time=n_time, n_modes=8, dim=dim)
        return cameron_martin_path(mode_one_three_control(dim), cfg)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pinned_bits(self, dim):
        path = self.path(dim)
        rows = cm_lift_uniform_convergence(path, range(2, 9))
        report = cm_regularity_check(path, q=1.5)
        assert all(r.level1_sup > 0 and r.level2_sup > 0 for r in rows)
        assert (decay_digest(rows), cm_digest(dataclasses.astuple(report))) == CM_PINS[dim]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pinned_bits_in_one_block(self, dim, monkeypatch):
        path = self.path(dim)
        # _CM_BLOCK // dim pairs per block: more than the 513 * 512 / 2.
        monkeypatch.setattr(ldp, "_CM_BLOCK", 4 * 513 * 512 // 2)
        rows = cm_lift_uniform_convergence(path, range(2, 9))
        report = cm_regularity_check(path, q=1.5)
        assert (decay_digest(rows), cm_digest(dataclasses.astuple(report))) == CM_PINS[dim]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("block", [1, 7, 4 * 2080])
    def test_block_size_moves_no_bit(self, dim, block, monkeypatch):
        # grid_level 6 has 2080 node pairs, and a block holds
        # _CM_BLOCK // dim of them: blocks of one pair, blocks that leave a
        # short last block, and one block of every pair.
        path = self.path(dim, grid_level=6, n_time=4)
        rows = cm_lift_uniform_convergence(path, range(0, 7))
        report = cm_regularity_check(path, q=1.5)
        monkeypatch.setattr(ldp, "_CM_BLOCK", block)
        assert cm_lift_uniform_convergence(path, range(0, 7)) == rows
        assert cm_regularity_check(path, q=1.5) == report
        got = [(r.k, r.level1_sup, r.level2_sup) for r in rows]
        assert got == reference_lift_decay(path, range(0, 7))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_level", [0, 1])
    def test_one_and_three_node_pairs(self, dim, grid_level):
        path = self.path(dim, grid_level=grid_level)
        assert len(_node_pairs(2**grid_level)[0]) == (1, 3)[grid_level]
        k_range = range(0, grid_level + 1)
        rows = cm_lift_uniform_convergence(path, k_range)
        got = [(r.k, r.level1_sup, r.level2_sup) for r in rows]
        assert got == reference_lift_decay(path, k_range)
        assert cm_regularity_check(path, q=1.5).holder_half == per_time_holder(path)

    # test_holder_half_matches_per_time_loop covers dim 1.
    @pytest.mark.parametrize("dim", [2, 3])
    def test_holder_half_matches_per_time_reference(self, dim):
        path = self.path(dim)
        holder = per_time_holder(path)
        assert holder > 0.0
        assert cm_regularity_check(path, q=1.5).holder_half == holder

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_level,n_time", [(9, 8), (6, 4)])
    def test_qvar_matches_per_time_reference(self, dim, grid_level, n_time):
        path = self.path(dim, grid_level=grid_level, n_time=n_time)
        for q in (1.5, 1.9):
            qvar = cm_regularity_check(path, q=q).qvar_surrogate
            assert qvar > 0.0
            assert qvar == per_time_qvar(path, q)


class TestCmLevels:
    def test_empty_k_range_refused_before_any_lift(self, monkeypatch):
        path = cameron_martin_path(CMControl((constant_control(mode=1),)), small_config())

        def refuse(*args):
            raise AssertionError("lifted")

        monkeypatch.setattr(ldp, "lift_level", refuse)
        for k_range in ([], (), range(0)):
            with pytest.raises(ParameterError, match="k_range must hold at least one level"):
                validate_cm_params(1.5, k_range, 5)
            with pytest.raises(ParameterError, match="k_range must hold at least one level"):
                cm_lift_uniform_convergence(path, k_range)

    def test_k_range_generator_read_once(self):
        # A generator is exhausted by one pass: the levels are collected
        # once, then checked and sorted.
        assert validate_cm_params(1.5, (k for k in [3, 2]), 5) == (2, 3)
        with pytest.raises(ParameterError, match="violated: k=9, grid_level=5"):
            validate_cm_params(1.5, (k for k in [2, 9]), 5)
        path = cameron_martin_path(
            CMControl((constant_control(mode=1),)), small_config(n_modes=8)
        )
        rows = cm_lift_uniform_convergence(path, (k for k in [2, 3]))
        assert rows == cm_lift_uniform_convergence(path, [2, 3])

    def test_bad_level_named_before_empty(self):
        with pytest.raises(ParameterError, match="violated: k=9, grid_level=5"):
            validate_cm_params(1.5, [9, 9], 5)

    def test_duplicate_levels_measured_once(self, monkeypatch):
        path = cameron_martin_path(
            CMControl((constant_control(mode=1),)), small_config(n_modes=8)
        )
        lifted = []

        def counting(sample, k):
            lifted.append(k)
            return lift_level(sample, k)

        monkeypatch.setattr(ldp, "lift_level", counting)
        rows = cm_lift_uniform_convergence(path, [4, 2, 4, np.int64(3), 2])
        assert [r.k for r in rows] == [2, 3, 4]
        assert sorted(lifted) == [2, 3, 4, 5]
        assert rows == cm_lift_uniform_convergence(path, [2, 3, 4])
        assert validate_cm_params(1.5, [4, 2, 4, np.int64(3), 2], 5) == (2, 3, 4)
        assert all(type(k) is int for k in validate_cm_params(1.5, [np.int64(3)], 5))


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


def per_epsilon_reference(delta, eps_list, k, replicas, config):
    """The per-epsilon loop the single pass replaced: every epsilon
    re-samples and re-measures every replica."""
    rows = []
    for epsilon in eps_list:
        threshold = delta / epsilon
        dists = []
        for r in range(replicas):
            values = sample_field(config, r).values
            dists.append(float(_gap_sup(values, config.grid_level, k)))
        count = int(np.sum(np.asarray(dists) > threshold))
        p_hat = count / replicas
        lo, hi = wilson_interval(count, replicas)
        zero = count == 0
        basis = p_hat if not zero else hi
        rows.append(
            TailRow(
                epsilon=epsilon,
                delta=delta,
                k=k,
                replicas=replicas,
                count=count,
                p_hat=p_hat,
                ci_low=lo,
                ci_high=hi,
                eps2_log=float(epsilon**2 * np.log(basis)),
                zero_count=zero,
            )
        )
    return tuple(rows)


class TestTailProbability:
    def test_threshold_below_minimum_gives_one(self):
        cfg = small_config(grid_level=5, n_time=4, n_modes=32, dim=2)
        (row,) = tail_probability(1e-9, [1.0], 2, 20, cfg)
        assert row.p_hat == 1.0
        assert not row.zero_count

    def test_astronomical_threshold_gives_zero_with_ci(self):
        cfg = small_config(grid_level=5, n_time=4, n_modes=32, dim=2)
        (row,) = tail_probability(1e6, [1.0], 2, 20, cfg)
        assert row.p_hat == 0.0
        assert row.zero_count
        assert np.isfinite(row.eps2_log)
        assert row.eps2_log < 0

    def test_monotone_in_epsilon_and_level(self):
        # delta small enough that every epsilon keeps a positive count,
        # so the scaled log-probabilities are directly comparable.
        cfg = small_config(grid_level=6, n_time=4, n_modes=64, dim=2)
        delta, m_rep = 0.25, 200
        rows = tail_probability(delta, [1.0, 0.5, 0.25], 2, m_rep, cfg)
        assert [r.epsilon for r in rows] == [1.0, 0.5, 0.25]
        assert not any(r.zero_count for r in rows)
        logs = [r.eps2_log for r in rows]
        assert logs[0] >= logs[1] >= logs[2]
        (finer,) = tail_probability(delta, [0.5], 4, m_rep, cfg)
        assert finer.p_hat <= rows[1].p_hat

    def test_replica_guard(self):
        with pytest.raises(ValueError):
            tail_probability(0.5, [1.0], 2, 0, small_config())

    def test_single_pass_equals_per_epsilon_loop(self):
        # The last epsilon has a zero count, so the Wilson-bound branch
        # is compared as well; the order of eps_list is kept.
        cfg = small_config(grid_level=6, n_time=4, n_modes=32, dim=2)
        delta, eps_list, k, replicas = 0.5, (1.0, 0.25, 0.5, 0.01), 2, 12
        rows = tail_probability(delta, eps_list, k, replicas, cfg)
        expected = per_epsilon_reference(delta, eps_list, k, replicas, cfg)
        assert rows[3].zero_count and not rows[0].zero_count
        assert type(rows) is tuple and len(rows) == len(expected)
        for row, ref in zip(rows, expected):
            for name in TailRow.__dataclass_fields__:
                assert getattr(row, name) == getattr(ref, name), name
            assert type(row.epsilon) is float and type(row.eps2_log) is float

    def test_thread_count_does_not_change_rows(self):
        cfg = small_config(grid_level=6, n_time=4, n_modes=32, dim=2)
        args = (0.5, [1.0, 0.5, 0.25], 2, 9, cfg)
        assert tail_probability(*args, threads=2) == tail_probability(*args, threads=1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_distance_equals_fresh_lifts(
        self, monkeypatch, process_log, usable_cpus, threads
    ):
        # A distance that flips no count would not show in the rows, so
        # every distance handed to _gap_sup's caller is logged, from
        # whichever worker process measures it, and compared replica by
        # replica: bit for bit with _gap_sup of a fresh sample, and with
        # dist_infty of the two fresh lifts within rounding (level 2 is
        # formed from the doubled areas, not from the lifts).
        usable_cpus(2)
        cfg = small_config(grid_level=6, n_time=4, n_modes=32, dim=2)
        k, replicas = 2, 7
        current = {}

        def sampling(config, replica):
            current["replica"] = replica
            return sample_field(config, replica)

        def measuring(values, grid_level, level):
            gap = _gap_sup(values, grid_level, level)
            process_log.append((current["replica"], float(gap)))
            return gap

        monkeypatch.setattr(ldp, "sample_field", sampling)
        monkeypatch.setattr(ldp, "_gap_sup", measuring)
        tail_probability(0.5, [1.0], k, replicas, cfg, threads=threads)
        seen = dict(process_log.read())
        assert len(seen) == len(process_log.read())
        assert len(list(process_log.directory.glob("*.log"))) == threads
        expected = {}
        for r in range(replicas):
            sample = sample_field(cfg, r)
            expected[r] = float(_gap_sup(sample.values, cfg.grid_level, k))
            dist = dist_infty(lift_level(sample, cfg.grid_level), lift_level(sample, k))
            assert abs(expected[r] - dist) <= 1e-13 * max(1.0, dist)
        assert seen == expected

    def test_one_sample_per_replica(self, monkeypatch):
        calls = []

        def counting(config, replica):
            calls.append(replica)
            return sample_field(config, replica)

        monkeypatch.setattr(ldp, "sample_field", counting)
        tail_probability(0.5, [1.0, 0.5, 0.25], 2, 5, small_config(dim=2))
        assert calls == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "delta, eps_list, k, replicas, named",
        [
            (0.5, [], 2, 4, "eps_list"),
            (0.5, [1.0, 0.0], 2, 4, "0 < epsilon"),
            (0.5, [-1.0], 2, 4, "0 < epsilon"),
            (0.5, [float("nan")], 2, 4, "0 < epsilon"),
            (0.5, [float("inf")], 2, 4, "0 < epsilon"),
            (0.0, [1.0], 2, 4, "0 < delta"),
            (-0.5, [1.0], 2, 4, "0 < delta"),
            (0.5, [1.0], 2, 0, "replicas >= 1"),
            (0.5, [1.0], -1, 4, "0 <= k <= grid_level"),
            (0.5, [1.0], 6, 4, "0 <= k <= grid_level"),
            (0.5, [1.0, "a"], 2, 4, "0 < epsilon < inf violated: epsilon='a'"),
            (0.5, [None], 2, 4, "0 < epsilon < inf violated: epsilon=None"),
            (0.5, [True], 2, 4, "0 < epsilon < inf violated: epsilon=True"),
            (0.5, [[1.0]], 2, 4, r"0 < epsilon < inf violated: epsilon=\[1.0\]"),
        ],
    )
    def test_invalid_parameters_rejected_before_sampling(
        self, monkeypatch, delta, eps_list, k, replicas, named
    ):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(ldp, "sample_field", refuse)
        with pytest.raises(ParameterError, match=named):
            tail_probability(delta, eps_list, k, replicas, small_config())

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_rejected_before_sampling(self, monkeypatch, threads):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(ldp, "sample_field", refuse)
        with pytest.raises(
            ParameterError, match=f"threads >= 1 violated: threads={threads}"
        ):
            tail_probability(0.5, [1.0], 2, 4, small_config(), threads=threads)

    def test_k_equal_to_grid_level_gives_zero_distance(self):
        cfg = small_config(grid_level=4, n_time=2, dim=2)
        (row,) = tail_probability(1e-12, [1.0], 4, 3, cfg)
        assert row.count == 0 and row.zero_count


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
        assert rep.q_list == (2.0, 3.0, 4.0, 6.0, 8.0)
        assert all(type(q) is float for q in rep.q_list)

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
        assert rep.q_list == (2.0, 4.0)
        assert all(type(q) is float for q in rep.q_list)

    @staticmethod
    def cumsum_level2_ratios(cfg, q_list, replicas, y, level=5):
        # Reference: the level-2 entry from a prefix cumsum and two
        # einsums, then the same norm ratios.
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, 0xC4A05], dtype=np.uint64))
        )
        n_cells = int(round(y * 2**level))
        nodes = np.arange(n_cells + 1) * 2.0**-level
        fields = sample_slice_marginal(cfg, 1.0, replicas, rng, nodes=nodes)
        deltas = np.diff(fields[:, :, :2], axis=1)
        p1 = np.cumsum(deltas, axis=1)
        p1 = np.concatenate([np.zeros((replicas, 1, 2)), p1], axis=1)
        z = np.einsum("mc,mc->m", p1[:, :-1, 0], deltas[:, :, 1])
        z += 0.5 * np.einsum("mc,mc->m", deltas[:, :, 0], deltas[:, :, 1])
        absz = np.abs(z)
        base = float(np.mean(absz**2)) ** 0.5
        return {
            float(q): float(np.mean(absz**q)) ** (1.0 / q) / base for q in q_list
        }

    def test_level2_lift_matches_cumsum_formula(self):
        cfg = small_config(n_modes=64, dim=2, seed=1)
        q_list = [2.0, 3.0, 4.0, 6.0, 8.0]
        rep = chaos_moment_ratio("level2", q_list, 20_000, cfg)
        assert rep.norm_ratios == self.cumsum_level2_ratios(cfg, q_list, 20_000, 2.0**-5)
        # Over several cells the two sums associate differently, so only
        # rounding separates them.
        rep = chaos_moment_ratio("level2", q_list, 20_000, cfg, y=0.25)
        ref = self.cumsum_level2_ratios(cfg, q_list, 20_000, 0.25)
        for q in q_list:
            assert rep.norm_ratios[q] == pytest.approx(ref[q], rel=1e-12, abs=0.0)

    def test_degenerate_functional_rejected(self, monkeypatch):
        # Each of these would draw rounding noise (|z| below 4e-15 at x = 0,
        # y = 1): level1 at one point of the circle, level2 over a period.
        def refuse(*args, **kwargs):
            raise AssertionError("drew before validation")

        monkeypatch.setattr(ldp, "sample_slice_marginal", refuse)
        cfg = small_config(n_modes=16, dim=2, seed=8)
        for x, y in ((0.25, 0.25), (0.0, 1.0), (0.3, -0.7), (0.0, 1e-13)):
            with pytest.raises(
                ParameterError, match=r"dist_s1\(x, y\) >= 1e-12 violated"
            ):
                chaos_moment_ratio("level1", [2, 4], 100, cfg, x=x, y=y)
        for level in (0, -1):
            with pytest.raises(
                ParameterError, match=f"level >= 1 violated: level={level}"
            ):
                chaos_moment_ratio("level2", [2, 4], 100, cfg, level=level)

    def test_level_and_point_bounds_checked_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before validation")

        monkeypatch.setattr(ldp, "sample_slice_marginal", refuse)
        cfg = small_config(n_modes=16, dim=2, seed=8)
        # 2^2000 overflowed a float inside the node count (exit 1).
        for level in (53, 2000):
            with pytest.raises(ParameterError, match=f"level <= 52 violated: level={level}"):
                chaos_moment_ratio("level2", [2, 4], 100, cfg, level=level)
        for functional in ("level1", "level2"):
            for t in (0.0, np.inf, np.nan):
                with pytest.raises(ParameterError, match="0 < t < inf violated"):
                    chaos_moment_ratio(functional, [2, 4], 100, cfg, t=t)
            for name in ("x", "y"):
                for bad in (np.inf, -np.inf, np.nan):
                    with pytest.raises(
                        ParameterError, match=f"-inf < {name} < inf violated"
                    ):
                        chaos_moment_ratio(functional, [2, 4], 100, cfg, **{name: bad})

    def test_low_moment_rejected(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            chaos_moment_ratio("level1", [1.5, 2.0], 100, cfg)

    def test_level2_needs_two_components(self):
        cfg = small_config(dim=1)
        with pytest.raises(ValueError):
            chaos_moment_ratio("level2", [2, 4], 100, cfg)

    @pytest.mark.parametrize(
        "q_list, named",
        [
            ([], "q_list must hold at least two distinct orders, got []"),
            ([2], "q_list must hold at least two distinct orders, got [2.0]"),
            ([4, 4.0], "q_list must hold at least two distinct orders, got [4.0]"),
            ([2, 3, 6], "q_list must include 4 for ratio4, got [2.0, 3.0, 6.0]"),
            ([1.5, 4], "moment orders 2 <= q < inf violated: q=1.5"),
            ([2, 4, float("inf")], "moment orders 2 <= q < inf violated: q=inf"),
            ([2, 4, float("nan")], "moment orders 2 <= q < inf violated: q=nan"),
            ([2, "4"], "moment orders 2 <= q < inf violated: q='4'"),
            ([True, 4], "moment orders 2 <= q < inf violated: q=True"),
        ],
    )
    def test_orders_checked_before_any_draw(self, monkeypatch, q_list, named):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before validation")

        monkeypatch.setattr(ldp, "sample_slice_marginal", refuse)
        with pytest.raises(ValueError) as exc:
            validate_chaos_params(q_list)
        assert str(exc.value) == named
        for functional in ("level1", "level2"):
            cfg = small_config(dim=2)
            with pytest.raises(ValueError) as exc:
                chaos_moment_ratio(functional, q_list, 100, cfg)
            assert str(exc.value) == named

    def test_orders_sorted_and_distinct(self):
        assert validate_chaos_params([8, 4, 2, 4.0, np.float64(3)]) == (
            2.0, 3.0, 4.0, 8.0
        )


class TestSchilder:
    def test_zero_threshold_gives_half(self):
        rep = schilder_point_check(1.0, 0.0, 0.0, [0.5, 0.25, 0.125])
        for row in rep.rows:
            assert row.probability == pytest.approx(0.5, rel=1e-12)
        # eps^2 log(1/2) tends to zero with eps.
        assert abs(rep.rows[-1].eps2_log) < abs(rep.rows[0].eps2_log)

    def test_limit_value_and_gap(self):
        sigma_sq = cov(1.0, 0.0, 1.0, 0.0, method="fourier")
        a = np.sqrt(sigma_sq)
        rep = schilder_point_check(1.0, 0.0, a, [0.5, 0.25, 0.125])
        assert rep.limit == pytest.approx(-0.5, rel=1e-12)
        logs = [row.eps2_log for row in rep.rows]
        # Monotone toward the limit, always from below.
        assert logs[0] < logs[1] < logs[2] < rep.limit
        gap = abs(logs[-1] - rep.limit) / abs(rep.limit)
        assert gap <= 0.15

    def test_degenerate_time_rejected(self):
        with pytest.raises(ValueError):
            schilder_point_check(0.0, 0.0, 1.0, [0.5])

    def test_non_finite_point_rejected(self):
        for t in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="0 < t < inf violated"):
                schilder_point_check(t, 0.0, 1.0, [0.5])
        for x in (np.inf, -np.inf, np.nan):
            with pytest.raises(ParameterError, match="-inf < x < inf violated"):
                schilder_point_check(1.0, x, 1.0, [0.5])

    def test_default_threshold_is_one_standard_deviation(self):
        sigma = np.sqrt(cov(0.6, 0.3, 0.6, 0.3, method="fourier"))
        assert schilder_point_check(0.6, 0.3, None, [0.5, 0.25]) == (
            schilder_point_check(0.6, 0.3, float(sigma), [0.5, 0.25])
        )

    def test_tiny_epsilon_rows_finite_at_limit(self):
        # eps^2 underflows to 0 or a subnormal while log P is -inf; the
        # rows must still be finite and sit at the limit.
        rep = schilder_point_check(1, 0, None, [1e-170, 1e-160])
        for row in rep.rows:
            assert np.isfinite(row.eps2_log)
            assert abs(row.eps2_log - rep.limit) <= 1e-12
            assert row.probability == 0.0
