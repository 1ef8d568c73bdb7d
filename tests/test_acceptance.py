"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity at its stated tolerance.  Tolerances are
pinned here and nowhere else."""

import time

import numpy as np
import pytest

from heatlift.cli import main as cli_main
from heatlift.covariance import bound_scan, cov, dual_method_check
from heatlift.dyadic import convergence_study, level2_telescope, lift_level
from heatlift.ldp import (
    CMControl,
    ModeControl,
    cameron_martin_path,
    chaos_moment_ratio,
    cm_lift_uniform_convergence,
    cm_regularity_check,
    rate_function,
    schilder_point_check,
)
from heatlift.sampler import FieldSample, SpectralConfig, sample_field
from heatlift.sheets import _increment_tables, _node_pairs, dilate_sheet, dist_infty


def report(criterion: str, passed: bool, detail: str):
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_covariance_dual_formula():
    start = time.perf_counter()
    out = dual_method_check(np.linspace(0.2, 1.0, 5), np.linspace(0.0, 1.0, 5))
    elapsed = time.perf_counter() - start
    gap = out["max_abs_discrepancy"]
    report(
        "criterion 1: dual covariance agreement",
        gap <= 1e-8 and elapsed < 5.0,
        f"max |theta - fourier| = {gap:.3e} over {out['grid_points']} points "
        f"(tol 1e-8), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_sampler_vs_oracle():
    start = time.perf_counter()
    cfg = SpectralConfig(
        n_modes=256, time_horizon=1.0, n_time=16, grid_level=5, dim=1, seed=202
    )
    n_rep = 20_000
    values = np.empty((n_rep, cfg.n_time + 1, cfg.n_nodes))
    for r in range(n_rep):
        values[r] = sample_field(cfg, r).values[:, :, 0]
    times = cfg.times()
    nodes = cfg.nodes()
    rng = np.random.default_rng(555)
    worst_z = 0.0
    for _ in range(20):
        t1, t2 = rng.integers(1, cfg.n_time + 1, size=2)
        x1, x2 = rng.integers(0, cfg.n_nodes, size=2)
        prod = values[:, t1, x1] * values[:, t2, x2]
        emp = prod.mean()
        se = prod.std(ddof=1) / np.sqrt(n_rep)
        oracle = cov(
            times[t1], nodes[x1], times[t2], nodes[x2],
            method="fourier", n_modes=256,
        )
        worst_z = max(worst_z, abs(emp - oracle) / se)
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: sampler vs truncated oracle",
        worst_z <= 4.0 and elapsed < 120.0,
        f"max |empirical - oracle| = {worst_z:.2f} SE over 20 quadruples "
        f"(tol 4 SE), {n_rep} replicas, runtime {elapsed:.1f}s (< 120s)",
    )


def _chen_defect(sheet_slice, triples):
    p1, p2 = sheet_slice.level1, sheet_slice.level2
    i, j, k = triples

    def seg2(a, b):
        d1 = p1[b] - p1[a]
        return d1, p2[b] - p2[a] - np.einsum("pa,pb->pab", p1[a], d1)

    d_ij1, d_ij2 = seg2(i, j)
    d_jk1, d_jk2 = seg2(j, k)
    d_ik1, d_ik2 = seg2(i, k)
    comp = d_ij2 + d_jk2 + np.einsum("pa,pb->pab", d_ij1, d_jk1)
    lvl1 = np.max(np.abs(d_ik1 - (d_ij1 + d_jk1)))
    lvl2 = np.max(np.abs(d_ik2 - comp))
    return max(float(lvl1), float(lvl2))


def test_criterion_03_chen_and_geometricity():
    cfg = SpectralConfig(
        n_modes=256, time_horizon=1.0, n_time=1, grid_level=10, dim=2, seed=203
    )
    rng = np.random.default_rng(99)
    n = 2**10
    max_chen = 0.0
    max_sym = 0.0
    iu, ju, _ = _node_pairs(n)
    for replica in range(100):
        sheet_slice = lift_level(sample_field(cfg, replica), 10).slice(1)
        # All increments: symmetric part against level1 ⊗ level1 / 2, on
        # the component-major tables (a1[a, p], a2[a, b, p]).
        (a1,), (f2,) = _increment_tables(
            sheet_slice.level1[None], sheet_slice.level2[None], iu, ju
        )
        a2 = f2.reshape(2, 2, -1)
        sym = 0.5 * (a2 + np.swapaxes(a2, 0, 1))
        sym -= 0.5 * np.einsum("ap,bp->abp", a1, a1)
        max_sym = max(max_sym, float(np.max(np.abs(sym))))
        # Chen on 2000 random triples plus the full coarse subgrid.
        raw = np.sort(rng.integers(0, n + 1, size=(2000, 3)), axis=1)
        coarse = np.arange(0, n + 1, 64)
        ci, cj, ck = np.meshgrid(coarse, coarse, coarse, indexing="ij")
        keep = (ci <= cj) & (cj <= ck)
        triples = (
            np.concatenate([raw[:, 0], ci[keep]]),
            np.concatenate([raw[:, 1], cj[keep]]),
            np.concatenate([raw[:, 2], ck[keep]]),
        )
        max_chen = max(max_chen, _chen_defect(sheet_slice, triples))
    report(
        "criterion 3: Chen/geometricity exactness",
        max_chen <= 1e-12 and max_sym <= 1e-12,
        f"max Chen defect {max_chen:.2e}, max symmetric defect {max_sym:.2e} "
        f"over 100 slices at K=10, d=2 (tol 1e-12)",
    )


def test_criterion_04_telescoping_identity():
    from heatlift.sheets import increment

    rng = np.random.default_rng(404)
    worst = 0.0
    for case in range(50):
        cfg = SpectralConfig(
            n_modes=128,
            time_horizon=1.0,
            n_time=4,
            grid_level=8,
            dim=2,
            seed=1000 + case,
        )
        sample = sample_field(cfg, 0)
        k = int(rng.integers(2, 8))
        t_index = int(rng.integers(0, 5))
        i_node = int(rng.integers(0, 2**k))
        j_node = int(rng.integers(i_node + 1, 2**k + 1))
        closed = level2_telescope(sample.values[t_index], 8, k, i_node, j_node)
        stride = 2 ** (8 - k)
        fine = lift_level(sample, k + 1).slice(t_index)
        coarse = lift_level(sample, k).slice(t_index)
        direct = (
            increment(fine, i_node * stride, j_node * stride).level2
            - increment(coarse, i_node * stride, j_node * stride).level2
        )
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    report(
        "criterion 4: telescoping identity",
        worst <= 1e-12,
        f"max |closed form - direct lift difference| = {worst:.2e} "
        f"over 50 random (field, k, I, J) (tol 1e-12)",
    )


@pytest.mark.parametrize("bound_id", ["estD2", "cq1", "cq2", "kolm_t", "kolm_x"])
def test_criterion_05_bound_scans_stable(bound_id):
    start = time.perf_counter()
    scan = bound_scan(bound_id, kappa=0.5)
    elapsed = time.perf_counter() - start
    drift = abs(scan.refinement_ratio - 1.0)
    report(
        f"criterion 5: bound scan {bound_id}",
        drift <= 0.10 and not scan.diverged and elapsed < 60.0,
        f"fitted c = {scan.max_ratio:.4f}, refinement drift {drift:.3%} "
        f"(tol 10%), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_convergence_exponents():
    start = time.perf_counter()
    slopes2 = {}
    slope1 = None
    for seed in (303, 304):
        cfg = SpectralConfig(
            n_modes=256,
            time_horizon=1.0,
            n_time=16,
            grid_level=9,
            dim=2,
            seed=seed,
        )
        table = convergence_study(cfg, range(3, 9), replicas=2000)
        slopes2[seed] = table.fits["sup:2"].slope
        if seed == 303:
            slope1 = table.fits["sup:1"].slope
    elapsed = time.perf_counter() - start
    seed_gap = abs(slopes2[303] - slopes2[304])
    ok = (
        -1.2 <= slope1 <= -0.7
        and slopes2[303] < 0
        and slopes2[304] < 0
        and seed_gap <= 0.15
        and elapsed < 600.0
    )
    report(
        "criterion 6: convergence exponents",
        ok,
        f"level-1 slope {slope1:.3f} (band [-1.2, -0.7]); level-2 slopes "
        f"{slopes2[303]:.3f}/{slopes2[304]:.3f} over two seeds "
        f"(gap {seed_gap:.3f}, tol 0.15), M=2000, runtime {elapsed:.0f}s (< 600s)",
    )


def test_criterion_07_homogeneity_and_commutation():
    rng = np.random.default_rng(707)
    worst_hom = 0.0
    worst_comm = 0.0
    for case in range(50):
        cfg = SpectralConfig(
            n_modes=64,
            time_horizon=1.0,
            n_time=6,
            grid_level=6,
            dim=2,
            seed=2000 + case,
        )
        sample = sample_field(cfg, 0)
        a = lift_level(sample, int(rng.integers(2, 5)))
        b = lift_level(sample, 6)
        eps = float(rng.uniform(0.25, 1.0))
        base = dist_infty(a, b)
        scaled = dist_infty(dilate_sheet(eps, a), dilate_sheet(eps, b))
        worst_hom = max(worst_hom, abs(scaled - eps * base) / (eps * base))
        k = int(rng.integers(2, 6))
        lift_scaled = lift_level(
            FieldSample(eps * sample.values, cfg, sample.replica), k
        )
        scaled_lift = dilate_sheet(eps, lift_level(sample, k))
        for u, v in (
            (lift_scaled.level1, scaled_lift.level1),
            (lift_scaled.level2, scaled_lift.level2),
        ):
            scale = np.max(np.abs(v))
            worst_comm = max(worst_comm, float(np.max(np.abs(u - v))) / scale)
    report(
        "criterion 7: dilation homogeneity and lift commutation",
        worst_hom <= 1e-14 and worst_comm <= 1e-14,
        f"max homogeneity defect {worst_hom:.2e}, max commutation defect "
        f"{worst_comm:.2e} over 50 sheets (tol 1e-14 relative)",
    )


def test_criterion_08_chaos_moment_growth():
    cfg1 = SpectralConfig(
        n_modes=64, time_horizon=1.0, n_time=8, grid_level=5, dim=1, seed=1
    )
    deg1 = chaos_moment_ratio("level1", [2, 3, 4, 6, 8], 100_000, cfg1)
    cfg2 = SpectralConfig(
        n_modes=64, time_horizon=1.0, n_time=8, grid_level=5, dim=2, seed=1
    )
    deg2 = chaos_moment_ratio("level2", [2, 3, 4, 6, 8], 100_000, cfg2)
    z4 = abs(deg1.ratio4 - 3.0**0.25) / deg1.ratio4_stderr
    ok = (
        0.35 <= deg1.exponent <= 0.65
        and 0.8 <= deg2.exponent <= 1.2
        and z4 <= 3.0
    )
    report(
        "criterion 8: chaos moment growth",
        ok,
        f"degree-1 exponent {deg1.exponent:.3f} (band [0.35, 0.65]); "
        f"degree-2 exponent {deg2.exponent:.3f} (band [0.8, 1.2]); "
        f"||Z||_4/||Z||_2 = {deg1.ratio4:.5f} vs 3^(1/4) = {3.0 ** 0.25:.5f} "
        f"({z4:.2f} SE, tol 3), M=1e5",
    )


def test_criterion_09_schilder_pointwise_scaling():
    sigma_sq = cov(1.0, 0.0, 1.0, 0.0, method="fourier")
    a = np.sqrt(sigma_sq)
    rep = schilder_point_check(1.0, 0.0, a, [0.5, 0.25, 0.125])
    logs = [row.eps2_log for row in rep.rows]
    monotone_from_below = logs[0] < logs[1] < logs[2] < rep.limit
    gap = abs(logs[-1] - rep.limit) / abs(rep.limit)
    report(
        "criterion 9: Schilder pointwise scaling",
        monotone_from_below
        and abs(rep.limit + 0.5) < 1e-12
        and gap <= 0.15,
        f"eps^2 log p = {logs[0]:.4f} < {logs[1]:.4f} < {logs[2]:.4f} -> "
        f"limit {rep.limit:.4f}; gap at eps=0.125 is {gap:.1%} (tol 15%)",
    )


def test_criterion_10_cameron_martin_suite():
    ctrl = CMControl(
        (ModeControl(mode=1, component=0, breakpoints=(0.0, 1.0), values=(1.0,)),)
    )
    # Quadratic scaling: bitwise for dyadic scale, 1e-12 for generic.
    exact_dyadic = rate_function(ctrl.scaled(2.0)) == 4.0 * rate_function(ctrl)
    generic = abs(
        rate_function(ctrl.scaled(1.7)) - 1.7**2 * rate_function(ctrl)
    ) <= 1e-12 * rate_function(ctrl)

    cfg = SpectralConfig(
        n_modes=8, time_horizon=1.0, n_time=8, grid_level=9, dim=1, seed=0
    )
    path = cameron_martin_path(ctrl, cfg)
    rows = cm_lift_uniform_convergence(path, range(2, 9))
    ks = np.array([r.k for r in rows])
    sups = np.array([r.level1_sup for r in rows])
    slope = float(np.polyfit(ks, np.log2(sups), 1)[0])

    stability = {}
    for K in (8, 10):
        cfg_k = SpectralConfig(
            n_modes=8, time_horizon=1.0, n_time=4, grid_level=K, dim=1, seed=0
        )
        reg = cm_regularity_check(cameron_martin_path(ctrl, cfg_k), q=1.5)
        stability[K] = (reg.holder_half_normalized, reg.qvar_normalized)
    drift = max(
        abs(stability[10][i] - stability[8][i]) / stability[8][i] for i in (0, 1)
    )
    ok = exact_dyadic and generic and slope <= -0.4 and drift <= 0.10
    report(
        "criterion 10: Cameron-Martin suite",
        ok,
        f"rate quadratic scaling exact={exact_dyadic}/generic={generic}; "
        f"lift level-1 decay slope {slope:.2f} (<= -0.4); regularity drift "
        f"{drift:.2%} under K 8->10 (tol 10%)",
    )


def test_criterion_11_determinism(tmp_path):
    import json

    argv = [
        "converge",
        "--seed",
        "11",
        "--threads",
        "2",
        "--set",
        "k_min=2",
        "--set",
        "k_max=4",
        "--set",
        "replicas=20",
        "--set",
        "n_modes=32",
        "--set",
        "n_time=4",
        "--set",
        "grid_level=5",
        "--set",
        "dim=2",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(argv + ["--out", str(out1)]) == 0
    assert (
        cli_main(
            ["converge", "--config", str(out1 / "manifest.json"), "--out", str(out2)]
        )
        == 0
    )
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    same = m1["outputs"] == m2["outputs"] and m1["config_hash"] == m2["config_hash"]
    report(
        "criterion 11: determinism from manifest",
        same and m2["threads"] == 2,
        f"re-run from manifest at threads=2 reproduced "
        f"{len(m1['outputs'])} artifacts bit-identically",
    )
