import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import heatlift
from heatlift import cli, covariance, dyadic, ldp, sampler, sheets
from heatlift.cli import main, resolve_config, run
from heatlift.dyadic import level2_telescope, lift_level
from heatlift.errors import ParameterError
from heatlift.group import GEOMETRIC_TOL, multiply
from heatlift.sampler import SpectralConfig, sample_field
from heatlift.sheets import GridMismatchError, increment


def file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


SMALL_SPECTRAL = [
    "--set",
    "n_modes=16",
    "--set",
    "n_time=4",
    "--set",
    "grid_level=4",
]

# Config files the exit-2 table reads, relative to its working directory.
CONFIG_FILES = {
    "scalar.json": "5",
    "spectral.json": '{"spectral": 5}',
    "resolved.json": '{"resolved_config": 5}',
    "typo.json": '{"param": {"replicas": 3}}',
    "notjson.json": "{not json",
    "seed.json": '{"seed": "x"}',
    "threads.json": '{"threads": 1.5}',
    "threads0.json": '{"threads": 0}',
}

# Constraints that sample_field and tail_probability check on entry,
# before they open a random stream: for these the call is the check.
ENTRY_CHECKS = {
    "sample_field": ("0 <= replica < 2^56 violated", "field would hold"),
    "tail_probability": (
        "eps_list must hold", "0 < epsilon", "0 < delta", "replicas >= 1",
        "0 <= k <= grid_level",
    ),
}

BESOV_DEFAULT_GRID = (
    ["--set", 'kinds=["besov"]', "--set", "alpha=0.45", "--set", "beta=0.02"]
    + ["--set", "m=60", "--set", "dim=2"]
)


class TestResolveConfig:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            resolve_config("frobnicate", {}, {})

    def test_defaults_and_overrides(self):
        config = resolve_config(
            "cov-check", {"seed": 3}, {"seed": None, "threads": 2, "set": ["n_s=7"]}
        )
        assert config["seed"] == 3
        assert config["threads"] == 2
        assert config["params"]["n_s"] == 7
        assert config["spectral"]["n_modes"] == 256
        assert set(config) == {"experiment", "seed", "threads", "spectral", "params"}

    def test_manifest_feedback(self):
        inner = resolve_config("schilder", {}, {})
        wrapped = {"resolved_config": inner}
        again = resolve_config("schilder", wrapped, {})
        assert again == inner

    def test_top_level_keys(self):
        # A resolved config's own keys pass; any other key is refused.
        inner = resolve_config("tails", {}, {})
        assert resolve_config("tails", inner, {}) == inner
        with pytest.raises(ValueError, match="unknown config key 'param'"):
            resolve_config("tails", {"param": {"replicas": 3}}, {})


class TestExitCodes:
    def test_cov_check_succeeds(self, tmp_path, capsys):
        code = main(["cov-check", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "cov_check.json").read_text())
        assert report["passed"]
        assert report["max_abs_discrepancy"] <= 1e-8

    def test_infeasible_converge_parameters_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "converge",
                "--out",
                str(tmp_path),
                "--set",
                "alpha=0.4",
                "--set",
                "beta=0.1",
                "--set",
                "m=30",
                "--set",
                'kinds=["besov"]',
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "4*beta < 1 - 2*alpha" in err

    def test_unknown_experiment_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_set_syntax_exit_2(self, tmp_path):
        code = main(["schilder", "--out", str(tmp_path), "--set", "oops"])
        assert code == 2

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("eps_list=[0.0]", "0 < epsilon < inf violated: epsilon=0.0"),
            ("eps_list=[-1.0]", "0 < epsilon < inf violated: epsilon=-1.0"),
            ("eps_list=[]", "eps_list must hold at least one epsilon"),
            ("eps_list=0.5", "eps_list must be a list, got 0.5"),
            ("delta=0", "0 < delta < inf violated: delta=0.0"),
            ("replicas=0", "replicas >= 1 violated: replicas=0"),
            ("k=-1", "0 <= k <= grid_level violated: k=-1, grid_level=4"),
            ("k=5", "0 <= k <= grid_level violated: k=5, grid_level=4"),
        ],
    )
    def test_invalid_tails_parameters_exit_2(
        self, tmp_path, capsys, monkeypatch, setting, named
    ):
        def refuse(config, replica):
            raise AssertionError("sampled before validation")

        monkeypatch.setattr(ldp, "sample_field", refuse)
        code = main(
            ["tails", "--out", str(tmp_path), "--set", setting] + SMALL_SPECTRAL
        )
        assert code == 2
        assert f"parameter error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "tails.csv").exists()

    @pytest.mark.parametrize(
        "argv, named, artifact",
        [
            (
                ["schilder", "--set", "eps_list=[-0.5]"],
                "0 < epsilon < inf violated: epsilon=-0.5",
                "schilder.csv",
            ),
            (
                ["schilder", "--set", "eps_list=[0.0]"],
                "0 < epsilon < inf violated: epsilon=0.0",
                "schilder.csv",
            ),
            (
                ["schilder", "--set", "eps_list=0.5"],
                "eps_list must be a list, got 0.5",
                "schilder.csv",
            ),
            (
                ["schilder", "--set", "a=-1"],
                "0 <= a < inf violated: a=-1.0",
                "schilder.csv",
            ),
            (
                ["chaos", "--set", "replicas=1"],
                "replicas >= batches violated: replicas=1, batches=25",
                "chaos.json",
            ),
            (
                ["sample", "--seed", "-1"] + SMALL_SPECTRAL,
                "0 <= seed < 2^64 violated: seed=-1",
                "field.csv",
            ),
            (
                ["sample", "--set", "replica=-1"] + SMALL_SPECTRAL,
                "0 <= replica < 2^56 violated: replica=-1",
                "field.csv",
            ),
            (
                ["sample", "--set", "dim=257"] + SMALL_SPECTRAL,
                "1 <= dim <= 256 violated: dim=257",
                "field.csv",
            ),
            (
                ["converge", "--set", "k_min=5", "--set", "k_max=3"] + SMALL_SPECTRAL,
                "k_min <= k_max violated: k_min=5, k_max=3",
                "convergence.csv",
            ),
            (
                ["converge", "--set", "replicas=1", "--set", "k_min=2"]
                + ["--set", "k_max=3"] + SMALL_SPECTRAL,
                "replicas >= 2 violated: replicas=1",
                "convergence.csv",
            ),
            (
                ["converge", "--set", "k_min=-1", "--set", "k_max=2"]
                + ["--set", "replicas=2"] + SMALL_SPECTRAL,
                "k >= 0 violated: k=-1",
                "convergence.csv",
            ),
            (
                ["converge", "--set", 'kinds=["besov"]', "--set", "alpha=0.4"]
                + ["--set", "beta=0.04", "--set", "m=30", "--set", "k_min=-1"]
                + ["--set", "k_max=2", "--set", "replicas=2"] + SMALL_SPECTRAL,
                "k >= 0 violated: k=-1",
                "convergence.csv",
            ),
            (
                ["converge", "--set", 'kinds=["supp"]', "--set", "k_min=1"]
                + ["--set", "k_max=2", "--set", "replicas=2"] + SMALL_SPECTRAL,
                "kind in {sup, besov} violated: kind='supp'",
                "convergence.csv",
            ),
            (
                ["cm", "--set", "k_range=[-2,3]"] + SMALL_SPECTRAL,
                "0 <= k <= grid_level violated: k=-2, grid_level=4",
                "cm.json",
            ),
            (
                ["tails", "--set", "replica=3"] + SMALL_SPECTRAL,
                "unknown parameter 'replica' for tails; choose from delta, dim,",
                "tails.csv",
            ),
            (
                ["sample", "--set", "n_time=[1]", "--set", "n_modes=16"]
                + ["--set", "grid_level=4"],
                "n_time must be an integer, got [1]",
                "field.csv",
            ),
            (
                ["sample", "--set", "n_time=2.5", "--set", "n_modes=16"]
                + ["--set", "grid_level=4"],
                "n_time must be an integer, got 2.5",
                "field.csv",
            ),
            (
                ["sample", "--set", "write_binary=1"] + SMALL_SPECTRAL,
                "write_binary must be a boolean, got 1",
                "field.csv",
            ),
            (
                ["schilder", "--set", "a=true"],
                "a must be a number or null, got True",
                "schilder.csv",
            ),
            (
                ["sample", "--config", "missing.json"] + SMALL_SPECTRAL,
                "config file not found: missing.json",
                "field.csv",
            ),
            (
                ["converge", "--set", "replicas=0", "--set", "k_min=2"]
                + ["--set", "k_max=3"] + SMALL_SPECTRAL,
                "replicas >= 2 violated: replicas=0",
                "convergence.csv",
            ),
            (
                ["chaos", "--set", "functional=level2"],
                "level2 functional needs dim >= 2",
                "chaos.json",
            ),
            (
                ["cm", "--set", "q=3"] + SMALL_SPECTRAL,
                "q must lie in (4/3, 2), got 3.0",
                "cm.json",
            ),
            # The rest of README's exit-code paragraph and tails paragraph.
            (["tails", "--config", "scalar.json"], "config must be a JSON object, got 5",
             "tails.csv"),
            (["tails", "--config", "spectral.json"],
             "spectral must be a JSON object, got 5", "tails.csv"),
            (["tails", "--config", "resolved.json"],
             "resolved_config must be a JSON object, got 5", "tails.csv"),
            (["tails", "--config", "typo.json"], "unknown config key 'param'", "tails.csv"),
            (["schilder", "--set", "oops"], "--set expects key=value, got 'oops'",
             "schilder.csv"),
            (["sample", "--set", "grid_level=22"], "field would hold 541065345 values",
             "field.csv"),
            (["converge"] + BESOV_DEFAULT_GRID,
             "Besov increment tables would hold, with their rows, 816588800 values",
             "convergence.csv"),
            (["schilder", "--set", "a=Infinity"], "0 <= a < inf violated: a=inf",
             "schilder.csv"),
            (["chaos", "--set", "q_list=[2]"],
             "q_list must hold at least two distinct orders, got [2.0]", "chaos.json"),
            (["chaos", "--set", "q_list=[2,3]"],
             "q_list must include 4 for ratio4, got [2.0, 3.0]", "chaos.json"),
            (["chaos", "--set", "q_list=[4,Infinity]"],
             "moment orders 2 <= q < inf violated: q=inf", "chaos.json"),
            (["tails", "--set", "eps_list=[]"] + SMALL_SPECTRAL,
             "eps_list must hold at least one epsilon", "tails.csv"),
            (["tails", "--set", "delta=0"] + SMALL_SPECTRAL,
             "0 < delta < inf violated: delta=0.0", "tails.csv"),
            (["tails", "--set", "replicas=0"] + SMALL_SPECTRAL,
             "replicas >= 1 violated: replicas=0", "tails.csv"),
            (["tails", "--set", "k=5"] + SMALL_SPECTRAL,
             "0 <= k <= grid_level violated: k=5, grid_level=4", "tails.csv"),
            # Inputs that once exited 0 with a degenerate report, exited 1,
            # or exited 2 with numpy's message instead of a constraint.
            (["chaos", "--set", "y=0.0"],
             "dist_s1(x, y) >= 1e-12 violated: x=0.0, y=0.0", "chaos.json"),
            (["chaos", "--set", "y=1.0"],
             "dist_s1(x, y) >= 1e-12 violated: x=0.0, y=1.0", "chaos.json"),
            (["chaos", "--set", "functional=level2", "--set", "dim=2", "--set", "level=0"],
             "level >= 1 violated: level=0", "chaos.json"),
            (["chaos", "--set", "functional=level2", "--set", "dim=2", "--set", "level=-1"],
             "level >= 1 violated: level=-1", "chaos.json"),
            (["cm", "--set", "controls=[5]"],
             "a control must be a JSON object, got 5", "cm.json"),
            (["cm", "--set", 'controls=[{"values":[1.0]}]'],
             "a control needs the key 'mode'", "cm.json"),
            (["cm", "--set", 'controls=[{"mode":0,"breakpoints":[0,1],"values":[NaN]}]'],
             "control values must be a list of finite numbers", "cm.json"),
            (["sample", "--set", "grid_level=-1"],
             "grid_level >= 0 violated: grid_level=-1", "field.csv"),
            (["cov-check", "--set", "n_s=0"], "n_s >= 1 violated: n_s=0", "cov_check.json"),
            (["cov-check", "--set", "n_x=-1"], "n_x >= 1 violated: n_x=-1",
             "cov_check.json"),
            (["bounds-scan", "--set", "bounds=[]"],
             "bounds must hold at least one bound id", "bound_scans.json"),
            (["lift-check", "--set", "telescope_k=-1"] + SMALL_SPECTRAL,
             "0 <= telescope_k <= grid_level - 1 violated: telescope_k=-1, grid_level=4",
             "lift_check.json"),
            (["lift-check", "--set", "telescope_k=4"] + SMALL_SPECTRAL,
             "0 <= telescope_k <= grid_level - 1 violated: telescope_k=4, grid_level=4",
             "lift_check.json"),
            (["lift-check", "--set", "n_slices=0", "--set", "n_telescope=0"]
             + SMALL_SPECTRAL, "n_slices >= 1 violated: n_slices=0", "lift_check.json"),
            (["lift-check", "--set", "telescope_k=2", "--set", "n_telescope=0"]
             + SMALL_SPECTRAL, "n_telescope >= 1 violated: n_telescope=0",
             "lift_check.json"),
            # Inputs once cast or read by numpy, now checked where they enter.
            (["sample", "--config", "notjson.json"] + SMALL_SPECTRAL,
             "config file notjson.json is not JSON", "field.csv"),
            (["sample", "--config", "seed.json"] + SMALL_SPECTRAL,
             "seed must be an integer, got 'x'", "field.csv"),
            (["tails", "--config", "threads.json"] + SMALL_SPECTRAL,
             "threads must be an integer, got 1.5", "tails.csv"),
            (["tails", "--set", 'eps_list=[1.0,"a"]'] + SMALL_SPECTRAL,
             "0 < epsilon < inf violated: epsilon='a'", "tails.csv"),
            (["cm", "--set", 'k_range=[2,"a"]'] + SMALL_SPECTRAL,
             "k must be an integer, got 'a'", "cm.json"),
            (["bounds-scan", "--set", 'bounds=["kolm_t","nope"]'],
             "unknown bound_id 'nope'", "bound_scans.json"),
            (["converge", "--set", "kinds=[]", "--set", "k_min=2", "--set", "k_max=3"]
             + SMALL_SPECTRAL, "kinds must hold at least one kind", "convergence.csv"),
            (["converge"] + BESOV_DEFAULT_GRID[:-4] + ["--set", "m=0", "--set", "k_min=2"]
             + ["--set", "k_max=3"] + SMALL_SPECTRAL, "m > 0 violated: m=0",
             "convergence.csv"),
            # Non-finite numbers once ran to a NaN artifact (exit 0) or to
            # exit 1.  NaN is no number; an infinity breaks a named range.
            (["sample", "--set", "time_horizon=NaN"] + SMALL_SPECTRAL,
             "time_horizon must be a number, got nan", "field.csv"),
            (["sample", "--set", "time_horizon=Infinity"] + SMALL_SPECTRAL,
             "0 < time_horizon < inf violated: time_horizon=inf", "field.csv"),
            (["chaos", "--set", "t=NaN"], "t must be a number, got nan", "chaos.json"),
            (["chaos", "--set", "t=Infinity"], "0 < t < inf violated: t=inf",
             "chaos.json"),
            (["chaos", "--set", "functional=level2", "--set", "dim=2", "--set", "y=Infinity"],
             "-inf < y < inf violated: y=inf", "chaos.json"),
            (["chaos", "--set", "functional=level2", "--set", "dim=2", "--set", "level=2000"],
             "level <= 52 violated: level=2000", "chaos.json"),
            (["schilder", "--set", "t=Infinity"], "0 < t < inf violated: t=inf",
             "schilder.csv"),
            (["schilder", "--set", "x=-Infinity"], "-inf < x < inf violated: x=-inf",
             "schilder.csv"),
            (["cov-check", "--set", "tolerance=Infinity"],
             "0 < tolerance < inf violated: tolerance=inf", "cov_check.json"),
            (["converge"] + BESOV_DEFAULT_GRID[:-4] + ["--set", "m=Infinity"]
             + ["--set", "k_min=2", "--set", "k_max=3"] + SMALL_SPECTRAL,
             "m < inf violated: m=inf", "convergence.csv"),
            # Thread counts below one once exited 0 and were recorded.
            (["tails", "--threads", "0"] + SMALL_SPECTRAL,
             "threads >= 1 violated: threads=0", "tails.csv"),
            (["tails", "--threads", "-3"] + SMALL_SPECTRAL,
             "threads >= 1 violated: threads=-3", "tails.csv"),
            (["converge", "--config", "threads0.json"] + SMALL_SPECTRAL,
             "threads >= 1 violated: threads=0", "convergence.csv"),
            # Every component has the same marginal: schilder takes none.
            (["schilder", "--set", "component=0"],
             "unknown parameter 'component' for schilder", "schilder.csv"),
        ],
    )
    def test_invalid_parameters_exit_2(
        self, tmp_path, capsys, monkeypatch, argv, named, artifact
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before validation")

        # No sampling call is made unless it is the check itself, no random
        # stream is opened, and nothing is lifted or scanned.
        for name in ("sample_field", "sample_row", "tail_probability"):
            if not named.startswith(ENTRY_CHECKS.get(name, ())):
                monkeypatch.setattr(cli, name, refuse)
        for name in ("bound_scan", "dual_method_check", "cameron_martin_path",
                     "cm_regularity_check"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(sampler, "_philox", refuse)
        monkeypatch.setattr(ldp, "sample_slice_marginal", refuse)
        monkeypatch.setattr(ldp, "lift_level", refuse)
        # A relative --config resolves inside the working directory.
        monkeypatch.chdir(tmp_path)
        for filename, text in CONFIG_FILES.items():
            (tmp_path / filename).write_text(text)
        out = tmp_path / "out"
        code = main(argv + ["--out", str(out)])
        assert code == 2
        assert f"parameter error: {named}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        assert not (tmp_path / artifact).exists()

    def test_parameter_error_is_the_exit_2_type(self):
        assert heatlift.ParameterError is ParameterError
        assert issubclass(ParameterError, ValueError)
        assert issubclass(sampler.GridTooLargeError, ParameterError)
        assert not hasattr(cli, "ConstraintError")

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("attempt to get argmax of an empty sequence"),
            GridMismatchError("sheets live on different time grids"),
        ],
        ids=["ValueError", "GridMismatchError"],
    )
    def test_internal_value_error_exits_1(self, tmp_path, capsys, monkeypatch, error):
        # A ValueError that is no ParameterError, raised mid-run by a
        # kernel, is an internal failure, not a parameter error.
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(ldp, "_gap_sup", broken)
        code = main(
            ["tails", "--out", str(tmp_path), "--set", "replicas=2", "--set", "dim=2"]
            + SMALL_SPECTRAL
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"runtime failure: {error}" in err
        assert "parameter error" not in err

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("q_list=[]", "q_list must hold at least two distinct orders, got []"),
            ("q_list=[2]", "q_list must hold at least two distinct orders, got [2.0]"),
            ("q_list=[4]", "q_list must hold at least two distinct orders, got [4.0]"),
            ("q_list=[2,3]", "q_list must include 4 for ratio4, got [2.0, 3.0]"),
            ("q_list=[1,4]", "moment orders 2 <= q < inf violated: q=1"),
        ],
    )
    def test_invalid_chaos_orders_exit_2(
        self, tmp_path, capsys, monkeypatch, setting, named
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before validation")

        monkeypatch.setattr(ldp, "sample_slice_marginal", refuse)
        code = main(["chaos", "--out", str(tmp_path), "--set", setting])
        assert code == 2
        assert f"parameter error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "chaos.json").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"param": {"replicas": 3}}))
        out = tmp_path / "out"
        code = main(["tails", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert "parameter error: unknown config key 'param'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("5", "config must be a JSON object, got 5"),
            ("[]", "config must be a JSON object, got []"),
            ('{"spectral": 5}', "spectral must be a JSON object, got 5"),
            ('{"params": [1]}', "params must be a JSON object, got [1]"),
            ('{"params": null}', "params must be a JSON object, got None"),
            ('{"resolved_config": 5}', "resolved_config must be a JSON object, got 5"),
            (
                '{"resolved_config": {"spectral": "x"}}',
                "spectral must be a JSON object, got 'x'",
            ),
        ],
    )
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, text, named):
        config = tmp_path / "shape.json"
        config.write_text(text)
        out = tmp_path / "out"
        code = main(["tails", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert f"parameter error: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_grid_exit_2(self, tmp_path, capsys):
        # 129 * (2^22 + 1) field values trip the sampler's guard before
        # anything is allocated.
        code = main(["sample", "--out", str(tmp_path), "--set", "grid_level=22"])
        assert code == 2
        err = capsys.readouterr().err
        assert "field would hold 541065345 values" in err
        assert "guard is 268435456" in err
        assert not (tmp_path / "field.csv").exists()


    def test_oversized_besov_tables_exit_2(self, tmp_path, capsys, monkeypatch):
        # At the default grid (K=10, 129 times, 8,256 time pairs) one dim-2
        # table holds 129 * 524,800 * 6 = 406,195,200 values over the
        # 2^10 * (2^10 + 1) / 2 = 524,800 node pairs.  The one worker's arena
        # holds two tables and 6 gather rows, the product row and 1
        # quadrature row of 524,800 each (a row is 4.2 MB, past the 1 MiB
        # block budget): 2 * 406,195,200 + 8 * 524,800.
        def refuse(config, replica):
            raise AssertionError("sampled before the guard")

        monkeypatch.setattr(dyadic, "sample_field", refuse)
        code = main(
            ["converge", "--out", str(tmp_path), "--set", 'kinds=["besov"]']
            + ["--set", "alpha=0.45", "--set", "beta=0.02", "--set", "m=60"]
            + ["--set", "dim=2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Besov increment tables would hold, with their rows, 816588800 values" in err
        assert "guard is 268435456" in err
        assert not (tmp_path / "convergence.csv").exists()

    def test_oversized_cov_check_exit_2(self, tmp_path, capsys, monkeypatch):
        # n_s = n_x = 100 is 10^8 grid points; the dual check would hold four
        # grid-sized arrays at once, past the guard, before any covariance.
        def refuse(*args, **kwargs):
            raise AssertionError("covariance evaluated before the guard")

        monkeypatch.setattr(covariance, "cov", refuse)
        code = main(
            ["cov-check", "--out", str(tmp_path), "--set", "n_s=100", "--set", "n_x=100"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "n_s=100, n_x=100 has 100000000 grid points" in err
        assert "would hold 400000000 values at once (guard is 268435456)" in err
        assert not (tmp_path / "cov_check.json").exists()

    def test_cov_check_guard_counts_four_grid_arrays(self, tmp_path, capsys, monkeypatch):
        # n_s=3, n_x=2: 9 time pairs x 4 position pairs = 36 points, 144 values.
        argv = ["cov-check", "--set", "n_s=3", "--set", "n_x=2", "--out"]
        monkeypatch.setattr(cli, "_MAX_FIELD_ENTRIES", 144)
        assert main(argv + [str(tmp_path / "fits")]) == 0
        assert json.loads((tmp_path / "fits" / "cov_check.json").read_text())["grid_points"] == 36

        def refuse(*args, **kwargs):
            raise AssertionError("covariance evaluated before the guard")

        monkeypatch.setattr(cli, "_MAX_FIELD_ENTRIES", 143)
        monkeypatch.setattr(covariance, "cov", refuse)
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "refused")]) == 2
        assert "would hold 144 values at once (guard is 143)" in capsys.readouterr().err
        assert not (tmp_path / "refused" / "cov_check.json").exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["cov-check", "--set", "n_s=100", "--set", "n_x=100"], "(guard is 268435456)"),
            (["tails", "--set", "eps_list=[0.0]"], "0 < epsilon < inf violated"),
        ],
        ids=["cov-check-huge", "tails-bad"],
    )
    def test_body_exit_2_removes_only_new_directories(self, tmp_path, capsys, argv, message):
        # Both checks run in the experiment's body, after --out is made.
        assert main(argv + ["--out", str(tmp_path / "made" / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "made").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "note.txt").write_text("kept")
        assert main(argv + ["--out", str(kept)]) == 2
        assert main(argv + ["--out", str(kept / "new")]) == 2
        assert sorted(p.name for p in kept.iterdir()) == ["note.txt"]
        assert (kept / "note.txt").read_text() == "kept"

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 3])
    def test_output_hash_streams_whole_file(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "out.bin"
        path.write_bytes(data)
        assert cli._sha256_file(path) == hashlib.sha256(data).hexdigest()

    def test_non_finite_besov_norm_exits_1(self, tmp_path, capsys, monkeypatch):
        # A non-finite norm is an internal failure, not a parameter error.
        def non_finite(*args, **kwargs):
            raise FloatingPointError("non-finite level-1 Besov norm")

        monkeypatch.setattr(dyadic, "spacetime_besov_norm", non_finite)
        code = main(
            ["converge", "--out", str(tmp_path), "--set", 'kinds=["besov"]']
            + ["--set", "alpha=0.45", "--set", "beta=0.02", "--set", "m=60"]
            + SMALL_SPECTRAL + ["--set", "k_min=2", "--set", "k_max=3"]
            + ["--set", "replicas=2"]
        )
        assert code == 1
        assert "runtime failure: non-finite level-1 Besov norm" in capsys.readouterr().err


class TestDeterminism:
    def test_sample_reruns_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["sample", "--seed", "7"] + SMALL_SPECTRAL
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("field.csv", "field.bin", "lift.bin"):
            assert file_hash(out1 / name) == file_hash(out2 / name)

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = [
            "converge",
            "--seed",
            "5",
            "--set",
            "k_min=2",
            "--set",
            "k_max=3",
            "--set",
            "replicas=5",
            "--set",
            "n_modes=16",
            "--set",
            "n_time=4",
            "--set",
            "grid_level=4",
            "--set",
            "dim=2",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert (
            main(
                [
                    "converge",
                    "--config",
                    str(out1 / "manifest.json"),
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config_hash"] == manifest2["config_hash"]
        assert manifest["outputs"] == manifest2["outputs"]

    def test_manifest_records_output_hashes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["schilder", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            assert file_hash(out / name) == digest
        assert manifest["config_hash"]
        assert manifest["threads"] == 1
        runtime = manifest["runtime"]
        assert set(runtime) == {"numpy", "blas", "openblas_num_threads"}
        assert runtime["numpy"] == np.__version__
        assert set(runtime["blas"]) == {"name", "version"}
        assert isinstance(runtime["openblas_num_threads"], str)

    def test_manifest_records_worker_resources(self, tmp_path, usable_cpus):
        # At --threads 2 the second run of replicas is mapped in a forked
        # worker: its faults and its peak resident set are the workers'.
        usable_cpus(2)
        out = tmp_path / "run"
        argv = ["tails", "--threads", "2", "--set", "replicas=4", "--set", "dim=2"]
        assert main(argv + SMALL_SPECTRAL + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        resources = manifest["resources"]
        assert manifest["threads"] == 2
        assert resources["workers_minor_faults"] > 0
        assert resources["workers_peak_rss_mb"] > 0

    def test_manifest_records_resources(self, tmp_path):
        # The resources block sits beside runtime, outside the hashed
        # outputs, and a manifest holding it still re-feeds as --config.
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["tails", "--set", "replicas=3", "--set", "dim=2"] + SMALL_SPECTRAL
        assert main(argv + ["--out", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        resources = manifest["resources"]
        assert set(resources) == {
            "peak_rss_mb", "minor_faults", "workers_peak_rss_mb", "workers_minor_faults"
        }
        assert isinstance(resources["minor_faults"], int)
        assert isinstance(resources["workers_minor_faults"], int)
        for value in resources.values():
            assert math.isfinite(value) and value >= 0
        assert resources["peak_rss_mb"] > 0
        assert "resources" not in manifest["outputs"]
        assert main(["tails", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["resolved_config"] == manifest["resolved_config"]
        assert manifest2["outputs"] == manifest["outputs"]


def reference_lift_check(config: dict) -> dict:
    """lift-check's report computed from full-sheet lifts: every sampled
    field is lifted at every time, and the checked row is read off."""
    cfg = cli._spectral(config)
    p = config["params"]
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, 0x11F7], dtype=np.uint64))
    )
    max_chen = 0.0
    max_sym = 0.0
    for replica in range(int(p["n_slices"])):
        sample = sample_field(cfg, replica)
        sheet = lift_level(sample, cfg.grid_level)
        t_index = int(rng.integers(0, cfg.n_time + 1))
        sl = sheet.slice(t_index)
        n = sl.n_cells
        idx = np.sort(rng.integers(0, n + 1, size=30))
        for a_i in range(0, len(idx) - 2, 3):
            i, j, k = idx[a_i], idx[a_i + 1], idx[a_i + 2]
            left = increment(sl, int(i), int(k))
            right_a = increment(sl, int(i), int(j))
            right_b = increment(sl, int(j), int(k))
            comp = multiply(right_a, right_b)
            max_chen = max(max_chen, float(np.max(np.abs(left.level2 - comp.level2))))
            max_sym = max(max_sym, left.symmetric_defect())
    k_level = int(p["telescope_k"])
    max_tel = 0.0
    for case in range(int(p["n_telescope"])):
        sample = sample_field(cfg, 1000 + case)
        t_index = int(rng.integers(0, cfg.n_time + 1))
        i_node = int(rng.integers(0, 2**k_level))
        j_node = int(rng.integers(i_node + 1, 2**k_level + 1))
        closed = level2_telescope(
            sample.values[t_index], cfg.grid_level, k_level, i_node, j_node
        )
        stride = 2 ** (cfg.grid_level - k_level)
        fine = lift_level(sample, k_level + 1)
        coarse = lift_level(sample, k_level)
        direct = (
            increment(fine.slice(t_index), i_node * stride, j_node * stride).level2
            - increment(coarse.slice(t_index), i_node * stride, j_node * stride).level2
        )
        max_tel = max(max_tel, float(np.max(np.abs(closed - direct))))
    return {
        "max_chen_defect": max_chen,
        "max_symmetric_defect": max_sym,
        "max_telescope_defect": max_tel,
        "tolerance": 1e-12,
        "geometric_tolerance": GEOMETRIC_TOL,
        "passed": bool(max(max_chen, max_sym, max_tel) <= 1e-12),
    }


class TestLiftCheckOneRow:
    """lift-check lifts only the time row each check reads."""

    @staticmethod
    def config(dim, seed, grid_level=6, **params):
        return resolve_config(
            "lift-check",
            {"seed": seed},
            {"set": [f"dim={dim}", "n_modes=32", "n_time=6", f"grid_level={grid_level}"]
             + [f"{key}={value}" for key, value in params.items()]},
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_report_equals_full_sheet_reference(self, tmp_path, dim, seed):
        config = self.config(dim, seed, n_slices=4, n_telescope=4)
        summary = run(config, str(tmp_path))["summary"]
        report = json.loads((tmp_path / "lift_check.json").read_text())
        assert report == reference_lift_check(config)
        assert summary == report

    # On 2 and 4 cells the 30 sorted draws repeat nodes (i == j, j == k)
    # and hit both endpoints.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("grid_level", [1, 2])
    def test_report_equals_full_sheet_reference_with_repeated_nodes(
        self, tmp_path, dim, grid_level
    ):
        config = self.config(
            dim, 5, grid_level=grid_level, n_slices=6, n_telescope=3, telescope_k=0
        )
        rng = np.random.Generator(
            np.random.Philox(key=np.array([5, 0x11F7], dtype=np.uint64))
        )
        rng.integers(0, 7)
        idx = np.sort(rng.integers(0, 2**grid_level + 1, size=30))
        assert np.any(idx[0::3] == idx[1::3]) and np.any(idx[1::3] == idx[2::3])
        assert idx[0] == 0 and idx[-1] == 2**grid_level
        summary = run(config, str(tmp_path))["summary"]
        report = json.loads((tmp_path / "lift_check.json").read_text())
        assert report == reference_lift_check(config)
        assert summary == report

    @pytest.mark.parametrize("telescope_k", [0, 2, 5])
    def test_every_lift_has_one_time_row(self, tmp_path, monkeypatch, telescope_k):
        rows = []

        def counting(times, values, grid_level):
            rows.append(values.shape[0])
            return lift(times, values, grid_level)

        # dyadic binds its own name for the full-sheet lift.
        lift = sheets._lift_values
        monkeypatch.setattr(sheets, "_lift_values", counting)
        monkeypatch.setattr(dyadic, "_lift_values", counting)
        config = self.config(
            2, 3, n_slices=5, n_telescope=3, telescope_k=telescope_k
        )
        run(config, str(tmp_path))
        assert rows == [1] * (5 + 2 * 3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_sample_synthesizes_one_row(self, tmp_path, monkeypatch, dim):
        rows = []
        synthesize = sampler._synthesize

        def counting(config, replica, t_index=None):
            values = synthesize(config, replica, t_index)
            rows.append(values.shape[0])
            return values

        monkeypatch.setattr(sampler, "_synthesize", counting)
        config = self.config(dim, 4, n_slices=5, n_telescope=3)
        report = run(config, str(tmp_path))["summary"]
        assert rows == [1] * (5 + 3)
        monkeypatch.undo()
        assert report == reference_lift_check(config)


def loop_field_csv(sample) -> bytes:
    """Reference: field.csv formatted value by value through float()."""
    cfg = sample.config
    text = "# heatlift-csv field v1\nt,x,component,value\n"
    for it, t in enumerate(cfg.times()):
        for ix, xval in enumerate(cfg.nodes()):
            for c in range(cfg.dim):
                text += (
                    f"{float(t)!r},{float(xval)!r},{c},"
                    f"{float(sample.values[it, ix, c])!r}\n"
                )
    return text.encode()


def loop_csv(path: Path, schema: str, header: str, rows):
    """Reference: a CSV written one row and one write call at a time, each
    column read from the row's attribute of the header's name; floats by
    repr, booleans as 0/1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# heatlift-csv {schema} v1\n")
        fh.write(header + "\n")
        for row in rows:
            cells = []
            for name in header.split(","):
                value = getattr(row, name)
                if isinstance(value, bool):
                    value = int(value)
                cells.append(repr(value) if isinstance(value, float) else str(value))
            fh.write(",".join(cells) + "\n")


class TestExperiments:
    @pytest.mark.parametrize(
        "dim,write_binary",
        [(dim, binary) for binary in ("false", "true") for dim in (1, 2, 3)],
        ids=["1", "2", "3", "1-binary", "2-binary", "3-binary"],
    )
    def test_sample_field_csv_matches_loop(self, tmp_path, dim, write_binary):
        code = main(
            ["sample", "--out", str(tmp_path), "--seed", "5", "--set", "n_modes=64"]
            + ["--set", "n_time=7", "--set", "grid_level=6", "--set", f"dim={dim}"]
            + ["--set", "replica=2", "--set", f"write_binary={write_binary}"]
        )
        assert code == 0
        cfg = SpectralConfig(n_modes=64, n_time=7, grid_level=6, dim=dim, seed=5)
        expected = loop_field_csv(sample_field(cfg, 2))
        assert (tmp_path / "field.csv").read_bytes() == expected
        assert (tmp_path / "field.bin").exists() == (write_binary == "true")

    @pytest.mark.parametrize("dim", [1, 3])
    def test_sample_field_csv_values_are_the_cache_bits(self, tmp_path, dim):
        code = main(
            ["sample", "--out", str(tmp_path), "--seed", "8", "--set", "n_modes=32"]
            + ["--set", "n_time=5", "--set", "grid_level=5", "--set", f"dim={dim}"]
        )
        assert code == 0
        cached = sampler.load_field(str(tmp_path / "field.bin"))
        cfg = cached.config
        lines = (tmp_path / "field.csv").read_text().splitlines()[2:]
        assert len(lines) == cached.values.size
        cells = [line.split(",") for line in lines]
        # (t, x, component) order is the cache's C order.
        t, x, c = (np.array([float(r[i]) for r in cells]) for i in range(3))
        shape = cached.values.shape
        assert np.array_equal(t.reshape(shape), np.broadcast_to(cfg.times()[:, None, None], shape))
        assert np.array_equal(x.reshape(shape), np.broadcast_to(cfg.nodes()[None, :, None], shape))
        assert np.array_equal(c.reshape(shape), np.broadcast_to(np.arange(dim), shape))
        values = np.array([float(r[3]) for r in cells])
        assert np.array_equal(values.view(np.uint64), cached.values.ravel().view(np.uint64))

    @pytest.mark.parametrize(
        "experiment,name,schema,function,argv",
        [
            ("converge", "convergence.csv", "convergence", "convergence_study",
             SMALL_SPECTRAL + ["--set", "dim=2", "--set", "k_min=1", "--set", "k_max=3",
                               "--set", "replicas=3"]),
            ("tails", "tails.csv", "tails", "tail_probability",
             SMALL_SPECTRAL + ["--set", "dim=2", "--set", "replicas=5",
                               "--set", "eps_list=[1.0,0.5,0.25]"]),
            ("schilder", "schilder.csv", "schilder", "schilder_point_check",
             ["--set", "eps_list=[0.5,0.25,0.125,1e-170]"]),
        ],
        ids=["converge", "tails", "schilder"],
    )
    def test_small_csvs_match_row_by_row_writer(
        self, tmp_path, monkeypatch, experiment, name, schema, function, argv
    ):
        results = []
        call = getattr(cli, function)

        def keep(*args, **kwargs):
            results.append(call(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, function, keep)
        assert main([experiment, "--out", str(tmp_path / "run")] + argv) == 0
        (result,) = results
        rows = result if isinstance(result, tuple) else result.rows
        written = (tmp_path / "run" / name).read_text().splitlines()
        assert len(rows) >= 3 and len(written) == 2 + len(rows)
        loop_csv(tmp_path / name, schema, written[1], rows)
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_sample_field_csv_layout(self, tmp_path):
        code = main(
            ["sample", "--out", str(tmp_path), "--seed", "5", "--set", "n_modes=4"]
            + ["--set", "n_time=2", "--set", "grid_level=2", "--set", "dim=2"]
        )
        assert code == 0
        lines = (tmp_path / "field.csv").read_text().splitlines()
        assert lines[0] == "# heatlift-csv field v1"
        assert lines[1] == "t,x,component,value"
        assert len(lines) == 2 + 3 * 5 * 2
        t, x, c, v = lines[2].split(",")
        assert float(t) == 0.0 and float(x) == 0.0 and c == "0" and float(v) == 0.0

    def test_converge_csv_layout(self, tmp_path):
        code = main(
            ["converge", "--out", str(tmp_path), "--seed", "4", "--set", "n_modes=16"]
            + ["--set", "n_time=4", "--set", "grid_level=5", "--set", "dim=2"]
            + ["--set", "k_min=2", "--set", "k_max=3", "--set", "replicas=3"]
        )
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "# heatlift-csv convergence v1"
        assert lines[1] == "k,level,norm_kind,estimate,stderr,replicas"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        assert sorted((int(r[0]), int(r[1])) for r in rows) == [
            (2, 1), (2, 2), (3, 1), (3, 2)
        ]
        assert all(r[2] == "sup" and r[5] == "3" for r in rows)
        assert all(float(r[3]) > 0 and math.isfinite(float(r[4])) for r in rows)

    def test_converge_besov_at_overflow_point_is_finite(self, tmp_path):
        # At (alpha, beta, m) = (0.49, 0.004, 300) and grid level 8 the
        # power-domain weights (1/n)^2 / sep^148 overflow; every row was NaN.
        code = main(
            ["converge", "--out", str(tmp_path), "--seed", "4"]
            + ["--set", 'kinds=["besov"]', "--set", "grid_level=8"]
            + ["--set", "n_time=2", "--set", "dim=1", "--set", "k_min=6"]
            + ["--set", "k_max=7", "--set", "replicas=2", "--set", "alpha=0.49"]
            + ["--set", "beta=0.004", "--set", "m=300"]
        )
        assert code == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        assert all(
            float(r[3]) > 0 and math.isfinite(float(r[3])) and math.isfinite(float(r[4]))
            for r in rows
        )

    @pytest.mark.parametrize("k_max", [3, 4])
    def test_converge_fits_layout(self, tmp_path, k_max):
        code = main(
            ["converge", "--out", str(tmp_path), "--seed", "4", "--set", "n_modes=16"]
            + ["--set", "n_time=4", "--set", "grid_level=5", "--set", "dim=2"]
            + ["--set", "k_min=2", "--set", f"k_max={k_max}", "--set", "replicas=3"]
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"not valid JSON: {token}")

        text = (tmp_path / "convergence_fits.json").read_text()
        fits = json.loads(text, parse_constant=reject)
        assert sorted(fits) == ["sup:1", "sup:2"]
        for fit in fits.values():
            assert set(fit) == {"slope", "intercept", "slope_stderr", "n_points"}
            assert fit["n_points"] == k_max - 1
            if k_max == 3:
                # Two points leave no residual degree of freedom.
                assert fit["slope_stderr"] is None
            else:
                assert math.isfinite(fit["slope_stderr"])

    def test_schilder_outputs(self, tmp_path):
        assert main(["schilder", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "schilder.json").read_text())
        assert payload["limit"] == pytest.approx(-0.5, rel=1e-9)
        csv = (tmp_path / "schilder.csv").read_text().splitlines()
        assert csv[0].startswith("# heatlift-csv schilder v1")
        assert csv[1] == "epsilon,threshold,probability,eps2_log"
        assert len(csv) == 2 + 3

    def test_bounds_scan_subset(self, tmp_path):
        code = main(
            ["bounds-scan", "--out", str(tmp_path), "--set", 'bounds=["kolm_t"]']
        )
        assert code == 0
        payload = json.loads((tmp_path / "bound_scans.json").read_text())
        assert len(payload["reports"]) == 1
        assert payload["reports"][0]["bound_id"] == "kolm_t"
        assert not payload["reports"][0]["diverged"]

    def test_lift_check_passes(self, tmp_path):
        code = main(
            [
                "lift-check",
                "--out",
                str(tmp_path),
                "--set",
                "n_slices=3",
                "--set",
                "n_telescope=3",
                "--set",
                "n_modes=32",
                "--set",
                "n_time=4",
                "--set",
                "grid_level=5",
                "--set",
                "dim=2",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "lift_check.json").read_text())
        assert payload["passed"]
        assert payload["max_chen_defect"] <= 1e-12
        assert payload["max_symmetric_defect"] <= 1e-12
        assert payload["max_telescope_defect"] <= 1e-12

    def test_chaos_cli(self, tmp_path, capsys):
        code = main(
            [
                "chaos",
                "--out",
                str(tmp_path),
                "--set",
                "replicas=2000",
                "--set",
                "n_modes=16",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "chaos.json").read_text())
        assert payload["degree"] == 1
        assert 0.2 <= payload["exponent"] <= 0.8
        out = capsys.readouterr().out
        assert "q_list: [2.0, 3.0, 4.0, 6.0, 8.0]" in out
        assert "np.float64" not in out

    def test_cm_cli(self, tmp_path):
        code = main(
            [
                "cm",
                "--out",
                str(tmp_path),
                "--set",
                "n_modes=8",
                "--set",
                "n_time=8",
                "--set",
                "grid_level=6",
                "--set",
                'k_range=[2,3,4]',
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cm.json").read_text())
        assert payload["rate_function"] == pytest.approx(0.5)
        assert len(payload["lift_decay"]) == 3

    def test_cm_mode_one_control_lift_decay(self, tmp_path, capsys):
        # A control varying in space (mode 1), unlike the default mode-0
        # control whose lift-decay rows are all exactly zero.
        code = main(
            [
                "cm",
                "--out",
                str(tmp_path),
                "--set",
                "n_modes=8",
                "--set",
                "n_time=8",
                "--set",
                "grid_level=9",
                "--set",
                'controls=[{"mode": 1, "component": 0, "breakpoints": [0.0, 1.0], "values": [1.0]}]',
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "cm.json").read_text())
        rows = payload["lift_decay"]
        assert [r["k"] for r in rows] == [2, 3, 4, 5, 6, 7, 8]
        for key in ("level1_sup", "level2_sup"):
            sups = [r[key] for r in rows]
            assert all(math.isfinite(v) and v > 0 for v in sups)
            assert all(a > b for a, b in zip(sups, sups[1:]))
        assert payload["regularity"]["holder_half"] > 0
        assert "np.float64" not in capsys.readouterr().out

    def test_cm_empty_k_range_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lifted before validation")

        monkeypatch.setattr(ldp, "lift_level", refuse)
        monkeypatch.setattr(cli, "cameron_martin_path", refuse)
        out = tmp_path / "out"
        code = main(
            ["cm", "--out", str(out), "--set", "k_range=[]", "--set", "grid_level=6",
             "--set", "n_time=2", "--set", "n_modes=4"]
        )
        assert code == 2
        assert "k_range must hold at least one level" in capsys.readouterr().err
        assert not (out / "cm.json").exists()

    def test_cm_duplicate_levels_reported_once(self, tmp_path):
        grid = ["--set", "grid_level=6", "--set", "n_time=2", "--set", "n_modes=4",
                "--set", 'controls=[{"mode": 1, "breakpoints": [0.0, 1.0], "values": [1.0]}]']
        payloads = []
        for k_range in ("[3,2,2,3]", "[2,3]"):
            out = tmp_path / k_range
            assert main(["cm", "--out", str(out), "--set", f"k_range={k_range}"] + grid) == 0
            payloads.append(json.loads((out / "cm.json").read_text()))
        assert [r["k"] for r in payloads[0]["lift_decay"]] == [2, 3]
        assert payloads[0] == payloads[1]

    def test_cm_rejects_mode_beyond_cutoff(self, tmp_path):
        code = main(
            [
                "cm",
                "--out",
                str(tmp_path),
                "--set",
                "n_modes=4",
                "--set",
                'controls=[{"mode": 9, "component": 0, "breakpoints": [0.0, 1.0], "values": [1.0]}]',
            ]
        )
        assert code == 2

    def test_tails_cli(self, tmp_path):
        code = main(
            [
                "tails",
                "--out",
                str(tmp_path),
                "--set",
                "replicas=20",
                "--set",
                'eps_list=[1.0,0.5]',
                "--set",
                "n_modes=16",
                "--set",
                "n_time=4",
                "--set",
                "grid_level=4",
                "--set",
                "dim=2",
            ]
        )
        assert code == 0
        lines = (tmp_path / "tails.csv").read_text().splitlines()
        assert lines[0].startswith("# heatlift-csv tails v1")
        assert len(lines) == 2 + 2
        header = lines[1].split(",")
        lo, hi = header.index("ci_low"), header.index("ci_high")
        for line in lines[2:]:
            fields = line.split(",")
            assert 0.0 <= float(fields[lo]) <= float(fields[hi]) <= 1.0
