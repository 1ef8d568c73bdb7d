"""Experiment runner: `heatlift <experiment> --config FILE [flags]`.

Every run writes its artifacts plus a manifest (resolved config, config
hash, seed, version, wall time, output hashes, the numpy and BLAS
runtime, and the resources: peak RSS and the run's minor page faults).
Re-running from a manifest reproduces the artifacts bit-for-bit at any
thread count and equal BLAS thread counts; the sampled field does not
depend on the BLAS at all.
Exit codes: 0 success, 2 infeasible/invalid parameters (including a field
past the sampler's allocation guard), 1 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import BOUND_IDS, bound_scan, cov, dual_method_check
from .dyadic import convergence_study, level2_telescope, lift_level, restrict_values
from .group import GEOMETRIC_TOL, multiply
from .ldp import (
    CMControl,
    cameron_martin_path,
    chaos_moment_ratio,
    cm_lift_uniform_convergence,
    cm_regularity_check,
    control_from_dict,
    rate_function,
    schilder_point_check,
    tail_probability,
    validate_cm_params,
)
from .sampler import (
    GridTooLargeError, SpectralConfig, sample_field, sample_row, save_field,
)
from .sheets import PathSlice, increment, lift_piecewise_linear, save_sheet

EXPERIMENTS = (
    "sample",
    "cov-check",
    "bounds-scan",
    "lift-check",
    "converge",
    "tails",
    "chaos",
    "cm",
    "schilder",
)

# Top-level keys of a config file; a manifest's resolved_config holds
# exactly these.
_CONFIG_KEYS = ("experiment", "seed", "threads", "spectral", "params")

_SPECTRAL_DEFAULTS = {
    "n_modes": 256,
    "time_horizon": 1.0,
    "n_time": 128,
    "grid_level": 10,
    "dim": 1,
}

_PARAM_DEFAULTS = {
    "sample": {"replica": 0, "write_binary": True},
    "cov-check": {"n_s": 5, "n_x": 5, "tolerance": 1e-8},
    "bounds-scan": {"bounds": list(BOUND_IDS), "kappa": 0.5},
    "lift-check": {"n_slices": 20, "n_telescope": 20, "telescope_k": 4},
    "converge": {
        "k_min": 3,
        "k_max": 8,
        "replicas": 200,
        "kinds": ["sup"],
        "alpha": None,
        "beta": None,
        "m": None,
    },
    "tails": {"delta": 0.5, "eps_list": [1.0, 0.5, 0.25], "k": 2, "replicas": 200},
    "chaos": {
        "functional": "level1",
        "q_list": [2, 3, 4, 6, 8],
        "replicas": 100000,
        "t": 1.0,
        "x": 0.0,
        "y": None,
        "level": 5,
    },
    "cm": {
        "controls": [
            {"mode": 0, "component": 0, "breakpoints": [0.0, 1.0], "values": [1.0]}
        ],
        "q": 1.5,
        "k_range": [2, 3, 4, 5, 6, 7, 8],
    },
    "schilder": {
        "t": 1.0,
        "x": 0.0,
        "component": 0,
        "a": None,
        "eps_list": [0.5, 0.25, 0.125],
    },
}


# The JSON type a parameter takes, by the type of its default; a null
# default marks an optional number.  A boolean is no number, a float no
# integer.
_KINDS = {
    bool: ("a boolean", bool),
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
    list: ("a list", list),
    type(None): ("a number or null", (int, float, type(None))),
}


class ConstraintError(ValueError):
    """Invalid or infeasible experiment parameters (exit code 2)."""


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_object(key: str, value):
    """A config, or its spectral or params entry, must be a JSON object."""
    if not isinstance(value, dict):
        raise ConstraintError(f"{key} must be a JSON object, got {value!r}")


def resolve_config(experiment: str, file_config: dict, overrides: dict) -> dict:
    if experiment not in EXPERIMENTS:
        raise ConstraintError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    _check_object("config", file_config)
    # A manifest can be fed back in as a config.
    if "resolved_config" in file_config:
        file_config = file_config["resolved_config"]
        _check_object("resolved_config", file_config)
    for key in file_config:
        if key not in _CONFIG_KEYS:
            raise ConstraintError(
                f"unknown config key {key!r}; choose from {', '.join(_CONFIG_KEYS)}"
            )
    for key in ("spectral", "params"):
        _check_object(key, file_config.get(key, {}))
    spectral = dict(_SPECTRAL_DEFAULTS)
    spectral.update(file_config.get("spectral", {}))
    params = dict(_PARAM_DEFAULTS[experiment])
    params.update(file_config.get("params", {}))
    config = {
        "experiment": experiment,
        "seed": int(
            overrides.get("seed")
            if overrides.get("seed") is not None
            else file_config.get("seed", 0)
        ),
        "threads": int(
            overrides.get("threads")
            if overrides.get("threads") is not None
            else file_config.get("threads", 1)
        ),
        "spectral": spectral,
        "params": params,
    }
    for item in overrides.get("set", []) or []:
        if "=" not in item:
            raise ConstraintError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key in spectral:
            spectral[key] = value
        else:
            params[key] = value
    param_defaults = _PARAM_DEFAULTS[experiment]
    for values, defaults in ((spectral, _SPECTRAL_DEFAULTS), (params, param_defaults)):
        for key, value in values.items():
            if key not in defaults:
                known = ", ".join(sorted({**_SPECTRAL_DEFAULTS, **param_defaults}))
                raise ConstraintError(
                    f"unknown parameter {key!r} for {experiment}; choose from {known}"
                )
            kind, accepted = _KINDS[type(defaults[key])]
            if not isinstance(value, accepted) or (
                isinstance(value, bool) and accepted is not bool
            ):
                raise ConstraintError(f"{key} must be {kind}, got {value!r}")
    return config


def _spectral(config: dict) -> SpectralConfig:
    s = config["spectral"]
    return SpectralConfig(
        n_modes=int(s["n_modes"]),
        time_horizon=float(s["time_horizon"]),
        n_time=int(s["n_time"]),
        grid_level=int(s["grid_level"]),
        dim=int(s["dim"]),
        seed=int(config["seed"]),
    )


def _write_json(path: Path, payload: dict):
    path.write_text(_canonical_json(payload) + "\n", encoding="utf-8")


def _write_csv(path: Path, schema: str, header: str, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# heatlift-csv {schema} v1\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# ---------------------------------------------------------------------------
# Experiment bodies: each returns (summary dict, {filename: writer})

def _exp_sample(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    sample = sample_field(cfg, int(config["params"]["replica"]))
    # Each time and node is formatted once; the values are read one time
    # row at a time as Python floats, whose repr is the shortest
    # round-trip text (converting the whole field at once holds a float
    # object per value beside the rows, which raised the next call's peak
    # RSS).
    times = [repr(t) for t in cfg.times().tolist()]
    nodes = [repr(x) for x in cfg.nodes().tolist()]
    rows = [
        f"{t},{x},{c},{v!r}"
        for t, plane in zip(times, sample.values)
        for x, point in zip(nodes, plane.tolist())
        for c, v in enumerate(point)
    ]
    _write_csv(out / "field.csv", "field", "t,x,component,value", rows)
    outputs = ["field.csv"]
    if config["params"].get("write_binary", True):
        save_field(sample, str(out / "field.bin"))
        sheet = lift_level(sample, cfg.grid_level)
        save_sheet(sheet, str(out / "lift.bin"))
        outputs += ["field.bin", "lift.bin"]
    return {
        "outputs": outputs,
        "max_abs_value": float(np.max(np.abs(sample.values))),
    }


def _exp_cov_check(config: dict, out: Path) -> dict:
    p = config["params"]
    s_values = np.linspace(0.2, 1.0, int(p["n_s"]))
    x_values = np.linspace(0.0, 1.0, int(p["n_x"]))
    report = dual_method_check(s_values, x_values)
    report["tolerance"] = p["tolerance"]
    report["passed"] = bool(report["max_abs_discrepancy"] <= p["tolerance"])
    _write_json(out / "cov_check.json", report)
    return {"outputs": ["cov_check.json"], **report}


def _exp_bounds_scan(config: dict, out: Path) -> dict:
    p = config["params"]
    reports = []
    for bound_id in p["bounds"]:
        kappa = p["kappa"] if bound_id in ("estD2", "cq2") else None
        reports.append(asdict(bound_scan(bound_id, kappa=kappa)))
    _write_json(out / "bound_scans.json", {"reports": reports})
    worst = max(abs(r["refinement_ratio"] - 1.0) for r in reports)
    return {
        "outputs": ["bound_scans.json"],
        "n_bounds": len(reports),
        "max_refinement_drift": worst,
        "any_diverged": any(r["diverged"] for r in reports),
    }


def _exp_lift_check(config: dict, out: Path) -> dict:
    """Chen's identity, geometricity and the level-2 telescoping sum on
    sampled slices.  Each check reads one time row, so only that row is
    synthesized (sample_row), restricted and lifted; each has the bits of
    that row of the full field and of its full-sheet lift.  The time is
    drawn before the row: the check's generator and the field's Philox
    streams are independent, so no draw changes."""
    cfg = _spectral(config)
    p = config["params"]
    K = cfg.grid_level
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, 0x11F7], dtype=np.uint64))
    )

    def lift_row(values: np.ndarray, k: int):
        return lift_piecewise_linear(PathSlice(restrict_values(values, K, k), K))

    max_chen = 0.0
    max_sym = 0.0
    n_slices = int(p["n_slices"])
    for replica in range(n_slices):
        t_index = int(rng.integers(0, cfg.n_time + 1))
        sl = lift_row(sample_row(cfg, replica, t_index), K)
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
    # Telescoping identity on random node pairs.
    k_level = int(p["telescope_k"])
    max_tel = 0.0
    for case in range(int(p["n_telescope"])):
        t_index = int(rng.integers(0, cfg.n_time + 1))
        i_node = int(rng.integers(0, 2**k_level))
        j_node = int(rng.integers(i_node + 1, 2**k_level + 1))
        row = sample_row(cfg, 1000 + case, t_index)
        closed = level2_telescope(row, K, k_level, i_node, j_node)
        stride = 2 ** (K - k_level)
        fine = lift_row(row, k_level + 1)
        coarse = lift_row(row, k_level)
        direct = (
            increment(fine, i_node * stride, j_node * stride).level2
            - increment(coarse, i_node * stride, j_node * stride).level2
        )
        max_tel = max(max_tel, float(np.max(np.abs(closed - direct))))
    report = {
        "max_chen_defect": max_chen,
        "max_symmetric_defect": max_sym,
        "max_telescope_defect": max_tel,
        "tolerance": 1e-12,
        "geometric_tolerance": GEOMETRIC_TOL,
        "passed": bool(max(max_chen, max_sym, max_tel) <= 1e-12),
    }
    _write_json(out / "lift_check.json", report)
    return {"outputs": ["lift_check.json"], **report}


def _exp_converge(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    p = config["params"]
    k_min, k_max = p["k_min"], p["k_max"]
    if k_min > k_max:
        raise ConstraintError(f"k_min <= k_max violated: k_min={k_min}, k_max={k_max}")
    table = convergence_study(
        cfg,
        range(k_min, k_max + 1),
        p["replicas"],
        kinds=tuple(p["kinds"]),
        alpha=p["alpha"],
        beta=p["beta"],
        m=p["m"],
        threads=int(config["threads"]),
    )
    _write_csv(
        out / "convergence.csv",
        "convergence",
        "k,level,norm_kind,estimate,stderr,replicas",
        [
            f"{r.k},{r.level},{r.norm_kind},{r.estimate!r},{r.stderr!r},{r.replicas}"
            for r in table.rows
        ],
    )
    fits = {key: asdict(f) for key, f in table.fits.items()}
    _write_json(out / "convergence_fits.json", fits)
    return {
        "outputs": ["convergence.csv", "convergence_fits.json"],
        "fits": fits,
        "empty": table.empty,
    }


def _exp_tails(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    p = config["params"]
    rows = tail_probability(
        float(p["delta"]), p["eps_list"], p["k"], p["replicas"], cfg,
        threads=int(config["threads"]),
    )
    _write_csv(
        out / "tails.csv",
        "tails",
        "epsilon,delta,k,replicas,count,p_hat,ci_low,ci_high,eps2_log,zero_count",
        [
            f"{r.epsilon!r},{r.delta!r},{r.k},{r.replicas},{r.count},"
            f"{r.p_hat!r},{r.ci_low!r},{r.ci_high!r},{r.eps2_log!r},{int(r.zero_count)}"
            for r in rows
        ],
    )
    return {
        "outputs": ["tails.csv"],
        "eps2_log": {repr(r.epsilon): r.eps2_log for r in rows},
    }


def _exp_chaos(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    p = config["params"]
    report = chaos_moment_ratio(
        p["functional"],
        p["q_list"],
        int(p["replicas"]),
        cfg,
        t=float(p["t"]),
        x=float(p["x"]),
        y=float(p["y"]) if p["y"] is not None else None,
        level=int(p["level"]),
    )
    payload = {
        "functional": report.functional,
        "degree": report.degree,
        "q_list": list(report.q_list),
        "norm_ratios": {repr(k): v for k, v in report.norm_ratios.items()},
        "exponent": report.exponent,
        "exponent_stderr": report.exponent_stderr,
        "ratio4": report.ratio4,
        "ratio4_stderr": report.ratio4_stderr,
        "replicas": report.replicas,
        "empty": report.empty,
    }
    _write_json(out / "chaos.json", payload)
    return {"outputs": ["chaos.json"], **payload}


def _exp_cm(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    p = config["params"]
    validate_cm_params(float(p["q"]), p["k_range"], cfg.grid_level)
    ctrl = CMControl(tuple(control_from_dict(doc) for doc in p["controls"]))
    path = cameron_martin_path(ctrl, cfg)
    decay = cm_lift_uniform_convergence(path, p["k_range"])
    reg = cm_regularity_check(path, float(p["q"]))
    payload = {
        "rate_function": rate_function(ctrl),
        "h_norm_sq": path.h_norm_sq,
        "regularity": asdict(reg),
        "lift_decay": [asdict(r) for r in decay],
    }
    _write_json(out / "cm.json", payload)
    return {"outputs": ["cm.json"], **payload}


def _exp_schilder(config: dict, out: Path) -> dict:
    p = config["params"]
    t, xval = float(p["t"]), float(p["x"])
    if p["a"] is None:
        # Default threshold: one standard deviation of the marginal.
        threshold = float(np.sqrt(cov(t, xval, t, xval, method="fourier")))
    else:
        threshold = float(p["a"])
    report = schilder_point_check(
        t, xval, int(p["component"]), threshold, p["eps_list"]
    )
    _write_csv(
        out / "schilder.csv",
        "schilder",
        "epsilon,threshold,probability,eps2_log",
        [
            f"{r.epsilon!r},{r.threshold!r},{r.probability!r},{r.eps2_log!r}"
            for r in report.rows
        ],
    )
    _write_json(
        out / "schilder.json",
        {
            "sigma_sq": report.sigma_sq,
            "limit": report.limit,
            "rows": [asdict(r) for r in report.rows],
        },
    )
    return {
        "outputs": ["schilder.csv", "schilder.json"],
        "limit": report.limit,
        "sigma_sq": report.sigma_sq,
    }


_BODIES = {
    "sample": _exp_sample,
    "cov-check": _exp_cov_check,
    "bounds-scan": _exp_bounds_scan,
    "lift-check": _exp_lift_check,
    "converge": _exp_converge,
    "tails": _exp_tails,
    "chaos": _exp_chaos,
    "cm": _exp_cm,
    "schilder": _exp_schilder,
}


def _runtime() -> dict:
    """What the output bits depend on besides the config.  The sampled
    field and the chaos marginal's projection call no BLAS; the
    marginal's small node-factor QR, the Fourier covariance's GEMV, the
    Besov initial-value dot product and the polyfit slopes still do."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _resources(before: resource.struct_rusage) -> dict:
    """The process's peak resident set so far and the minor page faults
    since `before`, summed over its threads.  ru_maxrss is in KiB on Linux
    and in bytes on macOS."""
    now = resource.getrusage(resource.RUSAGE_SELF)
    per_mib = 1024 * 1024 if sys.platform == "darwin" else 1024
    return {
        "peak_rss_mb": now.ru_maxrss / per_mib,
        "minor_faults": now.ru_minflt - before.ru_minflt,
    }


def run(config: dict, out_dir: str) -> dict:
    """Execute one resolved experiment config; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    summary = _BODIES[config["experiment"]](config, out)
    wall = time.perf_counter() - start
    resources = _resources(usage)
    outputs = {
        name: _sha256_file(out / name) for name in summary.pop("outputs", [])
    }
    manifest = {
        "experiment": config["experiment"],
        "resolved_config": config,
        "config_hash": _config_hash(config),
        "seed": config["seed"],
        "threads": config["threads"],
        "package_version": __version__,
        "wall_time_s": wall,
        "runtime": _runtime(),
        "resources": resources,
        "outputs": outputs,
        "summary": summary,
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlift",
        description="Heat-field rough-path experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file (or a prior manifest)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", default="heatlift-out")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a spectral or experiment parameter (JSON value)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_config = {}
        if args.config:
            if not Path(args.config).is_file():
                raise ConstraintError(f"config file not found: {args.config}")
            file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        config = resolve_config(
            args.experiment,
            file_config,
            {"seed": args.seed, "threads": args.threads, "set": args.set},
        )
        manifest = run(config, args.out)
    except (ValueError, GridTooLargeError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    print(
        f"{config['experiment']}: ok in {manifest['wall_time_s']:.2f}s, "
        f"config {manifest['config_hash'][:12]}, outputs "
        f"{', '.join(manifest['outputs']) or '(none)'}"
    )
    for key, value in manifest["summary"].items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
