"""Experiment runner: `heatlift <experiment> --config FILE [flags]`.

Every run writes its artifacts plus a manifest (resolved config, config
hash, seed, version, wall time, output hashes, the numpy and BLAS
runtime, and the resources: peak RSS and minor page faults of the run and
of its worker processes).
Re-running from a manifest reproduces the artifacts bit-for-bit at any
--threads and equal BLAS thread counts; the sampled field does not
depend on the BLAS at all.
Exit codes: 0 success, 2 a heatlift.ParameterError (an invalid or
infeasible parameter, a field past the allocation guard too), 1 any other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
# cov is no longer called here, but perfbench/spans.py patches
# heatlift.cli.cov, so the name stays bound.
from .covariance import (  # noqa: F401
    BOUND_IDS, bound_scan, cov, dual_method_check, validate_bound_params,
)
from .dyadic import convergence_study, level2_telescope, lift_level, restrict_values
from .errors import ParameterError
from .group import GEOMETRIC_TOL, _outer, _pair_increment, _symmetric_defect
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
from .parallel import check_threads
from .sampler import (
    _MAX_FIELD_ENTRIES, GridTooLargeError, SpectralConfig, sample_field, sample_row,
    save_field,
)
from .sheets import PathSlice, increment, lift_piecewise_linear, save_sheet

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
        "a": None,
        "eps_list": [0.5, 0.25, 0.125],
    },
}

# The experiments, in the order the CLI lists them.
EXPERIMENTS = tuple(_PARAM_DEFAULTS)


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


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(config: dict) -> str:
    return hashlib.sha256(_canonical_json(config).encode()).hexdigest()


def _sha256_file(path: Path) -> str:
    """sha256 of a file, read in 1 MiB chunks so that no output is held
    whole (hashlib.file_digest needs Python 3.11)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _check_kind(key: str, value, default):
    """value must have the JSON type of default (see _KINDS).  JSON's NaN
    is no number; an infinity is, and each parameter's range check
    (0 < t < inf, ...) names the bound it breaks."""
    kind, accepted = _KINDS[type(default)]
    if (
        not isinstance(value, accepted)
        or (isinstance(value, bool) and accepted is not bool)
        or (isinstance(value, float) and math.isnan(value))
    ):
        raise ParameterError(f"{key} must be {kind}, got {value!r}")


def _check_object(key: str, value):
    """A config, or its spectral or params entry, must be a JSON object."""
    if not isinstance(value, dict):
        raise ParameterError(f"{key} must be a JSON object, got {value!r}")


def resolve_config(experiment: str, file_config: dict, overrides: dict) -> dict:
    if experiment not in EXPERIMENTS:
        raise ParameterError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    _check_object("config", file_config)
    # A manifest can be fed back in as a config.
    if "resolved_config" in file_config:
        file_config = file_config["resolved_config"]
        _check_object("resolved_config", file_config)
    for key in file_config:
        if key not in _CONFIG_KEYS:
            raise ParameterError(
                f"unknown config key {key!r}; choose from {', '.join(_CONFIG_KEYS)}"
            )
    for key in ("spectral", "params"):
        _check_object(key, file_config.get(key, {}))
    spectral = dict(_SPECTRAL_DEFAULTS)
    spectral.update(file_config.get("spectral", {}))
    params = dict(_PARAM_DEFAULTS[experiment])
    params.update(file_config.get("params", {}))
    config = {"experiment": experiment}
    for key, default in (("seed", 0), ("threads", 1)):
        value = overrides.get(key)
        config[key] = file_config.get(key, default) if value is None else value
        _check_kind(key, config[key], default)
    check_threads(config["threads"])
    config.update(spectral=spectral, params=params)
    for item in overrides.get("set", []) or []:
        if "=" not in item:
            raise ParameterError(f"--set expects key=value, got {item!r}")
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
                raise ParameterError(
                    f"unknown parameter {key!r} for {experiment}; choose from {known}"
                )
            _check_kind(key, value, defaults[key])
    return config


def _spectral(config: dict) -> SpectralConfig:
    # resolve_config has checked the type of every key.
    return SpectralConfig(**config["spectral"], seed=config["seed"])


def _check_at_least(params: dict, key: str, least: int):
    if params[key] < least:
        raise ParameterError(f"{key} >= {least} violated: {key}={params[key]}")


def _write_json(path: Path, payload: dict):
    path.write_text(_canonical_json(payload) + "\n", encoding="utf-8")


def _write_csv(path: Path, schema: str, header: str, blocks):
    """The one CSV writer: the schema and header lines, then each block
    of text, one or more rows joined by newlines, in one write call.
    blocks may be a generator, so no list of every row need exist."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# heatlift-csv {schema} v1\n{header}\n")
        for block in blocks:
            fh.write(block + "\n")


# ---------------------------------------------------------------------------
# Experiment bodies: each returns (summary dict, {filename: writer})

def _exp_sample(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    sample = sample_field(cfg, int(config["params"]["replica"]))
    # One block per time row.  The "x,c," prefixes are formatted once, and
    # a row's values are formatted in C: the repr of a list of Python
    # floats holds each float's repr, the shortest round-trip text, and no
    # repr holds ", ".  The row's "t," prefix is the join separator's
    # tail, so only one row's floats and text exist at a time.
    prefixes = [
        f"{x!r},{c},"
        for x in cfg.nodes().tolist()
        for c in range(cfg.dim)
    ]

    def blocks():
        for t, plane in zip(cfg.times().tolist(), sample.values):
            lead = f"{t!r},"
            values = repr(plane.ravel().tolist())[1:-1].split(", ")
            yield lead + ("\n" + lead).join(map(operator.add, prefixes, values))

    _write_csv(out / "field.csv", "field", "t,x,component,value", blocks())
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
    for key in ("n_s", "n_x"):
        _check_at_least(p, key, 1)
    if not 0 < p["tolerance"] < math.inf:
        raise ParameterError(
            f"0 < tolerance < inf violated: tolerance={p['tolerance']!r}"
        )
    # dual_method_check holds four grid-sized float arrays at once at its
    # peak (tracemalloc: 4.0 x 8 bytes per point at 17^4, 33^4 and 49^4).
    points = p["n_s"] ** 2 * p["n_x"] ** 2
    if 4 * points > _MAX_FIELD_ENTRIES:
        raise GridTooLargeError(
            f"cov-check at n_s={p['n_s']}, n_x={p['n_x']} has {points} grid points "
            f"and would hold {4 * points} values at once "
            f"(guard is {_MAX_FIELD_ENTRIES}); lower n_s or n_x"
        )
    s_values = np.linspace(0.2, 1.0, p["n_s"])
    x_values = np.linspace(0.0, 1.0, p["n_x"])
    report = dual_method_check(s_values, x_values)
    report["tolerance"] = p["tolerance"]
    report["passed"] = bool(report["max_abs_discrepancy"] <= p["tolerance"])
    _write_json(out / "cov_check.json", report)
    return {"outputs": ["cov_check.json"], **report}


def _exp_bounds_scan(config: dict, out: Path) -> dict:
    p = config["params"]
    validate_bound_params(p["bounds"], p["kappa"])
    reports = [asdict(bound_scan(b, kappa=p["kappa"])) for b in p["bounds"]]
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
    streams are independent, so no draw changes.  The counts and the
    telescoping level are checked before any row is synthesized.

    A slice's ten Chen/geometricity triples are checked as arrays: the
    three increments of every triple come from one group._pair_increment
    call each, and the Chen product's level 2 is a2 + b2 + group._outer(a1,
    b1).  Every entry is the one rounded operation it is in
    sheets.increment and group.multiply, so each defect has the bits of
    the per-triple GroupElement check, and the max is exact."""
    cfg = _spectral(config)
    p = config["params"]
    K = cfg.grid_level
    for key in ("n_slices", "n_telescope"):
        _check_at_least(p, key, 1)
    k_level = p["telescope_k"]
    if not 0 <= k_level <= K - 1:
        raise ParameterError(
            f"0 <= telescope_k <= grid_level - 1 violated: telescope_k={k_level}, "
            f"grid_level={K}"
        )
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed, 0x11F7], dtype=np.uint64))
    )

    def lift_row(values: np.ndarray, k: int):
        return lift_piecewise_linear(PathSlice(restrict_values(values, K, k), K))

    max_chen = 0.0
    max_sym = 0.0
    for replica in range(p["n_slices"]):
        t_index = int(rng.integers(0, cfg.n_time + 1))
        sl = lift_row(sample_row(cfg, replica, t_index), K)
        idx = np.sort(rng.integers(0, sl.n_cells + 1, size=30))
        # Ten sorted triples i <= j <= k, each as one row of arrays.
        (l1i, l2i), (l1j, l2j), (l1k, l2k) = (
            (sl.level1[at], sl.level2[at]) for at in (idx[0::3], idx[1::3], idx[2::3])
        )
        left1, left2 = _pair_increment(l1i, l2i, l1k, l2k)
        a1, a2 = _pair_increment(l1i, l2i, l1j, l2j)
        b1, b2 = _pair_increment(l1j, l2j, l1k, l2k)
        comp2 = a2 + b2 + _outer(a1, b1)
        max_chen = max(max_chen, float(np.max(np.abs(left2 - comp2))))
        max_sym = max(max_sym, _symmetric_defect(left1, left2))
    # Telescoping identity on random node pairs.
    max_tel = 0.0
    for case in range(p["n_telescope"]):
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
        raise ParameterError(f"k_min <= k_max violated: k_min={k_min}, k_max={k_max}")
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
        ["\n".join(
            f"{r.k},{r.level},{r.norm_kind},{r.estimate!r},{r.stderr!r},{r.replicas}"
            for r in table.rows
        )],
    )
    fits = {key: asdict(f) for key, f in table.fits.items()}
    _write_json(out / "convergence_fits.json", fits)
    return {"outputs": ["convergence.csv", "convergence_fits.json"], "fits": fits}


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
        ["\n".join(
            f"{r.epsilon!r},{r.delta!r},{r.k},{r.replicas},{r.count},"
            f"{r.p_hat!r},{r.ci_low!r},{r.ci_high!r},{r.eps2_log!r},{int(r.zero_count)}"
            for r in rows
        )],
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
    # Every field of the report; JSON keys are strings.
    payload = asdict(report)
    payload.update(
        q_list=list(report.q_list),
        norm_ratios={repr(k): v for k, v in report.norm_ratios.items()},
    )
    _write_json(out / "chaos.json", payload)
    return {"outputs": ["chaos.json"], **payload}


def _exp_cm(config: dict, out: Path) -> dict:
    cfg = _spectral(config)
    p = config["params"]
    levels = validate_cm_params(float(p["q"]), p["k_range"], cfg.grid_level)
    ctrl = CMControl(tuple(control_from_dict(doc) for doc in p["controls"]))
    path = cameron_martin_path(ctrl, cfg)
    decay = cm_lift_uniform_convergence(path, levels)
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
    # A null threshold is one standard deviation of the marginal.
    threshold = None if p["a"] is None else float(p["a"])
    report = schilder_point_check(float(p["t"]), float(p["x"]), threshold, p["eps_list"])
    _write_csv(
        out / "schilder.csv",
        "schilder",
        "epsilon,threshold,probability,eps2_log",
        ["\n".join(
            f"{r.epsilon!r},{r.threshold!r},{r.probability!r},{r.eps2_log!r}"
            for r in report.rows
        )],
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


def _resources(before: dict) -> dict:
    """The process's peak resident set so far and the minor page faults
    since `before`, and the same for its reaped worker processes: the
    largest worker's peak so far and the faults of all workers since
    `before`.  ru_maxrss is in KiB on Linux and in bytes on macOS."""
    per_mib = 1024 * 1024 if sys.platform == "darwin" else 1024
    resources = {}
    for prefix, who in (("", resource.RUSAGE_SELF), ("workers_", resource.RUSAGE_CHILDREN)):
        now = resource.getrusage(who)
        resources[prefix + "peak_rss_mb"] = now.ru_maxrss / per_mib
        resources[prefix + "minor_faults"] = now.ru_minflt - before[who].ru_minflt
    return resources


def run(config: dict, out_dir: str) -> dict:
    """Execute one resolved experiment config; returns the manifest.  A
    ParameterError from the body removes the directories the run made."""
    out = Path(out_dir)
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    usage = {who: resource.getrusage(who)
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
    start = time.perf_counter()
    try:
        summary = _BODIES[config["experiment"]](config, out)
    except ParameterError:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise
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
    parser.add_argument(
        "--threads", type=int, default=None,
        help="worker processes for tails and converge (default 1)",
    )
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
                raise ParameterError(f"config file not found: {args.config}")
            try:
                file_config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ParameterError(
                    f"config file {args.config} is not JSON: {exc}"
                ) from None
        config = resolve_config(
            args.experiment,
            file_config,
            {"seed": args.seed, "threads": args.threads, "set": args.set},
        )
        manifest = run(config, args.out)
    except ParameterError as exc:
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
