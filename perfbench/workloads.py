"""Workload definitions: the pinned inputs of each op and the argv it sends.

An op is one or more `heatlift` CLI calls.  The benchmark derives every
op's seed from the workload seed; the program only ever sees the argv
built here.  Nothing in this module imports heatlift or numpy, so the
orchestrator stays light.
"""

from __future__ import annotations

import hashlib
import json

# Seed whose op artifacts are pinned in reference_hashes.json.
DEFAULT_SEED = 0


def _sets(**params) -> list[str]:
    argv = []
    for key, value in params.items():
        argv += ["--set", f"{key}={json.dumps(value, separators=(',', ':'))}"]
    return argv


_CONVERGE_SUP = ["converge", "--threads", "1"] + _sets(
    kinds=["sup"], dim=2, grid_level=9, n_time=16, k_min=3, k_max=8, replicas=64
)

_TAILS_DIST = ["tails", "--threads", "2"] + _sets(
    eps_list=[1.0, 0.5, 0.25], delta=0.5, k=2, dim=2, grid_level=10, n_time=16,
    replicas=32,
)

# (alpha, beta, m) cycle; validate_besov_params accepts all four.  The last
# point overflows the quadrature weights at grid_level=8 and the CLI writes
# NaN estimates with exit code 0.  At grid_level=7 the NaN does not appear,
# which is why the grid stays at 8.
BESOV_POINTS = ((0.45, 0.02, 60), (0.40, 0.04, 40), (0.36, 0.05, 100), (0.49, 0.004, 300))
_BESOV_DEFECT = "non-finite Besov estimates: (1/n)^2 / sep^(1+m*alpha) overflows"


def _besov(point) -> list[str]:
    alpha, beta, m = point
    return ["converge"] + _sets(
        kinds=["besov"], dim=2, grid_level=8, n_time=8, k_min=3, k_max=7,
        replicas=2, alpha=alpha, beta=beta, m=m,
    )


_ORACLE_PASS = (
    ["cov-check"] + _sets(n_s=17, n_x=17),
    ["bounds-scan"],
    ["schilder"],
    ["chaos"],
    ["cm"] + _sets(n_modes=8, n_time=8, grid_level=9),
    ["lift-check"] + _sets(dim=2),
    ["sample"],
)

# name -> ops per cycle; a run always covers whole cycles.
CYCLE = {"converge-sup": 1, "tails-dist": 1, "besov-sheet": len(BESOV_POINTS), "oracle-suite": 1}


def op_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def build_op(workload: str, seed: int, index: int) -> dict:
    """The CLI calls of op `index`: argv lists without `--out`."""
    if workload not in CYCLE:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(CYCLE)}")
    s = ["--seed", str(op_seed(workload, seed, index))]
    known_defect = None
    if workload == "converge-sup":
        calls = [_CONVERGE_SUP + s]
    elif workload == "tails-dist":
        calls = [_TAILS_DIST + s]
    elif workload == "besov-sheet":
        point = BESOV_POINTS[index % len(BESOV_POINTS)]
        calls = [_besov(point) + s]
        if point == BESOV_POINTS[-1]:
            known_defect = _BESOV_DEFECT
    else:
        calls = [argv + s for argv in _ORACLE_PASS]
    return {"index": index, "calls": calls, "known_defect": known_defect}


def threads(workload: str) -> int:
    """The most threads any call of the workload's ops asks for."""
    calls = build_op(workload, DEFAULT_SEED, 0)["calls"]
    return max(int(c[c.index("--threads") + 1]) if "--threads" in c else 1 for c in calls)


def call_key(argv: list[str]) -> str:
    return " ".join(argv)


def computed_counts(config: dict) -> dict:
    """Counts implied by one call's resolved config (computed, not measured).

    normals: distinct standard normals the config draws under the Philox
    contract (one stream per seed, replica and component, each of fixed
    length), however often an implementation re-draws them.
    besov_pair_terms: (s<t) x (x<y) node-pair terms of the Besov quadrature.
    besov_table_bytes: one sheet's float64 increment tables,
    nt * n(n+1)/2 * (d + d^2) * 8.
    """
    spectral, params = config["spectral"], config["params"]
    experiment = config["experiment"]
    rows = 2 * int(spectral["n_modes"]) + 1
    n_time, dim = int(spectral["n_time"]), int(spectral["dim"])
    per_replica = rows * n_time * dim
    replicas = {
        "sample": 1,
        "converge": params.get("replicas", 0),
        "tails": params.get("replicas", 0),
        "lift-check": params.get("n_slices", 0) + params.get("n_telescope", 0),
    }.get(experiment, 0)
    normals = int(replicas) * per_replica
    if experiment == "chaos":
        normals = int(params["replicas"]) * rows * dim
    pair_terms = table_bytes = 0
    if experiment == "converge" and "besov" in params.get("kinds", []):
        n = 2 ** int(spectral["grid_level"])
        x_pairs = n * (n + 1) // 2
        nt = n_time + 1
        t_pairs = nt * (nt - 1) // 2
        n_k = int(params["k_max"]) - int(params["k_min"]) + 1
        pair_terms = int(params["replicas"]) * n_k * t_pairs * x_pairs
        table_bytes = nt * x_pairs * (dim + dim * dim) * 8
    return {"normals": normals, "besov_pair_terms": pair_terms, "besov_table_bytes": table_bytes}
