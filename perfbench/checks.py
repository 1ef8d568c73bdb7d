"""Per-call correctness gate over the artifacts one CLI call wrote.

A call fails when it exits non-zero, when any number in its CSV or JSON
outputs (the manifest included) is non-finite, when a manifest's own
`passed` flag is false, when a bound scan diverged, or when tail counts
grow as epsilon shrinks or p_hat leaves its Wilson interval.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# tails.csv writes some floats as their NumPy 2 repr, "np.float64(0.48...)".
# The gate reads the number inside so that a wrapped NaN is still caught.
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


def _number(field: str) -> float:
    """A CSV field as a float; raises ValueError when it is not a number."""
    wrapped = _NP_REPR.fullmatch(field)
    return float(wrapped.group(1) if wrapped else field)


def _nonfinite_in_json(node) -> bool:
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_nonfinite_in_json(v) for v in node.values())
    if isinstance(node, list):
        return any(_nonfinite_in_json(v) for v in node)
    return False


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _nonfinite_in_csv(path: Path) -> bool:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            for field in line.rstrip("\n").split(","):
                try:
                    value = _number(field)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return True
    return False


def _tails_problems(path: Path) -> list[str]:
    rows = sorted(_csv_rows(path), key=lambda r: -_number(r["epsilon"]))
    problems = []
    for prev, row in zip(rows, rows[1:]):
        if int(row["count"]) > int(prev["count"]):
            problems.append(
                f"tail count rose from {prev['count']} to {row['count']} as "
                f"epsilon shrank to {row['epsilon']}"
            )
    for row in rows:
        if not _number(row["ci_low"]) <= _number(row["p_hat"]) <= _number(row["ci_high"]):
            problems.append(f"p_hat outside its interval at epsilon {row['epsilon']}")
    return problems


def gate(exit_code: int, out: Path) -> tuple[list[str], dict | None]:
    """Returns (failure reasons, manifest or None)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return ["no manifest written"], None
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = []
    for name in ["manifest.json", *manifest["outputs"]]:
        path = out / name
        if path.suffix == ".json" and _nonfinite_in_json(
            json.loads(path.read_text(encoding="utf-8"))
        ):
            problems.append(f"non-finite number in {name}")
        elif path.suffix == ".csv" and _nonfinite_in_csv(path):
            problems.append(f"non-finite number in {name}")
    summary = manifest["summary"]
    if summary.get("passed") is False:
        problems.append(f"{manifest['experiment']} reports passed=false")
    if summary.get("any_diverged"):
        problems.append("bounds-scan reports any_diverged")
    if manifest["experiment"] == "tails":
        problems += _tails_problems(out / "tails.csv")
    return problems, manifest
