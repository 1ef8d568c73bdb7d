"""heatlift benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload converge-sup --seed 1 --seconds 16 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 measures the per-layer
metrics from a traced run and reports the tracing overhead against an
untraced run of the same ops.  Human-readable lines come first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the line before it is a JSON object with
the key `informational`: the unscaled wall times and the calibration
kernel's median per process, which BENCHMARK.json does not list.

    python3 perfbench/run.py --self-test

The self-test checks that a traced op writes the same artifact hashes as
an untraced one, that every patched binding is restored, and that the
metric names here match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
REFERENCE = HERE / "reference_hashes.json"
DEADLINE_S = 170.0
SETUP_PROBES = 4  # set-up-only launches; setup_s is the median over these and the runs
# An untraced run starts fresh workload processes, each measuring for this
# share of --seconds, until --seconds have passed (and at least two): short
# ops get more cold first ops, long ones no longer runs.
PROCESS_SLICES = 4

EXPERIMENTS = (
    "sample", "cov-check", "bounds-scan", "lift-check", "converge", "tails", "chaos", "cm",
    "schilder",
)
LAYERS = ("cli", "sampler", "dyadic", "sheets", "covariance", "ldp", "parallel")

END_TO_END = {
    "op_p50_s": "s",
    "first_op_s": "s",
    "replicas_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# name -> unit; values are per traced op unless the name says otherwise.
PER_LAYER = {
    "sampler.sample_field.calls": "count",
    "sampler.sample_field.self_s": "s",
    "sampler.basis_matrix.calls": "count",
    "sampler.basis_matrix.s": "s",
    "sampler.sample_slice_marginal.s": "s",
    "sampler.normals": "count",
    "sampler.projection_flops": "flop",
    "dyadic.convergence_study.self_s": "s",
    "dyadic.lift_level.calls": "count",
    "dyadic.lift_level.s": "s",
    "dyadic.level2_telescope.s": "s",
    "sheets.dist_infty.calls": "count",
    "sheets.dist_infty.s": "s",
    "sheets.spacetime_besov_norm.calls": "count",
    "sheets.spacetime_besov_norm.s": "s",
    "sheets.besov_pair_terms": "count",
    "sheets.besov_table_bytes": "bytes",
    "sheets.nonfinite": "count",
    "sheets.increment.calls": "count",
    "sheets.increment.s": "s",
    "covariance.cov.theta.points": "count",
    "covariance.cov.theta.s": "s",
    "covariance.cov.fourier.points": "count",
    "covariance.cov.fourier.s": "s",
    "covariance.bound_scan.s": "s",
    "ldp.tail_probability.calls": "count",
    "ldp.tail_probability.self_s": "s",
    "ldp.chaos_moment_ratio.self_s": "s",
    "ldp.cameron_martin_path.s": "s",
    "ldp.cm_lift_uniform_convergence.s": "s",
    "ldp.cm_regularity_check.s": "s",
    "parallel.deterministic_map.calls": "count",
    "parallel.deterministic_map.s": "s",
    "parallel.items": "count",
    "parallel.overlap": "ratio",
    **{f"cli.{e}.s": "s" for e in EXPERIMENTS},
    "cli.run.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.artifact_drift": "count",
    "cli.artifact_checked": "count",
    "proc.fp_warnings": "count",
    **{f"layer.{name}.self_s": "s" for name in LAYERS},
    "trace.op_s": "s",
    "trace.self_coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    pass


def launch(run_dir: Path, tag: str, deadline: float, *worker_args: str) -> dict:
    """Runs worker.py in a fresh process and returns its result."""
    result = run_dir / f"{tag}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
        "--out", str(run_dir / tag), "--result", str(result), *worker_args,
    ]
    with open(run_dir / f"{tag}.log", "w", encoding="utf-8") as log:
        env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
        try:
            proc = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag} did not finish in time") from exc
    if proc.returncode != 0:
        tail = (run_dir / f"{tag}.log").read_text(encoding="utf-8")[-2000:]
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def tail_percentile(times: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(times)[rank - 1]


def verdict(ops: list[dict]) -> tuple[bool, int]:
    """(correct, failed): a failure breaks `correct` unless it is a known defect."""
    failed = sum(o["failed"] for o in ops)
    return not any(o["failed"] and not o["expected_failure"] for o in ops), failed


def describe_failures(ops: list[dict]):
    for o in ops:
        if o["failed"]:
            kind = "known defect" if o["expected_failure"] else "FAILED"
            print(f"  op {o['index']} {kind}: {'; '.join(o['problems'][:3])}")


def end_to_end(runs: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """(metrics, informational).  Metric times are scaled by the calibration
    kernel (see worker.Calibration); the informational figures are not, so
    a gain that comes only from a slower kernel shows as a gap between them."""
    firsts = [r["ops"][0] for r in runs]
    warm = [o for r in runs for o in r["ops"][1:]]
    ops = [o for r in runs for o in r["ops"]]
    scaled = [o["scaled_s"] for o in warm]
    raw = [o["seconds"] for o in warm]
    print(f"processes: {len(runs)}; ops: {len(ops)} ({len(warm)} warm, {len(firsts)} first in a process)")
    tail = tail_percentile(scaled)
    if tail:
        print(f"op_tail_s: p{tail[0]:.1f} = {tail[1]:.4f} s ({len(scaled)} warm ops, 10 beyond)")
    else:
        print(f"op_tail_s: n/a ({len(scaled)} warm ops; a tail needs at least 11)")
    failed = sum(o["failed"] for o in ops)
    print(f"fail_frac: {failed / len(ops):.4f} ({failed} of {len(ops)} ops)")
    describe_failures(ops)
    setups = [p["setup_scaled_s"] for p in runs + probes]
    informational = {
        "unscaled_op_p50_s": statistics.median(raw),
        "unscaled_first_op_s": statistics.median(o["seconds"] for o in firsts),
        "unscaled_setup_s": statistics.median(p["setup_s"] for p in runs + probes),
        "kernel_median_s": [r["kernel_median_s"] for r in runs],
        "ref_kernel_s": runs[0]["ref_kernel_s"],
    }
    print(f"unscaled wall time: op_p50 {informational['unscaled_op_p50_s']:.4f} s, "
          f"first_op {informational['unscaled_first_op_s']:.4f} s, "
          f"all ops {sum(o['seconds'] for o in ops):.3f} s")
    print("calibration kernel median per process: "
          + ", ".join(f"{k:.5f}" for k in informational["kernel_median_s"])
          + f" s (reference {informational['ref_kernel_s']} s)")
    metrics = {
        "op_p50_s": statistics.median(scaled),
        "first_op_s": statistics.median(o["scaled_s"] for o in firsts),
        "replicas_per_s": sum(o["replicas"] for o in ops) / sum(o["scaled_s"] for o in ops),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return metrics, informational


def drift(workload: str, ops: list[dict]) -> tuple[int, int]:
    """(ops differing from the pinned hashes, ops compared)."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    checked = differing = 0
    for op in ops:
        pinned = {k: v for k, v in op["hashes"].items() if k in reference}
        if not pinned:
            continue
        checked += 1
        differing += any(reference[k] != v for k, v in pinned.items())
    return differing, checked


def per_layer(workload: str, base: dict, traced: dict) -> tuple[dict, bool]:
    ops = traced["ops"]
    n = len(ops)
    a = spans.analyze(traced["spans"])
    calls, dur, own, counts = a["calls"], a["s"], a["self_s"], a["counts"]

    def per_op(table, key):
        return table.get(key, 0.0) / n

    m = {}
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        table = {"calls": calls, "s": dur, "self_s": own, "points": counts}.get(stat)
        if table is counts:
            m[key] = per_op(counts, key)
        elif table is not None:
            m[key] = per_op(table, name)
    m["sampler.normals"] = sum(o["normals"] for o in ops) / n
    m["sampler.projection_flops"] = (
        counts.get("sampler.sample_field.flops", 0)
        + counts.get("sampler.sample_slice_marginal.flops", 0)
    ) / n
    m["sheets.besov_pair_terms"] = sum(o["besov_pair_terms"] for o in ops) / n
    m["sheets.besov_table_bytes"] = max(o["besov_table_bytes"] for o in ops)
    m["sheets.nonfinite"] = per_op(counts, "sheets.spacetime_besov_norm.nonfinite")
    m["parallel.items"] = per_op(calls, spans.ITEM)
    m["parallel.overlap"] = dur.get(spans.ITEM, 0.0) / dur[spans.MAP] if dur.get(spans.MAP) else 0.0
    m["cli.bytes_written"] = sum(o["bytes_written"] for o in ops) / n
    m["cli.artifact_drift"], m["cli.artifact_checked"] = drift(
        workload, base["ops"] + ([base["probe"]] if "probe" in base else [])
    )
    m["proc.fp_warnings"] = sum(o["fp_warnings"] for o in ops) / n
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = a["layer_self_s"].get(layer, 0.0) / n
    traced_s = sum(o["scaled_s"] for o in ops)
    base_s = sum(o["scaled_s"] for o in base["ops"])
    self_total = sum(a["layer_self_s"].values())
    m["trace.op_s"] = a["root_s"] / n
    m["trace.self_coverage"] = self_total / a["root_s"]
    m["trace.overhead"] = traced_s / base_s - 1.0

    print(f"traced ops: {n}; untraced reference ops: {len(base['ops'])}; spans: {len(traced['spans'])}")
    print(f"tracing overhead: {100 * m['trace.overhead']:+.2f}% "
          f"({traced_s:.3f} s traced vs {base_s:.3f} s untraced, same ops, calibrated)")
    print(f"layer self time per op ({m['trace.self_coverage']:.3f} x the traced op wall "
          f"time of {m['trace.op_s']:.4f} s; above 1 where pool threads overlap):")
    for layer in LAYERS:
        value = m[f"layer.{layer}.self_s"]
        print(f"  {layer:<11} {value:9.4f} s  {100 * value * n / self_total:6.1f}% of self time")
    print(f"artifact drift: {m['cli.artifact_drift']} of {m['cli.artifact_checked']} ops "
          "differ from the pinned hashes (informational)")
    describe_failures(ops)

    ok = True
    if traced["unrestored"]:
        print(f"bindings not restored: {traced['unrestored']}")
        ok = False
    mismatched = [t["index"] for t, b in zip(ops, base["ops"]) if t["hashes"] != b["hashes"]]
    if mismatched:
        print(f"traced ops {mismatched} wrote other artifacts than the untraced run")
        ok = False
    return m, ok


def _print_metrics(metrics: dict, units: dict):
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")


def run_benchmark(args, run_dir: Path, deadline: float) -> dict:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if not args.trace:
        probes = [launch(run_dir, f"setup{i}", deadline, *common, "--mode", "setup")
                  for i in range(SETUP_PROBES)]
        runs, start, began = [], 0, time.monotonic()
        while len(runs) < 2 or time.monotonic() - began < args.seconds:
            runs.append(launch(run_dir, f"run{len(runs)}", deadline, *common, "--start", str(start),
                               "--seconds", str(args.seconds / PROCESS_SLICES)))
            start += len(runs[-1]["ops"])
        metrics, informational = end_to_end(runs, probes)
        ops = [o for r in runs for o in r["ops"]]
        correct, failed = verdict(ops)
        units, attempted = END_TO_END, len(ops)
    else:
        probe = ["--probe"] if args.seed != workloads.DEFAULT_SEED else []
        base = launch(run_dir, "base", deadline, *common, "--seconds", str(args.seconds / 2), *probe)
        traced = launch(run_dir, "traced", deadline, *common, "--ops", str(len(base["ops"])), "--trace")
        (SCRATCH / f"spans-{args.workload}.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")
        metrics, traced_ok = per_layer(args.workload, base, traced)
        correct, failed = verdict(traced["ops"])
        base_ops = base["ops"] + ([base["probe"]] if "probe" in base else [])
        correct = correct and traced_ok and verdict(base_ops)[0]
        units, attempted = PER_LAYER, len(traced["ops"])
    _print_metrics(metrics, units)
    if not args.trace:
        print(json.dumps({"informational": informational}))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def self_test(run_dir: Path, deadline: float) -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            print(f"BENCHMARK.json {key} differs from run.py: "
                  f"{sorted(set(theirs.items()) ^ set(ours.items()))}")
            ok = False
    report = launch(run_dir, "selftest", deadline, "--mode", "self-test")["self_test"]
    for workload, r in report.items():
        good = r["identical"] and not r["unrestored"]
        print(f"{workload}: traced and untraced hashes "
              f"{'identical' if r['identical'] else 'DIFFER'}, {r['spans']} spans, "
              f"unrestored bindings: {r['unrestored'] or 'none'}")
        ok = ok and good
    print("self-test", "passed" if ok else "FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.CYCLE))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "heatlift" / "cli.py").is_file():
        print(f"no heatlift sources under {SRC}; run from a heatlift checkout", file=sys.stderr)
        return 2
    if not (args.workload or args.self_test):
        parser.error("give --workload or --self-test")
    run_dir = SCRATCH / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.self_test:
            return 0 if self_test(run_dir, deadline) else 1
        result = run_benchmark(args, run_dir, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
