"""One workload process, started fresh by run.py for every measured phase.

It imports heatlift from the checkout, builds the op argv from the workload
seed and runs the ops as a closed loop with one client: the next op starts
only after the previous one returned and its artifacts were checked.  The
result (per-op times, gate verdicts, artifact hashes, peak RSS and, when
traced, every span) goes to the JSON file named by --result.

PERFBENCH_LAUNCH holds the parent's time.monotonic() just before this
process was started; set-up time is measured from it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checks
import spans
import workloads


# Median kernel time on the reference machine (2 cores, OpenBLAS pinned to
# one thread), by the number of copies run at once.  Scaled times are
# kernel units times this: seconds at that machine's undisturbed speed.
REF_KERNEL_S = {1: 0.0068, 2: 0.0091}


class Calibration:
    """Times a fixed kernel (BLAS product, array passes over a working set
    larger than L2, bytecode) between CLI calls, so a call's time can be
    expressed in kernel units that move less when a neighbour on the same
    host slows the whole machine.

    A workload whose calls run two threads is calibrated with two copies of
    the kernel running at once, so contention on either core shows.  The
    first sample is taken after the first call, so that call runs before
    the kernel has ever run in the process."""

    def __init__(self, threads: int):
        import numpy as np

        self._np = np
        self.threads = threads
        self._arrays = []
        for _ in range(threads):
            # Touched here, so all stay resident from before the first op and
            # their size can be taken off the process's peak RSS exactly.
            a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
            big = np.linspace(0.0, 1.0, 1 << 19)
            self._arrays.append((a, big, np.full_like(big, 1.0)))
        self.nbytes = sum(x.nbytes for arrays in self._arrays for x in arrays)
        self.first = self.last = None
        self.samples = []

    def _kernel(self, arrays):
        a, big, big_out = arrays
        self._np.cumsum(self._np.sin(a @ a), axis=0)
        for _ in range(4):
            self._np.multiply(big, 1.0001, out=big_out)
            self._np.add(big_out, big, out=big_out)
        sum(k * k for k in range(20000))

    def _once(self) -> float:
        start = time.perf_counter()
        if self.threads == 1:
            self._kernel(self._arrays[0])
        else:
            with ThreadPoolExecutor(self.threads) as pool:
                list(pool.map(self._kernel, self._arrays))
        return time.perf_counter() - start

    def sample(self) -> float:
        if self.first is None:
            self._once()  # first-call costs stay out of the samples
        now = sorted(self._once() for _ in range(5))[2]
        self.samples.append(now)
        if self.first is None:
            self.first = now
        return now

    def scaled(self, seconds: float) -> float:
        """seconds / (mean kernel time before and after the call), in
        reference seconds."""
        now = self.sample()
        kernel = now if self.last is None else 0.5 * (self.last + now)
        self.last = now
        return seconds / kernel * REF_KERNEL_S[self.threads]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def run_op(cli, op: dict, out_root: Path, cal: Calibration, rec: spans.Recorder | None) -> dict:
    """Runs one op's CLI calls, timing only the calls themselves."""
    seconds = scaled = 0.0
    problems = []
    hashes = {}
    replicas = bytes_written = fp_warnings = 0
    counts = {"normals": 0, "besov_pair_terms": 0, "besov_table_bytes": 0}
    for k, argv in enumerate(op["calls"]):
        out = out_root / f"op{op['index']}-{k}"
        full = [*argv, "--out", str(out)]
        catcher = warnings.catch_warnings(record=True) if rec else contextlib.nullcontext()
        with catcher as caught:
            if rec:
                warnings.simplefilter("always")
                rec.op = op["index"]
            start = time.perf_counter()
            code = rec.call(spans.ROOT, cli.main, (full,), {}) if rec else cli.main(full)
            elapsed = time.perf_counter() - start
        seconds += elapsed
        scaled += cal.scaled(elapsed)
        if rec:
            fp_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        call_problems, manifest = checks.gate(code, out)
        problems += call_problems
        if manifest is not None:
            hashes[workloads.call_key(argv)] = manifest["outputs"]
            config = manifest["resolved_config"]
            replicas += int(config["params"].get("replicas", 0))
            for key, value in workloads.computed_counts(config).items():
                counts[key] = max(counts[key], value) if key == "besov_table_bytes" else counts[key] + value
        if out.exists():
            bytes_written += _dir_bytes(out)
            shutil.rmtree(out)
    failed = bool(problems)
    return {
        "index": op["index"],
        "seconds": seconds,
        "scaled_s": scaled,
        "failed": failed,
        # A known defect is expected to show as non-finite output only.
        "expected_failure": failed
        and op["known_defect"] is not None
        and all(p.startswith("non-finite") for p in problems),
        "problems": problems,
        "replicas": 0 if failed else replicas,
        "hashes": hashes,
        "bytes_written": bytes_written,
        "fp_warnings": fp_warnings,
        **counts,
    }


def _run_workload(cli, args, out_root: Path, cal: Calibration) -> dict:
    rec = spans.Recorder() if args.trace else None
    if rec:
        rec.install()
    ops = []
    cycle = workloads.CYCLE[args.workload]
    start = time.perf_counter()
    index = args.start
    while True:
        done = index - args.start
        if args.ops is not None:
            if done >= args.ops:
                break
        elif done >= 2 and done % cycle == 0 and time.perf_counter() - start >= args.seconds:
            break  # two ops at least, so every process has a warm one
        op = workloads.build_op(args.workload, args.seed, index)
        ops.append(run_op(cli, op, out_root, cal, rec))
        index += 1
    result = {"ops": ops}
    if rec:
        result["unrestored"] = rec.uninstall()
        result["spans"] = rec.spans
    if args.probe:
        op = workloads.build_op(args.workload, workloads.DEFAULT_SEED, 0)
        result["probe"] = run_op(cli, op, out_root, cal, None)
    return result


def _self_test(cli, out_root: Path, cal: Calibration) -> dict:
    """Op 0 of every workload, untraced then traced in this process."""
    report = {}
    for workload in workloads.CYCLE:
        op = workloads.build_op(workload, workloads.DEFAULT_SEED, 0)
        plain = run_op(cli, op, out_root, cal, None)
        before = spans.bound_objects()
        rec = spans.Recorder()
        rec.install()
        try:
            traced = run_op(cli, op, out_root, cal, rec)
        finally:
            unrestored = rec.uninstall()
        if any(a is not b for a, b in zip(before, spans.bound_objects())):
            unrestored.append("a binding differs from its pre-install object")
        report[workload] = {
            "identical": plain["hashes"] == traced["hashes"] and bool(plain["hashes"]),
            "unrestored": unrestored,
            "spans": len(rec.spans),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--out", required=True, help="scratch directory for artifacts")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--workload", default="converge-sup")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--start", type=int, default=0, help="index of the first op")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=None, help="fixed op count instead of --seconds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="also run the default seed's op 0")
    parser.add_argument("--mode", choices=("run", "setup", "self-test"), default="run")
    args = parser.parse_args(argv)

    from heatlift import cli  # brings numpy and scipy with it

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"heatlift imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    workloads.build_op(args.workload, args.seed, args.start)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_LAUNCH"])
    cal = Calibration(workloads.threads(args.workload))
    result = {"setup_s": setup_s}

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    if args.mode == "self-test":
        result["self_test"] = _self_test(cli, out_root, cal)
    elif args.mode == "run":
        result.update(_run_workload(cli, args, out_root, cal))
    result["setup_scaled_s"] = setup_s / (cal.first or cal.sample()) * REF_KERNEL_S[cal.threads]
    result["kernel_median_s"] = statistics.median(cal.samples)
    result["ref_kernel_s"] = REF_KERNEL_S[cal.threads]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = (peak_kib * 1024 - cal.nbytes) / 2**20
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
