"""oldroydb benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sd2d --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  One client runs one operation at a time, each in a fresh worker
process (closed loop).  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports the per-layer metrics of traced
operations and their overhead against the untraced operations they
alternate with.  Every line but the last is for people: provenance, then
each metric with its unit and sample count, including the unbounded
``wall_s`` and ``sample_ms_p50``.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sd2d", "box3d", "linear2d", "twin64")
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
DEADLINE_S = 160  # every worker ends by then, so that the run ends within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """One BLAS/OpenMP thread: the run is single-threaded throughout.

    Nothing in a step calls BLAS; the propagator build does, and with a
    pool per CPU its set-up time spreads more, and far more under load.
    """
    return {**os.environ, **{var: "1" for var in THREAD_VARS}}


def run_worker(args, trace: int, env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace),
           "--reference", str(args.reference), "--scratch", str(args.scratch)]
    start = time.perf_counter()
    timeout = max(1.0, args.deadline - start)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        record = {"failed": [f"worker timed out after {timeout:.0f} s"], "setup_s": None}
    else:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            record = {"failed": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"],
                      "setup_s": None}
    record["duration_s"] = time.perf_counter() - start
    return record


def source_commit() -> str | None:
    """HEAD of a git checkout at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which names the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oldroydb").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def percentile_90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(args, env: dict) -> list[dict]:
    """Whole operations until the time is up.

    Operations continue past ``--seconds`` only until MIN_SAMPLES samples
    exist, not at all once an operation has failed, and never past the
    deadline.
    """
    start = time.perf_counter()
    ops: list[dict] = []
    while True:
        now = time.perf_counter()
        if ops:
            next_end = now + statistics.median(op["duration_s"] for op in ops)
            enough = sum(len(op.get("samples_ms", [])) for op in ops) >= MIN_SAMPLES
            if next_end - start > args.seconds and (
                    enough or any(op["failed"] for op in ops)):
                break
            if next_end > args.deadline:
                break
        ops.append(run_worker(args, 0, env))
    return ops


def end_to_end(ops: list[dict]) -> dict:
    """Each metric as (value, sample count); medians over operations."""
    setups = [op["setup_s"] for op in ops if op.get("setup_s") is not None]
    walls = [op["wall_s"] for op in ops if op.get("wall_s") is not None]
    samples = [s for op in ops for s in op.get("samples_ms", [])]
    rss = [op["peak_rss_mb"] for op in ops if "peak_rss_mb" in op]
    out = {}
    if setups:
        out["setup_s"] = (statistics.median(setups), len(setups))
    if walls:
        out["wall_s"] = (statistics.median(walls), len(walls))
    if len(samples) >= MIN_SAMPLES:
        out["sample_ms_p50"] = (statistics.median(samples), len(samples))
        out["sample_ms_p90"] = (percentile_90(samples), len(samples))
    if rss:
        out["peak_rss_mb"] = (max(rss), len(rss))
    return out


def traced(args, env: dict) -> tuple[list[dict], dict]:
    """Untraced and traced operations in turn until the time is up.

    The per-layer metrics are medians over the traced operations; the
    overhead is the ratio of their median set-up plus wall time to that of
    the untraced ones.
    """
    start = time.perf_counter()
    plain: list[dict] = []
    traced_ops: list[dict] = []
    while not traced_ops or (
            time.perf_counter() - start + plain[-1]["duration_s"]
            + traced_ops[-1]["duration_s"] <= min(args.seconds, args.deadline - start)
            and not (plain[-1]["failed"] or traced_ops[-1]["failed"])):
        plain.append(run_worker(args, 0, env))
        traced_ops.append(run_worker(args, 1, env))
    layers = [op["layers"] for op in traced_ops if "layers" in op]
    out = {}
    if layers:
        for name in layers[0]:
            out[name] = (statistics.median(lay[name] for lay in layers), len(layers))

    def totals(ops):
        return [op["setup_s"] + op["wall_s"] for op in ops if op.get("wall_s") is not None]

    if totals(plain) and totals(traced_ops):
        out["trace.overhead_ratio"] = (
            statistics.median(totals(traced_ops)) / statistics.median(totals(plain)),
            len(totals(traced_ops)))
    return plain + traced_ops, out


#: printed for people but not in the result line, so not bounded: medians
#: over a run flip with the share of it the host spent at its faster speed
#: (see the README's steadiness section)
UNBOUNDED_UNITS = {"wall_s": "s", "sample_ms_p50": "ms"}


def load_units(trace: int) -> dict:
    """Units of the metrics of the result line, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "oldroydb" / "__init__.py").is_file():
        print(f"no oldroydb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = load_units(args.trace)
    args.reference = HERE / "reference.json"
    args.scratch = ROOT / ".perfbench_tmp"
    args.scratch.mkdir(exist_ok=True)
    env = worker_env()

    if args.trace:
        ops, metrics = traced(args, env)
    else:
        ops = measure(args, env)
        metrics = end_to_end(ops)
    try:
        args.scratch.rmdir()
    except OSError:
        pass

    timed = [r for r in ops if r.get("setup_s") is not None]
    if not timed:
        for op in ops:
            print("; ".join(op["failed"]), file=sys.stderr)
        print("no operation produced a timing", file=sys.stderr)
        return 1
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failed"])

    libs = timed[0]["libraries"]
    provenance = {
        "commit": source_commit(), "source_sha256": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "operations": len(ops),
        "nproc": nproc(), "cpu_count": os.cpu_count(), "machine": platform.machine(),
        **libs,
        "threads": {var: env[var] for var in THREAD_VARS},
        "numpy_fft": "pocketfft, one thread per call",
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for op in ops:
        if op["failed"]:
            print("failed: " + "; ".join(op["failed"]))
    for name, (value, count) in metrics.items():
        unit = units.get(name) or UNBOUNDED_UNITS[name]
        print(f"{args.workload} {name} {value:.6g} {unit} (n={count})")
    print(f"{args.workload} failed_share {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
