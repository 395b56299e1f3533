"""Check the benchmark itself: its checks bite and its trace counts repeat.

    python3 perfbench/selftest.py [--workloads linear2d twin64]

1. A wrong reference (E or C_hat scaled by 1 + 1e-6) makes a seed-0
   operation fail its checks instead of passing or raising.
2. A perturbed or non-finite ledger, and a twin report whose delta=0 runs
   differ, fail the output checks instead of passing or raising.
3. A worker that cannot run counts as a failed operation.
4. Every count of the traced run (calls per step, sample or propagator
   build, FFT points, propagator and snapshot bytes, grid constructions)
   is the same in two traced runs at different seeds.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from oldroydb import solver  # noqa: E402

COUNT_SUFFIXES = ("calls_per_step", "calls_per_sample", "calls_per_build", ".calls",
                  "points_per_step", ".bytes", "bytes_per_field")


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wrong_reference(workload: str, scratch: Path) -> bool:
    doc = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    key = "C_hat" if workload == "twin64" else "E"
    values = doc["workloads"][workload][key]
    values[-1] *= 1.0 + 1e-6
    path = scratch / f"wrong-{workload}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    args = Namespace(workload=workload, seed=0, seconds=1, reference=path, scratch=scratch,
                     deadline=time.perf_counter() + 150)
    ops = run.measure(args, run.worker_env())
    return any(op["failed"] for op in ops)


def perturbed_outputs() -> list[bool]:
    cfg = workloads.config("linear2d", 0)
    cfg = replace(cfg, n=32, t_end=0.5)
    res = solver.simulate(cfg)
    reference = {"E": res.ledger.column("E").tolist()}
    ok = [workloads.check_ledger(res.ledger, res.final, reference) == []]
    bumped = copy.deepcopy(res.ledger)
    bumped.rows[-1]["E"] *= 1.0 + 1e-8
    ok.append(workloads.check_ledger(bumped, res.final, reference) != [])
    broken = copy.deepcopy(res.ledger)
    broken.rows[1]["E"] = math.nan
    ok.append(workloads.check_ledger(broken, res.final, reference) != [])
    zero = {"bitwise_identical": False, "distance_sq": [0.0, 1e-30],
            "gronwall_weight": [1.0, 1.0]}
    rep = {"fit": {"C_hat": 1.0}, "fit_tenth": {"C_hat": 1.0}, "C_hat_rel_change": 0.0,
           "distance_sq": [1e-12, 1e-12], "gronwall_weight": [1.0, 1.0], "times": [0.0, 1.0]}
    ok.append(workloads.check_twin(zero, rep, [res.final], None) != [])
    return ok


def crashed_worker(scratch: Path) -> bool:
    args = Namespace(workload="no-such-workload", seed=0, reference=HERE / "reference.json",
                     scratch=scratch, deadline=time.perf_counter() + 60)
    return bool(run.run_worker(args, 0, run.worker_env())["failed"])


def repeated_counts(workload: str) -> tuple[bool, list[str]]:
    a = bench(workload, 0, 1)["metrics"]
    b = bench(workload, 1, 1)["metrics"]
    counts = [name for name in a if name.endswith(COUNT_SUFFIXES)]
    differ = [name for name in counts if a[name]["value"] != b[name]["value"]]
    return not differ, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    args = ap.parse_args(argv)
    scratch = ROOT / ".perfbench_tmp" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for workload in ("linear2d", "twin64"):
            results.append((f"wrong {workload} reference fails", wrong_reference(workload, scratch)))
        names = ("reference ledger passes", "perturbed E fails", "NaN in ledger fails",
                 "differing delta=0 twins fail")
        results += list(zip(names, perturbed_outputs()))
        results.append(("crashed worker fails", crashed_worker(scratch)))
        for workload in args.workloads:
            same, differ = repeated_counts(workload)
            results.append((f"{workload} trace counts repeat {differ or ''}", same))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
