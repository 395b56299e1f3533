"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 --workloads sd2d twin64 \
        [--traced] [--out perfbench/trajectory/<name>.json --note TEXT]

For each workload it runs ``run.py`` once per seed (0, 1, ...), then gives
for every end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  A
spread above a third of the bound marks the metric unsteady.  ``wall_s`` and
``sample_ms_p50``, which run.py prints but BENCHMARK.json does not bound,
are summarized with bound None.  ``--traced``
adds one traced run per workload at seed 0.  ``--out`` writes every run,
its provenance and the summary to a JSON file: a point of the perf
trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[0].removeprefix("provenance "))
    # the metrics run.py prints for people but keeps out of the result line
    result["unbounded"] = {
        name: float(value) for _, name, value, *_ in (
            line.split() for line in lines[1:-1] if line.startswith(workload + " "))
        if name not in result["metrics"] and name != "failed_share"}
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread of each metric; a bound of None marks
    a metric printed by run.py but not in BENCHMARK.json."""
    out = {}
    for name in [*bounds, *runs[0]["unbounded"]]:
        values = [r["metrics"][name]["value"] if name in r["metrics"]
                  else r["unbounded"].get(name) for r in runs]
        values = [v for v in values if v is not None]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "bound": bound,
                     "steady": bound is None or (q3 - q1) / med <= bound / 3}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--note", default="", help="free text stored with --out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    doc = {"note": args.note, "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = [run_once(workload, seed, bench["run_seconds"], 0)
                for seed in range(args.seeds)]
        summary = summarize(runs, bounds)
        entry = {"summary": summary, "runs": runs}
        print(f"{workload}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)}; run time "
              f"{min(r['elapsed_s'] for r in runs):.1f}-{max(r['elapsed_s'] for r in runs):.1f} s")
        for name, s in summary.items():
            print(f"  {name:15s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  bound {s['bound']}"
                  f"{'' if s['steady'] else '  UNSTEADY'}")
        if args.traced:
            entry["traced"] = run_once(workload, 0, bench["run_seconds"], 1)
        doc["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
