"""Run one benchmark operation in a fresh process and print its record as JSON.

    python3 perfbench/worker.py --workload sd2d --seed 3 --trace 0 \
        --reference perfbench/reference.json --scratch .perfbench_tmp

A fresh process per operation makes every set-up cold (no process-global cache is warm) and gives each
operation its own peak resident memory.  Imports are not timed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def library_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    args = ap.parse_args(argv)

    cfg = workloads.config(args.workload, args.seed)
    tracer = spans.Tracer().install() if args.trace else None
    try:
        reference = workloads.load_reference(args.reference, args.workload, args.seed)
        record = workloads.run_operation(args.workload, args.seed, reference, args.scratch)
    except Exception:  # a crash of the program is a failed operation
        record = {"failed": ["exception: " + traceback.format_exc(limit=4)],
                  "setup_s": None}
    if tracer is not None:
        op_spans = len(tracer.spans)
        if "n_samples" in record:
            spans.off_path_calls(cfg, args.scratch)
            record["layers"] = spans.layer_metrics(tracer.spans, record["n_samples"],
                                                   op_spans)
        tracer.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["libraries"] = library_info()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
