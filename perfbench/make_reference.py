"""Write perfbench/reference.json: the seed-0 outputs every later run is held to.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the file records the
source digest it was made from.  The E columns are checked at
``workloads.E_RTOL`` and the C_hat pair at ``workloads.C_HAT_RTOL``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def main() -> int:
    doc = {"seed": SEED, "source_sha256": run.source_digest(),
           "E_rtol": workloads.E_RTOL, "C_hat_rtol": workloads.C_HAT_RTOL,
           "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            rec = workloads.run_operation(name, SEED, None, Path(scratch))
            if rec["failed"]:
                print(f"{name}: {rec['failed']}", file=sys.stderr)
                return 1
            key = "C_hat" if name == "twin64" else "E"
            doc["workloads"][name] = {key: rec[key]}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
