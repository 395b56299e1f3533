"""Every name the benchmark traces must exist in the package.

``perfbench/spans.py`` reads its traced classes (``fields.SkewTensorField``
among them) when it is imported, and ``Tracer.install`` looks up every
traced function by name.  Deleting one of those names makes every benchmark
run fail.  The import and the install run in a subprocess, so the test
process is never patched.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import spans
import workloads

before = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
spans.Tracer().install().uninstall()
after = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
assert all(a is b for a, b in zip(before, after)), "uninstall left a wrapper"
"""


def test_tracer_installs_on_every_traced_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = f"import sys\nsys.path[:0] = {paths!r}\n" + SCRIPT
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
