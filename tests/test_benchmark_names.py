"""Every name the benchmark traces must exist in the package.

``perfbench/spans.py`` reads its traced classes (``fields.SkewTensorField``
among them) when it is imported, and ``Tracer.install`` looks up every
traced function by name.  Deleting one of those names makes every benchmark
run fail.  The import and the install run in a subprocess, so the test
process is never patched.  The same subprocess counts the spans of one warm
step, the per-layer call counts the benchmark reports.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import collections

import spans
import workloads
from oldroydb.solver import InitSpec, Simulation, SolverConfig

before = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
spans.Tracer().install().uninstall()
after = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
assert all(a is b for a, b in zip(before, after)), "uninstall left a wrapper"

for nonlinear, want in ((True, NONLINEAR_STEP), (False, LINEAR_STEP)):
    sim = Simulation(SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, nonlinear=nonlinear,
                                  init=InitSpec(amplitude=0.5, band=(1.0, 4.0))))
    sim.advance()
    sim.advance()
    tracer = spans.Tracer().install()
    try:
        sim.advance()
    finally:
        tracer.uninstall()
    got = dict(collections.Counter(span[0] for span in tracer.spans))
    assert got == want, (nonlinear, got)
"""

#: spans of one warm (Adams-Bashforth) step at d=2: the kernel's three
#: inverse transform groups take two passes each, plus one forward transform
NONLINEAR_STEP = {"solver.Simulation.advance": 1, "solver.rhs_nonlinear": 1,
                  "solver.LinearPropagator.apply": 2, "operators.leray_project": 2,
                  "fft": 7}
LINEAR_STEP = {"solver.Simulation.advance": 1, "solver.LinearPropagator.apply": 1,
               "operators.leray_project": 1}


def test_tracer_installs_on_every_traced_name():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys\nsys.path[:0] = {paths!r}\n"
            f"NONLINEAR_STEP = {NONLINEAR_STEP!r}\nLINEAR_STEP = {LINEAR_STEP!r}\n"
            + SCRIPT)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
