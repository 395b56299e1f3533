"""Every name the benchmark traces must exist in the package.

``perfbench/spans.py`` reads its traced classes (``fields.SkewTensorField``
among them) when it is imported, and ``Tracer.install`` looks up every
traced function by name.  Deleting one of those names makes every benchmark
run fail.  The import and the install run in a subprocess, so the test
process is never patched.  The same subprocess counts the spans of one warm
step and of one warm ledger row, the per-layer call counts the benchmark
reports (a row that stopped calling ``block_l2_norms`` would empty its
columns), and runs the
benchmark's own operations at n=16 for eight steps: the off-path calls,
three ``simulate`` workloads (one of them the 3-d ``box3d``) and the twin
experiment.  A change to a signature
they call (``EnergyLedger``, ``hs_norm``, ``stability_experiment``,
``check_global_bound``, the twin report's keys) then fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import collections
from dataclasses import replace

import spans
import workloads
from oldroydb.monitor import EnergyLedger
from oldroydb.solver import InitSpec, Simulation, SolverConfig

before = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
spans.Tracer().install().uninstall()
after = [getattr(owner, attr) for owner, attr, _, _ in spans.TRACED]
assert all(a is b for a, b in zip(before, after)), "uninstall left a wrapper"

for d, nonlinear, want in ((2, True, NONLINEAR_STEP), (3, True, NONLINEAR_STEP_3D),
                          (2, False, LINEAR_STEP)):
    sim = Simulation(SolverConfig(d=d, n=16, dt=0.05, t_end=1.0, nonlinear=nonlinear,
                                  init=InitSpec(amplitude=0.5, band=(1.0, 4.0))))
    sim.advance()
    sim.advance()
    tracer = spans.Tracer().install()
    try:
        sim.advance()
    finally:
        tracer.uninstall()
    got = dict(collections.Counter(span[0] for span in tracer.spans))
    assert got == want, (d, nonlinear, got)

ledger = EnergyLedger(sim.grid, sim.config.params, sim.config.s_value, sim.config.dt)
state = sim.state
ledger.update(0.0, state.u, state.tau)
ledger.update(0.1, state.u, state.tau)
tracer = spans.Tracer().install()
try:
    ledger.update(0.2, state.u, state.tau)
finally:
    tracer.uninstall()
got = dict(collections.Counter(span[0] for span in tracer.spans))
assert got == LEDGER_ROW, got


def small(workload):
    return replace(workloads.config(workload, 0), n=16, t_end=0.4)


spans.off_path_calls(small("sd2d"), SCRATCH)
for workload in ("sd2d", "box3d", "linear2d"):
    cfg = small(workload)
    record = workloads.run_simulate(workload, cfg, None, SCRATCH)
    assert record["failed"] == [], (workload, record["failed"])
    assert record["n_samples"] == cfg.n_steps // cfg.output_stride + 1, workload
# three twin runs (delta 0, delta, delta/10) of three samples each
record = workloads.run_twin(small("twin64"), None)
assert record["failed"] == [], record["failed"]
assert record["n_samples"] == 9 and len(record["C_hat"]) == 2, record
"""

#: spans of one warm (Adams-Bashforth) step at d=2: the kernel's two field
#: groups (u, then the three stress components) take two complex and three
#: real passes each, and its forward transform of the five products one
#: real and one complex pass (pruned to the 2/3 band); the tendencies and
#: the new state are projected on the band without ``leray_project``, and
#: the step forms its tendencies from its band (``solver.rhs_band``), not
#: through the field entry ``rhs_nonlinear``
NONLINEAR_STEP = {"solver.Simulation.advance": 1, "solver.LinearPropagator.apply": 2,
                  "fft": 12}
#: the same at d=3: u and two stress groups take five complex and four real
#: passes each (a real pass for the samples and for each derivative), and
#: the forward transforms of the three velocity products, then of the six
#: stress products, three passes each
NONLINEAR_STEP_3D = {**NONLINEAR_STEP, "fft": 33}
LINEAR_STEP = {"solver.Simulation.advance": 1, "solver.LinearPropagator.apply": 1}
#: spans of one warm ledger row: one block-norm call for all three series
#: and no transform
LEDGER_ROW = {"monitor.EnergyLedger.update": 1, "littlewood_paley.block_l2_norms": 1}


def test_tracer_installs_on_every_traced_name(tmp_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (f"import sys\nsys.path[:0] = {paths!r}\n"
            f"NONLINEAR_STEP = {NONLINEAR_STEP!r}\nLINEAR_STEP = {LINEAR_STEP!r}\n"
            f"NONLINEAR_STEP_3D = {NONLINEAR_STEP_3D!r}\n"
            f"LEDGER_ROW = {LEDGER_ROW!r}\n"
            f"SCRATCH = {str(tmp_path)!r}\n"
            + SCRIPT)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
