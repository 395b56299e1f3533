"""Benchmark workloads: their configurations, one operation each, and its checks.

An operation is one trajectory (``simulate``) or one twin experiment
(``stability_experiment`` at delta = 0 and at delta = TWIN_DELTA).  It returns
its timings and the list of checks that failed; it never raises for a
failure of the program, so a bad run is counted instead of crashing the
harness.  Every configuration derives from ``verification.small_data_config``
and takes the workload seed as ``init.seed``.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from oldroydb import monitor, snapshots, solver, verification

WORKLOADS = ("sd2d", "box3d", "linear2d", "twin64")

#: relative tolerance on the ledger E column against the stored reference.
#: Rounding-only changes (reordered FFT or einsum arithmetic, a closed-form
#: propagator) move E by about 1e-16..1e-13; dropping the D-part of g_alpha
#: moves it by 5.7e-8 and dropping the nonlinear terms by 2.1e-7 (seed 0,
#: n=64, 100 steps), so 1e-10 sits three orders above the one and more than
#: two below the other.
E_RTOL = 1e-10
#: relative tolerance on the fitted twin-run constant C_hat.  It is a
#: log-ratio of distances of size delta^2, so rounding reaches it about 1e3
#: to 1e4 times more strongly than E, up to about 1e-10..1e-9; dropping the
#: D-part of g_alpha moves it by 1.7e-7.  1e-8 sits one order above the
#: rounding estimate and a factor 17 below that wrong kernel.
C_HAT_RTOL = 1e-8
TWIN_DELTA = 1e-6
#: tolerance of the output round trip (ledger CSV, field snapshots)
ROUND_TRIP_RTOL = 1e-12


def config(workload: str, seed: int):
    """The solver configuration of a workload at a seed."""
    if workload == "sd2d":
        # SD-1 acceptance configuration, 100 steps instead of 1000
        return verification.small_data_config(seed, t_end=5.0)
    if workload == "box3d":
        base = verification.small_data_config(seed, t_end=1.25, n=32)
        return replace(base, d=3, s=0.0, output_stride=1)
    if workload == "linear2d":
        base = verification.small_data_config(seed, t_end=10.0)
        return replace(base, nonlinear=False, output_stride=1)
    if workload == "twin64":
        return verification.small_data_config(seed, t_end=5.0, n=64)
    raise ValueError(f"unknown workload {workload!r}")


class AdvanceHook:
    """Timestamps every ``Simulation.advance`` call: (enter, exit).

    ``stability_experiment`` takes no observer, so this is how the twin
    workload sees its steps.  It costs two clock reads per step.
    """

    def __init__(self):
        self.stamps: list[tuple[float, float]] = []
        self.last_states: dict[int, object] = {}

    def __enter__(self):
        self._orig = orig = solver.Simulation.advance
        hook = self

        def advance(sim):
            enter = time.perf_counter()
            state = orig(sim)
            hook.stamps.append((enter, time.perf_counter()))
            hook.last_states[id(sim)] = state
            return state

        solver.Simulation.advance = advance
        return self

    def __exit__(self, *exc):
        solver.Simulation.advance = self._orig
        return False


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    scale = np.maximum(np.abs(want), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(got - want) / scale))


def check_ledger(ledger, final, reference: dict | None) -> list[str]:
    """Failed checks of a trajectory: finiteness, the small-data bound,
    the divergence residual and, when given, the reference E column."""
    failed = []
    if not all(_finite(list(row.values())) for row in ledger.rows):
        failed.append("non-finite ledger value")
    if not (_finite(final.u.coeffs.view(np.float64))
            and _finite(final.tau.coeffs.view(np.float64))):
        failed.append("non-finite final state")
    if failed:
        return failed
    rep = monitor.check_global_bound(ledger)
    if not rep["passed"]:
        failed.append(f"global bound violated: max E/E0 {rep['max_ratio']:.6g}")
    if not rep["max_div_residual"] <= verification.DIV_RESIDUAL_TOL:
        failed.append(f"div residual {rep['max_div_residual']:.3g}")
    if reference is not None:
        err = _rel_err(ledger.column("E"), reference["E"])
        if not err <= E_RTOL:
            failed.append(f"E differs from reference by {err:.3g} (rtol {E_RTOL:g})")
    return failed


def check_twin(zero: dict, rep: dict, final_states, reference: dict | None) -> list[str]:
    """Failed checks of a twin experiment, as in ``stability_suite`` plus
    finiteness, the divergence residual of every final state and, when
    given, the reference C_hat pair."""
    failed = []
    c_hat, c_tenth = rep["fit"]["C_hat"], rep["fit_tenth"]["C_hat"]
    series = (zero["distance_sq"] + rep["distance_sq"] + zero["gronwall_weight"]
              + rep["gronwall_weight"])
    if c_hat is None or c_tenth is None or not _finite(series + [c_hat, c_tenth]):
        return ["non-finite or missing twin result"]
    for state in final_states:
        if not (_finite(state.u.coeffs.view(np.float64))
                and _finite(state.tau.coeffs.view(np.float64))):
            return ["non-finite final state"]
        if not state.u.divergence_residual() <= verification.DIV_RESIDUAL_TOL:
            failed.append(f"div residual {state.u.divergence_residual():.3g}")
            break
    if not (zero["bitwise_identical"] and max(zero["distance_sq"]) == 0.0):
        failed.append("delta=0 twins are not bitwise identical")
    dist = np.asarray(rep["distance_sq"])
    times = np.asarray(rep["times"])
    weight = np.asarray(rep["gronwall_weight"])
    cumw = np.concatenate([[0.0], np.cumsum(
        0.5 * (weight[1:] + weight[:-1]) * np.diff(times))])
    if not np.all(dist <= dist[0] * np.exp(c_hat * cumw) * (1.0 + 1e-9)):
        failed.append("Gronwall envelope does not hold")
    rel = rep["C_hat_rel_change"]
    if rel is None or not rel <= verification.STABILITY_REL_CHANGE_TOL:
        failed.append(f"C_hat relative change {rel}")
    if reference is not None:
        err = _rel_err([c_hat, c_tenth], reference["C_hat"])
        if not err <= C_HAT_RTOL:
            failed.append(f"C_hat differs from reference by {err:.3g} (rtol {C_HAT_RTOL:g})")
    return failed


def _write_outputs(result, out: Path) -> None:
    """The writes of ``oldroydb simulate``."""
    result.ledger.write_csv(out / "ledger.csv")
    for name, field in (("initial_u", result.initial.u), ("initial_tau", result.initial.tau),
                        ("final_u", result.final.u), ("final_tau", result.final.tau)):
        snapshots.write_field(out / f"{name}.field", field)


def check_outputs(result, out: Path) -> list[str]:
    """Failed read-back checks of the written ledger and final stress."""
    failed = []
    _, rows = monitor.read_ledger_csv(out / "ledger.csv")
    if [row["E"] for row in rows] != result.ledger.column("E").tolist():
        failed.append("ledger.csv does not round-trip")
    want = result.final.tau.coeffs
    err = np.abs(snapshots.read_field(out / "final_tau.field").coeffs - want).max()
    if not err <= ROUND_TRIP_RTOL * np.abs(want).max():
        failed.append("final_tau.field does not round-trip")
    return failed


def run_simulate(workload: str, cfg, reference: dict | None, scratch: Path) -> dict:
    """One trajectory: set-up, sampled steps and (sd2d) the CLI's writes.

    The checks run after the clock stops.
    """
    stamps: list[float] = []
    t0 = time.perf_counter()
    try:
        result = solver.simulate(cfg, lambda state: stamps.append(time.perf_counter()))
    except solver.DivergenceError as exc:
        return _timings(t0, stamps, time.perf_counter(), [f"diverged: {exc}"])
    failed = []
    if workload == "sd2d":
        out = Path(tempfile.mkdtemp(dir=scratch))
        try:
            _write_outputs(result, out)
            t_end = time.perf_counter()
            failed += check_outputs(result, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    else:
        t_end = time.perf_counter()
    failed += check_ledger(result.ledger, result.final, reference)
    record = _timings(t0, stamps, t_end, failed)
    record["E"] = result.ledger.column("E").tolist()
    return record


def twin_runs(stamps, n_steps: int) -> list[list[tuple[float, float]]]:
    """The advance stamps of each lockstep twin run, in order.

    The three twin runs of an operation (delta = 0, then delta and delta/10)
    each make 2 * n_steps advance calls, baseline and perturbed alternating.
    """
    per_run = 2 * n_steps
    return [stamps[start:start + per_run]
            for start in range(0, len(stamps) - per_run + 1, per_run)]


def twin_setup(t0: float, runs) -> float:
    """Set-up of a twin experiment: the three runs' set-up intervals summed.

    A run's set-up goes from the call (first run) or from the previous run's
    last advance to its own first advance: grid, perturbation, both initial
    states and two ``build_propagator`` calls, of which only the first run's
    build cold; the later ones hit the process-global cache.
    """
    starts = [t0] + [run[-1][1] for run in runs[:-1]]
    return sum(run[0][0] - start for run, start in zip(runs, starts))


def twin_samples(runs, stride: int) -> list[float]:
    """Intervals between the sampled instants of each lockstep twin run.

    A sampled instant ends after the perturbed run's advance at every
    stride-th step; the interval between two instants holds stride step
    pairs and one distance evaluation, as a ``simulate`` sample holds stride
    steps and one ledger row.
    """
    out = []
    for run in runs:
        ends = [run[2 * step - 1][1] for step in range(stride, len(run) // 2 + 1, stride)]
        out += list(np.diff(ends))
    return out


def run_twin(cfg, reference: dict | None) -> dict:
    """One twin experiment: delta = 0, then delta = TWIN_DELTA (two runs)."""
    t0 = time.perf_counter()
    with AdvanceHook() as hook:
        try:
            zero = monitor.stability_experiment(cfg, 0.0)
            rep = monitor.stability_experiment(cfg, TWIN_DELTA)
        except solver.DivergenceError as exc:
            return _timings(t0, [], time.perf_counter(), [f"diverged: {exc}"])
    t_end = time.perf_counter()
    failed = check_twin(zero, rep, list(hook.last_states.values()), reference)
    runs = twin_runs(hook.stamps, int(round(cfg.t_end / cfg.dt)))
    if len(runs) != 3:
        return _timings(t0, [], t_end, failed + [f"{len(runs)} twin runs, not 3"])
    setup = twin_setup(t0, runs)
    return {
        "failed": failed,
        "setup_s": setup,
        "wall_s": t_end - t0 - setup,
        "samples_ms": [1e3 * s for s in twin_samples(runs, cfg.output_stride)],
        "n_samples": len(zero["times"]) + 2 * len(rep["times"]),
        "C_hat": [rep["fit"]["C_hat"], rep["fit_tenth"]["C_hat"]],
    }


def _timings(t0: float, stamps: list[float], t_end: float, failed: list[str]) -> dict:
    """Set-up is call to first sample; wall is first sample to the end."""
    if not stamps:
        return {"failed": failed or ["no sample"], "setup_s": None, "wall_s": None,
                "samples_ms": [], "n_samples": 0}
    return {
        "failed": failed,
        "setup_s": stamps[0] - t0,
        "wall_s": t_end - stamps[0],
        "samples_ms": [1e3 * s for s in np.diff(stamps)],
        "n_samples": len(stamps),
    }


def run_operation(workload: str, seed: int, reference: dict | None, scratch: Path) -> dict:
    cfg = config(workload, seed)
    if workload == "twin64":
        return run_twin(cfg, reference)
    return run_simulate(workload, cfg, reference, scratch)


def load_reference(path: Path, workload: str, seed: int) -> dict | None:
    """The stored reference of a workload, if the seed is the one it was made at."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if seed != doc["seed"]:
        return None
    return doc["workloads"][workload]
