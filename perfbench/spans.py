"""Span tracing of the oldroydb modules, installed from outside the package.

``Tracer.install`` wraps the public entry points of each module, every
``numpy.fft`` / ``scipy.fft`` transform, and every module-level name in the
package that is bound to one of them (so ``solver.advect``, imported from
``operators``, is traced too).  A span records name, start, end, the index
of its parent span and an optional measured value.  ``layer_metrics`` turns
the spans of one operation into the per-layer metrics; ``off_path_calls``
gives a figure per call to the layers an operation never calls.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.fft
import scipy.fft

from oldroydb import fields, grid, littlewood_paley, monitor, operators, snapshots, solver

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")
ADVANCE = "solver.Simulation.advance"


def _fft_points(args, kwargs, result):
    return max(np.size(args[0]), np.size(result))


def _array_bytes(args, kwargs, result):
    """(identity, bytes of every array attribute) of a propagator."""
    return id(result), sum(v.nbytes for v in getattr(result, "__dict__", {}).values()
                           if isinstance(v, np.ndarray))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# (owner, attribute, span name, measure); owner is a module or a class
TRACED = [
    (grid.TorusGrid, "__init__", "grid.TorusGrid", None),
    (fields.SpectralField, "to_physical", "fields.to_physical", None),
    (fields.SymTensorField, "full_matrix_physical", "fields.full_matrix_physical", None),
    (fields.SkewTensorField, "full_matrix_physical", "fields.full_matrix_physical", None),
    (operators, "advect", "operators.advect", None),
    (operators, "g_alpha", "operators.g_alpha", None),
    (operators, "leray_project", "operators.leray_project", None),
    (operators, "cancellation_residual", "operators.cancellation_residual", None),
    (littlewood_paley, "build_partition", "littlewood_paley.build_partition", None),
    (littlewood_paley, "block_l2_norms", "littlewood_paley.block_l2_norms", None),
    (littlewood_paley, "hs_norm", "littlewood_paley.hs_norm", None),
    (solver, "build_propagator", "solver.build_propagator", _array_bytes),
    (solver.LinearPropagator, "__init__", "solver.LinearPropagator", None),
    (solver.LinearPropagator, "apply", "solver.LinearPropagator.apply", None),
    (solver, "rhs_nonlinear", "solver.rhs_nonlinear", None),
    (solver, "make_initial_state", "solver.make_initial_state", None),
    (solver.Simulation, "advance", ADVANCE, None),
    (solver, "simulate", "solver.simulate", None),
    (monitor.EnergyLedger, "update", "monitor.EnergyLedger.update", None),
    (monitor.EnergyLedger, "write_csv", "monitor.EnergyLedger.write_csv", None),
    (monitor, "stability_experiment", "monitor.stability_experiment", None),
    (snapshots, "write_field", "snapshots.write_field", _file_bytes),
] + [(mod, name, "fft", _fft_points)
     for mod in (numpy.fft, scipy.fft) for name in FFT_NAMES if hasattr(mod, name)]


class Tracer:
    """In-memory spans: [name, start, end, parent index, measured value]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, measure=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    span[4] = measure(args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def install(self) -> "Tracer":
        package = [m for key, m in sys.modules.items()
                   if key == "oldroydb" or key.startswith("oldroydb.")]
        for owner, attr, name, measure in TRACED:
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, measure)
            self._set(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig and mod is not owner:
                        self._set(mod, key, traced)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


OFF_PATH_REPEATS = 3


def off_path_calls(cfg, scratch: Path) -> None:
    """Call the timed entry points on the workload's initial state.

    Run under the tracer after the operation, so that a layer the operation
    never calls (``rhs_nonlinear`` on a linear run, ``hs_norm`` outside the
    twin experiment, the ledger in the twin experiment, the writes outside
    ``sd2d``) still has a measured time and file size per call at the
    workload's grid.  The twin experiment is timed on one output stride at
    delta = 0.
    """
    state = solver.make_initial_state(cfg)
    grid = state.u.grid
    ledger = monitor.EnergyLedger(grid, cfg.params, cfg.s, cfg.dt)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        for _ in range(OFF_PATH_REPEATS):
            solver.rhs_nonlinear(state.u, state.tau, cfg.params, cfg.friedrichs_n)
            littlewood_paley.hs_norm(state.u, cfg.s_value, ledger.partition)
            ledger.update(0.0, state.u, state.tau)
            ledger.write_csv(out / "ledger.csv")
            snapshots.write_field(out / "u.field", state.u)
            snapshots.write_field(out / "tau.field", state.tau)
        monitor.stability_experiment(replace(cfg, t_end=cfg.dt * cfg.output_stride), 0.0)
    finally:
        for path in out.iterdir():
            path.unlink()
        out.rmdir()


def layer_metrics(spans: list[list], n_samples: int, op_spans: int) -> dict:
    """Per-layer metrics of one operation's spans.

    ``spans[:op_spans]`` are the operation's, the rest those of
    ``off_path_calls``.  Figures per call (times, file sizes, the ledger's
    update-time growth) come from the operation's calls, or from the
    off-path calls for a layer the operation never calls.  Counts come from
    the operation alone: per-step and per-sample figures divide all of its
    calls (set-up and output included) by the number of
    ``Simulation.advance`` calls or of sampled instants.  So a count is 0
    exactly where the workload never calls the layer, which is the
    "should not move" side of its pairing.
    """
    dur: dict[str, list[float]] = {}
    self_time: dict[str, list[float]] = {}
    off_dur: dict[str, list[float]] = {}
    off_self: dict[str, list[float]] = {}
    files = [s[4] for s in spans[:op_spans] if s[0] == "snapshots.write_field"] or [
        s[4] for s in spans[op_spans:] if s[0] == "snapshots.write_field"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    for i, span in enumerate(spans):
        durs, selfs = (dur, self_time) if i < op_spans else (off_dur, off_self)
        durs.setdefault(span[0], []).append(span[2] - span[1])
        selfs.setdefault(span[0], []).append(span[2] - span[1] - child_time[i])
    spans = spans[:op_spans]

    def ms(name, table=dur, off=off_dur):
        durations = table.get(name) or off.get(name, [])
        return 1e3 * statistics.median(durations) if durations else 0.0

    def calls(name):
        return len(dur.get(name, ()))

    steps = calls(ADVANCE)
    per_step = (lambda x: x / steps) if steps else (lambda x: 0.0)
    ffts = [s for s in spans if s[0] == "fft"]

    builds = [s for s in spans if s[0] == "solver.build_propagator"]
    props = dict(s[4] for s in builds)
    built = sum(1 for s in spans if s[0] == "solver.LinearPropagator"
                and s[3] >= 0 and spans[s[3]][0] == "solver.build_propagator")
    updates = (dur.get("monitor.EnergyLedger.update")
               or off_dur.get("monitor.EnergyLedger.update", []))
    tenth = max(1, len(updates) // 10)

    m = {
        "solver.build_propagator.s": sum(dur.get("solver.build_propagator", [])),
        "solver.propagator.bytes": float(sum(props.values())),
        "solver.build_propagator.calls_per_build": len(builds) / max(built, 1),
        "solver.Simulation.advance.self_ms": ms(ADVANCE, self_time, off_self),
        "fft.calls_per_step": per_step(float(len(ffts))),
        "fft.ms_per_step": per_step(1e3 * sum(s[2] - s[1] for s in ffts)),
        "fft.points_per_step": per_step(float(sum(s[4] for s in ffts))),
        "littlewood_paley.build_partition.s":
            sum(dur.get("littlewood_paley.build_partition", [])),
        "littlewood_paley.block_l2_norms.ms": ms("littlewood_paley.block_l2_norms"),
        "littlewood_paley.block_l2_norms.calls_per_sample":
            calls("littlewood_paley.block_l2_norms") / n_samples if n_samples else 0.0,
        "littlewood_paley.hs_norm.ms": ms("littlewood_paley.hs_norm"),
        "monitor.EnergyLedger.update.ms_p50": ms("monitor.EnergyLedger.update"),
        "monitor.EnergyLedger.update.ms_last_decile_over_first":
            sum(updates[-tenth:]) / sum(updates[:tenth]) if updates else 0.0,
        "monitor.stability_experiment.self_ms":
            ms("monitor.stability_experiment", self_time, off_self),
        "monitor.EnergyLedger.write_csv.ms": ms("monitor.EnergyLedger.write_csv"),
        "snapshots.write_field.ms": ms("snapshots.write_field"),
        "snapshots.bytes_per_field": float(statistics.median(files)) if files else 0.0,
        "grid.TorusGrid.calls": float(calls("grid.TorusGrid")),
    }
    for name in ("solver.LinearPropagator.apply", "solver.rhs_nonlinear",
                 "operators.advect", "operators.g_alpha", "operators.leray_project",
                 "operators.cancellation_residual", "fields.to_physical",
                 "fields.full_matrix_physical"):
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.calls_per_step"] = per_step(float(calls(name)))
    return m

