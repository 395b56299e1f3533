"""Energy functionals, kappa constants, and trajectory-level experiments.

The ledger tracks two composite functionals of a sampled trajectory:

    E1(t) = sqrt(omega Re) ||u||_{L~inf_t(Hs)} + sqrt(We) ||tau||_{L~inf_t(Hs)}
          + sqrt(omega (1-omega)) ||grad u||_{L2_t(Hs)} + ||tau||_{L2_t(Hs)}

and its high-frequency counterpart E2 built from the q >= 0 part of the
l1 Besov norm at regularity d/2, with the time-L2 integrals replaced by
time-L1 ones.  All time norms are taken per dyadic block first (so the
sup-in-time norms are of Chemin-Lerner type) and accumulate by trapezoid
quadrature on the sampled grid.  E = E1 + E2 and both pieces are
non-decreasing in time by construction.  The block weights, 2^{2qs} and
2^{qd/2} on q >= 0, are ``littlewood_paley.hybrid_weights``, shared with
``hybrid_norm``.

``EnergyLedger.update`` keeps each block's running sup and trapezoid sums,
so a row costs the same at any row count; it forms each field's per-mode
squared magnitudes once, for the block norms of u, grad u and tau and for
the scale of the cancellation check.  ``functionals_from_history``
recomputes any row offline from the stored (nt, nq) block histories.

The kappa constants are the parameter-dependent prefactors entering the
closed energy inequality; ``check_global_bound`` compares max_t E(t)
against the small-data threshold 2 kappa2 E(0).  ``stability_experiment``
runs a twin pair of trajectories and fits the exponential envelope of
their squared Hs distance against the measured Gronwall weight.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid
from .littlewood_paley import (
    DyadicPartition,
    block_l2_norms,
    build_partition,
    hybrid_weights,
)
from .operators import cancellation_residual, mode_sq
from .solver import ConfigError, FluidParams, default_s

LEDGER_COLUMNS = (
    "t", "E1", "E2", "E",
    "Hs_u_sup", "Hs_tau_sup", "grad_u_L2Hs", "tau_L2Hs",
    "high_B_u_sup", "high_B_tau_sup", "high_B_u_L1", "high_B_tau_L1",
    "div_residual", "cancel_residual",
)


@dataclass(frozen=True)
class KappaConstants:
    kappa1: float
    kappa2: float
    kappa3: float

    def __post_init__(self):
        if min(self.kappa1, self.kappa2, self.kappa3) <= 0:
            raise ValueError("kappa constants must be positive")


def compute_kappas(params: FluidParams) -> KappaConstants:
    """Parameter prefactors of the closed energy inequality (max formulas)."""
    re, we, om = params.re, params.we, params.omega
    ow = om * (1.0 - om)
    kappa1 = max(
        (we / ow) ** 0.25,
        ow**-0.25,
        (om * re) ** 0.25 / math.sqrt(ow),
        (om * re) ** 0.125 / ow**0.375,
    )
    kappa2 = max(1.0, math.sqrt(re / (1.0 - om)), math.sqrt(we))
    kappa3 = max(
        1.0 / math.sqrt(ow),
        math.sqrt(re) / (math.sqrt(om) * (1.0 - om)),
        re**0.25 / (math.sqrt(om) * (1.0 - om) ** 0.75),
        we**0.25 / math.sqrt(ow),
    )
    return KappaConstants(kappa1, kappa2, kappa3)


# ---- functionals from per-block time norms -----------------------------------

#: rows of a per-block time-norm table, shape (6, nq): the Chemin-Lerner inputs
#: sup_t b for u and tau, int b^2 dt for grad u and tau, int b dt for grad u
#: and tau, where b is a block L2 norm and the integrals are trapezoid sums
SUP_U, SUP_TAU, L2SQ_GRADU, L2SQ_TAU, L1_GRADU, L1_TAU = range(6)


def _functionals_from_table(table: np.ndarray, w_hs: np.ndarray, w_high: np.ndarray,
                            params: FluidParams) -> dict:
    """E1/E2 and their eight ingredients from a per-block time-norm table.

    ``w_hs`` and ``w_high`` come from ``littlewood_paley.hybrid_weights``.
    """
    sobolev = np.concatenate((table[SUP_U:SUP_TAU + 1] ** 2, table[L2SQ_GRADU:L2SQ_TAU + 1]))
    high = table[[SUP_U, SUP_TAU, L1_GRADU, L1_TAU]]
    hs_u_sup, hs_tau_sup, grad_u_l2, tau_l2 = np.sqrt(sobolev @ w_hs).tolist()
    high_u_sup, high_tau_sup, high_u_l1, high_tau_l1 = (high @ w_high).tolist()

    om, re, we = params.omega, params.re, params.we
    e1 = (math.sqrt(om * re) * hs_u_sup + math.sqrt(we) * hs_tau_sup
          + math.sqrt(om * (1.0 - om)) * grad_u_l2 + tau_l2)
    e2 = (math.sqrt(om * re) * high_u_sup + math.sqrt(we) * high_tau_sup
          + math.sqrt(om * (1.0 - om)) * high_u_l1 + high_tau_l1)
    return {
        "E1": e1, "E2": e2, "E": e1 + e2,
        "Hs_u_sup": hs_u_sup, "Hs_tau_sup": hs_tau_sup,
        "grad_u_L2Hs": grad_u_l2, "tau_L2Hs": tau_l2,
        "high_B_u_sup": high_u_sup, "high_B_tau_sup": high_tau_sup,
        "high_B_u_L1": high_u_l1, "high_B_tau_L1": high_tau_l1,
    }


def functionals_from_history(
    times: np.ndarray,
    u_blocks: np.ndarray,
    gradu_blocks: np.ndarray,
    tau_blocks: np.ndarray,
    q_values: np.ndarray,
    d: int,
    s: float,
    params: FluidParams,
    upto: int | None = None,
) -> dict:
    """E1/E2 ingredients over samples [0..upto] of per-block norm series.

    The inputs are (nt, nq) matrices of block L2 norms for u, grad u, tau.
    Only q >= 0 columns enter the high-frequency quantities.  This is the
    offline recompute of a ledger row from its stored histories.
    """
    end = len(times) if upto is None else upto + 1
    t = np.asarray(times[:end])
    bu = np.asarray(u_blocks[:end])
    bgu = np.asarray(gradu_blocks[:end])
    btau = np.asarray(tau_blocks[:end])
    table = np.zeros((6, len(q_values)))
    table[SUP_U] = np.max(bu, axis=0)
    table[SUP_TAU] = np.max(btau, axis=0)
    if end > 1:
        table[L2SQ_GRADU] = np.trapezoid(bgu**2, t, axis=0)
        table[L2SQ_TAU] = np.trapezoid(btau**2, t, axis=0)
        table[L1_GRADU] = np.trapezoid(bgu, t, axis=0)
        table[L1_TAU] = np.trapezoid(btau, t, axis=0)
    return _functionals_from_table(table, *hybrid_weights(q_values, s, d), params)


class EnergyLedger:
    """Time series of norms, functionals, and residual diagnostics.

    Each ``update`` appends the per-block norms of the current state to the
    ``(nt, nq)`` histories and advances a running per-block time-norm table
    by that one row (the sups by a maximum, the time integrals by one
    trapezoid), so a row costs the same at any row count.
    ``functionals_from_history`` recomputes any row from the histories.
    """

    def __init__(self, grid: TorusGrid, params: FluidParams, s: float | None = None,
                 dt: float | None = None, partition: DyadicPartition | None = None):
        self.grid = grid
        self.params = params
        self.s = default_s(grid.d) if s is None else float(s)
        self.dt = dt
        self.partition = partition or build_partition(grid)
        self.kappas = compute_kappas(params)
        self.times: list[float] = []
        self.u_blocks: list[np.ndarray] = []
        self.gradu_blocks: list[np.ndarray] = []
        self.tau_blocks: list[np.ndarray] = []
        self.rows: list[dict] = []
        self._weights = hybrid_weights(self.partition.q_values, self.s, grid.d)
        self._table = np.zeros((6, self.partition.nq))

    def update(self, t: float, u, tau) -> dict:
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"non-finite ledger time {t}")
        if self.times and t < self.times[-1]:
            raise ValueError(f"non-monotone ledger time {t} after {self.times[-1]}")
        grid = self.grid
        # one magnitude pass per field: |grad u|^2 per mode is |k|^2 |u|^2
        u_sq = mode_sq(u)
        sq = np.stack((u_sq, u_sq * grid.k2, mode_sq(tau)))
        b_u, b_gu, b_tau = block_l2_norms(sq, self.partition)
        table = self._table
        np.maximum(table[SUP_U], b_u, out=table[SUP_U])
        np.maximum(table[SUP_TAU], b_tau, out=table[SUP_TAU])
        if self.times:
            h = t - self.times[-1]
            prev_gu, prev_tau = self.gradu_blocks[-1], self.tau_blocks[-1]
            # the terms of np.trapezoid, so a row equals the offline recompute
            table[L2SQ_GRADU] += h * (b_gu**2 + prev_gu**2) / 2.0
            table[L2SQ_TAU] += h * (b_tau**2 + prev_tau**2) / 2.0
            table[L1_GRADU] += h * (b_gu + prev_gu) / 2.0
            table[L1_TAU] += h * (b_tau + prev_tau) / 2.0
        self.times.append(t)
        self.u_blocks.append(b_u)
        self.gradu_blocks.append(b_gu)
        self.tau_blocks.append(b_tau)

        row = {"t": t}
        row.update(_functionals_from_table(table, *self._weights, self.params))
        # ||grad u||^2 and ||tau||^2 by Parseval, over the box volume
        grad_u_sq, tau_sq = sq[1:].reshape(2, -1) @ grid.multiplicity.ravel()
        row["div_residual"] = u.divergence_residual()
        row["cancel_residual"] = cancellation_residual(
            u, tau, scale=grid.volume * math.sqrt(grad_u_sq * tau_sq))
        self.rows.append(row)
        return row

    # ---- serialization ---------------------------------------------------

    def header(self) -> dict:
        p = self.params
        return {
            "schema": "ledger-v1",
            "s": self.s, "d": self.grid.d, "n": self.grid.n, "dt": self.dt,
            "params": {"re": p.re, "we": p.we, "omega": p.omega, "alpha": p.alpha},
            "kappa1": self.kappas.kappa1,
            "kappa2": self.kappas.kappa2,
            "kappa3": self.kappas.kappa3,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(json.dumps(self.header(), sort_keys=True))
        buf.write("\n")
        writer = csv.DictWriter(buf, fieldnames=LEDGER_COLUMNS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: repr(row[k]) for k in LEDGER_COLUMNS})
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


def read_ledger_csv(path) -> tuple[dict, list[dict]]:
    """Read back a ledger file: (header dict, rows with float values)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
    return header, rows


# ---- global bound ---------------------------------------------------------------


def check_global_bound(ledger: EnergyLedger, e0: float | None = None) -> dict:
    """Compare max_t E(t) with the small-data threshold 2 kappa2 E(0).

    E(0) defaults to the first row's E.  A zero-data trajectory reports
    ratio 0 and passes.  The report is informational; callers decide
    whether to assert on it.
    """
    if not ledger.rows:
        raise ValueError("empty ledger")
    e = ledger.column("E")
    t = ledger.column("t")
    e0 = float(e[0]) if e0 is None else float(e0)
    kappa2 = ledger.kappas.kappa2
    threshold = 2.0 * kappa2
    if e0 == 0.0:
        ratios = np.zeros_like(e)
    else:
        ratios = e / e0
    violating = np.nonzero(ratios > threshold)[0]
    return {
        "E0": e0,
        "max_ratio": float(np.max(ratios)),
        "threshold": threshold,
        "kappa2": kappa2,
        "passed": violating.size == 0,
        "first_violation_t": float(t[violating[0]]) if violating.size else None,
        "max_div_residual": float(np.max(ledger.column("div_residual"))),
        "max_cancel_residual": float(np.max(ledger.column("cancel_residual"))),
    }


# ---- twin-run stability experiment -----------------------------------------------


def _distance_sq(u1, u2, tau1, tau2, s: float, params: FluidParams, part) -> float:
    from .littlewood_paley import hs_norm

    w = u1 - u2
    sig = tau1 - tau2
    return (params.omega * params.re * hs_norm(w, s, part) ** 2
            + params.we * hs_norm(sig, s, part) ** 2)


def _gronwall_weight(u1, u2, tau2, d: int, params: FluidParams, part) -> float:
    """Measured weight ||grad u1||_B + omega Re ||u2||_B^2 + We ||tau2||_B^2."""
    q = part.q_values
    w = 2.0 ** (q * d / 2.0)
    gu1 = float(np.sum(w * block_l2_norms(u1, part, gradient_weight=True)))
    bu2 = float(np.sum(w * block_l2_norms(u2, part)))
    btau2 = float(np.sum(w * block_l2_norms(tau2, part)))
    return gu1 + params.omega * params.re * bu2**2 + params.we * btau2**2


def gronwall_integral(times: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """int_0^t weight at every sampled t, by the cumulative trapezoid rule."""
    return np.concatenate([[0.0], np.cumsum(
        0.5 * (weight[1:] + weight[:-1]) * np.diff(times))])


def _fit_envelope(times: np.ndarray, dist: np.ndarray, weight: np.ndarray) -> dict:
    """Tightest constant with dist(t) <= dist(0) exp(C int_0^t weight)."""
    d0 = dist[0]
    cumw = gronwall_integral(times, weight)
    usable = (cumw > 0.0) & (dist > 0.0)
    if d0 <= 0.0 or not np.any(usable):
        return {"C_hat": None, "d0": float(d0), "weight_integral": float(cumw[-1])}
    logratio = np.log(dist[usable] / d0)
    c_hat = float(np.max(logratio / cumw[usable]))
    return {"C_hat": c_hat, "d0": float(d0), "weight_integral": float(cumw[-1])}


def _run_pair(config, delta: float, direction, s: float):
    """Step baseline and perturbed runs in lockstep; sample d(t) and m(t)."""
    from .solver import Simulation, SolverState, make_initial_state

    grid = TorusGrid(config.d, config.n, config.period)
    part = build_partition(grid)
    base_state = make_initial_state(config, grid)
    du, dtau = direction
    pert_state = SolverState(0.0, base_state.u + du * delta,
                             base_state.tau + dtau * delta, config.params)
    sim1 = Simulation(config, base_state)
    sim2 = Simulation(config, pert_state)

    times, dist, weight = [0.0], [], []
    dist.append(_distance_sq(sim1.state.u, sim2.state.u, sim1.state.tau,
                             sim2.state.tau, s, config.params, part))
    weight.append(_gronwall_weight(sim1.state.u, sim2.state.u, sim2.state.tau,
                                   config.d, config.params, part))
    n_steps = config.n_steps
    for step in range(1, n_steps + 1):
        sim1.advance()
        sim2.advance()
        if step % config.output_stride == 0 or step == n_steps:
            times.append(sim1.state.t)
            dist.append(_distance_sq(sim1.state.u, sim2.state.u, sim1.state.tau,
                                     sim2.state.tau, s, config.params, part))
            weight.append(_gronwall_weight(sim1.state.u, sim2.state.u,
                                           sim2.state.tau, config.d,
                                           config.params, part))
    identical = bool(
        np.array_equal(sim1.state.u.coeffs, sim2.state.u.coeffs)
        and np.array_equal(sim1.state.tau.coeffs, sim2.state.tau.coeffs)
    )
    return np.asarray(times), np.asarray(dist), np.asarray(weight), identical


def stability_experiment(config, delta: float, perturb_seed: int | None = None) -> dict:
    """Twin-run stability report at perturbation sizes delta and delta/10.

    The perturbation direction is a fixed random divergence-free (u) /
    symmetric (tau) pair of unit combined hybrid norm, drawn from
    ``perturb_seed`` (defaults to the config seed shifted), so rescaling
    delta rescales the initial distance exactly quadratically.
    """
    from .fields import random_sym_tensor, random_vector
    from .littlewood_paley import hybrid_norm
    from .operators import leray_project

    if not 0.0 <= delta < np.inf:
        raise ConfigError(f"delta must be nonnegative and finite, got {delta}")
    grid = TorusGrid(config.d, config.n, config.period)
    s = config.s_value
    seed = (config.init.seed + 7919) if perturb_seed is None else perturb_seed
    rng = np.random.default_rng(seed)
    du = leray_project(random_vector(grid, rng, band=config.init.band))
    dtau = random_sym_tensor(grid, rng, band=config.init.band)
    size = hybrid_norm(du, s)[0] + hybrid_norm(dtau, s)[0]
    du, dtau = du * (1.0 / size), dtau * (1.0 / size)

    report = {"delta": delta, "s": s, "config": config.to_dict()}
    times, dist, weight, identical = _run_pair(config, delta, (du, dtau), s)
    report["bitwise_identical"] = identical
    report["times"] = times.tolist()
    report["distance_sq"] = dist.tolist()
    report["gronwall_weight"] = weight.tolist()
    if delta == 0.0:
        report["fit"] = {"C_hat": None, "d0": 0.0}
        return report
    report["fit"] = _fit_envelope(times, dist, weight)

    _, dist10, weight10, _ = _run_pair(config, delta / 10.0, (du, dtau), s)
    report["fit_tenth"] = _fit_envelope(times, dist10, weight10)
    c1, c2 = report["fit"]["C_hat"], report["fit_tenth"]["C_hat"]
    if c1 is not None and c2 is not None:
        denom = max(abs(c1), abs(c2))
        report["C_hat_rel_change"] = abs(c1 - c2) / denom if denom > 0 else 0.0
    else:
        report["C_hat_rel_change"] = None
    return report
