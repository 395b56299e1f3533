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

An ``EnergyLedger`` row keeps each block's running sup and trapezoid sums,
so a row costs the same at any row count; it forms each field's per-mode
squared magnitudes once, for the block norms of u, grad u and tau.  One
implementation serves two layouts, each through its tables (``grid.half``,
``grid.band``: ``grid.LayoutTables``): ``update`` takes the fields on the
half spectrum, ``update_band`` the stacked 2/3-rule band that
``Simulation`` holds, which ``simulate`` appends its rows from (28% of the
half spectrum at d=3, n=32; 44% at d=2, n=128).  The two give the same
``t`` and ``div_residual`` bits and agree elsewhere to the rounding of the
block sums.  A row allocates one real ``(3,) + layout`` array of magnitudes (1.5
complex components of its layout) and ``mode_sq_coeffs``' scratch, and
drops them before the divergence residual, so its peak (about 2.5 complex
components at d=2, 3 at d=3) stays below one stacked state.  A row reports
no cancellation residual: ``(div tau | u) + (D(u) | tau)`` vanishes mode
by mode for any coefficients, so the column could only read rounding;
``operators.cancellation_residual`` and the A-1 suite check the identity.
``functionals_from_history``
recomputes any row offline from the stored (nt, nq) block histories.

The kappa constants are the parameter-dependent prefactors entering the
closed energy inequality; ``check_global_bound`` compares max_t E(t)
against the small-data threshold 2 kappa2 E(0).  ``stability_experiment``
runs a twin pair of trajectories and fits the exponential envelope of
their squared Hs distance against the measured Gronwall weight.  Its
initial band and perturbation direction are drawn once per recipe, on the
2/3-rule band (the direction cut at the config's Friedrichs radius like
the initial data), and held for the next experiment on that recipe
(``_twin_data``, the most recent recipe only), so a delta-0 twin followed
by a delta twin draws once; both twin pairs start from them on one grid,
step through one kernel scratch held for the call, and sample the
distance and the weight from the runs' bands, in the band's summation
order: the half-spectrum norms to rounding.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .fields import SymTensorField, VectorField, divergence_residual_coeffs
from .grid import LayoutTables, TorusGrid, leray_tables
from .littlewood_paley import besov_from_blocks, block_l2_norms, build_partition, hybrid_weights
from .operators import kernel_scratch, mode_sq_coeffs
from .solver import (
    ConfigError,
    DivergenceError,
    FluidParams,
    InitSpec,
    Simulation,
    SolverConfig,
    SolverState,
    make_initial_state,
    random_band,
)

LEDGER_COLUMNS = (
    "t", "E1", "E2", "E",
    "Hs_u_sup", "Hs_tau_sup", "grad_u_L2Hs", "tau_L2Hs",
    "high_B_u_sup", "high_B_tau_sup", "high_B_u_L1", "high_B_tau_L1",
    "div_residual",
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

    Each row appends the per-block norms of the current state to the
    ``(nt, nq)`` histories and advances a running per-block time-norm table
    by that one row (the sups by a maximum, the time integrals by one
    trapezoid), so a row costs the same at any row count.
    ``functionals_from_history`` recomputes any row from the histories.
    ``update(t, u, tau)`` takes the row of two half-spectrum fields,
    ``update_band(t, x)`` that of a stacked 2/3-rule band; both run one
    implementation, ``_append``, with the tables of their layout
    (``grid.half`` or ``grid.band``, the partition's ``phi_sq`` of it and
    ``leray_tables`` at its radius).
    A row writes ``|u|^2``, ``|k|^2 |u|^2`` and ``|tau|^2`` per mode
    straight into one ``(3,)`` + layout array (``mode_sq_coeffs(c, w,
    out=)``) and holds no other layout-sized temporary beyond its scratch;
    the divergence residual runs after the array is dropped.
    A row with a non-finite value (a diverging state overflows its
    squares) raises ``DivergenceError`` for ``E``, with no step, and is
    not appended.
    """

    def __init__(self, grid: TorusGrid, params: FluidParams, s: float, dt: float):
        self.grid = grid
        self.params = params
        self.s = float(s)
        self.dt = dt
        self.partition = build_partition(grid)
        self.kappas = compute_kappas(params)
        self.times: list[float] = []
        self.u_blocks: list[np.ndarray] = []
        self.gradu_blocks: list[np.ndarray] = []
        self.tau_blocks: list[np.ndarray] = []
        self.rows: list[dict] = []
        self._weights = hybrid_weights(self.partition.q_values, self.s, grid.d)
        self._table = np.zeros((6, self.partition.nq))
        self._component_weights = (VectorField.weights_for(grid.d),
                                   SymTensorField.weights_for(grid.d))

    def update(self, t: float, u, tau) -> dict:
        """Append the row of the fields ``u`` and ``tau`` at time ``t``, on
        the half spectrum."""
        return self._append(t, u.coeffs, tau.coeffs, self.grid.half)

    def update_band(self, t: float, x: np.ndarray) -> dict:
        """Append the row at time ``t`` of a state held as a stacked array
        on the 2/3-rule band, ``(d + nt,) + grid.band_shape(
        grid.dealias_radius)``, as ``Simulation`` holds it: the row of
        ``update`` on the fields ``x`` stands for, without forming them.
        An array on neither layout is a ``ValueError``."""
        d = self.grid.d
        return self._append(t, x[:d], x[d:], self.grid.layout_of(x.shape[1:]))

    def _append(self, t: float, uc: np.ndarray, tauc: np.ndarray,
                layout: LayoutTables) -> dict:
        """The row of the coefficient rows ``uc`` and ``tauc`` on
        ``layout``, with its ``|k|^2`` and Leray ``k``."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"non-finite ledger time {t}")
        if self.times and t < self.times[-1]:
            raise ValueError(f"non-monotone ledger time {t} after {self.times[-1]}")
        w_u, w_tau = self._component_weights
        # a diverging state overflows the squares; the row is checked below
        with np.errstate(over="ignore", invalid="ignore"):
            # one magnitude pass per field: |grad u|^2 per mode is |k|^2 |u|^2
            sq = np.empty((3,) + uc.shape[1:])
            mode_sq_coeffs(uc, w_u, out=sq[0])
            np.multiply(sq[0], layout.k2, out=sq[1])
            mode_sq_coeffs(tauc, w_tau, out=sq[2])
            b_u, b_gu, b_tau = block_l2_norms(sq, self.partition)
            del sq
            table = self._table.copy()
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
            row = {"t": t}
            row.update(_functionals_from_table(table, *self._weights, self.params))
            row["div_residual"] = divergence_residual_coeffs(
                uc, leray_tables(self.grid, layout.radius)[0])
        if not all(map(math.isfinite, row.values())):
            raise DivergenceError(None, t, "E")
        self._table = table
        self.times.append(t)
        self.u_blocks.append(b_u)
        self.gradu_blocks.append(b_gu)
        self.tau_blocks.append(b_tau)
        self.rows.append(row)
        return row

    # ---- serialization ---------------------------------------------------

    def header(self) -> dict:
        p = self.params
        return {
            # ledger-v1 rows carry one more column, cancel_residual
            "schema": "ledger-v2",
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
    """Read back a ledger file: (header dict, rows with float values).

    Each row holds the columns its file names, so a ``ledger-v1`` file
    reads back with its ``cancel_residual`` column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
    return header, rows


# ---- global bound ---------------------------------------------------------------


def check_global_bound(ledger: EnergyLedger) -> dict:
    """Compare max_t E(t) with the small-data threshold 2 kappa2 E(0).

    E(0) is the first row's E.  A zero-data trajectory reports
    ratio 0 and passes.  The report is informational; callers decide
    whether to assert on it.
    """
    if not ledger.rows:
        raise ValueError("empty ledger")
    e = ledger.column("E")
    t = ledger.column("t")
    e0 = float(e[0])
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
    }


# ---- twin-run stability experiment -----------------------------------------------


def _distance_sq(x1: np.ndarray, x2: np.ndarray, partition, s: float,
                 params: FluidParams) -> float:
    """omega Re ||u1 - u2||_Hs^2 + We ||tau1 - tau2||_Hs^2 of two stacked
    bands: ``hs_norm`` of the half-spectrum differences, summed in the
    band's order (equal to rounding)."""
    d, q = partition.grid.d, partition.q_values
    w_u, w_tau = VectorField.weights_for(d), SymTensorField.weights_for(d)
    diff = x1 - x2
    hs_u = besov_from_blocks(block_l2_norms(mode_sq_coeffs(diff[:d], w_u), partition), q, s, 2.0)
    hs_tau = besov_from_blocks(block_l2_norms(mode_sq_coeffs(diff[d:], w_tau), partition),
                               q, s, 2.0)
    return params.omega * params.re * hs_u**2 + params.we * hs_tau**2


def _gronwall_weight(x1: np.ndarray, x2: np.ndarray, partition,
                     params: FluidParams) -> float:
    """Measured weight ||grad u1||_B + omega Re ||u2||_B^2 + We ||tau2||_B^2
    of two stacked bands, with B the l1 Besov space at regularity d/2:
    ``besov_norm`` and ``block_l2_norms`` of the fields, summed in the
    band's order (equal to rounding)."""
    d, q = partition.grid.d, partition.q_values
    w_u, w_tau = VectorField.weights_for(d), SymTensorField.weights_for(d)
    w = 2.0 ** (q * d / 2.0)
    gu1 = float(np.sum(w * block_l2_norms(mode_sq_coeffs(x1[:d], w_u), partition,
                                          gradient_weight=True)))
    bu2 = besov_from_blocks(block_l2_norms(mode_sq_coeffs(x2[:d], w_u), partition), q, d / 2.0)
    btau2 = besov_from_blocks(block_l2_norms(mode_sq_coeffs(x2[d:], w_tau), partition),
                              q, d / 2.0)
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


def _run_pair(config, base: SolverState, direction: np.ndarray, delta: float, s: float):
    """Step the baseline run from the state ``base`` and the perturbed run
    from the band ``base.band + delta * direction`` in lockstep; sample d(t)
    and m(t) from their bands."""
    partition = build_partition(base.grid)
    sim1 = Simulation(config, base)
    sim2 = Simulation(config, SolverState(0.0, base.grid, base.band + direction * delta))

    times, dist, weight = [], [], []
    n_steps = config.n_steps
    for step in range(n_steps + 1):
        if step > 0:
            sim1.advance()
            sim2.advance()
        if step % config.output_stride == 0 or step == n_steps:
            x1, x2 = sim1.state.band, sim2.state.band
            # a diverging pair overflows the squares; the sample is checked below
            with np.errstate(over="ignore", invalid="ignore"):
                d_sq = _distance_sq(x1, x2, partition, s, config.params)
                w = _gronwall_weight(x1, x2, partition, config.params)
            if not (math.isfinite(d_sq) and math.isfinite(w)):
                raise DivergenceError(step, sim1.state.t, "distance")
            times.append(sim1.state.t)
            dist.append(d_sq)
            weight.append(w)
    identical = bool(np.array_equal(sim1.state.band, sim2.state.band))
    return np.asarray(times), np.asarray(dist), np.asarray(weight), identical


@functools.lru_cache(maxsize=1)
def _twin_data(d: int, n: int, period: float, init: InitSpec, s: float,
               friedrichs_n: float | None) -> tuple[SolverState, np.ndarray]:
    """The base state and the perturbation direction of a twin experiment
    on the recipe ``(d, n, period, init, s, friedrichs_n)``, the only
    inputs of the draws, so configs that differ in ``dt``, ``t_end``,
    ``params`` or the output stride share them.

    Drawn as ``simulate`` draws: ``make_initial_state`` on one new grid,
    then ``random_band`` of the seed plus 7919 at unit size on that grid.
    Both are read-only (the state's band is; the direction is made so),
    and the most recent recipe's pair is held with its grid: two bands.
    """
    base = make_initial_state(SolverConfig(d=d, n=n, period=period, friedrichs_n=friedrichs_n,
                                           s=s, init=init))
    direction = random_band(base.grid, init.seed + 7919, init.band, s, 1.0, friedrichs_n)
    direction.flags.writeable = False
    return base, direction


def stability_experiment(config, delta: float) -> dict:
    """Twin-run stability report at perturbation sizes delta and delta/10.

    The perturbation direction is a fixed random divergence-free (u) /
    symmetric (tau) pair of unit combined hybrid norm, drawn by the recipe
    of the initial data (``random_band``, cut at ``config.friedrichs_n``
    like the initial data, so a perturbed run starts in the Friedrichs
    ball) from the config seed plus 7919, so rescaling delta rescales the
    initial distance exactly quadratically.  The initial band and the
    direction are drawn on the 2/3-rule band once per recipe (``_twin_data``:
    a later call on the same recipe draws nothing), and both twin pairs
    start from them, every run on the initial state's grid; a nonlinear
    config holds one kernel scratch for the whole call, so the delta/10
    pair steps through the delta pair's arrays, and frees it on return.
    The runs are sampled from their bands with the partition's band
    tables, so no half spectrum and no half-spectrum table is formed.
    The samples are the half-spectrum norms of the fields (``hs_norm``,
    ``besov_norm``) to the rounding of the band's summation order.
    A sample whose distance or weight is not finite (a diverging pair
    overflows their squares) raises ``DivergenceError`` for ``distance``.
    """
    if not 0.0 <= delta < np.inf:
        raise ConfigError(f"delta must be nonnegative and finite, got {delta}")
    s = config.s_value
    base, direction = _twin_data(config.d, config.n, config.period, config.init, s,
                                 config.friedrichs_n)
    # held to the return, so both pairs' runs find one scratch
    held = kernel_scratch(base.grid) if config.nonlinear else None  # noqa: F841

    report = {"delta": delta, "s": s, "config": config.to_dict()}
    times, dist, weight, identical = _run_pair(config, base, direction, delta, s)
    report["bitwise_identical"] = identical
    report["times"] = times.tolist()
    report["distance_sq"] = dist.tolist()
    report["gronwall_weight"] = weight.tolist()
    if delta == 0.0:
        report["fit"] = {"C_hat": None, "d0": 0.0}
        return report
    report["fit"] = _fit_envelope(times, dist, weight)

    _, dist10, weight10, _ = _run_pair(config, base, direction, delta / 10.0, s)
    report["fit_tenth"] = _fit_envelope(times, dist10, weight10)
    c1, c2 = report["fit"]["C_hat"], report["fit_tenth"]["C_hat"]
    if c1 is not None and c2 is not None:
        denom = max(abs(c1), abs(c2))
        report["C_hat_rel_change"] = abs(c1 - c2) / denom if denom > 0 else 0.0
    else:
        report["C_hat_rel_change"] = None
    return report
