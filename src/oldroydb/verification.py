"""Named property suites: randomized checks of the analytical identities.

Each suite draws its fields from a caller-provided seed, measures the
relevant residuals or fitted constants, and returns a JSON-ready report
with a ``passed`` flag.  The thresholds and the one fixed size of each
suite live here, and ``run_suite`` is the one entry point, so the command
line and the test suite run the same check and agree on what passing
means.

Fitted constants (the product and commutator estimates) are the maximum
observed ratio lhs/rhs over the sample set; their only testable property
is boundedness and stability under resolution doubling, since the
underlying inequalities carry unspecified constants.
"""

from __future__ import annotations

import time

import numpy as np

from .fields import (
    ScalarField,
    SymTensorField,
    random_scalar,
    random_sym_tensor,
    random_vector,
    restrict_spectrum,
)
from .grid import TorusGrid
from .littlewood_paley import (
    besov_norm,
    block_l2_norms,
    build_partition,
    commutator_block_norms,
    dyadic_block,
    hs_norm,
    paraproduct,
    remainder,
)
from .operators import (
    cancellation_residual,
    grad_l2_norm,
    l2_norm,
    leray_project,
    lp_norm,
    multiply,
)
from .monitor import check_global_bound, gronwall_integral, stability_experiment
from .solver import (
    FluidParams,
    InitSpec,
    Simulation,
    SolverConfig,
    make_initial_state,
    simulate,
)

CANCELLATION_TOL = 1e-12
PARTITION_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
BONY_TOL = 1e-10
BERNSTEIN_SLOPE_TOL = 0.05
ESTIMATE_GROWTH_TOL = 0.10
LINEAR_EXACTNESS_TOL = 1e-10
ORDER_RATIO_MIN = 3.5

#: (d, n) of the grids the cancellation and partition suites sweep
SUITE_CASES = ((2, 128), (3, 32))
CANCELLATION_SAMPLES = 200
PARTITION_FIELDS = 50
BONY_PAIRS = 50
BERNSTEIN_SAMPLES_PER_Q = 5
#: (d, n) of the Bony and Bernstein suites; the estimate bench runs at this d
SUITE_GRID = (2, 128)
STABILITY_DELTA = 1e-6
STABILITY_T_END = 20.0


# ---- cancellation ---------------------------------------------------------------


def cancellation_suite(seed: int) -> dict:
    """|(div tau | u) + (D(u) | tau)| over random pairs, relative to the
    natural scale ||tau|| ||grad u||."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    per_case = {}
    for d, n in SUITE_CASES:
        grid = TorusGrid(d, n)
        case_max = 0.0
        for _ in range(CANCELLATION_SAMPLES):
            u = leray_project(random_vector(grid, rng, band=(1.0, n // 3)))
            tau = random_sym_tensor(grid, rng, band=(1.0, n // 3))
            case_max = max(case_max, cancellation_residual(u, tau))
        per_case[f"d{d}_n{n}"] = case_max
        worst = max(worst, case_max)
    return {
        "samples": CANCELLATION_SAMPLES,
        "max_residual": worst,
        "per_case": per_case,
        "tolerance": CANCELLATION_TOL,
        "passed": worst <= CANCELLATION_TOL,
    }


# ---- dyadic partition -------------------------------------------------------------


def partition_suite(seed: int) -> dict:
    """Partition-of-unity residuals, reconstruction, quasi-orthogonality."""
    rng = np.random.default_rng(seed)
    report = {"n_fields": PARTITION_FIELDS, "per_case": {}}
    ok = True
    for d, n in SUITE_CASES:
        grid = TorusGrid(d, n)
        part = build_partition(grid)
        res_chi, res_full = part.identity_residuals()

        rec_worst = 0.0
        for _ in range(PARTITION_FIELDS):
            f = random_scalar(grid, rng, band=(1.0, n // 2 - 1))
            total = np.zeros_like(f.coeffs)
            for q in part.q_values:
                total += dyadic_block(f, int(q)).coeffs
            rec_worst = max(
                rec_worst,
                float(np.max(np.abs(total - f.coeffs)) / np.max(np.abs(f.coeffs))),
            )

        quasi = 0.0
        probe = random_scalar(grid, rng, band=(1.0, n // 2 - 1))
        for p in part.q_values:
            bp = dyadic_block(probe, int(p))
            for q in part.q_values:
                if abs(int(p) - int(q)) >= 2:
                    quasi = max(quasi, float(np.max(np.abs(
                        dyadic_block(bp, int(q)).coeffs))))
        case = {
            "partition_residual_chi_form": res_chi,
            "partition_residual_full_form": res_full,
            "reconstruction_residual": rec_worst,
            "quasi_orthogonality_max": quasi,
        }
        report["per_case"][f"d{d}_n{n}"] = case
        ok = ok and (max(res_chi, res_full) <= PARTITION_TOL
                     and rec_worst <= RECONSTRUCTION_TOL and quasi == 0.0)
    report.update({
        "tolerances": {"partition": PARTITION_TOL, "reconstruction": RECONSTRUCTION_TOL},
        "passed": ok,
    })
    return report


# ---- Bony decomposition --------------------------------------------------------------


def bony_suite(seed: int) -> dict:
    """fg = T_f g + T_g f + R(f, g) on dealiased random band-limited pairs."""
    d, n = SUITE_GRID
    rng = np.random.default_rng(seed)
    grid = TorusGrid(d, n)
    worst = 0.0
    for _ in range(BONY_PAIRS):
        f = random_scalar(grid, rng, band=(1.0, n // 3))
        g = random_scalar(grid, rng, band=(1.0, n // 3))
        direct = multiply(f, g)
        combined = paraproduct(f, g) + paraproduct(g, f) + remainder(f, g)
        scale = float(np.max(np.abs(direct.coeffs)))
        resid = float(np.max(np.abs(combined.coeffs - direct.coeffs))) / scale
        worst = max(worst, resid)
    return {
        "pairs": BONY_PAIRS,
        "d": d, "n": n,
        "max_residual": worst,
        "tolerance": BONY_TOL,
        "passed": worst <= BONY_TOL,
    }


# ---- Bernstein ratios ------------------------------------------------------------------


def bernstein_suite(seed: int) -> dict:
    """Two-sided gradient ratios on random block fields across q, plus the
    L2 -> Linf exponent d/2 recovered by a slope fit on coherent annulus
    bumps (only blocks whose annulus fits inside the resolved cube enter
    the fit; clipped top blocks would bias it)."""
    d, n = SUITE_GRID
    rng = np.random.default_rng(seed)
    grid = TorusGrid(d, n)
    part = build_partition(grid)
    q_two_sided = [q for q in range(0, part.q_max - 1)]

    ratios = []
    for q in q_two_sided:
        mask = part.phi_weights(q)
        for _ in range(BERNSTEIN_SAMPLES_PER_Q):
            noise = ScalarField.from_physical(grid, rng.standard_normal(grid.shape))
            f = noise.apply_multiplier(mask)
            nrm = l2_norm(f)
            if nrm == 0.0:
                continue
            ratios.append(grad_l2_norm(f) / nrm / 2.0**q)
    ratios = np.array(ratios)
    c_two_sided = float(max(np.max(ratios), np.max(1.0 / ratios)))

    q_fit = [q for q in range(0, part.q_max + 1)
             if (8.0 / 3.0) * 2.0**q <= n // 2 - 1]
    bump_ratios = []
    for q in q_fit:
        f = ScalarField(grid, part.phi_weights(q).astype(np.complex128)[None])
        bump_ratios.append(lp_norm(f, np.inf) / lp_norm(f, 2))
    slope = float(np.polyfit(q_fit, np.log2(np.array(bump_ratios)), 1)[0])
    slope_err = abs(slope - d / 2.0) / (d / 2.0)

    # the annulus support pins the normalized two-sided ratios inside [3/4, 8/3]
    support_c = 8.0 / 3.0 + 1e-9
    passed = (c_two_sided <= support_c and slope_err < BERNSTEIN_SLOPE_TOL)
    return {
        "d": d, "n": n,
        "samples_per_q": BERNSTEIN_SAMPLES_PER_Q,
        "q_two_sided": [int(q) for q in q_two_sided],
        "two_sided_constant": c_two_sided,
        "two_sided_bound": support_c,
        "q_slope_fit": [int(q) for q in q_fit],
        "linf_slope": slope,
        "linf_slope_target": d / 2.0,
        "linf_slope_rel_error": slope_err,
        "slope_tolerance": BERNSTEIN_SLOPE_TOL,
        "passed": passed,
    }


# ---- product / commutator estimate benches -----------------------------------------------


ESTIMATE_NAMES = ("product_hs", "product_hs_weak", "product_besov", "commutator")
SAMPLING_DECAY = 3.0


def _estimate_ratio(name: str, fields) -> float:
    d = fields[0].grid.d
    if name == "product_hs":
        s = 0.0
        u, v = fields
        lhs = hs_norm(multiply(u, v), s)
        rhs = besov_norm(u, d / 2.0) * hs_norm(v, s)
    elif name == "product_hs_weak":
        s = 0.0 if d >= 3 else -0.5  # midpoint of the admissible window in 2d
        u, v = fields
        lhs = hs_norm(multiply(u, v), s)
        rhs = hs_norm(u, s + 1.0) * besov_norm(v, d / 2.0 - 1.0, np.inf)
    elif name == "product_besov":
        u, v = fields
        lhs = besov_norm(multiply(u, v), d / 2.0)
        rhs = besov_norm(u, d / 2.0) * besov_norm(v, d / 2.0)
    elif name == "commutator":
        s = 0.0
        u, tau = fields
        q = build_partition(u.grid).q_values
        norms = commutator_block_norms(u, tau)
        lhs = float(np.sqrt(np.sum((2.0 ** (q * s) * norms) ** 2)))
        gradu = block_l2_norms(u, gradient_weight=True)
        rhs = float(np.sum(2.0 ** (q * d / 2.0) * gradu)) * hs_norm(tau, s)
    else:
        raise ValueError(f"unknown estimate {name!r}")
    return lhs / rhs


def _draw_estimate_fields(name: str, grid: TorusGrid, rng):
    band = (1.0, grid.n // 3)
    if name == "commutator":
        return (leray_project(random_vector(grid, rng, band, SAMPLING_DECAY)),
                random_sym_tensor(grid, rng, band, SAMPLING_DECAY))
    return (random_scalar(grid, rng, band, SAMPLING_DECAY),
            random_scalar(grid, rng, band, SAMPLING_DECAY))


def estimate_bench(seed: int, names=ESTIMATE_NAMES, n_list=(64, 128),
                   samples: int = 100) -> dict:
    """Fitted constants per resolution and their growth under doubling, in
    ``d = SUITE_GRID[0]``.

    Every sample is drawn once on the finest grid and spectrally restricted
    to the coarser ones, so the constants compare the same continuum fields
    across resolutions rather than independent random batches.
    """
    d = SUITE_GRID[0]
    ordered = sorted(int(n) for n in n_list)
    grids = {n: TorusGrid(d, n) for n in ordered}
    fine = ordered[-1]
    constants = {name: {n: 0.0 for n in ordered} for name in names}
    for name in names:
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            fields = _draw_estimate_fields(name, grids[fine], rng)
            for n in ordered:
                local = fields if n == fine else tuple(
                    restrict_spectrum(f, grids[n]) for f in fields)
                constants[name][n] = max(constants[name][n],
                                         float(_estimate_ratio(name, local)))
    growth = {}
    ok = True
    for name in names:
        worst = max(constants[name][b] / constants[name][a] - 1.0
                    for a, b in zip(ordered, ordered[1:]))
        growth[name] = worst
        ok = ok and worst <= ESTIMATE_GROWTH_TOL
    return {
        "d": d,
        "samples": samples,
        "resolutions": ordered,
        "constants": constants,
        "max_relative_growth": growth,
        "growth_tolerance": ESTIMATE_GROWTH_TOL,
        "passed": ok,
    }


# ---- linear solver exactness and temporal order --------------------------------------------


def linear_mode_oracle(kvec, params, u0: np.ndarray, tau0: np.ndarray,
                       t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form solution of one mode's linear dynamics.

    Independent of the solver's matrix-exponential path: the transverse
    velocity couples to the stress only through zeta = P (tau k) / |k|,
    giving a 2x2 block handled by a dense eigensolver, and the rest of the
    stress follows by an explicit Duhamel integral against exp(-t/We).
    ``u0`` must be transverse; ``tau0`` is the full d x d matrix.
    """
    k = np.asarray(kvec, dtype=np.float64)
    kn = float(np.linalg.norm(k))
    if kn == 0.0:
        raise ValueError("k = 0 mode carries no dynamics")
    d = k.size
    khat = k / kn
    proj = np.eye(d) - np.outer(khat, khat)
    a = (1.0 - params.omega) * kn**2 / params.re
    b = 1.0 / params.we
    zeta0 = proj @ (tau0 @ k) / kn

    block = np.array([[-a, 1j * kn / params.re],
                      [1j * params.omega * kn / params.we, -b]])
    lam, v = np.linalg.eig(block)
    vinv = np.linalg.inv(v)
    phases = np.exp(lam * t)
    u_t = ((v[0] * phases * vinv[:, 0]).sum() * u0
           + (v[0] * phases * vinv[:, 1]).sum() * zeta0)
    # Duhamel: integrate exp(-b (t-s)) against the velocity history
    duh = (np.exp(lam * t) - np.exp(-b * t)) / (lam + b)
    g_u = (v[0] * duh * vinv[:, 0]).sum()
    g_z = (v[0] * duh * vinv[:, 1]).sum()
    drive_u = np.outer(k, u0) + np.outer(u0, k)
    drive_z = np.outer(k, zeta0) + np.outer(zeta0, k)
    tau_t = (np.exp(-b * t) * tau0
             + (1j * params.omega / params.we) * (g_u * drive_u + g_z * drive_z))
    return u_t, tau_t


def linear_solver_suite(seed: int) -> dict:
    """Linear trajectories against per-mode closed-form oracles, and the
    observed order of the full scheme under dt refinement."""
    params = FluidParams(re=1.0, we=1.0, omega=0.5, alpha=1.0)
    grid = TorusGrid(2, 16)
    cfg = SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, params=params,
                       init=InitSpec(amplitude=1.0, band=(1.0, 5.0), seed=seed),
                       nonlinear=False)
    state0 = make_initial_state(cfg, grid)
    sim = Simulation(cfg, state0)
    for _ in range(cfg.n_steps):
        sim.advance()

    pairs = SymTensorField.pairs(grid.d)
    active = np.nonzero(grid.mode_mask & (grid.half.k2 > 0.0))
    got = np.concatenate([sim.state.u.coeffs, sim.state.tau.coeffs])
    expected = np.zeros_like(got)
    for mode in zip(*active):
        at = (slice(None),) + mode
        tau0 = np.zeros((grid.d, grid.d), dtype=np.complex128)
        for c, (i, j) in enumerate(pairs):
            tau0[i, j] = tau0[j, i] = state0.tau.coeffs[(c,) + mode]
        u_t, tau_t = linear_mode_oracle(grid.half.k[at], params, state0.u.coeffs[at], tau0, 1.0)
        expected[at] = np.concatenate([u_t, [tau_t[i, j] for i, j in pairs]])
    scale = float(np.max(np.abs(expected)))
    exactness = float(np.max(np.abs(got - expected))) / scale

    # observed order on the full scheme
    def _final(dt: float):
        c = SolverConfig(d=2, n=32, dt=dt, t_end=1.0, params=params,
                         init=InitSpec(amplitude=0.5, band=(1.0, 6.0), seed=seed + 1),
                         output_stride=10**9, nonlinear=True)
        s = Simulation(c)
        for _ in range(c.n_steps):
            s.advance()
        return s.state

    ref = _final(1.0 / 160)
    errs = []
    for dt in (0.1, 0.05):
        st = _final(dt)
        errs.append(np.sqrt(l2_norm(st.u - ref.u) ** 2 + l2_norm(st.tau - ref.tau) ** 2))
    ratio = float(errs[0] / errs[1])
    order = float(np.log2(ratio))
    passed = bool(exactness <= LINEAR_EXACTNESS_TOL and ratio >= ORDER_RATIO_MIN)
    return {
        "linear_exactness": exactness,
        "exactness_tolerance": LINEAR_EXACTNESS_TOL,
        "refinement_errors": [float(e) for e in errs],
        "refinement_ratio": float(ratio),
        "observed_order": order,
        "ratio_minimum": ORDER_RATIO_MIN,
        "passed": passed,
    }


# ---- trajectory-level suites ------------------------------------------------------------

#: amplitude at which the small-data bound was calibrated (start 1e-3, halve
#: until it holds across the five seeds; 1e-3 already does)
SMALL_DATA_AMPLITUDE = 1e-3
SMALL_DATA_SEEDS = (0, 1, 2, 3, 4)
DIV_RESIDUAL_TOL = 1e-10


def small_data_config(seed: int, t_end: float = 50.0, n: int = 128,
                      amplitude: float = SMALL_DATA_AMPLITUDE):
    return SolverConfig(
        d=2, n=n, dt=0.05, t_end=t_end,
        params=FluidParams(re=1.0, we=1.0, omega=0.5, alpha=1.0),
        s=-0.25,
        init=InitSpec(kind="random_band", amplitude=amplitude, band=(1.0, 8.0),
                      seed=seed),
        output_stride=4,
    )


def small_data_suite(seed: int) -> dict:
    """Small-data global bound: E(t) <= 2 kappa2 E(0) across seeds.

    Runs ``small_data_config`` at ``len(SMALL_DATA_SEEDS)`` consecutive seeds
    from ``seed`` on.
    """
    seeds = range(seed, seed + len(SMALL_DATA_SEEDS))
    per_seed = {}
    ok = True
    for seed in seeds:
        cfg = small_data_config(seed)
        res = simulate(cfg)
        rep = check_global_bound(res.ledger)
        per_seed[int(seed)] = {
            "max_ratio": rep["max_ratio"],
            "threshold": rep["threshold"],
            "max_div_residual": rep["max_div_residual"],
            "passed": rep["passed"] and rep["max_div_residual"] <= DIV_RESIDUAL_TOL,
        }
        ok = ok and per_seed[int(seed)]["passed"]
    return {
        "amplitude": SMALL_DATA_AMPLITUDE,
        "seeds": [int(s) for s in seeds],
        "t_end": cfg.t_end,
        "n": cfg.n,
        "per_seed": per_seed,
        "div_residual_tolerance": DIV_RESIDUAL_TOL,
        "passed": ok,
    }


STABILITY_REL_CHANGE_TOL = 0.20


def stability_suite(seed: int) -> dict:
    """Twin-run experiment: exact-zero distance at delta=0, and a Gronwall
    envelope constant stable under delta -> delta/10."""
    cfg = small_data_config(seed, t_end=STABILITY_T_END)
    zero_rep = stability_experiment(cfg, 0.0)
    rep = stability_experiment(cfg, STABILITY_DELTA)
    dist = np.asarray(rep["distance_sq"])
    times = np.asarray(rep["times"])
    cumw = gronwall_integral(times, np.asarray(rep["gronwall_weight"]))
    c_hat = rep["fit"]["C_hat"]
    envelope_ok = bool(np.all(
        dist <= dist[0] * np.exp(c_hat * cumw) * (1.0 + 1e-9)))
    rel_change = rep["C_hat_rel_change"]
    passed = (zero_rep["bitwise_identical"]
              and float(np.max(np.asarray(zero_rep["distance_sq"]))) == 0.0
              and envelope_ok
              and rel_change is not None and rel_change <= STABILITY_REL_CHANGE_TOL)
    return {
        "delta": STABILITY_DELTA,
        "t_end": cfg.t_end,
        "n": cfg.n,
        "zero_delta_identical": zero_rep["bitwise_identical"],
        "C_hat": c_hat,
        "C_hat_tenth": rep["fit_tenth"]["C_hat"],
        "C_hat_rel_change": rel_change,
        "rel_change_tolerance": STABILITY_REL_CHANGE_TOL,
        "envelope_ok": envelope_ok,
        "passed": passed,
    }


SUITES = {
    "cancellation": cancellation_suite,
    "partition": partition_suite,
    "bony": bony_suite,
    "bernstein": bernstein_suite,
    "linear": linear_solver_suite,
    "estimates": estimate_bench,
    "small-data": small_data_suite,
    "stability": stability_suite,
}


def run_suite(name: str, seed: int, **options) -> dict:
    """Run one suite at ``seed``: its report, with the suite name, the seed
    and the wall time added.  Only ``estimates`` takes ``options`` (``names``,
    ``n_list``, ``samples``)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    t0 = time.time()
    report = SUITES[name](seed, **options)
    return {"suite": name.replace("-", "_"), "seed": seed, **report,
            "elapsed_s": round(time.time() - t0, 3)}
