import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oldroydb import monitor
from oldroydb.fields import SymTensorField, VectorField, random_sym_tensor, random_vector
from oldroydb.grid import TorusGrid
from oldroydb.littlewood_paley import besov_norm, block_l2_norms, build_partition, hs_norm
from oldroydb.monitor import (
    LEDGER_COLUMNS,
    EnergyLedger,
    check_global_bound,
    compute_kappas,
    functionals_from_history,
    gronwall_integral,
    read_ledger_csv,
    stability_experiment,
)
from oldroydb.operators import leray_project, mode_sq, mode_sq_coeffs
from oldroydb.solver import (
    DivergenceError,
    FluidParams,
    InitSpec,
    Simulation,
    SolverConfig,
    SolverState,
    friedrichs_mask,
    make_initial_state,
    random_band,
    simulate,
)
from oldroydb.verification import small_data_config

PARAMS = FluidParams(re=1.0, we=1.0, omega=0.5, alpha=1.0)


class TestKappas:
    def test_reference_point(self):
        kap = compute_kappas(PARAMS)
        # direct evaluation of the three max formulas at Re = We = 1, omega = 1/2
        assert kap.kappa2 == pytest.approx(math.sqrt(2.0), rel=1e-15)
        ow = 0.25
        branches1 = [(1.0 / ow) ** 0.25, ow**-0.25,
                     0.5**0.25 / math.sqrt(ow), 0.5**0.125 / ow**0.375]
        assert kap.kappa1 == pytest.approx(max(branches1), rel=1e-15)
        assert kap.kappa1 == pytest.approx(2.0**0.75, rel=1e-12)
        branches3 = [1.0 / math.sqrt(ow), 1.0 / (math.sqrt(0.5) * 0.5),
                     1.0 / (math.sqrt(0.5) * 0.5**0.75), 1.0 / math.sqrt(ow)]
        assert kap.kappa3 == pytest.approx(max(branches3), rel=1e-15)

    def test_large_we_branch_dominates(self):
        kap = compute_kappas(FluidParams(re=1.0, we=100.0, omega=0.5, alpha=0.0))
        assert kap.kappa2 == pytest.approx(10.0, rel=1e-15)

    def test_positivity_across_parameters(self):
        for re, we, om in [(0.1, 0.1, 0.05), (10.0, 0.2, 0.95), (1.0, 5.0, 0.5)]:
            kap = compute_kappas(FluidParams(re=re, we=we, omega=om, alpha=0.0))
            assert min(kap.kappa1, kap.kappa2, kap.kappa3) > 0.0


class TestLedger:
    def test_zero_trajectory(self, grid2):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        for t in (0.0, 0.1, 0.2):
            row = ledger.update(t, VectorField.zero(grid2),
                                SymTensorField.zero(grid2))
        for key, val in row.items():
            if key != "t":
                assert val == 0.0

    def test_single_decaying_mode_against_closed_form(self):
        # initial data along an eigenvector of the coupled block at k = (1,0):
        # the whole trajectory is exp(lambda t) times the data, so every
        # ledger column has a closed form
        grid = TorusGrid(2, 8)
        block = np.array([
            [-(1 - PARAMS.omega) / PARAMS.re, 1j / PARAMS.re],
            [1j * PARAMS.omega / PARAMS.we, -1.0 / PARAMS.we],
        ])
        lam, vecs = np.linalg.eig(block)
        pick = 0
        lam0, (a_u, b_tau) = lam[pick], vecs[:, pick]
        rho = -lam0.real
        assert rho > 0.0

        u_coeffs = np.zeros((2,) + grid.spec_shape, complex)
        tau_coeffs = np.zeros((3,) + grid.spec_shape, complex)
        u_coeffs[1, 1, 0] = a_u
        u_coeffs[1, -1, 0] = np.conj(a_u)
        tau_coeffs[1, 1, 0] = b_tau
        tau_coeffs[1, -1, 0] = np.conj(b_tau)
        u0 = VectorField(grid, u_coeffs)
        tau0 = SymTensorField(grid, tau_coeffs)

        dt, t_end, s = 2e-4, 0.5, -0.25
        cfg = SolverConfig(d=2, n=8, dt=dt, t_end=t_end, params=PARAMS, s=s,
                           init=InitSpec(kind="zero"), nonlinear=False)
        from oldroydb.solver import SolverState

        sim = Simulation(cfg, SolverState.from_fields(0.0, u0, tau0))
        ledger = EnergyLedger(grid, PARAMS, s=s, dt=dt)
        ledger.update(0.0, sim.state.u, sim.state.tau)
        nsteps = int(round(t_end / dt))
        for _ in range(nsteps):
            sim.advance()
            ledger.update(sim.state.t, sim.state.u, sim.state.tau)

        # closed-form ingredients
        def chi(r):
            lo, hi = 0.75, 4.0 / 3.0
            t = (hi - abs(r)) / (hi - lo)
            if t <= 0:
                return 0.0
            if t >= 1:
                return 1.0
            psi = lambda x: math.exp(-1.0 / x)
            return psi(t) / (psi(t) + psi(1.0 - t))

        phi1 = chi(0.5) - chi(1.0)
        phi2 = chi(1.0) - chi(2.0)
        vol = grid.volume
        u0_l2 = math.sqrt(2.0 * abs(a_u) ** 2 * vol)
        tau0_l2 = math.sqrt(2.0 * 2.0 * abs(b_tau) ** 2 * vol)
        w_hs = math.sqrt(2.0 ** (-2.0 * s) * phi2**2 + phi1**2)
        t_final = nsteps * dt
        i2 = (1.0 - math.exp(-2.0 * rho * t_final)) / (2.0 * rho)
        i1 = (1.0 - math.exp(-rho * t_final)) / rho

        row = ledger.rows[-1]
        expect = {
            "Hs_u_sup": w_hs * u0_l2,
            "Hs_tau_sup": w_hs * tau0_l2,
            "grad_u_L2Hs": w_hs * u0_l2 * math.sqrt(i2),
            "tau_L2Hs": w_hs * tau0_l2 * math.sqrt(i2),
            "high_B_u_sup": phi1 * u0_l2,
            "high_B_tau_sup": phi1 * tau0_l2,
            "high_B_u_L1": phi1 * u0_l2 * i1,
            "high_B_tau_L1": phi1 * tau0_l2 * i1,
        }
        om, re, we = PARAMS.omega, PARAMS.re, PARAMS.we
        expect["E1"] = (math.sqrt(om * re) * expect["Hs_u_sup"]
                        + math.sqrt(we) * expect["Hs_tau_sup"]
                        + math.sqrt(om * (1 - om)) * expect["grad_u_L2Hs"]
                        + expect["tau_L2Hs"])
        expect["E2"] = (math.sqrt(om * re) * expect["high_B_u_sup"]
                        + math.sqrt(we) * expect["high_B_tau_sup"]
                        + math.sqrt(om * (1 - om)) * expect["high_B_u_L1"]
                        + expect["high_B_tau_L1"])
        expect["E"] = expect["E1"] + expect["E2"]
        for key, val in expect.items():
            assert row[key] == pytest.approx(val, rel=1e-8), key

    def test_functionals_monotone_in_time(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.3, band=(1.0, 6.0), seed=2))
        res = simulate(cfg)
        e1 = res.ledger.column("E1")
        e2 = res.ledger.column("E2")
        assert np.all(np.diff(e1) >= -1e-15)
        assert np.all(np.diff(e2) >= -1e-15)
        np.testing.assert_allclose(res.ledger.column("E"), e1 + e2, rtol=0, atol=0)

    def test_high_functional_ignores_low_blocks_bitwise(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=0.5, params=PARAMS,
                           init=InitSpec(amplitude=0.3, band=(1.0, 6.0), seed=6),
                           output_stride=2)
        res = simulate(cfg)
        led = res.ledger
        part = led.partition
        times = np.asarray(led.times)
        args = (np.asarray(led.u_blocks), np.asarray(led.gradu_blocks),
                np.asarray(led.tau_blocks))
        full = functionals_from_history(times, *args, part.q_values, 2, led.s, PARAMS)
        zeroed = tuple(a.copy() for a in args)
        low = part.q_values < 0
        for a in zeroed:
            a[:, low] = 0.0
        redone = functionals_from_history(times, *zeroed, part.q_values, 2, led.s,
                                          PARAMS)
        assert redone["E2"] == full["E2"]
        assert redone["high_B_u_sup"] == full["high_B_u_sup"]
        assert redone["high_B_tau_L1"] == full["high_B_tau_L1"]

    def test_div_residual_column_small(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=0.5, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 6.0), seed=9))
        res = simulate(cfg)
        assert np.max(res.ledger.column("div_residual")) <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 64), (3, 16)])
    def test_warm_update_peak_below_one_stacked_state(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n)
        u = leray_project(random_vector(grid, rng))
        tau = random_sym_tensor(grid, rng)
        ledger = EnergyLedger(grid, PARAMS, s=-0.25, dt=0.1)
        ledger.update(0.0, u, tau)
        ledger.update(0.1, u, tau)
        # one stacked state is d + nt complex components (5 at d=2, 9 at
        # d=3).  By design a row holds its (3,) + spec_shape magnitudes (1.5
        # components) and mode_sq's scratch (1, and 0.5 more for the second
        # run of the six 3-d stress components); divergence_residual runs
        # after the magnitudes are dropped and holds 2.5.  Measured 2.60 at
        # d=2, n=64 and 3.07 at d=3, n=16 (3.10 and 4.09 with the v1
        # cancel_residual column); the bound allows a quarter component of
        # small-grid overhead
        bound = ((2.5 if d == 2 else 3.0) + 0.25) * 16 * np.prod(grid.spec_shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ledger.update(0.2, u, tau)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_band_rows_match_half_spectrum_rows(self, d, n, nonlinear):
        # simulate takes each row from the state's band; update takes it
        # from the half spectrum of the same state.  The block sums run
        # over fewer zero modes on the band, so only their rounding differs
        cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=0.5, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=3),
                           nonlinear=nonlinear)
        states = []
        res = simulate(cfg, states.append)
        ledger = EnergyLedger(res.ledger.grid, PARAMS, s=cfg.s_value, dt=cfg.dt)
        for st in states:
            ledger.update(st.t, st.u, st.tau)
        assert len(ledger.rows) == len(res.ledger.rows) == 11
        for band_row, row in zip(res.ledger.rows, ledger.rows):
            assert band_row["t"] == row["t"]
            assert band_row["div_residual"] == row["div_residual"]
            for key in LEDGER_COLUMNS[1:-1]:
                assert band_row[key] == pytest.approx(row[key], rel=1e-15, abs=0.0), key
        part = ledger.partition
        st = states[-1]
        on_band = np.stack([mode_sq_coeffs(st.band[:d], np.ones(d)),
                            mode_sq_coeffs(st.band[d:], SymTensorField.weights_for(d))])
        on_half = np.stack([mode_sq(st.u), mode_sq(st.tau)])
        want = block_l2_norms(on_half, part)
        assert np.any(want > 0.0)
        np.testing.assert_allclose(block_l2_norms(on_band, part), want, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(block_l2_norms(on_band[0], part, gradient_weight=True),
                                   block_l2_norms(on_half[0], part, gradient_weight=True),
                                   rtol=1e-15, atol=0.0)

    def test_warm_band_row_peak_at_its_design_size(self):
        # a band row holds its (3,) + band magnitudes (1.5 band components)
        # and mode_sq_coeffs' scratch (1, and 0.5 more for the second run
        # of the six 3-d stress components), then the divergence residual's
        # 2.5: 3 band components by design.  The margin is a quarter
        # component of small-object overhead, so one more array the size of
        # a real half-spectrum component (1.6 band components at d=3, n=16)
        # would exceed the bound
        cfg = SolverConfig(d=3, n=16, dt=0.05, t_end=1.0, params=PARAMS, s=0.0,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=1))
        sim = Simulation(cfg)
        grid = sim.grid
        band = sim.advance().band
        ledger = EnergyLedger(grid, PARAMS, s=0.0, dt=0.05)
        ledger.update_band(0.0, band)
        ledger.update_band(0.1, band)
        component = 16 * np.prod(grid.band_shape(grid.dealias_radius))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ledger.update_band(0.2, band)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (3.0 + 0.25) * component

    def test_band_row_of_another_layout_is_an_error(self, grid2):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        with pytest.raises(ValueError, match="2/3-rule band"):
            ledger.update_band(0.0, np.zeros((5, 3, 3), complex))

    def test_non_monotone_time_rejected(self, grid2):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        ledger.update(1.0, VectorField.zero(grid2), SymTensorField.zero(grid2))
        with pytest.raises(ValueError):
            ledger.update(0.5, VectorField.zero(grid2), SymTensorField.zero(grid2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, grid2, bad):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        ledger.update(1.0, VectorField.zero(grid2), SymTensorField.zero(grid2))
        with pytest.raises(ValueError, match="non-finite"):
            ledger.update(bad, VectorField.zero(grid2), SymTensorField.zero(grid2))
        assert ledger.times == [1.0] and len(ledger.rows) == 1
        ledger.update(2.0, VectorField.zero(grid2), SymTensorField.zero(grid2))
        assert ledger.rows[-1]["E"] == 0.0

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_rows_match_offline_recompute(self, nonlinear):
        # the running accumulators against functionals_from_history on the
        # stored histories, row by row
        cfg = SolverConfig(d=2, n=32, dt=0.01, t_end=1.2, params=PARAMS,
                           init=InitSpec(amplitude=0.3, band=(1.0, 6.0), seed=2),
                           nonlinear=nonlinear)
        led = simulate(cfg).ledger
        assert len(led.rows) >= 100
        hist = (np.asarray(led.times), np.asarray(led.u_blocks),
                np.asarray(led.gradu_blocks), np.asarray(led.tau_blocks))
        columns = [c for c in LEDGER_COLUMNS[1:] if not c.endswith("_residual")]
        assert len(columns) == 11
        for i, row in enumerate(led.rows):
            want = functionals_from_history(*hist, led.partition.q_values, 2, led.s,
                                            PARAMS, upto=i)
            for key in columns:
                assert row[key] == pytest.approx(want[key], rel=1e-13, abs=0.0), (i, key)

    def test_update_does_not_recompute_from_history(self, grid2, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("update recomputed the functionals from history")

        monkeypatch.setattr(monitor, "functionals_from_history", refuse)
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        u = leray_project(random_vector(grid2, rng))
        tau = random_sym_tensor(grid2, rng)
        for i in range(50):
            ledger.update(0.1 * i, u * (1.0 + 0.01 * i), tau)
        assert len(ledger.rows) == 50 and ledger.rows[-1]["E"] > ledger.rows[0]["E"]

    def test_non_finite_row_raises_and_is_not_appended(self, grid2, rng):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        u = leray_project(random_vector(grid2, rng))
        tau = random_sym_tensor(grid2, rng)
        ledger.update(0.0, u, tau)
        kept = ledger.to_csv(), ledger._table.copy()
        # finite coefficients whose squares overflow
        with pytest.raises(DivergenceError) as err:
            ledger.update(0.1, u * 1e200, tau)
        assert (err.value.step_index, err.value.field, err.value.t) == (None, "E", 0.1)
        assert ledger.to_csv() == kept[0] and len(ledger.times) == 1
        np.testing.assert_array_equal(ledger._table, kept[1])
        ledger.update(0.1, u, tau)
        assert len(ledger.rows) == 2

    def test_overflowing_trajectory_stops_at_its_first_non_finite_row(self):
        # amplitude 100 at n=32 diverges; at step 172 the state is still
        # finite but the squares of its ledger row overflow
        cfg = replace(small_data_config(0, t_end=10.0, n=32, amplitude=100.0), dt=0.01)
        with pytest.raises(DivergenceError) as err:
            simulate(cfg)
        assert (err.value.step_index, err.value.field) == (172, "E")
        rows = err.value.ledger.rows
        assert len(rows) == 43
        assert rows[-1]["t"] == pytest.approx(1.68, rel=1e-12)
        assert all(math.isfinite(v) for row in rows for v in row.values())

    def test_csv_roundtrip(self, tmp_path):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=0.3, params=PARAMS,
                           init=InitSpec(amplitude=0.2, band=(1.0, 4.0), seed=3))
        res = simulate(cfg)
        path = tmp_path / "ledger.csv"
        res.ledger.write_csv(path)
        header, rows = read_ledger_csv(path)
        assert header["schema"] == "ledger-v2"
        assert header["d"] == 2 and header["n"] == 16
        assert header["kappa2"] == pytest.approx(math.sqrt(2.0))
        assert header["params"]["omega"] == 0.5
        assert len(rows) == len(res.ledger.rows)
        for got, want in zip(rows, res.ledger.rows):
            for key, val in want.items():
                assert got[key] == val  # repr round-trips floats exactly

    def test_reads_v1_file_with_cancel_residual_column(self, tmp_path):
        # the columns of ledger-v1, fixed with that format
        columns = ("t", "E1", "E2", "E", "Hs_u_sup", "Hs_tau_sup", "grad_u_L2Hs",
                   "tau_L2Hs", "high_B_u_sup", "high_B_tau_sup", "high_B_u_L1",
                   "high_B_tau_L1", "div_residual", "cancel_residual")
        values = [0.1 * (i + 1) for i in range(len(columns))]
        path = tmp_path / "ledger.csv"
        path.write_text(
            '{"d": 2, "dt": 0.1, "n": 16, "schema": "ledger-v1", "s": -0.25}\n'
            + ",".join(columns) + "\n"
            + ",".join(map(repr, values)) + "\n"
            + ",".join(map(repr, values[::-1])) + "\n",
            encoding="utf-8")
        header, rows = read_ledger_csv(path)
        assert header == {"d": 2, "dt": 0.1, "n": 16, "schema": "ledger-v1", "s": -0.25}
        assert rows == [dict(zip(columns, values)), dict(zip(columns, values[::-1]))]


class TestGlobalBound:
    def test_zero_data_passes_with_zero_ratio(self, grid2):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        for t in (0.0, 1.0):
            ledger.update(t, VectorField.zero(grid2), SymTensorField.zero(grid2))
        rep = check_global_bound(ledger)
        assert rep["max_ratio"] == 0.0
        assert rep["passed"] is True
        assert rep["first_violation_t"] is None

    def test_threshold_is_twice_kappa2(self, grid2):
        ledger = EnergyLedger(grid2, PARAMS, s=-0.25, dt=0.1)
        ledger.update(0.0, VectorField.zero(grid2), SymTensorField.zero(grid2))
        rep = check_global_bound(ledger)
        assert rep["threshold"] == pytest.approx(2.0 * math.sqrt(2.0))

    def test_extending_only_raises_the_ratio(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.1, band=(1.0, 6.0), seed=4))
        res = simulate(cfg)
        e = res.ledger.column("E")
        ratios = [np.max(e[: j + 1]) / e[0] for j in range(len(e))]
        assert all(a <= b + 1e-18 for a, b in zip(ratios, ratios[1:]))
        assert check_global_bound(res.ledger)["max_ratio"] == pytest.approx(
            ratios[-1])

    def test_large_amplitude_report_is_informational(self):
        # 100x the calibrated amplitude: the report must come back complete
        # whether or not the threshold holds
        cfg = SolverConfig(d=2, n=32, dt=0.02, t_end=2.0, params=PARAMS, s=-0.25,
                           init=InitSpec(amplitude=0.1, band=(1.0, 6.0), seed=5),
                           output_stride=4)
        rep = check_global_bound(simulate(cfg).ledger)
        assert set(rep) >= {"E0", "max_ratio", "threshold", "passed",
                            "first_violation_t"}
        assert rep["max_ratio"] > 0.0
        if not rep["passed"]:
            assert rep["first_violation_t"] is not None

    @pytest.mark.xfail(
        strict=True,
        reason="the kappa2 prefactor absorbs order-one bookkeeping constants; "
               "the measured linear-regime ratio is about 1.9 at the default "
               "parameters, above kappa2 = sqrt(2)",
    )
    def test_linear_regime_bounded_by_kappa2(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=20.0, params=PARAMS, s=-0.25,
                           init=InitSpec(amplitude=1e-3, band=(1.0, 8.0), seed=1),
                           output_stride=4, nonlinear=False)
        res = simulate(cfg)
        e = res.ledger.column("E")
        kappa2 = res.ledger.kappas.kappa2
        assert np.max(e) <= kappa2 * e[0] * (1.0 + 1e-8)


#: largest relative move of a twin sample from the field formulas, in eps:
#: the band norms sum in the band's order (1.2 measured here, up to 2 ulp;
#: 1.5 at d=3, n=16)
TWIN_ROUNDING = 2.0


def _distance_sq_of_fields(u1, u2, tau1, tau2, s, params):
    """The twin distance from half-spectrum fields: the oracle of the band
    form that ``stability_experiment`` samples."""
    return (params.omega * params.re * hs_norm(u1 - u2, s) ** 2
            + params.we * hs_norm(tau1 - tau2, s) ** 2)


def _gronwall_weight_of_fields(u1, u2, tau2, params):
    """The Gronwall weight from half-spectrum fields, the oracle of the band
    form: ||grad u1||_B + omega Re ||u2||_B^2 + We ||tau2||_B^2."""
    d = u1.grid.d
    w = 2.0 ** (build_partition(u1.grid).q_values * d / 2.0)
    gu1 = float(np.sum(w * block_l2_norms(u1, gradient_weight=True)))
    bu2 = besov_norm(u2, d / 2.0)
    btau2 = besov_norm(tau2, d / 2.0)
    return gu1 + params.omega * params.re * bu2**2 + params.we * btau2**2


class TestStability:
    def _tiny_config(self, seed=0):
        return SolverConfig(d=2, n=16, dt=0.05, t_end=0.3, params=PARAMS, s=-0.25,
                            init=InitSpec(amplitude=1e-3, band=(1.0, 4.0),
                                          seed=seed))

    def test_zero_delta_is_bitwise_identical(self):
        rep = stability_experiment(self._tiny_config(), 0.0)
        assert rep["bitwise_identical"] is True
        assert float(np.max(np.abs(rep["distance_sq"]))) == 0.0
        assert rep["fit"]["C_hat"] is None

    def test_initial_distance_scales_quadratically(self):
        delta = 1e-3
        r1 = stability_experiment(self._tiny_config(), delta)
        r2 = stability_experiment(self._tiny_config(), delta / 2.0)
        ratio = r1["fit"]["d0"] / r2["fit"]["d0"]
        assert ratio == pytest.approx(4.0, rel=1e-10)

    def test_envelope_holds_by_construction(self):
        rep = stability_experiment(self._tiny_config(), 1e-4)
        times = np.asarray(rep["times"])
        dist = np.asarray(rep["distance_sq"])
        cumw = gronwall_integral(times, np.asarray(rep["gronwall_weight"]))
        c = rep["fit"]["C_hat"]
        assert np.all(dist <= dist[0] * np.exp(c * cumw) * (1.0 + 1e-9))

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            stability_experiment(self._tiny_config(), -1.0)

    @pytest.mark.parametrize("d,n,friedrichs_n,nonlinear",
                             [(2, 16, None, False), (2, 16, None, True), (3, 8, 2.5, True)])
    def test_twin_samples_are_the_field_formulas_bitwise(self, monkeypatch, d, n,
                                                         friedrichs_n, nonlinear):
        # the pair is sampled from its bands, forming no half spectrum: the
        # field formulas on the fields of both runs, to the rounding of the
        # band's summation order (bitwise while the band norms summed in
        # the half-spectrum order)
        cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=0.2, params=PARAMS, s=-0.25,
                           friedrichs_n=friedrichs_n, output_stride=2, nonlinear=nonlinear,
                           init=InitSpec(amplitude=1e-2, band=(1.0, 4.0), seed=3))
        delta = 1e-3
        calls = []
        from_band = TorusGrid.from_band
        monkeypatch.setattr(TorusGrid, "from_band",
                            lambda self, *a, **k: calls.append(1) or from_band(self, *a, **k))
        rep = stability_experiment(cfg, delta)
        twin_calls = len(calls)
        # set-up and samples add none: every call is a nonlinear step's,
        # which fills its kernel's pass chains with ``from_band(out=)``
        sim = Simulation(cfg)
        calls.clear()
        for _ in range(4 * cfg.n_steps):  # two pairs of runs
            sim.advance()
        assert twin_calls == len(calls) and (nonlinear or twin_calls == 0)
        monkeypatch.undo()

        grid = TorusGrid(d, n)
        base = make_initial_state(cfg, grid)
        direction = SolverState(0.0, grid, random_band(grid, 3 + 7919, (1.0, 4.0), -0.25,
                                                       1.0, friedrichs_n))
        sims = (Simulation(cfg, base),
                Simulation(cfg, SolverState.from_fields(0.0, base.u + direction.u * delta,
                                                        base.tau + direction.tau * delta)))
        dist, weight = [], []
        for step in range(cfg.n_steps + 1):
            if step:
                for sim in sims:
                    sim.advance()
            if step % cfg.output_stride == 0 or step == cfg.n_steps:
                st1, st2 = (sim.state for sim in sims)
                dist.append(_distance_sq_of_fields(st1.u, st2.u, st1.tau, st2.tau,
                                                   -0.25, PARAMS))
                weight.append(_gronwall_weight_of_fields(st1.u, st2.u, st2.tau, PARAMS))
        rtol = TWIN_ROUNDING * np.finfo(np.float64).eps
        np.testing.assert_allclose(rep["distance_sq"], dist, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(rep["gronwall_weight"], weight, rtol=rtol, atol=0.0)
        assert dist[0] > 0.0

    def test_perturbed_run_starts_in_the_friedrichs_ball(self, monkeypatch):
        # the direction is cut like the initial data, so with a cutoff both
        # runs of every pair start with no mode outside the ball
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=0.1, params=PARAMS, friedrichs_n=3.0,
                           init=InitSpec(amplitude=1e-3, band=(1.0, 8.0), seed=0))
        first = []

        class Recorded(Simulation):
            def __init__(self, config, state=None):
                super().__init__(config, state)
                first.append(self.state.band)

        monkeypatch.setattr(monitor, "Simulation", Recorded)
        stability_experiment(cfg, 1e-2)
        grid = TorusGrid(2, 32)
        outside = grid.to_band(friedrichs_mask(grid, 3.0), grid.dealias_radius) == 0.0
        assert len(first) == 4
        for band in first:
            assert np.any(band != 0.0) and not np.any(band[:, outside])
        assert not np.array_equal(first[0], first[1])
