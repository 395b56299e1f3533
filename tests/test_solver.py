import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oldroydb import solver
from oldroydb.fields import (
    SymTensorField,
    VectorField,
    random_scalar,
    random_sym_tensor,
    random_vector,
)
from oldroydb.grid import GridError, TorusGrid
from oldroydb.operators import advect, g_alpha, inner_product, l2_norm, leray_project
from oldroydb.solver import (
    ConfigError,
    DivergenceError,
    FluidParams,
    InitSpec,
    LinearPropagator,
    Simulation,
    SolverConfig,
    SolverState,
    _expm_batch,
    _real_generators,
    block_coefficients,
    build_propagator,
    friedrichs_mask,
    friedrichs_truncate,
    make_initial_state,
    rhs_nonlinear,
    simulate,
)
from oldroydb.verification import linear_mode_oracle, small_data_config

PARAMS = FluidParams(re=1.0, we=1.0, omega=0.5, alpha=1.0)


class TestParamsAndConfig:
    @pytest.mark.parametrize("kw", [
        {"re": 0.0}, {"we": -1.0}, {"omega": 0.0}, {"omega": 1.0},
        {"alpha": 1.5}, {"alpha": -2.0},
    ])
    def test_param_validation(self, kw):
        with pytest.raises(ConfigError):
            FluidParams(**kw)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(dt=0.0)
        with pytest.raises(ConfigError):
            SolverConfig(n=64, friedrichs_n=40.0)
        with pytest.raises(ConfigError):
            InitSpec(kind="bogus")

    def test_json_roundtrip(self):
        cfg = SolverConfig(d=3, n=16, dt=0.01, t_end=2.0,
                           params=FluidParams(re=2.0, we=0.5, omega=0.25, alpha=-1.0),
                           friedrichs_n=6.0, s=0.1,
                           init=InitSpec(amplitude=0.01, band=(2.0, 5.0), seed=9),
                           output_stride=3, out_dir="somewhere")
        back = SolverConfig.from_json(json.dumps(cfg.to_dict()))
        assert back == cfg

    def test_malformed_json(self):
        with pytest.raises(ConfigError):
            SolverConfig.from_json("{not json")
        with pytest.raises(ConfigError):
            SolverConfig.from_json('{"dt": "fast"}')

    @pytest.mark.parametrize("band", [
        (2.0, 1.0), (3.0, 3.0), (-1.0, 4.0), (1.0, np.inf), (np.nan, 4.0),
        (1.0,), (1.0, 2.0, 3.0), ("a", "b"),
    ])
    def test_band_validation(self, band):
        with pytest.raises(ConfigError):
            InitSpec(band=band)

    def test_band_normalized_to_floats(self):
        assert InitSpec(band=(0, 4)).band == (0.0, 4.0)

    @pytest.mark.parametrize("doc", [
        {"init": 5}, {"output": []}, {"init": {"band": "ab"}},
        {"tend": 5.0}, {"init": {"sed": 1}}, {"output": {"strid": 2}},
        {"d": 2.7}, {"n": 64.5}, {"d": "2"}, {"d": True},
        {"init": {"seed": 1.5}}, {"output": {"stride": 1.5}},
        {"output": {"dir": 5}}, {"nonlinear": "false"},
        {"dt": np.nan}, {"t_end": np.inf}, {"period": np.nan}, {"re": np.nan},
        {"we": np.inf}, {"s": np.nan}, {"friedrichs_n": np.nan},
        {"friedrichs_n": -1.0}, {"init": {"amplitude": np.nan}},
        {"t_end": 0.12}, {"dt": 10**400}, {"init": {"band": [1, 10**400]}},
        {"init": {"seed": -1}},
    ])
    def test_from_dict_rejects(self, doc):
        with pytest.raises(ConfigError):
            SolverConfig.from_dict(doc)

    def test_from_dict_accepts_integral_floats(self):
        cfg = SolverConfig.from_dict({"d": 3.0, "n": 16.0, "init": {"seed": 2.0}})
        assert (cfg.d, cfg.n, cfg.init.seed) == (3, 16, 2)


class TestFriedrichs:
    def test_identity_beyond_nyquist(self, grid2, rng):
        f = random_scalar(grid2, rng, band=(1.0, grid2.n // 2 - 1))
        out = friedrichs_truncate(f, grid2.n)
        np.testing.assert_array_equal(out.coeffs, f.coeffs)

    def test_kills_modes_outside_radius(self, grid2):
        coeffs = np.zeros((1,) + grid2.spec_shape, complex)
        coeffs[0, 5, 0] = 1.0
        coeffs[0, -5, 0] = 1.0
        from oldroydb.fields import ScalarField

        f = ScalarField(grid2, coeffs)
        out = friedrichs_truncate(f, 4.0)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_idempotent_bitwise(self, grid2, rng):
        f = random_scalar(grid2, rng)
        once = friedrichs_truncate(f, 7.0)
        twice = friedrichs_truncate(once, 7.0)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)

    def test_commutes_with_propagator_bitwise(self, grid2, rng):
        prop = build_propagator(grid2, PARAMS, 0.07)
        u = random_vector(grid2, rng)
        tau = random_sym_tensor(grid2, rng)
        m = friedrichs_mask(grid2, 6.0)
        before = prop.apply(u.coeffs * m, tau.coeffs * m)
        after = prop.apply(u.coeffs, tau.coeffs)
        np.testing.assert_array_equal(before[0], after[0] * m)
        np.testing.assert_array_equal(before[1], after[1] * m)


def mode_matrix(kvec, params: FluidParams, include_coupling: bool = True) -> np.ndarray:
    """Generator of one mode's linear system, acting on [u, tau] stacked.

    Rows: d velocity components then the upper-triangle stress components.
    ``include_coupling=False`` drops the div tau and 2 omega D(u) exchange
    terms, leaving pure viscous/relaxational decay.
    """
    k = np.asarray(kvec, dtype=np.float64)
    d = k.size
    k2 = float(k @ k)
    if k2 == 0.0:
        raise ValueError("the k = 0 mode is pinned to zero and has no propagator")
    pairs = SymTensorField.pairs(d)
    m = d + len(pairs)
    proj = np.eye(d) - np.outer(k, k) / k2
    a = np.zeros((m, m), dtype=np.complex128)
    for i in range(d):
        a[i, i] = -(1.0 - params.omega) * k2 / params.re
    for c in range(len(pairs)):
        a[d + c, d + c] = -1.0 / params.we
    if include_coupling:
        for c, (i, j) in enumerate(pairs):
            # contribution of tau_ij to (tau k)_l, then Leray-projected
            v = np.zeros(d)
            v[i] += k[j]
            if i != j:
                v[j] += k[i]
            a[:d, d + c] += (1j / params.re) * (proj @ v)
            # 2 omega D(u) drive of tau_ij
            a[d + c, j] += 1j * params.omega / params.we * k[i]
            a[d + c, i] += 1j * params.omega / params.we * k[j]
    return a


def _random_state(grid, rng):
    """Complex Gaussian coefficients at every mode: divergence-free u and
    arbitrary tau (not Hermitian; the propagator acts mode by mode)."""
    def draw(ncomp):
        shape = (ncomp,) + grid.spec_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = leray_project(VectorField(grid, draw(grid.d))).coeffs
    return u, draw(len(SymTensorField.pairs(grid.d)))


def _max_oracle_error(grid, params, dt, u, tau):
    """Worst per-mode error of ``apply`` against expm(mode_matrix * dt),
    relative to the larger of the mode's input and output."""
    got = np.concatenate(build_propagator(grid, params, dt).apply(u, tau))
    stacked = np.concatenate([u, tau])
    active = np.nonzero(grid.mode_mask & (grid.k2 > 0.0))
    gens = np.stack([mode_matrix(grid.k[(slice(None),) + mode], params)
                     for mode in zip(*active)])
    vec = stacked[(slice(None),) + active].T
    want = np.einsum("kij,kj->ki", scipy.linalg.expm(gens * dt), vec)
    err = np.max(np.abs(got[(slice(None),) + active].T - want), axis=1)
    scale = np.maximum(np.max(np.abs(want), axis=1), np.max(np.abs(vec), axis=1))
    return float(np.max(err / scale))


def _complex_form_apply(grid, params, dt, u, tau):
    """``LinearPropagator.apply`` with the five coefficients kept complex."""
    e_uu, e_uz, g_u, g_z, decay = block_coefficients(grid, params, dt)
    active = grid.mode_mask & (grid.k2 > 0.0)
    khat = np.divide(grid.k, grid.kmag, out=np.zeros_like(grid.k), where=active)
    pairs = SymTensorField.pairs(grid.d)
    tk = np.zeros_like(u)
    for c, (i, j) in enumerate(pairs):
        tk[i] += tau[c] * khat[j]
        if i != j:
            tk[j] += tau[c] * khat[i]
    zeta = tk - khat * np.sum(khat * tk, axis=0)
    u_new = e_uu * u + e_uz * zeta
    w = g_u * u + g_z * zeta
    tau_new = decay * tau
    for c, (i, j) in enumerate(pairs):
        tau_new[c] += khat[i] * w[j] + khat[j] * w[i]
    return u_new, tau_new


#: unequal rates and a strong coupling
SKEWED = FluidParams(re=3.0, we=0.4, omega=0.8, alpha=0.2)
#: a == b: (1 - omega)|k|^2/Re = 1/We at |k| = 1
EQUAL_RATES = FluidParams(re=1.0, we=2.0, omega=0.5)
#: double root of the (u, zeta) block at |k| = 1: (a - b)^2 = 4 omega/(Re We)
#: with a = 1/2 gives b = (3 - 2 sqrt 2)/2
DOUBLE_ROOT = FluidParams(re=1.0, we=float(2.0 / (3.0 - 2.0 * np.sqrt(2.0))), omega=0.5)


class TestPropagator:
    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            mode_matrix(np.zeros(2), PARAMS)

    def test_decoupled_decay_rates(self):
        k = np.array([3.0, 4.0])
        mat = mode_matrix(k, PARAMS, include_coupling=False)
        dt = 0.11
        prop = scipy.linalg.expm(mat * dt)
        visc = np.exp(-(1 - PARAMS.omega) * 25.0 * dt / PARAMS.re)
        relax = np.exp(-dt / PARAMS.we)
        np.testing.assert_allclose(np.diag(prop)[:2], visc, rtol=1e-14)
        np.testing.assert_allclose(np.diag(prop)[2:], relax, rtol=1e-14)
        off = prop - np.diag(np.diag(prop))
        assert np.max(np.abs(off)) == 0.0

    @pytest.mark.parametrize("dt", [0.05, 0.25])
    @pytest.mark.parametrize("params", [PARAMS, SKEWED], ids=["unit", "skewed"])
    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_apply_matches_full_generator(self, d, n, params, dt):
        grid = TorusGrid(d, n)
        u, tau = _random_state(grid, np.random.default_rng(10 * d + n))
        assert _max_oracle_error(grid, params, dt, u, tau) <= 1e-13

    @pytest.mark.parametrize("params", [EQUAL_RATES, DOUBLE_ROOT],
                             ids=["a-equals-b", "double-root"])
    def test_degenerate_block(self, params):
        grid = TorusGrid(2, 16)
        k2 = grid.k2[grid.mode_mask & (grid.k2 > 0.0)]
        a = (1.0 - params.omega) * np.min(k2) / params.re
        b = 1.0 / params.we
        disc = (a - b) ** 2 - 4.0 * params.omega / (params.re * params.we)
        assert a == b if params is EQUAL_RATES else abs(disc) <= 1e-15
        u, tau = _random_state(grid, np.random.default_rng(5))
        for dt in (0.05, 0.25, 2.0):
            assert _max_oracle_error(grid, params, dt, u, tau) <= 1e-13

    def test_reduced_block_against_eigensolver(self):
        # the eigensolver oracle that A-6 uses, on every mode of a small grid
        grid = TorusGrid(2, 8)
        params = FluidParams(re=2.0, we=0.7, omega=0.3)
        u, tau = _random_state(grid, np.random.default_rng(2))
        dt = 0.4
        got_u, got_tau = LinearPropagator(grid, params, dt).apply(u, tau)
        pairs = SymTensorField.pairs(2)
        for mode in zip(*np.nonzero(grid.mode_mask & (grid.k2 > 0.0))):
            at = (slice(None),) + mode
            tau0 = np.zeros((2, 2), complex)
            for c, (i, j) in enumerate(pairs):
                tau0[i, j] = tau0[j, i] = tau[at][c]
            want_u, want_tau = linear_mode_oracle(grid.k[at], params, u[at], tau0, dt)
            want_tau = np.array([want_tau[i, j] for i, j in pairs])
            np.testing.assert_allclose(got_u[at], want_u, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_tau[at], want_tau, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_stored_parts_drop_only_zeros(self, d, n):
        coeffs = block_coefficients(TorusGrid(d, n), SKEWED, 0.05)
        # e_uu, g_z, decay real; e_uz, g_u imaginary
        assert np.all(coeffs[[0, 3, 4]].imag == 0.0)
        assert np.all(coeffs[[1, 2]].real == 0.0)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_apply_matches_complex_coefficient_form(self, d, n):
        grid = TorusGrid(d, n)
        u, tau = _random_state(grid, np.random.default_rng(d + n))
        got_u, got_tau = LinearPropagator(grid, SKEWED, 0.05).apply(u, tau)
        want_u, want_tau = _complex_form_apply(grid, SKEWED, 0.05, u, tau)
        np.testing.assert_array_equal(got_u, want_u)
        np.testing.assert_array_equal(got_tau, want_tau)

    def test_zero_dt_is_identity(self, grid3):
        u, tau = _random_state(grid3, np.random.default_rng(3))
        out_u, out_tau = LinearPropagator(grid3, PARAMS, 0.0).apply(u, tau)
        active = grid3.mode_mask & (grid3.k2 > 0.0)
        np.testing.assert_array_equal(out_u[:, active], u[:, active])
        np.testing.assert_array_equal(out_tau[:, active], tau[:, active])

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_inactive_modes_exactly_zero(self, grid2, dt):
        u, tau = _random_state(grid2, np.random.default_rng(4))
        u[:, ~grid2.mode_mask] = 1.0
        tau[:, ~grid2.mode_mask] = 1.0
        tau[(slice(None),) + (0,) * grid2.d] = 1.0
        inactive = ~grid2.mode_mask | (grid2.k2 == 0.0)
        for out in LinearPropagator(grid2, PARAMS, dt).apply(u, tau):
            assert np.max(np.abs(out[:, inactive])) == 0.0

    def test_batch_matches_single_mode(self, grid2):
        # one mode at a time through apply agrees bitwise with the full batch
        u, tau = _random_state(grid2, np.random.default_rng(6))
        prop = build_propagator(grid2, PARAMS, 0.05)
        batch_u, batch_tau = prop.apply(u, tau)
        for mode in ((1, 0), (-3, 5), (-7, 2)):
            at = (slice(None),) + mode
            one_u, one_tau = np.zeros_like(u), np.zeros_like(tau)
            one_u[at], one_tau[at] = u[at], tau[at]
            single_u, single_tau = prop.apply(one_u, one_tau)
            np.testing.assert_array_equal(single_u[at], batch_u[at])
            np.testing.assert_array_equal(single_tau[at], batch_tau[at])

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_apply_leaves_inputs_and_returns_fresh_arrays(self, d, n):
        grid = TorusGrid(d, n)
        u, tau = _random_state(grid, np.random.default_rng(d * n))
        kept = u.copy(), tau.copy()
        prop = LinearPropagator(grid, SKEWED, 0.05)
        first = prop.apply(u, tau)
        second = prop.apply(u, tau)
        for got, want in zip((u, tau), kept):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        tables = [v for v in vars(prop).values() if isinstance(v, np.ndarray)]
        for a in first:
            for b in second + (u, tau) + tuple(tables):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("d,n", [(2, 128), (3, 32)])
    def test_warm_apply_peak_below_results_and_two_scratches(self, d, n):
        # numpy buffers a broadcasting product of at most 8192 elements (its
        # iterator's buffer size); above that, as here, it buffers nothing
        grid = TorusGrid(d, n)
        u, tau = _random_state(grid, np.random.default_rng(d + 2 * n))
        prop = LinearPropagator(grid, SKEWED, 0.05)
        prop.apply(u, tau)
        component = 16 * np.prod(grid.spec_shape)
        # the results, tk, the stacked scratch and the component scratch,
        # with one component to spare
        bound = (len(u) + len(tau) + 2 * d + 2) * component
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prop.apply(u, tau)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_tables_are_complex_and_apply_keeps_no_scratch(self, d, n):
        grid = TorusGrid(d, n)
        prop = LinearPropagator(grid, SKEWED, 0.05)
        prop.apply(*_random_state(grid, np.random.default_rng(n)))
        tables = {name: v for name, v in vars(prop).items() if isinstance(v, np.ndarray)}
        assert len(tables) == 6
        assert all(v.dtype == np.complex128 for v in tables.values())

    def test_build_propagator_cached(self, grid2):
        a = build_propagator(grid2, PARAMS, 0.03)
        assert build_propagator(TorusGrid(2, 32), PARAMS, 0.03) is a
        assert build_propagator(grid2, PARAMS, 0.06) is not a

    def test_caches_stay_bounded_over_a_sweep(self):
        from oldroydb.littlewood_paley import build_partition

        grid = TorusGrid(2, 8)
        bound = build_propagator.cache_info().maxsize
        for i in range(20):
            build_propagator(grid, PARAMS, 0.01 * (i + 1))
            assert build_propagator.cache_info().currsize <= bound
        assert build_propagator.cache_info().currsize == bound
        hits = build_propagator.cache_info().hits
        last = build_propagator(grid, PARAMS, 0.2)
        assert build_propagator(grid, PARAMS, 0.2) is last
        assert build_propagator.cache_info().hits == hits + 2
        for i in range(20):
            build_partition(TorusGrid(2, 8, period=1.0 + i))
        info = build_partition.cache_info()
        assert info.currsize == info.maxsize
        assert build_partition(grid) is build_partition(TorusGrid(2, 8))


def _shell_generators(grid, params, dt):
    """The real generators of ``block_coefficients`` times dt, one per
    nonzero |k|^2 shell of ``grid``."""
    return _real_generators(grid.shells[0][1:], params) * dt


def _random_stack(count, lo, hi, seed):
    """Random real 3x3 matrices with 1-norms spaced log-evenly in [lo, hi]."""
    a = np.random.default_rng(seed).standard_normal((count, 3, 3))
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    return a * (np.logspace(np.log10(lo), np.log10(hi), count) / norm)[:, None, None]


def _worst_error(got, want):
    """Largest entrywise error of each matrix over its largest exact entry."""
    return float(np.max(np.max(np.abs(got - want), axis=(1, 2))
                        / np.max(np.abs(want), axis=(1, 2))))


def _expm_40_digits(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(),
                                  dtype=float) for m in a])


class TestExpmBatch:
    """``_expm_batch`` matrix by matrix against ``scipy.linalg.expm`` and a
    40-digit evaluation, at 1e-13 of each matrix's largest entry."""

    @pytest.mark.parametrize("dt", [1e-9, 0.05])
    @pytest.mark.parametrize("params", [PARAMS, SKEWED, EQUAL_RATES],
                             ids=["unit", "skewed", "a-equals-b"])
    def test_generators_match_scipy(self, params, dt):
        gen = _shell_generators(TorusGrid(2, 16), params, dt)
        assert _worst_error(_expm_batch(gen), scipy.linalg.expm(gen)) <= 1e-13

    def test_random_stack_matches_scipy(self):
        # norms 1e-8 .. 10: no squaring up to one; beyond that scipy's own
        # error exceeds 1e-13 on these draws (see the high-precision test)
        a = _random_stack(40, 1e-8, 10.0, seed=7)
        assert _worst_error(_expm_batch(a), scipy.linalg.expm(a)) <= 1e-13

    @pytest.mark.parametrize("dt", [1e-9, 0.05, 2.0, 50.0])
    @pytest.mark.parametrize("params", [PARAMS, SKEWED, EQUAL_RATES],
                             ids=["unit", "skewed", "a-equals-b"])
    def test_generators_match_high_precision(self, params, dt):
        gen = _shell_generators(TorusGrid(2, 16), params, dt)
        # at dt = 50 the 1-norms reach about 500 and every entry has decayed
        # by e^-50 or more; any backward-stable evaluation then errs by a
        # few times norm * 1.1e-16 (scipy: up to 8.8e-12 here)
        rtol = 2e-13 if dt == 50.0 else 1e-13
        assert _worst_error(_expm_batch(gen), _expm_40_digits(gen)) <= rtol

    def test_random_stack_matches_high_precision(self):
        # norms 1e-8 .. 1e3: 0 to 8 squarings (scipy: up to 1.6e-11 here)
        a = _random_stack(40, 1e-8, 1e3, seed=7)
        assert _worst_error(_expm_batch(a), _expm_40_digits(a)) <= 1e-13

    def test_zero_matrices_give_identity_exactly(self):
        a = _random_stack(6, 1e-3, 1e2, seed=8)
        a[[0, 3]] = 0.0
        a[5] = -0.0
        ex = _expm_batch(a)
        for i in (0, 3, 5):
            np.testing.assert_array_equal(ex[i], np.eye(3))

    def test_build_uses_no_per_matrix_exponential(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg.expm called")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        build_propagator(TorusGrid(2, 32), SKEWED, 0.0123)


class TestHugeDt:
    def _config(self, dt):
        return SolverConfig(d=2, n=16, dt=dt, t_end=dt,
                            init=InitSpec(amplitude=0.1, band=(1.0, 4.0)))

    def test_overflowing_generator_is_a_config_error(self):
        # dt * (1 - omega)|k|^2/Re overflows at the corner shell
        with pytest.raises(ConfigError, match="dt"):
            simulate(self._config(1e307))

    def test_overflowing_generator_exits_2(self, tmp_path, capsys):
        from oldroydb.cli import main

        doc = self._config(1e307).to_dict()
        doc["output"]["dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[-1])["event"] == "error"

    def test_non_finite_coefficients_are_a_config_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_expm_batch", lambda a: np.full_like(a, np.inf))
        with pytest.raises(ConfigError, match="dt"):
            block_coefficients(TorusGrid(2, 16), PARAMS, 0.05)

    @pytest.mark.parametrize("dt", [1e3, 1e150])
    def test_large_dt_decays_to_finite_zeros(self, dt):
        # every coefficient underflows: exp(-b dt) and exp(-a dt) are 0
        coeffs = block_coefficients(TorusGrid(2, 16), PARAMS, dt)
        assert np.all(coeffs == 0.0)
        result = simulate(self._config(dt))
        assert np.all(result.final.u.coeffs == 0.0)
        assert np.all(result.final.tau.coeffs == 0.0)


class TestRhs:
    def test_zero_velocity_zero_tendencies(self, grid2, rng):
        from oldroydb.fields import VectorField

        tau = random_sym_tensor(grid2, rng)
        nu, ntau = rhs_nonlinear(VectorField.zero(grid2), tau, PARAMS)
        assert np.max(np.abs(nu.coeffs)) == 0.0
        assert np.max(np.abs(ntau.coeffs)) == 0.0

    def test_plane_wave_self_advection_vanishes(self):
        grid = TorusGrid(2, 32)
        coeffs = np.zeros((2,) + grid.spec_shape, complex)
        # transverse plane wave at k = (2, 0): u = (0, cos 2x)
        coeffs[1, 2, 0] = 0.5
        coeffs[1, -2, 0] = 0.5
        from oldroydb.fields import SymTensorField, VectorField

        u = VectorField(grid, coeffs)
        nu, ntau = rhs_nonlinear(u, SymTensorField.zero(grid), PARAMS)
        assert np.max(np.abs(ntau.coeffs)) <= 1e-16
        assert np.max(np.abs(nu.coeffs)) <= 1e-16

    def test_energy_neutral_advection(self, grid2, rng):
        from oldroydb.fields import SymTensorField

        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        nu, _ = rhs_nonlinear(u, SymTensorField.zero(grid2), PARAMS)
        resid = abs(inner_product(nu, u))
        from oldroydb.operators import grad_l2_norm

        assert resid <= 1e-12 * l2_norm(u) ** 2 * grad_l2_norm(u)

    def test_friedrichs_restriction_applied(self, grid2, rng):
        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        tau = random_sym_tensor(grid2, rng, band=(1.0, 8.0))
        nu, ntau = rhs_nonlinear(u, tau, PARAMS, friedrichs_n=3.0)
        outside = grid2.kmag / grid2.k_scale > 3.0
        assert np.max(np.abs(nu.coeffs[:, outside])) == 0.0
        assert np.max(np.abs(ntau.coeffs[:, outside])) == 0.0


def _per_term_rhs(u, tau, params, friedrichs_n):
    """The nonlinear tendencies composed from the per-term operators."""
    nu = leray_project(advect(u, u)) * (-1.0)
    ntau = (advect(u, tau) + g_alpha(tau, u, params.alpha)) * (-1.0)
    zero_idx = (slice(None),) + (0,) * u.grid.d
    nu.coeffs[zero_idx] = 0.0
    ntau.coeffs[zero_idx] = 0.0
    if friedrichs_n is not None:
        mask = friedrichs_mask(u.grid, friedrichs_n)
        nu, ntau = nu.apply_multiplier(mask), ntau.apply_multiplier(mask)
    return nu, ntau


class TestFusedKernel:
    """rhs_nonlinear against -P[advect(u, u)], -(advect(u, tau) + g_alpha)."""

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 1.0])
    @pytest.mark.parametrize("friedrichs", [False, True])
    def test_matches_per_term_composition(self, d, n, alpha, friedrichs):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(100 * d + n)
        u = leray_project(random_vector(grid, rng, band=(1.0, n // 3)))
        tau = random_sym_tensor(grid, rng, band=(1.0, n // 3))
        params = FluidParams(alpha=alpha)
        fr = n / 4 if friedrichs else None
        fused = rhs_nonlinear(u, tau, params, fr)
        oracle = _per_term_rhs(u, tau, params, fr)
        for got, want in zip(fused, oracle):
            scale = np.max(np.abs(want.coeffs))
            assert scale > 0.0
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale
            assert got.hermitian_residual() == 0.0
            assert got.mean_residual() == 0.0


REFERENCE_LEDGER = Path(__file__).parent / "data" / "reference_ledger_seed0_n64.json"
#: Rounding-only kernel changes move E by about 1e-16..1e-13; dropping the
#: D-part of g_alpha moves it by about 6e-8 (seed 0, n=64, 100 steps).
REFERENCE_E_RTOL = 1e-10


class TestReferenceTrajectory:
    def test_ledger_matches_frozen_reference(self):
        ref = json.loads(REFERENCE_LEDGER.read_text(encoding="utf-8"))
        cfg = small_data_config(0, t_end=5.0, n=64)
        assert cfg.to_dict() == ref["config"]
        ledger = simulate(cfg).ledger
        np.testing.assert_array_equal(ledger.column("t"), ref["t"])
        np.testing.assert_allclose(ledger.column("E"), ref["E"],
                                   rtol=REFERENCE_E_RTOL, atol=0.0)


class TestStepping:
    def test_zero_state_stays_zero(self):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=1.0, params=PARAMS,
                           init=InitSpec(kind="zero"))
        sim = Simulation(cfg)
        for _ in range(5):
            sim.advance()
        assert np.max(np.abs(sim.state.u.coeffs)) == 0.0
        assert np.max(np.abs(sim.state.tau.coeffs)) == 0.0

    def test_invariants_hold_along_trajectory(self):
        cfg = SolverConfig(d=2, n=32, dt=0.02, t_end=0.4, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 6.0), seed=11))
        sim = Simulation(cfg)
        for _ in range(20):
            st = sim.advance()
            assert st.u.divergence_residual() <= 1e-10
            assert st.u.hermitian_residual() <= 1e-12
            assert st.tau.hermitian_residual() <= 1e-12
            assert st.u.mean_residual() == 0.0

    def test_linear_energy_never_increases(self):
        params = FluidParams(re=3.0, we=2.0, omega=0.7, alpha=0.2)
        cfg = SolverConfig(d=2, n=32, dt=0.25, t_end=5.0, params=params,
                           init=InitSpec(amplitude=2.0, band=(1.0, 10.0), seed=3),
                           nonlinear=False)
        sim = Simulation(cfg)
        energy = lambda st: (params.omega * params.re * l2_norm(st.u) ** 2
                             + 0.5 * params.we * l2_norm(st.tau) ** 2)
        prev = energy(sim.state)
        for _ in range(20):
            cur = energy(sim.advance())
            assert cur <= prev * (1.0 + 1e-13)
            prev = cur

    def test_divergence_error_carries_position(self):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=1.0, params=PARAMS,
                           init=InitSpec(kind="zero"))
        sim = Simulation(cfg)
        sim.advance()
        sim.state.u.coeffs[0, 1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                sim.advance()
        assert err.value.step_index == 2
        assert err.value.field == "nu"

    def test_divergence_error_names_the_field(self):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.1, band=(1.0, 4.0), seed=2))
        sim = Simulation(cfg)
        sim.advance()
        sim.state.tau.coeffs[1, 2, 1] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                sim.advance()
        # the velocity tendency never reads tau: the stress tendency goes first
        assert err.value.field == "ntau"
        assert "ntau" in str(err.value)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_steps_leave_earlier_states_unchanged(self, d, n, nonlinear):
        cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=5),
                           nonlinear=nonlinear)
        given = make_initial_state(cfg)
        sim = Simulation(cfg, given)
        returned = sim.advance()
        kept = [(st, st.u.coeffs.copy(), st.tau.coeffs.copy()) for st in (given, returned)]
        for _ in range(3):
            sim.advance()
        for st, u, tau in kept:
            np.testing.assert_array_equal(st.u.coeffs, u)
            np.testing.assert_array_equal(st.tau.coeffs, tau)

    def test_warm_step_peak_below_five_stacked_states(self):
        cfg = SolverConfig(d=3, n=16, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=1))
        sim = Simulation(cfg)
        for _ in range(3):
            sim.advance()
        grid = sim.grid
        stacked = (grid.d + len(SymTensorField.pairs(grid.d))) * 16 * np.prod(grid.spec_shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim.advance()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5 * stacked

    def test_reality_preserved_along_trajectory(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=0.25, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 6.0), seed=13))
        sim = Simulation(cfg)
        for _ in range(5):
            st = sim.advance()
            for field in (st.u, st.tau):
                raw = np.fft.ifftn(_full_spectrum(field), axes=(1, 2)) * cfg.n**2
                scale = np.max(np.abs(raw.real))
                assert np.max(np.abs(raw.imag)) <= 1e-12 * scale


def _full_spectrum(field):
    """The full (n, ..., n) coefficient array a half-spectrum field stands for:
    the stored k_last >= 0 modes, and c(-k) = conj(c(k)) for k_last < 0."""
    grid = field.grid
    n, d = grid.n, grid.d
    full = np.zeros((field.ncomp,) + grid.shape, complex)
    full[..., :n // 2 + 1] = field.coeffs
    mirror = np.conj(field.coeffs[..., 1:n // 2][..., ::-1])
    neg = (n - np.arange(n)) % n
    for ax in range(1, d):
        mirror = np.take(mirror, neg, axis=ax)
    full[..., n // 2 + 1:] = mirror
    return full


@pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
def test_step_takes_no_complex_full_grid_transform(monkeypatch, d, n):
    import numpy.fft
    import scipy.fft

    cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=0.1, params=PARAMS,
                       init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=1))
    sim = Simulation(cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("complex full-grid transform on the step path")

    for mod in (scipy.fft, numpy.fft):
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(mod, name, forbidden)
    sim.advance()
    sim.advance()
    assert sim.state.step_index == 2


class TestGivenState:
    def test_state_on_another_grid_is_a_grid_error(self):
        cfg = small_data_config(0, t_end=0.5, n=32)
        state = make_initial_state(replace(cfg, n=16))
        with pytest.raises(GridError, match=r"\(2,32,.*\) vs \(2,16,"):
            Simulation(cfg, state)

    def test_stress_on_another_grid_is_a_grid_error(self):
        cfg = small_data_config(0, t_end=0.5, n=32)
        state = make_initial_state(cfg)
        other = make_initial_state(replace(cfg, n=16))
        with pytest.raises(GridError):
            Simulation(cfg, SolverState(0.0, state.u, other.tau, cfg.params))

    def test_state_with_other_params_is_a_config_error(self):
        cfg = small_data_config(0, t_end=0.5, n=32)
        state = make_initial_state(cfg)
        other = SolverState(0.0, state.u, state.tau, FluidParams(re=5.0))
        with pytest.raises(ConfigError, match="re=5.0"):
            Simulation(cfg, other)


class TestSimulate:
    def test_zero_horizon_single_row(self):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=0.0, params=PARAMS,
                           init=InitSpec(amplitude=0.1, seed=1, band=(1.0, 5.0)))
        res = simulate(cfg)
        assert len(res.ledger.rows) == 1
        assert res.ledger.rows[0]["t"] == 0.0

    def test_bitwise_deterministic(self):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=0.5, params=PARAMS,
                           init=InitSpec(amplitude=0.2, band=(1.0, 6.0), seed=4),
                           output_stride=2)
        r1 = simulate(cfg)
        r2 = simulate(cfg)
        assert r1.ledger.to_csv() == r2.ledger.to_csv()
        np.testing.assert_array_equal(r1.final.u.coeffs, r2.final.u.coeffs)
        np.testing.assert_array_equal(r1.final.tau.coeffs, r2.final.tau.coeffs)

    def test_initial_amplitude_prescription(self):
        from oldroydb.littlewood_paley import hybrid_norm

        cfg = SolverConfig(d=2, n=32, dt=0.1, t_end=1.0, params=PARAMS, s=-0.25,
                           init=InitSpec(amplitude=0.07, band=(1.0, 6.0), seed=8))
        state = make_initial_state(cfg)
        total = hybrid_norm(state.u, -0.25)[0] + hybrid_norm(state.tau, -0.25)[0]
        assert total == pytest.approx(0.07, rel=1e-12)
