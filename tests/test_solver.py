import copy
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oldroydb import monitor, solver
from oldroydb.fields import (
    SymTensorField,
    VectorField,
    random_scalar,
    random_sym_tensor,
    random_vector,
)
from oldroydb.grid import GridError, TorusGrid, leray_tables
from oldroydb.littlewood_paley import build_partition, hybrid_norm
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
    default_s,
    friedrichs_mask,
    friedrichs_truncate,
    make_initial_state,
    random_band,
    rhs_nonlinear,
    simulate,
)
from oldroydb.verification import linear_mode_oracle, small_data_config
from spectral_checks import hermitian_residual, mean_residual

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
        {"init": {"seed": -1}}, {"s": 0.0}, {"d": 3, "s": -1.5},
        # float keys take JSON numbers only
        {"dt": "0.05"}, {"re": " 2 "}, {"init": {"amplitude": True}},
        {"init": {"band": ["1", "4"]}},
        # 1e300 steps: above 2**53 every step count looks whole
        {"dt": 1e-300, "t_end": 1.0},
    ])
    def test_from_dict_rejects(self, doc):
        with pytest.raises(ConfigError):
            SolverConfig.from_dict(doc)

    @pytest.mark.parametrize("period", [1e300, 1e-300])
    def test_extreme_period_is_a_config_error(self, recwarn, period):
        with pytest.raises(ConfigError, match="period"):
            SolverConfig.from_dict({"n": 8, "t_end": 0.1, "period": period})
        with pytest.raises(ConfigError, match="period"):
            SolverConfig(d=3, n=8, period=period)
        assert not recwarn.list

    def test_from_dict_defaults_are_the_dataclass_defaults(self):
        assert SolverConfig.from_dict({}) == SolverConfig()
        assert SolverConfig.from_dict({"init": {}, "output": {}}) == SolverConfig()

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
        radius = grid2.dealias_radius
        m = grid2.to_band(friedrichs_mask(grid2, 6.0), radius)
        x = grid2.to_band(np.concatenate((u.coeffs, tau.coeffs)), radius)
        np.testing.assert_array_equal(prop.apply(x * m), prop.apply(x) * m)


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


def _band_index(grid):
    """Index of the 2/3-rule box in the half spectrum, for a compact band:
    rows 0..M and -M..-1 on each leading axis, columns 0..M."""
    m, n = grid.dealias_radius, grid.n
    rows = np.r_[0:m + 1, n - m:n]
    return np.ix_(*([rows] * (grid.d - 1) + [np.arange(m + 1)]))


def _embedded(grid, band):
    """A band result of ``rhs_nonlinear`` embedded in the half spectrum."""
    full = np.zeros(band.shape[:1] + grid.spec_shape, complex)
    full[(slice(None),) + _band_index(grid)] = band
    return full


def _band_k(grid):
    """The wavevectors and |k|^2 on the 2/3-rule band, the propagator's
    layout."""
    radius = grid.dealias_radius
    return grid.to_band(grid.k, radius), grid.to_band(grid.k2, radius)


def _shells(k2):
    """The shell table of the squared wavenumbers ``k2`` that
    ``block_coefficients`` takes: the distinct values and each mode's
    index."""
    values, index = np.unique(k2, return_inverse=True)
    return values, index.reshape(k2.shape)


def _random_spectrum(grid, rng):
    """Complex Gaussian coefficients at every mode of the half spectrum,
    stacked: divergence-free u and arbitrary tau (not Hermitian; the
    propagator acts mode by mode)."""
    def draw(ncomp):
        shape = (ncomp,) + grid.spec_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    u = leray_project(VectorField(grid, draw(grid.d))).coeffs
    return np.concatenate((u, draw(len(SymTensorField.pairs(grid.d)))))


def _random_state(grid, rng):
    """``_random_spectrum`` on the 2/3-rule band, the layout ``apply``
    advances."""
    return grid.to_band(_random_spectrum(grid, rng), grid.dealias_radius)


def _max_oracle_error(grid, params, dt, stacked):
    """Worst per-mode error of ``apply`` against expm(mode_matrix * dt) on
    a band state, relative to the larger of the mode's input and output."""
    got = build_propagator(grid, params, dt).apply(stacked)
    k, k2 = _band_k(grid)
    active = np.nonzero(k2 > 0.0)
    gens = np.stack([mode_matrix(k[(slice(None),) + mode], params)
                     for mode in zip(*active)])
    vec = stacked[(slice(None),) + active].T
    want = np.einsum("kij,kj->ki", scipy.linalg.expm(gens * dt), vec)
    err = np.max(np.abs(got[(slice(None),) + active].T - want), axis=1)
    scale = np.maximum(np.max(np.abs(want), axis=1), np.max(np.abs(vec), axis=1))
    return float(np.max(err / scale))


def _complex_form_apply(grid, params, dt, x):
    """``LinearPropagator.apply`` with the five coefficients kept complex."""
    u, tau = x[:grid.d], x[grid.d:]
    k, k2 = _band_k(grid)
    e_uu, e_uz, g_u, g_z, decay = block_coefficients(_shells(k2), params, dt)
    khat = np.divide(k, np.sqrt(k2), out=np.zeros_like(k), where=k2 > 0.0)
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
    return np.concatenate((u_new, tau_new))


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
        x = _random_state(grid, np.random.default_rng(10 * d + n))
        assert _max_oracle_error(grid, params, dt, x) <= 1e-13

    @pytest.mark.parametrize("params", [EQUAL_RATES, DOUBLE_ROOT],
                             ids=["a-equals-b", "double-root"])
    def test_degenerate_block(self, params):
        grid = TorusGrid(2, 16)
        # the degenerate shell, |k|^2 = 1, is a shell of the band
        k2 = _band_k(grid)[1]
        assert np.min(k2[k2 > 0.0]) == 1.0
        a = (1.0 - params.omega) * 1.0 / params.re
        b = 1.0 / params.we
        disc = (a - b) ** 2 - 4.0 * params.omega / (params.re * params.we)
        assert a == b if params is EQUAL_RATES else abs(disc) <= 1e-15
        x = _random_state(grid, np.random.default_rng(5))
        for dt in (0.05, 0.25, 2.0):
            assert _max_oracle_error(grid, params, dt, x) <= 1e-13

    def test_reduced_block_against_eigensolver(self):
        # the eigensolver oracle that A-6 uses, on every mode of a small grid
        grid = TorusGrid(2, 8)
        params = FluidParams(re=2.0, we=0.7, omega=0.3)
        k, k2 = _band_k(grid)
        # the double roots of the (u, zeta) block, at |k|^2 = 1.44 and 6.73,
        # lie inside the band: its shells 1 and 8 have real eigenvalues,
        # 2, 4 and 5 complex ones
        a = (1.0 - params.omega) * np.unique(k2)[1:] / params.re
        disc = (a - 1.0 / params.we) ** 2 - 4.0 * params.omega / (params.re * params.we)
        assert np.all(disc[[0, -1]] > 0.0) and np.all(disc[1:-1] < 0.0)
        x = _random_state(grid, np.random.default_rng(2))
        u, tau = x[:2], x[2:]
        dt = 0.4
        got = LinearPropagator(grid, params, dt).apply(x)
        got_u, got_tau = got[:2], got[2:]
        pairs = SymTensorField.pairs(2)
        for mode in zip(*np.nonzero(k2 > 0.0)):
            at = (slice(None),) + mode
            tau0 = np.zeros((2, 2), complex)
            for c, (i, j) in enumerate(pairs):
                tau0[i, j] = tau0[j, i] = tau[at][c]
            want_u, want_tau = linear_mode_oracle(k[at], params, u[at], tau0, dt)
            want_tau = np.array([want_tau[i, j] for i, j in pairs])
            np.testing.assert_allclose(got_u[at], want_u, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_tau[at], want_tau, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_stored_parts_drop_only_zeros(self, d, n):
        coeffs = block_coefficients(_shells(_band_k(TorusGrid(d, n))[1]), SKEWED, 0.05)
        # e_uu, g_z, decay real; e_uz, g_u imaginary
        assert np.all(coeffs[[0, 3, 4]].imag == 0.0)
        assert np.all(coeffs[[1, 2]].real == 0.0)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_apply_matches_complex_coefficient_form(self, d, n):
        grid = TorusGrid(d, n)
        x = _random_state(grid, np.random.default_rng(d + n))
        np.testing.assert_array_equal(LinearPropagator(grid, SKEWED, 0.05).apply(x),
                                      _complex_form_apply(grid, SKEWED, 0.05, x))

    def test_zero_dt_is_identity(self, grid3):
        x = _random_state(grid3, np.random.default_rng(3))
        out = LinearPropagator(grid3, PARAMS, 0.0).apply(x)
        active = _band_k(grid3)[1] > 0.0
        np.testing.assert_array_equal(out[:, active], x[:, active])

    @pytest.mark.parametrize("dt", [0.0, 0.1])
    def test_inactive_modes_exactly_zero(self, grid2, dt):
        # the k = 0 mode, the one mode of the band without a propagator
        x = _random_state(grid2, np.random.default_rng(4))
        zero = (slice(None),) + (0,) * grid2.d
        x[zero] = 1.0
        out = LinearPropagator(grid2, PARAMS, dt).apply(x)
        assert np.max(np.abs(out[zero])) == 0.0

    def test_batch_matches_single_mode(self, grid2):
        # one mode at a time through apply agrees bitwise with the full batch
        x = _random_state(grid2, np.random.default_rng(6))
        prop = build_propagator(grid2, PARAMS, 0.05)
        batch = prop.apply(x)
        for mode in ((1, 0), (-3, 5), (-7, 2)):
            at = (slice(None),) + mode
            one = np.zeros_like(x)
            one[at] = x[at]
            np.testing.assert_array_equal(prop.apply(one)[at], batch[at])

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_apply_leaves_inputs_and_returns_fresh_arrays(self, d, n):
        grid = TorusGrid(d, n)
        x = _random_state(grid, np.random.default_rng(d * n))
        kept = x.copy()
        prop = LinearPropagator(grid, SKEWED, 0.05)
        first = prop.apply(x)
        second = prop.apply(x)
        np.testing.assert_array_equal(x.view(np.uint64), kept.view(np.uint64))
        np.testing.assert_array_equal(first.view(np.uint64), second.view(np.uint64))
        tables = [v for v in vars(prop).values() if isinstance(v, np.ndarray)]
        for b in [second, x] + tables:
            assert not np.shares_memory(first, b)

    @pytest.mark.parametrize("d,n", [(2, 128), (3, 32)])
    def test_warm_apply_peak_below_results_and_two_scratches(self, d, n):
        # numpy buffers a broadcasting product of at most 8192 elements (its
        # iterator's buffer size); above that, as here, it buffers nothing
        grid = TorusGrid(d, n)
        x = _random_state(grid, np.random.default_rng(d + 2 * n))
        prop = LinearPropagator(grid, SKEWED, 0.05)
        prop.apply(x)
        component = 16 * np.prod(grid.band_shape(grid.dealias_radius))
        # the result, tk, the velocity-sized scratch and the component
        # scratch, with one component to spare
        bound = (len(x) + 2 * d + 2) * component
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prop.apply(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_apply_in_place_matches_fresh_bitwise(self, d, n):
        grid = TorusGrid(d, n)
        x = _random_state(grid, np.random.default_rng(3 * d + n))
        # signed zeros at some modes: in place or not, they come out the same
        x.real[:, 1::3] = -0.0
        x.imag[:, 2::5] = -0.0
        prop = LinearPropagator(grid, SKEWED, 0.05)
        want = prop.apply(x)
        assert prop.apply(x, out=x) is x
        np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))
        out = np.empty_like(x)
        assert prop.apply(want, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint64), prop.apply(want).view(np.uint64))

    @pytest.mark.parametrize("d,n", [(2, 128), (3, 32)])
    def test_warm_in_place_apply_peak_below_two_scratches(self, d, n):
        grid = TorusGrid(d, n)
        x = _random_state(grid, np.random.default_rng(d + 3 * n))
        prop = LinearPropagator(grid, SKEWED, 0.05)
        prop.apply(x, out=x)
        component = 16 * np.prod(grid.band_shape(grid.dealias_radius))
        # tk, the velocity-sized scratch and the component scratch, with
        # one component to spare
        bound = (2 * d + 2) * component
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prop.apply(x, out=x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_tables_are_complex_and_apply_keeps_no_scratch(self, d, n):
        grid = TorusGrid(d, n)
        prop = LinearPropagator(grid, SKEWED, 0.05)
        prop.apply(_random_state(grid, np.random.default_rng(n)))
        # the five coefficients and khat, on the band only
        assert set(vars(prop)) == {"grid", "_coeffs", "_khat"}
        band = grid.band_shape(grid.dealias_radius)
        assert prop._coeffs.shape == (5,) + band and prop._khat.shape == (d,) + band
        assert all(v.dtype == np.complex128 for v in (prop._coeffs, prop._khat))

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_band_apply_gives_the_bits_of_the_full_one(self, d, n):
        # the same arithmetic on tables built from the half spectrum's own
        # shells, the layout the propagator held before it held the band
        grid = TorusGrid(d, n)
        prop = LinearPropagator(grid, SKEWED, 0.05)
        full = copy.copy(prop)
        full._coeffs = block_coefficients(grid.shells, SKEWED, 0.05)
        np.multiply(1j, full._coeffs[1:3].imag, out=full._coeffs[1:3])
        full._khat = np.zeros(grid.k.shape, complex)
        np.divide(grid.k, grid.kmag, out=full._khat.real, where=grid.k2 > 0.0)
        radius = grid.dealias_radius
        for mine, theirs in ((prop._coeffs, full._coeffs), (prop._khat, full._khat)):
            np.testing.assert_array_equal(mine.view(np.uint64),
                                          grid.to_band(theirs, radius).view(np.uint64))
        x = _random_spectrum(grid, np.random.default_rng(d + n))
        band = grid.to_band(x, radius)
        want = grid.to_band(full.apply(x), radius)
        np.testing.assert_array_equal(prop.apply(band).view(np.uint64),
                                      want.view(np.uint64))
        assert prop.apply(band, out=band) is band
        np.testing.assert_array_equal(band.view(np.uint64), want.view(np.uint64))
        with pytest.raises(ValueError, match="tables hold rows"):
            prop.apply(x)

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
            block_coefficients(TorusGrid(2, 16).shells, PARAMS, 0.05)

    @pytest.mark.parametrize("dt", [1e3, 1e150])
    def test_large_dt_decays_to_finite_zeros(self, dt):
        # every coefficient underflows: exp(-b dt) and exp(-a dt) are 0
        coeffs = block_coefficients(TorusGrid(2, 16).shells, PARAMS, dt)
        assert np.all(coeffs == 0.0)
        result = simulate(self._config(dt))
        assert np.all(result.final.u.coeffs == 0.0)
        assert np.all(result.final.tau.coeffs == 0.0)


class TestRhs:
    def test_zero_velocity_zero_tendencies(self, grid2, rng):
        from oldroydb.fields import VectorField

        tau = random_sym_tensor(grid2, rng)
        assert np.max(np.abs(rhs_nonlinear(VectorField.zero(grid2), tau, PARAMS))) == 0.0

    def test_plane_wave_self_advection_vanishes(self):
        grid = TorusGrid(2, 32)
        coeffs = np.zeros((2,) + grid.spec_shape, complex)
        # transverse plane wave at k = (2, 0): u = (0, cos 2x)
        coeffs[1, 2, 0] = 0.5
        coeffs[1, -2, 0] = 0.5
        from oldroydb.fields import SymTensorField, VectorField

        u = VectorField(grid, coeffs)
        assert np.max(np.abs(rhs_nonlinear(u, SymTensorField.zero(grid), PARAMS))) <= 1e-16

    def test_energy_neutral_advection(self, grid2, rng):
        from oldroydb.fields import SymTensorField

        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        nu = VectorField(grid2, _embedded(
            grid2, rhs_nonlinear(u, SymTensorField.zero(grid2), PARAMS)[:2]))
        resid = abs(inner_product(nu, u))
        from oldroydb.operators import grad_l2_norm

        assert resid <= 1e-12 * l2_norm(u) ** 2 * grad_l2_norm(u)

    def test_friedrichs_restriction_applied(self, grid2, rng):
        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        tau = random_sym_tensor(grid2, rng, band=(1.0, 8.0))
        n = _embedded(grid2, rhs_nonlinear(u, tau, PARAMS, friedrichs_n=3.0))
        outside = grid2.kmag / grid2.k_scale > 3.0
        assert np.max(np.abs(n[:, outside])) == 0.0

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_returns_a_fresh_stacked_array(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d + n)
        u = leray_project(random_vector(grid, rng, band=(1.0, n / 3)))
        tau = random_sym_tensor(grid, rng, band=(1.0, n / 3))
        kept = u.coeffs.copy(), tau.coeffs.copy()
        first = rhs_nonlinear(u, tau, PARAMS)
        second = rhs_nonlinear(u, tau, PARAMS)
        m = n // 3
        assert first.shape == ((d + len(SymTensorField.pairs(d)),)
                               + (2 * m + 1,) * (d - 1) + (m + 1,))
        np.testing.assert_array_equal(first.view(np.uint64), second.view(np.uint64))
        for a, b in zip((u.coeffs, tau.coeffs), kept):
            np.testing.assert_array_equal(a, b)
        for b in (second, u.coeffs, tau.coeffs):
            assert not np.shares_memory(first, b)


class TestBandEntry:
    """``rhs_nonlinear`` of fields is ``rhs_band`` of their stacked band."""

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("friedrichs_n", [None, 2.5])
    def test_field_entry_is_the_band_entry_bitwise(self, d, n, friedrichs_n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(5 * d + n)
        u = leray_project(random_vector(grid, rng, band=(1.0, n / 3)))
        tau = random_sym_tensor(grid, rng, band=(1.0, n / 3))
        x = grid.to_band(np.concatenate((u.coeffs, tau.coeffs)), grid.dealias_radius)
        want = solver.rhs_band(grid, x, SKEWED, friedrichs_n)
        got = rhs_nonlinear(u, tau, SKEWED, friedrichs_n)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("field", ["u", "tau"])
    def test_field_entry_refuses_a_mode_outside_the_band(self, field):
        grid = TorusGrid(2, 16)
        rng = np.random.default_rng(3)
        u = leray_project(random_vector(grid, rng, band=(1.0, 4.0)))
        tau = random_sym_tensor(grid, rng, band=(1.0, 4.0))
        # m = (6, 0) lies outside the band |m_i| <= 5
        outside = {"u": u, "tau": tau}[field].coeffs
        outside[(-1, 6, 0)] = 1e-3
        with pytest.raises(ConfigError, match="outside the 2/3-rule band"):
            rhs_nonlinear(u, tau, PARAMS)


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
        x = _embedded(grid, rhs_nonlinear(u, tau, params, fr))
        fused = VectorField(grid, x[:d]), SymTensorField(grid, x[d:])
        oracle = _per_term_rhs(u, tau, params, fr)
        for got, want in zip(fused, oracle):
            scale = np.max(np.abs(want.coeffs))
            assert scale > 0.0
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * scale
            assert hermitian_residual(got) == 0.0
            assert mean_residual(got) == 0.0


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
        # each row's time is its step times dt; the reference summed the
        # steps, so its times differ in the last bits
        steps = np.arange(0, cfg.n_steps + 1, cfg.output_stride)
        np.testing.assert_array_equal(ledger.column("t"), steps * cfg.dt)
        np.testing.assert_allclose(ledger.column("t"), ref["t"], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(ledger.column("E"), ref["E"],
                                   rtol=REFERENCE_E_RTOL, atol=0.0)


class TestExactTime:
    """A state's time is its step count times dt from the given state."""

    def test_eleven_steps_reach_eleven_dt(self):
        cfg = SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0)))
        sim = Simulation(cfg)
        for _ in range(11):
            st = sim.advance()
        # summed step by step, 0.5499999999999999
        assert (st.step_index, st.t) == (11, 11 * 0.05)

    def test_times_count_from_the_given_state(self):
        cfg = SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, params=PARAMS, nonlinear=False,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0)))
        first = make_initial_state(cfg)
        sim = Simulation(cfg, SolverState(0.3, first.grid, first.band, step_index=4))
        assert (sim.state.step_index, sim.state.t) == (4, 0.3)
        for _ in range(11):
            st = sim.advance()
        assert (st.step_index, st.t) == (15, 0.3 + 11 * 0.05)


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
            assert hermitian_residual(st.u) <= 1e-12
            assert hermitian_residual(st.tau) <= 1e-12
            assert mean_residual(st.u) == 0.0

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
        # a non-finite coefficient goes in through a given state: a
        # returned state is read-only
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=1.0, params=PARAMS,
                           init=InitSpec(kind="zero"))
        grid = TorusGrid(2, 16)
        u = VectorField.zero(grid)
        u.coeffs[0, 1, 0] = np.inf
        sim = Simulation(cfg, SolverState.from_fields(0.1, u, SymTensorField.zero(grid),
                                                      step_index=1))
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                sim.advance()
        assert err.value.step_index == 2
        assert err.value.field == "nu"

    def test_divergence_error_names_the_field(self):
        cfg = SolverConfig(d=2, n=16, dt=0.1, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.1, band=(1.0, 4.0), seed=2))
        st = Simulation(cfg).advance()
        tau = SymTensorField(st.tau.grid, st.tau.coeffs.copy())
        tau.coeffs[1, 2, 1] = np.nan
        sim = Simulation(cfg, SolverState.from_fields(st.t, st.u, tau, step_index=1))
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

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_steps_match_the_textbook_combination_bitwise(self, d, n):
        # Euler then AB2 in the integrating-factor frame, written out on
        # fresh arrays on the 2/3 band, where the state lies: s + dt * (1.5
        # n - 0.5 E n_prev), propagated and projected; outside the band
        # every entry of the state is +0.0
        cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=9))
        sim = Simulation(cfg)
        grid = sim.grid
        prop = build_propagator(grid, PARAMS, cfg.dt)

        def project(x):
            u = leray_project(VectorField(grid, _embedded(grid, x[:d]))).coeffs
            return np.concatenate((u[(slice(None),) + _band_index(grid)], x[d:]))

        band = (slice(None),) + _band_index(grid)
        outside = np.ones(grid.spec_shape, bool)
        outside[_band_index(grid)] = False
        x = np.concatenate((sim.state.u.coeffs, sim.state.tau.coeffs))[band]
        prev = None
        for _ in range(3):
            s = _embedded(grid, x)
            nl = rhs_nonlinear(VectorField(grid, s[:d]), SymTensorField(grid, s[d:]), PARAMS)
            mid = x + cfg.dt * (nl if prev is None else 1.5 * nl - 0.5 * prev)
            x, prev = project(prop.apply(mid)), prop.apply(nl)
            st = sim.advance()
            got = np.concatenate((st.u.coeffs, st.tau.coeffs))
            np.testing.assert_array_equal(np.ascontiguousarray(got[band]).view(np.uint64),
                                          x.view(np.uint64))
            assert not np.any(np.ascontiguousarray(got[:, outside]).view(np.uint64))

    def test_state_rows_are_views_of_one_stacked_array(self):
        cfg = SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=5))
        given = make_initial_state(cfg)
        sim = Simulation(cfg, given)
        for st in (sim.state, sim.advance()):
            stacked = st.u.coeffs.base
            assert stacked is st.tau.coeffs.base
            assert stacked.shape == (5,) + sim.grid.spec_shape
        for a in (given.u.coeffs, given.tau.coeffs):
            assert not np.shares_memory(a, sim.state.u.coeffs.base)

    def test_warm_step_peak_below_1_05_stacked_states(self):
        # the step runs on the 2/3 band and the kernel reads the state's
        # band and forms its products in its own sample rows, so the peak
        # is the tendencies and the midpoint (band-sized) and the linear
        # step's scratch: 0.89 stacked states measured at d=3, n=16 (1.35
        # with a half-spectrum kernel input and a products array, 1.64 with
        # the new state written into a fresh half spectrum, 2.44 with a
        # half-spectrum midpoint and linear step, 3.12 with the tendencies
        # on the half spectrum too, 4.13 with fresh linear-step results);
        # the margin is half of one band-sized stacked array (0.16)
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
        assert peak < 1.05 * stacked

    def test_warm_linear_step_allocates_band_arrays_only(self):
        # a linear step propagates the band into a fresh band (9 band
        # components at d=3) through apply's scratch (tk and the
        # velocity-sized one, 3 each, and one component), then checks and
        # projects it in place: 16 band components by design.  The margin is
        # a quarter component of small-object overhead, so one more array
        # the size of a half-spectrum component (3.2 band components at
        # d=3, n=16, or 1.6 for a real one) would exceed the bound
        cfg = SolverConfig(d=3, n=16, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=1),
                           nonlinear=False)
        sim = Simulation(cfg)
        for _ in range(3):
            sim.advance()
        grid = sim.grid
        component = 16 * np.prod(grid.band_shape(grid.dealias_radius))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim.advance()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < (16 + 0.25) * component

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_returned_states_are_read_only(self, nonlinear):
        cfg = SolverConfig(d=2, n=16, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=5),
                           nonlinear=nonlinear)
        sim = Simulation(cfg)
        for st in (sim.state, sim.advance(), sim.advance()):
            assert st.band.shape == (5,) + sim.grid.band_shape(sim.grid.dealias_radius)
            # the fields are formed once and kept
            assert st.u is st.u and st.tau is st.tau
            for a in (st.band, st.u.coeffs, st.tau.coeffs):
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1.0
        # the trajectory went on from the bands as they were
        assert sim.state.step_index == 2

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
    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_state_outside_the_band_is_a_config_error(self, d, n):
        # the 2/3 rule dealiases the products of band states only, so fields
        # with a mode outside the band are refused
        cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=1.0, params=PARAMS)
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n)
        u = leray_project(VectorField.from_physical(
            grid, 0.1 * rng.standard_normal((d,) + grid.shape)))
        tau = SymTensorField.from_physical(
            grid, 0.1 * rng.standard_normal((len(SymTensorField.pairs(d)),) + grid.shape))
        with pytest.raises(ConfigError, match="2/3-rule band"):
            SolverState.from_fields(0.0, u, tau)
        # one tiny coefficient just outside the band, in u or in tau, of
        # copies of a drawn state's fields (a state's fields are read-only)
        state = make_initial_state(cfg)
        m = grid.dealias_radius + 1
        for row, at in ((0, (0, m) + (0,) * (d - 1)), (1, (1,) + (0,) * (d - 1) + (m,))):
            fields = [state.u.copy(), state.tau.copy()]
            fields[row].coeffs[at] = 1e-300
            with pytest.raises(ConfigError, match="2/3-rule band"):
                SolverState.from_fields(0.0, *fields)
        back = SolverState.from_fields(0.0, state.u.copy(), state.tau.copy())
        np.testing.assert_array_equal(back.band.view(np.uint64), state.band.view(np.uint64))

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("friedrichs_n", [None, 2.5])
    def test_every_drawn_state_is_accepted(self, d, n, friedrichs_n):
        for seed, band in ((0, (1.0, 8.0)), (3, (0.0, float(n))), (7, (2.0, 3.0))):
            cfg = SolverConfig(d=d, n=n, dt=0.05, t_end=1.0, params=PARAMS,
                               friedrichs_n=friedrichs_n,
                               init=InitSpec(amplitude=0.5, band=band, seed=seed))
            given = make_initial_state(cfg)
            assert np.any(given.u.coeffs != 0.0)
            sim = Simulation(cfg, SolverState.from_fields(0.0, given.u, given.tau))
            np.testing.assert_array_equal(sim.state.u.coeffs, given.u.coeffs)
            np.testing.assert_array_equal(sim.state.tau.coeffs, given.tau.coeffs)

    def test_state_on_another_grid_is_a_grid_error(self):
        cfg = small_data_config(0, t_end=0.5, n=32)
        state = make_initial_state(replace(cfg, n=16))
        with pytest.raises(GridError, match=r"\(2,32,.*\) vs \(2,16,"):
            Simulation(cfg, state)

    def test_band_state_is_taken_as_it_is(self, monkeypatch):
        # a given state is held as it is: no field is formed and no band
        # gathered
        cfg = small_data_config(0, t_end=0.5, n=32)
        first = Simulation(cfg).advance()
        calls = []
        for name in ("from_band", "to_band"):
            method = getattr(TorusGrid, name)
            monkeypatch.setattr(TorusGrid, name,
                                lambda self, *a, _m=method, _n=name, **k:
                                calls.append(_n) or _m(self, *a, **k))
        sim = Simulation(cfg, first)
        assert calls == []
        assert sim.state is first
        assert (sim.state.t, sim.state.step_index) == (first.t, 1)
        monkeypatch.undo()
        # the same step as from the gathered fields of that state
        fields = Simulation(cfg, SolverState.from_fields(first.t, first.u, first.tau,
                                                         step_index=1))
        np.testing.assert_array_equal(sim.advance().band.view(np.uint64),
                                      fields.advance().band.view(np.uint64))

    def test_band_state_on_another_grid_is_a_grid_error(self):
        # a band of another grid's shape is no state of this grid
        grid = TorusGrid(2, 32)
        band = make_initial_state(small_data_config(0, t_end=0.5, n=16)).band
        with pytest.raises(GridError, match="band"):
            SolverState(0.0, grid, band)
        with pytest.raises(GridError, match="band"):
            SolverState(0.0, grid, np.zeros((4,) + grid.band_shape(grid.dealias_radius),
                                             np.complex128))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_band_of_another_dtype_is_a_grid_error(self, dtype):
        # a real band would fail in the first step's kernel, and a complex64
        # one would round every later state to single precision
        band = make_initial_state(small_data_config(0, t_end=0.5, n=16)).band
        with pytest.raises(GridError, match="complex128"):
            SolverState(0.0, TorusGrid(2, 16), band.real.astype(dtype))

    def test_stress_on_another_grid_is_a_grid_error(self):
        cfg = small_data_config(0, t_end=0.5, n=32)
        state = make_initial_state(cfg)
        other = make_initial_state(replace(cfg, n=16))
        with pytest.raises(GridError):
            SolverState.from_fields(0.0, state.u, other.tau)


class TestSimulate:
    def test_nonlinear_run_builds_no_half_spectrum_tables(self, monkeypatch):
        # a run reads only tables of the 2/3 band, built on it or from the
        # axes' wavenumbers: the grid's, the partition's, the propagator's,
        # the Leray tables, the Friedrichs cutoff and the kernel's
        # derivative tables.  No half-spectrum table is formed, and a twin
        # experiment steps both pairs on the one grid of its initial state
        grids = []
        init = TorusGrid.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            grids.append(self)

        monkeypatch.setattr(TorusGrid, "__init__", recording)
        half = {"k_int", "k", "k2", "kmag", "mode_mask", "dealias_mask", "multiplicity",
                "shells"}
        for d, nonlinear, friedrichs_n in [(2, True, None), (2, False, 4.0), (3, True, 2.5),
                                           (3, False, None)]:
            cfg = replace(small_data_config(0, t_end=0.2, n=16), d=d, s=None,
                          nonlinear=nonlinear, friedrichs_n=friedrichs_n)
            for run in (simulate, lambda cfg: monitor.stability_experiment(cfg, 1e-3)):
                leray_tables.cache_clear()
                build_partition.cache_clear()
                grids.clear()
                run(cfg)
                assert len(grids) == 1
                assert not half & set(vars(grids[0]))
                assert not {"phi_shell", "_phi_sq"} & set(vars(build_partition(grids[0])))
                assert leray_tables.cache_info().currsize == 0

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

    def test_observer_that_reads_no_field_forms_no_half_spectrum(self, monkeypatch):
        calls = []
        from_band = TorusGrid.from_band

        def counted(self, *args, **kwargs):
            calls.append(1)
            return from_band(self, *args, **kwargs)

        monkeypatch.setattr(TorusGrid, "from_band", counted)
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=1.0, params=PARAMS,
                           init=InitSpec(amplitude=0.5, band=(1.0, 6.0), seed=4),
                           nonlinear=False)
        steps = []
        res = simulate(cfg, lambda st: steps.append(st.step_index))
        assert steps == list(range(21)) and len(res.ledger.rows) == 21
        assert calls == []
        # a state forms its half spectrum on the first read, once
        res.final.u
        res.final.tau
        assert len(calls) == 1

    def test_random_band_is_the_initial_state(self):
        cfg = SolverConfig(d=2, n=32, dt=0.1, t_end=1.0, params=PARAMS, s=-0.25,
                           friedrichs_n=5.0,
                           init=InitSpec(amplitude=0.07, band=(1.0, 6.0), seed=8))
        state = make_initial_state(cfg)
        x = random_band(TorusGrid(2, 32), 8, (1.0, 6.0), -0.25, 0.07, 5.0)
        np.testing.assert_array_equal(x.view(np.uint64), state.band.view(np.uint64))
        outside = TorusGrid(2, 32).kmag > 5.0
        assert np.max(np.abs(state.u.coeffs[:, outside])) == 0.0

    def test_random_band_in_an_empty_band_is_zero(self):
        x = random_band(TorusGrid(2, 16), 0, (20.0, 30.0), -0.25, 1.0)
        assert np.max(np.abs(x)) == 0.0

    def test_initial_amplitude_prescription(self):
        from oldroydb.littlewood_paley import build_partition, hybrid_norm

        cfg = SolverConfig(d=2, n=32, dt=0.1, t_end=1.0, params=PARAMS, s=-0.25,
                           init=InitSpec(amplitude=0.07, band=(1.0, 6.0), seed=8))
        state = make_initial_state(cfg)
        total = hybrid_norm(state.u, -0.25)[0] + hybrid_norm(state.tau, -0.25)[0]
        assert total == pytest.approx(0.07, rel=1e-12)


def _field_recipe(grid, seed, band, s, size, friedrichs_n=None):
    """The initial-data recipe on the half spectrum, the oracle of the band
    draw: Gaussian samples of every component at once, ``from_physical``
    near the usable radius, mean pinned, band mask, Leray projection,
    Friedrichs cut, then scaled to a combined hybrid norm of ``size``."""
    rng = np.random.default_rng(seed)
    u = leray_project(random_vector(grid, rng, band=band))
    tau = random_sym_tensor(grid, rng, band=band)
    if friedrichs_n is not None:
        u, tau = (friedrichs_truncate(f, friedrichs_n) for f in (u, tau))
    norm = hybrid_norm(u, s)[0] + hybrid_norm(tau, s)[0]
    scale = size / norm if norm > 0 else 0.0
    return u * scale, tau * scale


#: largest move of a band draw from the band of the half-spectrum recipe,
#: in units of eps times its largest coefficient: the scaling's hybrid norm
#: sums in the band's order (2.13 measured, over the cases below and
#: d=2, n=128 and d=3, n=32)
DRAW_ROUNDING = 3.0


class TestBandDraw:
    """The initial data is drawn on the 2/3 band: the band of the
    half-spectrum recipe (``_field_recipe``), to the rounding of the
    scaling's norm."""

    @pytest.mark.parametrize("d,n", [(2, 16), (2, 32), (2, 64), (3, 8), (3, 16)])
    @pytest.mark.parametrize("friedrichs_n", [None, 2.5])
    def test_band_draw_is_the_field_recipe_bytewise(self, d, n, friedrichs_n):
        # bytewise while the norm summed in the half-spectrum order; now to
        # DRAW_ROUNDING, the zero pattern still exact
        grid = TorusGrid(d, n)
        radius = grid.dealias_radius
        s = default_s(d)
        eps = np.finfo(np.float64).eps
        # an empty band, and at n = 16 a band past the 2/3 radius
        bands = [(1.0, 8.0), (2.0, 3.0), (20.0, 30.0)] + ([(0.0, 16.0)] if n == 16 else [])
        for seed in (0, 5, 11):
            for band in bands:
                u, tau = _field_recipe(grid, seed, band, s, 0.3, friedrichs_n)
                want = np.concatenate((grid.to_band(u.coeffs, radius),
                                       grid.to_band(tau.coeffs, radius)))
                got = random_band(grid, seed, band, s, 0.3, friedrichs_n)
                assert np.max(np.abs(got - want)) <= DRAW_ROUNDING * eps * np.max(np.abs(want))
                # one scale factor apart: every zero part is where the recipe's is
                np.testing.assert_array_equal(got.view(np.float64) == 0.0,
                                              want.view(np.float64) == 0.0)
                # the recipe's modes outside the band are zero
                assert np.count_nonzero(u.coeffs) + np.count_nonzero(tau.coeffs) \
                    == np.count_nonzero(want)

    def test_initial_state_is_the_read_only_band_draw(self):
        cfg = SolverConfig(d=3, n=16, dt=0.05, t_end=1.0, params=PARAMS, friedrichs_n=2.5,
                           init=InitSpec(amplitude=0.5, band=(1.0, 4.0), seed=3))
        grid = TorusGrid(3, 16)
        state = make_initial_state(cfg, grid)
        assert (state.t, state.step_index, state.grid) == (0.0, 0, grid)
        np.testing.assert_array_equal(state.band.view(np.uint64),
                                      Simulation(cfg).state.band.view(np.uint64))
        x = random_band(grid, 3, (1.0, 4.0), 0.0, 0.5, 2.5)
        np.testing.assert_array_equal(state.band.view(np.uint64), x.view(np.uint64))
        for a in (state.band, state.u.coeffs, state.tau.coeffs):
            assert not a.flags.writeable
        # its fields are the band's, zero outside it
        got = np.concatenate([grid.to_band(f.coeffs, grid.dealias_radius)
                              for f in (state.u, state.tau)])
        np.testing.assert_array_equal(got.view(np.uint64), x.view(np.uint64))
        zero = make_initial_state(replace(cfg, init=InitSpec(kind="zero")), grid).band
        assert zero.shape == x.shape and not np.any(zero.view(np.uint64))

    def test_run_starts_from_the_drawn_band(self, monkeypatch):
        cfg = SolverConfig(d=2, n=32, dt=0.05, t_end=1.0, params=PARAMS, friedrichs_n=5.0,
                           init=InitSpec(amplitude=0.07, band=(1.0, 6.0), seed=8))
        calls = []
        from_band = TorusGrid.from_band
        monkeypatch.setattr(TorusGrid, "from_band",
                            lambda self, *a, **k: calls.append(1) or from_band(self, *a, **k))
        sim = Simulation(cfg)
        # no field is formed on the way to the first state
        assert calls == []
        monkeypatch.undo()
        want = random_band(sim.grid, 8, (1.0, 6.0), -0.25, 0.07, 5.0)
        np.testing.assert_array_equal(sim.state.band.view(np.uint64), want.view(np.uint64))
        assert (sim.state.t, sim.state.step_index) == (0.0, 0)

    def test_warm_draw_peak_is_one_band_one_sample_and_one_spectrum(self):
        # the draw holds the stacked band, one physical component of
        # samples and the forward transform's half-spectrum scratch; the
        # masks, the projection and the norms run after the two are
        # dropped.  The margin is a quarter half-spectrum component: the
        # half-spectrum draw held 9 physical and 9 half-spectrum components
        grid = TorusGrid(3, 16)
        draw = lambda: random_band(grid, 4, (1.0, 8.0), 0.0, 0.5, 2.5)
        draw()
        band = 16 * 9 * np.prod(grid.band_shape(grid.dealias_radius))
        sample = 8 * np.prod(grid.shape)
        spectrum = 16 * np.prod(grid.spec_shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            draw()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= band + sample + 1.25 * spectrum
