import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from oldroydb.fields import (
    ScalarField,
    SymTensorField,
    VectorField,
    random_scalar,
    random_sym_tensor,
    random_vector,
)
from oldroydb import monitor, operators
from oldroydb.grid import TorusGrid, _leray_sets, derivative_tables, leray_tables
from oldroydb.operators import (
    _cancellation_sums,
    _samples_and_gradients,
    advect,
    cancellation_residual,
    deformation,
    div_tensor,
    g_alpha,
    g_alpha_pointwise,
    grad_l2_norm,
    gradient,
    inner_product,
    kernel_scratch,
    l2_norm,
    leray_project,
    lp_norm,
    mode_sq,
    multiply,
    quadratic_terms,
    vorticity,
)
from oldroydb.solver import Simulation, simulate
from oldroydb.verification import small_data_config
from spectral_checks import coords


def _single_mode_vector(grid, kvec, amplitudes):
    """Vector field with coefficients `amplitudes` at kvec and the conjugate
    at -kvec (a real plane wave), each stored if on the half spectrum."""
    coeffs = np.zeros((grid.d,) + grid.spec_shape, complex)
    for sign in (1, -1):
        k = tuple(sign * x for x in kvec)
        if k[-1] >= 0:
            for c, a in enumerate(amplitudes):
                coeffs[(c,) + tuple(x % grid.n for x in k)] = a if sign > 0 else np.conj(a)
    return VectorField(grid, coeffs)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid2, rng):
        phi = random_scalar(grid2, rng)
        g = gradient(phi)
        out = leray_project(g)
        assert np.max(np.abs(out.coeffs)) <= 1e-14 * np.max(np.abs(g.coeffs))

    def test_identity_on_divergence_free(self, grid2, rng):
        u = leray_project(random_vector(grid2, rng))
        again = leray_project(u)
        scale = np.max(np.abs(u.coeffs))
        assert np.max(np.abs(again.coeffs - u.coeffs)) <= 1e-14 * scale

    def test_explicit_two_dim_mode(self):
        grid = TorusGrid(2, 16)
        f = _single_mode_vector(grid, (1, 0), (1.0, 1.0))
        out = leray_project(f)
        # projector at k=(1,0) keeps only the y component
        np.testing.assert_allclose(out.coeffs[0, 1, 0], 0.0, atol=1e-15)
        np.testing.assert_allclose(out.coeffs[1, 1, 0], 1.0, atol=1e-15)

    def test_output_is_divergence_free(self, grid3, rng):
        u = leray_project(random_vector(grid3, rng, band=(1.0, 6.0)))
        assert u.divergence_residual() <= 1e-10


def _leray_float_tables(v):
    """``leray_project`` on the real tables ``grid.half.k`` and ``grid.half.k2``, which
    numpy casts to complex in every product and in the quotient."""
    grid = v.grid
    k2 = np.where(grid.half.k2 == 0.0, 1.0, grid.half.k2)
    kdotv = np.sum(grid.half.k * v.coeffs, axis=0)
    out = v.coeffs - grid.half.k * (kdotv / k2)
    out[(slice(None),) + (0,) * grid.d] = 0.0
    return out


def _divergence_residual_float_tables(v):
    scale = float(np.max(np.abs(v.coeffs)))
    if scale == 0.0:
        return 0.0
    div = np.sum(v.grid.half.k * v.coeffs, axis=0)
    return float(np.max(np.abs(div)) / scale)


def _cancellation_sums_float_tables(u, tau):
    """The row contractions on the real table ``k m`` (cast by numpy), each
    ``Im(conj(a) b)`` summed as the dot of ``a``'s float64 view with
    ``(Im b, -Re b)``: the pairs that the pure-imaginary table forms."""
    grid = u.grid
    k, uc, tc = grid.half.k * grid.half.multiplicity, u.coeffs, tau.coeffs

    def im_dot(a, b):
        swapped = np.stack((b.imag, -b.real), axis=-1).ravel()
        return float(np.einsum("m,m->", a.view(np.float64).ravel(), swapped))

    div_tau_u = def_u_tau = 0.0
    for i in range(grid.d):
        tk = k[0] * tc[tau.component_index(i, 0)]
        for j in range(1, grid.d):
            tk = tk + k[j] * tc[tau.component_index(i, j)]
        div_tau_u -= im_dot(uc[i], tk)
    for c, (i, j) in enumerate(SymTensorField.pairs(grid.d)):
        sym_k_u = k[j] * uc[i]
        if i != j:
            sym_k_u = sym_k_u + k[i] * uc[j]
        def_u_tau -= im_dot(tc[c], sym_k_u)
    return div_tau_u * grid.volume, def_u_tau * grid.volume


def _with_signed_zeros(coeffs, rng):
    """A copy with about a quarter of the entries set to zeros of both signs."""
    out = coeffs.copy()
    for value in (complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)):
        out[rng.random(out.shape) < 0.1] = value
    return out


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestComplexTables:
    """The operators multiply complex tables into the coefficients; the same
    formulas on the real tables (cast by numpy) are the oracle, to the bit."""

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_leray_project_matches_float_tables(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d + n)
        for _ in range(3):
            v = random_vector(grid, rng, band=(0.0, n / 2))
            for coeffs in (v.coeffs, _with_signed_zeros(v.coeffs, rng)):
                field = VectorField(grid, coeffs)
                _assert_same_bits(leray_project(field).coeffs, _leray_float_tables(field))

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_leray_project_in_place_matches_float_tables(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d + 2 * n)
        v = random_vector(grid, rng, band=(0.0, n / 2))
        coeffs = _with_signed_zeros(v.coeffs, rng)
        want = _leray_float_tables(VectorField(grid, coeffs))
        got = leray_project(VectorField(grid, coeffs), out=coeffs)
        assert got.coeffs is coeffs
        _assert_same_bits(coeffs, want)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_divergence_residual_matches_float_tables(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n)
        shape = (d,) + grid.spec_shape
        fields = [random_vector(grid, rng), leray_project(random_vector(grid, rng)),
                  VectorField.zero(grid),
                  # neither divergence-free nor Hermitian
                  VectorField(grid, rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))]
        fields += [VectorField(grid, np.asfortranarray(v.coeffs)) for v in fields]
        for v in fields:
            assert v.divergence_residual() == _divergence_residual_float_tables(v)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_cancellation_sums_match_float_tables(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n + 1)
        for _ in range(3):
            u = leray_project(random_vector(grid, rng))
            tau = random_sym_tensor(grid, rng)
            assert _cancellation_sums(u, tau) == _cancellation_sums_float_tables(u, tau)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_mode_sq_matches_tensordot_form(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n + 2)
        for f in (random_vector(grid, rng), random_sym_tensor(grid, rng)):
            c = f.coeffs
            want = np.tensordot(f.component_weights(), c.real**2 + c.imag**2,
                                axes=(0, 0))
            _assert_same_bits(mode_sq(f), want)
            out = np.full(grid.spec_shape, np.nan)
            assert mode_sq(f, out=out) is out
            _assert_same_bits(out, want)

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_ledger_sums_take_any_memory_layout(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n + 3)
        u = leray_project(random_vector(grid, rng))
        tau = random_sym_tensor(grid, rng)
        f_u, f_tau = (type(f)(grid, np.asfortranarray(f.coeffs)) for f in (u, tau))
        assert _cancellation_sums(f_u, f_tau) == _cancellation_sums(u, tau)
        _assert_same_bits(mode_sq(f_tau), mode_sq(tau))

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_leray_project_leaves_its_input(self, d, n):
        grid = TorusGrid(d, n)
        v = random_vector(grid, np.random.default_rng(n))
        kept = v.coeffs.copy()
        first = leray_project(v)
        second = leray_project(v)
        _assert_same_bits(v.coeffs, kept)
        _assert_same_bits(first.coeffs, second.coeffs)
        assert not np.shares_memory(first.coeffs, second.coeffs)
        assert not np.shares_memory(first.coeffs, v.coeffs)

    def test_tables_held_for_one_grid_and_not_on_it(self):
        # one set per layout, for the most recent grid only, shared by
        # equal grids and held off the grid
        grids = [TorusGrid(2, 16), TorusGrid(3, 8)]
        held = []
        for grid in grids:
            v = random_vector(grid, np.random.default_rng(0))
            leray_project(v)
            band = leray_tables(grid, grid.dealias_radius)
            assert _leray_sets.cache_info().currsize == 1
            assert set(_leray_sets(grid)) == {None, grid.dealias_radius}
            hits = _leray_sets.cache_info().hits
            v.divergence_residual()
            assert _leray_sets.cache_info().hits == hits + 1
            equal = TorusGrid(grid.d, grid.n)
            assert leray_tables(equal) is leray_tables(grid)
            assert leray_tables(equal, grid.dealias_radius) is band
            held.append([weakref.ref(table) for table in leray_tables(grid) + band])
            del band
        # the earlier grid's sets went with it out of the cache
        assert [ref() is None for refs in held for ref in refs] == [True] * 4 + [False] * 4
        for grid in grids:
            for holder in (grid, grid.half, grid.band):
                assert not [name for name, value in vars(holder).items()
                            if isinstance(value, np.ndarray) and np.iscomplexobj(value)]


class TestDeformationVorticity:
    def test_rigid_rotation_has_no_deformation(self):
        grid = TorusGrid(2, 32)
        x, y = coords(grid)
        # torus-resolved stand-in for rigid rotation: u = (-sin y, sin x)
        u = VectorField.from_physical(grid, np.stack([-np.sin(y), np.sin(x)]))
        d = deformation(u)
        # D_12 = (cos x - cos y)/2 vanishes only for true rigid rotation;
        # check the exactly representable part: diagonal entries vanish
        assert np.max(np.abs(d.coeffs[0])) < 1e-15
        assert np.max(np.abs(d.coeffs[2])) < 1e-15

    def test_gradient_flow_has_no_vorticity(self, grid2, rng):
        phi = random_scalar(grid2, rng)
        w = vorticity(gradient(phi))
        assert np.max(np.abs(w.coeffs)) <= 1e-14 * max(np.max(np.abs(phi.coeffs)), 1e-300)

    def test_shear_flow_against_symbolic_derivative(self):
        grid = TorusGrid(2, 64)
        x, y = coords(grid)
        u = VectorField.from_physical(grid, np.stack([np.sin(y), np.zeros_like(y)]))
        d = deformation(u)
        w = vorticity(u)
        expected = 0.5 * np.cos(y)
        np.testing.assert_allclose(d.to_physical()[1], expected, atol=1e-13)
        np.testing.assert_allclose(w.to_physical()[0], expected, atol=1e-13)
        for comp in (0, 2):
            assert np.max(np.abs(d.coeffs[comp])) < 1e-15


class TestGAlpha:
    def test_pointwise_commutator_oracle(self):
        tau = np.array([[1.0, 0.0], [0.0, -1.0]])
        w = np.array([[0.0, 0.5], [-0.5, 0.0]])
        out = g_alpha_pointwise(tau[None], np.zeros((1, 2, 2)), w[None], 0.0)[0]
        np.testing.assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_identity_tensor_reduces_to_deformation(self, rng):
        grid = TorusGrid(2, 64)
        h = random_scalar(grid, rng, band=(1.0, 8.0))
        hphys = h.to_physical()[0]
        eye = np.stack([hphys, np.zeros_like(hphys), hphys])
        tau = SymTensorField.from_physical(grid, eye)
        u = leray_project(random_vector(grid, rng, band=(1.0, 8.0)))
        alpha = 0.7
        out = g_alpha(tau, u, alpha)
        dmat = deformation(u).to_physical()
        # oracle: dealiased transform of the pointwise product, by plain FFT
        want = (np.fft.rfft2(-2.0 * alpha * hphys * dmat) / grid.n**2
                * grid.dealias_mask)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(out.coeffs - want)) <= 1e-12 * scale

    def test_zero_velocity_gives_zero(self, grid2, rng):
        tau = random_sym_tensor(grid2, rng)
        out = g_alpha(tau, VectorField.zero(grid2), 1.0)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_output_symmetry_is_structural(self, grid2, rng):
        tau = random_sym_tensor(grid2, rng)
        u = leray_project(random_vector(grid2, rng))
        out = g_alpha(tau, u, -0.3)
        assert isinstance(out, SymTensorField)
        mat = out.full_matrix_physical()
        np.testing.assert_allclose(mat, np.swapaxes(mat, -1, -2), atol=1e-14)


class TestDivTensor:
    def test_single_component_against_symbolic(self):
        grid = TorusGrid(2, 64)
        x, _ = coords(grid)
        comps = np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)])
        tau = SymTensorField.from_physical(grid, comps)
        out = div_tensor(tau)
        np.testing.assert_allclose(out.to_physical()[0], np.cos(x), atol=1e-13)
        np.testing.assert_allclose(out.to_physical()[1], 0.0, atol=1e-13)

    def test_linearity(self, grid2, rng):
        t1 = random_sym_tensor(grid2, rng)
        t2 = random_sym_tensor(grid2, rng)
        a, b = 1.37, -0.61
        lhs = div_tensor(a * t1 + b * t2)
        rhs = a * div_tensor(t1) + b * div_tensor(t2)
        scale = max(np.max(np.abs(lhs.coeffs)), 1e-300)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * scale


class TestAdvection:
    def test_zero_velocity(self, grid2, rng):
        f = random_scalar(grid2, rng)
        out = advect(VectorField.zero(grid2), f)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_skew_symmetry(self, grid2, rng):
        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        f = random_scalar(grid2, rng, band=(1.0, 8.0))
        from oldroydb.operators import grad_l2_norm

        resid = abs(inner_product(advect(u, f), f))
        assert resid <= 1e-12 * l2_norm(u) * grad_l2_norm(f) * l2_norm(f)

    def test_against_symbolic_product(self):
        grid = TorusGrid(2, 64)
        x, y = coords(grid)
        u = VectorField.from_physical(grid, np.stack([np.sin(y), np.zeros_like(y)]))
        f = ScalarField.from_physical(grid, np.sin(x))
        out = advect(u, f)
        np.testing.assert_allclose(out.to_physical()[0], np.sin(y) * np.cos(x),
                                   atol=1e-13)

    def test_tensor_advection_shape(self, grid3, rng):
        u = leray_project(random_vector(grid3, rng, band=(1.0, 4.0)))
        tau = random_sym_tensor(grid3, rng, band=(1.0, 4.0))
        out = advect(u, tau)
        assert isinstance(out, SymTensorField)
        assert out.coeffs.shape == tau.coeffs.shape


class TestInnerProduct:
    def test_positivity_and_definiteness(self, grid2, rng):
        f = random_scalar(grid2, rng)
        assert inner_product(f, f) > 0.0
        assert inner_product(f, f) == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
        z = ScalarField.zero(grid2)
        assert inner_product(z, z) == 0.0

    def test_single_mode_against_quadrature(self):
        grid = TorusGrid(2, 32)
        coeffs = np.zeros((1,) + grid.spec_shape, complex)
        a = 0.3 + 0.4j
        coeffs[0, 2, 1] = a  # its mirror -k is implied by the half spectrum
        f = ScalarField(grid, coeffs)
        # physical-space quadrature oracle (exact for trig polynomials)
        phys = f.to_physical()[0]
        quad = np.sum(phys * phys) * grid.cell_volume
        assert inner_product(f, f) == pytest.approx(quad, rel=1e-12)
        # one Hermitian pair contributes 2 |a|^2 volume
        assert inner_product(f, f) == pytest.approx(2 * abs(a) ** 2 * grid.volume,
                                                    rel=1e-12)

    def test_parseval_for_every_kind(self, grid2, rng):
        for maker in (random_scalar, random_vector, random_sym_tensor):
            f = maker(grid2, rng)
            g = maker(grid2, rng)
            fp, gp = f.to_physical(), g.to_physical()
            w = f.component_weights()
            quad = float(np.sum(w[:, None, None] * fp * gp)) * grid2.cell_volume
            assert inner_product(f, g) == pytest.approx(quad, rel=1e-12, abs=1e-15)

    def test_imaginary_part_is_roundoff(self, grid2, rng):
        # the full-spectrum Parseval sum, whose real part inner_product keeps
        for _ in range(20):
            f = random_scalar(grid2, rng)
            g = random_scalar(grid2, rng)
            w = f.component_weights()
            fc, gc = (np.fft.fft2(h.to_physical()) / grid2.n**2 for h in (f, g))
            per = np.sum((fc * np.conj(gc)).reshape(f.ncomp, -1), axis=1)
            val = complex(np.dot(w, per)) * grid2.volume
            assert abs(val.imag) <= 1e-12 * max(abs(val.real), 1e-300)

    def test_cancellation_identity(self, grid2, grid3, rng):
        for grid in (grid2, grid3):
            for _ in range(20):
                u = leray_project(random_vector(grid, rng))
                tau = random_sym_tensor(grid, rng)
                assert cancellation_residual(u, tau) <= 1e-12


class TestCancellationSums:
    """The two Parseval sums of the cancellation check, formed from the
    coefficients, against the same sums over built fields."""

    @staticmethod
    def _correlated_pair(grid, rng):
        # tau leans on D(u), so that both sums are a sizeable share of
        # ||tau|| ||grad u||; uncorrelated random pairs can fall to 3e-4
        u = leray_project(random_vector(grid, rng))
        r = random_sym_tensor(grid, rng)
        tau = deformation(u) * (1.0 / grad_l2_norm(u)) + r * (1.0 / l2_norm(r))
        return u, tau

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_sums_match_field_oracle_and_are_not_trivial(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(10 * d + n)
        for _ in range(10):
            u, tau = self._correlated_pair(grid, rng)
            div_tau_u, def_u_tau = _cancellation_sums(u, tau)
            assert div_tau_u == pytest.approx(inner_product(div_tensor(tau), u),
                                              rel=1e-13)
            assert def_u_tau == pytest.approx(inner_product(deformation(u), tau),
                                              rel=1e-13)
            scale = l2_norm(tau) * grad_l2_norm(u)
            assert abs(div_tau_u) >= 0.1 * scale
            assert abs(def_u_tau) >= 0.1 * scale
            assert cancellation_residual(u, tau) <= 1e-12

    def test_scale_is_the_norm_product(self, grid2, rng):
        u, tau = self._correlated_pair(grid2, rng)
        div_tau_u, def_u_tau = _cancellation_sums(u, tau)
        assert cancellation_residual(u, tau) == pytest.approx(
            abs(div_tau_u + def_u_tau) / (l2_norm(tau) * grad_l2_norm(u)), rel=1e-13)
        assert cancellation_residual(VectorField.zero(grid2), tau) == 0.0


class TestParsevalOracle:
    """Half-spectrum norms against the same sums over the full spectrum
    ``np.fft.fftn(f.to_physical())``, every mode counted once."""

    @staticmethod
    def _full(f):
        grid = f.grid
        axes = tuple(range(1, grid.d + 1))
        coeffs = np.fft.fftn(f.to_physical(), axes=axes) / grid.n**grid.d
        m = np.fft.fftfreq(grid.n, 1.0 / grid.n)
        k = grid.k_scale * np.stack(np.meshgrid(*([m] * grid.d), indexing="ij"))
        return coeffs, np.sum(k * k, axis=0)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("maker", [random_scalar, random_vector, random_sym_tensor])
    def test_norms_match_full_spectrum_sums(self, d, n, maker):
        from oldroydb.littlewood_paley import block_l2_norms, build_partition, phi_profile
        from oldroydb.operators import grad_l2_norm

        grid = TorusGrid(d, n)
        rng = np.random.default_rng(d * n)
        f, g = maker(grid, rng, band=(1.0, n / 2)), maker(grid, rng, band=(1.0, n / 2))
        (fc, k2), (gc, _) = self._full(f), self._full(g)
        w = f.component_weights()

        def total(per_mode):
            return float(np.sum(np.tensordot(w, per_mode, axes=(0, 0)).real)) * grid.volume

        assert inner_product(f, g) == pytest.approx(total(fc * np.conj(gc)), rel=1e-13)
        assert l2_norm(f) == pytest.approx(np.sqrt(total(np.abs(fc) ** 2)), rel=1e-13)
        assert grad_l2_norm(f) == pytest.approx(
            np.sqrt(total(k2 * np.abs(fc) ** 2)), rel=1e-13)
        part = build_partition(grid)
        want = [np.sqrt(total(phi_profile(np.sqrt(k2) / 2.0**q) ** 2 * np.abs(fc) ** 2))
                for q in part.q_values]
        # blocks outside the band are 0 here and rounding noise in the oracle
        np.testing.assert_allclose(block_l2_norms(f, part), want, rtol=1e-13,
                                   atol=1e-13 * max(want))


class TestLpNorms:
    def test_l2_consistency(self, grid2, rng):
        f = random_scalar(grid2, rng)
        assert lp_norm(f, 2) == pytest.approx(l2_norm(f), rel=1e-12)

    def test_linf_of_known_field(self):
        grid = TorusGrid(2, 32)
        x, _ = coords(grid)
        f = ScalarField.from_physical(grid, np.sin(x))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)


def test_multiply_matches_physical_product(grid2, rng):
    f = random_scalar(grid2, rng, band=(1.0, 5.0))
    g = random_scalar(grid2, rng, band=(1.0, 5.0))
    prod = multiply(f, g)
    direct = f.to_physical()[0] * g.to_physical()[0]
    # band 5 products alias nowhere on n=32 with the 2/3 mask applied
    spec = np.fft.rfft2(direct) / grid2.n**2 * grid2.dealias_mask
    np.testing.assert_allclose(prod.coeffs[0], spec, atol=1e-14)


class TestKernelBuffers:
    """``quadratic_terms`` forms its products in the sample rows of a
    scratch that lives while a run holds it."""

    @pytest.fixture(autouse=True)
    def own_registry(self, monkeypatch):
        # each test sees only the scratches its own runs make: a run that
        # an earlier test left alive (a failed test's traceback holds its
        # frames) keeps its scratch in the process-wide registry
        monkeypatch.setattr(operators, "_held_scratch", weakref.WeakValueDictionary())

    @staticmethod
    def _state(grid, seed):
        """The stacked 2/3 band of a random divergence-free u and a tau."""
        rng = np.random.default_rng(seed)
        u = leray_project(random_vector(grid, rng, band=(1.0, grid.n // 3)))
        tau = random_sym_tensor(grid, rng, band=(1.0, grid.n // 3))
        return grid.to_band(np.concatenate((u.coeffs, tau.coeffs)), grid.dealias_radius)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_results_survive_the_next_call(self, d, n):
        grid = TorusGrid(d, n)
        x = self._state(grid, 1)
        kept_x = x.copy()
        first = quadratic_terms(grid, x, 0.5)
        np.testing.assert_array_equal(x, kept_x)
        kept = first.copy()
        second = quadratic_terms(grid, self._state(grid, 2), 0.5)
        np.testing.assert_array_equal(first, kept)
        for f, s in zip(first, second):
            assert not np.array_equal(f, s)

    @pytest.mark.parametrize("d,n,rows", [(2, 32, 17), (3, 16, 27)])
    def test_products_live_in_the_sample_rows(self, d, n, rows):
        # [u, tau, grad u] (9 and 18 rows), the products of the last
        # forward call (5 and 6) and 3 scratch rows that take each stress
        # group's later gradient directions one at a time: 15 + 5 and
        # 27 + 9 rows with a products array, 30 in 3-d with a stress
        # group's gradients held in every direction at once
        grid = TorusGrid(d, n)
        scratch = kernel_scratch(grid)
        scratch.phys.fill(np.nan)
        quadratic_terms(grid, self._state(grid, 6), 1.0)
        assert scratch.spec.shape == (6,) + grid.spec_shape
        assert scratch.phys.shape == (rows,) + grid.shape
        # the call ran in the held scratch
        assert not np.isnan(scratch.phys).any()

    def test_refuses_another_layout(self):
        grid = TorusGrid(2, 16)
        x = self._state(grid, 7)
        with pytest.raises(ValueError, match="stacked 2/3 band"):
            quadratic_terms(grid, x[:4], 1.0)
        with pytest.raises(ValueError, match="stacked 2/3 band"):
            quadratic_terms(grid, grid.from_band(x, grid.dealias_radius), 1.0)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_warm_call_peak_below_stacked_spectrum_and_samples(self, d, n):
        grid = TorusGrid(d, n)
        x = self._state(grid, 3)
        held = kernel_scratch(grid)  # as a run holds it, so the second call is warm
        quadratic_terms(grid, x, 1.0)
        rows = (d + 1) * (d + d * (d + 1) // 2)
        bound = rows * (16 * np.prod(grid.spec_shape) + 8 * np.prod(grid.shape))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            quadratic_terms(grid, x, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert kernel_scratch(grid) is held

    def test_cold_call_peak_below_grouped_layout(self):
        d, n = 3, 16
        grid = TorusGrid(d, n)
        x = self._state(grid, 5)
        nt = d * (d + 1) // 2
        spec, phys = 16 * np.prod(grid.spec_shape), 8 * np.prod(grid.shape)
        band = 16 * np.prod(grid.band_shape(grid.dealias_radius))
        # buffers: a scratch spectrum of two 3-field groups and the samples
        # [u, tau, grad u], the 3 waiting rows and the gradients of one
        # stress group, which hold the products too; the result: the band
        # of the d + nt products; a margin of two spectrum fields for the
        # transforms' own temporaries (1.4 measured; the full-spectrum
        # forward transform with its complex mask peaked 8.9 fields higher).
        # The kernel takes 27 sample rows, 3 below this layout's 30
        assert grid not in operators._held_scratch  # no run holds one: a cold call
        bound = (2 * 3 + 2) * spec + (d + nt + d * d + 3 + 3 * d) * phys + (d + nt) * band
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            quadratic_terms(grid, x, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_twin_pair_shares_one_scratch(self, monkeypatch):
        # every run of both lockstep pairs steps through the one scratch
        # the experiment holds for the call, gone once it returns
        cfg = small_data_config(0, t_end=0.2, n=16)
        sims, refs, alive, shared = [], [], [], []
        advance = Simulation.advance

        def recording(sim):
            sims.append(id(sim))
            refs.append(weakref.ref(sim._kernel_scratch))
            alive.append(len({id(ref()) for ref in refs if ref() is not None}))
            shared.append(sim._kernel_scratch is refs[0]())
            return advance(sim)

        monkeypatch.setattr(Simulation, "advance", recording)
        monitor.stability_experiment(cfg, 1e-6)
        monkeypatch.undo()
        per_pair = 2 * cfg.n_steps
        assert len(sims) == 2 * per_pair  # the pairs at delta and delta / 10
        for start in (0, per_pair):
            assert len(set(sims[start:start + per_pair])) == 2
        assert alive == [1] * len(alive) and all(shared)
        assert all(ref() is None for ref in refs)

    def test_nothing_held_once_a_run_returns(self, monkeypatch):
        refs = []
        advance = Simulation.advance

        def recording(sim):
            refs.append(weakref.ref(sim._kernel_scratch))
            return advance(sim)

        monkeypatch.setattr(Simulation, "advance", recording)
        for d, n in [(2, 16), (3, 8)]:
            cfg = small_data_config(0, t_end=0.2, n=n)
            if d == 3:
                cfg = replace(cfg, d=3, s=0.0)
            simulate(cfg)
            monitor.stability_experiment(cfg, 1e-6)
        assert refs and all(ref() is None for ref in refs)

    def test_sweep_holds_only_the_live_runs_scratch(self):
        refs = []
        for d, n in [(2, 8), (2, 16), (3, 8), (2, 8)]:
            cfg = replace(small_data_config(0, t_end=0.2, n=n), d=d, s=None)
            sim = Simulation(cfg)
            assert "phys" not in vars(sim._kernel_scratch)  # made in the first step
            sim.advance()
            refs.append(weakref.ref(sim._kernel_scratch))
            assert [ref() is not None for ref in refs] == [False] * (len(refs) - 1) + [True]
        # two live runs on equal grids share one; a linear run holds none
        other = Simulation(cfg)
        assert other._kernel_scratch is sim._kernel_scratch
        assert Simulation(replace(cfg, nonlinear=False))._kernel_scratch is None
        del sim
        assert refs[-1]() is other._kernel_scratch
        del other
        assert refs[-1]() is None


class TestSharedPasses:
    """``_samples_and_gradients`` against one ``to_physical`` per field and
    per derivative of the half spectrum of its band."""

    @staticmethod
    def _band(grid, rng, band):
        radius = grid.dealias_radius
        if band is None:  # every band mode
            shape = (3,) + grid.band_shape(radius)
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return grid.to_band(random_sym_tensor(grid, rng, band=band).coeffs[:3], radius)

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("band", [(1.0, 5.0), None])
    def test_matches_one_transform_per_derivative(self, d, n, band):
        grid = TorusGrid(d, n)
        c = self._band(grid, np.random.default_rng(7 * d + n), band)
        kept = c.copy()
        full = grid.from_band(c, grid.dealias_radius)
        spec = np.full((6,) + grid.spec_shape, np.nan, np.complex128)
        values = np.empty((3,) + grid.shape)
        grads = np.empty((d, 3) + grid.shape)
        directions = list(_samples_and_gradients(grid, derivative_tables(grid), c, spec,
                                                 values, grads))
        assert directions == list(range(d))
        np.testing.assert_array_equal(c, kept)
        # the samples and d_0 take the passes of to_physical in its order
        np.testing.assert_array_equal(values, grid.to_physical(full))
        np.testing.assert_array_equal(grads[0], grid.to_physical(1j * grid.half.k[0] * full))
        for j in range(1, d):
            want = grid.to_physical(1j * grid.half.k[j] * full)
            err = np.max(np.abs(grads[j] - want))
            assert err <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    @pytest.mark.parametrize("band", [(1.0, 5.0), None])
    def test_axis_tables_give_the_bits_of_the_full_multiplier(self, d, n, band):
        # the kernel's derivative i k_j c, formed with the table of axis j,
        # has the bits of the product with the half-spectrum k_j
        grid = TorusGrid(d, n)
        full = grid.from_band(self._band(grid, np.random.default_rng(7 * d + n), band),
                              grid.dealias_radius)
        for j, table in enumerate(derivative_tables(grid)):
            assert table.dtype == np.complex128
            assert table.size <= n * (n // 2 + 1)
            got = np.empty_like(full)
            for f in range(len(full)):
                np.multiply(table, full[f], out=got[f])
            got *= 1j
            want = grid.half.k[j] * full * 1j
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d,n,passes", [(2, 16, 10), (3, 8, 45)])
    def test_complex_field_passes_per_kernel_call(self, monkeypatch, d, n, passes):
        # one full chain of passes per field and per derivative would take
        # (d + nt) (d + 1) (d - 1): 15 in 2-d, 72 in 3-d
        grid = TorusGrid(d, n)
        x = TestKernelBuffers._state(grid, d)
        field = np.prod(grid.spec_shape)
        counted = []
        ifft = scipy.fft.ifft

        def counting(x, *args, **kwargs):
            counted.append(np.size(x) // field)
            return ifft(x, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "ifft", counting)
        quadratic_terms(grid, x, 1.0)
        assert sum(counted) == passes
