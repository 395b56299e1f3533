"""Paraproduct/remainder calculus, Chemin-Lerner norms, transport commutators.

The Chemin-Lerner norms are the ledger's, recomputed offline by
``monitor.functionals_from_history``.
"""

import math

import numpy as np
import pytest

from oldroydb.fields import ScalarField, random_scalar, random_sym_tensor, random_vector
from oldroydb.grid import TorusGrid
from oldroydb.littlewood_paley import (
    block_l2_norms,
    build_partition,
    commutator_block_norms,
    dyadic_block,
    hs_norm,
    hybrid_norm,
    paraproduct,
    remainder,
)
from oldroydb.monitor import functionals_from_history
from oldroydb.operators import l2_norm, leray_project, multiply
from oldroydb.solver import FluidParams

PARAMS = FluidParams(re=1.0, we=1.0, omega=0.5, alpha=1.0)


def _single_mode(grid, kvec, a=1.0):
    """a at kvec plus conj(a) at -kvec, each stored if on the half spectrum."""
    coeffs = np.zeros((1,) + grid.spec_shape, complex)
    for k, c in ((kvec, a), (tuple(-x for x in kvec), np.conj(a))):
        if k[-1] >= 0:
            coeffs[(0,) + tuple(x % grid.n for x in k)] = c
    return ScalarField(grid, coeffs)


def _time_norms(times, samples, s):
    """Ledger time norms of one scalar series, fed in as u, grad u and tau."""
    part = build_partition(samples[0].grid)
    blocks = np.stack([block_l2_norms(f, part) for f in samples])
    return functionals_from_history(times, blocks, blocks, blocks, part.q_values,
                                    part.grid.d, s, PARAMS)


class TestBony:
    def test_zero_factor(self, grid2, rng):
        f = ScalarField.zero(grid2)
        g = random_scalar(grid2, rng)
        assert np.max(np.abs(paraproduct(f, g).coeffs)) == 0.0
        assert np.max(np.abs(paraproduct(g, f).coeffs)) == 0.0
        assert np.max(np.abs(remainder(f, g).coeffs)) == 0.0

    def test_decomposition_reconstructs_product(self, grid2, rng):
        for _ in range(10):
            f = random_scalar(grid2, rng, band=(1.0, grid2.n // 3))
            g = random_scalar(grid2, rng, band=(1.0, grid2.n // 3))
            direct = multiply(f, g)
            total = paraproduct(f, g) + paraproduct(g, f) + remainder(f, g)
            scale = np.max(np.abs(direct.coeffs))
            assert np.max(np.abs(total.coeffs - direct.coeffs)) <= 1e-10 * scale

    def test_separated_modes_land_in_one_paraproduct(self):
        grid = TorusGrid(2, 128)
        f = _single_mode(grid, (1, 0))     # active blocks q in {-1, 0}
        g = _single_mode(grid, (32, 0))    # active blocks q in {4, 5, 6}
        # the low factor never survives S_{q-1} on the high factor's blocks
        tgf = paraproduct(g, f)
        assert np.max(np.abs(tgf.coeffs)) == 0.0
        tfg = paraproduct(f, g)
        rem = remainder(f, g)
        direct = multiply(f, g)
        recon = tfg + paraproduct(g, f) + rem
        scale = np.max(np.abs(direct.coeffs))
        assert np.max(np.abs(recon.coeffs - direct.coeffs)) <= 1e-12 * scale
        assert np.max(np.abs(tfg.coeffs)) > 0.0

    def test_scalars_only(self, grid2, rng):
        u = random_vector(grid2, rng)
        f = random_scalar(grid2, rng)
        with pytest.raises(ValueError):
            paraproduct(u, f)  # type: ignore[arg-type]


class TestCheminLerner:
    def test_constant_series_at_rho_inf_matches_spatial_norm(self, grid2, rng):
        f = random_scalar(grid2, rng, band=(1.0, 10.0))
        s = 0.5
        got = _time_norms(np.linspace(0.0, 2.0, 9), [f] * 9, s)
        assert got["Hs_u_sup"] == pytest.approx(hs_norm(f, s), rel=1e-12)
        assert got["high_B_u_sup"] == pytest.approx(hybrid_norm(f, s)[2], rel=1e-12)

    def test_minkowski_ordering_on_samples(self, grid2, rng):
        # tilde norm vs classical time norm of the spatial norm
        times = np.linspace(0.0, 1.0, 21)
        fields = [random_scalar(grid2, rng, band=(1.0, 10.0)) for _ in times]
        s = 0.3
        got = _time_norms(times, fields, s)
        hs = np.array([hs_norm(f, s) for f in fields])
        high = np.array([hybrid_norm(f, s)[2] for f in fields])

        # rho = inf >= r: tilde >= classical
        assert got["Hs_u_sup"] >= np.max(hs) * (1 - 1e-12)
        assert got["high_B_u_sup"] >= np.max(high) * (1 - 1e-12)

        # rho = r: tilde = classical
        assert got["grad_u_L2Hs"] == pytest.approx(
            math.sqrt(np.trapezoid(hs**2, times)), rel=1e-12)
        assert got["high_B_u_L1"] == pytest.approx(np.trapezoid(high, times), rel=1e-12)

    def test_decaying_mode_against_closed_form(self):
        grid = TorusGrid(2, 16)
        f0 = _single_mode(grid, (3, 0), a=0.25)
        times = np.linspace(0.0, 1.0, 2001)
        s = 0.5
        got = _time_norms(times, [f0 * math.exp(-t) for t in times], s)
        l2_factor = math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
        l1_factor = 1.0 - math.exp(-1.0)
        assert got["grad_u_L2Hs"] == pytest.approx(hs_norm(f0, s) * l2_factor, rel=1e-6)
        assert got["high_B_u_L1"] == pytest.approx(hybrid_norm(f0, s)[2] * l1_factor,
                                                   rel=1e-6)


class TestCommutator:
    def test_zero_velocity(self, grid2, rng):
        from oldroydb.fields import VectorField

        tau = random_sym_tensor(grid2, rng)
        part = build_partition(grid2)
        out = commutator_block_norms(VectorField.zero(grid2), tau)[part.q_index(0)]
        assert out == 0.0

    def test_support_locality(self):
        # low-frequency velocity against a single-block field: the commutator
        # lives near that block and vanishes far away
        grid = TorusGrid(2, 128)
        part = build_partition(grid)
        rng = np.random.default_rng(5)
        u = leray_project(random_vector(grid, rng, band=(1.0, 2.0)))
        f = random_scalar(grid, rng, band=(1.0, 40.0))
        q0 = 4
        f_banded = dyadic_block(f, q0)
        norms = commutator_block_norms(u, f_banded)
        near = norms[part.q_index(q0)]
        for q_far in (q0 - 3, q0 + 3):
            far = norms[part.q_index(q_far)]
            assert far <= 1e-10 * max(near, l2_norm(f_banded))

    def test_block_norm_series_shape(self, grid2, rng):
        u = leray_project(random_vector(grid2, rng, band=(1.0, 8.0)))
        tau = random_sym_tensor(grid2, rng, band=(1.0, 8.0))
        part = build_partition(grid2)
        norms = commutator_block_norms(u, tau)
        assert norms.shape == (part.nq,)
        assert np.all(norms >= 0.0)
        assert np.any(norms > 0.0)
