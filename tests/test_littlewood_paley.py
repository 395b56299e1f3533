import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oldroydb.fields import ScalarField, random_scalar, random_sym_tensor, random_vector
from oldroydb.grid import GridError, TorusGrid
from oldroydb.littlewood_paley import (
    DyadicPartition,
    UnsupportedIndexError,
    besov_norm,
    block_l2_norms,
    build_partition,
    chi_profile,
    dyadic_block,
    hs_norm,
    hybrid_norm,
    phi_profile,
)
from oldroydb.operators import grad_l2_norm, l2_norm, lp_norm, mode_sq


def chi_oracle(r: float) -> float:
    """The cutoff evaluated straight from its defining formula."""
    lo, hi = 0.75, 4.0 / 3.0
    t = (hi - abs(r)) / (hi - lo)
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    psi = lambda x: math.exp(-1.0 / x) if x > 0 else 0.0
    return psi(t) / (psi(t) + psi(1.0 - t))


def phi_oracle(r: float) -> float:
    return chi_oracle(r / 2.0) - chi_oracle(r)


def _single_mode(grid, kvec, a=1.0):
    """a at kvec plus conj(a) at -kvec, each stored if on the half spectrum."""
    coeffs = np.zeros((1,) + grid.spec_shape, complex)
    for k, c in ((kvec, a), (tuple(-x for x in kvec), np.conj(a))):
        if k[-1] >= 0:
            coeffs[(0,) + tuple(x % grid.n for x in k)] = c
    return ScalarField(grid, coeffs)


class TestPartition:
    def test_plateau_values(self):
        assert chi_profile(np.array([0.5]))[0] == 1.0
        assert chi_profile(np.array([1.5]))[0] == 0.0
        assert phi_profile(np.array([0.5]))[0] == 0.0
        assert phi_profile(np.array([3.0]))[0] == 0.0

    def test_supports(self):
        r = np.linspace(0.0, 4.0, 2001)
        chi = chi_profile(r)
        phi = phi_profile(r)
        assert np.all(chi[r > 4.0 / 3.0] == 0.0)
        assert np.all(chi[r < 0.75] == 1.0)
        assert np.all(phi[(r < 0.75) | (r > 8.0 / 3.0)] == 0.0)

    def test_profile_matches_direct_formula(self):
        for r in (0.8, 1.0, 1.2, 1.3, 2.0, 2.5):
            assert chi_profile(np.array([r]))[0] == pytest.approx(chi_oracle(r),
                                                                  abs=1e-15)
            assert phi_profile(np.array([r]))[0] == pytest.approx(phi_oracle(r),
                                                                  abs=1e-15)

    def test_phi_at_one_equals_one_minus_chi_one(self):
        val = phi_profile(np.array([1.0]))[0]
        assert val == pytest.approx(1.0 - chi_oracle(1.0), abs=1e-15)

    def test_telescoping_sum_at_radius_five(self):
        total = sum(phi_profile(np.array([5.0 / 2.0**q]))[0] for q in range(-4, 12))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 32), (2, 128), (3, 16), (3, 32)])
    def test_partition_identities_on_grid(self, d, n):
        part = build_partition(TorusGrid(d, n))
        res_chi, res_full = part.identity_residuals()
        assert res_chi <= 1e-12
        assert res_full <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_shell_tabulation_matches_per_mode_evaluation(self, d, n):
        grid = TorusGrid(d, n)
        part = DyadicPartition(grid)
        for i, q in enumerate(part.q_values):
            np.testing.assert_array_equal(part.phi_mults[i],
                                          phi_profile(grid.kmag / 2.0**q))
        # block_l2_norms reshapes the squares once per call: a strided
        # gather would make that a copy
        assert part.phi_mults.flags.c_contiguous
        assert part._phi_sq.flags.c_contiguous

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
    def test_one_per_mode_table(self, d, n):
        # the one per-mode table a partition is built with lies on the 2/3
        # band; its half-spectrum tables are formed on first read
        grid = TorusGrid(d, n)
        part = DyadicPartition(grid)
        band = grid.band_shape(grid.dealias_radius)

        def per_mode():
            return {name: value.shape for name, value in vars(part).items()
                    if isinstance(value, np.ndarray)
                    and value.shape[-d:] in (grid.spec_shape, band)}

        assert per_mode() == {"_band_phi_sq": (part.nq,) + band}
        assert "phi_shell" not in vars(part)
        assert part.layout_tables(grid.spec_shape)[0] is part._phi_sq
        assert per_mode() == {"_band_phi_sq": (part.nq,) + band,
                              "_phi_sq": (part.nq,) + grid.spec_shape}
        assert part.phi_shell.shape == (part.nq, len(grid.shells[0]))

    def test_q_range(self):
        part = build_partition(TorusGrid(2, 128))
        assert part.q_min == -1
        assert part.q_max == math.ceil(math.log2(8.0 / 3.0 * 64))
        # blocks below q_min would vanish on every resolved mode anyway
        r = np.arange(1, 91, dtype=float)
        assert np.all(phi_profile(r / 2.0**-2) == 0.0)


class TestBlocks:
    def test_single_mode_block_support(self, grid2):
        f = _single_mode(grid2, (2, 0))
        part = build_partition(grid2)
        for q in part.q_values:
            blk = dyadic_block(f, int(q))
            expected = phi_oracle(2.0 / 2.0**q)
            got = abs(blk.coeffs[0, 2, 0])
            assert got == pytest.approx(expected, abs=1e-14)
        live = {int(q) for q in part.q_values
                if np.max(np.abs(dyadic_block(f, int(q)).coeffs)) > 0}
        assert live == {0, 1}
        assert phi_oracle(2.0) + phi_oracle(1.0) + phi_oracle(0.5) == pytest.approx(
            1.0, abs=1e-15)

    def test_reconstruction_of_random_fields(self, grid2, rng):
        part = build_partition(grid2)
        for _ in range(10):
            f = random_scalar(grid2, rng, band=(1.0, grid2.n // 2 - 1))
            rec = sum(dyadic_block(f, int(q)).coeffs for q in part.q_values)
            scale = np.max(np.abs(f.coeffs))
            assert np.max(np.abs(rec - f.coeffs)) <= 1e-10 * scale

    def test_quasi_orthogonality_exact(self, grid2, rng):
        f = random_scalar(grid2, rng)
        part = build_partition(grid2)
        for p in part.q_values:
            bp = dyadic_block(f, int(p))
            for q in part.q_values:
                if abs(int(p) - int(q)) >= 2:
                    assert np.max(np.abs(dyadic_block(bp, int(q)).coeffs)) == 0.0

    def test_block_norms_of_stacked_magnitudes(self, grid3, rng):
        # the ledger's path: one magnitude pass, then one call for a stack
        u = random_vector(grid3, rng)
        tau = random_sym_tensor(grid3, rng)
        part = build_partition(grid3)
        u_sq = mode_sq(u)
        got = block_l2_norms(np.stack((u_sq, u_sq * grid3.k2, mode_sq(tau))), part)
        want = [block_l2_norms(u, part), block_l2_norms(u, part, gradient_weight=True),
                block_l2_norms(tau, part)]
        np.testing.assert_allclose(got, want, rtol=1e-14)
        np.testing.assert_allclose(block_l2_norms(u_sq, part, gradient_weight=True),
                                   want[1], rtol=1e-14)
        with pytest.raises(ValueError, match="partition"):
            block_l2_norms(u_sq)

    def test_partition_of_another_grid_rejected(self, rng):
        # same d and n, four times the period: a partition that would
        # silently measure u at the wrong frequencies
        u = random_vector(TorusGrid(2, 32), rng)
        foreign = build_partition(TorusGrid(2, 32, 8 * np.pi))
        with pytest.raises(GridError):
            hs_norm(u, 0.0, foreign)
        with pytest.raises(GridError):
            block_l2_norms(u, foreign)

    def test_out_of_range_block_warns_and_returns_zero(self, grid2, rng):
        f = random_scalar(grid2, rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            blk = dyadic_block(f, -10)
        assert len(caught) == 1
        assert np.max(np.abs(blk.coeffs)) == 0.0


class TestLowCutoff:
    """``chi_weights(q)``, the low-pass multiplier ``paraproduct`` reads."""

    def test_large_q_is_identity(self, grid2, rng):
        f = random_scalar(grid2, rng)
        out = f.apply_multiplier(build_partition(grid2).chi_weights(12))
        np.testing.assert_allclose(out.coeffs, f.coeffs, atol=0)

    def test_below_range_vanishes_on_mean_zero(self, grid2, rng):
        f = random_scalar(grid2, rng)
        part = build_partition(grid2)
        out = f.apply_multiplier(part.chi_weights(part.q_min))
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_equals_sum_of_lower_blocks(self, grid2, grid3, rng):
        for grid in (grid2, grid3):
            f = random_scalar(grid, rng, band=(1.0, grid.n // 2 - 1))
            part = build_partition(grid)
            for q in (0, 2, 4):
                total = np.zeros_like(f.coeffs)
                for p in part.q_values:
                    if p <= q - 1:
                        total += dyadic_block(f, int(p)).coeffs
                cut = f.apply_multiplier(part.chi_weights(q))
                scale = max(np.max(np.abs(f.coeffs)), 1e-300)
                assert np.max(np.abs(cut.coeffs - total)) <= 1e-10 * scale


class TestBesovNorms:
    def test_zero_field(self, grid2):
        z = ScalarField.zero(grid2)
        assert besov_norm(z, s=1.0, r=1.0) == 0.0
        assert hybrid_norm(z, 0.0) == (0.0, 0.0, 0.0)

    @given(scale=st.floats(min_value=0.125, max_value=8.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale):
        grid = TorusGrid(2, 16)
        f = random_scalar(grid, np.random.default_rng(7), band=(1.0, 6.0))
        base = besov_norm(f, s=0.5, r=1.0)
        assert besov_norm(scale * f, s=0.5, r=1.0) == pytest.approx(scale * base,
                                                                    rel=1e-12)

    def test_single_mode_value_against_table(self, grid2):
        f = _single_mode(grid2, (2, 0), a=0.5)
        # ||f||_L2 for one Hermitian pair of amplitude 1/2
        l2 = math.sqrt(2 * 0.5**2 * grid2.volume)
        expected = sum(2.0**q * phi_oracle(2.0 / 2.0**q) * l2 for q in (0, 1, 2))
        assert besov_norm(f, s=1.0, r=1.0) == pytest.approx(expected, rel=1e-12)

    def test_unsupported_r_rejected(self, grid2, rng):
        f = random_scalar(grid2, rng)
        with pytest.raises(UnsupportedIndexError):
            besov_norm(f, 0.0, r=3.0)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           s=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_aggregation_ordering_in_r(self, seed, s):
        grid = TorusGrid(2, 16)
        f = random_scalar(grid, np.random.default_rng(seed), band=(1.0, 6.0))
        n_inf = besov_norm(f, s=s, r=np.inf)
        n_two = besov_norm(f, s=s, r=2.0)
        n_one = besov_norm(f, s=s, r=1.0)
        assert n_inf <= n_two * (1 + 1e-12)
        assert n_two <= n_one * (1 + 1e-12)

    def test_hs_norm_comparable_to_fourier_weights(self, grid2, rng):
        s = 0.7
        ratios = []
        for _ in range(100):
            f = random_scalar(grid2, rng, band=(1.0, grid2.n // 2 - 1))
            direct = math.sqrt(float(np.sum(
                grid2.kmag ** (2 * s) * np.abs(f.coeffs[0]) ** 2)) * grid2.volume)
            ratios.append(hs_norm(f, s) / direct)
        # block weights 2^{qs} against |k|^s: two-sided bounds from the annulus
        assert 0.25 <= min(ratios) and max(ratios) <= 4.0
        assert max(ratios) / min(ratios) < 4.0


class TestSplitAndHybrid:
    def test_lowest_mode_block_membership(self, grid2):
        f = _single_mode(grid2, (1, 0))
        part = build_partition(grid2)
        norms = block_l2_norms(f, part)
        live = {int(q) for q, v in zip(part.q_values, norms) if v > 0}
        assert live == {-1, 0}
        # the high side therefore sees only the q = 0 block, of weight 2^{qd/2} = 1
        hi = hybrid_norm(f, 1.0)[2]
        l2 = math.sqrt(2 * grid2.volume)
        assert hi == pytest.approx(phi_oracle(1.0) * l2, rel=1e-12)

    def test_high_frequency_mode_has_no_low_part(self):
        grid = TorusGrid(2, 64)
        f = _single_mode(grid, (8, 0))
        total, low, high = hybrid_norm(f, -0.25)
        assert low == 0.0
        l2 = math.sqrt(2 * grid.volume)
        expected = sum(2.0 ** (q * grid.d / 2.0) * phi_oracle(8.0 / 2.0**q) * l2
                       for q in range(0, 6))
        assert high == pytest.approx(expected, rel=1e-12)
        assert total == high

    def test_hybrid_equivalence_with_sum_norm(self, grid2, rng):
        # hybrid / (Hs + B^{d/2}_{2,1}) stays in [1/2, 1] on the torus
        s = -0.25
        ratios = []
        for _ in range(100):
            f = random_scalar(grid2, rng, band=(1.0, grid2.n // 2 - 1))
            hyb = hybrid_norm(f, s)[0]
            comparison = hs_norm(f, s) + besov_norm(f, s=grid2.d / 2.0, r=1.0)
            ratios.append(hyb / comparison)
        assert min(ratios) >= 0.5 - 1e-12
        assert max(ratios) <= 1.0 + 1e-12


class TestBernstein:
    def test_pure_mode_gradient_ratio(self):
        grid = TorusGrid(2, 64)
        for q in (0, 1, 2):
            f = _single_mode(grid, (2**q, 0))
            assert grad_l2_norm(f) / l2_norm(f) == pytest.approx(2.0**q, rel=1e-12)

    def test_cross_exponent_ratio_bounded(self, rng):
        # ||f||_Linf / ||f||_L2 of a block-q field, scaled by 2^{-qd/2}
        grid = TorusGrid(2, 128)
        part = build_partition(grid)
        vals = []
        for q in range(0, 6):
            noise = ScalarField.from_physical(grid, rng.standard_normal(grid.shape))
            f = noise.apply_multiplier(part.phi_weights(q))
            vals.append(lp_norm(f, np.inf) / lp_norm(f, 2.0) / 2.0 ** (q * grid.d / 2.0))
        assert max(vals) < 10.0
        assert min(vals) > 0.01
