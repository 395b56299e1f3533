import numpy as np
import pytest

from oldroydb.fields import (
    FieldError,
    ScalarField,
    SkewTensorField,
    SymTensorField,
    VectorField,
    random_field,
    random_scalar,
    random_sym_tensor,
    random_vector,
    restrict_spectrum,
)
from oldroydb.grid import TorusGrid
from spectral_checks import hermitian_residual


def test_physical_roundtrip(grid2, rng):
    # start from a field that is already mean-free and Nyquist-free, so the
    # constructor's pinning is a no-op and the roundtrip is exact
    phys = random_scalar(grid2, rng).to_physical()[0]
    f = ScalarField.from_physical(grid2, phys)
    np.testing.assert_allclose(f.to_physical()[0], phys, atol=1e-13)


@pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("cls", [ScalarField, VectorField, SymTensorField])
def test_half_spectrum_roundtrip(d, n, cls):
    # coefficients live on the k_last >= 0 half spectrum, and
    # from_physical(to_physical(f)) gives f back
    grid = TorusGrid(d, n)
    f = random_field(cls, grid, np.random.default_rng(d + n), band=(1.0, n / 2))
    assert f.coeffs.shape == (cls.ncomp_for(d),) + (n,) * (d - 1) + (n // 2 + 1,)
    phys = f.to_physical()
    assert phys.shape == (cls.ncomp_for(d),) + grid.shape
    back = cls.from_physical(grid, phys)
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-15 * scale
    np.testing.assert_allclose(back.to_physical(), phys, rtol=0,
                               atol=1e-13 * np.max(np.abs(phys)))
    assert hermitian_residual(back) == 0.0


def test_from_physical_pins_mean_and_nyquist(grid2, rng):
    f = ScalarField.from_physical(grid2, rng.standard_normal(grid2.shape) + 3.0)
    assert f.coeffs[0, 0, 0] == 0.0
    nyq = np.any(np.abs(grid2.half.k_int) == grid2.n // 2, axis=0)
    assert np.all(f.coeffs[0][nyq] == 0.0)
    assert hermitian_residual(f) == 0.0


def test_hermitian_symmetry_of_real_fields(grid2, rng):
    f = random_scalar(grid2, rng)
    assert hermitian_residual(f) < 1e-12
    broken = f.copy()
    # off the k_last = 0 plane the symmetry is structural, so break it there
    broken.coeffs[0, 1, 0] += 0.5 * np.max(np.abs(f.coeffs))
    assert hermitian_residual(broken) > 0.1


def test_component_counts_and_weights(grid2, grid3):
    assert VectorField.ncomp_for(2) == 2
    assert SymTensorField.ncomp_for(2) == 3
    assert SymTensorField.ncomp_for(3) == 6
    assert SkewTensorField.ncomp_for(2) == 1
    assert SkewTensorField.ncomp_for(3) == 3
    tau2 = SymTensorField.zero(grid2)
    np.testing.assert_array_equal(tau2.component_weights(), [1.0, 2.0, 1.0])
    tau3 = SymTensorField.zero(grid3)
    np.testing.assert_array_equal(tau3.component_weights(),
                                  [1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def test_shape_validation():
    grid = TorusGrid(2, 16)
    with pytest.raises(FieldError):
        VectorField(grid, np.zeros((3, 16, 16), complex))
    with pytest.raises(FieldError):
        ScalarField.from_physical(grid, np.zeros((2, 16, 16)))


def test_full_matrix_roundtrip(grid2, rng):
    tau = random_sym_tensor(grid2, rng)
    mat = tau.full_matrix_physical()
    np.testing.assert_allclose(mat, np.swapaxes(mat, -1, -2), atol=1e-14)
    phys = tau.to_physical()
    for c, (i, j) in enumerate(SymTensorField.pairs(grid2.d)):
        np.testing.assert_array_equal(mat[..., i, j], phys[c])


def test_kind_mismatch_arithmetic(grid2, rng):
    f = random_scalar(grid2, rng)
    u = random_vector(grid2, rng)
    with pytest.raises(FieldError):
        _ = f + u  # type: ignore[operator]


def test_band_limits_respected(grid2, rng):
    f = random_scalar(grid2, rng, band=(2.0, 5.0))
    mag = grid2.half.kmag
    outside = (mag < 2.0) | (mag > 5.0)
    assert np.all(np.abs(f.coeffs[0][outside]) == 0.0)
    assert np.max(np.abs(f.coeffs)) > 0.0


def test_restrict_spectrum_preserves_coarse_modes(rng):
    fine = TorusGrid(2, 64)
    coarse = TorusGrid(2, 32)
    f = random_scalar(fine, rng, band=(1.0, 10.0))
    g = restrict_spectrum(f, coarse)
    # every surviving coefficient agrees with the fine field at the same k
    for kx in range(-10, 11):
        for ky in range(0, 11):  # the stored half spectrum
            if not coarse.dealias_mask[kx % 32, ky % 32]:
                continue
            np.testing.assert_allclose(
                g.coeffs[0, kx % 32, ky % 32],
                f.coeffs[0, kx % 64, ky % 64],
                rtol=0, atol=0,
            )
    with pytest.raises(FieldError):
        restrict_spectrum(g, fine)


def test_divergence_residual_zero_field(grid2):
    assert VectorField.zero(grid2).divergence_residual() == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_component_pairs_and_indices(d):
    grid = TorusGrid(d, 8)
    sym = tuple((i, j) for i in range(d) for j in range(i, d))
    skew = tuple((i, j) for i in range(d) for j in range(i + 1, d))
    assert SymTensorField.pairs(d) == sym
    assert SkewTensorField.pairs(d) == skew
    assert SymTensorField.pairs(d) is SymTensorField.pairs(d)
    tau = SymTensorField.zero(grid)
    for i in range(d):
        for j in range(d):
            assert tau.component_index(i, j) == sym.index((min(i, j), max(i, j)))
