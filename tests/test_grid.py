import numpy as np
import pytest
import scipy.fft

from oldroydb.grid import GridError, TorusGrid


@pytest.mark.parametrize("d,n", [(1, 32), (4, 32), (2, 31), (2, 4), (2, 0)])
def test_rejects_bad_dimensions(d, n):
    with pytest.raises(GridError):
        TorusGrid(d, n)


def test_wavevectors_are_integers_times_scale(grid2):
    assert grid2.k_scale == pytest.approx(1.0)
    np.testing.assert_array_equal(grid2.k, grid2.k_int.astype(float))
    assert grid2.k_int[0].max() == grid2.n // 2 - 1
    assert grid2.k_int[0].min() == -grid2.n // 2


def test_reflection_realizes_negation(grid2):
    # reflect maps the k_last = 0 plane, where both k and -k are stored
    k = grid2.k_int
    refl = np.stack([grid2.reflect(k[i]) for i in range(grid2.d)])
    mask = grid2.mode_mask[..., 0]
    np.testing.assert_array_equal(refl[:, mask], -k[..., 0][:, mask])


def test_mode_mask_drops_nyquist_lines(grid2):
    nyq = grid2.n // 2
    on_nyquist = np.any(np.abs(grid2.k_int) == nyq, axis=0)
    assert not np.any(grid2.mode_mask & on_nyquist)
    assert np.all(grid2.mode_mask | on_nyquist)


def test_dealias_mask_is_two_thirds_rule(grid2):
    lim = grid2.n // 3
    inside = np.all(np.abs(grid2.k_int) <= lim, axis=0)
    np.testing.assert_array_equal(grid2.dealias_mask, inside & grid2.mode_mask)


def test_coords_cover_the_box(grid3):
    xs = grid3.coords()
    assert len(xs) == 3
    for x in xs:
        assert x.shape == grid3.shape
        assert x.min() == 0.0
        assert x.max() == pytest.approx(grid3.period * (grid3.n - 1) / grid3.n)


def test_grid_equality_and_mismatch(grid2):
    assert grid2 == TorusGrid(2, 32)
    other = TorusGrid(2, 64)
    with pytest.raises(GridError):
        grid2.require_same(other)


@pytest.mark.parametrize("d,n", [(2, 32), (3, 16)])
def test_to_physical_is_irfftn_to_the_bit(d, n, rng):
    grid = TorusGrid(d, n)
    shape = (3,) + grid.spec_shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kept = coeffs.copy()
    want = scipy.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(1, d + 1)),
                            norm="forward")
    np.testing.assert_array_equal(grid.to_physical(coeffs), want)
    np.testing.assert_array_equal(coeffs, kept)
    # handed-over scratch and a caller-owned output give the same bits
    out = np.empty(want.shape)
    assert grid.to_physical(coeffs, overwrite_x=True, out=out) is out
    np.testing.assert_array_equal(out, want)
