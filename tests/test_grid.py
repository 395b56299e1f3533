import weakref

import numpy as np
import pytest
import scipy.fft

from oldroydb.grid import (
    GridError,
    TorusGrid,
    _leray_sets,
    derivative_tables,
    leray_tables,
)
from oldroydb.littlewood_paley import DyadicPartition, build_partition
from oldroydb.solver import (
    FluidParams,
    LinearPropagator,
    block_coefficients,
    friedrichs_mask,
    random_band,
    rhs_band,
)
from spectral_checks import coords

PARAMS = FluidParams(re=2.0, we=0.5, omega=0.3, alpha=0.5)


@pytest.mark.parametrize("d,n", [(1, 32), (4, 32), (2, 31), (2, 4), (2, 0)])
def test_rejects_bad_dimensions(d, n):
    with pytest.raises(GridError):
        TorusGrid(d, n)


@pytest.mark.parametrize("d,n,period", [(2, 32, 2.0 * np.pi), (3, 16, 1.0)])
def test_shells_index_every_mode(d, n, period):
    grid = TorusGrid(d, n, period)
    k2, inverse = grid.half.shells
    assert inverse.shape == grid.spec_shape
    assert np.all(np.diff(k2) > 0.0)
    np.testing.assert_array_equal(k2[inverse], grid.half.k2)
    assert grid.half.shells is grid.half.shells


def test_wavevectors_are_integers_times_scale(grid2):
    assert grid2.k_scale == pytest.approx(1.0)
    np.testing.assert_array_equal(grid2.half.k, grid2.half.k_int.astype(float))
    assert grid2.half.k_int[0].max() == grid2.n // 2 - 1
    assert grid2.half.k_int[0].min() == -grid2.n // 2


def test_reflection_realizes_negation(grid2):
    # reflect maps the k_last = 0 plane, where both k and -k are stored
    k = grid2.half.k_int
    refl = np.stack([grid2.reflect(k[i]) for i in range(grid2.d)])
    mask = grid2.mode_mask[..., 0]
    np.testing.assert_array_equal(refl[:, mask], -k[..., 0][:, mask])


def test_mode_mask_drops_nyquist_lines(grid2):
    nyq = grid2.n // 2
    on_nyquist = np.any(np.abs(grid2.half.k_int) == nyq, axis=0)
    assert not np.any(grid2.mode_mask & on_nyquist)
    assert np.all(grid2.mode_mask | on_nyquist)


@pytest.mark.parametrize("d,n,period", [(2, 32, 2 * np.pi), (3, 16, 2 * np.pi), (3, 8, 3.7)])
def test_band_leray_tables_are_the_band_of_the_half_spectrum_tables(d, n, period):
    # built from the grid's band tables, with the bits of the band of the
    # half-spectrum set
    grid = TorusGrid(d, n, period)
    _leray_sets.cache_clear()
    got = leray_tables(grid, grid.dealias_radius)
    for table, full in zip(got, leray_tables(grid)):
        want = grid.to_band(full, grid.dealias_radius)
        assert table.dtype == want.dtype and not table.flags.writeable
        np.testing.assert_array_equal(table.view(np.uint64), want.view(np.uint64))
    # a layout the grid does not hold has no tables
    with pytest.raises(ValueError, match="neither"):
        leray_tables(grid, grid.mode_radius)


def _band_and_half_tables(grid):
    """Every per-mode table a run reads, by name, with the half-spectrum
    table whose band it is."""
    half, band = grid.half, grid.band
    part = DyadicPartition(grid)
    prop = LinearPropagator(grid, PARAMS, 0.05)
    full_coeffs = block_coefficients(half.shells, PARAMS, 0.05)
    np.multiply(1j, full_coeffs[1:3].imag, out=full_coeffs[1:3])
    full_khat = np.zeros(half.k.shape, np.complex128)
    np.divide(half.k, half.kmag, out=full_khat.real, where=half.k2 > 0.0)
    values, index = band.shells
    tables = {name: (getattr(band, name), getattr(half, name))
              for name in ("k_int", "k", "k2", "kmag", "multiplicity")}
    tables.update({
        "shells": (values[index], half.k2),
        "partition": (part.phi_sq(band), part.phi_sq(half)),
        "propagator coefficients": (prop._coeffs, full_coeffs),
        "propagator khat": (prop._khat, full_khat),
        "band Leray k": (leray_tables(grid, grid.dealias_radius)[0], leray_tables(grid)[0]),
        "band Leray k2": (leray_tables(grid, grid.dealias_radius)[1], leray_tables(grid)[1]),
    })
    return tables


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("period", [2 * np.pi, 3.0])
def test_band_tables_are_the_band_of_the_half_spectrum_tables(d, n, period):
    # each table a run reads is built on the 2/3 band, from the band's own
    # wavenumbers and shells, with the bits of the band of its
    # half-spectrum table
    grid = TorusGrid(d, n, period)
    _leray_sets.cache_clear()
    radius = grid.dealias_radius
    for name, (band, full) in _band_and_half_tables(grid).items():
        want = grid.to_band(full, radius)
        assert band.shape == want.shape and band.dtype == want.dtype, name
        assert band.flags.c_contiguous, name
        np.testing.assert_array_equal(band.view(np.uint8), want.view(np.uint8), err_msg=name)
    # one shell table per layout, in ascending order, with every shell used
    for layout in (grid.half, grid.band):
        values, index = layout.shells
        assert layout.shells is layout.shells
        assert np.all(np.diff(values) > 0.0) and len(np.unique(index)) == len(values)
    # the kernel's derivative tables are the half-spectrum k_j on the
    # broadcast shape
    for j, table in enumerate(derivative_tables(grid)):
        got = np.broadcast_to(table, grid.spec_shape).copy()
        assert table.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint8),
                                      grid.half.k[j].astype(np.complex128).view(np.uint8))


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("period", [2 * np.pi, 3.0])
def test_band_cutoff_is_the_band_of_friedrichs_mask(d, n, period):
    # rhs_band cuts its tendencies with the band of friedrichs_mask, to the bit
    grid = TorusGrid(d, n, period)
    x = random_band(grid, 3, (1.0, n / 3), 0.0, 0.1)
    full = rhs_band(grid, x, PARAMS)
    want = full.copy()
    half = friedrichs_mask(grid, 2.5)
    band = friedrichs_mask(grid, 2.5, grid.band)
    np.testing.assert_array_equal(band.view(np.uint64),
                                  grid.to_band(half, grid.dealias_radius).view(np.uint64))
    mask = band.astype(np.complex128)
    for row in want:
        row *= mask
    assert 0 < np.count_nonzero(want) < np.count_nonzero(full)
    got = rhs_band(grid, x, PARAMS, 2.5)
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def test_half_spectrum_tables_are_formed_on_first_read():
    grid = TorusGrid(3, 16)
    assert not {"half", "band", "mode_mask", "dealias_mask"} & set(vars(grid))
    half = grid.half
    assert grid.half is half and "band" not in vars(grid)
    assert not {"k_int", "k", "k2", "kmag", "multiplicity", "shells"} & set(vars(half))
    assert half.k2 is half.k2 and half.multiplicity.shape == grid.spec_shape
    assert {"k_int", "k", "k2", "multiplicity"} <= set(vars(half))


def test_layout_of_finds_each_layout():
    grid = TorusGrid(2, 16)
    assert grid.layout_of(grid.spec_shape) is grid.half
    band = grid.layout_of(grid.band_shape(grid.dealias_radius))
    assert band is grid.band and band.shape == grid.band_shape(grid.dealias_radius)
    assert (grid.half.radius, band.radius) == (None, grid.dealias_radius)
    for shape in (grid.shape, grid.band_shape(grid.mode_radius), grid.spec_shape[1:]):
        with pytest.raises(ValueError, match="neither"):
            grid.layout_of(shape)
    # the tables hold no grid, so a dropped grid is freed at once, with
    # its tables, without the cycle collector
    k2 = weakref.ref(grid.band.k2)
    ref = weakref.ref(grid)
    del grid, band
    assert ref() is None and k2() is None


def test_equal_grids_hash_equal():
    # equality allows the periods' last bits to differ; the hash must too,
    # or a cache keyed by grid builds a second copy for an equal grid
    grid = TorusGrid(2, 16, 2 * np.pi)
    other = TorusGrid(2, 16, np.nextafter(2 * np.pi, 7))
    assert grid == other and grid.period != other.period
    assert hash(grid) == hash(other)
    build_partition.cache_clear()
    assert build_partition(other) is build_partition(grid)
    assert build_partition.cache_info().currsize == 1


def test_dealias_mask_is_two_thirds_rule(grid2):
    lim = grid2.n // 3
    inside = np.all(np.abs(grid2.half.k_int) <= lim, axis=0)
    np.testing.assert_array_equal(grid2.dealias_mask, inside & grid2.mode_mask)


def test_coords_cover_the_box(grid3):
    xs = coords(grid3)
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


def _rfftn_oracle(values, d, mask):
    """``scipy.fft.rfftn`` with the m_last = 0 plane made exactly Hermitian
    (the mean of c(k) and conj c(-k)), zero outside ``mask``."""
    n = values.shape[-1]
    c = scipy.fft.rfftn(values, axes=tuple(range(values.ndim - d, values.ndim)),
                        norm="forward")
    mirror = c[..., 0]
    for ax in range(1 - d, 0):
        mirror = np.take(mirror, (n - np.arange(n)) % n, axis=ax)
    c[..., 0] = 0.5 * (c[..., 0] + np.conj(mirror))
    return np.where(mask, c, 0.0)


def _layouts(values):
    """The samples C-ordered, Fortran-ordered and as a strided view."""
    strided = np.empty(values.shape[:-1] + (2 * values.shape[-1],))[..., ::2]
    strided[...] = values
    return values, np.asfortranarray(values), strided


class TestForwardBand:
    """The band-pruned forward transform against ``rfftn``, to the bit."""

    @pytest.mark.parametrize("d,n", [(2, 8), (2, 16), (2, 32), (2, 64),
                                     (3, 8), (3, 16), (3, 32), (3, 64)])
    def test_gives_the_bits_of_rfftn_on_the_band(self, d, n):
        grid = TorusGrid(d, n)
        values = np.random.default_rng(d * n).standard_normal((2,) + grid.shape)
        scratch = np.empty((2,) + grid.spec_shape, complex)
        for radius, mask in ((grid.dealias_radius, grid.dealias_mask),
                             (grid.mode_radius, grid.mode_mask)):
            want = _rfftn_oracle(values, d, mask)
            for layout in _layouts(values):
                kept = layout.copy()
                out = np.empty((2,) + grid.band_shape(radius), complex)
                assert grid.forward_band(layout, radius, scratch=scratch, out=out) is out
                np.testing.assert_array_equal(out.view(np.uint64),
                                              grid.to_band(want, radius).view(np.uint64))
                np.testing.assert_array_equal(grid.to_spectral(layout, radius)
                                              .view(np.uint64), want.view(np.uint64))
                np.testing.assert_array_equal(layout, kept)

    @pytest.mark.parametrize("d,n", [(2, 8), (2, 32), (3, 8), (3, 16)])
    def test_band_support_is_the_mask(self, d, n):
        grid = TorusGrid(d, n)
        rng = np.random.default_rng(n)
        for radius, mask in ((grid.dealias_radius, grid.dealias_mask),
                             (grid.mode_radius, grid.mode_mask)):
            shape = (1,) + grid.band_shape(radius)
            assert grid.to_band(mask, radius).all()
            assert np.count_nonzero(mask) == np.prod(shape)
            # every band position lands on its own mode
            band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            full = grid.from_band(band, radius)
            assert full.shape == (1,) + grid.spec_shape
            np.testing.assert_array_equal(grid.to_band(full, radius), band)
            assert not np.any(full[:, ~mask])

    def test_band_reflection_realizes_negation(self, grid3):
        band = grid3.to_band(grid3.half.k_int, grid3.dealias_radius)
        refl = np.stack([grid3.reflect(band[i]) for i in range(grid3.d)])
        np.testing.assert_array_equal(refl, -band[..., 0])


@pytest.mark.parametrize("period", [1e300, 1e-300, 1e160, 1e-160, 10**400, 0.0, -1.0,
                                    float("nan"), float("inf")],
                         ids=["1e300", "1e-300", "1e160", "1e-160", "10**400", "zero",
                              "negative", "nan", "inf"])
def test_period_out_of_range_is_a_grid_error(period):
    # 1e160: a finite k_scale, but the 2-d box volume overflows; 1e-160:
    # both volumes are nonzero (subnormal), but the largest |k|^2 overflows
    with np.errstate(all="raise"):
        with pytest.raises(GridError, match="period"):
            TorusGrid(2, 8, period)


def test_extreme_but_representable_periods(recwarn):
    for d, period in ((2, 1e150), (3, 1e-90)):
        grid = TorusGrid(d, 8, period)
        assert 0.0 < grid.volume < np.inf and 0.0 < grid.cell_volume < np.inf
        assert np.all(np.isfinite(grid.half.k2)) and np.all(grid.half.k2.ravel()[1:] > 0.0)
    assert not recwarn.list
