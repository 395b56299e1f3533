"""Periodic torus discretization with real-FFT wavevector bookkeeping.

The grid lives on ``[0, period)^d`` with ``n`` points per axis.  Wavevectors
are ``k = (2*pi/period) * m`` for integer ``m``.  Every field is real, so its
coefficients are Hermitian, ``c(-k) == conj(c(k))``, and only the half
spectrum ``m_last >= 0`` is stored: ``spec_shape = (n, ..., n, n//2 + 1)``,
the layout of ``scipy.fft.rfftn``, with standard FFT ordering on the other
axes.  Outside the ``m_last = 0`` plane each stored mode stands for itself
and its mirror, so sums over modes weight by ``multiplicity`` (1 on that
plane and on the Nyquist column, 2 elsewhere) to obey Parseval.

The grid also carries the masks everybody needs, on the half spectrum: the
set of usable modes (the unpaired Nyquist lines ``|m_i| = n/2`` are
excluded), and the sharp 2/3-rule mask used to dealias quadratic products.

Every wavenumber table is built from the integer wavenumbers of each axis
(``axis_modes``), by one class for every layout, ``LayoutTables`` (``k_int``,
``k``, ``k2``, ``kmag``, ``multiplicity`` and ``shells``, each formed on
first read).  The grid holds one per layout: ``half``, read by the fields,
the snapshots and the half-spectrum ledger row, and ``band``, the 2/3-rule
band, the only one a run reads, whose tables have the bits of the band of
the half spectrum's.  ``layout_of`` finds the layout of a per-mode array
by its shape.  The masks are formed on first read too.

Both masks are bands: the modes with ``|m_i| <= M`` on every axis, M =
``dealias_radius`` (``n // 3``) for the 2/3 rule and ``mode_radius``
(``n/2 - 1``) for the usable modes.  A band is also stored compactly, shape
``band_shape(M) = (2M+1, ..., 2M+1, M+1)``, FFT-ordered on each leading
axis (rows 0..M, then -M..-1); ``band_slabs`` pairs its 2^(d-1) row blocks
with theirs in the half spectrum (``to_band``, ``from_band``).

``to_physical`` and ``to_spectral`` are the one transform pair.  The inverse
runs as separate passes (``inverse_passes``), ``scipy.fft.ifft`` over each
leading spatial axis and ``numpy.fft.irfft`` over the last, so that a caller
can hand over its coefficients as scratch (``overwrite_x``) and receive the
samples into a buffer it owns (``out``): a call then allocates nothing of
the field's size.  A caller may also run the passes in stretches: a
derivative ``i k_j c`` commutes with the passes over the other axes, so the
gradient of a field can share the passes before axis ``j`` with the field.
The forward transform is pruned to a band (``forward_band``): it computes
only the rows the band keeps, to the bits of ``scipy.fft.rfftn`` there.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.fft


class GridError(ValueError):
    """Structural problem with a grid: bad size, dimension, or mismatch."""


def period_scales(d: int, n: int, period: float) -> tuple[float, float, float, float]:
    """``(period, volume, cell_volume, k_scale)`` of a grid of ``n**d``
    points, as floats.

    Raises ``GridError`` unless the box and cell volumes and every squared
    wavenumber ``|k|^2`` (from ``k_scale**2`` to ``d (k_scale n/2)**2``) are
    finite and nonzero: at an extreme period the Parseval weights or the
    wavenumber tables would overflow or underflow to zero.
    """
    try:
        p = float(period)
        k_scale = 2.0 * np.pi / p
        scales = (p, p**d, (p / n) ** d, k_scale**2, d * (k_scale * (n // 2)) ** 2)
    except (OverflowError, ZeroDivisionError):
        scales = (np.inf,)
    if not all(0.0 < x < np.inf for x in scales):
        raise GridError(f"period must be positive, with a finite nonzero box volume "
                        f"and wavenumbers at d={d}, n={n}; got {period!r}")
    return p, scales[1], scales[2], k_scale


def _rows(axis: int, start: int, stop: int) -> tuple:
    """Index of rows start..stop-1 along ``axis``, all of the other axes."""
    return (slice(None),) * axis + (slice(start, stop),)


class LayoutTables:
    """The per-mode wavenumber tables of one layout of a grid's
    coefficients: the half spectrum (``radius`` None) or the compact band
    of ``radius``, built from the layout's integer wavenumbers
    (``grid.axis_modes(radius)``) and each formed on first read.

    ``TorusGrid`` holds one per layout, ``grid.half`` and ``grid.band``
    (``dealias_radius``).  The band's tables have the bits of the band
    (``to_band``) of the half spectrum's: both run one recipe on the same
    wavenumbers.  No reference to the grid is kept, so a grid and its
    tables are freed together without the cycle collector.
    """

    def __init__(self, grid: TorusGrid, radius: int | None):
        self.radius = radius
        self.modes = grid.axis_modes(radius)
        self.shape = tuple(len(m) for m in self.modes)
        self._k_scale, self._nyquist = grid.k_scale, grid.n // 2

    @functools.cached_property
    def k_int(self) -> np.ndarray:
        """Integer wavevectors, shape ``(d,) + shape``."""
        return np.stack(np.meshgrid(*self.modes, indexing="ij"))

    @functools.cached_property
    def k(self) -> np.ndarray:
        """Physical wavevectors k = k_scale * k_int."""
        return self._k_scale * self.k_int

    @functools.cached_property
    def k2(self) -> np.ndarray:
        """|k|^2."""
        return np.sum(self.k * self.k, axis=0)

    @functools.cached_property
    def kmag(self) -> np.ndarray:
        """|k|."""
        return np.sqrt(self.k2)

    @functools.cached_property
    def multiplicity(self) -> np.ndarray:
        """The Parseval weight of each mode: 2 where the stored mode also
        stands for -k, 1 on the m_last = 0 plane and on the Nyquist column."""
        last = self.modes[-1]
        weight = np.where((last > 0) & (last < self._nyquist), 2.0, 1.0)
        return np.broadcast_to(weight, self.shape).astype(np.float64, order="C")

    @functools.cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct |k|^2, ascending, and the index of each mode's shell,
        shaped ``shape``: ``shells[0][shells[1]] == k2``.

        Radial tables (the partition's, the propagator's coefficients) are
        evaluated once per shell and gathered through the index.
        """
        k2, inverse = np.unique(self.k2, return_inverse=True)
        # the shape of the inverse differs across numpy 2.0.x releases
        return k2, inverse.reshape(self.shape)


class TorusGrid:
    """Uniform periodic grid of ``n**d`` points carrying spectral index maps.

    Parameters
    ----------
    d : spatial dimension, 2 or 3
    n : points per axis, a power of two, at least 8
    period : box length (the default ``2*pi`` makes wavevectors integers)
    """

    def __init__(self, d: int, n: int, period: float = 2.0 * np.pi):
        if d not in (2, 3):
            raise GridError(f"dimension must be 2 or 3, got {d}")
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"n must be a power of two >= 8, got {n}")
        self.d = int(d)
        self.n = int(n)
        self.period, self.volume, self.cell_volume, self.k_scale = period_scales(
            self.d, self.n, period)
        self.shape = (self.n,) * self.d

        #: shape of a stored coefficient array: the half spectrum m_last >= 0
        self.spec_shape = self.shape[:-1] + (self.n // 2 + 1,)

        nyq = n // 2
        #: radius of the band of usable modes (drops the |m_i| = n/2 lines)
        self.mode_radius = nyq - 1
        #: radius of the 2/3-rule band that quadratic products keep
        self.dealias_radius = n // 3

    def axis_modes(self, radius: int | None = None) -> list[np.ndarray]:
        """The integer wavenumber at each index of each axis, as int64: of
        the half spectrum (``radius`` None: FFT order on the leading axes,
        ``0..n//2`` on the last) or of the compact band of ``radius``
        (rows ``0..M`` then ``-M..-1`` on the leading axes, ``0..M`` on the
        last).  Every wavenumber table is built from these."""
        n, d = self.n, self.d
        if radius is None:
            lead = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
            last = np.arange(n // 2 + 1, dtype=np.int64)
        else:
            lead = np.concatenate((np.arange(radius + 1), np.arange(-radius, 0))).astype(np.int64)
            last = np.arange(radius + 1, dtype=np.int64)
        return [lead] * (d - 1) + [last]

    @functools.cached_property
    def half(self) -> LayoutTables:
        """The tables of the half spectrum, formed on first read."""
        return LayoutTables(self, None)

    @functools.cached_property
    def band(self) -> LayoutTables:
        """The tables of the 2/3-rule band, the ones a run reads."""
        return LayoutTables(self, self.dealias_radius)

    def layout_of(self, shape: tuple[int, ...]) -> LayoutTables:
        """The tables of the layout of per-mode arrays of trailing
        ``shape``: the half spectrum (``spec_shape``) or the 2/3-rule band
        (``band_shape(dealias_radius)``); ``ValueError`` for any other."""
        if shape == self.spec_shape:
            return self.half
        if shape == self.band_shape(self.dealias_radius):
            return self.band
        raise ValueError(f"per-mode arrays of shape {shape} are neither the half "
                         f"spectrum {self.spec_shape} nor the 2/3-rule band")

    @functools.cached_property
    def mode_mask(self) -> np.ndarray:
        """Modes with a resolvable -k partner (drops the |m_i| = n/2 lines)."""
        return np.all(np.abs(self.half.k_int) != self.n // 2, axis=0)

    @functools.cached_property
    def dealias_mask(self) -> np.ndarray:
        """Sharp 2/3-rule mask for quadratic products."""
        return np.all(np.abs(self.half.k_int) <= self.dealias_radius, axis=0) & self.mode_mask

    def reflect(self, coeffs: np.ndarray) -> np.ndarray:
        """The m_last = 0 plane of a half-spectrum or band array, reindexed
        from k to -k.

        Spatial axes come last; the result drops the last one.  This plane
        is the only place where both k and -k are stored.  Both layouts are
        FFT-ordered on the leading axes, so an axis of length L maps index i
        to (L - i) % L.
        """
        out = coeffs[..., 0]
        for ax in range(1 - self.d, 0):
            size = out.shape[ax]
            out = np.take(out, (size - np.arange(size)) % size, axis=ax)
        return out

    def band_shape(self, radius: int) -> tuple[int, ...]:
        """Shape of a compact band of ``radius``: ``(2M+1, ..., 2M+1, M+1)``."""
        return (2 * radius + 1,) * (self.d - 1) + (radius + 1,)

    def band_slabs(self, radius: int) -> list[tuple[tuple, tuple]]:
        """Index pairs ``(spectrum, band)`` of the band's 2^(d-1) blocks.

        On each leading axis the band keeps rows 0..M (band rows 0..M) and
        -M..-1 (spectrum rows n-M..n-1, band rows M+1..2M); on the last axis
        columns 0..M.  Spatial axes come last, so the indices apply to
        arrays with any leading component axes.
        """
        n, m = self.n, radius
        rows = ((slice(0, m + 1), slice(0, m + 1)),
                (slice(n - m, n), slice(m + 1, 2 * m + 1)))
        cols = slice(0, m + 1)
        return [((...,) + tuple(full for full, _ in blocks) + (cols,),
                 (...,) + tuple(band for _, band in blocks) + (cols,))
                for blocks in itertools.product(rows, repeat=self.d - 1)]

    def to_band(self, coeffs: np.ndarray, radius: int,
                out: np.ndarray | None = None) -> np.ndarray:
        """The band of ``radius`` of half-spectrum coefficients, written
        into ``out`` if given, else into a fresh compact array."""
        if out is None:
            out = np.empty(coeffs.shape[:-self.d] + self.band_shape(radius), coeffs.dtype)
        for full, band in self.band_slabs(radius):
            out[band] = coeffs[full]
        return out

    def from_band(self, band: np.ndarray, radius: int,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Half-spectrum coefficients of a compact band of ``radius``: the
        band written into zeros, a fresh array, or into the band of ``out``,
        whose entries outside the band are left as they are."""
        if out is None:
            out = np.zeros(band.shape[:-self.d] + self.spec_shape, band.dtype)
        for full, compact in self.band_slabs(radius):
            out[full] = band[compact]
        return out

    def inverse_passes(self, x: np.ndarray, start: int = 0, stop: int | None = None, *,
                       overwrite_x: bool = False,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Passes ``start`` to ``stop - 1`` (to the last by default) of the
        inverse transform of a half spectrum (spatial axes last).

        Pass ``j < d - 1`` is the complex inverse transform over spatial axis
        ``j`` (``scipy.fft.ifft``); pass ``d - 1``, the last, is the real
        inverse transform over the last axis (``numpy.fft.irfft``) into
        ``out`` (a fresh array if None), which leaves its input as it was.
        The first complex pass copies ``x`` and the others run
        in place on that copy, as ``irfftn`` does on its internal temporary;
        with ``overwrite_x=True`` a C-contiguous complex128 ``x`` is that
        scratch instead, and every complex pass runs in place on it.
        """
        stop = self.d if stop is None else stop
        lead = x.ndim - self.d
        for axis in range(start, stop):
            if axis == self.d - 1:
                return np.fft.irfft(x, n=self.n, axis=-1, norm="forward", out=out)
            x = scipy.fft.ifft(x, axis=lead + axis, norm="forward",
                               overwrite_x=overwrite_x or axis > start)
        return x

    def to_physical(self, coeffs: np.ndarray, *, overwrite_x: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Real samples of half-spectrum coefficients (spatial axes last).

        Runs every pass of ``inverse_passes``, the passes of ``irfftn`` one
        axis at a time, with the same result to the bit.  With
        ``overwrite_x=True`` the coefficients are handed over as scratch and
        left holding partial transforms; ``out`` receives the samples.
        """
        return self.inverse_passes(coeffs, overwrite_x=overwrite_x, out=out)

    def _forward_passes(self, values: np.ndarray, radius: int,
                        scratch: np.ndarray) -> np.ndarray:
        """The band of the forward transform of ``values``, exactly Hermitian,
        as a compact view at the start of ``scratch`` (of shape
        ``values.shape[:-1] + (n//2 + 1,)``): rows 0..2M on each leading
        axis, columns 0..M."""
        n, m = self.n, radius
        x = np.fft.rfft(values, axis=-1, norm="forward", out=scratch)[..., :m + 1]
        for axis in range(x.ndim - self.d, x.ndim - 1):
            x = scipy.fft.fft(x, axis=axis, norm="forward", overwrite_x=True)
            x[_rows(axis, m + 1, 2 * m + 1)] = x[_rows(axis, n - m, n)]
            x = x[_rows(axis, 0, 2 * m + 1)]
        # 0.5 (x + conj(mirror)) on the plane, formed in place in the
        # mirror: one plane of temporaries beyond the reindexing's
        mirror = self.reflect(x)
        np.conjugate(mirror, out=mirror)
        mirror += x[..., 0]
        mirror *= 0.5
        x[..., 0] = mirror
        return x

    def forward_band(self, values: np.ndarray, radius: int, *,
                     scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Band of ``radius`` of the half-spectrum coefficients of real
        samples (spatial axes last), exactly Hermitian, written into
        ``out`` (shape ``values.shape[:-d] + band_shape(radius)``).

        The passes of ``scipy.fft.rfftn`` pruned to the band, with its bits
        there: ``numpy.fft.rfft`` over the last axis, into ``scratch`` (of
        shape ``values.shape[:-1] + (n//2 + 1,)``), keeps columns 0..M;
        each ``scipy.fft.fft`` over a leading axis, in increasing axis order
        as ``rfftn`` runs them (the other order is not bitwise at d=3), runs
        in place on the rows kept so far and keeps rows 0..M and -M..-1,
        the second slab moved up next to the first.  Each pass scales by
        ``1/n``, a power of two, so the scaling is exact.  ``rfftn`` leaves
        the m_last = 0 plane Hermitian only to rounding; averaging it with
        its conjugate mirror, which the band holds, makes it exact.
        """
        out[...] = self._forward_passes(values, radius, scratch)
        return out

    def to_spectral(self, values: np.ndarray, radius: int) -> np.ndarray:
        """Half-spectrum coefficients of real samples, kept on the band of
        ``radius`` (``dealias_radius`` or ``mode_radius``) and zero outside.

        The band of the passes of ``forward_band`` is spread out in place in
        the array they ran in, undoing the slab moves axis by axis in
        reverse, so the call holds one coefficient array.
        """
        n, m = self.n, radius
        lead = values.ndim - self.d
        coeffs = np.empty(values.shape[:lead] + self.spec_shape, np.complex128)
        self._forward_passes(values, radius, coeffs)
        for axis in range(values.ndim - 2, lead - 1, -1):
            # the band so far: rows 0..2M on the axes before this one
            block = coeffs[(...,) + (slice(0, 2 * m + 1),) * (axis - lead)
                           + (slice(None),) * (values.ndim - 1 - axis) + (slice(0, m + 1),)]
            block[_rows(axis, n - m, n)] = block[_rows(axis, m + 1, 2 * m + 1)]
            block[_rows(axis, m + 1, n - m)] = 0.0
        coeffs[..., m + 1:] = 0.0
        return coeffs

    @property
    def k_nyquist(self) -> float:
        """Largest resolved per-axis wavenumber, in units of k_scale."""
        return self.n / 2.0

    def matches(self, d: int, n: int, period: float) -> bool:
        """Whether this is the grid of ``d``, ``n`` and ``period`` (to 1e-15)."""
        return (self.d == d and self.n == n
                and math.isclose(self.period, period, rel_tol=0.0, abs_tol=1e-15))

    def same_as(self, other: "TorusGrid") -> bool:
        return other is self or self.matches(other.d, other.n, other.period)

    def require_same(self, other: "TorusGrid") -> None:
        if not self.same_as(other):
            raise GridError(
                f"grid mismatch: ({self.d},{self.n},{self.period}) vs "
                f"({other.d},{other.n},{other.period})"
            )

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and self.same_as(other)

    def __hash__(self):
        # equal grids may differ in their periods' last bits
        return hash((self.d, self.n))

    def __repr__(self):
        return f"TorusGrid(d={self.d}, n={self.n}, period={self.period:g})"


@functools.lru_cache(maxsize=1)
def _leray_sets(grid: TorusGrid) -> dict:
    """The Leray tables of the most recent grid, by layout radius."""
    return {}


def leray_tables(grid: TorusGrid, radius: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """``k`` and ``where(k2 == 0, 1, k2)`` as complex128 on the layout of
    ``radius``: the half spectrum (None) or the 2/3-rule band
    (``dealias_radius``; ``ValueError`` for any other).

    The multipliers of the Leray projection and of the divergence residual:
    on the half spectrum of fields (``leray_project``,
    ``VectorField.divergence_residual``, ``EnergyLedger.update``), on the
    band of a run's states and tendencies (the solver's projections, the
    band ledger row).  No run forms the half-spectrum set.  Held complex,
    the products and the quotient with complex coefficients run without
    numpy casting a real table chunk by chunk, to the same bits: a cast
    gives the same zero imaginary part.  One set per layout is kept, for
    the most recent grid only, in this cache rather than on the grid, so
    the many equal grids of a twin run or a sweep share one set;
    read-only, since every caller shares them.
    """
    sets = _leray_sets(grid)
    if radius not in sets:
        shape = grid.spec_shape if radius is None else grid.band_shape(radius)
        layout = grid.layout_of(shape)
        tables = (layout.k.astype(np.complex128),
                  np.where(layout.k2 == 0.0, 1.0, layout.k2).astype(np.complex128))
        for table in tables:
            table.flags.writeable = False
        sets[radius] = tables
    return sets[radius]


def derivative_tables(grid: TorusGrid) -> tuple[np.ndarray, ...]:
    """``grid.half.k[j]`` as complex128 for each axis ``j``, each the smallest
    table that broadcasts against ``grid.spec_shape`` in long inner loops,
    built from the axis's wavenumbers (``grid.axis_modes``).

    ``k_j`` varies along axis ``j`` only.  On a leading axis before the
    last two (axis 0 in 3-d) its table is ``(n, 1, 1)``: the other axes
    coalesce into one loop.  On the last two axes it is a table over those
    two, ``(n, n//2 + 1)``: a 1-D table over the last axis alone leaves
    loops of ``n//2 + 1`` and runs slower.  A product with a complex
    coefficient has the bits of the product with ``grid.half.k[j]``, which
    numpy casts to the same complex values.  Not cached: the kernel
    scratch that uses them holds them (``operators.kernel_scratch``), a
    few KB each in 3-d (34 KB at n = 64) and 133 KB at d=2, n=128.
    """
    d = grid.d
    modes = grid.axis_modes()
    last_two = grid.spec_shape[-2:]
    tables = []
    for j in range(d):
        k_j = grid.k_scale * modes[j]
        if j < d - 2:
            table = k_j.reshape((1,) * j + (-1,) + (1,) * (d - 1 - j))
        elif j == d - 2:
            table = np.broadcast_to(k_j[:, None], last_two)
        else:
            table = np.broadcast_to(k_j, last_two)
        tables.append(table.astype(np.complex128, order="C"))
    return tuple(tables)
