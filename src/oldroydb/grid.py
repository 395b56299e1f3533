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

``to_physical`` and ``to_spectral`` are the one transform pair.  The inverse
runs as separate passes, ``scipy.fft.ifft`` over each leading spatial axis
and ``numpy.fft.irfft`` over the last, so that a caller can hand over its
coefficients as scratch (``overwrite_x``) and receive the samples into a
buffer it owns (``out``): a call then allocates nothing of the field's size.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft


class GridError(ValueError):
    """Structural problem with a grid: bad size, dimension, or mismatch."""


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
        if period <= 0:
            raise GridError(f"period must be positive, got {period}")
        self.d = int(d)
        self.n = int(n)
        self.period = float(period)
        self.shape = (self.n,) * self.d
        self.volume = self.period**self.d
        self.cell_volume = (self.period / self.n) ** self.d

        #: shape of a stored coefficient array: the half spectrum m_last >= 0
        self.spec_shape = self.shape[:-1] + (self.n // 2 + 1,)

        m = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
        mesh = np.meshgrid(*([m] * (d - 1) + [np.arange(n // 2 + 1)]), indexing="ij")
        #: integer wavevectors on the half spectrum, shape (d,) + spec_shape
        self.k_int = np.stack(mesh)
        self.k_scale = 2.0 * np.pi / self.period
        #: physical wavevectors k = k_scale * k_int
        self.k = self.k_scale * self.k_int
        self.k2 = np.sum(self.k * self.k, axis=0)
        self.kmag = np.sqrt(self.k2)

        nyq = n // 2
        #: modes with a resolvable -k partner (drops the |m_i| = n/2 lines)
        self.mode_mask = np.all(np.abs(self.k_int) != nyq, axis=0)
        #: sharp 2/3-rule mask for quadratic products
        self.dealias_mask = (
            np.all(np.abs(self.k_int) <= n // 3, axis=0) & self.mode_mask
        )
        #: Parseval weight of each stored mode: 2 where it also stands for -k
        self.multiplicity = np.where((self.k_int[-1] > 0) & (self.k_int[-1] < nyq),
                                     2.0, 1.0)
        # index map realizing m -> -m per axis
        self._neg = (n - np.arange(n)) % n

    @functools.cached_property
    def shells(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct |k|^2 on the half grid, ascending, and the index of each
        mode's shell, shaped ``spec_shape``: ``shells[0][shells[1]] == k2``.

        Radial tables (the propagator, the dyadic partition) are evaluated
        once per shell and gathered through the index.
        """
        k2, inverse = np.unique(self.k2, return_inverse=True)
        # the shape of the inverse differs across numpy 2.0.x releases
        return k2, inverse.reshape(self.spec_shape)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Physical coordinate meshes, one array per axis."""
        x = np.arange(self.n) * (self.period / self.n)
        return tuple(np.meshgrid(*([x] * self.d), indexing="ij"))

    def reflect(self, coeffs: np.ndarray) -> np.ndarray:
        """The m_last = 0 plane of a half-spectrum array, reindexed from k to -k.

        Spatial axes come last; the result drops the last one.  This plane
        is the only place where both k and -k are stored.
        """
        out = coeffs[..., 0]
        for ax in range(1 - self.d, 0):
            out = np.take(out, self._neg, axis=ax)
        return out

    def to_physical(self, coeffs: np.ndarray, *, overwrite_x: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Real samples of half-spectrum coefficients (spatial axes last).

        Runs the passes of ``irfftn`` one axis at a time, with the same
        result to the bit: complex inverse transforms over the leading
        spatial axes, then the real inverse transform over the last one
        into ``out`` (a fresh array if None).  The first complex pass copies
        ``coeffs`` and the others run in place on that copy, as ``irfftn``
        does on its internal temporary.  With ``overwrite_x=True`` a
        C-contiguous complex128 ``coeffs`` is that scratch instead: every
        pass runs in place on it and leaves it holding partial transforms.
        """
        tmp = coeffs
        for ax in range(coeffs.ndim - self.d, coeffs.ndim - 1):
            tmp = scipy.fft.ifft(tmp, axis=ax, norm="forward",
                                 overwrite_x=overwrite_x or tmp is not coeffs)
        return np.fft.irfft(tmp, n=self.n, axis=-1, norm="forward", out=out)

    def to_spectral(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of real samples, times ``mask``.

        ``rfftn`` leaves the m_last = 0 plane Hermitian only to rounding;
        averaging it with its conjugate mirror makes it exact.
        """
        axes = tuple(range(values.ndim - self.d, values.ndim))
        coeffs = scipy.fft.rfftn(values, axes=axes, norm="forward")
        coeffs[..., 0] = 0.5 * (coeffs[..., 0] + np.conj(self.reflect(coeffs)))
        coeffs *= mask
        return coeffs

    @property
    def k_nyquist(self) -> float:
        """Largest resolved per-axis wavenumber, in units of k_scale."""
        return self.n / 2.0

    @property
    def kmag_max(self) -> float:
        """Largest resolved |k| (corner mode), in units of k_scale."""
        return float(np.sqrt(self.d) * (self.n // 2 - 1))

    def same_as(self, other: "TorusGrid") -> bool:
        return other is self or (
            self.d == other.d
            and self.n == other.n
            and math.isclose(self.period, other.period, rel_tol=0.0, abs_tol=1e-15)
        )

    def require_same(self, other: "TorusGrid") -> None:
        if not self.same_as(other):
            raise GridError(
                f"grid mismatch: ({self.d},{self.n},{self.period}) vs "
                f"({other.d},{other.n},{other.period})"
            )

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and self.same_as(other)

    def __hash__(self):
        return hash((self.d, self.n, self.period))

    def __repr__(self):
        return f"TorusGrid(d={self.d}, n={self.n}, period={self.period:g})"


@functools.lru_cache(maxsize=1)
def leray_tables(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """``grid.k`` and ``where(grid.k2 == 0, 1, grid.k2)`` as complex128, for
    the most recent grid.

    The multipliers of the Leray projection and of the divergence residual.
    Held complex, the products and the quotient with complex coefficients
    run without numpy casting a real table chunk by chunk, to the same bits:
    a cast gives the same zero imaginary part.  Kept for one grid only, in
    this cache rather than on the grid, so the many equal grids of a twin
    run or a sweep share one set; read-only, since every caller shares them.
    """
    tables = (grid.k.astype(np.complex128),
              np.where(grid.k2 == 0.0, 1.0, grid.k2).astype(np.complex128))
    for table in tables:
        table.flags.writeable = False
    return tables
