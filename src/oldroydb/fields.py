"""Spectral fields on a torus: scalars, vectors, symmetric and skew tensors.

A field stores complex Fourier coefficients ``c_k`` normalized so that the
physical values are ``f(x) = sum_k c_k exp(i k.x)``.  Every field is real,
so its coefficients are Hermitian, ``c(-k) == conj(c(k))``, and only the
half spectrum ``k_last >= 0`` is stored: coefficients carry a leading
component axis, shape ``(ncomp,) + grid.spec_shape``; a scalar has
``ncomp == 1``.  Symmetric tensors store only the upper triangle, so their
symmetry is structural; the squared Frobenius magnitude doubles off-diagonal
components through the ``component_weights`` vector.

Physical samples and coefficients convert through the grid's one transform
pair: ``to_physical`` is one real inverse transform (``irfftn``) of all
components, ``from_physical`` one real forward transform (``rfftn``).  No
full-grid complex transform is taken.  Hermitian symmetry off the
``k_last = 0`` plane is structural; on that plane the forward transform
makes it exact, and ``validate`` checks it (and the mean-zero convention)
when asked to.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, TorusGrid, leray_tables

HERMITIAN_RTOL = 1e-12


class FieldError(ValueError):
    """Invalid field data: wrong shape, broken invariant, kind mismatch."""


def _sym_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d) for j in range(i, d))


def _skew_pairs(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(d) for j in range(i + 1, d))


class SpectralField:
    """Base class; use ScalarField / VectorField / SymTensorField / SkewTensorField."""

    kind: str = "abstract"

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        ncomp = self.ncomp_for(grid.d)
        if coeffs.shape != (ncomp,) + grid.spec_shape:
            raise FieldError(
                f"{type(self).__name__} on d={grid.d} expects coeffs of shape "
                f"{(ncomp,) + grid.spec_shape}, got {coeffs.shape}"
            )
        self.grid = grid
        self.coeffs = coeffs

    # ---- component layout -------------------------------------------------

    @classmethod
    def ncomp_for(cls, d: int) -> int:
        raise NotImplementedError

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    def component_weights(self) -> np.ndarray:
        """Multiplicity of each stored component in the full pointwise magnitude."""
        return np.ones(self.ncomp)

    # ---- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, grid: TorusGrid) -> "SpectralField":
        return cls(grid, np.zeros((cls.ncomp_for(grid.d),) + grid.spec_shape,
                                  np.complex128))

    @classmethod
    def from_physical(cls, grid: TorusGrid, values: np.ndarray) -> "SpectralField":
        """Build from real physical samples; pins the mean and Nyquist lines."""
        values = np.asarray(values, dtype=np.float64)
        ncomp = cls.ncomp_for(grid.d)
        if values.shape == grid.shape and ncomp == 1:
            values = values[None]
        if values.shape != (ncomp,) + grid.shape:
            raise FieldError(
                f"physical data must have shape {(ncomp,) + grid.shape}, got {values.shape}"
            )
        coeffs = grid.to_spectral(values, grid.mode_mask)
        coeffs[(slice(None),) + (0,) * grid.d] = 0.0
        return cls(grid, coeffs)

    # ---- conversions ------------------------------------------------------

    def to_physical(self) -> np.ndarray:
        """Real physical samples, shape (ncomp, n, ..., n)."""
        return self.grid.to_physical(self.coeffs)

    def copy(self) -> "SpectralField":
        return type(self)(self.grid, self.coeffs.copy())

    def apply_multiplier(self, mult: np.ndarray) -> "SpectralField":
        """Apply a Fourier multiplier (broadcast over components)."""
        return type(self)(self.grid, self.coeffs * mult)

    # ---- diagnostics ------------------------------------------------------

    def hermitian_residual(self) -> float:
        """Relative deviation from c(-k) == conj(c(k)) on the k_last = 0 plane.

        Everywhere else the half-spectrum layout makes the symmetry structural.
        """
        scale = float(np.max(np.abs(self.coeffs)))
        if scale == 0.0:
            return 0.0
        mirror = self.grid.reflect(self.coeffs)
        return float(np.max(np.abs(mirror - np.conj(self.coeffs[..., 0]))) / scale)

    def mean_residual(self) -> float:
        scale = float(np.max(np.abs(self.coeffs)))
        dc = np.abs(self.coeffs[(slice(None),) + (0,) * self.grid.d])
        return float(np.max(dc) / scale) if scale else 0.0

    def validate(self) -> None:
        if not np.all(np.isfinite(self.coeffs)):
            raise FieldError("non-finite coefficients")
        if self.hermitian_residual() > HERMITIAN_RTOL:
            raise FieldError(
                f"Hermitian symmetry violated: residual {self.hermitian_residual():.3e}"
            )
        if self.mean_residual() > HERMITIAN_RTOL:
            raise FieldError("mean mode is not zero")

    # ---- arithmetic (same kind, same grid) ---------------------------------

    def _check_like(self, other: "SpectralField") -> None:
        if type(other) is not type(self):
            raise FieldError(f"kind mismatch: {self.kind} vs {other.kind}")
        self.grid.require_same(other.grid)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_like(other)
        return type(self)(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_like(other)
        return type(self)(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return type(self)(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(grid={self.grid!r})"


class ScalarField(SpectralField):
    kind = "scalar"

    @classmethod
    def ncomp_for(cls, d: int) -> int:
        return 1


class VectorField(SpectralField):
    """d-component field; used for velocities and tensor divergences."""

    kind = "velocity"

    @classmethod
    def ncomp_for(cls, d: int) -> int:
        return d

    def divergence_residual(self) -> float:
        """max_k |k.u(k)| relative to max_k |u(k)| (0 for the zero field)."""
        scale = float(np.max(np.abs(self.coeffs)))
        if scale == 0.0:
            return 0.0
        k, _ = leray_tables(self.grid)
        div = np.sum(k * self.coeffs, axis=0)
        return float(np.max(np.abs(div)) / scale)


class SymTensorField(SpectralField):
    """Symmetric d x d tensor stored as its upper triangle."""

    kind = "stress"

    @classmethod
    def ncomp_for(cls, d: int) -> int:
        return d * (d + 1) // 2

    @classmethod
    def pairs(cls, d: int) -> tuple[tuple[int, int], ...]:
        return _sym_pairs(d)

    def component_weights(self) -> np.ndarray:
        return np.array([1.0 if i == j else 2.0 for i, j in _sym_pairs(self.grid.d)])

    def component_index(self, i: int, j: int) -> int:
        return _sym_pairs(self.grid.d).index((min(i, j), max(i, j)))

    def full_matrix_physical(self) -> np.ndarray:
        """Physical values as a full tensor, shape (n, ..., n, d, d)."""
        d = self.grid.d
        phys = self.to_physical()
        out = np.empty(self.grid.shape + (d, d))
        for c, (i, j) in enumerate(_sym_pairs(d)):
            out[..., i, j] = phys[c]
            out[..., j, i] = phys[c]
        return out

    @classmethod
    def from_full_matrix_physical(cls, grid: TorusGrid, mat: np.ndarray) -> "SymTensorField":
        comps = np.stack([mat[..., i, j] for i, j in _sym_pairs(grid.d)])
        return cls.from_physical(grid, comps)


class SkewTensorField(SpectralField):
    """Antisymmetric d x d tensor stored as its strict upper triangle."""

    kind = "skew"

    @classmethod
    def ncomp_for(cls, d: int) -> int:
        return d * (d - 1) // 2

    @classmethod
    def pairs(cls, d: int) -> tuple[tuple[int, int], ...]:
        return _skew_pairs(d)

    def component_weights(self) -> np.ndarray:
        return np.full(self.ncomp, 2.0)

    def full_matrix_physical(self) -> np.ndarray:
        d = self.grid.d
        phys = self.to_physical()
        out = np.zeros(self.grid.shape + (d, d))
        for c, (i, j) in enumerate(_skew_pairs(d)):
            out[..., i, j] = phys[c]
            out[..., j, i] = -phys[c]
        return out


FIELD_KINDS = {
    "scalar": ScalarField,
    "velocity": VectorField,
    "stress": SymTensorField,
    "skew": SkewTensorField,
}


def restrict_spectrum(field: SpectralField, coarse: TorusGrid,
                      dealias: bool = True) -> SpectralField:
    """Spectrally coarsen a field onto a smaller grid with the same period.

    Keeps exactly the Fourier modes the coarse grid resolves; with
    ``dealias`` the coarse 2/3-rule band is enforced as well, so quadratic
    products of the restriction stay alias-free.
    """
    fine = field.grid
    if coarse.d != fine.d or coarse.period != fine.period:
        raise FieldError("restriction requires matching dimension and period")
    if coarse.n > fine.n:
        raise FieldError("target grid must be coarser")
    idx = np.r_[0:coarse.n // 2, fine.n - coarse.n // 2:fine.n]
    c = field.coeffs[..., :coarse.n // 2 + 1]
    for ax in range(1, fine.d):
        c = np.take(c, idx, axis=ax)
    c = c * (coarse.dealias_mask if dealias else coarse.mode_mask)
    return type(field)(coarse, c)


# ---- random field factories (deterministic given an rng) -------------------


def _band_mask(grid: TorusGrid, band: tuple[float, float]) -> np.ndarray:
    lo, hi = band
    mag = grid.kmag / grid.k_scale
    return (mag >= lo) & (mag <= hi) & grid.dealias_mask


def random_field(
    cls,
    grid: TorusGrid,
    rng: np.random.Generator,
    band: tuple[float, float] = (1.0, 8.0),
    decay: float = 0.0,
) -> SpectralField:
    """Random real band-limited field with unit-variance Gaussian samples.

    ``decay`` > 0 damps coefficients by ``(1 + |k|)**-decay`` so that samples
    at different resolutions share the same large-scale statistics.
    """
    ncomp = cls.ncomp_for(grid.d)
    phys = rng.standard_normal((ncomp,) + grid.shape)
    field = cls.from_physical(grid, phys)
    mask = _band_mask(grid, band).astype(np.float64)
    if decay > 0.0:
        mask = mask * (1.0 + grid.kmag / grid.k_scale) ** (-decay)
    return field.apply_multiplier(mask)


def random_scalar(grid, rng, band=(1.0, 8.0), decay=0.0) -> ScalarField:
    return random_field(ScalarField, grid, rng, band, decay)


def random_vector(grid, rng, band=(1.0, 8.0), decay=0.0) -> VectorField:
    return random_field(VectorField, grid, rng, band, decay)


def random_sym_tensor(grid, rng, band=(1.0, 8.0), decay=0.0) -> SymTensorField:
    return random_field(SymTensorField, grid, rng, band, decay)
