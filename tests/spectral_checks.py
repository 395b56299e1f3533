"""Diagnostics that only the tests use: coordinate meshes, and the
Hermitian and mean-zero residuals of a half-spectrum field."""

import numpy as np


def coords(grid) -> tuple[np.ndarray, ...]:
    """Physical coordinate meshes of a grid, one array per axis."""
    x = np.arange(grid.n) * (grid.period / grid.n)
    return tuple(np.meshgrid(*([x] * grid.d), indexing="ij"))


def hermitian_residual(f) -> float:
    """Relative deviation from c(-k) == conj(c(k)) on the k_last = 0 plane.

    Everywhere else the half-spectrum layout makes the symmetry structural.
    """
    scale = float(np.max(np.abs(f.coeffs)))
    if scale == 0.0:
        return 0.0
    mirror = f.grid.reflect(f.coeffs)
    return float(np.max(np.abs(mirror - np.conj(f.coeffs[..., 0]))) / scale)


def mean_residual(f) -> float:
    """The largest k = 0 coefficient relative to the largest coefficient."""
    scale = float(np.max(np.abs(f.coeffs)))
    dc = np.abs(f.coeffs[(slice(None),) + (0,) * f.grid.d])
    return float(np.max(dc) / scale) if scale else 0.0
