"""Differential and bilinear operators for torus fields.

Linear operators (derivatives, Leray projection, tensor divergence) act as
exact Fourier multipliers.  Quadratic expressions (advection, the objective
stress term) are evaluated pseudo-spectrally: transform to physical space,
multiply pointwise, transform back, apply the sharp 2/3-rule mask.  All
inner products use Parseval's identity on the coefficient arrays, so no
quadrature error enters them.

The solver's quadratic terms go through ``quadratic_terms``: one batched
real inverse transform of ``[u, grad u, tau, grad tau]`` from the half
spectrum (15 real fields in 2-d, 36 in 3-d), componentwise algebra on the
stored upper triangle, and one batched forward transform of the
``d + d(d+1)/2`` real products (5 in 2-d, 9 in 3-d).  Composed from
``advect`` and ``g_alpha``, the same terms take 19 complex inverse and 8
complex forward transforms in 2-d; those two stay as the per-term API and
as the test oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .fields import (
    FieldError,
    ScalarField,
    SkewTensorField,
    SpectralField,
    SymTensorField,
    VectorField,
)
from .grid import TorusGrid


# ---- linear operators -------------------------------------------------------


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part: u(k) = (I - k k^T / |k|^2) v(k), zero at k=0."""
    grid = v.grid
    k2 = np.where(grid.k2 == 0.0, 1.0, grid.k2)
    kdotv = np.sum(grid.k * v.coeffs, axis=0)
    out = v.coeffs - grid.k * (kdotv / k2)
    out[(slice(None),) + (0,) * grid.d] = 0.0
    return VectorField(grid, out)


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    return VectorField(grid, 1j * grid.k * f.coeffs[0])


def deformation(u: VectorField) -> SymTensorField:
    """Symmetric velocity gradient, D_ij = (d_j u_i + d_i u_j) / 2."""
    grid = u.grid
    comps = [
        0.5j * (grid.k[j] * u.coeffs[i] + grid.k[i] * u.coeffs[j])
        for i, j in SymTensorField.pairs(grid.d)
    ]
    return SymTensorField(grid, np.stack(comps))


def vorticity(u: VectorField) -> SkewTensorField:
    """Antisymmetric velocity gradient, W_ij = (d_j u_i - d_i u_j) / 2."""
    grid = u.grid
    comps = [
        0.5j * (grid.k[j] * u.coeffs[i] - grid.k[i] * u.coeffs[j])
        for i, j in SkewTensorField.pairs(grid.d)
    ]
    return SkewTensorField(grid, np.stack(comps))


def div_tensor(tau: SymTensorField) -> VectorField:
    """(div tau)_i = sum_j d_j tau_ij, exact in Fourier form."""
    grid = tau.grid
    d = grid.d
    out = np.zeros((d,) + grid.shape, dtype=np.complex128)
    for c, (i, j) in enumerate(SymTensorField.pairs(d)):
        out[i] += 1j * grid.k[j] * tau.coeffs[c]
        if i != j:
            out[j] += 1j * grid.k[i] * tau.coeffs[c]
    return VectorField(grid, out)


# ---- pseudo-spectral products ----------------------------------------------


def _phys(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    axes = tuple(range(coeffs.ndim - grid.d, coeffs.ndim))
    return np.fft.ifftn(coeffs, axes=axes).real * grid.n**grid.d


def _spec(values: np.ndarray, grid: TorusGrid, dealias: bool = True) -> np.ndarray:
    axes = tuple(range(values.ndim - grid.d, values.ndim))
    coeffs = np.fft.fftn(values, axes=axes) / grid.n**grid.d
    coeffs *= grid.dealias_mask if dealias else grid.mode_mask
    return coeffs


def multiply(f: ScalarField, g: ScalarField, dealias: bool = True) -> ScalarField:
    """Pointwise product of two scalar fields, dealiased by default."""
    f.grid.require_same(g.grid)
    prod = _phys(f.coeffs[0], f.grid) * _phys(g.coeffs[0], g.grid)
    return ScalarField(f.grid, _spec(prod, f.grid, dealias)[None])


def advect(u: VectorField, f: SpectralField, u_phys: np.ndarray | None = None) -> SpectralField:
    """Transport term (u.grad) f for any field kind, dealiased.

    Pass ``u_phys`` (from ``u.to_physical()``) to reuse the transformed
    velocity across several calls.
    """
    grid = u.grid
    grid.require_same(f.grid)
    if u_phys is None:
        u_phys = u.to_physical()
    out = np.empty_like(f.coeffs)
    for c in range(f.ncomp):
        acc = None
        for j in range(grid.d):
            dj = _phys(1j * grid.k[j] * f.coeffs[c], grid)
            acc = u_phys[j] * dj if acc is None else acc + u_phys[j] * dj
        out[c] = _spec(acc, grid)
    return type(f)(grid, out)


def g_alpha_pointwise(
    tau: np.ndarray, dmat: np.ndarray, wmat: np.ndarray, alpha: float
) -> np.ndarray:
    """Objective-derivative quadratic form on stacked matrices (..., d, d).

    Returns tau W - W tau - alpha (D tau + tau D); symmetric whenever tau
    and D are symmetric and W antisymmetric.
    """
    tw = np.einsum("...ik,...kj->...ij", tau, wmat)
    wt = np.einsum("...ik,...kj->...ij", wmat, tau)
    out = tw - wt
    if alpha != 0.0:
        dt = np.einsum("...ik,...kj->...ij", dmat, tau)
        td = np.einsum("...ik,...kj->...ij", tau, dmat)
        out -= alpha * (dt + td)
    return out


def g_alpha(tau: SymTensorField, u: VectorField, alpha: float) -> SymTensorField:
    """Objective stress term g_alpha(tau, grad u), evaluated pseudo-spectrally."""
    grid = tau.grid
    grid.require_same(u.grid)
    tau_m = tau.full_matrix_physical()
    d_m = deformation(u).full_matrix_physical()
    w_m = vorticity(u).full_matrix_physical()
    g_m = g_alpha_pointwise(tau_m, d_m, w_m, alpha)
    comps = np.stack([g_m[..., i, j] for i, j in SymTensorField.pairs(grid.d)])
    return SymTensorField(grid, _spec(comps, grid))


def quadratic_terms(
    u: VectorField, tau: SymTensorField, alpha: float
) -> tuple[VectorField, SymTensorField]:
    """((u.grad)u, (u.grad)tau + g_alpha(tau, grad u)) in one dealiased pass.

    Equals ``advect(u, u)`` and ``advect(u, tau) + g_alpha(tau, u, alpha)``
    up to rounding.  With A_ij = d_j u_i, D = (A + A^T)/2 and W = (A - A^T)/2,
    symmetry of tau gives g_alpha = tau B + (tau B)^T for B = W - alpha D, so
    each stored component is g_ij = sum_k tau_ik B_kj + tau_jk B_ki.
    Only the half spectrum k_last >= 0 is read, so u and tau must be real
    fields (Hermitian coefficients), as every evolved state is.
    """
    grid = u.grid
    grid.require_same(tau.grid)
    d = grid.d
    pairs = SymTensorField.pairs(d)
    nt = len(pairs)
    axes = tuple(range(1, d + 1))
    half = (Ellipsis, slice(0, grid.n // 2 + 1))
    ik = 1j * grid.k[half]
    hshape = ik.shape[1:]
    # stacked rows: u_i | d_j u_i (i-major) | tau_c | d_m tau_c (c-major)
    bounds = (d, d + d * d, d + d * d + nt)
    spec = np.empty(((d + 1) * (d + nt),) + hshape, np.complex128)
    u_h, grad_u_h, tau_h, grad_tau_h = np.split(spec, bounds)
    u_h[...] = u.coeffs[half]
    tau_h[...] = tau.coeffs[half]
    np.multiply(ik, u_h[:, None], out=grad_u_h.reshape((d, d) + hshape))
    np.multiply(ik, tau_h[:, None], out=grad_tau_h.reshape((nt, d) + hshape))
    phys = scipy.fft.irfftn(spec, s=grid.shape, axes=axes, norm="forward")
    vel, grad_u, stress, grad_tau = np.split(phys, bounds)
    grad_u = grad_u.reshape((d, d) + grid.shape)
    grad_tau = grad_tau.reshape((nt, d) + grid.shape)

    def tau_at(i, j):
        return stress[tau.component_index(i, j)]

    b = [[0.5 * (1.0 - alpha) * grad_u[k, j] - 0.5 * (1.0 + alpha) * grad_u[j, k]
          for j in range(d)] for k in range(d)]
    out = np.empty((d + nt,) + grid.shape)
    for i in range(d):
        out[i] = sum(vel[j] * grad_u[i, j] for j in range(d))
    for c, (i, j) in enumerate(pairs):
        out[d + c] = sum(vel[m] * grad_tau[c, m] for m in range(d)) + sum(
            tau_at(i, k) * b[k][j] + tau_at(j, k) * b[k][i] for k in range(d))
    coeffs = scipy.fft.fftn(out, axes=axes, norm="forward")
    coeffs *= grid.dealias_mask
    return VectorField(grid, coeffs[:d]), SymTensorField(grid, coeffs[d:])


# ---- inner products and norms ------------------------------------------------


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the box; Frobenius pairing for tensors."""
    if type(f) is not type(g):
        raise FieldError(f"kind mismatch: {f.kind} vs {g.kind}")
    f.grid.require_same(g.grid)
    w = f.component_weights()
    per_comp = np.sum((f.coeffs * np.conj(g.coeffs)).reshape(f.ncomp, -1), axis=1)
    return float(np.dot(w, per_comp).real) * f.grid.volume


def l2_norm(f: SpectralField) -> float:
    w = f.component_weights()
    per_comp = np.sum(np.abs(f.coeffs.reshape(f.ncomp, -1)) ** 2, axis=1)
    return float(np.sqrt(np.dot(w, per_comp) * f.grid.volume))


def grad_l2_norm(f: SpectralField) -> float:
    """Frobenius L2 norm of the full gradient of f."""
    w = f.component_weights()
    sq = (f.grid.k2 * np.abs(f.coeffs) ** 2).reshape(f.ncomp, -1)
    return float(np.sqrt(np.dot(w, np.sum(sq, axis=1)) * f.grid.volume))


def lp_norm(f: SpectralField, p: float) -> float:
    """Physical-space L^p norm of the pointwise (Frobenius) magnitude."""
    phys = f.to_physical()
    w = f.component_weights()
    mag = np.sqrt(np.einsum("c,c...->...", w, phys**2))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


def cancellation_residual(u: VectorField, tau: SymTensorField) -> float:
    """|(div tau | u) + (D(u) | tau)| scaled by ||tau|| ||grad u|| (0 if degenerate)."""
    lhs = inner_product(div_tensor(tau), u) + inner_product(deformation(u), tau)
    scale = l2_norm(tau) * grad_l2_norm(u)
    if scale == 0.0:
        return 0.0
    return abs(lhs) / scale
