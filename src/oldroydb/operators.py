"""Differential and bilinear operators for torus fields.

Linear operators (derivatives, Leray projection, tensor divergence) act as
exact Fourier multipliers on the stored half spectrum.  Quadratic
expressions (advection, the objective stress term) are evaluated
pseudo-spectrally through the grid's one transform pair: a real inverse
transform (``TorusGrid.to_physical``, the passes of ``irfftn``) to physical
space, pointwise products, a real forward transform (``rfftn``) back and
the sharp 2/3-rule mask.  No full-grid complex transform is taken.  All
inner products use Parseval's identity on the coefficient arrays, each
stored mode weighted by the grid's ``multiplicity``, so no quadrature
error enters them.

The solver's quadratic terms go through ``quadratic_terms``: real inverse
transforms of ``[u, grad u, tau, grad tau]`` (15 real fields in 2-d, 36 in
3-d), componentwise algebra on the stored upper triangle, and one batched
real forward transform of the ``d + d(d+1)/2`` products (5 in 2-d, 9 in
3-d).  Composed from ``advect`` and ``g_alpha``, the same terms take 19
real inverse and 8 real forward transforms in 2-d; those two stay as the
per-term API and as the test oracle.

``quadratic_terms`` runs its inverse transform in field groups: ``[u, tau]``,
then ``grad u``, then the gradients of three stress components at a time.
Each group is filled into a scratch half spectrum sized to the largest
group, transformed in place and received into its slice of a sample buffer
holding ``[u, tau, grad u]`` and one stress-gradient group; both buffers
are kept for the most recent grid, so a step allocates and faults in none
of them.  Its results never alias the buffers.  Two threads that call it on
equal grids share the buffers, so it is not safe to call concurrently.
"""

from __future__ import annotations

import functools

import numpy as np

from .fields import (
    FieldError,
    ScalarField,
    SkewTensorField,
    SpectralField,
    SymTensorField,
    VectorField,
)
from .grid import TorusGrid, leray_tables


# ---- linear operators -------------------------------------------------------


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part: u(k) = (I - k k^T / |k|^2) v(k), zero at k=0.

    ``k`` and ``|k|^2`` (1 at k = 0) come complex from ``leray_tables``,
    built once for the most recent grid, so no product casts a real table;
    the quotient by a complex divisor with zero imaginary part has the bits
    of the quotient by the real one.  The products are written into the
    result, so a call holds one component beyond it.
    """
    grid = v.grid
    k, k2 = leray_tables(grid)
    out = np.multiply(k, v.coeffs)
    kdotv = np.sum(out, axis=0)
    kdotv /= k2
    np.subtract(v.coeffs, np.multiply(k, kdotv, out=out), out=out)
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
    out = np.zeros((d,) + grid.spec_shape, dtype=np.complex128)
    for c, (i, j) in enumerate(SymTensorField.pairs(d)):
        out[i] += 1j * grid.k[j] * tau.coeffs[c]
        if i != j:
            out[j] += 1j * grid.k[i] * tau.coeffs[c]
    return VectorField(grid, out)


# ---- pseudo-spectral products ----------------------------------------------


def multiply(f: ScalarField, g: ScalarField, dealias: bool = True) -> ScalarField:
    """Pointwise product of two scalar fields, dealiased by default."""
    grid = f.grid
    grid.require_same(g.grid)
    prod = grid.to_physical(f.coeffs) * grid.to_physical(g.coeffs)
    return ScalarField(grid, grid.to_spectral(
        prod, grid.dealias_mask if dealias else grid.mode_mask))


def advect(u: VectorField, f: SpectralField, u_phys: np.ndarray | None = None) -> SpectralField:
    """Transport term (u.grad) f for any field kind, dealiased.

    Pass ``u_phys`` (from ``u.to_physical()``) to reuse the transformed
    velocity across several calls.
    """
    grid = u.grid
    grid.require_same(f.grid)
    if u_phys is None:
        u_phys = u.to_physical()
    # d_j f_c for every component c and direction j, shape (ncomp, d, n, ..., n)
    grad_f = grid.to_physical(1j * grid.k * f.coeffs[:, None])
    transport = sum(u_phys[j] * grad_f[:, j] for j in range(grid.d))
    return type(f)(grid, grid.to_spectral(transport, grid.dealias_mask))


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
    return SymTensorField(grid, grid.to_spectral(comps, grid.dealias_mask))


#: stress components whose gradients share one inverse transform
_STRESS_GROUP = 3


@functools.lru_cache(maxsize=1)
def _kernel_buffers(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """The scratch half spectrum of ``quadratic_terms`` and its real samples.

    The scratch holds the largest transform group (6 fields in 2-d, 9 in
    3-d); the samples hold ``[u, tau, grad u]`` and one stress-gradient
    group (15 fields in 2-d, 27 in 3-d).  Kept for the most recent grid
    only, so runs on equal grids share them and a sweep over grids holds
    one set.
    """
    d = grid.d
    nt = d * (d + 1) // 2
    group = _STRESS_GROUP * d
    return (np.empty((max(d + nt, d * d, group),) + grid.spec_shape, np.complex128),
            np.empty((d + nt + d * d + group,) + grid.shape))


def quadratic_terms(
    u: VectorField, tau: SymTensorField, alpha: float
) -> tuple[VectorField, SymTensorField]:
    """((u.grad)u, (u.grad)tau + g_alpha(tau, grad u)) in one dealiased pass.

    Equals ``advect(u, u)`` and ``advect(u, tau) + g_alpha(tau, u, alpha)``
    up to rounding.  With A_ij = d_j u_i, D = (A + A^T)/2 and W = (A - A^T)/2,
    symmetry of tau gives g_alpha = tau B + (tau B)^T for B = W - alpha D, so
    each stored component is g_ij = sum_k tau_ik B_kj + tau_jk B_ki.

    The inverse transform runs in groups through the scratch spectrum of
    ``_kernel_buffers``: ``[u, tau]``, then ``grad u``, each into its own
    slice of the samples, then the gradients of three stress components at
    a time into the slice after them, where the transport of those
    components is summed before the next group overwrites it.  Every
    field's transform is independent of the rest of its batch, so the
    samples equal those of one batched transform to the bit.
    """
    grid = u.grid
    grid.require_same(tau.grid)
    d = grid.d
    pairs = SymTensorField.pairs(d)
    nt = len(pairs)
    ik = 1j * grid.k
    hshape = grid.spec_shape
    group = _STRESS_GROUP  # divides nt: 3 in 2-d, 6 in 3-d
    spec, phys = _kernel_buffers(grid)
    # sample rows: u_i | tau_c | d_j u_i (i-major) | d_m tau_c of one group
    bounds = (d, d + nt, d + nt + d * d)
    vel, stress, grad_u, grad_tau = np.split(phys, bounds)
    grad_u = grad_u.reshape((d, d) + grid.shape)
    grad_tau = grad_tau.reshape((group, d) + grid.shape)

    spec[:d] = u.coeffs
    spec[d:d + nt] = tau.coeffs
    grid.to_physical(spec[:d + nt], overwrite_x=True, out=phys[:d + nt])
    np.multiply(ik, u.coeffs[:, None], out=spec[:d * d].reshape((d, d) + hshape))
    grid.to_physical(spec[:d * d], overwrite_x=True, out=phys[bounds[1]:bounds[2]])

    out = np.empty((d + nt,) + grid.shape)
    for i in range(d):
        out[i] = sum(vel[j] * grad_u[i, j] for j in range(d))
    for c0 in range(0, nt, group):
        np.multiply(ik, tau.coeffs[c0:c0 + group, None],
                    out=spec[:group * d].reshape((group, d) + hshape))
        grid.to_physical(spec[:group * d], overwrite_x=True, out=phys[bounds[2]:])
        for g in range(group):
            out[d + c0 + g] = sum(vel[m] * grad_tau[g, m] for m in range(d))

    def tau_at(i, j):
        return stress[tau.component_index(i, j)]

    b = [[0.5 * (1.0 - alpha) * grad_u[k, j] - 0.5 * (1.0 + alpha) * grad_u[j, k]
          for j in range(d)] for k in range(d)]
    for c, (i, j) in enumerate(pairs):
        out[d + c] += sum(tau_at(i, k) * b[k][j] + tau_at(j, k) * b[k][i]
                          for k in range(d))
    del b
    coeffs = grid.to_spectral(out, grid.dealias_mask)
    return VectorField(grid, coeffs[:d]), SymTensorField(grid, coeffs[d:])


# ---- inner products and norms ------------------------------------------------


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the box; Frobenius pairing for tensors."""
    if type(f) is not type(g):
        raise FieldError(f"kind mismatch: {f.kind} vs {g.kind}")
    grid = f.grid
    grid.require_same(g.grid)
    per_mode = np.tensordot(f.component_weights(), (f.coeffs * np.conj(g.coeffs)).real,
                            axes=(0, 0))
    return float(np.vdot(grid.multiplicity, per_mode)) * grid.volume


def mode_sq(f: SpectralField) -> np.ndarray:
    """Squared pointwise (Frobenius) magnitude of every stored mode, shape
    ``grid.spec_shape``: sum_c w_c |f_c(k)|^2 with the component weights."""
    c = f.coeffs
    return np.tensordot(f.component_weights(), c.real**2 + c.imag**2, axes=(0, 0))


def _weighted_sq_sum(f: SpectralField, mode_weight: np.ndarray) -> float:
    """sum over stored modes of mode_weight * |f(k)|^2, components weighted."""
    return float(np.vdot(mode_weight, mode_sq(f)))


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(_weighted_sq_sum(f, f.grid.multiplicity) * f.grid.volume))


def grad_l2_norm(f: SpectralField) -> float:
    """Frobenius L2 norm of the full gradient of f."""
    grid = f.grid
    return float(np.sqrt(_weighted_sq_sum(f, grid.multiplicity * grid.k2) * grid.volume))


def lp_norm(f: SpectralField, p: float) -> float:
    """Physical-space L^p norm of the pointwise (Frobenius) magnitude."""
    phys = f.to_physical()
    w = f.component_weights()
    mag = np.sqrt(np.einsum("c,c...->...", w, phys**2))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


@functools.lru_cache(maxsize=1)
def _parseval_k(grid: TorusGrid) -> np.ndarray:
    """``grid.k`` times the Parseval weight of each stored mode, complex128,
    for the most recent grid, so the cancellation sums need no separate
    weighting pass and no cast of a real table.  Read-only, since every
    caller shares it."""
    k = (grid.k * grid.multiplicity).astype(np.complex128)
    k.flags.writeable = False
    return k


def _im_vdot(a: np.ndarray, b: np.ndarray) -> float:
    """Im(sum conj(a) b) by numpy's own pairwise sum: ``np.vdot`` of complex
    arrays goes to a threaded BLAS ``zdotc``, which can stall for
    milliseconds on a busy host."""
    prod = np.conj(a)
    prod *= b
    return float(np.sum(prod.imag))


def _cancellation_sums(u: VectorField, tau: SymTensorField) -> tuple[float, float]:
    """The Parseval sums ``(div tau | u)`` and ``(D(u) | tau)``, from the coefficients.

    They are computed independently, so that their sum checks the adjoint
    pair ``div`` / ``-D`` rather than cancel by algebra: the first contracts
    ``tau`` with ``k`` and pairs the result with ``u``; the second forms the
    symmetric gradient of ``u`` (off-diagonal components weighted 2, as in
    the Frobenius pairing) and pairs it with ``tau``.  The derivative's
    factor ``i`` enters as ``Re(i z) = -Im(z)``.
    """
    grid = u.grid
    grid.require_same(tau.grid)
    k, uc, tc = _parseval_k(grid), u.coeffs, tau.coeffs
    tk = np.zeros_like(uc)
    sym_k_u = np.empty_like(tc)
    for c, (i, j) in enumerate(SymTensorField.pairs(grid.d)):
        tk[i] += k[j] * tc[c]
        np.multiply(k[j], uc[i], out=sym_k_u[c])
        if i != j:
            tk[j] += k[i] * tc[c]
            sym_k_u[c] += k[i] * uc[j]
    return -_im_vdot(uc, tk) * grid.volume, -_im_vdot(tc, sym_k_u) * grid.volume


def cancellation_residual(u: VectorField, tau: SymTensorField, *,
                          scale: float | None = None) -> float:
    """|(div tau | u) + (D(u) | tau)| scaled by ||tau|| ||grad u|| (0 if degenerate).

    Pass ``scale`` when the caller already has ``||tau|| ||grad u||`` (the
    ledger forms it from its per-mode magnitudes); otherwise it is formed
    here from the coefficients.
    """
    div_tau_u, def_u_tau = _cancellation_sums(u, tau)
    if scale is None:
        grid = u.grid
        scale = grid.volume * float(np.sqrt(
            _weighted_sq_sum(tau, grid.multiplicity)
            * _weighted_sq_sum(u, grid.multiplicity * grid.k2)))
    if scale == 0.0:
        return 0.0
    return abs(div_tau_u + def_u_tau) / scale
