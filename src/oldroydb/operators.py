"""Differential and bilinear operators for torus fields.

Linear operators (derivatives, Leray projection, tensor divergence) act as
exact Fourier multipliers on the stored half spectrum.  Quadratic
expressions (advection, the objective stress term) are evaluated
pseudo-spectrally through the grid's one transform pair: a real inverse
transform (``TorusGrid.to_physical``, the passes of ``irfftn``) to physical
space, pointwise products, and the real forward transform back
(``TorusGrid.to_spectral``, the passes of ``rfftn`` pruned to the sharp
2/3-rule band).  No full-grid complex transform is taken.  All
inner products use Parseval's identity on the coefficient arrays, each
stored mode weighted by the grid's ``multiplicity``, so no quadrature
error enters them.

The solver's quadratic terms go through ``quadratic_terms``, which reads
the solver's stacked 2/3-rule band of ``(u, tau)``: real inverse
transforms of ``[u, grad u, tau, grad tau]`` (15 real fields in 2-d, 36 in
3-d), each field group's pass chain filled from its band
(``grid.from_band``), componentwise algebra on the stored upper triangle,
and the band-pruned real forward transform (``TorusGrid.forward_band``)
of the ``d + d(d+1)/2`` products (5 in 2-d, 9 in 3-d), which returns the
terms on the band only.  The products are formed in the kernel's sample
rows, with no array of their own, so that those of one forward call lie
together: 17 sample rows in 2-d, 27 in 3-d, each stress group's
gradients streamed one direction at a time.  Each field's samples and
gradient share their leading complex passes (``_samples_and_gradients``):
2 complex field-passes per field instead of 3 in 2-d, 5 instead of 8 in
3-d.  Composed from ``advect`` and ``g_alpha``, the same terms take 19
real inverse and 8 real forward transforms in 2-d; those two stay as the
per-term API and as the test oracle.  ``quadratic_terms`` transforms
through a ``KernelScratch`` of its grid, held while a run holds it
(``kernel_scratch``): made in a run's first step, no later step
allocates or faults in any of it, and nothing of it is held once the
last run on the grid is dropped.  Two threads must not run the kernel on
equal grids at once.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .fields import (
    FieldError,
    ScalarField,
    SkewTensorField,
    SpectralField,
    SymTensorField,
    VectorField,
    _sym_index,
)
from .grid import TorusGrid, derivative_tables, leray_tables


# ---- linear operators -------------------------------------------------------


def leray_project(v: VectorField, out: np.ndarray | None = None) -> VectorField:
    """Remove the gradient part: u(k) = (I - k k^T / |k|^2) v(k), zero at k=0.

    ``k`` and ``|k|^2`` (1 at k = 0) come complex from ``leray_tables``,
    built once for the most recent grid (``leray_coeffs`` has the
    arithmetic).  The result is written into ``out`` if given, which may be
    ``v.coeffs`` itself (the solver projects its stacked state in place),
    else into a fresh array; a call holds two components beyond it.
    """
    k, k2 = leray_tables(v.grid)
    return VectorField(v.grid, leray_coeffs(v.coeffs, k, k2, out))


def leray_coeffs(c: np.ndarray, k: np.ndarray, k2: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The Leray projection of the ``d`` coefficient rows ``c`` into ``out``
    (which may be ``c``; a fresh array if None), with complex tables ``k``
    and ``|k|^2`` (1 at k = 0) on the same layout: the half spectrum or a
    band.

    No product casts a real table, and the quotient by a complex divisor
    with zero imaginary part has the bits of the quotient by the real one.
    ``k . v`` is summed component by component from zero, in the order and
    to the bits of ``np.sum`` over the components.  The k = 0 mode, the
    first of either layout, is set to zero.
    """
    d = len(c)
    kdotv = np.zeros_like(c[0])
    comp = np.empty_like(kdotv)
    for i in range(d):
        kdotv += np.multiply(k[i], c[i], out=comp)
    kdotv /= k2
    if out is None:
        out = np.empty_like(c)
    for i in range(d):
        np.subtract(c[i], np.multiply(k[i], kdotv, out=comp), out=out[i])
    out[(slice(None),) + (0,) * d] = 0.0
    return out


def gradient(f: ScalarField) -> VectorField:
    grid = f.grid
    return VectorField(grid, 1j * grid.half.k * f.coeffs[0])


def deformation(u: VectorField) -> SymTensorField:
    """Symmetric velocity gradient, D_ij = (d_j u_i + d_i u_j) / 2."""
    grid = u.grid
    k = grid.half.k
    comps = [
        0.5j * (k[j] * u.coeffs[i] + k[i] * u.coeffs[j])
        for i, j in SymTensorField.pairs(grid.d)
    ]
    return SymTensorField(grid, np.stack(comps))


def vorticity(u: VectorField) -> SkewTensorField:
    """Antisymmetric velocity gradient, W_ij = (d_j u_i - d_i u_j) / 2."""
    grid = u.grid
    k = grid.half.k
    comps = [
        0.5j * (k[j] * u.coeffs[i] - k[i] * u.coeffs[j])
        for i, j in SkewTensorField.pairs(grid.d)
    ]
    return SkewTensorField(grid, np.stack(comps))


def div_tensor(tau: SymTensorField) -> VectorField:
    """(div tau)_i = sum_j d_j tau_ij, exact in Fourier form."""
    grid = tau.grid
    d, k = grid.d, grid.half.k
    out = np.zeros((d,) + grid.spec_shape, dtype=np.complex128)
    for c, (i, j) in enumerate(SymTensorField.pairs(d)):
        out[i] += 1j * k[j] * tau.coeffs[c]
        if i != j:
            out[j] += 1j * k[i] * tau.coeffs[c]
    return VectorField(grid, out)


# ---- pseudo-spectral products ----------------------------------------------


def multiply(f: ScalarField, g: ScalarField) -> ScalarField:
    """Pointwise product of two scalar fields, dealiased."""
    grid = f.grid
    grid.require_same(g.grid)
    prod = grid.to_physical(f.coeffs) * grid.to_physical(g.coeffs)
    return ScalarField(grid, grid.to_spectral(prod, grid.dealias_radius))


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
    grad_f = grid.to_physical(1j * grid.half.k * f.coeffs[:, None])
    transport = sum(u_phys[j] * grad_f[:, j] for j in range(grid.d))
    return type(f)(grid, grid.to_spectral(transport, grid.dealias_radius))


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
    return SymTensorField(grid, grid.to_spectral(comps, grid.dealias_radius))


#: fields whose samples and gradients share one chain of inverse passes
_GROUP = 3


def _row_blocks(d: int) -> tuple[int, ...]:
    """Row counts of the kernel's sample blocks: ``u``, ``tau``, ``grad u``,
    the products of the last forward call (all ``d + nt`` in 2-d, the
    ``nt`` stress products in 3-d) and one group of scratch rows."""
    nt = d * (d + 1) // 2
    return d, nt, d * d, min(d + nt, 2 * _GROUP), _GROUP


class KernelScratch:
    """The working memory of ``quadratic_terms`` on one grid, each array
    made on its first use, so that a run pays for it in its first step,
    not in its set-up.

    ``spec`` is a scratch half spectrum of two field groups, the pass chain
    and the derivative in transform (6 fields), and later the products'
    real transform, up to 6 at a time.  ``phys`` holds the real sample
    rows of ``_row_blocks``: 17 in 2-d, 27 in 3-d.  ``k`` holds the
    per-axis derivative tables (``grid.derivative_tables``).
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid

    @functools.cached_property
    def spec(self) -> np.ndarray:
        return np.empty((2 * _GROUP,) + self.grid.spec_shape, np.complex128)

    @functools.cached_property
    def phys(self) -> np.ndarray:
        return np.empty((sum(_row_blocks(self.grid.d)),) + self.grid.shape)

    @functools.cached_property
    def k(self) -> tuple[np.ndarray, ...]:
        return derivative_tables(self.grid)


#: the scratch that something holds for each grid; equal grids share it
_held_scratch: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def kernel_scratch(grid: TorusGrid) -> KernelScratch:
    """The kernel scratch of ``grid`` for a holder to keep: the one already
    held for an equal grid, else a new one, which the kernel finds as long
    as something holds it.

    A nonlinear ``Simulation`` holds its grid's scratch, so the runs alive
    on equal grids (a twin pair in lockstep) share one set, and it is freed
    with the last of them.
    """
    scratch = _held_scratch.get(grid)
    if scratch is None:
        scratch = _held_scratch[grid] = KernelScratch(grid)
    return scratch


def _samples_and_gradients(grid: TorusGrid, k: tuple[np.ndarray, ...], c: np.ndarray,
                           spec: np.ndarray, values: np.ndarray, grads):
    """Samples of the fields whose 2/3-rule bands are ``c`` into ``values``
    and of their derivatives ``d_j`` into ``grads[j]``, through the scratch
    ``spec``, with the derivative tables ``k`` (``grid.derivative_tables``).

    A generator: it yields ``j`` once ``d_j`` is in ``grads[j]``, so the
    caller may consume those rows before the next direction lands (two
    directions may share rows); the samples are written after the last
    direction, when the caller asks for one more.

    The passes run as a prefix chain: ``A_0`` is the half spectrum of
    ``c``, zero outside the band (``spec[:len(c)]`` zeroed and filled by
    ``grid.from_band``), and ``A_{j+1}`` is pass ``j`` of ``A_j``, held in
    place.  Multiplying by ``i k_j`` commutes with the passes over the
    other axes, so ``d_j`` of the fields is the passes ``j`` onward of
    ``i k_j A_j``, formed in the second half of ``spec``, and the samples
    are the last pass of ``A_{d-1}``: 2 complex field-passes instead of 3
    in 2-d, 5 instead of 8 in 3-d.  The samples and ``d_0`` take the passes
    of ``to_physical`` in its order, so they are its bits; every other
    derivative agrees with it to rounding.
    """
    g = len(c)
    chain, scratch = spec[:g], spec[_GROUP:_GROUP + g]
    chain[...] = 0.0
    grid.from_band(c, grid.dealias_radius, out=chain)
    for j in range(grid.d):
        if j:
            chain = grid.inverse_passes(chain, j - 1, j, overwrite_x=True)
        for f in range(g):  # row by row: a broadcasting product copies the rows
            np.multiply(k[j], chain[f], out=scratch[f])
        scratch *= 1j
        grid.inverse_passes(scratch, j, overwrite_x=True, out=grads[j])
        yield j
    grid.inverse_passes(chain, grid.d - 1, out=values)


def quadratic_terms(grid: TorusGrid, x: np.ndarray, alpha: float) -> np.ndarray:
    """((u.grad)u, (u.grad)tau + g_alpha(tau, grad u)) in one dealiased pass,
    from the stacked 2/3-rule band ``x`` of ``(u, tau)``.

    ``x`` is ``(d + nt,) + grid.band_shape(grid.dealias_radius)``, the
    layout of the solver's state, velocity rows first.  Returns one fresh
    array of that shape, on the band, outside of which the dealiased terms
    vanish: added into zeros on the half spectrum (``grid.from_band``) the
    rows equal ``advect(u, u)`` and ``advect(u, tau) + g_alpha(tau, u,
    alpha)`` up to rounding.  With A_ij = d_j u_i, D = (A + A^T)/2 and
    W = (A - A^T)/2, symmetry of tau gives g_alpha = tau B + (tau B)^T for
    B = W - alpha D, so each stored component is
    g_ij = sum_k tau_ik B_kj + tau_jk B_ki.

    The inverse transforms run field group by field group through the
    grid's ``KernelScratch`` (``_samples_and_gradients``), each group's
    chain filled from its rows of ``x``: the scratch something holds for
    the grid (``kernel_scratch``; a nonlinear ``Simulation`` holds one),
    else one of this call's own.  Two threads must not run the kernel on
    equal grids at once.  The sample rows are

        u_i | tau_c | d_j u_i (i-major, then B) | products of the last
        forward call | 3 scratch rows

    17 in 2-d, 27 in 3-d.  ``u`` and ``grad u`` go into their own rows,
    then three stress components at a time.  The products are formed in
    these rows, with no array of their own.  The velocity transports come
    first, into the first product rows, where in 3-d they are transformed
    at once.  Each stress group's gradients stream one direction at a
    time: ``d_0`` lands in the group's product rows, where its transport
    starts (``row = u_0 d_0 tau_c``), and each later direction lands in
    the scratch rows and is added in at once (``row += u_m d_m tau_c``),
    the order of the sum over ``m``.  So the products of the last forward
    call (all five in 2-d, the six stress rows in 3-d) lie in contiguous
    rows.  ``B`` is formed in place over ``grad u`` (``B_kk = -alpha
    A_kk``; each off-diagonal pair through two scratch rows), and the
    ``g_alpha`` products are added to the stress rows one by one.  The
    products go through the band-pruned forward transform
    (``grid.forward_band``), their real pass into the scratch spectrum and
    their band straight into the result.
    """
    d = grid.d
    pairs = SymTensorField.pairs(d)
    nt = len(pairs)
    radius = grid.dealias_radius
    if x.shape != (d + nt,) + grid.band_shape(radius):
        raise ValueError(f"the kernel takes a stacked 2/3 band of shape "
                         f"{(d + nt,) + grid.band_shape(radius)}, not {x.shape}")
    scratch = _held_scratch.get(grid) or KernelScratch(grid)
    spec, tables = scratch.spec, scratch.k
    vel, stress, grad_u, last, free = np.split(
        scratch.phys, np.cumsum(_row_blocks(d))[:-1])
    grad_u = grad_u.reshape((d, d) + grid.shape)
    band = np.empty_like(x)

    for _ in _samples_and_gradients(grid, tables, x[:d], spec, vel, grad_u.swapaxes(0, 1)):
        pass
    for i in range(d):
        np.multiply(vel[0], grad_u[i, 0], out=last[i])
        for j in range(1, d):
            last[i] += np.multiply(vel[j], grad_u[i, j], out=free[0])
    early = d + nt - len(last)  # velocity rows transformed on their own: d in 3-d
    if early:
        grid.forward_band(last[:d], radius, scratch=spec[:d], out=band[:d])
    stress_out = last[len(last) - nt:]
    for c0 in range(0, nt, _GROUP):  # _GROUP divides nt: 3 in 2-d, 6 in 3-d
        rows = stress_out[c0:c0 + _GROUP]
        for m in _samples_and_gradients(grid, tables, x[d + c0:d + c0 + _GROUP], spec,
                                        stress[c0:c0 + _GROUP], (rows,) + (free,) * (d - 1)):
            for g, row in enumerate(rows):
                if m == 0:
                    np.multiply(vel[0], row, out=row)
                else:
                    row += np.multiply(vel[m], free[g], out=free[g])

    # B = W - alpha D over grad u: B_kj = a A_kj - b A_jk
    a, b = 0.5 * (1.0 - alpha), 0.5 * (1.0 + alpha)
    for k in range(d):
        grad_u[k, k] *= -alpha
        for j in range(k + 1, d):
            np.multiply(b, grad_u[j, k], out=free[0])
            np.multiply(b, grad_u[k, j], out=free[1])
            grad_u[k, j] *= a
            grad_u[k, j] -= free[0]
            grad_u[j, k] *= a
            grad_u[j, k] -= free[1]

    index = _sym_index(d)
    for c, (i, j) in enumerate(pairs):
        row = stress_out[c]
        for k in range(d):
            row += np.multiply(stress[index[i, k]], grad_u[k, j], out=free[0])
            row += np.multiply(stress[index[j, k]], grad_u[k, i], out=free[0])
    grid.forward_band(last, radius, scratch=spec[:len(last)], out=band[early:])
    return band


# ---- inner products and norms ------------------------------------------------


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product over the box; Frobenius pairing for tensors."""
    if type(f) is not type(g):
        raise FieldError(f"kind mismatch: {f.kind} vs {g.kind}")
    grid = f.grid
    grid.require_same(g.grid)
    per_mode = np.tensordot(f.component_weights(), (f.coeffs * np.conj(g.coeffs)).real,
                            axes=(0, 0))
    return float(np.vdot(grid.half.multiplicity, per_mode)) * grid.volume


def mode_sq(f: SpectralField, out: np.ndarray | None = None) -> np.ndarray:
    """Squared pointwise (Frobenius) magnitude of every stored mode, shape
    ``grid.spec_shape``: sum_c w_c |f_c(k)|^2 with the component weights
    (``mode_sq_coeffs`` of the field's coefficients)."""
    return mode_sq_coeffs(f.coeffs, f.component_weights(), out)


def mode_sq_coeffs(c: np.ndarray, weights: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """sum_c w_c |c_c|^2 per mode of the coefficient rows ``c``, on any
    layout (the half spectrum or a band), with the component ``weights``.

    The result is written into ``out`` if given, else into a fresh array.
    Each component goes through one component-sized scratch: the squares
    of its real and imaginary parts fill the two halves, which are added,
    weighted and added to the result.  The components are summed in runs
    of four, each run's sum added to the result: the order of the OpenBLAS
    matrix-vector kernel behind ``np.tensordot(w, c.real**2 + c.imag**2,
    axes=(0, 0))``, so the magnitudes keep that form's bits (a second run
    occurs only for the six stress components in 3-d).
    """
    if out is None:
        out = np.empty(c.shape[1:])
    sq = np.empty((2,) + c.shape[1:])
    for start in range(0, len(c), 4):
        run = out if start == 0 else np.empty_like(out)
        for i in range(start, min(start + 4, len(c))):
            np.square(c[i].real, out=sq[0])
            np.square(c[i].imag, out=sq[1])
            term = run if i == start else sq[0]
            np.add(sq[0], sq[1], out=term)
            if weights[i] != 1.0:
                term *= weights[i]
            if term is not run:
                run += term
        if start:
            out += run
    return out


def _weighted_sq_sum(f: SpectralField, mode_weight: np.ndarray) -> float:
    """sum over stored modes of mode_weight * |f(k)|^2, components weighted."""
    return float(np.vdot(mode_weight, mode_sq(f)))


def l2_norm(f: SpectralField) -> float:
    return float(np.sqrt(_weighted_sq_sum(f, f.grid.half.multiplicity) * f.grid.volume))


def grad_l2_norm(f: SpectralField) -> float:
    """Frobenius L2 norm of the full gradient of f."""
    half = f.grid.half
    return float(np.sqrt(_weighted_sq_sum(f, half.multiplicity * half.k2) * f.grid.volume))


def lp_norm(f: SpectralField, p: float) -> float:
    """Physical-space L^p norm of the pointwise (Frobenius) magnitude."""
    phys = f.to_physical()
    w = f.component_weights()
    mag = np.sqrt(np.einsum("c,c...->...", w, phys**2))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * f.grid.cell_volume) ** (1.0 / p))


@functools.lru_cache(maxsize=1)
def _parseval_ik(grid: TorusGrid) -> np.ndarray:
    """``-1j * grid.half.k`` times the Parseval weight of each stored mode, for
    the most recent grid.  Pure imaginary, so a product with it swaps the
    real and imaginary parts: ``Re(conj(a) * (-1j k m b))`` is ``Im(conj(a)
    * k m b)``, the real dot of the float64 views of ``a`` and the product.
    Read-only, since every caller shares it."""
    half = grid.half
    k = -1j * (half.k * half.multiplicity)
    k.flags.writeable = False
    return k


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re(sum conj(a) b) of two complex arrays: the dot of their float64
    views, by numpy's own ``einsum`` loop (``np.dot``/``np.vdot`` would call
    a threaded BLAS, which can stall for milliseconds on a busy host)."""
    a, b = (np.ascontiguousarray(x).view(np.float64).ravel() for x in (a, b))
    return float(np.einsum("m,m->", a, b))


def _cancellation_sums(u: VectorField, tau: SymTensorField) -> tuple[float, float]:
    """The Parseval sums ``(div tau | u)`` and ``(D(u) | tau)``, from the coefficients.

    Each has its own contraction, formed one row at a time through two
    component scratches: the first contracts ``tau`` with ``k`` into the
    row ``(tau k)_i`` and pairs it with ``u_i``; the second forms the row
    ``c = (i, j)`` of the symmetric gradient of ``u`` (off-diagonal
    components weighted 2, as in the Frobenius pairing) and pairs it with
    ``tau_c``.  The derivative's factor ``i`` enters as ``Re(i z) =
    -Im(z)``, and the table ``_parseval_ik`` makes each ``Im`` a real dot
    (``_dot``): no conjugate product and no BLAS call.  Mode by
    mode the two terms are ``Re(i z)`` and ``Re(i conj z)``, so the sums
    cancel for any coefficients, not only divergence-free or Hermitian
    ones: their sum checks that the two contractions agree, and says
    nothing about a trajectory.
    """
    grid = u.grid
    grid.require_same(tau.grid)
    k, uc, tc = _parseval_ik(grid), u.coeffs, tau.coeffs
    index = tau.component_index
    row, comp = np.empty_like(uc[0]), np.empty_like(uc[0])
    div_tau_u = 0.0
    for i in range(grid.d):
        np.multiply(k[0], tc[index(i, 0)], out=row)
        for j in range(1, grid.d):
            row += np.multiply(k[j], tc[index(i, j)], out=comp)
        div_tau_u -= _dot(uc[i], row)
    def_u_tau = 0.0
    for c, (i, j) in enumerate(SymTensorField.pairs(grid.d)):
        np.multiply(k[j], uc[i], out=row)
        if i != j:
            row += np.multiply(k[i], uc[j], out=comp)
        def_u_tau -= _dot(tc[c], row)
    return div_tau_u * grid.volume, def_u_tau * grid.volume


def cancellation_residual(u: VectorField, tau: SymTensorField) -> float:
    """|(div tau | u) + (D(u) | tau)| scaled by ||tau|| ||grad u|| (0 if degenerate)."""
    div_tau_u, def_u_tau = _cancellation_sums(u, tau)
    half = u.grid.half
    scale = u.grid.volume * float(np.sqrt(
        _weighted_sq_sum(tau, half.multiplicity)
        * _weighted_sq_sum(u, half.multiplicity * half.k2)))
    if scale == 0.0:
        return 0.0
    return abs(div_tau_u + def_u_tau) / scale
