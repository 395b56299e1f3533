"""Dyadic frequency decomposition and the norms built on it.

The radial partition of unity follows the classical construction: a smooth
cutoff ``chi`` equal to 1 on ``|xi| <= 3/4`` and 0 on ``|xi| >= 4/3``, and
the annulus bump ``phi(xi) = chi(xi/2) - chi(xi)`` supported in
``3/4 <= |xi| <= 8/3``.  The transition uses the standard ``exp(-1/t)``
smoothstep, so the telescoping identities

    chi(xi) + sum_{q >= 0} phi(2^-q xi) = 1
    sum_{q in Z} phi(2^-q xi) = 1          (xi != 0)

hold exactly up to roundoff.  On a torus with period ``2*pi`` the smallest
nonzero frequency is 1, so blocks with q < -1 vanish identically and every
homogeneous sum over q is finite.

Built on the blocks: the L2-based Besov norms, the hybrid norm measuring
low frequencies in l2 fashion and high frequencies in l1 fashion, Bony's
paraproduct/remainder decomposition and the block norms of the transport
commutator (``commutator_block_norms``).  The Chemin-Lerner time norms live
in ``monitor`` (``EnergyLedger`` and ``functionals_from_history``), with the
block weights of ``hybrid_weights``.

Every function takes its partition from the field's grid
(``build_partition(f.grid)``, cached per grid).  Two accept one besides:
``block_l2_norms``, whose squared-magnitude input carries no grid, and
``hs_norm``; given together with a field, a partition of another grid is a
``GridError``.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .fields import ScalarField, SpectralField, VectorField
from .grid import TorusGrid
from .operators import advect, l2_norm, mode_sq

CHI_SUPPORT = (0.75, 4.0 / 3.0)
PHI_SUPPORT = (0.75, 8.0 / 3.0)


class UnsupportedIndexError(ValueError):
    """Besov index outside what the L2-based machinery supports."""


# ---- radial profiles ---------------------------------------------------------


def _bump(t: np.ndarray) -> np.ndarray:
    pos = t > 0.0
    return np.where(pos, np.exp(-1.0 / np.where(pos, t, 1.0)), 0.0)


def smooth_transition(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp from 0 at t<=0 to 1 at t>=1."""
    t = np.asarray(t, dtype=np.float64)
    num = _bump(t)
    den = num + _bump(1.0 - t)
    return num / den


def chi_profile(r: np.ndarray) -> np.ndarray:
    """Low-pass cutoff: 1 for r <= 3/4, 0 for r >= 4/3, smooth in between."""
    r = np.abs(np.asarray(r, dtype=np.float64))
    lo, hi = CHI_SUPPORT
    return smooth_transition((hi - r) / (hi - lo))


def phi_profile(r: np.ndarray) -> np.ndarray:
    """Annulus bump phi(r) = chi(r/2) - chi(r), supported in [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


# ---- partition ---------------------------------------------------------------


class DyadicPartition:
    """Tabulated dyadic multipliers for one grid.

    ``q_min`` is the lowest block with any support on resolved modes and
    ``q_max = ceil(log2(8/3 * k_nyquist))``; blocks beyond the corner modes
    are stored but identically zero.  ``phi`` is radial, so it is evaluated
    once per distinct |k|^2 of a layout and gathered to its modes, with the
    same values to the bit as an evaluation at every mode.  The one
    per-mode table built with the partition is on the 2/3-rule band, where
    every state of a run lies: the squared multiplier times the Parseval
    weight, which ``block_l2_norms`` contracts band magnitudes with,
    evaluated on the grid's band shells (``grid.band_shells``, which the
    propagator's coefficients share).  The half-spectrum tables, ``phi``
    per shell of the half grid (``phi_shell``, shape ``(nq, n_shells)``)
    and its Parseval-weighted square (``_phi_sq``), are formed on first
    read; ``phi_mults`` and ``phi_weights`` gather from them.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        kmin = grid.k_scale  # smallest nonzero |k|
        self.q_min = math.ceil(math.log2(3.0 / 8.0 * kmin))
        self.q_max = math.ceil(math.log2(8.0 / 3.0 * grid.k_scale * grid.k_nyquist))
        self.q_values = np.arange(self.q_min, self.q_max + 1)
        k2, inverse = grid.band_shells
        # the squared multipliers with the Parseval weight of each band mode
        self._band_phi_sq = (np.take(self._phi_at(k2) ** 2, inverse, axis=1)
                             * grid.band_multiplicity)
        self._chi_cache: dict[int, np.ndarray] = {}

    def _phi_at(self, k2: np.ndarray) -> np.ndarray:
        """phi of every block at the squared wavenumbers ``k2``, shape
        ``(nq,) + k2.shape``."""
        return phi_profile(np.sqrt(k2) / (2.0 ** self.q_values[:, None]))

    @functools.cached_property
    def phi_shell(self) -> np.ndarray:
        """phi at every shell of the half grid and block, shape
        ``(nq, n_shells)``."""
        return self._phi_at(self.grid.shells[0])

    @functools.cached_property
    def _phi_sq(self) -> np.ndarray:
        """The squared multipliers with the Parseval weight of each stored
        mode, on the half spectrum."""
        grid = self.grid
        return np.take(self.phi_shell**2, grid.shells[1], axis=1) * grid.multiplicity

    def layout_tables(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """``(phi^2 * multiplicity, |k|^2)`` on the layout of per-mode
        arrays of trailing ``shape``: the half spectrum (``spec_shape``) or
        the 2/3-rule band (``band_shape(dealias_radius)``)."""
        grid = self.grid
        if shape == grid.spec_shape:
            return self._phi_sq, grid.k2
        if shape == grid.band_shape(grid.dealias_radius):
            return self._band_phi_sq, grid.band_k2
        raise ValueError(f"per-mode arrays of shape {shape} are neither the half "
                         f"spectrum {grid.spec_shape} nor the 2/3-rule band")

    @property
    def nq(self) -> int:
        return len(self.q_values)

    def q_index(self, q: int) -> int:
        return int(q) - self.q_min

    def contains(self, q: int) -> bool:
        return self.q_min <= q <= self.q_max

    @property
    def phi_mults(self) -> np.ndarray:
        """phi multipliers stacked over q, shape ``(nq,) + grid.spec_shape``,
        gathered from the shell table on each access."""
        return np.take(self.phi_shell, self.grid.shells[1], axis=1)

    def phi_weights(self, q: int) -> np.ndarray:
        """phi multiplier of block q at every stored mode (a fresh array)."""
        return np.take(self.phi_shell[self.q_index(q)], self.grid.shells[1])

    def chi_weights(self, q: int) -> np.ndarray:
        if q not in self._chi_cache:
            self._chi_cache[q] = chi_profile(self.grid.kmag / 2.0**q)
        return self._chi_cache[q]

    def identity_residuals(self) -> tuple[float, float]:
        """Max deviation of the two partition identities on resolved moduli.

        Returns (residual of chi + sum_{q>=0} phi, residual of sum_q phi on
        nonzero modes).
        """
        grid = self.grid
        nonneg = self.q_values >= 0
        phi = self.phi_mults
        total_high = chi_profile(grid.kmag) + np.sum(phi[nonneg], axis=0)
        res_chi = float(np.max(np.abs(total_high - 1.0)))
        total_all = np.sum(phi, axis=0)
        nz = grid.kmag > 0.0
        res_full = float(np.max(np.abs(total_all[nz] - 1.0)))
        return res_chi, res_full


@functools.lru_cache(maxsize=8)
def build_partition(grid: TorusGrid) -> DyadicPartition:
    """Partition for ``grid``, cached for the few most recent grids."""
    return DyadicPartition(grid)


# ---- blocks ------------------------------------------------------------------


def dyadic_block(f: SpectralField, q: int) -> SpectralField:
    """Band-pass block at scale 2^q; zero with a warning outside the range."""
    part = build_partition(f.grid)
    if not part.contains(q):
        warnings.warn(f"dyadic block q={q} outside resolved range "
                      f"[{part.q_min}, {part.q_max}]; returning zero field")
        return type(f).zero(f.grid)
    return f.apply_multiplier(part.phi_weights(q))


def block_l2_norms(f: SpectralField | np.ndarray,
                   partition: DyadicPartition | None = None,
                   gradient_weight: bool = False) -> np.ndarray:
    """L2 norms of every dyadic block, shape (nq,).

    With ``gradient_weight`` the blocks of the full gradient are measured
    instead (an exact |k|^2 factor on the squared magnitudes under Parseval).
    ``f`` may also be per-mode squared magnitudes (``operators.mode_sq``),
    shape ``spec_shape``, or a stack of them, shape ``(m,) + spec_shape``,
    giving shape ``(m, nq)``; the partition is then required.  A caller that
    measures several series of one field so forms its magnitudes once.
    The magnitudes may also lie on the 2/3-rule band, shape
    ``band_shape(dealias_radius)``, for a field that vanishes outside it:
    the partition's tables on that layout (``layout_tables``) give the
    same norms up to the summation order.  A field given with a partition
    of another grid is a ``GridError``.
    """
    if isinstance(f, SpectralField):
        part = partition or build_partition(f.grid)
        part.grid.require_same(f.grid)
        sq = mode_sq(f)
    elif partition is None:
        raise ValueError("block_l2_norms of squared magnitudes needs a partition")
    else:
        part, sq = partition, np.asarray(f)
    grid = part.grid
    phi_sq, k2 = part.layout_tables(sq.shape[sq.ndim - grid.d:])
    if gradient_weight:
        sq = sq * k2
    phi_sq = phi_sq.reshape(part.nq, -1)
    vals = sq.reshape(-1, phi_sq.shape[1]) @ phi_sq.T
    norms = np.sqrt(vals * grid.volume)
    return norms if sq.ndim > grid.d else norms[0]


def hybrid_weights(q_values: np.ndarray, s: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Block weights of the hybrid norm and of the ledger's energy.

    Returns ``(w_hs, w_high)``, each shaped like ``q_values``: ``w_hs =
    2^{2qs}`` weighs squared block norms into the Sobolev-type part, and
    ``w_high = 2^{qd/2}`` on ``q >= 0`` (0 below) weighs block norms into
    the l1 Besov high part.
    """
    q = np.asarray(q_values)
    return 2.0 ** (2.0 * s * q), np.where(q >= 0, 2.0 ** (q * d / 2.0), 0.0)


# ---- spatial norms -----------------------------------------------------------


def _aggregate(weighted: np.ndarray, r: float) -> float:
    if r == 1.0:
        return float(np.sum(weighted))
    if r == 2.0:
        return float(np.sqrt(np.sum(weighted**2)))
    if np.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    raise UnsupportedIndexError(f"r must be 1, 2 or inf, got {r}")


def besov_norm(f: SpectralField, s: float, r: float = 1.0) -> float:
    """Homogeneous Besov norm of ``B^s_{2,r}``: l^r over q of
    2^{qs} ||block_q f||_L2, for r = 1, 2 or inf."""
    part = build_partition(f.grid)
    return besov_from_blocks(block_l2_norms(f, part), part.q_values, s, r)


def besov_from_blocks(norms: np.ndarray, q_values: np.ndarray, s: float,
                      r: float = 1.0) -> float:
    """``besov_norm`` of a field from its block L2 norms at ``q_values``."""
    return _aggregate(2.0 ** (q_values * s) * norms, r)


def hs_norm(f: SpectralField, s: float, partition: DyadicPartition | None = None) -> float:
    """Sobolev-type norm through the blocks (Besov with r = 2).  A
    ``partition`` of another grid than ``f``'s is a ``GridError``."""
    if partition is not None:
        partition.grid.require_same(f.grid)
    return besov_norm(f, s, 2.0)


def hybrid_norm(f: SpectralField, s: float) -> tuple[float, float, float]:
    """Two-piece norm: l2 with weight 2^{qs} below q=0, l1 with weight
    2^{q d/2} from q=0 up.  Returns (total, low_part, high_part).

    The equivalence with the sum of the Sobolev-type and l1 Besov norms
    needs s < d/2; larger s still evaluates but loses that meaning.
    """
    part = build_partition(f.grid)
    return hybrid_from_blocks(block_l2_norms(f, part), part.q_values, s, f.grid.d)


def hybrid_from_blocks(norms: np.ndarray, q_values: np.ndarray, s: float,
                       d: int) -> tuple[float, float, float]:
    """``hybrid_norm`` of a field in dimension ``d`` from its block L2
    norms at ``q_values``."""
    w_hs, w_high = hybrid_weights(q_values, s, d)
    low_sel = q_values < 0
    low = float(np.sqrt(np.sum(w_hs[low_sel] * norms[low_sel] ** 2)))
    high = float(np.sum(w_high * norms))
    return low + high, low, high


# ---- Bony decomposition --------------------------------------------------------


def _require_scalar(f: SpectralField, name: str) -> None:
    if not isinstance(f, ScalarField):
        raise ValueError(f"{name} expects scalar fields")


def paraproduct(f: ScalarField, g: ScalarField) -> ScalarField:
    """Bony paraproduct of f on g: sum_q lowpass_{q-1}(f) * block_q(g)."""
    _require_scalar(f, "paraproduct")
    _require_scalar(g, "paraproduct")
    f.grid.require_same(g.grid)
    part = build_partition(f.grid)
    grid = f.grid
    acc = np.zeros((1,) + grid.shape)
    for q in part.q_values:
        sf = grid.to_physical(f.coeffs * part.chi_weights(int(q) - 1))
        dg = grid.to_physical(g.coeffs * part.phi_weights(int(q)))
        acc += sf * dg
    return ScalarField(grid, grid.to_spectral(acc, grid.dealias_radius))


def remainder(f: ScalarField, g: ScalarField) -> ScalarField:
    """Bony remainder: sum_q block_q(f) * (block_{q-1}+block_q+block_{q+1})(g)."""
    _require_scalar(f, "remainder")
    _require_scalar(g, "remainder")
    f.grid.require_same(g.grid)
    part = build_partition(f.grid)
    grid = f.grid
    acc = np.zeros((1,) + grid.shape)
    for q in part.q_values:
        near = np.zeros(grid.spec_shape)
        for p in (int(q) - 1, int(q), int(q) + 1):
            if part.contains(p):
                near += part.phi_weights(p)
        df = grid.to_physical(f.coeffs * part.phi_weights(int(q)))
        ng = grid.to_physical(g.coeffs * near)
        acc += df * ng
    return ScalarField(grid, grid.to_spectral(acc, grid.dealias_radius))


# ---- commutator ----------------------------------------------------------------


def commutator_block_norms(u: VectorField, f: SpectralField) -> np.ndarray:
    """L2 norm of the transport commutator block_q(u.grad f) - u.grad(block_q f)
    at every block, shape (nq,)."""
    part = build_partition(u.grid)
    u_phys = u.to_physical()
    transported = advect(u, f, u_phys)
    out = np.empty(part.nq)
    for i, q in enumerate(part.q_values):
        phi = part.phi_weights(int(q))
        out[i] = l2_norm(transported.apply_multiplier(phi)
                         - advect(u, f.apply_multiplier(phi), u_phys))
    return out

