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

Built on the blocks: Besov norms (p = 2 only), the hybrid norm measuring
low frequencies in l2 fashion and high frequencies in l1 fashion, low/high
split norms, Chemin-Lerner time norms, Bony's paraproduct/remainder
decomposition, transport commutators, and Bernstein ratio reports.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, SpectralField, VectorField
from .grid import TorusGrid
from .operators import advect, gradient, lp_norm, mode_sq

CHI_SUPPORT = (0.75, 4.0 / 3.0)
PHI_SUPPORT = (0.75, 8.0 / 3.0)


class UnsupportedIndexError(ValueError):
    """Besov index outside what the L2-based machinery supports."""


@dataclass(frozen=True)
class BesovIndex:
    """Regularity s, integrability p, summation exponent r."""

    s: float
    p: float = 2.0
    r: float = 1.0

    def __post_init__(self):
        if self.r not in (1.0, 2.0, np.inf):
            raise UnsupportedIndexError(f"r must be 1, 2 or inf, got {self.r}")


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
    and kept once per distinct |k|^2 (``grid.shells``), shape
    ``(nq, n_shells)``, and gathered to the modes on demand
    (``phi_mults``, ``phi_weights``), with the same values to the bit as an
    evaluation at every mode.  The one per-mode table kept is the squared
    multiplier times the Parseval weight, which ``block_l2_norms``
    contracts with.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        kmin = grid.k_scale  # smallest nonzero |k|
        self.q_min = math.ceil(math.log2(3.0 / 8.0 * kmin))
        self.q_max = math.ceil(math.log2(8.0 / 3.0 * grid.k_scale * grid.k_nyquist))
        self.q_values = np.arange(self.q_min, self.q_max + 1)
        k2, inverse = grid.shells
        scaled = np.sqrt(k2) / (2.0 ** self.q_values[:, None])
        #: phi at every shell and block, shape (nq, n_shells)
        self.phi_shell = phi_profile(scaled)
        # squared multipliers with the Parseval weight of each stored mode
        self._phi_sq = np.take(self.phi_shell**2, inverse, axis=1) * grid.multiplicity
        self._chi_cache: dict[int, np.ndarray] = {}

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


def dyadic_block(f: SpectralField, q: int, partition: DyadicPartition | None = None) -> SpectralField:
    """Band-pass block at scale 2^q; zero with a warning outside the range."""
    part = partition or build_partition(f.grid)
    if not part.contains(q):
        warnings.warn(f"dyadic block q={q} outside resolved range "
                      f"[{part.q_min}, {part.q_max}]; returning zero field")
        return type(f).zero(f.grid)
    return f.apply_multiplier(part.phi_weights(q))


def low_cutoff(f: SpectralField, q: int, partition: DyadicPartition | None = None) -> SpectralField:
    """Low-pass cutoff chi(2^-q |k|) f."""
    part = partition or build_partition(f.grid)
    if q < part.q_min:
        warnings.warn(f"low cutoff q={q} below resolved range; returning zero field")
        return type(f).zero(f.grid)
    return f.apply_multiplier(part.chi_weights(q))


class DyadicDecomposition:
    """All blocks of one field, as a map q -> band-limited field."""

    def __init__(self, field: SpectralField, partition: DyadicPartition | None = None):
        self.partition = partition or build_partition(field.grid)
        self.source_grid = field.grid
        self.blocks = {
            int(q): dyadic_block(field, int(q), self.partition)
            for q in self.partition.q_values
        }

    def reconstruct(self) -> SpectralField:
        fields = list(self.blocks.values())
        total = fields[0].copy()
        for blk in fields[1:]:
            total = total + blk
        return total


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
    """
    if isinstance(f, SpectralField):
        part = partition or build_partition(f.grid)
        sq = mode_sq(f)
    elif partition is None:
        raise ValueError("block_l2_norms of squared magnitudes needs a partition")
    else:
        part, sq = partition, np.asarray(f)
    grid = part.grid
    if gradient_weight:
        sq = sq * grid.k2
    phi_sq = part._phi_sq.reshape(part.nq, -1)
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


def besov_norm(f: SpectralField, index: BesovIndex | None = None, *,
               s: float | None = None, r: float = 1.0, p: float = 2.0,
               partition: DyadicPartition | None = None) -> float:
    """Homogeneous Besov norm: l^r over q of 2^{qs} ||block_q f||_L2."""
    if index is None:
        index = BesovIndex(s=float(s), p=p, r=r)
    if index.p != 2.0:
        raise UnsupportedIndexError("only p = 2 norms are supported")
    part = partition or build_partition(f.grid)
    norms = block_l2_norms(f, part)
    weights = 2.0 ** (part.q_values * index.s)
    return _aggregate(weights * norms, index.r)


def hs_norm(f: SpectralField, s: float, partition: DyadicPartition | None = None) -> float:
    """Sobolev-type norm through the blocks (Besov with r = 2)."""
    return besov_norm(f, BesovIndex(s=s, r=2.0), partition=partition)


def split_besov_norm(f: SpectralField, s: float, side: str,
                     partition: DyadicPartition | None = None) -> float:
    """l1 Besov sum restricted to q < 0 ('low') or q >= 0 ('high')."""
    if side not in ("low", "high"):
        raise ValueError(f"side must be 'low' or 'high', got {side!r}")
    part = partition or build_partition(f.grid)
    norms = block_l2_norms(f, part)
    sel = part.q_values < 0 if side == "low" else part.q_values >= 0
    weights = 2.0 ** (part.q_values[sel] * s)
    return float(np.sum(weights * norms[sel]))


def hybrid_norm(f: SpectralField, s: float,
                partition: DyadicPartition | None = None) -> tuple[float, float, float]:
    """Two-piece norm: l2 with weight 2^{qs} below q=0, l1 with weight
    2^{q d/2} from q=0 up.  Returns (total, low_part, high_part).

    The equivalence with the sum of the Sobolev-type and l1 Besov norms
    needs s < d/2; larger s still evaluates but loses that meaning.
    """
    part = partition or build_partition(f.grid)
    norms = block_l2_norms(f, part)
    w_hs, w_high = hybrid_weights(part.q_values, s, f.grid.d)
    low_sel = part.q_values < 0
    low = float(np.sqrt(np.sum(w_hs[low_sel] * norms[low_sel] ** 2)))
    high = float(np.sum(w_high * norms))
    return low + high, low, high


# ---- time norms --------------------------------------------------------------


def chemin_lerner_from_blocks(times: np.ndarray, block_norms: np.ndarray,
                              q_values: np.ndarray, rho: float, s: float,
                              r: float = 1.0) -> float:
    """Chemin-Lerner norm from a sampled (nt, nq) matrix of block L2 norms.

    Per block the time norm is the exact max for rho = inf and a trapezoid
    quadrature otherwise; the l^r sum over blocks then carries the 2^{qs}
    weights.
    """
    times = np.asarray(times, dtype=np.float64)
    block_norms = np.asarray(block_norms, dtype=np.float64)
    if times.size == 0 or block_norms.shape[0] != times.size:
        raise ValueError("empty or mismatched time series")
    if rho not in (1.0, 2.0, np.inf):
        raise UnsupportedIndexError(f"rho must be 1, 2 or inf, got {rho}")
    if np.isinf(rho):
        per_q = np.max(block_norms, axis=0)
    elif times.size == 1:
        per_q = np.zeros(block_norms.shape[1])
    else:
        per_q = np.trapezoid(block_norms**rho, times, axis=0) ** (1.0 / rho)
    weights = 2.0 ** (np.asarray(q_values) * s)
    return _aggregate(weights * per_q, r)


def chemin_lerner_norm(samples, times, rho: float, s: float, r: float = 1.0,
                       partition: DyadicPartition | None = None) -> float:
    """Chemin-Lerner norm of a uniformly sampled field trajectory."""
    samples = list(samples)
    if not samples:
        raise ValueError("empty time series")
    part = partition or build_partition(samples[0].grid)
    mat = np.stack([block_l2_norms(f, part) for f in samples])
    return chemin_lerner_from_blocks(np.asarray(times), mat, part.q_values, rho, s, r)


# ---- Bony decomposition --------------------------------------------------------


def _require_scalar(f: SpectralField, name: str) -> None:
    if not isinstance(f, ScalarField):
        raise ValueError(f"{name} expects scalar fields")


def paraproduct(f: ScalarField, g: ScalarField,
                partition: DyadicPartition | None = None) -> ScalarField:
    """Bony paraproduct of f on g: sum_q lowpass_{q-1}(f) * block_q(g)."""
    _require_scalar(f, "paraproduct")
    _require_scalar(g, "paraproduct")
    f.grid.require_same(g.grid)
    part = partition or build_partition(f.grid)
    grid = f.grid
    acc = np.zeros((1,) + grid.shape)
    for q in part.q_values:
        sf = grid.to_physical(f.coeffs * part.chi_weights(int(q) - 1))
        dg = grid.to_physical(g.coeffs * part.phi_weights(int(q)))
        acc += sf * dg
    return ScalarField(grid, grid.to_spectral(acc, grid.dealias_mask))


def remainder(f: ScalarField, g: ScalarField,
              partition: DyadicPartition | None = None) -> ScalarField:
    """Bony remainder: sum_q block_q(f) * (block_{q-1}+block_q+block_{q+1})(g)."""
    _require_scalar(f, "remainder")
    _require_scalar(g, "remainder")
    f.grid.require_same(g.grid)
    part = partition or build_partition(f.grid)
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
    return ScalarField(grid, grid.to_spectral(acc, grid.dealias_mask))


# ---- commutator ----------------------------------------------------------------


def commutator(q: int, u: VectorField, f: SpectralField,
               partition: DyadicPartition | None = None,
               u_phys: np.ndarray | None = None,
               transported: SpectralField | None = None) -> SpectralField:
    """Transport commutator block_q(u.grad f) - u.grad(block_q f).

    ``transported`` may carry a precomputed ``advect(u, f)`` when the caller
    loops over q.
    """
    part = partition or build_partition(u.grid)
    if not part.contains(q):
        raise ValueError(f"q={q} outside resolved range [{part.q_min}, {part.q_max}]")
    if u_phys is None:
        u_phys = u.to_physical()
    if transported is None:
        transported = advect(u, f, u_phys)
    first = dyadic_block(transported, q, part)
    second = advect(u, dyadic_block(f, q, part), u_phys)
    return first - second


def commutator_block_norms(u: VectorField, f: SpectralField,
                           partition: DyadicPartition | None = None) -> np.ndarray:
    """L2 norm of the transport commutator at every block, shape (nq,)."""
    from .operators import l2_norm

    part = partition or build_partition(u.grid)
    u_phys = u.to_physical()
    transported = advect(u, f, u_phys)
    out = np.empty(part.nq)
    for i, q in enumerate(part.q_values):
        out[i] = l2_norm(
            commutator(int(q), u, f, part, u_phys=u_phys, transported=transported)
        )
    return out


# ---- Bernstein ratio reports -----------------------------------------------------


def bernstein_check(f: SpectralField, q: int, partition: DyadicPartition | None = None,
                    a: float = 2.0, b: float = np.inf) -> dict:
    """Measured derivative and cross-exponent ratios for a block-q field.

    The returned ratios come normalized by the expected powers of 2^q:
    ``grad_normalized`` should sit in a q-independent interval and
    ``cross_normalized`` is scaled by 2^{-q d (1/a - 1/b)}.
    """
    part = partition or build_partition(f.grid)
    if not part.contains(q):
        raise ValueError(f"q={q} outside resolved range")
    support = part.phi_weights(q) > 0.0
    mags = np.abs(f.coeffs)
    outside = float(np.max(mags * ~support))
    scale = float(np.max(mags))
    if scale == 0.0:
        raise ValueError("zero field")
    if outside > 1e-13 * scale:
        raise ValueError(f"field is not supported in block q={q}")
    if not isinstance(f, ScalarField):
        raise ValueError("bernstein_check expects a scalar field")

    norm_a = lp_norm(f, a)
    grad_ratio = lp_norm(gradient(f), a) / norm_a
    cross_ratio = lp_norm(f, b) / norm_a
    lam = 2.0**q
    d = f.grid.d
    cross_power = d * (1.0 / a - 1.0 / b)
    return {
        "q": int(q),
        "a": a,
        "b": b,
        "grad_ratio": grad_ratio,
        "grad_normalized": grad_ratio / lam,
        "cross_ratio": cross_ratio,
        "cross_normalized": cross_ratio / lam**cross_power,
    }


# ---- reports --------------------------------------------------------------------


def norm_report(f: SpectralField, norm_kind: str, s: float, p: float = 2.0,
                r: float = 1.0, rho: float | None = None,
                partition: DyadicPartition | None = None) -> dict:
    """JSON-ready record for one norm evaluation."""
    part = partition or build_partition(f.grid)
    rec = {
        "norm_kind": norm_kind,
        "s": s,
        "p": p,
        "r": r,
        "q_range": [int(part.q_min), int(part.q_max)],
    }
    if rho is not None:
        rec["rho"] = rho
    if norm_kind == "besov":
        rec["value"] = besov_norm(f, BesovIndex(s=s, p=p, r=r), partition=part)
    elif norm_kind == "hybrid":
        total, low, high = hybrid_norm(f, s, partition=part)
        rec.update({"value": total, "low_part": low, "high_part": high})
    else:
        raise ValueError(f"unknown norm kind {norm_kind!r}")
    return rec
