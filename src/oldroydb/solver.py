"""Time integration of the dimensionless Oldroyd-B system on the torus.

The evolved unknowns are the Leray-projected velocity u and the symmetric
extra stress tau of

    Re (u_t + (u.grad) u) - (1-omega) Lap u + grad Pi = div tau
    We (tau_t + (u.grad) tau + g_alpha(tau, grad u)) + tau = 2 omega D(u)
    div u = 0

with the pressure eliminated by projection and the k = 0 mode pinned to
zero.  The linear part (viscosity, relaxation, and the div tau / 2 omega D(u)
coupling) is advanced exactly: per mode it reduces to a 2x2 block on
(u, P(tau k)/|k|) plus relaxation of tau, whose coefficients come from one
3x3 matrix exponential per distinct |k|^2 (``LinearPropagator``); the
quadratic terms go through a second-order Adams-Bashforth rule in the
integrating-factor frame (forward Euler on the first step).  Keeping the
coupling inside the exact part preserves the linear energy balance

    d/dt [ omega Re ||u||^2 + (We/2) ||tau||^2 ] <= 0   (no nonlinear terms)

to machine precision.  An optional sharp frequency cutoff of radius
``friedrichs_n`` restricts the dynamics to a ball of modes.

The unknown (u, tau) is one stacked array, the d velocity rows then the
nt = d(d+1)/2 stress rows, passed whole from layer to layer.  The
dealiased products are free of aliasing only while the state lies in the
2/3-rule band, and every step keeps it there, so the trajectory lives on
that band alone, as the compact ``(d + nt,) + grid.band_shape(n // 3)``
array: ``rhs_band`` forms the tendencies of a band on the band (the
kernel, ``quadratic_terms``, reads the band itself, so no half spectrum
of the state is formed for it), ``LinearPropagator`` holds its tables
there and ``apply`` advances the band, a state (``SolverState``) is its
read-only band, and ``simulate`` takes each ledger row from it
(``EnergyLedger.update_band``).  ``rhs_nonlinear`` is the same tendency
for half-spectrum fields, whose band it gathers first.  The half-spectrum
fields ``u`` and ``tau`` of a state, zero outside the band, are formed
only when read.  Set-up is on the band as well: every table a run reads
is built on the band (``grid.band_k``, ``grid.band_shells``, ...),
``random_band`` draws the initial data straight onto it, one component at
a time, the band of the half-spectrum recipe to the rounding of its norm,
and ``Simulation(config)`` starts from the state of that band
(``make_initial_state``).
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fields import SymTensorField, VectorField
from .grid import GridError, TorusGrid, band_leray_tables, period_scales
from .littlewood_paley import block_l2_norms, build_partition, hybrid_from_blocks
from .operators import kernel_scratch, leray_coeffs, mode_sq_coeffs, quadratic_terms


class ConfigError(ValueError):
    """Invalid solver configuration."""


class DivergenceError(RuntimeError):
    """The time integration produced non-finite values.

    ``field`` names the first non-finite quantity in the order they are
    checked: the nonlinear tendencies ``nu`` and ``ntau``, then the updated
    state ``u`` and ``tau``, then a ledger row (``E``).  A ledger raises
    with ``step_index`` None; ``simulate`` fills in the step of the row.
    """

    def __init__(self, step_index: int | None, t: float, field: str):
        super().__init__(step_index, t, field)
        self.step_index, self.t, self.field = step_index, t, field

    def __str__(self) -> str:
        at = "" if self.step_index is None else f" at step {self.step_index}"
        return f"solution diverged{at}, t = {self.t:.6g}: {self.field} is not finite"


@dataclass(frozen=True)
class FluidParams:
    """Dimensionless fluid parameters."""

    re: float = 1.0
    we: float = 1.0
    omega: float = 0.5
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.re < np.inf:
            raise ConfigError(f"re must be positive and finite, got {self.re}")
        if not 0.0 < self.we < np.inf:
            raise ConfigError(f"we must be positive and finite, got {self.we}")
        if not 0.0 < self.omega < 1.0:
            raise ConfigError(f"omega must lie in (0, 1), got {self.omega}")
        if not -1.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [-1, 1], got {self.alpha}")


def default_s(d: int) -> float:
    """Default regularity index for the monitored norms (0 in 3d, -1/4 in 2d)."""
    return 0.0 if d >= 3 else -0.25


@dataclass(frozen=True)
class InitSpec:
    """Initial-data recipe: band-limited random fields at a given amplitude.

    ``amplitude`` prescribes the combined hybrid norm of (u0, tau0) at the
    configured regularity index; ``band`` bounds |k| of the populated modes.
    """

    kind: str = "random_band"
    amplitude: float = 1e-3
    band: tuple[float, float] = (1.0, 8.0)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("random_band", "zero"):
            raise ConfigError(f"unknown initial-data kind {self.kind!r}")
        if not 0.0 <= self.amplitude < np.inf:
            raise ConfigError(f"amplitude must be nonnegative and finite, got {self.amplitude}")
        try:
            lo, hi = (_as_float("band", x) for x in self.band)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"band must be two numbers, got {self.band!r}") from None
        if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo < hi):
            raise ConfigError(f"band must satisfy 0 <= lo < hi (finite), got {self.band!r}")
        object.__setattr__(self, "band", (lo, hi))
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SolverConfig:
    d: int = 2
    n: int = 128
    period: float = 2.0 * np.pi
    dt: float = 0.05
    t_end: float = 1.0
    params: FluidParams = field(default_factory=FluidParams)
    friedrichs_n: float | None = None
    s: float | None = None
    init: InitSpec = field(default_factory=InitSpec)
    output_stride: int = 1
    out_dir: str | None = None
    nonlinear: bool = True

    def __post_init__(self):
        if not 0.0 < self.period < np.inf:
            raise ConfigError(f"period must be positive and finite, got {self.period}")
        if self.d in (2, 3) and self.n >= 8:  # else the grid rejects d or n
            try:
                period_scales(self.d, self.n, self.period)
            except GridError as exc:
                raise ConfigError(str(exc)) from None
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")
        steps = self.t_end / self.dt
        # above 2**53 every double is whole, so the count must stay below it
        if not (steps <= 2**53 and abs(steps - round(steps)) <= 1e-9):
            raise ConfigError(f"t_end = {self.t_end} is not a whole number of at most "
                              f"2**53 steps dt = {self.dt}")
        if self.output_stride < 1:
            raise ConfigError("output_stride must be at least 1")
        if self.friedrichs_n is not None and not 0.0 <= self.friedrichs_n <= self.n // 2:
            raise ConfigError("friedrichs_n must lie between 0 and the Nyquist radius")
        # the paper's window for the Sobolev-type part of the hybrid norm
        if self.s is not None and not -self.d / 2 < self.s < self.d / 2 - 1:
            raise ConfigError(f"s must satisfy -d/2 < s < d/2 - 1, the interval "
                              f"({-self.d / 2:g}, {self.d / 2 - 1:g}) at d = {self.d}; "
                              f"got {self.s}")

    @property
    def n_steps(self) -> int:
        """Number of steps of dt that reach t_end."""
        return int(round(self.t_end / self.dt))

    @property
    def s_value(self) -> float:
        return default_s(self.d) if self.s is None else self.s

    def to_dict(self) -> dict:
        p = self.params
        doc = {
            "d": self.d, "n": self.n, "period": self.period,
            "dt": self.dt, "t_end": self.t_end,
            "re": p.re, "we": p.we, "omega": p.omega, "alpha": p.alpha,
            "friedrichs_n": self.friedrichs_n,
            "s": self.s,
            "init": {
                "kind": self.init.kind,
                "amplitude": self.init.amplitude,
                "band": list(self.init.band),
                "seed": self.init.seed,
            },
            "output": {"stride": self.output_stride, "dir": self.out_dir},
            "nonlinear": self.nonlinear,
        }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SolverConfig":
        _reject_unknown(doc, _SCHEMA, "")
        init_doc = _section(doc, "init")
        out = _section(doc, "output")
        out_dir = out.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError(f"output.dir must be a string or null, got {out_dir!r}")
        if "nonlinear" in doc and not isinstance(doc["nonlinear"], bool):
            raise ConfigError(f"nonlinear must be true or false, got {doc['nonlinear']!r}")
        try:
            params = FluidParams(**_given(doc, "", re=_as_float, we=_as_float,
                                          omega=_as_float, alpha=_as_float))
            init = InitSpec(**_given(init_doc, "init.", kind=None, amplitude=_as_float,
                                     band=None, seed=_as_int))
            kwargs = _given(doc, "", d=_as_int, n=_as_int, period=_as_float, dt=_as_float,
                            t_end=_as_float, friedrichs_n=_optional_float,
                            s=_optional_float, nonlinear=None)
            if "stride" in out:
                kwargs["output_stride"] = _as_int("output.stride", out["stride"])
            return cls(params=params, init=init, out_dir=out_dir, **kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed config: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON and integers too long to convert
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        return cls.from_dict(doc)


def _reject_unknown(doc: dict, allowed: dict, prefix: str) -> None:
    unknown = sorted(set(doc) - set(allowed), key=str)
    if unknown:
        names = ", ".join(prefix + str(key) for key in unknown)
        raise ConfigError(f"unknown config key(s): {names}")


def _section(doc: dict, key: str) -> dict:
    """A nested config object (``init``, ``output``), empty if absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    _reject_unknown(value, _SCHEMA[key], key + ".")
    return value


def _given(doc: dict, prefix: str, **convert) -> dict:
    """Keyword arguments for the keys of ``convert`` that ``doc`` holds, each
    value passed through its conversion ``fn(prefix + key, value)``
    (``None``: as it is).  An absent key keeps the dataclass default."""
    return {key: doc[key] if fn is None else fn(prefix + key, doc[key])
            for key, fn in convert.items() if key in doc}


def _as_float(name: str, value) -> float:
    """A real number; "2", " 2 " and true are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _optional_float(name: str, value) -> float | None:
    return None if value is None else _as_float(name, value)


def _as_int(name: str, value) -> int:
    """An integer-valued number; 2.0 is accepted, 2.7 and "2" are not."""
    if not _as_float(name, value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


#: every key ``from_dict`` accepts, at each level: those ``to_dict`` writes
_SCHEMA = SolverConfig().to_dict()


# ---- Friedrichs cutoff -------------------------------------------------------


def friedrichs_mask(grid: TorusGrid, radius: float) -> np.ndarray:
    """Indicator of |k| <= radius (radius in units of the fundamental mode)."""
    if radius < 0:
        raise ConfigError("cutoff radius must be nonnegative")
    return (grid.kmag / grid.k_scale <= radius).astype(np.float64)


def friedrichs_truncate(f, radius: float):
    """Sharp frequency cutoff; idempotent by construction."""
    return f.apply_multiplier(friedrichs_mask(f.grid, radius))


# ---- linear propagator ---------------------------------------------------------


#: coefficients b_0 .. b_13 of the degree-13 Pade approximant to exp
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
#: largest 1-norm at which the degree-13 approximant is accurate to double
#: precision without scaling
_THETA13 = 5.371920351148152


def _expm_batch(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix of a real finite ``(K, m, m)`` stack.

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26; Al-Mohy & Higham 2009, SIAM J. Matrix
    Anal. Appl. 31), vectorized over the stack with one batched solve.  Each
    matrix is scaled by its own power of two, 2^-s with the least s >= 0
    that brings its 1-norm to ``_THETA13``, and squared back s times: a
    common power would overscale the small matrices.  A matrix is held as
    E = exp - I, squared as 2E + E^2, while some entry of exp is at least
    1/2, so near-identity matrices keep the low bits of their small entries;
    once it has decayed below that it is held and squared as exp itself.
    A zero matrix gives the identity exactly.
    """
    b = _PADE13
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    mant, expo = np.frexp(norm / _THETA13)
    # s = ceil(log2(norm / theta)), at least 0 (a zero norm gives 0)
    s = np.maximum(expo - (mant == 0.5), 0)
    a = np.ldexp(a, -s[:, None, None])
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (v + u)/(v - u) - I, exactly 0 for a zero matrix
    ex = np.linalg.solve(v - u, 2.0 * u)
    held = np.ones((len(ex), 1, 1), dtype=bool)  # matrices held as exp - I
    for j in range(int(s.max(initial=0))):
        small = np.max(np.abs(ex + eye).reshape(len(ex), -1), axis=1) < 0.5
        drop = held & small[:, None, None]
        ex += drop * eye
        held &= ~drop
        sq = ex @ ex
        ex = np.where((s > j)[:, None, None], np.where(held, 2.0 * ex + sq, sq), ex)
    return ex + held * eye


def _real_generators(k2: np.ndarray, params: FluidParams) -> np.ndarray:
    """The 3x3 generators of ``block_coefficients`` at the given |k|^2, in
    the real form D^-1 G D, D = diag(1, i, 1); shape ``(k2.size, 3, 3)``."""
    kn = np.sqrt(k2)
    b = 1.0 / params.we
    gen = np.zeros((k2.size, 3, 3))
    gen[:, 0, 0] = -(1.0 - params.omega) * k2 / params.re
    gen[:, 0, 1] = -kn / params.re
    gen[:, 1, 0] = params.omega * kn * b
    gen[:, 1, 1] = -b
    gen[:, 2, 0] = 1.0
    gen[:, 2, 2] = -b
    return gen


def block_coefficients(shells: tuple[np.ndarray, np.ndarray], params: FluidParams,
                       dt: float) -> np.ndarray:
    """Per-mode coefficients (e_uu, e_uz, g_u, g_z, decay) of the linear step
    on a layout given by its shell table ``shells = (k2, index)``: the
    distinct |k|^2, ascending, and the shell of each mode, as
    ``np.unique(..., return_inverse=True)`` gives them (``grid.band_shells``
    on the 2/3-rule band, ``grid.shells`` on the half spectrum).

    Shape ``(5,) + index.shape``, complex, zero where |k|^2 is 0 (see
    ``LinearPropagator``).  A third row w' = u - b w carries the Duhamel
    integral of the drive, so one 3x3 exponential per distinct |k|^2 gives
    every coefficient (double root and a == b included); each matrix comes
    out with the same bits whichever other shells share its batch.  The
    stack is exponentiated by ``_expm_batch`` in the real form D^-1 G D,
    D = diag(1, i, 1), of the generator

        G = [[-a, i|k|/Re, 0], [i omega |k|/We, -b, 0], [1, 0, -b]],

    so e_uu, g_z and decay come out exactly real and e_uz, g_u exactly
    imaginary.  Raises ``ConfigError`` if ``dt`` is so large that the
    generator or the coefficients are not finite.
    """
    k2, inverse = shells
    # the k = 0 shell stays zero: its generator has an eigenvalue 0, and a
    # rounding error there would grow through every squaring
    zero = int(k2[0] == 0.0)
    k2 = k2[zero:]
    with np.errstate(over="ignore"):
        gen = _real_generators(k2, params) * float(dt)
    if not np.all(np.isfinite(gen)):
        raise ConfigError(f"dt = {dt} overflows the linear generator")
    with np.errstate(over="ignore", invalid="ignore"):
        ex = _expm_batch(gen)
    # exp(G)[r, c] = ex[r, c] D_r / D_c, and the drive is i omega |k|/We
    drive = params.omega * np.sqrt(k2) / params.we
    table = np.zeros((5, zero + k2.size), dtype=np.complex128)
    table.real[[0, 3, 4], zero:] = (ex[:, 0, 0], drive * ex[:, 2, 1], ex[:, 2, 2])
    table.imag[[1, 2], zero:] = (-ex[:, 0, 1], drive * ex[:, 2, 0])
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"dt = {dt} gives non-finite linear-step coefficients")
    return np.take(table, inverse, axis=1)


#: rows of the propagator's coefficient table, in the order of
#: ``block_coefficients``
_E_UU, _E_UZ, _G_U, _G_Z, _DECAY = range(5)


class LinearPropagator:
    """Exact linear update over dt for every mode of a grid's 2/3-rule band.

    The velocity sees the stress only through zeta = P(tau k)/|k|, so per
    mode (u, zeta) evolve by [[-a, i|k|/Re], [i omega |k|/We, -b]], with
    a = (1-omega)|k|^2/Re and b = 1/We, and tau relaxes at rate b under the
    drive (i omega/We) sym(k (x) u).  The tables are held on the band,
    ``(5,) + grid.band_shape(grid.dealias_radius)`` and ``(d,) + ...``, and
    built from the grid's band tables and its band shells
    (``grid.band_shells``): every state ``Simulation`` steps lies there.
    The five coefficients of ``block_coefficients`` and the unit
    wavevector ``khat`` are stored as complex128, so no product in
    ``apply`` makes numpy cast a real table to complex chunk by chunk.  The
    exactly imaginary e_uz and g_u are stored as ``1j * x`` of their
    imaginary parts x: the sign of that product's zero real part (-0 where
    x < 0) fixes the signs of zeros in the results.
    """

    def __init__(self, grid: TorusGrid, params: FluidParams, dt: float):
        self.grid = grid
        coeffs = block_coefficients(grid.band_shells, params, dt)
        np.multiply(1j, coeffs[1:3].imag, out=coeffs[1:3])
        self._coeffs = coeffs
        self._khat = np.zeros(grid.band_k.shape, np.complex128)
        np.divide(grid.band_k, grid.band_kmag, out=self._khat.real, where=grid.band_k2 > 0.0)

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Advance a stacked array on the 2/3-rule band, ``(d + nt,) +
        grid.band_shape(grid.dealias_radius)``, the rows of u then those of
        tau, by one linear step.

        The velocity rows must be divergence-free at every mode: the update
        treats u as transverse to k.  Every state and every projected
        tendency that ``Simulation.advance`` passes is.  The result is
        written into ``out`` if given, which may be ``x`` itself, else into
        a fresh array; each row of ``x`` is overwritten only after its last
        read, so the bits are the same either way.  The products are
        written through ``tk``, one velocity-sized and one single-component
        scratch that live for this call only.  The coefficient rows are
        indexed where they are used, so no view of them outlives its
        product.
        """
        coeffs, khat = self._coeffs, self._khat
        if x.shape[1:] != khat.shape[1:]:
            raise ValueError(f"the linear-step tables hold rows of shape {khat.shape[1:]}, "
                             f"not {x.shape[1:]}")
        d = self.grid.d
        u, tau = x[:d], x[d:]
        if out is None:
            out = np.empty_like(x)
        u_new, tau_new = out[:d], out[d:]
        pairs = SymTensorField.pairs(d)
        scratch = np.empty_like(u)
        comp = np.empty_like(u[0])
        tk = np.zeros_like(u)
        for c, (i, j) in enumerate(pairs):
            tk[i] += np.multiply(tau[c], khat[j], out=comp)
            if i != j:
                tk[j] += np.multiply(tau[c], khat[i], out=comp)
        # zeta = tk - khat (khat . tk), formed in tk
        np.sum(np.multiply(khat, tk, out=scratch), axis=0, out=comp)
        for i in range(d):
            tk[i] -= np.multiply(khat[i], comp, out=scratch[i])
        zeta, w = tk, scratch
        # row by row from here: numpy buffers a broadcasting product of a
        # band's size.  w = g_u u + g_z zeta, from u before u_new
        # overwrites it, the g_z product written over zeta
        for i in range(d):
            np.multiply(coeffs[_G_U], u[i], out=w[i])
            np.multiply(coeffs[_E_UU], u[i], out=u_new[i])
            u_new[i] += np.multiply(coeffs[_E_UZ], zeta[i], out=comp)
            w[i] += np.multiply(coeffs[_G_Z], zeta[i], out=zeta[i])
        # zeta is spent: its first row takes the second product of an
        # off-diagonal pair
        for c, (i, j) in enumerate(pairs):
            np.multiply(khat[i], w[j], out=comp)
            if i == j:
                comp += comp  # a + a is exactly 2a: the bits of the second product
            else:
                comp += np.multiply(khat[j], w[i], out=zeta[0])
            np.multiply(coeffs[_DECAY], tau[c], out=tau_new[c])
            tau_new[c] += comp
        return out


@functools.lru_cache(maxsize=8)
def build_propagator(grid: TorusGrid, params: FluidParams, dt: float) -> LinearPropagator:
    """Propagator for (grid, params, dt), cached for the few most recent
    keys so repeat runs reuse it and parameter sweeps stay bounded."""
    return LinearPropagator(grid, params, dt)


# ---- right-hand side -----------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _rhs_tables(grid: TorusGrid, friedrichs_n: float | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The band Leray tables (``band_leray_tables``) and the Friedrichs
    multiplier (None without a cutoff), complex, on the 2/3-rule band, for
    the most recent grid and cutoff: the tendencies and each new state are
    projected with them.  The multiplier is ``friedrichs_mask`` on the band
    (from ``grid.band_kmag``); a cast of the real mask gives the same zero
    imaginary part, so the products keep their bits.  Read-only, since
    every step shares them."""
    cutoff = None
    if friedrichs_n is not None:
        cutoff = (grid.band_kmag / grid.k_scale <= friedrichs_n).astype(np.complex128)
        cutoff.flags.writeable = False
    return band_leray_tables(grid) + (cutoff,)


def _band_stack_shape(grid: TorusGrid) -> tuple[int, ...]:
    """Shape of a stacked 2/3-rule band of ``(u, tau)``: ``(d + nt,) +
    grid.band_shape(grid.dealias_radius)``."""
    return (grid.d + len(SymTensorField.pairs(grid.d)),) + grid.band_shape(grid.dealias_radius)


def rhs_band(grid: TorusGrid, x: np.ndarray, params: FluidParams,
             friedrichs_n: float | None = None) -> np.ndarray:
    """Quadratic tendencies (-P[(u.grad)u], -(u.grad)tau - g_alpha) of the
    stacked 2/3-rule band ``x`` of ``(u, tau)``, as one fresh array of its
    layout: ``(d + nt,) + grid.band_shape(grid.dealias_radius)``.

    The tendencies vanish outside the band, so they are formed
    (``quadratic_terms`` reads ``x`` itself), projected and cut there
    only; ``grid.from_band`` writes them into a half spectrum."""
    d = grid.d
    k, k2, cutoff = _rhs_tables(grid, friedrichs_n)
    n = quadratic_terms(grid, x, params.alpha)
    leray_coeffs(n[:d], k, k2, out=n[:d])
    # ``np.negative`` would give some zeros of the state the other sign
    # than ``n * -1.0`` does
    n *= -1.0
    n[(slice(None),) + (0,) * d] = 0.0
    if cutoff is not None:
        for row in n:  # row by row: a broadcasting product copies the rows
            row *= cutoff
    return n


def rhs_nonlinear(u: VectorField, tau: SymTensorField, params: FluidParams,
                  friedrichs_n: float | None = None) -> np.ndarray:
    """``rhs_band`` of the fields ``u`` and ``tau``: their band is gathered
    first (``SolverState.from_fields``; ``ConfigError`` for a mode outside
    it), so the tendencies have the same bits."""
    return rhs_band(u.grid, SolverState.from_fields(0.0, u, tau).band, params, friedrichs_n)


# ---- state and stepping ----------------------------------------------------------


class SolverState:
    """The trajectory at one instant: time ``t``, step ``step_index`` and
    the stacked 2/3-rule band ``band`` of ``(u, tau)`` on ``grid``, ``(d +
    nt,) + grid.band_shape(grid.dealias_radius)``, velocity rows first.

    Every state, given or returned, is its band: ``SolverState(t, grid,
    band, step_index)`` checks the band's shape against the grid and its
    dtype, complex128 (else ``GridError``: a real band would fail in the
    first step and a complex64 one round every later state to single
    precision), and makes it read-only, and ``from_fields`` gathers the
    band of half-spectrum fields.  ``u`` and ``tau`` are formed from the
    band the first time either is read, with one ``grid.from_band``, and
    cached: views of one stacked half spectrum, zero outside the band and
    read-only as well, so a write into them raises ``ValueError`` rather
    than reaching, or silently not reaching, a later step.  To step from
    changed fields, gather a state from copies of them.
    """

    def __init__(self, t: float, grid: TorusGrid, band: np.ndarray, step_index: int = 0):
        shape = _band_stack_shape(grid)
        if band.shape != shape:
            raise GridError(f"a state's band on this grid has shape {shape}, not {band.shape}")
        if band.dtype != np.complex128:
            raise GridError(f"a state's band must be complex128, not {band.dtype}")
        band.flags.writeable = False
        self.t, self.grid, self.band, self.step_index = t, grid, band, step_index

    @classmethod
    def from_fields(cls, t: float, u: VectorField, tau: SymTensorField,
                    step_index: int = 0) -> "SolverState":
        """The state of the half-spectrum fields ``u`` and ``tau``, whose
        band is gathered into a fresh stacked array.

        Raises ``GridError`` for fields on two grids and ``ConfigError`` for
        a nonzero mode outside the band, where the dealiased products would
        alias.
        """
        grid = u.grid
        grid.require_same(tau.grid)
        d, radius = grid.d, grid.dealias_radius
        x = np.empty(_band_stack_shape(grid), np.complex128)
        grid.to_band(u.coeffs, radius, out=x[:d])
        grid.to_band(tau.coeffs, radius, out=x[d:])
        if np.count_nonzero(u.coeffs) + np.count_nonzero(tau.coeffs) != np.count_nonzero(x):
            raise ConfigError("the given fields have modes outside the 2/3-rule band "
                              f"|m_i| <= {radius}, where the dealiased "
                              "products would alias")
        return cls(t, grid, x, step_index)

    @functools.cached_property
    def _fields(self) -> tuple[VectorField, SymTensorField]:
        grid = self.grid
        c = grid.from_band(self.band, grid.dealias_radius)
        c.flags.writeable = False
        return VectorField(grid, c[:grid.d]), SymTensorField(grid, c[grid.d:])

    @property
    def u(self) -> VectorField:
        return self._fields[0]

    @property
    def tau(self) -> SymTensorField:
        return self._fields[1]


def random_band(grid: TorusGrid, seed: int, band: tuple[float, float], s: float,
                size: float, friedrichs_n: float | None = None) -> np.ndarray:
    """A random divergence-free u and symmetric tau in ``band``, drawn from
    ``seed``, cut at ``friedrichs_n`` if given and scaled so that their
    combined hybrid norm at index s is ``size`` (zero if both vanish), as
    one fresh stacked 2/3-rule band, ``(d + nt,) + grid.band_shape(
    grid.dealias_radius)``, velocity rows first.

    The recipe of ``fields.random_field`` drawn on the band, one component
    at a time: unit Gaussian samples (``rng.standard_normal(out=)``, the
    draws of one ``(d + nt,) + grid.shape`` call in order) go through
    ``grid.forward_band`` into their row, with the bits of ``rfftn``
    there.  The mean is pinned, the mask of ``band`` applied (it lies in
    the 2/3-rule band, as the dealiased products need), u projected
    (``band_leray_tables``) and both cut, with the grid's band tables.  The
    hybrid norms of the scaling contract the band's magnitudes
    (``mode_sq_coeffs``) with the partition's band tables
    (``block_l2_norms``), in the band's summation order, the one order of
    every norm a run takes.  So the band is the band of that recipe on the
    half spectrum, whose modes outside it are zero, to the rounding of the
    norms' sums: a few eps of its largest coefficient.  A call holds the
    band, one physical component and one half-spectrum component.
    """
    rng = np.random.default_rng(seed)
    d, radius = grid.d, grid.dealias_radius
    x = np.empty(_band_stack_shape(grid), np.complex128)
    values = np.empty(grid.shape)
    scratch = np.empty(grid.shape[:-1] + (grid.n // 2 + 1,), np.complex128)
    for row in x:
        grid.forward_band(rng.standard_normal(out=values), radius, scratch=scratch, out=row)
    del values, scratch
    x[(slice(None),) + (0,) * d] = 0.0
    # the 0/1 masks multiply as complex tables, row by row (a broadcasting
    # product copies the rows); the cast of a real one gives the same zero
    # imaginary part, so the products have the bits of ``apply_multiplier``
    mag = grid.band_kmag / grid.k_scale
    keep = ((mag >= band[0]) & (mag <= band[1])).astype(np.complex128)
    for row in x:
        row *= keep
    leray_coeffs(x[:d], *band_leray_tables(grid), out=x[:d])
    if friedrichs_n is not None:
        keep = (mag <= friedrichs_n).astype(np.complex128)
        for row in x:
            row *= keep
    part = build_partition(grid)
    norm = sum(hybrid_from_blocks(block_l2_norms(mode_sq_coeffs(rows, w), part),
                                  part.q_values, s, d)[0]
               for rows, w in ((x[:d], VectorField.weights_for(d)),
                               (x[d:], SymTensorField.weights_for(d))))
    x *= size / norm if norm > 0 else 0.0
    return x


def make_initial_state(config: SolverConfig, grid: TorusGrid | None = None) -> SolverState:
    """A configuration's deterministic initial data at t = 0, step 0: the
    state of zeros, or of ``random_band`` of its recipe."""
    grid = grid or TorusGrid(config.d, config.n, config.period)
    init = config.init
    if init.kind == "zero":
        x = np.zeros(_band_stack_shape(grid), np.complex128)
    else:
        x = random_band(grid, init.seed, init.band, config.s_value, init.amplitude,
                        config.friedrichs_n)
    return SolverState(0.0, grid, x)


class Simulation:
    """Owns one trajectory; step with ``advance`` or drive via ``simulate``.

    The trajectory is held as one compact stacked array on the 2/3-rule
    band, ``(d + nt,) + grid.band_shape(grid.dealias_radius)``, the rows
    of u then those of tau: every mode outside the band stays zero, and a
    step computes on the band alone.  Each step leaves a fresh read-only
    band, and ``state`` is the ``SolverState`` of it, whose half-spectrum
    ``u`` and ``tau`` are formed only when read.

    The first state is the given ``state``, which must lie on the config's
    grid (else ``GridError``), or ``make_initial_state`` of the config.  It
    is held as it is: no field is formed and its band is never written.
    The run steps on the state's own grid, so runs started from states of
    one grid (a twin pair) share it and the tables it forms.

    A nonlinear run holds its grid's kernel scratch
    (``operators.kernel_scratch``: 27 sample rows and 6 half-spectrum
    fields in 3-d, 17 and 6 in 2-d, made in the first step) for as long
    as it lives, shared with every live run on an equal grid; the kernel
    finds it by grid, and it is freed with the last of those runs.
    """

    def __init__(self, config: SolverConfig, state: SolverState | None = None):
        self.config = config
        self.state = make_initial_state(config) if state is None else state
        self.grid = grid = self.state.grid
        if not grid.matches(config.d, config.n, config.period):
            raise GridError(f"grid mismatch: ({config.d},{config.n},{float(config.period)}) "
                            f"vs ({grid.d},{grid.n},{grid.period})")
        self._t0, self._step0 = self.state.t, self.state.step_index
        self.propagator = build_propagator(grid, config.params, config.dt)
        self._prev_rhs: np.ndarray | None = None
        # held, not read: the kernel finds it by grid
        self._kernel_scratch = kernel_scratch(grid) if config.nonlinear else None

    def _time(self, step_index: int) -> float:
        """The time of step ``step_index``: ``t0 + (step_index - step0) *
        dt`` from the given state's time and step, not a running sum, so
        11 steps of dt = 0.05 from 0 reach ``11 * 0.05`` exactly."""
        return self._t0 + (step_index - self._step0) * self.config.dt

    def _require_finite(self, x: np.ndarray, names: tuple[str, str]) -> None:
        # one reduction over the float64 view (a complex entry is finite when
        # both its parts are, and the real loop is the faster one); the rows
        # are told apart only when it fails
        if not np.isfinite(x.view(np.float64)).all():
            name = names[0] if not np.isfinite(x[:self.grid.d]).all() else names[1]
            step = self.state.step_index + 1
            raise DivergenceError(step, self._time(step), name)

    def advance(self) -> SolverState:
        """One step of the integrating-factor scheme, on the 2/3-rule band.

        The new band starts as the AB2 increment of the tendencies ``n``
        (``rhs_band`` of the state's band, which the kernel reads as it
        is), to which the state's band is added: the midpoint.  After the
        first step the increment is formed over the previous tendencies,
        row by row through one component scratch, so the new band takes
        their array and a step allocates no band of its own beyond the
        kernel's result.  It then takes the linear step in place
        (``apply(mid, out=mid)``), the finiteness check and the Leray
        projection; the tendencies are propagated in place too and kept as
        ``_prev_rhs``.  A linear step
        propagates the state's band into a fresh array.  No earlier band is
        written, since a returned state may be kept.  The step runs with
        numpy's overflow and invalid-value warnings off: a diverging step
        ends in ``DivergenceError`` from the finiteness checks alone.  The
        new state's time is ``_time`` of its step.
        """
        st = self.state
        dt = self.config.dt
        prop = self.propagator
        grid = self.grid
        d = grid.d
        with np.errstate(over="ignore", invalid="ignore"):
            if self.config.nonlinear:
                n = rhs_band(grid, st.band, self.config.params, self.config.friedrichs_n)
                self._require_finite(n, ("nu", "ntau"))
                prev, self._prev_rhs = self._prev_rhs, None
                # the increment, then the state added to it: a + b and
                # b + a have the same bits
                if prev is None:
                    x = n * dt
                else:
                    # element by element the bits of dt * (1.5 n - 0.5 prev),
                    # formed over prev, whose band it takes: the step
                    # allocates no band for its midpoint
                    prev *= 0.5
                    comp = np.empty_like(n[0])
                    for n_row, prev_row in zip(n, prev):
                        np.subtract(np.multiply(n_row, 1.5, out=comp), prev_row, out=prev_row)
                    x, prev = prev, None
                    x *= dt
                x += st.band
                self._prev_rhs = prop.apply(n, out=n)
                del n
                prop.apply(x, out=x)
            else:
                x = prop.apply(st.band)
            self._require_finite(x, ("u", "tau"))
            k, k2, _ = _rhs_tables(grid, self.config.friedrichs_n)
            leray_coeffs(x[:d], k, k2, out=x[:d])
        step = st.step_index + 1
        self.state = SolverState(self._time(step), grid, x, step)
        return self.state


@dataclass
class SimulationResult:
    ledger: object
    initial: SolverState
    final: SolverState


def simulate(config: SolverConfig, observer=None) -> SimulationResult:
    """Run a configuration to t_end, sampling the ledger every output stride.

    Each ledger row is taken from the state's band
    (``EnergyLedger.update_band``), so a run whose observer reads no
    ``u`` or ``tau`` forms no half spectrum.  ``observer(state)`` is
    invoked at every sampled instant (including t=0 and the final step)
    after the ledger row is appended.  A
    ``DivergenceError`` carries the ledger of the rows before it
    (``exc.ledger``) and, for a non-finite row, that row's step.
    """
    from .monitor import EnergyLedger

    sim = Simulation(config)
    initial = sim.state
    ledger = EnergyLedger(grid=sim.grid, params=config.params, s=config.s_value,
                          dt=config.dt)
    n_steps = config.n_steps
    try:
        for step in range(n_steps + 1):
            if step > 0:
                sim.advance()
            if step % config.output_stride == 0 or step == n_steps:
                ledger.update_band(sim.state.t, sim.state.band)
                if observer is not None:
                    observer(sim.state)
    except DivergenceError as exc:
        if exc.step_index is None:
            exc.step_index = sim.state.step_index
        exc.ledger = ledger
        raise
    return SimulationResult(ledger=ledger, initial=initial, final=sim.state)
