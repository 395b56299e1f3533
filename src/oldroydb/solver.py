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
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SymTensorField,
    VectorField,
    random_sym_tensor,
    random_vector,
)
from .grid import TorusGrid
from .littlewood_paley import build_partition, hybrid_norm
from .operators import leray_project, quadratic_terms


class ConfigError(ValueError):
    """Invalid solver configuration."""


class DivergenceError(RuntimeError):
    """The time integration produced non-finite values.

    ``field`` names the first non-finite array in the order they are
    checked: the nonlinear tendencies ``nu`` and ``ntau``, then the updated
    state ``u`` and ``tau``.
    """

    def __init__(self, step_index: int, t: float, field: str):
        super().__init__(f"solution diverged at step {step_index}, t = {t:.6g}: "
                         f"{field} is not finite")
        self.step_index = step_index
        self.t = t
        self.field = field


def _first_nonfinite(**arrays: np.ndarray) -> str | None:
    """Name of the first array holding a non-finite value, else None."""
    return next((name for name, a in arrays.items() if not np.all(np.isfinite(a))),
                None)


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
            lo, hi = (float(x) for x in self.band)
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
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (np.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ConfigError(f"t_end = {self.t_end} is not a whole number of "
                              f"steps dt = {self.dt}")
        if self.output_stride < 1:
            raise ConfigError("output_stride must be at least 1")
        if self.friedrichs_n is not None and not 0.0 <= self.friedrichs_n <= self.n // 2:
            raise ConfigError("friedrichs_n must lie between 0 and the Nyquist radius")
        if self.s is not None and not np.isfinite(self.s):
            raise ConfigError(f"s must be finite, got {self.s}")

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
        nonlinear = doc.get("nonlinear", True)
        if not isinstance(nonlinear, bool):
            raise ConfigError(f"nonlinear must be true or false, got {nonlinear!r}")
        try:
            params = FluidParams(
                re=float(doc.get("re", 1.0)),
                we=float(doc.get("we", 1.0)),
                omega=float(doc.get("omega", 0.5)),
                alpha=float(doc.get("alpha", 1.0)),
            )
            init = InitSpec(
                kind=init_doc.get("kind", "random_band"),
                amplitude=float(init_doc.get("amplitude", 1e-3)),
                band=tuple(init_doc.get("band", (1.0, 8.0))),
                seed=_as_int("init.seed", init_doc.get("seed", 0)),
            )
            fr = doc.get("friedrichs_n")
            s = doc.get("s")
            return cls(
                d=_as_int("d", doc.get("d", 2)),
                n=_as_int("n", doc.get("n", 128)),
                period=float(doc.get("period", 2.0 * np.pi)),
                dt=float(doc.get("dt", 0.05)),
                t_end=float(doc.get("t_end", 1.0)),
                params=params,
                friedrichs_n=None if fr is None else float(fr),
                s=None if s is None else float(s),
                init=init,
                output_stride=_as_int("output.stride", out.get("stride", 1)),
                out_dir=out_dir,
                nonlinear=nonlinear,
            )
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


#: every key ``from_dict`` accepts, at each level: those ``to_dict`` writes
_SCHEMA = SolverConfig().to_dict()


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


def _as_int(name: str, value) -> int:
    """An integer-valued JSON number; 2.0 is accepted, 2.7 and "2" are not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


def block_coefficients(grid: TorusGrid, params: FluidParams, dt: float) -> np.ndarray:
    """Per-mode coefficients (e_uu, e_uz, g_u, g_z, decay) of the linear step.

    Shape ``(5,) + grid.spec_shape``, complex, zero at inactive modes (see
    ``LinearPropagator``).  A third row w' = u - b w carries the Duhamel
    integral of the drive, so one 3x3 exponential per distinct |k|^2
    (``grid.shells``) gives every coefficient (double root and a == b
    included).  The stack is exponentiated by ``_expm_batch`` in the real
    form D^-1 G D, D = diag(1, i, 1), of the generator

        G = [[-a, i|k|/Re, 0], [i omega |k|/We, -b, 0], [1, 0, -b]],

    so e_uu, g_z and decay come out exactly real and e_uz, g_u exactly
    imaginary.  Raises ``ConfigError`` if ``dt`` is so large that the
    generator or the coefficients are not finite.
    """
    k2, inverse = grid.shells
    # the first shell is k = 0, which stays zero: its generator has an
    # eigenvalue 0, and a rounding error there would grow through every
    # squaring
    k2 = k2[1:]
    with np.errstate(over="ignore"):
        gen = _real_generators(k2, params) * float(dt)
    if not np.all(np.isfinite(gen)):
        raise ConfigError(f"dt = {dt} overflows the linear generator")
    with np.errstate(over="ignore", invalid="ignore"):
        ex = _expm_batch(gen)
    # exp(G)[r, c] = ex[r, c] D_r / D_c, and the drive is i omega |k|/We
    drive = params.omega * np.sqrt(k2) / params.we
    shell = np.zeros((5, k2.size + 1), dtype=np.complex128)
    shell.real[[0, 3, 4], 1:] = (ex[:, 0, 0], drive * ex[:, 2, 1], ex[:, 2, 2])
    shell.imag[[1, 2], 1:] = (-ex[:, 0, 1], drive * ex[:, 2, 0])
    if not np.all(np.isfinite(shell)):
        raise ConfigError(f"dt = {dt} gives non-finite linear-step coefficients")
    coeffs = np.take(shell, inverse, axis=1)
    coeffs[:, ~grid.mode_mask] = 0.0
    return coeffs


class LinearPropagator:
    """Exact linear update over dt for every resolved mode of a grid.

    The velocity sees the stress only through zeta = P(tau k)/|k|, so per
    mode (u, zeta) evolve by [[-a, i|k|/Re], [i omega |k|/We, -b]], with
    a = (1-omega)|k|^2/Re and b = 1/We, and tau relaxes at rate b under the
    drive (i omega/We) sym(k (x) u).  The five coefficients of
    ``block_coefficients`` and the unit wavevector ``khat`` are stored as
    complex128, so no product in ``apply`` makes numpy cast a real table to
    complex chunk by chunk.  The exactly imaginary e_uz and g_u are stored
    as ``1j * x`` of their imaginary parts x: the sign of that product's
    zero real part (-0 where x < 0) fixes the signs of zeros in the results.
    """

    def __init__(self, grid: TorusGrid, params: FluidParams, dt: float):
        self.grid = grid
        self.params = params
        self.dt = float(dt)
        coeffs = block_coefficients(grid, params, dt)
        np.multiply(1j, coeffs[1:3].imag, out=coeffs[1:3])
        self._e_uu, self._e_uz, self._g_u, self._g_z, self._decay = coeffs
        active = grid.mode_mask & (grid.k2 > 0.0)
        self._khat = np.zeros(grid.k.shape, np.complex128)
        np.divide(grid.k, grid.kmag, out=self._khat.real, where=active)

    def apply(self, u_coeffs: np.ndarray, tau_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance stacked coefficient arrays by one linear step.

        ``u_coeffs`` must be divergence-free at every mode: the update
        treats u as transverse to k.  Every state and every projected
        tendency that ``Simulation.advance`` passes is.  The inputs are
        left unchanged and the returned arrays are fresh; the products are
        written through one stacked and one single-component scratch that
        live for this call only.
        """
        khat = self._khat
        pairs = SymTensorField.pairs(self.grid.d)
        scratch = np.empty_like(u_coeffs)
        comp = np.empty_like(u_coeffs[0])
        tk = np.zeros_like(u_coeffs)
        for c, (i, j) in enumerate(pairs):
            tk[i] += np.multiply(tau_coeffs[c], khat[j], out=comp)
            if i != j:
                tk[j] += np.multiply(tau_coeffs[c], khat[i], out=comp)
        # zeta = tk - khat (khat . tk), formed in tk
        np.sum(np.multiply(khat, tk, out=scratch), axis=0, out=comp)
        tk -= np.multiply(khat, comp, out=scratch)
        zeta = tk
        u_new = np.multiply(self._e_uu, u_coeffs)
        u_new += np.multiply(self._e_uz, zeta, out=scratch)
        w = np.multiply(self._g_u, u_coeffs, out=scratch)
        w += np.multiply(self._g_z, zeta, out=zeta)
        tau_new = np.multiply(self._decay, tau_coeffs)
        # tk is free again: its first row takes the second product of a pair
        for c, (i, j) in enumerate(pairs):
            np.multiply(khat[i], w[j], out=comp)
            comp += np.multiply(khat[j], w[i], out=tk[0])
            tau_new[c] += comp
        return u_new, tau_new


@functools.lru_cache(maxsize=8)
def build_propagator(grid: TorusGrid, params: FluidParams, dt: float) -> LinearPropagator:
    """Propagator for (grid, params, dt), cached for the few most recent
    keys so repeat runs reuse it and parameter sweeps stay bounded."""
    return LinearPropagator(grid, params, dt)


# ---- right-hand side -----------------------------------------------------------


def rhs_nonlinear(
    u: VectorField,
    tau: SymTensorField,
    params: FluidParams,
    friedrichs_n: float | None = None,
) -> tuple[VectorField, SymTensorField]:
    """Quadratic tendencies: (-P[(u.grad)u], -(u.grad)tau - g_alpha)."""
    grid = u.grid
    transport_u, transport_tau = quadratic_terms(u, tau, params.alpha)
    # both are fresh arrays, negated in place; ``np.negative`` would give
    # some zeros of the state the other sign than ``x * -1.0`` does
    nu = leray_project(transport_u)
    nu.coeffs *= -1.0
    ntau = transport_tau
    ntau.coeffs *= -1.0
    zero_idx = (slice(None),) + (0,) * grid.d
    nu.coeffs[zero_idx] = 0.0
    ntau.coeffs[zero_idx] = 0.0
    if friedrichs_n is not None:
        mask = friedrichs_mask(grid, friedrichs_n)
        nu = nu.apply_multiplier(mask)
        ntau = ntau.apply_multiplier(mask)
    bad = _first_nonfinite(nu=nu.coeffs, ntau=ntau.coeffs)
    if bad is not None:
        raise DivergenceError(-1, float("nan"), bad)
    return nu, ntau


# ---- state and stepping ----------------------------------------------------------


@dataclass
class SolverState:
    t: float
    u: VectorField
    tau: SymTensorField
    params: FluidParams
    step_index: int = 0


def make_initial_state(config: SolverConfig, grid: TorusGrid | None = None) -> SolverState:
    """Deterministic initial data for a configuration."""
    grid = grid or TorusGrid(config.d, config.n, config.period)
    if config.init.kind == "zero":
        return SolverState(0.0, VectorField.zero(grid), SymTensorField.zero(grid),
                           config.params)
    rng = np.random.default_rng(config.init.seed)
    u = leray_project(random_vector(grid, rng, band=config.init.band))
    tau = random_sym_tensor(grid, rng, band=config.init.band)
    if config.friedrichs_n is not None:
        u = friedrichs_truncate(u, config.friedrichs_n)
        tau = friedrichs_truncate(tau, config.friedrichs_n)
    part = build_partition(grid)
    s = config.s_value
    size = hybrid_norm(u, s, part)[0] + hybrid_norm(tau, s, part)[0]
    scale = config.init.amplitude / size if size > 0 else 0.0
    return SolverState(0.0, u * scale, tau * scale, config.params)


class Simulation:
    """Owns one trajectory; step with ``advance`` or drive via ``simulate``.

    A given ``state`` must lie on the config's grid (else ``GridError``)
    and carry the config's ``params`` (else ``ConfigError``), the ones the
    step uses.
    """

    def __init__(self, config: SolverConfig, state: SolverState | None = None):
        self.config = config
        self.grid = TorusGrid(config.d, config.n, config.period)
        if state is None:
            state = make_initial_state(config, self.grid)
        else:
            self.grid.require_same(state.u.grid)
            self.grid.require_same(state.tau.grid)
            if state.params != config.params:
                raise ConfigError(f"state params {state.params} differ from the "
                                  f"config params {config.params}")
        self.state = state
        self.propagator = build_propagator(self.grid, config.params, config.dt)
        self._prev_rhs: tuple[np.ndarray, np.ndarray] | None = None

    def _rhs(self) -> tuple[VectorField, SymTensorField]:
        return rhs_nonlinear(self.state.u, self.state.tau, self.config.params,
                             self.config.friedrichs_n)

    def advance(self) -> SolverState:
        """One step of the integrating-factor scheme."""
        st = self.state
        dt = self.config.dt
        prop = self.propagator
        u_in, tau_in = st.u.coeffs, st.tau.coeffs

        if self.config.nonlinear:
            try:
                nu, ntau = self._rhs()
            except DivergenceError as exc:
                raise DivergenceError(st.step_index + 1, st.t + dt, exc.field) from None
            # every temporary is dropped at its last use; none is written
            # in place, since a returned state may share its arrays
            if self._prev_rhs is None:
                u_mid = u_in + dt * nu.coeffs
                tau_mid = tau_in + dt * ntau.coeffs
            else:
                pu, ptau = self._prev_rhs
                self._prev_rhs = None
                u_mid = u_in + dt * (1.5 * nu.coeffs - 0.5 * pu)
                del pu
                tau_mid = tau_in + dt * (1.5 * ntau.coeffs - 0.5 * ptau)
                del ptau
            u_new, tau_new = prop.apply(u_mid, tau_mid)
            del u_mid, tau_mid
            self._prev_rhs = prop.apply(nu.coeffs, ntau.coeffs)
            del nu, ntau
        else:
            u_new, tau_new = prop.apply(u_in, tau_in)

        bad = _first_nonfinite(u=u_new, tau=tau_new)
        if bad is not None:
            raise DivergenceError(st.step_index + 1, st.t + dt, bad)
        u_field = leray_project(VectorField(self.grid, u_new))
        tau_field = SymTensorField(self.grid, tau_new)
        self.state = SolverState(st.t + dt, u_field, tau_field, st.params,
                                 st.step_index + 1)
        return self.state


@dataclass
class SimulationResult:
    config: SolverConfig
    times: np.ndarray
    ledger: object
    initial: SolverState
    final: SolverState
    n_steps: int


def simulate(config: SolverConfig, observer=None) -> SimulationResult:
    """Run a configuration to t_end, sampling the ledger every output stride.

    ``observer(state)`` is invoked at every sampled instant (including t=0
    and the final step) after the ledger row is appended.
    """
    from .monitor import EnergyLedger

    sim = Simulation(config)
    initial = sim.state
    ledger = EnergyLedger(grid=sim.grid, params=config.params, s=config.s_value,
                          dt=config.dt)
    ledger.update(sim.state.t, sim.state.u, sim.state.tau)
    if observer is not None:
        observer(sim.state)

    n_steps = config.n_steps
    times = [sim.state.t]
    try:
        for step in range(1, n_steps + 1):
            sim.advance()
            if step % config.output_stride == 0 or step == n_steps:
                ledger.update(sim.state.t, sim.state.u, sim.state.tau)
                times.append(sim.state.t)
                if observer is not None:
                    observer(sim.state)
    except DivergenceError as exc:
        exc.ledger = ledger
        raise
    return SimulationResult(config=config, times=np.asarray(times), ledger=ledger,
                            initial=initial, final=sim.state, n_steps=n_steps)
