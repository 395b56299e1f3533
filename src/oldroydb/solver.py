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
import scipy.linalg

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


def block_coefficients(grid: TorusGrid, params: FluidParams, dt: float) -> np.ndarray:
    """Per-mode coefficients (e_uu, e_uz, g_u, g_z, decay) of the linear step.

    Shape ``(5,) + grid.spec_shape``, complex, zero at inactive modes (see
    ``LinearPropagator``).  A third row w' = u - b w carries the Duhamel
    integral of the drive, so one 3x3 exponential per distinct |k|^2 gives
    every coefficient (double root and a == b included).
    """
    active = grid.mode_mask & (grid.k2 > 0.0)
    k2, inverse = np.unique(grid.k2[active], return_inverse=True)
    kn = np.sqrt(k2)
    b = 1.0 / params.we
    gen = np.zeros((k2.size, 3, 3), dtype=np.complex128)
    gen[:, 0, 0] = -(1.0 - params.omega) * k2 / params.re
    gen[:, 0, 1] = 1j * kn / params.re
    gen[:, 1, 0] = 1j * params.omega * kn * b
    gen[:, 1, 1] = -b
    gen[:, 2, 0] = 1.0
    gen[:, 2, 2] = -b
    ex = scipy.linalg.expm(gen * float(dt))
    drive = 1j * params.omega * b * kn
    coeffs = np.zeros((5,) + grid.spec_shape, dtype=np.complex128)
    coeffs[:, active] = np.stack([ex[:, 0, 0], ex[:, 0, 1], drive * ex[:, 2, 0],
                                  drive * ex[:, 2, 1], ex[:, 2, 2]])[:, inverse]
    return coeffs


class LinearPropagator:
    """Exact linear update over dt for every resolved mode of a grid.

    The velocity sees the stress only through zeta = P(tau k)/|k|, so per
    mode (u, zeta) evolve by [[-a, i|k|/Re], [i omega |k|/We, -b]], with
    a = (1-omega)|k|^2/Re and b = 1/We, and tau relaxes at rate b under the
    drive (i omega/We) sym(k (x) u).  The coefficients come from
    ``block_coefficients``; they are stored as float64, the imaginary ones
    by their imaginary part, which ``apply`` multiplies by 1j.
    """

    def __init__(self, grid: TorusGrid, params: FluidParams, dt: float):
        self.grid = grid
        self.params = params
        self.dt = float(dt)
        coeffs = block_coefficients(grid, params, dt)
        # e_uu, g_z and decay come out exactly real, e_uz and g_u exactly
        # imaginary; only the part that is not identically zero is stored
        self._e_uu, self._g_z, self._decay = coeffs[[0, 3, 4]].real.copy()
        self._e_uz, self._g_u = coeffs[[1, 2]].imag.copy()
        active = grid.mode_mask & (grid.k2 > 0.0)
        self._khat = np.divide(grid.k, grid.kmag, out=np.zeros_like(grid.k),
                               where=active)

    def apply(self, u_coeffs: np.ndarray, tau_coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance stacked coefficient arrays by one linear step.

        ``u_coeffs`` must be divergence-free at every mode: the update
        treats u as transverse to k.  Every state and every projected
        tendency that ``Simulation.advance`` passes is.
        """
        khat = self._khat
        pairs = SymTensorField.pairs(self.grid.d)
        tk = np.zeros_like(u_coeffs)
        for c, (i, j) in enumerate(pairs):
            tk[i] += tau_coeffs[c] * khat[j]
            if i != j:
                tk[j] += tau_coeffs[c] * khat[i]
        zeta = tk - khat * np.sum(khat * tk, axis=0)
        u_new = self._e_uu * u_coeffs + (1j * self._e_uz) * zeta
        w = (1j * self._g_u) * u_coeffs + self._g_z * zeta
        tau_new = self._decay * tau_coeffs
        for c, (i, j) in enumerate(pairs):
            tau_new[c] += khat[i] * w[j] + khat[j] * w[i]
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
    nu = leray_project(transport_u) * (-1.0)
    ntau = transport_tau * (-1.0)
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
    """Owns one trajectory; step with ``advance`` or drive via ``simulate``."""

    def __init__(self, config: SolverConfig, state: SolverState | None = None):
        self.config = config
        self.grid = TorusGrid(config.d, config.n, config.period)
        self.state = state if state is not None else make_initial_state(config, self.grid)
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
            if self._prev_rhs is None:
                u_mid = u_in + dt * nu.coeffs
                tau_mid = tau_in + dt * ntau.coeffs
            else:
                pu, ptau = self._prev_rhs
                u_mid = u_in + dt * (1.5 * nu.coeffs - 0.5 * pu)
                tau_mid = tau_in + dt * (1.5 * ntau.coeffs - 0.5 * ptau)
            u_new, tau_new = prop.apply(u_mid, tau_mid)
            self._prev_rhs = prop.apply(nu.coeffs, ntau.coeffs)
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
