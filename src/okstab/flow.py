"""Mass-conserving gradient flow for the diffuse (phase-field) energy.

E_eps(u) = eps int |grad u|^2 + (1/eps) int (u^2-1)^2 + gamma0 int |grad v|^2
with -Lap v = u - mean(u).  The flow is the L^2 descent projected onto the
fixed-mean constraint, discretized by a stabilized semi-implicit step on the
half spectrum, uhat' = A uhat - B what with what the transform of u(u^2-1):
two multipliers per (dt, S) whose zero modes 1 and 0 carry the mean exactly.
Step rejection keeps the energy nonincreasing.  The sharp-interface
bookkeeping uses gamma = 3 gamma0 / 16 (interfacial cost 8/3 per interface).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES
from .shapes import Lamella, rasterize
from .torus import (NumericalError, ScalarField, TorusGrid, ValidationError,
                    _check_count, make_grid)

GAMMA0_FACTOR = 16.0 / 3.0   # gamma0 = (16/3) gamma


def sharp_gamma_to_gamma0(gamma: float) -> float:
    return GAMMA0_FACTOR * gamma


@functools.lru_cache(maxsize=8)
def _flow_symbols(grid: TorusGrid, epsilon: float, gamma0: float):
    """Read-only: the pricing weight (lam + 2 gamma0 L^-1) / N^2 with the zero and
    (even n) Nyquist columns halved, lam = 2 eps |2 pi xi|^2, 2 gamma0 L^-1."""
    lam = 2.0 * epsilon * 4.0 * np.pi**2 * grid.ksq()
    nonlocal_sym = gamma0 * (2.0 * grid.inverse_laplacian())
    out = np.array([(lam + nonlocal_sym) / grid.num_cells**2, lam, nonlocal_sym])
    out[0, ..., [0, -1] if grid.sizes[-1] % 2 == 0 else 0] *= 0.5
    out.flags.writeable = False
    return out


def diffuse_energy(u: ScalarField, epsilon: float, gamma0: float) -> float:
    """E_eps(u): the weighted power sum of u's half spectrum plus the well;
    inf or nan, without a warning, where a term overflows."""
    if not 0 < epsilon < np.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0 <= gamma0 < np.inf:
        raise ValidationError(f"gamma0 must be nonnegative and finite, got {gamma0!r}")
    spec, weight = u.spectrum, _flow_symbols(u.grid, epsilon, gamma0)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        quadratic = float(np.vdot(weight, np.square(spec.real) + np.square(spec.imag)))
        well = np.square(u.values) - 1.0
        return quadratic + float(np.vdot(well, well)) / (epsilon * well.size)


@dataclass
class FlowState:
    u: ScalarField
    epsilon: float
    gamma0: float
    dt: float = 1e-4
    time: float = field(default=0.0, init=False)
    step: int = field(default=0, init=False)
    energy_history: list = field(default_factory=list, init=False)
    stabilization: float = field(default=0.0, init=False)
    mean0: float = field(init=False)
    rejections: int = field(default=0, init=False)
    stop_reason: str | None = field(default=None, init=False)  # set by run_flow
    multipliers: tuple = field(default=None, init=False, repr=False)  # ((dt, S), A, B)

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValidationError(f"dt must be positive and finite, got {self.dt!r}")
        self.mean0 = self.u.mean()
        e0 = diffuse_energy(self.u, self.epsilon, self.gamma0)   # checks epsilon, gamma0
        self.energy_history.append((0, 0.0, e0))

    @property
    def energy(self) -> float:
        return self.energy_history[-1][2]


def flow_step(state: FlowState) -> FlowState:
    """One stabilized semi-implicit step uhat' = A uhat - B what, what the
    transform of u(u^2-1); mean(u) is preserved exactly.

    A = (1 + dt S - dt 2 gamma0 L^-1) / (1 + dt (lam + S)), A_0 = 1, and
    B = (4/eps) dt / (1 + dt (lam + S)), B_0 = 0: the Laplacian implicit, the
    well and nonlocal terms explicit with a shift S = 2 max|W''(u)| / eps,
    W(u) = (u^2-1)^2, refreshed every 100 steps.  The state holds A and B for
    its current (dt, S) only.  2 real FFTs per accepted step, 1 more per
    rejected candidate, one whose energy is not finite or rises beyond
    round-off (dt halves); after 40, NumericalError names the quantities.
    The step starts from state.dt and leaves there the dt it accepted."""
    dt = state.dt
    if not 0.0 < dt < np.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    u, grid, eps, gamma0 = state.u.values, state.u.grid, state.epsilon, state.gamma0
    if state.step % 100 == 0 or state.stabilization == 0.0:
        state.stabilization = 8.0 * float(np.abs(3.0 * u**2 - 1.0).max()) / eps
    S, wh = state.stabilization, grid.rfft((np.square(u) - 1.0) * u)
    e0, tol = state.energy, TOLERANCES.energy_increase_rel
    for _ in range(40):
        with np.errstate(over="ignore", invalid="ignore"):
            if state.multipliers is None or state.multipliers[0] != (dt, S):
                _, lam, nonlocal_sym = _flow_symbols(grid, eps, gamma0)
                den = 1.0 + dt * (lam + S)
                a, b = (1.0 + dt * S - dt * nonlocal_sym) / den, (4.0 / eps) * dt / den
                a.flat[0], b.flat[0] = 1.0, 0.0
                state.multipliers = ((dt, S), a, b)
            spec = state.multipliers[1] * state.u.spectrum
            spec -= state.multipliers[2] * wh
            try:
                cand = ScalarField._from_spectrum(grid, spec)
            except ValidationError:   # values past float range
                cand = None
        e1 = np.inf if cand is None else diffuse_energy(cand, eps, gamma0)
        if e1 <= e0 * (1.0 + tol) + tol:
            state.u, state.dt, state.step = cand, dt, state.step + 1
            state.time += dt
            state.energy_history.append((state.step, state.time, e1))
            return state
        dt *= 0.5
        state.rejections += 1
    raise NumericalError(
        f"flow step rejected 40 times: energy {e0:.6e} -> {e1:.6e}, a rise of"
        f" {(e1 - e0) / (e0 + 1.0):.3e} of E0 + 1 (tolerance {tol:.0e}),"
        f" at dt={2.0 * dt:.3e}, S={S:.3e}, epsilon={eps!r}, gamma0={gamma0!r}")


def flow_residual(state: FlowState) -> float:
    """sup |dE/du - mean(dE/du)| of the current iterate, where
    dE/du = -2 eps Lap u + W'(u)/eps + 2 gamma0 v and -Lap v = u - mean(u)."""
    u, g = state.u.values, state.u.grid
    _, lam, nonlocal_sym = _flow_symbols(g, state.epsilon, state.gamma0)
    d = g.irfft((lam + nonlocal_sym) * state.u.spectrum) \
        + (4.0 / state.epsilon) * u * (u**2 - 1.0)
    return float(np.abs(d - d.mean()).max())


def run_flow(u0: ScalarField, epsilon: float, gamma0: float, dt: float,
             max_steps: int, stop_tol: float = 0.0) -> FlowState:
    """Iterate flow_step until the projected gradient is below stop_tol or
    max_steps is reached; the final state records which in stop_reason."""
    _check_count("max_steps", max_steps, 0)
    if not stop_tol >= 0:
        raise ValidationError(f"stop_tol must be >= 0, got {stop_tol}")
    state = FlowState(u0.copy(), epsilon, gamma0, dt=dt)
    for _ in range(max_steps):
        flow_step(state)
        if abs(state.u.mean() - state.mean0) > TOLERANCES.mass_drift:
            raise NumericalError("mass drifted beyond tolerance")
        if stop_tol > 0 and state.step % 25 == 0 \
                and flow_residual(state) <= stop_tol:
            state.stop_reason = "converged"
            break
    else:
        state.stop_reason = "max_steps"
    return state


# ---------------------------------------------------------------------------
# sharp-profile initial data and the interfacial cost
# ---------------------------------------------------------------------------

def tanh_profile(shape: Lamella, grid: TorusGrid, epsilon: float) -> ScalarField:
    """Signed-distance tanh profile of a lamella: u = tanh(sdist / eps)."""
    ind = rasterize(shape, grid)
    pos, _ = shape.interfaces()
    z = grid.axis_coords(shape.axis)
    d = np.abs(z[:, None] - pos[None, :])
    d = np.minimum(d % 1.0, 1.0 - d % 1.0).min(axis=1)
    shp = [1] * grid.dim
    shp[shape.axis] = grid.sizes[shape.axis]
    dist = np.broadcast_to(d.reshape(shp), grid.sizes)
    return ScalarField._adopt(grid, np.sign(ind.values) * np.tanh(dist / epsilon))


def profile_constant() -> float:
    """Interfacial cost per interface of the 1D double-well energy (8/3 in the
    limit): a relaxed two-interface strip's energy halved at eps = 0.04 and
    0.02 on 2048 points (gamma0 = 0), linearly extrapolated in eps to 0."""
    grid, eps_pair = make_grid(1, (2048,)), (0.04, 0.02)
    costs = []
    for eps in eps_pair:
        u0 = tanh_profile(Lamella(k=1, m=0.0, axis=0, dim=1), grid, eps)
        st = run_flow(u0, eps, 0.0, dt=eps * 1e-2, max_steps=4000,
                      stop_tol=1e-8)
        costs.append(0.5 * st.energy)
    (e1, e0), (c1, c0) = eps_pair, costs
    return float(c0 + (c0 - c1) * e0 / (e1 - e0))
