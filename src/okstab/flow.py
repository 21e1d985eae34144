"""Mass-conserving gradient flow for the diffuse (phase-field) energy.

E_eps(u) = eps int |grad u|^2 + (1/eps) int (u^2-1)^2 + gamma0 int |grad v|^2
with -Lap v = u - mean(u).  The flow is the L^2 descent projected onto the
fixed-mean constraint, discretized by a stabilized semi-implicit spectral
step; the mean is conserved exactly and the energy is enforced to be
nonincreasing by step rejection.

The sharp-interface bookkeeping uses gamma = 3 gamma0 / 16: each interface
carries the double-well cost 8/3 in the limit of small eps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES
from .shapes import Lamella, rasterize
from .torus import (NumericalError, ScalarField, TorusGrid, ValidationError,
                    make_grid)

GAMMA0_FACTOR = 16.0 / 3.0   # gamma0 = (16/3) gamma


def sharp_gamma_to_gamma0(gamma: float) -> float:
    return GAMMA0_FACTOR * gamma


def _well_derivative(u: np.ndarray, epsilon: float) -> np.ndarray:
    # W'(u) / eps with W(u) = (u^2-1)^2
    return (4.0 / epsilon) * u * (u**2 - 1.0)


@functools.lru_cache(maxsize=8)
def _flow_symbols(grid: TorusGrid, epsilon: float, gamma0: float):
    # read-only: the quadratic form, the step's implicit and explicit symbols
    ksq, inv = grid.ksq(), grid.inverse_laplacian()
    out = np.array([epsilon * 4.0 * np.pi**2 * ksq + gamma0 * inv,
                    2.0 * epsilon * 4.0 * np.pi**2 * ksq, 2.0 * gamma0 * inv])
    out.flags.writeable = False
    return out


def diffuse_energy(u: ScalarField, epsilon: float, gamma0: float) -> float:
    """E_eps(u): one Parseval sum over uhat for the quadratic terms, plus the well."""
    if not 0 < epsilon < np.inf:
        raise ValidationError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0 <= gamma0 < np.inf:
        raise ValidationError(f"gamma0 must be nonnegative and finite, got {gamma0!r}")
    g = u.grid
    well = float(((u.values**2 - 1.0) ** 2).mean()) / epsilon
    return g.parseval(_flow_symbols(g, epsilon, gamma0)[0] * np.abs(u.spectrum) ** 2) + well


@dataclass
class FlowState:
    u: ScalarField
    epsilon: float
    gamma0: float
    time: float = 0.0
    step: int = 0
    dt: float = 1e-4
    energy_history: list = field(default_factory=list)
    stabilization: float = 0.0
    mean0: float = None
    rejections: int = 0
    stop_reason: str | None = None   # set by run_flow: "converged" or "max_steps"

    def __post_init__(self):
        for name, sign in (("epsilon", "positive"), ("gamma0", "nonnegative"),
                           ("dt", "positive")):
            value = getattr(self, name)
            if not (0 < value if sign == "positive" else 0 <= value) or value == np.inf:
                raise ValidationError(f"{name} must be {sign} and finite, got {value!r}")
        if self.mean0 is None:
            self.mean0 = self.u.mean()
        if not self.energy_history:
            self.energy_history.append(
                (0, 0.0, diffuse_energy(self.u, self.epsilon, self.gamma0)))

    @property
    def energy(self) -> float:
        return self.energy_history[-1][2]


def flow_step(state: FlowState, dt: float | None = None) -> FlowState:
    """One stabilized semi-implicit step; mean(u) is preserved exactly.

    The Laplacian is implicit, the well and nonlocal terms explicit with a
    constant shift S and their zero mode set to 0 (the projection to mean
    zero), so the zero mode of u is reproduced identically.  u's spectrum
    comes cached from its energy check: 3 real FFTs per step, 2 more per
    rejected candidate (an energy rise beyond round-off; dt is halved).
    """
    dt = state.dt if dt is None else dt
    if not 0.0 < dt < np.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    if state.step % 100 == 0 or state.stabilization == 0.0:
        # S = 2 max|W''| / eps over the current iterate, W(u) = (u^2-1)^2
        sup = float(np.abs(3.0 * state.u.values**2 - 1.0).max())
        state.stabilization = 2.0 * 4.0 * sup / state.epsilon
    S = state.stabilization
    grid = state.u.grid
    _, lam, nonlocal_sym = _flow_symbols(grid, state.epsilon, state.gamma0)
    uh = state.u.spectrum
    nh = grid.rfft(_well_derivative(state.u.values, state.epsilon)) + nonlocal_sym * uh
    nh[(0,) * grid.dim] = 0.0
    e0 = state.energy
    for _ in range(40):
        unew = grid.irfft((uh * (1.0 + dt * S) - dt * nh)
                          / (1.0 + dt * (lam + S)))
        cand = ScalarField._adopt(grid, unew)
        e1 = diffuse_energy(cand, state.epsilon, state.gamma0)
        if e1 <= e0 * (1.0 + TOLERANCES.energy_increase_rel) \
                + TOLERANCES.energy_increase_rel:
            state.u = cand
            state.time += dt
            state.step += 1
            state.dt = dt
            state.energy_history.append((state.step, state.time, e1))
            return state
        dt *= 0.5
        state.rejections += 1
    raise NumericalError("flow step rejected 40 times; energy not decreasing")


def flow_residual(state: FlowState) -> float:
    """sup |dE/du - mean(dE/du)| of the current iterate, where
    dE/du = -2 eps Lap u + W'(u)/eps + 2 gamma0 v and -Lap v = u - mean(u)."""
    u, g = state.u.values, state.u.grid
    sym = 2.0 * _flow_symbols(g, state.epsilon, state.gamma0)[0]
    d = g.irfft(sym * state.u.spectrum) + _well_derivative(u, state.epsilon)
    return float(np.abs(d - d.mean()).max())


def run_flow(u0: ScalarField, epsilon: float, gamma0: float, dt: float,
             max_steps: int, stop_tol: float = 0.0) -> FlowState:
    """Iterate flow_step until the projected gradient is below stop_tol or
    max_steps is reached; the final state records which in stop_reason."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
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


def profile_constant(epsilon_list=(0.04, 0.02), n: int = 2048,
                     max_steps: int = 4000) -> float:
    """Interfacial cost per interface of the 1D double-well energy.

    Relaxes a two-interface strip profile at each eps (gamma0 = 0), halves
    the energy, and linearly extrapolates the last two values in eps.
    The continuum value is 8/3.
    """
    eps_list = sorted(epsilon_list, reverse=True)
    grid = make_grid(1, (n,))
    costs = []
    for eps in eps_list:
        if eps < 4.0 / n:
            raise ValidationError(f"epsilon {eps} under-resolved on {n} points")
        u0 = tanh_profile(Lamella(k=1, m=0.0, axis=0, dim=1), grid, eps)
        st = run_flow(u0, eps, 0.0, dt=eps * 1e-2, max_steps=max_steps,
                      stop_tol=1e-8)
        costs.append(0.5 * st.energy)
    if len(costs) >= 2:
        e1, e0 = eps_list[-2], eps_list[-1]
        c1, c0 = costs[-2], costs[-1]
        return float(c0 + (c0 - c1) * e0 / (e1 - e0))
    return float(costs[-1])
