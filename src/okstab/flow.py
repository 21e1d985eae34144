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

from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES
from .shapes import Lamella, rasterize
from .torus import (NumericalError, ScalarField, TorusGrid, ValidationError,
                    dirichlet_energy, make_grid, solve_poisson_periodic)

GAMMA0_FACTOR = 16.0 / 3.0   # gamma0 = (16/3) gamma


def sharp_gamma_to_gamma0(gamma: float) -> float:
    return GAMMA0_FACTOR * gamma


def diffuse_energy(u: ScalarField, epsilon: float, gamma0: float) -> float:
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    grad = epsilon * dirichlet_energy(u)
    well = float(((u.values**2 - 1.0) ** 2).mean()) / epsilon
    nl = 0.0
    if gamma0 != 0.0:
        v = solve_poisson_periodic(ScalarField(u.grid, u.values - u.mean()))
        nl = gamma0 * dirichlet_energy(v)
    return grad + well + nl


def _variational_derivative(u: ScalarField, epsilon: float, gamma0: float):
    uh = np.fft.fftn(u.values)
    lap = np.fft.ifftn(-4.0 * np.pi**2 * u.grid.ksq() * uh).real
    out = -2.0 * epsilon * lap + (4.0 / epsilon) * u.values * (u.values**2 - 1.0)
    if gamma0 != 0.0:
        v = solve_poisson_periodic(ScalarField(u.grid, u.values - u.mean()))
        out = out + 2.0 * gamma0 * v.values
    return out


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

    def __post_init__(self):
        if self.epsilon <= 0 or self.gamma0 < 0:
            raise ValidationError("need epsilon > 0 and gamma0 >= 0")
        if self.mean0 is None:
            self.mean0 = self.u.mean()
        if not self.energy_history:
            self.energy_history.append(
                (0, 0.0, diffuse_energy(self.u, self.epsilon, self.gamma0)))

    @property
    def energy(self) -> float:
        return self.energy_history[-1][2]


def _refresh_stabilization(state: FlowState):
    # 2 max|W''| / eps over the current iterate, W(u) = (u^2-1)^2
    sup = float(np.abs(3.0 * state.u.values**2 - 1.0).max())
    state.stabilization = 2.0 * 4.0 * sup / state.epsilon


def flow_step(state: FlowState, dt: float | None = None) -> FlowState:
    """One stabilized semi-implicit step; mean(u) is preserved exactly.

    The Laplacian is implicit, the well and nonlocal terms explicit with a
    constant shift S; the nonlinear part is projected to mean zero before
    stepping, so the zero Fourier mode is reproduced identically.  If the
    energy increases beyond round-off the step is rejected and dt halved.
    """
    if dt is None:
        dt = state.dt
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if state.step % 100 == 0 or state.stabilization == 0.0:
        _refresh_stabilization(state)
    S = state.stabilization
    grid = state.u.grid
    lam = 2.0 * state.epsilon * 4.0 * np.pi**2 * grid.ksq()
    e0 = state.energy
    for _ in range(40):
        nl = (4.0 / state.epsilon) * state.u.values * (state.u.values**2 - 1.0)
        if state.gamma0 != 0.0:
            v = solve_poisson_periodic(
                ScalarField(grid, state.u.values - state.u.mean()))
            nl = nl + 2.0 * state.gamma0 * v.values
        nl = nl - nl.mean()
        uh = np.fft.fftn(state.u.values)
        nh = np.fft.fftn(nl)
        unew = np.fft.ifftn((uh * (1.0 + dt * S) - dt * nh)
                            / (1.0 + dt * (lam + S))).real
        cand = ScalarField(grid, unew)
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
    """sup |dE/du - mean(dE/du)| of the current iterate."""
    g = _variational_derivative(state.u, state.epsilon, state.gamma0)
    return float(np.abs(g - g.mean()).max())


def run_flow(u0: ScalarField, epsilon: float, gamma0: float, dt: float,
             max_steps: int, stop_tol: float = 0.0) -> FlowState:
    """Iterate flow_step until the projected gradient is below stop_tol or
    max_steps is reached.  Returns the final state with its history."""
    state = FlowState(u0.copy(), epsilon, gamma0, dt=dt)
    for _ in range(max_steps):
        flow_step(state)
        if abs(state.u.mean() - state.mean0) > TOLERANCES.mass_drift:
            raise NumericalError("mass drifted beyond tolerance")
        if stop_tol > 0 and state.step % 25 == 0 \
                and flow_residual(state) <= stop_tol:
            break
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
    return ScalarField(grid, np.sign(ind.values) * np.tanh(dist / epsilon))


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
