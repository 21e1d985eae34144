"""Sharp-interface energy: perimeter + gamma * nonlocal Dirichlet term.

The potential layer (each shape's v), evaluation for parametric shapes and
raw indicator fields, closed-form lamella values, Euler-Lagrange residuals
on boundary meshes, the Lipschitz ratio of the nonlocal term, and the
classical candidate comparison (strip / disc / cylinder / ball).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_FIELD_GRID, DEFAULT_Q2_MODES
from .shapes import (BoundaryMesh, GraphPerturbation, Lamella, LamellaPotential,
                     ShapeConfig, perimeter_exact, perimeter_grid, rasterize)
from .torus import (ScalarField, TorusGrid, ValidationError, _wavenumbers, make_grid,
                    trig_interpolate)


def _check_gamma(gamma: float):
    if not 0.0 <= gamma < np.inf:
        raise ValidationError(f"gamma must be finite and nonnegative, got {gamma!r}")


@dataclass(frozen=True)
class EnergyBreakdown:
    perimeter: float
    nonlocal_term: float
    gamma: float

    def __post_init__(self):
        _check_gamma(self.gamma)
        if self.nonlocal_term < -1e-14:
            raise ValidationError("nonlocal term must be nonnegative")

    @property
    def total(self) -> float:
        return self.perimeter + self.gamma * self.nonlocal_term


def nonlocal_energy_field(u: ScalarField) -> float:
    """int |grad v|^2 with -Lap v = u - mean(u), as sum |uhat|^2 / (4 pi^2 |xi|^2)."""
    g = u.grid
    return g.parseval(g.inverse_laplacian(), u.spectrum)


class GridPotential:
    """Potential v of a shape's indicator rasterized on a torus grid (default
    256^2 in 2D, 64^3 in 3D), rasterized and transformed once, on first use,
    and only that spectrum uhat kept.  v and its gradient are built from
    vhat = uhat L^-1 (L^-1 is 0 at the zero mode, so v is mean-zero) and
    reach a mesh by trigonometric interpolation."""

    def __init__(self, shape: ShapeConfig, grid: TorusGrid | None = None):
        n = DEFAULT_FIELD_GRID if shape.dim < 3 else 64
        self.shape = shape
        self.grid = grid if grid is not None else make_grid(shape.dim, (n,) * shape.dim)

    @functools.cached_property
    def _uh(self) -> np.ndarray:
        return rasterize(self.shape, self.grid).spectrum

    def on_mesh(self, mesh: BoundaryMesh) -> np.ndarray:
        vh = self._uh * self.grid.inverse_laplacian()
        return trig_interpolate(ScalarField._from_spectrum(self.grid, vh), mesh.points)

    def dnv_on_mesh(self, mesh: BoundaryMesh) -> np.ndarray:
        g, out = self.grid, 0.0
        vh = self._uh * g.inverse_laplacian()
        for n, k, nu in zip(g.sizes, g.half_wavenumbers(), mesh.normals.T):
            k = np.where(2 * np.abs(k) == n, 0.0, k)     # a Nyquist mode has no derivative
            dv = ScalarField._from_spectrum(g, 2j * np.pi * k * vh)     # d v / d x_c
            out = out + trig_interpolate(dv, mesh.points) * nu
        return out

    def dirichlet_energy(self) -> float:
        return self.grid.parseval(self.grid.inverse_laplacian(), self._uh)


def potential(shape: ShapeConfig, grid: TorusGrid | None = None):
    """Potential of a shape, -Lap v = u - mean(u): on_mesh, dnv_on_mesh and
    dirichlet_energy, exact for a lamella (which takes no grid), else a
    GridPotential on `grid`."""
    if shape is None:
        raise ValidationError("no shape given, so no potential")
    if not isinstance(shape, Lamella):
        return GridPotential(shape, grid)
    if grid is not None:
        raise ValidationError("grid has no use for a lamella (exact potential); drop it")
    return LamellaPotential(shape)


def energy(obj, gamma: float, grid: TorusGrid | None = None) -> EnergyBreakdown:
    """Energy of a parametric shape or a +-1 indicator field.

    Parametric shapes use the exact perimeter and the nonlocal term of their
    `potential`: exact for a lamella (a grid is rejected), else the spectral
    solve on the indicator rasterized on `grid`.
    """
    _check_gamma(gamma)
    if isinstance(obj, ScalarField):
        return EnergyBreakdown(perimeter_grid(obj), nonlocal_energy_field(obj), gamma)
    return EnergyBreakdown(perimeter_exact(obj), potential(obj, grid).dirichlet_energy(),
                           gamma)


def lamella_closed_form(k: int, m: float, gamma: float) -> EnergyBreakdown:
    """Exact energy of the k-strip lamella, 2k + gamma a^2(1-a)^2/(3k^2): the
    `energy` of the 1-D Lamella(k, m), whose potential is exact."""
    return energy(Lamella(k=k, m=m, dim=1), gamma)


def optimal_strip_count(m: float, gamma: float) -> int:
    """argmin over k >= 1 of the closed-form lamella energy 2k + c/k^2,
    c = gamma a^2 (1-a)^2 / 3, ties -> smaller k.  The energy is convex in k
    with continuous minimizer k* = c^(1/3), so the argmin is floor(k*) or
    ceil(k*): step up from floor(k*) - 1 (rounding of k*) while the energy
    falls, E(k) > E(k+1) <=> c (2k+1) > 2 k^2 (k+1)^2, compared in exact
    integers since adjacent energies agree to ~1/k relative."""
    _check_gamma(gamma)
    c = gamma * lamella_closed_form(1, m, 1.0).nonlocal_term
    k_star = float(np.cbrt(c))
    if k_star > 2.0**52:
        raise ValidationError(f"gamma = {gamma!r} puts the optimal strip count near "
                              f"{k_star:.3e}, beyond the 2^52 that float64 resolves")
    p, r = c.as_integer_ratio()
    k = max(1, math.floor(k_star) - 1)
    while p * (2 * k + 1) > 2 * r * (k * (k + 1)) ** 2:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Euler-Lagrange residual H + 4 gamma v = const on a boundary mesh
# ---------------------------------------------------------------------------

@dataclass
class CriticalityReport:
    lam: float                       # least-squares Lagrange multiplier
    residual_sup: float
    residual: np.ndarray = field(repr=False)


def el_residual(mesh: BoundaryMesh, gamma: float,
                grid: TorusGrid | None = None) -> CriticalityReport:
    """Residual of H + 4 gamma v = lambda on the mesh nodes.

    v is the mesh shape's `potential` at the nodes, built only if gamma > 0:
    the exact profile of a lamella (a grid is rejected: rasterizing would
    contaminate the residual at O(h)), else the indicator's on `grid`.
    lambda is the arc-length-weighted mean of H + 4 gamma v.
    """
    _check_gamma(gamma)
    vals = (mesh.curvature + 4.0 * gamma * potential(mesh.shape, grid).on_mesh(mesh)
            if gamma > 0 else mesh.curvature)
    w = mesh.weights / mesh.weights.sum()
    lam = float(np.sum(w * vals))
    res = vals - lam
    return CriticalityReport(lam, float(np.abs(res).max()), res)


# ---------------------------------------------------------------------------
# Lipschitz behaviour of the nonlocal term
# ---------------------------------------------------------------------------

def nonlocal_lipschitz_check(pairs) -> float:
    """max over pairs of |NL(E) - NL(F)| / |E triangle F| (grid measure).

    Pairs with |E triangle F| = 0 are skipped.
    """
    worst = 0.0
    used = 0
    for uE, uF in pairs:
        if uE.grid != uF.grid:
            raise ValidationError("grid mismatch in pair")
        sym = float(np.abs(uE.values - uF.values).mean()) / 2.0
        if sym == 0.0:
            continue
        num = abs(nonlocal_energy_field(uE) - nonlocal_energy_field(uF))
        worst = max(worst, num / sym)
        used += 1
    if used == 0:
        raise ValidationError("no distinct pairs supplied")
    return worst


# ---------------------------------------------------------------------------
# classical candidate comparison
# ---------------------------------------------------------------------------

def isoperimetric_compare(m: float, dim: int):
    """Perimeters of the classical candidates at volume a = (m+1)/2.

    Complements are handled through a' = min(a, 1-a).  Candidates whose
    radius reaches 1/2 no longer fit in the torus and are flagged invalid.
    Returns (rows, best_name); rows are dicts with name/perimeter/valid.
    """
    if dim not in (2, 3):
        raise ValidationError("dim must be 2 or 3")
    a = Lamella(k=1, m=m, dim=1).a     # validates m
    a = min(a, 1.0 - a)
    rows = []
    rows.append({"name": "strip", "perimeter": 2.0, "valid": True})
    if dim == 2:
        r = math.sqrt(a / math.pi)
        rows.append({"name": "disc", "perimeter": 2.0 * math.sqrt(math.pi * a),
                     "valid": r < 0.5})
    else:
        r_cyl = math.sqrt(a / math.pi)
        rows.append({"name": "cylinder", "perimeter": 2.0 * math.sqrt(math.pi * a),
                     "valid": r_cyl < 0.5})
        r_ball = (3.0 * a / (4.0 * math.pi)) ** (1.0 / 3.0)
        rows.append({"name": "ball",
                     "perimeter": (36.0 * math.pi) ** (1.0 / 3.0) * a ** (2.0 / 3.0),
                     "valid": r_ball < 0.5})
    valid = [r for r in rows if r["valid"]]
    best = min(valid, key=lambda r: r["perimeter"])["name"]
    return rows, best


def strip_disc_crossing() -> float:
    """|m| at which the strip and disc perimeters coincide in T^2: the disc's
    2 sqrt(pi a) equals the strip's 2 at a = (1 - |m|)/2 = 1/pi."""
    return 1.0 - 2.0 / math.pi


# ---------------------------------------------------------------------------
# semi-analytic nonlocal energy for graph perturbations
# ---------------------------------------------------------------------------

# q2 = lo + a + r (lo a multiple of _CHUNK_ROWS, a of _PHASE_BLOCK, r = 1..
# _PHASE_BLOCK), so a phase is a product of three table entries, all powers of
# z = e^{-2 pi i h}.  The mode sum runs one in-cache chunk (~0.5 MB at 128
# nodes) at a time, which the interface matmul fills in place; DEFAULT_Q2_MODES
# is a whole number of chunks
_PHASE_BLOCK = 32
_CHUNK_ROWS = 256
GRAPH_NONLOCAL_NODES = 128    # lateral nodes of the graph nonlocal term (psi's own if more)


@functools.lru_cache(maxsize=1)     # 1 MB at 128 nodes, 16.8 MB at 2048
def _mode_weights(n_lat: int) -> np.ndarray:
    """w - w0 for q2 = 1..DEFAULT_Q2_MODES and the fft order of q1: the weight
    w = 2 / ((pi q2 n_lat)^2 4 pi^2 |xi|^2) less its q1 = 0 value w0, each
    entry twice (real and imaginary part), read-only."""
    q1 = _wavenumbers(n_lat)
    q2 = np.arange(1, DEFAULT_Q2_MODES + 1)[:, None]
    w = -2.0 * q1**2 / (4.0 * np.pi**4 * n_lat**2 * q2**4 * (q1**2 + q2**2))
    out = np.repeat(w, 2, axis=1)
    out.flags.writeable = False
    return out


def graph_nonlocal_energy(gp: GraphPerturbation) -> float:
    """Nonlocal term of a graph perturbation, smooth in the heights.

    The vertical Fourier coefficients of the indicator are exact in the
    heights; the lateral direction is resolved spectrally on
    GRAPH_NONLOCAL_NODES nodes, or psi's own if more, so no sample of psi is
    aliased.  The q1 = 0 part of each vertical mode's weight is summed over
    all modes in closed form, as the flat lamella's exact value plus what
    the heights change, the rest over DEFAULT_Q2_MODES modes (tail ~Q^-5).
    Unlike the rasterized pipeline this is differentiable in the heights,
    which finite-difference energy checks require.
    """
    n_lat = max(GRAPH_NONLOCAL_NODES, gp.psi.shape[1])
    hts = gp.heights(n_lat)                      # (2k, n_lat)
    # q2 = 0 row: lateral variation of the strip widths
    row0 = 2.0 * ((hts[1::2] - hts[0::2]) % 1.0).sum(axis=0)
    c0 = np.fft.fft(row0 - row0.mean())[1:] / n_lat
    q1 = _wavenumbers(n_lat)[1:]
    total = float(np.sum(np.abs(c0) ** 2 / (4.0 * np.pi**2 * q1**2)))

    # q2 >= 1: sum over interfaces of -sgn e^{-2 pi i q2 h} (bottoms +, tops -);
    # 1/(i pi q2), 1/n_lat and 1/(4 pi^2 |xi|^2) live in the weights.  Their
    # q1 = 0 part w0 over all q2 is -1/(6 n_lat) sum_x,i,j sgn_i sgn_j B4({h_i - h_j})
    # (Parseval, DLMF 24.8.1), B4(t) = t^2 (1-t)^2 - 1/30; sum_i sgn_i = 0
    # cancels the 1/30.  At the flat offsets d0 it is the lamella's closed
    # form, which is taken as is, with B4(d) - B4(d0) summed.  The rest,
    # w - w0, is summed mode by mode
    pos, sgn = gp.base.interfaces()
    d, d0 = ((h[:, None] - h) % 1.0 for h in (hts, pos[:, None]))   # d0 (2k, 2k, 1)
    b4 = d * d * (1.0 - d) ** 2 - d0 * d0 * (1.0 - d0) ** 2
    total += (potential(gp.base).dirichlet_energy()
              - float(sgn @ b4.sum(axis=2) @ sgn) / (6.0 * n_lat))
    z = np.exp(-2j * np.pi * hts.T)              # (n_lat, 2k)
    r_tab = np.cumprod(np.repeat(z[:, :, None], _PHASE_BLOCK, axis=2), axis=2)   # z^r
    zb = r_tab[:, None, :, -1]                   # z^_PHASE_BLOCK, (n_lat, 1, 2k)
    a_tab = np.cumprod(np.repeat(zb, _CHUNK_ROWS // _PHASE_BLOCK, axis=1), axis=1)
    step, a_tab = a_tab[:, -1:], a_tab * (-sgn / zb)     # z^_CHUNK_ROWS; -sgn zb^a
    coef = np.empty((_CHUNK_ROWS, n_lat), dtype=complex)
    rows_by_x = coef.reshape(-1, _PHASE_BLOCK, n_lat).transpose(2, 0, 1)
    for lo in range(0, DEFAULT_Q2_MODES, _CHUNK_ROWS):
        np.matmul(a_tab, r_tab, out=rows_by_x)   # sum over interfaces
        a_tab *= step
        spec = np.fft.fft(coef, axis=1, out=coef).view(np.float64)
        spec *= spec
        total += float(np.vdot(_mode_weights(n_lat)[lo:lo + _CHUNK_ROWS], spec))
    return total


def graph_energy(gp: GraphPerturbation, gamma: float) -> EnergyBreakdown:
    return EnergyBreakdown(perimeter_exact(gp), graph_nonlocal_energy(gp), gamma)


def volume_corrected_perturbation(base: Lamella, psi: np.ndarray) -> GraphPerturbation:
    """Graph perturbation with a constant orientation-signed height shift
    restoring the base volume exactly (volume is linear in the heights)."""
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if psi.shape[0] != 2 * base.k:     # the signed rows below would broadcast
        raise ValidationError("psi needs one row per interface (2k rows)")
    _, sgn = base.interfaces()
    defect = float((sgn[:, None] * psi).mean(axis=1).sum())
    c = -defect / (2.0 * base.k)
    return GraphPerturbation(base, psi + c * sgn[:, None])
