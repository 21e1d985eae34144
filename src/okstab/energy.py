"""Sharp-interface energy: perimeter + gamma * nonlocal Dirichlet term.

Evaluation for parametric shapes and raw indicator fields, closed-form
lamella values, Euler-Lagrange residuals on boundary meshes, the Lipschitz
ratio of the nonlocal term, and the classical candidate comparison
(strip / disc / cylinder / ball).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_AXIS_GRID, DEFAULT_FIELD_GRID, DEFAULT_Q2_MODES
from .shapes import (BoundaryMesh, GraphPerturbation, Lamella, LamellaPotential,
                     ShapeConfig, lamella_source_field, perimeter_exact,
                     perimeter_grid, rasterize)
from .torus import (ScalarField, TorusGrid, ValidationError, make_grid,
                    solve_poisson_periodic, trig_interpolate)


def _check_gamma(gamma: float):
    if not 0.0 <= gamma < np.inf:
        raise ValidationError("gamma must be finite and nonnegative")


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


def _default_grid(dim: int) -> TorusGrid:
    if dim == 1:
        return make_grid(1, (DEFAULT_AXIS_GRID,))
    if dim == 2:
        return make_grid(2, (DEFAULT_FIELD_GRID, DEFAULT_FIELD_GRID))
    return make_grid(3, (64, 64, 64))


def nonlocal_energy_field(u: ScalarField) -> float:
    """int |grad v|^2 with -Lap v = u - mean(u), as sum |uhat|^2 / (4 pi^2 |xi|^2)."""
    g = u.grid
    return g.parseval(g.inverse_laplacian() * np.abs(u.spectrum) ** 2)


def energy(obj, gamma: float, grid: TorusGrid | None = None) -> EnergyBreakdown:
    """Energy of a parametric shape or a +-1 indicator field.

    Parametric shapes use the exact perimeter; the nonlocal term is always
    the spectral solve on the (rasterized) indicator.  Lamellae reduce to a
    1D solve along their axis.
    """
    _check_gamma(gamma)
    if isinstance(obj, ScalarField):
        return EnergyBreakdown(perimeter_grid(obj), nonlocal_energy_field(obj), gamma)
    shape: ShapeConfig = obj
    if isinstance(shape, Lamella):
        # 1D reduction along the axis; band-limited source avoids the
        # aliasing of raw +-1 sampling at unaligned interfaces
        n = grid.sizes[shape.axis] if grid is not None else DEFAULT_AXIS_GRID
        prof = Lamella(k=shape.k, m=shape.m, axis=0, dim=1)
        nl = nonlocal_energy_field(lamella_source_field(prof, n))
    else:
        g = grid if grid is not None else _default_grid(shape.dim)
        nl = nonlocal_energy_field(rasterize(shape, g))
    return EnergyBreakdown(perimeter_exact(shape), nl, gamma)


def lamella_closed_form(k: int, m: float, gamma: float) -> EnergyBreakdown:
    """Exact energy of the k-strip lamella: 2k + gamma a^2(1-a)^2/(3k^2)."""
    shape = Lamella(k=k, m=m, axis=0, dim=1)  # validates parameters
    a = shape.a
    return EnergyBreakdown(2.0 * k, a * a * (1.0 - a) ** 2 / (3.0 * k * k), gamma)


def optimal_strip_count(m: float, gamma: float, k_max: int = 10_000) -> int:
    """argmin over k >= 1 of the closed-form lamella energy (ties -> smaller k)."""
    _check_gamma(gamma)
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise ValidationError(f"k_max must be an integer >= 1, got {k_max!r}")
    a = Lamella(k=1, m=m, axis=0, dim=1).a  # validates m
    c = gamma * a * a * (1.0 - a) ** 2 / 3.0

    def total(k):
        return 2.0 * k + c / (k * k)

    k_star = min(k_max, max(1, int(round((c) ** (1.0 / 3.0))) if c > 0 else 1))
    lo = max(1, k_star - 3)
    hi = min(k_max, k_star + 3)
    best = min(range(lo, hi + 1), key=lambda k: (total(k), k))
    return best


# ---------------------------------------------------------------------------
# Euler-Lagrange residual H + 4 gamma v = const on a boundary mesh
# ---------------------------------------------------------------------------

@dataclass
class CriticalityReport:
    lam: float                       # least-squares Lagrange multiplier
    residual_sup: float
    residual: np.ndarray = field(repr=False)
    gamma: float = 0.0


def el_residual(mesh: BoundaryMesh, gamma: float,
                grid: TorusGrid | None = None) -> CriticalityReport:
    """Residual of H + 4 gamma v = lambda on the mesh nodes.

    v comes from the rasterized indicator on `grid` (default 256 per axis),
    sampled at the mesh points by trigonometric interpolation; lambda is the
    arc-length-weighted mean of H + 4 gamma v.
    """
    _check_gamma(gamma)
    if mesh.shape is None:
        raise ValidationError("mesh carries no shape; rasterization impossible")
    g = grid if grid is not None else _default_grid(2)
    vals = mesh.curvature.copy()
    if gamma > 0:
        if isinstance(mesh.shape, Lamella):
            # exact 1D profile: rasterization quantizes the interface
            # positions and would contaminate the residual at O(h)
            vmesh = LamellaPotential(mesh.shape).v(mesh.points[:, mesh.shape.axis])
        else:
            u = rasterize(mesh.shape, g)
            v = solve_poisson_periodic(ScalarField._adopt(g, u.values - u.mean()))
            vmesh = trig_interpolate(v, mesh.points)
        vals = vals + 4.0 * gamma * vmesh
    w = mesh.weights / mesh.weights.sum()
    lam = float(np.sum(w * vals))
    res = vals - lam
    return CriticalityReport(lam, float(np.abs(res).max()), res, gamma)


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
    if not -1.0 < m < 1.0:
        raise ValidationError("m must lie in (-1, 1)")
    a = min(0.5 * (m + 1.0), 0.5 * (1.0 - m))
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
    """|m| at which the strip and disc perimeters coincide in T^2."""
    def diff(m):
        rows, _ = isoperimetric_compare(m, 2)
        per = {r["name"]: r["perimeter"] for r in rows}
        return per["disc"] - per["strip"]
    lo, hi = 0.0, 0.99          # the disc is longer at lo, shorter at hi
    for _ in range(60):         # 0.99 / 2^60 is below the spacing of doubles
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if diff(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# semi-analytic nonlocal energy for graph perturbations
# ---------------------------------------------------------------------------

# q2 = lo + a + r (lo a multiple of _CHUNK_ROWS, a of _PHASE_BLOCK, r = 1..
# _PHASE_BLOCK), so a phase is a product of three table entries.  The mode sum
# runs one in-cache chunk (~0.5 MB) at a time, via a contiguous matmul buffer
_PHASE_BLOCK = 32
_CHUNK_ROWS = 256


@functools.lru_cache(maxsize=4)     # 4 MB each at the default sizes
def _mode_weights(n_lat: int, q2_modes: int) -> np.ndarray:
    """2 / ((pi q2)^2 n_lat^2 4 pi^2 |xi|^2) for q2 = 1..q2_modes and the
    fft order of q1, each entry twice (real and imaginary part), read-only."""
    q1 = np.fft.fftfreq(n_lat, d=1.0 / n_lat)
    q2 = np.arange(1, q2_modes + 1)[:, None]
    w = 2.0 / ((np.pi * q2 * n_lat) ** 2 * 4.0 * np.pi**2 * (q1**2 + q2**2))
    out = np.repeat(w, 2, axis=1)
    out.flags.writeable = False
    return out


def graph_nonlocal_energy(gp: GraphPerturbation, n_lat: int = 128,
                          q2_modes: int = DEFAULT_Q2_MODES) -> float:
    """Nonlocal term of a graph perturbation, smooth in the heights.

    The vertical Fourier coefficients of the indicator are exact in the
    heights; the lateral direction is resolved spectrally on n_lat nodes.
    The vertical mode sum is truncated at q2_modes (tail ~ q2_modes^-3).
    Unlike the rasterized pipeline this is differentiable in the heights,
    which finite-difference energy checks require.
    """
    if n_lat < 2:
        raise ValidationError(f"n_lat must be >= 2, got {n_lat}")
    if q2_modes < 1:
        raise ValidationError(f"q2_modes must be >= 1, got {q2_modes}")
    hts = gp.heights(n_lat)                      # (2k, n_lat)
    # q2 = 0 row: lateral variation of the strip widths
    row0 = 2.0 * ((hts[1::2] - hts[0::2]) % 1.0).sum(axis=0)
    c0 = np.fft.fft(row0 - row0.mean())[1:] / n_lat
    q1 = np.fft.fftfreq(n_lat, d=1.0 / n_lat)[1:]
    total = float(np.sum(np.abs(c0) ** 2 / (4.0 * np.pi**2 * q1**2)))

    # q2 >= 1: sum over interfaces of -sgn e^{-2 pi i q2 h} (bottoms +, tops -);
    # 1/(i pi q2), 1/n_lat and 1/(4 pi^2 |xi|^2) live in the weights
    _, sgn = gp.base.interfaces()
    h = -2j * np.pi * hts.T                      # (n_lat, 2k)
    a_tab = np.exp(h[:, None, :] * np.arange(0, _CHUNK_ROWS, _PHASE_BLOCK)[:, None]) * -sgn
    r_tab = np.exp(h[:, :, None] * np.arange(1, _PHASE_BLOCK + 1))
    prod = np.empty((n_lat, _CHUNK_ROWS // _PHASE_BLOCK, _PHASE_BLOCK), dtype=complex)
    coef = np.empty((_CHUNK_ROWS, n_lat), dtype=complex)
    for lo in range(0, q2_modes, _CHUNK_ROWS):
        np.matmul(a_tab * np.exp(h * lo)[:, None], r_tab, out=prod)   # sum over interfaces
        chunk = coef[:min(_CHUNK_ROWS, q2_modes - lo)]
        chunk[...] = prod.reshape(n_lat, -1)[:, :len(chunk)].T
        spec = np.fft.fft(chunk, axis=1, out=chunk).view(np.float64)
        spec *= spec
        total += float(np.vdot(_mode_weights(n_lat, q2_modes)[lo:lo + len(chunk)], spec))
    return total


def graph_energy(gp: GraphPerturbation, gamma: float,
                 n_lat: int = 128, q2_modes: int = DEFAULT_Q2_MODES) -> EnergyBreakdown:
    return EnergyBreakdown(perimeter_exact(gp),
                           graph_nonlocal_energy(gp, n_lat, q2_modes), gamma)


def volume_corrected_perturbation(base: Lamella, psi: np.ndarray) -> GraphPerturbation:
    """Graph perturbation with a constant orientation-signed height shift
    restoring the base volume exactly (volume is linear in the heights)."""
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    _, sgn = base.interfaces()
    defect = float((sgn[:, None] * psi).mean(axis=1).sum())
    c = -defect / (2.0 * base.k)
    return GraphPerturbation(base, psi + c * sgn[:, None])
