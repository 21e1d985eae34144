"""Parametric set configurations on the torus and their measurements.

Lamellae (k equally spaced strips), droplets, and normal-graph perturbations
of a lamella; rasterization to +-1 indicator fields, exact and grid-based
perimeters, the translation-modded asymmetry index alpha, boundary meshes in
T^2, and the closed-form lamella potential (interface sums of g0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES, read_key_values
from .torus import (ScalarField, TorusGrid, ValidationError, green_kernel_screened,
                    make_grid)


# ---------------------------------------------------------------------------
# shape configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lamella:
    """k equally spaced strips along `axis`, volume parameter m in (-1, 1).

    Strip i occupies [ (i-1)/k, (i-1)/k + a/k ] along the axis, a = (m+1)/2.
    """
    k: int
    m: float
    axis: int = -1
    dim: int = 2

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValidationError(f"strip count k must be an integer >= 1, got {self.k!r}")
        if not -1.0 < self.m < 1.0:
            raise ValidationError("m must lie in (-1, 1)")
        a = self.a
        if a <= 0.0 or a >= 1.0:
            raise ValidationError("degenerate strip width")
        object.__setattr__(self, "axis", self.axis % self.dim)

    @property
    def a(self) -> float:
        return 0.5 * (self.m + 1.0)

    def interfaces(self):
        """Sorted interface positions and outward-normal signs along the axis.

        Sign -1 marks a strip bottom (outer normal points down the axis),
        +1 a strip top.
        """
        i = np.arange(2 * self.k)       # bottom of strip i//2 at even i
        return i // 2 / self.k + i % 2 * (self.a / self.k), 2.0 * (i % 2) - 1.0

    @property
    def interface_gap(self) -> float:
        return min(self.a, 1.0 - self.a) / self.k

    @property
    def dnv(self) -> float:
        """Outward normal derivative of the lamella potential, the same at
        every interface."""
        a = self.a
        return -a * (1.0 - a) / self.k


@dataclass(frozen=True)
class Droplet:
    """Ball of radius r < 1/2 around `center` (periodic distance)."""
    center: tuple
    radius: float
    dim: int = 2

    def __post_init__(self):
        if not 0.0 < self.radius < 0.5:
            raise ValidationError("droplet radius must lie in (0, 1/2)")
        if len(self.center) != self.dim:
            raise ValidationError("center dimension mismatch")


@dataclass(frozen=True)
class DropletSet:
    """Pairwise disjoint droplets."""
    droplets: tuple

    def __post_init__(self):
        ds = self.droplets
        if not ds:
            raise ValidationError("empty droplet list")
        dim = ds[0].dim
        for d in ds:
            if d.dim != dim:
                raise ValidationError("mixed droplet dimensions")
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                dc = _torus_dist(np.array(ds[i].center), np.array(ds[j].center))
                if dc <= ds[i].radius + ds[j].radius:
                    raise ValidationError("droplets overlap")

    @property
    def dim(self):
        return self.droplets[0].dim


@dataclass(frozen=True)
class GraphPerturbation:
    """Lamella with per-interface height functions psi on the lateral circle.

    psi: array (2k, n) of heights sampled at lateral nodes j/n; interface j
    moves from s_j to s_j + psi_j(x).  Heights must keep the interfaces
    ordered: max|psi| < 0.45 * interface gap.
    """
    base: Lamella
    psi: np.ndarray = field(repr=False)

    def __post_init__(self):
        psi = np.atleast_2d(np.asarray(self.psi, dtype=float))
        object.__setattr__(self, "psi", psi)
        if self.base.dim != 2:
            raise ValidationError("graph perturbations are 2D only")
        if psi.shape[0] != 2 * self.base.k:
            raise ValidationError("psi needs one row per interface (2k rows)")
        guard = TOLERANCES.graph_collision_factor * self.base.interface_gap
        if np.abs(psi).max() >= guard:
            raise ValidationError(
                f"perturbation too large: max|psi|={np.abs(psi).max():.3g} >= {guard:.3g}")

    @property
    def dim(self):
        return 2

    def heights(self, n: int) -> np.ndarray:
        """Interface heights (2k, n) resampled to n lateral nodes."""
        pos, _ = self.base.interfaces()
        return pos[:, None] + resample_periodic(self.psi, n)


ShapeConfig = Lamella | Droplet | DropletSet | GraphPerturbation


def lamella(k: int, m: float, axis: int = -1, dim: int = 2) -> Lamella:
    return Lamella(k=k, m=m, axis=axis, dim=dim)


def _torus_dist(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt(np.sum(d * d)))


def resample_periodic(rows: np.ndarray, n: int) -> np.ndarray:
    """Trigonometric interpolant of periodic rows (node samples at j/n0)
    evaluated at the n nodes j/n.  For n > n0 the half spectrum is
    zero-padded, with the Nyquist cosine of an even n0 split in two."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n0 = rows.shape[1]
    if n == n0:
        return rows.copy()
    if n < n0:
        return _eval_periodic_rows(rows, np.arange(n) / n)
    spec = np.fft.rfft(rows, axis=1)
    if n0 % 2 == 0:
        spec[:, -1] *= 0.5
    return np.fft.irfft(spec, n=n, axis=1) * (n / n0)


def periodic_derivative(rows: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral derivative of periodic node-sampled rows."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[1]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    spec = np.fft.rfft(rows, axis=1) * (2j * np.pi * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        spec[:, -1] = 0.0  # Nyquist mode has no odd derivative
    return np.fft.irfft(spec, n=n, axis=1)


# ---------------------------------------------------------------------------
# rasterization and volume
# ---------------------------------------------------------------------------

def rasterize(shape: ShapeConfig, grid: TorusGrid) -> ScalarField:
    """Cell-center sampling of chi_E - chi_{E^c} (values exactly +-1)."""
    if shape.dim != grid.dim:
        raise ValidationError("shape/grid dimension mismatch")
    if isinstance(shape, Lamella):
        z = (grid.axis_coords(shape.axis) * shape.k) % 1.0
        inside1d = z < shape.a
        shp = [1] * grid.dim
        shp[shape.axis] = grid.sizes[shape.axis]
        inside = np.broadcast_to(inside1d.reshape(shp), grid.sizes)
    elif isinstance(shape, Droplet):
        inside = _droplet_mask(shape, grid)
    elif isinstance(shape, DropletSet):
        inside = np.zeros(grid.sizes, dtype=bool)
        for d in shape.droplets:
            inside |= _droplet_mask(d, grid)
    elif isinstance(shape, GraphPerturbation):
        inside = _graph_mask(shape, grid)
    else:
        raise ValidationError(f"unknown shape {type(shape)}")
    return ScalarField._adopt(grid, np.where(inside, 1.0, -1.0))


def _droplet_mask(d: Droplet, grid: TorusGrid):
    dist2 = 0.0     # separable: a sum of per-axis squared distances
    for axis, x0 in enumerate(d.center):
        dd = np.abs(grid.axis_coords(axis) - x0) % 1.0
        dd = np.minimum(dd, 1.0 - dd)
        dist2 = dist2 + np.expand_dims(dd * dd, [a for a in range(grid.dim) if a != axis])
    return dist2 <= d.radius**2


def _graph_mask(gp: GraphPerturbation, grid: TorusGrid):
    ax = gp.base.axis
    lat = 1 - ax  # lateral axis in 2D
    # heights at the lateral cell centers (offset by half a cell from nodes)
    pos, _ = gp.base.interfaces()
    hts = pos[:, None] + _eval_periodic_rows(gp.psi, grid.axis_coords(lat))
    b, t = hts[0::2, :, None], hts[1::2, :, None]     # (k, n_lat, 1)
    inside = ((grid.axis_coords(ax) - b) % 1.0 < (t - b) % 1.0).any(axis=0)
    return inside if ax == 1 else inside.T


def _eval_periodic_rows(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the trig interpolant of node-sampled rows at points x.

    Interior modes of the rfft half spectrum count twice, the zero mode and
    the Nyquist mode of an even row length once: the Nyquist mode enters as
    the cosine through its samples.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[1]
    q = np.arange(n // 2 + 1)
    weight = np.where((q == 0) | (2 * q == n), 1.0, 2.0) / n
    spec = np.fft.rfft(rows, axis=1) * weight
    return np.real(spec @ np.exp(2j * np.pi * np.outer(q, x)))


def volume_fraction(u: ScalarField) -> float:
    """Grid mean of u (the parameter m of the configuration)."""
    return u.mean()


# ---------------------------------------------------------------------------
# perimeters
# ---------------------------------------------------------------------------

def perimeter_exact(shape: ShapeConfig, n_quad: int = 2048) -> float:
    """Exact (or spectrally converged) perimeter of a parametric shape."""
    if isinstance(shape, Lamella):
        return 2.0 * shape.k
    if isinstance(shape, Droplet):
        if shape.dim == 2:
            return 2.0 * np.pi * shape.radius
        return 4.0 * np.pi * shape.radius**2
    if isinstance(shape, DropletSet):
        return sum(perimeter_exact(d) for d in shape.droplets)
    if isinstance(shape, GraphPerturbation):
        dpsi = periodic_derivative(resample_periodic(shape.psi, n_quad))
        return float(np.mean(np.sqrt(1.0 + dpsi**2), axis=1).sum())
    raise ValidationError(f"unknown shape {type(shape)}")


def perimeter_grid(u: ScalarField, smooth_sigma_cells: float = 2.0) -> float:
    """Contour length of the zero level set of a +-1 indicator field.

    The field is mollified by a narrow periodic Gaussian (a couple of cells wide)
    so that linear interpolation locates sub-cell crossings; marching squares
    with saddle disambiguation then accumulates segment lengths.  Second-order
    accurate on smooth interfaces.
    """
    if u.grid.dim != 2:
        raise ValidationError("grid perimeter implemented for T^2 only")
    vals = u.values
    if np.all(vals > 0) or np.all(vals < 0):
        return 0.0
    f = _gaussian_smooth(u, smooth_sigma_cells)
    return _marching_squares_length(f, u.grid)


def _gaussian_smooth(u: ScalarField, sigma_cells: float) -> np.ndarray:
    g = u.grid
    sig = sigma_cells * max(g.spacing)
    return g.irfft(g.rfft(u.values) * np.exp(-2.0 * np.pi**2 * sig**2 * g.ksq()))


def _marching_squares_length(f: np.ndarray, grid: TorusGrid) -> float:
    h0, h1 = grid.spacing
    v00 = f
    v10 = np.roll(f, -1, axis=0)
    v01 = np.roll(f, -1, axis=1)
    v11 = np.roll(np.roll(f, -1, axis=0), -1, axis=1)
    b00 = v00 >= 0
    b10 = v10 >= 0
    b11 = v11 >= 0
    b01 = v01 >= 0
    code = (b00.astype(int) + 2 * b10.astype(int)
            + 4 * b11.astype(int) + 8 * b01.astype(int))

    def _t(a, b):
        d = a - b
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(d) > 0, a / np.where(d == 0, 1.0, d), 0.5)
        return np.clip(t, 0.0, 1.0)

    # local crossing coordinates on the four edges of each lattice square
    S = np.stack([_t(v00, v10) * h0, np.zeros_like(f)], axis=-1)
    E = np.stack([np.full_like(f, h0), _t(v10, v11) * h1], axis=-1)
    N = np.stack([_t(v01, v11) * h0, np.full_like(f, h1)], axis=-1)
    W = np.stack([np.zeros_like(f), _t(v00, v01) * h1], axis=-1)
    edges = {"S": S, "E": E, "N": N, "W": W}

    simple = {1: ("W", "S"), 2: ("S", "E"), 3: ("W", "E"), 4: ("E", "N"),
              6: ("S", "N"), 7: ("W", "N"), 8: ("W", "N"), 9: ("S", "N"),
              11: ("E", "N"), 12: ("W", "E"), 13: ("S", "E"), 14: ("W", "S")}

    total = 0.0
    for c, (ea, eb) in simple.items():
        mask = code == c
        if not mask.any():
            continue
        seg = edges[ea][mask] - edges[eb][mask]
        total += float(np.sqrt((seg**2).sum(axis=1)).sum())

    for c in (5, 10):
        mask = code == c
        if not mask.any():
            continue
        center_in = (v00 + v10 + v11 + v01)[mask] >= 0
        if c == 5:
            # inside corners 00 and 11
            pair_in = (("S", "E"), ("W", "N"))    # center inside
            pair_out = (("W", "S"), ("E", "N"))   # center outside
        else:
            # inside corners 10 and 01
            pair_in = (("W", "S"), ("E", "N"))
            pair_out = (("S", "E"), ("W", "N"))
        for sel, pairs in ((center_in, pair_in), (~center_in, pair_out)):
            if not sel.any():
                continue
            for ea, eb in pairs:
                seg = edges[ea][mask][sel] - edges[eb][mask][sel]
                total += float(np.sqrt((seg**2).sum(axis=1)).sum())
    return total


# ---------------------------------------------------------------------------
# asymmetry index alpha
# ---------------------------------------------------------------------------

def alpha_distance(uE: ScalarField, uF: ScalarField):
    """min over grid translations x of |E triangle (x+F)|, with its argmin.

    Computed via FFT cross-correlation of the {0,1} indicators; counts are
    rounded back to integers, so the result is exact for +-1 fields.  Ties
    break toward the lexicographically smallest shift index.
    """
    if uE.grid != uF.grid:
        raise ValidationError("grid mismatch")
    E = (uE.values > 0).astype(float)
    F = (uF.values > 0).astype(float)
    g = uE.grid
    corr = g.irfft(g.rfft(E) * np.conj(g.rfft(F)))
    counts = np.rint(E.sum() + F.sum() - 2.0 * corr)
    shift_idx = np.unravel_index(np.argmin(counts), counts.shape)
    shift = tuple(int(i) * s for i, s in zip(shift_idx, g.spacing))
    return float(counts[shift_idx]) * g.cell_volume, shift


# ---------------------------------------------------------------------------
# boundary meshes in T^2
# ---------------------------------------------------------------------------

@dataclass
class BoundaryMesh:
    """Discretized closed boundary in T^2.

    points (n,2), outward unit normals, curvature samples (sum of principal
    curvatures, positive for a shrinking circle), arc-length quadrature
    weights, and the index ranges of the closed components.  `speeds` holds
    |x'(t)| per node with respect to the uniform component parameter.
    """
    points: np.ndarray
    normals: np.ndarray
    curvature: np.ndarray
    weights: np.ndarray
    components: list
    speeds: np.ndarray
    shape: ShapeConfig | None = None

    def __post_init__(self):
        norm = np.sqrt((self.normals**2).sum(axis=1))
        if np.abs(norm - 1.0).max() > TOLERANCES.normal_unit:
            raise ValidationError("normals are not unit vectors")

    @property
    def length(self) -> float:
        return float(self.weights.sum())


def boundary_mesh(shape: ShapeConfig, n_points: int = 256) -> BoundaryMesh:
    """Uniform-parameter sampling of each boundary component (n_points each)."""
    if n_points < 64:
        raise ValidationError("n_points must be >= 64")
    if shape.dim != 2:
        raise ValidationError("boundary meshes are 2D only")
    t = np.arange(n_points) / n_points
    pts, nrm, kap, wts, comps, spd = [], [], [], [], [], []

    def add_component(p, n, k, w, s):
        start = sum(len(c) for c in pts)
        pts.append(p)
        nrm.append(n)
        kap.append(k)
        wts.append(w)
        spd.append(s)
        comps.append((start, start + len(p)))

    if isinstance(shape, Lamella):
        pos, sgn = shape.interfaces()
        for s0, sg in zip(pos, sgn):
            p = np.stack([t, np.full_like(t, s0)], axis=1)
            if shape.axis == 0:
                p = p[:, ::-1]
            n = np.zeros((n_points, 2))
            n[:, shape.axis] = sg
            add_component(p, n, np.zeros(n_points),
                          np.full(n_points, 1.0 / n_points), np.ones(n_points))
    elif isinstance(shape, Droplet):
        th = 2.0 * np.pi * t
        r = shape.radius
        c = np.asarray(shape.center)
        p = np.stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)], axis=1) % 1.0
        n = np.stack([np.cos(th), np.sin(th)], axis=1)
        add_component(p, n, np.full(n_points, 1.0 / r),
                      np.full(n_points, 2.0 * np.pi * r / n_points),
                      np.full(n_points, 2.0 * np.pi * r))
    elif isinstance(shape, GraphPerturbation):
        base = shape.base
        pos, sgn = base.interfaces()
        psi = resample_periodic(shape.psi, n_points)
        dpsi = periodic_derivative(psi)
        d2psi = periodic_derivative(psi, order=2)
        for j, (s0, sg) in enumerate(zip(pos, sgn)):
            hts = s0 + psi[j]
            root = np.sqrt(1.0 + dpsi[j] ** 2)
            p = np.stack([t, hts % 1.0], axis=1)
            if base.axis == 0:
                p = p[:, ::-1]
            n = np.stack([-dpsi[j], np.ones(n_points)], axis=1) * (sg / root)[:, None]
            if base.axis == 0:
                n = n[:, ::-1]
            # H = div_tau(nu); equals -sg * h'' / (1 + h'^2)^{3/2} for the
            # outward normal (checks out against +1/r on a circle)
            k = -sg * d2psi[j] / root**3
            add_component(p, n, k, root / n_points, root)
    else:
        raise ValidationError(f"no boundary mesh for {type(shape)}")

    mesh = BoundaryMesh(np.concatenate(pts), np.concatenate(nrm),
                        np.concatenate(kap), np.concatenate(wts),
                        comps, np.concatenate(spd), shape)
    if isinstance(shape, GraphPerturbation):
        _check_no_collision(shape)
    return mesh


def _check_no_collision(gp: GraphPerturbation):
    hts = gp.heights(max(256, gp.psi.shape[1]))
    diffs = (np.roll(hts, -1, axis=0) - hts) % 1.0
    if diffs.min() <= 0:
        raise ValidationError("perturbed interfaces collide")


# ---------------------------------------------------------------------------
# recentering (first translation step of the graph parametrization)
# ---------------------------------------------------------------------------

def recenter_translation(psi: np.ndarray, base: Lamella) -> np.ndarray:
    """First-step recentering shift for a graph perturbation of a lamella.

    For lamellae only the stack axis carries a nonzero translation
    functional; the shift equals the mean height averaged over interfaces.
    Subtracting it zeroes the boundary integral of (normal height) * nu.
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if psi.shape[0] != 2 * base.k:
        raise ValidationError("psi needs 2k rows")
    sigma = psi.mean()
    shift = np.zeros(base.dim)
    shift[base.axis] = sigma
    return shift


# ---------------------------------------------------------------------------
# closed-form lamella potential (interface sums of the circle kernel g0)
# ---------------------------------------------------------------------------

class LamellaPotential:
    """Exact potential of a lamella: v'' = -(u - m), periodic, mean zero.

    v = 2 int_E g0(. - y) dy, with g0 the mean-zero circle kernel, is a
    signed sum over the interfaces s_i (sign -1 at a bottom, +1 at a top):
    v = -2 sum_i sgn_i P(. - s_i), with P(s) = s(s - 1/2)(s - 1)/6 the
    periodic mean-zero antiderivative of g0, and v' = -2 sum_i sgn_i g0(. - s_i).
    The convolution g0 * g0 is 1/720 - Q with Q(s) = s^2 (1 - s)^2 / 24, and
    sum_i sgn_i = 0, so int v'^2 = -4 sum_ij sgn_i sgn_j Q(s_i - s_j).
    """

    def __init__(self, shape: Lamella):
        self.shape = shape
        self._pos, self._sgn = shape.interfaces()

    def _offsets(self, x):
        return (np.asarray(x, dtype=float)[..., None] - self._pos) % 1.0

    def v(self, x):
        s = self._offsets(x)
        return -2.0 * (s * (s - 0.5) * (s - 1.0) / 6.0) @ self._sgn

    def dv(self, x):
        return -2.0 * green_kernel_screened(0, self._offsets(x)) @ self._sgn

    def normal_derivative(self) -> np.ndarray:
        """Outward normal derivative of v at each interface (interface order)."""
        return self._sgn * self.dv(self._pos)

    def dirichlet_energy(self) -> float:
        """Exact int v'^2 over the circle."""
        s = self._offsets(self._pos)
        return float(-4.0 * self._sgn @ ((s * (1.0 - s)) ** 2 / 24.0) @ self._sgn)


def lamella_source_field(shape: Lamella, n: int) -> ScalarField:
    """Band-limited representation of u_L - m on an n-point axis grid.

    Exact Fourier coefficients of the indicator difference, truncated to the
    grid band; avoids the aliasing of raw +-1 sampling.  1D field along the
    lamella axis.
    """
    grid = make_grid(1, (n,))
    a = shape.a
    k = shape.k
    nu, = grid.half_wavenumbers()
    c = np.zeros(len(nu), dtype=complex)
    nz = nu != 0
    nn = nu[nz]
    # sum over strips: k identical cells, nonzero only on multiples of k
    cell = np.where(np.isclose(nn % k, 0),
                    (1.0 - np.exp(-2j * np.pi * nn * a / k)) / (2j * np.pi * nn), 0.0)
    c[nz] = 2.0 * k * cell
    phase = np.exp(2j * np.pi * nu * (0.5 / n))
    return ScalarField._adopt(grid, grid.irfft(c * n * phase))


# ---------------------------------------------------------------------------
# shape description files
# ---------------------------------------------------------------------------

def shape_to_record(shape: ShapeConfig) -> dict:
    if isinstance(shape, Lamella):
        return {"kind": "lamella", "k": shape.k, "m": shape.m,
                "axis": shape.axis, "dim": shape.dim}
    if isinstance(shape, Droplet):
        return {"kind": "droplet",
                "center": ",".join(repr(c) for c in shape.center),
                "radius": shape.radius, "dim": shape.dim}
    raise ValidationError(f"cannot serialize {type(shape)}")


def record_to_shape(rec: dict) -> ShapeConfig:
    """Shape from a record; a missing key or a value that is not a number
    is rejected with a ValidationError naming the key."""
    def value(key, cast=float, default=None):
        if key not in rec and default is None:
            raise ValidationError(f"shape record has no {key!r}")
        val = rec.get(key, default)
        try:
            return cast(val)
        except (TypeError, ValueError):
            raise ValidationError(
                f"bad value for shape key {key!r}: {val!r}") from None

    kind = rec.get("kind")
    if kind == "lamella":
        return Lamella(k=value("k", int), m=value("m"),
                       axis=value("axis", int, -1), dim=value("dim", int, 2))
    if kind == "droplet":
        center = value("center",
                       lambda s: tuple(float(c) for c in str(s).split(",")))
        return Droplet(center=center, radius=value("radius"),
                       dim=value("dim", int, len(center)))
    raise ValidationError(f"unknown shape kind {kind!r}")


def load_shape(path: str) -> ShapeConfig:
    return record_to_shape(read_key_values(path))


def save_shape(shape: ShapeConfig, path: str):
    rec = shape_to_record(shape)
    with open(path, "w") as fh:
        for key, val in rec.items():
            fh.write(f"{key}={val}\n")
