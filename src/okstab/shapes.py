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
from .torus import (ScalarField, TorusGrid, ValidationError, _check_count,
                    green_kernel_screened)


# ---------------------------------------------------------------------------
# shape configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lamella:
    """k equally spaced strips normal to the last axis, volume parameter m in (-1, 1).

    Strip i occupies [ (i-1)/k, (i-1)/k + a/k ] along that axis, a = (m+1)/2.
    Axis permutations of the torus map any strip orientation onto this one,
    so `axis` only names the last axis: -1 or dim - 1, kept as dim - 1."""
    k: int
    m: float
    axis: int = -1
    dim: int = 2

    def __post_init__(self):
        _check_count("strip count k", self.k, 1)
        _check_count("lamella dim", self.dim, 1)
        if not -1.0 < self.m < 1.0:
            raise ValidationError("m must lie in (-1, 1)")
        if not 0.0 < self.a < 1.0:
            raise ValidationError("degenerate strip width")
        if self.axis not in (-1, self.dim - 1):
            raise ValidationError(f"axis must be the last, -1 or {self.dim - 1}, got {self.axis!r}")
        object.__setattr__(self, "axis", self.dim - 1)

    def inside(self, x):
        """Whether points x along the last axis lie in a strip."""
        return (x * self.k) % 1.0 < self.a

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
    """Ball of radius r < 1/2 around `center` (periodic distance), in its dimension."""
    center: tuple
    radius: float
    dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.dim is None:
            object.__setattr__(self, "dim", len(self.center))
        if not 0.0 < self.radius < 0.5:
            raise ValidationError("droplet radius must lie in (0, 1/2)")
        if len(self.center) != self.dim:
            raise ValidationError("center dimension mismatch")
        if not np.all(np.isfinite(self.center)):
            raise ValidationError(f"droplet center must be finite, got {self.center!r}")


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
    moves from s_j to s_j + psi_j(x), psi_j the trig interpolant of its row.
    The samples must keep max|psi| < 0.45 * interface gap, and the
    interpolants the interfaces ordered (checked on max(256, 4n) points).
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
        if not np.all(np.isfinite(psi)):
            raise ValidationError("heights psi must be finite")
        guard = TOLERANCES.graph_collision_factor * self.base.interface_gap
        if np.abs(psi).max() >= guard:
            raise ValidationError(
                f"perturbation too large: max|psi|={np.abs(psi).max():.3g} >= {guard:.3g}")
        # the guard bounds the samples only: the interpolant can overshoot them
        hts = self.heights(max(256, 4 * psi.shape[1]))
        gap = np.diff(np.vstack([hts, hts[:1] + 1.0]), axis=0).min()
        if gap <= 0.0:
            raise ValidationError(f"interpolated interfaces collide: least gap {gap:.3g}")

    dim = 2

    def heights(self, n: int) -> np.ndarray:
        """Interface heights (2k, n) resampled to n lateral nodes."""
        pos, _ = self.base.interfaces()
        return pos[:, None] + periodic_samples(self.psi, n)


ShapeConfig = Lamella | Droplet | DropletSet | GraphPerturbation

# lateral nodes (or psi's own, if more) of a graph perturbation's perimeter and alpha
GRAPH_NODES = 2048


lamella = Lamella     # lamella(k, m): the type owns the defaults


def _torus_dist(x, y):
    d = np.abs(np.asarray(x) - np.asarray(y)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(np.sqrt(np.sum(d * d)))


def periodic_samples(rows: np.ndarray, n: int, order: int = 0,
                     offset: float = 0.0) -> np.ndarray:
    """Order-th derivative of the trigonometric interpolant of periodic rows
    (node samples at j/n0) at the n points (j + offset)/n: one rfft, times
    (2 pi i q)^order e^{2 pi i q offset/n}, one irfft to n points.  An even
    n0's Nyquist cosine is split in two where it is an interior mode (n > n0);
    at n = n0 the irfft keeps the real part of its bin, the cosine's value and
    derivatives.  For n < n0, every r-th of n r points, r = ceil(n0/n)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n0 = rows.shape[1]
    if n < n0:
        r = -(-n0 // n)
        return periodic_samples(rows, n * r, order, offset * r)[:, ::r]
    w = 2j * np.pi * np.arange(n0 // 2 + 1)
    spec = np.fft.rfft(rows, axis=1) * (w**order * np.exp(w * (offset / n)))
    if n > n0 and n0 % 2 == 0:
        spec[:, -1] *= 0.5
    return np.fft.irfft(spec, n=n, axis=1) * (n / n0)


# ---------------------------------------------------------------------------
# rasterization and volume
# ---------------------------------------------------------------------------

def rasterize(shape: ShapeConfig, grid: TorusGrid) -> ScalarField:
    """Cell-center sampling of chi_E - chi_{E^c} (values exactly +-1)."""
    if shape.dim != grid.dim:
        raise ValidationError("shape/grid dimension mismatch")
    if isinstance(shape, Lamella):
        inside = np.broadcast_to(shape.inside(grid.axis_coords(-1)), grid.sizes)
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
    pos, _ = gp.base.interfaces()     # heights at the lateral (axis 0) cell centres
    hts = pos[:, None] + periodic_samples(gp.psi, grid.sizes[0], offset=0.5)
    b, t = hts[0::2, :, None], hts[1::2, :, None]     # (k, n0, 1)
    return ((grid.axis_coords(1) - b) % 1.0 < (t - b) % 1.0).any(axis=0)


# ---------------------------------------------------------------------------
# perimeters
# ---------------------------------------------------------------------------

def perimeter_exact(shape: ShapeConfig) -> float:
    """Exact (or spectrally converged, on GRAPH_NODES lateral nodes or psi's
    own if more) perimeter of a parametric shape."""
    if isinstance(shape, Lamella):
        return 2.0 * shape.k
    if isinstance(shape, Droplet):
        if shape.dim == 1:     # an interval: its boundary is two points
            return 2.0
        if shape.dim == 2:
            return 2.0 * np.pi * shape.radius
        return 4.0 * np.pi * shape.radius**2
    if isinstance(shape, DropletSet):
        return sum(perimeter_exact(d) for d in shape.droplets)
    if isinstance(shape, GraphPerturbation):
        dpsi = periodic_samples(shape.psi, max(GRAPH_NODES, shape.psi.shape[1]), 1)
        return float(np.mean(np.sqrt(1.0 + dpsi**2), axis=1).sum())
    raise ValidationError(f"unknown shape {type(shape)}")


def perimeter_grid(u: ScalarField) -> float:
    """Contour length of the zero level set of a +-1 indicator field.

    The field is mollified by a periodic Gaussian two cells wide so that
    linear interpolation locates sub-cell crossings; marching squares with
    saddle disambiguation then accumulates segment lengths.  Second-order
    accurate on smooth interfaces.
    """
    g = u.grid
    if g.dim != 2:
        raise ValidationError("grid perimeter implemented for T^2 only")
    if np.all(u.values > 0) or np.all(u.values < 0):
        return 0.0
    sig = 2.0 * max(g.spacing)
    f = g.irfft(u.spectrum * np.exp(-2.0 * np.pi**2 * sig**2 * g.ksq()))
    return _marching_squares_length(f, g)


def _marching_squares_length(f: np.ndarray, grid: TorusGrid) -> float:
    """Length of the zero contour of periodic samples f (v >= 0 is inside).

    Each lattice square joins the linear crossings on its two cut edges.  A
    saddle, where all four edges are cut, cuts off the two corners whose
    sign differs from the sign of its corner sum.
    """
    h0, h1 = grid.spacing
    # corners 00, 10, 11, 01; edge e (S, E, N, W) runs from corner e to e + 1
    v = (f, np.roll(f, -1, 0), np.roll(f, -1, (0, 1)), np.roll(f, -1, 1))
    inside = [c >= 0 for c in v]
    cut = [inside[e] != inside[(e + 1) % 4] for e in range(4)]

    def frac(e, a, b):     # crossing on edge e, as a fraction from a to b
        return np.divide(v[a], v[a] - v[b], out=np.zeros_like(f), where=cut[e])

    x = (h0 * frac(0, 0, 1), np.full_like(f, h0), h0 * frac(2, 3, 2), np.zeros_like(f))
    y = (np.zeros_like(f), h1 * frac(1, 1, 2), np.full_like(f, h1), h1 * frac(3, 0, 3))
    saddle = cut[0] & cut[1] & cut[2] & cut[3]
    centre = sum(v) >= 0
    # corner c lies between edges c - 1 and c; opposite edges S-N and E-W
    segments = [(c - 1, c, cut[c - 1] & cut[c] & (~saddle | (inside[c] != centre)))
                for c in range(4)]
    segments += [(e, e + 2, cut[e] & cut[e + 2] & ~saddle) for e in range(2)]
    total = 0.0
    for a, b, m in segments:
        dx, dy = x[a][m] - x[b][m], y[a][m] - y[b][m]
        total += float(np.sqrt(dx * dx + dy * dy).sum())
    return total


# ---------------------------------------------------------------------------
# asymmetry index alpha
# ---------------------------------------------------------------------------

def alpha_distance(uE: ScalarField, uF: ScalarField):
    """min over grid translations x of |E triangle (x+F)|, with its argmin.

    The count of differing cells, (N - (uE * uF)(x)) / 2 for +-1 fields, comes
    from their cached spectra and is rounded back to an integer, so the result
    is exact.  Ties break toward the lexicographically smallest shift index.
    """
    if uE.grid != uF.grid:
        raise ValidationError("grid mismatch")
    for name, u in (("uE", uE), ("uF", uF)):
        if not np.all(np.abs(u.values) == 1.0):
            raise ValidationError(f"{name} must be a +-1 indicator field")
    g = uE.grid
    counts = np.rint(0.5 * (g.num_cells - g.irfft(uE.spectrum * np.conj(uF.spectrum))))
    shift_idx = np.unravel_index(np.argmin(counts), counts.shape)
    shift = tuple(int(i) * s for i, s in zip(shift_idx, g.spacing))
    return float(counts[shift_idx]) * g.cell_volume, shift


def graph_alpha(gp: GraphPerturbation) -> float:
    """min over translations x of |F triangle (x + E)|, F = gp and E its lamella.

    E is invariant under lateral shifts and vertical shifts by 1/k, so alpha =
    min_tau sum_i int |psi_i - tau| dx, attained at a median tau of all rows'
    heights, on GRAPH_NODES lateral nodes (psi's own if more) and no grid.
    """
    psi = periodic_samples(gp.psi, max(GRAPH_NODES, gp.psi.shape[1]))
    return float(np.abs(psi - np.median(psi)).mean(axis=1).sum())


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
    """Uniform-parameter sampling of each boundary component (n_points each).

    A component is (points, normals, curvature, speeds); its arc-length
    weights are speeds / n_points.
    """
    _check_count("n_points", n_points, 64)
    if shape.dim != 2:
        raise ValidationError("boundary meshes are 2D only")
    t = np.arange(n_points) / n_points
    # a lamella's interfaces are graphs over axis 0: points (t, height)
    if isinstance(shape, Lamella):
        pos, sgn = shape.interfaces()
        parts = [(np.stack([t, np.full_like(t, s0)], axis=1),
                  np.stack([np.zeros_like(t), np.full_like(t, sg)], axis=1),
                  np.zeros(n_points), np.ones(n_points)) for s0, sg in zip(pos, sgn)]
    elif isinstance(shape, Droplet):
        th = 2.0 * np.pi * t
        r = shape.radius
        nrm = np.stack([np.cos(th), np.sin(th)], axis=1)
        parts = [((np.asarray(shape.center) + r * nrm) % 1.0, nrm,
                  np.full(n_points, 1.0 / r), np.full(n_points, 2.0 * np.pi * r))]
    elif isinstance(shape, GraphPerturbation):
        pos, sgn = shape.base.interfaces()
        psi, dpsi, d2psi = (periodic_samples(shape.psi, n_points, d) for d in range(3))
        root = np.sqrt(1.0 + dpsi**2)
        # H = div_tau(nu) = -sg * h'' / (1 + h'^2)^{3/2} for the outward
        # normal (checks out against +1/r on a circle)
        kap = -sgn[:, None] * d2psi / root**3
        parts = [(np.stack([t, (s0 + psi[j]) % 1.0], axis=1),
                  np.stack([-dpsi[j], np.ones(n_points)], axis=1) * (sg / root[j])[:, None],
                  kap[j], root[j]) for j, (s0, sg) in enumerate(zip(pos, sgn))]
    else:
        raise ValidationError(f"no boundary mesh for {type(shape)}")
    points, normals, curvature, speeds = (np.concatenate(c) for c in zip(*parts))
    return BoundaryMesh(points, normals, curvature, speeds / n_points,
                        [(i * n_points, (i + 1) * n_points) for i in range(len(parts))],
                        speeds, shape)


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

    def on_mesh(self, mesh: BoundaryMesh) -> np.ndarray:
        return self.v(mesh.points[:, -1])

    def dnv_on_mesh(self, mesh: BoundaryMesh) -> float:
        """Outward normal derivative of v on the mesh: the same at every node."""
        return self.shape.dnv

    def dirichlet_energy(self) -> float:
        """Exact int v'^2 over the circle.  v(x) = v_1(kx) / k^2, with v_1 the
        one-strip potential, whose two interfaces 0 and a give the sum 8 Q(a);
        the sum over all 2k interfaces would cancel to O(k^3) ulps."""
        return (self.shape.a * (1.0 - self.shape.a)) ** 2 / 3.0 / self.shape.k**2


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
