"""Periodic spectral infrastructure on the unit flat torus.

Grids, scalar fields, the mean-zero Poisson solver for -Lap v = f, Dirichlet
energies via Parseval, closed-form screened Green kernels on the circle, and
the two-dimensional torus Green function.

Conventions: the torus is [0,1)^d with unit volume; samples live at cell
centers x_j = (j + 1/2) h.  Fields are transformed to the rfftn half
spectrum (last axis: wavenumbers 0..n/2).  Only TorusGrid knows this layout:
rfft/irfft, parseval (full-spectrum sums) and ksq, the |xi|^2 built once per
grid and returned read-only.  The zero Fourier mode of every Poisson
solution is forced to exactly 0 (mean-zero potentials).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import MIN_GRID_SIZE, TOLERANCES, NumericalError, ValidationError


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on T^dim, unit total volume."""

    dim: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.sizes) != self.dim:
            raise ValidationError("sizes must have one entry per axis")
        for n in self.sizes:
            if n < MIN_GRID_SIZE:
                raise ValidationError(
                    f"grid size {n} under-resolved (minimum {MIN_GRID_SIZE})")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.sizes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.sizes))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.sizes[axis]
        return (np.arange(n) + 0.5) / n

    def coords(self) -> list[np.ndarray]:
        """Meshgrid ('ij') of cell-center coordinates."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def half_wavenumbers(self) -> list[np.ndarray]:
        """Integer wavenumbers on the rfftn half spectrum, sparse 'ij' grids."""
        ks = [np.fft.fftfreq(n, d=1.0 / n) for n in self.sizes[:-1]]
        ks.append(np.fft.rfftfreq(self.sizes[-1], d=1.0 / self.sizes[-1]))
        return np.meshgrid(*ks, indexing="ij", sparse=True)

    @functools.lru_cache
    def ksq(self) -> np.ndarray:
        """|xi|^2 on the rfftn half spectrum (integer wavenumbers), read-only."""
        out = sum(k * k for k in self.half_wavenumbers())
        out.flags.writeable = False
        return out

    @functools.lru_cache
    def inverse_laplacian(self) -> np.ndarray:
        """1/(4 pi^2 |xi|^2) with 0 at the zero mode (mean-zero potentials), read-only."""
        ksq = self.ksq()
        out = np.divide(1.0, 4.0 * np.pi**2 * ksq, out=np.zeros_like(ksq), where=ksq > 0)
        out.flags.writeable = False
        return out

    def rfft(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of real grid values."""
        return np.fft.rfftn(values)

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        """Real grid values of a half spectrum."""
        return np.fft.irfftn(spec, s=self.sizes, axes=tuple(range(self.dim)))

    def parseval(self, density: np.ndarray) -> float:
        """Full-spectrum sum / N^2 of an even density on the half spectrum; the
        last-axis columns 1..(n-1)//2 stand for their conjugates too (count twice)."""
        twice = density[..., 1:(self.sizes[-1] + 1) // 2]
        return float(density.sum() + twice.sum()) / self.num_cells**2


@dataclass(frozen=True)
class ScalarField:
    """Real scalar field sampled at the cell centers of a TorusGrid.

    The field owns its values: the constructor copies the caller's array, so
    no view the caller kept can change them behind a cached spectrum.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, grid: TorusGrid, values: np.ndarray) -> "ScalarField":
        """Field over a float array okstab has just allocated, without a copy."""
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        f._own(values)
        return f

    def _own(self, values: np.ndarray):
        object.__setattr__(self, "values", values)
        if self.values.shape != self.grid.sizes:
            raise ValidationError(
                f"value shape {self.values.shape} does not match grid {self.grid.sizes}")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("field contains non-finite values")

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """rfftn half spectrum, computed once; values and spectrum are then read-only."""
        self.values.flags.writeable = False
        out = self.grid.rfft(self.values)
        out.flags.writeable = False
        return out

    def mean(self) -> float:
        return float(self.values.mean())

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values)


def make_grid(dim: int, sizes) -> TorusGrid:
    """Build a periodic grid; rejects under-resolved axes."""
    return TorusGrid(dim, tuple(int(n) for n in sizes))


def _check_mean_zero(f: ScalarField):
    scale = max(1.0, float(np.abs(f.values).max()))
    if abs(f.mean()) > TOLERANCES.mean_zero * scale:
        raise ValidationError(
            f"source must be mean-zero (mean = {f.mean():.3e}); subtract the mean first")


def solve_poisson_periodic(f: ScalarField) -> ScalarField:
    """Solve -Lap v = f on the torus with mean(v) = 0.

    Fourier coefficients are divided by 4 pi^2 |xi|^2; the zero mode is set
    to exactly 0.  The source must be mean-zero.
    """
    _check_mean_zero(f)
    g = f.grid
    return ScalarField._adopt(g, g.irfft(g.rfft(f.values) * g.inverse_laplacian()))


def laplacian(v: ScalarField) -> ScalarField:
    """Spectral Laplacian; used for residual checks."""
    g = v.grid
    return ScalarField._adopt(g, g.irfft(-4.0 * np.pi**2 * g.ksq() * g.rfft(v.values)))


def spectral_gradient(v: ScalarField):
    """Spectral gradient components, yielded one at a time; an even axis's
    Nyquist mode is dropped."""
    g = v.grid
    vh = g.rfft(v.values)
    for n, k in zip(g.sizes, g.half_wavenumbers()):
        k = np.where(2 * np.abs(k) == n, 0.0, k)
        yield ScalarField._adopt(g, g.irfft(2j * np.pi * k * vh))


def dirichlet_energy(v: ScalarField) -> float:
    """int |grad v|^2 by the Parseval sum sum 4 pi^2 |xi|^2 |vhat|^2."""
    g = v.grid
    return g.parseval(4.0 * np.pi**2 * g.ksq() * np.abs(g.rfft(v.values)) ** 2)


def trig_interpolate(v: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a field at arbitrary points.

    points: array (npts, dim) (or (npts,) in 1D).  Accounts for the
    half-cell offset of cell-center sampling.  The -n/2 coefficient of an
    even axis is split evenly between -n/2 and +n/2, so the Nyquist mode is
    the cosine through the samples on every axis and at every corner.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if v.grid.dim == 1 and pts.shape[1] != 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != v.grid.dim:
        raise ValidationError("point dimension does not match grid")
    coef = np.fft.fftn(v.values) / v.grid.num_cells
    # shift coefficients so that modes are e^{2 pi i n x} in physical coordinates
    operands = []
    for axis, n in enumerate(v.grid.sizes):
        k = np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            coef = np.take(coef, np.append(np.arange(n), n // 2), axis=axis)
            k = np.append(k, n // 2)
        shift = np.exp(-2j * np.pi * k * (0.5 * v.grid.spacing[axis]))
        shape = [1] * v.grid.dim
        shape[axis] = len(k)
        coef *= (np.where(2 * np.abs(k) == n, 0.5, 1.0) * shift).reshape(shape)
        operands += [np.exp(2j * np.pi * np.outer(pts[:, axis], k)), [v.grid.dim, axis]]
    operands[2:2] = [coef, list(range(v.grid.dim))]   # e_0, coef, e_1, ...
    return np.real(np.einsum(*operands, [v.grid.dim]))


# ---------------------------------------------------------------------------
# screened Green kernels on the unit circle
# ---------------------------------------------------------------------------

def circle_distance(s) -> np.ndarray:
    """Distance on the unit circle, folded to [0, 1/2]."""
    s = np.abs(np.asarray(s, dtype=float)) % 1.0
    return np.minimum(s, 1.0 - s)


def green_kernel_screened(q: int, s):
    """1D circle Green kernel of the laterally Fourier-transformed torus Laplacian.

    q = 0: mean-zero kernel of -d^2/ds^2, g0(s) = s^2/2 - s/2 + 1/12.
    q >= 1: kernel of -d^2/ds^2 + (2 pi q)^2,
            g(s) = cosh(lam (1/2 - d)) / (2 lam sinh(lam/2)), lam = 2 pi q.
    """
    if q < 0:
        raise ValidationError("q must be nonnegative")
    scalar = np.isscalar(s)
    sa = np.abs(np.asarray(s, dtype=float)) % 1.0
    if q == 0:
        out = 0.5 * sa * sa - 0.5 * sa + 1.0 / 12.0
    else:
        d = np.minimum(sa, 1.0 - sa)
        lam = 2.0 * np.pi * q
        out = np.cosh(lam * (0.5 - d)) / (2.0 * lam * np.sinh(0.5 * lam))
    return float(out) if scalar else out


def _screened_remainder(q, s):
    """g_q(s) minus its free-space part e^{-lam d}/(2 lam); decays like e^{-pi q}."""
    d = circle_distance(s)
    lam = 2.0 * np.pi * np.asarray(q, dtype=float)
    return (np.exp(-lam * (0.5 - d)) + np.exp(-lam * (0.5 + d))) / (
        4.0 * lam * np.sinh(0.5 * lam))


def _green2d_qmax(tol: float) -> int:
    # remainder terms are bounded by e^{-pi q}/(pi q); solve for the tail bound
    q = 8
    while math.exp(-math.pi * q) / (math.pi * q) > 0.1 * tol and q < 200:
        q += 1
    return q


def green_function_2d(x, y, tol: float = TOLERANCES.kernel_tail):
    """Torus Green function G(x, y) on T^2 (mean-zero normalization).

    Split into the explicitly summed log-singular part and a rapidly
    converging lateral-mode remainder built from the screened kernels.
    Supports broadcasting: x, y arrays of shape (..., 2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("x and y must be finite coordinates")
    d1 = x[..., 0] - y[..., 0]
    d2 = x[..., 1] - y[..., 1]
    s = circle_distance(d2)
    th = 2.0 * np.pi * d1
    arg = 1.0 - 2.0 * np.exp(-2.0 * np.pi * s) * np.cos(th) + np.exp(-4.0 * np.pi * s)
    if not np.all(arg > 0):
        raise ValidationError("Green function evaluated at coincident points")
    val = green_kernel_screened(0, d2) - np.log(arg) / (4.0 * np.pi)
    q = np.arange(1, _green2d_qmax(tol) + 1)
    rq = _screened_remainder(q, s[..., None])
    return val + np.sum(2.0 * np.cos(2.0 * np.pi * q * d1[..., None]) * rq, axis=-1)


def green2d_self_regularized(tol: float = TOLERANCES.kernel_tail) -> float:
    """lim_{y->x} [G(x,y) + log|x-y|/(2 pi)]; constant by translation invariance."""
    qmax = _green2d_qmax(tol)
    q = np.arange(1, qmax + 1)
    return float(1.0 / 12.0 - np.log(2.0 * np.pi) / (2.0 * np.pi)
                 + np.sum(2.0 * _screened_remainder(q, 0.0)))


# ---------------------------------------------------------------------------
# field snapshot format
# ---------------------------------------------------------------------------

def save_field(f: ScalarField, path: str):
    """Write 'okfield v1' snapshot: text header + row-major little-endian f64."""
    header = "okfield v1 dim=%d sizes=%s\n" % (
        f.grid.dim, ",".join(str(n) for n in f.grid.sizes))
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path: str) -> ScalarField:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "okfield" or parts[1] != "v1":
            raise ValidationError(f"bad snapshot header: {header!r}")
        dim = int(parts[2].split("=")[1])
        sizes = tuple(int(s) for s in parts[3].split("=")[1].split(","))
        grid = make_grid(dim, sizes)
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(sizes)
    return ScalarField(grid, data)
