"""Periodic spectral infrastructure on the unit flat torus.

Grids, scalar fields, the mean-zero Poisson solver for -Lap v = f, Dirichlet
energies via Parseval, closed-form screened Green kernels on the circle, and
the two-dimensional torus Green function as a series in the minimum image.

Conventions: the torus is [0,1)^d with unit volume; samples live at cell
centers x_j = (j + 1/2) h.  Fields are transformed to the rfftn half
spectrum (last axis: wavenumbers 0..n/2), the only layout of a grid field,
whose one forward transform is its cached ScalarField.spectrum.  Only
TorusGrid knows this layout: rfft/irfft, parseval (full-spectrum sums) and
ksq, the |xi|^2 built once per grid and returned read-only.  The zero
Fourier mode of every Poisson solution is forced to exactly 0 (mean-zero
potentials).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import MIN_GRID_SIZE, TOLERANCES, NumericalError, ValidationError


def _wavenumbers(n: int, half: bool = False) -> np.ndarray:
    """Integer wavenumbers in FFT order (0..n//2 if half); fftfreq is ulps off."""
    k = np.arange(n // 2 + 1) if half else (np.arange(n) + n // 2) % n - n // 2
    return k.astype(float)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on T^dim, unit total volume, its sizes kept as int tuples."""

    dim: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim in (1, 2, 3)):
            raise ValidationError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        for n in self.sizes:     # int() would truncate 64.5 to 64
            if not isinstance(n, (int, np.integer)):
                raise ValidationError(f"sizes must be integers, got {tuple(self.sizes)!r}")
            if n < MIN_GRID_SIZE:
                raise ValidationError(f"grid size {n} under-resolved (minimum {MIN_GRID_SIZE})")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        if len(self.sizes) != self.dim:
            raise ValidationError("sizes must have one entry per axis")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(1.0 / n for n in self.sizes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def num_cells(self) -> int:
        return math.prod(self.sizes)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        n = self.sizes[axis]
        return (np.arange(n) + 0.5) / n

    def half_wavenumbers(self) -> list[np.ndarray]:
        """Integer wavenumbers on the rfftn half spectrum, sparse 'ij' grids."""
        ks = [_wavenumbers(n) for n in self.sizes[:-1]]
        ks.append(_wavenumbers(self.sizes[-1], half=True))
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
        """Half spectrum of real grid values, into one preallocated buffer."""
        half = self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)
        return np.fft.rfftn(values, out=np.empty(half, dtype=complex))

    def irfft(self, spec: np.ndarray) -> np.ndarray:
        """Real grid values of a half spectrum."""
        return np.fft.irfftn(spec, s=self.sizes, axes=tuple(range(self.dim)))

    def parseval(self, symbol: np.ndarray, spec: np.ndarray) -> float:
        """Full-spectrum sum of symbol (re^2 + im^2) / N^2 of a half spectrum,
        symbol even: every last-axis column stands for its conjugate too, bar
        the zero and (even n) the Nyquist column, which count half as much.
        Scaled by 1/N^2 before the sum, so a finite sum does not overflow."""
        power = np.square(spec.real)
        power += np.square(spec.imag)
        power *= 2.0 / self.num_cells**2
        power[..., 0] *= 0.5
        if self.sizes[-1] % 2 == 0:
            power[..., -1] *= 0.5
        return float(np.vdot(symbol, power))


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

    @classmethod
    def _from_spectrum(cls, grid: TorusGrid, spec: np.ndarray) -> "ScalarField":
        """Field of values irfft(spec); spec, an array okstab owns, is its spectrum."""
        f = cls._adopt(grid, grid.irfft(spec))
        f.values.flags.writeable = spec.flags.writeable = False
        vars(f)["spectrum"] = spec
        return f

    def _own(self, values: np.ndarray):
        object.__setattr__(self, "values", values)
        if self.values.shape != self.grid.sizes:
            raise ValidationError(
                f"value shape {self.values.shape} does not match grid {self.grid.sizes}")
        if not np.isfinite(self.values).all():
            raise ValidationError("field contains non-finite values")

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """rfftn half spectrum, computed once; values and spectrum are then read-only.
        A field built from a spectrum keeps it: rfftn(values) matches to round-off."""
        self.values.flags.writeable = False
        out = self.grid.rfft(self.values)
        out.flags.writeable = False
        return out

    def mean(self) -> float:
        return float(self.values.mean())

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values)


def _check_count(name: str, value, low: int):
    """Reject a count that is not an integer >= low, naming it."""
    if not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def make_grid(dim: int, sizes) -> TorusGrid:
    """Build a periodic grid: TorusGrid(dim, sizes)."""
    return TorusGrid(dim, sizes)


def solve_poisson_periodic(f: ScalarField) -> ScalarField:
    """Solve -Lap v = f on the torus with mean(v) = 0.

    Fourier coefficients are divided by 4 pi^2 |xi|^2; the zero mode is set
    to exactly 0.  The source must be mean-zero.  A source whose sum or
    transform overflows is a NumericalError that names its size.
    """
    g, peak = f.grid, float(np.abs(f.values).max())
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow is named below
        mean, spec = f.mean(), f.spectrum
    if not (np.isfinite(mean) and np.isfinite(spec).all()):
        raise NumericalError(f"source of max |f| = {peak:.3e} overflows its sum or transform;"
                             " v is linear in f, so solve for f scaled down and scale v up")
    if abs(mean) > TOLERANCES.mean_zero * max(1.0, peak):
        raise ValidationError(
            f"source must be mean-zero (mean = {mean:.3e}); subtract the mean first")
    return ScalarField._from_spectrum(g, spec * g.inverse_laplacian())


def dirichlet_energy(v: ScalarField) -> float:
    """int |grad v|^2 by the Parseval sum sum 4 pi^2 |xi|^2 |vhat|^2."""
    g = v.grid
    return g.parseval(4.0 * np.pi**2 * g.ksq(), v.spectrum)


def trig_interpolate(v: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a field at arbitrary points.

    points: array (npts, dim) (or (npts,) in 1D).  Accounts for the
    half-cell offset of cell-center sampling.  The -n/2 coefficient of an
    even axis is split evenly between -n/2 and +n/2, so the Nyquist mode is
    the cosine through the samples on every axis and at every corner.  The
    coefficients come from the field's cached spectrum (see ScalarField).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if v.grid.dim == 1 and pts.shape[1] != 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != v.grid.dim:
        raise ValidationError("point dimension does not match grid")
    # last-axis columns n//2 + 1 .. n - 1 from c[k] = conj(c[-k]), -k by index
    spec, n = v.spectrum, v.grid.sizes[-1]
    flip = np.ix_(*[-np.arange(m) % m for m in v.grid.sizes[:-1]])
    coef = np.concatenate([spec, np.conj(spec[..., (n + 1) // 2 - 1:0:-1])[flip]], axis=-1)
    coef /= v.grid.num_cells
    # shift coefficients so that modes are e^{2 pi i n x} in physical coordinates
    operands = []
    for axis, n in enumerate(v.grid.sizes):
        k = _wavenumbers(n)
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
# screened Green kernels on the unit circle, the torus Green function on T^2
# ---------------------------------------------------------------------------

def green_kernel_screened(q: int, s):
    """1D circle Green kernel of the laterally Fourier-transformed torus Laplacian.

    q = 0: mean-zero kernel of -d^2/ds^2, g0(s) = s^2/2 - s/2 + 1/12.
    q >= 1: kernel of -d^2/ds^2 + (2 pi q)^2, lam = 2 pi q, d = dist(s, Z),
            g(s) = cosh(lam (1/2 - d)) / (2 lam sinh(lam/2)), evaluated as
            (e^{-lam d} + e^{-lam (1-d)}) / (2 lam (1 - e^{-lam})), which
            cannot overflow (the cosh form is inf/inf from q = 227).
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
        out = (np.exp(-lam * d) + np.exp(-lam * (1.0 - d))) / (-2.0 * lam * np.expm1(-lam))
    return float(out) if scalar else out


def _square_lattice_eisenstein(jmax: int) -> list[float]:
    """G_4j = sum' w^-4j over the nonzero Gaussian integers, j = 1..jmax (the
    other G_2k vanish), by the Weierstrass recursion with g3 = 0 (DLMF 23.9.7):
    b_2 = 3 G_4, b_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} b_m b_{k-m}, G_2k = b_k/(2k-1)."""
    # G_4 = Gamma(1/4)^8/(960 pi^2) rounded; math.gamma(0.25)**8 is 9e-16 off
    b = [0.0, 0.0, 3.0 * 3.1512120021538976, 0.0]
    for k in range(4, 2 * jmax + 1):
        b.append(3.0 / ((2 * k + 1) * (k - 3))
                 * sum(b[m] * b[k - m] for m in range(2, k - 1)))
    return [b[2 * j] / (4 * j - 1) for j in range(1, jmax + 1)]


# G_4j -> 4, so for |z| <= sqrt(2)/2 the term c_j z^4j is about 4^-j/(2 pi j):
# the series stops at the first j where that is under 1e-18
_GREEN2D_TERMS = next(j for j in range(1, 100) if 4.0**-j / (2.0 * math.pi * j) < 1e-18)
# c_j = G_4j/(8 pi j), highest first for Horner's rule
_GREEN2D_SERIES = [g / (8.0 * math.pi * j) for j, g in
                   enumerate(_square_lattice_eisenstein(_GREEN2D_TERMS), 1)][::-1]
# H0 = -log(2 pi eta(i)^2)/(2 pi), with eta(i) = Gamma(1/4)/(2 pi^{3/4})
_GREEN2D_H0 = -math.log(2.0 * math.pi * (math.gamma(0.25) / (2.0 * math.pi**0.75)) ** 2
                        ) / (2.0 * math.pi)


def green_function_2d(x, y):
    """Torus Green function G(x, y) on T^2: -Lap G = delta - 1, mean zero.

    On the minimum image z of x - y, G = -log|z|^2/(4 pi) + |z|^2/4 + H0 +
    Re sum_j c_j z^4j: c_j = G_4j/(8 pi j) from log sigma(z) = log z -
    sum_k G_2k z^2k/(2k) of the square lattice, so nothing cancels near the
    diagonal.  Supports broadcasting: x, y arrays of shape (..., 2).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("x and y must be finite coordinates")
    d = (x - np.trunc(x)) - (y - np.trunc(y))   # exact fmod 1 first: x - y may overflow
    d -= np.round(d)                        # |z| <= sqrt(2)/2
    r2 = d[..., 0] ** 2 + d[..., 1] ** 2
    if not np.all(r2 > 0):     # |z|^2 underflows to 0 for |z| under 1.6e-162
        raise ValidationError("Green function evaluated at coincident points (mod 1)")
    w = np.square(d[..., 0] + 1j * d[..., 1])
    w *= w                                  # z^4
    series = np.zeros_like(w)
    for c in _GREEN2D_SERIES:
        series += c
        series *= w
    return -np.log(r2) / (4.0 * np.pi) + 0.25 * r2 + _GREEN2D_H0 + series.real


def green2d_self_regularized() -> float:
    """lim_{y->x} [G(x,y) + log|x-y|/(2 pi)] = H0; constant by translation invariance."""
    return _GREEN2D_H0
