"""Independent oracles and helpers shared by the test modules."""

import collections
import math
import tracemalloc

import numpy as np

from okstab.shapes import GraphPerturbation, Lamella, LamellaPotential, rasterize
from okstab.stability import _bloch_blocks
from okstab.torus import (ScalarField, green_kernel_screened, make_grid,
                          solve_poisson_periodic)

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def traced_peak(call):
    """tracemalloc peak in bytes of a second call (the first warms the caches)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_transforms(call) -> dict:
    """{name: calls} of every np.fft entry point that one call makes."""
    calls = collections.Counter()
    saved = {name: getattr(np.fft, name) for name in FFT_ENTRY_POINTS}

    def counted(name, fn):
        return lambda *a, **kw: calls.update([name]) or fn(*a, **kw)
    try:
        for name, fn in saved.items():
            setattr(np.fft, name, counted(name, fn))
        call()
    finally:
        for name, fn in saved.items():
            setattr(np.fft, name, fn)
    return dict(calls)


def _fft_wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers in full-FFT order, 0..n/2-1 then -n/2..-1."""
    return ((np.arange(n) + n // 2) % n - n // 2).astype(float)


def log_quadrature_per_pair(n: int) -> np.ndarray:
    """Trig-exact product quadrature of the periodic log kernel
    -(1/2pi) log(2|sin pi(t - s)|) on n uniform nodes, per speed product:
    Q_ij = (1/n^2) sum_nu w_nu cos(2 pi nu (t_i - t_j)) / (2 pi nu) over
    nu = 1..n/2 (the kernel's Fourier coefficients 1/(4 pi |nu|), an even
    n's Nyquist term halved), summed for every node pair on its own."""
    t = np.arange(n) / n
    q = np.zeros((n, n))
    for nu in range(1, n // 2 + 1):
        w = 0.5 if 2 * nu == n else 1.0
        q += w / (2.0 * np.pi * nu) * np.cos(2.0 * np.pi * nu * (t[:, None] - t[None, :]))
    return q / n**2


def reference_flow(u: np.ndarray, eps: float, gamma0: float, dt: float, steps: int):
    """The stabilized semi-implicit flow as the step was first written, on the
    values alone: each step assembles the explicit spectrum nh = rfftn((4/eps)
    u(u^2-1)) + 2 gamma0 L^-1 uhat with its zero mode set to 0, takes the
    candidate (uhat (1 + dt S) - dt nh) / (1 + dt (lam + S)), and prices it
    by a Parseval sum with the zero and (even n) Nyquist columns halved; dt
    halves on a rise beyond 1e-12, S = 8 max|3u^2 - 1|/eps is refreshed every
    100 steps.  Returns (u, energies, rejections)."""
    shape, axes = u.shape, tuple(range(u.ndim))
    ks = [_fft_wavenumbers(n) for n in shape[:-1]]
    ks.append(np.arange(shape[-1] // 2 + 1, dtype=float))
    ksq = sum(k * k for k in np.meshgrid(*ks, indexing="ij", sparse=True))
    inv = np.divide(1.0, 4.0 * np.pi**2 * ksq, out=np.zeros_like(ksq), where=ksq > 0)
    quad = eps * 4.0 * np.pi**2 * ksq + gamma0 * inv
    lam = 2.0 * eps * 4.0 * np.pi**2 * ksq

    def energy(v, vh):
        power = vh.real**2 + vh.imag**2
        power[..., 0] /= 2.0
        if shape[-1] % 2 == 0:
            power[..., -1] /= 2.0
        return (2.0 * float(np.vdot(quad, power)) / v.size**2
                + float(((v**2 - 1.0) ** 2).mean()) / eps)

    uh = np.fft.rfftn(u)
    energies, S, rejections = [energy(u, uh)], 0.0, 0
    for step in range(steps):
        if step % 100 == 0:
            S = 8.0 * float(np.abs(3.0 * u**2 - 1.0).max()) / eps
        nh = np.fft.rfftn((4.0 / eps) * u * (u**2 - 1.0)) + 2.0 * gamma0 * inv * uh
        nh[(0,) * u.ndim] = 0.0
        for _ in range(40):
            spec = (uh * (1.0 + dt * S) - dt * nh) / (1.0 + dt * (lam + S))
            cand = np.fft.irfftn(spec, s=shape, axes=axes)
            e1 = energy(cand, spec)
            if e1 <= energies[-1] * (1.0 + 1e-12) + 1e-12:
                break
            dt *= 0.5
            rejections += 1
        else:
            raise AssertionError("reference step rejected 40 times")
        u, uh = cand, spec
        energies.append(e1)
    return u, energies, rejections


def trig_interpolate_full(v: ScalarField, points: np.ndarray) -> np.ndarray:
    """Trigonometric interpolant of a field's values at points (npts, dim) from
    the full complex fftn of the values; the -n/2 coefficient of an even axis
    is split evenly between -n/2 and +n/2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dim = v.grid.dim
    if dim == 1 and pts.shape[1] != 1:
        pts = pts.reshape(-1, 1)
    coef = np.fft.fftn(v.values) / v.grid.num_cells
    operands = []
    for axis, n in enumerate(v.grid.sizes):
        k = _fft_wavenumbers(n)
        if n % 2 == 0:
            coef = np.take(coef, np.append(np.arange(n), n // 2), axis=axis)
            k = np.append(k, n // 2)
        shift = np.exp(-2j * np.pi * k * (0.5 / n))   # cell-centre offset
        shape = [1] * dim
        shape[axis] = len(k)
        coef *= (np.where(2 * np.abs(k) == n, 0.5, 1.0) * shift).reshape(shape)
        operands += [np.exp(2j * np.pi * np.outer(pts[:, axis], k)), [dim, axis]]
    operands[2:2] = [coef, list(range(dim))]   # e_0, coef, e_1, ...
    return np.real(np.einsum(*operands, [dim]))


def spectral_gradient(v: ScalarField) -> list[np.ndarray]:
    """Gradient components of a field's values by rfftn of the values; an
    even axis's Nyquist mode is dropped."""
    sizes = v.grid.sizes
    vh = np.fft.rfftn(v.values)
    ks = [_fft_wavenumbers(n) for n in sizes[:-1]]
    ks.append(np.arange(sizes[-1] // 2 + 1, dtype=float))
    out = []
    for n, k in zip(sizes, np.meshgrid(*ks, indexing="ij", sparse=True)):
        k = np.where(2 * np.abs(k) == n, 0.0, k)
        out.append(np.fft.irfftn(2j * np.pi * k * vh, s=sizes, axes=range(len(sizes))))
    return out


def grid_potential_chain(shape, grid, mesh) -> tuple[np.ndarray, np.ndarray]:
    """(v, d_nu v) at a mesh's nodes for the shape's indicator rasterized on
    grid: the mean-subtracted Poisson solve, the gradient of the solution's
    values by spectral_gradient, and trig_interpolate_full of each."""
    u = rasterize(shape, grid)
    v = solve_poisson_periodic(ScalarField(grid, u.values - u.mean()))
    dnv = sum(trig_interpolate_full(ScalarField(grid, c), mesh.points) * nu
              for c, nu in zip(spectral_gradient(v), mesh.normals.T))
    return trig_interpolate_full(v, mesh.points), dnv


def interface_normal_derivative(pot: LamellaPotential) -> np.ndarray:
    """Outward normal derivative of a lamella potential at each interface."""
    pos, sgn = pot.shape.interfaces()
    return sgn * pot.dv(pos)


def translation_form_value(form, axis: int = 1) -> float:
    """Form evaluated on the translation trace nu . e_axis, relative to the
    form's scale on that vector."""
    phi = form.mesh.normals[:, axis]
    return form.value(phi) / max(float(phi @ (form.weights * phi)), 1e-30)


def grid_coords(grid) -> list[np.ndarray]:
    """Meshgrid ('ij') of the cell-centre coordinates (j + 1/2)/n of a grid."""
    return np.meshgrid(*[(np.arange(n) + 0.5) / n for n in grid.sizes], indexing="ij")


def laplacian(v: ScalarField) -> np.ndarray:
    """Spectral Laplacian of a field's values on the full complex spectrum."""
    ks = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in v.grid.sizes],
                     indexing="ij", sparse=True)
    ksq = sum(k * k for k in ks)
    return np.fft.ifftn(-4.0 * np.pi**2 * ksq * np.fft.fftn(v.values)).real


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


def resample_periodic(rows: np.ndarray, n: int) -> np.ndarray:
    """Trigonometric interpolant of periodic rows (node samples at j/n0)
    evaluated at the n >= n0 nodes j/n.  For n > n0 the half spectrum is
    zero-padded, with the Nyquist cosine of an even n0 split in two."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n0 = rows.shape[1]
    if n == n0:
        return rows.copy()
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


def graph_perimeter_resampled(gp: GraphPerturbation) -> float:
    """Perimeter of a graph perturbation with psi resampled to 2048 nodes and
    differentiated there (two rfft/irfft pairs)."""
    dpsi = periodic_derivative(resample_periodic(gp.psi, 2048))
    return float(np.mean(np.sqrt(1.0 + dpsi**2), axis=1).sum())


def circle_distance(s) -> np.ndarray:
    """Distance on the unit circle, folded to [0, 1/2]."""
    s = np.abs(np.asarray(s, dtype=float)) % 1.0
    return np.minimum(s, 1.0 - s)


def _screened_remainder(q, s):
    """g_q(s) minus its free-space part e^{-lam d}/(2 lam); decays like e^{-pi q}."""
    d = circle_distance(s)
    lam = 2.0 * np.pi * np.asarray(q, dtype=float)
    return (np.exp(-lam * (0.5 - d)) + np.exp(-lam * (0.5 + d))) / (
        4.0 * lam * np.sinh(0.5 * lam))


# lateral modes of the screened remainder; the dropped terms are below
# e^{-13 pi}/(13 pi), about 5e-20
_SCREENED_Q = np.arange(1, 13)


def green2d_screened(x, y):
    """Torus Green function on T^2 by lateral modes: the mean-zero kernel g0
    of the vertical offset, the image sum of the log in closed form, and the
    screened remainders of the lateral modes q = 1..12.  Loses digits near
    the diagonal, where the log's argument 1 - 2 e^{-2 pi s} cos(2 pi d1) +
    e^{-4 pi s} cancels."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d1 = x[..., 0] - y[..., 0]
    d2 = x[..., 1] - y[..., 1]
    s = circle_distance(d2)
    arg = (1.0 - 2.0 * np.exp(-2.0 * np.pi * s) * np.cos(2.0 * np.pi * d1)
           + np.exp(-4.0 * np.pi * s))
    rq = _screened_remainder(_SCREENED_Q, s[..., None])
    return (green_kernel_screened(0, d2) - np.log(arg) / (4.0 * np.pi)
            + np.sum(2.0 * np.cos(2.0 * np.pi * _SCREENED_Q * d1[..., None]) * rq,
                     axis=-1))


def green2d_screened_self_regularized() -> float:
    """lim_{y->x} [G(x,y) + log|x-y|/(2 pi)] from the same lateral modes."""
    return float(1.0 / 12.0 - np.log(2.0 * np.pi) / (2.0 * np.pi)
                 + np.sum(2.0 * _screened_remainder(_SCREENED_Q, 0.0)))


def gamma_c_mode_scan(m: float, k: int):
    """gamma_c(m, k) as the minimum over lateral modes q >= 1 of
    4 pi^2 q^2 / -mu(q), mu(q) = 8 min_p (alpha_p - |beta_p|) + 4 dnv the
    lowest eigenvalue of A(q) from its Bloch blocks.  The scan stops once
    the Gershgorin bound -16 k g_{q+1}(0) + 4 dnv on every later mode's
    eigenvalues puts that mode's threshold above the best.  Returns
    (gamma_c, q, Bloch index p) of the first mode to turn unstable."""
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    a, dnv = shape.a, shape.dnv
    best, q = (math.inf, None, None), 1
    while True:
        alpha, beta = _bloch_blocks(k, a, q)
        low = alpha - np.abs(beta)
        p = int(np.argmin(low))
        mu = 8.0 * float(low[p]) + 4.0 * dnv
        if mu < 0 and 4.0 * np.pi**2 * q**2 / -mu < best[0]:
            best = (4.0 * np.pi**2 * q**2 / -mu, q, p)
        bound = -16.0 * k * green_kernel_screened(q + 1, 0.0) + 4.0 * dnv
        if bound >= 0 or 4.0 * np.pi**2 * (q + 1) ** 2 / -bound > best[0]:
            return best
        q += 1
