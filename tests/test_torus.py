import os
import tempfile

import numpy as np
import pytest

from okstab.torus import (ScalarField, ValidationError, dirichlet_energy,
                          green2d_self_regularized, green_function_2d,
                          green_kernel_screened, laplacian, load_field,
                          make_grid, save_field, solve_poisson_periodic,
                          spectral_gradient, trig_interpolate)


def test_grid_basics():
    g = make_grid(2, (256, 256))
    assert g.spacing == (1.0 / 256, 1.0 / 256)
    assert abs(g.cell_volume * g.num_cells - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        make_grid(2, (4, 256))
    with pytest.raises(ValidationError):
        make_grid(4, (16, 16, 16, 16))


def test_poisson_single_mode():
    g = make_grid(1, (1024,))
    x = g.axis_coords(0)
    f = ScalarField(g, np.cos(2 * np.pi * x))
    v = solve_poisson_periodic(f)
    assert np.abs(v.values - np.cos(2 * np.pi * x) / (4 * np.pi**2)).max() < 1e-14
    assert abs(v.mean()) < 1e-15


def test_poisson_zero_and_mean_guard():
    g = make_grid(2, (32, 32))
    v = solve_poisson_periodic(ScalarField(g, np.zeros(g.sizes)))
    assert np.abs(v.values).max() == 0.0
    with pytest.raises(ValidationError):
        solve_poisson_periodic(ScalarField(g, np.ones(g.sizes)))


def test_poisson_residual_random_band_limited():
    rng = np.random.default_rng(7)
    g = make_grid(2, (64, 64))
    X, Y = g.coords()
    f = np.zeros(g.sizes)
    for _ in range(12):
        kx, ky = rng.integers(-10, 11, size=2)
        if kx == 0 and ky == 0:
            continue
        f += rng.normal() * np.cos(2 * np.pi * (kx * X + ky * Y))
        f += rng.normal() * np.sin(2 * np.pi * (kx * X + ky * Y))
    fld = ScalarField(g, f - f.mean())
    v = solve_poisson_periodic(fld)
    res = laplacian(v).values + fld.values
    assert np.abs(res).max() <= 1e-10 * np.abs(fld.values).max()


def test_energy_identity_g1():
    rng = np.random.default_rng(3)
    g = make_grid(2, (64, 64))
    f = rng.standard_normal(g.sizes)
    fld = ScalarField(g, f - f.mean())
    v = solve_poisson_periodic(fld)
    e = dirichlet_energy(v)
    assert abs(e - (v.values * fld.values).mean()) <= 1e-10 * max(1.0, e)


def test_dirichlet_single_mode():
    g = make_grid(1, (256,))
    x = g.axis_coords(0)
    v = ScalarField(g, np.cos(2 * np.pi * x) / (4 * np.pi**2))
    assert abs(dirichlet_energy(v) - 1.0 / (8 * np.pi**2)) < 1e-15
    assert dirichlet_energy(ScalarField(g, np.zeros(256))) == 0.0


def test_kernel_closed_values():
    assert abs(green_kernel_screened(0, 0.0) - 1.0 / 12.0) < 1e-15
    assert abs(green_kernel_screened(0, 0.5) + 1.0 / 24.0) < 1e-15


def test_kernel_vs_spectral_sum():
    from scipy.special import polygamma
    N = 100_000
    n = np.arange(1, N + 1)
    # at s=0 the truncated sum misses sum_{n>N} 2/(4 pi^2 n^2 + lam^2);
    # to 1e-13 that tail equals (2/4pi^2) psi'(N+1) for lam <= 16 pi
    tail0 = 2.0 / (4 * np.pi**2) * float(polygamma(1, N + 1))
    for q in range(0, 9):
        lam2 = (2 * np.pi * q) ** 2
        for s in (0.0, 0.13, 0.37, 0.5):
            series = 2 * np.cos(2 * np.pi * n * s) / (4 * np.pi**2 * n**2 + lam2)
            val = series.sum()
            if s == 0.0:
                val += tail0
            if q > 0:
                val += 1.0 / lam2
            assert abs(green_kernel_screened(q, s) - val) < 1e-10, (q, s)


def test_kernel_evenness_and_period():
    s = np.linspace(0, 1, 41)
    for q in (0, 1, 4):
        gq = green_kernel_screened(q, s)
        assert np.abs(gq - green_kernel_screened(q, -s)).max() < 1e-15
        assert np.abs(gq - green_kernel_screened(q, s + 1.0)).max() < 1e-12


def test_green2d_symmetry_translation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = rng.random(2), rng.random(2)
        if np.abs(x - y).max() < 1e-3:
            continue
        gxy = green_function_2d(x, y)
        assert abs(gxy - green_function_2d(y, x)) < 1e-12
        tau = rng.random(2)
        assert abs(gxy - green_function_2d(x + tau, y + tau)) < 1e-12


def test_green2d_vs_mollified_solve():
    # convolve G with a narrow Gaussian; the smoothing bias is sigma^2/2
    # exactly because Lap G = 1 away from the singularity
    g = make_grid(2, (256, 256))
    X, Y = g.coords()
    sig = 0.02

    def wrap(d):
        d = np.abs(d) % 1.0
        return np.minimum(d, 1.0 - d)

    rho = np.exp(-(wrap(X - 0.3) ** 2 + wrap(Y - 0.7) ** 2) / (2 * sig**2))
    rho /= rho.sum() * g.cell_volume
    v = solve_poisson_periodic(ScalarField(g, rho - rho.mean()))
    got = trig_interpolate(v, np.array([[0.3, 0.2]]))[0] - sig**2 / 2.0
    want = green_function_2d(np.array([0.3, 0.2]), np.array([0.3, 0.7]))
    assert abs(got - want) <= 1e-4 * abs(want)


def test_cached_spectrum_cannot_go_stale():
    from okstab.energy import nonlocal_energy_field
    from okstab.flow import diffuse_energy
    g = make_grid(2, (16, 12))
    rng = np.random.default_rng(9)
    u = ScalarField(g, rng.standard_normal(g.sizes))
    assert u.values.flags.writeable
    e = diffuse_energy(u, 0.1, 3.0)
    with pytest.raises(ValueError, match="read-only"):
        u.values[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        u.values += 1.0
    with pytest.raises(ValueError, match="read-only"):
        u.spectrum[0, 0] = 0.0
    assert np.array_equal(u.spectrum, np.fft.rfftn(u.values))
    assert u.spectrum is u.spectrum
    assert diffuse_energy(u, 0.1, 3.0) == e
    with pytest.raises(AttributeError):
        u.values = np.zeros(g.sizes)
    w = u.copy()
    assert w.values.flags.writeable and "spectrum" not in vars(w)
    w.values[0, 0] += 1.0
    assert not np.array_equal(w.spectrum, u.spectrum)
    assert np.array_equal(w.spectrum, np.fft.rfftn(w.values))
    assert diffuse_energy(w, 0.1, 3.0) != e
    v = ScalarField(g, rng.standard_normal(g.sizes))
    nonlocal_energy_field(v)
    assert not v.values.flags.writeable


def test_field_owns_its_values():
    # a view of the caller's array, taken before the spectrum was cached,
    # must not reach the field's values
    g = make_grid(1, (16,))
    a = np.zeros(16)
    view = a[:]
    u = ScalarField(g, a)
    spec = u.spectrum.copy()
    view[0] = 1.0
    a[1] = 2.0
    assert not np.any(u.values)
    assert np.array_equal(u.spectrum, spec)
    assert np.array_equal(u.spectrum, np.fft.rfftn(u.values))


def test_green2d_coincident_rejected():
    with pytest.raises(ValidationError, match="coincident points"):
        green_function_2d(np.array([0.2, 0.2]), np.array([0.2, 0.2]))


@pytest.mark.parametrize("x, y", [
    ([np.nan, 0.2], [0.1, 0.2]), ([0.1, np.nan], [0.1, 0.2]),
    ([0.1, 0.2], [np.inf, 0.3]), ([0.1, -np.inf], [0.1, 0.2]),
    ([[0.3, 0.4], [np.nan, 0.2]], [0.1, 0.2])])
def test_green2d_rejects_non_finite_coordinates(x, y):
    with pytest.raises(ValidationError, match="^x and y must be finite"):
        green_function_2d(x, y)


def test_green2d_regularized_diagonal():
    # G(x,y) + log|x-y|/(2pi) must approach the regularized constant
    c = green2d_self_regularized()
    x = np.array([0.31, 0.62])
    for r in (1e-3, 1e-4):
        y = x + np.array([r, 0.0])
        val = green_function_2d(x, y) + np.log(r) / (2 * np.pi)
        assert abs(val - c) < 10 * r


def test_trig_interpolation_reproduces_nodes():
    rng = np.random.default_rng(5)
    g = make_grid(2, (32, 32))
    vals = rng.standard_normal(g.sizes)
    fld = ScalarField(g, vals)
    X, Y = g.coords()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    out = trig_interpolate(fld, pts).reshape(g.sizes)
    assert np.abs(out - vals).max() < 1e-10


def _cardinal(n, t):
    # periodic cardinal function of n equispaced nodes; for even n the
    # Nyquist cosine carries half weight on +-n/2 (the cosine through the samples)
    t = np.pi * t
    return np.sin(n * t) / (n * (np.sin(t) if n % 2 else np.tan(t)))


@pytest.mark.parametrize("sizes", [(9,), (12,), (12, 16), (16, 9), (15, 11),
                                   (8, 10, 12), (9, 8, 10), (12, 12, 12)],
                         ids=lambda s: "x".join(map(str, s)))
def test_trig_interpolation_matches_cardinal_functions(sizes):
    rng = np.random.default_rng(sum(sizes))
    g = make_grid(len(sizes), sizes)
    vals = rng.standard_normal(sizes)
    pts = rng.random((40, len(sizes)))
    # sum of the samples times tensor products of cardinals about the cell centres
    dim = len(sizes)
    operands = [vals, list(range(dim))]
    for axis, n in enumerate(sizes):
        operands += [_cardinal(n, pts[:, [axis]] - g.axis_coords(axis)), [dim, axis]]
    want = np.einsum(*operands, [dim])
    got = trig_interpolate(ScalarField(g, vals), pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(vals).max()


def test_snapshot_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    g = make_grid(3, (8, 16, 8))
    fld = ScalarField(g, rng.standard_normal(g.sizes))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f.okfield")
        save_field(fld, path)
        back = load_field(path)
        with open(path, "rb") as fh:
            header = fh.readline().decode()
        assert header == "okfield v1 dim=3 sizes=8,16,8\n"
    assert back.grid == g
    assert np.array_equal(back.values, fld.values)


def test_ksq_built_once_and_read_only():
    g = make_grid(2, (12, 9))
    assert g.ksq() is g.ksq()
    assert g.ksq() is make_grid(2, (12, 9)).ksq()
    assert g.ksq().shape == (12, 5)
    with pytest.raises(ValueError):
        g.ksq()[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.inverse_laplacian()[0, 0] = 1.0


def test_spectral_gradient_modes():
    # odd and even axes; the mode at the Nyquist frequency of the even axis
    # has no derivative along that axis, only along the other one
    g = make_grid(2, (16, 15))
    X, Y = g.coords()
    a1 = 2 * np.pi * (3 * X - 2 * Y)
    a2 = 2 * np.pi * (8 * X + 3 * Y)
    gx, gy = spectral_gradient(ScalarField(g, np.sin(a1) + np.sin(a2)))
    assert np.abs(gx.values - 6 * np.pi * np.cos(a1)).max() < 1e-12
    assert np.abs(gy.values + 4 * np.pi * np.cos(a1)
                  - 6 * np.pi * np.cos(a2)).max() < 1e-12
