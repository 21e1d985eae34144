import os
import tempfile

import numpy as np
import pytest

from okstab.torus import (ScalarField, ValidationError, dirichlet_energy,
                          green2d_self_regularized, green_function_2d,
                          green_kernel_screened, grid_inner, laplacian,
                          load_field, make_grid, neumann_laplacian,
                          save_field, solve_poisson_neumann,
                          solve_poisson_periodic, spectral_gradient,
                          trig_interpolate)


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
    assert abs(e - grid_inner(v, fld)) <= 1e-10 * max(1.0, e)


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


def test_green2d_coincident_rejected():
    with pytest.raises(ValidationError):
        green_function_2d(np.array([0.2, 0.2]), np.array([0.2, 0.2]))


def test_green2d_regularized_diagonal():
    # G(x,y) + log|x-y|/(2pi) must approach the regularized constant
    c = green2d_self_regularized()
    x = np.array([0.31, 0.62])
    for r in (1e-3, 1e-4):
        y = x + np.array([r, 0.0])
        val = green_function_2d(x, y) + np.log(r) / (2 * np.pi)
        assert abs(val - c) < 10 * r


def test_neumann_cosine_mode():
    g = make_grid(2, (128, 128))
    X, _ = g.coords()
    f = ScalarField(g, np.cos(np.pi * X))
    v = solve_poisson_neumann(f)
    assert np.abs(v.values - np.cos(np.pi * X) / np.pi**2).max() < 1e-12


def test_neumann_flux_and_residual():
    g = make_grid(2, (128, 128))
    X, Y = g.coords()
    # off-centre disc: its periodic extension is not even across the walls
    u = np.where((X - 0.3) ** 2 + (Y - 0.55) ** 2 <= 0.04, 1.0, -1.0)
    f = ScalarField(g, u - u.mean())
    v = solve_poisson_neumann(f)
    # the Neumann problem on the box is the periodic one for the even
    # reflection on [0, 2]^2; solved on the unit torus with twice the
    # grid, the Laplacian is rescaled by 4, so that solution is v / 4
    g2 = make_grid(2, (256, 256))
    even = np.block([[f.values, f.values[:, ::-1]],
                     [f.values[::-1, :], f.values[::-1, ::-1]]])
    w = solve_poisson_periodic(ScalarField(g2, even))
    assert np.abs(v.values - 4.0 * w.values[:128, :128]).max() < 1e-12
    assert np.abs(neumann_laplacian(v).values + f.values).max() < 1e-10
    z = solve_poisson_neumann(ScalarField(g, np.zeros(g.sizes)))
    assert np.abs(z.values).max() == 0.0


def test_trig_interpolation_reproduces_nodes():
    rng = np.random.default_rng(5)
    g = make_grid(2, (32, 32))
    vals = rng.standard_normal(g.sizes)
    fld = ScalarField(g, vals)
    X, Y = g.coords()
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    out = trig_interpolate(fld, pts).reshape(g.sizes)
    assert np.abs(out - vals).max() < 1e-10


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
