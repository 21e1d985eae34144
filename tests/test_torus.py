import math

import numpy as np
import pytest

from okstab import torus
from okstab.torus import (ScalarField, TorusGrid, ValidationError, _wavenumbers,
                          dirichlet_energy, green2d_self_regularized,
                          green_function_2d, green_kernel_screened, make_grid,
                          solve_poisson_periodic, trig_interpolate)
from oracles import (count_transforms, green2d_screened,
                     green2d_screened_self_regularized, grid_coords, laplacian,
                     traced_peak, trig_interpolate_full)


def test_grid_basics():
    g = make_grid(2, (256, 256))
    assert g.spacing == (1.0 / 256, 1.0 / 256)
    assert abs(g.cell_volume * g.num_cells - 1.0) < 1e-14
    with pytest.raises(ValidationError):
        make_grid(2, (4, 256))
    with pytest.raises(ValidationError):
        make_grid(4, (16, 16, 16, 16))


def test_make_grid_rejects_sizes_that_are_not_integers():
    # int() would truncate (64.7, 64.7) to a 64^2 grid
    for sizes in [(64.7, 64.7), (64.0, 64), (16, "16")]:
        with pytest.raises(ValidationError, match="sizes"):
            make_grid(2, sizes)
    assert make_grid(2, np.array([16, 24])).sizes == (16, 24)
    assert make_grid(1, (np.int32(12),)).sizes == (12,)


def test_grid_checks_and_normalises_its_own_sizes():
    # the constructor once took (64.5, 64) for a grid of 4128.0 cells, and
    # kept a list, so that ksq() could not hash the grid
    with pytest.raises(ValidationError, match="sizes"):
        TorusGrid(2, (64.5, 64))
    grid = TorusGrid(2, [64, np.int64(64)])
    assert grid == make_grid(2, (64, 64)) and hash(grid) == hash(make_grid(2, (64, 64)))
    assert grid.sizes == (64, 64) and all(type(n) is int for n in grid.sizes)
    assert grid.ksq().shape == (64, 33)
    for dim in (2.0, "2", 0, 4):
        with pytest.raises(ValidationError, match="dim must be"):
            TorusGrid(dim, (16, 16))


def test_parseval_scales_the_powers_before_the_sum():
    # the mean square of cos(2 pi x) is 1/2, so a constant symbol s sums to
    # s/2; summed before the 1/N^2 scaling, s = 1e308 overflowed to inf
    for sizes in ((64,), (24, 30)):
        g = make_grid(len(sizes), sizes)
        u = ScalarField(g, np.cos(2 * np.pi * grid_coords(g)[-1]))
        symbol = np.full(u.spectrum.shape, 1e308)
        assert g.parseval(symbol, u.spectrum) == pytest.approx(0.5e308, rel=1e-12), sizes


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
    X, Y = grid_coords(g)
    f = np.zeros(g.sizes)
    for _ in range(12):
        kx, ky = rng.integers(-10, 11, size=2)
        if kx == 0 and ky == 0:
            continue
        f += rng.normal() * np.cos(2 * np.pi * (kx * X + ky * Y))
        f += rng.normal() * np.sin(2 * np.pi * (kx * X + ky * Y))
    fld = ScalarField(g, f - f.mean())
    v = solve_poisson_periodic(fld)
    res = laplacian(v) + fld.values
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


@pytest.mark.parametrize("q", [1, 6, 100, 223, 224, 227, 1000, 10_000])
def test_kernel_large_q_asymptotics(q):
    # the cosh/sinh form overflowed: 0.0 at q = 224, d = 0 (true 3.55e-4),
    # NaN from q = 227.  g_q(0) = 1/(2 lam tanh(lam/2)) exactly, and
    # 2 lam e^{lam d} g_q(d) = 1 + e^{-lam (1-2d)} + O(e^{-lam}) for d <= 1/2
    lam = 2 * np.pi * q
    d = np.arange(21) / (4.0 * max(q, 10))    # lam d <= 10 pi, d <= 1/8
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g0 = green_kernel_screened(q, 0.0)
        g = green_kernel_screened(q, d)
    assert g0 == pytest.approx(1.0 / (2.0 * lam * math.tanh(0.5 * lam)), rel=1e-15)
    lead = 2.0 * lam * np.exp(lam * d) * g - 1.0
    assert np.abs(lead - np.exp(-lam * (1.0 - 2.0 * d))).max() < 2.1 * np.exp(-lam) + 1e-14


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
    X, Y = grid_coords(g)
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
    # a zero minimum-image separation, also across periods
    for x, y in [([0.2, 0.2], [0.2, 0.2]), ([0.25, 0.5], [1.25, -0.5]),
                 ([[0.1, 0.3], [0.75, 0.125]], [[0.5, 0.5], [-2.25, 3.125]])]:
        with pytest.raises(ValidationError, match="coincident points"):
            green_function_2d(np.array(x), np.array(y))


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
    # at exact dyadic offsets G + log r/(2pi) - H0 - r^2/4 is the series'
    # c_1 r^4 <= 1.2e-13: nothing may cancel, down to 2^-40
    x = np.array([0.3125, 0.625])
    for p in (10, 14, 17, 20, 24, 27, 30, 40):
        r = 2.0**-p
        for e in np.eye(2):
            val = green_function_2d(x, x + r * e) + np.log(r) / (2 * np.pi)
            assert abs(val - c - r * r / 4) <= 2e-13, (p, e)


def test_green2d_matches_screened_lateral_sum():
    rng = np.random.default_rng(19)
    x, y = rng.random((2, 10_000, 2))
    d = x - y
    d -= np.round(d)
    keep = np.hypot(d[:, 0], d[:, 1]) >= 0.05    # the oracle cancels nearer in
    assert keep.sum() > 9_000
    assert np.abs(green_function_2d(x[keep], y[keep])
                  - green2d_screened(x[keep], y[keep])).max() <= 1e-15
    assert abs(green2d_self_regularized() - green2d_screened_self_regularized()) <= 1e-16


def test_green2d_series_coefficients_match_a_fit_of_the_oracle():
    # on |z| = r the oracle minus its log, |z|^2/4 and H0 is
    # sum_j c_j r^{4j} cos(4 j theta); the fit's own rounding (~1e-18 per
    # Fourier mode) sets the bars
    n, r = 4096, 0.45
    th = 2 * np.pi * np.arange(n) / n
    z = r * np.stack([np.cos(th), np.sin(th)], axis=1)
    rest = (green2d_screened(z, 0.0 * z) + np.log(np.hypot(z[:, 0], z[:, 1])) / (2 * np.pi)
            - (z * z).sum(axis=1) / 4 - green2d_screened_self_regularized())
    j = np.arange(1, 5)
    fit = 2 * np.fft.rfft(rest)[4 * j].real / (n * r ** (4 * j))
    want = np.array(torus._square_lattice_eisenstein(4)) / (8 * np.pi * j)
    assert np.all(np.abs(fit / want - 1) <= [1e-15, 1e-14, 2e-13, 8e-12])
    assert np.array_equal(torus._GREEN2D_SERIES[::-1][:4], want)


def test_square_lattice_eisenstein_series_tend_to_four():
    # G_4j = sum' w^-4j -> 4 from the four nearest lattice points w = +-1, +-i
    g = torus._square_lattice_eisenstein(30)
    assert abs(g[0] - 3.15121200215389753822) <= 5e-16    # Gamma(1/4)^8/(960 pi^2)
    assert abs(g[0] - math.gamma(0.25) ** 8 / (960 * math.pi**2)) <= 4e-15
    assert abs(g[-1] - 4) < 1e-12
    # G_8 = 3 G_4^2/7 from the first step of the recursion
    assert abs(g[1] - 3 * g[0] ** 2 / 7) <= 1e-15
    # the lattice sums themselves, over the disc |w| <= 80
    w = np.arange(-80, 81)
    w = (w[:, None] + 1j * w[None, :]).ravel()
    w = w[(w != 0) & (np.abs(w) <= 80)]
    assert abs(np.sum(w ** -4.0).real - g[0]) < 2e-6
    for j in (2, 3):
        assert abs(np.sum(w ** (-4.0 * j)).real - g[j - 1]) < 1e-14


def test_trig_interpolation_reproduces_nodes():
    rng = np.random.default_rng(5)
    g = make_grid(2, (32, 32))
    vals = rng.standard_normal(g.sizes)
    fld = ScalarField(g, vals)
    X, Y = grid_coords(g)
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


def test_ksq_built_once_and_read_only():
    g = make_grid(2, (12, 9))
    assert g.ksq() is g.ksq()
    assert g.ksq() is make_grid(2, (12, 9)).ksq()
    assert g.ksq().shape == (12, 5)
    with pytest.raises(ValueError):
        g.ksq()[0, 0] = 1.0
    with pytest.raises(ValueError):
        g.inverse_laplacian()[0, 0] = 1.0


@pytest.mark.parametrize("sizes", [(64,), (63,), (256, 256), (16, 17), (17, 16),
                                   (9, 10, 11), (8, 12, 9)])
def test_rfft_into_its_buffer_is_bit_identical(sizes):
    g = make_grid(len(sizes), sizes)
    v = np.random.default_rng(len(sizes)).standard_normal(sizes)
    got, want = g.rfft(v), np.fft.rfftn(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rfft_peaks_at_one_half_spectrum():
    # 256 x 129 complex is 0.53 MB; numpy's own out-of-place first-axis pass
    # would take a second one
    g = make_grid(2, (256, 256))
    v = np.random.default_rng(0).standard_normal(g.sizes)
    assert traced_peak(lambda: g.rfft(v)) < 0.6e6


def test_wavenumbers_are_integers_at_every_size():
    # fftfreq(n, 1/n) is up to 7.1e-15 off the integers at n = 49 and 98
    g = make_grid(2, (49, 98))
    k0, k1 = g.half_wavenumbers()
    assert np.array_equal(k0.ravel(), np.r_[0:25, -24:0])
    assert np.array_equal(k1.ravel(), np.arange(50))
    assert np.array_equal(g.ksq(), np.rint(g.ksq()))
    assert np.array_equal(_wavenumbers(98), np.r_[0:49, -49:0])
    # at powers of two, fftfreq is exact: the symbols keep their bits
    for n in (8, 64, 128, 256, 1024):
        assert np.array_equal(_wavenumbers(n), np.fft.fftfreq(n, 1.0 / n))
        assert np.array_equal(_wavenumbers(n, half=True), np.fft.rfftfreq(n, 1.0 / n))


@pytest.mark.parametrize("sizes", [(16,), (17,), (16, 15), (15, 16), (9, 9),
                                   (8, 9, 10), (9, 11, 8), (10, 12, 14)],
                         ids=lambda s: "x".join(map(str, s)))
def test_trig_interpolation_matches_the_full_fft_oracle(sizes):
    # the coefficients come from the cached half spectrum, extended by
    # Hermitian symmetry, not from a complex fftn of the values
    rng = np.random.default_rng(len(sizes) * 100 + sizes[-1])
    g = make_grid(len(sizes), sizes)
    f = ScalarField(g, rng.standard_normal(sizes))
    pts = rng.random((50, len(sizes)))
    got = []
    assert count_transforms(lambda: got.append(trig_interpolate(f, pts))) == {"rfftn": 1}
    assert count_transforms(lambda: trig_interpolate(f, pts)) == {}    # cached
    want = trig_interpolate_full(f, pts)
    assert np.abs(got[0] - want).max() <= 1e-14 * np.abs(want).max()


def test_poisson_solution_keeps_its_spectrum():
    # one forward transform of the source and one inverse for the values;
    # the Dirichlet energy reads the solution's spectrum
    rng = np.random.default_rng(8)
    g = make_grid(2, (48, 50))
    x = rng.standard_normal(g.sizes)
    f = ScalarField(g, x - x.mean())
    n = count_transforms(lambda: dirichlet_energy(solve_poisson_periodic(f)))
    assert n == {"rfftn": 1, "irfftn": 1}
    v = solve_poisson_periodic(f)
    assert np.array_equal(v.spectrum, f.spectrum * g.inverse_laplacian())
    assert not v.values.flags.writeable
    assert np.abs(-laplacian(v) - f.values).max() < 1e-12 * np.abs(f.values).max()
