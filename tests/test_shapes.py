import os
import tempfile

import numpy as np
import pytest

from okstab.shapes import (Droplet, DropletSet, GraphPerturbation, Lamella,
                           LamellaPotential, alpha_distance, boundary_mesh,
                           lamella, load_shape, perimeter_exact,
                           perimeter_grid, rasterize, recenter_translation,
                           lamella_source_field, resample_periodic, save_shape,
                           volume_fraction)
from okstab.torus import (ScalarField, ValidationError, circle_distance,
                          make_grid, solve_poisson_periodic, trig_interpolate)


def test_lamella_interfaces():
    sh = lamella(2, 0.0)
    pos, sgn = sh.interfaces()
    assert np.allclose(pos, [0.0, 0.25, 0.5, 0.75])
    assert np.array_equal(sgn, [-1, 1, -1, 1])
    sh1 = lamella(1, 0.0)
    assert np.allclose(sh1.interfaces()[0], [0.0, 0.5])
    # the wide strip allowed by the candidate-comparison threshold
    wide = lamella(1, 1 - 2 / np.pi)
    assert abs(wide.a - (1 - 1 / np.pi)) < 1e-15


def test_lamella_validation():
    with pytest.raises(ValidationError):
        lamella(0, 0.0)
    with pytest.raises(ValidationError):
        lamella(1, 1.0)
    with pytest.raises(ValidationError):
        Droplet((0.5, 0.5), 0.6)
    with pytest.raises(ValidationError):
        DropletSet((Droplet((0.3, 0.3), 0.2), Droplet((0.4, 0.4), 0.2)))


def test_rasterize_alphabet_and_mean():
    g = make_grid(2, (256, 256))
    u = rasterize(lamella(1, 0.0), g)
    assert set(np.unique(u.values)) == {-1.0, 1.0}
    assert abs(volume_fraction(u)) <= 1.0 / 256
    d = rasterize(Droplet((0.5, 0.5), 0.2), g)
    want = 2 * np.pi * 0.04 - 1
    assert abs(volume_fraction(d) - want) < 4 * 0.2 * (1 / 256)  # O(h) rim error


@pytest.mark.parametrize("sizes, center, r", [
    ((45, 64), (0.97, 0.02), 0.3), ((9, 10, 11), (0.1, 0.5, 0.93), 0.35)])
def test_droplet_raster_matches_meshgrid_distance(sizes, center, r):
    # reference: squared periodic distance summed over full meshgrid axes
    g = make_grid(len(sizes), sizes)
    dist2 = np.zeros(g.sizes)
    for c, x0 in zip(g.coords(), center):
        dd = np.abs(c - x0) % 1.0
        dd = np.minimum(dd, 1.0 - dd)
        dist2 += dd * dd
    want = np.where(dist2 <= r**2, 1.0, -1.0)
    assert np.array_equal(rasterize(Droplet(center, r, len(sizes)), g).values, want)


def test_rasterize_monotone_in_a():
    g = make_grid(1, (64,))
    u1 = rasterize(Lamella(k=1, m=-0.2, axis=0, dim=1), g)
    u2 = rasterize(Lamella(k=1, m=0.4, axis=0, dim=1), g)
    assert np.all(u2.values >= u1.values)


def test_empty_perturbation_matches_base():
    g = make_grid(2, (64, 64))
    base = lamella(2, 0.2)
    gp = GraphPerturbation(base, np.zeros((4, 32)))
    assert np.array_equal(rasterize(gp, g).values, rasterize(base, g).values)


def test_graph_collision_guard():
    base = lamella(1, 0.0)   # gap = 1/2
    with pytest.raises(ValidationError):
        GraphPerturbation(base, 0.3 * np.ones((2, 16)))


@pytest.mark.parametrize("n0", [7, 8, 16])
def test_resampled_heights_keep_node_values(n0):
    rng = np.random.default_rng(n0)
    psi = 0.01 * rng.normal(size=(2, n0))
    pos, _ = lamella(1, 0.0).interfaces()
    hts = GraphPerturbation(lamella(1, 0.0), psi).heights(4 * n0)
    assert np.abs(hts[:, ::4] - pos[:, None] - psi).max() < 1e-14


def _cardinal_interpolant(rows, x):
    """sum_j rows_j D(x - j/n0), D the cardinal function of the n0-point
    trigonometric interpolant written as a cosine sum; the Nyquist mode of
    an even n0 enters once, as a cosine."""
    n0 = rows.shape[1]
    t = x[:, None] - np.arange(n0) / n0
    d = np.ones_like(t)
    for q in range(1, (n0 + 1) // 2):
        d += 2.0 * np.cos(2 * np.pi * q * t)
    if n0 % 2 == 0:
        d += np.cos(np.pi * n0 * t)
    return rows @ (d / n0).T


@pytest.mark.parametrize("n0", [7, 8, 16])
def test_resample_matches_dense_interpolant(n0):
    rows = np.random.default_rng(n0).normal(size=(3, n0))
    for n in (n0 + 1, 2 * n0 + 1, 2048):
        want = _cardinal_interpolant(rows, np.arange(n) / n)
        got = resample_periodic(rows, n)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(rows).max()


def test_perimeter_exact():
    assert perimeter_exact(lamella(3, 0.1)) == 6.0
    assert abs(perimeter_exact(Droplet((0.5, 0.5), 0.25)) - np.pi / 2) < 1e-15
    n = 256
    x = np.arange(n) / n
    psi = np.zeros((2, n))
    psi[0] = 0.01 * np.sin(2 * np.pi * x)
    got = perimeter_exact(GraphPerturbation(lamella(1, 0.0), psi))
    from scipy.integrate import quad
    want, _ = quad(lambda t: np.sqrt(1 + (0.02 * np.pi * np.cos(2 * np.pi * t)) ** 2),
                   0, 1, epsabs=1e-13)
    assert abs(got - (1.0 + want)) < 1e-10


def test_perimeter_grid():
    g = make_grid(2, (256, 256))
    u = rasterize(lamella(1, 0.0), g)
    assert abs(perimeter_grid(u) - 2.0) < 1e-3
    d = rasterize(Droplet((0.5, 0.5), 0.2), g)
    assert abs(perimeter_grid(d) - 2 * np.pi * 0.2) < 0.01 * 2 * np.pi * 0.2
    flat = ScalarField(g, np.ones(g.sizes))
    assert perimeter_grid(flat) == 0.0


def test_perimeter_grid_refinement():
    errs = []
    for n in (64, 128, 256):
        g = make_grid(2, (n, n))
        d = rasterize(Droplet((0.5, 0.5), 0.3), g)
        errs.append(abs(perimeter_grid(d) - 2 * np.pi * 0.3))
    assert errs[-1] < errs[0]  # at least first-order improvement


def test_alpha_basics():
    g = make_grid(2, (64, 64))
    u = rasterize(Droplet((0.5, 0.5), 0.2), g)
    val, shift = alpha_distance(u, u)
    assert val == 0.0 and shift == (0.0, 0.0)
    # translation by whole cells
    moved = ScalarField(g, np.roll(u.values, (5, 9), axis=(0, 1)))
    val, _ = alpha_distance(u, moved)
    assert val == 0.0


def test_alpha_brute_force_small():
    rng = np.random.default_rng(2)
    g = make_grid(2, (16, 16))
    for _ in range(10):
        a = np.where(rng.random(g.sizes) < 0.4, 1.0, -1.0)
        b = np.where(rng.random(g.sizes) < 0.6, 1.0, -1.0)
        ua, ub = ScalarField(g, a), ScalarField(g, b)
        got, _ = alpha_distance(ua, ub)
        best = np.inf
        for i in range(16):
            for j in range(16):
                best = min(best, np.abs(a - np.roll(b, (i, j), axis=(0, 1))).sum() / 2)
        assert got == best * g.cell_volume


def test_alpha_tie_breaks_to_smallest_shift():
    g = make_grid(2, (16, 16))
    u = rasterize(lamella(2, 0.0), g)   # constant along axis 0: whole rows of shifts tie
    moved = np.roll(u.values, 3, axis=1)
    val, shift = alpha_distance(u, ScalarField(g, moved))
    counts = np.array([[np.abs(u.values - np.roll(moved, (i, j), axis=(0, 1))).sum()
                        for j in range(16)] for i in range(16)])
    ties = sorted(zip(*np.nonzero(counts == counts.min())))
    assert len(ties) == 32
    assert val == 0.0 and shift == tuple(int(i) * h for i, h in zip(ties[0], g.spacing))


def test_alpha_pseudometric():
    rng = np.random.default_rng(4)
    g = make_grid(2, (32, 32))
    fields = [ScalarField(g, np.where(rng.random(g.sizes) < p, 1.0, -1.0))
              for p in (0.3, 0.5, 0.7)]
    a01, _ = alpha_distance(fields[0], fields[1])
    a10, _ = alpha_distance(fields[1], fields[0])
    assert a01 == a10
    a12, _ = alpha_distance(fields[1], fields[2])
    a02, _ = alpha_distance(fields[0], fields[2])
    assert a02 <= a01 + a12 + 1e-15


def test_boundary_mesh_droplet():
    mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 128)
    assert np.abs(mesh.curvature - 4.0).max() < 1e-12
    assert abs(mesh.length - np.pi / 2) < 1e-10 * np.pi
    nrm = np.sqrt((mesh.normals**2).sum(axis=1))
    assert np.abs(nrm - 1.0).max() < 1e-12


def test_boundary_mesh_lamella():
    mesh = boundary_mesh(lamella(1, 0.0), 64)
    assert np.abs(mesh.curvature).max() == 0.0
    assert abs(mesh.length - 2.0) < 1e-12
    assert len(mesh.components) == 2
    # outward normals: -e_y on the bottom interface, +e_y on the top
    i0, i1 = mesh.components[0]
    assert np.all(mesh.normals[i0:i1] == [0.0, -1.0])


def test_boundary_mesh_graph_curvature_linearization():
    delta = 1e-3
    n = 128
    x = np.arange(n) / n
    psi = np.zeros((2, n))
    psi[0] = delta * np.sin(2 * np.pi * x)
    mesh = boundary_mesh(GraphPerturbation(lamella(1, 0.0), psi), n)
    i0, i1 = mesh.components[0]
    t = np.arange(n) / n
    lin = -4 * np.pi**2 * delta * np.sin(2 * np.pi * t)
    # linearization error is O(delta^2) relative to the delta-scale
    assert np.abs(mesh.curvature[i0:i1] - lin).max() < 100 * delta**2


def test_recentering():
    base = lamella(2, 0.0)
    n = 32
    # rigid shift: psi == c on every interface
    psi = 0.03 * np.ones((4, n))
    shift = recenter_translation(psi, base)
    assert abs(shift[base.axis] - 0.03) < 1e-15
    # mean-zero per interface: no shift
    x = np.arange(n) / n
    psi2 = np.tile(np.sin(2 * np.pi * x), (4, 1))
    assert abs(recenter_translation(psi2, base)[base.axis]) < 1e-15
    # random psi: recentering reduces the translation functional
    rng = np.random.default_rng(8)
    psi3 = 0.01 * rng.standard_normal((4, n))
    before = abs(psi3.mean(axis=1).sum())
    sigma = recenter_translation(psi3, base)[base.axis]
    after = abs((psi3 - sigma).mean(axis=1).sum())
    assert after <= before + 1e-15
    assert after < 1e-12  # one step zeroes it for flat lamellae


def test_lamella_potential_profile():
    for (k, m) in [(1, 0.0), (2, 0.4), (3, -0.3)]:
        sh = Lamella(k=k, m=m, axis=0, dim=1)
        pot = LamellaPotential(sh)
        a = sh.a
        assert np.abs(pot.normal_derivative() + a * (1 - a) / k).max() < 1e-14
        want = a**2 * (1 - a) ** 2 / (3 * k * k)
        assert abs(pot.dirichlet_energy() - want) < 1e-14
        # mean-zero normalization
        x = np.linspace(0, 1, 20001)[:-1]
        assert abs(np.mean(pot.v(x))) < 1e-8
        # independent oracle: spectral solve of the band-limited source on
        # 4096 points, evaluated by trigonometric interpolation
        xs = np.random.default_rng(k).uniform(-1.0, 2.0, 500)
        vf = solve_poisson_periodic(lamella_source_field(sh, 4096))
        assert np.abs(pot.v(xs) - trig_interpolate(vf, xs)).max() < 1e-8
        # v' against central differences of v, exact for the piecewise
        # quadratic v away from the interfaces
        h = 1e-4
        far = circle_distance(xs[:, None] - sh.interfaces()[0]).min(axis=1) > 2 * h
        fd = (pot.v(xs + h) - pot.v(xs - h)) / (2 * h)
        assert np.abs(pot.dv(xs) - fd)[far].max() < 1e-10


def test_shape_file_round_trip():
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "s.cfg")
        save_shape(lamella(3, -0.25), p)
        back = load_shape(p)
        assert back == Lamella(k=3, m=-0.25, axis=1, dim=2)
        save_shape(Droplet((0.25, 0.75), 0.1), p)
        dback = load_shape(p)
        assert dback.center == (0.25, 0.75) and dback.radius == 0.1
