import itertools
import math
import os
import tempfile

import numpy as np
import pytest

from okstab.cli import _random_heights
from okstab.energy import energy, volume_corrected_perturbation
from okstab.shapes import (Droplet, DropletSet, GraphPerturbation, Lamella,
                           LamellaPotential, _marching_squares_length,
                           alpha_distance, boundary_mesh, graph_alpha,
                           lamella, load_shape, perimeter_exact,
                           perimeter_grid, periodic_samples, rasterize,
                           record_to_shape, save_shape)
from okstab.torus import (ScalarField, ValidationError, make_grid,
                          solve_poisson_periodic, trig_interpolate)
from oracles import (circle_distance, graph_perimeter_resampled, grid_coords,
                     interface_normal_derivative, lamella_source_field)


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="center must be finite"):
            Droplet((bad, 0.5), 0.2)
    with pytest.raises(ValidationError):
        DropletSet((Droplet((0.3, 0.3), 0.2), Droplet((0.4, 0.4), 0.2)))


@pytest.mark.parametrize("axis, dim", [(5, 2), (2, 2), (-3, 2), (9, 2), (1, 1), (3, 3),
                                       (0, 2), (-2, 2), (1, 3)])
def test_lamella_axis_out_of_range_is_named(axis, dim):
    # axis % dim once turned axis=5 (or a shape file's axis=9) into axis 1;
    # strips lie normal to the last axis, so any other axis is rejected
    with pytest.raises(ValidationError, match="axis"):
        Lamella(k=1, m=0.0, axis=axis, dim=dim)
    with pytest.raises(ValidationError, match="axis"):
        record_to_shape({"kind": "lamella", "k": "1", "m": "0.0", "axis": str(axis),
                         "dim": str(dim)})


def test_lamella_axis_in_range_is_kept_nonnegative():
    for axis, dim, want in ((-1, 2, 1), (1, 2, 1), (-1, 1, 0), (0, 1, 0), (-1, 3, 2), (2, 3, 2)):
        assert Lamella(k=1, m=0.0, axis=axis, dim=dim).axis == want
        assert record_to_shape({"kind": "lamella", "k": "1", "m": "0.0",
                                "axis": str(axis), "dim": str(dim)}).axis == want


def test_droplet_dimension_is_its_centers():
    assert Droplet((0.5, 0.5, 0.5), 0.2).dim == 3
    assert Droplet((0.5,), 0.2).dim == 1
    assert Droplet((0.5, 0.5), 0.2, dim=2) == Droplet((0.5, 0.5), 0.2)
    with pytest.raises(ValidationError, match="center dimension"):
        Droplet((0.5, 0.5), 0.2, dim=3)
    with pytest.raises(ValidationError, match="center dimension"):
        record_to_shape({"kind": "droplet", "center": "0.5,0.5", "radius": "0.2",
                         "dim": "3"})


def test_droplet_center_is_kept_as_a_float_tuple(tmp_path):
    # an array center once reached the file as "np.float64(0.3),...", which
    # load_shape rejected, and a list center left the droplet unhashable
    d = Droplet(np.array([0.3, 0.4]), 0.2)
    assert d == Droplet([0.3, 0.4], 0.2) and hash(d) == hash(Droplet((0.3, 0.4), 0.2))
    assert all(type(c) is float for c in d.center)
    save_shape(d, tmp_path / "d.shape")
    assert load_shape(tmp_path / "d.shape") == d


def test_rasterize_alphabet_and_mean():
    g = make_grid(2, (256, 256))
    u = rasterize(lamella(1, 0.0), g)
    assert set(np.unique(u.values)) == {-1.0, 1.0}
    assert abs(u.mean()) <= 1.0 / 256
    d = rasterize(Droplet((0.5, 0.5), 0.2), g)
    want = 2 * np.pi * 0.04 - 1
    assert abs(d.mean() - want) < 4 * 0.2 * (1 / 256)  # O(h) rim error


@pytest.mark.parametrize("sizes, center, r", [
    ((45, 64), (0.97, 0.02), 0.3), ((9, 10, 11), (0.1, 0.5, 0.93), 0.35)])
def test_droplet_raster_matches_meshgrid_distance(sizes, center, r):
    # reference: squared periodic distance summed over full meshgrid axes
    g = make_grid(len(sizes), sizes)
    dist2 = np.zeros(g.sizes)
    for c, x0 in zip(grid_coords(g), center):
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
    # NaN heights would pass the guard, a comparison that is False for NaN
    psi = np.zeros((2, 16))
    psi[1, 3] = np.nan
    with pytest.raises(ValidationError, match="psi must be finite"):
        GraphPerturbation(base, psi)


def test_graph_collision_checked_on_the_interpolant():
    # square-wave samples inside the 0.45-gap guard: the interpolants'
    # overshoot carries the two interfaces past each other
    sq = np.where(np.arange(16) < 8, 1.0, -1.0)
    psi = 0.2249 * np.stack([-sq, sq])
    with pytest.raises(ValidationError, match="collide: least gap -0.0799"):
        GraphPerturbation(lamella(1, 0.0), psi)


@pytest.mark.parametrize("n0", [7, 8, 16])
def test_resampled_heights_keep_node_values(n0):
    rng = np.random.default_rng(n0)
    psi = 0.01 * rng.normal(size=(2, n0))
    for r in (1, 4):
        assert np.abs(periodic_samples(psi, r * n0)[:, ::r] - psi).max() < 1e-14


def _cardinal_interpolant(rows, x, order=0):
    """order-th derivative of sum_j rows_j D(x - j/n0), D the cardinal
    function of the n0-point trigonometric interpolant written as a cosine
    sum; the Nyquist mode of an even n0 enters once, as a cosine."""
    n0 = rows.shape[1]
    t = x[:, None] - np.arange(n0) / n0

    def mode(q):    # d^order/dt^order cos(2 pi q t)
        w = 2 * np.pi * q
        return w**order * np.cos(w * t + order * np.pi / 2)

    d = np.full_like(t, 0.0 if order else 1.0)
    for q in range(1, (n0 + 1) // 2):
        d += 2.0 * mode(q)
    if n0 % 2 == 0:
        d += mode(n0 / 2)
    return rows @ (d / n0).T


@pytest.mark.parametrize("n0", [7, 8, 16])
def test_resample_matches_dense_interpolant(n0):
    rows = np.random.default_rng(n0).normal(size=(3, n0))
    for n, order, offset in itertools.product(
            (n0 // 2, n0 - 1, n0, n0 + 1, 2 * n0 + 1, 2048), (0, 1, 2), (0.0, 0.5)):
        want = _cardinal_interpolant(rows, (np.arange(n) + offset) / n, order)
        got = periodic_samples(rows, n, order, offset)
        bar = 1e-14 * (np.pi * n0) ** order * np.abs(rows).max()
        assert np.abs(got - want).max() <= bar, (n, order, offset)


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


def test_one_dimensional_droplet_perimeter_counts_two_points():
    # a 1-D droplet is an interval, whose boundary is two points, like the
    # two interfaces of the k = 1 lamella of the same volume 2r
    r = 0.2
    strip = energy(Lamella(k=1, m=4 * r - 1, axis=0, dim=1), 1.0).perimeter
    assert perimeter_exact(Droplet((0.5,), r, dim=1)) == strip == 2.0
    pair = DropletSet((Droplet((0.2,), 0.1, dim=1), Droplet((0.7,), 0.1, dim=1)))
    assert perimeter_exact(pair) == 2.0 * strip


@pytest.mark.parametrize("n0", [15, 16, 64, 2047, 2048])
def test_graph_perimeter_matches_resample_then_differentiate(n0):
    # one rfft of psi, one irfft to 2048 nodes: the same perimeter as
    # resampling psi to 2048 nodes and differentiating there
    rng = np.random.default_rng(n0)
    for k in (1, 3):
        psi = rng.normal(size=(2 * k, n0))
        base = lamella(k, 0.2)
        gp = GraphPerturbation(base, 0.3 * base.interface_gap * psi / np.abs(psi).max())
        want = graph_perimeter_resampled(gp)
        assert abs(perimeter_exact(gp) - want) <= 1e-15 * want, (n0, k)


def test_perimeter_grid():
    g = make_grid(2, (256, 256))
    u = rasterize(lamella(1, 0.0), g)
    assert abs(perimeter_grid(u) - 2.0) < 1e-3
    d = rasterize(Droplet((0.5, 0.5), 0.2), g)
    assert abs(perimeter_grid(d) - 2 * np.pi * 0.2) < 0.01 * 2 * np.pi * 0.2
    flat = ScalarField(g, np.ones(g.sizes))
    assert perimeter_grid(flat) == 0.0


# contour segments of a lattice square by corner code (bit b set when corner
# b of 00, 10, 11, 01 has f >= 0), as pairs of cut edges; a saddle (5, 10)
# looks up whether its corner sum is >= 0
_SQUARE_SEGMENTS = {
    1: [("W", "S")], 2: [("S", "E")], 3: [("W", "E")], 4: [("E", "N")],
    6: [("S", "N")], 7: [("W", "N")], 8: [("W", "N")], 9: [("S", "N")],
    11: [("E", "N")], 12: [("W", "E")], 13: [("S", "E")], 14: [("W", "S")],
    (5, True): [("S", "E"), ("W", "N")], (5, False): [("W", "S"), ("E", "N")],
    (10, True): [("W", "S"), ("E", "N")], (10, False): [("S", "E"), ("W", "N")]}


def _brute_contour_length(f):
    n0, n1 = f.shape
    h0, h1 = 1.0 / n0, 1.0 / n1
    total = 0.0
    for i in range(n0):
        for j in range(n1):
            c = (f[i, j], f[(i + 1) % n0, j], f[(i + 1) % n0, (j + 1) % n1],
                 f[i, (j + 1) % n1])
            code = sum(1 << b for b in range(4) if c[b] >= 0)
            if code in (5, 10):
                code = (code, sum(c) >= 0)

            def point(edge):
                a, b, origin, step = {"S": (0, 1, (0.0, 0.0), (h0, 0.0)),
                                      "E": (1, 2, (h0, 0.0), (0.0, h1)),
                                      "N": (3, 2, (0.0, h1), (h0, 0.0)),
                                      "W": (0, 3, (0.0, 0.0), (0.0, h1))}[edge]
                s = c[a] / (c[a] - c[b])
                return origin[0] + s * step[0], origin[1] + s * step[1]

            for ea, eb in _SQUARE_SEGMENTS.get(code, []):
                (xa, ya), (xb, yb) = point(ea), point(eb)
                total += math.hypot(xa - xb, ya - yb)
    return total


def _saddles(f):
    """(saddle count, saddles whose corner sum is exactly 0)"""
    c = [f, np.roll(f, -1, 0), np.roll(f, -1, (0, 1)), np.roll(f, -1, 1)]
    code = sum((v >= 0) << b for b, v in enumerate(c))
    saddle = (code == 5) | (code == 10)
    return int(saddle.sum()), int((saddle & (sum(c) == 0)).sum())


@pytest.mark.parametrize("sizes, kind", [
    ((8, 8), "normal"), ((37, 80), "normal"), ((80, 23), "normal"),
    ((16, 16), "sign"), ((45, 31), "sign"), ((20, 64), "rounded")])
def test_marching_squares_matches_per_square_loop(sizes, kind):
    rng = np.random.default_rng(sum(sizes))
    f = rng.standard_normal(sizes)
    if kind != "normal":      # +-1 or integer values: exact ties in saddles
        f = np.sign(f) if kind == "sign" else np.rint(f)
    saddles, ties = _saddles(f)
    assert saddles > 0 and (ties > 0 or kind == "normal")
    want = _brute_contour_length(f)
    got = _marching_squares_length(f, make_grid(2, sizes))
    assert abs(got - want) <= 1e-12 * want


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


def test_alpha_rejects_fields_that_are_not_plus_minus_one():
    g = make_grid(2, (16, 16))
    u = rasterize(Droplet((0.5, 0.5), 0.2), g)
    soft = ScalarField(g, 0.5 * u.values)
    with pytest.raises(ValidationError, match="uE"):
        alpha_distance(soft, u)
    with pytest.raises(ValidationError, match="uF"):
        alpha_distance(u, ScalarField(g, np.where(u.values > 0, 1.0, 0.0)))


def test_alpha_matches_the_indicator_correlation():
    # counts from the +-1 spectra equal those of the {0,1} indicators'
    # cross-correlation, value and shift alike, on perturbed lamellae at 128^2
    g = make_grid(2, (128, 128))
    base = lamella(1, 0.0)
    ref = rasterize(base, g)
    rng = np.random.default_rng(8)
    for _ in range(5):
        psi = rng.normal(size=(2, 16))
        gp = GraphPerturbation(base, 0.3 * base.interface_gap * psi / np.abs(psi).max())
        u = rasterize(gp, g)
        e, f = (u.values > 0).astype(float), (ref.values > 0).astype(float)
        corr = np.fft.irfft2(np.fft.rfft2(e) * np.conj(np.fft.rfft2(f)), s=g.sizes)
        counts = np.rint(e.sum() + f.sum() - 2.0 * corr)
        idx = np.unravel_index(np.argmin(counts), counts.shape)
        want = (float(counts[idx]) * g.cell_volume,
                tuple(int(i) * h for i, h in zip(idx, g.spacing)))
        assert alpha_distance(u, ref) == want


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


def _perturbed(k, m, seed):
    """A volume-corrected perturbation on perturb-test's seeded random rows."""
    base = lamella(k, m)
    rng = np.random.default_rng(seed)
    psi = _random_heights(rng, 2 * k, 16, 4, 0.25 * base.interface_gap)
    return base, volume_corrected_perturbation(base, psi)


def _raster_alpha(gp, base, n):
    g = make_grid(2, (n, n))
    return alpha_distance(rasterize(gp, g), rasterize(base, g))[0]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [0.0, 0.3, -0.4])
def test_graph_alpha_matches_the_raster_shift_search(k, m):
    # 1200 = 2^4 3 5^2 puts every base interface on a cell edge; at 1024^2 the
    # misplaced base interfaces of k = 3 alone cost the raster up to 1.1e-2
    base, gp = _perturbed(k, m, 10 * k)
    want = _raster_alpha(gp, base, 1200)
    assert abs(graph_alpha(gp) - want) <= 2e-3 * want


def test_graph_alpha_raster_error_shrinks_with_the_grid():
    # summed over four perturbations: one alone can gain from where its median
    # falls between the raster's whole-cell shifts
    errs = np.zeros(3)
    for seed in range(4):
        base, gp = _perturbed(2, 0.0, seed)
        a = graph_alpha(gp)
        errs += [abs(_raster_alpha(gp, base, n) - a) for n in (512, 1024, 2048)]
    assert errs[0] > errs[1] > errs[2]


def test_graph_alpha_invariances():
    # a vertical translation, a lateral one by whole nodes, and a relabelling
    # of the rows by one strip (a vertical translation by 1/k) keep alpha
    base, gp = _perturbed(2, 0.3, 3)
    a = graph_alpha(gp)
    for moved in (gp.psi + 0.02, np.roll(gp.psi, 5, axis=1), np.roll(gp.psi, 2, axis=0)):
        assert abs(graph_alpha(GraphPerturbation(base, moved)) - a) <= 1e-14 * a


def test_graph_alpha_of_one_cosine():
    # psi_0 = eps cos 2 pi x over a flat row: median 0, alpha = eps int |cos| =
    # 2 eps / pi; the rectangle rule on 2048 nodes sits pi^2/(3 2048^2) below
    eps = 0.01
    for n0 in (7, 16, 64):
        psi = np.zeros((2, n0))
        psi[0] = eps * np.cos(2 * np.pi * np.arange(n0) / n0)
        got = graph_alpha(GraphPerturbation(lamella(1, 0.0), psi))
        assert abs(got - 2 * eps / np.pi) <= 1e-6 * (2 * eps / np.pi)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graph_alpha_matches_the_median_rule_on_8192_nodes(k):
    # the rule evaluated on the cardinal interpolant at 8192 nodes; graph_alpha's
    # rectangle rule on 2048 nodes errs by at most h^2 |psi'| / 4 per kink of
    # |psi - tau|, h = 1/2048 (the median's own shift is second order)
    _, gp = _perturbed(k, 0.0, k)
    x = np.arange(8192) / 8192
    h = _cardinal_interpolant(gp.psi, x)
    tau = np.median(h)
    want = np.abs(h - tau).mean(axis=1).sum()
    kinks = np.sign(h - tau) != np.sign(np.roll(h - tau, -1, axis=1))
    bar = np.abs(_cardinal_interpolant(gp.psi, x, 1))[kinks].sum() / (4 * 2048**2)
    assert abs(graph_alpha(gp) - want) <= bar
    assert bar < 1e-5 * want

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


def test_lamella_potential_profile():
    for (k, m) in [(1, 0.0), (2, 0.4), (3, -0.3)]:
        sh = Lamella(k=k, m=m, axis=0, dim=1)
        pot = LamellaPotential(sh)
        a = sh.a
        assert np.abs(interface_normal_derivative(pot) + a * (1 - a) / k).max() < 1e-14
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
