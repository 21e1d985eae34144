import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from okstab.energy import (EnergyBreakdown, GridPotential, _mode_weights, el_residual,
                           energy, graph_energy, graph_nonlocal_energy,
                           isoperimetric_compare, lamella_closed_form,
                           nonlocal_energy_field, nonlocal_lipschitz_check,
                           optimal_strip_count, strip_disc_crossing,
                           volume_corrected_perturbation)
from okstab.cli import _random_heights
from okstab.flow import run_flow
from okstab.shapes import (BoundaryMesh, Droplet, GraphPerturbation, Lamella,
                           boundary_mesh, lamella, periodic_samples, rasterize)
from okstab.stability import (assemble_boundary_form, finite_difference_check,
                              lamella_mode_matrix)
from okstab.torus import ScalarField, ValidationError, make_grid
from oracles import (count_transforms, grid_coords, grid_potential_chain,
                     lamella_source_field)


def test_breakdown_additivity():
    br = EnergyBreakdown(2.0, 1.0 / 48.0, 3.0)
    assert br.total == 2.0 + 3.0 / 48.0
    with pytest.raises(ValidationError):
        EnergyBreakdown(2.0, 1.0, -1.0)


def test_lamella_energy_values():
    assert energy(lamella(1, 0.0), 0.0).total == 2.0
    br = energy(lamella(1, 0.0), 1.0)
    assert abs(br.total - (2.0 + 1.0 / 48.0)) < 1e-6
    # 1/k^2 scaling of the potential
    for k in (2, 3, 4):
        brk = energy(lamella(k, 0.0), 1.0)
        assert abs(brk.nonlocal_term - 1.0 / (48.0 * k * k)) < 1e-6


def test_closed_form():
    assert lamella_closed_form(1, 0.0, 1.0).nonlocal_term == pytest.approx(1 / 48, abs=1e-16)
    assert lamella_closed_form(2, 0.0, 1.0).nonlocal_term == pytest.approx(1 / 192, abs=1e-16)
    assert lamella_closed_form(1, 0.999, 1.0).nonlocal_term < 1e-7
    assert lamella_closed_form(3, 0.0, 0.0).perimeter == 6.0


def test_energy_matches_closed_form_grid512():
    # the spectral sum of the band-limited source, 512 modes
    for k in range(1, 6):
        for m in (-0.5, 0.0, 0.5):
            sh = Lamella(k=k, m=m, axis=0, dim=1)
            nl = nonlocal_energy_field(lamella_source_field(sh, 512))
            want = lamella_closed_form(k, m, 1.0)
            assert abs(nl - want.nonlocal_term) < 1e-6, (k, m)


@pytest.mark.parametrize("m", [-0.55, 0.0, 0.3])
def test_lamella_energy_is_the_closed_form(m):
    for k in range(1, 12):
        for dim in (1, 2, 3):
            got = energy(Lamella(k=k, m=m, dim=dim), 1.7)
            want = lamella_closed_form(k, m, 1.7)
            assert got.perimeter == want.perimeter
            assert abs(got.nonlocal_term - want.nonlocal_term) <= 1e-14 * want.nonlocal_term
            assert abs(got.total - want.total) <= 1e-14 * want.total


def test_lamella_rejects_a_grid():
    with pytest.raises(ValidationError, match="grid"):
        energy(lamella(2, 0.3), 1.0, make_grid(2, (64, 64)))
    with pytest.raises(ValidationError, match="grid"):
        el_residual(boundary_mesh(lamella(2, 0.3), 64), 1.0, make_grid(2, (64, 64)))


def test_strip_competition_monotonicity():
    nls = [lamella_closed_form(k, 0.2, 1.0).nonlocal_term for k in range(1, 8)]
    pers = [lamella_closed_form(k, 0.2, 1.0).perimeter for k in range(1, 8)]
    assert all(a > b for a, b in zip(nls, nls[1:]))
    assert all(a < b for a, b in zip(pers, pers[1:]))


def test_optimal_strip_count():
    assert optimal_strip_count(0.0, 0.0) == 1
    big = 48.0 * 1000.0**3
    assert optimal_strip_count(0.0, big) == pytest.approx(1000, abs=1)
    ks = [optimal_strip_count(0.0, g) for g in np.linspace(0, 5e4, 40)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    # k* = (1e30/48)^(1/3) = 2.7516e9, where a cap at 10 000 used to sit
    assert optimal_strip_count(0.0, 1e30) == 2751606041


@pytest.mark.parametrize("m, gamma, name",
                         [(1.5, 10.0, "m"), (0.0, float("nan"), "gamma"),
                          (0.0, -1.0, "gamma"), (0.0, 1e50, "gamma")],
                         ids=["m=1.5", "gamma=nan", "gamma=-1", "gamma=1e50"])
def test_optimal_strip_count_rejects_bad_input(m, gamma, name):
    # at gamma = 1e50 the optimum k* = 1.0e16 is past 2^52: its neighbours
    # are not float64 numbers
    with pytest.raises(ValidationError, match=name):
        optimal_strip_count(m, gamma)


BAD_GAMMAS = [float("nan"), float("inf"), -1.0]


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_breakdown_rejects_bad_gamma(gamma):
    with pytest.raises(ValidationError, match="gamma must be finite and nonnegative"):
        EnergyBreakdown(2.0, 0.1, gamma)


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_energy_rejects_bad_gamma(gamma):
    with pytest.raises(ValidationError, match="gamma must be finite and nonnegative"):
        energy(lamella(1, 0.0), gamma)
    with pytest.raises(ValidationError, match="gamma must be finite and nonnegative"):
        lamella_mode_matrix(1, 0.0, gamma, 1)


@pytest.mark.parametrize("gamma", BAD_GAMMAS)
def test_el_residual_rejects_bad_gamma(gamma):
    mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 64)
    with pytest.raises(ValidationError, match="gamma must be finite and nonnegative"):
        el_residual(mesh, gamma)


def test_el_residual_lamella():
    for gamma in (0.5, 5.0, 50.0):
        mesh = boundary_mesh(lamella(2, 0.3), 128)
        rep = el_residual(mesh, gamma)
        assert rep.residual_sup <= 1e-6


def test_el_residual_droplet():
    mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 128)
    rep = el_residual(mesh, 0.0)
    assert rep.residual_sup <= 1e-8
    assert rep.lam == pytest.approx(4.0)
    # with gamma > 0 the torus breaks radial symmetry: residual is a
    # reported diagnostic that shrinks with the radius
    r_big = el_residual(boundary_mesh(Droplet((0.5, 0.5), 0.25), 128), 1.0)
    r_small = el_residual(boundary_mesh(Droplet((0.5, 0.5), 0.12), 128), 1.0)
    assert r_small.residual_sup < r_big.residual_sup


def test_el_residual_at_gamma_zero_builds_no_potential():
    # H alone: a mesh without a shape works, and a droplet's grid goes unused
    mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 128)
    bare = dataclasses.replace(mesh, shape=None)
    want = el_residual(mesh, 0.0)
    for got in (el_residual(bare, 0.0), el_residual(mesh, 0.0, make_grid(2, (64, 64)))):
        assert got.lam == want.lam and np.array_equal(got.residual, want.residual)
    with pytest.raises(ValidationError, match="no shape"):
        el_residual(bare, 1.0)

def test_lipschitz_ratio_strip_family():
    # strips [0,a] vs [0,a+delta]: the difference quotient tends to
    # |d/da a^2(1-a)^2/3|
    a = 0.3
    n = 4096
    g = make_grid(1, (n,))

    def strip_field(width):
        x = g.axis_coords(0)
        return ScalarField(g, np.where(x < width, 1.0, -1.0))

    want = abs(2 * a * (1 - a) * (1 - 2 * a) / 3)
    ratios = []
    for cells in (64, 32):
        delta = cells / n
        r = nonlocal_lipschitz_check([(strip_field(a), strip_field(a + delta))])
        ratios.append(r)
    extrap = 2 * ratios[1] - ratios[0]
    assert abs(extrap - want) < 0.01 * want


def test_lipschitz_random_pairs_bounded():
    rng = np.random.default_rng(12)
    g = make_grid(2, (128, 128))
    pairs = []
    for _ in range(20):
        if rng.random() < 0.5:
            sa = lamella(int(rng.integers(1, 4)), float(rng.uniform(-0.5, 0.5)))
            sb = lamella(int(rng.integers(1, 4)), float(rng.uniform(-0.5, 0.5)))
        else:
            sa = Droplet((rng.random(), rng.random()), float(rng.uniform(0.1, 0.4)))
            sb = Droplet((rng.random(), rng.random()), float(rng.uniform(0.1, 0.4)))
        pairs.append((rasterize(sa, g), rasterize(sb, g)))
    worst = nonlocal_lipschitz_check(pairs)
    assert np.isfinite(worst)
    assert worst < 1.0  # loose empirical bound, stable under reruns


def test_lipschitz_identical_pair_rejected():
    g = make_grid(2, (32, 32))
    u = rasterize(lamella(1, 0.0), g)
    with pytest.raises(ValidationError):
        nonlocal_lipschitz_check([(u, u)])


def test_energy_of_indicator_field():
    g = make_grid(2, (256, 256))
    u = rasterize(Droplet((0.5, 0.5), 0.2), g)
    br = energy(u, 2.5)
    assert abs(br.perimeter - 2 * np.pi * 0.2) < 0.01 * 2 * np.pi * 0.2
    assert br.nonlocal_term == nonlocal_energy_field(u)
    assert br.total == br.perimeter + 2.5 * br.nonlocal_term


def _strip_minus_disc(m):
    rows, _ = isoperimetric_compare(m, 2)
    per = {r["name"]: r["perimeter"] for r in rows}
    return per["strip"] - per["disc"]


def test_isoperimetric_2d():
    crossing = strip_disc_crossing()
    for sign in (1, -1):
        assert abs(_strip_minus_disc(sign * crossing)) <= 1e-15
        assert _strip_minus_disc(sign * (crossing - 1e-6)) < 0    # the disc is longer
        assert _strip_minus_disc(sign * (crossing + 1e-6)) > 0    # the disc is shorter
    rows, best = isoperimetric_compare(0.0, 2)
    per = {r["name"]: r["perimeter"] for r in rows}
    assert per["strip"] == 2.0
    assert per["disc"] == pytest.approx(2 * np.sqrt(np.pi / 2))
    # a -> 0: disc beats strip
    _, best_small = isoperimetric_compare(-0.95, 2)
    assert best_small == "disc"


def test_isoperimetric_3d():
    rows, best = isoperimetric_compare(0.0, 3)
    per = {r["name"]: r["perimeter"] for r in rows}
    assert best == "strip"
    assert per["strip"] < per["cylinder"] < per["ball"]
    assert per["cylinder"] == pytest.approx(2 * np.sqrt(np.pi / 2), rel=1e-12)
    assert per["ball"] == pytest.approx((36 * np.pi) ** (1 / 3) * 0.5 ** (2 / 3),
                                        rel=1e-12)
    # oversized ball flagged invalid rather than silently compared
    rows_big, _ = isoperimetric_compare(0.99, 3)
    flags = {r["name"]: r["valid"] for r in rows_big}
    assert flags["strip"]


def test_graph_nonlocal_matches_closed_form_at_zero():
    # the B4 sum starts from the lamella's closed form and adds what the
    # heights change; summed whole, it cancelled terms of size k^2/24 down to
    # the value and was 1.18e-12 off at k = 3, m = -0.95
    for k in range(1, 6):
        for m in (-0.95, -0.5, -0.4, 0.0, 0.3, 0.5, 0.95):
            for n in (32, 200):
                gp = GraphPerturbation(lamella(k, m), np.zeros((2 * k, n)))
                got, want = graph_energy(gp, 1.0), lamella_closed_form(k, m, 1.0)
                assert got.perimeter == want.perimeter
                for g, w in ((got.nonlocal_term, want.nonlocal_term),
                             (got.total, want.total)):
                    assert abs(g - w) <= 2 * np.spacing(w), (k, m, n, (g - w) / w)


def test_bernoulli4_is_the_cosine_series():
    # the identity behind the closed-form part of graph_nonlocal_energy:
    # sum_{q>=1} cos(2 pi q t) / q^4 = -(pi^4 / 3) B4(t) on [0, 1], with
    # B4(t) = t^4 - 2t^3 + t^2 - 1/30; the partial sum to 10^5 terms is off
    # by < 1 / (3 * 10^15)
    t = np.linspace(0.0, 1.0, 41)
    q = np.arange(100_000, 0, -1.0)          # smallest terms first
    series = (np.cos(2.0 * np.pi * np.outer(t, q)) / q**4).sum(axis=1)
    b4 = t**4 - 2.0 * t**3 + t**2 - 1.0 / 30.0
    assert np.abs(-np.pi**4 / 3.0 * b4 - series).max() < 1e-14


def _random_graph(k, m, n=16):
    """A volume-corrected graph perturbation whose psi has 16 random nodes,
    sampled on n nodes (the same heights, so the same nonlocal term)."""
    base = lamella(k, m)
    rng = np.random.default_rng(10 * k + int(10 * m))
    psi = rng.normal(size=(2 * k, 16))
    gp = volume_corrected_perturbation(
        base, 0.2 * base.interface_gap * psi / np.abs(psi).max())
    return GraphPerturbation(base, periodic_samples(gp.psi, n))


def _lateral_row0(hts, n_lat):
    """q2 = 0 term: the lateral variation of the strip widths."""
    widths = (hts[1::2] - hts[0::2]) % 1.0
    c0 = np.fft.fft(2.0 * widths.sum(axis=0)) / n_lat
    q1 = np.fft.fftfreq(n_lat, d=1.0 / n_lat)
    return float(np.sum(np.abs(c0[1:]) ** 2 / (4.0 * np.pi**2 * q1[1:] ** 2)))


def _direct_graph_nonlocal(gp, n_lat, q2_modes):
    """The graph nonlocal term on n_lat lateral nodes summed mode by mode
    with the full weight 1 / (4 pi^2 |xi|^2), in blocks of vertical modes
    (512, fewer on more than 256 nodes); returns the partial sums at each
    block's end.  Phases are exps of q2 h, tabled once per block offset."""
    hts = gp.heights(n_lat)
    sgn = np.where(np.arange(len(hts)) % 2 == 0, 1.0, -1.0)[:, None]
    q1 = np.fft.fftfreq(n_lat, d=1.0 / n_lat)
    total = _lateral_row0(hts, n_lat)
    block = min(512, 2**17 // n_lat)
    offsets = np.exp(-2j * np.pi * np.arange(block)[:, None, None] * hts)
    partial = {}
    for lo in range(1, q2_modes + 1, block):
        q2 = np.arange(lo, lo + block)[:, None]
        coef = np.einsum("rix,ix->rx", offsets, sgn * np.exp(-2j * np.pi * lo * hts))
        c = np.fft.fft(coef, axis=1) / n_lat             # times 1/(i pi q2) below
        total += 2.0 * float(np.sum((c.real**2 + c.imag**2) / (np.pi * q2) ** 2
                                    / (4.0 * np.pi**2 * (q1**2 + q2**2))))
        partial[lo + block - 1] = total
    return partial


@functools.cache
def _direct_random_graph_nonlocal(k, m):
    """_direct_graph_nonlocal of _random_graph(k, m) on 128 nodes to 2^16 modes."""
    return _direct_graph_nonlocal(_random_graph(k, m), 128, 2**16)


def _direct_split_formula(gp, n_lat, q2_max):
    """The split formula term by term: the q2 = 0 row, the q1 = 0 weight over
    all q2 as the B4 double sum over interfaces, and the remainder weight
    w - w0 with one np.exp per vertical mode and height; the total after
    each q2 = 1..q2_max."""
    hts = gp.heights(n_lat)
    sgn = np.where(np.arange(len(hts)) % 2 == 0, 1.0, -1.0)
    b4 = sum(sgn[i] * sgn[j] * (d**4 - 2.0 * d**3 + d**2 - 1.0 / 30.0).sum()
             for i in range(len(hts)) for j in range(len(hts))
             for d in [(hts[i] - hts[j]) % 1.0])
    closed = -float(b4) / (6.0 * n_lat)
    q1 = np.fft.fftfreq(n_lat, d=1.0 / n_lat)
    q2 = np.arange(1, q2_max + 1)[:, None]
    a = (sgn[:, None] * np.exp(-2j * np.pi * q2[:, :, None] * hts[None])).sum(axis=1)
    c = np.fft.fft(a, axis=1) / n_lat
    rest = 2.0 / (np.pi * q2) ** 2 * (1.0 / (4.0 * np.pi**2 * (q1**2 + q2**2))
                                      - 1.0 / (4.0 * np.pi**2 * q2**2))
    rows = (np.abs(c) ** 2 * rest).sum(axis=1)
    return _lateral_row0(hts, n_lat) + closed + np.cumsum(rows)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [-0.3, 0.0, 0.2])
def test_graph_nonlocal_matches_direct_formula(k, m):
    # against 2^16 modes of the unsplit sum on 128 nodes: no worse than the
    # former 2048-mode truncation, for psi on fewer nodes or on 128
    n = {-0.3: 16, 0.0: 64, 0.2: 128}[m]
    partial = _direct_random_graph_nonlocal(k, m)
    want = partial[2**16]
    got = graph_nonlocal_energy(_random_graph(k, m, n))
    assert abs(got - want) <= abs(partial[2048] - want)
    # the 512-mode remainder, both 256-row chunks, against the split formula
    # on psi's own nodes: 129 makes the lateral FFT odd, 1024 the rows large
    for n in (n, 129, 1024):
        gp = _random_graph(k, m, n)
        got = graph_nonlocal_energy(gp)
        assert abs(got - _direct_split_formula(gp, max(n, 128), 512)[-1]) <= 1e-13 * got, n


def test_graph_nonlocal_error_falls_with_the_fifth_power_of_the_cutoff():
    # the split formula's remainder weight is ~q2^-6, so doubling its cutoff
    # cuts the error ~32x (at least 16x is asked for): what makes 512 modes
    # enough for the 2048-mode accuracy of the unsplit sum
    k, m = 2, -0.3
    want = _direct_random_graph_nonlocal(k, m)[2**16]
    split = _direct_split_formula(_random_graph(k, m), 128, 1024)
    errs = [abs(split[q - 1] - want) for q in (128, 256, 512, 1024)]
    assert all(a >= 16.0 * b for a, b in zip(errs, errs[1:])), errs


@pytest.mark.parametrize("modes", [40, 100])
def test_graph_nonlocal_resolves_psi_on_its_own_nodes(modes):
    # perturb-test --modes 40 / 100 heights, on 160 / 400 nodes: resolved on
    # 128 lateral nodes they were 1.3e-6 / 1.2e-4 off the 4096-node value
    base = lamella(1, 0.0)
    psi = _random_heights(np.random.default_rng(0), 2, 4 * modes, modes,
                          0.25 * base.interface_gap)
    gp = volume_corrected_perturbation(base, psi)
    want = _direct_graph_nonlocal(gp, 4096, 1024)[1024]    # 1e-10 from converged
    assert abs(graph_nonlocal_energy(gp) - want) <= 1e-6 * want


def test_graph_mode_weights_cached_read_only():
    # one weight table per lateral node count, psi's own past 128, and one
    # table cached
    gp = GraphPerturbation(lamella(1, 0.0), np.zeros((2, 136)))
    _mode_weights.cache_clear()
    graph_nonlocal_energy(gp)
    graph_nonlocal_energy(gp)
    assert _mode_weights.cache_info().misses == 1
    w = _mode_weights(136)
    assert w.shape == (512, 272)
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    # one table at a time: a second node count (here the default 128) takes
    # the place of the first (a 2048-node table is 16.8 MB)
    graph_nonlocal_energy(GraphPerturbation(lamella(1, 0.0), np.zeros((2, 16))))
    info = _mode_weights.cache_info()
    assert info.misses == 2 and info.currsize == 1
    assert _mode_weights(128).shape == (512, 256)
    assert _mode_weights.cache_info().hits == info.hits + 1


def test_graph_nonlocal_allocates_one_chunk_not_the_mode_table():
    # at the default sizes a (q2_modes, 2k, n_lat) complex phase table is
    # 2 MB, the weight table 1 MB (cached, so warmed first)
    base = lamella(1, 0.0)
    psi = np.random.default_rng(5).normal(size=(2, 16))
    gp = volume_corrected_perturbation(
        base, 0.2 * base.interface_gap * psi / np.abs(psi).max())
    graph_nonlocal_energy(gp)               # warms the weight cache
    tracemalloc.start()
    try:
        graph_nonlocal_energy(gp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("call, name", [
    (lambda: run_flow(ScalarField(make_grid(1, (16,)), np.zeros(16)), 0.1, 0.0, 1e-3,
                      max_steps=1.5), "max_steps"),
    (lambda: boundary_mesh(lamella(1, 0.0), 100.5), "n_points"),
    (lambda: finite_difference_check(lamella(1, 0.0), np.zeros((2, 8)), 1.0, t_list=()),
     "t_list")],
    ids=["run_flow", "boundary_mesh", "finite_difference_check"])
def test_counts_that_are_not_whole_or_empty_are_named(call, name):
    # unchecked, each raises a TypeError or IndexError that names nothing
    with pytest.raises(ValidationError, match=name):
        call()


_DROPLETS = [Droplet((0.43, 0.57), 0.22), Droplet((0.9, 0.05), 0.2),
             GraphPerturbation(lamella(1, 0.1), 0.02 * np.cos(
                 2 * np.pi * np.outer([1, 2], np.arange(16)) / 16))]


@pytest.mark.parametrize("shape, n", [(_DROPLETS[0], 256), (_DROPLETS[1], 64),
                                      (_DROPLETS[2], 128)],
                         ids=["droplet256", "droplet64-wrapped", "graph"])
def test_grid_potential_matches_the_full_fft_chain(shape, n):
    # v and d_nu v from the indicator's one half spectrum against the solve,
    # rfftn gradient and full complex fftn interpolation of each component
    mesh = boundary_mesh(shape, n)
    pot = GridPotential(shape)
    v, dnv = grid_potential_chain(shape, pot.grid, mesh)
    assert np.abs(pot.on_mesh(mesh) - v).max() <= 1e-12 * np.abs(v).max()
    assert np.abs(pot.dnv_on_mesh(mesh) - dnv).max() <= 1e-12 * np.abs(dnv).max()


def test_grid_potential_gradient_modes():
    # odd and even axes; the mode at the Nyquist frequency of the even axis
    # has no derivative along that axis, only along the other one.  The
    # indicator's spectrum is replaced by that of -Lap v, v = sin a1 + sin a2
    g = make_grid(2, (16, 15))
    X, Y = grid_coords(g)
    a1 = 2 * np.pi * (3 * X - 2 * Y)
    a2 = 2 * np.pi * (8 * X + 3 * Y)
    pot = GridPotential(Droplet((0.5, 0.5), 0.2), g)
    pot._uh = ScalarField(g, 4 * np.pi**2 * (13 * np.sin(a1) + 73 * np.sin(a2))).spectrum
    n = g.num_cells
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)

    def nodes_facing(normal):
        return BoundaryMesh(nodes, np.tile(normal, (n, 1)), np.zeros(n), np.ones(n),
                            [(0, n)], np.ones(n), None)
    gx = pot.dnv_on_mesh(nodes_facing([1.0, 0.0])).reshape(g.sizes)
    gy = pot.dnv_on_mesh(nodes_facing([0.0, 1.0])).reshape(g.sizes)
    assert np.abs(gx - 6 * np.pi * np.cos(a1)).max() < 1e-12
    assert np.abs(gy + 4 * np.pi * np.cos(a1) - 6 * np.pi * np.cos(a2)).max() < 1e-12
    v = pot.on_mesh(nodes_facing([1.0, 0.0])).reshape(g.sizes)
    assert np.abs(v - np.sin(a1) - np.sin(a2)).max() < 1e-12


def test_grid_potential_transforms_the_indicator_once():
    # grid_potential_chain's d_nu v runs rfftn, irfftn, rfftn, irfftn, fftn,
    # irfftn, fftn; the boundary form adds the rfft/irfft pair of its
    # spectral derivative and one irfft per component for its self panel
    shape = Droplet((0.43, 0.57), 0.22)
    mesh = boundary_mesh(shape, 256)
    assert count_transforms(lambda: GridPotential(shape).dnv_on_mesh(mesh)) == {
        "rfftn": 1, "irfftn": 2}
    assert count_transforms(lambda: assemble_boundary_form(mesh, 1.5)) == {
        "rfftn": 1, "irfftn": 2, "rfft": 1, "irfft": 2}
    assert count_transforms(lambda: el_residual(mesh, 1.5)) == {"rfftn": 1, "irfftn": 1}
    u = rasterize(shape, make_grid(2, (128, 128)))
    assert count_transforms(lambda: energy(u, 1.0)) == {"rfftn": 1, "irfftn": 1}


def test_volume_corrected_perturbation():
    base = lamella(1, 0.0)
    rng = np.random.default_rng(3)
    psi = 0.03 * rng.standard_normal((2, 16))
    gp = volume_corrected_perturbation(base, psi)
    g = make_grid(2, (128, 128))
    # semi-analytic volume: widths of the corrected strips average to a
    hts = gp.heights(512)
    vol = float(((hts[1] - hts[0]) % 1.0).mean())
    assert abs(vol - base.a) < 1e-12
