import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okstab.energy import lamella_closed_form
from okstab.config import DEFAULT_FIELD_GRID
from okstab.shapes import (BoundaryMesh, Droplet, DropletSet, GraphPerturbation,
                           Lamella, LamellaPotential, boundary_mesh, lamella,
                           periodic_derivative, rasterize)
from okstab.stability import (_bloch_blocks, _bloch_vector,
                              _log_quadrature_block, assemble_boundary_form,
                              constrained_min_eig, finite_difference_check,
                              lamella_form_value, lamella_min_eigenvalue,
                              lamella_mode_matrix, stability_threshold_gamma,
                              stability_threshold_k, translation_form_value)
from okstab.torus import (ScalarField, ValidationError, green2d_self_regularized,
                          green_function_2d, make_grid, solve_poisson_periodic,
                          spectral_gradient, trig_interpolate)

GAMMA_C_SINGLE_STRIP = 94.87206216585848   # regression value, m=0, k=1


def test_mode_matrix_ingredients():
    mm = lamella_mode_matrix(1, 0.0, 1.0, 0)
    assert np.allclose(mm.kernel, [[1 / 12, -1 / 24], [-1 / 24, 1 / 12]],
                       atol=1e-15)
    assert mm.dnv == pytest.approx(-0.25, abs=1e-15)
    # K(q)_ii all equal by translation invariance of the pattern
    mm2 = lamella_mode_matrix(3, 0.2, 2.0, 4)
    diag = np.diag(mm2.kernel)
    assert np.ptp(diag) < 1e-15


def test_translation_nullity_exact():
    for (k, m, g) in [(1, 0.0, 5.0), (2, 0.3, 17.0), (3, -0.4, 120.0)]:
        mm = lamella_mode_matrix(k, m, g, 0)
        _, sgn = lamella(k, m).interfaces()
        assert np.abs(mm.matrix @ sgn).max() < 1e-12 * max(1.0, g)


def test_gamma_zero_spectrum():
    mm = lamella_mode_matrix(2, 0.1, 0.0, 3)
    assert np.allclose(mm.matrix, 4 * np.pi**2 * 9 * np.eye(4))
    rep = lamella_min_eigenvalue(1, 0.0, 0.0)
    assert rep.min_eigenvalue == pytest.approx(4 * np.pi**2, rel=1e-14)
    assert rep.mode == 1


def test_normal_derivative_scaling():
    for k in (1, 2, 5, 11):
        for m in (-0.4, 0.0, 0.6):
            a = (m + 1) / 2
            dnv = LamellaPotential(Lamella(k, m, axis=0, dim=1)).normal_derivative()
            assert np.abs(dnv + a * (1 - a) / k).max() < 1e-14


def test_threshold_gamma_regression():
    rep = stability_threshold_gamma(0.0, 1)
    assert rep.gamma_c == pytest.approx(GAMMA_C_SINGLE_STRIP, abs=2e-6)
    assert rep.scan["bloch_p"] == 0
    # independent bracketing: dense eigensolves for q <= 20 on both sides
    for gamma, sign in ((rep.gamma_c - 0.01, 1.0), (rep.gamma_c + 0.01, -1.0)):
        worst = min(np.linalg.eigvalsh(
            lamella_mode_matrix(1, 0.0, gamma, q).matrix)[0]
            for q in range(1, 21))
        assert np.sign(worst) == sign


def _dense_min_eig(k, m, gamma):
    """min over q >= 1 of eigvalsh(M(q)), scanning until a Gershgorin bound
    from the closed-form kernel peak g_q(0) = 1 / (2 lam tanh(lam / 2)),
    lam = 2 pi q, shows every later mode lies above the minimum."""
    a = 0.5 * (m + 1.0)
    best, q = math.inf, 1
    while True:
        M = lamella_mode_matrix(k, m, gamma, q).matrix
        best = min(best, float(np.linalg.eigvalsh(M)[0]))
        lam = 2.0 * math.pi * (q + 1)
        g0 = 1.0 / (2.0 * lam * math.tanh(0.5 * lam))
        if (4.0 * math.pi**2 * (q + 1) ** 2 - 16.0 * gamma * k * g0
                - 4.0 * gamma * a * (1.0 - a) / k) > best:
            return best
        q += 1


def test_threshold_gamma_large():
    # gamma_c beyond 2^19 is found up to gamma_max = 1e6
    gc = {k: stability_threshold_gamma(0.0, k).gamma_c for k in (23, 27, 28)}
    assert gc[23] == pytest.approx(585105.58, abs=0.01)
    assert gc[27] == pytest.approx(946063.08, abs=0.01)
    assert gc[28] is None
    for k in (23, 27):
        assert _dense_min_eig(k, 0.0, gc[k] - 1e-3) > 0
        assert _dense_min_eig(k, 0.0, gc[k] + 1e-3) < 0


def test_min_eigenvalue_matches_dense():
    for (k, m, gamma) in [(1, 0.0, 50.0), (3, -0.2, 300.0), (8, 0.3, 4e3),
                          (50, 0.1, 2e4)]:
        want = _dense_min_eig(k, m, gamma)
        rep = lamella_min_eigenvalue(k, m, gamma)
        assert rep.min_eigenvalue == pytest.approx(want, rel=1e-12)
        assert rep.scan["bloch_p"] == 0
        # the eigenvector against the dense M(q) of the attaining mode
        M = lamella_mode_matrix(k, m, gamma, rep.mode).matrix
        v = rep.eigenvector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
        assert (np.linalg.norm(M @ v - rep.min_eigenvalue * v)
                < 1e-12 * np.linalg.norm(M, 2))
    with pytest.raises(ValidationError):
        lamella_min_eigenvalue(1, 0.0, -1.0)


def _dense_a(k, m, q):
    """A(q) = 8 K(q) + 4 dnv I, dense, from the mode matrix's ingredients."""
    mm = lamella_mode_matrix(k, m, 0.0, q)
    return 8.0 * mm.kernel + 4.0 * mm.dnv * np.eye(2 * k), mm.dnv


def test_bloch_blocks_match_dense_spectrum():
    # the k blocks together carry the whole spectrum of A(q), so the p != 0
    # blocks are checked too, although the minimum sits at p = 0 here
    for k in (1, 2, 3, 4, 7, 50):
        for m in (-0.4, 0.0, 0.3):
            for q in (1, 2, 5):
                A, dnv = _dense_a(k, m, q)
                scale = np.linalg.norm(A, 2)
                alpha, beta = _bloch_blocks(k, 0.5 * (m + 1.0), q)
                low = 8.0 * (alpha - np.abs(beta)) + 4.0 * dnv
                high = 8.0 * (alpha + np.abs(beta)) + 4.0 * dnv
                pairs = np.sort(np.concatenate([low, high]))
                assert (np.abs(pairs - np.linalg.eigvalsh(A)).max()
                        < 1e-12 * scale), (k, m, q)
                assert np.argmin(low) == 0
                for p in range(k):
                    v = _bloch_vector(k, p, beta[p])
                    assert v[0] > 0
                    assert (np.linalg.norm(A @ v - low[p] * v)
                            < 1e-12 * scale), (k, m, q, p)


def test_single_strip_eigenvector_is_dense():
    # k = 1: the closed-form eigenvector is dense eigh's, sign included
    for m in (-0.4, 0.0, 0.3):
        for gamma in (1.0, 50.0, 300.0, 5000.0):
            rep = lamella_min_eigenvalue(1, m, gamma)
            want = np.linalg.eigh(_dense_a(1, m, rep.mode)[0])[1][:, 0]
            assert np.abs(rep.eigenvector - want).max() < 1e-15


def test_threshold_gamma_monotone_in_k():
    # gamma_c(m, k) strictly increases in k; None (stable up to gamma_max)
    # may only follow every finite value
    for m in (-0.3, 0.0, 0.25):
        gcs = [stability_threshold_gamma(m, k).gamma_c for k in range(1, 29)]
        finite = [g for g in gcs if g is not None]
        assert gcs[:len(finite)] == finite, m
        assert all(a < b for a, b in zip(finite, finite[1:])), m
        if m == 0.0:
            assert gcs[-1] is None and len(finite) == 27


@settings(derandomize=True, deadline=None, max_examples=25)
@given(m=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
       k=st.integers(1, 20))
def test_threshold_gamma_increases_with_strip_count(m, k):
    # a finite gamma_c for every k <= 21 and |m| < 1/2 (about 8e5 at the edge)
    lo = stability_threshold_gamma(m, k).gamma_c
    hi = stability_threshold_gamma(m, k + 1).gamma_c
    assert lo is not None and hi is not None and lo < hi, (m, k, lo, hi)


def test_small_gamma_always_stable():
    rep = lamella_min_eigenvalue(1, 0.0, 1e-3)
    assert rep.min_eigenvalue > 0


def test_threshold_k():
    assert stability_threshold_k(0.0, 0.1, k_max=20).k0 == 1
    rep = stability_threshold_k(0.0, 3 * GAMMA_C_SINGLE_STRIP, k_max=50)
    assert rep.k0 is not None and rep.k0 > 1
    assert all(e > 0 for e in rep.scan["eigs"][rep.k0 - 1:])
    # k0 nondecreasing in gamma
    k0s = [stability_threshold_k(0.0, f * GAMMA_C_SINGLE_STRIP, k_max=60).k0
           for f in (2.0, 8.0, 32.0)]
    assert k0s[0] <= k0s[1] <= k0s[2]


def test_boundary_form_reproduces_mode_matrices():
    gamma = 2.0
    mesh = boundary_mesh(lamella(1, 0.0), 128)
    form = assemble_boundary_form(mesh, gamma)
    n = 128
    x = np.arange(n) / n
    for q in (1, 2, 8, 16):
        M = lamella_mode_matrix(1, 0.0, gamma, q).matrix
        w, V = np.linalg.eigh(M)
        for i in range(2):
            vec = V[:, i]
            phi = np.concatenate([vec[0] * np.cos(2 * np.pi * q * x),
                                  vec[1] * np.cos(2 * np.pi * q * x)])
            ray = form.value(phi) / (phi @ (form.weights * phi))
            assert abs(ray - w[i]) < 0.01 * abs(w[i]), (q, i)


def test_log_quadrature_matches_per_pair_sum():
    # reference: the mode sum evaluated separately for every node pair
    for n in (7, 8, 64, 65, 128):
        t = np.arange(n) / n
        nu = np.arange(1, n // 2 + 1)
        w = np.where(2 * nu == n, 0.5, 1.0)
        cosd = np.cos(2.0 * np.pi * (t[:, None] - t[None, :])[..., None] * nu)
        want = (cosd * (w / (2.0 * np.pi * nu))).sum(axis=-1) / n**2
        assert np.array_equal(_log_quadrature_block(n), want), n


def _all_pairs_form(mesh, gamma):
    """Reference assembly: the Green function on all n^2 - n ordered node
    pairs in one call, dense diagonal matrices and out-of-place sums."""
    n = len(mesh.points)
    W = mesh.weights
    A = np.zeros((n, n))
    H1 = np.diag(W)
    for (i0, i1) in mesh.components:
        nc = i1 - i0
        Dt = periodic_derivative(np.eye(nc))
        Dtau = Dt / mesh.speeds[i0:i1][:, None]
        block = Dtau.T @ np.diag(W[i0:i1]) @ Dtau
        if nc % 2 == 0:
            e = np.where(np.arange(nc) % 2 == 0, 1.0, -1.0)
            inv_sp = float(np.mean(1.0 / mesh.speeds[i0:i1]))
            block += (np.pi * nc) ** 2 * 0.5 * inv_sp / nc**2 * np.outer(e, e)
        A[i0:i1, i0:i1] += block
        H1[i0:i1, i0:i1] += block
    A -= np.diag(W * mesh.curvature**2)
    if gamma > 0:
        pts = mesh.points
        off = ~np.eye(n, dtype=bool)
        G = np.zeros((n, n))
        G[off] = green_function_2d(np.broadcast_to(pts[:, None, :], (n, n, 2))[off],
                                   np.broadcast_to(pts[None, :, :], (n, n, 2))[off])
        for (i0, i1) in mesh.components:
            nc = i1 - i0
            t = np.arange(nc) / nc
            sin_t = 2.0 * np.abs(np.sin(np.pi * (t[:, None] - t[None, :])))
            diag = np.eye(nc, dtype=bool)
            blk = G[i0:i1, i0:i1]
            blk[~diag] += np.log(sin_t[~diag]) / (2.0 * np.pi)
            blk[diag] = (green2d_self_regularized()
                         + np.log(2.0 * np.pi / mesh.speeds[i0:i1]) / (2.0 * np.pi))
        G = G * W[:, None] * W[None, :]
        for (i0, i1) in mesh.components:
            sp = mesh.speeds[i0:i1]
            G[i0:i1, i0:i1] += _log_quadrature_block(i1 - i0) * sp[:, None] * sp[None, :]
        A += 8.0 * gamma * G
        if isinstance(mesh.shape, Lamella):
            dnv = mesh.shape.dnv
        else:
            g = make_grid(2, (DEFAULT_FIELD_GRID,) * 2)
            u = rasterize(mesh.shape, g)
            v = solve_poisson_periodic(ScalarField(g, u.values - u.mean()))
            gx, gy = spectral_gradient(v)
            dnv = (trig_interpolate(gx, mesh.points) * mesh.normals[:, 0]
                   + trig_interpolate(gy, mesh.points) * mesh.normals[:, 1])
        A += 4.0 * gamma * np.diag(W * dnv)
    return 0.5 * (A + A.T), 0.5 * (H1 + H1.T)


def _two_droplet_mesh(n):
    drops = DropletSet((Droplet((0.25, 0.3), 0.12), Droplet((0.7, 0.65), 0.18)))
    parts = [boundary_mesh(d, n) for d in drops.droplets]
    return BoundaryMesh(*(np.concatenate([getattr(m, name) for m in parts])
                          for name in ("points", "normals", "curvature", "weights")),
                        [(0, n), (n, 2 * n)],
                        np.concatenate([m.speeds for m in parts]), drops)


@pytest.mark.parametrize("mesh, gamma", [
    (boundary_mesh(Droplet((0.43, 0.57), 0.22), 256), 1.7),
    (boundary_mesh(Droplet((0.9, 0.05), 0.2), 64), 40.0),
    (_two_droplet_mesh(128), 3.0),
    (boundary_mesh(lamella(1, 0.1), 256), 2.0),
    (boundary_mesh(lamella(2, -0.2), 128), 5.0),
    (boundary_mesh(GraphPerturbation(lamella(1, 0.1), 0.02 * np.cos(
        2 * np.pi * np.outer([1, 2], np.arange(16)) / 16)), 128), 2.5),
    (boundary_mesh(lamella(1, 0.0), 64), 0.0)],
    ids=["droplet256", "droplet64-wrapped", "two-droplets", "lamella-k1",
         "lamella-k2", "graph", "gamma0"])
def test_boundary_form_matches_all_pairs_assembly(mesh, gamma):
    # chunked upper-triangle Green block, in-place blocks: the same bits
    form = assemble_boundary_form(mesh, gamma)
    A, H1 = _all_pairs_form(mesh, gamma)
    assert np.array_equal(form.matrix, A)
    assert np.array_equal(form.h1, H1)


@pytest.mark.parametrize("shape, n, limit_mb", [
    (lamella(2, -0.2), 256, 64.0), (Droplet((0.43, 0.57), 0.22), 256, 8.0)],
    ids=["lamella-k2", "droplet"])
def test_boundary_form_peak_memory(shape, n, limit_mb):
    # the Green function on all n^2 - n ordered pairs at once peaked at
    # 346 MB (k=2, 1024 nodes) and 23 MB (droplet)
    mesh = boundary_mesh(shape, n)
    assemble_boundary_form(mesh, 5.0)     # warm the caches
    tracemalloc.start()
    try:
        assemble_boundary_form(mesh, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6, peak / 1e6


def test_boundary_form_translation_nullity():
    mesh = boundary_mesh(lamella(1, 0.0), 128)
    form = assemble_boundary_form(mesh, 10.0)
    assert abs(translation_form_value(form, axis=1)) < 1e-6


def test_constrained_min_matches_exact():
    gamma = 2.0
    mesh = boundary_mesh(lamella(1, 0.0), 128)
    form = assemble_boundary_form(mesh, gamma)
    rep = constrained_min_eig(form)
    exact = lamella_min_eigenvalue(1, 0.0, gamma).min_eigenvalue
    assert abs(rep.min_eigenvalue - exact) < 0.01 * abs(exact)


def test_constrained_droplet_circle_spectrum():
    # gamma = 0: after removing mean and the two translations, the lowest
    # mode of int(phi'^2 - kappa^2 phi^2) on a circle is l=2: (l^2-1)/r^2
    r = 0.25
    mesh = boundary_mesh(Droplet((0.5, 0.5), r), 128)
    form = assemble_boundary_form(mesh, 0.0)
    rep = constrained_min_eig(form)
    assert rep.min_eigenvalue == pytest.approx(3.0 / r**2, rel=0.01)
    # translations are null directions of the unconstrained form
    for axis in (0, 1):
        assert abs(translation_form_value(form, axis)) < 1e-6


def test_constrained_min_eig_sees_rebound_eigh(monkeypatch):
    # a tracer counts eigensolves by rebinding np.linalg.eigh, so the
    # function must look it up on the module at call time
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return eigh(*args, **kwargs)
    form = assemble_boundary_form(boundary_mesh(Droplet((0.5, 0.5), 0.25), 64), 0.0)
    monkeypatch.setattr(np.linalg, "eigh", counting)
    constrained_min_eig(form)
    assert calls == [64 - 3]   # mean and two translations projected out


@pytest.mark.parametrize("norm", ["l2", "h1"])
@pytest.mark.parametrize("shape, gamma", [(Droplet((0.4, 0.55), 0.22), 1.5),
                                          (lamella(1, 0.2), 2.0)],
                         ids=["droplet", "lamella"])
def test_constrained_min_eig_matches_generalized_eigh(shape, gamma, norm):
    # oracle: LAPACK's generalized symmetric solver on the same reduction
    from scipy.linalg import eigh
    form = assemble_boundary_form(boundary_mesh(shape, 96), gamma)
    rep = constrained_min_eig(form, norm=norm)
    _, _, Vt = np.linalg.svd(form.constraints)
    Z = Vt[len(form.constraints):].T
    B = np.diag(form.weights) if norm == "l2" else form.h1
    want = eigh(Z.T @ form.matrix @ Z, Z.T @ B @ Z, eigvals_only=True)[0]
    assert abs(rep.min_eigenvalue - want) <= 1e-10 * abs(want)
    vec = rep.eigenvector
    assert abs(vec @ form.matrix @ vec / (vec @ B @ vec) - want) <= 1e-10 * abs(want)
    assert np.abs(form.constraints @ vec).max() < 1e-10 * np.abs(vec).max()


@pytest.mark.parametrize("norm", ["L2", "H1", "bogus", ""])
def test_constrained_min_eig_rejects_unknown_norm(norm):
    form = assemble_boundary_form(boundary_mesh(Droplet((0.5, 0.5), 0.25), 64), 1.0)
    with pytest.raises(ValidationError, match="norm"):
        constrained_min_eig(form, norm=norm)


@pytest.mark.parametrize("call, name", [
    (lambda: stability_threshold_k(0.0, 300.0, k_max=0), "k_max"),
    (lambda: stability_threshold_k(0.0, 300.0, k_max=2.5), "k_max"),
    (lambda: stability_threshold_gamma(0.0, 1, gamma_max=float("nan")), "gamma_max"),
    (lambda: stability_threshold_gamma(0.0, 1, gamma_max=-5.0), "gamma_max"),
], ids=["k_max=0", "k_max=2.5", "gamma_max=nan", "gamma_max=-5"])
def test_threshold_rejects_bad_cap(call, name):
    with pytest.raises(ValidationError, match=name):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: stability_threshold_gamma(0.0, 2.5), "k"),
    (lambda: stability_threshold_gamma(0.0, 0.0), "k"),
    (lambda: lamella_closed_form(2.5, 0.0, 1.0), "k"),
    (lambda: lamella_mode_matrix(1.5, 0.0, 1.0, 1), "k"),
    (lambda: lamella_mode_matrix(1, 0.0, 1.0, 1.5), "q"),
    (lambda: lamella_mode_matrix(1, 0.0, 1.0, -1), "q"),
], ids=["gamma_c k=2.5", "gamma_c k=0.0", "closed form k=2.5",
        "mode matrix k=1.5", "mode matrix q=1.5", "mode matrix q=-1"])
def test_non_integer_strip_count_or_mode_is_named(call, name):
    with pytest.raises(ValidationError, match=f"^(strip count )?{name} must be an integer"):
        call()


def test_numpy_integer_strip_count_and_mode_pass():
    k, q = np.arange(1, 3)
    want = lamella_mode_matrix(1, 0.0, 5.0, 2).matrix
    assert np.array_equal(lamella_mode_matrix(k, 0.0, 5.0, q).matrix, want)
    assert stability_threshold_gamma(0.0, np.int64(1)).gamma_c == pytest.approx(
        GAMMA_C_SINGLE_STRIP, rel=1e-6)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
def test_boundary_form_rejects_bad_gamma(gamma):
    mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 64)
    with pytest.raises(ValidationError, match="gamma must be finite and nonnegative"):
        assemble_boundary_form(mesh, gamma)


def test_h1_normalization_smaller():
    mesh = boundary_mesh(lamella(1, 0.0), 128)
    form = assemble_boundary_form(mesh, 2.0)
    l2 = constrained_min_eig(form, norm="l2").min_eigenvalue
    h1 = constrained_min_eig(form, norm="h1").min_eigenvalue
    assert 0 < h1 < l2   # H^1 norm dominates L^2


def test_fd_check_single_mode():
    base = lamella(1, 0.0)
    n = 64
    x = np.arange(n) / n
    psi = np.zeros((2, n))
    psi[0] = np.cos(2 * np.pi * x)
    rep = finite_difference_check(base, psi, 1.0)
    assert abs(rep.ratio - 1.0) < 0.01


def test_fd_check_richardson_uses_two_smallest_steps():
    # extrapolate only when the two smallest steps halve, whatever the others
    x = np.arange(64) / 64
    psi = np.zeros((2, 64))
    psi[0] = np.cos(2 * np.pi * x)
    rep = finite_difference_check(lamella(1, 0.0), psi, 1.0, t_list=(0.05, 0.02, 0.01))
    d2 = rep.second_differences
    assert rep.richardson == (4.0 * d2[-1] - d2[-2]) / 3.0
    rep = finite_difference_check(lamella(1, 0.0), psi, 1.0, t_list=(0.04, 0.02, 0.005))
    assert rep.richardson == rep.second_differences[-1]


def _nyquist_rows(n):
    # 0.5 (-1)^j; at amplitude 1 and n=16 the steps t=0.02, 0.01 tilt the
    # interface by ~1 and the Richardson value itself is off by 1e-2
    psi = np.zeros((2, n))
    psi[0] = 0.5 * np.cos(np.pi * np.arange(n))
    return psi


@pytest.mark.parametrize("psi", [0.5 * np.random.default_rng(1).normal(size=(2, 16)),
                                 _nyquist_rows(16), _nyquist_rows(8)],
                         ids=["random16", "nyquist16", "nyquist8"])
def test_fd_check_generic_and_nyquist_rows(psi):
    # node rows with weight in every lateral mode, the Nyquist mode included:
    # the energy's heights and the form's Parseval weights must agree on it
    rep = finite_difference_check(lamella(1, 0.0), psi, 2.0)
    assert abs(rep.ratio - 1.0) <= 1e-2


def test_fd_check_gamma_zero_is_dirichlet():
    base = lamella(1, 0.0)
    n = 64
    x = np.arange(n) / n
    psi = np.zeros((2, n))
    psi[1] = np.cos(4 * np.pi * x) + 0.3 * np.sin(2 * np.pi * x)
    rep = finite_difference_check(base, psi, 0.0)
    want = np.mean((4 * np.pi * -np.sin(4 * np.pi * x)
                    + 0.3 * 2 * np.pi * np.cos(2 * np.pi * x)) ** 2)
    assert rep.richardson == pytest.approx(want, rel=0.01)
    assert rep.form_value == pytest.approx(want, rel=1e-10)


def test_fd_check_translation_flat():
    base = lamella(1, 0.0)
    psi = np.ones((2, 32))
    rep = finite_difference_check(base, psi, 5.0)
    assert abs(rep.richardson) < 1e-8
    assert rep.form_value == 0.0


def test_form_value_matches_mode_sum():
    base = lamella(2, 0.2)
    n = 32
    rng = np.random.default_rng(6)
    phi = rng.standard_normal((4, n))
    total = lamella_form_value(base, phi, 3.0)
    # independent accumulation via explicit mode loop
    c = np.fft.rfft(phi, axis=1) / n
    acc = 0.0
    for q in range(n // 2 + 1):
        M = lamella_mode_matrix(2, 0.2, 3.0, q).matrix
        mult = {0: 1.0, n // 2: 0.5}.get(q, 2.0)   # Nyquist cosine: mean square 1/2
        acc += mult * float(np.real(np.conj(c[:, q]) @ M @ c[:, q]))
    assert total == pytest.approx(acc, rel=1e-12)


def test_unstable_direction_decreases_energy():
    gamma = 2 * GAMMA_C_SINGLE_STRIP
    rep = lamella_min_eigenvalue(1, 0.0, gamma)
    assert rep.min_eigenvalue < 0
    base = lamella(1, 0.0)
    n = 64
    x = np.arange(n) / n
    _, sgn = base.interfaces()
    phi = rep.eigenvector[:, None] * np.cos(2 * np.pi * rep.mode * x)[None, :]
    psi = sgn[:, None] * phi
    fd = finite_difference_check(base, psi, gamma, t_list=(0.01, 0.005))
    assert fd.second_differences[-1] < 0  # J(E_t) < J(E) for small t
