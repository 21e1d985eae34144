import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okstab.energy import GridPotential, lamella_closed_form
from okstab.shapes import (BoundaryMesh, Droplet, DropletSet, GraphPerturbation,
                           Lamella, LamellaPotential, boundary_mesh, lamella,
                           periodic_samples)
from okstab.stability import (K_MAX, QuadraticFormMatrix, _bloch_blocks, _bloch_vector,
                              _d_over_cube, _self_panel, assemble_boundary_form,
                              constrained_min_eig, finite_difference_check,
                              lamella_form_value, lamella_min_eigenvalue,
                              lamella_mode_matrix, stability_threshold_gamma,
                              stability_threshold_k)
from okstab.torus import (NumericalError, ValidationError, green2d_self_regularized,
                          green_function_2d, green_kernel_screened)
from oracles import (gamma_c_mode_scan, interface_normal_derivative,
                     log_quadrature_per_pair, traced_peak,
                     translation_form_value)

GAMMA_C_SINGLE_STRIP = 94.87206216585848   # regression value, m=0, k=1


def test_mode_matrix_ingredients():
    # q = 0, gamma = 1: M = 8 K(0) + 4 dnv I with K(0) the circle kernel at
    # separations 0 and 1/2, dnv = -a(1-a)/k = -1/4
    M = lamella_mode_matrix(1, 0.0, 1.0, 0).matrix
    want = 8.0 * np.array([[1 / 12, -1 / 24], [-1 / 24, 1 / 12]]) - np.eye(2)
    assert np.allclose(M, want, atol=1e-14)
    # M(q)_ii all equal by translation invariance of the pattern
    diag = np.diag(lamella_mode_matrix(3, 0.2, 2.0, 4).matrix)
    assert np.ptp(diag) <= 1e-15 * np.abs(diag).max()


def test_mode_matrix_rejects_a_kernel_that_is_not_even(monkeypatch):
    # M(q) is not symmetrized: the symmetry check guards the kernel's evenness
    from okstab import stability
    even = stability.green_kernel_screened
    monkeypatch.setattr(stability, "green_kernel_screened",
                        lambda q, s: even(q, s) + 1e-6 * np.asarray(s))
    with pytest.raises(NumericalError, match="lost symmetry"):
        lamella_mode_matrix(2, 0.1, 1.0, 3)


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
            pot = LamellaPotential(Lamella(k, m, axis=0, dim=1))
            dnv = interface_normal_derivative(pot)
            assert np.abs(dnv + a * (1 - a) / k).max() < 1e-14


def test_threshold_gamma_regression():
    rep = stability_threshold_gamma(0.0, 1)
    assert rep.gamma_c == pytest.approx(GAMMA_C_SINGLE_STRIP, abs=2e-6)
    assert rep.scan["bloch_p"] == 0 and rep.mode == 1 and rep.min_eigenvalue == 0.0
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
    # gamma_c past 1e6, where a gamma_max = 1e6 cap once reported "stable"
    gc = {k: stability_threshold_gamma(0.0, k).gamma_c for k in (23, 27, 28)}
    assert gc[23] == pytest.approx(585105.58, abs=0.01)
    assert gc[27] == pytest.approx(946063.08, abs=0.01)
    assert gc[28] == pytest.approx(1055022.45, abs=0.01)
    for k in (23, 27, 28):
        assert _dense_min_eig(k, 0.0, gc[k] - 1e-3) > 0
        assert _dense_min_eig(k, 0.0, gc[k] + 1e-3) < 0


def test_spectrum_past_the_kernel_overflow():
    # g_q overflowed from q = 224: at gamma = 1e9 the scan reached q = 224,
    # where the kernel read 0.0 (then NaN), and took it as the minimizing mode
    rep = lamella_min_eigenvalue(20, 0.0, 1e9)
    assert rep.mode == 201
    assert rep.min_eigenvalue == pytest.approx(-4.5237769901e7, rel=1e-9)
    assert rep.min_eigenvalue == pytest.approx(_dense_min_eig(20, 0.0, 1e9), rel=1e-12)
    # k0 = 276 at gamma = 1e9 (the k0 scan to k_max = 400 returned None); the
    # sign change it rests on, and the top of the scan, at ~0.2 s per k
    assert lamella_min_eigenvalue(275, 0.0, 1e9).min_eigenvalue < 0
    assert lamella_min_eigenvalue(276, 0.0, 1e9).min_eigenvalue > 0
    assert lamella_min_eigenvalue(400, 0.0, 1e9).min_eigenvalue > 0
    # a bogus q = 224 mode put gamma_c at 2.085e9 (80 % low)
    rep = stability_threshold_gamma(-0.9, 200)
    assert rep.mode == 1
    assert rep.gamma_c == pytest.approx(1.06373e10, rel=1e-5)


def test_form_value_on_modes_past_the_kernel_overflow():
    # 512 lateral samples reach q = 256 > 226, where M(q) was NaN
    base = lamella(2, 0.3)
    x = np.arange(512) / 512
    v = np.array([0.3, -1.0, 0.5, 0.2])
    for q in (3, 240):
        phi = np.outer(v, np.cos(2 * np.pi * q * x))
        want = 0.5 * v @ lamella_mode_matrix(2, 0.3, 7.0, q).matrix @ v
        assert lamella_form_value(base, phi, 7.0) == pytest.approx(want, rel=1e-12)


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
    """A(q) = 8 K(q) + 4 dnv I, dense, from the screened kernel at the
    interface separations and the lamella's dnv."""
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    pos, _ = shape.interfaces()
    K = green_kernel_screened(q, pos[:, None] - pos[None, :])
    return 8.0 * K + 4.0 * shape.dnv * np.eye(2 * k), shape.dnv


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
    # gamma_c(m, k) is finite and strictly increases in k
    for m in (-0.3, 0.0, 0.25):
        gcs = [stability_threshold_gamma(m, k).gamma_c for k in range(1, 29)]
        assert all(math.isfinite(g) for g in gcs), m
        assert all(a < b for a, b in zip(gcs, gcs[1:])), m


def test_threshold_gamma_matches_mode_scan():
    # the scan over every lateral mode and Bloch branch picks q = 1, p = 0;
    # its cancellation grows like k^4 (1.1e-9 relative at k = 20)
    for m in (-0.9, -0.5, -0.1, 0.0, 0.3, 0.7, 0.95):
        for k in range(1, 21):
            want, q, p = gamma_c_mode_scan(m, k)
            assert (q, p) == (1, 0), (m, k)
            got = stability_threshold_gamma(m, k).gamma_c
            assert abs(got - want) <= max(1e-13, 2e-14 * k**4) * want, (m, k)


def test_threshold_gamma_is_where_the_dense_minimum_changes_sign():
    # dense eigvalsh over every mode, on both sides of gamma_c; the report's
    # alternating vector spans the kernel of M(1) there
    for m, k in ((-0.6, 1), (0.0, 2), (0.4, 5), (-0.2, 13)):
        rep = stability_threshold_gamma(m, k)
        gc = rep.gamma_c
        assert _dense_min_eig(k, m, gc * (1.0 - 1e-9)) > 0 > _dense_min_eig(
            k, m, gc * (1.0 + 1e-9)), (m, k)
        M = lamella_mode_matrix(k, m, gc, 1).matrix
        v = rep.eigenvector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert np.abs(v * np.sqrt(2 * k) - np.tile([1.0, -1.0], k)).max() < 1e-15
        assert np.linalg.norm(M @ v) < 1e-12 * np.linalg.norm(M, 2), (m, k)


def _d_direct(x, a):
    b = 1.0 - a
    return a * b * x - np.sinh(a * x) * np.sinh(b * x) / np.sinh(x)


_EXACT_A = (Fraction(1, 7), Fraction(1, 2), Fraction(3, 5), Fraction(9, 10),
            Fraction(99, 100), 1 - Fraction(1, 10**6))


def _t_coefficients(a, n_max):
    """[T_0 .. T_n_max] of D(x) sinh x = 8 a^2 b^2 sum_{n>=2} T_n x^{2n}/(2n)!,
    exact: T_n = sum_{j<n} S_j, S_j = sum_{i<j} c^{2i}, c = a - b."""
    c2, s, t = (2 * a - 1) ** 2, Fraction(0), [Fraction(0)]
    for n in range(1, n_max + 1):
        t.append(t[-1] + s)             # T_n = T_{n-1} + S_{n-1}
        s += c2 ** (n - 1)              # S_n = S_{n-1} + c^{2(n-1)}
    return t


def test_mode_one_is_critical():
    # the module docstring's coefficient-ratio inequalities, in exact
    # rationals for j < 100 (closest to their bounds as a -> 1): the ratio
    # r_j = T_{j+2} (2j+1)!/(2j+4)! of D(x)/x^3 falls by at least (2j+3)/(2j+5),
    # so mode 1 is critical, and T_n/(2n) of D(x)/x strictly increases, so
    # gamma_c increases in k
    for a in _EXACT_A:
        t = _t_coefficients(a, 103)
        r = [t[j + 2] / ((2 * j + 2) * (2 * j + 3) * (2 * j + 4)) for j in range(101)]
        assert all(r[j + 1] * (2 * j + 5) <= r[j] * (2 * j + 3) for j in range(100)), a
        assert all(t[n] * (n + 1) < t[n + 1] * n for n in range(1, 101)), a
        # they are the library's coefficients: its float series at x = 1
        ab2 = (a * (1 - a)) ** 2
        d = 8 * ab2 * sum(t[n] / math.factorial(2 * n) for n in range(2, 30))
        sinh1 = sum(Fraction(1, math.factorial(2 * j + 1)) for j in range(30))
        assert _d_over_cube(1.0, float(a)) == pytest.approx(float(d / sinh1), rel=1e-14), a
    # one float spot check: x^3/D(x) increases, the library's series on
    # (0, pi], the direct form on [pi, 60]; the two forms agree on [1, pi]
    x_lo, x_hi = np.linspace(1e-3, np.pi, 400), np.linspace(np.pi, 60.0, 400)
    lo = np.array([1.0 / _d_over_cube(x, 0.3) for x in x_lo])
    hi = x_hi**3 / _d_direct(x_hi, 0.3)
    assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
    assert hi[0] == pytest.approx(lo[-1], rel=1e-12)
    mid = np.linspace(1.0, np.pi, 9)
    for a in (0.01, 1 / 7, 0.3, 0.5, 0.9, 0.99):
        assert np.allclose([_d_over_cube(x, a) for x in mid],
                           _d_direct(mid, a) / mid**3, rtol=1e-12, atol=0), a
    # D is the p = 0 eigenvalue of A(q): mu(q) = -4 D(pi q/k)/(pi q)
    for k, m, q in ((1, 0.0, 1), (3, 0.3, 2), (7, -0.5, 5), (20, 0.1, 13)):
        x = np.pi * q / k
        mu = np.linalg.eigvalsh(_dense_a(k, m, q)[0])[0]
        want = -4.0 * x**3 * _d_over_cube(x, 0.5 * (m + 1.0)) / (np.pi * q)
        assert mu == pytest.approx(want, rel=1e-12), (k, m, q)


def test_closed_form_gamma_c_pins_a6_frozen_value():
    # A6 keeps its 2e-6 bar; the closed form meets its frozen gamma_c to
    # 1.4e-14 (1.5e-16 relative), so a 1e-12 relative check tells a frozen
    # value moved by 1e-10 (1.05e-12 relative)
    from test_acceptance import GAMMA_C
    got = stability_threshold_gamma(0.0, 1).gamma_c

    def matches(frozen):
        return abs(got - frozen) <= 1e-12 * frozen
    assert GAMMA_C == GAMMA_C_SINGLE_STRIP and matches(GAMMA_C)
    assert not matches(GAMMA_C + 1e-10) and not matches(GAMMA_C - 1e-10)


def test_threshold_gamma_cubic_growth():
    # gamma_c/k^3 = (3/(a b)^2)(1 + (3 - c^2) x^2/30 + O(x^4)), x = pi/k, c = m
    for m in (-0.8, 0.0, 0.5):
        a = 0.5 * (m + 1.0)
        for k in (10, 100, 1000, 10_000):
            x = np.pi / k
            ratio = stability_threshold_gamma(m, k).gamma_c / k**3 * (a * (1 - a))**2 / 3
            assert abs(ratio - 1.0 - (3.0 - m * m) * x * x / 30.0) < x**4, (m, k)


@pytest.mark.parametrize("m, k, want", [
    (0.0, 40, 3073894.9501303784),       # once reported "stable" past gamma_max = 1e6
    (-0.9, 200, 1.0637310708595867e10),  # once 80 % low, at a bogus q = 224 mode
    (0.0, 2000, 3.8400009474820197e11),  # once 29 205 modes scanned to a wrong one
])
def test_threshold_gamma_pinned_values(m, k, want):
    # from D(x) = abx - sinh(ax) sinh(bx)/sinh x in 60-digit arithmetic
    assert stability_threshold_gamma(m, k).gamma_c == pytest.approx(want, rel=1e-13)


def test_threshold_gamma_scans_no_modes(monkeypatch):
    from okstab import stability

    def no_scan(*args):
        raise AssertionError("mode scanned")
    monkeypatch.setattr(stability, "_bloch_blocks", no_scan)
    monkeypatch.setattr(stability, "green_kernel_screened", no_scan)
    monkeypatch.setattr(stability, "lamella_mode_matrix", no_scan)
    assert stability_threshold_gamma(0.0, 2000).gamma_c == pytest.approx(
        3.8400009474820197e11, rel=1e-13)


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
    assert stability_threshold_k(0.0, 0.1).k0 == 1
    rep = stability_threshold_k(0.0, 3 * GAMMA_C_SINGLE_STRIP)
    assert rep.k0 is not None and rep.k0 > 1
    assert len(rep.scan["eigs"]) == K_MAX == 200
    assert all(e > 0 for e in rep.scan["eigs"][rep.k0 - 1:])
    # k0 nondecreasing in gamma
    k0s = [stability_threshold_k(0.0, f * GAMMA_C_SINGLE_STRIP).k0
           for f in (2.0, 8.0, 32.0)]
    assert k0s[0] <= k0s[1] <= k0s[2]


def test_scan_reports_carry_results_not_arguments():
    # what the caller passed is the caller's; a report keeps what was found
    assert set(lamella_min_eigenvalue(2, 0.1, 50.0).scan) == {"q_scanned", "bloch_p"}
    assert set(stability_threshold_gamma(0.1, 2).scan) == {"bloch_p"}
    assert set(stability_threshold_k(0.1, 300.0).scan) == {"eigs"}
    form = assemble_boundary_form(boundary_mesh(lamella(1, 0.1), 64), 5.0)
    assert constrained_min_eig(form).scan == {"n": 128, "n_constraints": 2}


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


def _log_sin_term(n):
    """log(2|sin pi(i - j)/n|)/(2 pi n^2) off the diagonal, 0 on it."""
    d = np.arange(n)
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((n, n))
    out[off] = np.log(2.0 * np.abs(np.sin(np.pi * (d[:, None] - d)[off] / n)))
    return out / (2.0 * np.pi * n**2)


def test_log_quadrature_matches_per_pair_sum():
    # reference: the mode sum evaluated separately for every node pair, plus
    # the log-sin term that the column carries in place of the pair loop
    for n in (7, 8, 64, 65, 128):
        got = _self_panel(n)
        want = log_quadrature_per_pair(n) + _log_sin_term(n)
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= 4e-15, (n, err)     # measured <= 2.5e-15 (n = 128)


def _all_pairs_form(mesh, gamma, log_sin=True):
    """Reference assembly: the Green function on all n^2 - n ordered node
    pairs in one call, made smooth on each self panel by its log-sin term
    (dropped when log_sin is False), dense diagonal matrices, out-of-place
    sums, and the log kernel's quadrature summed per node pair."""
    n = len(mesh.points)
    W = mesh.weights
    A = np.zeros((n, n))
    for (i0, i1) in mesh.components:
        nc = i1 - i0
        Dt = periodic_samples(np.eye(nc), nc, 1)
        Dtau = Dt / mesh.speeds[i0:i1][:, None]
        block = Dtau.T @ np.diag(W[i0:i1]) @ Dtau
        if nc % 2 == 0:
            e = np.where(np.arange(nc) % 2 == 0, 1.0, -1.0)
            inv_sp = float(np.mean(1.0 / mesh.speeds[i0:i1]))
            block += (np.pi * nc) ** 2 * 0.5 * inv_sp / nc**2 * np.outer(e, e)
        A[i0:i1, i0:i1] += block
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
            if log_sin:
                blk[~diag] += np.log(sin_t[~diag]) / (2.0 * np.pi)
            blk[diag] = (green2d_self_regularized()
                         + np.log(2.0 * np.pi / mesh.speeds[i0:i1]) / (2.0 * np.pi))
        G = G * W[:, None] * W[None, :]
        for (i0, i1) in mesh.components:
            sp = mesh.speeds[i0:i1]
            G[i0:i1, i0:i1] += log_quadrature_per_pair(i1 - i0) * sp[:, None] * sp[None, :]
        A += 8.0 * gamma * G
        if isinstance(mesh.shape, Lamella):
            dnv = mesh.shape.dnv
        else:   # checked against grid_potential_chain in test_energy.py
            dnv = GridPotential(mesh.shape).dnv_on_mesh(mesh)
        A += 4.0 * gamma * np.diag(W * dnv)
    return 0.5 * (A + A.T)


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
    # the self panels sum in another order than the reference: measured
    # <= 2.8e-18 max|A| (droplet64-wrapped), 0 on the lamellae
    A = assemble_boundary_form(mesh, gamma).matrix
    assert np.abs(A - _all_pairs_form(mesh, gamma)).max() <= 1e-16 * np.abs(A).max()


def test_all_pairs_comparison_fails_without_the_log_sin_term():
    # the lamella-k1 case above, against a reference without the self
    # panels' log-sin term: off by 1.7e-7 max|A|, the least of the six
    # gamma > 0 cases (measured), so that comparison can fail
    mesh = boundary_mesh(lamella(1, 0.1), 256)
    A = assemble_boundary_form(mesh, 2.0).matrix
    assert np.abs(A - _all_pairs_form(mesh, 2.0, log_sin=False)).max() > 1e-8 * np.abs(A).max()


@pytest.mark.parametrize("shape, n, limit_mb", [
    (lamella(2, -0.2), 256, 32.0), (Droplet((0.43, 0.57), 0.22), 256, 8.0)],
    ids=["lamella-k2", "droplet"])
def test_boundary_form_peak_memory(shape, n, limit_mb):
    # the Green function on all n^2 - n ordered pairs at once peaked at
    # 346 MB (k=2, 1024 nodes) and 23 MB (droplet); a symmetry check through
    # |A - A.T| at 34.8 MB (k=2)
    mesh = boundary_mesh(shape, n)
    peak = traced_peak(lambda: assemble_boundary_form(mesh, 5.0))
    assert peak < limit_mb * 1e6, peak / 1e6


def test_constrained_min_eig_l2_peak_memory():
    # a dense diag(weights) mass and a second SVD peaked at 3.61 MB
    form = assemble_boundary_form(boundary_mesh(Droplet((0.43, 0.57), 0.22), 256), 5.0)
    peak = traced_peak(lambda: constrained_min_eig(form))
    assert peak < 3.3e6, peak / 1e6


def test_rank_deficient_constraints_rejected():
    form = assemble_boundary_form(boundary_mesh(lamella(1, 0.0), 64), 1.0)
    C = form.constraints
    for bad in (np.vstack([C, C[0]]), np.vstack([C, C[0] + 1e-14 * C[-1]])):
        with pytest.raises(ValidationError, match="rank deficient"):
            constrained_min_eig(dataclasses.replace(form, constraints=bad))


def test_asymmetric_form_rejected():
    form = assemble_boundary_form(boundary_mesh(lamella(1, 0.0), 64), 1.0)
    A = form.matrix.copy()
    A[0, 1] += 1e-12 * np.abs(A).max()      # within the tolerance
    QuadraticFormMatrix(A, form.weights, form.constraints)
    A[0, 1] += 1e-9 * np.abs(A).max()
    with pytest.raises(NumericalError, match="lost symmetry"):
        QuadraticFormMatrix(A, form.weights, form.constraints)


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


@pytest.mark.parametrize("shape, gamma", [(Droplet((0.4, 0.55), 0.22), 1.5),
                                          (lamella(1, 0.2), 2.0)],
                         ids=["droplet-l2", "lamella-l2"])
def test_constrained_min_eig_matches_generalized_eigh(shape, gamma):
    # oracle: LAPACK's generalized symmetric solver on the same reduction
    from scipy.linalg import eigh
    form = assemble_boundary_form(boundary_mesh(shape, 96), gamma)
    rep = constrained_min_eig(form)
    _, _, Vt = np.linalg.svd(form.constraints)
    Z = Vt[len(form.constraints):].T
    B = np.diag(form.weights)
    want = eigh(Z.T @ form.matrix @ Z, Z.T @ B @ Z, eigvals_only=True)[0]
    assert abs(rep.min_eigenvalue - want) <= 1e-10 * abs(want)
    vec = rep.eigenvector
    assert abs(vec @ form.matrix @ vec / (vec @ B @ vec) - want) <= 1e-10 * abs(want)
    assert np.abs(form.constraints @ vec).max() < 1e-10 * np.abs(vec).max()


def test_constrained_min_eig_on_varying_weights():
    # a graph perturbation's nodes carry unequal arc-length weights, so the
    # whitening by W^-1/2 is not a mere rescaling: the eigenpair must still
    # solve the generalized problem, meet the constraints and have phi' W phi = 1
    from scipy.linalg import eigh
    psi = 0.05 * np.cos(2 * np.pi * np.outer([1, 3], np.arange(16)) / 16)
    form = assemble_boundary_form(boundary_mesh(GraphPerturbation(lamella(1, 0.1), psi), 96),
                                  2.5)
    W = form.weights
    assert W.max() > 1.1 * W.min()
    rep = constrained_min_eig(form)
    _, _, Vt = np.linalg.svd(form.constraints)
    Z = Vt[len(form.constraints):].T
    want = eigh(Z.T @ form.matrix @ Z, (Z.T * W) @ Z, eigvals_only=True)[0]
    assert abs(rep.min_eigenvalue - want) <= 1e-10 * abs(want)
    phi = rep.eigenvector
    assert abs(phi @ (W * phi) - 1.0) < 1e-12
    assert abs(phi @ form.matrix @ phi - want) <= 1e-10 * abs(want)
    assert np.abs(form.constraints @ phi).max() < 1e-10 * np.abs(phi).max()


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


def test_fd_check_needs_one_row_per_interface():
    # one row would broadcast over both interfaces of a k = 1 lamella
    row = 0.01 * np.cos(2 * np.pi * np.arange(8) / 8)
    for rows in (1, 3):
        with pytest.raises(ValidationError, match="2k rows"):
            finite_difference_check(lamella(1, 0.0), np.tile(row, (rows, 1)), 1.0)


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
