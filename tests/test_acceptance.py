"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Each criterion pins its tolerance explicitly; oracles are either closed
forms, independent brute-force recomputations, or frozen regression values
derived with independent methods.
"""

import numpy as np
import pytest
from scipy.special import polygamma

from okstab.energy import (el_residual, graph_energy, isoperimetric_compare,
                           lamella_closed_form, nonlocal_energy_field,
                           nonlocal_lipschitz_check, strip_disc_crossing,
                           volume_corrected_perturbation)
from okstab.flow import (diffuse_energy, profile_constant, run_flow,
                         sharp_gamma_to_gamma0, tanh_profile)
from okstab.shapes import (GraphPerturbation, Lamella, LamellaPotential,
                           alpha_distance, boundary_mesh, lamella, rasterize)
from okstab.stability import (assemble_boundary_form, finite_difference_check,
                              lamella_min_eigenvalue, lamella_mode_matrix,
                              stability_threshold_gamma, stability_threshold_k)
from okstab.torus import (ScalarField, green_kernel_screened, make_grid,
                          solve_poisson_periodic, trig_interpolate)
from oracles import (interface_normal_derivative, lamella_source_field, laplacian,
                     translation_form_value)

GAMMA_C = 94.87206216585848   # frozen regression: m=0, k=1 threshold


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# A1: spectral solver + lamella potential closed form
# ---------------------------------------------------------------------------

def test_a1_spectral_solver_and_lamella_potential():
    # manufactured band-limited solution on 256^2
    g = make_grid(2, (256, 256))
    rng = np.random.default_rng(11)
    spec = np.zeros((256, 256), dtype=complex)
    for _ in range(40):
        i, j = rng.integers(-20, 21, size=2)
        c = rng.normal() + 1j * rng.normal()
        spec[i % 256, j % 256] += c
        spec[(-i) % 256, (-j) % 256] += np.conj(c)
    spec[0, 0] = 0.0
    f = ScalarField(g, np.fft.ifftn(spec).real * 256**2)
    v = solve_poisson_periodic(f)
    res = np.abs(-laplacian(v) - f.values).max()
    bar1 = 1e-10 * np.abs(f.values).max()
    ok1 = res <= bar1 and abs(v.mean()) <= 1e-10

    # lamella potential vs the piecewise-quadratic closed form, sampled at
    # 1024 axis points (solve on a refined 4096 grid, evaluate by trig
    # interpolation at the coarse cell centers)
    sh = Lamella(k=1, m=0.0, axis=0, dim=1)
    pot = LamellaPotential(sh)
    gf = make_grid(1, (4096,))
    u = rasterize(sh, gf)
    vf = solve_poisson_periodic(ScalarField(gf, u.values - u.values.mean()))
    xs = make_grid(1, (1024,)).axis_coords(0)
    prof_err = np.abs(trig_interpolate(vf, xs) - pot.v(xs)).max()
    ok2 = prof_err <= 1e-8

    a = sh.a
    dn_err = np.abs(interface_normal_derivative(pot) + a * (1 - a)).max()
    en_err = abs(pot.dirichlet_energy() - a**2 * (1 - a) ** 2 / 3)
    # numeric nonlocal energy at m=0 equals 1/48: the spectral sum of the
    # band-limited source on 1024 points
    num = nonlocal_energy_field(lamella_source_field(sh, 1024))
    ok3 = dn_err <= 1e-14 and en_err <= 1e-14 and abs(num - 1 / 48) <= 1e-8

    _report("A1", ok1 and ok2 and ok3,
            f"residual {res:.2e} (bar {bar1:.2e}), profile err {prof_err:.2e}"
            f" (bar 1e-8), nonlocal-at-m=0 err {abs(num - 1 / 48):.2e}")


# ---------------------------------------------------------------------------
# A2: screened circle kernels vs 1e5-term spectral sums
# ---------------------------------------------------------------------------

def test_a2_green_kernels():
    ok_exact = (abs(green_kernel_screened(0, 0.0) - 1 / 12) < 1e-15
                and abs(green_kernel_screened(0, 0.5) + 1 / 24) < 1e-15)
    N = 100_000
    n = np.arange(1, N + 1)
    tail0 = 2.0 / (4 * np.pi**2) * float(polygamma(1, N + 1))
    worst = 0.0
    for q in range(0, 9):
        lam2 = (2 * np.pi * q) ** 2
        for s in (0.0, 0.13, 0.37, 0.5):
            val = (2 * np.cos(2 * np.pi * n * s)
                   / (4 * np.pi**2 * n**2 + lam2)).sum()
            if s == 0.0:
                val += tail0
            if q > 0:
                val += 1.0 / lam2
            worst = max(worst, abs(green_kernel_screened(q, s) - val))
    ok = ok_exact and worst <= 1e-10
    _report("A2", ok, f"g0 values exact, max |kernel - sum| {worst:.2e}"
            " over q<=8 (bar 1e-10)")


# ---------------------------------------------------------------------------
# A3: translation nullity, algebraic and boundary-element
# ---------------------------------------------------------------------------

def test_a3_translation_nullity():
    worst_alg = 0.0
    for (k, m, g) in [(1, 0.0, 10.0), (2, 0.3, 50.0), (3, -0.2, 200.0)]:
        mm = lamella_mode_matrix(k, m, g, 0)
        _, sgn = lamella(k, m).interfaces()
        scale = max(1.0, np.abs(mm.matrix).max())
        worst_alg = max(worst_alg, np.abs(mm.matrix @ sgn).max() / scale)
    ok_alg = worst_alg <= 1e-13   # algebraic cancellation, round-off only

    mesh = boundary_mesh(lamella(1, 0.0), 128)
    form = assemble_boundary_form(mesh, 10.0)
    rel = abs(translation_form_value(form, axis=1)) / (4 * np.pi**2)
    ok_bem = rel <= 1e-6
    _report("A3", ok_alg and ok_bem,
            f"mode-matrix nullity {worst_alg:.2e} (round-off), assembled"
            f" relative nullity {rel:.2e} (bar 1e-6)")


# ---------------------------------------------------------------------------
# A4: finite differences of J vs the quadratic form, >= 5 directions
# ---------------------------------------------------------------------------

def test_a4_second_variation_fd():
    n = 64
    x = np.arange(n) / n
    cases = []
    psi = np.zeros((2, n)); psi[0] = np.cos(2 * np.pi * x)
    cases.append((lamella(1, 0.0), psi, 1.0))
    psi = np.zeros((2, n)); psi[1] = np.sin(4 * np.pi * x)
    cases.append((lamella(1, 0.0), psi, 20.0))
    psi = np.vstack([np.cos(2 * np.pi * x) + 0.5 * np.sin(6 * np.pi * x),
                     -np.cos(2 * np.pi * x)])
    cases.append((lamella(1, 0.0), psi, 5.0))
    rng = np.random.default_rng(21)
    psi = rng.standard_normal((4, 8)) @ np.cos(
        2 * np.pi * np.arange(1, 9)[:, None] * x[None, :]) / 8
    cases.append((lamella(2, 0.2), psi, 5.0))
    psi = np.zeros((4, n)); psi[2] = np.cos(2 * np.pi * x) + 0.2
    cases.append((lamella(2, -0.3), psi, 2.0))

    worst = 0.0
    for base, psi, gamma in cases:
        rep = finite_difference_check(base, psi, gamma)
        worst = max(worst, abs(rep.ratio - 1.0))
    ok = worst <= 0.01
    _report("A4", ok, f"{len(cases)} directions, max |ratio-1| {worst:.2e}"
            " (bar 1e-2)")


# ---------------------------------------------------------------------------
# A5: strip/disc crossing and T^3 ranking
# ---------------------------------------------------------------------------

def test_a5_candidate_comparison():
    # at the crossing the perimeters agree; just inside it the strip wins,
    # just outside the disc
    cross = strip_disc_crossing()
    per_at = [{r["name"]: r["perimeter"] for r in isoperimetric_compare(mm, 2)[0]}
              for mm in (cross - 1e-6, cross, cross + 1e-6)]
    err = abs(per_at[1]["disc"] - per_at[1]["strip"])
    ok1 = (err <= 1e-6 and per_at[0]["disc"] > per_at[0]["strip"]
           and per_at[2]["disc"] < per_at[2]["strip"])
    rows, best = isoperimetric_compare(0.0, 3)
    per = {r["name"]: r["perimeter"] for r in rows}
    ball_exact = (36 * np.pi) ** (1 / 3) * 0.5 ** (2 / 3)   # 3.0465...
    ok2 = (best == "strip" and per["strip"] == 2.0
           and abs(per["cylinder"] - 2 * np.sqrt(np.pi / 2)) < 1e-12
           and abs(per["ball"] - ball_exact) < 1e-12
           and abs(per["cylinder"] - 2.5066) < 1e-3
           and per["strip"] < per["cylinder"] < per["ball"])
    _report("A5", ok1 and ok2,
            f"crossing err {err:.2e} (bar 1e-6); T^3 ranking"
            f" {per['strip']:.4f} < {per['cylinder']:.4f} < {per['ball']:.4f}")


# ---------------------------------------------------------------------------
# A6: stability thresholds and the 1/k potential scaling
# ---------------------------------------------------------------------------

def test_a6_thresholds():
    rep = stability_threshold_gamma(0.0, 1)
    err = abs(rep.gamma_c - GAMMA_C)
    # the bar dates from a bisection with xtol 1e-6; the closed form matches the
    # frozen value to 1.4e-14 (test_stability pins it to 1e-12 relative)
    ok1 = err <= 2e-6
    # independent dense verification of the bracket
    sides = []
    for gamma in (rep.gamma_c - 1e-3, rep.gamma_c + 1e-3):
        sides.append(min(np.linalg.eigvalsh(
            lamella_mode_matrix(1, 0.0, gamma, q).matrix)[0]
            for q in range(1, 31)))
    ok2 = sides[0] > 0 > sides[1]

    krep = stability_threshold_k(0.0, 3 * GAMMA_C)
    ok3 = (krep.k0 is not None
           and all(e > 0 for e in krep.scan["eigs"][krep.k0 - 1:]))

    worst = 0.0
    for k in (1, 2, 3, 5, 8):
        for m in (-0.4, 0.0, 0.4):
            sh = Lamella(k=k, m=m, axis=0, dim=1)
            a = sh.a
            dnv = interface_normal_derivative(LamellaPotential(sh))
            worst = max(worst, np.abs(dnv + a * (1 - a) / k).max())
    # numeric scaling: refined solve for k=3 matches the k=1 profile
    # contracted by k and divided by k^2
    gf = make_grid(1, (4096,))
    sh3 = Lamella(k=3, m=0.0, axis=0, dim=1)
    v3 = solve_poisson_periodic(lamella_source_field(sh3, 4096))
    xs = np.linspace(0, 1, 257)[:-1]
    pot1 = LamellaPotential(Lamella(k=1, m=0.0, axis=0, dim=1))
    num_err = np.abs(trig_interpolate(v3, xs) - pot1.v(3 * xs) / 9).max()
    ok4 = worst <= 1e-8 and num_err <= 1e-8
    _report("A6", ok1 and ok2 and ok3 and ok4,
            f"gamma_c err {err:.2e} (bar 2e-6), bracket signs "
            f"({sides[0]:+.2e}, {sides[1]:+.2e}), k0 {krep.k0} positive to 50,"
            f" dnv scaling err {max(worst, num_err):.2e} (bar 1e-8)")


# ---------------------------------------------------------------------------
# A7: interfacial cost 8/3 and the sharp/diffuse energy identity
# ---------------------------------------------------------------------------

def test_a7_gamma_limit_constant():
    c = profile_constant()
    err = abs(c - 8 / 3) / (8 / 3)
    ok1 = err <= 0.01

    # diffuse energy of a relaxed sharp-profile stable lamella vs
    # (8/3) P + gamma0 * nonlocal
    gamma = 20.0
    gamma0 = sharp_gamma_to_gamma0(gamma)
    eps = 0.0125
    g = make_grid(2, (256, 256))
    u0 = tanh_profile(lamella(1, 0.0), g, eps)
    st = run_flow(u0, eps, gamma0, dt=1e-5, max_steps=400)
    sharp = (8 / 3) * 2.0 + gamma0 * lamella_closed_form(1, 0.0, 1.0).nonlocal_term
    rel = abs(st.energy - sharp) / sharp
    ok2 = rel <= 0.03
    _report("A7", ok1 and ok2,
            f"interfacial cost err {err:.2e} (bar 1e-2), lamella identity"
            f" rel err {rel:.2e} (bar 3e-2)")


# ---------------------------------------------------------------------------
# A8: flow dichotomy vs the second-variation sign
# ---------------------------------------------------------------------------

def _threshold_cells(st, base, grid):
    thr = ScalarField(grid, np.where(st.u.values >= 0, 1.0, -1.0))
    ref = rasterize(base, grid)
    val, _ = alpha_distance(thr, ref)
    return val / grid.cell_volume


def test_a8_flow_dichotomy():
    # stable return on 256^2 with 1% noise
    g256 = make_grid(2, (256, 256))
    eps = 0.0125
    base = lamella(1, 0.0)
    u0 = tanh_profile(base, g256, eps)
    rng = np.random.default_rng(5)
    noisy = u0.values + 0.02 * rng.standard_normal(g256.sizes)
    u0n = ScalarField(g256, noisy - noisy.mean() + u0.mean())
    st = run_flow(u0n, eps, sharp_gamma_to_gamma0(20.0), dt=1e-5,
                  max_steps=400)
    cells = _threshold_cells(st, base, g256)
    ok1 = cells <= 2

    # unstable lamella seeded with the critical eigenvector escapes
    g64 = make_grid(2, (64, 64))
    eps64 = 0.0625
    gamma_u = 2.0 * GAMMA_C
    rep = lamella_min_eigenvalue(1, 0.0, gamma_u)
    _, sgn = base.interfaces()
    x = g64.axis_coords(0)
    pos, _ = base.interfaces()
    bump = np.zeros(g64.sizes)
    for i, p in enumerate(pos):
        prof = np.exp(-((g64.axis_coords(1)[None, :] - p + 0.5) % 1.0 - 0.5) ** 2
                      / (2 * eps64**2))
        bump += (sgn[i] * rep.eigenvector[i]
                 * np.cos(2 * np.pi * rep.mode * x)[:, None] * prof)
    u0u = tanh_profile(base, g64, eps64)
    seeded = u0u.values + 0.02 * bump / max(1e-30, np.abs(bump).max())
    u0u = ScalarField(g64, seeded - seeded.mean() + u0u.mean())
    e_start = diffuse_energy(u0u, eps64, sharp_gamma_to_gamma0(gamma_u))
    stu = run_flow(u0u, eps64, sharp_gamma_to_gamma0(gamma_u), dt=1e-3,
                   max_steps=3000)
    drop = e_start - stu.energy
    cells_u = _threshold_cells(stu, base, g64)
    ok2 = drop >= 1e-3 and cells_u >= 1024

    # 12-point (m, gamma) scan: predicted sign vs flow outcome
    concordant = 0
    total = 0
    for m in (-0.2, 0.0, 0.2):
        gc = stability_threshold_gamma(m, 1).gamma_c
        bm = lamella(1, m)
        for fac in (0.3, 0.6, 2.0, 3.0):
            gamma = fac * gc
            stable = lamella_min_eigenvalue(1, m, gamma).min_eigenvalue > 0
            r = lamella_min_eigenvalue(1, m, gamma)
            u0s = tanh_profile(bm, g64, eps64)
            pos_m, sgn_m = bm.interfaces()
            bump = np.zeros(g64.sizes)
            for i, p in enumerate(pos_m):
                prof = np.exp(
                    -((g64.axis_coords(1)[None, :] - p + 0.5) % 1.0 - 0.5) ** 2
                    / (2 * eps64**2))
                bump += (sgn_m[i] * r.eigenvector[i]
                         * np.cos(2 * np.pi * r.mode * x)[:, None] * prof)
            vals = u0s.values + 0.02 * bump / max(1e-30, np.abs(bump).max())
            u0s = ScalarField(g64, vals - vals.mean() + u0s.mean())
            sts = run_flow(u0s, eps64, sharp_gamma_to_gamma0(gamma),
                           dt=1e-3, max_steps=3000)
            cells_s = _threshold_cells(sts, bm, g64)
            returned = cells_s <= 256
            escaped = cells_s >= 1024
            total += 1
            if (stable and returned) or (not stable and escaped):
                concordant += 1
    ok3 = concordant == total == 12
    _report("A8", ok1 and ok2 and ok3,
            f"stable return {cells:.0f} cells (bar 2), unstable drop"
            f" {drop:.3e} (bar 1e-3) with {cells_u:.0f} cells, scan"
            f" {concordant}/{total} concordant")


# ---------------------------------------------------------------------------
# A9: quantitative-minimality sampling
# ---------------------------------------------------------------------------

def test_a9_quantitative_sampling():
    base = lamella(1, 0.0)
    gamma = 40.0   # well below the threshold: stable
    grid = make_grid(2, (128, 128))
    u_base = rasterize(base, grid)
    j0 = graph_energy(GraphPerturbation(base, np.zeros((2, 32))), gamma).total
    rng = np.random.default_rng(42)
    x = np.arange(32) / 32
    worst = np.inf
    for _ in range(100):
        psi = np.zeros((2, 32))
        for j in range(2):
            for q in range(1, 5):
                psi[j] += (rng.normal() * np.cos(2 * np.pi * q * x)
                           + rng.normal() * np.sin(2 * np.pi * q * x)) / q
            psi[j] += 0.3 * rng.normal()
        psi *= 0.1 / max(1e-30, np.abs(psi).max())
        gp = volume_corrected_perturbation(base, psi)
        jf = graph_energy(gp, gamma).total
        a, _ = alpha_distance(rasterize(gp, grid), u_base)
        if a > 0:
            worst = min(worst, (jf - j0) / a**2)
    ok1 = worst > 0

    # unstable parameters: a direction with strictly lower energy
    gamma_u = 2.0 * GAMMA_C
    rep = lamella_min_eigenvalue(1, 0.0, gamma_u)
    _, sgn = base.interfaces()
    xs = np.arange(128) / 128
    psi_u = 0.02 * sgn[:, None] * rep.eigenvector[:, None] \
        * np.cos(2 * np.pi * rep.mode * xs)[None, :]
    gp_u = volume_corrected_perturbation(base, psi_u)
    j0_u = graph_energy(GraphPerturbation(base, np.zeros((2, 128))), gamma_u).total
    jf_u = graph_energy(gp_u, gamma_u).total
    ok2 = jf_u < j0_u
    _report("A9", ok1 and ok2,
            f"min excess/alpha^2 over 100 stable samples {worst:.3f} (> 0);"
            f" unstable energy drop {j0_u - jf_u:.3e} (> 0)")


# ---------------------------------------------------------------------------
# A10: asymmetry index vs brute force, pseudometric properties
# ---------------------------------------------------------------------------

def test_a10_alpha_correctness():
    rng = np.random.default_rng(9)
    g = make_grid(2, (32, 32))
    mismatches = 0
    fields = []
    for _ in range(100):
        a = np.where(rng.random(g.sizes) < rng.uniform(0.2, 0.8), 1.0, -1.0)
        b = np.where(rng.random(g.sizes) < rng.uniform(0.2, 0.8), 1.0, -1.0)
        got, _ = alpha_distance(ScalarField(g, a), ScalarField(g, b))
        best = min(np.abs(a - np.roll(b, (i, j), axis=(0, 1))).sum() / 2
                   for i in range(32) for j in range(32))
        if got != best * g.cell_volume:
            mismatches += 1
        if len(fields) < 3:
            fields.append(ScalarField(g, a))
    ok1 = mismatches == 0

    d01, _ = alpha_distance(fields[0], fields[1])
    d10, _ = alpha_distance(fields[1], fields[0])
    d12, _ = alpha_distance(fields[1], fields[2])
    d02, _ = alpha_distance(fields[0], fields[2])
    self0, _ = alpha_distance(fields[0], fields[0])
    shifted = ScalarField(g, np.roll(fields[0].values, (3, 7), axis=(0, 1)))
    dshift, _ = alpha_distance(fields[0], shifted)
    ok2 = (d01 == d10 and d02 <= d01 + d12 + 1e-15
           and self0 == 0.0 and dshift == 0.0)
    _report("A10", ok1 and ok2,
            f"100/100 brute-force matches, symmetry/triangle/translation"
            f" invariance hold")


# ---------------------------------------------------------------------------
# A11: nonlocal difference quotients bounded; strip-family limit
# ---------------------------------------------------------------------------

def test_a11_lipschitz_property():
    from okstab.shapes import Droplet
    rng = np.random.default_rng(14)
    g = make_grid(2, (128, 128))
    pairs = []
    for _ in range(100):
        if rng.random() < 0.5:
            sa = lamella(int(rng.integers(1, 4)), float(rng.uniform(-0.5, 0.5)))
            sb = lamella(int(rng.integers(1, 4)), float(rng.uniform(-0.5, 0.5)))
        else:
            sa = Droplet((rng.random(), rng.random()), float(rng.uniform(0.1, 0.4)))
            sb = Droplet((rng.random(), rng.random()), float(rng.uniform(0.1, 0.4)))
        ua, ub = rasterize(sa, g), rasterize(sb, g)
        if not np.array_equal(ua.values, ub.values):
            pairs.append((ua, ub))
    bound = nonlocal_lipschitz_check(pairs)
    ok1 = np.isfinite(bound) and bound < 1.0

    # strip family [0, a] vs [0, a + delta]: quotient tends to |NL'(a)|
    a = 0.3
    n = 4096
    g1 = make_grid(1, (n,))
    xax = g1.axis_coords(0)

    def strip(width):
        return ScalarField(g1, np.where(xax < width, 1.0, -1.0))

    want = abs(2 * a * (1 - a) * (1 - 2 * a) / 3)
    ratios = [nonlocal_lipschitz_check([(strip(a), strip(a + c / n))])
              for c in (64, 32)]
    extrap = 2 * ratios[1] - ratios[0]
    lim_err = abs(extrap - want) / want
    ok2 = lim_err <= 0.01
    _report("A11", ok1 and ok2,
            f"max quotient {bound:.3f} over {len(pairs)} pairs (bounded);"
            f" strip-family limit rel err {lim_err:.2e} (bar 1e-2)")
