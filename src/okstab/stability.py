"""Second-variation quadratic forms and stability thresholds.

Exact per-lateral-mode matrices for lamellae, dense boundary-element
assembly for discretized curves in T^2, constrained eigenanalysis with the
translation directions projected out, thresholds in gamma and in the strip
count, and finite-difference validation of the form against the full
energy.  The lamella mode matrix is linear in gamma,
M(q) = 4 pi^2 q^2 I + gamma A(q): at one gamma, a scan over q of the lowest
eigenvalue of the gamma-free A(q), closed by a Gershgorin bound, gives the
minimal eigenvalue, and the threshold gamma_c is closed form.  A shift by
1/k maps the lamella onto itself, so A(q) splits into k Hermitian 2x2 Bloch
blocks given by one length-k FFT; the dense M(q) serves lamella_form_value
and is the reference the scan and the closed form are tested against.  On
curves, uniform-parameter nodes make each component's self-panel
quadrature circulant in i - j, and the arc-length mass is diagonal, so the
constrained eigensolve whitens by W^(-1/2) and takes one symmetric eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOLERANCES
from .energy import (_check_gamma, graph_energy, potential,
                     volume_corrected_perturbation)
from .shapes import BoundaryMesh, GraphPerturbation, Lamella, periodic_samples
from .torus import (NumericalError, ValidationError, _check_count,
                    green2d_self_regularized, green_function_2d, green_kernel_screened)

_GREEN_CHUNK = 4096   # node pairs per green_function_2d call (~0.3 MB temporaries)

# ---------------------------------------------------------------------------
# exact lamella mode matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LamellaModeMatrix:
    """Per-lateral-mode second-variation matrix over interface amplitudes.

    M(q) = 4 pi^2 q^2 I + gamma A(q) with A(q) = 8 K(q) + 4 diag(dnv), where
    K(q) is the screened circle kernel sampled at interface separations and
    dnv is the outward normal derivative of the lamella potential (equal to
    -a(1-a)/k at every interface).
    """
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.abs(self.matrix - self.matrix.T).max() > TOLERANCES.matrix_symmetry:
            raise NumericalError("mode matrix lost symmetry")


def lamella_mode_matrix(k: int, m: float, gamma: float, q: int) -> LamellaModeMatrix:
    """Dense M(q) = 4 pi^2 q^2 I + gamma A(q), A(q) = 8 K(q) + 4 dnv I; the
    mode scan works on the Bloch blocks of A(q) and is checked against it."""
    _check_count("q", q, 0)
    _check_gamma(gamma)
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    pos, _ = shape.interfaces()
    K = green_kernel_screened(q, pos[:, None] - pos[None, :])
    A = 8.0 * K + 4.0 * shape.dnv * np.eye(2 * k)
    M = 4.0 * np.pi**2 * q**2 * np.eye(2 * k) + gamma * A
    return LamellaModeMatrix(M)


@dataclass
class StabilityReport:
    min_eigenvalue: float
    mode: object                       # minimizing lateral wave number or label
    eigenvector: np.ndarray = field(repr=False, default=None)
    gamma_c: float | None = None
    k0: int | None = None
    scan: dict = field(default_factory=dict)


def _bloch_blocks(k: int, a: float, q: int):
    """(alpha_p, beta_p), p < k: K(q) is block-circulant (a 1/k shift maps
    the interfaces i/k, (i+a)/k onto themselves), so a DFT over the strip
    index d splits it into blocks [[alpha_p, beta_p], [conj beta_p, alpha_p]]."""
    d = np.arange(k)
    alpha, beta = np.fft.fft(green_kernel_screened(q, np.array([d, d + a]) / k))
    return alpha.real, beta   # g_q is even, so alpha is real


def _bloch_vector(k: int, p: int, beta: complex) -> np.ndarray:
    """Real unit eigenvector of K(q) for alpha_p - |beta_p|: Re of the Bloch
    wave e^{-2 pi i p i/k} (1, -conj beta_p/|beta_p|), first entry positive."""
    phase = np.exp(-2j * np.pi * p * np.arange(k) / k)
    v = np.real(np.outer(phase, [1.0, -np.exp(-1j * np.angle(beta))])).ravel()
    return v / np.linalg.norm(v)


def lamella_min_eigenvalue(k: int, m: float, gamma: float) -> StabilityReport:
    """Minimum over lateral modes q >= 1 of the eigenvalues of M(q).

    The q = 0 block carries only the translation and volume directions
    (amplitudes constant per interface), which are excluded from the
    admissible class, so it does not enter the minimum.  M(q) and A(q)
    share eigenvectors, so the minimum is that of 4 pi^2 q^2 + gamma mu(q),
    mu(q) = 8 min_p (alpha_p - |beta_p|) + 4 dnv the lowest eigenvalue of A(q).
    """
    _check_gamma(gamma)
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    a, dnv = shape.a, shape.dnv
    best, q = np.inf, 1
    while True:
        alpha, beta = _bloch_blocks(k, a, q)
        low = alpha - np.abs(beta)
        p = int(np.argmin(low))
        f = 4.0 * np.pi**2 * q**2 + gamma * (8.0 * float(low[p]) + 4.0 * dnv)
        if f < best:
            best, mode, bloch_p, vec = f, q, p, _bloch_vector(k, p, beta[p])
        # every eigenvalue of A(q') for q' > q is at least the Gershgorin
        # bound 4 dnv - 16 k g_{q+1}(0), as g_q(0) decreases in q
        bound = 4.0 * dnv - 16.0 * k * green_kernel_screened(q + 1, 0.0)
        if 4.0 * np.pi**2 * (q + 1)**2 + gamma * bound > best:
            break
        q += 1
    return StabilityReport(best, mode, vec,
                           scan={"q_scanned": q, "bloch_p": bloch_p, "k": k,
                                 "m": m, "gamma": gamma})


def _d_over_cube(x: float, a: float) -> float:
    """D(x)/x^3 for D(x) = abx - sinh(ax) sinh(bx)/sinh x, b = 1 - a, from the
    series D(x) sinh x = 8 a^2 b^2 sum_{n>=2} T_n x^{2n}/(2n)!, T_n = sum_{j<n} S_j,
    S_j = sum_{i<j} c^{2i}, c = a - b: no term is negative, so no digits cancel
    at small x or small ab, and 16 terms reach float64 precision for x <= pi."""
    b = 1.0 - a
    n = np.arange(2, 18)
    s = np.cumsum((a - b) ** (2 * n - 4))    # S_{n-1}
    terms = np.cumsum(s) * x ** (2 * n - 4) / [float(math.factorial(2 * j)) for j in n]
    return 8.0 * (a * b) ** 2 * math.fsum(terms) / float(np.sinh(x) / x)


def stability_threshold_gamma(m: float, k: int) -> StabilityReport:
    """Threshold gamma_c = pi^3/D(pi/k), D as in _d_over_cube.

    Mode q turns unstable at gamma = 4 pi^2 q^2 / -mu(q).  On the lowest
    Bloch branch, p = 0, mu(q) = -4 D(pi q/k)/(pi q), and x^3/D(x) increases
    in x, so q = 1 goes first (both checked on grids, not proven), along the
    alternating eigenvector (1, -1, ...)/sqrt(2k).
    """
    a = Lamella(k=k, m=m, axis=0, dim=1).a    # validates k and m
    gc = float(k) ** 3 / _d_over_cube(np.pi / k, a)
    return StabilityReport(0.0, 1, np.tile([1.0, -1.0], k) / np.sqrt(2 * k), gamma_c=gc,
                           scan={"bloch_p": 0, "k": k, "m": m, "gamma": gc})


def stability_threshold_k(m: float, gamma: float, k_max: int = 200) -> StabilityReport:
    """Smallest k0 <= k_max with positive minimal eigenvalue for every
    k in [k0, k_max]."""
    _check_count("k_max", k_max, 1)
    eigs = [lamella_min_eigenvalue(k, m, gamma).min_eigenvalue
            for k in range(1, k_max + 1)]
    k0 = None
    for k in range(k_max, 0, -1):
        if eigs[k - 1] > 0:
            k0 = k
        else:
            break
    rep = StabilityReport(eigs[(k0 or 1) - 1], "k-scan",
                          scan={"m": m, "gamma": gamma, "k_max": k_max,
                                "eigs": eigs})
    rep.k0 = k0
    return rep


# ---------------------------------------------------------------------------
# dense boundary-element quadratic form on T^2 curves
# ---------------------------------------------------------------------------

@dataclass
class QuadraticFormMatrix:
    """Dense symmetric form over boundary-node values with its quadrature.

    `matrix` is the second-variation form, `weights` the arc-length
    quadrature (the L^2 mass of the Rayleigh quotient), `constraints` the
    rows of the linear functionals to project out (total mean and the active
    translation functionals in the frame that diagonalizes
    a_ij = int nu_i nu_j).
    """
    matrix: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    constraints: np.ndarray = field(repr=False)
    mesh: BoundaryMesh = None

    def __post_init__(self):
        if np.array_equal(self.matrix, self.matrix.T):    # as assembled here
            return
        scale = max(1.0, np.abs(self.matrix).max())
        if np.abs(self.matrix - self.matrix.T).max() > 1e-10 * scale:
            raise NumericalError("assembled form lost symmetry")

    def value(self, phi: np.ndarray) -> float:
        phi = np.asarray(phi, dtype=float)
        return float(phi @ self.matrix @ phi)


def _self_panel(n: int) -> np.ndarray:
    """Self-panel correction of an n-node component per speed product
    sp_i sp_j (its nodes' weights are speeds / n): circulant, c_{(i - j) mod n}.

    The log kernel -(1/2pi) log(2|sin pi(t-s)|) has Fourier coefficients
    1/(4 pi |nu|), nu != 0; its trig-exact product quadrature on n uniform
    nodes is the truncated series, one irfft (which halves an even n's
    Nyquist term).  The pair loop sums G alone, so for d != 0 the column
    adds the log(2|sin pi d/n|)/(2 pi n^2) that turns G into its smooth
    remainder (Kress, Linear Integral Equations, ch. 12).
    """
    d = np.arange(n)
    col = np.fft.irfft(np.r_[0.0, 1.0 / (4.0 * np.pi * d[1:n // 2 + 1])], n)
    col[1:] += np.log(2.0 * np.sin(np.pi * np.minimum(d, n - d)[1:] / n)) / (2.0 * np.pi * n)
    return (col / n)[(d[:, None] - d) % n]


def assemble_boundary_form(mesh: BoundaryMesh, gamma: float) -> QuadraticFormMatrix:
    """Dense second-variation form on a T^2 boundary mesh.

    Blocks: tangential Dirichlet energy (spectral differentiation per
    component), -kappa^2 mass term, 8 gamma double-layer of the torus Green
    function, and the 4 gamma (normal derivative of v) mass term.  The Green
    function is summed on node pairs alone; each component's self panel adds
    the trig-exact product quadrature of the log singularity, the circulant
    block _self_panel scaled by sp_i sp_j.  Memory: at most three n x n
    arrays at once (19 MB for a k=2 lamella, 256 nodes per interface); the
    Green function takes _GREEN_CHUNK node pairs at a time, other
    temporaries are per component or O(n).
    """
    _check_gamma(gamma)
    n = len(mesh.points)
    W = mesh.weights
    # normal derivative of v, its grid freed before the n x n blocks exist:
    # exact on lamellae, where spectral differentiation loses it at the kink
    dnv = potential(mesh.shape).dnv_on_mesh(mesh) if gamma > 0 else None
    A = np.zeros((n, n))

    # Dirichlet + curvature blocks, per component
    for (i0, i1) in mesh.components:
        nc = i1 - i0
        Dtau = periodic_samples(np.eye(nc), nc, 1) / mesh.speeds[i0:i1][:, None]
        block = (Dtau.T * W[i0:i1]) @ Dtau
        if nc % 2 == 0:
            # the odd spectral derivative annihilates the Nyquist sawtooth;
            # restore its tangential energy modally so the form stays coercive
            e = np.where(np.arange(nc) % 2 == 0, 1.0, -1.0)
            inv_sp = float(np.mean(1.0 / mesh.speeds[i0:i1]))
            coeff = (np.pi * nc) ** 2 * 0.5 * inv_sp / nc**2
            block += coeff * np.outer(e, e)
        A[i0:i1, i0:i1] += block
    A.flat[::n + 1] -= W * mesh.curvature**2

    if gamma > 0:
        # nonlocal block: the symmetric Green function on node pairs i < j, a
        # product quadrature; each self panel adds its circulant correction
        ends = np.cumsum(np.arange(n - 1, 0, -1))    # pairs in rows 0..i
        G = np.empty((n, n))
        for p0 in range(0, ends[-1], _GREEN_CHUNK):
            p = np.arange(p0, min(p0 + _GREEN_CHUNK, ends[-1]))
            i = np.searchsorted(ends, p, side="right")
            j = p - ends[i] + n
            G[i, j] = G[j, i] = green_function_2d(mesh.points[i], mesh.points[j])
        G.flat[::n + 1] = (green2d_self_regularized()
                           + np.log(2.0 * np.pi / mesh.speeds) / (2.0 * np.pi))
        G *= W[:, None]
        G *= W
        for (i0, i1) in mesh.components:
            sp = mesh.speeds[i0:i1]
            G[i0:i1, i0:i1] += _self_panel(i1 - i0) * np.outer(sp, sp)
        G *= 8.0 * gamma
        A = np.add(A, G, out=G)     # the form takes over G's memory
        A.flat[::n + 1] += 4.0 * gamma * (W * dnv)

    A += A.T    # symmetrize in place
    A *= 0.5

    # constraint functionals: total mean + active translation directions
    a_ij = np.einsum("i,ip,iq->pq", W, mesh.normals, mesh.normals)
    evals, frame = np.linalg.eigh(a_ij)
    rows = [W.copy()]
    for p in range(2):
        if evals[p] > 1e-10:
            rows.append(W * (mesh.normals @ frame[:, p]))
    return QuadraticFormMatrix(A, W, np.array(rows), mesh)


def constrained_min_eig(form: QuadraticFormMatrix) -> StabilityReport:
    """Minimal L^2 Rayleigh quotient of the form on the constrained complement.

    The arc-length mass W is diagonal, so phi = r y with r = W^(-1/2) turns
    the quotient into y'(r A r)y / y'y.  The constraints C phi = 0 (total
    mean and the translation functionals with nonzero frame norm) become
    (C r) y = 0, whose orthonormal nullspace Z comes from one SVD; one
    symmetric eigh of Z'(r A r)Z gives the minimum, and its eigenvector
    phi = r Z u has phi'W phi = 1.
    """
    C = np.atleast_2d(form.constraints)
    r = 1.0 / np.sqrt(form.weights)
    _, sv, Vt = np.linalg.svd(C * r)
    if np.count_nonzero(sv > 1e-12) < C.shape[0]:
        raise ValidationError("constraint functionals are rank deficient")
    R = Vt[C.shape[0]:].T * r[:, None]
    w, U = np.linalg.eigh(R.T @ form.matrix @ R)
    vec = R @ U[:, 0]
    return StabilityReport(float(w[0]), "constrained", vec,
                           scan={"n": form.matrix.shape[0],
                                 "n_constraints": C.shape[0]})


# ---------------------------------------------------------------------------
# value of the exact lamella form on arbitrary height fields
# ---------------------------------------------------------------------------

def lamella_form_value(base: Lamella, phi: np.ndarray, gamma: float) -> float:
    """Second-variation value on normal-height rows phi (2k, n), sampled at
    lateral nodes j/n, via the per-mode matrices (Parseval in the lateral
    variable)."""
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    if phi.shape[0] != 2 * base.k:
        raise ValidationError("phi needs 2k rows")
    n = phi.shape[1]
    c = np.fft.rfft(phi, axis=1) / n
    total = 0.0
    for q in range(n // 2 + 1):
        M = lamella_mode_matrix(base.k, base.m, gamma, q).matrix
        mult = 2.0
        if q == 0:
            mult = 1.0
        elif 2 * q == n:
            mult = 0.5   # the Nyquist cosine has mean square 1/2
        cq = c[:, q]
        total += mult * float(np.real(np.conj(cq) @ M @ cq))
    return total


# ---------------------------------------------------------------------------
# finite-difference validation against the full energy
# ---------------------------------------------------------------------------

@dataclass
class FDReport:
    t_values: list
    second_differences: list
    richardson: float
    form_value: float

    @property
    def ratio(self) -> float:
        if self.form_value == 0.0:
            return float("nan")
        return self.richardson / self.form_value


def finite_difference_check(base: Lamella, psi: np.ndarray, gamma: float,
                            t_list=(0.02, 0.01)) -> FDReport:
    """Symmetric second differences of J along volume-corrected graph
    perturbations with heights t psi, compared with the quadratic form.

    The normal height of the perturbation is sigma_j psi_j (orientation
    sign times vertical height); the reported Richardson value
    extrapolates the two smallest step sizes.
    """
    if len(t_list) == 0 or not all(np.isfinite(t) and t > 0 for t in t_list):
        raise ValidationError(f"t_list must be steps t > 0 and finite, got {t_list!r}")
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    _, sgn = base.interfaces()
    j0 = graph_energy(GraphPerturbation(base, 0.0 * psi), gamma).total

    def j_at(t):
        gp = volume_corrected_perturbation(base, t * psi)
        return graph_energy(gp, gamma).total

    ts = sorted(t_list, reverse=True)
    d2 = [(j_at(t) + j_at(-t) - 2.0 * j0) / t**2 for t in ts]
    if len(d2) >= 2 and abs(ts[-2] / ts[-1] - 2.0) < 1e-12:
        rich = (4.0 * d2[-1] - d2[-2]) / 3.0
    else:
        rich = d2[-1]
    phi = sgn[:, None] * psi
    fv = lamella_form_value(base, phi, gamma)
    return FDReport(list(ts), d2, float(rich), float(fv))
