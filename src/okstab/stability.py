"""Second-variation quadratic forms and stability thresholds.

Exact per-lateral-mode matrices for lamellae, dense boundary-element
assembly for discretized curves in T^2, constrained eigenanalysis with the
translation directions projected out, thresholds in gamma and in the strip
count, and finite-difference validation of the form against the full
energy.  The lamella mode matrix is linear in gamma,
M(q) = 4 pi^2 q^2 I + gamma A(q), so one scan over the lowest eigenpairs of
the gamma-free A(q) gives both the minimal eigenvalue at any gamma and the
threshold gamma_c in closed form.  A shift by 1/k maps the lamella onto
itself, so A(q) splits into k Hermitian 2x2 Bloch blocks given by one
length-k FFT; the dense M(q) serves lamella_form_value and is the reference
the scan is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_FIELD_GRID, TOLERANCES
from .energy import _check_gamma, graph_energy, volume_corrected_perturbation
from .shapes import (BoundaryMesh, GraphPerturbation, Lamella,
                     periodic_derivative, rasterize)
from .torus import (NumericalError, ScalarField, ValidationError,
                    green2d_self_regularized, green_function_2d,
                    green_kernel_screened, make_grid, solve_poisson_periodic,
                    spectral_gradient, trig_interpolate)

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
    q: int
    matrix: np.ndarray = field(repr=False)
    kernel: np.ndarray = field(repr=False)
    dnv: float = 0.0

    def __post_init__(self):
        if np.abs(self.matrix - self.matrix.T).max() > TOLERANCES.matrix_symmetry:
            raise NumericalError("mode matrix lost symmetry")


def lamella_mode_matrix(k: int, m: float, gamma: float, q: int) -> LamellaModeMatrix:
    """Dense M(q) = 4 pi^2 q^2 I + gamma A(q), A(q) = 8 K(q) + 4 dnv I; the
    mode scan works on the Bloch blocks of A(q) and is checked against it."""
    if not (isinstance(q, (int, np.integer)) and q >= 0):
        raise ValidationError(f"q must be an integer >= 0, got {q!r}")
    _check_gamma(gamma)
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    pos, _ = shape.interfaces()
    K = green_kernel_screened(q, pos[:, None] - pos[None, :])
    A = 8.0 * K + 4.0 * shape.dnv * np.eye(2 * k)
    M = 4.0 * np.pi**2 * q**2 * np.eye(2 * k) + gamma * (0.5 * (A + A.T))
    return LamellaModeMatrix(q, M, K, shape.dnv)


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


def _mode_scan(k: int, m: float, value):
    """Minimize value(q, mu(q)) over lateral modes q >= 1, with mu(q) the
    lowest eigenvalue of A(q), 8 min_p (alpha_p - |beta_p|) + 4 dnv.

    value must be nondecreasing in mu and in q.  Every eigenvalue of A(q')
    for q' > q is at least the Gershgorin bound -16 k g_{q+1}(0) + 4 dnv
    (g_q(0) decreases in q), so the scan stops once value at that bound
    exceeds the best so far.  Returns (best value, q, mu, Bloch index p,
    eigenvector, last q scanned).
    """
    shape = Lamella(k=k, m=m, axis=0, dim=1)
    a, dnv = shape.a, shape.dnv
    best = (np.inf, None, None, None, None)
    q = 1
    while True:
        alpha, beta = _bloch_blocks(k, a, q)
        low = alpha - np.abs(beta)
        p = int(np.argmin(low))
        mu = 8.0 * float(low[p]) + 4.0 * dnv
        f = value(q, mu)
        if f < best[0]:
            best = (f, q, mu, p, _bloch_vector(k, p, beta[p]))
        if value(q + 1, -16.0 * k * green_kernel_screened(q + 1, 0.0)
                 + 4.0 * dnv) > best[0]:
            return (*best, q)
        q += 1


def lamella_min_eigenvalue(k: int, m: float, gamma: float) -> StabilityReport:
    """Minimum over lateral modes q >= 1 of the eigenvalues of M(q).

    The q = 0 block carries only the translation and volume directions
    (amplitudes constant per interface), which are excluded from the
    admissible class, so it does not enter the minimum.  M(q) and A(q)
    share eigenvectors, so the minimum is that of 4 pi^2 q^2 + gamma mu(q).
    """
    _check_gamma(gamma)
    best, q, _, p, vec, q_scanned = _mode_scan(
        k, m, lambda q, mu: 4.0 * np.pi**2 * q**2 + gamma * mu)
    return StabilityReport(best, q, vec,
                           scan={"q_scanned": q_scanned, "bloch_p": p, "k": k,
                                 "m": m, "gamma": gamma})


def stability_threshold_gamma(m: float, k: int,
                              gamma_max: float = 1e6) -> StabilityReport:
    """Threshold gamma_c = min over q with mu(q) < 0 of 4 pi^2 q^2 / -mu(q).

    M(q) is linear in gamma, so mode q turns unstable exactly there.
    Returns gamma_c = None when the lamella stays stable up to gamma_max.
    """
    if not gamma_max >= 0.0:
        raise ValidationError(f"gamma_max must be nonnegative, got {gamma_max!r}")
    gc, q, mu, p, vec, q_scanned = _mode_scan(
        k, m, lambda q, mu: 4.0 * np.pi**2 * q**2 / -mu if mu < 0 else np.inf)
    if gc > gamma_max:
        rep = lamella_min_eigenvalue(k, m, gamma_max)
        rep.scan["status"] = "stable throughout range"
        return rep
    return StabilityReport(4.0 * np.pi**2 * q**2 + gc * mu, q, vec,
                           gamma_c=gc,
                           scan={"q_scanned": q_scanned, "bloch_p": p, "k": k,
                                 "m": m, "gamma": gc})


def stability_threshold_k(m: float, gamma: float, k_max: int = 200) -> StabilityReport:
    """Smallest k0 <= k_max with positive minimal eigenvalue for every
    k in [k0, k_max]."""
    if not (isinstance(k_max, (int, np.integer)) and k_max >= 1):
        raise ValidationError(f"k_max must be an integer >= 1, got {k_max!r}")
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
    quadrature, `h1` the H^1 Gram matrix (tangential-derivative energy plus
    mass), `constraints` the rows of the linear functionals to project out
    (total mean and the active translation functionals in the frame that
    diagonalizes a_ij = int nu_i nu_j).
    """
    matrix: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    h1: np.ndarray = field(repr=False)
    constraints: np.ndarray = field(repr=False)
    frame: np.ndarray = field(repr=False)
    mesh: BoundaryMesh = None

    def __post_init__(self):
        scale = max(1.0, np.abs(self.matrix).max())
        if np.abs(self.matrix - self.matrix.T).max() > 1e-10 * scale:
            raise NumericalError("assembled form lost symmetry")

    def value(self, phi: np.ndarray) -> float:
        phi = np.asarray(phi, dtype=float)
        return float(phi @ self.matrix @ phi)


def _log_quadrature_block(n: int) -> np.ndarray:
    """Trig-exact quadrature of the periodic log kernel.

    Q_ij approximates the double integral of -(1/2pi) log(2|sin pi(t-s)|)
    against node densities: Q_ij = (1/n^2) sum_nu chat_nu e^{2pi i nu dt},
    with chat_nu = 1/(4 pi |nu|) the kernel's Fourier coefficients.  Q
    depends on the node pair only through dt, so the mode sum is taken once
    per distinct offset (a few per i - j), not once per pair.
    """
    t = np.arange(n) / n
    dt, inv = np.unique(t[:, None] - t[None, :], return_inverse=True)
    nu = np.arange(1, n // 2 + 1)
    w = np.ones_like(nu, dtype=float)
    if n % 2 == 0:
        w[-1] = 0.5
    cosd = np.cos(2.0 * np.pi * dt[:, None] * nu)
    return ((cosd * (w / (2.0 * np.pi * nu))).sum(axis=-1) / n**2)[inv].reshape(n, n)


def assemble_boundary_form(mesh: BoundaryMesh, gamma: float) -> QuadraticFormMatrix:
    """Dense second-variation form on a T^2 boundary mesh.

    Blocks: tangential Dirichlet energy (spectral differentiation per
    component), -kappa^2 mass term, 8 gamma double-layer of the torus Green
    function with the log singularity handled by a trig-exact product
    quadrature on the self panels, and the 4 gamma (normal derivative of v)
    mass term.  Memory: at most four n x n arrays at once (35 MB for a k=2
    lamella, 256 nodes per interface); the Green function takes _GREEN_CHUNK
    node pairs at a time, other temporaries are per component or O(n).
    """
    _check_gamma(gamma)
    n = len(mesh.points)
    W = mesh.weights
    # normal derivative of v, taken before the n x n blocks exist: exact on
    # lamellae, where spectral differentiation would lose it at the kink
    dnv = mesh.shape.dnv if isinstance(mesh.shape, Lamella) else None
    if gamma > 0 and dnv is None:
        g = make_grid(2, (DEFAULT_FIELD_GRID,) * 2)
        u = rasterize(mesh.shape, g).values
        v = solve_poisson_periodic(ScalarField._adopt(g, u - u.mean()))
        dnv = sum(trig_interpolate(c, mesh.points) * nu     # one component
                  for c, nu in zip(spectral_gradient(v), mesh.normals.T))
    A = np.zeros((n, n))

    # Dirichlet + curvature blocks, per component
    H1 = np.diag(W)
    for (i0, i1) in mesh.components:
        nc = i1 - i0
        Dtau = periodic_derivative(np.eye(nc)) / mesh.speeds[i0:i1][:, None]
        block = (Dtau.T * W[i0:i1]) @ Dtau
        if nc % 2 == 0:
            # the odd spectral derivative annihilates the Nyquist sawtooth;
            # restore its tangential energy modally so the form stays coercive
            e = np.where(np.arange(nc) % 2 == 0, 1.0, -1.0)
            inv_sp = float(np.mean(1.0 / mesh.speeds[i0:i1]))
            coeff = (np.pi * nc) ** 2 * 0.5 * inv_sp / nc**2
            block += coeff * np.outer(e, e)
        A[i0:i1, i0:i1] += block
        H1[i0:i1, i0:i1] += block
    A.flat[::n + 1] -= W * mesh.curvature**2

    if gamma > 0:
        # nonlocal block: the symmetric Green function on node pairs i < j, a
        # product quadrature; on a component's self panel the smooth remainder
        # G + (1/2pi) log(2|sin pi dt|), plus the log kernel's trig-exact block
        # per node: its parameter on its component, and that component's end
        t, end = np.hstack([(np.arange(i1 - i0) / (i1 - i0), np.full(i1 - i0, i1))
                            for (i0, i1) in mesh.components])
        ends = np.cumsum(np.arange(n - 1, 0, -1))    # pairs in rows 0..i
        G = np.empty((n, n))
        for p0 in range(0, ends[-1], _GREEN_CHUNK):
            p = np.arange(p0, min(p0 + _GREEN_CHUNK, ends[-1]))
            i = np.searchsorted(ends, p, side="right")
            j = p - ends[i] + n
            gij = green_function_2d(mesh.points[i], mesh.points[j])
            same = j < end[i]
            gij[same] += np.log(2.0 * np.abs(np.sin(np.pi * (t[i[same]] - t[j[same]])))
                                ) / (2.0 * np.pi)
            G[i, j] = G[j, i] = gij
        G.flat[::n + 1] = (green2d_self_regularized()
                           + np.log(2.0 * np.pi / mesh.speeds) / (2.0 * np.pi))
        G *= W[:, None]
        G *= W
        for (i0, i1) in mesh.components:
            sp = mesh.speeds[i0:i1]
            G[i0:i1, i0:i1] += _log_quadrature_block(i1 - i0) * sp[:, None] * sp[None, :]
        G *= 8.0 * gamma
        A = np.add(A, G, out=G)     # the form takes over G's memory
        A.flat[::n + 1] += 4.0 * gamma * (W * dnv)

    for M in (A, H1):    # symmetrize in place
        M += M.T
        M *= 0.5

    # constraint functionals: total mean + active translation directions
    a_ij = np.einsum("i,ip,iq->pq", W, mesh.normals, mesh.normals)
    evals, frame = np.linalg.eigh(a_ij)
    rows = [W.copy()]
    for p in range(2):
        if evals[p] > 1e-10:
            rows.append(W * (mesh.normals @ frame[:, p]))
    return QuadraticFormMatrix(A, W, H1, np.array(rows), frame, mesh)


def translation_form_value(form: QuadraticFormMatrix, axis: int = 1) -> float:
    """Form evaluated on the translation trace nu . e_axis, relative to the
    form's scale on that vector."""
    phi = form.mesh.normals[:, axis]
    raw = form.value(phi)
    norm = float(phi @ (form.weights * phi))
    return raw / max(norm, 1e-30)


def constrained_min_eig(form: QuadraticFormMatrix,
                        norm: str = "l2") -> StabilityReport:
    """Minimal Rayleigh quotient of the form on the constrained complement.

    Constraints (total mean and the translation functionals with nonzero
    frame norm) are removed by an SVD nullspace; the quotient is taken
    against the arc-length L^2 mass (norm="l2") or the full H^1 Gram
    (norm="h1"), whitened by its Cholesky factor for one symmetric eigh.
    """
    if norm not in ("l2", "h1"):
        raise ValidationError(f"norm must be 'l2' or 'h1', got {norm!r}")
    C = np.atleast_2d(form.constraints)
    rank = np.linalg.matrix_rank(C, tol=1e-12)
    if rank < C.shape[0]:
        raise ValidationError("constraint functionals are rank deficient")
    _, _, Vt = np.linalg.svd(C)
    Z = Vt[C.shape[0]:].T
    B = np.diag(form.weights) if norm == "l2" else form.h1
    Ared = Z.T @ form.matrix @ Z
    Bred = Z.T @ B @ Z
    Li = np.linalg.inv(np.linalg.cholesky(0.5 * (Bred + Bred.T)))
    w, U = np.linalg.eigh(Li @ (0.5 * (Ared + Ared.T)) @ Li.T)
    vec = Z @ (Li.T @ U[:, 0])
    return StabilityReport(float(w[0]), "constrained", vec,
                           scan={"norm": norm, "n": form.matrix.shape[0],
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
                            t_list=(0.02, 0.01), n_lat: int = 128) -> FDReport:
    """Symmetric second differences of J along volume-corrected graph
    perturbations with heights t psi, compared with the quadratic form.

    The normal height of the perturbation is sigma_j psi_j (orientation
    sign times vertical height); the reported Richardson value
    extrapolates the two smallest step sizes.
    """
    for t in t_list:
        if not (np.isfinite(t) and t > 0):
            raise ValidationError(f"t must be positive and finite, got {t!r}")
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    _, sgn = base.interfaces()
    j0 = graph_energy(GraphPerturbation(base, 0.0 * psi), gamma, n_lat).total

    def j_at(t):
        gp = volume_corrected_perturbation(base, t * psi)
        return graph_energy(gp, gamma, n_lat).total

    ts = sorted(t_list, reverse=True)
    d2 = [(j_at(t) + j_at(-t) - 2.0 * j0) / t**2 for t in ts]
    if len(d2) >= 2 and abs(ts[-2] / ts[-1] - 2.0) < 1e-12:
        rich = (4.0 * d2[-1] - d2[-2]) / 3.0
    else:
        rich = d2[-1]
    phi = sgn[:, None] * psi
    fv = lamella_form_value(base, phi, gamma)
    return FDReport(list(ts), d2, float(rich), float(fv))
