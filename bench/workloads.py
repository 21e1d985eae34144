"""The four benchmark workloads: seeded inputs, task lists and gates.

Each workload turns a seed into inputs (`setup`, untimed), warms the code
paths it will time (`warmup`), and yields a fixed list of tasks per pass
(`tasks`); every task is one library call sequence whose result is checked
afterwards by `check`, outside the timed region, against an oracle that
does not share the code under test.  `corruptions` lists deliberately
broken copies of a result that `check` must reject; the worker runs them
every time as the gates' self-check.

Library functions are always looked up on their module at call time
(`stability.stability_threshold_k`, not a local name), so that a traced
pass sees the span wrappers that `tracing.Tracer` installs there.
"""

from __future__ import annotations

import copy
import functools
import importlib
import math
import os
import subprocess
import sys
import time

import numpy as np

import okstab

# import_module, because the package re-exports a function named `energy`
# that shadows the submodule as a package attribute
cli, energy, flow, shapes, stability, torus = (
    importlib.import_module(f"okstab.{m}")
    for m in ("cli", "energy", "flow", "shapes", "stability", "torus"))

# gamma_c(m, k) of stability_threshold_gamma, frozen; a correct result lies
# within the bisection's xtol (1e-6) of the root, so two agree within 2e-6
GAMMA_C = {(-0.2, 1): 101.91487999740447, (-0.2, 3): 1558.0588302365961,
           (-0.2, 8): 27072.28414654552,
           (0.0, 1): 94.87206216585848, (0.0, 3): 1437.9389936248947,
           (0.0, 8): 24954.923350050372,
           (0.2, 1): 101.91487999740447, (0.2, 3): 1558.0588302365904,
           (0.2, 8): 27072.284146556387}


# ---------------------------------------------------------------------------
# oracles shared by several gates
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def dense_min_eig(k, m, gamma, sign_only=False):
    """min over lateral modes q >= 1 of eigvalsh(M(q)), by dense eigvalsh.

    Stops once a Gershgorin lower bound shows every later mode lies above
    the current minimum (or, with sign_only, as soon as the minimum is
    negative).  The bound is rebuilt here from the closed-form peak of the
    screened kernel, g_q(0) = 1 / (2 lam tanh(lam / 2)), lam = 2 pi q.
    """
    a = 0.5 * (m + 1.0)
    best = math.inf
    q = 1
    while True:
        mm = stability.lamella_mode_matrix(k, m, gamma, q).matrix
        best = min(best, float(np.linalg.eigvalsh(mm)[0]))
        if sign_only and best < 0:
            return best
        lam = 2.0 * math.pi * (q + 1)
        g0 = 1.0 / (2.0 * lam * math.tanh(0.5 * lam))
        lower = (4.0 * math.pi**2 * (q + 1) ** 2 - 16.0 * gamma * k * g0
                 - 4.0 * gamma * a * (1.0 - a) / k)
        if lower > best or (sign_only and lower > 0):
            return best
        q += 1


def symdiff_at(u_e, u_f, shift, grid):
    """|E triangle (shift + F)| counted cell by cell at one grid shift."""
    idx = tuple(int(round(s * n)) for s, n in zip(shift, grid.sizes))
    e = u_e.values > 0
    f = np.roll(u_f.values > 0, idx, axis=(0, 1))
    return float(np.count_nonzero(e != f)) * grid.cell_volume


def alpha_cells(u, base, grid):
    """alpha of the thresholded field against the base lamella, in cells,
    with alpha re-counted at the returned shift."""
    thr = torus.ScalarField(grid, np.where(u >= 0, 1.0, -1.0))
    ref = shapes.rasterize(base, grid)
    a, shift = shapes.alpha_distance(thr, ref)
    return a / grid.cell_volume, a == symdiff_at(thr, ref, shift, grid)


def diffuse_energy_oracle(u, epsilon, gamma0):
    """E_eps of a 2-D field from its own Fourier sums (Parseval)."""
    n0, n1 = u.shape
    k0 = np.fft.fftfreq(n0, 1.0 / n0)[:, None]
    k1 = np.fft.fftfreq(n1, 1.0 / n1)[None, :]
    ksq = k0**2 + k1**2
    ntot = u.size
    uh = np.fft.fft2(u)
    grad = 4.0 * math.pi**2 * float(np.sum(ksq * np.abs(uh) ** 2)) / ntot**2
    well = float(np.mean((u**2 - 1.0) ** 2))
    nz = ksq > 0
    nl = float(np.sum(np.abs(uh[nz]) ** 2 / ksq[nz])) / (4.0 * math.pi**2 * ntot**2)
    return epsilon * grad + well / epsilon + gamma0 * nl


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _with(result, **changes):
    out = copy.deepcopy(result)
    out.update(changes)
    return out


# ---------------------------------------------------------------------------
# lamella-stability
# ---------------------------------------------------------------------------

class LamellaStability:
    """README k0 query, nine gamma_c queries and one droplet boundary form."""

    name = "lamella-stability"
    K_MAX = 200          # default k_max of stability_threshold_k
    GAMMA_K0 = 300.0     # README `threshold --mode k --gamma 300`

    def setup(self, rng, workdir):
        return {"m_k0": float(rng.uniform(-0.25, 0.25)),
                "center": tuple(float(c) for c in rng.uniform(0.0, 1.0, 2)),
                "gamma_form": float(rng.uniform(0.5, 2.0)),
                "spot_k": [int(k) for k in rng.integers(3, self.K_MAX, 2)]}

    def warmup(self, inp):
        stability.lamella_min_eigenvalue(3, inp["m_k0"], 50.0)
        stability.stability_threshold_gamma(0.0, 1)
        mesh = shapes.boundary_mesh(shapes.Droplet(inp["center"], 0.25), 64)
        stability.constrained_min_eig(
            stability.assemble_boundary_form(mesh, inp["gamma_form"]))

    def tasks(self, inp, ctx):
        def k0():
            rep = stability.stability_threshold_k(inp["m_k0"], self.GAMMA_K0)
            return {"k0": rep.k0, "eigs": np.array(rep.scan["eigs"])}

        def gamma_c(m, k):
            return lambda: {"m": m, "k": k,
                            "gamma_c": stability.stability_threshold_gamma(m, k).gamma_c}

        def form():
            mesh = shapes.boundary_mesh(shapes.Droplet(inp["center"], 0.25), 256)
            f = stability.assemble_boundary_form(mesh, inp["gamma_form"])
            rep = stability.constrained_min_eig(f)
            return {"A": f.matrix, "W": f.weights, "C": f.constraints,
                    "min": rep.min_eigenvalue, "vec": rep.eigenvector}

        out = [("k0", "k0", k0)]
        for m in (-0.2, 0.0, 0.2):
            for k in (1, 3, 8):
                out.append((f"gamma_c m={m} k={k}", "gamma_c", gamma_c(m, k)))
        out.append(("droplet-form", "form", form))
        return out

    def check(self, kind, inp, r):
        bad = []
        if kind == "k0":
            k0, eigs = r["k0"], r["eigs"]
            if k0 is None or len(eigs) != self.K_MAX:
                return [f"k0 {k0} over {len(eigs)} eigenvalues"]
            if not np.all(eigs[k0 - 1:] > 0):
                bad.append("a scanned eigenvalue in [k0, k_max] is not > 0")
            m, g = inp["m_k0"], self.GAMMA_K0
            if k0 > 1 and dense_min_eig(k0 - 1, m, g, sign_only=True) > 0:
                bad.append(f"dense eigvalsh says k0-1={k0 - 1} is stable")
            for k in sorted({k0, self.K_MAX, *inp["spot_k"]}):
                dense = dense_min_eig(k, m, g)
                if _rel(eigs[k - 1], dense) > 1e-9:
                    bad.append(f"k={k}: scan {eigs[k - 1]!r} vs dense {dense!r}")
        elif kind == "gamma_c":
            m, k, gc = r["m"], r["k"], r["gamma_c"]
            if gc is None:
                return [f"gamma_c(m={m}, k={k}) not found"]
            if abs(gc - GAMMA_C[m, k]) > 2e-6:
                bad.append(f"gamma_c(m={m}, k={k}) {gc!r} vs frozen "
                           f"{GAMMA_C[m, k]!r} (bar 2e-6)")
            lo = dense_min_eig(k, m, gc - 1e-3, sign_only=True)
            hi = dense_min_eig(k, m, gc + 1e-3, sign_only=True)
            if not lo > 0 > hi:
                bad.append(f"gamma_c(m={m}, k={k}) not bracketed: ({lo:+.2e}, {hi:+.2e})")
        elif kind == "form":
            A, W, C, vec, lam = r["A"], r["W"], r["C"], r["vec"], r["min"]
            rq = float(vec @ A @ vec) / float(vec @ (W * vec))
            if _rel(rq, lam) > 1e-8:
                bad.append(f"Rayleigh quotient {rq!r} vs reported {lam!r}")
            if np.abs(C @ vec).max() > 1e-9 * np.abs(vec).max() * np.abs(C).max() * len(vec):
                bad.append("eigenvector violates the constraints")
            # complement of the constraint rows by a complete QR, then the
            # generalized problem by a Cholesky whitening
            q, _ = np.linalg.qr(C.T, mode="complete")
            Z = q[:, C.shape[0]:]
            L = np.linalg.cholesky(Z.T @ (W[:, None] * Z))
            Li = np.linalg.inv(L)
            dense = float(np.linalg.eigvalsh(Li @ (Z.T @ A @ Z) @ Li.T)[0])
            if _rel(lam, dense) > 1e-8:
                bad.append(f"constrained min {lam!r} vs dense {dense!r}")
        return bad

    def corruptions(self, kind, r):
        if kind == "k0":
            eigs = r["eigs"].copy()
            eigs[-1] = -abs(eigs[-1])
            return [_with(r, eigs=eigs), _with(r, k0=r["k0"] + 1)]
        if kind == "gamma_c":
            return [_with(r, gamma_c=r["gamma_c"] * (1.0 + 1e-4))]
        vec = r["vec"].copy()
        vec[0] += 0.1 * np.abs(vec).max()
        return [_with(r, min=r["min"] * (1.0 + 1e-6)), _with(r, vec=vec)]


# ---------------------------------------------------------------------------
# flow-relax
# ---------------------------------------------------------------------------

class FlowRelax:
    """A8's stable return at 256^2 plus README-sized 64^2 flows."""

    name = "flow-relax"
    EPS_256, DT_256, STEPS_256 = 0.0125, 1e-5, 400
    EPS_64, DT_64, STEPS_64 = 0.0625, 1e-3, 1000
    README_GAMMA0 = 53.3

    def setup(self, rng, workdir):
        g256 = torus.make_grid(2, (256, 256))
        g64 = torus.make_grid(2, (64, 64))
        base = shapes.lamella(1, 0.0)
        # two stable and two unstable points of A8's (m, gamma / gamma_c) grid
        grid_pts = [(m, f) for m in (-0.2, 0.0, 0.2) for f in (0.3, 0.6, 2.0, 3.0)]
        stable = [p for p in grid_pts if p[1] < 1]
        unstable = [p for p in grid_pts if p[1] > 1]
        picks = ([stable[i] for i in rng.choice(len(stable), 2, replace=False)]
                 + [unstable[i] for i in rng.choice(len(unstable), 2, replace=False)])
        return {"g256": g256, "g64": g64,
                "u256": self._noisy(base, g256, self.EPS_256, rng),
                "u_readme": self._noisy(base, g64, self.EPS_64, rng),
                "seeded": [(m, f * GAMMA_C[m, 1],
                            flow.tanh_profile(shapes.lamella(1, m), g64, self.EPS_64))
                           for m, f in picks]}

    @staticmethod
    def _noisy(base, grid, eps, rng):
        u0 = flow.tanh_profile(base, grid, eps)
        noisy = u0.values + 0.01 * rng.standard_normal(grid.sizes)
        return torus.ScalarField(grid, noisy - noisy.mean() + u0.mean())

    def warmup(self, inp):
        flow.run_flow(inp["u_readme"], self.EPS_64, self.README_GAMMA0, self.DT_64, 3)
        flow.run_flow(inp["u256"], self.EPS_256, 100.0, self.DT_256, 2)
        stability.lamella_min_eigenvalue(1, 0.0, 50.0)

    @staticmethod
    def _summary(u0, st, **extra):
        return dict(extra, mean0=u0.mean(), u=st.u.values,
                    hist=np.array(st.energy_history), steps=st.step)

    def tasks(self, inp, ctx):
        g64 = inp["g64"]

        def stable_return():
            st = flow.run_flow(inp["u256"], self.EPS_256,
                               flow.sharp_gamma_to_gamma0(20.0), self.DT_256,
                               self.STEPS_256)
            return self._summary(inp["u256"], st, m=0.0, gamma0=st.gamma0)

        def seeded(m, gamma, u0):
            def run():
                # perturb along the critical eigenvector, as in A8
                rep = stability.lamella_min_eigenvalue(1, m, gamma)
                base = shapes.lamella(1, m)
                pos, sgn = base.interfaces()
                x0 = g64.axis_coords(0)
                x1 = g64.axis_coords(1)
                bump = np.zeros(g64.sizes)
                for i, p in enumerate(pos):
                    prof = np.exp(-((x1[None, :] - p + 0.5) % 1.0 - 0.5) ** 2
                                  / (2 * self.EPS_64**2))
                    bump += (sgn[i] * rep.eigenvector[i]
                             * np.cos(2 * np.pi * rep.mode * x0)[:, None] * prof)
                vals = u0.values + 0.02 * bump / max(1e-30, np.abs(bump).max())
                start = torus.ScalarField(g64, vals - vals.mean() + u0.mean())
                g0 = flow.sharp_gamma_to_gamma0(gamma)
                st = flow.run_flow(start, self.EPS_64, g0, self.DT_64, self.STEPS_64)
                return self._summary(start, st, m=m, gamma0=g0, gamma=gamma,
                                     stable=bool(rep.min_eigenvalue > 0))
            return run

        def readme():
            st = flow.run_flow(inp["u_readme"], self.EPS_64, self.README_GAMMA0,
                               self.DT_64, self.STEPS_64)
            return self._summary(inp["u_readme"], st, m=0.0,
                                 gamma0=self.README_GAMMA0)

        out = [("stable-return-256", "return256", stable_return)]
        for m, gamma, u0 in inp["seeded"]:
            out.append((f"seeded-64 m={m} gamma={gamma:.4g}", "seeded64",
                        seeded(m, gamma, u0)))
        out.append(("readme-64", "readme64", readme))
        return out

    def check(self, kind, inp, r):
        bad = []
        u, hist = r["u"], r["hist"]
        n = u.shape[0]
        eps, steps = ((self.EPS_256, self.STEPS_256) if n == 256
                      else (self.EPS_64, self.STEPS_64))
        if r["steps"] != steps or len(hist) != steps + 1:
            bad.append(f"{r['steps']} steps, {len(hist)} history rows (want {steps})")
        drift = abs(float(u.mean()) - r["mean0"])
        if drift > 1e-12:
            bad.append(f"mass drift {drift:.2e} (bar 1e-12)")
        if np.any(np.diff(hist[:, 2]) > 0):
            bad.append("energy history increases")
        e = diffuse_energy_oracle(u, eps, r["gamma0"])
        if abs(e - hist[-1, 2]) > 1e-10 * abs(e):
            bad.append(f"final energy {float(hist[-1, 2])!r} vs recomputed {e!r}")
        grid = torus.make_grid(2, (n, n))
        cells, exact = alpha_cells(u, shapes.lamella(1, r["m"]), grid)
        if not exact:
            bad.append("alpha differs from the symmetric difference at its shift")
        if kind == "return256" and cells > 2:
            bad.append(f"stable return off by {cells:.0f} cells (bar 2)")
        if kind == "readme64" and cells > 256:
            bad.append(f"README flow did not return ({cells:.0f} cells)")
        if kind == "seeded64":
            stable = dense_min_eig(1, r["m"], r["gamma"], sign_only=True) > 0
            if stable != r["stable"]:
                bad.append("reported stability sign disagrees with dense eigvalsh")
            if (stable and cells > 256) or (not stable and cells < 1024):
                bad.append(f"outcome {cells:.0f} cells contradicts stable={stable}")
        return bad

    def corruptions(self, kind, r):
        hist = r["hist"].copy()
        hist[-1, 2] = hist[-2, 2] * (1.0 + 1e-9)
        out = [_with(r, hist=hist), _with(r, u=r["u"] + 1e-9)]
        if kind == "seeded64":
            out.append(_with(r, stable=not r["stable"]))
        if kind == "return256":
            # swap three cells deep in each phase: mass is unchanged, but the
            # thresholded field is three cells further from the lamella
            u = r["u"].copy()
            flat = u.reshape(-1)
            hi = np.argsort(flat)[-3:]
            lo = np.argsort(flat)[:3]
            flat[hi], flat[lo] = flat[lo].copy(), flat[hi].copy()
            out.append(_with(r, u=u))
        return out


# ---------------------------------------------------------------------------
# perturb-sample
# ---------------------------------------------------------------------------

class PerturbSample:
    """The perturb-test loop: random graph perturbations of a stable lamella."""

    name = "perturb-sample"
    TRIALS, GAMMA, GRID, MODES, AMPLITUDE = 200, 40.0, 128, 4, 0.25
    # trials whose graph energy is checked against the rasterized energy
    # (trial 0, which the self-check corrupts, plus seeded ones), on a grid
    # fine enough that the two agree to within 4e-5 of the total (worst of
    # 210 seeded trials)
    ENERGY_CHECKS, ENERGY_GRID, ENERGY_RTOL = 8, 512, 2e-4

    def setup(self, rng, workdir):
        base = shapes.lamella(1, 0.0)
        psis = [cli._random_heights(rng, 2 * base.k, 4 * self.MODES, self.MODES,
                                    self.AMPLITUDE * base.interface_gap)
                for _ in range(self.TRIALS)]
        picks = rng.choice(np.arange(1, self.TRIALS), self.ENERGY_CHECKS - 1,
                           replace=False)
        return {"base": base, "psis": psis,
                "grid": torus.make_grid(2, (self.GRID, self.GRID)),
                "energy_checked": {0, *(int(i) for i in picks)}}

    def warmup(self, inp):
        for task_id, kind, fn in self.tasks(inp, None)[:3]:
            fn()

    def tasks(self, inp, ctx):
        base, grid = inp["base"], inp["grid"]
        ref = {}

        def baseline():
            zero = shapes.GraphPerturbation(base, np.zeros_like(inp["psis"][0]))
            ref["j0"] = energy.graph_energy(zero, self.GAMMA).total
            ref["u"] = shapes.rasterize(base, grid)
            return {"j0": ref["j0"]}

        def trial(i, psi):
            def run():
                gp = energy.volume_corrected_perturbation(base, psi)
                jf = energy.graph_energy(gp, self.GAMMA).total
                a, shift = shapes.alpha_distance(shapes.rasterize(gp, grid), ref["u"])
                return {"i": i, "psi": psi, "energy": jf, "excess": jf - ref["j0"],
                        "alpha": a, "shift": shift}
            return run

        return [("baseline", "baseline", baseline)] + [
            (f"trial {i}", "trial", trial(i, psi)) for i, psi in enumerate(inp["psis"])]

    def check(self, kind, inp, r):
        if kind == "baseline":
            want = energy.lamella_closed_form(1, 0.0, self.GAMMA).total
            return [] if _rel(r["j0"], want) <= 1e-9 else [
                f"unperturbed energy {r['j0']!r} vs closed form {want!r}"]
        bad = []
        if not (r["alpha"] > 0 and r["excess"] / r["alpha"] ** 2 > 0):
            bad.append(f"excess {r['excess']:.3e} / alpha {r['alpha']:.3e}^2 not > 0")
        grid = inp["grid"]
        gp = energy.volume_corrected_perturbation(inp["base"], r["psi"])
        if r["i"] in inp["energy_checked"]:
            # the nonlocal term by a Poisson solve of the rasterized shape
            fine = torus.make_grid(2, (self.ENERGY_GRID, self.ENERGY_GRID))
            want = energy.energy(gp, self.GAMMA, fine).total
            if _rel(r["energy"], want) > self.ENERGY_RTOL:
                bad.append(f"graph energy {r['energy']!r} vs rasterized {want!r} "
                           f"(bar {self.ENERGY_RTOL})")
        sd = symdiff_at(shapes.rasterize(gp, grid),
                        shapes.rasterize(inp["base"], grid), r["shift"], grid)
        if sd != r["alpha"]:
            bad.append(f"alpha {r['alpha']!r} vs symmetric difference {sd!r} at its shift")
        return bad

    def corruptions(self, kind, r):
        if kind == "baseline":
            return [_with(r, j0=r["j0"] * (1.0 + 1e-6))]
        cell = 1.0 / self.GRID**2
        return [_with(r, excess=-abs(r["excess"])), _with(r, alpha=r["alpha"] + cell),
                _with(r, energy=r["energy"] * (1.0 + 1e-3))]


# ---------------------------------------------------------------------------
# cli-readme
# ---------------------------------------------------------------------------

class CliReadme:
    """README CLI commands as subprocesses (all but `threshold --mode k` and
    `perturb-test`, which lamella-stability and perturb-sample cover)."""

    name = "cli-readme"

    def setup(self, rng, workdir):
        paths = []
        for tag in ("a", "b"):
            center = ",".join(repr(float(c)) for c in rng.uniform(0.0, 1.0, 2))
            radius = float(rng.uniform(0.12, 0.3))
            path = os.path.join(workdir, f"{tag}.shape")
            with open(path, "w") as fh:
                fh.write(f"kind=droplet\ncenter={center}\nradius={radius!r}\ndim=2\n")
            paths.append(path)
        return {"commands": [
            ["energy", "--shape", "lamella", "--k", "1", "--m", "0.0", "--gamma", "1.0"],
            ["stability-scan", "--m", "0.0", "--gamma", "50", "--k-max", "10"],
            ["threshold", "--mode", "gamma", "--m", "0.0", "--k", "1"],
            ["fd-check", "--gamma", "1.0", "--q", "1"],
            ["flow", "--epsilon", "0.0625", "--gamma0", "53.3", "--grid", "64",
             "--dt", "1e-3", "--steps", "1000"],
            ["iso-compare", "--m", "0.0", "--dim", "3"],
            ["criticality", "--shape", "droplet", "--radius", "0.25", "--gamma", "0.0"],
            ["alpha", "--a", paths[0], "--b", paths[1], "--grid", "128"],
        ]}

    def warmup(self, inp):
        pass

    def tasks(self, inp, ctx):
        def run(argv):
            def call():
                if ctx.trace_dir is None:
                    cmd = [sys.executable, "-m", "okstab.cli", *argv]
                else:
                    out = os.path.join(ctx.trace_dir, f"cli-{len(ctx.cli_runs)}.json")
                    cmd = [sys.executable, ctx.trace_cli, out, *argv]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True)
                ctx.cli_runs.append(time.perf_counter() - t0)
                if proc.returncode:
                    sys.stderr.write(proc.stderr)
                return {"argv": argv, "rc": proc.returncode, "out": proc.stdout}
            return call
        return [(" ".join(argv[:3]), argv[0], run(argv)) for argv in inp["commands"]]

    @staticmethod
    def _parse(out):
        prov, rows = {}, []
        lines = out.splitlines()
        for line in lines[1:]:
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                prov[key] = val
            else:
                rows.append(line.split(","))
        return lines[:1], prov, rows[1:]

    def check(self, kind, inp, r):
        if r["rc"] != 0:
            return [f"exit code {r['rc']}"]
        head, prov, rows = self._parse(r["out"])
        bad = []
        if head != [f"# okstab {okstab.__version__}"]:
            bad.append(f"first line {head!r} is not the version line")
        argv = r["argv"]
        for flag, val in zip(argv[1::2], argv[2::2]):
            key = flag[2:].replace("-", "_")
            got = prov.get(key)
            if got is None or (got != val and _num(got) != _num(val)):
                bad.append(f"provenance line '# {key}={val}' missing (got {got!r})")
        want = self._library_rows(kind, tuple(argv))
        got_rows = [[_num(c) for c in row] for row in rows]
        if got_rows != want:
            bad.append(f"CSV rows {got_rows[:3]!r}... differ from the library {want[:3]!r}...")
        return bad

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _library_rows(kind, argv):
        """The rows each command should print, straight from the library."""
        if kind == "energy":
            br = energy.energy(shapes.Lamella(k=1, m=0.0, axis=-1, dim=2), 1.0)
            return [[0.0, 1.0, 1, br.perimeter, br.nonlocal_term, br.total]]
        if kind == "stability-scan":
            rows = []
            for k in range(1, 11):
                rep = stability.lamella_min_eigenvalue(k, 0.0, 50.0)
                rows.append([k, 0.0, 50.0, rep.min_eigenvalue, rep.mode])
            return rows
        if kind == "threshold":
            gc = stability.stability_threshold_gamma(0.0, 1).gamma_c
            if abs(gc - GAMMA_C[0.0, 1]) > 2e-6:
                return [["frozen gamma_c mismatch", gc]]
            return [[0.0, 1, "gamma_c", gc]]
        if kind == "fd-check":
            base = shapes.Lamella(k=1, m=0.0, axis=-1, dim=2)
            x = np.arange(64) / 64
            psi = np.zeros((2, 64))
            psi[0] = np.cos(2 * np.pi * x)
            rep = stability.finite_difference_check(base, psi, 1.0, t_list=(0.02, 0.01))
            rows = [[t, d2] for t, d2 in zip(rep.t_values, rep.second_differences)]
            return rows + [["richardson", rep.richardson], ["form_value", rep.form_value],
                           ["ratio", rep.ratio]]
        if kind == "flow":
            grid = torus.make_grid(2, (64, 64))
            u0 = flow.tanh_profile(shapes.Lamella(k=1, m=0.0, axis=-1, dim=2), grid, 0.0625)
            st = flow.run_flow(u0, 0.0625, 53.3, 1e-3, 1000)
            return [[s, t, e] for s, t, e in st.energy_history]
        if kind == "iso-compare":
            rows, best = energy.isoperimetric_compare(0.0, 3)
            return [[r["name"], r["perimeter"], int(r["valid"]),
                     "min" if r["name"] == best else ""] for r in rows]
        if kind == "criticality":
            mesh = shapes.boundary_mesh(shapes.Droplet((0.5, 0.5), 0.25, dim=2), 256)
            rep = energy.el_residual(mesh, 0.0, torus.make_grid(2, (256, 256)))
            return [["lambda", rep.lam], ["residual_sup", rep.residual_sup]]
        if kind == "alpha":
            grid = torus.make_grid(2, (128, 128))
            ua = shapes.rasterize(shapes.load_shape(argv[2]), grid)
            ub = shapes.rasterize(shapes.load_shape(argv[4]), grid)
            a, shift = shapes.alpha_distance(ua, ub)
            if symdiff_at(ua, ub, shift, grid) != a:
                return [["alpha differs from the symmetric difference at its shift"]]
            return [[a, shift[0], shift[1]]]
        raise ValueError(f"no library oracle for {kind!r}")

    def corruptions(self, kind, r):
        lines = r["out"].splitlines(keepends=True)
        last = lines[-1].rstrip("\n")
        digit = last[-1]
        changed = last[:-1] + ("1" if digit != "1" else "2") + "\n"
        return [_with(r, rc=1),
                _with(r, out="".join(ln for ln in lines if not ln.startswith("# okstab"))),
                _with(r, out="".join(lines[:-1]) + changed)]


def _num(s):
    """CSV cell as int, float or string (exact round trip of repr)."""
    for conv in (int, float):
        try:
            return conv(s)
        except ValueError:
            pass
    return s


WORKLOADS = {w.name: w for w in (LamellaStability(), FlowRelax(),
                                 PerturbSample(), CliReadme())}
