"""Batch command-line front end.

Subcommands: energy, stability-scan, threshold, perturb-test, fd-check,
flow, iso-compare, criticality, alpha.  Each `cmd_*` handler returns a
CSV header and its rows; `dispatch` writes them after `#` lines that echo
the package version and every resolved option (so a run can be reproduced
from its own output).  Exit codes: 0 success, 1 validation error / bad
usage / unreadable or unwritable file, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import read_key_values
from .energy import (_check_gamma, el_residual, energy, graph_energy,
                     isoperimetric_compare, volume_corrected_perturbation)
from .flow import run_flow, tanh_profile
from .shapes import (GraphPerturbation, Lamella, alpha_distance, boundary_mesh,
                     graph_alpha, load_shape, rasterize, record_to_shape)
from .stability import (finite_difference_check, lamella_min_eigenvalue,
                        stability_threshold_gamma, stability_threshold_k)
from .torus import NumericalError, ScalarField, ValidationError, make_grid


def _write_csv(path: str | None, provenance: dict, header: str, rows):
    lines = [f"# okstab {__version__}"]
    lines += [f"# {key}={val}" for key, val in sorted(provenance.items())]
    lines += [header] + [",".join(map(str, row)) for row in rows]    # str(float) is repr
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(args):
    """Every option of the parsed subcommand that has a value, except the
    output path and the config file (whose pairs are echoed as options)."""
    return {k: v for k, v in vars(args).items()
            if v is not None and k not in ("command", "func", "out", "config")}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _use_options(args, unused, why, **defaults):
    """The rule for options a run may not use: each given one of `unused` is
    an error naming it, each unset one of `defaults` takes its default."""
    for name in unused:
        if vars(args)[name] is not None:
            raise ValidationError(f"--{name} has no use {why}; drop it")
    for name, default in defaults.items():
        if vars(args)[name] is None:
            setattr(args, name, default)


def _shape_from_args(args):
    """Shape from the shape options; another shape's option is an error, a
    bad value a ValidationError naming its key."""
    if args.shape == "lamella":
        _use_options(args, ("radius", "center", "grid"), "for a lamella", k=1, m=0.0)
    else:
        _use_options(args, ("k", "m"), "for a droplet", radius=0.25, center="0.5,0.5")
    return record_to_shape(dict(vars(args), kind=args.shape))


def cmd_energy(args):
    shape = _shape_from_args(args)
    grid = None
    if args.grid is not None:
        grid = make_grid(shape.dim, (args.grid,) * shape.dim)
    br = energy(shape, args.gamma, grid)
    return "m,gamma,k,perimeter,nonlocal,total", [
        (getattr(shape, "m", ""), args.gamma, getattr(shape, "k", ""), br.perimeter,
         br.nonlocal_term, br.total)]


def cmd_stability_scan(args):
    _require_at_least(args, k_min=1)
    if args.k_min > args.k_max:
        raise ValidationError(f"--k-min ({args.k_min}) exceeds --k-max ({args.k_max})")
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        rep = lamella_min_eigenvalue(k, args.m, args.gamma)
        rows.append((k, args.m, args.gamma, rep.min_eigenvalue, rep.mode))
    return "k,m,gamma,min_eigenvalue,q", rows


def cmd_threshold(args):
    if args.mode == "gamma":
        _use_options(args, ("gamma",), "with --mode gamma", k=1)
        rep = stability_threshold_gamma(args.m, args.k)
        rows = [(args.m, args.k, "gamma_c", rep.gamma_c)]
    else:
        _use_options(args, ("k",), "with --mode k", gamma=1.0)
        _check_gamma(args.gamma)
        k_max = 200     # stability_threshold_k's default
        gc = stability_threshold_gamma(args.m, k_max).gamma_c   # M(q) is linear in gamma
        if args.gamma >= gc:
            raise ValidationError(f"no k0 <= k_max = {k_max}: k = {k_max} is unstable "
                                  f"from gamma_c(m, {k_max}) = {gc!r} on")
        rep = stability_threshold_k(args.m, args.gamma, k_max)
        rows = [(args.m, args.gamma, "k0",
                 rep.k0 if rep.k0 is not None else "none")]
    return "param1,param2,kind,value", rows


def _require_at_least(args, **lows):
    for name, low in lows.items():
        if not vars(args)[name] >= low:
            raise ValidationError(f"--{name.replace('_', '-')} must be >= {low}, "
                                  f"got {vars(args)[name]}")


def cmd_perturb_test(args):
    _require_at_least(args, trials=1, modes=1)
    if not 0 < args.amplitude < np.inf:
        raise ValidationError(f"--amplitude must be > 0 and finite, got {args.amplitude}")
    base = Lamella(k=args.k, m=args.m, axis=-1, dim=2)
    rng = np.random.default_rng(args.seed)
    n_nodes = 4 * args.modes
    j0 = graph_energy(GraphPerturbation(base, np.zeros((2 * base.k, n_nodes))),
                      args.gamma).total
    rows = []
    for trial in range(args.trials):
        psi = _random_heights(rng, 2 * base.k, n_nodes, args.modes,
                              args.amplitude * base.interface_gap)
        try:
            gp = volume_corrected_perturbation(base, psi)
        except ValidationError as exc:
            raise ValidationError(f"--amplitude {args.amplitude}: {exc}") from None
        jf = graph_energy(gp, args.gamma).total
        a = graph_alpha(gp)
        rows.append((trial, jf - j0, a, (jf - j0) / a**2 if a > 0 else float("inf")))
    rows.append(("min", "", "", min(row[3] for row in rows)))
    return "trial,energy_excess,alpha,ratio", rows


def _random_heights(rng, n_rows, n_nodes, n_modes, amp):
    x = np.arange(n_nodes) / n_nodes
    psi = np.zeros((n_rows, n_nodes))
    for j in range(n_rows):
        for q in range(1, n_modes + 1):
            psi[j] += (rng.normal() * np.cos(2 * np.pi * q * x)
                       + rng.normal() * np.sin(2 * np.pi * q * x)) / q
        psi[j] += rng.normal() * 0.3
    peak = np.abs(psi).max()
    if peak > 0:
        psi *= amp / peak
    return psi


def cmd_fd_check(args):
    base = Lamella(k=args.k, m=args.m, axis=-1, dim=2)
    n = 64
    for name, low, high in (("interface", 0, 2 * base.k - 1), ("q", 1, n // 2)):
        if not low <= vars(args)[name] <= high:
            raise ValidationError(f"--{name} must lie in {low}..{high}, "
                                  f"got {vars(args)[name]}")
    if not 0 < args.t < np.inf:
        raise ValidationError(f"--t must be > 0 and finite, got {args.t}")
    x = np.arange(n) / n
    psi = np.zeros((2 * base.k, n))
    psi[args.interface] = np.cos(2 * np.pi * args.q * x)
    try:    # the heights are affine in t, so steps +-t cover +-t/2
        for t in (args.t, -args.t):
            volume_corrected_perturbation(base, t * psi)
    except ValidationError as exc:
        raise ValidationError(f"--t {args.t}: {exc}") from None
    rep = finite_difference_check(base, psi, args.gamma,
                                  t_list=(args.t, args.t / 2))
    rows = [(t, d2) for t, d2 in zip(rep.t_values, rep.second_differences)]
    rows.append(("richardson", rep.richardson))
    rows.append(("form_value", rep.form_value))
    rows.append(("ratio", rep.ratio))
    return "t,second_difference", rows


def cmd_flow(args):
    _require_at_least(args, stride=1, noise=0, stop_tol=0)
    if args.noise == 0:
        _use_options(args, ("seed",), "without --noise")
    elif args.seed is None:
        args.seed = 0
    grid = make_grid(2, (args.grid, args.grid))
    base = Lamella(k=args.k, m=args.m, axis=-1, dim=2)
    u0 = tanh_profile(base, grid, args.epsilon)
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        noisy = u0.values + args.noise * rng.standard_normal(grid.sizes)
        u0 = ScalarField._adopt(grid, noisy - noisy.mean() + u0.mean())
    st = run_flow(u0, args.epsilon, args.gamma0, args.dt, args.steps,
                  stop_tol=args.stop_tol)
    rows = st.energy_history[::args.stride]
    if rows[-1][0] != st.energy_history[-1][0]:
        rows.append(st.energy_history[-1])
    return "step,t,energy", rows


def cmd_iso_compare(args):
    rows_in, best = isoperimetric_compare(args.m, args.dim)
    return "candidate,perimeter,valid,flag", [
        (r["name"], r["perimeter"], int(r["valid"]),
         "min" if r["name"] == best else "") for r in rows_in]


def cmd_criticality(args):
    shape = _shape_from_args(args)
    if args.gamma == 0:     # el_residual needs no potential
        _use_options(args, ("grid",), "at --gamma 0")
    mesh = boundary_mesh(shape, args.n_points)
    grid = make_grid(2, (args.grid,) * 2) if args.grid is not None else None
    rep = el_residual(mesh, args.gamma, grid)
    return "quantity,value", [("lambda", rep.lam),
                              ("residual_sup", rep.residual_sup)]


def cmd_alpha(args):
    grid = make_grid(2, (args.grid, args.grid))
    ua = rasterize(load_shape(args.a), grid)
    ub = rasterize(load_shape(args.b), grid)
    val, shift = alpha_distance(ua, ub)
    return "alpha,shift0,shift1", [(val, shift[0], shift[1])]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _io_options() -> argparse.ArgumentParser:
    """--out and --config, which every subcommand takes; `dispatch` also
    finds --config with it before the full parse."""
    io = argparse.ArgumentParser(prog="okstab", add_help=False)
    io.add_argument("--out", default=None, help="CSV output path (default stdout)")
    io.add_argument("--config", default=None,
                    help="flat key=value file of options; CLI flags win")
    return io


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="okstab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")
    io = _io_options()

    strips = argparse.ArgumentParser(add_help=False)
    strips.add_argument("--k", type=int, default=1)
    strips.add_argument("--m", type=float, default=0.0)

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--shape", required=True, choices=["lamella", "droplet"])
    shape.add_argument("--k", type=int, help="lamella only (default 1)")
    shape.add_argument("--m", type=float, help="lamella only (default 0.0)")
    shape.add_argument("--gamma", type=float, default=0.0)
    shape.add_argument("--radius", type=float, help="droplet only (default 0.25)")
    shape.add_argument("--center", help="droplet only (default 0.5,0.5)")
    shape.add_argument("--grid", type=int,
                       help="droplet only: raster size per axis (default 256)")

    sp = sub.add_parser("energy", parents=[shape, io],
                        help="energy breakdown of a shape")
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("stability-scan", parents=[io],
                        help="minimal eigenvalue over k")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--k-min", type=int, default=1)
    sp.add_argument("--k-max", type=int, default=10)
    sp.set_defaults(func=cmd_stability_scan)

    sp = sub.add_parser("threshold", parents=[io], help="gamma_c or k0 threshold")
    sp.add_argument("--mode", choices=["gamma", "k"], required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--k", type=int, help="--mode gamma only (default 1)")
    sp.add_argument("--gamma", type=float, help="--mode k only (default 1.0)")
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("perturb-test", parents=[strips, io],
                        help="random perturbation sampling")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--amplitude", type=float, default=0.25)
    sp.set_defaults(func=cmd_perturb_test)

    sp = sub.add_parser("fd-check", parents=[strips, io],
                        help="second difference vs quadratic form")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--interface", type=int, default=0)
    sp.add_argument("--t", type=float, default=0.02)
    sp.set_defaults(func=cmd_fd_check)

    sp = sub.add_parser("flow", parents=[strips, io],
                        help="conserved diffuse-interface flow")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--gamma0", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=128)
    sp.add_argument("--dt", type=float, default=1e-4)
    sp.add_argument("--steps", type=int, default=500)
    sp.add_argument("--stop-tol", type=float, default=0.0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--seed", type=int, help="--noise > 0 only (default 0)")
    sp.add_argument("--stride", type=int, default=1)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("iso-compare", parents=[io],
                        help="classical candidate perimeters")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--dim", type=int, default=2)
    sp.set_defaults(func=cmd_iso_compare)

    sp = sub.add_parser("criticality", parents=[shape, io],
                        help="Euler-Lagrange residual")
    sp.add_argument("--n-points", type=int, default=256)
    sp.set_defaults(func=cmd_criticality)

    sp = sub.add_parser("alpha", parents=[io],
                        help="translation-modded symmetric difference")
    sp.add_argument("--a", required=True, help="shape description file")
    sp.add_argument("--b", required=True, help="shape description file")
    sp.add_argument("--grid", type=int, default=128)
    sp.set_defaults(func=cmd_alpha)
    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = _io_options().parse_known_args(argv)[0].config
        pairs = read_key_values(config) if config else {}
        # config pairs go just after the subcommand, so the user's own
        # flags come later and win; argparse coerces and checks them all
        argv[1:1] = [f"--{key.replace('_', '-')}={val}"
                     for key, val in pairs.items()]
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        for key in pairs:
            # argparse would take an abbreviation such as `gam` for --gamma
            if key == "config" or key.replace("-", "_") not in vars(args):
                raise ValidationError(f"unknown config key {key!r}")
        header, rows = args.func(args)
        _write_csv(args.out, _provenance(args), header, rows)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # --config, --out or a shape file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:   # argparse errors
        return 1 if exc.code not in (0, None) else 0


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
