"""Batch command-line front end.

Subcommands: energy, stability-scan, threshold, perturb-test, fd-check,
flow, iso-compare, criticality, alpha.  Every run writes a CSV whose
leading `#` lines echo the resolved configuration (so a run can be
reproduced from its own output).  Exit codes: 0 success, 1 validation
error / bad usage, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_FIELD_GRID, read_key_values
from .energy import (el_residual, energy, graph_energy, isoperimetric_compare,
                     lamella_closed_form, strip_disc_crossing,
                     volume_corrected_perturbation)
from .flow import run_flow, sharp_gamma_to_gamma0, tanh_profile
from .shapes import (Droplet, GraphPerturbation, Lamella, alpha_distance,
                     boundary_mesh, load_shape, rasterize)
from .stability import (finite_difference_check, lamella_min_eigenvalue,
                        stability_threshold_gamma, stability_threshold_k)
from .torus import NumericalError, ScalarField, ValidationError, make_grid


def _find_subparser(parser: argparse.ArgumentParser, command: str):
    for act in parser._actions:
        if isinstance(act, argparse._SubParsersAction):
            return act.choices[command]
    raise ValidationError("no subcommands registered")


def _set_config_defaults(args: argparse.Namespace,
                         parser: argparse.ArgumentParser):
    """Make the --config key=value pairs defaults of the subcommand, so a
    re-parse applies them unless the flag is given on the command line.
    Unknown keys are rejected; argparse coerces each value with the
    option's declared type."""
    sub = _find_subparser(parser, args.command)
    dests = {a.dest for a in sub._actions}
    for key, val in read_key_values(args.config).items():
        dest = key.replace("-", "_")
        if dest not in dests:
            raise ValidationError(f"unknown config key {key!r}")
        sub.set_defaults(**{dest: val})


def _write_csv(path: str | None, provenance: dict, header: str, rows):
    lines = [f"# okstab {__version__}"]
    for key in sorted(provenance):
        lines.append(f"# {key}={provenance[key]}")
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _provenance(args, keys):
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _shape_from_args(args):
    if args.shape == "lamella":
        return Lamella(k=args.k, m=args.m, axis=-1, dim=args.dim)
    if args.shape == "droplet":
        center = tuple(float(c) for c in args.center.split(","))
        return Droplet(center=center, radius=args.radius, dim=args.dim)
    raise ValidationError(f"unknown shape {args.shape!r}")


def cmd_energy(args):
    shape = _shape_from_args(args)
    grid = None
    if args.grid:
        dim = shape.dim
        grid = make_grid(dim, (args.grid,) * dim)
    br = energy(shape, args.gamma, grid)
    rows = [(args.m, args.gamma, getattr(shape, "k", ""), br.perimeter,
             br.nonlocal_term, br.total)]
    _write_csv(args.out, _provenance(args, ("shape", "k", "m", "gamma",
                                            "radius", "center", "grid")),
               "m,gamma,k,perimeter,nonlocal,total", rows)
    return 0


def cmd_stability_scan(args):
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        rep = lamella_min_eigenvalue(k, args.m, args.gamma)
        rows.append((k, args.m, args.gamma, rep.min_eigenvalue, rep.mode))
    _write_csv(args.out, _provenance(args, ("m", "gamma", "k_min", "k_max")),
               "k,m,gamma,min_eigenvalue,q", rows)
    return 0


def cmd_threshold(args):
    if args.mode == "gamma":
        rep = stability_threshold_gamma(args.m, args.k)
        val = rep.gamma_c if rep.gamma_c is not None else "stable"
        rows = [(args.m, args.k, "gamma_c", val)]
    else:
        rep = stability_threshold_k(args.m, args.gamma)
        rows = [(args.m, args.gamma, "k0",
                 rep.k0 if rep.k0 is not None else "none")]
    _write_csv(args.out, _provenance(args, ("mode", "m", "k", "gamma")),
               "param1,param2,kind,value", rows)
    return 0


def cmd_perturb_test(args):
    base = Lamella(k=args.k, m=args.m, axis=-1, dim=2)
    rng = np.random.default_rng(args.seed)
    j0 = graph_energy(GraphPerturbation(base, np.zeros((2 * base.k, args.modes * 4))),
                      args.gamma).total
    grid = make_grid(2, (args.grid, args.grid))
    u_base = rasterize(base, grid)
    rows = []
    worst = np.inf
    n_nodes = 4 * args.modes
    for trial in range(args.trials):
        psi = _random_heights(rng, 2 * base.k, n_nodes, args.modes,
                              args.amplitude * base.interface_gap)
        gp = volume_corrected_perturbation(base, psi)
        jf = graph_energy(gp, args.gamma).total
        a, _ = alpha_distance(rasterize(gp, grid), u_base)
        ratio = (jf - j0) / a**2 if a > 0 else float("inf")
        worst = min(worst, ratio)
        rows.append((trial, jf - j0, a, ratio))
    rows.append(("min", "", "", worst))
    _write_csv(args.out, _provenance(args, ("k", "m", "gamma", "trials",
                                            "seed", "grid", "amplitude")),
               "trial,energy_excess,alpha,ratio", rows)
    return 0


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
    x = np.arange(n) / n
    psi = np.zeros((2 * base.k, n))
    psi[args.interface % (2 * base.k)] = np.cos(2 * np.pi * args.q * x)
    rep = finite_difference_check(base, psi, args.gamma,
                                  t_list=(args.t, args.t / 2))
    rows = [(t, d2) for t, d2 in zip(rep.t_values, rep.second_differences)]
    rows.append(("richardson", rep.richardson))
    rows.append(("form_value", rep.form_value))
    rows.append(("ratio", rep.ratio))
    _write_csv(args.out, _provenance(args, ("k", "m", "gamma", "q",
                                            "interface", "t")),
               "t,second_difference", rows)
    return 0


def cmd_flow(args):
    grid = make_grid(2, (args.grid, args.grid))
    base = Lamella(k=args.k, m=args.m, axis=-1, dim=2)
    u0 = tanh_profile(base, grid, args.epsilon)
    if args.noise > 0:
        rng = np.random.default_rng(args.seed)
        mean0 = u0.mean()
        noisy = u0.values + args.noise * rng.standard_normal(grid.sizes)
        u0 = ScalarField(grid, noisy - noisy.mean() + mean0)
    st = run_flow(u0, args.epsilon, args.gamma0, args.dt, args.steps,
                  stop_tol=args.stop_tol)
    rows = [(s, t, e) for (s, t, e) in st.energy_history[:: max(1, args.stride)]]
    if rows[-1][0] != st.energy_history[-1][0]:
        rows.append(st.energy_history[-1])
    _write_csv(args.out, _provenance(args, ("k", "m", "epsilon", "gamma0",
                                            "grid", "dt", "steps", "seed",
                                            "noise")),
               "step,t,energy", [(s, t, e) for (s, t, e) in rows])
    return 0


def cmd_iso_compare(args):
    rows_in, best = isoperimetric_compare(args.m, args.dim)
    rows = [(r["name"], r["perimeter"], int(r["valid"]),
             "min" if r["name"] == best else "") for r in rows_in]
    _write_csv(args.out, _provenance(args, ("m", "dim")),
               "candidate,perimeter,valid,flag", rows)
    return 0


def cmd_criticality(args):
    shape = _shape_from_args(args)
    mesh = boundary_mesh(shape, args.n_points)
    grid = make_grid(2, (args.grid or DEFAULT_FIELD_GRID,) * 2)
    rep = el_residual(mesh, args.gamma, grid)
    rows = [("lambda", rep.lam), ("residual_sup", rep.residual_sup)]
    _write_csv(args.out, _provenance(args, ("shape", "k", "m", "gamma",
                                            "radius", "center", "n_points",
                                            "grid")),
               "quantity,value", rows)
    return 0


def cmd_alpha(args):
    grid = make_grid(2, (args.grid, args.grid))
    ua = rasterize(load_shape(args.a), grid)
    ub = rasterize(load_shape(args.b), grid)
    val, shift = alpha_distance(ua, ub)
    rows = [(val, shift[0], shift[1])]
    _write_csv(args.out, _provenance(args, ("a", "b", "grid")),
               "alpha,shift0,shift1", rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="okstab",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
        sp.add_argument("--config", default=None,
                        help="flat key=value config file; CLI flags win")

    sp = sub.add_parser("energy", help="energy breakdown of a shape")
    sp.add_argument("--shape", required=True, choices=["lamella", "droplet"])
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--radius", type=float, default=0.25)
    sp.add_argument("--center", default="0.5,0.5")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--grid", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("stability-scan", help="minimal eigenvalue over k")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--k-min", type=int, default=1)
    sp.add_argument("--k-max", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_stability_scan)

    sp = sub.add_parser("threshold", help="gamma_c or k0 threshold")
    sp.add_argument("--mode", choices=["gamma", "k"], required=True)
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--gamma", type=float, default=1.0)
    common(sp)
    sp.set_defaults(func=cmd_threshold)

    sp = sub.add_parser("perturb-test", help="random perturbation sampling")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", type=int, default=128)
    sp.add_argument("--modes", type=int, default=4)
    sp.add_argument("--amplitude", type=float, default=0.25)
    common(sp)
    sp.set_defaults(func=cmd_perturb_test)

    sp = sub.add_parser("fd-check", help="second difference vs quadratic form")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--q", type=int, default=1)
    sp.add_argument("--interface", type=int, default=0)
    sp.add_argument("--t", type=float, default=0.02)
    common(sp)
    sp.set_defaults(func=cmd_fd_check)

    sp = sub.add_parser("flow", help="conserved diffuse-interface flow")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--gamma0", type=float, default=0.0)
    sp.add_argument("--grid", type=int, default=128)
    sp.add_argument("--dt", type=float, default=1e-4)
    sp.add_argument("--steps", type=int, default=500)
    sp.add_argument("--stop-tol", type=float, default=0.0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--stride", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("iso-compare", help="classical candidate perimeters")
    sp.add_argument("--m", type=float, required=True)
    sp.add_argument("--dim", type=int, default=2)
    common(sp)
    sp.set_defaults(func=cmd_iso_compare)

    sp = sub.add_parser("criticality", help="Euler-Lagrange residual")
    sp.add_argument("--shape", required=True, choices=["lamella", "droplet"])
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--radius", type=float, default=0.25)
    sp.add_argument("--center", default="0.5,0.5")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--n-points", type=int, default=256)
    sp.add_argument("--grid", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_criticality)

    sp = sub.add_parser("alpha", help="translation-modded symmetric difference")
    sp.add_argument("--a", required=True, help="shape description file")
    sp.add_argument("--b", required=True, help="shape description file")
    sp.add_argument("--grid", type=int, default=128)
    common(sp)
    sp.set_defaults(func=cmd_alpha)
    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        if args.config:
            _set_config_defaults(args, parser)
            args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
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
