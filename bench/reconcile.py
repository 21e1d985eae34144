"""Compare traced runs with the hand-measured baseline in ROADMAP.md.

    python3 bench/run.py --workload W --seed 1 --seconds 30 --trace 1   # each W
    python3 bench/reconcile.py

Reads `.bench_out/<workload>-s1/trace.json` of the four workloads and
prints each hand-baseline figure next to its counterpart from the traces.
CLI figures that no workload times directly are rebuilt from the library
time plus the median CLI start-up (interpreter start, import, dispatch
overhead) measured on cli-readme.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

# figure, hand baseline in seconds (ROADMAP "Recent", re-anchor)
BASELINE = [
    ("CLI threshold --mode k --gamma 300", 17.1),
    ("CLI perturb-test, 100 trials", 5.3),
    ("CLI flow README example", 2.1),
    ("flow step 64^2", 1.6e-3),
    ("flow step 256^2", 20e-3),
    ("Poisson solve 256^2", 4.0e-3),
    ("droplet boundary form n=256", 0.50),
]


def load(workload):
    path = ROOT / ".bench_out" / f"{workload}-s{SEED}" / "trace.json"
    return json.loads(path.read_text())


def main():
    lam = load("lamella-stability")["summary"]
    flo = load("flow-relax")["summary"]
    per = load("perturb-sample")
    cli = load("cli-readme")
    runs = cli["walls"]["cli_runs_s"]
    startup = cli["summary"]["cli.startup_s"] / len(runs)
    flow_cli = next(w for argv, w in runs if argv[0] == "flow")
    # perturb-sample's untraced pass is 200 trials plus the unperturbed energy
    perturb_100 = per["walls"]["untraced_pass_s"] / 2 + startup
    ours = [
        lam["stability.stability_threshold_k.p50_ms"] / 1e3 + startup,
        perturb_100,
        flow_cli,
        flo["flow.flow_step.64.p50_ms"] / 1e3,
        flo["flow.flow_step.256.p50_ms"] / 1e3,
        flo["torus.solve_poisson_periodic.256.p50_ms"] / 1e3,
        lam["stability.assemble_boundary_form.p50_ms"] / 1e3,
    ]
    print(f"{'figure':38s} {'hand':>10s} {'traced':>10s} {'ratio':>6s}")
    for (name, hand), got in zip(BASELINE, ours):
        print(f"{name:38s} {hand:10.4g} {got:10.4g} {got / hand:6.2f}")
    print(f"mean CLI start-up {startup:.3f} s over {len(runs)} commands; "
          f"median import of okstab.cli {cli['summary']['cli.import_s']:.3f} s")


if __name__ == "__main__":
    main()
