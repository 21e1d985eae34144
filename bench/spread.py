"""Run-to-run spread of the end-to-end metrics, in two interleaved batches.

    python3 bench/spread.py WORKLOAD [WORKLOAD ...]

For each workload, runs `bench/run.py` (tracing off, `run_seconds` from
BENCHMARK.json) for seeds 1 to 10, twice per seed: batch A, then batch B,
then the next seed.  Interleaving lets a slow spell of the host hit both
batches alike.  Prints, per metric and batch, the median and the distance
between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), and how far B's median is from
A's, next to the metric's bound.  Each run's own duration is printed too,
to check that a full set of runs fits a time budget.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
BATCHES = "AB"


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    workloads = sys.argv[1:]
    if not workloads:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {b: {} for b in BATCHES}
        for seed in SEEDS:
            for batch in BATCHES:
                t0 = time.perf_counter()
                res = run_once(workload, seed, spec["run_seconds"])
                elapsed = time.perf_counter() - t0
                ok &= res["correct"]
                for name, m in res["metrics"].items():
                    values[batch].setdefault(name, []).append(m["value"])
                print(f"{workload} seed {seed} {batch}: " + ", ".join(
                    f"{k}={v[-1]:.4g}" for k, v in values[batch].items())
                    + f" ({elapsed:.1f} s)", flush=True)
        for name, m in metrics.items():
            meds = {}
            for batch in BATCHES:
                q1, meds[batch], q3 = statistics.quantiles(values[batch][name], n=4)
                spread = (q3 - q1) / meds[batch]
                print(f"{workload:18s} {name:12s} {batch} median "
                      f"{meds[batch]:10.4f}  spread {spread:6.3f}  bound "
                      f"{m['bound']}  {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
            worse = (meds["B"] - meds["A"]) / meds["A"]
            if m["better"] == "higher":
                worse = -worse
            print(f"{workload:18s} {name:12s} B vs A {worse:+7.3f}  "
                  f"{'ok' if worse <= m['bound'] else 'OUT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
