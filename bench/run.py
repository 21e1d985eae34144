"""okstab benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from ./src,
nothing is installed).  Workloads and metrics are listed in BENCHMARK.json
and explained in bench/README.md.  This controller imports no numpy: it
caps BLAS/OpenMP threads in the environment of every child before numpy
loads there, times the set-up of fresh processes, runs the workload in one
worker process and prints the worker's environment stamp and, as the last
line, one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3          # fresh set-ups before and again after the worker;
                        # setup_s is the median of all of them
THREADS = "1"           # BLAS/OpenMP threads per process (<= nproc)
DEADLINE_S = 170        # a run must exit within 180 s
THREAD_VARS = ("OKSTAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


class Children:
    """Every process this run starts, so a deadline can stop them all."""

    def __init__(self):
        self.procs = []

    def start(self, cmd, env):
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        self.procs.append(proc)
        return proc

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def time_setup(children, cmd, env, until_ready):
    """Seconds from spawning cmd until it prints READY, or until it exits."""
    t0 = time.perf_counter()
    proc = children.start(cmd, env)
    ready = None
    for line in proc.stdout:
        if until_ready and line.strip() == "READY":
            ready = time.perf_counter() - t0
            break
    proc.stdout.read()
    if proc.wait() != 0 or (until_ready and ready is None):
        raise RuntimeError(f"set-up failed ({proc.returncode}): {' '.join(cmd)}")
    return ready if until_ready else time.perf_counter() - t0


def run(args, children) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "okstab" / "__init__.py").is_file():
        raise SystemExit(f"no okstab sources under {ROOT / 'src'}")
    env = child_env()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    if args.workload == "cli-readme":
        probe, ready = [sys.executable, "-c", "import okstab.cli"], False
    else:
        probe, ready = worker + ["--setup-only"], True
    # set-ups are sampled on both sides of the timed run, so that a slow
    # spell of the host around one moment does not decide the median
    setup_runs = 0 if args.trace else SETUP_RUNS
    setup = [time_setup(children, probe, env, ready) for _ in range(setup_runs)]
    proc = children.start(worker + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env)
    out = proc.stdout.read()
    if proc.wait() != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    setup += [time_setup(children, probe, env, ready) for _ in range(setup_runs)]
    lines = out.splitlines()
    result = next((json.loads(ln[7:]) for ln in reversed(lines)
                   if ln.startswith("RESULT ")), None)
    if result is None:
        raise SystemExit("worker printed no result")
    for ln in lines:
        if ln.startswith("# "):
            print(ln)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = result["layer"]
    else:
        values = {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "pass_frac": (result["attempted"] - result["failed"])
                  / result["attempted"]}
        print(f"# passes {result['passes']}: wall {result['walls']}, "
              f"cpu {result['cpus']}; set-ups {setup}")
    return {"correct": result["failed"] == 0 and result["self_check"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    children = Children()

    def deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    # a terminated run still stops its children (via the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    signal.alarm(DEADLINE_S)
    try:
        result = run(args, children)
    except (TimeoutError, RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
