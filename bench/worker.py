"""One benchmark workload in one process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only]

`run.py` starts this with the BLAS/OpenMP thread caps and PYTHONPATH
already in the environment, so they hold before numpy loads.  The worker
generates the seeded inputs, warms up and prints `READY` (with
--setup-only it stops there).  Untraced, it then repeats the workload's
task list until the next pass would end after S seconds (at least one
pass).  Traced, it runs one untraced and one traced pass.  Afterwards,
outside any timing, every result of the first pass goes through the
workload's gate, later passes must reproduce it exactly, and each gate
must reject the workload's corrupted results.  The last stdout line is
`RESULT {json}`; a `# env {json}` line before it stamps the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class PassContext:
    """What a task needs to know about the pass it runs in."""

    def __init__(self, trace_dir=None):
        self.trace_dir = trace_dir            # where traced CLI runs write spans
        self.trace_cli = str(HERE / "trace_cli.py")
        self.cli_runs = []                    # wall seconds per CLI subprocess


def run_pass(workload, inp, ctx):
    tasks = workload.tasks(inp, ctx)
    results = []
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    for task_id, kind, fn in tasks:
        try:
            results.append((task_id, kind, fn(), None))
        except Exception:   # a failing task is counted, not fatal
            results.append((task_id, kind, None, traceback.format_exc()))
    wall = time.perf_counter() - t0
    return results, wall, cpu_seconds() - c0


def cpu_seconds():
    """user + sys CPU of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def same(a, b):
    """Exact equality of task results (arrays compared bit for bit)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return a == b


def grade(workload, inp, passes):
    """(attempted, failed): gate the first pass, then require every later
    pass to reproduce it exactly."""
    first = passes[0]
    verdict = {}
    for task_id, kind, res, err in first:
        verdict[task_id] = [err] if err else workload.check(kind, inp, res)
        for msg in verdict[task_id]:
            print(f"FAIL {workload.name} {task_id}: {msg}", file=sys.stderr)
    attempted = failed = 0
    for results in passes:
        for (task_id, _, res, err), (_, _, res1, _) in zip(results, first):
            attempted += 1
            if verdict[task_id] or err or not same(res, res1):
                failed += 1
    return attempted, failed


def self_check(workload, inp, first):
    """Every gate must reject each corrupted copy of a real result.

    Returns (ok, number of corrupted results rejected, gates exercised)."""
    ok = True
    rejected = 0
    kinds = {kind for _, kind, _, _ in first}
    checked = set()
    for task_id, kind, res, err in first:
        if err or kind in checked:
            continue
        checked.add(kind)
        for i, bad in enumerate(workload.corruptions(kind, res)):
            if workload.check(kind, inp, bad):
                rejected += 1
            else:
                print(f"SELF-CHECK {workload.name} {task_id}: gate accepted "
                      f"corruption {i}", file=sys.stderr)
                ok = False
    return ok and checked == kinds, rejected, len(checked)


def env_stamp(args):
    import scipy
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads": threads, "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def traced_metrics(workload, inp, ctx_dir, base_wall, names):
    """One traced pass; returns its results and the per-layer metrics."""
    import tracing
    tracer = tracing.Tracer()
    ctx = PassContext(trace_dir=ctx_dir)
    tracer.install()
    try:
        results, wall, _ = run_pass(workload, inp, ctx)
    finally:
        tracer.uninstall()
    cli_dumps = []
    for i in range(len(ctx.cli_runs)):
        with open(os.path.join(ctx_dir, f"cli-{i}.json")) as fh:
            cli_dumps.append(json.load(fh))
    dump = tracing.merge([tracer.dump()] + cli_dumps)
    summary = tracing.summarize(dump)
    if cli_dumps:
        summary["cli.import_s"] = statistics.median(d["import_s"] for d in cli_dumps)
        summary["cli.startup_s"] = sum(w - d["dispatch_s"]
                                       for w, d in zip(ctx.cli_runs, cli_dumps))
    summary["trace.overhead_s"] = wall - base_wall
    layer = {n: summary.get(n, 0) for n in names}
    walls = {"untraced_pass_s": base_wall, "traced_pass_s": wall,
             "cli_runs_s": [[r["argv"], w] for (_, _, r, _), w
                            in zip(results, ctx.cli_runs)]}
    return results, layer, dict(dump, summary=summary, walls=walls)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import okstab
    if not Path(okstab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"okstab imported from {okstab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    inp = workload.setup(np.random.default_rng(args.seed), str(workdir))
    workload.warmup(inp)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes, walls, cpus = [], [], []
    t_start = time.perf_counter()
    while True:
        results, wall, cpu = run_pass(workload, inp, PassContext())
        passes.append(results)
        walls.append(wall)
        cpus.append(cpu)
        if args.trace or time.perf_counter() - t_start + wall > args.seconds:
            break
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-readme" \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    env = env_stamp(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"passes": len(walls), "walls": walls, "cpus": cpus}
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        results, layer, dump = traced_metrics(workload, inp, str(workdir),
                                              walls[0], names)
        passes.append(results)
        out["layer"] = layer
        with open(workdir / "trace.json", "w") as fh:
            json.dump(dict(dump, env=env), fh)
    else:
        out.update(wall_s=statistics.median(walls), cpu_s=statistics.median(cpus),
                   peak_rss_mb=peak_rss_mb)

    attempted, failed = grade(workload, inp, passes)
    checks_ok, rejected, gates = self_check(workload, inp, passes[0])
    out.update(attempted=attempted, failed=failed, self_check=checks_ok)
    print(f"# self-check: {gates} gates rejected {rejected} corrupted results",
          flush=True)
    print("# env " + json.dumps(env), flush=True)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
