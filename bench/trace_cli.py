"""Run one okstab CLI command with span tracing on.

    python3 bench/trace_cli.py OUT.json <okstab subcommand and options>

Times `import okstab.cli`, installs the tracer of `tracing.py`, runs
`okstab.cli.dispatch` on the remaining arguments, writes the spans and the
import time to OUT.json and exits with the command's exit code.  The CLI's
own output goes to stdout unchanged.
"""

import json
import sys
import time

import tracing


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import okstab.cli as cli
    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.dispatch(argv)
    finally:
        dispatch_s = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(dict(tracer.dump(), import_s=import_s,
                           dispatch_s=dispatch_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
