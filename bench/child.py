"""Child-process entry points of the benchmark.

    python3 bench/child.py ready cli         import pgog.cli, print "ready"
    python3 bench/child.py ready nf          also build the nf-products set-up
    python3 bench/child.py trace OUT ARGS..  run `pgog ARGS..` traced; write
                                             spans and a summary to OUT

The parent times `ready` children from spawn to the "ready" line: that is
the set-up a user pays before the first op can run.
"""

import sys
import time


def main(argv):
    mode = argv[0]
    if mode == "ready":
        import pgog.cli  # noqa: F401
        if argv[1] == "nf":
            import nf
            nf.setup()
        print("ready", flush=True)
        return 0
    if mode == "trace":
        out, args = argv[1], argv[2:]
        start = time.perf_counter()
        import pgog.cli
        import_s = time.perf_counter() - start
        import tracer
        tracer.import_all()
        trace = tracer.Tracer()
        missing = trace.install()
        try:
            code = pgog.cli.main(args)
        finally:
            trace.uninstall()
        trace.counts["cli.import_s"] = import_s
        with open(out, "w") as fh:
            trace.dump(fh, missing=missing)
        sys.stdout.flush()
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
