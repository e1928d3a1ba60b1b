"""Run one pdiamonds job in this fresh interpreter and report its timings.

Usage: child.py RECORD_FD [--trace JOB_ID] -- ARGV...

Imports partition_diamonds.cli from the checkout's src/, notes the clock
right before cli.main is entered, runs the job and writes one JSON record to
the inherited file descriptor RECORD_FD.  With --trace the tracer wraps the
package's public functions first and the record also carries the job's spans
and counters.  The exit code is cli.main's, as for the pdiamonds script.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from partition_diamonds import cli  # noqa: E402  (needs the path above)


def _main() -> int:
    record_fd = int(sys.argv[1])
    sep = sys.argv.index("--")
    opts, argv = sys.argv[2:sep], sys.argv[sep + 1:]
    trace = None
    if opts[:1] == ["--trace"]:
        from tracer import Tracer
        trace = Tracer(opts[1])
        trace.install()
    t_main = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        t_ret = time.perf_counter()
        sys.stdout.flush()
        record = {"t_main": t_main, "t_ret": t_ret}
        if trace is not None:
            record.update(trace.export())
        with os.fdopen(record_fd, "w") as out:
            json.dump(record, out)
    return rc


if __name__ == "__main__":
    sys.exit(_main())
