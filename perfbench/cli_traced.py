"""Run one montspec CLI command under the benchmark's tracer.

    python3 perfbench/cli_traced.py <montspec arguments>

Times the import of montspec.cli, installs the span wrappers, calls
cli.run with the arguments and exits with its code.  The CLI's output is
unchanged; the trace summary goes to stderr as the last line, prefixed
with workloads.TRACE_MARK.
"""

import json
import sys
import time

start = time.perf_counter()
from montspec import cli  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - start

from spans import Tracer  # noqa: E402
from workloads import TRACE_MARK  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = tracer.wrap("cli.run", cli.run)(sys.argv[1:])
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = [import_s]
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(summary), file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
