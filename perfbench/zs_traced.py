"""Run the zs command line with the benchmark's tracer installed.

    python3 perfbench/zs_traced.py SPANS_FILE ZS_ARGUMENTS...

Installs the tracer's wrappers, runs ``zerosum.cli.main`` on the remaining
arguments and, whatever the exit code, writes the recorded spans to
SPANS_FILE, one JSON list per line.  Spans opened in forked pool workers are
not collected.
"""

import json
import sys

import zerosum
import zerosum.cli

from tracer import Tracer


def main() -> None:
    path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        zerosum.cli.main(args=args, prog_name="zs")
    finally:
        tracer.uninstall()
        with open(path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    main()
