"""Traced `fcpm` command, for the cli workload's per-layer run.

    python3 benchmark/launch.py SPANS_FILE ARG...

Runs `fcpm.cli.run(ARG...)` in this fresh interpreter with the benchmark's
wrappers installed, writes the spans and work counters to SPANS_FILE as JSON
and exits with the command's exit code. The envelope goes to stdout exactly
as `python3 -m fcpm ARG...` prints it.
"""

import json
import sys

from tracer import Tracer


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from fcpm import cli
    try:
        code = cli.run(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
