"""One ``sivreg`` CLI invocation with the layer spans installed.

Usage: python3 cli_child.py TRACE_JSON ARG...

Runs ``sivreg.cli.main(ARG...)`` like the console script does, times the
package import as the ``cli.import`` span, and writes the span aggregate to
TRACE_JSON for the parent to merge.
"""

import json
import sys

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sivreg.cli
    tracer.install()
    try:
        return sivreg.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
