"""Run ``qfc.cli`` with the tracer installed; for the traced ``cli-cold`` run.

``python3 bench/cli_child.py <qfc cli arguments>`` behaves like
``python3 -m qfc.cli <arguments>`` and adds, as the last line of standard
error, ``BENCH_TRACE`` followed by the span statistics as JSON.
"""

import json
import sys

from tracing import Tracer


def main():
    tracer = Tracer()
    with tracer:
        code = sys.modules["qfc.cli"].main(sys.argv[1:])
    sys.stdout.flush()
    print("BENCH_TRACE " + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
