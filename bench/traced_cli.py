"""Run the polyctrl CLI with the tracer installed.

Usage: python3 traced_cli.py SPANS_JSON polyctrl-arguments...

The CLI runs exactly as ``polyctrl.cli:main`` does; spans and counts are
written to SPANS_JSON when it ends, and the CLI's exit code is kept.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import polyctrl.cli  # noqa: E402
from tracer import Tracer  # noqa: E402

spans_path = sys.argv[1]
sys.argv = ["polyctrl"] + sys.argv[2:]
tracer = Tracer()
missing = tracer.install()
code = 0
try:
    polyctrl.cli.main()
except SystemExit as exc:
    code = exc.code
finally:
    tracer.dump(spans_path, missing)
sys.exit(code)
