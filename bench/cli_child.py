"""Run one ``pegstack`` CLI command inside a tracer (the traced cli workload).

    python3 bench/cli_child.py SPANS_OUT [pegstack arguments...]

Behaves like ``python -m pegstack.cli`` with the same arguments: same
stdout, stderr and exit code, tracebacks included. It also writes its spans
to SPANS_OUT as JSON lines: ``cli.import`` for importing pegstack.cli, then
everything under ``cli.main``. The caller puts the program's ``src``
directory on PYTHONPATH.
"""

import importlib
import sys

from spans import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "pegstack.cli")
    install(tracer)
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
