"""Run the ``repro`` command line with the service-layer wrappers on.

Usage, from the repository root::

    python3 perfbench/launch.py SPANS.json -- serve --port 0 ...

Installs :func:`tracing.install_service` in this process (forked worker
processes inherit it but never write spans), runs ``repro``'s ``main``
with the arguments after ``--``, and writes the recorded spans and
counts to ``SPANS.json`` when ``main`` returns — after the graceful
drain that SIGTERM triggers.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from common import import_repro
    from tracing import Patcher, Recorder, install_service

    import_repro()
    rec = Recorder()
    install_service(rec, Patcher())
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        rec.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
