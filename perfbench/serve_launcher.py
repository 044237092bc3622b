"""Start ``repro serve`` with the traced run's span wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json serve --store DIR ...``

Everything after ``SPANS.json`` is handed to the ``repro`` command line
unchanged.  Stop the server with SIGINT: ``repro serve`` then returns
normally and the spans (one id per request) are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list) -> int:
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
