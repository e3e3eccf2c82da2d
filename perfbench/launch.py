"""Launch shim: run ``airoi.cli.main`` in this process.

    PYTHONPATH=src python3 perfbench/launch.py [--spans PATH] <airoi arguments>

It needs neither the ``airoi`` console script nor ``python -m airoi``, so
the same benchmark runs before and after either exists.  With ``--spans``
the public functions the CLI reaches are wrapped, and the spans, import
times and RSS marks are written to PATH once the command has returned.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from airoi.cli import main as airoi_main

        return airoi_main(argv)

    path, argv = argv[1], argv[2:]
    started = time.perf_counter()
    import numpy  # noqa: F401  (timed alone: the floor of every start-up)

    numpy_done = time.perf_counter()
    import airoi.cli

    airoi_done = time.perf_counter()
    import spans

    recorder = spans.SpanRecorder(run_id=Path(path).stem)
    recorder.install()
    traced_main = recorder.wrap(spans.MAIN_SPAN, airoi.cli.main)
    try:
        return traced_main(argv)
    finally:
        spans.dump(
            recorder,
            path,
            {
                "imports": {
                    "numpy.import_s": numpy_done - started,
                    "airoi.import_s": airoi_done - started,
                }
            },
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
