"""Peak RSS and wall time of the CLI's ``simulate``, one child process per run.

    python tools/peak_rss.py portfolios/reference_portfolio.json \
        --iterations 10000 --iterations 100000 [--workers 1] [--seed 42] \
        [--max-growth-mb 16]

Each ``--iterations`` value runs ``python -m airoi simulate CONFIG`` in a
fresh child, with this checkout's ``src`` first on ``PYTHONPATH`` and the
report written to a scratch file, and prints one line per run:

    iterations=10000 peak_rss_mb=44.6 wall_s=0.62

Peak RSS is the child's ``ru_maxrss`` from ``os.wait4`` (kB on Linux, so
MB here is kB / 1024).  Under ``--workers`` > 1 it is the largest single
process, as in ``perfbench``.  With ``--max-growth-mb``, the script exits
1 if the last run peaks more than that many MB above the first: memory
that grows with the iteration count is held per iteration.  A run that
fails exits 2 with its stderr.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def measure(config: str, iterations: int, workers: int, seed: int) -> tuple[float, float]:
    """``(peak_rss_mb, wall_s)`` of one ``simulate`` child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        argv = [
            sys.executable, "-m", "airoi", "simulate", config,
            "--iterations", str(iterations), "--workers", str(workers), "--seed", str(seed),
            "--out", os.path.join(work, "report.json"),
        ]
        started = time.perf_counter()
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        ) as child:
            stderr = child.stderr.read()
            # wait4, not wait: the child's own rusage, not every child's so far.
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - started
    if child.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace"))
        print(f"simulate --iterations {iterations} exited {child.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return usage.ru_maxrss / 1024, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--iterations", type=int, action="append", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-growth-mb", type=float)
    args = parser.parse_args(argv)
    peaks = []
    for iterations in args.iterations:
        peak, wall = measure(args.config, iterations, args.workers, args.seed)
        peaks.append(peak)
        print(f"iterations={iterations} peak_rss_mb={peak:.1f} wall_s={wall:.2f}", flush=True)
    if args.max_growth_mb is not None and peaks[-1] - peaks[0] > args.max_growth_mb:
        print(
            f"peak RSS grew {peaks[-1] - peaks[0]:.1f} MB from {args.iterations[0]} to "
            f"{args.iterations[-1]} iterations, more than {args.max_growth_mb} MB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
