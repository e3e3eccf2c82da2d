"""End-to-end benchmark of the airoi CLI.

    python3 perfbench/run.py --workload reference|wide|interactive|all \
        [--seed 42] [--seconds 30] [--trace 0|1]

Every command is the real CLI (``airoi.cli.main``) in a fresh child
process, started through ``perfbench/launch.py`` with ``PYTHONPATH=src``,
so start-up is paid per command as an analyst pays it.  Every output goes
through the correctness gate (``gate.py``); a failed gate counts the
command as failed and makes the benchmark exit 1.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` a separate traced run with the per-layer
metrics.  Why each workload exists, and which end-to-end metric each layer
metric should move, is in ``perfbench/README.md``.

Each workload ends with one JSON line on standard output with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; for a single
workload it is the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gate
import spans as spans_mod
import widegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCE = "portfolios/reference_portfolio.json"
REQUIRED = ("src/airoi/cli.py", REFERENCE)

WORKLOADS = ("reference", "wide", "interactive")
DEFAULT_SECONDS = 30
REFERENCE_ITERATIONS = 30_000
INTERACTIVE_ITERATIONS = 1000
SETUP_REPEATS = 11
COMMAND_TIMEOUT_S = 60.0
CALIBRATION_LOOPS = 3_000_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it writes."""

    kind: str
    args: tuple[str, ...]
    iterations: int = 0
    workers: int = 1
    out: str | None = None
    costs_csv: str | None = None


@dataclass
class Outcome:
    command: Command
    wall_s: float
    maxrss_kb: int
    error: str | None = None
    body: dict | None = None
    trace: dict | None = None


@dataclass
class Plan:
    """What a workload runs: the timed loop and the traced probes."""

    config: str
    cycle: list[Command]
    primary: Command
    alternate: Command
    evaluate: Command


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _simulate(config: str, work: Path, iterations: int, workers: int, seed: int) -> Command:
    out = str(work / f"simulate-w{workers}.json")
    args = ("simulate", config, "--iterations", str(iterations), "--workers", str(workers),
            "--seed", str(seed), "--out", out)
    return Command("simulate", args, iterations=iterations, workers=workers, out=out)


def _evaluate(config: str, work: Path, with_costs: bool) -> Command:
    out = str(work / "evaluate.json")
    if not with_costs:
        return Command("evaluate", ("evaluate", config, "--out", out), out=out)
    costs = str(work / "costs.csv")
    args = ("evaluate", config, "--costs-csv", costs, "--out", out)
    return Command("evaluate", args, out=out, costs_csv=costs)


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    """Build the workload's inputs from ``seed`` and its command list."""
    if workload == "wide":
        path = work / "wide.json"
        path.write_bytes(widegen.render(seed))
        config = os.path.relpath(path, ROOT)
        primary = _simulate(config, work, widegen.ITERATIONS, widegen.WORKERS, seed)
        alternate = _simulate(config, work, widegen.ITERATIONS, 1, seed)
        return Plan(config, [primary], primary, alternate, _evaluate(config, work, False))
    config = REFERENCE
    if workload == "reference":
        primary = _simulate(config, work, REFERENCE_ITERATIONS, 1, seed)
        alternate = _simulate(config, work, REFERENCE_ITERATIONS, 2, seed)
        return Plan(config, [primary], primary, alternate, _evaluate(config, work, False))
    primary = _simulate(config, work, INTERACTIVE_ITERATIONS, 1, seed)
    alternate = _simulate(config, work, INTERACTIVE_ITERATIONS, 2, seed)
    evaluate = _evaluate(config, work, True)
    delta_out = str(work / "delta.csv")
    plot_out = str(work / "plotdata.csv")
    cycle = [
        Command("validate", ("validate", config)),
        evaluate,
        Command("delta", ("delta", config, "--out", delta_out), out=delta_out),
        primary,
        Command(
            "plotdata",
            ("plotdata", config, "--metric", "npv", "--iterations", str(INTERACTIVE_ITERATIONS),
             "--seed", str(seed), "--out", plot_out),
            iterations=INTERACTIVE_ITERATIONS,
            out=plot_out,
        ),
    ]
    return Plan(config, cycle, primary, alternate, evaluate)


# ---------------------------------------------------------------------------
# Running one command
# ---------------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs commands in fresh children and gates every output."""

    def __init__(self, work: Path, pins: dict[str, str]) -> None:
        self.work = work
        self.pins = pins
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.outcomes: list[Outcome] = []
        # Repeats of one command (and the same simulation at another worker
        # count) must give the same bytes within a run.
        self._digests: dict[tuple[str, int], str] = {}
        self._traces = 0

    def run(self, command: Command, traced: bool = False) -> Outcome:
        for path in (command.out, command.costs_csv):
            if path is not None and os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, str(LAUNCH)]
        trace_path = None
        if traced:
            self._traces += 1
            trace_path = self.work / f"trace-{self._traces}.json"
            argv += ["--spans", str(trace_path)]
        argv += list(command.args)
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True
            )
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(command, wall, usage.ru_maxrss)
        stdout = stdout_path.read_text("utf-8", errors="replace")
        stderr = stderr_path.read_text("utf-8", errors="replace")
        if proc.returncode != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            outcome.error = f"exit code {proc.returncode}: {last[0]}"
        elif "Traceback" in stderr:
            outcome.error = "traceback on stderr"
        else:
            try:
                digest, outcome.body = self._check(command, stdout)
                key = (command.kind, command.iterations)
                if self._digests.setdefault(key, digest) != digest:
                    raise gate.GateError(f"{command.kind}: output differs from an earlier repeat")
                if trace_path is not None:
                    outcome.trace = json.loads(trace_path.read_text("utf-8"))
            except (gate.GateError, OSError, ValueError, KeyError) as exc:
                outcome.error = str(exc)
        if outcome.error:
            print(f"FAILED {' '.join(command.args)}: {outcome.error}", file=sys.stderr)
        self.outcomes.append(outcome)
        return outcome

    def _check(self, command: Command, stdout: str) -> tuple[str, dict | None]:
        kind = command.kind
        if kind == "validate":
            if stdout != f"{command.args[1]}: valid (0 warning(s))\n":
                raise gate.GateError(f"validate: unexpected output {stdout!r}")
            return gate.sha256(stdout.encode()), None
        text = Path(command.out).read_text("utf-8")
        if kind in ("evaluate", "simulate"):
            body = gate.check_report(text, kind, self.pins)
            digest = gate.body_hash(body)
            if kind == "simulate":
                gate.check_simulation_body(body, command.iterations)
            if command.costs_csv is not None:
                costs = gate.sha256(Path(command.costs_csv).read_bytes())
                gate.expect("costs_csv", costs, self.pins)
                digest += costs
            return digest, body
        if kind == "plotdata":
            gate.check_plotdata(text, command.iterations)
        digest = gate.sha256(text.encode())
        gate.expect(kind, digest, self.pins)
        return digest, None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    With 21 samples or fewer that percentile is not above the median, so
    the maximum is reported instead and labelled as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 21:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"
    return ordered[-1], f"max of {n}"


def calibrate() -> float:
    """Time of a fixed pure-Python loop: host speed, for information only."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - started


def machine_record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


@dataclass
class Report:
    lines: list[str] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.lines.append(f"  {name:36s} {value:14.6g} {unit:6s} {note}")


def end_to_end(setup: list[Outcome], timed: list[Outcome], plan: Plan) -> Report:
    report = Report()
    primary = [o for o in timed if o.command == plan.primary]
    walls = [o.wall_s for o in timed]
    report.add("setup_s", statistics.median(o.wall_s for o in setup), "s",
               f"median of {len(setup)} fresh validate children")
    report.add("report_s", statistics.median(o.wall_s for o in primary), "s",
               f"median of {len(primary)} simulate children, spawn to exit")
    rss_note = f"median of {len(primary)}"
    if plan.primary.workers > 1:
        rss_note += "; largest single process under the pool, not the sum"
    report.add("peak_rss_mb", statistics.median(o.maxrss_kb for o in primary) / 1024, "MB",
               rss_note)
    report.add("cmd_p50_s", statistics.median(walls), "s",
               f"median of {len(walls)} commands")
    value, label = tail(walls)
    report.add("cmd_tail_s", value, "s", label)
    return report


def _totals(outcomes: list[Outcome]) -> list[dict]:
    return [spans_mod.totals_by_name(o.trace["spans"]) for o in outcomes]


def per_layer(untraced: list[Outcome], traced: dict[str, list[Outcome]], plan: Plan) -> Report:
    """Per-layer metrics; a span no run recorded is left out, never zero."""
    report = Report()
    primary = traced["primary"]
    all_traced = [o for group in traced.values() for o in group]
    totals = _totals(primary)

    def add(name: str, values: list[float | None], unit: str, note: str = "") -> None:
        present = [v for v in values if v is not None]
        if present:
            report.add(name, statistics.median(present), unit, note)

    def self_s(span: str, runs=totals) -> list:
        return [t[span]["self_s"] if span in t else None for t in runs]

    for name in ("numpy.import_s", "airoi.import_s"):
        add(name, [o.trace["imports"].get(name) for o in all_traced], "s",
            f"median of {len(all_traced)} traced children")
    add("config.load_config_s", self_s("config.load_config"), "s")
    add("engine.run_simulation_s", self_s("engine.run_simulation"), "s", "self time")
    serial, pooled = (
        (traced["primary"], traced["alternate"])
        if plan.primary.workers == 1
        else (traced["alternate"], traced["primary"])
    )
    serial_s, pooled_s = (
        [t["engine.run_simulation"]["total_s"] for t in _totals(runs) if "engine.run_simulation" in t]
        for runs in (serial, pooled)
    )
    add("engine.run_simulation.serial_s", serial_s, "s", "--workers 1")
    if serial_s and pooled_s:
        add("engine.pool_speedup", [statistics.median(serial_s) / statistics.median(pooled_s)],
            "ratio", f"serial / --workers {max(plan.primary.workers, plan.alternate.workers)}")
    add("engine.analytic_evaluate_s", self_s("engine.analytic_evaluate", _totals(traced["evaluate"])), "s")
    for span in ("evaluate_outcome", "irr", "npv", "payback_period", "build_report"):
        add(f"valuation.{span}_s", self_s(f"valuation.{span}"), "s", "self time")
    add("cli.self_s", self_s(spans_mod.MAIN_SPAN), "s", "main minus its top-level spans")

    iterations = plan.primary.iterations
    add("engine.rss_per_iter_kb",
        [(o.trace["peak_rss_kb"] - o.trace["rss_after_load_kb"]) / iterations
         for o in primary if o.trace.get("rss_after_load_kb") is not None],
        "KB", "(peak RSS - RSS after load) / iterations, main process")
    body = primary[0].body
    add("engine.iterations", [body["simulation"]["iterations"]], "count")
    counts = primary[0].trace.get("counts", {})
    for name in ("distributions.substreams_per_iter", "risk.expected_events_per_iter"):
        add(name, [counts.get(name)], "count", "from the config")
    irr_excluded = body["exclusions"].get("irr", 0)
    multiroot = body["irr_multiple_root_iterations"]
    add("valuation.irr_defined_share", [(iterations - irr_excluded) / iterations], "ratio",
        f"{iterations - irr_excluded} of {iterations}")
    add("valuation.irr_multiroot_share", [multiroot / iterations], "ratio",
        f"{multiroot} of {iterations}")
    traced_walls = [o.wall_s for o in primary]
    add("trace.overhead_s",
        [statistics.median(traced_walls) - statistics.median(o.wall_s for o in untraced)],
        "s", "traced minus untraced simulate wall time")

    main = [t[spans_mod.MAIN_SPAN]["total_s"] for t in totals if spans_mod.MAIN_SPAN in t]
    if main:
        accounted = statistics.median(sum(v["self_s"] for v in t.values()) for t in totals)
        report.lines.append(
            f"  named spans + cli.self_s = {accounted:.6f} s of main {statistics.median(main):.6f} s"
        )
    return report


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        plan = make_plan(workload, seed, work)
        runner = Runner(work, gate.pins_for(workload, seed))
        machine = machine_record()
        machine["calibration_s"] = [calibrate()]
        runner.run(Command("validate", ("validate", plan.config)))  # warm-up: bytecode caches
        print(f"perfbench: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
        if trace:
            report = traced_run(runner, plan, seconds)
        else:
            setup = [runner.run(Command("validate", ("validate", plan.config)))
                     for _ in range(SETUP_REPEATS)]
            timed = closed_loop(runner, plan.cycle, seconds)
            report = end_to_end(setup, timed, plan)
        machine["calibration_s"].append(calibrate())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(1 for o in runner.outcomes if o.error)
    attempted = len(runner.outcomes)
    print("machine: " + json.dumps(machine))
    print("\n".join(report.lines))
    print(f"  fail_ratio {failed}/{attempted} commands")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }


def closed_loop(runner: Runner, cycle: list[Command], seconds: float) -> list[Outcome]:
    """One client: the next command starts when the last one has exited.

    Whole cycles only, so every command of the mix is measured.
    """
    deadline = time.perf_counter() + seconds
    timed = []
    while time.perf_counter() < deadline:
        timed.extend(runner.run(command) for command in cycle)
    return timed


def traced_run(runner: Runner, plan: Plan, seconds: float) -> Report:
    untraced: list[Outcome] = []
    traced: dict[str, list[Outcome]] = {"primary": [], "alternate": [], "evaluate": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.append(runner.run(plan.primary))
        for role in traced:
            outcome = runner.run(getattr(plan, role), traced=True)
            if outcome.trace is not None:
                traced[role].append(outcome)
    if not all(traced.values()) or not any(o.error is None for o in untraced):
        return Report()
    return per_layer([o for o in untraced if o.error is None], traced, plan)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the airoi CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=gate.PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: not an airoi checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
