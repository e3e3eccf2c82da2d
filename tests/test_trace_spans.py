"""The traced CLI fires every span the benchmark's per-layer metrics read.

``perfbench/spans.py`` times the program by wrapping module attributes at
run time.  A call that no longer goes through one of them silently drops
its per-layer metric, so a traced ``simulate`` and ``evaluate`` must
between them reach every wrapped name and ``cli.main``, and a traced
benchmark run must print a strict-JSON result line holding every
per-layer metric ``BENCHMARK.json`` names.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest
from conftest import REFERENCE_CONFIG, REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, name: str, *argv: str) -> set[str]:
    spans_path = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), "--spans", str(spans_path), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    document = json.loads(spans_path.read_text())
    return {span[2] for span in document["spans"]}


def test_traced_commands_fire_every_wrapped_span(tmp_path):
    spans = _spans_module()
    simulated = _traced(
        tmp_path,
        "simulate",
        "simulate", str(REFERENCE_CONFIG), "--iterations", "300", "--workers", "1",
        "--out", str(tmp_path / "simulate.json"),
    )
    evaluated = _traced(
        tmp_path,
        "evaluate",
        "evaluate", str(REFERENCE_CONFIG), "--out", str(tmp_path / "evaluate.json"),
    )
    expected = {name for _module, _attribute, name in spans.WRAPPED} | {spans.MAIN_SPAN}
    assert expected - (simulated | evaluated) == set()
    # The valuation metrics are read from the simulate run alone.
    valuation = {name for name in expected if name.startswith("valuation.")}
    assert valuation - simulated == set()


def _reject(constant: str):
    raise ValueError(f"non-finite value {constant} in the result line")


@pytest.mark.parametrize("workload", ["interactive", "wide"])
def test_traced_benchmark_prints_every_per_layer_metric(workload):
    # interactive is the shortest workload, and wide's traced simulate is the
    # one that runs on the worker pool.  Each run also gates its outputs
    # against the pinned seed-42 digests.
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [metric["name"] for metric in declared if metric["name"] not in result["metrics"]]
    assert missing == []
