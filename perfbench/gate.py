"""Correctness gate for every command the benchmark runs.

At the pinned seed each output must match the digest measured on the
commit that defined the benchmark.  Outputs that do not depend on the seed
(the analytic report, its cost schedule and the delta table of the
reference portfolio) are checked at every seed.  On any other seed the
simulation reports are held to invariants instead.  A report whose
``body_sha256`` does not hash its own body fails everywhere.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

PINNED = json.loads(Path(__file__).with_name("pinned.json").read_text("utf-8"))
PINNED_SEED = PINNED["seed"]


class GateError(Exception):
    """An output that is wrong; the command counts as failed."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def body_hash(body) -> str:
    """The CLI's canonical body hash, recomputed independently."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return sha256(text.encode("utf-8"))


def pins_for(workload: str, seed: int, pinned: dict = PINNED) -> dict[str, str]:
    """Digests the workload's outputs must equal at ``seed``, by output name."""
    pins = dict(pinned["any_seed"].get(workload, {}))
    if seed == pinned["seed"]:
        pins.update(pinned["pinned_seed"].get(workload, {}))
    return pins


def expect(name: str, digest: str, pins: dict[str, str]) -> None:
    pinned = pins.get(name)
    if pinned is not None and digest != pinned:
        raise GateError(f"{name}: digest {digest[:16]} differs from pinned {pinned[:16]}")


def check_report(text: str, name: str, pins: dict[str, str]) -> dict:
    """Parse a JSON report, verify its body hash and pin; returns the body."""
    try:
        report = json.loads(text)
        body, claimed = report["body"], report["body_sha256"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GateError(f"{name}: not a report: {exc}") from None
    if body_hash(body) != claimed:
        raise GateError(f"{name}: body_sha256 does not hash the body")
    expect(name, claimed, pins)
    return body


def check_simulation_body(body: dict, iterations: int) -> None:
    """Invariants every simulation report holds, whatever the seed."""
    simulation = body["simulation"]
    if not simulation["requested_iterations"] == simulation["iterations"] == iterations:
        raise GateError(f"simulate: ran {simulation} for {iterations} requested iterations")
    exclusions = body["exclusions"]
    for name, summary in body["metrics"].items():
        if summary["n"] + exclusions.get(name, 0) != iterations:
            raise GateError(f"simulate: {name} n + exclusions != {iterations}")
        order = [summary[key] for key in ("min", "p10", "p50", "p90", "max")]
        if order != sorted(order):
            raise GateError(f"simulate: {name} percentiles out of order: {order}")
    for name, excluded in exclusions.items():
        if name not in body["metrics"] and excluded != iterations:
            raise GateError(f"simulate: {name} missing with only {excluded} exclusions")


def check_plotdata(text: str, iterations: int) -> None:
    """Histogram counts cover every iteration; the CDF rises to 1."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["kind", "x0", "x1", "value"]:
        raise GateError("plotdata: missing header")
    counts = [int(row[3]) for row in rows[1:] if row[0] == "bin"]
    cdf = [float(row[3]) for row in rows[1:] if row[0] == "cdf"]
    if sum(counts) != iterations:
        raise GateError(f"plotdata: bins hold {sum(counts)} of {iterations} iterations")
    if not cdf or cdf != sorted(cdf) or cdf[-1] != 1.0:
        raise GateError("plotdata: CDF does not rise monotonically to 1")
