"""Tests of the benchmark's own parts: generator, gate and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import widegen  # noqa: E402
from airoi.config import load_config  # noqa: E402
from airoi.distributions import PointRate, PoissonRate, is_degenerate  # noqa: E402


# -- wide generator ---------------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert widegen.render(7) == widegen.render(7)
    assert widegen.render(7) != widegen.render(8)


@pytest.mark.parametrize("seed", [1, 42, 1234])
def test_generator_output_validates_without_warnings(tmp_path, seed):
    path = tmp_path / "wide.json"
    path.write_bytes(widegen.render(seed))
    config, diagnostics = load_config(path)
    assert config is not None
    assert diagnostics == []


def test_generator_covers_the_promised_shapes(tmp_path):
    path = tmp_path / "wide.json"
    path.write_bytes(widegen.render(42))
    raw = json.loads(path.read_text())
    portfolio = load_config(path)[0].portfolio

    assert len(portfolio.benefits) == widegen.BENEFITS
    assert len(portfolio.capex) == widegen.CAPEX
    assert len(portfolio.opex) == widegen.OPEX
    assert len(portfolio.register.scenarios) == widegen.SCENARIOS
    assert portfolio.horizon_years == widegen.HORIZON_YEARS

    literals = [b.get("annual_value", b.get("freed_hours_per_year", b.get("errors_avoided_per_year")))
                for b in raw["benefits"]] + [r["sle"] for r in raw["risks"]]
    kinds = {lit["kind"] if isinstance(lit, dict) else "point" for lit in literals}
    assert kinds == {"point", "uniform", "triangular", "pert", "lognormal"}
    quantities = [b.annual_value for b in portfolio.benefits] + [s.sle for s in portfolio.register.scenarios]
    assert any(is_degenerate(q) for q in quantities)
    assert not all(is_degenerate(q) for q in quantities)

    assert {s.applies_to for s in portfolio.register.scenarios} == {"both", "current_only", "ai_only"}
    rates = [
        f
        for s in portfolio.register.scenarios
        for f in (s.frequency_for("current"), s.frequency_for("ai"))
        if f is not None
    ]
    poisson = [f.mean_events_per_year for f in rates if isinstance(f, PoissonRate)]
    points = [f.events_per_year for f in rates if isinstance(f, PointRate)]
    assert min(poisson) < 10 <= max(poisson)
    assert any(rate != int(rate) for rate in points)

    assert {b.kind for b in portfolio.benefits} == {"productivity", "error_reduction", "revenue_uplift"}
    assert any(b.erosion_rate > 0 for b in portfolio.benefits)
    assert any(o.specialist and o.category == "personnel" for o in portfolio.opex)
    assert portfolio.cost_rules.reserve_treatment == "carrying_cost"


# -- correctness gate -------------------------------------------------------


def _report(body: dict) -> str:
    return json.dumps({"body": body, "body_sha256": gate.body_hash(body)})


GOLDEN = json.loads((ROOT / "tests" / "golden" / "reference_simulation_seed42_10k.json").read_text())


def test_gate_accepts_the_golden_report():
    text = json.dumps(GOLDEN)
    pins = {"simulate": GOLDEN["body_sha256"]}
    body = gate.check_report(text, "simulate", pins)
    gate.check_simulation_body(body, 10_000)


def test_gate_rejects_a_tampered_hash():
    tampered = dict(GOLDEN, body_sha256="0" * 64)
    with pytest.raises(gate.GateError, match="does not hash the body"):
        gate.check_report(json.dumps(tampered), "simulate", {})


def test_gate_rejects_a_tampered_body_with_a_matching_hash():
    body = json.loads(json.dumps(GOLDEN["body"]))
    body["metrics"]["npv"]["p50"] += 1.0
    with pytest.raises(gate.GateError, match="differs from pinned"):
        gate.check_report(_report(body), "simulate", {"simulate": GOLDEN["body_sha256"]})


def test_gate_checks_invariants_on_unpinned_seeds():
    body = json.loads(json.dumps(GOLDEN["body"]))
    with pytest.raises(gate.GateError, match="requested iterations"):
        gate.check_simulation_body(body, 9_999)
    body["metrics"]["npv"]["n"] -= 1
    with pytest.raises(gate.GateError, match="n \\+ exclusions"):
        gate.check_simulation_body(body, 10_000)
    body = json.loads(json.dumps(GOLDEN["body"]))
    body["metrics"]["npv"]["p10"] = body["metrics"]["npv"]["p90"] + 1
    with pytest.raises(gate.GateError, match="out of order"):
        gate.check_simulation_body(body, 10_000)


def test_pins_apply_at_the_pinned_seed_only():
    pinned = {
        "seed": 42,
        "any_seed": {"w": {"evaluate": "a"}},
        "pinned_seed": {"w": {"simulate": "b"}},
    }
    assert gate.pins_for("w", 42, pinned) == {"evaluate": "a", "simulate": "b"}
    assert gate.pins_for("w", 7, pinned) == {"evaluate": "a"}


def test_pinned_analytic_hash_is_the_golden_one():
    golden = json.loads((ROOT / "tests" / "golden" / "reference_analytic.json").read_text())
    for workload in ("reference", "interactive"):
        assert gate.PINNED["any_seed"][workload]["evaluate"] == golden["body_sha256"]


def test_plotdata_check():
    good = "kind,x0,x1,value\nbin,0,1,3\nbin,1,2,1\ncdf,1,,0.75\ncdf,2,,1.0\n"
    gate.check_plotdata(good, 4)
    with pytest.raises(gate.GateError, match="bins hold"):
        gate.check_plotdata(good, 5)
    with pytest.raises(gate.GateError, match="CDF"):
        gate.check_plotdata(good.replace("cdf,2,,1.0", "cdf,2,,0.5"), 4)


# -- span arithmetic --------------------------------------------------------


def test_self_time_subtracts_children():
    recorded = [
        (0, None, "main", 0.0, 10.0),
        (1, 0, "load", 1.0, 2.0),
        (2, 0, "value", 3.0, 7.0),
        (3, 2, "irr", 4.0, 5.5),
        (4, 2, "npv", 5.5, 6.0),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 5.0, 1: 1.0, 2: 2.0, 3: 1.5, 4: 0.5}
    totals = spans.totals_by_name(recorded)
    assert sum(entry["self_s"] for entry in totals.values()) == totals["main"]["total_s"]


def test_self_time_clips_and_merges_children():
    recorded = [
        (0, None, "parent", 2.0, 6.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 5.0),
        (3, 0, "c", 5.5, 9.0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(0.5)


def test_recorder_nests_spans_and_totals_repeat_calls():
    recorder = spans.SpanRecorder("run")
    inner = recorder.wrap("inner", lambda x: x + 1)
    outer = recorder.wrap("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    (outer_id, parent, name, _, _) = recorder.spans[0]
    assert (parent, name) == (None, "outer")
    assert [(s[1], s[2]) for s in recorder.spans[1:]] == [(outer_id, "inner"), (outer_id, "inner")]
    assert spans.totals_by_name(recorder.spans)["inner"]["count"] == 2


def test_traced_cli_reproduces_the_golden_report(tmp_path):
    report, trace = tmp_path / "report.json", tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), "--spans", str(trace), "simulate",
         str(ROOT / "portfolios" / "reference_portfolio.json"), "--out", str(report)],
        env=env, check=True, timeout=120,
    )
    assert json.loads(report.read_text())["body_sha256"] == GOLDEN["body_sha256"]
    document = json.loads(trace.read_text())
    totals = spans.totals_by_name(document["spans"])
    assert totals["valuation.evaluate_outcome"]["count"] == 10_000
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(
        totals[spans.MAIN_SPAN]["total_s"]
    )
    assert document["counts"]["distributions.substreams_per_iter"] == 11


def test_tail_has_ten_samples_beyond_it_or_is_the_maximum():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, "p75 of 40")
    assert run.tail(samples[:21]) == (21.0, "max of 21")
    assert run.tail(samples[:22]) == (12.0, "p55 of 22")
