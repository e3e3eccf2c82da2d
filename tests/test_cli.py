import copy
import csv
import dataclasses
import io
import json
import os
import random
import subprocess
import sys

import pytest

from airoi import engine
from airoi.benefits import benefit_schedule
from airoi.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from airoi.config import load_config
from airoi.costs import tco_pair
from airoi.engine import MAX_ITERATIONS, run_simulation
from airoi.valuation import REPORT_METRICS, DiscountSpec, evaluate_outcome
from conftest import REFERENCE_CONFIG, REPO_ROOT, minimal_config, write_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def all_point_config():
    # Every quantity degenerate, including an integer event rate, so the
    # simulation is bit-for-bit constant across iterations.
    data = minimal_config()
    data["benefits"] = [
        {
            "id": "automation",
            "kind": "productivity",
            "freed_hours_per_year": 1000,
            "loaded_cost_per_hour": 80.0,
        }
    ]
    data["costs"]["opex"][0]["annual_amount"] = 30000
    data["risks"][0]["frequency"] = {"kind": "point", "rate": 1.0}
    return data


# -- validate ---------------------------------------------------------------------


def test_validate_accepts_reference(capsys, reference_config_path):
    code, out, err = run_cli(capsys, "validate", str(reference_config_path))
    assert code == EXIT_OK
    assert "valid" in out


def test_validate_rejects_duplicate_scenario(tmp_path, capsys):
    data = minimal_config()
    data["risks"].append(dict(data["risks"][0]))
    path = write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "outage" in err


def test_validate_warns_without_failing(tmp_path, capsys):
    data = minimal_config()
    data["costs"]["rules"]["maintenance_rate"] = 0.30
    path = write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == EXIT_OK
    assert "0.15-0.25" in err


def test_negative_turnover_is_one_penalties_error(tmp_path, capsys, reference_config_path):
    # The turnover is checked once, where it is read, whatever the entries.
    data = json.loads(reference_config_path.read_text())
    data["penalties"]["global_turnover"] = -1
    for scenarios in (data["penalties"]["scenarios"], []):
        data["penalties"]["scenarios"] = scenarios
        path = write_config(tmp_path, data)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == "error: penalties: global_turnover must be >= 0, got -1.0\n"


def test_validate_unreadable_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == EXIT_VALIDATION


def test_duplicated_config_key_is_one_error(tmp_path, capsys, reference_config_path):
    # RFC 8259 leaves a repeated name to the reader; json keeps the last one.
    text = reference_config_path.read_text().replace(
        '"discount_rate": 0.08', '"discount_rate": 0.5, "discount_rate": 0.08'
    )
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"error: {path}: invalid JSON: duplicate key 'discount_rate'\n"


def test_pert_whose_shape_overflows_is_one_error(tmp_path, capsys, reference_config_path):
    # 4 (mode - lo) is inf, so every draw would be nan and simulate would fail late.
    data = json.loads(reference_config_path.read_text())
    pert = {"kind": "pert", "lo": -1e308, "mode": 0.0, "hi": 1e307}
    data["benefits"].append({"id": "huge", "kind": "revenue_uplift", "annual_value": pert})
    code, out, err = run_cli(capsys, "validate", str(write_config(tmp_path, data)))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.count("\n") == 1 and "pert shape overflows" in err


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys):
    # json refuses to convert an integer literal of more than 4300 digits.
    path = tmp_path / "config.json"
    path.write_text('{"schema_version": ' + "1" * 5000 + "}")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith(f"error: {path}: invalid JSON: Exceeds the limit")
    assert err.count("\n") == 1


def test_misspelled_keys_warn_and_leave_the_config_valid(tmp_path, capsys, reference_config_path):
    # A key outside its record's table is read by nothing: one warning each,
    # naming the nearest known key, and the config stays valid.
    data = json.loads(reference_config_path.read_text())
    data["bogus_top"] = 1
    data["benefits"][0]["atribution_factor"] = 0.5
    data["costs"]["rules"]["maintenence_rate"] = 0.25
    data["risks"][0]["sle"]["sigmaa"] = 0.9
    data["risks"][1]["frequency_currnet"] = 1.0
    data["simulation"]["iteratons"] = 5
    path = write_config(tmp_path, data)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out) == (EXIT_OK, f"{path}: valid (6 warning(s))\n")
    assert sorted(err.splitlines()) == sorted(
        [
            "warning: $: unknown field 'bogus_top'",
            "warning: benefits[0] (claims-triage-automation): unknown field "
            "'atribution_factor' (did you mean 'attribution_factor'?)",
            "warning: costs.rules: unknown field 'maintenence_rate' "
            "(did you mean 'maintenance_rate'?)",
            "warning: risks[0] (fraudulent-claims).sle: unknown field 'sigmaa' "
            "(did you mean 'sigma'?)",
            "warning: risks[1] (manual-processing-errors): unknown field "
            "'frequency_currnet' (did you mean 'frequency_current'?)",
            "warning: simulation: unknown field 'iteratons' (did you mean 'iterations'?)",
        ]
    )


def test_faults_in_the_header_and_the_sections_are_reported_in_one_pass(
    tmp_path, capsys, reference_config_path
):
    data = json.loads(reference_config_path.read_text())
    data["schema_version"] = 2
    data["benefits"][0]["attribution_factor"] = "x"
    data["costs"]["capex"][0]["useful_life_years"] = "x"
    code, out, err = run_cli(capsys, "validate", str(write_config(tmp_path, data)))
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.splitlines() == [
        "error: $: unsupported schema_version 2; expected 1",
        "error: benefits[0] (claims-triage-automation): "
        "field 'attribution_factor' must be a finite number, got 'x'",
        "error: costs.capex[0] (model-development): "
        "field 'useful_life_years' must be an integer, got 'x'",
    ]


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_emits_all_headline_fields(tmp_path, capsys, reference_config_path):
    code, out, err = run_cli(capsys, "evaluate", str(reference_config_path))
    assert code == EXIT_OK
    report = json.loads(out)
    valuation = report["body"]["valuation"]
    for key in ("net_risk_adjusted_benefit", "npv", "irr", "payback_years", "roi_ratio", "risk_delta"):
        assert key in valuation
    assert report["body_sha256"]


def test_evaluate_is_deterministic(tmp_path, capsys, reference_config_path):
    code1, out1, _ = run_cli(capsys, "evaluate", str(reference_config_path))
    code2, out2, _ = run_cli(capsys, "evaluate", str(reference_config_path))
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_evaluate_empty_risks_reports_zero_delta(tmp_path, capsys):
    data = minimal_config()
    data["risks"] = []
    path = write_config(tmp_path, data)
    code, out, _ = run_cli(capsys, "evaluate", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["body"]["valuation"]["risk_delta"] == 0.0


# -- simulate ---------------------------------------------------------------------


def test_simulate_report_structure(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, out, _ = run_cli(capsys, "simulate", str(path), "--iterations", "400", "--seed", "42")
    assert code == EXIT_OK
    report = json.loads(out)
    body = report["body"]
    assert body["simulation"] == {
        "master_seed": 42,
        "iterations": 400,
        "requested_iterations": 400,
    }
    assert body["config"]["sha256"]
    metrics = body["metrics"]
    for key in ("net_risk_adjusted_benefit", "roi_ratio", "npv", "risk_delta"):
        summary = metrics[key]
        assert summary["p10"] <= summary["p50"] <= summary["p90"]
    assert "timing" in report and "elapsed_seconds" in report["timing"]


def test_simulate_worker_counts_agree_byte_for_byte(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    bodies = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "simulate", str(path),
            "--iterations", "300", "--seed", "42", "--workers", workers,
        )
        assert code == EXIT_OK
        report = json.loads(out)
        bodies.append(
            (json.dumps(report["body"], sort_keys=True), report["body_sha256"])
        )
    assert bodies[0] == bodies[1]


def test_simulate_single_iteration_collapses_percentiles(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, out, _ = run_cli(capsys, "simulate", str(path), "--iterations", "1", "--seed", "3")
    assert code == EXIT_OK
    summary = json.loads(out)["body"]["metrics"]["net_risk_adjusted_benefit"]
    assert summary["p10"] == summary["p50"] == summary["p90"]


def test_simulate_rerun_from_recorded_parameters_reproduces_body(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, out, _ = run_cli(capsys, "simulate", str(path), "--iterations", "250", "--seed", "99")
    assert code == EXIT_OK
    first = json.loads(out)
    recorded = first["body"]["simulation"]
    code, out, _ = run_cli(
        capsys, "simulate", str(path),
        "--iterations", str(recorded["iterations"]),
        "--seed", str(recorded["master_seed"]),
    )
    second = json.loads(out)
    assert second["body_sha256"] == first["body_sha256"]
    assert second["body"] == first["body"]


def test_simulate_dump_iterations(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    dump = tmp_path / "iterations.csv"
    code, _, _ = run_cli(
        capsys, "simulate", str(path), "--iterations", "50", "--seed", "1",
        "--dump-iterations", str(dump),
    )
    assert code == EXIT_OK
    with open(dump, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:6] == [
        "iteration", "gross_benefits", "risk_reduction", "risk_increase", "tco_total", "risk_delta",
    ]
    assert len(rows) == 51
    assert rows[1][0] == "0"
    assert b"\r" not in dump.read_bytes()  # LF line ends, like every other CSV
    # Every cell, in column order, against the library path.
    config, _ = load_config(path)
    sim = dataclasses.replace(config.simulation, iterations=50, master_seed=1)
    discount = DiscountSpec(config.portfolio.discount_rate)
    for row, o in zip(rows[1:], run_simulation(config.portfolio, sim).outcomes, strict=True):
        v = evaluate_outcome(o, discount)
        assert row == [
            "" if value is None else str(value)
            for value in (
                o.index, o.gross_benefits, o.risk_reduction, o.risk_increase, o.tco_total,
                o.risk_delta, v.net_risk_adjusted_benefit, v.npv, v.roi_ratio, v.irr,
                v.payback_years,
            )
        ]


def test_simulate_that_exits_two_writes_no_file(tmp_path, capsys):
    # Losses past the float range on both sides: each risk delta is
    # inf - inf = nan, which the JSON report cannot hold.
    data = minimal_config()
    sle = {"kind": "uniform", "lo": 1.5e308, "hi": 1.7e308}
    frequency = {"kind": "point", "rate": 2}
    data["risks"] = [
        {"id": side, "applies_to": applies, "sle": sle, "frequency": frequency}
        for side, applies in (("down", "current_only"), ("up", "ai_only"))
    ]
    path = str(write_config(tmp_path, data))
    metrics, dump, out_path = (tmp_path / name for name in ("m.csv", "d.csv", "o.json"))
    code, out, err = run_cli(
        capsys, "simulate", path, "--iterations", "20", "--metrics-csv", str(metrics),
        "--dump-iterations", str(dump), "--out", str(out_path),
    )
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error: a result is outside the float range: Out of range float")
    assert [p for p in (metrics, dump, out_path) if p.exists()] == []


def test_simulate_that_runs_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A stand-in raises the allocation failure, so none is reached: a run
    # too large for memory exits 3 with one error line and writes no file.
    path = str(write_config(tmp_path, minimal_config()))
    metrics, out_path = tmp_path / "m.csv", tmp_path / "o.json"
    for message in ("", "Unable to allocate 149. GiB for an array with shape (100000000, 200)"):

        def exhausted(portfolio, sim, reduce=None):
            raise MemoryError(message)

        monkeypatch.setattr(engine, "run_simulation", exhausted)
        code, out, err = run_cli(
            capsys, "simulate", path, "--iterations", "20", "--metrics-csv", str(metrics),
            "--out", str(out_path),
        )
        assert (code, out) == (EXIT_IO, "")
        assert err == f"error: the run does not fit in memory. {message}".rstrip() + "\n"
        assert [p for p in (metrics, out_path) if p.exists()] == []


def test_simulate_out_file_and_io_failure(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "simulate", str(path), "--iterations", "20", "--seed", "1", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert json.loads(out_path.read_text())["body"]["simulation"]["iterations"] == 20
    code, _, err = run_cli(
        capsys, "simulate", str(path), "--iterations", "20", "--seed", "1",
        "--out", str(tmp_path / "no-such-dir" / "report.json"),
    )
    assert code == EXIT_IO


def test_simulate_invalid_workers(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, _, err = run_cli(capsys, "simulate", str(path), "--workers", "many")
    assert code == EXIT_VALIDATION
    assert "workers" in err


def test_seed_outside_64_bits_rejected(tmp_path, capsys):
    # Stream keys use the seed's 64 bits, so 2^64 would alias 0 and -1
    # would alias 2^64 - 1 while the report records the seed as given.
    path = write_config(tmp_path, minimal_config())
    for command in ("simulate", "plotdata"):
        extra = ["--metric", "npv"] if command == "plotdata" else []
        for seed in (-1, 2**64):
            code, out, err = run_cli(
                capsys, command, str(path), *extra, "--iterations", "5", "--seed", str(seed)
            )
            assert code == EXIT_VALIDATION
            assert out == ""
            assert err.count("\n") == 1 and "seed" in err
    code, out, _ = run_cli(
        capsys, "simulate", str(path), "--iterations", "5", "--seed", str(2**64 - 1)
    )
    assert code == EXIT_OK
    assert json.loads(out)["body"]["simulation"]["master_seed"] == 2**64 - 1


def test_iterations_above_the_cap_rejected(tmp_path, capsys):
    # Checked by value only: nothing here runs more than 5 iterations.
    data = minimal_config()
    data["simulation"]["iterations"] = MAX_ITERATIONS
    code, _, err = run_cli(capsys, "validate", str(write_config(tmp_path, data)))
    assert (code, err) == (EXIT_OK, "")
    data["simulation"]["iterations"] = MAX_ITERATIONS + 1
    path = write_config(tmp_path, data)
    message = f"error: simulation: iterations must be at most {MAX_ITERATIONS}, got {MAX_ITERATIONS + 1}\n"
    for argv in (("validate",), ("track", "actuals.json")):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (EXIT_VALIDATION, "", message)
    path = write_config(tmp_path, minimal_config())
    for command in ("simulate", "plotdata"):
        extra = ["--metric", "npv"] if command == "plotdata" else []
        code, out, err = run_cli(
            capsys, command, str(path), *extra, "--iterations", str(MAX_ITERATIONS + 1)
        )
        assert (code, out, err) == (EXIT_VALIDATION, "", message)


def test_evaluate_costs_csv(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    costs_path = tmp_path / "costs.csv"
    code, _, _ = run_cli(capsys, "evaluate", str(path), "--costs-csv", str(costs_path))
    assert code == EXIT_OK
    with open(costs_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["year", "capex", "opex", "maintenance", "reserve", "total"]
    assert len(rows) == 4  # header + 3 horizon years
    year0 = rows[1]
    assert float(year0[5]) == pytest.approx(
        float(year0[1]) + float(year0[2]) + float(year0[3]) + float(year0[4]), abs=0.02
    )


def test_simulate_metrics_csv(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    metrics_path = tmp_path / "metrics.csv"
    code, _, _ = run_cli(
        capsys, "simulate", str(path), "--iterations", "120", "--seed", "5",
        "--metrics-csv", str(metrics_path),
    )
    assert code == EXIT_OK
    with open(metrics_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "metric"
    names = [row[0] for row in rows[1:]]
    assert "net_risk_adjusted_benefit" in names
    assert "risk_delta" in names
    for row in rows[1:]:
        assert float(row[4]) <= float(row[5]) <= float(row[6])  # p10 <= p50 <= p90


# -- delta ------------------------------------------------------------------------


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_delta_no_scenarios_only_total(tmp_path, capsys):
    data = minimal_config()
    data["risks"] = []
    path = write_config(tmp_path, data)
    code, out, _ = run_cli(capsys, "delta", str(path))
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == ["scenario_id", "classification", "ale_current", "ale_ai", "delta"]
    assert rows[1] == ["TOTAL", "", "0.00", "0.00", "0.00"]


def test_delta_introduction_scenario_total_negative(tmp_path, capsys):
    data = minimal_config()
    data["risks"] = [
        {
            "id": "new-threat",
            "applies_to": "ai_only",
            "sle": 300000,
            "frequency": {"kind": "point", "rate": 0.1},
        }
    ]
    path = write_config(tmp_path, data)
    code, out, _ = run_cli(capsys, "delta", str(path))
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[1] == ["new-threat", "introduction", "0.00", "30000.00", "-30000.00"]
    assert rows[-1] == ["TOTAL", "", "0.00", "30000.00", "-30000.00"]


def test_delta_classification_matches_api(tmp_path, capsys, reference_config_path):
    from airoi.risk import classify_scenario

    code, out, _ = run_cli(capsys, "delta", str(reference_config_path))
    assert code == EXIT_OK
    rows = parse_csv(out)
    config, _ = load_config(reference_config_path)
    expected = {s.id: classify_scenario(s) for s in config.portfolio.register.scenarios}
    for row in rows[1:-1]:
        assert row[1] == expected[row[0]]


# -- track ------------------------------------------------------------------------


def test_track_exact_actuals_have_zero_variance(tmp_path, capsys):
    # The band of an attributed benefit is attributed like its projection.
    for attribution in (1.0, 0.5):
        data = all_point_config()
        data["benefits"][0]["attribution_factor"] = attribution
        path = write_config(tmp_path, data)
        # Analytic quarterly projections: benefit 80000*attribution/4, opex
        # 30000/4, loss ALE 0 (current_only).
        projected = 20000.0 * attribution
        actuals = {
            "records": [
                {
                    "period": {"year": 1, "quarter": 1},
                    "benefits": {"automation": projected},
                    "costs": {"run": 7500.0},
                    "losses": {"outage": {"events": 0, "total_loss": 0.0}},
                }
            ]
        }
        actuals_path = tmp_path / "actuals.json"
        actuals_path.write_text(json.dumps(actuals))
        code, out, _ = run_cli(capsys, "track", str(path), str(actuals_path))
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0][0] == "period"
        by_id = {row[2]: row for row in rows[1:]}
        assert by_id["automation"][3] == f"{projected:.2f}"
        assert by_id["automation"][5] == "0.00"  # variance
        assert by_id["automation"][6:9] == [f"{projected:.2f}", f"{projected:.2f}", "no"]
        assert by_id["run"][5] == "0.00"
        assert by_id["outage"][8] == "no"


def test_track_flags_actual_outside_band(tmp_path, capsys):
    data = all_point_config()
    path = write_config(tmp_path, data)
    actuals = {
        "records": [
            {
                "period": {"year": 1, "quarter": 1},
                "benefits": {"automation": 10000.0},  # 50% of the 20000 projection
            }
        ]
    }
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(json.dumps(actuals))
    code, out, _ = run_cli(capsys, "track", str(path), str(actuals_path))
    assert code == EXIT_OK
    rows = parse_csv(out)
    row = next(r for r in rows[1:] if r[2] == "automation")
    assert row[4] == "10000.00"
    assert row[8] == "yes"


def test_track_quarters_sum_to_annual_projection(tmp_path, capsys):
    data = all_point_config()
    path = write_config(tmp_path, data)
    actuals = {
        "records": [
            {"period": {"year": 1, "quarter": q}, "benefits": {"automation": 20000.0}}
            for q in (1, 2, 3, 4)
        ]
    }
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(json.dumps(actuals))
    code, out, _ = run_cli(capsys, "track", str(path), str(actuals_path))
    assert code == EXIT_OK
    rows = parse_csv(out)
    projections = [float(r[3]) for r in rows[1:] if r[2] == "automation"]
    assert len(projections) == 4
    assert sum(projections) == 80000.0


def test_track_projections_follow_the_model_schedules(
    tmp_path, capsys, reference_config_path, reference_config
):
    # One record per year holding every id: four times the quarter's summed
    # projections is the model's own row for that year. Opex includes the
    # specialist premium, capex is booked in full in its incurred year, and
    # benefits are attributed and eroded.
    portfolio = reference_config.portfolio
    horizon = portfolio.horizon_years
    benefit_ids = [item.id for item in portfolio.benefits]
    capex_ids = [item.id for item in portfolio.capex]
    opex_ids = [item.id for item in portfolio.opex]
    records = [
        {
            "period": {"year": year, "quarter": 1},
            "benefits": dict.fromkeys(benefit_ids, 0.0),
            "costs": dict.fromkeys(capex_ids + opex_ids, 0.0),
            "losses": {
                scenario.id: {"events": 0, "total_loss": 0.0}
                for scenario in portfolio.register.scenarios
            },
        }
        for year in range(horizon)
    ]
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(json.dumps({"records": records}))
    code, out, _ = run_cli(capsys, "track", str(reference_config_path), str(actuals_path))
    assert code == EXIT_OK
    projected = {(row[0], row[2]): float(row[3]) for row in parse_csv(out)[1:]}

    costs_path = tmp_path / "costs.csv"
    argv = ("evaluate", str(reference_config_path), "--costs-csv", str(costs_path))
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    opex_row = [float(row[2]) for row in parse_csv(costs_path.read_text())[1:]]
    capex_row = tco_pair(portfolio.capex, (), portfolio.cost_rules, horizon)[1].capex
    benefit_row = benefit_schedule(portfolio.benefits, horizon)
    for year in range(horizon):
        for ids, expected in (
            (benefit_ids, benefit_row[year]),
            (capex_ids, capex_row[year]),
            (opex_ids, opex_row[year]),
        ):
            annual = 4 * sum(projected[(f"Y{year}Q1", item_id)] for item_id in ids)
            # Each projection is a two-decimal quarter, so 4 x its rounding
            # is 0.02; the costs CSV cell adds 0.005.
            assert abs(annual - expected) <= 0.02 * len(ids) + 0.005, (year, ids)


def test_track_unknown_id_exits_with_listing(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(
        json.dumps(
            {"records": [{"period": {"year": 1, "quarter": 1}, "benefits": {"phantom": 1.0}}]}
        )
    )
    code, _, err = run_cli(capsys, "track", str(path), str(actuals_path))
    assert code == EXIT_VALIDATION
    assert "phantom" in err


def run_track(tmp_path, capsys, actuals: bytes):
    path = write_config(tmp_path, minimal_config())
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_bytes(actuals)
    return run_cli(capsys, "track", str(path), str(actuals_path))


def test_track_benefits_list_is_a_diagnostic(tmp_path, capsys):
    record = {"period": {"year": 1, "quarter": 1}, "benefits": [1]}
    code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == "error: records[0]: field 'benefits' has the wrong type: [1]\n"


def test_track_text_actual_is_a_diagnostic(tmp_path, capsys):
    record = {"period": {"year": 1, "quarter": 1}, "benefits": {"automation": "abc"}}
    code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == (
        "error: records[0].benefits: field 'automation' must be a finite number, got 'abc'\n"
    )


def test_track_duplicated_actuals_key_is_one_error(tmp_path, capsys):
    actuals = b'{"records": [{"period": {"year": 1, "quarter": 1, "quarter": 2}}]}'
    code, out, err = run_track(tmp_path, capsys, actuals)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err == f"error: {tmp_path / 'actuals.json'}: invalid JSON: duplicate key 'quarter'\n"


def test_track_actuals_not_utf8_is_a_diagnostic(tmp_path, capsys):
    code, out, err = run_track(tmp_path, capsys, b'{"records": "\xff"}')
    assert (code, out) == (EXIT_VALIDATION, "")
    assert err.startswith("error: ") and "invalid JSON" in err and err.count("\n") == 1


def test_track_boolean_period_is_a_diagnostic(tmp_path, capsys):
    for period, errors in (
        ({"year": True, "quarter": 1}, ["year"]),
        ({"year": 1, "quarter": True}, ["quarter"]),
        ({"year": True, "quarter": True}, ["year", "quarter"]),
    ):
        record = {"period": period}
        code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.splitlines() == [
            f"error: records[0].period: field {key!r} must be an integer, got True"
            for key in errors
        ]


def test_track_quarter_outside_the_year_is_a_diagnostic(tmp_path, capsys):
    for quarter in (0, 5):
        record = {"period": {"year": 1, "quarter": quarter}}
        code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: records[0].period: quarter must lie in 1..4, got {quarter}\n"


def test_track_year_outside_the_horizon_is_a_diagnostic(tmp_path, capsys):
    # The minimal portfolio's horizon is 3 years: years 0..2.
    for year in (-1, 3, 99):
        record = {"period": {"year": year, "quarter": 1}}
        code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: records[0].period: year must lie in 0..2, got {year}\n"


def test_track_empty_actuals_rejected(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(json.dumps({"records": []}))
    code, _, _ = run_cli(capsys, "track", str(path), str(actuals_path))
    assert code == EXIT_VALIDATION


# -- plotdata ---------------------------------------------------------------------


def test_plotdata_constant_metric_single_bin(tmp_path, capsys):
    path = write_config(tmp_path, all_point_config())
    code, out, _ = run_cli(
        capsys, "plotdata", str(path), "--metric", "net_risk_adjusted_benefit",
        "--iterations", "40",
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    bins = [r for r in rows[1:] if r[0] == "bin"]
    cdf = [r for r in rows[1:] if r[0] == "cdf"]
    assert len(bins) == 1
    assert int(bins[0][3]) == 40
    assert float(cdf[-1][3]) == 1.0


def test_plotdata_counts_conserved_and_cdf_reaches_one(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, out, _ = run_cli(
        capsys, "plotdata", str(path), "--metric", "npv", "--iterations", "500", "--seed", "9"
    )
    assert code == EXIT_OK
    rows = parse_csv(out)
    bins = [r for r in rows[1:] if r[0] == "bin"]
    cdf = [r for r in rows[1:] if r[0] == "cdf"]
    assert len(bins) == 50
    assert sum(int(r[3]) for r in bins) == 500
    assert float(cdf[-1][3]) == 1.0


def test_plotdata_matches_a_python_histogram(capsys, reference_config_path):
    # Every metric's CSV against bins and CDF written out here, one value at a time.
    argv = ("--iterations", "2000", "--seed", "42", "--workers", "1")
    config, _ = load_config(reference_config_path)
    sim = dataclasses.replace(config.simulation, iterations=2000, master_seed=42)
    discount = DiscountSpec(config.portfolio.discount_rate)
    valuations = evaluate_outcome(run_simulation(config.portfolio, sim), discount)
    for metric in REPORT_METRICS:
        values = sorted(valuations.values(metric).tolist())
        low, high = values[0], values[-1]
        width = (high - low) / 50
        edges = [low + i * width for i in range(50)] + [high]
        counts = [0] * 50
        for value in values:
            counts[min(int((value - low) / width), 49)] += 1
        expected = [["kind", "x0", "x1", "value"]]
        for i in range(50):
            expected.append(["bin", repr(edges[i]), repr(edges[i + 1]), str(counts[i])])
        cumulative = 0
        for i in range(50):
            cumulative += counts[i]
            expected.append(["cdf", repr(edges[i + 1]), "", str(cumulative / len(values))])
        code, out, _ = run_cli(
            capsys, "plotdata", str(reference_config_path), "--metric", metric, *argv
        )
        assert code == EXIT_OK
        assert parse_csv(out) == expected, metric


def test_plotdata_unknown_metric_lists_valid_names(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config())
    code, _, err = run_cli(capsys, "plotdata", str(path), "--metric", "sharpe")
    assert code == EXIT_VALIDATION
    assert "net_risk_adjusted_benefit" in err


def test_round_trip_valid_config_works_with_every_subcommand(tmp_path, capsys):
    # A config that passes validate must be accepted by all other commands.
    path = write_config(tmp_path, minimal_config())
    actuals_path = tmp_path / "actuals.json"
    actuals_path.write_text(
        json.dumps(
            {"records": [{"period": {"year": 1, "quarter": 1}, "benefits": {"automation": 100.0}}]}
        )
    )
    assert run_cli(capsys, "validate", str(path))[0] == EXIT_OK
    assert run_cli(capsys, "evaluate", str(path))[0] == EXIT_OK
    assert run_cli(capsys, "simulate", str(path), "--iterations", "30")[0] == EXIT_OK
    assert run_cli(capsys, "delta", str(path))[0] == EXIT_OK
    assert run_cli(capsys, "track", str(path), str(actuals_path))[0] == EXIT_OK
    assert run_cli(
        capsys, "plotdata", str(path), "--metric", "risk_delta", "--iterations", "30"
    )[0] == EXIT_OK


# -- exit-code contract -------------------------------------------------------------


def test_bad_benefit_is_reported_once(tmp_path, capsys):
    data = minimal_config()
    data["benefits"][0].update(start_year=2, end_year=1)
    code, _, err = run_cli(capsys, "validate", str(write_config(tmp_path, data)))
    assert code == EXIT_VALIDATION
    assert err == "error: portfolio: benefit 'automation': start_year 2 exceeds end_year 1\n"


def test_fsum_overflow_is_one_error_line(tmp_path, capsys):
    data = minimal_config()
    data["benefits"].append({"id": "huge", "kind": "revenue_uplift", "annual_value": 1e308})
    path = write_config(tmp_path, data)
    for command, *flags in (
        ("evaluate",),
        ("simulate", "--iterations", "20"),
        ("plotdata", "--metric", "npv", "--iterations", "20"),
    ):
        code, out, err = run_cli(capsys, command, str(path), *flags)
        assert (code, out) == (EXIT_VALIDATION, ""), command
        assert err == "error: a result is outside the float range: intermediate overflow in fsum\n"


def test_infinite_report_value_is_one_error_line(tmp_path, capsys):
    # A finite severity whose mean is not: the report cannot hold it.
    data = minimal_config()
    data["risks"][0]["sle"] = {"kind": "lognormal", "median": 1e300, "sigma": 30}
    path = str(write_config(tmp_path, data))
    # An overflowed nan or inf is a value, never an undefined iteration.
    for command, message in (
        (("evaluate",), "Out of range float"),
        (("delta",), "scenario ALE totals are not finite: (inf, 0.0, inf)"),
        (("simulate", "--iterations", "50"), "intermediate overflow in fsum"),
        (
            ("plotdata", "--metric", "roi_ratio", "--iterations", "50"),
            "metric 'roi_ratio' or its span leaves the float range",
        ),
    ):
        code, out, err = run_cli(capsys, command[0], path, *command[1:])
        assert (code, out) == (EXIT_VALIDATION, ""), command
        assert err.startswith("error: a result is outside the float range: " + message)
        assert err.count("\n") == 1


def test_plotdata_span_beyond_the_float_range_is_one_error_line(tmp_path, capsys):
    # One year of risk deltas. Finite values near +-1.7e308: their span
    # overflows. Values 0 and +-4e-323: a fiftieth of their span rounds to 0.
    data = minimal_config(horizon_years=1)
    data["costs"]["capex"][0]["useful_life_years"] = 1
    data["costs"]["opex"][0]["end_year"] = 0
    frequency = {"kind": "point", "rate": 0.5}
    for sle in ({"kind": "uniform", "lo": 0, "hi": 1.7e308}, {"kind": "point", "value": 4e-323}):
        data["risks"] = [
            {"id": side, "applies_to": applies, "sle": sle, "frequency": frequency}
            for side, applies in (("down", "current_only"), ("up", "ai_only"))
        ]
        path = str(write_config(tmp_path, data))
        code, out, err = run_cli(
            capsys, "plotdata", path, "--metric", "risk_delta", "--iterations", "200"
        )
        assert (code, out) == (EXIT_VALIDATION, ""), sle
        assert err == (
            "error: a result is outside the float range: "
            "metric 'risk_delta' or its span leaves the float range\n"
        )


_MUTATION_VALUES = ("x", [], {}, None, True, -1, 0, 1e308, 2**64)
_SWEEP_COMMANDS = (
    ("validate",),
    ("evaluate",),
    ("delta",),
    ("simulate", "--iterations", "20"),
    ("plotdata", "--metric", "npv", "--iterations", "20"),
)


def _field_paths(node, prefix=()):
    """Every key path of a JSON document, containers included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def test_config_mutation_sweep_ends_cleanly(tmp_path, capsys, reference_config_path):
    # Every field of the reference portfolio, each set in turn to two values
    # drawn (seeded) from a fixed list of wrong types and extreme numbers.
    # Every command must end with exit 0, 2 or 3 and no traceback, and
    # every stderr line must be a diagnostic that appears once.
    reference = json.loads(reference_config_path.read_text())
    rng = random.Random(20261018)
    path = tmp_path / "mutated.json"
    failures = []
    for field in _field_paths(reference):
        for value in rng.sample(_MUTATION_VALUES, 2):
            data = copy.deepcopy(reference)
            node = data
            for key in field[:-1]:
                node = node[key]
            node[field[-1]] = value
            path.write_text(json.dumps(data))
            for command, *flags in _SWEEP_COMMANDS:
                case = ("/".join(map(str, field)), value, command)
                try:
                    code = main([command, str(path), *flags])
                except Exception as exc:
                    failures.append((*case, repr(exc)))
                    continue
                lines = capsys.readouterr().err.splitlines()
                if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_IO):
                    failures.append((*case, f"exit {code}"))
                for line in lines:
                    if not line.startswith(("error:", "warning:")) or lines.count(line) > 1:
                        failures.append((*case, line))
    assert not failures, failures[:20]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing config argument
    assert exc.value.code == 2


def test_track_loss_without_total_loss_is_a_diagnostic(tmp_path, capsys):
    # total_loss is required; events is optional but must be an integer.
    for loss, error in (
        ({}, "missing required field 'total_loss'"),
        ({"events": 1}, "missing required field 'total_loss'"),
        ({"events": "x", "total_loss": 1.0}, "field 'events' must be an integer, got 'x'"),
    ):
        record = {"period": {"year": 1, "quarter": 1}, "losses": {"outage": loss}}
        code, out, err = run_track(tmp_path, capsys, json.dumps({"records": [record]}).encode())
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err == f"error: records[0].losses.outage: {error}\n"


def test_commands_that_draw_nothing_start_without_numpy():
    # Each command in a fresh interpreter: validate and delta read and check
    # the config only, and evaluate values the analytic means as floats, so
    # neither numpy nor the worker pool's module loads; a one-worker
    # simulate draws, so it loads numpy, but starts no pool, so its modules
    # stay unloaded.
    code = (
        "import contextlib, io, json, sys\n"
        "from airoi import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps([name in sys.modules for name in ('numpy', 'concurrent.futures')]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    for command, loads in (
        (["validate"], [False, False]),
        (["delta"], [False, False]),
        (["evaluate"], [False, False]),
        (["evaluate", "--costs-csv", os.devnull], [False, False]),
        (["simulate", "--iterations", "1000", "--workers", "1"], [True, False]),
    ):
        done = subprocess.run(
            [sys.executable, "-c", code, command[0], str(REFERENCE_CONFIG), *command[1:]],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == loads, command


def test_drawing_commands_do_not_load_numpy_ma():
    # numpy.ma costs about 8 ms of import; the severity batches group rows
    # by count without np.unique, which loads it.
    code = (
        "import contextlib, io, sys\n"
        "from airoi import cli\n"
        "argv = [sys.argv[1], '--iterations', '1000', '--workers', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['simulate', *argv]) == 0\n"
        "    assert cli.main(['plotdata', *argv, '--metric', 'npv']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(REFERENCE_CONFIG)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
