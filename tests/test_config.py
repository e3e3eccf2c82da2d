import copy
import json

import pytest

from airoi.config import has_errors, load_actuals, load_config
from airoi.distributions import Pert, Point, PoissonRate, Triangular
from conftest import minimal_config, write_config


def load_data(tmp_path, data):
    return load_config(write_config(tmp_path, data))


def error_messages(diagnostics):
    return [str(d) for d in diagnostics if d.severity == "error"]


def warning_messages(diagnostics):
    return [str(d) for d in diagnostics if d.severity == "warning"]


# -- happy path -------------------------------------------------------------------


def test_minimal_config_loads(tmp_path):
    config, diagnostics = load_data(tmp_path, minimal_config())
    assert not has_errors(diagnostics)
    assert config is not None
    portfolio = config.portfolio
    assert portfolio.horizon_years == 3
    assert portfolio.benefits[0].annual_value == Triangular(64_000.0, 80_000.0, 96_000.0)
    assert portfolio.capex[0].amount == Point(150_000.0)
    assert portfolio.register.scenarios[0].frequency_current is not None
    assert config.simulation.iterations == 200
    assert len(config.content_hash) == 64


def test_reference_portfolio_is_valid(reference_config_path):
    config, diagnostics = load_config(reference_config_path)
    assert config is not None
    assert not has_errors(diagnostics)


def test_shared_frequency_applies_to_both_states(tmp_path):
    data = minimal_config()
    data["risks"] = [
        {
            "id": "swing",
            "applies_to": "both",
            "sle": 5_000,
            "frequency": {"kind": "poisson", "rate": 1.5},
        }
    ]
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    scenario = config.portfolio.register.scenarios[0]
    assert scenario.frequency_current == PoissonRate(1.5)
    assert scenario.frequency_ai == PoissonRate(1.5)


def test_ab_test_benefit_converts_through_margin(tmp_path):
    data = minimal_config()
    data["benefits"].append(
        {
            "id": "uplift",
            "kind": "revenue_uplift",
            "phase": "early",
            "ab_test": {
                "treatment_trials": 1000,
                "treatment_successes": 120,
                "control_trials": 1000,
                "control_successes": 100,
                "value_per_success": 10.0,
                "annual_volume": 100000,
            },
        }
    )
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    uplift = config.portfolio.benefits[1].annual_value
    assert isinstance(uplift, Triangular)
    assert uplift.mode == pytest.approx(20_000.0, rel=1e-9)
    assert uplift.lo == pytest.approx(15_000.0, rel=1e-9)  # early-phase 25% margin


def test_ab_test_arm_counts_from_csv(tmp_path):
    (tmp_path / "arms.csv").write_text(
        "arm,trials,successes\ntreatment,1000,120\ncontrol,1000,100\n"
    )
    data = minimal_config()
    data["benefits"].append(
        {
            "id": "uplift",
            "kind": "revenue_uplift",
            "projection_margin": 0.0,
            "ab_test": {"csv": "arms.csv", "value_per_success": 10.0, "annual_volume": 100000},
        }
    )
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    assert config.portfolio.benefits[1].annual_value == Point(pytest.approx(20_000.0, rel=1e-9))


def test_penalty_section_builds_scenario(tmp_path):
    data = minimal_config()
    data["penalties"] = {
        "global_turnover": 1e9,
        "scenarios": [
            {
                "id": "penalty",
                "tier": "prohibited_practice",
                "severity_fraction": {"kind": "pert", "lo": 0.0, "mode": 0.01, "hi": 0.05},
                "violation_rate": {"kind": "point", "rate": 0.02},
            }
        ],
    }
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    scenario = config.portfolio.register.scenarios[-1]
    assert scenario.id == "penalty"
    assert scenario.applies_to == "ai_only"
    assert scenario.sle == Pert(0.0, 7e5, 3.5e6)  # fractions scaled by the 70M magnitude


def test_ab_test_reports_every_missing_field(tmp_path, reference_config_path):
    data = json.loads(reference_config_path.read_text())
    index, item = next(
        (i, item)
        for i, item in enumerate(data["benefits"])
        if item["id"] == "renewal-conversion-uplift"
    )
    item["ab_test"] = {}
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    location = f"error: benefits[{index}] (renewal-conversion-uplift).ab_test"
    assert error_messages(diagnostics) == [
        f"{location}: missing required field {key!r}"
        for key in (
            "treatment_trials",
            "treatment_successes",
            "control_trials",
            "control_successes",
            "value_per_success",
            "annual_volume",
        )
    ]


# -- validation failures --------------------------------------------------------------


def test_missing_schema_version(tmp_path):
    data = minimal_config()
    del data["schema_version"]
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("schema_version" in m for m in error_messages(diagnostics))


def test_duplicate_scenario_id(tmp_path):
    data = minimal_config()
    data["risks"].append(dict(data["risks"][0]))
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("duplicate" in m and "outage" in m for m in error_messages(diagnostics))


def test_bad_distribution_literal(tmp_path):
    data = minimal_config()
    data["benefits"][0]["freed_hours_per_year"] = {"kind": "gaussian", "mu": 0}
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("gaussian" in m for m in error_messages(diagnostics))


def test_master_seed_outside_64_bits_rejected(tmp_path):
    for seed in (-1, 2**64, 2**70):
        data = minimal_config()
        data["simulation"]["master_seed"] = seed
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert any("master_seed" in m and "[0, 2^64)" in m for m in error_messages(diagnostics))
    data = minimal_config()
    data["simulation"]["master_seed"] = 2**64 - 1
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    assert config.simulation.master_seed == 2**64 - 1


def test_target_relative_se_checked(tmp_path):
    for value in ("x", -1, 0, True):
        data = minimal_config()
        data["simulation"]["target_relative_se"] = value
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert error_messages(diagnostics) == [
            f"error: simulation: target_relative_se must be a finite number > 0, got {value!r}"
        ]
    data["simulation"]["target_relative_se"] = 0.01
    config, diagnostics = load_data(tmp_path, data)
    assert not has_errors(diagnostics)
    assert config.simulation.target_relative_se == 0.01


def test_cost_rate_of_wrong_type_rejected(tmp_path):
    for value in ("high", [], None):
        data = minimal_config()
        data["costs"]["rules"]["maintenance_rate"] = value
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert error_messages(diagnostics) == [
            f"error: costs.rules: field 'maintenance_rate' must be a finite number, got {value!r}"
        ]


def test_entry_keeps_its_index_after_a_non_object_entry(tmp_path, reference_config_path):
    # A non-object entry is reported and skipped; the entries after it are
    # still reported at their own index.
    reference = json.loads(reference_config_path.read_text())
    for path, field, message in (
        (("benefits",), "attribution_factor", "must be a finite number, got []"),
        (("costs", "capex"), "useful_life_years", "must be an integer, got []"),
        (("costs", "opex"), "start_year", "must be an integer, got []"),
        (("risks",), "description", "has the wrong type: []"),
    ):
        data = copy.deepcopy(reference)
        section = data
        for key in path:
            section = section[key]
        section.insert(0, "x")
        section[2][field] = []
        where = ".".join(path)
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert [str(d) for d in diagnostics] == [
            f"error: {where}: every {path[-1]} entry must be an object",
            f"error: {where}[2] ({section[2]['id']}): field {field!r} {message}",
        ]


def test_cost_section_errors_name_their_path(tmp_path):
    for key in ("capex", "opex"):
        data = minimal_config()
        data["costs"][key] = {}
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert error_messages(diagnostics) == [f"error: costs.{key}: {key} must be a list"]


def test_unit_valued_benefit_fields_reported_where_they_are(tmp_path):
    # Both unit-valued kinds: a bad quantity is reported at its own key,
    # a negative unit value once at the item.
    for kind, quantity_key, unit_key in (
        ("productivity", "freed_hours_per_year", "loaded_cost_per_hour"),
        ("error_reduction", "errors_avoided_per_year", "cost_per_error"),
    ):
        for fields, expected in (
            ({quantity_key: "x", unit_key: 5.0}, (
                f"error: benefits[0] (b).{quantity_key}: "
                "expected a number or distribution object, got 'x'"
            )),
            ({quantity_key: 100, unit_key: -1}, f"error: benefits[0] (b): {unit_key} must be >= 0"),
        ):
            data = minimal_config()
            data["benefits"] = [{"id": "b", "kind": kind, **fields}]
            config, diagnostics = load_data(tmp_path, data)
            assert config is None
            assert [str(d) for d in diagnostics] == [expected]


def test_triangular_ordering_rejected(tmp_path):
    data = minimal_config()
    data["risks"][0]["sle"] = {"kind": "triangular", "lo": 3, "mode": 2, "hi": 1}
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("lo <= mode <= hi" in m for m in error_messages(diagnostics))


def test_out_of_range_maintenance_is_only_a_warning(tmp_path):
    data = minimal_config()
    data["costs"]["rules"]["maintenance_rate"] = 0.30
    config, diagnostics = load_data(tmp_path, data)
    assert config is not None
    assert not has_errors(diagnostics)
    assert any("0.15-0.25" in m for m in warning_messages(diagnostics))


def test_multi_currency_rejected(tmp_path):
    data = minimal_config(currency=["EUR", "USD"])
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("currency" in m for m in error_messages(diagnostics))


def test_unknown_penalty_tier(tmp_path):
    data = minimal_config()
    data["penalties"] = {
        "global_turnover": 1e9,
        "scenarios": [
            {
                "id": "p",
                "tier": "minor_infraction",
                "severity_fraction": 0.5,
                "violation_rate": 0.1,
            }
        ],
    }
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("minor_infraction" in m for m in error_messages(diagnostics))


def test_penalty_entries_read_like_every_section(tmp_path):
    data = minimal_config()
    data["penalties"] = {"global_turnover": 1e9, "scenarios": ["x", {"id": "p1", "tier": "nope"}]}
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert error_messages(diagnostics) == [
        "error: penalties.scenarios: every scenarios entry must be an object",
        "error: penalties.scenarios[1] (p1): unknown tier 'nope'; expected one of "
        "['high_risk_violation', 'information_failure', 'prohibited_practice']",
    ]


def test_penalty_entries_read_behind_a_bad_turnover(tmp_path):
    # A missing or bad turnover is reported, and every entry is still read;
    # no scenario is built without a valid turnover.
    tier_error = (
        "error: penalties.scenarios[0] (p1): unknown tier 'nope'; expected one of "
        "['high_risk_violation', 'information_failure', 'prohibited_practice']"
    )
    valid_entry = {
        "id": "p2",
        "tier": "prohibited_practice",
        "severity_fraction": 0.01,
        "violation_rate": 0.1,
    }
    for turnover, turnover_error in (
        ({}, "error: penalties: missing required field 'global_turnover'"),
        (
            {"global_turnover": "x"},
            "error: penalties: field 'global_turnover' must be a finite number, got 'x'",
        ),
    ):
        data = minimal_config()
        data["penalties"] = {**turnover, "scenarios": [{"id": "p1", "tier": "nope"}, valid_entry]}
        config, diagnostics = load_data(tmp_path, data)
        assert config is None
        assert error_messages(diagnostics) == [turnover_error, tier_error]


def test_severity_fraction_outside_unit_interval(tmp_path):
    data = minimal_config()
    data["penalties"] = {
        "global_turnover": 1e9,
        "scenarios": [
            {
                "id": "p",
                "tier": "prohibited_practice",
                "severity_fraction": {"kind": "uniform", "lo": 0.0, "hi": 1.5},
                "violation_rate": 0.1,
            }
        ],
    }
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("[0, 1]" in m for m in error_messages(diagnostics))


def test_unparseable_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,\n  "name": oops}')
    config, diagnostics = load_config(path)
    assert config is None
    assert any("invalid JSON" in str(d) and ":2:" in d.location for d in diagnostics)


def test_missing_file_is_an_error(tmp_path):
    config, diagnostics = load_config(tmp_path / "absent.json")
    assert config is None
    assert has_errors(diagnostics)


def test_double_counting_warning(tmp_path):
    data = minimal_config()
    data["benefits"].append(
        {
            "id": "external",
            "kind": "risk_reduction_external",
            "annual_value": 5000,
        }
    )
    config, diagnostics = load_data(tmp_path, data)
    assert config is not None
    assert any("counted twice" in m for m in warning_messages(diagnostics))


def test_benefit_year_bounds_checked(tmp_path):
    data = minimal_config()
    data["benefits"][0]["end_year"] = 10
    config, diagnostics = load_data(tmp_path, data)
    assert config is None
    assert any("horizon" in m for m in error_messages(diagnostics))


# -- actuals ---------------------------------------------------------------------------


def actuals_payload(**record_overrides):
    record = {
        "period": {"year": 1, "quarter": 2},
        "benefits": {"automation": 15_000.0},
        "costs": {"run": 8_000.0},
        "losses": {"outage": {"events": 1, "total_loss": 4_000.0}},
    }
    record.update(record_overrides)
    return {"records": [record]}


def test_actuals_load_happy_path(tmp_path):
    config, _ = load_data(tmp_path, minimal_config())
    path = tmp_path / "actuals.json"
    path.write_text(json.dumps(actuals_payload()))
    records, diagnostics = load_actuals(path, config)
    assert not has_errors(diagnostics)
    assert len(records) == 1
    assert records[0].losses["outage"] == 4_000.0


def test_actuals_unknown_ids_listed(tmp_path):
    config, _ = load_data(tmp_path, minimal_config())
    path = tmp_path / "actuals.json"
    payload = actuals_payload(benefits={"automation": 1.0, "ghost": 2.0})
    path.write_text(json.dumps(payload))
    records, diagnostics = load_actuals(path, config)
    assert has_errors(diagnostics)
    assert any("ghost" in str(d) for d in diagnostics)


def test_actuals_empty_records_rejected(tmp_path):
    config, _ = load_data(tmp_path, minimal_config())
    path = tmp_path / "actuals.json"
    path.write_text(json.dumps({"records": []}))
    records, diagnostics = load_actuals(path, config)
    assert records == []
    assert has_errors(diagnostics)


# -- unknown fields ----------------------------------------------------------------------


def full_config(tmp_path, reference_config_path):
    """The reference portfolio plus every optional field, literal family and form."""
    data = json.loads(reference_config_path.read_text())
    arms = "arm,trials,successes\ntreatment,1000,120\ncontrol,1000,100\n"
    (tmp_path / "arms.csv").write_text(arms)
    data["benefits"] += [
        {
            "id": "direct-uplift",
            "kind": "revenue_uplift",
            "annual_value": {"kind": "uniform", "lo": 1000, "hi": 2000},
        },
        {
            "id": "csv-uplift",
            "kind": "revenue_uplift",
            "projection_margin": 0.1,
            "ab_test": {"csv": "arms.csv", "value_per_success": 10.0, "annual_volume": 1000},
        },
    ]
    data["costs"]["capex"][1]["amount"] = {"kind": "point", "value": 250000}
    data["costs"]["rules"]["reserve_carrying_rate"] = 0.0
    data["risks"].append(
        {
            "id": "shared-outage",
            "applies_to": "both",
            "sle": 5000,
            "frequency": {"kind": "point", "rate": 0.5},
        }
    )
    data["simulation"]["target_relative_se"] = 0.01
    return data


def full_actuals():
    return {
        "records": [
            {
                "period": {"year": 1, "quarter": 2},
                "benefits": {"claims-triage-automation": 142000.0},
                "costs": {"inference-compute": 47000.0},
                "losses": {"fraudulent-claims": {"events": 1, "total_loss": 65000.0}},
            }
        ]
    }


def key_paths(node, prefix=()):
    """The path of every object key of a JSON document, except the item ids of actuals."""
    if isinstance(node, dict):
        # The keys of an actuals record's item maps are ids, not fields.
        id_map = len(prefix) == 3 and prefix[0] == "records" and prefix[2] != "period"
        for key, child in node.items():
            if not id_map:
                yield prefix + (key,)
            yield from key_paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from key_paths(child, prefix + (index,))


def misspelled(data, path):
    """A copy of ``data`` with the key at ``path`` missing its middle letter."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    key = path[-1]
    middle = len(key) // 2
    typo = key[:middle] + key[middle + 1 :]
    node[typo] = node.pop(key)
    return data, typo


def test_full_config_and_actuals_have_no_diagnostics(
    tmp_path, reference_config, reference_config_path
):
    config, diagnostics = load_data(tmp_path, full_config(tmp_path, reference_config_path))
    assert config is not None
    assert [str(d) for d in diagnostics] == []
    path = tmp_path / "actuals.json"
    path.write_text(json.dumps(full_actuals()))
    records, diagnostics = load_actuals(path, reference_config)
    assert len(records) == 1
    assert [str(d) for d in diagnostics] == []


def test_each_misspelled_config_key_is_one_warning_naming_it(tmp_path, reference_config_path):
    # Every key of every config record, one at a time, with one letter dropped:
    # exactly one warning, which names the key that was meant.
    full = full_config(tmp_path, reference_config_path)
    failures = []
    for path in key_paths(full):
        data, typo = misspelled(full, path)
        _, diagnostics = load_data(tmp_path, data)
        warnings = warning_messages(diagnostics)
        expected = f"unknown field {typo!r} (did you mean {path[-1]!r}?)"
        if len(warnings) != 1 or not warnings[0].endswith(expected):
            failures.append((path, warnings))
    assert not failures, failures[:10]


def test_each_misspelled_actuals_key_is_one_warning_naming_it(tmp_path, reference_config):
    path = tmp_path / "actuals.json"
    failures = []
    for key_path in key_paths(full_actuals()):
        data, typo = misspelled(full_actuals(), key_path)
        path.write_text(json.dumps(data))
        _, diagnostics = load_actuals(path, reference_config)
        warnings = warning_messages(diagnostics)
        expected = f"unknown field {typo!r} (did you mean {key_path[-1]!r}?)"
        if len(warnings) != 1 or not warnings[0].endswith(expected):
            failures.append((key_path, warnings))
    assert not failures, failures


def test_unknown_field_warning_names_its_location(tmp_path, reference_config):
    path = tmp_path / "actuals.json"
    payload = full_actuals()
    payload["records"][0]["loses"] = {}
    payload["records"][0]["losses"]["fraudulent-claims"]["count"] = 1
    path.write_text(json.dumps(payload))
    records, diagnostics = load_actuals(path, reference_config)
    assert len(records) == 1
    assert [str(d) for d in diagnostics] == [
        "warning: records[0]: unknown field 'loses' (did you mean 'losses'?)",
        "warning: records[0].losses.fraudulent-claims: unknown field 'count'",
    ]


def test_null_reads_as_absent_only_where_it_did(tmp_path):
    # penalties and rules may be null; costs, simulation and a projection
    # margin, whose default depends on the phase, may not.
    for section, key, valid in (
        ((), "penalties", True),
        (("costs",), "rules", True),
        ((), "costs", False),
        ((), "simulation", False),
        (("simulation",), "target_relative_se", True),
        (("benefits", 1), "projection_margin", False),
    ):
        (tmp_path / "arms.csv").write_text("arm,trials,successes\ntreatment,9,2\ncontrol,9,1\n")
        data = minimal_config()
        data["benefits"].append(
            {
                "id": "uplift",
                "kind": "revenue_uplift",
                "ab_test": {"csv": "arms.csv", "value_per_success": 10.0, "annual_volume": 1000},
            }
        )
        node = data
        for part in section:
            node = node[part]
        node[key] = None
        config, diagnostics = load_data(tmp_path, data)
        assert (config is not None) == valid, (key, [str(d) for d in diagnostics])
        assert len(error_messages(diagnostics)) == (0 if valid else 1)


# -- A/B arm counts from CSV --------------------------------------------------------------


def csv_uplift_config(tmp_path, text, encoding="utf-8"):
    (tmp_path / "arms.csv").write_bytes(text.encode(encoding))
    data = minimal_config()
    data["benefits"].append(
        {
            "id": "uplift",
            "kind": "revenue_uplift",
            "projection_margin": 0.0,
            "ab_test": {"csv": "arms.csv", "value_per_success": 10.0, "annual_volume": 100000},
        }
    )
    return load_data(tmp_path, data)


def test_repeated_arm_row_is_one_error(tmp_path):
    config, diagnostics = csv_uplift_config(
        tmp_path, "arm,trials,successes\ntreatment,1000,120\ncontrol,1000,100\ntreatment,10,9\n"
    )
    assert config is None
    assert error_messages(diagnostics) == [
        f"error: benefits[1] (uplift).ab_test: arm 'treatment' appears twice in "
        f"{tmp_path / 'arms.csv'}"
    ]


def test_arm_csv_with_a_byte_order_mark_is_read(tmp_path):
    config, diagnostics = csv_uplift_config(
        tmp_path, "arm,trials,successes\ntreatment,1000,120\ncontrol,1000,100\n", "utf-8-sig"
    )
    assert [str(d) for d in diagnostics] == []
    assert config.portfolio.benefits[1].annual_value == Point(pytest.approx(20_000.0, rel=1e-9))
