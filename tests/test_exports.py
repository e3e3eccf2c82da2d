"""The package exports every name it always has, each loaded on first use.

``airoi`` resolves its names lazily (PEP 562).  Each must be the very
object its defining module holds, and the modules that used to define the
quantities and the model still hold them under the same names.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import airoi
from conftest import REFERENCE_CONFIG, REPO_ROOT

# Every name the package exported when it imported its modules eagerly,
# by the module that exported it then.
FORMER_EXPORTS = {
    "benefits": "AbTestResult BenefitItem UpliftEstimate apply_projection_margin "
    "benefit_schedule uplift_estimate",
    "costs": "CapexItem CostRules CostSchedule OpexItem amortize_capex maintenance_opex "
    "reserve_requirement tco",
    "distributions": "FrequencyModel Lognormal Pert Point PointRate PoissonRate RngStream "
    "Triangular Uniform UncertainQuantity mean percentile sample validate",
    "engine": "IterationOutcome Portfolio SampleSummary SimulationConfig SimulationResult "
    "analytic_evaluate run_simulation standard_error summarize",
    "risk": "PENALTY_TIERS PenaltyTier RiskRegister RiskScenario ale_analytic ale_simulate "
    "classify_scenario penalty_magnitude penalty_scenario risk_delta",
    "valuation": "DiscountSpec ValuationOutcome ValuationReport build_report evaluate_outcome "
    "irr npv payback_period risk_adjusted_net",
}
NAMES = {name: module for module, names in FORMER_EXPORTS.items() for name in names.split()}

# Names that moved to a numpy-free module and are still read from their old one.
MOVED = {
    "quantities": (
        "distributions",
        "FrequencyModel Lognormal Pert Point PointRate PoissonRate Triangular Uniform "
        "UncertainQuantity mean percentile validate SEED_LIMIT MAX_EVENT_RATE stream_words "
        "support scaled is_degenerate degenerate_value frequency_mean validate_frequency",
    ),
    "model": (
        "engine",
        "Portfolio SimulationConfig ENGINE_METRICS MAX_ITERATIONS MAX_HORIZON_YEARS "
        "validate_portfolio validate_simulation",
    ),
    "assembly": (
        "engine",
        "IterationOutcome analytic_evaluate benefit_stream_key capex_stream_key "
        "opex_stream_key risk_stream_key _streams",
    ),
}

# The names that value one row, which a fresh interpreter resolves and runs
# without loading numpy.
ONE_ROW = (
    "analytic_evaluate IterationOutcome DiscountSpec ValuationOutcome npv irr payback_period "
    "risk_adjusted_net evaluate_outcome"
)


def module(name: str):
    return importlib.import_module(f"airoi.{name}")


def test_every_former_export_resolves_to_its_module_object():
    for name, former in NAMES.items():
        value = getattr(airoi, name)
        assert value is getattr(module(former), name), name
        home = getattr(value, "__module__", "")
        if home.startswith("airoi."):  # a class or function: defined where it says
            assert value is vars(importlib.import_module(home))[name], name


def test_moved_names_stay_importable_from_their_former_module():
    for home, (former, names) in MOVED.items():
        for name in names.split():
            assert getattr(module(former), name) is vars(module(home))[name], name


def test_the_package_lists_its_names_and_rejects_others():
    assert set(NAMES) <= set(dir(airoi))
    assert set(airoi.__all__) == set(NAMES)
    namespace = {}
    exec("from airoi import *", namespace)
    assert all(namespace[name] is getattr(airoi, name) for name in NAMES)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        airoi.not_a_name
    assert airoi.__version__ == "0.1.0"


def test_the_one_row_names_resolve_and_run_without_numpy():
    code = (
        "import json, sys\n"
        "import airoi\n"
        "from airoi.config import load_config\n"
        "names = {name: getattr(airoi, name) for name in sys.argv[2].split()}\n"
        "portfolio = load_config(sys.argv[1])[0].portfolio\n"
        "outcome = airoi.analytic_evaluate(portfolio)\n"
        "valued = airoi.evaluate_outcome(outcome, airoi.DiscountSpec(portfolio.discount_rate))\n"
        "flows = outcome.cash_basis_flows\n"
        "assert isinstance(outcome, airoi.IterationOutcome)\n"
        "assert isinstance(valued, airoi.ValuationOutcome)\n"
        "assert valued.irr == airoi.irr(flows)\n"
        "assert valued.payback_years == airoi.payback_period(flows)\n"
        "assert valued.npv == airoi.npv(outcome.cash_flows, portfolio.discount_rate)\n"
        "assert valued.net_risk_adjusted_benefit == airoi.risk_adjusted_net(\n"
        "    outcome.gross_benefits, outcome.risk_reduction, outcome.risk_increase,\n"
        "    outcome.tco_total)\n"
        "print(json.dumps('numpy' in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(REFERENCE_CONFIG), ONE_ROW],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) is False
