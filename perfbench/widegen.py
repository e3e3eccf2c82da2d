"""Seeded generator of the synthetic ``wide`` portfolio.

The same seed gives the same config bytes.  The seed moves only parameter
values; the number of items, their kinds, distribution families and
frequency models depend on the item index alone, so every seed asks the
engine for the same number of substreams per iteration and the timed work
stays comparable across seeds.

Parameters and why each is chosen:

- ``HORIZON_YEARS = 10``: twice the reference horizon, so every NPV, IRR
  and payback evaluation walks longer cash-flow vectors.
- ``BENEFITS = 50``, ``CAPEX = 10``, ``OPEX = 10``: enough items that
  benefit and cost assembly costs more per iteration than valuation.
- ``SCENARIOS = 200``: the register dominates the substream count (about
  300 positioned risk states per iteration), which puts most of the run in
  draw+assemble, the opposite balance from ``reference``.
- Applicability cycles ``both, both, current_only, ai_only``, so all three
  classifications occur and ``both`` scenarios draw two states.
- Frequencies cycle through Poisson rates below 10, Poisson rates of 10 or
  more (numpy's other Poisson algorithm, a path a vectorized kernel may
  keep scalar), fractional point rates (Bernoulli thinning) and Poisson
  rates below 1.
- Severities and item values cycle through all five quantity families
  (point, uniform, triangular, PERT, lognormal) plus degenerate members
  (``lo == hi``, ``sigma == 0``) that consume no randomness.
- Benefits use the ``productivity``, ``error_reduction`` and
  ``revenue_uplift`` kinds only: ``risk_reduction_external`` next to a
  risk register draws the double-count warning, and ``validate`` must stay
  warning-free.
- Benefits erode on every other item; personnel opex alternates specialist
  premiums; the reserve uses the ``carrying_cost`` treatment; capex lands
  in years 0 to 3 so cash flows change sign more than once and the IRR
  grid-scan path runs.
- Cost rules are drawn inside the customary bands so no rate warns.

Run as a script to print a config: ``python3 perfbench/widegen.py --seed 7``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

HORIZON_YEARS = 10
BENEFITS = 50
CAPEX = 10
OPEX = 10
SCENARIOS = 200
ITERATIONS = 2000
WORKERS = 2

FAMILIES = ("point", "uniform", "triangular", "pert", "lognormal", "degenerate")
APPLIES_TO = ("both", "both", "current_only", "ai_only")
BENEFIT_KINDS = ("productivity", "error_reduction", "revenue_uplift")
CAPEX_CATEGORIES = ("development", "infrastructure", "licensing", "data", "other")
# One opex item per entry; "personnel" twice so one carries the specialist
# premium and one does not.
OPEX_CATEGORIES = (
    "compute",
    "data_pipeline",
    "monitoring",
    "retraining",
    "personnel",
    "compliance",
    "security",
    "insurance",
    "personnel",
    "other",
)


def _between(rng: random.Random, lo: float, hi: float, digits: int = 2) -> float:
    return round(lo + (hi - lo) * rng.random(), digits)


def _quantity(rng: random.Random, family: str, center: float, spread: float):
    """A distribution literal of ``family`` around ``center``."""
    if family == "point":
        return center
    if family == "degenerate":
        # Alternate the two degenerate spellings that still name a family.
        if rng.random() < 0.5:
            return {"kind": "uniform", "lo": center, "hi": center}
        return {"kind": "lognormal", "median": center, "sigma": 0.0}
    lo = round(center * (1.0 - spread), 2)
    hi = round(center * (1.0 + spread), 2)
    if family == "uniform":
        return {"kind": "uniform", "lo": lo, "hi": hi}
    if family == "lognormal":
        return {"kind": "lognormal", "median": center, "sigma": round(spread, 3)}
    mode = round(lo + (hi - lo) * _between(rng, 0.2, 0.6, 3), 2)
    return {"kind": family, "lo": lo, "mode": mode, "hi": hi}


def _frequency(rng: random.Random, index: int, scale: float = 1.0):
    slot = index % 4
    if slot == 0:
        return {"kind": "poisson", "rate": round(_between(rng, 0.5, 6.0) * scale, 3)}
    if slot == 1:
        return {"kind": "poisson", "rate": round(_between(rng, 10.0, 18.0) * max(scale, 0.7), 3)}
    if slot == 2:
        whole = index % 3
        return {"kind": "point", "rate": round(whole + _between(rng, 0.05, 0.95) * scale, 3)}
    return {"kind": "poisson", "rate": round(_between(rng, 0.05, 0.9) * scale, 3)}


def _benefit(rng: random.Random, index: int) -> dict:
    kind = BENEFIT_KINDS[index % len(BENEFIT_KINDS)]
    family = FAMILIES[index % len(FAMILIES)]
    spread = _between(rng, 0.1, 0.4, 3)
    start = index % 3
    item = {
        "id": f"benefit-{index:02d}",
        "kind": kind,
        "attribution_factor": _between(rng, 0.5, 1.0),
        "phase": "mature" if index % 2 else "early",
        "start_year": start,
        "end_year": HORIZON_YEARS - 1 - (index % 2),
    }
    if kind == "productivity":
        item["freed_hours_per_year"] = _quantity(rng, family, _between(rng, 500, 2500, 0), spread)
        item["loaded_cost_per_hour"] = _between(rng, 40, 90)
    elif kind == "error_reduction":
        item["errors_avoided_per_year"] = _quantity(rng, family, _between(rng, 50, 300, 0), spread)
        item["cost_per_error"] = _between(rng, 150, 500)
    else:
        item["annual_value"] = _quantity(rng, family, _between(rng, 40_000, 150_000, 0), spread)
    if index % 2 == 0:
        item["erosion_rate"] = _between(rng, 0.01, 0.08, 3)
    return item


def _capex(rng: random.Random, index: int) -> dict:
    family = FAMILIES[(index + 1) % len(FAMILIES)]
    return {
        "id": f"capex-{index:02d}",
        "amount": _quantity(rng, family, _between(rng, 800_000, 2_500_000, 0), _between(rng, 0.1, 0.3, 3)),
        "useful_life_years": 2 + index % 5,
        "incurred_year": index % 4,
        "category": CAPEX_CATEGORIES[index % len(CAPEX_CATEGORIES)],
    }


def _opex(rng: random.Random, index: int) -> dict:
    family = FAMILIES[(index + 2) % len(FAMILIES)]
    category = OPEX_CATEGORIES[index]
    item = {
        "id": f"opex-{index:02d}",
        "annual_amount": _quantity(rng, family, _between(rng, 40_000, 180_000, 0), _between(rng, 0.1, 0.3, 3)),
        "start_year": index % 2,
        "end_year": HORIZON_YEARS - 1,
        "category": category,
    }
    if category == "personnel":
        item["specialist"] = index % 2 == 0
    return item


def _scenario(rng: random.Random, index: int) -> dict:
    applies_to = APPLIES_TO[index % len(APPLIES_TO)]
    family = FAMILIES[(index // 4) % len(FAMILIES)]
    scenario = {
        "id": f"risk-{index:03d}",
        "applies_to": applies_to,
        "sle": _quantity(rng, family, _between(rng, 2_000, 20_000, 0), _between(rng, 0.2, 0.8, 3)),
    }
    # Shifting the frequency slot by one every four scenarios pairs every
    # applicability with every frequency model.
    slot = index + index // 4
    if applies_to in ("both", "current_only"):
        scenario["frequency_current"] = _frequency(rng, slot)
    if applies_to == "both":
        scenario["frequency_ai"] = _frequency(rng, slot, _between(rng, 0.3, 0.9))
    elif applies_to == "ai_only":
        scenario["frequency_ai"] = _frequency(rng, slot, 0.5)
    return scenario


def generate(seed: int) -> dict:
    """The wide portfolio for ``seed`` as a JSON-ready dict."""
    rng = random.Random(seed)
    return {
        "schema_version": 1,
        "name": f"wide synthetic portfolio (seed {seed})",
        "currency": "EUR",
        "horizon_years": HORIZON_YEARS,
        "discount_rate": _between(rng, 0.04, 0.12, 3),
        "benefits": [_benefit(rng, i) for i in range(BENEFITS)],
        "costs": {
            "capex": [_capex(rng, i) for i in range(CAPEX)],
            "opex": [_opex(rng, i) for i in range(OPEX)],
            "rules": {
                "maintenance_rate": _between(rng, 0.15, 0.25, 3),
                "reserve_rate": _between(rng, 0.10, 0.15, 3),
                "talent_premium_rate": _between(rng, 0.30, 0.50, 3),
                "reserve_treatment": "carrying_cost",
                "reserve_carrying_rate": _between(rng, 0.05, 0.10, 3),
            },
        },
        "risks": [_scenario(rng, i) for i in range(SCENARIOS)],
        "simulation": {"iterations": ITERATIONS, "master_seed": seed, "worker_count": WORKERS},
    }


def render(seed: int) -> bytes:
    """Config file bytes for ``seed``; identical for identical seeds."""
    return (json.dumps(generate(seed), indent=2) + "\n").encode("utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    sys.stdout.buffer.write(render(parser.parse_args().seed))
