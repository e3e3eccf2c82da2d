"""The same bytes at every numpy CPU dispatch level.

numpy picks its SIMD loops (sums, sorts, ``exp``) by CPU feature when it is
imported, and ``NPY_DISABLE_CPU_FEATURES`` turns features off in the process
that reads it.  With AVX-512 off, and then AVX2 too, a child must write the
golden 10^4 ``simulate`` body and give every summary of the certified-sum
differential cases as this process does.
"""

import json
import os
import subprocess
import sys

import pytest

from airoi.engine import summarize
from conftest import GOLDEN_DIR, REFERENCE_CONFIG, REPO_ROOT
from test_certified_sums import summary_cases

AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
LEVELS = {"no AVX-512": AVX512, "no AVX2": AVX512 + ("X86_V3",)}

CHILD = """
import json, sys
from airoi import cli
from test_certified_sums import summary_cases
from test_dispatch import summaries

code = cli.main(["simulate", sys.argv[1], "--workers", "1", "--out", sys.argv[2]])
print(json.dumps({"code": code, "summaries": summaries(summary_cases())}))
"""


def summaries(cases) -> list[str]:
    """``repr`` of each case's summary, or of the error it raises."""
    reprs = []
    for values in cases:
        try:
            reprs.append(repr(summarize(values)))
        except (ValueError, OverflowError) as error:
            reprs.append(repr(error))
    return reprs


def _dispatched() -> set[str]:
    """The CPU features numpy dispatches to on this host and could turn off."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    baseline = set(umath.__cpu_baseline__)
    return {name for name, on in umath.__cpu_features__.items() if on and name not in baseline}


@pytest.mark.parametrize("level", LEVELS)
def test_golden_report_and_summaries_at_reduced_dispatch(level, tmp_path):
    disabled = [name for name in LEVELS[level] if name in _dispatched()]
    if not disabled or LEVELS[level][-1] not in disabled:
        pytest.skip(f"numpy reports {LEVELS[level][-1]} absent: nothing to turn off")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), env.get("PYTHONPATH")])
    )
    report = tmp_path / "simulation.json"
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, str(REFERENCE_CONFIG), str(report)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    child = json.loads(completed.stdout)
    assert child["code"] == 0
    golden = json.loads((GOLDEN_DIR / "reference_simulation_seed42_10k.json").read_text())
    written = json.loads(report.read_text())
    assert written["body"] == golden["body"]
    assert written["body_sha256"] == golden["body_sha256"]
    assert child["summaries"] == summaries(summary_cases())
