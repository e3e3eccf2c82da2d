"""The README's examples run as written."""

import os
import re
import subprocess
import sys

from airoi.cli import EXIT_OK, main
from airoi.config import load_config
from conftest import REFERENCE_CONFIG, REPO_ROOT


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README section ``heading``."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"## {heading}", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match is not None, f"README {heading!r} has no {language} block"
    return match.group(1)


def test_readme_library_use_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", readme_block("Library use", "python")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_readme_configuration_example_has_no_diagnostics(tmp_path):
    # The example is plain JSON under a jsonc fence; every key it shows is read.
    path = tmp_path / "config.json"
    path.write_text(readme_block("Configuration file", "jsonc"), encoding="utf-8")
    config, diagnostics = load_config(path)
    assert config is not None
    assert [str(d) for d in diagnostics] == []


def test_readme_actuals_example_tracks_the_reference_portfolio(tmp_path, capsys):
    path = tmp_path / "actuals.json"
    path.write_text(readme_block("Actuals file", "json"), encoding="utf-8")
    code = main(["track", str(REFERENCE_CONFIG), str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
