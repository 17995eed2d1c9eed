"""Smoke tests of the scripts under scripts/, run in-process."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, expected", [
    ("reproduce_reference_results.py", "T     = 0.8895"),
    ("validate_pipeline.py", "all checks passed"),
])
def test_script_runs(script, expected, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script])
    assert main() == 0
    assert expected in capsys.readouterr().out
