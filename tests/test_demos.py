"""Run each script under demos/ in-process, as ``python3 demos/<name>.py`` would."""

import pathlib
import runpy
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_narrates(script, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(script)])  # the argparse demos see no options
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
