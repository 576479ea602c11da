"""Run the quick demos end to end, so an API change that breaks one fails here."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_layouts_and_topology.py",
    "03_model_forward.py",
    "06_cost_accounting.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
