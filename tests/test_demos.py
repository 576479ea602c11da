"""Run the quick demos end to end, so an API change that breaks one fails here."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_layouts_and_topology.py",
    "02_synthetic_data.py",
    "03_model_forward.py",
    "04_training_and_ensembles.py",
    "05_learned_topology.py",
    "06_cost_accounting.py",
])
def test_demo_runs(name, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demos write under tempfile's dir
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    # a demo removes the temporary directory it wrote into
    assert list(tmp_path.glob("dyngcn-demo-*")) == []
