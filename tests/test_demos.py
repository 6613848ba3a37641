"""Every demo script runs to completion and prints something."""

import pathlib
import runpy
import tempfile

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demos that write files put them under tempfile's directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
