"""Smoke test: every demo script runs to completion as `__main__`, and so does
the README's library tour."""

import re
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # a demo that writes a file writes it here; none reads pytest's arguments
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_tour_runs():
    # the README's one fenced python block, with its asserts
    (tour,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    exec(compile(tour, "README.md", "exec"), {})
