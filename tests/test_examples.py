"""Every example must run cleanly and print its headline output."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).parent.parent / "examples").glob("*.py")
)


#: Examples that write a file take its path as their first argument; the
#: test points it at a temporary directory so the committed copy stays put.
WRITES = {"visualize_benchmark": "lubt_prim1.svg"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch, tmp_path):
    argv = [str(path)]
    if path.stem in WRITES:
        argv.append(str(tmp_path / WRITES[path.stem]))
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"


def test_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3


def test_quickstart_output_mentions_cost(capsys, monkeypatch):
    path = Path(__file__).parent.parent / "examples" / "quickstart.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "minimum tree cost" in out
    assert "placements" in out


def test_feasibility_example_shows_infeasible(capsys, monkeypatch):
    path = Path(__file__).parent.parent / "examples" / "topology_feasibility.py"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert "no LUBT exists" in out
    assert "feasible" in out
