"""tools/gate_margins.py, the pass rate of each accuracy gate over run
seeds; only its cheapest gate at the shipped seeds runs here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gate_margins.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("gate_margins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_offset_reproduces_the_gate(capsys):
    # criterion 2's mc statistic at k = 0 is the acceptance line's max |z|
    tool = _load_tool()
    assert tool.main(["--offsets", "1", "--gate", "criterion_2_mc"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("criterion_2_mc ")
    assert "shipped 1.744, median 1.744" in line
    assert line.endswith("passes 1 of 1")
    assert len({g.name for g in tool.GATES}) == len(tool.GATES) == 8
