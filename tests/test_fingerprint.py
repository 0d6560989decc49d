"""tools/fingerprint.py, the byte-identity check between two checkouts."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
LINE = re.compile(r"(\S+) (\S+) (\S+) (\d+) ([0-9a-f]{64}) ([0-9a-f]{64})")


def _load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_prints_one_line_per_run_and_a_total(capsys):
    tool = _load_tool()
    assert tool.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = tool.plan(quick=True)
    assert len(lines) == len(runs) + 1
    for line, (bench, est, config, _, seed) in zip(lines, runs):
        match = LINE.fullmatch(line)
        assert match, line
        assert match.groups()[:4] == (bench, est, config, str(seed))
    assert re.fullmatch(r"total [0-9a-f]{64}", lines[-1])
    # the full set covers every estimator and config on each benchmark
    assert len(tool.plan(quick=False)) == 98
