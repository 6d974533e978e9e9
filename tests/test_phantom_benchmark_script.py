"""Smoke test of the phantom ladder script, scripts/run_phantom_benchmark.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_phantom_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_phantom_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_straight_case_prints_both_methods(tmp_path, capsys):
    script = load_script()
    assert script.main(["--out", str(tmp_path), "--cases", "straight", "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == script.HEADER
    rows = [line.split() for line in lines[2:]]
    assert [row[:2] for row in rows] == [["straight", "baseline"], ["straight", "proposed"]]
    for row in rows:
        precision, recall = float(row[2]), float(row[3])
        assert 0.0 <= precision <= 100.0 and 0.0 <= recall <= 100.0
    assert float(rows[1][3]) >= 90.0     # the proposed route follows the straight tube
    for method in ("baseline", "proposed"):
        assert (tmp_path / "straight" / method).is_dir()
    assert (tmp_path / "straight" / "gt.poly").is_file()
