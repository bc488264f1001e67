"""The table scripts under scripts/: exit codes and outputs."""

import importlib.util
import pathlib
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOracleVsBound:
    def test_matching_table_exits_0_and_writes_witnesses(self, monkeypatch, tmp_path, capsys):
        script = _load("oracle_vs_bound")
        monkeypatch.setattr(sys, "argv", ["oracle_vs_bound.py", "6", str(tmp_path)])
        assert script.main() == 0
        assert "MISMATCH" not in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"witness_{n:02d}.svg" for n in range(1, 7)]

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        script = _load("oracle_vs_bound")
        bound = script.harborth_bound
        monkeypatch.setattr(script, "harborth_bound", lambda n: bound(n) + (n == 4))
        monkeypatch.setattr(sys, "argv", ["oracle_vs_bound.py", "6"])
        assert script.main() == 1
        out = capsys.readouterr().out
        assert out.count("MISMATCH") == 1 and "mismatches: 1" in out
