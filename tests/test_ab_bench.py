"""``scripts/ab_bench.py`` names the benchmark files two checkouts differ in."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def checkout(path):
    """A copy of this checkout's benchmark: ``BENCHMARK.json`` and ``perfbench/``."""
    bytecode = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", path / "perfbench", ignore=bytecode)
    shutil.copy(ROOT / "BENCHMARK.json", path)
    return path


def test_copies_that_differ_in_one_file_name_that_file(tmp_path):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    assert ab_bench.differing_files(parent, change) == []
    with (change / "perfbench" / "rep.py").open("a") as f:
        f.write("# edited\n")
    # bytecode differs between any two checkouts and is not the benchmark
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "rep.pyc").write_bytes(b"\0")
    assert ab_bench.differing_files(parent, change) == ["perfbench/rep.py"]
    (parent / "BENCHMARK.json").unlink()
    assert ab_bench.differing_files(parent, change) == ["BENCHMARK.json", "perfbench/rep.py"]


def test_differences_are_printed_before_the_first_pair(tmp_path, monkeypatch, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    (change / "perfbench" / "golden.json").write_text("{}\n")
    runs = []

    def run_once(checkout, workload, seed, seconds):
        runs.append(capsys.readouterr().out)
        raise SystemExit(0)

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: None)
    with pytest.raises(SystemExit):
        ab_bench.main([str(parent), str(change), "--workload", "desk_suite", "--pairs", "1"])
    assert runs == ["differs: perfbench/golden.json\n"]
