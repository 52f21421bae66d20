"""``scripts/ab_bench.py`` names the benchmark files and the environments two
checkouts differ in."""

import importlib.util
import json
import shutil
import subprocess
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


@pytest.mark.parametrize("git", [(), ("parent",), ("change",), ("parent", "change")])
def test_a_git_clone_against_a_plain_copy_is_named(tmp_path, monkeypatch, capsys, git):
    # A plain copy reads a higher peak_rss_mb than a git clone of the same tree
    sides = {side: checkout(tmp_path / side) for side in ("parent", "change")}
    for side in git:
        (sides[side] / ".git").mkdir()

    def run_once(checkout, workload, seed, seconds):
        raise SystemExit(0)

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: None)
    with pytest.raises(SystemExit):
        ab_bench.main([*map(str, sides.values()), "--workload", "desk_suite", "--pairs", "1"])
    assert capsys.readouterr().out == ("differs: git\n" if len(git) == 1 else "")


def labels(better, bound, parent, change):
    """The labels ``summarize`` gives one metric over runs with these values."""
    metric = {"name": "m", "unit": "s", "better": better, "bound": bound}
    runs = {
        side: [{"metrics": {"m": {"value": v}}, "failed": 0, "attempted": 1} for v in values]
        for side, values in (("parent", parent), ("change", change))
    }
    header, line, failed = ab_bench.summarize([metric], runs)
    assert failed == "failed: parent 0/10, change 0/10"
    return line.split()[6:]


STEADY = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
WIDE = [1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6, 1.0, 1.6]  # IQR 0.6 on a median of 1.3


@pytest.mark.parametrize(
    "better, bound, parent, change, expected",
    [
        ("lower", 0.25, STEADY, [v * 1.1 for v in STEADY], []),
        ("lower", 0.25, STEADY, [v * 1.3 for v in STEADY], ["worse"]),
        ("lower", 0.05, STEADY, [v * 1.1 for v in STEADY], ["worse"]),
        ("higher", 0.25, STEADY, [v * 0.7 for v in STEADY], ["worse"]),
        ("higher", 0.25, STEADY, [v * 1.3 for v in STEADY], ["gain"]),
        ("lower", 0.25, STEADY, [v * 0.7 for v in STEADY], ["gain"]),
        ("lower", 0.25, WIDE, WIDE[::-1], ["unresolved"]),
        ("lower", 0.25, WIDE, [v * 1.5 for v in WIDE], ["worse", "unresolved"]),
        # every change run beats every parent run: the spread hides nothing
        ("lower", 0.25, WIDE, [v * 0.5 for v in STEADY], ["gain"]),
        ("higher", 0.25, WIDE, [v * 2 for v in STEADY], ["gain"]),
    ],
)
def test_summarize_labels(better, bound, parent, change, expected):
    assert labels(better, bound, parent, change) == expected


ENV = {
    "python": "3.11.7",
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31",
    "OPENBLAS_NUM_THREADS": None,
    "nproc": 2,
}


def test_a_run_carries_the_environment_of_its_details_line(monkeypatch, tmp_path):
    details = {"workload": "desk_suite", "env": ENV}
    result = {"correct": True, "attempted": 5, "failed": 0, "metrics": {}}
    stdout = f"{json.dumps(details)}\n{json.dumps(result)}\n"
    done = subprocess.CompletedProcess([], 0, stdout, "")
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: done)
    assert ab_bench.run_once(tmp_path, "desk_suite", 3, 1.0) == {**result, "env": ENV}


@pytest.mark.parametrize(
    "change_env, differs",
    [(ENV, False), ({**ENV, "OPENBLAS_NUM_THREADS": "1"}, True), ({**ENV, "nproc": 4}, True)],
)
def test_the_environments_are_printed_and_a_difference_named(change_env, differs):
    runs = {"parent": [{"env": ENV}] * 3, "change": [{"env": change_env}] * 3}
    lines = ab_bench.environment_lines(runs)
    assert lines[0] == (
        "env parent: python 3.11.7, numpy 2.4.6, blas scipy-openblas 0.3.31, "
        "OPENBLAS_NUM_THREADS None, nproc 2"
    )
    assert lines[1].startswith("env change: python 3.11.7")
    assert lines[2:] == (["differs: env"] if differs else [])


def test_the_environment_is_printed_before_the_summary(tmp_path, monkeypatch, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]}

    def run_once(checkout, workload, seed, seconds):
        threads = "2" if checkout == change.resolve() else "1"
        env = {**ENV, "OPENBLAS_NUM_THREADS": threads}
        return {"metrics": metrics, "failed": 0, "attempted": 1, "env": env}

    monkeypatch.setattr(ab_bench, "run_once", run_once)
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: None)
    ab_bench.main([str(parent), str(change), "--workload", "desk_suite", "--pairs", "2"])
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("env parent: ") and out[1].endswith("OPENBLAS_NUM_THREADS 1, nproc 2")
    assert out[2].startswith("env change: ") and out[2].endswith("OPENBLAS_NUM_THREADS 2, nproc 2")
    assert out[3] == "differs: env"
    assert out[4].startswith("metric")
