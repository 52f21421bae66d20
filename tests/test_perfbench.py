"""The benchmark's one-repetition runner works against this checkout.

``perfbench/rep.py`` wraps the layer functions it times by module and name,
and calls ``engine.prepare_state`` with keywords, so renaming either breaks
traced runs and set-up runs. The benchmark drops a set-up probe that fails
without counting a failure, so this test is where such a break shows. A
set-up probe must also time its work in the wrapped names: one data load,
and one ``prepare_state`` per scenario of the config.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[scenario]
seed = 5
niche_genre = Horror
policies = baseline, cold_start, user_ownership, universal
cycles = 3
days_per_cycle = 2
slate_size = 4
warmup_cycles = 1
switch_timing = per_day

[behavior]
tau = 0.5

[data]
source = synthetic
consumers = 25
items = 60
providers = 5
niche_fraction = 0.12
"""


@pytest.mark.parametrize("mode, trace", [("run", 1), ("setup", 0)])
def test_rep_exits_cleanly(tmp_path, mode, trace):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG)
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "rep.py"),
            "--root", str(ROOT),
            "--config", str(config),
            "--out", str(tmp_path / "out"),
            "--result", str(result),
            "--mode", mode,
            "--trace", str(trace),
            "--emit", "audit-log",
            "--emit", "per-day",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["exit_code"] == 0
    if mode == "setup":
        calls = {name: stat["calls"] for name, stat in report["stats"].items()}
        assert calls["engine.prepare_state"] == 4  # the config's policies
        assert calls["cli.load_data"] == 1
