"""End-to-end benchmark of ``recmarket run``: config in, report files out.

    python3 perfbench/run.py --workload desk_suite --seed 3 --seconds 32 --trace 0

Run from the root of a checkout. For ``--seconds`` it repeats the workload,
each repetition in a fresh process (``rep.py``) with a fresh, empty output
directory, then takes set-up-only samples until it has ``SETUP_SAMPLES``
set-up times. It hashes every file a repetition wrote and checks the hashes
against ``golden.json`` at the default seed, and at every seed that all
repetitions agree and that a traced repetition matches the untraced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (scenarios run), ``failed`` (scenarios that raised or whose
files differ) and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of one extra traced repetition with ``--trace 1``.
The line before it holds the details: environment, per-repetition samples
and hashes. ``README.md`` beside this file explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 3
MIN_REPS = 3
SETUP_SAMPLES = 7
REP_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    policies: tuple[str, ...]
    consumers: int
    items: int
    providers: int
    cycles: int
    days_per_cycle: int
    scenario_extra: str = ""
    behavior: str = ""
    emit: tuple[str, ...] = ()

    def config_text(self, seed: int) -> str:
        return (
            "[scenario]\n"
            f"seed = {seed}\n"
            "niche_genre = Horror\n"
            f"policies = {', '.join(self.policies)}\n"
            f"cycles = {self.cycles}\n"
            f"days_per_cycle = {self.days_per_cycle}\n"
            f"{self.scenario_extra}"
            "\n[behavior]\n"
            f"{self.behavior}"
            "\n[data]\n"
            "source = synthetic\n"
            f"consumers = {self.consumers}\n"
            f"items = {self.items}\n"
            f"providers = {self.providers}\n"
            "niche_fraction = 0.1\n"
        )


# Why each workload exists is written down in README.md.
WORKLOADS = {
    "desk_suite": Workload(
        policies=("baseline", "algorithm_specific", "cold_start", "user_ownership", "universal"),
        consumers=250, items=150, providers=10, cycles=3, days_per_cycle=4,
        scenario_extra="warmup_cycles = 1\n",
    ),
    "train_heavy": Workload(
        policies=("universal",),
        consumers=500, items=300, providers=20, cycles=6, days_per_cycle=1,
    ),
    "switch_churn": Workload(
        policies=("cold_start", "user_ownership"),
        consumers=500, items=300, providers=20, cycles=3, days_per_cycle=3,
        scenario_extra="warmup_cycles = 1\nswitch_timing = per_day\n",
        behavior="tau = 0.5\n",
        emit=("audit-log", "per-day"),
    ),
}

# Layer functions whose call count and cumulative time are reported.
TIMED = (
    "engine.prepare_state",
    "engine.train_cycle",
    "engine.run_day",
    "engine.evaluate_switches",
    "recommender.train",
    "portability.visible_items",
    "portability.record_click",
    "portability.on_switch",
    "portability.training_view",
    "behavior.update_utility",
    "behavior.maybe_switch",
)
DATASET = ("dataset.generate_synthetic", "dataset.build_preferences", "dataset.classify_providers")
SERVE_TIERS = {
    "Model": "model",
    "UserPopularity": "user_popularity",
    "GlobalPopularFallback": "global_fallback",
}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


def _tree_rss_bytes(root_pid: int) -> int:
    """Resident memory of a process and all its descendants, from /proc."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent_of.items():
            if ppid in tree and pid not in tree:
                tree.add(pid)
                grew = True
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in tree:
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * page
        except OSError:
            continue
    return total


def run_rep(workload: str, config: Path, rep_dir: Path, mode: str, trace: int) -> dict:
    """Run rep.py once; return its result plus exit status, CPU and peak RSS."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--root", str(ROOT), "--config", str(config),
        "--out", str(out), "--result", str(result_path), "--mode", mode,
        "--trace", str(trace),
    ]
    for artifact in WORKLOADS[workload].emit:
        cmd += ["--emit", artifact]
    with open(rep_dir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
    # A scenario pool would run in child processes whose memory ru_maxrss
    # of the waited-for process does not add up, so sample the whole tree.
    sampled = [0]
    stop = threading.Event()
    deadline = time.monotonic() + REP_TIMEOUT_S

    def watch() -> None:
        while not stop.wait(0.25):
            sampled[0] = max(sampled[0], _tree_rss_bytes(proc.pid))
            if time.monotonic() > deadline:
                proc.kill()

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        stop.set()
        watcher.join()
    exit_code = proc.returncode
    rep = {"exit_code": exit_code}
    if exit_code == 0 and result_path.exists():
        rep = json.loads(result_path.read_text(encoding="utf-8"))
    else:
        rep["stderr"] = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
    rep["cpu_s"] = usage.ru_utime + usage.ru_stime
    rep["peak_rss_mb"] = max(usage.ru_maxrss * 1024, sampled[0]) / 2**20
    if mode == "run":
        rep["hashes"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
        }
        rep["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        rep["reports"] = {
            p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(out.glob("report_*.json"))
        }
        rep["audit_events"] = sum(
            sum(1 for _ in p.open("rb")) for p in out.glob("audit_*.jsonl")
        )
    return rep


# ---------------------------------------------------------------------------
# Checking outputs
# ---------------------------------------------------------------------------


def scenario_of(filename: str, scenarios: tuple[str, ...]) -> str | None:
    """The scenario a file belongs to, or None for files shared by the suite."""
    for name in scenarios:
        if filename in (f"report_{name}.json", f"audit_{name}.jsonl"):
            return name
    return None


def failed_scenarios(
    rep: dict, reference: dict[str, str] | None, scenarios: tuple[str, ...]
) -> set[str]:
    """Scenarios of a repetition that raised, or whose files differ from ``reference``."""
    if rep["exit_code"] != 0 or reference is None:
        return set(scenarios)
    failed: set[str] = set()
    for name in set(reference) | set(rep["hashes"]):
        if reference.get(name) != rep["hashes"].get(name):
            owner = scenario_of(name, scenarios)
            failed |= set(scenarios) if owner is None else {owner}
    return failed


def load_golden(workload: str) -> dict[str, str] | None:
    if not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[dict], setup_samples: list[float]) -> dict:
    ok = [r for r in reps if r["exit_code"] == 0]
    days = [_consumer_days(r) for r in ok]
    return {
        "wall_s": _metric(statistics.median(r["wall_s"] for r in ok), "s"),
        "consumer_days_per_s": _metric(
            statistics.median(d / (r["wall_s"] - r["setup_s"]) for d, r in zip(days, ok)),
            "1/s",
        ),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
    }


def _consumer_days(rep: dict) -> int:
    return sum(sum(r["provenance_counts"].values()) for r in rep["reports"].values())


def per_layer(traced: dict, untraced: list[dict]) -> dict:
    stats = traced["stats"]

    def stat(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    metrics: dict[str, dict] = {}
    for name in DATASET:
        metrics[f"{name}.s"] = _metric(stat(name, "s"), "s")
    for name in TIMED:
        metrics[f"{name}.s"] = _metric(stat(name, "s"), "s")
        metrics[f"{name}.calls"] = _metric(stat(name, "calls"), "count")
    metrics["engine.run_day.self_s"] = _metric(stat("engine.run_day", "self_s"), "s")
    day_ms = [(end - start) * 1e3 for _i, _p, name, start, end in traced["spans"]
              if name == "engine.run_day"]
    p99 = day_ms[0]
    if len(day_ms) > 1:
        p99 = statistics.quantiles(day_ms, n=100, method="inclusive")[98]
    metrics["engine.run_day.p50_ms"] = _metric(statistics.median(day_ms), "ms")
    metrics["engine.run_day.p99_ms"] = _metric(p99, "ms")

    reports = traced["reports"].values()
    serves = {tier: 0 for tier in SERVE_TIERS.values()}
    for report in reports:
        for tier, n in report["provenance_counts"].items():
            serves[SERVE_TIERS[tier]] += n
    for tier, n in serves.items():
        metrics[f"engine.serves.{tier}"] = _metric(n, "count")
    metrics["engine.clicks"] = _metric(sum(r["total_clicks"] for r in reports), "count")
    metrics["engine.switches"] = _metric(
        sum(sum(r["switch_totals"].values()) for r in reports), "count"
    )
    metrics["engine.consumer_days"] = _metric(_consumer_days(traced), "count")

    train = traced["train"]
    metrics["recommender.train.rows"] = _metric(train["rows"], "count")
    metrics["recommender.train.interactions"] = _metric(train["interactions"], "count")
    metrics["recommender.train.distinct_ratio"] = _metric(train["distinct_ratio"], "ratio")
    metrics["portability.audit_events"] = _metric(traced["audit_events"], "count")
    metrics["cli.emit.self_s"] = _metric(stat("cli.emit", "self_s"), "s")
    metrics["cli.bytes_written"] = _metric(traced["bytes_written"], "bytes")
    ok = [r for r in untraced if r["exit_code"] == 0]
    metrics["process.cpu_s"] = _metric(statistics.median(r["cpu_s"] for r in ok), "s")
    metrics["trace.overhead_s"] = _metric(
        traced["wall_s"] - statistics.median(r["wall_s"] for r in ok), "s"
    )
    metrics["trace.unaccounted_share"] = _metric(traced["unaccounted_share"], "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="recmarket end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden", action="store_true",
        help="store this run's hashes as the golden ones (default seed only)",
    )
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running repetition is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "recmarket" / "__init__.py").is_file():
        sys.stderr.write(f"error: {ROOT} holds no src/recmarket package to benchmark\n")
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        sys.stderr.write(f"error: golden hashes are recorded at seed {DEFAULT_SEED} only\n")
        return 2
    workload = WORKLOADS[args.workload]
    scenarios = workload.policies
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        golden = load_golden(args.workload)
        if golden is None:
            sys.stderr.write(f"error: no golden hashes for {args.workload} in {GOLDEN}\n")
            return 2

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "experiment.ini"
    config.write_text(workload.config_text(args.seed), encoding="utf-8")

    def rep(k: int, mode: str = "run", trace: int = 0) -> dict:
        rep_dir = run_dir / f"{mode}{k}{'-traced' if trace else ''}"
        result = run_rep(args.workload, config, rep_dir, mode, trace)
        shutil.rmtree(rep_dir / "out")
        return result

    start = time.monotonic()
    reps: list[dict] = []
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        reps.append(rep(len(reps)))
    setup_samples = [r["setup_s"] for r in reps if r["exit_code"] == 0]
    while len(setup_samples) < SETUP_SAMPLES:
        probe = rep(len(setup_samples), mode="setup")
        if probe["exit_code"] != 0:
            break
        setup_samples.append(probe["setup_s"])
    traced = rep(0, trace=1) if args.trace else None

    # Without golden hashes (other seeds, or while recording them) every
    # repetition must match the first one.
    reference = golden
    if reference is None and reps[0]["exit_code"] == 0:
        reference = reps[0]["hashes"]
    checked = reps + ([traced] if traced else [])
    failures = [failed_scenarios(r, reference, scenarios) for r in checked]
    failed = sum(len(f) for f in failures)
    attempted = len(scenarios) * len(checked)
    all_ran = all(r["exit_code"] == 0 for r in reps) and (not traced or traced["exit_code"] == 0)

    if args.record_golden and failed == 0:
        table = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        table[args.workload] = reference
        GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    metrics: dict = {}
    if all_ran:
        metrics = per_layer(traced, reps) if traced else end_to_end(reps, setup_samples)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "env": next((r["env"] for r in reps if "env" in r), None),
        "config": workload.config_text(args.seed),
        "elapsed_s": time.monotonic() - start,
        "reps": [
            {k: r.get(k) for k in ("exit_code", "wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
            for r in reps
        ],
        "setup_samples": setup_samples,
        "golden_checked": golden is not None,
        "hashes": reference,
        "failed_by_rep": [sorted(f) for f in failures],
        "errors": [r["stderr"] for r in checked if "stderr" in r],
    }
    (run_dir / "details.json").write_text(json.dumps(details, indent=2), encoding="utf-8")
    if traced:
        (run_dir / "spans.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and all_ran,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
