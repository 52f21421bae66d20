"""Compare two checkouts on one benchmark workload in alternating pairs.

    python scripts/ab_bench.py PARENT CHANGE --workload switch_churn \\
        --seeds 3 --pairs 10 --seconds 8

Each pair runs ``perfbench/run.py`` once in each checkout, at the same seed
and ``--seconds``; which side runs first alternates from pair to pair, so a
drift in host speed does not favour one side. Every run is untraced and
uses the benchmark exactly as that checkout has it, but the metric list is
read from the parent's ``BENCHMARK.json``; so before the first pair it
prints each file under ``perfbench/``, and ``BENCHMARK.json``, whose sha256
differs between the checkouts, as ``differs: <path>``. A ratio over such a
difference compares two benchmarks. It prints ``differs: git`` when only
one checkout holds ``.git``: ``run.py`` reads the commit only where it is,
and that alone moves ``peak_rss_mb``. It also runs
``python -m compileall -q src`` in both checkouts: the benchmark times
``import recmarket``, so stale bytecode on one side would read as a slower
set-up there.

For each seed and each end-to-end metric of ``BENCHMARK.json`` it prints the
median of both sides, the interquartile range of the parent's runs, the
ratio change/parent and the pairs the change won (ties count for neither),
and these labels:

- ``gain`` when the change won at least nine tenths of the pairs by more
  than the parent's interquartile range in the median;
- ``worse`` when the change's median is worse than the parent's by more
  than the metric's ``bound``, relative to the parent's median;
- ``unresolved`` when the parent's interquartile range, relative to its
  median, is wider than the ``bound``, unless every change run beats every
  parent run: such a spread hides a regression of the bound's size.

It also prints the scenarios each side ``failed`` over all its runs, and
before that each side's environment as ``run.py``'s details line gives it
(python, numpy, BLAS, ``OPENBLAS_NUM_THREADS`` and nproc), with
``differs: env`` when the sides ran in different ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last output line, parsed, with the
    ``env`` of the details line before it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2]).get("env") if len(lines) > 1 else None
    return result


def benchmark_digests(checkout: Path) -> dict[str, str]:
    """sha256 of ``BENCHMARK.json`` and of each file under ``perfbench/``
    but bytecode, by path relative to ``checkout``."""
    files = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    return {
        path.relative_to(checkout).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
        if path.is_file() and "__pycache__" not in path.parts
    }


def differing_files(parent: Path, change: Path) -> list[str]:
    """The benchmark's files that differ between the checkouts or that only
    one of them has."""
    ours, theirs = benchmark_digests(parent), benchmark_digests(change)
    return sorted(name for name in ours | theirs if ours.get(name) != theirs.get(name))


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def environment_lines(runs: dict[str, list[dict]]) -> list[str]:
    """Each environment a side ran in, and ``differs: env`` when the sides'
    differ: a ratio across two environments measures them too."""
    envs = {
        side: sorted({json.dumps(r.get("env")) for r in side_runs})
        for side, side_runs in runs.items()
    }
    lines = []
    for side, side_envs in envs.items():
        for env in map(json.loads, side_envs):
            described = ", ".join(f"{k} {v}" for k, v in (env or {}).items())
            lines.append(f"env {side}: {described or 'unknown'}")
    if envs["parent"] != envs["change"]:
        lines.append("differs: env")
    return lines


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    lines = [f"{'metric':<22}{'parent':>12}{'change':>12}{'parent IQR':>12}"
             f"{'ratio':>8}{'won':>8}"]
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {
            side: [r["metrics"].get(name, {}).get("value") for r in side_runs]
            for side, side_runs in runs.items()
        }
        complete = [(p, c) for p, c in zip(values["parent"], values["change"])
                    if p is not None and c is not None]
        if not complete:
            lines.append(f"{name:<22}  no complete pair")
            continue
        parent = [p for p, _c in complete]
        change = [c for _p, c in complete]
        med_p, med_c = statistics.median(parent), statistics.median(change)
        spread = quartile_spread(parent)
        won = sum((c > p) if higher else (c < p) for p, c in complete)
        pairs = len(complete)
        better = med_c - med_p if higher else med_p - med_c
        labels = []
        if won >= 0.9 * pairs and better > spread:
            labels.append("gain")
        bound = metric.get("bound")
        if bound is not None:
            if -better > bound * abs(med_p):
                labels.append("worse")
            beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
            if spread > bound * abs(med_p) and not beats_all:
                labels.append("unresolved")
        lines.append(
            f"{name:<22}{med_p:>12.4g}{med_c:>12.4g}{spread:>12.3g}"
            f"{med_c / med_p:>8.3f}{won:>5}/{pairs:<2}{''.join(f'  {x}' for x in labels)}"
        )
    failed = {side: sum(r["failed"] for r in side_runs) for side, side_runs in runs.items()}
    attempted = {side: sum(r["attempted"] for r in side_runs) for side, side_runs in runs.items()}
    lines.append(
        f"failed: parent {failed['parent']}/{attempted['parent']}, "
        f"change {failed['change']}/{attempted['change']}"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[3])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} holds no perfbench/run.py")
    for name in differing_files(sides["parent"], sides["change"]):
        print(f"differs: {name}", flush=True)
    if len({(checkout / ".git").exists() for checkout in sides.values()}) > 1:
        print("differs: git", flush=True)
    metrics = json.loads((sides["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    for checkout in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)

    for seed in args.seeds:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        print(f"{args.workload}, seed {seed}, {args.pairs} pairs of {args.seconds:g} s runs")
        print("\n".join(environment_lines(runs) + summarize(metrics, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
