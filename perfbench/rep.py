"""One repetition of a benchmark workload, in a fresh process.

``--mode run`` calls ``recmarket.cli.main(["run", ...])`` on a config and
an empty output directory. ``--mode setup`` does only the set-up part of a
run: config parse, data generation and ``engine.prepare_state`` for every
scenario. Either way the clock starts just before ``import recmarket``, so
work moved into import time still counts, and the package is imported from
the ``src`` directory of the checkout given by ``--root``.

The set-up functions are always timed (a handful of calls per run); the
other layers only with ``--trace 1``. Results go to the JSON file named by
``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

from layertrace import Tracer

SETUP_LAYERS = ("cli.parse_config", "cli.load_data", "engine.prepare_state")


def _install(tracer: Tracer, full: bool, train_calls: list) -> None:
    from recmarket import behavior, cli, dataset, engine, portability, recommender

    tracer.wrap(cli, "parse_config", "cli.parse_config", span=True)
    tracer.wrap(cli, "load_data", "cli.load_data", span=True)
    tracer.wrap(engine, "prepare_state", "engine.prepare_state", span=True)
    if not full:
        return

    def on_train(snapshot, config, seed, trained_at_cycle=0):
        # Digests are taken after the run, outside every timed interval.
        train_calls.append((snapshot, config, seed, trained_at_cycle))

    tracer.wrap(cli, "cmd_run", "cli.cmd_run", span=True)
    # Emission is whatever cmd_run does after the suite returns; the span
    # opened here is closed when cmd_run's own frame closes.
    tracer.wrap(
        engine,
        "run_experiment_suite",
        "engine.run_experiment_suite",
        span=True,
        on_return=lambda: tracer.begin("cli.emit", span=True),
    )
    tracer.wrap(dataset, "generate_synthetic", "dataset.generate_synthetic", span=True)
    tracer.wrap(engine, "classify_providers", "dataset.classify_providers")
    tracer.wrap(engine, "build_preferences", "dataset.build_preferences")
    for name in ("train_cycle", "run_day", "evaluate_switches"):
        tracer.wrap(engine, name, f"engine.{name}", span=True)
    tracer.wrap(recommender, "train", "recommender.train", on_call=on_train)
    for name in ("visible_items", "record_click", "on_switch", "training_view"):
        tracer.wrap(portability, name, f"portability.{name}")
    for name in ("update_utility", "maybe_switch"):
        tracer.wrap(behavior, name, f"behavior.{name}")


def _setup_only(config: Path, emit: list[str]) -> None:
    """The set-up part of ``cmd_run``, through the same public functions."""
    from recmarket import cli, engine
    from recmarket.portability import AuditTrail

    spec = cli.parse_config(config)
    data = cli.load_data(spec.source)
    for scenario in spec.scenarios:
        engine.prepare_state(
            scenario,
            data,
            audit=AuditTrail() if "audit-log" in emit else None,
            collect_day_rows="per-day" in emit,
        )


def _train_summary(train_calls: list) -> dict:
    keys = set()
    rows = interactions = 0
    for snapshot, config, seed, cycle in train_calls:
        view = sorted(snapshot.items())
        rows += len(view)
        interactions += sum(len(entries) for _c, entries in view)
        digest = hashlib.sha256(repr(view).encode()).hexdigest()
        keys.add((digest, repr(config), seed, cycle))
    calls = len(train_calls)
    return {
        "rows": rows,
        "interactions": interactions,
        "distinct_ratio": len(keys) / calls if calls else 1.0,
    }


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit", action="append", default=[])
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    if not (src / "recmarket" / "__init__.py").is_file():
        sys.stderr.write(f"no recmarket package under {src}\n")
        return 2
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import recmarket.cli

    import_s = time.perf_counter() - start
    if not Path(recmarket.cli.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"recmarket imported from {recmarket.cli.__file__}, not {src}\n")
        return 2

    tracer = Tracer()
    train_calls: list = []
    _install(tracer, full=bool(args.trace), train_calls=train_calls)
    depth = tracer.begin("run", span=True)
    try:
        if args.mode == "run":
            argv = ["run", "--config", str(args.config), "--out", str(args.out)]
            for artifact in args.emit:
                argv += ["--emit", artifact]
            exit_code = recmarket.cli.main(argv)
        else:
            _setup_only(args.config, args.emit)
            exit_code = 0
    finally:
        tracer.end(depth)
        tracer.restore()

    stats = tracer.stats
    result = {
        "exit_code": exit_code,
        "wall_s": import_s + stats["run"].total_s,
        "setup_s": import_s + sum(stats[n].total_s for n in SETUP_LAYERS if n in stats),
        "env": _environment(),
        "stats": {
            name: {"calls": s.calls, "s": s.total_s, "self_s": s.self_s}
            for name, s in sorted(stats.items())
        },
    }
    if args.trace:
        result["unaccounted_share"] = tracer.unaccounted_share("run")
        result["train"] = _train_summary(train_calls)
        result["spans"] = [
            [s.span_id, s.parent_id, s.name, s.start, s.end] for s in tracer.spans
        ]
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
