"""Command-line entry point.

Thin shell over the library: ``run`` executes an experiment suite from a
config file and writes CSV reports, ``compare`` joins previously written
scenario reports against the baseline, and ``synth`` emits a synthetic
dataset to files. Exit codes: 0 success, 1 validation error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from collections import defaultdict
from dataclasses import MISSING, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import dataset, engine
from .behavior import BehaviorParams
from .dataset import SyntheticSpec
from .engine import ScenarioConfig, SwitchTiming
from .errors import ConfigError, DataError, RecmarketError
from .portability import AuditTrail, PortabilityPolicy
from .recommender import RecommenderConfig

POLICY_NAMES = ["baseline"] + [p.value for p in PortabilityPolicy]

EMIT_CHOICES = ("audit-log", "model-dump", "per-day")

# A comment starts with '#' at the start of a line or after whitespace, so a
# value such as a data path may itself contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class FileSource:
    """A population read from a ratings, an items and a providers file."""

    ratings: str
    items_file: str
    providers_file: str
    fmt: str = "csv"


@dataclass(frozen=True)
class ExperimentSpec:
    scenarios: tuple[ScenarioConfig, ...]
    source: SyntheticSpec | FileSource


# [data] source = name -> the dataclass its other [data] keys fill
_SOURCES: dict[str, type] = {"synthetic": SyntheticSpec, "files": FileSource}


def _one_of(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"{text!r} is not one of {', '.join(allowed)}")
        return text

    return parse


def _policy_names(text: str) -> tuple[str, ...]:
    names = tuple(_one_of(*POLICY_NAMES)(p.strip()) for p in text.split(",") if p.strip())
    if not names:
        raise ValueError("no policy given")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"{', '.join(repeated)} named more than once")
    return names


# Every config key: [section] key -> (owner dataclass, its field, parser of the
# text). A key missing from the file takes the field's dataclass default, and
# one whose field has none is required. Owner None marks a choice: `policies`
# picks scenarios of the standard suite in the order it names them (all by
# default), and `source` picks the data source whose keys apply.
_KEYS: dict[tuple[str, str], tuple[type | None, str, Callable[[str], object]]] = {
    ("scenario", "seed"): (ScenarioConfig, "seed", int),
    ("scenario", "niche_genre"): (ScenarioConfig, "niche_genre", str),
    ("scenario", "policies"): (None, "policies", _policy_names),
    ("scenario", "cycles"): (ScenarioConfig, "cycles", int),
    ("scenario", "days_per_cycle"): (ScenarioConfig, "days_per_cycle", int),
    ("scenario", "slate_size"): (ScenarioConfig, "slate_size", int),
    ("scenario", "warmup_cycles"): (ScenarioConfig, "warmup_cycles", int),
    ("scenario", "switch_timing"): (ScenarioConfig, "switch_timing", SwitchTiming),
    ("scenario", "history_threshold"): (ScenarioConfig, "history_threshold", float),
    ("behavior", "beta"): (BehaviorParams, "recency_bias", float),
    ("behavior", "tau"): (BehaviorParams, "satisfaction_threshold", float),
    ("behavior", "select_threshold"): (BehaviorParams, "select_threshold", float),
    ("recommenders", "latent_factors"): (RecommenderConfig, "latent_factors", int),
    ("recommenders", "epochs"): (RecommenderConfig, "epochs", int),
    ("recommenders", "regularization"): (RecommenderConfig, "regularization", float),
    ("recommenders", "confidence_weight"): (RecommenderConfig, "confidence_weight", float),
    ("recommenders", "popular_list_size"): (RecommenderConfig, "popular_list_size", int),
    ("data", "source"): (None, "source", _one_of(*_SOURCES)),
    ("data", "consumers"): (SyntheticSpec, "consumers", int),
    ("data", "items"): (SyntheticSpec, "items", int),
    ("data", "providers"): (SyntheticSpec, "providers", int),
    ("data", "niche_fraction"): (SyntheticSpec, "niche_fraction", float),
    ("data", "ratings"): (FileSource, "ratings", str),
    ("data", "items_file"): (FileSource, "items_file", str),
    ("data", "providers_file"): (FileSource, "providers_file", str),
    ("data", "format"): (FileSource, "fmt", _one_of("csv", "movielens-dat")),
}


def _parse_keys(text: str, path: str) -> defaultdict[type | None, dict[str, object]]:
    """The file's values, parsed and grouped by owner: owner -> field -> value."""
    given: defaultdict[type | None, dict[str, object]] = defaultdict(dict)
    sections = {section for section, _key in _KEYS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise ConfigError(f"{where}: unknown section [{current}]")
            continue
        if current is None or "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key = key.strip()
        if (current, key) not in _KEYS:
            raise ConfigError(f"{where}: unknown key {key!r} in section [{current}]")
        owner, name, parse = _KEYS[current, key]
        if name in given[owner]:
            raise ConfigError(f"{where}: duplicate key {key!r} in section [{current}]")
        try:
            given[owner][name] = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: [{current}] {key}: {exc}") from exc
    return given


def parse_config(path: str | Path, seed: int | None = None) -> ExperimentSpec:
    """Parse a sectioned key-value config into scenario configs plus a data source.

    Unknown sections, unknown or repeated keys, unparsable values and keys of
    the data source the file does not pick are errors naming the key. A
    missing key takes its field's dataclass default, and a key whose field has
    none is required. ``seed``, when given, replaces the file's seed.
    """
    path = Path(path)
    given = _parse_keys(dataset.read_text(path), str(path))
    kind = given[None].get("source", "synthetic")
    for (section, key), (owner, name, _parse) in _KEYS.items():
        if owner in _SOURCES.values() and owner is not _SOURCES[kind]:
            if name in given[owner]:
                raise ConfigError(f"{path}: [{section}] {key} does not apply to source = {kind}")
        elif owner is not None and owner.__dataclass_fields__[name].default is MISSING:
            if name not in given[owner]:
                raise ConfigError(f"{path}: missing required key {key!r} in section [{section}]")

    scenario = given[ScenarioConfig]
    if seed is not None:
        scenario["seed"] = seed
    recommender = RecommenderConfig(engine.GENERIC_RECOMMENDER, **given[RecommenderConfig])
    behavior = BehaviorParams(**given[BehaviorParams])
    suite = engine.standard_suite(recommender=recommender, behavior=behavior, **scenario)
    by_name = {c.scenario_name: c for c in suite}
    scenarios = tuple(by_name[name] for name in given[None].get("policies", by_name))
    # Each section is checked before the scenario that holds it, so that an
    # error names its section; the scenarios differ only in the policy.
    for section, validate in (
        ("behavior", behavior.validate),
        ("recommenders", lambda: recommender.validate(scenarios[0].slate_size)),
        ("scenario", scenarios[0].validate),
    ):
        try:
            validate()
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from exc

    if kind == "synthetic":
        source = SyntheticSpec(
            seed=scenario["seed"], niche_genre=scenario["niche_genre"], **given[SyntheticSpec]
        )
    else:
        source = FileSource(**given[FileSource])
    return ExperimentSpec(scenarios, source)


def load_data(source: SyntheticSpec | FileSource):
    if isinstance(source, SyntheticSpec):
        return dataset.generate_synthetic(source)
    log = dataset.load_ratings(source.ratings, fmt=source.fmt)
    catalog = dataset.load_catalog(source.items_file, source.providers_file)
    return log, catalog


def cmd_run(
    config: Path, out: Path, seed: int | None = None, emit: Sequence[str] = ()
) -> int:
    spec = parse_config(config, seed)
    data = load_data(spec.source)
    audits: dict[str, AuditTrail] = {}
    if "audit-log" in emit:
        audits = {c.scenario_name: AuditTrail() for c in spec.scenarios}
    collect_days = "per-day" in emit

    result = engine.run_experiment_suite(
        spec.scenarios, data, audits=audits, collect_day_rows=collect_days
    )
    out.mkdir(parents=True, exist_ok=True)  # only now: a failed run leaves no directory

    texts = {
        "consumer_utility_per_cycle.csv": engine.cycle_csv_lines(result.reports),
        "provider_clicks.csv": engine.provider_csv_lines(result.reports),
        "switch_events.csv": engine.switch_csv_lines(result.reports),
    }
    if collect_days:
        texts["consumer_utility_per_day.csv"] = engine.day_csv_lines(result.reports)
    for name, lines in texts.items():
        _write_text(out / name, "\n".join(lines) + "\n")
    summary = engine.render_summary(result.reports)
    _write_text(out / "summary.txt", summary)
    written = set(texts)
    for report in result.reports:
        name = f"report_{report.scenario}.json"
        _write_text(out / name, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        written.add(name)
    for name, trail in audits.items():
        _write_lines(out / f"audit_{name}.jsonl", trail.render())
        written.add(f"audit_{name}.jsonl")
    if "model-dump" in emit:
        for report in result.reports:
            for rid, model in report.models.items():
                path = out / f"model_{report.scenario}_{rid}.txt"
                _write_atomically(path, model.dump)
                written.add(path.name)
    # Remove what an earlier run wrote and this one did not: `compare
    # results/report_*.json` must not pick up a scenario this run dropped
    patterns = ("report_*.json", "audit_*.jsonl", "model_*.txt", "consumer_utility_per_day.csv")
    for stale in [p for pattern in patterns for p in out.glob(pattern)]:
        if stale.name not in written:
            stale.unlink()

    sys.stdout.write(summary)
    return 0


def _write_atomically(path: Path, write: Callable[[Path], object]) -> None:
    """Write ``path`` through a temporary file beside it, so that a reader
    never sees a partly written file; a failed write removes it."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_atomically(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write the lines one by one, as they come: joining them first would
    hold the file in memory."""

    def write(tmp: Path) -> None:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(lines)

    _write_atomically(path, write)


# The compared metric families: (report field, metric name, whose groups)
_COMPARED = (
    ("last_cycle_utility", "consumer_utility", "consumer"),
    ("provider_clicks", "provider_clicks", "provider"),
)


def compare_reports(reports: list[dict]) -> list[dict]:
    """Per-group deltas and ratios of each report against the baseline one."""
    baselines = [r for r in reports if r.get("baseline")]
    if not baselines:
        raise ConfigError("no report is flagged as the baseline")
    base = baselines[0]
    for r in reports:
        if set(r) - set(base) or set(base) - set(r):
            raise ConfigError("report schema mismatch")
    rows = []
    for r in reports:
        if r is base:
            continue
        for field, metric, who in _COMPARED:
            for group in sorted(base[field]):
                b = base[field][group]
                v = r[field].get(group)
                if v is None:
                    raise ConfigError(f"report schema mismatch: {who} group {group!r}")
                rows.append(
                    {
                        "scenario": r["scenario"],
                        "metric": metric,
                        "group": group,
                        "value": v,
                        "baseline": b,
                        "delta": v - b,
                        "ratio": v / b if b else float("inf"),
                    }
                )
    return rows


def _read_report(path: Path) -> dict:
    """A report file's JSON object, whose compared families map groups to numbers."""
    try:
        report = json.loads(dataset.read_text(Path(path)))
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid report {path}: {exc}") from exc
    families = [field for field, _metric, _who in _COMPARED]
    if not (
        isinstance(report, dict)
        and isinstance(report.get("scenario"), str)
        and all(
            isinstance(report.get(f), dict)
            and all(type(v) in (int, float) for v in report[f].values())
            for f in families
        )
    ):
        raise DataError(
            f"invalid report {path}: expected an object with a scenario name and "
            f"numbers in {' and '.join(families)}"
        )
    return report


def cmd_compare(paths: list[Path]) -> int:
    if len(paths) < 2:
        raise ConfigError("compare requires at least two report files")
    rows = compare_reports([_read_report(p) for p in paths])
    sys.stdout.write("scenario\tmetric\tgroup\tvalue\tbaseline\tdelta\tratio\n")
    for row in rows:
        sys.stdout.write(
            f"{row['scenario']}\t{row['metric']}\t{row['group']}\t"
            f"{row['value']:.3f}\t{row['baseline']:.3f}\t{row['delta']:+.3f}\t"
            f"{row['ratio']:.3f}\n"
        )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        consumers=args.consumers,
        items=args.items,
        providers=args.providers,
        niche_fraction=args.niche_fraction,
        seed=args.seed,
        niche_genre=args.niche_genre,
    )
    log, catalog = dataset.generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    columns = (log.consumer_ids, log.item_ids, log.ratings, log.timestamps)
    ratings = [f"{u},{i},{r!r},{t}" for u, i, r, t in zip(*(c.tolist() for c in columns))]
    items, providers = [], []
    for item_id, bits, provider_id in zip(
        catalog.item_ids.tolist(), catalog.genre_matrix.tolist(), catalog.provider_ids
    ):
        genres = "|".join(g for g, bit in zip(catalog.genres, bits) if bit)
        items.append(f"{item_id},item {item_id},{genres}")
        providers.append(f"{item_id},{provider_id}")
    for name, header, lines in (
        ("ratings.csv", "user,item,rating,timestamp", ratings),
        ("items.csv", "item,title,genres", items),
        ("providers.csv", "item,provider", providers),
    ):
        _write_text(out / name, "\n".join([header, *lines]) + "\n")
    sys.stdout.write(f"wrote ratings.csv, items.csv, providers.csv to {out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recmarket",
        description="Simulate a recommender marketplace under profile portability policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment suite from a config file")
    run.add_argument("--config", required=True, type=Path)
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument(
        "--emit",
        action="append",
        choices=EMIT_CHOICES,
        default=[],
        help="extra artifacts to write",
    )
    run.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")

    cmp_ = sub.add_parser("compare", help="compare scenario reports against the baseline")
    cmp_.add_argument("reports", nargs="+", type=Path)

    synth = sub.add_parser("synth", help="write a synthetic dataset to CSV files")
    synth.add_argument("--out", required=True, type=Path)
    defaults = SyntheticSpec()
    synth.add_argument("--seed", type=int, default=defaults.seed)
    synth.add_argument("--consumers", type=int, default=defaults.consumers)
    synth.add_argument("--items", type=int, default=defaults.items)
    synth.add_argument("--providers", type=int, default=defaults.providers)
    synth.add_argument("--niche-fraction", type=float, default=defaults.niche_fraction)
    synth.add_argument("--niche-genre", default=defaults.niche_genre)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed, tuple(args.emit))
        if args.command == "compare":
            return cmd_compare(args.reports)
        return cmd_synth(args)
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecmarketError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
