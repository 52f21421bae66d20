"""Command-line entry point.

Thin shell over the library: ``run`` executes an experiment suite from a
config file and writes CSV reports, ``compare`` joins previously written
scenario reports against the baseline, and ``synth`` emits a synthetic
dataset to files. Exit codes: 0 success, 1 validation error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from . import dataset, engine
from .behavior import BehaviorParams
from .dataset import SyntheticSpec
from .engine import ScenarioConfig, SwitchTiming
from .errors import ConfigError, DataError, RecmarketError
from .portability import AuditTrail, PortabilityPolicy
from .recommender import ALL_GENRES

POLICY_NAMES = ["baseline"] + [p.value for p in PortabilityPolicy]

EMIT_CHOICES = ("audit-log", "model-dump", "per-day")

_SECTION_KEYS = {
    "scenario": {
        "seed",
        "niche_genre",
        "policies",
        "cycles",
        "days_per_cycle",
        "slate_size",
        "warmup_cycles",
        "switch_timing",
        "history_threshold",
    },
    "behavior": {"beta", "tau", "select_threshold"},
    "recommenders": {
        "latent_factors",
        "epochs",
        "regularization",
        "confidence_weight",
        "popular_list_size",
    },
    "data": {
        "source",
        "consumers",
        "items",
        "providers",
        "niche_fraction",
        "ratings",
        "items_file",
        "providers_file",
        "format",
    },
}

_REQUIRED = [("scenario", "seed"), ("scenario", "niche_genre")]

# A comment starts with '#' at the start of a line or after whitespace, so a
# value such as a data path may itself contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class DataSource:
    """Either a synthetic population spec or a triple of input files."""

    kind: str  # "synthetic" | "files"
    synthetic: SyntheticSpec | None = None
    ratings: str | None = None
    items_file: str | None = None
    providers_file: str | None = None
    fmt: str = "csv"


@dataclass(frozen=True)
class RunManifest:
    config_path: Path
    out_dir: Path
    seed_override: int | None = None
    emit: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    scenarios: tuple[ScenarioConfig, ...]
    source: DataSource


def _parse_sections(text: str, path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in section [{current}]")
        sections[current][key] = value.strip()
    return sections


def _get(sections: dict, section: str, key: str, default: str | None = None) -> str | None:
    return sections.get(section, {}).get(key, default)


def parse_config(path: str | Path) -> ExperimentSpec:
    """Parse a sectioned key-value config into scenario configs plus a data source.

    Unknown sections or keys are errors; missing ``seed`` or ``niche_genre``
    are errors naming the key; everything else takes its documented default.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    sections = _parse_sections(text, str(path))
    for section, key in _REQUIRED:
        if _get(sections, section, key) is None:
            raise ConfigError(f"{path}: missing required key {key!r} in section [{section}]")

    try:
        seed = int(_get(sections, "scenario", "seed"))
        niche_genre = _get(sections, "scenario", "niche_genre")
        cycles = int(_get(sections, "scenario", "cycles", "10"))
        days = int(_get(sections, "scenario", "days_per_cycle", "10"))
        slate = int(_get(sections, "scenario", "slate_size", "10"))
        warmup = int(_get(sections, "scenario", "warmup_cycles", "2"))
        timing = SwitchTiming(_get(sections, "scenario", "switch_timing", "end_of_cycle"))
        history_threshold = float(_get(sections, "scenario", "history_threshold", "4.0"))
        behavior = BehaviorParams(
            recency_bias=float(_get(sections, "behavior", "beta", "2.0")),
            satisfaction_threshold=float(_get(sections, "behavior", "tau", "0.2")),
            select_threshold=float(_get(sections, "behavior", "select_threshold", "0.2")),
        )
        rec_kwargs = dict(
            latent_factors=int(_get(sections, "recommenders", "latent_factors", "32")),
            epochs=int(_get(sections, "recommenders", "epochs", "10")),
            regularization=float(_get(sections, "recommenders", "regularization", "0.1")),
            confidence_weight=float(_get(sections, "recommenders", "confidence_weight", "40.0")),
            popular_list_size=int(_get(sections, "recommenders", "popular_list_size", "100")),
        )
        policies_raw = _get(sections, "scenario", "policies", ",".join(POLICY_NAMES))
        policy_names = [p.strip() for p in policies_raw.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for name in policy_names:
        if name not in POLICY_NAMES:
            raise ConfigError(f"{path}: unknown policy {name!r}")

    recommenders = tuple(
        replace(r, **rec_kwargs) for r in engine.default_recommenders(niche_genre)
    )
    home = tuple(r for r in recommenders if r.specialization == ALL_GENRES)
    shared = dict(
        seed=seed,
        niche_genre=niche_genre,
        cycles=cycles,
        days_per_cycle=days,
        slate_size=slate,
        warmup_cycles=warmup,
        behavior=behavior,
        switch_timing=timing,
        history_threshold=history_threshold,
    )
    scenarios = []
    for name in policy_names:
        if name == "baseline":
            scenarios.append(ScenarioConfig(policy=None, recommenders=home, **shared))
        else:
            scenarios.append(
                ScenarioConfig(
                    policy=PortabilityPolicy(name), recommenders=recommenders, **shared
                )
            )
    for config in scenarios:
        config.validate()

    source = _parse_data_source(sections, seed, niche_genre, str(path))
    return ExperimentSpec(tuple(scenarios), source)


def _parse_data_source(
    sections: dict, seed: int, niche_genre: str, path: str
) -> DataSource:
    kind = _get(sections, "data", "source", "synthetic")
    if kind == "synthetic":
        try:
            spec = SyntheticSpec(
                consumers=int(_get(sections, "data", "consumers", "500")),
                items=int(_get(sections, "data", "items", "300")),
                providers=int(_get(sections, "data", "providers", "20")),
                niche_fraction=float(_get(sections, "data", "niche_fraction", "0.1")),
                seed=seed,
                niche_genre=niche_genre,
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        return DataSource(kind="synthetic", synthetic=spec)
    if kind == "files":
        ratings = _get(sections, "data", "ratings")
        items_file = _get(sections, "data", "items_file")
        providers_file = _get(sections, "data", "providers_file")
        if not (ratings and items_file and providers_file):
            raise ConfigError(
                f"{path}: data source 'files' requires ratings, items_file and providers_file"
            )
        return DataSource(
            kind="files",
            ratings=ratings,
            items_file=items_file,
            providers_file=providers_file,
            fmt=_get(sections, "data", "format", "csv"),
        )
    raise ConfigError(f"{path}: unknown data source {kind!r}")


def serialize_config(spec: ExperimentSpec) -> str:
    """Inverse of parse_config for the keys it reads (round-trip stable)."""
    any_cfg = spec.scenarios[0]
    rec = next(r for r in any_cfg.recommenders)
    policies = ",".join(c.scenario_name for c in spec.scenarios)
    lines = [
        "[scenario]",
        f"seed = {any_cfg.seed}",
        f"niche_genre = {any_cfg.niche_genre}",
        f"policies = {policies}",
        f"cycles = {any_cfg.cycles}",
        f"days_per_cycle = {any_cfg.days_per_cycle}",
        f"slate_size = {any_cfg.slate_size}",
        f"warmup_cycles = {any_cfg.warmup_cycles}",
        f"switch_timing = {any_cfg.switch_timing.value}",
        f"history_threshold = {any_cfg.history_threshold!r}",
        "",
        "[behavior]",
        f"beta = {any_cfg.behavior.recency_bias!r}",
        f"tau = {any_cfg.behavior.satisfaction_threshold!r}",
        f"select_threshold = {any_cfg.behavior.select_threshold!r}",
        "",
        "[recommenders]",
        f"latent_factors = {rec.latent_factors}",
        f"epochs = {rec.epochs}",
        f"regularization = {rec.regularization!r}",
        f"confidence_weight = {rec.confidence_weight!r}",
        f"popular_list_size = {rec.popular_list_size}",
        "",
        "[data]",
    ]
    src = spec.source
    if src.kind == "synthetic":
        sp = src.synthetic
        lines += [
            "source = synthetic",
            f"consumers = {sp.consumers}",
            f"items = {sp.items}",
            f"providers = {sp.providers}",
            f"niche_fraction = {sp.niche_fraction!r}",
        ]
    else:
        lines += [
            "source = files",
            f"ratings = {src.ratings}",
            f"items_file = {src.items_file}",
            f"providers_file = {src.providers_file}",
            f"format = {src.fmt}",
        ]
    return "\n".join(lines) + "\n"


def load_data(source: DataSource):
    if source.kind == "synthetic":
        return dataset.generate_synthetic(source.synthetic)
    log = dataset.load_ratings(source.ratings, fmt=source.fmt)
    catalog = dataset.load_catalog(source.items_file, source.providers_file)
    return log, catalog


def cmd_run(manifest: RunManifest) -> int:
    spec = parse_config(manifest.config_path)
    if manifest.seed_override is not None:
        scenarios = tuple(
            replace(c, seed=manifest.seed_override) for c in spec.scenarios
        )
        source = spec.source
        if source.kind == "synthetic":
            source = replace(
                source, synthetic=replace(source.synthetic, seed=manifest.seed_override)
            )
        spec = ExperimentSpec(scenarios, source)

    data = load_data(spec.source)
    out = manifest.out_dir
    out.mkdir(parents=True, exist_ok=True)

    audits: dict[str, AuditTrail] = {}
    if "audit-log" in manifest.emit:
        audits = {c.scenario_name: AuditTrail() for c in spec.scenarios}
    collect_days = "per-day" in manifest.emit

    result = engine.run_experiment_suite(
        spec.scenarios, data, audits=audits, collect_day_rows=collect_days
    )

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
        _write_lines(out / f"audit_{name}.jsonl", trail.lines)
        written.add(f"audit_{name}.jsonl")
    if "model-dump" in manifest.emit:
        for config in spec.scenarios:
            state = engine.prepare_state(config, data)
            engine.train_cycle(state)
            for rid, view in state.models.items():
                path = out / f"model_{config.scenario_name}_{rid}.txt"
                _write_atomically(path, view.model.dump)
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
    never sees a partly written file."""
    tmp = path.with_name(f".{path.name}.tmp")
    write(tmp)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _write_atomically(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_lines(path: Path, lines: list[str]) -> None:
    """Write the lines one by one: joining them first would hold the file
    twice in memory."""

    def write(tmp: Path) -> None:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(lines)

    _write_atomically(path, write)


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
        for group in sorted(base["last_cycle_utility"]):
            b = base["last_cycle_utility"][group]
            v = r["last_cycle_utility"].get(group)
            if v is None:
                raise ConfigError(f"report schema mismatch: consumer group {group!r}")
            rows.append(
                {
                    "scenario": r["scenario"],
                    "metric": "consumer_utility",
                    "group": group,
                    "value": v,
                    "baseline": b,
                    "delta": v - b,
                    "ratio": v / b if b else float("inf"),
                }
            )
        for group in sorted(base["provider_clicks"]):
            b = base["provider_clicks"][group]
            v = r["provider_clicks"].get(group)
            if v is None:
                raise ConfigError(f"report schema mismatch: provider group {group!r}")
            rows.append(
                {
                    "scenario": r["scenario"],
                    "metric": "provider_clicks",
                    "group": group,
                    "value": v,
                    "baseline": b,
                    "delta": v - b,
                    "ratio": v / b if b else float("inf"),
                }
            )
    return rows


def cmd_compare(paths: list[Path]) -> int:
    if len(paths) < 2:
        raise ConfigError("compare requires at least two report files")
    reports = []
    for p in paths:
        try:
            reports.append(json.loads(Path(p).read_text(encoding="utf-8")))
        except OSError as exc:
            raise DataError(f"cannot read report {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid report {p}: {exc}") from exc
    rows = compare_reports(reports)
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
    lines = ["user,item,rating,timestamp"]
    for rec in log.records:
        lines.append(f"{rec.consumer_id},{rec.item_id},{rec.rating!r},{rec.timestamp}")
    (out / "ratings.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["item,title,genres"]
    for item_id in sorted(catalog.items):
        item = catalog.items[item_id]
        genres = "|".join(
            g for g, bit in zip(catalog.genres, item.genre_vector) if bit
        )
        lines.append(f"{item_id},item {item_id},{genres}")
    (out / "items.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["item,provider"]
    for item_id in sorted(catalog.items):
        lines.append(f"{item_id},{catalog.items[item_id].provider_id}")
    (out / "providers.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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

    cmp_ = sub.add_parser("compare", help="compare scenario reports against the baseline")
    cmp_.add_argument("reports", nargs="+", type=Path)

    synth = sub.add_parser("synth", help="write a synthetic dataset to CSV files")
    synth.add_argument("--out", required=True, type=Path)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--consumers", type=int, default=500)
    synth.add_argument("--items", type=int, default=300)
    synth.add_argument("--providers", type=int, default=20)
    synth.add_argument("--niche-fraction", type=float, default=0.1)
    synth.add_argument("--niche-genre", default="Horror")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            manifest = RunManifest(
                config_path=args.config,
                out_dir=args.out,
                seed_override=args.seed,
                emit=tuple(args.emit),
            )
            return cmd_run(manifest)
        if args.command == "compare":
            return cmd_compare(args.reports)
        if args.command == "synth":
            return cmd_synth(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecmarketError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
