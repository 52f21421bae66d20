"""Config parsing, commands, emitted files, exit codes."""

import codecs
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from helpers import run_from_scratch
from recmarket import cli, dataset, engine, recommender
from recmarket.behavior import BehaviorParams
from recmarket.cli import (
    ExperimentSpec,
    FileSource,
    cmd_run,
    compare_reports,
    parse_config,
    serialize_config,
)
from recmarket.dataset import SyntheticSpec
from recmarket.engine import ScenarioConfig, standard_suite
from recmarket.errors import ConfigError
from recmarket.recommender import RecommenderConfig

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
[scenario]
seed = 5
niche_genre = Horror

[data]
source = synthetic
consumers = 30
items = 60
providers = 5
niche_fraction = 0.1
"""

SMALL_RUN = """
[scenario]
seed = 5
niche_genre = Horror
cycles = 3
days_per_cycle = 2
slate_size = 4
warmup_cycles = 1

[data]
source = synthetic
consumers = 25
items = 60
providers = 5
niche_fraction = 0.12
"""


def write(tmp_path, text, name="config.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def synth_files(out):
    """Write SMALL_RUN's synthetic population to ``out`` through ``synth``."""
    argv = ["synth", "--out", str(out), "--seed", "5", "--consumers", "25", "--items", "60"]
    assert cli.main([*argv, "--providers", "5", "--niche-fraction", "0.12"]) == 0
    return out


def files_run(data):
    """SMALL_RUN reading the population that ``synth_files`` wrote to ``data``."""
    text = SMALL_RUN.replace(
        "source = synthetic",
        f"source = files\nratings = {data / 'ratings.csv'}\n"
        f"items_file = {data / 'items.csv'}\nproviders_file = {data / 'providers.csv'}",
    )
    for line in ("consumers = 25", "items = 60", "providers = 5", "niche_fraction = 0.12"):
        text = text.replace(line, "")
    return text


class TestParseConfig:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        spec = parse_config(write(tmp_path, MINIMAL))
        assert [c.scenario_name for c in spec.scenarios] == [
            "baseline",
            "algorithm_specific",
            "cold_start",
            "user_ownership",
            "universal",
        ]
        cfg = spec.scenarios[-1]
        assert cfg.cycles == 10
        assert cfg.days_per_cycle == 10
        assert cfg.slate_size == 10
        assert cfg.warmup_cycles == 2
        assert cfg.behavior.recency_bias == 2.0
        assert cfg.behavior.satisfaction_threshold == 0.2
        assert cfg.recommender.latent_factors == 32
        assert cfg.recommender.popular_list_size == 100

    def test_unknown_key_is_an_error(self, tmp_path):
        bad = MINIMAL + "\n[scenario]\nmystery = 1\n"
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(write(tmp_path, bad))

    def test_repeated_key_is_an_error_naming_line_and_key(self, tmp_path):
        text = MINIMAL + "\n[behavior]\ntau = 0.2\nbeta = 2.0\ntau = 0.5\n"
        with pytest.raises(ConfigError, match=r"config\.ini:16: duplicate key 'tau'"):
            parse_config(write(tmp_path, text))

    def test_readme_block_is_the_defaults(self, tmp_path):
        # The documented block spells out every default; a config that gives
        # only its required keys must parse to the same spec, and that spec
        # must hold the dataclass defaults.
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        required = [line for line in block.splitlines() if re.match(r"(seed|niche_genre) ", line)]
        documented = parse_config(write(tmp_path, block, "readme.ini"))
        minimal = parse_config(write(tmp_path, "[scenario]\n" + "\n".join(required) + "\n"))
        assert documented == minimal
        seed, genre = minimal.scenarios[0].seed, minimal.scenarios[0].niche_genre
        assert minimal == ExperimentSpec(
            tuple(standard_suite(seed=seed, niche_genre=genre)),
            SyntheticSpec(seed=seed, niche_genre=genre),
        )
        for config in minimal.scenarios:
            assert config.behavior == BehaviorParams()
            for rec in config.recommenders:
                assert rec == RecommenderConfig(rec.recommender_id)

    def test_unknown_section_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, MINIMAL + "\n[extras]\nx = 1\n"))

    def test_missing_seed_named_in_error(self, tmp_path):
        text = "[scenario]\nniche_genre = Horror\n"
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write(tmp_path, text))

    def test_missing_niche_genre_named_in_error(self, tmp_path):
        text = "[scenario]\nseed = 3\n"
        with pytest.raises(ConfigError, match="niche_genre"):
            parse_config(write(tmp_path, text))

    def test_invalid_beta_rejected(self, tmp_path):
        text = MINIMAL + "\n[behavior]\nbeta = -1\n"
        with pytest.raises(ConfigError, match="beta"):
            parse_config(write(tmp_path, text))

    def test_round_trip(self, tmp_path):
        files = MINIMAL.split("[data]")[0] + (
            "[data]\nsource = files\nratings = r\nitems_file = i\nproviders_file = p\n"
            "format = movielens-dat\n"
        )
        for text in (SMALL_RUN, files):
            spec = parse_config(write(tmp_path, text))
            spec2 = parse_config(write(tmp_path, serialize_config(spec), "rt.ini"))
            assert spec2 == spec

    def test_policy_subset(self, tmp_path):
        text = MINIMAL + "\n[scenario]\npolicies = baseline, universal\n"
        spec = parse_config(write(tmp_path, text))
        assert [c.scenario_name for c in spec.scenarios] == ["baseline", "universal"]

    def test_unknown_policy_rejected(self, tmp_path):
        text = MINIMAL + "\n[scenario]\npolicies = baseline, quantum\n"
        with pytest.raises(ConfigError, match="quantum"):
            parse_config(write(tmp_path, text))

    def test_byte_order_mark_is_ignored(self, tmp_path):
        plain = write(tmp_path, SMALL_RUN.lstrip())
        marked = tmp_path / "bom.ini"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse_config(marked) == parse_config(plain)

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        text = (
            "# run 1\n"
            "[scenario]\n"
            "seed = 5   # inline comment\n"
            "niche_genre = Horror\n"
            "[data]\n"
            "source = files\n"
            "ratings = /data/run#1/r.csv\n"
            "items_file = /data/run#1/items.csv # the catalog\n"
            "providers_file = /data/run#1/providers.csv\t# tab before the comment\n"
            "  # indented comment line\n"
        )
        spec = parse_config(write(tmp_path, text))
        assert spec.scenarios[0].seed == 5
        assert spec.source == FileSource(
            "/data/run#1/r.csv", "/data/run#1/items.csv", "/data/run#1/providers.csv"
        )

    def test_every_config_field_is_a_key_or_derived(self):
        # A run holds only what a config can set: each field of a key's owner
        # is a key or is derived from keys (the policy, the behaviour and
        # recommender blocks, each recommender's identity, which the policy's
        # roster sets, and the seed and niche genre the synthetic spec shares
        # with the scenario).
        keyed = {(owner, name) for owner, name, _parse in cli._KEYS.values()}
        derived = {
            (ScenarioConfig, "policy"),
            (ScenarioConfig, "recommender"),
            (ScenarioConfig, "behavior"),
            (RecommenderConfig, "recommender_id"),
            (SyntheticSpec, "seed"),
            (SyntheticSpec, "niche_genre"),
        }
        owners = {owner for owner, _name in keyed if owner is not None}
        assert owners == {
            ScenarioConfig, BehaviorParams, RecommenderConfig, SyntheticSpec, FileSource
        }
        unset = [
            f"{owner.__name__}.{f.name}"
            for owner in owners
            for f in fields(owner)
            if (owner, f.name) not in keyed | derived
        ]
        assert unset == []


class TestCmdRun:
    def run_once(self, tmp_path, out_name, emit=()):
        config = write(tmp_path, SMALL_RUN)
        assert cmd_run(config, tmp_path / out_name, emit=emit) == 0
        return tmp_path / out_name

    def test_writes_reports_and_summary(self, tmp_path, capsys):
        out = self.run_once(tmp_path, "out")
        names = {p.name for p in out.iterdir()}
        assert {
            "consumer_utility_per_cycle.csv",
            "provider_clicks.csv",
            "switch_events.csv",
            "summary.txt",
        } <= names
        assert {f"report_{s}.json" for s in (
            "baseline",
            "algorithm_specific",
            "cold_start",
            "user_ownership",
            "universal",
        )} <= names
        assert "consumer_type\tscenario" in capsys.readouterr().out

    def test_rerun_is_hash_identical(self, tmp_path):
        out1 = self.run_once(tmp_path, "a")
        out2 = self.run_once(tmp_path, "b")
        for p in sorted(out1.iterdir()):
            h1 = hashlib.sha256(p.read_bytes()).hexdigest()
            h2 = hashlib.sha256((out2 / p.name).read_bytes()).hexdigest()
            assert h1 == h2, p.name

    def test_emit_audit_log(self, tmp_path):
        out = self.run_once(tmp_path, "out", emit=("audit-log",))
        trail = (out / "audit_universal.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in trail]
        assert {"click", "switch"} <= {e["event"] for e in events} or all(
            e["event"] == "click" for e in events
        )

    def test_emit_per_day_and_model_dump(self, tmp_path):
        out = self.run_once(tmp_path, "out", emit=("per-day", "model-dump"))
        assert (out / "consumer_utility_per_day.csv").exists()
        assert (out / "model_baseline_generic.txt").exists()

    @pytest.mark.parametrize("timing", ["end_of_cycle", "per_day"])
    def test_model_dumps_are_the_models_of_the_last_cycle(self, tmp_path, timing):
        # Under per_day the last cycle comes after the fork cycle; under
        # end_of_cycle it is the fork cycle, where the memo shares fits
        switching = f"warmup_cycles = 1\nswitch_timing = {timing}\n[behavior]\ntau = 0.5"
        config = write(tmp_path, SMALL_RUN.replace("warmup_cycles = 1", switching))
        out = tmp_path / "out"
        assert cmd_run(config, out, emit=("model-dump",)) == 0
        spec = parse_config(config)
        data = cli.load_data(spec.source)
        expected = {}
        for scenario in spec.scenarios:
            for rid, model in run_from_scratch(scenario, data).models.items():
                path = tmp_path / f"expected_{scenario.scenario_name}_{rid}.txt"
                model.dump(path)
                assert model.trained_at_cycle == scenario.cycles - 1
                expected[f"model_{scenario.scenario_name}_{rid}.txt"] = path.read_bytes()
        assert len(expected) == 9  # the baseline has only its home recommender
        assert {p.name: p.read_bytes() for p in out.glob("model_*.txt")} == expected

    def test_model_dump_prepares_and_fits_nothing_more(self, tmp_path, monkeypatch):
        counts = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(engine, "prepare_state")
        counted(recommender, "fit")
        calls = []
        for emit in ((), ("model-dump",)):
            counts.clear()
            self.run_once(tmp_path, f"out{len(emit)}", emit=emit)
            calls.append(dict(counts))
        assert calls[0]["prepare_state"] == 1 and calls[0]["fit"] > 0
        assert calls[1] == calls[0]

    def test_rerun_with_fewer_outputs_removes_stale_files(self, tmp_path):
        out = self.run_once(tmp_path, "out", emit=("audit-log", "per-day", "model-dump"))
        assert (out / "report_universal.json").exists()
        assert (out / "audit_universal.jsonl").exists()
        assert (out / "consumer_utility_per_day.csv").exists()
        assert (out / "model_universal_generic.txt").exists()
        fewer = SMALL_RUN.replace("warmup_cycles = 1", "warmup_cycles = 1\npolicies = baseline")
        assert cmd_run(write(tmp_path, fewer, "fewer.ini"), out) == 0
        assert sorted(p.name for p in out.glob("report_*.json")) == ["report_baseline.json"]
        assert list(out.glob("audit_*.jsonl")) == []
        assert list(out.glob("model_*.txt")) == []
        assert not (out / "consumer_utility_per_day.csv").exists()
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_seed_override_changes_results(self, tmp_path):
        config = write(tmp_path, SMALL_RUN)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cmd_run(config, a) == 0
        assert cmd_run(config, b, seed=99) == 0
        assert (a / "summary.txt").read_text() != (b / "summary.txt").read_text()

    def test_seed_flag_writes_what_the_config_seed_writes(self, tmp_path, capsys):
        flagged, configured = tmp_path / "flagged", tmp_path / "configured"
        config = write(tmp_path, SMALL_RUN)
        assert cli.main(["run", "--config", str(config), "--out", str(flagged), "--seed", "9"]) == 0
        nine = write(tmp_path, SMALL_RUN.replace("seed = 5", "seed = 9"), "nine.ini")
        assert cli.main(["run", "--config", str(nine), "--out", str(configured)]) == 0
        capsys.readouterr()
        names = sorted(p.name for p in flagged.iterdir())
        assert names == sorted(p.name for p in configured.iterdir())
        for name in names:
            assert (flagged / name).read_bytes() == (configured / name).read_bytes(), name


def relabel_files(data, out, item=lambda i: i, provider=lambda p: p):
    """Copy the population that ``synth_files`` wrote to ``data`` into
    ``out``, with every item id mapped by ``item`` and provider id by
    ``provider``."""
    out.mkdir()
    for name, fix in (
        ("ratings.csv", lambda r: [r[0], str(item(int(r[1]))), *r[2:]]),
        ("items.csv", lambda r: [str(item(int(r[0]))), *r[1:]]),
        ("providers.csv", lambda r: [str(item(int(r[0]))), provider(r[1])]),
    ):
        header, *rows = (data / name).read_text().splitlines()
        lines = [header] + [",".join(fix(row.split(","))) for row in rows]
        (out / name).write_text("\n".join(lines) + "\n")
    return out


class TestRelabelling:
    """Ids are labels: reports depend on their order, never on their values.

    Consumer ids are left out, because each consumer's random stream is
    derived from its id, so relabelling consumers changes the reports.
    """

    @pytest.mark.parametrize("timing", ["end_of_cycle", "per_day"])
    def test_order_preserving_relabels_leave_every_report_byte(self, tmp_path, capsys, timing):
        data = synth_files(tmp_path / "data")
        relabelled = {
            "original": data,
            "items": relabel_files(data, tmp_path / "items", item=lambda i: 3 * i + 7),
            "providers": relabel_files(data, tmp_path / "providers", provider=lambda p: "z" + p),
        }
        switching = f"warmup_cycles = 1\nswitch_timing = {timing}\n[behavior]\ntau = 0.5"
        outputs = {}
        for name, files in relabelled.items():
            text = files_run(files).replace("warmup_cycles = 1", switching)
            config, out = write(tmp_path, text, f"{name}.ini"), tmp_path / f"out_{name}"
            argv = ["run", "--config", str(config), "--out", str(out), "--emit", "per-day"]
            assert cli.main(argv) == 0
            outputs[name] = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        catalogs = {
            name: dataset.load_catalog(files / "items.csv", files / "providers.csv")
            for name, files in relabelled.items()
        }
        original = catalogs["original"]
        assert catalogs["items"].item_ids.tolist() == [3 * i + 7 for i in original.item_ids]
        assert catalogs["providers"].provider_ids == tuple("z" + p for p in original.provider_ids)
        assert len(outputs["original"]) == 10  # five reports, four CSVs and the summary
        assert outputs["original"]["switch_events.csv"].count(b"\n") > 1  # consumers switched
        assert outputs["items"] == outputs["original"]
        assert outputs["providers"] == outputs["original"]


class TestCompare:
    def reference_reports(self):
        # Published reference values for the two-table report shape.
        base = {
            "scenario": "baseline",
            "baseline": True,
            "last_cycle_utility": {"Generic": 0.413, "Niche": 0.246},
            "provider_clicks": {"Generic": 13712, "Niche": 68},
        }
        algo = {
            "scenario": "algorithm_specific",
            "baseline": False,
            "last_cycle_utility": {"Generic": 0.421, "Niche": 0.525},
            "provider_clicks": {"Generic": 12719, "Niche": 286},
        }
        uni = {
            "scenario": "universal",
            "baseline": False,
            "last_cycle_utility": {"Generic": 0.422, "Niche": 0.511},
            "provider_clicks": {"Generic": 14994, "Niche": 660},
        }
        return base, algo, uni

    def test_reference_ratios(self):
        base, algo, uni = self.reference_reports()
        rows = compare_reports([base, algo, uni])
        ratio = {
            (r["scenario"], r["metric"], r["group"]): r["ratio"] for r in rows
        }
        assert ratio[("algorithm_specific", "consumer_utility", "Niche")] == pytest.approx(
            2.13, abs=0.01
        )
        uni_vs_algo = (
            ratio[("universal", "provider_clicks", "Niche")]
            / ratio[("algorithm_specific", "provider_clicks", "Niche")]
        )
        assert uni_vs_algo == pytest.approx(660 / 286, abs=0.01)

    def test_self_comparison_is_zero_delta(self):
        base, _, _ = self.reference_reports()
        other = dict(base, scenario="baseline_copy", baseline=False)
        rows = compare_reports([base, other])
        assert all(r["delta"] == 0 for r in rows)
        assert all(r["ratio"] == 1.0 for r in rows)

    def test_schema_mismatch_rejected(self):
        base, algo, _ = self.reference_reports()
        broken = dict(algo)
        broken["last_cycle_utility"] = {"Generic": 0.4}
        with pytest.raises(ConfigError, match="mismatch"):
            compare_reports([base, broken])

    def test_missing_baseline_rejected(self):
        _, algo, uni = self.reference_reports()
        with pytest.raises(ConfigError, match="baseline"):
            compare_reports([algo, uni])


class TestMainEntry:
    def test_verbose_logs_the_fork_and_each_cycle_and_changes_no_output(self, tmp_path):
        # In a fresh process, where `-v` sets up logging as a user's shell has it
        config = write(tmp_path, SMALL_RUN)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = []
        for flags in ([], ["-v"]):
            out = tmp_path / f"out{len(flags)}"
            argv = ["run", "--config", str(config), "--out", str(out), "--emit", "audit-log"]
            proc = subprocess.run(
                [sys.executable, "-m", "recmarket.cli", *argv, *flags],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            )
            runs.append((proc, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        (quiet, quiet_files), (verbose, verbose_files) = runs
        assert quiet.stderr == ""
        assert verbose.stdout == quiet.stdout and verbose_files == quiet_files
        lines = verbose.stderr.splitlines()
        assert all(line.startswith("recmarket.") for line in lines)
        (fork,) = [line for line in lines if line.startswith("recmarket.engine:")]
        assert re.fullmatch(r"recmarket\.engine: fork cycle 2: \d+ fits trained, \d+ reused", fork)

        # One line per cycle: the shared prefix runs cycles 0-1, and each
        # scenario logs the cycles it runs, from the fork's switches on
        cycle_line = re.compile(
            r"recmarket\.engine\.cycles: (\w+) cycle (\d+): subscribers generic=(\d+) "
            r"niche=(\d+); clicks Generic=(\d+) Niche=(\d+); switches (\d+)"
        )
        logged: dict[str, dict[int, tuple[int, ...]]] = {}
        for line in lines:
            if line.startswith("recmarket.engine.cycles:"):
                scenario, cycle, *counts = cycle_line.fullmatch(line).groups()
                logged.setdefault(scenario, {})[int(cycle)] = tuple(map(int, counts))
        prefix = logged.pop("prefix")
        assert list(prefix) == [0, 1]
        assert {s: list(c) for s, c in logged.items()} == {
            s: [2] if s == "baseline" else [1, 2] for s in cli.POLICY_NAMES
        }
        for scenario, cycles in logged.items():
            report = json.loads(verbose_files[f"report_{scenario}.json"])
            rows = {**prefix, **cycles}.values()
            assert all(generic + niche == 25 for generic, niche, *_rest in rows)
            clicks = [sum(row[k] for row in rows) for k in (2, 3)]
            assert clicks == [report["provider_clicks"][t] for t in ("Generic", "Niche")]
            assert sum(row[4] for row in rows) == sum(report["switch_totals"].values())

    def test_exit_code_validation_error(self, tmp_path, capsys):
        no_genre = "[scenario]\nseed = 1\n"
        xml = MINIMAL.replace(
            "source = synthetic", "source = files\nratings = r\nitems_file = i\n"
            "providers_file = p\nformat = xml"
        )
        no_policy = MINIMAL.replace("niche_genre = Horror", "niche_genre = Horror\npolicies =")
        comma = MINIMAL.replace("niche_genre = Horror", "niche_genre = Horror\npolicies = ,")
        twice = MINIMAL.replace(
            "niche_genre = Horror", "niche_genre = Horror\npolicies = baseline, cold_start, baseline"
        )
        files = "source = files\nratings = r\nitems_file = i\n"
        no_providers_file = no_genre + "niche_genre = Horror\n[data]\n" + files
        for text, named in (
            (no_genre, "niche_genre"),
            (xml, "format"),
            (no_policy, "[scenario] policies"),
            (comma, "[scenario] policies"),
            (twice, "[scenario] policies: baseline named more than once"),
            (MINIMAL + "ratings = q\nformat = csv\n", "[data] ratings"),
            (MINIMAL.replace("source = synthetic", files + "providers_file = p"), "[data] consumers"),
            (no_providers_file, "'providers_file'"),
        ):
            bad = write(tmp_path, text)
            assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
            assert named in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("behavior", "beta", "nan"),
            ("behavior", "beta", "inf"),
            ("recommenders", "confidence_weight", "nan"),
            ("recommenders", "confidence_weight", "inf"),
            ("recommenders", "regularization", "nan"),
            ("scenario", "history_threshold", "nan"),
            ("scenario", "history_threshold", "inf"),
        ],
    )
    def test_non_finite_hyperparameter_is_a_validation_error(
        self, tmp_path, capsys, section, key, value
    ):
        bad = write(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("recommenders", "latent_factors", "0", "[recommenders] latent_factors must be >= 1"),
            (
                "scenario",
                "slate_size",
                "200",
                "[recommenders] popular_list_size must be >= slate_size (200)",
            ),
        ],
    )
    def test_a_recommender_value_out_of_range_names_file_and_section(
        self, tmp_path, capsys, section, key, value, message
    ):
        # The values apply to both recommenders: no recommender id is blamed
        bad = write(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("scenario", "warmup_cycles", "10", "[scenario] warmup_cycles must satisfy"),
            ("scenario", "cycles", "0", "[scenario] cycles, days_per_cycle and slate_size"),
            ("behavior", "tau", "2", "[behavior] satisfaction_threshold (tau) must lie in"),
        ],
    )
    def test_a_scenario_or_behavior_value_out_of_range_names_file_and_section(
        self, tmp_path, capsys, section, key, value, message
    ):
        bad = write(tmp_path, MINIMAL + f"\n[{section}]\n{key} = {value}\n")
        assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")

    def test_exit_code_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert cli.main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()
        one_provider = write(tmp_path, MINIMAL.replace("providers = 5", "providers = 1"))
        assert cli.main(["run", "--config", str(one_provider), "--out", str(tmp_path / "o")]) == 2
        assert "providers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        # The disk fills after ten bytes of the summary's temporary file
        config, out = write(tmp_path, SMALL_RUN), tmp_path / "out"
        write_text = Path.write_text

        def full_disk(path, text, *args, **kwargs):
            if path.name != ".summary.txt.tmp":
                return write_text(path, text, *args, **kwargs)
            write_text(path, text[:10], *args, **kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        assert "No space left" in capsys.readouterr().err
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize(
        "name, row, where",
        [
            ("items.csv", "{n},t,Horror", "items.csv:2: item {n} "),
            ("providers.csv", "{n},p", "providers.csv:2: item {n} "),
            ("ratings.csv", "{n},1,5.0,0", "ratings.csv:2: user {n} "),
            ("ratings.csv", "1,{n},5.0,0", "ratings.csv:2: item {n} "),
            ("ratings.csv", "1,1,5.0,{n}", "ratings.csv:2: timestamp {n} "),
            ("ratings.dat", "{n}::1::5::0", "ratings.dat:1: user {n} "),
            ("ratings.dat", "1::{n}::5::0", "ratings.dat:1: item {n} "),
            ("ratings.dat", "1::1::5::{n}", "ratings.dat:1: timestamp {n} "),
        ],
    )
    @pytest.mark.parametrize("n", [2**63, -(2**63) - 1])
    def test_an_int_outside_64_bits_names_its_file_and_row(
        self, tmp_path, capsys, name, row, where, n
    ):
        data = tmp_path / "data"
        data.mkdir()
        files = {
            "ratings.csv": "user,item,rating,timestamp\n1,1,5.0,0\n",
            "ratings.dat": "1::1::5::0\n",
            "items.csv": "item,title,genres\n1,t,Horror\n",
            "providers.csv": "item,provider\n1,p\n",
        }
        header = files[name].splitlines()[:-1]
        files[name] = "\n".join([*header, row.format(n=n)]) + "\n"
        for file_name, text in files.items():
            (data / file_name).write_text(text)
        text = files_run(data)
        if name == "ratings.dat":
            text = text.replace("ratings.csv", "ratings.dat") + "format = movielens-dat\n"
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write(tmp_path, text)), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert where.format(n=n) + "out of range for int64" in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["config.ini", "items.csv", "ratings.dat", "report.json"])
    def test_a_file_that_is_not_utf8_names_itself(self, tmp_path, capsys, name):
        files = {
            "ratings.dat": "1::1::5::0\n",
            "items.csv": "item,title,genres\n1,t,Horror\n",
            "providers.csv": "item,provider\n1,p\n",
            "report.json": json.dumps(TestCompare().reference_reports()[1]),
        }
        for file_name, text in files.items():
            (tmp_path / file_name).write_text(text)
        text = files_run(tmp_path).replace("ratings.csv", "ratings.dat")
        write(tmp_path, text + "format = movielens-dat\n")
        bad = tmp_path / name
        bad.write_bytes(bad.read_bytes() + b"\xff")
        base = write(tmp_path, json.dumps(TestCompare().reference_reports()[0]), "base.json")
        if name == "report.json":
            argv = ["compare", str(base), str(bad)]
        else:
            argv = ["run", "--config", str(tmp_path / "config.ini"), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read {bad}: "), err
        assert not (tmp_path / "o").exists()

    def test_a_report_may_start_with_a_byte_order_mark(self, tmp_path, capsys):
        base, algo, _uni = TestCompare().reference_reports()
        paths = [write(tmp_path, json.dumps(r), f"{r['scenario']}.json") for r in (base, algo)]
        assert cli.main(["compare", *map(str, paths)]) == 0
        plain = capsys.readouterr().out
        paths[1].write_bytes(codecs.BOM_UTF8 + paths[1].read_bytes())
        assert cli.main(["compare", *map(str, paths)]) == 0
        assert capsys.readouterr().out == plain

    def test_a_negative_seed_is_a_data_error_only_for_synthetic_data(self, tmp_path, capsys):
        out = tmp_path / "o"
        negative = write(tmp_path, MINIMAL.replace("seed = 5", "seed = -1"))
        assert cli.main(["run", "--config", str(negative), "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert cli.main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        # A file population draws nothing from the seed's generator
        data = synth_files(tmp_path / "data")
        files = write(tmp_path, files_run(data).replace("seed = 5", "seed = -1"), "files.ini")
        assert cli.main(["run", "--config", str(files), "--out", str(out)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("policies", ["", "policies = baseline\n"])
    def test_synthetic_niche_genre_outside_the_genres_is_a_data_error(
        self, tmp_path, capsys, policies
    ):
        jazz = MINIMAL.replace("niche_genre = Horror\n", "niche_genre = Jazz\n" + policies)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write(tmp_path, jazz)), "--out", str(out)]) == 2
        assert "niche_genre 'Jazz'" in capsys.readouterr().err
        assert cli.main(["synth", "--out", str(out), "--niche-genre", "Jazz"]) == 2
        assert "niche_genre 'Jazz'" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_then_run_from_files(self, tmp_path, capsys):
        data = synth_files(tmp_path / "data")
        log = dataset.load_ratings(data / "ratings.csv", fmt="csv")
        catalog = dataset.load_catalog(data / "items.csv", data / "providers.csv")
        direct_log, direct_catalog = dataset.generate_synthetic(
            dataset.SyntheticSpec(
                consumers=25, items=60, providers=5, niche_fraction=0.12, seed=5
            )
        )
        assert log == direct_log
        assert catalog == direct_catalog

        config = write(tmp_path, files_run(data), "files.ini")
        assert (
            cli.main(["run", "--config", str(config), "--out", str(tmp_path / "fo")]) == 0
        )
        capsys.readouterr()

    def test_synth_writes_each_file_atomically(self, tmp_path, monkeypatch):
        written = []
        atomic = cli._write_atomically

        def recorded(path, write):
            written.append(path.name)
            atomic(path, write)

        monkeypatch.setattr(cli, "_write_atomically", recorded)
        data = synth_files(tmp_path / "data")
        assert written == ["ratings.csv", "items.csv", "providers.csv"]
        assert sorted(p.name for p in data.iterdir()) == sorted(written)  # no temporary left

    def test_file_data_niche_genre_outside_the_items_names_the_key(
        self, tmp_path, capsys, monkeypatch
    ):
        data = synth_files(tmp_path / "data")
        genres = dataset.load_catalog(data / "items.csv", data / "providers.csv").genres
        jazz = files_run(data).replace("niche_genre = Horror", "niche_genre = Jazz\npolicies =")
        out = tmp_path / "o"
        both = write(tmp_path, jazz.replace("policies =", "policies = baseline, cold_start"))
        capsys.readouterr()
        assert cli.main(["run", "--config", str(both), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "niche_genre 'Jazz'" in err and ", ".join(genres) in err, err
        assert not out.exists()

        # The baseline needs no specialist, so it runs; the report
        # directory appears only once the suite has returned.
        original = engine.run_experiment_suite

        def run_experiment_suite(*args, **kwargs):
            assert not out.exists()
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "run_experiment_suite", run_experiment_suite)
        alone = write(tmp_path, jazz.replace("policies =", "policies = baseline"), "alone.ini")
        assert cli.main(["run", "--config", str(alone), "--out", str(out)]) == 0
        assert (out / "report_baseline.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["list", "string_group_value"])
    def test_compare_of_json_that_is_no_report_is_a_data_error(self, tmp_path, capsys, bad):
        base_report, algo, _ = TestCompare().reference_reports()
        base = write(tmp_path, json.dumps(base_report), "baseline.json")
        texts = {
            "list": "[1, 2]",
            "string_group_value": json.dumps(
                dict(algo, provider_clicks=dict(algo["provider_clicks"], Niche="12"))
            ),
        }
        bad = write(tmp_path, texts[bad], "bad.json")
        assert cli.main(["compare", str(base), str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid report {bad}: "), err

    def test_compare_cli(self, tmp_path, capsys):
        base, algo, uni = TestCompare().reference_reports()
        paths = []
        for rep in (base, algo, uni):
            p = tmp_path / f"{rep['scenario']}.json"
            p.write_text(json.dumps(rep))
            paths.append(str(p))
        assert cli.main(["compare", *paths]) == 0
        out = capsys.readouterr().out
        assert "algorithm_specific" in out and "ratio" in out
