import csv
import json
import math
import random
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from driftfilter import cli, driftloop, features
from driftfilter.cli import (
    CliError, RunConfig, build_partition, dump_config, parse_config,
    read_manifest, run_experiment,
)
from driftfilter.corpus import (
    load_ecml, load_enron, load_pu, partition_stream, synth_drift, write_enron_layout,
)

from conftest import make_corpus


class TestParseConfig:
    def test_defaults(self):
        config = parse_config()
        assert config.rho == 0.9
        assert config.selector == "tfdcr"
        assert config.mode == "batch"

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("rho = 0.9\nformat = synth\n", encoding="utf-8")
        config = parse_config(path, {"rho": 0.85})
        assert config.rho == 0.85

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# a comment\n\nrho = 0.8  # trailing\nformat = synth\n",
            encoding="utf-8",
        )
        assert parse_config(path).rho == 0.8

    def test_unknown_keys_listed(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("zeta = 1\nalpha = 2\n", encoding="utf-8")
        with pytest.raises(CliError, match="alpha, zeta"):
            parse_config(path)

    def test_missing_dataset(self):
        with pytest.raises(CliError, match="dataset"):
            parse_config(None, {"format": "enron"})

    def test_rho_out_of_range(self):
        with pytest.raises(CliError, match="rho"):
            parse_config(None, {"rho": 1.2})

    def test_c_out_of_range(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(CliError, match="c must be"):
                parse_config(None, {"c": c})

    def test_rbf_gamma_out_of_range(self):
        for gamma in (None, 0.0, math.nan, math.inf):
            with pytest.raises(CliError, match="gamma"):
                parse_config(None, {"kernel": "rbf", "gamma": gamma})

    def test_n_out_of_range(self):
        with pytest.raises(CliError, match="n must be"):
            parse_config(None, {"n": 0})

    @pytest.mark.parametrize("source", ["file", "override"])
    def test_negative_seed_rejected(self, tmp_path, source):
        # random.Random seeds from |seed|: a negative seed would silently run
        # the stream of its absolute value. The library rejects one too, but
        # the CLI must do so before it loads any data.
        assert random.Random(-3).random() == random.Random(3).random()
        path, overrides = None, {"seed": -3}
        if source == "file":
            path, overrides = tmp_path / "run.conf", {}
            path.write_text("format = synth\nseed = -3\n", encoding="utf-8")
        with pytest.raises(CliError, match="^seed must be >= 0, got -3$"):
            parse_config(path, overrides)

    def test_seed_zero_is_the_least(self):
        assert parse_config(None, {"seed": 0}).seed == 0

    def test_unknown_keys_of_file_and_overrides_are_one_error(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("zeta = 1\nrho = high\n", encoding="utf-8")
        with pytest.raises(CliError, match="unknown configuration keys: alpha, zeta$"):
            parse_config(path, {"alpha": "2", "seed": "3"})

    def test_repeated_key_names_both_lines(self, capsys, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("rho = 0.5\n# retuned\nrho = 0.7\n", encoding="utf-8")
        assert cli.main(["config", "dump", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}:3: key 'rho' is already set on line 1\n")

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("rho = high\n", encoding="utf-8")
        with pytest.raises(CliError, match="rho"):
            parse_config(path)

    def test_dump_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "format = synth\nrho = 0.85\nn = 120\nseed = 7\nmode = incremental\n",
            encoding="utf-8",
        )
        first = dump_config(parse_config(path))
        canonical = tmp_path / "canonical.conf"
        canonical.write_text(first, encoding="utf-8")
        second = dump_config(parse_config(canonical))
        assert first == second


_GAMMA = st.floats(0.0, exclude_min=True, allow_infinity=False)
# Keys with a range check in RunConfig.validate; every other key is drawn
# from its annotated type (or its choices), and str values are unfiltered,
# so `#`, line breaks and surrounding whitespace all occur.
_RANGED = {
    "rho": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "c": st.floats(0.0, exclude_min=True, allow_infinity=False),
    "gamma": st.none() | _GAMMA,
    "n": st.integers(min_value=1),
    "train_fraction": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "n_batches": st.integers(min_value=1),
    "synth_overlap": st.floats(0.0, 1.0),
    "synth_vocab": st.integers(min_value=4),
    "synth_docs_per_phase": st.integers(min_value=1),
    "seed": st.integers(min_value=0),
}
_BY_TYPE = {
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(),
}


def _key_strategy(f):
    if f.name in _RANGED:
        return _RANGED[f.name]
    if f.name in cli._CHOICES:
        base = st.sampled_from(cli._CHOICES[f.name])
    else:
        base = _BY_TYPE[cli._TYPES[f.name]]
    return st.none() | base if f.default is None else base


_UNSET = st.none() | st.just("")  # the values `_valid` reads as not set


@st.composite
def _configs(draw):
    """A RunConfig whose coupled keys are drawn together: where a key's value
    breaks one of `_valid`'s couplings, its partner is drawn again from the
    values that keep it. A draw that already satisfies `_valid` is returned
    as it is, so every valid config can be drawn, and few draws are filtered.
    """
    keys = {f.name: draw(_key_strategy(f)) for f in fields(RunConfig)}
    if keys["kernel"] == "rbf" and keys["gamma"] is None:
        keys["gamma"] = draw(_GAMMA)
    if keys["experiment"] == "1":
        keys["mode"] = "batch"
    if keys["manifest"]:
        for key in ("dataset", "test_path"):
            if keys[key]:
                keys[key] = draw(_UNSET)
    else:
        if keys["format"] != "synth" and not keys["dataset"]:
            keys["dataset"] = draw(st.text(min_size=1))
        if keys["format"] != "ecml" and keys["test_path"]:
            keys["test_path"] = draw(_UNSET)
    return RunConfig(**keys)


_CONFIGS = _configs()


def _valid(config: RunConfig) -> RunConfig:
    assume(config.kernel != "rbf" or config.gamma is not None)
    assume(config.format == "synth" or config.dataset or config.manifest)
    assume(not config.test_path or config.format == "ecml" or config.manifest)
    assume(not config.manifest or not (config.dataset or config.test_path))
    assume(config.experiment != "1" or config.mode == "batch")
    return config.validate()


def _unwritable(text: str) -> bool:
    return "#" in text or "\n" in text or "\r" in text or text != text.strip()


def _as_flags(config: RunConfig) -> list[str]:
    argv = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        flag = "--" + f.name.replace("_", "-")
        if value is None:
            continue
        text = repr(value) if isinstance(value, float) else str(value)
        argv.append(f"{flag}={text}")
    return argv


class TestConfigSchema:
    @settings(deadline=None)
    @given(_CONFIGS)
    def test_dump_then_read_gives_the_same_config(self, config):
        config = _valid(config)
        unwritable = [
            f.name for f in fields(RunConfig)
            if isinstance(getattr(config, f.name), str)
            and _unwritable(getattr(config, f.name))
        ]
        if unwritable:
            with pytest.raises(CliError, match=unwritable[0]):
                dump_config(config)
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.conf"
            path.write_text(dump_config(config), encoding="utf-8")
            assert parse_config(path) == config

    @settings(deadline=None)
    @given(_CONFIGS)
    # argparse drops a value of exactly `--`, even in `--dataset=--`.
    @example(RunConfig(format="ecml", dataset="--", test_path="--"))
    def test_flags_give_the_same_config(self, config):
        config = _valid(config)
        args = cli.build_parser().parse_args(["run"] + _as_flags(config))
        assert parse_config(args.config, cli._overrides_from_args(args)) == config


class TestManifest:
    def test_entries(self, tmp_path):
        (tmp_path / "enron1").mkdir()
        manifest = tmp_path / "datasets.manifest"
        manifest.write_text(
            "# folders\nenron1 enron enron1\npu1 pu pu1\n", encoding="utf-8"
        )
        entries = read_manifest(manifest)
        assert [e.name for e in entries] == ["enron1", "pu1"]
        assert entries[0].path.endswith("enron1")

    def test_bad_line(self, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("onlyname\n", encoding="utf-8")
        with pytest.raises(CliError, match="expected"):
            read_manifest(manifest)

    def test_test_path_needs_ecml(self, tmp_path):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("ok ecml a.dat b.dat\nmail enron enron1 test.dat\n",
                            encoding="utf-8")
        with pytest.raises(CliError, match=r":2: test_path .* ecml format"):
            read_manifest(manifest)

    def test_duplicate_name(self, tmp_path):
        manifest = tmp_path / "dup.manifest"
        manifest.write_text("a pu pu\na pu pu\n", encoding="utf-8")
        with pytest.raises(CliError, match=r":2: duplicate dataset name 'a'"):
            read_manifest(manifest)

    def test_empty(self, tmp_path):
        manifest = tmp_path / "empty.manifest"
        manifest.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(CliError, match="no datasets"):
            read_manifest(manifest)

    def test_name_must_be_one_file_name(self, capsys, tmp_path):
        # The name stems the output files, so a path would write them
        # outside output_dir.
        manifest = tmp_path / "escape.manifest"
        manifest.write_text("ok synth x\n../../escaped synth x\n", encoding="utf-8")
        out = tmp_path / "a" / "b" / "out"
        code = cli.main([
            "run", "--manifest", str(manifest), "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--output-dir", str(out),
        ])
        assert code == 2
        assert (
            f"{manifest}:2: dataset name '../../escaped' is not a file name"
            in capsys.readouterr().err
        )
        assert list(tmp_path.rglob("*")) == [manifest]

    def test_comma_in_name_stays_in_its_cell(self, tmp_path):
        manifest = tmp_path / "comma.manifest"
        manifest.write_text("a,b synth x\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--manifest", str(manifest), "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--output-dir", str(out),
        ]) == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["dataset"], row["selector"], row["mode"]) == ("a,b", "tfdcr", "batch")
        assert (out / "a,b_tfdcr_batch.session.json").exists()


def _synth_flags(tmp_path, **extra):
    flags = {
        "format": "synth",
        "synth_vocab": 120,
        "synth_docs_per_phase": 100,
        "synth_overlap": 0.2,
        "n": 60,
        "n_batches": 4,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    flags.update(extra)
    return flags


class TestExperiments:
    def test_experiment1_all_selectors(self, tmp_path):
        config = parse_config(None, _synth_flags(tmp_path, experiment="1"))
        out = tmp_path / "out"
        out.mkdir()
        rows = run_experiment(config, out)
        selectors = [row["selector"] for row in rows]
        assert selectors == list(features.SELECTORS)
        for row in rows:
            assert row["accuracy"] is not None
        assert (out / "synth_tfdcr_batch.roc.tsv").exists()

    def test_experiment1_requires_batch_mode(self, tmp_path):
        flags = _synth_flags(tmp_path, experiment="1", mode="incremental")
        with pytest.raises(CliError, match="batch"):
            parse_config(None, flags)

    def test_experiment1_separable_fixture_all_perfect(self, tmp_path):
        spec = []
        for i in range(60):
            if i % 2 == 0:
                spec.append(("spam", [f"spamtok{j}" for j in (i % 5, (i + 1) % 5)]))
            else:
                spec.append(("legit", [f"hamtok{j}" for j in (i % 5, (i + 2) % 5)]))
        write_enron_layout(make_corpus(spec), tmp_path / "data")
        config = parse_config(None, {
            "format": "enron", "dataset": str(tmp_path / "data"),
            "experiment": "1", "n": 20, "n_batches": 4,
            "output_dir": str(tmp_path / "out"),
        })
        out = tmp_path / "out"
        out.mkdir()
        rows = run_experiment(config, out)
        for row in rows:
            assert row["accuracy"] == 1.0

    def test_experiment2_direction_and_checksum(self, tmp_path):
        config = parse_config(None, _synth_flags(tmp_path, experiment="2"))
        out = tmp_path / "out"
        out.mkdir()
        rows = run_experiment(config, out)
        rows = {row["mode"]: row for row in rows}
        assert set(rows) == {"batch", "incremental"}
        assert rows["batch"]["partition_checksum"] == (
            rows["incremental"]["partition_checksum"]
        )
        assert rows["incremental"]["accuracy"] > rows["batch"]["accuracy"]
        assert rows["incremental"]["retrains"] >= 1
        assert rows["incremental"]["avg_fpr"] <= rows["batch"]["avg_fpr"]


class TestCliCommands:
    def test_synth_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpusdir"
        code = cli.main([
            "synth", "--seed", "5", "--out", str(out),
            "--synth-vocab", "120", "--synth-docs-per-phase", "30",
        ])
        assert code == 0
        corpus_ = load_enron(out)
        assert len(corpus_.documents) == 60
        expected = synth_drift(5, vocab_size=120, docs_per_phase=30)
        assert [d.tokens for d in corpus_.documents] == [
            d.tokens for d in expected.documents
        ]
        # A second corpus into the same directory would mix with the first.
        files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        code = cli.main(["synth", "--seed", "6", "--out", str(out),
                         "--synth-docs-per-phase", "20"])
        assert code == 2
        assert str(out / "spam") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("experiment,mode,sessions", [
        ("single", "incremental", [("tfdcr", "incremental")]),
        ("1", "batch", [(s, "batch") for s in features.SELECTORS]),
        ("2", "batch", [("tfdcr", "batch"), ("tfdcr", "incremental")]),
    ], ids=["single", "1", "2"])
    def test_run_and_rerun_byte_identical(self, tmp_path, experiment, mode, sessions):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = [
            "run", "--format", "synth", "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--seed", "2", "--experiment", experiment, "--mode", mode,
        ]
        assert cli.main(base + ["--output-dir", str(out_a)]) == 0
        assert cli.main(base + ["--output-dir", str(out_b)]) == 0
        with open(out_a / "results.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [(row["selector"], row["mode"]) for row in rows] == sessions
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_csv_and_json_encode_identical_values(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main([
            "run", "--format", "synth", "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--seed", "2", "--output-dir", str(out),
        ])
        assert code == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            csv_rows = list(csv.DictReader(handle))
        json_rows = json.loads((out / "results.json").read_text(encoding="utf-8"))
        assert len(csv_rows) == len(json_rows)
        for crow, jrow in zip(csv_rows, json_rows):
            for column in cli.TABLE_COLUMNS:
                cell = crow[column]
                value = jrow[column]
                if cell == "":
                    assert value is None
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    assert float(cell) == value
                else:
                    assert cell == str(value)

    @pytest.mark.parametrize("experiment, sessions", [
        ("single", 1), ("1", len(features.SELECTORS)), ("2", 2),
    ])
    def test_session_file_is_the_record(self, tmp_path, experiment, sessions):
        # The session file holds the ROC points that the `.roc.tsv` table
        # shows and the final measures of its results row; nothing reads
        # it back, so no subcommand does.
        out = tmp_path / "out"
        assert cli.main([
            "run", "--format", "synth", "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--seed", "2", "--experiment", experiment, "--output-dir", str(out),
        ]) == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == sessions
        assert len(list(out.glob("*.session.json"))) == sessions
        for row in rows:
            stem = f"synth_{row['selector']}_{row['mode']}"
            session = json.loads((out / f"{stem}.session.json").read_text(encoding="utf-8"))
            assert session["format"] == driftloop.SESSION_FORMAT
            assert "scores" not in session and "truths" not in session
            with open(out / f"{stem}.roc.tsv", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            assert lines[0] == "fpr\ttpr"
            points = [[float(v) for v in line.split("\t")] for line in lines[1:]]
            assert session["roc"] == points
            for measure in ("accuracy", "mcc", "micro_f1", "macro_f1"):
                assert session["final"][measure] == float(row[measure])
            assert (session["selector"], session["mode"]) == (row["selector"], row["mode"])
            assert len(session["events"]) == int(row["retrains"])
            assert session["partition_checksum"] == row["partition_checksum"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["report", "--session", str(out / f"{stem}.session.json"),
                      "--out", str(tmp_path / "rendered")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "rendered").exists()

    def test_config_dump_subcommand(self, capsys, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("format = synth\nrho = 0.8\n", encoding="utf-8")
        code = cli.main(["config", "dump", "--config", str(path), "--rho", "0.7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rho = 0.7" in out

    def test_help_lists_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{run,config,synth}" in out
        assert "report" not in out

    def test_help_lists_the_choices(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--help"])
        out = capsys.readouterr().out
        assert "--mode {batch,incremental}" in out
        assert "--kernel {linear,rbf}" in out

    def test_pu_format_run(self, tmp_path):
        data = tmp_path / "pu"
        for fold in ("part1", "part2"):
            d = data / fold
            d.mkdir(parents=True)
            for i in range(10):
                (d / f"spmsg{i}.txt").write_text(
                    f"cheap pills offer{i % 3} winner", encoding="utf-8"
                )
                (d / f"{i}msg{i}.txt").write_text(
                    f"project meeting agenda{i % 3} budget", encoding="utf-8"
                )
        out = tmp_path / "out"
        code = cli.main([
            "run", "--format", "pu", "--dataset", str(data), "--n", "10",
            "--n-batches", "3", "--output-dir", str(out),
        ])
        assert code == 0
        with open(out / "results.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["dataset"] == "pu"
        assert float(rows[0]["accuracy"]) == 1.0

    def test_error_exit_code_and_message(
        self, capsys, monkeypatch, tmp_path, tmp_path_factory
    ):
        # Input files live outside the working directory, which must stay empty.
        inputs = tmp_path_factory.mktemp("inputs")
        for name, data in (
            ("latin1.conf", b"seed = \xff\n"),
            ("latin1.manifest", b"a synth unused\n\xfe\n"),
            ("choice.conf", b"selector = bayes\n"),
            ("chronological.conf", b"chronological = true\n"),
            ("drift_point.conf", b"synth_drift_point = 500\n"),
            ("no_equals.conf", b"seed 7\n"),
            ("format.manifest", b"a mbox data.txt\n"),
            ("spam_only.dat", b"1 10:2 11:1\n1 10:1 12:1\n"),
            ("mixed.dat", b"1 10:1\n-1 20:1\n"),
        ):
            (inputs / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        for argv, named in (
            (["run", "--format", "enron", "--dataset", "/nonexistent"], "/nonexistent"),
            (["run", "--c", "nan"], "c must be"),
            (["run", "--c", "inf"], "c must be"),
            (["run", "--kernel", "rbf", "--gamma", "nan"], "gamma"),
            (["config", "dump", "--gamma", "nan"], "gamma"),
            (["config", "dump", "--gamma", "inf"], "gamma"),
            (["config", "dump", "--format", "enron", "--dataset", "/data/mail#2"],
             "dataset"),
            (["run", "--format", "synth", "--synth-docs-per-phase", "0"],
             "docs_per_phase"),
            (["run", "--format", "synth", "--synth-vocab", "3"],
             "synth_vocab must be >= 4, got 3"),
            # Datasets that are not there.
            (["run", "--format", "pu", "--dataset", str(inputs / "missing")],
             f"dataset directory not found: {inputs / 'missing'}"),
            (["run", "--format", "ecml", "--dataset", str(inputs / "missing.dat")],
             f"dataset file not found: {inputs / 'missing.dat'}"),
            # Rejected before the dataset is read.
            (["run", "--format", "enron", "--dataset", "/nonexistent",
              "--test-path", "test.dat"], "test_path binding"),
            (["config", "dump", "--format", "synth", "--test-path", "test.dat"],
             "test_path binding"),
            # A manifest names every dataset.
            (["run", "--manifest", "ds.manifest", "--dataset", "/nonexistent"],
             "dataset cannot be set together with manifest"),
            (["run", "--manifest", "ds.manifest", "--test-path", "/nonexistent/x.dat"],
             "test_path cannot be set together with manifest"),
            # Input files that are not UTF-8 text.
            (["run", "--config", str(inputs / "latin1.conf")],
             f"{inputs / 'latin1.conf'}: not UTF-8 text"),
            (["run", "--manifest", str(inputs / "latin1.manifest")],
             f"{inputs / 'latin1.manifest'}: not UTF-8 text"),
            # Range checks of RunConfig.validate; `config dump` reads no data.
            (["config", "dump", "--train-fraction", "1.5"], "train_fraction must be"),
            (["config", "dump", "--n-batches", "0"], "n_batches must be"),
            (["config", "dump", "--synth-overlap", "1.5"], "synth_overlap must be"),
            (["config", "dump", "--synth-vocab", "3"], "synth_vocab must be >= 4"),
            (["config", "dump", "--synth-docs-per-phase", "0"],
             "synth_docs_per_phase must be >= 1"),
            (["config", "dump", "--seed", "-1"], "seed must be >= 0, got -1"),
            # A flag's value is text, checked as the same value in a file is.
            (["config", "dump", "--config", str(inputs / "choice.conf")],
             "selector must be one of"),
            (["run", "--n", "abc"], "n has a malformed value: 'abc'"),
            (["config", "dump", "--rho", "x"], "rho has a malformed value: 'x'"),
            (["config", "dump", "--mode", "bogus"], "mode must be one of"),
            (["config", "dump", "--kernel", "poly"], "kernel must be one of"),
            # Chronology follows the format; it is not a key.
            (["config", "dump", "--config", str(inputs / "chronological.conf")],
             "unknown configuration keys: chronological"),
            # The drift point is always synth_docs_per_phase.
            (["config", "dump", "--config", str(inputs / "drift_point.conf")],
             "unknown configuration keys: synth_drift_point"),
            # The plan is checked before any data is read.
            (["config", "dump", "--experiment", "1", "--mode", "incremental"],
             "experiment 1 requires mode = batch"),
            (["config", "dump", "--config", str(inputs / "no_equals.conf")],
             f"{inputs / 'no_equals.conf'}:1: expected `key = value`"),
            (["run", "--manifest", str(inputs / "format.manifest")],
             f"{inputs / 'format.manifest'}:1: unknown format 'mbox'"),
            # A training set of one class, under every selector.
            *((["run", "--format", "ecml", "--dataset", str(inputs / "spam_only.dat"),
                "--test-path", str(inputs / "mixed.dat"), "--n-batches", "1",
                "--selector", selector], "both classes")
              for selector in features.SELECTORS),
        ):
            code = cli.main(argv)
            assert code == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:")
            assert err.count("\n") == 1
            assert named in err, argv
        # A run that fails before its first result leaves no output directory.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("label", ["1", "-1"], ids=["spam", "legit"])
    def test_single_class_test_stream_skips_the_roc(self, caplog, tmp_path, label):
        # Every test mail is of one class, so no ROC curve exists; the run
        # still succeeds, without a ROC file, and its session records none.
        train, test = tmp_path / "train.dat", tmp_path / "test.dat"
        train.write_text("1 10:2 11:1\n-1 20:2 21:1\n" * 6, encoding="utf-8")
        test.write_text(f"{label} 10:1\n{label} 11:1 20:1\n" * 3, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--format", "ecml", "--dataset", str(train), "--test-path", str(test),
            "--n", "4", "--n-batches", "2", "--output-dir", str(out),
        ]) == 0
        session = out / "train_tfdcr_batch.session.json"
        assert json.loads(session.read_text(encoding="utf-8"))["roc"] is None
        assert sorted(p.name for p in out.iterdir()) == [
            "results.csv", "results.json", session.name,
        ]
        assert "skipping ROC for train_tfdcr_batch.roc.tsv" in caplog.text

    def test_unknown_config_key_error(self, capsys, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("sigma = 3\n", encoding="utf-8")
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        assert "sigma" in capsys.readouterr().err


class TestByteOrderMark:
    """A UTF-8 file saved with a leading byte-order mark reads as without it."""

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "bom.conf"
        path.write_bytes(b"\xef\xbb\xbfseed = 3\n")
        assert cli.main(["config", "dump", "--config", str(path)]) == 0
        assert "\nseed = 3\n" in capsys.readouterr().out

    def test_manifest(self, tmp_path):
        manifest = tmp_path / "bom.manifest"
        manifest.write_bytes(b"\xef\xbb\xbfbom synth unused\n")
        out = tmp_path / "out"
        assert cli.main([
            "run", "--manifest", str(manifest), "--synth-vocab", "120",
            "--synth-docs-per-phase", "80", "--n", "40", "--n-batches", "3",
            "--output-dir", str(out),
        ]) == 0
        assert (out / "bom_tfdcr_batch.session.json").exists()
        assert (out / "bom_tfdcr_batch.roc.tsv").exists()
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            assert [row["dataset"] for row in csv.DictReader(handle)] == ["bom"]

class TestBuildPartition:
    def test_ecml_two_file_binding(self, tmp_path):
        train = tmp_path / "train.dat"
        test = tmp_path / "test.dat"
        train.write_text(
            "\n".join(
                (["1 10:2 11:1", "-1 20:2 21:1"] * 4)
            ) + "\n",
            encoding="utf-8",
        )
        test.write_text(
            "\n".join(["1 10:1", "-1 20:1"] * 3) + "\n", encoding="utf-8"
        )
        config = parse_config(None, {
            "format": "ecml", "dataset": str(train), "test_path": str(test),
            "n_batches": 2, "n": 10,
        })
        entry = cli.DatasetEntry("taskA", "ecml", str(train), str(test))
        partition = build_partition(entry, config)
        assert len(partition.training) == 8
        assert sum(len(b) for b in partition.test_batches) == 6
        ids = [d.id for b in partition.test_batches for d in b.documents]
        assert len(set(ids)) == 6

    def test_ecml_files_sharing_a_name_keep_distinct_ids(self, tmp_path):
        # Both files are `task.dat` and each numbers its own lines, so only
        # the role tells a training document from a test document.
        paths = []
        for folder, lines in (("a", ["1 10:2 11:1", "-1 20:2 21:1"]),
                              ("b", ["1 10:1 12:1", "-1 20:1 22:1"])):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "task.dat")
            paths[-1].write_text("\n".join(lines * 10) + "\n", encoding="utf-8")
        config = parse_config(None, {
            "format": "ecml", "dataset": str(paths[0]), "test_path": str(paths[1]),
            "n_batches": 2, "n": 10,
        })
        entry = cli.DatasetEntry("task", "ecml", str(paths[0]), str(paths[1]))
        partition = build_partition(entry, config)
        docs = partition.training.documents + tuple(
            d for batch in partition.test_batches for d in batch.documents
        )
        assert len({d.id for d in docs}) == len(docs) == 40
        # Pass III's retraining set keeps every support-vector document.
        state = driftloop.run_batch_phase(
            partition.training, cli._drift_config(config, "tfdcr")
        )
        batch = partition.test_batches[0]
        rtrem = driftloop.build_retraining_set(state, [], batch)
        assert len(rtrem) == len(state.sv_documents) + len(batch)

    @pytest.mark.parametrize("fmt", ["pu", "ecml"])
    def test_unordered_formats_get_the_seeded_shuffle(self, tmp_path, fmt):
        # PU and ecml corpora carry no arrival order, so they are partitioned
        # under the seeded shuffle.
        path = tmp_path / fmt
        if fmt == "pu":
            path.mkdir()
            for i in range(24):
                name = f"{i:02d}spmsg.txt" if i % 2 else f"{i:02d}legitmsg.txt"
                words = ("offer", "cheap") if i % 2 else ("meeting", "notes")
                (path / name).write_text(" ".join(words[:1 + i % 2]), encoding="utf-8")
            loaded = load_pu(path)
        else:
            lines = [f"1 {10 + i % 3}:1" if i % 2 else f"-1 {20 + i % 3}:1"
                     for i in range(24)]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            loaded = load_ecml(path)
        config = parse_config(None, {
            "format": fmt, "dataset": str(path), "n_batches": 3, "seed": 5,
        })
        partition = build_partition(cli.DatasetEntry(fmt, fmt, str(path)), config)
        fraction = config.train_fraction
        assert partition == partition_stream(loaded, fraction, 3, False, seed=5)
        assert partition != partition_stream(loaded, fraction, 3, True, seed=5)

    def test_synth_partition(self, tmp_path):
        config = parse_config(None, _synth_flags(tmp_path))
        entry = cli.DatasetEntry("synth", "synth", None)
        partition = build_partition(entry, config)
        assert len(partition.test_batches) == 4
