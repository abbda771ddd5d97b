"""Command-line entry point: configuration, experiment drivers, reports.

Subcommands:
  run          run the configured experiment and write result files
  config dump  print the merged, validated configuration
  synth        write a synthetic drift corpus to disk (Enron layout)

Configuration is a plain `key = value` file with `#` comments; command-line
flags override file values. All outputs are deterministic for a fixed
configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import corpus, driftloop, features, metrics, svm

logger = logging.getLogger(__name__)

FORMATS = ("enron", "pu", "ecml", "synth")
_TEST_PATH_ECML_ONLY = "test_path binding is supported for the ecml format"


class CliError(Exception):
    """Raised for invalid configuration or unusable inputs."""


@dataclass(frozen=True)
class RunConfig:
    dataset: str | None = None
    format: str = "synth"
    selector: str = "tfdcr"
    n: int = 500
    rho: float = 0.9
    c: float = 1.0
    kernel: str = "linear"
    gamma: float | None = None
    mode: str = "batch"
    seed: int = 0
    output_dir: str = "out"
    train_fraction: float = 1.0 / 3.0
    n_batches: int = 10
    experiment: str = "single"
    fpr_trigger: str = "prev_batch"
    manifest: str | None = None
    test_path: str | None = None
    synth_vocab: int = 400
    synth_docs_per_phase: int = 1000
    synth_overlap: float = 0.2

    def validate(self) -> "RunConfig":
        for key, choices in _CHOICES.items():
            value = getattr(self, key)
            if value not in choices:
                raise CliError(f"{key} must be one of {choices}, got {value!r}")
        if not 0.0 < self.rho < 1.0:
            raise CliError(f"rho must be in (0,1), got {self.rho}")
        if not 0.0 < self.c < math.inf:
            raise CliError(f"c must be finite and > 0, got {self.c}")
        # 4 words is the least synth_drift splits into its three pools;
        # random.Random seeds from |seed|, so -3 would alias 3.
        for key, least in (("n", 1), ("n_batches", 1), ("synth_vocab", 4),
                           ("synth_docs_per_phase", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise CliError(f"{key} must be >= {least}, got {getattr(self, key)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise CliError(
                f"train_fraction must be in (0,1), got {self.train_fraction}"
            )
        if self.experiment == "1" and self.mode != "batch":
            raise CliError("experiment 1 requires mode = batch")
        if self.kernel == "rbf" and self.gamma is None:
            raise CliError("kernel rbf requires a finite gamma > 0, got None")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise CliError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 <= self.synth_overlap <= 1.0:
            raise CliError(f"synth_overlap must be in [0,1], got {self.synth_overlap}")
        if self.manifest:
            # The manifest names every dataset; `format` has a default, so
            # an explicit value cannot be told apart and is left alone.
            for key in ("dataset", "test_path"):
                if getattr(self, key):
                    raise CliError(f"{key} cannot be set together with manifest")
        elif self.format != "synth" and not self.dataset:
            raise CliError("dataset path is required (or provide a manifest)")
        elif self.test_path and self.format != "ecml":
            raise CliError(_TEST_PATH_ECML_ONLY)
        return self


_CHOICES = {
    "format": FORMATS,
    "selector": features.SELECTORS,
    "mode": tuple(m.value for m in driftloop.SessionMode),
    "kernel": svm.KERNELS,
    "experiment": ("single", "1", "2"),
    "fpr_trigger": tuple(t.value for t in driftloop.FprTrigger),
}
# Scalar type of each key, from its annotation: "float | None" -> float.
_SCALARS = {"int": int, "float": float, "str": str}
_TYPES = {f.name: _SCALARS[f.type.split(" | ")[0]] for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    try:
        return _TYPES[key](raw)
    except ValueError:
        raise CliError(f"{key} has a malformed value: {raw!r}") from None


def _read_utf8(path) -> str:
    """The text of an input file, without a leading byte-order mark; one
    that is not UTF-8 is a `CliError`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CliError(
            f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})"
        ) from None


def _content_lines(path):
    """(line number, stripped text) of each line not blank once `#` comments are cut."""
    for line_no, line in enumerate(_read_utf8(path).split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            yield line_no, stripped


def read_config_file(path) -> dict:
    """The `key = value` lines of a config file, with their values as text.
    A key set twice is an error: which value was meant is unknown."""
    values, lines = {}, {}
    for line_no, stripped in _content_lines(path):
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise CliError(f"{path}:{line_no}: expected `key = value`")
        key = key.strip()
        if key in lines:
            raise CliError(f"{path}:{line_no}: key {key!r} is already set on "
                           f"line {lines[key]}")
        values[key], lines[key] = raw.strip(), line_no
    return values


def parse_config(file_path=None, overrides=None) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig.

    A value is text, as a file or a flag gives it, or already of its key's
    type; either way `_coerce` makes it that type. Unknown keys from both
    sources are one error.
    """
    values = read_config_file(file_path) if file_path else {}
    values.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    unknown = sorted(set(values) - set(_TYPES))
    if unknown:
        raise CliError(f"unknown configuration keys: {', '.join(unknown)}")
    return RunConfig(**{k: _coerce(k, v) for k, v in values.items()}).validate()


def dump_config(config: RunConfig) -> str:
    """Canonical `key = value` rendering; omitted keys are unset options.

    A value that `read_config_file` would read back differently (one with
    a `#`, a line break, or surrounding whitespace) is an error.
    """
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        text = str(value)
        if "#" in text or "\n" in text or "\r" in text or text != text.strip():
            raise CliError(f"{f.name} cannot be written to a config file: {text!r}")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def _drift_config(config: RunConfig, selector: str) -> driftloop.DriftConfig:
    return driftloop.DriftConfig(
        rho=config.rho,
        fpr_trigger=driftloop.FprTrigger(config.fpr_trigger),
        feature_dim=config.n,
        train_config=svm.TrainConfig(
            C=config.c, kernel=config.kernel, gamma=config.gamma
        ),
        selector=selector,
    )


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    format: str
    path: str | None
    test_path: str | None = None


def read_manifest(path) -> list[DatasetEntry]:
    """Read dataset entries: `name format path [test_path]` per line, unique names."""
    base = Path(path).parent
    entries = []
    for line_no, stripped in _content_lines(path):
        parts = stripped.split()
        if len(parts) not in (3, 4):
            raise CliError(f"{path}:{line_no}: expected `name format path [test_path]`")
        name, fmt, data_path = parts[:3]
        if Path(name).name != name:
            raise CliError(f"{path}:{line_no}: dataset name {name!r} is not a file name")
        if fmt not in FORMATS:
            raise CliError(f"{path}:{line_no}: unknown format {fmt!r}")
        if any(entry.name == name for entry in entries):
            raise CliError(f"{path}:{line_no}: duplicate dataset name {name!r}")
        test_path = parts[3] if len(parts) == 4 else None
        if test_path and fmt != "ecml":
            raise CliError(f"{path}:{line_no}: {_TEST_PATH_ECML_ONLY}")
        entries.append(DatasetEntry(
            name=name,
            format=fmt,
            path=str(base / data_path),
            test_path=str(base / test_path) if test_path else None,
        ))
    if not entries:
        raise CliError(f"manifest {path} lists no datasets")
    return entries


def _dataset_entries(config: RunConfig) -> list[DatasetEntry]:
    if config.manifest:
        return read_manifest(config.manifest)
    if config.format == "synth":
        return [DatasetEntry(name="synth", format="synth", path=None)]
    name = Path(config.dataset).stem or Path(config.dataset).name
    return [DatasetEntry(name=name, format=config.format, path=config.dataset,
                         test_path=config.test_path)]


def _load_corpus(entry: DatasetEntry, config: RunConfig) -> corpus.LabeledCorpus:
    if entry.format == "synth":
        return corpus.synth_drift(
            config.seed,
            vocab_size=config.synth_vocab,
            docs_per_phase=config.synth_docs_per_phase,
            overlap=config.synth_overlap,
        )
    if entry.format == "enron":
        return corpus.load_enron(entry.path)
    if entry.format == "pu":
        return corpus.load_pu(entry.path)
    return corpus.load_ecml(entry.path)


def _in_role(docs, role: str, offset: int = 0):
    """`docs` with ids prefixed by `role` and arrival indices shifted by `offset`."""
    return [
        corpus.Document(f"{role}:{d.id}", d.label, d.tokens, d.arrival_index + offset)
        for d in docs
    ]


def build_partition(entry: DatasetEntry, config: RunConfig) -> corpus.StreamPartition:
    """Training/test split for one dataset entry.

    With a bound test file (two-file ecml datasets) the first corpus trains
    and the second is batched; otherwise the configured fraction splits one
    corpus, chronologically when the format preserves arrival order. Each
    ecml file numbers its own lines, so the two files' document ids carry
    `train:` and `test:` prefixes.
    """
    training = _load_corpus(entry, config)
    if entry.test_path:
        training = corpus.LabeledCorpus(tuple(_in_role(training.documents, "train")))
        test = corpus.load_ecml(entry.test_path)
        offset = len(training.documents)
        batches = corpus.split_batches(
            _in_role(test.documents, "test", offset), config.n_batches
        )
        return corpus.StreamPartition(training, batches)
    return corpus.partition_stream(
        training,
        config.train_fraction,
        config.n_batches,
        chronological=entry.format in ("enron", "synth"),
        seed=config.seed,
    )


TABLE_COLUMNS = (
    "dataset", "selector", "mode", "accuracy", "mcc", "micro_f1", "macro_f1",
    "avg_fpr", "avg_fnr", "retrains", "halted", "partition_checksum",
)


def _table_row(name: str, report: driftloop.SessionReport) -> dict:
    return {
        "dataset": name,
        "selector": report.selector,
        "mode": report.mode,
        "accuracy": report.final.accuracy,
        "mcc": report.final.mcc,
        "micro_f1": report.final.micro_f1,
        "macro_f1": report.final.macro_f1,
        "avg_fpr": report.avg_fpr,
        "avg_fnr": report.avg_fnr,
        "retrains": len(report.events),
        "halted": report.halted,
        "partition_checksum": report.partition_checksum,
    }


def _write_roc(report: driftloop.SessionReport, path: Path) -> None:
    """The session's ROC curve, when its truths hold both classes."""
    if report.roc is not None:
        metrics.write_roc_tsv(report.roc, path)
    else:
        logger.warning("skipping ROC for %s: single-class truths", path.name)


def _emit_session_files(name, report, out_dir: Path) -> None:
    stem = f"{name}_{report.selector}_{report.mode}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.session.json").write_text(
        report.to_json() + "\n", encoding="utf-8"
    )
    _write_roc(report, out_dir / f"{stem}.roc.tsv")


def run_experiment(config: RunConfig, out_dir: Path) -> tuple[dict, ...]:
    """Run the experiment's selector x mode sessions on each dataset entry.

    Experiment 1 compares every selector in batch mode, experiment 2 runs
    batch and incremental sessions of the configured selector, and `single`
    runs the configured selector and mode. The sessions of one entry share
    its partition and training counts; the modes of one selector share
    Pass I, which is deterministic.
    """
    selectors, modes = (config.selector,), (config.mode,)
    if config.experiment == "1":
        selectors = features.SELECTORS
    elif config.experiment == "2":
        modes = ("batch", "incremental")
    rows = []
    for entry in _dataset_entries(config):
        partition = build_partition(entry, config)
        counts = features.count_stats(partition.training)
        for selector in selectors:
            drift_config = _drift_config(config, selector)
            state = driftloop.run_batch_phase(partition.training, drift_config, counts)
            for mode in modes:
                report = driftloop.run_session(
                    partition, drift_config, driftloop.SessionMode(mode), state
                )
                _emit_session_files(entry.name, report, out_dir)
                rows.append(_table_row(entry.name, report))
    return tuple(rows)


def emit_report(rows, out_dir: Path) -> None:
    """Write results.csv and results.json with identical values; a CSV cell
    is empty for None, and quoted when it holds a comma, quote or line break."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows([row[column] for column in TABLE_COLUMNS] for row in rows)
    (out_dir / "results.json").write_text(
        json.dumps(list(rows), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _overrides_from_args(args) -> dict:
    return {key: getattr(args, key, None) for key in _TYPES}


class _Text(argparse.Action):
    # argparse drops a value of exactly `--`, even `--flag=--`, and passes [].
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action=_Text, help="key = value configuration file")
    _add_key_flags(parser, _TYPES)


def _add_key_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One `--key-name` flag per configuration key. Its value stays text, so
    `parse_config` checks it as it checks a config file's."""
    for key in keys:
        choices = _CHOICES.get(key)
        metavar = "{" + ",".join(choices) + "}" if choices else None
        parser.add_argument("--" + key.replace("_", "-"), action=_Text, metavar=metavar)


def _cmd_run(args) -> int:
    config = parse_config(args.config, _overrides_from_args(args))
    out_dir = Path(config.output_dir)
    rows = run_experiment(config, out_dir)
    emit_report(rows, out_dir)
    print(f"wrote {len(rows)} result rows to {out_dir}")
    return 0


def _cmd_config(args) -> int:
    config = parse_config(args.config, _overrides_from_args(args))
    sys.stdout.write(dump_config(config))
    return 0


def _cmd_synth(args) -> int:
    config = parse_config(None, _overrides_from_args(args))
    stream = _load_corpus(DatasetEntry("synth", "synth", None), config)
    corpus.write_enron_layout(stream, args.out)
    print(f"wrote {len(stream.documents)} documents to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftfilter",
        description="Spam filter experiments: batch and incremental sessions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the configured experiment")
    _add_config_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    config_parser = sub.add_parser("config", help="configuration utilities")
    config_parser.add_argument("action", choices=("dump",))
    _add_config_flags(config_parser)
    config_parser.set_defaults(func=_cmd_config)

    synth_parser = sub.add_parser("synth", help="emit a synthetic corpus")
    _add_key_flags(synth_parser, ("seed",))
    synth_parser.add_argument("--out", action=_Text, required=True)
    _add_key_flags(synth_parser, [k for k in _TYPES if k.startswith("synth_")])
    synth_parser.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, corpus.CorpusError, features.FeatureError, svm.SvmError,
            driftloop.DriftLoopError, metrics.MetricsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
