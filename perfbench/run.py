"""driftfilter benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload drift_pair --seed 1 --seconds 30 --trace 0

Each iteration runs `driftfilter run` (`driftfilter.cli.main`) in a fresh
interpreter on inputs made from the seed, then checks the files it wrote.
The seed yields INPUTS_PER_SEED inputs; untraced iterations cycle through
them, so a run's median does not hang on one input's luck (SMO passes,
retrain count). Iterations repeat until the next one would overrun
`--seconds`, with at least one per input. With `--trace 1`, untraced and
traced iterations alternate on the first input, at least two of each.
The last stdout line is one JSON object: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import mailgen  # noqa: E402
import tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 8  # set-up-only processes before the timed loop
INPUTS_PER_SEED = 3
CHILD_TIMEOUT_S = 150

# features.SELECTORS, restated: this process never imports the program.
SELECTORS = ("tfdcr", "ig", "chi", "gini", "igr", "cfs")


@dataclass(frozen=True)
class Workload:
    config: dict  # `driftfilter run` keys; `seed` and `dataset` are added per input
    expected: checks.Expected
    mail: bool = False  # generate the Enron-layout corpus and pass it as dataset


WORKLOADS = {
    # CLI experiment 2: SMO dominates (two cold solves on 2667 examples, above
    # the full-Gram limit, so on LRU kernel rows). No text preprocessing.
    "drift_pair": Workload(
        config={"format": "synth", "experiment": "2", "synth_docs_per_phase": 4000,
                "synth_vocab": 2000, "synth_overlap": 0.2, "n": 500},
        expected=checks.Expected((("tfdcr", "batch"), ("tfdcr", "incremental")),
                                 paired=True),
    ),
    # CLI experiment 1 over generated mail: Porter preprocessing dominates,
    # feature scoring sees its largest inputs, nothing is retrained.
    "mail_sweep": Workload(
        config={"format": "enron", "experiment": "1", "n": 500},
        expected=checks.Expected(tuple((s, "batch") for s in SELECTORS)),
        mail=True,
    ),
}

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
    ("mcc", "coefficient"),
)

# Self times (`_s` without `incl`) plus trace.remainder_s sum to trace.run_s.
PER_LAYER = (
    ("corpus.preprocess_s", "s"), ("corpus.load_s", "s"),
    ("corpus.docs", "count"), ("corpus.tokens", "count"),
    ("porter.stem_calls", "count"), ("porter.stem_distinct_share", "ratio"),
    ("features.count_stats_s", "s"), ("features.count_stats_calls", "count"),
    ("features.count_tokens", "count"),
    ("features.select_s", "s"), ("features.terms_scored", "count"),
    ("features.vectorize_s", "s"), ("features.vectorize_calls", "count"),
    ("features.vectorize_distinct_share", "ratio"),
    ("features.update_s", "s"), ("features.replaced", "count"),
    ("svm.train_s", "s"), ("svm.train_calls", "count"),
    ("svm.train_examples", "count"), ("svm.max_train_n", "count"),
    ("svm.passes", "count"), ("svm.sv", "count"), ("svm.unconverged", "count"),
    ("svm.objective", "dual"), ("svm.train_distinct_share", "ratio"),
    ("svm.score_s", "s"), ("svm.score_vectors", "count"),
    ("svm.kernel_evals", "count"),
    ("driftloop.batch_phase_s", "s"), ("driftloop.batch_phase_incl_s", "s"),
    ("driftloop.evaluate_s", "s"), ("driftloop.evaluate_calls", "count"),
    ("driftloop.retrain_s", "s"), ("driftloop.retrain_incl_median_s", "s"),
    ("driftloop.retrains", "count"), ("driftloop.retrain_docs", "count"),
    ("driftloop.retrain_share", "ratio"), ("driftloop.checksum_s", "s"),
    ("metrics.roc_s", "s"),
    ("cli.emit_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.run_s", "s"), ("trace.remainder_s", "s"), ("trace.overhead_s", "s"),
)

# Span name of every self-time metric above.
SELF_TIME_SPANS = {
    "corpus.preprocess_s": "corpus.preprocess", "corpus.load_s": "corpus.load",
    "features.count_stats_s": "features.count_stats",
    "features.select_s": "features.select",
    "features.vectorize_s": "features.vectorize",
    "features.update_s": "features.update",
    "svm.train_s": "svm.train", "svm.score_s": "svm.score",
    "driftloop.batch_phase_s": "driftloop.batch_phase",
    "driftloop.evaluate_s": "driftloop.evaluate",
    "driftloop.retrain_s": "driftloop.retrain",
    "driftloop.checksum_s": "driftloop.checksum",
    "metrics.roc_s": "metrics.roc", "cli.emit_s": "cli.emit",
}

# Counters copied as they are from the tracer.
TRACED_COUNTS = (
    "corpus.docs", "corpus.tokens", "porter.stem_calls",
    "features.count_stats_calls", "features.count_tokens", "features.terms_scored",
    "features.vectorize_calls", "features.replaced",
    "svm.train_calls", "svm.train_examples", "svm.max_train_n", "svm.passes",
    "svm.sv", "svm.unconverged", "svm.objective",
    "svm.score_vectors", "svm.kernel_evals", "driftloop.evaluate_calls",
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not start)."""


def source_digest() -> str:
    """sha256 of the program's source tree: names the commit under test."""
    if not (SRC / "driftfilter" / "__init__.py").is_file():
        raise BenchError(f"no driftfilter sources under {SRC}")
    files = sorted(p for p in (SRC / "driftfilter").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Input:
    config: Path  # the `run.conf` handed to `driftfilter run --config`
    corpus_sha256: str | None  # generated mail corpus, if any
    reference: Path  # holds the sha256 of this input's results.csv


def prepare_inputs(name: str, seed: int, run_dir: Path, src_digest: str) -> list[Input]:
    """Write each input's config file (and mail corpus) for one benchmark seed."""
    workload = WORKLOADS[name]
    stoplist = (SRC / "driftfilter" / "data" / "stopwords.txt").read_text(
        encoding="utf-8").split()
    inputs = []
    for k in range(INPUTS_PER_SEED):
        program_seed = 1000 * seed + k
        config = dict(workload.config, seed=program_seed)
        corpus_digest = None
        if workload.mail:
            mail_dir = WORK / "mail" / f"seed{program_seed}"
            corpus_digest = mailgen.materialize(mailgen.generate(program_seed, stoplist),
                                                mail_dir)
            config["dataset"] = str(mail_dir)
        text = "".join(f"{key} = {value}\n" for key, value in config.items())
        path = run_dir / f"input{k}.conf"
        path.write_text(text, encoding="utf-8")
        key = hashlib.sha256(f"{src_digest}\n{text}{corpus_digest}".encode("utf-8"))
        inputs.append(Input(path, corpus_digest,
                            WORK / "expected" / f"{name}-{key.hexdigest()[:32]}.sha256"))
    return inputs


def spawn(result_path: Path, *run_args: str) -> dict:
    """Run child.py in a fresh interpreter and return the result it wrote."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "child.py")]
    spawned = time.monotonic()
    proc = subprocess.run(
        argv + [repr(spawned), str(result_path), *run_args], cwd=ROOT, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(
            f"benchmark process failed ({proc.returncode}): "
            + proc.stdout.decode("utf-8", "replace")[-2000:]
        )
    return json.loads(result_path.read_text(encoding="utf-8"))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def representative(runs: list[dict]) -> dict:
    """The run at the (lower) median of run_s."""
    ordered = sorted(runs, key=lambda r: r["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def session_events(out_dir: Path) -> list[dict]:
    events = []
    for path in sorted(out_dir.glob("*.session.json")):
        events += json.loads(path.read_text(encoding="utf-8"))["events"]
    return events


def per_input_median(runs: list[dict], key: str) -> float:
    """Mean over inputs of each input's median, so every input weighs the same."""
    by_input: dict[int, list[float]] = {}
    for r in runs:
        by_input.setdefault(r["input"], []).append(r[key])
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def end_to_end(untraced: list[dict], setups: list[float], rows: list[dict]) -> dict:
    return {
        "run_s": per_input_median(untraced, "run_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": per_input_median(untraced, "peak_rss_mb"),
        "accuracy": statistics.fmean(float(r["accuracy"]) for r in rows),
        "mcc": statistics.fmean(float(r["mcc"]) for r in rows),
    }


def per_layer(run: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of one traced run (see PER_LAYER)."""
    spans = run["spans"]
    totals = tracer.layer_totals(spans)
    counts, distinct = run["counts"], run["distinct"]
    values = {name: totals.get(span, 0.0) for name, span in SELF_TIME_SPANS.items()}
    values.update({name: counts.get(name, 0) for name in TRACED_COUNTS})

    def share(key: str, calls: str) -> float:
        return distinct.get(key, 0) / counts[calls] if counts.get(calls) else 0.0

    events = run["events"]
    seen = sum(e["cumulative_seen"] for e in events)
    retrain_docs = sum(e["retrain_size"] for e in events)
    retrains = tracer.inclusive_durations(spans, "driftloop.retrain")
    values.update({
        "porter.stem_distinct_share": share("porter.stem", "porter.stem_calls"),
        "features.vectorize_distinct_share": share(
            "features.vectorize", "features.vectorize_calls"),
        "svm.train_distinct_share": share("svm.train", "svm.train_calls"),
        "driftloop.batch_phase_incl_s": sum(
            tracer.inclusive_durations(spans, "driftloop.batch_phase")),
        "driftloop.retrain_incl_median_s": statistics.median(retrains) if retrains else 0.0,
        "driftloop.retrains": len(events),
        "driftloop.retrain_docs": retrain_docs,
        "driftloop.retrain_share": retrain_docs / seen if seen else 0.0,
        "cli.output_bytes": run["output_bytes"],
        "trace.run_s": run["run_s"],
        "trace.remainder_s": run["run_s"] - sum(totals.values()),
        "trace.overhead_s": statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in untraced),
    })
    return values


def bench(name: str, seed: int, seconds: float, traced: bool) -> dict:
    src_digest = source_digest()
    run_dir = WORK / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = prepare_inputs(name, seed, run_dir, src_digest)
    if traced:
        inputs = inputs[:1]
    references = {inp: inp.reference.read_text(encoding="utf-8")
                  if inp.reference.is_file() else None for inp in inputs}

    setups = []
    for k in range(SETUP_PROBES):
        probe = spawn(run_dir / f"setup{k}.json")
        setups.append(probe["setup_s"])
    versions = {"python": platform.python_version(), "numpy": probe["numpy"],
                "blas_threads": probe["blas_threads"]}

    expected = WORKLOADS[name].expected
    runs: list[dict] = []
    rows: dict[Input, list[dict]] = {}
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.monotonic() + seconds
    while True:
        k = len(runs)
        inp = inputs[k % len(inputs)]
        is_traced = traced and k % 2 == 1
        out_dir = run_dir / f"iter{k}"
        started = time.monotonic()
        run = spawn(run_dir / f"iter{k}.json", str(inp.config), str(out_dir),
                    "1" if is_traced else "0")
        run["traced"] = is_traced
        run["input"] = k % len(inputs)
        run["wall_s"] = time.monotonic() - started
        verdict = checks.check_run(expected, out_dir, run["exit_code"], references[inp])
        references[inp] = references[inp] or verdict.csv_sha256
        rows.setdefault(inp, verdict.rows)
        attempted += verdict.attempted
        failed += verdict.failed
        problems += [f"iteration {k}: {p}" for p in verdict.problems]
        run["events"] = session_events(out_dir) if out_dir.is_dir() else []
        run["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir()) \
            if out_dir.is_dir() else 0
        setups.append(run["setup_s"])
        runs.append(run)
        enough = len(runs) >= (4 if traced else len(inputs))
        typical = statistics.median(r["wall_s"] for r in runs)
        if enough and time.monotonic() + typical > deadline:
            break

    untraced = [r for r in runs if not r["traced"]]
    traced_runs = [r for r in runs if r["traced"]]
    if traced:
        counts = {json.dumps(r["counts"], sort_keys=True) for r in traced_runs}
        if len(counts) != 1:
            failed = attempted
            problems.append("traced counters differ between runs of one input")
    if failed == 0:
        for inp, reference in references.items():
            if not inp.reference.is_file():
                inp.reference.parent.mkdir(parents=True, exist_ok=True)
                inp.reference.write_text(reference, encoding="utf-8")

    metrics = None
    if all(rows.values()):
        if traced:
            metrics = per_layer(representative(traced_runs), untraced, traced_runs)
        else:
            metrics = end_to_end(untraced, setups, [r for rs in rows.values() for r in rs])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "source_sha256": src_digest,
        "corpus_sha256": [inp.corpus_sha256 for inp in inputs],
        "results_csv_sha256": [references[inp] for inp in inputs],
        **versions, "setup_samples": setups,
        "run_samples": [r["run_s"] for r in untraced],
        "traced_run_samples": [r["run_s"] for r in traced_runs],
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    def short(digests):
        return ",".join((d or "-")[:12] for d in digests)

    print(f"workload {record['workload']} seed {record['seed']} "
          f"source {record['source_sha256'][:12]} "
          f"corpus {short(record['corpus_sha256'])} "
          f"results.csv {short(record['results_csv_sha256'])} "
          f"python {record['python']} numpy {record['numpy']} "
          f"blas_threads {record['blas_threads']}")
    for label, samples in (("run_s", record["run_samples"]),
                           ("traced run_s", record["traced_run_samples"]),
                           ("setup_s", record["setup_samples"])):
        if samples:
            q1, q2, q3 = quartiles(samples)
            print(f"{label}: median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples)}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    table = PER_LAYER if record["trace"] else END_TO_END
    metrics = {}
    if record["metrics"] is not None:
        for metric, unit in table:
            value = record["metrics"][metric]
            print(f"{metric} = {value} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    print(f"failed_share = {record['failed']}/{record['attempted']} sessions")
    return {
        "correct": record["failed"] == 0 and record["metrics"] is not None,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
