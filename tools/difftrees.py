"""Compare the outputs of two driftfilter source trees over a fixed list of runs.

Usage (Python 3.10 or later):

    python tools/difftrees.py OLD_TREE [NEW_TREE] [--work DIR]
    python tools/difftrees.py OLD_TREE [NEW_TREE] --time N [--seed S] [--workload W]
                              [--label L]

NEW_TREE defaults to the repository that holds this script. For each tree it
runs `python -m driftfilter.cli` with `PYTHONPATH=<tree>/src` over the same
inputs:

- the three inputs of each benchmark workload (`perfbench/run.py` WORKLOADS)
  at benchmark seeds 1 and 7, i.e. program seeds `1000 * seed + k`, each
  given as a `run.conf` with `--output-dir` as a flag, the way the benchmark
  runs them; the mail corpora come from `perfbench/mailgen.py`;
- experiment 2 on a synthetic stream with `--kernel rbf --gamma 0.5`;
- experiment 2 on the same stream with `--fpr-trigger since_retrain --rho 0.95`;
- experiments 1 and 2 on a manifest listing a PU directory, a two-file ecml
  dataset and a one-file ecml dataset;
- experiment 2 with `--c 1e-12` on a two-file ecml dataset whose test batches
  are all spam, then all legitimate, so that the incremental session halts.

Every input is written once, under `--work` (default: a temporary directory,
removed afterwards), and shared by both trees. The two output directories
are then compared file by file. The first difference in each differing file
is printed with its line and column, then a summary line. Exit status: 0 when
every output is byte-identical, 1 on any difference, 2 when a tree is missing
or one of its runs fails. This is an audit aid, not a gate; tier-1 does not
collect it, and it reads `perfbench/` without changing it.

With `--time N` it compares run time instead of outputs. Over the inputs of
each benchmark workload (or of each `--workload`) at benchmark seed S
(default 1), it runs OLD, NEW and a copy of OLD's sources one after another,
each as a fresh `perfbench/child.py` with `PYTHONPATH=<tree>/src`, N rounds
over, rotating which tree runs first. Per workload it prints every pair's
`run_s`, each tree's median and quartiles, the user and sys CPU seconds of
each child process (from `resource.getrusage(RUSAGE_CHILDREN)`, which also
counts set-up and numpy's BLAS threads) and its `peak_rss_mb`, then NEW
against OLD (A/B) and the copy against OLD (A/A): the pairs won in
`run_s` and in `peak_rss_mb`, the median `run_s` difference and the median
CPU and `peak_rss_mb` differences. The A/A line is the control: two
identical trees differ by that much on the measuring host, in time and in
memory. With `--label L` it also writes those numbers to `BENCH_<L>.json`
in the current directory, with each tree's commit (`git rev-parse HEAD`,
null when the tree is not the top of a git checkout) and whether its `src/`
has uncommitted changes, the host, the Python and numpy versions, the
workloads and the seed. Exit status 0, or 2 when a run fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEEDS = (1, 7)
SYNTH = ["--format", "synth", "--experiment", "2", "--synth-vocab", "400",
         "--synth-docs-per-phase", "300", "--n", "100", "--seed", "3"]
MANIFEST = ["--n", "40", "--seed", "5"]
CONTEXT = 40  # characters shown on each side of a first difference
TREES = ("old", "new", "copy")  # the timed trees; copy is OLD's sources, copied


class TreeError(Exception):
    """One of a tree's runs fails."""


def _ecml(rng: random.Random, n_docs: int, spam_ids, legit_ids) -> str:
    """`label id:count ...` lines, alternating spam and legitimate mail;
    spam takes 6 of its 20 ids from `spam_ids`."""
    lines = []
    for k in range(n_docs):
        spam = k % 2 == 0
        ids = (rng.choices(spam_ids, k=6) + rng.choices(legit_ids, k=14) if spam
               else rng.choices(legit_ids, k=20))
        pairs = "".join(f" {i}:{c}" for i, c in sorted(Counter(ids).items()))
        lines.append(("1" if spam else "-1") + pairs)
    return "\n".join(lines) + "\n"


def write_manifest(root: Path, mailgen, stoplist) -> Path:
    """A PU directory, a two-file and a one-file ecml dataset, and their manifest."""
    for path, text in mailgen.generate(11, stoplist, n_docs=240, words_per_doc=60):
        cls, name = path.split("/")
        arrival = int(name.removesuffix(".txt"))
        target = root / "pu" / f"part{arrival % 3 + 1}" / (
            f"{arrival:05d}{'spmsg' if cls == 'spam' else 'msg'}.txt")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    rng = random.Random(5)
    legit = range(100, 200)
    (root / "ecml2_train.dat").write_text(_ecml(rng, 200, range(0, 40), legit),
                                          encoding="utf-8")
    (root / "ecml2_test.dat").write_text(_ecml(rng, 400, range(32, 72), legit),
                                         encoding="utf-8")
    (root / "ecml1.dat").write_text(_ecml(rng, 200, range(0, 40), legit)
                                    + _ecml(rng, 200, range(32, 72), legit),
                                    encoding="utf-8")
    manifest = root / "datasets.manifest"
    manifest.write_text("pu pu pu\necml2 ecml ecml2_train.dat ecml2_test.dat\n"
                        "ecml1 ecml ecml1.dat\n", encoding="utf-8")
    return manifest


def write_halting(root: Path) -> list[str]:
    """A two-file ecml dataset and the `run` arguments under which its
    incremental session halts. At C = 1e-12 no multiplier makes a support
    vector, so every mail scores the bias (about 1e-13 off 0) and lands in
    one class. The first test batch is all spam and the second all
    legitimate, so whichever is wholly misclassified fires the accuracy
    trigger on a retraining set of its one class: here, batch 0."""
    rng = random.Random(1)
    spam, legit = range(0, 40), range(100, 200)
    root.mkdir(parents=True, exist_ok=True)
    train, test = root / "halt_train.dat", root / "halt_test.dat"
    train.write_text(_ecml(rng, 12, spam, legit), encoding="utf-8")
    lines = _ecml(rng, 8, spam, legit).splitlines()
    test.write_text("\n".join(lines[::2] + lines[1::2]) + "\n", encoding="utf-8")
    return ["--format", "ecml", "--dataset", str(train), "--test-path", str(test),
            "--experiment", "2", "--c", "1e-12", "--n", "8", "--n-batches", "2"]


def _bench_modules():
    """`perfbench/mailgen.py` and `perfbench/run.py`, imported read-only."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import mailgen
    import run as bench

    return mailgen, bench


def _stoplist() -> list[str]:
    return (ROOT / "src" / "driftfilter" / "data" / "stopwords.txt").read_text(
        encoding="utf-8").split()


def workload_configs(inputs: Path, seeds, names=None) -> list[tuple[str, int, Path]]:
    """Write the `run.conf` (and mail corpus) of each input of each benchmark
    workload (all, or those in `names`) at each benchmark seed; returns
    (workload, program seed, config path) per input."""
    mailgen, bench = _bench_modules()
    stoplist = _stoplist()
    configs = []
    for name, workload in bench.WORKLOADS.items():
        if names and name not in names:
            continue
        for seed in seeds:
            for k in range(bench.INPUTS_PER_SEED):
                program_seed = 1000 * seed + k
                config = dict(workload.config, seed=program_seed)
                if workload.mail:
                    mail_dir = inputs / f"mail{program_seed}"
                    mailgen.materialize(mailgen.generate(program_seed, stoplist), mail_dir)
                    config["dataset"] = str(mail_dir)
                conf = inputs / f"{name}{program_seed}.conf"
                conf.write_text("".join(f"{key} = {value}\n"
                                        for key, value in config.items()),
                                encoding="utf-8")
                configs.append((name, program_seed, conf))
    return configs


def plan(inputs: Path) -> list[tuple[str, list[str]]]:
    """Write every input under `inputs`; return (name, `run` arguments) per run."""
    runs = [(f"{name}{program_seed}", ["--config", str(conf)])
            for name, program_seed, conf in workload_configs(inputs, BENCH_SEEDS)]
    mailgen, _ = _bench_modules()
    manifest = write_manifest(inputs / "manifest", mailgen, _stoplist())
    runs += [
        ("synth_rbf", SYNTH + ["--kernel", "rbf", "--gamma", "0.5"]),
        ("synth_since_retrain", SYNTH + ["--fpr-trigger", "since_retrain",
                                         "--rho", "0.95"]),
        ("manifest_e1", ["--manifest", str(manifest), "--experiment", "1", *MANIFEST]),
        ("manifest_e2", ["--manifest", str(manifest), "--experiment", "2", *MANIFEST]),
        ("ecml_halt", write_halting(inputs / "halt")),
    ]
    return runs


def cli(tree: Path, argv: list[str], cwd: Path) -> None:
    """Run `python -m driftfilter.cli ARGV` on the sources of `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "driftfilter.cli", *argv], cwd=cwd,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise TreeError(f"{tree}: `driftfilter {' '.join(argv)}` exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")


def run_tree(tree: Path, runs, out: Path) -> None:
    """Every run, each into its own output directory under `out`."""
    for name, argv in runs:
        cli(tree, ["run", *argv, "--output-dir", str(out / name)], out)


def first_difference(old: bytes, new: bytes) -> str:
    """Line and column of the first differing byte, with some context."""
    at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
              min(len(old), len(new)))
    line = old.count(b"\n", 0, at) + 1
    column = at - (old.rfind(b"\n", 0, at) + 1) + 1
    lo = max(at - CONTEXT, 0)

    def window(data: bytes) -> str:
        return repr(data[lo:at + CONTEXT].decode("utf-8", "replace"))

    return f"line {line}, column {column}\n  old: {window(old)}\n  new: {window(new)}"


def compare(old: Path, new: Path) -> tuple[int, int]:
    """Print each file that differs or exists in one tree only; returns
    (files compared, files differing)."""
    def files(root: Path) -> set[Path]:
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    old_files, new_files = files(old), files(new)
    differing = 0
    for rel in sorted(old_files ^ new_files):
        print(f"{rel}: only in the {'old' if rel in old_files else 'new'} tree")
        differing += 1
    for rel in sorted(old_files & new_files):
        a, b = (old / rel).read_bytes(), (new / rel).read_bytes()
        if a != b:
            print(f"{rel}: differs at {first_difference(a, b)}")
            differing += 1
    return len(old_files | new_files), differing


def timed_run(tree: Path, config: Path, out: Path) -> dict[str, float]:
    """One run of `driftfilter run --config CONFIG` in a fresh
    `perfbench/child.py` on the sources of `tree`. Returns the child's
    `run_s`, the user and sys CPU seconds of its whole process, and its
    `peak_rss_mb`."""
    result = out.parent / f"{out.name}.json"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), repr(time.monotonic()),
         str(result), str(config), str(out), "0"],
        cwd=out.parent, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = json.loads(result.read_text(encoding="utf-8")) if result.is_file() else {}
    if proc.returncode != 0 or record.get("exit_code") != 0:
        log = out.parent / f"{out.name}.log"
        detail = log.read_text(encoding="utf-8") if log.is_file() else proc.stderr
        raise TreeError(f"{tree}: timed run of {config} failed:\n{detail[-2000:]}")
    shutil.rmtree(out)
    return {"run_s": record["run_s"], "user_s": after.ru_utime - before.ru_utime,
            "sys_s": after.ru_stime - before.ru_stime,
            "peak_rss_mb": record["peak_rss_mb"]}


def _versus(pairs, base, other) -> dict:
    """How `other` fares against `base` over pairs: the pairs it wins in
    `run_s` and in `peak_rss_mb`, and the median differences."""
    def diffs(key):
        return [p[other][key] - p[base][key] for p in pairs]

    run = diffs("run_s")
    rss = diffs("peak_rss_mb")
    cpu = [u + s for u, s in zip(diffs("user_s"), diffs("sys_s"))]
    return {"pairs": len(pairs), "faster": sum(d < 0 for d in run),
            "lower_peak_rss": sum(d < 0 for d in rss),
            "run_s": statistics.median(run),
            "run_share": statistics.median(d / p[base]["run_s"]
                                           for d, p in zip(run, pairs)),
            "cpu_s": statistics.median(cpu), "peak_rss_mb": statistics.median(rss)}


def summarize(pairs) -> dict:
    """Each tree's quartiles and median CPU seconds, and the A/B and A/A
    comparisons."""
    _, bench = _bench_modules()
    trees = {}
    for label in TREES:
        tree = {}
        for key in ("run_s", "peak_rss_mb"):
            q1, q2, q3 = bench.quartiles([p[label][key] for p in pairs])
            tree[key] = {"median": q2, "q1": q1, "q3": q3}
        for key in ("user_s", "sys_s"):
            tree[key] = statistics.median(p[label][key] for p in pairs)
        trees[label] = tree
    return {"trees": trees, "A/B": _versus(pairs, "old", "new"),
            "A/A": _versus(pairs, "old", "copy")}


def report_timing(workload: str, pairs, summary) -> None:
    """Per-pair `run_s`, each tree's quartiles, the A/B and A/A comparisons."""
    print(f"{workload}: {len(pairs)} pairs, run_s in seconds "
          f"(CPU = user + sys of the whole child process)")
    print("  input round      old      new     copy  new-old copy-old")
    for p in pairs:
        old, new, copy = (p[label]["run_s"] for label in TREES)
        print(f"  {p['input']:5d} {p['round']:5d} {old:8.4f} {new:8.4f} "
              f"{copy:8.4f} {new - old:+8.4f} {copy - old:+8.4f}")
    for label, tree in summary["trees"].items():
        run = tree["run_s"]
        print(f"  {label:4s} run_s median {run['median']:.4f} q1 {run['q1']:.4f} "
              f"q3 {run['q3']:.4f} (spread {run['q3'] - run['q1']:.4f}); CPU median "
              f"user {tree['user_s']:.3f} sys {tree['sys_s']:.3f}; "
              f"peak_rss_mb median {tree['peak_rss_mb']['median']:.2f}")
    for name, other in (("A/B", "new"), ("A/A", "copy")):
        v = summary[name]
        print(f"  {name}: {other} faster in {v['faster']}/{v['pairs']} pairs; median "
              f"{other}-old {v['run_s']:+.4f} s ({v['run_share']:+.1%}); median CPU "
              f"difference {v['cpu_s']:+.4f} s; peak_rss_mb lower in "
              f"{v['lower_peak_rss']}/{v['pairs']} pairs, median difference "
              f"{v['peak_rss_mb']:+.2f} MB")


def _commit(tree: Path) -> dict:
    """The commit checked out at `tree` (None unless `tree` is the top of a
    git checkout) and whether its `src/` has uncommitted changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                                capture_output=True, text=True)
    except OSError:
        return {"commit": None, "src_modified": None}
    lines = head.stdout.split()
    if head.returncode != 0 or Path(lines[0]).resolve() != tree.resolve():
        return {"commit": None, "src_modified": None}
    return {"commit": lines[1], "src_modified": bool(status.stdout.strip())}


def write_bench(path: Path, trees, rounds: int, seed: int, summaries) -> None:
    """The timing comparison, with what a later reader needs to weigh it."""
    record = {
        "host": {"platform": platform.platform(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
        "rounds": rounds,
        "trees": {label: _commit(tree) for label, tree in trees.items()},
        "workloads": summaries,
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def time_trees(old_tree: Path, new_tree: Path, rounds: int, seed: int, names,
               work: Path, bench_file: Path | None) -> None:
    """Alternate OLD, NEW and a copy of OLD run by run over the inputs of
    each workload, `rounds` times, rotating which tree runs first."""
    copy = work / "old_copy"
    shutil.copytree(old_tree / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    trees = {"old": old_tree, "new": new_tree, "copy": copy}
    (work / "inputs").mkdir(parents=True, exist_ok=True)
    (work / "runs").mkdir(exist_ok=True)
    configs = workload_configs(work / "inputs", (seed,), names)
    pairs: dict[str, list[dict]] = {}
    for r in range(rounds):
        for i, (workload, program_seed, conf) in enumerate(configs):
            shift = (r + i) % len(TREES)
            runs = {}
            for label in TREES[shift:] + TREES[:shift]:
                out = work / "runs" / f"{label}-{program_seed}-{r}"
                runs[label] = timed_run(trees[label], conf, out)
            pairs.setdefault(workload, []).append(
                {"input": program_seed, "round": r, **{t: runs[t] for t in TREES}})
    summaries = {}
    for workload, rows in pairs.items():
        summary = summarize(rows)
        report_timing(workload, rows, summary)
        summaries[workload] = {"pairs": rows, **summary}
    if bench_file is not None:
        write_bench(bench_file, trees, rounds, seed, summaries)
        print(f"wrote {bench_file}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--work", type=Path,
                        help="keep inputs and outputs here (default: a temporary "
                             "directory, removed afterwards)")
    parser.add_argument("--time", type=int, metavar="N",
                        help="compare run time instead of outputs: N rounds over "
                             "the inputs of each workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed of the timed inputs (default 1)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(_bench_modules()[1].WORKLOADS),
                        help="time only this workload (repeatable; default all)")
    parser.add_argument("--label",
                        help="with --time, also write BENCH_<LABEL>.json here")
    args = parser.parse_args(argv)
    if args.time is not None and args.time < 1:
        parser.error("--time needs at least 1 round")
    if args.label is not None and (args.time is None
                                   or not re.fullmatch(r"[\w.-]+", args.label)):
        parser.error("--label needs --time and a name of letters, digits, _, . or -")
    old_tree, new_tree = args.old_tree.resolve(), args.new_tree.resolve()
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "driftfilter" / "cli.py").is_file():
            print(f"error: no driftfilter sources under {tree / 'src'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        if args.time is not None:
            try:
                time_trees(old_tree, new_tree, args.time, args.seed, args.workload, work,
                           args.label and Path(f"BENCH_{args.label}.json"))
            except (TreeError, FileExistsError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            return 0
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        runs = plan(work / "inputs")
        try:
            outputs = []
            for label, tree in (("old", old_tree), ("new", new_tree)):
                out = work / label
                out.mkdir(exist_ok=False)
                run_tree(tree, runs, out)
                outputs.append(out)
        except (TreeError, FileExistsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        compared, differing = compare(*outputs)
    print(f"{len(runs)} runs per tree; {compared} files compared, "
          f"{differing} differ ({old_tree} vs {new_tree})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
