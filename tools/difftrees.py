"""Compare the outputs of two driftfilter source trees over a fixed list of runs.

Usage (Python 3.10 or later):

    python tools/difftrees.py OLD_TREE [NEW_TREE] [--work DIR]

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
- `report` over every session file the runs above wrote.

Every input is written once, under `--work` (default: a temporary directory,
removed afterwards), and shared by both trees. The two output directories
are then compared file by file. The first difference in each differing file
is printed with its line and column, then a summary line. Exit status: 0 when
every output is byte-identical, 1 on any difference, 2 when a tree is missing
or one of its runs fails. This is an audit aid, not a gate; tier-1 does not
collect it, and it reads `perfbench/` without changing it.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEEDS = (1, 7)
SYNTH = ["--format", "synth", "--experiment", "2", "--synth-vocab", "400",
         "--synth-docs-per-phase", "300", "--n", "100", "--seed", "3"]
MANIFEST = ["--n", "40", "--seed", "5"]
CONTEXT = 40  # characters shown on each side of a first difference


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


def plan(inputs: Path) -> list[tuple[str, list[str]]]:
    """Write every input under `inputs`; return (name, `run` arguments) per run."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mailgen
    import run as bench

    stoplist = (ROOT / "src" / "driftfilter" / "data" / "stopwords.txt").read_text(
        encoding="utf-8").split()
    runs = []
    for name, workload in bench.WORKLOADS.items():
        for seed in BENCH_SEEDS:
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
                runs.append((f"{name}{program_seed}", ["--config", str(conf)]))
    manifest = write_manifest(inputs / "manifest", mailgen, stoplist)
    runs += [
        ("synth_rbf", SYNTH + ["--kernel", "rbf", "--gamma", "0.5"]),
        ("synth_since_retrain", SYNTH + ["--fpr-trigger", "since_retrain",
                                         "--rho", "0.95"]),
        ("manifest_e1", ["--manifest", str(manifest), "--experiment", "1", *MANIFEST]),
        ("manifest_e2", ["--manifest", str(manifest), "--experiment", "2", *MANIFEST]),
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


def run_tree(tree: Path, runs, out: Path) -> int:
    """Every run, then `report` on every session file; returns the report count."""
    for name, argv in runs:
        cli(tree, ["run", *argv, "--output-dir", str(out / name)], out)
    sessions = sorted(out.glob("*/*.session.json"))
    for session in sessions:
        target = out / "report" / session.parent.name / session.name
        cli(tree, ["report", "--session", str(session), "--out", str(target)], out)
    return len(sessions)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--work", type=Path,
                        help="keep inputs and outputs here (default: a temporary "
                             "directory, removed afterwards)")
    args = parser.parse_args(argv)
    old_tree, new_tree = args.old_tree.resolve(), args.new_tree.resolve()
    for tree in (old_tree, new_tree):
        if not (tree / "src" / "driftfilter" / "cli.py").is_file():
            print(f"error: no driftfilter sources under {tree / 'src'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        (work / "inputs").mkdir(parents=True, exist_ok=True)
        runs = plan(work / "inputs")
        try:
            outputs = []
            for label, tree in (("old", old_tree), ("new", new_tree)):
                out = work / label
                out.mkdir(exist_ok=False)
                reports = run_tree(tree, runs, out)
                outputs.append(out)
        except (TreeError, FileExistsError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        compared, differing = compare(*outputs)
    print(f"{len(runs)} runs and {reports} reports per tree; {compared} files "
          f"compared, {differing} differ ({old_tree} vs {new_tree})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
