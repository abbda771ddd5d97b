"""List the lines of `src/driftfilter/` that tier-1 and the benchmark
workloads leave unrun.

Usage (from any directory; Python 3.10 or later):

    python tools/linetrace.py

In one process and under `sys.settrace`, it runs the tier-1 suite from the
repository root, then the first input of each benchmark workload
(`perfbench/run.py` WORKLOADS at program seed 1000, the mail corpus from
`perfbench/mailgen.py`) through `driftfilter.cli.main` into a temporary
directory. A module's executable lines are those of its function and class
bodies, taken from `co_lines()` of its code objects; module-level lines run
at import and are not listed. It prints `file:line: text` for each
executable line that never ran, then a summary line. No coverage package is
used. This is an audit aid, not a gate, and tier-1 does not collect it; it
exits 1 only when tier-1 or a workload run fails, since the trace is then
incomplete.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftfilter"
WORKLOAD_SEED = 1000  # program seed of the first input of benchmark seed 1


def executable_lines(path: Path) -> set[int]:
    """Lines of the function and class bodies of one module, by `co_lines()`."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTrace:
    """The (file, line) pairs run in frames of code under one directory."""

    def __init__(self, directory: Path):
        self.prefix = str(directory.resolve()) + os.sep
        self.hits: dict[str, set[int]] = {}
        self._by_filename: dict[str, set[int] | None] = {}

    def _hits_for(self, filename: str) -> set[int] | None:
        if filename not in self._by_filename:
            real = os.path.realpath(filename)
            self._by_filename[filename] = (
                self.hits.setdefault(real, set()) if real.startswith(self.prefix) else None
            )
        return self._by_filename[filename]

    def on_call(self, frame, event, arg):
        """Global trace function: follows the lines of frames in the directory."""
        hits = self._hits_for(frame.f_code.co_filename)
        if hits is None:
            return None
        # The call itself runs the first line (the `def` or `class` line).
        hits.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return on_line

        return on_line


def run_workloads(out: Path) -> list[str]:
    """Run one input of each benchmark workload; returns the names that failed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mailgen
    import run as bench

    from driftfilter import cli

    failed = []
    for name, workload in bench.WORKLOADS.items():
        config = dict(workload.config, seed=WORKLOAD_SEED, output_dir=out / name)
        if workload.mail:
            stoplist = (PACKAGE / "data" / "stopwords.txt").read_text(
                encoding="utf-8").split()
            config["dataset"] = out / "mail"
            mailgen.materialize(mailgen.generate(WORKLOAD_SEED, stoplist), out / "mail")
        argv = ["run"] + [f"--{k.replace('_', '-')}={v}" for k, v in config.items()]
        if cli.main(argv) != 0:
            failed.append(name)
    return failed


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    trace = LineTrace(PACKAGE)
    sys.settrace(trace.on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", str(ROOT)])
        logging.disable(logging.CRITICAL)  # the workloads' log lines are noise here
        with tempfile.TemporaryDirectory() as tmp:
            failed = run_workloads(Path(tmp))
    finally:
        sys.settrace(None)
        logging.disable(logging.NOTSET)

    unrun = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        hit = trace.hits.get(os.path.realpath(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - hit):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        unrun += len(lines - hit)
        total += len(lines)
    print(f"{unrun} of {total} executable lines not run "
          f"(tier-1 exit status {int(status)}; failed workloads: {failed or 'none'})")
    return 1 if status != 0 or failed else 0


if __name__ == "__main__":
    sys.exit(main())
