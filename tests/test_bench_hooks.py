"""The benchmark's traced run wraps driftfilter functions by name
(`perfbench/tracer.py`), so removing or renaming one of them breaks every
traced benchmark run. This test makes such a change fail the test suite.

The wrappers replace module attributes for the whole process, so the run
happens in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from driftfilter import cli
from driftfilter.corpus import synth_drift, write_enron_layout

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from driftfilter import cli

spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(json.loads(sys.argv[2]))
names = {}
for span in spans.spans:
    names[span[0]] = names.get(span[0], 0) + 1
print(json.dumps({"code": code, "spans": names, "counts": spans.counts}))
"""


def traced_run(argv) -> dict:
    """Span counts per name and counters of `driftfilter ARGV`, traced in a
    child process. The child imports the same driftfilter as this process."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    search_path = os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH), json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=search_path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    return result


def test_traced_run_records_layer_spans(tmp_path):
    result = traced_run([
        "run", "--format", "synth", "--experiment", "2", "--synth-vocab", "120",
        "--synth-docs-per-phase", "100", "--n", "40", "--n-batches", "4",
        "--seed", "3", "--output-dir", str(tmp_path / "out"),
    ])
    assert result["spans"].get("svm.train", 0) > 0
    assert result["spans"].get("features.select", 0) > 0


def test_traced_run_sees_preprocessing(tmp_path):
    # Loading mail preprocesses each file through `corpus.preprocess_text`
    # and stems through `porter.stem`, both looked up on their modules, so
    # a path that bypassed either would leave the trace blind to it.
    stream = synth_drift(5, vocab_size=120, docs_per_phase=30)
    write_enron_layout(stream, tmp_path / "mail")
    result = traced_run([
        "run", "--format", "enron", "--dataset", str(tmp_path / "mail"),
        "--n", "20", "--n-batches", "3", "--output-dir", str(tmp_path / "out"),
    ])
    assert result["spans"]["corpus.preprocess"] == len(stream.documents)
    assert result["counts"]["porter.stem_calls"] > 0
