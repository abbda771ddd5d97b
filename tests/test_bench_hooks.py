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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from driftfilter import cli

spans = tracer.Tracer()
tracer.install(spans)
code = cli.main(["run", "--format", "synth", "--experiment", "2",
                 "--synth-vocab", "120", "--synth-docs-per-phase", "100",
                 "--n", "40", "--n-batches", "4", "--seed", "3",
                 "--output-dir", sys.argv[2]])
names = {}
for span in spans.spans:
    names[span[0]] = names.get(span[0], 0) + 1
print(json.dumps({"code": code, "spans": names}))
"""


def test_traced_run_records_layer_spans(tmp_path):
    # The child imports the same driftfilter as this process.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    search_path = os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(PERFBENCH), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=search_path),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0, proc.stderr
    assert result["spans"].get("svm.train", 0) > 0
    assert result["spans"].get("features.select", 0) > 0
