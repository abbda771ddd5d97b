"""Tests of the benchmark's own logic (not of driftfilter's speed)."""

import json
import shutil
from pathlib import Path

import pytest

import checks
import mailgen
import run
import tracer

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["c", 11.0, 12.5, -1],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert tracer.layer_totals(spans) == {"a": 3.0, "b": 2.0, "c": 2.5, "d": 4.0}
    assert tracer.inclusive_durations(spans, "c") == [1.0, 1.5]


def test_wrapped_calls_record_nested_spans_and_counts():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def counted(tr, result, x):
        tr.counts["inner.calls"] += 1

    inner = t.wrap("inner", lambda x: x + 1, counted)
    outer = t.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [s[0] for s in t.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert t.counts["inner.calls"] == 2
    totals = tracer.layer_totals(t.spans)
    assert sum(totals.values()) == t.spans[0][2] - t.spans[0][1]


def test_mail_corpus_is_a_function_of_the_seed():
    stops = ["the", "of", "and", "to"]
    first = mailgen.generate(3, stops, n_docs=12, words_per_doc=40)
    again = mailgen.generate(3, stops, n_docs=12, words_per_doc=40)
    other = mailgen.generate(4, stops, n_docs=12, words_per_doc=40)
    assert mailgen.digest(first) == mailgen.digest(again)
    assert mailgen.digest(first) != mailgen.digest(other)
    assert {path.split("/")[0] for path, _ in first} <= {"spam", "ham"}


def test_materialize_rewrites_only_changed_corpora(tmp_path):
    files = mailgen.generate(1, ["the"], n_docs=6, words_per_doc=30)
    digest = mailgen.materialize(files, tmp_path)
    assert digest == mailgen.digest(files)
    assert len(list(tmp_path.glob("*/*.txt"))) == 6
    other = mailgen.generate(2, ["the"], n_docs=4, words_per_doc=30)
    mailgen.materialize(other, tmp_path)
    assert len(list(tmp_path.glob("*/*.txt"))) == 4


@pytest.fixture(scope="module")
def paired_output(tmp_path_factory):
    from driftfilter import cli

    out = tmp_path_factory.mktemp("paired")
    assert cli.main(["run", "--format", "synth", "--experiment", "2",
                     "--seed", "0", "--output-dir", str(out)]) == 0
    return out


EXPERIMENT_2 = checks.Expected((("tfdcr", "batch"), ("tfdcr", "incremental")),
                               paired=True)


def test_check_accepts_a_good_run(paired_output):
    verdict = checks.check_run(EXPERIMENT_2, paired_output, 0, None)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (2, 0, [])
    again = checks.check_run(EXPERIMENT_2, paired_output, 0, verdict.csv_sha256)
    assert again.failed == 0


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_check_flags_a_tampered_results_file(paired_output, tmp_path):
    reference = checks.check_run(EXPERIMENT_2, paired_output, 0, None).csv_sha256
    out = _copy(paired_output, tmp_path / "out")
    csv_path = out / "results.csv"
    csv_path.write_text(csv_path.read_text().replace("0.", "0.0", 1))
    verdict = checks.check_run(EXPERIMENT_2, out, 0, reference)
    assert verdict.failed == 2
    assert any("differs" in p for p in verdict.problems)


def test_check_flags_a_halted_session(paired_output, tmp_path):
    out = _copy(paired_output, tmp_path / "out")
    csv_path = out / "results.csv"
    lines = csv_path.read_text().splitlines()
    column = lines[0].split(",").index("halted")
    cells = lines[2].split(",")
    cells[column] = "retraining set holds a single class"
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    verdict = checks.check_run(EXPERIMENT_2, out, 0, None)
    assert verdict.failed_rows == {1}
    assert any("halted" in p for p in verdict.problems)


def test_check_fails_every_session_of_a_crashed_run(paired_output, tmp_path):
    assert checks.check_run(EXPERIMENT_2, paired_output, 2, None).failed == 2
    out = _copy(paired_output, tmp_path / "out")
    (out / "results.csv").unlink()
    assert checks.check_run(EXPERIMENT_2, out, 0, None).failed == 2


def _fake_run(run_s: float) -> dict:
    spans = [["driftloop.batch_phase", 0.0, 2.0, -1], ["svm.train", 0.5, 1.5, 0],
             ["cli.emit", 2.5, 2.75, -1]]
    return {"run_s": run_s, "spans": spans, "counts": {"svm.train_calls": 1},
            "distinct": {"svm.train": 1}, "events": [], "output_bytes": 10}


def test_layer_self_times_and_remainder_add_up_to_the_traced_run():
    traced = [_fake_run(3.5), _fake_run(3.0)]
    values = run.per_layer(run.representative(traced), [_fake_run(2.75)], traced)
    self_time_sum = sum(values[name] for name in run.SELF_TIME_SPANS)
    assert self_time_sum == pytest.approx(2.25)
    assert values["trace.run_s"] == 3.0
    assert self_time_sum + values["trace.remainder_s"] == pytest.approx(3.0)
    assert values["driftloop.batch_phase_incl_s"] == 2.0
    assert values["trace.overhead_s"] == pytest.approx(3.25 - 2.75)
    assert values["svm.train_distinct_share"] == 1.0
    assert set(values) == {name for name, _ in run.PER_LAYER}


def test_end_to_end_metrics_weigh_every_input_the_same():
    rows = [{"accuracy": "0.5", "mcc": "0.25"}, {"accuracy": "1.0", "mcc": "0.75"}]
    untraced = [{"input": k, "run_s": s, "peak_rss_mb": m}
                for k, s, m in ((0, 3.0, 80), (1, 1.0, 90), (0, 2.0, 70), (0, 9.0, 70))]
    values = run.end_to_end(untraced, [0.3, 0.1, 0.2, 0.9], rows)
    assert values == {"run_s": 2.0, "setup_s": 0.25, "peak_rss_mb": 80,
                      "accuracy": 0.75, "mcc": 0.5}
    assert list(values) == [name for name, _ in run.END_TO_END]


def test_every_declared_metric_is_emitted_with_its_unit(capsys):
    declared = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        record = {
            "workload": "drift_pair", "seed": 1, "trace": trace,
            "source_sha256": "0" * 64, "corpus_sha256": [None],
            "results_csv_sha256": [None], "python": "3", "numpy": "2", "blas_threads": 1,
            "setup_samples": [0.1], "run_samples": [1.0], "traced_run_samples": [],
            "attempted": 2, "failed": 0, "problems": [],
            "metrics": {name: 1.5 for name, _ in table},
        }
        result = run.report(record)
        assert result["correct"] is True
        assert result["metrics"] == {name: {"value": 1.5, "unit": unit}
                                     for name, unit in table}
        printed = capsys.readouterr().out
        assert all(f"{name} = 1.5 {unit}" in printed for name, unit in table)
