"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criterion 7 needs the external PU1 dataset and is skipped when
it is absent (point DRIFTFILTER_PU1_DIR at the directory of fold
subdirectories).
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from driftfilter import cli, driftloop, features, metrics, svm
from driftfilter.corpus import load_pu, partition_stream, synth_drift
from driftfilter.driftloop import (
    DriftConfig, build_retraining_set, incremental_retrain,
    run_batch_phase, run_session,
)

import oracles
from conftest import random_corpus


def _as_pairs(corpus_):
    return [
        ("spam" if d.label == "spam" else "legit", list(d.tokens))
        for d in corpus_.documents
    ]


def test_criterion_1_tfdcr_oracle_equivalence():
    """100 seeded random corpora: weights and top-N match the brute-force
    recount-and-sort oracle within 1e-12, in under 5 seconds."""
    started = time.monotonic()
    rng = random.Random(1234501)
    for _ in range(100):
        corpus_ = random_corpus(rng, max_docs=50, max_terms=200)
        stats = features.count_stats(corpus_)
        pairs = _as_pairs(corpus_)
        per_term, n_s, n_l = oracles.naive_stats(pairs)
        assert stats.n_spam == n_s and stats.n_legit == n_l
        for term, cell in per_term.items():
            fc = stats.counts[term]
            expected = oracles.naive_dmw(*cell, n_s, n_l)
            assert abs(features.tfdcr_weight(fc, n_s, n_l) - expected) <= 1e-12
        fs = features.select_top_n(stats, 50)
        oracle_top = oracles.naive_top_n(pairs, 50)
        assert list(fs.terms) == [t for t, _ in oracle_top]
        for term, (_, weight) in zip(fs.terms, oracle_top):
            got = features.tfdcr_weight(stats.counts[term], n_s, n_l)
            assert abs(got - weight) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: TFDCR oracle equivalence on 100 corpora "
          f"({elapsed:.2f}s)")


def test_criterion_2_smo_against_qp_oracle():
    """20 seeded 20-point datasets: dual objective within 1e-6 of the
    projected-gradient oracle, KKT within 1e-3, sum(alpha*y) <= 1e-6,
    in under 10 seconds."""
    started = time.monotonic()
    worst_gap = 0.0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        vectors, labels = [], []
        for i in range(20):
            label = 1 if i % 2 == 0 else -1
            cx = 1.0 if label == 1 else -1.0
            entries = (
                (0, cx + rng.gauss(0, 0.8)), (1, cx + rng.gauss(0, 0.8)),
            )
            kept = [(p, w) for p, w in entries if w != 0.0]
            vectors.append(features.SparseVector(
                [p for p, _ in kept], [w for _, w in kept]
            ))
            labels.append(label)
        config = svm.TrainConfig(C=1.0, kkt_tolerance=1e-5)
        model = svm.train_smo(vectors, labels, config)

        X = np.zeros((20, 2))
        for i, vector in enumerate(vectors):
            for p, w in oracles.entries(vector):
                X[i, p] = w
        y = np.array(labels, dtype=float)
        _, oracle_objective = oracles.qp_dual_solve(X @ X.T, y, config.C)
        gap = abs(model.objective - oracle_objective)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, f"seed {seed}: objective gap {gap}"

        violations = oracles.kkt_violations(vectors, labels, model)
        assert max(violations) <= 1e-3
        balance = sum(a * y_ for a, y_ in zip(model.alphas, model.sv_labels))
        assert abs(balance) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"PASS criterion 2: SMO matches QP oracle on 20 datasets "
          f"(worst objective gap {worst_gap:.2e}, {elapsed:.2f}s)")


def test_criterion_3_metrics_exactness():
    """Hand-computed fixtures for all six measures to 1e-12."""
    measures = metrics.MetricsReport.from_confusion
    cm = metrics.ConfusionMatrix(tp=3, tn=5, fp=1, fn=1)
    report = measures(cm)
    assert abs(report.accuracy - 0.8) <= 1e-12
    assert abs(report.fpr - 1 / 6) <= 1e-12
    assert abs(report.fnr - 0.25) <= 1e-12
    assert abs(report.micro_f1 - 0.75) <= 1e-12
    assert abs(report.macro_f1 - (0.75 + 5 / 6) / 2) <= 1e-12
    assert abs(report.mcc - 14 / 24) <= 1e-12
    assert measures(metrics.ConfusionMatrix(tp=7, tn=9)).mcc == 1.0
    assert measures(metrics.ConfusionMatrix(fp=9, fn=7)).mcc == -1.0
    perfect = measures(metrics.ConfusionMatrix(tp=4, tn=6))
    assert (perfect.accuracy, perfect.fpr, perfect.fnr) == (1.0, 0.0, 0.0)
    assert (perfect.micro_f1, perfect.macro_f1) == (1.0, 1.0)
    print("PASS criterion 3: metrics match hand-computed fixtures to 1e-12")


ACCEPTANCE_SEED = 0
ACCEPTANCE_N = 200


def _acceptance_partition():
    stream = synth_drift(
        ACCEPTANCE_SEED, vocab_size=400, docs_per_phase=1000, overlap=0.2
    )
    return partition_stream(stream, 1 / 3, 10, chronological=True)


def _acceptance_config():
    return DriftConfig(
        rho=0.9, feature_dim=ACCEPTANCE_N, train_config=svm.TrainConfig(C=1.0)
    )


@pytest.fixture(scope="module")
def drift_run():
    """Both sessions on the acceptance partition. The incremental one runs
    `run_session` as it is, observed through the two Pass-III steps it
    calls: the retraining set's parts and size, and the feature sets before
    and after each update."""
    partition = _acceptance_partition()
    config = _acceptance_config()
    retrain_sets, updates = [], []

    def observed_build(state, misclassified, batch):
        rtrem = build_retraining_set(state, misclassified, batch)
        retrain_sets.append({
            "sv_count_before": len(state.sv_documents),
            "mcm_size": len(misclassified),
            "batch_size": len(batch.documents),
            "rtrem_size": len(rtrem.documents),
        })
        return rtrem

    def observed_retrain(state, rtrem, config):
        new_state, replaced = incremental_retrain(state, rtrem, config)
        updates.append((state.feature_set, new_state.feature_set))
        return new_state, replaced

    started = time.monotonic()
    batch_report = run_session(partition, config, "batch")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driftloop, "build_retraining_set", observed_build)
        patch.setattr(driftloop, "incremental_retrain", observed_retrain)
        incr_report = run_session(partition, config, "incremental")
    elapsed = time.monotonic() - started
    assert len(retrain_sets) == len(updates) == len(incr_report.events)
    events = []
    for event, sizes, (before, after) in zip(incr_report.events, retrain_sets, updates):
        terms_before, terms_after = set(before.terms), set(after.terms)
        events.append({
            **sizes,
            "replaced": event.replaced_features,
            "added": len(terms_after - terms_before),
            "removed": len(terms_before - terms_after),
            "dim_before": len(before),
            "dim_after": len(after),
            "terms_after": terms_after,
            "cumulative_seen": event.cumulative_seen,
        })
    return {
        "partition": partition,
        "batch_report": batch_report,
        "incr_report": incr_report,
        "events": events,
        "elapsed": elapsed,
    }


def _post_drift_batches(partition):
    """Indices of test batches that lie entirely after the drift point."""
    indices = []
    for k, batch in enumerate(partition.test_batches):
        if all(d.arrival_index >= 1000 for d in batch.documents):
            indices.append(k)
    return indices


def test_criterion_4_drift_recovery(drift_run):
    """Incremental session fires >= 1 retrain and beats batch mode by >= 10
    percentage points on post-drift batches, within 60 seconds; feature
    replacement per retrain stays in (0%, 25%] of N."""
    partition = drift_run["partition"]
    events = drift_run["events"]
    assert len(events) >= 1
    post = _post_drift_batches(partition)
    assert post, "no fully post-drift batches"
    batch_acc = [drift_run["batch_report"].batches[k].accuracy for k in post]
    incr_acc = [drift_run["incr_report"].batches[k].accuracy for k in post]
    batch_mean = sum(batch_acc) / len(batch_acc)
    incr_mean = sum(incr_acc) / len(incr_acc)
    assert incr_mean - batch_mean >= 0.10, (
        f"post-drift gain {100 * (incr_mean - batch_mean):.1f}pp < 10pp"
    )
    fractions = [e["replaced"] / ACCEPTANCE_N for e in events]
    for fraction in fractions:
        assert 0.0 < fraction <= 0.25
    assert drift_run["elapsed"] < 60.0
    print(f"PASS criterion 4: drift recovery "
          f"(+{100 * (incr_mean - batch_mean):.1f}pp over batch, "
          f"{len(events)} retrains, replacement "
          f"{', '.join(f'{100 * f:.1f}%' for f in fractions)} of N, "
          f"{drift_run['elapsed']:.1f}s)")


def test_criterion_5_feature_update_invariants(drift_run):
    """|FS| constant, no duplicates, added == removed at every event."""
    events = drift_run["events"]
    assert events
    for event in events:
        assert event["dim_before"] == event["dim_after"] == ACCEPTANCE_N
        assert event["added"] == event["removed"] == event["replaced"]
        assert len(event["terms_after"]) == ACCEPTANCE_N
    print(f"PASS criterion 5: feature-update invariants over "
          f"{len(events)} retrain events")


def test_criterion_6_retraining_economy(drift_run):
    """|Rtrem| <= SVs + Mcm + batch, and strictly below documents seen."""
    events = drift_run["events"]
    assert events
    for event in events:
        bound = event["sv_count_before"] + event["mcm_size"] + event["batch_size"]
        assert event["rtrem_size"] <= bound
        assert event["rtrem_size"] < event["cumulative_seen"]
    smallest = min(
        e["cumulative_seen"] - e["rtrem_size"] for e in events
    )
    print(f"PASS criterion 6: retraining economy "
          f"(min saving {smallest} documents per event)")


def _pu1_dir():
    env = os.environ.get("DRIFTFILTER_PU1_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "pu1"


def test_criterion_7_pu1_dataset():
    """Optional external-data check: PU1 results land in the expected band."""
    pu1 = _pu1_dir()
    if not pu1.is_dir():
        pytest.skip("PU1 dataset not present (set DRIFTFILTER_PU1_DIR)")
    corpus_ = load_pu(pu1)
    assert corpus_.n_spam == 481
    assert corpus_.n_legit == 618
    partition = partition_stream(
        corpus_, 1 / 3, 10, chronological=False, seed=0
    )
    config = DriftConfig(rho=0.9, feature_dim=500,
                         train_config=svm.TrainConfig(C=1.0))
    batch_report = run_session(partition, config, "batch")
    incr_report = run_session(partition, config, "incremental")
    assert abs(batch_report.final.accuracy - 0.9675) <= 0.04
    assert abs(batch_report.final.mcc - 0.93) <= 0.08
    assert incr_report.avg_fpr <= batch_report.avg_fpr
    print(f"PASS criterion 7: PU1 accuracy {batch_report.final.accuracy:.4f}, "
          f"MCC {batch_report.final.mcc:.3f}, "
          f"incremental avg FPR {incr_report.avg_fpr:.3f} <= "
          f"batch {batch_report.avg_fpr:.3f}")


def test_criterion_8_determinism(tmp_path):
    """Identical config + seed produce byte-identical reports and equal models.

    The two runs execute in separate processes with different hash seeds,
    so any hidden dependence on set or dict hashing order would surface.
    """
    import subprocess
    import sys

    # The child processes import the same driftfilter as this one.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    search_path = os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))
    )
    outputs = []
    for run, hash_seed in (("first", "1"), ("second", "271828")):
        out = tmp_path / run
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=search_path)
        proc = subprocess.run(
            [sys.executable, "-m", "driftfilter.cli", "run",
             "--format", "synth", "--experiment", "2",
             "--synth-vocab", "160", "--synth-docs-per-phase", "150",
             "--n", "80", "--n-batches", "5", "--seed", "3",
             "--output-dir", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    first, second = outputs
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name

    partition = _acceptance_partition()
    config = _acceptance_config()
    models = [run_batch_phase(partition.training, config).model for _ in range(2)]
    assert models[0] == models[1]
    print(f"PASS criterion 8: determinism across reruns "
          f"({len(names)} files byte-identical, models equal)")
