import json
import random
import re
import uuid
from dataclasses import replace
from pathlib import Path

import pytest

from driftfilter import cli, driftloop, features, metrics, svm
from driftfilter.corpus import (
    TERMS, Document, LabeledCorpus, StreamPartition, partition_stream,
    synth_drift,
)
from driftfilter.driftloop import (
    DriftConfig, DriftLoopError,
    build_retraining_set, check_validation, evaluate_batch, incremental_retrain,
    run_batch_phase, run_session,
)

from conftest import make_corpus, make_doc


def small_config(n=50, rho=0.9, **kwargs):
    return DriftConfig(
        rho=rho, feature_dim=n, train_config=svm.TrainConfig(C=1.0), **kwargs
    )


def separable_corpus(n=12, offset=0):
    spec = []
    for i in range(n):
        if i % 2 == 0:
            spec.append(("spam", ["badtok1", "badtok2", f"badtok{i % 4}"]))
        else:
            spec.append(("legit", ["goodtok1", "goodtok2", f"goodtok{i % 4}"]))
    docs = [
        make_doc(i + offset, label, tokens) for i, (label, tokens) in enumerate(spec)
    ]
    return LabeledCorpus(tuple(docs))


class TestCheckValidation:
    def test_accuracy_threshold(self):
        history = [(0.95, 0.02), (0.89, 0.02)]
        cause = check_validation(history, small_config())
        assert cause == "accuracy_below_rho"

    def test_accuracy_equal_rho_fires(self):
        cause = check_validation([(0.9, 0.0)], small_config())
        assert cause == "accuracy_below_rho"

    def test_fpr_increase(self):
        history = [(0.95, 0.02), (0.95, 0.05)]
        assert check_validation(history, small_config()) == "fpr_increased"

    def test_single_batch_no_fire(self):
        assert check_validation([(0.95, 0.02)], small_config()) is None

    def test_accuracy_takes_precedence(self):
        history = [(0.95, 0.02), (0.85, 0.05)]
        cause = check_validation(history, small_config())
        assert cause == "accuracy_below_rho"

    def test_since_retrain_reference(self):
        history = [(0.95, 0.05), (0.95, 0.03), (0.95, 0.04)]
        prev = check_validation(history, small_config())
        assert prev == "fpr_increased"  # 0.04 > 0.03
        since = check_validation(
            history, small_config(fpr_trigger="since_retrain")
        )
        assert since is None  # 0.04 <= 0.05 baseline

    def test_prev_batch_reference_is_the_default(self):
        # 0.1 is below the previous batch's 0.2 but above the first's 0.0.
        history = [(0.95, 0.0), (0.95, 0.2), (0.95, 0.1)]
        assert check_validation(history, small_config()) is None
        since = small_config(fpr_trigger="since_retrain")
        assert check_validation(history, since) == "fpr_increased"

    def test_absent_fpr_never_fires(self):
        history = [(0.95, None), (0.95, None)]
        assert check_validation(history, small_config()) is None

    def test_empty_history_error(self):
        with pytest.raises(DriftLoopError):
            check_validation([], small_config())


class TestRunBatchPhase:
    def test_minimal_two_document_corpus(self):
        corpus_ = make_corpus([("spam", ["aa", "bb"]), ("legit", ["cc", "dd"])])
        state = run_batch_phase(corpus_, small_config(n=4))
        assert len(state.model.alphas) <= 2
        assert len(state.sv_documents) == len(state.model.alphas)

    def test_deterministic_states(self):
        corpus_ = separable_corpus()
        a = run_batch_phase(corpus_, small_config(n=8))
        b = run_batch_phase(corpus_, small_config(n=8))
        assert a.feature_set == b.feature_set
        assert a.model == b.model
        assert a.sv_documents == b.sv_documents

    @pytest.mark.parametrize("label", ["spam", "legit"])
    @pytest.mark.parametrize("selector, error, message", [
        ("tfdcr", features.FeatureError, "discriminative weights require both classes"),
        ("ig", features.FeatureError, "ig requires both classes"),
        ("igr", features.FeatureError, "igr requires both classes"),
        ("chi", svm.SvmError, "training requires both classes"),
        ("gini", svm.SvmError, "training requires both classes"),
        ("cfs", svm.SvmError, "training requires both classes"),
    ])
    def test_single_class_training_raises_a_named_error(
        self, selector, error, message, label
    ):
        training = make_corpus([(label, ["aa", "bb"]), (label, ["bb", "cc"])])
        config = small_config(n=5, selector=selector)
        with pytest.raises(error, match=message):
            run_batch_phase(training, config)

    def test_sv_documents_match_model(self):
        training = separable_corpus()
        state = run_batch_phase(training, small_config(n=8))
        model = state.model
        assert model.sv_indices
        assert state.sv_documents == tuple(training.documents[i] for i in model.sv_indices)
        assert model.sv_labels == tuple(
            1 if d.label == "spam" else -1 for d in state.sv_documents
        )
        for doc, sv in zip(state.sv_documents, model.sv_vectors):
            vector = features.vectorize_all([doc], state.feature_set)[0]
            assert vector.positions.tolist() == sv.positions.tolist()
            assert vector.weights.tolist() == sv.weights.tolist()


class TestEvaluateBatch:
    def test_training_data_consistency(self):
        corpus_ = separable_corpus()
        state = run_batch_phase(corpus_, small_config(n=8))
        record, misclassified, _, _ = evaluate_batch(state, corpus_)
        assert misclassified == []
        assert record.accuracy == 1.0

    def test_flipped_labels_complement(self):
        corpus_ = separable_corpus()
        state = run_batch_phase(corpus_, small_config(n=8))
        _, base_errors, _, _ = evaluate_batch(state, corpus_)
        flipped_docs = tuple(
            make_doc(
                d.arrival_index,
                "legitimate" if d.label == "spam" else "spam",
                d.tokens,
            )
            for d in corpus_.documents
        )
        flipped = LabeledCorpus(flipped_docs)
        _, flipped_errors, _, _ = evaluate_batch(state, flipped)
        assert len(flipped_errors) == len(corpus_.documents) - len(base_errors)

    def test_empty_vector_follows_bias_sign(self):
        corpus_ = separable_corpus()
        state = run_batch_phase(corpus_, small_config(n=8))
        unknown = LabeledCorpus((make_doc(99, "spam", ["zzz", "qqq"]),))
        record, _, _, _ = evaluate_batch(state, unknown)
        expected = 1 if state.model.bias > 0 else -1
        assert record.tp + record.fp + record.tn + record.fn == 1
        predicted_spam = record.tp + record.fp == 1
        assert predicted_spam == (expected == 1)

    @pytest.mark.parametrize("label, outcome", [("legit", "tn"), ("spam", "fn")])
    def test_zero_score_is_legitimate(self, label, outcome):
        # Only a positive score flags spam; a tie at exactly 0 lets the mail
        # through as legitimate.
        state = run_batch_phase(separable_corpus(), small_config(n=8))
        state = replace(state, model=replace(state.model, bias=0.0))
        unknown = LabeledCorpus((make_doc(99, label, ["zzz", "qqq"]),))
        record, _, scores, _ = evaluate_batch(state, unknown)
        assert scores == [0.0]
        assert getattr(record, outcome) == 1

    def test_empty_batch_error(self):
        state = run_batch_phase(separable_corpus(), small_config(n=8))
        with pytest.raises(DriftLoopError):
            evaluate_batch(state, LabeledCorpus(()))


class TestIncrementalRetrain:
    def _drifted_setup(self):
        stream = synth_drift(0, vocab_size=120, docs_per_phase=120, overlap=0.0)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=60)
        state = run_batch_phase(partition.training, config)
        return stream, partition, config, state

    def test_union_with_empty_mcm(self):
        _, partition, config, state = self._drifted_setup()
        batch = partition.test_batches[0]
        rtrem = build_retraining_set(state, [], batch)
        expected_ids = {d.id for d in state.sv_documents} | {
            d.id for d in batch.documents
        }
        assert {d.id for d in rtrem.documents} == expected_ids

    def test_union_bound(self):
        _, partition, config, state = self._drifted_setup()
        batch = partition.test_batches[0]
        _, misclassified, _, _ = evaluate_batch(state, batch)
        rtrem = build_retraining_set(state, misclassified, batch)
        bound = (
            len(state.sv_documents)
            + len(misclassified)
            + len(batch.documents)
        )
        assert len(rtrem.documents) <= bound

    def test_single_class_retraining_set_raises_a_named_error(self):
        corpus_ = separable_corpus()
        config = small_config(n=8)
        state = run_batch_phase(corpus_, config)
        spam_only = LabeledCorpus(tuple(
            make_doc(100 + i, "spam", ["badtok1", "badtok2"]) for i in range(4)
        ))
        state = replace(state, sv_documents=tuple(
            d for d in state.sv_documents if d.label == "spam"
        ))
        rtrem = build_retraining_set(state, [], spam_only)
        assert rtrem.n_legit == 0
        with pytest.raises(features.FeatureError, match="both classes"):
            incremental_retrain(state, rtrem, config)

    def test_dimension_kept_and_replacements_counted(self):
        _, partition, config, state = self._drifted_setup()
        batch = partition.test_batches[2]  # post-drift
        _, misclassified, _, _ = evaluate_batch(state, batch)
        rtrem = build_retraining_set(state, misclassified, batch)
        new_state, replaced = incremental_retrain(state, rtrem, config)
        assert len(new_state.feature_set) == len(state.feature_set)
        added = set(new_state.feature_set.terms) - set(state.feature_set.terms)
        assert replaced == len(added)

    def test_post_retrain_improves_violating_batch(self):
        _, partition, config, state = self._drifted_setup()
        batch = partition.test_batches[2]
        record, misclassified, _, _ = evaluate_batch(state, batch)
        assert record.accuracy < 0.9  # the drift really bites
        rtrem = build_retraining_set(state, misclassified, batch)
        new_state, _ = incremental_retrain(state, rtrem, config)
        post = evaluate_batch(new_state, batch)[0]
        assert post.accuracy > record.accuracy

    def test_new_svs_subset_of_retraining_set(self):
        _, partition, config, state = self._drifted_setup()
        batch = partition.test_batches[2]
        _, misclassified, _, _ = evaluate_batch(state, batch)
        rtrem = build_retraining_set(state, misclassified, batch)
        new_state, _ = incremental_retrain(state, rtrem, config)
        rtrem_ids = {d.id for d in rtrem.documents}
        assert {d.id for d in new_state.sv_documents} <= rtrem_ids


def scored_session(monkeypatch, *args):
    """`run_session(*args)`, and {batch index: (scores, truths)} of each
    batch's first `evaluate_batch` call, not the re-evaluation after a retrain."""
    first = {}
    evaluate = driftloop.evaluate_batch

    def recording(state, batch, index=0):
        result = evaluate(state, batch, index)
        first.setdefault(index, result[2:])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(driftloop, "evaluate_batch", recording)
        return run_session(*args), first


class TestRunSession:
    @pytest.mark.parametrize("mode", ["sideways", "INCREMENTAL", None])
    def test_unknown_mode_rejected_before_pass_one(self, monkeypatch, mode):
        def no_pass_one(*args):
            raise AssertionError("Pass I ran")

        monkeypatch.setattr(driftloop, "run_batch_phase", no_pass_one)
        partition = partition_stream(separable_corpus(), 1 / 3, 2)
        with pytest.raises(DriftLoopError, match=(
            rf"^mode must be one of \('batch', 'incremental'\), got {mode!r}$"
        )):
            run_session(partition, small_config(n=8), mode)

    def test_no_drift_no_retrain_and_reports_match(self):
        stream = synth_drift(1, vocab_size=120, docs_per_phase=120, overlap=1.0)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=60)
        batch_report = run_session(partition, config, "batch")
        incr_report = run_session(partition, config, "incremental")
        assert incr_report.events == ()
        assert batch_report.batches == incr_report.batches
        assert batch_report.final == incr_report.final
        assert batch_report.roc == incr_report.roc

    def test_drift_stream_recovers(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=80)
        batch_report = run_session(partition, config, "batch")
        incr_report = run_session(partition, config, "incremental")
        assert len(incr_report.events) >= 1
        assert incr_report.final.accuracy > batch_report.final.accuracy
        for event in incr_report.events:
            assert event.post_accuracy > event.pre_accuracy
            assert 0 < event.replaced_features
            assert event.retrain_size < event.cumulative_seen

    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("mode", ["batch", "incremental"])
    def test_roc_pools_each_batchs_first_scores(self, monkeypatch, mode, seed):
        # A session's ROC pools the scores that each batch got from the model
        # of its generation, before any retrain on it; a batch session has
        # one generation, an incremental one on this stream several.
        stream = synth_drift(seed, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        report, first = scored_session(monkeypatch, partition, small_config(n=80), mode)
        assert bool(report.events) == (mode == "incremental")
        assert sorted(first) == list(range(len(partition.test_batches)))
        scores = [s for k in sorted(first) for s in first[k][0]]
        truths = [t for k in sorted(first) for t in first[k][1]]
        assert report.roc == tuple(metrics.roc_points(scores, truths))
        assert (report.roc[0], report.roc[-1]) == ((0.0, 0.0), (1.0, 1.0))
        for (fpr, tpr), (next_fpr, next_tpr) in zip(report.roc, report.roc[1:]):
            assert fpr <= next_fpr and tpr <= next_tpr
        assert json.loads(report.to_json())["roc"] == [list(p) for p in report.roc]

    def test_cumulative_seen_counts_through_the_violating_batch(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        report = run_session(partition, small_config(n=80), "incremental")
        assert report.events
        sizes = [len(batch) for batch in partition.test_batches]
        for event in report.events:
            assert event.cumulative_seen == (
                len(partition.training) + sum(sizes[:event.batch_index + 1])
            )

    def test_retraining_set_holds_this_generations_misclassified_mail(self, monkeypatch):
        # Pass III retrains on the mail misclassified since the last retrain,
        # the support-vector documents and the violating batch; mail
        # misclassified in an earlier generation is not carried over.
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        calls = []
        build = driftloop.build_retraining_set

        def recording(state, misclassified, batch):
            rtrem = build(state, misclassified, batch)
            calls.append((state, batch, {d.id for d in rtrem.documents}))
            return rtrem

        monkeypatch.setattr(driftloop, "build_retraining_set", recording)
        report, first = scored_session(
            monkeypatch, partition, small_config(n=80), "incremental"
        )
        # Per batch, the ids of the mail its score put in the wrong class.
        wrong = []
        for k, batch in enumerate(partition.test_batches):
            outcomes = zip(batch.documents, *first[k])
            wrong.append({d.id for d, s, t in outcomes if (s > 0) != (t == 1)})
        assert len(calls) == len(report.events)
        start = earlier = stale = 0
        for (state, batch, rtrem), event in zip(calls, report.events):
            k = event.batch_index
            assert event.retrain_size == len(rtrem)
            assert set().union(*wrong[start:k + 1]) <= rtrem
            carriers = {d.id for d in state.sv_documents + batch.documents}
            older = set().union(*wrong[:start]) - carriers
            assert not older & rtrem
            earlier += len(set().union(*wrong[start:k]))
            stale += len(older)
            start = k + 1
        assert earlier > 0 and stale > 0

    def test_single_class_retraining_set_halts_the_session(self):
        # With C = 1e-12 no multiplier exceeds ALPHA_EPSILON: the model has no
        # support vectors and scores its bias, 0, so every mail is classed
        # legitimate. The all-spam first batch then fires the accuracy
        # trigger, and its retraining set holds spam only.
        config = DriftConfig(feature_dim=8, train_config=svm.TrainConfig(C=1e-12))
        spam = LabeledCorpus(tuple(
            make_doc(100 + i, "spam", ["badtok1", "badtok2"]) for i in range(4)
        ))
        mixed = LabeledCorpus((
            make_doc(104, "spam", ["badtok1"]), make_doc(105, "legit", ["goodtok1"]),
        ))
        partition = StreamPartition(separable_corpus(), (spam, mixed))
        report = run_session(partition, config, "incremental")
        assert report.halted == (
            "retraining set at batch 0 contains a single class "
            "(4 spam / 0 legitimate)"
        )
        assert len(report.batches) == 1  # the session stops at the halt
        assert report.batches[0].fn == 4
        assert report.events == ()
        # Only the all-spam batch was scored, so there is no ROC.
        assert report.roc is None
        row = cli._table_row("synth", report)
        assert row["halted"] == report.halted
        assert row["retrains"] == 0

    def test_batch_mode_invariant_to_rho(self):
        stream = synth_drift(2, vocab_size=120, docs_per_phase=100, overlap=0.3)
        partition = partition_stream(stream, 1 / 3, 4)
        low = run_session(partition, small_config(n=60, rho=0.5), "batch")
        high = run_session(partition, small_config(n=60, rho=0.95), "batch")
        assert low.to_json() == high.to_json()

    def test_feature_dimension_constant_across_generations(self, monkeypatch):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=80)
        feature_sets = []

        def observed_retrain(state, rtrem, config):
            new_state, replaced = incremental_retrain(state, rtrem, config)
            feature_sets.append((state.feature_set, new_state.feature_set))
            return new_state, replaced

        monkeypatch.setattr(driftloop, "incremental_retrain", observed_retrain)
        report = run_session(partition, config, "incremental")
        assert len(feature_sets) == len(report.events) >= 1
        dim0 = len(feature_sets[0][0])
        for _, after in feature_sets:
            assert len(after) == dim0
            terms = list(after.terms)
            assert len(terms) == len(set(terms))

    def test_determinism(self):
        stream = synth_drift(4, vocab_size=120, docs_per_phase=100, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 4)
        config = small_config(n=60)
        a = run_session(partition, config, "incremental")
        b = run_session(partition, config, "incremental")
        assert a.to_json() == b.to_json()

    def test_shared_pass_one_state_gives_the_same_reports(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=80)
        state = run_batch_phase(partition.training, config)
        for mode in ("incremental", "batch", "incremental"):
            shared = run_session(partition, config, mode, state)
            assert shared.to_json() == run_session(partition, config, mode).to_json()
        assert state == run_batch_phase(partition.training, config)

    @pytest.mark.parametrize("selector", ["tfdcr", "chi"])
    def test_reports_do_not_depend_on_interning_order(self, monkeypatch, selector):
        # Two copies of one stream whose terms differ only by a fresh prefix
        # of equal length, so every (weight, term) sort orders them alike.
        # The first copy is interned as it is built, in first-seen order; the
        # second copy's vocabulary, with extra terms, is interned before the
        # copy is built, in shuffled order.
        stream = synth_drift(6, vocab_size=160, docs_per_phase=150, overlap=0.2)
        config = small_config(n=60, selector=selector)

        def renamed(prefix):
            return LabeledCorpus(tuple(
                Document(d.id, d.label, tuple(prefix + t for t in d.tokens),
                         d.arrival_index)
                for d in stream.documents
            ))

        reports, scores = [], []
        for shuffled in (False, True):
            prefix = uuid.uuid4().hex + "-"
            if shuffled:
                vocabulary = sorted({prefix + t for d in stream.documents for t in d.tokens})
                vocabulary += [f"{prefix}extra{i}" for i in range(50)]
                random.Random(3).shuffle(vocabulary)
                TERMS.intern(vocabulary)
            copy = renamed(prefix)
            if shuffled:
                first_seen = list(dict.fromkeys(t for d in copy.documents for t in d.tokens))
                assert sorted(first_seen, key=TERMS.ids.__getitem__) != first_seen
            partition = partition_stream(copy, 1 / 3, 5)
            report, first = scored_session(
                monkeypatch, partition, config, "incremental"
            )
            reports.append(report)
            scores.append(first)
        assert reports[0].events
        assert scores[0] == scores[1]
        # The checksum digests the tokens, which carry different prefixes.
        assert reports[0].partition_checksum != reports[1].partition_checksum
        same = [replace(r, partition_checksum="").to_json() for r in reports]
        assert same[0] == same[1]

    # Metamorphic relations (Chen, Cheung & Yiu 1998): each transform of
    # every document leaves the session report alone but for the checksum,
    # which digests ids and tokens.
    @pytest.mark.parametrize("transform", [
        # Doubling a document's counts is exact in binary and cancels in its
        # L2-normalized vector, doubles every TFDCR weight exactly, and
        # leaves the selection rank weights alone.
        lambda d: replace(d, tokens=d.tokens * 2),
        # An order-preserving rename of every term: the (-weight, term)
        # tie-break orders the renamed terms as it did the originals.
        lambda d: replace(d, tokens=tuple("q" + t for t in d.tokens)),
        # A one-to-one rename of every document id, not order-preserving:
        # ids only name documents.
        lambda d: replace(d, id=d.id[::-1] + "~"),
    ], ids=["double_tokens", "prefix_terms", "rename_ids"])
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kernel, gamma", [("linear", None), ("rbf", 0.5)])
    def test_transform_keeps_the_report(self, monkeypatch, transform, seed, kernel, gamma):
        stream = synth_drift(seed, vocab_size=200, docs_per_phase=300)
        transformed = LabeledCorpus(tuple(map(transform, stream.documents)))
        config = DriftConfig(
            rho=0.9, feature_dim=60,
            train_config=svm.TrainConfig(C=1.0, kernel=kernel, gamma=gamma),
        )
        for mode in ("batch", "incremental"):
            reports, scores = zip(*(
                scored_session(monkeypatch, partition_stream(s, 1 / 3, 6), config, mode)
                for s in (stream, transformed)
            ))
            assert scores[0] == scores[1]
            if mode == "incremental":
                assert reports[0].events
            assert reports[0].partition_checksum != reports[1].partition_checksum
            same = [replace(r, partition_checksum="").to_json() for r in reports]
            assert same[0] == same[1]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kernel, gamma", [("linear", None), ("rbf", 0.5)])
    def test_unseen_test_term_keeps_the_batch_report(self, monkeypatch, seed, kernel, gamma):
        # A term that no training document holds is in no Pass-I feature set,
        # and batch mode never reselects, so adding it to every test document
        # changes no vector.
        stream = synth_drift(seed, vocab_size=200, docs_per_phase=300)
        partition = partition_stream(stream, 1 / 3, 6)
        unseen = "unseen"
        assert all(unseen not in d.tokens for d in partition.training.documents)
        extended = replace(partition, test_batches=tuple(
            LabeledCorpus(tuple(
                replace(d, tokens=d.tokens + (unseen,)) for d in batch.documents
            ))
            for batch in partition.test_batches
        ))
        config = DriftConfig(
            rho=0.9, feature_dim=60,
            train_config=svm.TrainConfig(C=1.0, kernel=kernel, gamma=gamma),
        )
        reports, scores = zip(*(
            scored_session(monkeypatch, p, config, "batch")
            for p in (partition, extended)
        ))
        assert scores[0] == scores[1]
        assert reports[0].partition_checksum != reports[1].partition_checksum
        same = [replace(r, partition_checksum="").to_json() for r in reports]
        assert same[0] == same[1]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kernel, gamma", [("linear", None), ("rbf", 0.5)])
    def test_label_swap_swaps_the_batch_report(self, seed, kernel, gamma):
        # Swapping spam and legitimate keeps every selector's terms; TFDCR,
        # chi and gini rank both classes alike, so they keep the order too
        # (ig, igr and cfs can reorder through last-ulp ties). With y -> -y
        # the dual objective and its constraint are unchanged, so the two
        # solves approach one optimum. A solve stops with every example
        # within the tolerance of its KKT condition, and each example then
        # adds at most C * tolerance to the duality gap: so each objective
        # lies within n * C * tolerance of the optimum. The tight tolerance
        # keeps a score near 0 from landing in the gap between the solves
        # and flipping one document's class.
        def swap(d):
            return replace(d, label="legitimate" if d.label == "spam" else "spam")

        stream = synth_drift(seed, vocab_size=200, docs_per_phase=300)
        partitions = [
            partition_stream(s, 1 / 3, 6)
            for s in (stream, LabeledCorpus(tuple(map(swap, stream.documents))))
        ]
        train_config = svm.TrainConfig(C=1.0, kernel=kernel, gamma=gamma, kkt_tolerance=1e-5)
        bound = len(partitions[0].training) * train_config.C * train_config.kkt_tolerance
        for selector in features.SELECTORS:
            config = DriftConfig(rho=0.9, feature_dim=60, train_config=train_config,
                                 selector=selector)
            states = [run_batch_phase(p.training, config) for p in partitions]
            terms, swapped_terms = (state.feature_set.terms for state in states)
            assert set(terms) == set(swapped_terms)
            if selector in ("tfdcr", "chi", "gini"):
                assert terms == swapped_terms
            objective, swapped_objective = (state.model.objective for state in states)
            assert abs(objective - swapped_objective) <= bound
            report, swapped = (
                run_session(p, config, "batch", state)
                for p, state in zip(partitions, states)
            )
            for record, other in zip(report.batches, swapped.batches, strict=True):
                assert (record.tp, record.fp, record.fpr) == (other.tn, other.fn, other.fnr)
                assert (record.tn, record.fn, record.fnr) == (other.tp, other.fp, other.fpr)

    def test_report_round_trip(self):
        # The session file loses nothing: its JSON rebuilds the report, and
        # the rebuilt report writes the same text.
        stream = synth_drift(4, vocab_size=120, docs_per_phase=100, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 4)
        report = run_session(partition, small_config(n=60), "incremental")
        assert report.events
        text = report.to_json()
        payload = json.loads(text)
        assert payload.pop("format") == driftloop.SESSION_FORMAT
        restored = driftloop.SessionReport(**{
            **payload,
            "batches": tuple(driftloop.BatchRecord(**b) for b in payload["batches"]),
            "events": tuple(
                driftloop.RetrainEvent(**e)
                for e in payload["events"]
            ),
            "final": metrics.MetricsReport(**payload["final"]),
            "roc": tuple(tuple(point) for point in payload["roc"]),
        })
        assert restored == report
        assert restored.to_json() == text


class TestPartitionChecksum:
    @staticmethod
    def _partition(seed):
        stream = synth_drift(seed, vocab_size=120, docs_per_phase=100, overlap=0.2)
        return partition_stream(stream, 1 / 3, 4)

    def test_seeds_with_equal_ids_and_labels_differ(self):
        a, b = self._partition(1000), self._partition(1001)
        # Only the tokens tell these partitions apart.
        for x, y in zip((a.training,) + a.test_batches, (b.training,) + b.test_batches):
            assert [(d.id, d.label) for d in x.documents] == [
                (d.id, d.label) for d in y.documents
            ]
        assert driftloop.partition_checksum(a) != driftloop.partition_checksum(b)

    def test_stable_and_sensitive_to_one_token(self):
        partition = self._partition(7)
        checksum = driftloop.partition_checksum(partition)
        assert driftloop.partition_checksum(self._partition(7)) == checksum
        doc = partition.test_batches[-1].documents[-1]
        changed = Document(doc.id, doc.label, doc.tokens[:-1] + ("other",),
                           doc.arrival_index)
        last = LabeledCorpus(partition.test_batches[-1].documents[:-1] + (changed,))
        edited = replace(partition, test_batches=partition.test_batches[:-1] + (last,))
        assert driftloop.partition_checksum(edited) != checksum


class TestDriftConfig:
    def test_rho_bounds(self):
        with pytest.raises(DriftLoopError, match="rho"):
            DriftConfig(rho=1.5)

    def test_selector_validated(self):
        with pytest.raises(DriftLoopError, match="selector"):
            DriftConfig(selector="pca")

    def test_feature_dim_at_least_one(self):
        with pytest.raises(DriftLoopError, match="feature_dim must be >= 1, got 0"):
            DriftConfig(feature_dim=0)
        # Unchecked, 2.5 fails later in heapq and True selects one term.
        for dim in (2.5, True, "80"):
            with pytest.raises(DriftLoopError, match="feature_dim must be an int"):
                DriftConfig(feature_dim=dim)

    @pytest.mark.parametrize("trigger", ["bogus", "PREV_BATCH", None])
    def test_unknown_fpr_trigger_rejected(self, trigger):
        # Unchecked, any value but "prev_batch" ran the since-retrain rule.
        with pytest.raises(DriftLoopError, match=(
            r"^fpr_trigger must be one of \('prev_batch', 'since_retrain'\), "
            f"got {trigger!r}$"
        )):
            DriftConfig(fpr_trigger=trigger)


def test_readme_library_example_runs(capsys):
    # The README's one `python` block, run as written.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
    accuracy, retrains = capsys.readouterr().out.split(" ", 1)
    assert 0.5 < float(accuracy) <= 1.0
    assert json.loads(retrains)  # the drifting stream triggers a retrain
