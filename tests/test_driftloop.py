import json
import random
import uuid
from dataclasses import replace

import pytest

from driftfilter import cli, driftloop, features, svm
from driftfilter.corpus import (
    TERMS, Document, Label, LabeledCorpus, StreamPartition, partition_stream,
    synth_drift,
)
from driftfilter.driftloop import (
    DriftConfig, DriftLoopError, FprTrigger, SessionMode, TriggerCause,
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
        assert cause is TriggerCause.ACCURACY_BELOW_RHO

    def test_accuracy_equal_rho_fires(self):
        cause = check_validation([(0.9, 0.0)], small_config())
        assert cause is TriggerCause.ACCURACY_BELOW_RHO

    def test_fpr_increase(self):
        history = [(0.95, 0.02), (0.95, 0.05)]
        assert check_validation(history, small_config()) is TriggerCause.FPR_INCREASED

    def test_single_batch_no_fire(self):
        assert check_validation([(0.95, 0.02)], small_config()) is None

    def test_accuracy_takes_precedence(self):
        history = [(0.95, 0.02), (0.85, 0.05)]
        cause = check_validation(history, small_config())
        assert cause is TriggerCause.ACCURACY_BELOW_RHO

    def test_since_retrain_reference(self):
        history = [(0.95, 0.05), (0.95, 0.03), (0.95, 0.04)]
        prev = check_validation(history, small_config())
        assert prev is TriggerCause.FPR_INCREASED  # 0.04 > 0.03
        since = check_validation(
            history, small_config(fpr_trigger=FprTrigger.SINCE_RETRAIN)
        )
        assert since is None  # 0.04 <= 0.05 baseline

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
            1 if d.label is Label.SPAM else -1 for d in state.sv_documents
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
                Label.LEGITIMATE if d.label is Label.SPAM else Label.SPAM,
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
            d for d in state.sv_documents if d.label is Label.SPAM
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


class TestRunSession:
    def test_no_drift_no_retrain_and_reports_match(self):
        stream = synth_drift(1, vocab_size=120, docs_per_phase=120, overlap=1.0)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=60)
        batch_report = run_session(partition, config, SessionMode.BATCH)
        incr_report = run_session(partition, config, SessionMode.INCREMENTAL)
        assert incr_report.events == ()
        assert batch_report.batches == incr_report.batches
        assert batch_report.final == incr_report.final
        assert batch_report.scores == incr_report.scores

    def test_drift_stream_recovers(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=80)
        batch_report = run_session(partition, config, SessionMode.BATCH)
        incr_report = run_session(partition, config, SessionMode.INCREMENTAL)
        assert len(incr_report.events) >= 1
        assert incr_report.final.accuracy > batch_report.final.accuracy
        for event in incr_report.events:
            assert event.post_accuracy > event.pre_accuracy
            assert 0 < event.replaced_features
            assert event.retrain_size < event.cumulative_seen

    def test_cumulative_seen_counts_through_the_violating_batch(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        report = run_session(partition, small_config(n=80), SessionMode.INCREMENTAL)
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
        report = run_session(partition, small_config(n=80), SessionMode.INCREMENTAL)
        # Per batch, the ids of the mail its score put in the wrong class.
        wrong, pos = [], 0
        for batch in partition.test_batches:
            outcomes = zip(batch.documents, report.scores[pos:], report.truths[pos:])
            wrong.append({d.id for d, s, t in outcomes if (s > 0) != (t == 1)})
            pos += len(batch)
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
        report = run_session(partition, config, SessionMode.INCREMENTAL)
        assert report.halted == (
            "retraining set at batch 0 contains a single class "
            "(4 spam / 0 legitimate)"
        )
        assert len(report.batches) == 1  # the session stops at the halt
        assert report.batches[0].fn == 4
        assert report.events == ()
        assert len(report.scores) == 4
        row = cli._table_row("synth", report)
        assert row["halted"] == report.halted
        assert row["retrains"] == 0

    def test_batch_mode_invariant_to_rho(self):
        stream = synth_drift(2, vocab_size=120, docs_per_phase=100, overlap=0.3)
        partition = partition_stream(stream, 1 / 3, 4)
        low = run_session(partition, small_config(n=60, rho=0.5), SessionMode.BATCH)
        high = run_session(partition, small_config(n=60, rho=0.95), SessionMode.BATCH)
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
        report = run_session(partition, config, SessionMode.INCREMENTAL)
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
        a = run_session(partition, config, SessionMode.INCREMENTAL)
        b = run_session(partition, config, SessionMode.INCREMENTAL)
        assert a.to_json() == b.to_json()

    def test_shared_pass_one_state_gives_the_same_reports(self):
        stream = synth_drift(0, vocab_size=160, docs_per_phase=150, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 5)
        config = small_config(n=80)
        state = run_batch_phase(partition.training, config)
        for mode in (SessionMode.INCREMENTAL, SessionMode.BATCH, SessionMode.INCREMENTAL):
            shared = run_session(partition, config, mode, state)
            assert shared.to_json() == run_session(partition, config, mode).to_json()
        assert state == run_batch_phase(partition.training, config)

    @pytest.mark.parametrize("selector", ["tfdcr", "chi"])
    def test_reports_do_not_depend_on_interning_order(self, selector):
        # Two copies of one stream whose terms differ only by a fresh prefix
        # of equal length, so every (weight, term) sort orders them alike.
        # The first copy is interned as the session meets its tokens; the
        # second copy's vocabulary, with extra terms, is interned up front
        # in shuffled order.
        stream = synth_drift(6, vocab_size=160, docs_per_phase=150, overlap=0.2)
        config = small_config(n=60, selector=selector)

        def renamed(prefix):
            return LabeledCorpus(tuple(
                Document(d.id, d.label, tuple(prefix + t for t in d.tokens),
                         d.arrival_index)
                for d in stream.documents
            ))

        reports = []
        for shuffled in (False, True):
            prefix = uuid.uuid4().hex + "-"
            copy = renamed(prefix)
            if shuffled:
                vocabulary = sorted({t for d in copy.documents for t in d.tokens})
                vocabulary += [f"{prefix}extra{i}" for i in range(50)]
                random.Random(3).shuffle(vocabulary)
                TERMS.intern(vocabulary)
                first_seen = list(dict.fromkeys(t for d in copy.documents for t in d.tokens))
                assert sorted(first_seen, key=TERMS.ids.__getitem__) != first_seen
            partition = partition_stream(copy, 1 / 3, 5)
            reports.append(run_session(partition, config, SessionMode.INCREMENTAL))
        assert reports[0].events
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
    def test_transform_keeps_the_report(self, transform, seed, kernel, gamma):
        stream = synth_drift(seed, vocab_size=200, docs_per_phase=300)
        transformed = LabeledCorpus(tuple(map(transform, stream.documents)))
        config = DriftConfig(
            rho=0.9, feature_dim=60,
            train_config=svm.TrainConfig(C=1.0, kernel=kernel, gamma=gamma),
        )
        for mode in (SessionMode.BATCH, SessionMode.INCREMENTAL):
            reports = [
                run_session(partition_stream(s, 1 / 3, 6), config, mode)
                for s in (stream, transformed)
            ]
            if mode is SessionMode.INCREMENTAL:
                assert reports[0].events
            assert reports[0].partition_checksum != reports[1].partition_checksum
            same = [replace(r, partition_checksum="").to_json() for r in reports]
            assert same[0] == same[1]

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("kernel, gamma", [("linear", None), ("rbf", 0.5)])
    def test_unseen_test_term_keeps_the_batch_report(self, seed, kernel, gamma):
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
        reports = [run_session(p, config, SessionMode.BATCH) for p in (partition, extended)]
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
            return replace(d, label=Label.LEGITIMATE if d.label is Label.SPAM else Label.SPAM)

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
                run_session(p, config, SessionMode.BATCH, state)
                for p, state in zip(partitions, states)
            )
            for record, other in zip(report.batches, swapped.batches, strict=True):
                assert (record.tp, record.fp, record.fpr) == (other.tn, other.fn, other.fnr)
                assert (record.tn, record.fn, record.fnr) == (other.tp, other.fp, other.fpr)

    def test_report_round_trip(self):
        stream = synth_drift(4, vocab_size=120, docs_per_phase=100, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 4)
        report = run_session(partition, small_config(n=60), SessionMode.INCREMENTAL)
        text = report.to_json()
        restored = driftloop.SessionReport.from_json(text)
        assert restored == report
        assert restored.to_json() == text

    def test_unknown_session_format_rejected(self):
        with pytest.raises(DriftLoopError, match="session format"):
            driftloop.SessionReport.from_json('{"format": "something-else"}')

    @pytest.mark.parametrize("edit", [
        lambda p: p.pop("final"),
        lambda p: p.update(extra=1),
        lambda p: p["events"].append({"cause": "no-such-cause"}),
    ], ids=["missing", "unknown", "ill_typed"])
    def test_malformed_session_rejected(self, edit):
        stream = synth_drift(4, vocab_size=120, docs_per_phase=100, overlap=0.2)
        partition = partition_stream(stream, 1 / 3, 4)
        payload = json.loads(run_session(partition, small_config(n=60),
                                         SessionMode.BATCH).to_json())
        edit(payload)
        with pytest.raises(DriftLoopError, match="malformed session report"):
            driftloop.SessionReport.from_json(json.dumps(payload))

    @pytest.mark.parametrize("text", ["not json", "[1]", '"text"'])
    def test_unreadable_session_rejected(self, text):
        with pytest.raises(DriftLoopError, match="malformed session report"):
            driftloop.SessionReport.from_json(text)


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
