import math
import random
import uuid
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftfilter import features
from driftfilter.corpus import Document, Label, LabeledCorpus
from driftfilter.features import (
    CorpusCounts, FeatureCounts, FeatureError, FeatureSet, SparseVector,
    baseline_score, count_stats, select_top_n, select_top_n_scored,
    selection_rank_weight, tfdcr_weight, update_feature_set, vectorize,
    vectorize_all,
)

import oracles
from conftest import make_corpus, make_doc, random_corpus

# Terms from a tiny alphabet, so documents and feature sets overlap often.
_TERM_TEXT = st.text(alphabet="abxyé", min_size=1, max_size=3)


def _fresh(n):
    """n terms that no earlier code in this process can have interned."""
    return [f"fresh-{uuid.uuid4().hex}" for _ in range(n)]


def _counter_counts(corpus_):
    """count_stats by Counter over the token strings (the reference)."""
    tokens = {
        label: [d.tokens for d in corpus_.documents if d.label is label]
        for label in (Label.SPAM, Label.LEGITIMATE)
    }
    tf = {k: Counter(chain.from_iterable(v)) for k, v in tokens.items()}
    df = {k: Counter(chain.from_iterable(map(set, v))) for k, v in tokens.items()}
    spam, legit = Label.SPAM, Label.LEGITIMATE
    return {
        term: FeatureCounts(
            tf[spam][term], tf[legit][term], df[spam][term], df[legit][term]
        )
        for term in set(tf[spam]) | set(tf[legit])
    }


def _counter_vectorize(doc, fs):
    """vectorize by Counter over the token strings (the reference)."""
    index = {t: i for i, t in enumerate(fs.terms)}
    counts = Counter(map(index.get, filter(index.__contains__, doc.tokens)))
    norm = math.sqrt(sum(c * c for c in counts.values()))
    positions = sorted(counts)
    return positions, [counts[p] / norm for p in positions]


def _assert_matches_reference(docs, fs):
    vectors = vectorize_all(docs, fs)
    assert len(vectors) == len(docs)
    for doc, vec in zip(docs, vectors):
        positions, weights = _counter_vectorize(doc, fs)
        assert vec.positions.tolist() == positions
        assert vec.weights.tolist() == weights
        assert vec == SparseVector(positions, weights, fs.tag)
        assert vectorize(doc, fs) == vec


def _as_pairs(corpus_):
    return [
        ("spam" if d.label.value == "spam" else "legit", list(d.tokens))
        for d in corpus_.documents
    ]


class TestCountStats:
    def test_single_spam_doc(self):
        c = make_corpus([("spam", ["a", "a", "b"])])
        stats = count_stats(c)
        assert stats.counts["a"] == FeatureCounts(tf_spam=2, df_spam=1)
        assert stats.counts["b"] == FeatureCounts(tf_spam=1, df_spam=1)

    def test_duplicated_doc(self):
        c = make_corpus([("spam", ["a", "a", "b"]), ("spam", ["a", "a", "b"])])
        stats = count_stats(c)
        assert stats.counts["a"] == FeatureCounts(tf_spam=4, df_spam=2)

    def test_matches_naive_recount(self):
        rng = random.Random(77)
        for _ in range(25):
            c = random_corpus(rng)
            stats = count_stats(c)
            per_term, n_s, n_l = oracles.naive_stats(_as_pairs(c))
            assert stats.n_spam == n_s
            assert stats.n_legit == n_l
            assert set(stats.counts) == set(per_term)
            for term, (tf_s, tf_l, df_s, df_l) in per_term.items():
                fc = stats.counts[term]
                assert (fc.tf_spam, fc.tf_legit, fc.df_spam, fc.df_legit) == (
                    tf_s, tf_l, df_s, df_l,
                )

    @given(st.lists(st.tuples(
        st.sampled_from(list(Label)), st.lists(_TERM_TEXT, max_size=30),
    ), max_size=12))
    def test_equals_counter_reference(self, spec):
        c = LabeledCorpus(tuple(
            make_doc(i, label, tokens + _fresh(i % 2))
            for i, (label, tokens) in enumerate(spec)
        ))
        if c.n_spam + c.n_legit == 0:
            with pytest.raises(FeatureError, match="no labeled"):
                count_stats(c)
            return
        stats = count_stats(c)
        assert stats.counts == _counter_counts(c)
        assert (stats.n_spam, stats.n_legit) == (c.n_spam, c.n_legit)
        for fc in stats.counts.values():
            fields = (fc.tf_spam, fc.tf_legit, fc.df_spam, fc.df_legit)
            assert all(type(v) is int for v in fields)


class TestTfdcrWeight:
    def test_hand_example(self):
        fc = FeatureCounts(tf_spam=5, tf_legit=1, df_spam=2, df_legit=1)
        assert tfdcr_weight(fc, 2, 2) == 8.0

    def test_equal_frequencies_zero(self):
        fc = FeatureCounts(tf_spam=3, tf_legit=3, df_spam=2, df_legit=1)
        assert tfdcr_weight(fc, 4, 4) == 0.0

    def test_smoothed_exclusive(self):
        fc = FeatureCounts(tf_spam=4, tf_legit=0, df_spam=2, df_legit=0)
        assert tfdcr_weight(fc, 2, 2) == 16.0

    def test_nonnegative_and_product_at_least_one_when_unsmoothed(self):
        rng = random.Random(5)
        for _ in range(300):
            ns, nl = rng.randint(1, 30), rng.randint(1, 30)
            df_s, df_l = rng.randint(1, ns), rng.randint(1, nl)
            tf_s = rng.randint(df_s, df_s * 5)
            tf_l = rng.randint(df_l, df_l * 5)
            fc = FeatureCounts(tf_s, tf_l, df_s, df_l)
            weight = tfdcr_weight(fc, ns, nl)
            assert weight >= 0.0
            delta = abs(tf_s - tf_l)
            if delta:
                # both document frequencies positive: the branch picks the
                # ratio >= 1 side, so weight >= |tf difference|
                assert weight >= delta - 1e-12

    def test_exclusive_features_ordered_by_tf_difference(self):
        # equal ratios, zero df on the other side: ordering by tf delta
        weights = []
        for tf in (2, 5, 9):
            fc = FeatureCounts(tf_spam=tf, tf_legit=0, df_spam=2, df_legit=0)
            weights.append(tfdcr_weight(fc, 4, 4))
        assert weights == sorted(weights)


class TestSelectTopN:
    def test_tie_break_lexicographic(self):
        counts = CorpusCounts(
            counts={
                "bb": FeatureCounts(5, 1, 2, 1),
                "aa": FeatureCounts(5, 1, 2, 1),
                "cc": FeatureCounts(3, 3, 1, 1),
            },
            n_spam=2, n_legit=2,
        )
        fs = select_top_n(counts, 3)
        assert fs.terms == ("aa", "bb", "cc")
        assert tfdcr_weight(counts.counts["cc"], 2, 2) == 0.0

    def test_single_top(self):
        counts = CorpusCounts(
            counts={
                "aa": FeatureCounts(9, 0, 2, 0),
                "bb": FeatureCounts(1, 1, 1, 1),
            },
            n_spam=2, n_legit=2,
        )
        fs = select_top_n(counts, 1)
        assert fs.terms == ("aa",)

    def test_vocabulary_smaller_than_n(self):
        counts = CorpusCounts(
            counts={"aa": FeatureCounts(2, 1, 1, 1)}, n_spam=1, n_legit=1
        )
        fs = select_top_n(counts, 50)
        assert len(fs) == 1

    def test_matches_naive_sort_oracle(self):
        rng = random.Random(123)
        for _ in range(20):
            c = random_corpus(rng, max_docs=40, max_terms=200)
            stats = count_stats(c)
            fs = select_top_n(stats, 50)
            expected = oracles.naive_top_n(_as_pairs(c), 50)
            assert list(fs.terms) == [t for t, _ in expected]
            for term, (_, weight) in zip(fs.terms, expected):
                got = tfdcr_weight(stats.counts[term], stats.n_spam, stats.n_legit)
                assert abs(got - weight) <= 1e-12

    def test_duplication_ranking_invariance(self):
        # every term occurs in both classes, so no smoothing is involved and
        # concatenating the corpus with itself scales every weight by k
        rng = random.Random(9)
        base = [
            ("spam", ["alpha", "beta", "beta", "gamma"]),
            ("legit", ["alpha", "gamma", "gamma", "delta"]),
            ("spam", ["delta", "beta", "alpha"]),
            ("legit", ["beta", "delta", "alpha", "alpha"]),
        ]
        for k in (2, 3):
            single = make_corpus(base)
            repeated = make_corpus(base * k)
            stats1, statsk = count_stats(single), count_stats(repeated)
            fs1 = select_top_n(stats1, 4)
            fsk = select_top_n(statsk, 4)
            assert fs1.terms == fsk.terms
            for term in fs1.terms:
                w1 = tfdcr_weight(stats1.counts[term], stats1.n_spam, stats1.n_legit)
                wk = tfdcr_weight(statsk.counts[term], statsk.n_spam, statsk.n_legit)
                if w1:
                    assert abs(wk / w1 - k) <= 1e-12


class TestDocumentDoubling:
    def test_doubling_every_document(self):
        # A copy of every document, under a fresh id, doubles each count and
        # both class sizes. Each relation below is exact in binary: the
        # ratios are unchanged, and a weight or score gains a power of two.
        # TFDCR doubles a shared term's weight but quadruples a
        # class-exclusive term's, whose zero df is replaced by the constant
        # 0.5 while the other factors double; the baselines read only df
        # ratios, and chi also scales with N.
        rng = random.Random(26)
        seen = Counter()
        for _ in range(30):
            single = random_corpus(rng, max_docs=20, max_terms=30)
            n = len(single.documents)
            doubled = LabeledCorpus(single.documents + tuple(
                Document(f"copy-{d.id}", d.label, d.tokens, d.arrival_index + n)
                for d in single.documents
            ))
            once, twice = count_stats(single), count_stats(doubled)
            assert (twice.n_spam, twice.n_legit) == (2 * once.n_spam, 2 * once.n_legit)
            for term, fc in once.counts.items():
                exclusive = fc.df_spam == 0 or fc.df_legit == 0
                seen[exclusive] += 1
                factor = 4 if exclusive else 2
                assert tfdcr_weight(twice.counts[term], twice.n_spam, twice.n_legit) == (
                    factor * tfdcr_weight(fc, once.n_spam, once.n_legit)
                )
            for method in ("ig", "gini", "igr", "cfs"):
                assert baseline_score(method, twice) == baseline_score(method, once)
            chi = baseline_score("chi", once)
            assert baseline_score("chi", twice) == {t: 2 * v for t, v in chi.items()}
        assert seen[True] and seen[False]


class TestSelectionRankWeight:
    def test_zero_when_frequencies_equal(self):
        fc = FeatureCounts(tf_spam=4, tf_legit=4, df_spam=3, df_legit=1)
        assert selection_rank_weight(fc, 4, 4) == 0.0

    def test_spam_only(self):
        fc = FeatureCounts(tf_spam=7, tf_legit=0, df_spam=3, df_legit=0)
        assert selection_rank_weight(fc, 4, 4) == 0.75

    def test_mixed(self):
        fc = FeatureCounts(tf_spam=6, tf_legit=2, df_spam=2, df_legit=1)
        assert selection_rank_weight(fc, 4, 4) == 0.125

    def test_bounds_and_symmetry(self):
        rng = random.Random(8)
        for _ in range(300):
            ns, nl = rng.randint(1, 20), rng.randint(1, 20)
            df_s, df_l = rng.randint(0, ns), rng.randint(0, nl)
            tf_s = rng.randint(df_s, df_s * 4) if df_s else 0
            tf_l = rng.randint(df_l, df_l * 4) if df_l else 0
            if tf_s + tf_l == 0:
                continue
            fc = FeatureCounts(tf_s, tf_l, df_s, df_l)
            swapped = FeatureCounts(tf_l, tf_s, df_l, df_s)
            value = selection_rank_weight(fc, ns, nl)
            assert 0.0 <= value <= 1.0
            assert value == selection_rank_weight(swapped, nl, ns)


class TestBaselines:
    def test_perfect_association_maximal_chi(self):
        c = make_corpus([
            ("spam", ["win", "cash"]), ("spam", ["win", "prize"]),
            ("legit", ["meeting", "cash"]), ("legit", ["meeting", "notes"]),
        ])
        scores = baseline_score("chi", count_stats(c))
        assert scores["win"] == max(scores.values())
        assert scores["meeting"] == scores["win"]  # equally perfect, other class

    def test_identical_distribution_zero_ig(self):
        c = make_corpus([
            ("spam", ["both", "s1"]), ("spam", ["s2"]),
            ("legit", ["both", "l1"]), ("legit", ["l2"]),
        ])
        scores = baseline_score("ig", count_stats(c))
        assert abs(scores["both"]) <= 1e-15

    @pytest.mark.parametrize("method", features.BASELINE_METHODS)
    def test_matches_contingency_oracle(self, method):
        rng = random.Random(sum(map(ord, method)))
        for _ in range(20):
            c = random_corpus(rng, max_docs=20, max_terms=30)
            scores = baseline_score(method, count_stats(c))
            pairs = _as_pairs(c)
            for term, score in scores.items():
                expected = oracles.naive_baseline(pairs, term, method)
                assert abs(score - expected) <= 1e-9

    def test_unsupported_method(self):
        c = make_corpus([("spam", ["a1"]), ("legit", ["b1"])])
        with pytest.raises(FeatureError, match="unsupported"):
            baseline_score("mrmr", count_stats(c))

    def test_ig_single_class_error(self):
        c = make_corpus([("spam", ["a1"]), ("spam", ["b1"])])
        with pytest.raises(FeatureError, match="both classes"):
            baseline_score("ig", count_stats(c))


class TestVectorize:
    def _fs(self, *terms):
        return FeatureSet(terms)

    def test_weights(self):
        fs = self._fs("a", "b")
        doc = make_doc(0, "spam", ["a", "a", "b"])
        vec = vectorize(doc, fs)
        norm = math.sqrt(5)
        assert oracles.entries(vec) == ((0, 2 / norm), (1, 1 / norm))

    def test_no_selected_terms(self):
        fs = self._fs("a", "b")
        doc = make_doc(0, "spam", ["zz", "yy"])
        assert oracles.entries(vectorize(doc, fs)) == ()

    def test_unit_norm_property(self):
        rng = random.Random(4)
        fs = self._fs(*(f"t{i}" for i in range(20)))
        for i in range(100):
            tokens = [f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 40))]
            vec = vectorize(make_doc(i, "spam", tokens), fs)
            if oracles.entries(vec):
                assert abs(math.sqrt(sum(w * w for w in vec.weights)) - 1.0) <= 1e-12

    def test_positions_strictly_increasing(self):
        fs = self._fs("c", "a", "b")
        doc = make_doc(0, "spam", ["b", "c", "a", "b"])
        positions = [p for p, _ in oracles.entries(vectorize(doc, fs))]
        assert positions == sorted(set(positions))

    def test_deterministic(self):
        fs = self._fs("a", "b")
        doc = make_doc(0, "spam", ["a", "b", "a"])
        assert vectorize(doc, fs) == vectorize(doc, fs)

    @given(
        st.lists(_TERM_TEXT, min_size=1, max_size=12, unique=True),
        st.lists(st.lists(_TERM_TEXT, max_size=40), max_size=8),
        st.integers(0, 3),
    )
    def test_batch_equals_counter_reference(self, terms, token_lists, n_fresh):
        # The set's own fresh terms are interned by the set; the documents'
        # other fresh terms only after it, so their ids lie beyond its lookup.
        own = _fresh(n_fresh)
        fs = self._fs(*terms, *own)
        later = _fresh(n_fresh)
        docs = [
            make_doc(i, "spam", tokens + own[: i % 3] + later[: i % 2] * 2)
            for i, tokens in enumerate(token_lists)
        ]
        _assert_matches_reference(docs, fs)

    def test_loaded_set_with_unseen_terms(self):
        # The set's terms are interned by the set itself, not by any document.
        unseen = _fresh(4)
        fs = FeatureSet((*unseen, "a"))
        docs = [
            make_doc(0, "spam", [unseen[2], "a", unseen[2], "zz"]),
            make_doc(1, "legit", [unseen[0]] + _fresh(2)),
            make_doc(2, "legit", ["zz"]),
        ]
        _assert_matches_reference(docs, fs)
        assert oracles.entries(vectorize_all(docs, fs)[2]) == ()

    def test_empty_documents(self):
        fs = self._fs("a", "b")
        assert vectorize_all([], fs) == []
        vectors = vectorize_all([make_doc(0, "spam", []), make_doc(1, "spam", ["b"])], fs)
        assert oracles.entries(vectors[0]) == ()
        assert oracles.entries(vectors[1]) == ((1, 1.0),)

    def test_empty_feature_set_rejected(self):
        fs = FeatureSet(())
        doc = make_doc(0, "spam", ["a"])
        with pytest.raises(FeatureError, match="empty feature set"):
            vectorize_all([doc], fs)
        with pytest.raises(FeatureError, match="empty feature set"):
            vectorize(doc, fs)


class TestSparseVector:
    def test_constructor_checks_each_vector(self):
        with pytest.raises(FeatureError, match="strictly increasing"):
            SparseVector([1, 1], [0.5, 0.5])
        with pytest.raises(FeatureError, match="zero weights"):
            SparseVector([0, 1], [0.5, 0.0])
        with pytest.raises(FeatureError, match="length"):
            SparseVector([0, 1], [0.5])
        with pytest.raises(FeatureError, match="positions must be >= 0, got -1"):
            SparseVector([-1, 0], [1.0, 0.5])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(FeatureError, match="weights must be finite"):
                SparseVector([0, 3], [0.5, bad])

    def test_arrays_are_read_only(self):
        vec = vectorize(make_doc(0, "spam", ["a"]), TestVectorize()._fs("a"))
        with pytest.raises(ValueError):
            vec.weights[0] = 2.0

    def test_equality_and_hash(self):
        a = SparseVector([0, 2], [0.6, 0.8], "t")
        assert a == SparseVector(np.array([0, 2]), (0.6, 0.8), "t")
        with pytest.raises(TypeError):  # equal by value, so not hashable
            hash(a)
        assert a != SparseVector([0, 2], [0.6, 0.8], "u")
        assert a != SparseVector([0, 1], [0.6, 0.8], "t")
        assert oracles.entries(a) == ((0, 0.6), (2, 0.8))

    def test_not_equal_to_other_types(self):
        assert (SparseVector([0], [1.0]) == 1) is False


def _terms(fs):
    return set(fs.terms)


class TestUpdateFeatureSet:
    def _fs_from(self, corpus_, n):
        return select_top_n(count_stats(corpus_), n)

    def test_equal_rank_weights_no_replacement(self):
        # two newcomers with identical selection rank weights: neither
        # strictly exceeds the mean
        old = make_corpus([
            ("spam", ["olds1", "olds2"]), ("legit", ["oldl1", "oldl2"]),
        ])
        fs = self._fs_from(old, 4)
        retrain = make_corpus([
            ("spam", ["olds1", "olds2", "new1", "new2"]),
            ("legit", ["oldl1", "oldl2"]),
        ])
        # all six terms weigh 2, so the term order makes both newcomers candidates
        assert {"new1", "new2"} <= _terms(select_top_n(count_stats(retrain), 4))
        fs_new, replaced = update_feature_set(fs, retrain)
        assert replaced == 0
        assert _terms(fs_new) == _terms(fs)

    def test_hand_trace(self):
        # newcomer rank weights 0.75 and 0.125; mean 0.4375 admits only the
        # first, evicting the single lowest-weight incumbent
        incumbent_terms = ("olds1", "olds2", "olds3", "oldl1", "oldl2", "oldl3")
        old = make_corpus([
            ("spam", ["olds1", "olds1", "olds2", "olds3"]),
            ("legit", ["oldl1", "oldl1", "oldl2", "oldl3"]),
        ])
        fs = self._fs_from(old, 6)
        assert _terms(fs) == set(incumbent_terms)
        retrain = make_corpus([
            ("spam", ["new1", "new1", "new1", "new2", "new2", "new2", "olds1"]),
            ("spam", ["new1", "new1", "new2", "new2", "new2", "olds2"]),
            ("spam", ["new1", "new1", "olds1"]),
            ("spam", ["olds1", "olds1", "olds3", "olds3"]),
            ("legit", ["new2", "new2", "oldl1"]),
            ("legit", ["oldl1", "oldl2"]),
            ("legit", ["oldl2", "oldl2"]),
            ("legit", ["oldl1", "oldl3", "oldl3"]),
        ])
        stats = count_stats(retrain)
        assert selection_rank_weight(stats.counts["new1"], 4, 4) == 0.75
        assert selection_rank_weight(stats.counts["new2"], 4, 4) == 0.125
        # both newcomers are among the top len(fs) = 6 of the 8 terms
        candidates = select_top_n(stats, len(fs))
        assert {"new1", "new2"} <= _terms(candidates)
        fs_new, replaced = update_feature_set(fs, retrain)
        assert replaced == 1
        assert "new1" in _terms(fs_new)
        assert "new2" not in _terms(fs_new)
        assert len(fs_new) == len(fs)
        # the evicted incumbent is the one with the lowest refreshed weight
        incumbents = {
            term: tfdcr_weight(stats.counts[term], 4, 4) for term in incumbent_terms
        }
        evicted = _terms(fs) - _terms(fs_new)
        assert evicted == {min(incumbents, key=lambda t: (incumbents[t], t))}

    def test_dimension_preserved_no_duplicates(self):
        rng = random.Random(31)
        for _ in range(10):
            old = random_corpus(rng, max_docs=20, max_terms=40)
            retrain = random_corpus(rng, max_docs=20, max_terms=60)
            n = 10
            try:
                fs = self._fs_from(old, n)
            except FeatureError:
                continue
            fs_new, replaced = update_feature_set(fs, retrain)
            assert len(fs_new) == len(fs)
            terms = fs_new.terms
            assert len(terms) == len(set(terms))
            assert replaced == len(set(terms) - _terms(fs))

    def test_empty_dnfs_refreshes_weights(self):
        old = make_corpus([
            ("spam", ["aa", "bb"]), ("legit", ["cc", "dd"]),
        ])
        fs = self._fs_from(old, 4)
        retrain = make_corpus([
            ("spam", ["aa", "aa", "bb"]), ("legit", ["cc", "dd", "dd"]),
        ])
        fs_new, replaced = update_feature_set(fs, retrain)
        assert replaced == 0
        assert _terms(fs_new) == _terms(fs)
        # ordered by the refreshed weights: aa and dd 4, bb and cc 2
        stats = count_stats(retrain)
        assert fs_new.terms == ("aa", "dd", "bb", "cc")
        assert list(fs_new.terms) == sorted(
            fs.terms, key=lambda t: (-tfdcr_weight(stats.counts[t], 2, 2), t)
        )


class TestFeatureSet:
    def test_duplicate_terms_rejected(self):
        with pytest.raises(FeatureError, match="duplicate"):
            FeatureSet(("a", "a"))


class TestSelectTopNScored:
    def test_orders_by_score(self):
        fs = select_top_n_scored({"a": 0.5, "b": 2.0, "c": 1.0}, 2)
        assert fs.terms == ("b", "c")

    def test_n_at_least_one(self):
        with pytest.raises(FeatureError, match="n must be >= 1, got 0"):
            select_top_n_scored({"a": 0.5}, n=0)
