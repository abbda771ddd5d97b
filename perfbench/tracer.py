"""Layer spans and counters for the traced benchmark run.

Wrappers are installed from outside around the public functions of the
driftfilter modules: every call records a span (name, start, end, parent)
in memory, and a few calls also feed counters. Nothing under `src/` is
changed; the program's own module-level lookups pick the wrappers up.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a `name` span per call; `count(tracer, result, *args)` after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span are
    disjoint intervals inside it.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans) -> dict[str, float]:
    """Summed self time per span name."""
    totals: defaultdict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


def inclusive_durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


# --- counters fed by the wrappers -------------------------------------------

def _count_loaded(t: Tracer, corpus, *args, **kwargs):
    t.counts["corpus.docs"] += len(corpus.documents)
    t.counts["corpus.tokens"] += sum(len(d.tokens) for d in corpus.documents)


def _count_stats(t: Tracer, counts, corpus, *args, **kwargs):
    t.counts["features.count_stats_calls"] += 1
    t.counts["features.count_tokens"] += sum(len(d.tokens) for d in corpus.documents)


def _count_scored(t: Tracer, result, counts, *args, **kwargs):
    t.counts["features.terms_scored"] += len(counts.counts)


def _count_baseline(t: Tracer, result, method, counts, *args, **kwargs):
    t.counts["features.terms_scored"] += len(counts.counts)


def _count_vectorize(t: Tracer, result, doc, fs, *args, **kwargs):
    t.counts["features.vectorize_calls"] += 1
    t.distinct["features.vectorize"].add((doc.id, fs.tag))


def _count_update(t: Tracer, result, *args, **kwargs):
    t.counts["features.replaced"] += result[1]


def _count_train(t: Tracer, model, vectors, labels, config, doc_ids=None, **kwargs):
    n = len(vectors)
    t.counts["svm.train_calls"] += 1
    t.counts["svm.train_examples"] += n
    t.counts["svm.max_train_n"] = max(t.counts["svm.max_train_n"], n)
    t.counts["svm.passes"] += model.passes
    t.counts["svm.sv"] += len(model.alphas)
    t.counts["svm.unconverged"] += not model.converged
    t.counts["svm.objective"] += model.objective
    # Document ids and the feature-set tag fix the vectors and labels.
    tag = vectors[0].feature_tag if vectors else None
    t.distinct["svm.train"].add((tuple(doc_ids or ()), tag, config))


def _count_scores(t: Tracer, scores, model, vectors, *args, **kwargs):
    t.counts["svm.score_vectors"] += len(scores)
    if model.config.kernel != "linear":
        t.counts["svm.kernel_evals"] += len(scores) * len(model.alphas)


def _count_evaluate(t: Tracer, result, *args, **kwargs):
    t.counts["driftloop.evaluate_calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions of driftfilter in `tracer` spans."""
    from driftfilter import cli, corpus, driftloop, features, metrics, porter, svm

    targets = (
        (corpus, "load_enron", "corpus.load", _count_loaded),
        (corpus, "synth_drift", "corpus.load", _count_loaded),
        (corpus, "preprocess_text", "corpus.preprocess", None),
        (features, "count_stats", "features.count_stats", _count_stats),
        (features, "select_top_n", "features.select", _count_scored),
        (features, "select_top_n_scored", "features.select", None),
        (features, "baseline_score", "features.select", _count_baseline),
        (features, "vectorize", "features.vectorize", _count_vectorize),
        (features, "update_feature_set", "features.update", _count_update),
        (svm, "train_smo", "svm.train", _count_train),
        (svm, "decision_scores", "svm.score", _count_scores),
        (driftloop, "run_batch_phase", "driftloop.batch_phase", None),
        (driftloop, "evaluate_batch", "driftloop.evaluate", _count_evaluate),
        (driftloop, "incremental_retrain", "driftloop.retrain", None),
        (driftloop, "partition_checksum", "driftloop.checksum", None),
        (metrics, "roc_points", "metrics.roc", None),
        (metrics, "write_roc_tsv", "cli.emit", None),
        (cli, "emit_report", "cli.emit", None),
        (driftloop.SessionReport, "to_json", "cli.emit", None),
    )
    for owner, attr, name, count in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    # Porter is counted, not timed: a span per call over ~1M calls would
    # distort the run. Its time lies inside corpus.preprocess.
    stem = porter.stem
    calls = tracer.counts
    words = tracer.distinct["porter.stem"]

    def counted_stem(word):
        calls["porter.stem_calls"] += 1
        words.add(word)
        return stem(word)

    porter.stem = counted_stem
