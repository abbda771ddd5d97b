"""Feature statistics, discriminative-weight scoring, selection and update.

The primary scorer weights a term by its raw occurrence difference between
classes times a category-ratio product; five classic document-frequency
selectors (ig, chi, gini, igr, cfs) are provided for comparison runs.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import TERMS, Document, LabeledCorpus

logger = logging.getLogger(__name__)

BASELINE_METHODS = ("ig", "chi", "gini", "igr", "cfs")
SELECTORS = ("tfdcr",) + BASELINE_METHODS


class FeatureError(Exception):
    """Raised for degenerate inputs to scoring or selection."""


@dataclass(frozen=True)
class FeatureCounts:
    """Raw per-term class statistics: total occurrences and document counts."""

    tf_spam: int = 0
    tf_legit: int = 0
    df_spam: int = 0
    df_legit: int = 0


@dataclass(frozen=True)
class CorpusCounts:
    counts: dict[str, FeatureCounts]
    n_spam: int
    n_legit: int


@dataclass(frozen=True)
class FeatureSet:
    """Selected terms in feature-position order, with an id -> position lookup.

    `lookup[i]` is the position of the term with `TERMS` id `i`, or
    -1; the set's own terms are interned first, so an id at or beyond
    `len(lookup)` is not in the set.
    """

    terms: tuple[str, ...]
    tag: str = field(init=False, repr=False, compare=False)
    lookup: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise FeatureError("duplicate terms in feature set")
        digest = hashlib.sha1("\n".join(self.terms).encode("utf-8")).hexdigest()
        ids = TERMS.intern(self.terms)
        lookup = np.full(int(ids.max()) + 1 if len(ids) else 0, -1, dtype=np.intp)
        lookup[ids] = np.arange(len(ids))
        lookup.flags.writeable = False
        object.__setattr__(self, "tag", digest)
        object.__setattr__(self, "lookup", lookup)

    def __len__(self) -> int:
        return len(self.terms)


def _check_entries(keys: np.ndarray, weights: np.ndarray) -> None:
    if len(keys) != len(weights):
        raise FeatureError("positions and weights differ in length")
    if np.any(keys[1:] <= keys[:-1]):
        raise FeatureError("entry positions must be strictly increasing")
    if len(keys) and keys[0] < 0:
        raise FeatureError(f"entry positions must be >= 0, got {keys[0]}")
    if np.any(weights == 0.0):
        raise FeatureError("zero weights must not be stored")
    if not np.isfinite(weights).all():
        raise FeatureError("weights must be finite")


@dataclass(frozen=True, eq=False)
class SparseVector:
    """L2-normalized sparse document vector over a feature set.

    `positions` (strictly increasing) and `weights` (no stored zeros) are
    parallel read-only arrays; `feature_tag` identifies the feature set the
    positions refer to.
    """

    positions: np.ndarray
    weights: np.ndarray
    feature_tag: str | None = None

    def __post_init__(self):
        positions = np.array(self.positions, dtype=np.intp).reshape(-1)
        weights = np.array(self.weights, dtype=float).reshape(-1)
        _check_entries(positions, weights)
        positions.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def _trusted(cls, positions, weights, feature_tag):
        # For entries already checked by the caller (see vectorize_all).
        vec = object.__new__(cls)
        object.__setattr__(vec, "positions", positions)
        object.__setattr__(vec, "weights", weights)
        object.__setattr__(vec, "feature_tag", feature_tag)
        return vec

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.feature_tag == other.feature_tag
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.weights, other.weights)
        )


def _token_ids(docs):
    """(row, id) arrays over every token of `docs`, row = index in `docs`."""
    arrays = [d.term_ids for d in docs]
    rows = np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])
    ids = np.concatenate(arrays) if arrays else np.zeros(0, dtype=np.int32)
    return rows, ids


def count_stats(corpus: LabeledCorpus) -> CorpusCounts:
    """Exact term and document occurrence counts per class.

    An empty corpus is an error.
    """
    n_spam = corpus.n_spam
    n_legit = corpus.n_legit
    if n_spam + n_legit == 0:
        raise FeatureError("corpus has no labeled documents")
    classes = [
        _token_ids([d for d in corpus.documents if d.label == label])
        for label in ("spam", "legitimate")
    ]
    width = len(TERMS)
    columns = []
    for rows, ids in classes:
        columns.append(np.bincount(ids, minlength=width))
        # df counts each distinct (document, id) key once; a sort finds them
        # faster than numpy 2's hashing `np.unique` does.
        keys = np.sort(rows * width + ids)
        distinct = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
        columns.append(np.bincount(distinct % width, minlength=width))
    tf_spam, df_spam, tf_legit, df_legit = columns
    present = np.flatnonzero(tf_spam + tf_legit)
    terms = TERMS.terms
    counts = {
        terms[i]: FeatureCounts(ts, tl, ds, dl)
        for i, ts, tl, ds, dl in zip(
            present.tolist(), tf_spam[present].tolist(), tf_legit[present].tolist(),
            df_spam[present].tolist(), df_legit[present].tolist(),
        )
    }
    return CorpusCounts(counts=counts, n_spam=n_spam, n_legit=n_legit)


def tfdcr_weight(fc: FeatureCounts, n_spam: int, n_legit: int) -> float:
    """Discriminative weight: |tf difference| times the category-ratio product.

    The product divides the larger of the two document-frequency ratios by
    the smaller, expressed as (df/N of the dominant class) * (N/df of the
    other class); a zero document frequency appearing in a denominator is
    replaced by 0.5 so class-exclusive terms get a large finite weight
    ordered by their occurrence difference.
    """
    delta = abs(fc.tf_spam - fc.tf_legit)
    if fc.df_spam / n_spam > fc.df_legit / n_legit:
        denom = fc.df_legit if fc.df_legit > 0 else 0.5
        product = (fc.df_spam / n_spam) * (n_legit / denom)
    else:
        denom = fc.df_spam if fc.df_spam > 0 else 0.5
        product = (fc.df_legit / n_legit) * (n_spam / denom)
    return delta * product


def selection_rank_weight(fc: FeatureCounts, n_spam: int, n_legit: int) -> float:
    """Category-ratio difference times normalized occurrence difference.

    Ranks candidate features during an incremental update; always in [0, 1]
    and symmetric in the two class roles.
    """
    ratio_diff = abs(fc.df_spam / n_spam - fc.df_legit / n_legit)
    tf_total = fc.tf_spam + fc.tf_legit
    return ratio_diff * abs(fc.tf_spam - fc.tf_legit) / tf_total


def select_top_n(counts: CorpusCounts, n: int) -> FeatureSet:
    """Top-n features by discriminative weight (see `select_top_n_scored`)."""
    if counts.n_spam == 0 or counts.n_legit == 0:
        raise FeatureError("discriminative weights require both classes present")
    return select_top_n_scored(
        {
            term: tfdcr_weight(fc, counts.n_spam, counts.n_legit)
            for term, fc in counts.counts.items()
        },
        n,
    )


def select_top_n_scored(scores: dict[str, float], n: int) -> FeatureSet:
    """Top-n features of a term -> score map, ties broken by term.

    When the vocabulary is smaller than n the feature set takes the
    vocabulary size as its dimensionality.
    """
    if n < 1:
        raise FeatureError(f"n must be >= 1, got {n}")
    if len(scores) < n:
        logger.info(
            "vocabulary %d smaller than requested dimensionality %d",
            len(scores), n,
        )
    ranked = heapq.nsmallest(n, scores, key=lambda t: (-scores[t], t))
    return FeatureSet(tuple(ranked))


def _entropy(probabilities) -> float:
    return -sum(p * math.log2(p) for p in probabilities if p > 0)


def _mutual_information(a, b, c, d, total) -> float:
    # a..d are the present/absent x spam/legit document contingency cells.
    info = 0.0
    for joint, row, col in (
        (a, a + b, a + c),
        (b, a + b, b + d),
        (c, c + d, a + c),
        (d, c + d, b + d),
    ):
        if joint > 0:
            info += (joint / total) * math.log2(joint * total / (row * col))
    return info


def baseline_score(method: str, counts: CorpusCounts) -> dict[str, float]:
    """Score every term with one of the classic selectors.

    All five use the document-frequency contingency table
    (a=df_spam, b=df_legit, c=n_spam-a, d=n_legit-b, N=n_spam+n_legit):

    - ig:   information gain, the mutual information between term presence
            and the class, sum over cells of P(e,c)*log2(P(e,c)/(P(e)P(c)))
    - chi:  chi-square statistic N*(ad-cb)^2 / ((a+b)(c+d)(a+c)(b+d))
    - gini: gini index P(t|s)^2*P(s|t)^2 + P(t|l)^2*P(l|t)^2
    - igr:  ig divided by the split entropy of term presence
    - cfs:  symmetrical uncertainty 2*ig / (H(class) + H(presence))

    Zero denominators score 0.
    """
    if method not in BASELINE_METHODS:
        raise FeatureError(f"unsupported selection method: {method!r}")
    ns, nl = counts.n_spam, counts.n_legit
    if method in ("ig", "igr") and (ns == 0 or nl == 0):
        raise FeatureError(f"{method} requires both classes present")
    total = ns + nl
    h_class = _entropy((ns / total, nl / total))
    scores = {}
    for term, fc in counts.counts.items():
        a, b = fc.df_spam, fc.df_legit
        c, d = ns - a, nl - b
        if method == "chi":
            denom = (a + b) * (c + d) * (a + c) * (b + d)
            scores[term] = total * (a * d - c * b) ** 2 / denom if denom else 0.0
        elif method == "gini":
            present = a + b
            p_s = (a / ns) ** 2 * (a / present) ** 2 if ns else 0.0
            p_l = (b / nl) ** 2 * (b / present) ** 2 if nl else 0.0
            scores[term] = p_s + p_l
        else:
            ig = _mutual_information(a, b, c, d, total)
            if method == "ig":
                scores[term] = ig
            else:
                h_term = _entropy(((a + b) / total, (c + d) / total))
                if method == "igr":
                    scores[term] = ig / h_term if h_term > 0 else 0.0
                else:  # cfs
                    denom = h_class + h_term
                    scores[term] = 2.0 * ig / denom if denom > 0 else 0.0
    return scores


def select(selector: str, counts: CorpusCounts, n: int) -> FeatureSet:
    """Top-n feature set of `counts` under one of `SELECTORS`: TFDCR
    weights, or a baseline's scores."""
    if selector == "tfdcr":
        return select_top_n(counts, n)
    return select_top_n_scored(baseline_score(selector, counts), n)


def vectorize_all(docs, fs: FeatureSet) -> list[SparseVector]:
    """Raw term-frequency vectors over the feature set, L2-normalized.

    One pass over the whole document list: each token id is mapped to its
    position, the (document, position) keys are counted, and each count is
    divided by its document's norm, the square root of an exactly summed
    integer. Documents containing no selected feature yield the empty vector.
    """
    if not fs.terms:
        raise FeatureError("cannot vectorize against an empty feature set")
    docs = list(docs)
    rows, ids = _token_ids(docs)
    known = ids < len(fs.lookup)
    positions = fs.lookup[ids[known]]
    hit = positions >= 0
    dim = len(fs)
    keys, counts = np.unique(rows[known][hit] * dim + positions[hit], return_counts=True)
    rows = keys // dim
    positions = keys % dim
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=len(docs)))
    weights = counts / norms[rows]
    _check_entries(keys, weights)
    positions.flags.writeable = False
    weights.flags.writeable = False
    bounds = np.searchsorted(rows, np.arange(len(docs) + 1)).tolist()
    return [
        SparseVector._trusted(positions[a:b], weights[a:b], fs.tag)
        for a, b in zip(bounds, bounds[1:])
    ]


def vectorize(doc: Document, fs: FeatureSet) -> SparseVector:
    """The vector of one document (see `vectorize_all`)."""
    return vectorize_all([doc], fs)[0]


def update_feature_set(
    fs_prev: FeatureSet, retrain_corpus: LabeledCorpus
) -> tuple[FeatureSet, int]:
    """Swap weak incumbents for strong newcomers found in the retraining set.

    Candidates are the top `len(fs_prev)` discriminative features of the
    retraining corpus; of the candidates not already present, those whose
    selection rank weight strictly exceeds the mean over these newcomers
    are added, and an equal number of incumbents with the lowest
    discriminative weight on the retraining counts is removed.
    Dimensionality is preserved exactly, and the result is ordered by
    TFDCR weight on the retraining counts, ties broken by term.
    """
    counts = count_stats(retrain_corpus)
    ns, nl = counts.n_spam, counts.n_legit

    def weight(term: str) -> float:
        fc = counts.counts.get(term)
        # Terms absent from the retraining corpus carry no discriminating
        # evidence there; their weight is zero.
        return tfdcr_weight(fc, ns, nl) if fc is not None else 0.0

    candidates = select_top_n(counts, len(fs_prev))
    incumbents = set(fs_prev.terms)
    newcomers = [t for t in candidates.terms if t not in incumbents]
    rank = {t: selection_rank_weight(counts.counts[t], ns, nl) for t in newcomers}
    mean_rank = sum(rank.values()) / len(rank) if rank else 0.0
    additions = [t for t in newcomers if rank[t] > mean_rank]
    # There are no more candidates than incumbents, so every addition fits.
    replaced = len(additions)
    survivors = sorted(fs_prev.terms, key=lambda t: (weight(t), t))[replaced:]
    merged = {t: weight(t) for t in survivors + additions}
    return select_top_n_scored(merged, len(merged)), replaced
