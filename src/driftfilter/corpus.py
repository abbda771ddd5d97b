"""Dataset loading, text preprocessing, stream partitioning, synthetic drift.

A label is a string of `LABELS`, checked when a `Document` is built.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import string
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import porter

logger = logging.getLogger(__name__)

# Every byte but [a-z0-9] becomes a space, so that after lowercasing and an
# ASCII encoding (a non-ASCII character becomes `?`) the words are the
# maximal [a-z0-9] runs of the text.
_SEPARATORS = bytes(
    b if chr(b) in string.ascii_lowercase + string.digits else 32 for b in range(256)
)

# Per-document token count used by the synthetic generator; spam documents
# draw half their tokens from the legitimate pool so that a vocabulary shift
# in the spam pool actually degrades a stale model.
_SYNTH_DOC_LEN = 20


class CorpusError(Exception):
    """Raised for unloadable datasets and invalid partition requests."""


# Every document is one of these classes; spam is the positive class.
LABELS = ("spam", "legitimate")


class TermTable:
    """Append-only term -> id map.

    Ids are lookup keys only: feature positions come from a feature set's
    order and every selection sorts by (weight, term), so no result depends
    on the order in which terms were interned. Entries are never removed,
    because every `Document` holds the ids of its tokens.
    Interning is not safe from several threads at once.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}
        self.terms: list[str] = []

    def __len__(self) -> int:
        return len(self.terms)

    def add(self, term: str) -> None:
        """Intern one term; a term already in the table keeps its id."""
        if term not in self.ids:
            self.ids[term] = len(self.terms)
            self.terms.append(term)

    def intern(self, tokens) -> np.ndarray:
        """Read-only int32 ids of `tokens`, in order; unseen terms are added."""
        try:
            out = np.fromiter(map(self.ids.__getitem__, tokens), dtype=np.int32,
                              count=len(tokens))
        except KeyError:  # some term is new: add them all, then map again
            for term in dict.fromkeys(tokens):
                self.add(term)
            return self.intern(tokens)
        out.flags.writeable = False
        return out


TERMS = TermTable()  # the process-wide table behind every Document.term_ids


@dataclass(frozen=True, slots=True)
class Document:
    """One e-mail: label plus its post-preprocessing token sequence.

    Tokens are kept (rather than a fixed vector) so the document can be
    re-vectorized under any later feature set. `term_ids` holds the tokens
    as `TERMS` ids, in token order; they are interned when the document is
    built, so `dataclasses.replace` recomputes them, and they take no part
    in equality or hashing.
    """

    id: str
    label: str
    tokens: tuple[str, ...]
    arrival_index: int
    term_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.label not in LABELS:
            raise CorpusError(f"label must be one of {LABELS}, got {self.label!r}")
        object.__setattr__(self, "term_ids", TERMS.intern(self.tokens))


@dataclass(frozen=True)
class LabeledCorpus:
    documents: tuple[Document, ...]

    def __post_init__(self):
        indices = [d.arrival_index for d in self.documents]
        if indices != sorted(indices):
            raise CorpusError("documents must be sorted by arrival_index")
        if len(set(indices)) != len(indices):
            raise CorpusError("arrival_index values must be unique")

    @property
    def n_spam(self) -> int:
        return sum(1 for d in self.documents if d.label == "spam")

    @property
    def n_legit(self) -> int:
        return sum(1 for d in self.documents if d.label == "legitimate")

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class StreamPartition:
    training: LabeledCorpus
    test_batches: tuple[LabeledCorpus, ...]

    def __post_init__(self):
        # The drift loop merges retraining sets by id, so a shared id would
        # silently drop a document from them.
        seen: set[str] = set()
        for group in (self.training, *self.test_batches):
            for doc in group.documents:
                if doc.id in seen:
                    raise CorpusError(f"document id {doc.id!r} appears twice in the partition")
                seen.add(doc.id)

    @cached_property
    def checksum(self) -> str:
        """Stable digest of the documents (id, label and tokens) and batch
        boundaries. Tokens, not term ids: ids depend on interning order.
        Computed once, as every session on the partition records it."""
        digest = hashlib.sha256()
        groups = [("T", self.training)] + [
            (f"B{k}", batch) for k, batch in enumerate(self.test_batches)
        ]
        for name, group in groups:
            for doc in group.documents:
                header = f"{name} {doc.id} {doc.label} {len(doc.tokens)}\n"
                digest.update((header + "\n".join(doc.tokens) + "\n").encode("utf-8"))
        return digest.hexdigest()


def _make_corpus(docs) -> LabeledCorpus:
    return LabeledCorpus(tuple(sorted(docs, key=lambda d: d.arrival_index)))


@cache
def stopwords() -> frozenset[str]:
    """The stop-word list shipped with the package (lowercase, one per line)."""
    text = (
        resources.files("driftfilter").joinpath("data/stopwords.txt")
        .read_text(encoding="utf-8")
    )
    return frozenset(w for w in text.split("\n") if w)


def _words(raw_text: str) -> list[str]:
    """The maximal runs of ASCII letters and digits of the lowercased text."""
    return (raw_text.lower().encode("ascii", "replace").translate(_SEPARATORS)
            .decode("ascii").split())


# Bound on the memo within one load: above one large corpus's distinct words
# and stems, so a load never evicts, yet finite for a larger one.
_TERM_CACHE_SIZE = 1 << 16


def _kept(token: str) -> bool:
    return len(token) >= 2 and not token.isdigit() and token not in stopwords()


class _TermMemo(dict):
    """Word -> its final term, or "" when the pipeline drops it.

    A miss stems the word to a fixed point: one Porter pass is not
    idempotent (agreed -> agre -> agr); rewrites never grow the token, and
    the only length-preserving rule (y -> i) cannot cycle. Each stem on the
    chain is stored as a word with its own term, so the confirming pass on a
    stem is shared by all the words that reach it: a non-empty value met on
    the chain is the shared fixed point, and the walk ends there. A "" does
    not end it, as a dropped stem can lead to a kept one (outsideed ->
    outside, a stop word, -> outsid). A loop, not recursion, because a chain
    can be as long as the word. A miss interns the term in `TERMS`, so a hit
    costs one dict lookup and documents intern on the fast path. Emptied
    when full, and when a load ends: nothing after a load reads its words.
    """

    def __missing__(self, word: str) -> str:
        chain = []  # stems whose term is pending
        term = ""
        if _kept(word):
            token, out = word, porter.stem(word)
            while out != token:
                token = out
                term = self.get(token)
                if term:
                    break
                chain.append(token)
                out = porter.stem(token)
            else:
                term = token if _kept(token) else ""
        if len(self) + len(chain) >= _TERM_CACHE_SIZE:
            self.clear()
        if term:
            TERMS.add(term)
        for stem in chain:
            self[stem] = term if _kept(stem) else ""
        self[word] = term
        return term


_terms = _TermMemo()


def preprocess_text(raw_text: str) -> list[str]:
    """Full pipeline: tokenize, drop stopwords, stem.

    Stems are filtered again like tokens (minimum length, not all digits,
    e.g. 12s -> 12) and against the stop list, which together with
    fixed-point stemming makes the pipeline idempotent: re-running it over
    its own output changes nothing.
    """
    return list(filter(None, map(_terms.__getitem__, _words(raw_text))))


def _read_documents(entries) -> LabeledCorpus:
    """Read and preprocess `(id, label, path)` entries, given in arrival order.

    Unreadable files are skipped with a warning; arrival_index is the rank
    among the files kept. The word memo is emptied when the load ends.
    """
    docs = []
    try:
        for doc_id, label, path in entries:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                logger.warning("skipping unreadable file %s: %s", path, exc)
                continue
            docs.append(Document(doc_id, label, tuple(preprocess_text(text)), len(docs)))
    finally:
        _terms.clear()
    return LabeledCorpus(tuple(docs))


def load_enron(dir_path) -> LabeledCorpus:
    """Load an Enron-layout directory: `spam/` and `ham/` of plain-text files.

    Labels come from the subdirectory; arrival order from the merged filename
    sort (Enron filenames sort chronologically). Unreadable files, and files
    in a directory nested in `spam/` or `ham/`, are skipped with a warning.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise CorpusError(f"dataset directory not found: {root}")
    entries = []
    for subdir, label in (("spam", "spam"), ("ham", "legitimate")):
        sub = root / subdir
        if not sub.is_dir():
            logger.warning("missing %s/ under %s, treating as empty", subdir, root)
            continue
        for path in sub.iterdir():
            if path.is_file():
                entries.append((f"{subdir}/{path.name}", label, path))
            elif path.is_dir():
                for nested in sorted(path.rglob("*")):
                    if nested.is_file():
                        logger.warning("skipping file in a nested directory: %s", nested)
    entries.sort(key=lambda e: (e[2].name, e[2].parent.name))
    return _read_documents(entries)


def load_pu(dir_path) -> LabeledCorpus:
    """Load a PU-layout directory: fold subdirectories of message files.

    Class membership is encoded in filenames: a name containing `spmsg` is
    spam, any other containing `msg` is legitimate; unmatched files are
    skipped with a warning. A directory without subdirectories is one fold.
    Files outside the folds' top level (beside the folds, or in a directory
    nested in one) are skipped with a warning too. Arrival order is a plain
    (fold, filename) sort; these corpora carry no chronology.
    """
    root = Path(dir_path)
    if not root.is_dir():
        raise CorpusError(f"dataset directory not found: {root}")
    folds = sorted(p for p in root.iterdir() if p.is_dir())
    if not folds:
        folds = [root]
    entries = []
    for path in sorted(root.rglob("*")):
        if path.parent not in folds and path.is_file():
            logger.warning("skipping file outside a fold: %s", path)
    for fold in folds:
        for path in sorted(fold.iterdir()):
            if not path.is_file():
                continue
            if "spmsg" in path.name:
                label = "spam"
            elif "msg" in path.name:
                label = "legitimate"
            else:
                logger.warning("skipping file with unrecognized name: %s", path)
                continue
            doc_id = path.name if fold == root else f"{fold.name}/{path.name}"
            entries.append((doc_id, label, path))
    return _read_documents(entries)


def load_ecml(file_path) -> LabeledCorpus:
    """Load a token-id dataset: one e-mail per line, `label id:count ...`.

    The label marker is 1 (spam) or -1 (legitimate). Tokens are the id
    strings repeated `count` times; the preprocessing pipeline is skipped
    because the data is already tokenized. A leading byte-order mark is
    skipped.
    """
    path = Path(file_path)
    if not path.is_file():
        raise CorpusError(f"dataset file not found: {path}")
    docs = []
    arrival = 0
    with open(path, encoding="utf-8-sig", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "1":
                label = "spam"
            elif parts[0] == "-1":
                label = "legitimate"
            else:
                raise CorpusError(f"{path}:{line_no}: bad label marker {parts[0]!r}")
            tokens = []
            for pair in parts[1:]:
                token_id, sep, count_text = pair.partition(":")
                if not sep or not token_id:
                    raise CorpusError(f"{path}:{line_no}: malformed pair {pair!r}")
                try:
                    count = int(count_text)
                except ValueError:
                    raise CorpusError(
                        f"{path}:{line_no}: malformed count in {pair!r}"
                    ) from None
                if count < 0:
                    raise CorpusError(f"{path}:{line_no}: negative count in {pair!r}")
                tokens.extend([token_id] * count)
            docs.append(Document(
                id=f"{path.stem}:line{line_no}",
                label=label,
                tokens=tuple(tokens),
                arrival_index=arrival,
            ))
            arrival += 1
    return _make_corpus(docs)


def partition_stream(
    corpus: LabeledCorpus,
    train_fraction: float,
    n_batches: int,
    chronological: bool = True,
    seed: int = 0,
) -> StreamPartition:
    """Split a corpus into a training prefix and near-equal test batches.

    The first ceil(train_fraction * n) documents form the training set, taken
    in arrival order when `chronological` else under a seeded shuffle. The
    remainder is cut into `n_batches` contiguous batches whose sizes differ
    by at most one.
    """
    check_partition(train_fraction, n_batches, seed)
    if not corpus.documents:
        raise CorpusError("cannot partition an empty corpus")
    order = list(corpus.documents)
    if not chronological:
        random.Random(seed).shuffle(order)
    n_train = math.ceil(train_fraction * len(order))
    test = order[n_train:]
    batches = split_batches(test, n_batches)
    return StreamPartition(_make_corpus(order[:n_train]), batches)


def check_partition(train_fraction: float, n_batches: int, seed: int) -> None:
    """The bounds of `partition_stream`'s parameters, checked without a corpus."""
    if not 0 < train_fraction < 1:
        raise CorpusError(f"train_fraction must be in (0,1), got {train_fraction}")
    _check_least(n_batches=n_batches, seed=seed)


# The least of each integer parameter, which must be an int (not a bool or
# a float). random.Random seeds from |seed|, so -3 would alias 3;
# synth_drift splits no fewer than 4 words into its three pools.
_LEAST = {"seed": 0, "n_batches": 1, "vocab_size": 4, "docs_per_phase": 1}


def _check_least(**values: int) -> None:
    for key, value in values.items():
        if type(value) is not int:
            raise CorpusError(f"{key} must be an int, got {value!r}")
        if value < _LEAST[key]:
            raise CorpusError(f"{key} must be >= {_LEAST[key]}, got {value}")


def split_batches(documents, n_batches: int) -> tuple[LabeledCorpus, ...]:
    """Cut a document sequence into contiguous batches differing by <= 1 in size."""
    documents = list(documents)
    _check_least(n_batches=n_batches)
    if n_batches > len(documents):
        raise CorpusError(
            f"n_batches={n_batches} exceeds test size {len(documents)}"
        )
    base, extra = divmod(len(documents), n_batches)
    batches = []
    pos = 0
    for i in range(n_batches):
        size = base + (1 if i < extra else 0)
        batches.append(_make_corpus(documents[pos:pos + size]))
        pos += size
    return tuple(batches)


def _draw(rng: random.Random, pool, count: int) -> list:
    """`count` draws of `rng.choice(pool)` from a non-empty pool: the same
    values in the same order, leaving `rng` in the same state. CPython's
    `choice` rejects each `getrandbits(k)` value at or above len(pool), with
    k = len(pool).bit_length(); this loop does the same without the two
    method calls per draw."""
    n = len(pool)
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(pool[r])
    return out


def check_synth(seed: int, vocab_size: int, docs_per_phase: int, overlap: float) -> None:
    """The bounds of `synth_drift`'s parameters, checked without drawing."""
    _check_least(seed=seed, vocab_size=vocab_size, docs_per_phase=docs_per_phase)
    if not 0.0 <= overlap <= 1.0:
        raise CorpusError(f"overlap must be in [0,1], got {overlap}")


def synth_drift(
    seed: int,
    vocab_size: int = 400,
    docs_per_phase: int = 1000,
    overlap: float = 0.2,
) -> LabeledCorpus:
    """Generate a two-phase stream whose spam vocabulary shifts mid-stream.

    Each phase holds `docs_per_phase` documents. Phase 1 draws spam from
    one token pool and legitimate mail from a disjoint pool; in phase 2
    the spam pool is replaced by a fresh pool sharing an `overlap`
    fraction of its tokens with the old one.
    Spam documents always mix in legitimate-pool tokens, so post-drift spam
    resembles legitimate mail to a model trained on phase 1. Labels
    alternate, keeping both phases balanced. Same seed, same corpus.
    """
    check_synth(seed, vocab_size, docs_per_phase, overlap)
    n_legit = vocab_size // 2
    n_spam = vocab_size // 4
    n_reserve = vocab_size - n_legit - n_spam
    rng = random.Random(seed)
    legit_pool = [f"lg{i:04d}" for i in range(n_legit)]
    spam_pool = [f"sp{i:04d}" for i in range(n_spam)]
    reserve = [f"dr{i:04d}" for i in range(n_reserve)]
    kept = round(overlap * n_spam)
    if kept == n_spam:
        drifted_pool = list(spam_pool)
    else:
        drifted_pool = sorted(rng.sample(spam_pool, kept)) + reserve[: n_spam - kept]
    half = _SYNTH_DOC_LEN // 2
    docs = []
    for arrival in range(2 * docs_per_phase):
        pool = spam_pool if arrival < docs_per_phase else drifted_pool
        if arrival % 2 == 0:
            label = "spam"
            tokens = _draw(rng, pool, half)
            tokens += _draw(rng, legit_pool, _SYNTH_DOC_LEN - half)
            rng.shuffle(tokens)
        else:
            label = "legitimate"
            tokens = _draw(rng, legit_pool, _SYNTH_DOC_LEN)
        docs.append(Document(
            id=f"synth{arrival:05d}",
            label=label,
            tokens=tuple(tokens),
            arrival_index=arrival,
        ))
    return _make_corpus(docs)


def write_enron_layout(corpus: LabeledCorpus, dir_path) -> None:
    """Dump a corpus to disk in the Enron layout (spam/ and ham/ text files).

    Filenames are zero-padded arrival indices so a reload preserves order;
    tokens are space-joined, and generator tokens are preprocessing fixed
    points, so a round trip through load_enron is lossless. A `spam/` or
    `ham/` that already holds anything is an error and nothing is written:
    `load_enron` would read the old files as part of the new stream.
    """
    root = Path(dir_path)
    for sub in ("spam", "ham"):
        if (root / sub).is_dir() and any((root / sub).iterdir()):
            raise CorpusError(f"{root / sub} is not empty; write to a new directory")
    for sub in ("spam", "ham"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for doc in corpus.documents:
        sub = "spam" if doc.label == "spam" else "ham"
        path = root / sub / f"{doc.arrival_index:05d}.txt"
        path.write_text(" ".join(doc.tokens) + "\n", encoding="utf-8")
