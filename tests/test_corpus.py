import logging
import math
import random
import string
import sys
import tempfile
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfilter import corpus, porter
from driftfilter.corpus import (
    CorpusError, Document, Label, LabeledCorpus, StreamPartition, load_ecml,
    load_enron, load_pu, partition_stream, preprocess_text, split_batches,
    stopwords, synth_drift, write_enron_layout,
)

import oracles
from conftest import generated_mail, make_doc, make_corpus


class TestTokenize:
    # The tokenizer's rules, seen through the pipeline: lowercase, split on
    # runs of non-[a-z0-9], drop pieces shorter than two characters and
    # all-digit pieces.
    def test_basic(self):
        assert preprocess_text("Buy VIAGRA now!!") == ["bui", "viagra"]

    def test_digit_tokens_dropped(self):
        assert preprocess_text("123 456") == []

    def test_short_tokens_dropped(self):
        assert preprocess_text("a I x offer") == ["offer"]

    def test_mixed_alnum_kept(self):
        assert preprocess_text("v1agra 4u") == ["v1agra", "4u"]

    def test_separators(self):
        assert preprocess_text("free--money,now!cash") == ["free", "monei", "cash"]

    def test_no_uppercase_in_output(self):
        rng = random.Random(1)
        for _ in range(50):
            text = "".join(rng.choice("AbC dE!7.") for _ in range(80))
            for term in preprocess_text(text):
                assert term == term.lower()


class TestStopwords:
    def test_shipped_list_is_lowercase(self):
        for word in stopwords():
            assert word == word.lower()
            assert word


class TestStem:
    def test_examples(self):
        assert porter.stem("caresses") == "caress"
        assert porter.stem("ponies") == "poni"
        assert porter.stem("cat") == "cat"


def _fixpoint_by_loop(word):
    while (out := porter.stem(word)) != word:
        word = out
    return out


def _term_by_loop(word):
    def kept(token):
        return len(token) >= 2 and not token.isdigit() and token not in stopwords()
    if not kept(word):
        return ""
    stem = _fixpoint_by_loop(word)
    return stem if kept(stem) else ""


class TestTermMemo:
    @given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=16))
    def test_memo_matches_loop_warm_and_cold(self, word):
        expected = _term_by_loop(word)
        corpus._terms.clear()
        corpus._terms[word]
        assert corpus._terms[word] == expected
        # Every stem the miss stored holds its own term as a word.
        for key, term in corpus._terms.items():
            assert term == _term_by_loop(key)
        corpus._terms.clear()
        assert corpus._terms[word] == expected

    def test_shared_chain_is_memoized(self):
        corpus._terms.clear()
        assert corpus._terms["agreed"] == "agr"
        assert corpus._terms == {"agreed": "agr", "agre": "agr", "agr": "agr"}
        assert corpus._terms["offer"] == "offer"
        assert corpus._terms.get("offer") == "offer"

    def test_dropped_stem_does_not_end_the_walk(self):
        # "outside" is a stop word, stored as "", yet it stems on to "outsid".
        corpus._terms.clear()
        assert corpus._terms["outside"] == ""
        assert corpus._terms["outsideed"] == "outsid"
        assert corpus._terms.get("outside") == ""
        assert corpus._terms.get("outsid") == "outsid"

    def test_long_chain_without_recursion(self):
        # One Porter pass strips one "ed", so the chain is deeper than the
        # interpreter's recursion limit. Each pass scans the whole word: the
        # chain costs O(depth^2), so it is kept just above the limit.
        depth = sys.getrecursionlimit() + 100
        word = "b" + "ed" * depth
        corpus._terms.clear()
        assert corpus._terms[word] == _term_by_loop(word)
        assert len(corpus._terms) >= depth  # the raw word and every stem

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(corpus, "_TERM_CACHE_SIZE", 8)
        corpus._terms.clear()
        words = [f"{root}{suffix}" for root in ("walk", "agre", "hop", "rel")
                 for suffix in ("ed", "ing", "ational", "s")]
        for word in words + words:
            assert corpus._terms[word] == _term_by_loop(word)
            assert len(corpus._terms) <= 8


# Roots, stop words and digit runs carrying Porter suffixes, some of which
# stem onto a stop word, below the length floor or to all digits.
SUFFIXED_WORDS = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(("agre", "hop", "rel", "conform", "gener", "sky", "on",
                         "the", "i", "19", "off", "caress", "feud", "happ")),
        st.sampled_from(("", "s", "es", "ies", "ed", "eed", "ing", "y", "ly", "ational",
                         "ization", "iveness", "ness", "ement", "ate", "al", "ll")),
    ),
)


class TestPreprocess:
    def test_pipeline(self):
        out = preprocess_text("The ponies were RUNNING faster!!")
        assert out == ["poni", "run", "faster"]

    def test_drops_stopwords(self):
        assert preprocess_text("the cat and") == ["cat"]

    def test_empty(self):
        assert preprocess_text("") == []

    def test_shipped_stoplist(self):
        assert preprocess_text("a an offer") == ["offer"]

    def test_idempotent_on_adversarial_words(self):
        # agreed restems (agre -> agr), ones stems onto a stopword, ies
        # stems below the length floor; the pipeline must absorb all three.
        text = "agreed ones ies caresses offer 123 the"
        first = preprocess_text(text)
        second = preprocess_text(" ".join(first))
        assert first == second

    def test_idempotent_random(self):
        rng = random.Random(42)
        words = [
            "agreed", "agree", "ones", "ies", "running", "viagra", "offer",
            "the", "money", "123", "a", "classes", "sses", "dying", "sky",
            "feudalism", "hopefulness", "...", "x9", "caresses",
        ]
        for _ in range(100):
            text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 40)))
            first = preprocess_text(text)
            second = preprocess_text(" ".join(first))
            assert first == second

    @given(st.one_of(
        st.text(),
        st.lists(st.text(alphabet="19sİ", max_size=4)).map(" ".join),
    ))
    def test_idempotent_on_arbitrary_unicode(self, text):
        # The second strategy makes suffixed words and digit runs common
        # (19s stems to the all-digit 19, which must not be kept).
        first = preprocess_text(text)
        assert preprocess_text(" ".join(first)) == first

    @given(st.one_of(
        st.text(),
        # U+0130 and U+212A lowercase to forms that contain ASCII letters,
        # U+0663 is a digit outside [0-9], and U+FFFD stands for each
        # undecodable byte of a mail file.
        st.text(alphabet="aZ09 _-.\nİKé٣\ufffd"),
        st.lists(st.one_of(SUFFIXED_WORDS, st.text(alphabet="aeiouy19sİ", max_size=6)))
        .map(" ".join),
    ))
    def test_matches_reference_composition(self, text):
        out = preprocess_text(text)
        assert out == oracles.preprocess_reference(text, stopwords())
        assert all(term in corpus.TERMS.ids for term in out)

    def test_matches_reference_on_generated_mail(self):
        stoplist = stopwords()
        for text in generated_mail():
            assert preprocess_text(text) == oracles.preprocess_reference(text, stoplist)

    def test_bounded_memo_gives_the_same_terms(self, monkeypatch):
        # Every document holds more distinct words than the bound, so the
        # memo is emptied within documents as well as between them.
        monkeypatch.setattr(corpus, "_TERM_CACHE_SIZE", 8)
        corpus._terms.clear()
        texts = generated_mail()[:8]
        stoplist = stopwords()
        for text in texts + texts:
            assert len(set(oracles.tokenize_reference(text))) > 8
            assert preprocess_text(text) == oracles.preprocess_reference(text, stoplist)
            assert len(corpus._terms) <= 8

    def test_output_clean(self):
        out = preprocess_text("The THE tHe spammy offer now 99")
        stop = stopwords()
        for token in out:
            assert token == token.lower()
            assert token not in stop
            assert len(token) >= 2


class TestLabeledCorpus:
    def test_requires_sorted(self):
        docs = (make_doc(1, "spam", ["aa"]), make_doc(0, "legit", ["bb"]))
        with pytest.raises(CorpusError):
            LabeledCorpus(docs)

    def test_requires_unique_arrival(self):
        docs = (make_doc(0, "spam", ["aa"]), make_doc(0, "legit", ["bb"]))
        with pytest.raises(CorpusError):
            LabeledCorpus(docs)

    def test_counts(self):
        c = make_corpus([("spam", ["aa"]), ("legit", ["bb"]), ("legit", ["cc"])])
        assert c.n_spam == 1
        assert c.n_legit == 2


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestLoadEnron:
    def test_counts_and_labels(self, tmp_path):
        _write(tmp_path / "ham" / "0001.txt", "hello meeting tomorrow")
        _write(tmp_path / "ham" / "0003.txt", "lunch plans friday")
        _write(tmp_path / "spam" / "0002.txt", "buy viagra now")
        c = load_enron(tmp_path)
        assert c.n_legit == 2
        assert c.n_spam == 1
        # merged filename sort: 0001(ham), 0002(spam), 0003(ham)
        assert [d.label for d in c.documents] == [
            Label.LEGITIMATE, Label.SPAM, Label.LEGITIMATE,
        ]
        assert [d.arrival_index for d in c.documents] == [0, 1, 2]

    def test_empty_spam_dir(self, tmp_path):
        (tmp_path / "spam").mkdir()
        _write(tmp_path / "ham" / "0001.txt", "hello world")
        c = load_enron(tmp_path)
        assert c.n_spam == 0
        assert c.n_legit == 1

    def test_scaled_proportions(self, tmp_path):
        # 1:100 scale of a 1500/3672 spam/ham folder
        for i in range(15):
            _write(tmp_path / "spam" / f"{i:04d}.s.txt", f"offer cash win{i}")
        for i in range(37):
            _write(tmp_path / "ham" / f"{i:04d}.h.txt", f"meeting notes item{i}")
        c = load_enron(tmp_path)
        assert c.n_spam == 15
        assert c.n_legit == 37

    def test_missing_dir(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(CorpusError, match="nope"):
            load_enron(missing)

    def test_preprocessing_applied(self, tmp_path):
        _write(tmp_path / "spam" / "0001.txt", "The PONIES are RUNNING!!")
        c = load_enron(tmp_path)
        assert c.documents[0].tokens == ("poni", "run")

    def test_invalid_bytes_decoded_lossily(self, tmp_path):
        path = tmp_path / "spam" / "0001.txt"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe buy viagra \x80 now")
        c = load_enron(tmp_path)
        assert [d.id for d in c.documents] == ["spam/0001.txt"]
        assert "viagra" in c.documents[0].tokens


# A load's word memo serves that load only; each document carries its ids.
_LAYOUTS = pytest.mark.parametrize("load, names", [
    (load_enron, ["spam/0001.txt", "ham/0002.txt"]),
    (load_pu, ["part1/spmsg001.txt", "part1/3-1msg1.txt"]),
], ids=["enron", "pu"])


def _write_mail(root, names):
    for k, name in enumerate(names):
        _write(root / name, f"The PONIES agreed to RUNNING offers {k} meetings")


class TestLoadLifetimes:
    @_LAYOUTS
    def test_load_empties_the_word_memo(self, tmp_path, load, names):
        _write_mail(tmp_path, names)
        preprocess_text("words before the load")
        assert corpus._terms
        assert len(load(tmp_path)) == len(names)
        assert not corpus._terms

    def test_failed_load_empties_the_word_memo(self, tmp_path, monkeypatch):
        _write_mail(tmp_path, ["spam/0001.txt", "ham/0002.txt"])
        preprocessed = []

        def fail_on_the_second(text):
            if preprocessed:
                raise RuntimeError("second file")
            preprocessed.append(text)
            return preprocess_text(text)

        monkeypatch.setattr(corpus, "preprocess_text", fail_on_the_second)
        with pytest.raises(RuntimeError, match="second file"):
            load_enron(tmp_path)
        assert preprocessed
        assert not corpus._terms

    @_LAYOUTS
    def test_second_load_gives_the_same_documents(self, tmp_path, load, names):
        _write_mail(tmp_path, names)
        first, second = load(tmp_path).documents, load(tmp_path).documents
        assert [(d.id, d.label, d.tokens) for d in first] == [
            (d.id, d.label, d.tokens) for d in second]
        for a, b in zip(first, second, strict=True):
            assert a.tokens
            assert np.array_equal(a.term_ids, b.term_ids)


class TestDocument:
    def test_term_ids_are_interned_when_built(self):
        tokens = [f"{uuid.uuid4().hex}-{k}" for k in range(3)]
        doc = make_doc(0, "spam", tokens + tokens[:1])
        assert not hasattr(doc, "__dict__")
        assert all(t in corpus.TERMS.ids for t in tokens)
        assert np.array_equal(doc.term_ids, corpus.TERMS.intern(doc.tokens))
        assert not doc.term_ids.flags.writeable

    def test_replace_recomputes_the_term_ids(self):
        doc = make_doc(0, "spam", ["aa", "bb", "cc"])
        doubled = replace(doc, tokens=doc.tokens * 2)
        assert np.array_equal(doubled.term_ids, np.concatenate([doc.term_ids] * 2))

    def test_term_ids_take_no_part_in_equality(self):
        a, b = make_doc(0, "spam", ["aa", "bb"]), make_doc(0, "spam", ["aa", "bb"])
        assert a.term_ids is not b.term_ids
        assert a == b
        assert hash(a) == hash(b)
        assert "term_ids" not in repr(a)
        assert a != replace(a, tokens=("bb", "aa"))


class TestLoadPu:
    def test_patterns(self, tmp_path, caplog):
        _write(tmp_path / "part1" / "spmsg001.txt", "buy pills")
        _write(tmp_path / "part1" / "3-1msg1.txt", "project update")
        _write(tmp_path / "part2" / "spmsg002.txt", "cheap offer")
        c = load_pu(tmp_path)
        assert c.n_spam == 2
        assert c.n_legit == 1
        assert _skip_warnings(caplog) == []

    def test_single_spam_file(self, tmp_path):
        _write(tmp_path / "part1" / "spmsg001.txt", "win money")
        c = load_pu(tmp_path)
        assert c.n_spam == 1

    def test_unmatched_filename_skipped(self, tmp_path, caplog):
        _write(tmp_path / "part1" / "spmsg001.txt", "win money")
        _write(tmp_path / "part1" / "readme.weird", "not a message")
        c = load_pu(tmp_path)
        assert _skip_warnings(caplog) == [
            f"skipping file with unrecognized name: {tmp_path / 'part1' / 'readme.weird'}"
        ]
        assert len(c.documents) == 1


def _skip_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "driftfilter.corpus" and r.levelno >= logging.WARNING]


@pytest.mark.parametrize("load,names,unreadable,kept,skipped", [
    (load_enron, ["spam/01.txt", "ham/02.txt", "spam/03.txt"], "ham/02.txt",
     ["spam/01.txt", "spam/03.txt"], ["ham/02.txt"]),
    (load_pu, ["part1/spmsg01.txt", "part1/readme.weird", "part1/legit02msg.txt",
               "part2/spmsg03.txt"], "part1/legit02msg.txt",
     ["part1/spmsg01.txt", "part2/spmsg03.txt"],
     ["part1/readme.weird", "part1/legit02msg.txt"]),
    (load_enron, ["DIGEST", "spam/01.txt", "spam/old/02.txt", "ham/03.txt", "ham/04.txt"],
     "ham/03.txt", ["spam/01.txt", "ham/04.txt"], ["spam/old/02.txt", "ham/03.txt"]),
])
def test_unreadable_file_skipped_and_named(tmp_path, monkeypatch, caplog, load, names,
                                           unreadable, kept, skipped):
    # arrival_index is the rank among the files kept. Each file skipped is
    # named in one warning; a file beside `spam/` and `ham/` is ignored.
    for name in names:
        _write(tmp_path / name, "win money now")
    read_text = Path.read_text

    def read_or_fail(path, *args, **kwargs):
        if path == tmp_path / unreadable:
            raise PermissionError(f"denied: {path}")
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_or_fail)
    c = load(tmp_path)
    assert [d.id for d in c.documents] == kept
    assert [d.arrival_index for d in c.documents] == [0, 1]
    warnings = _skip_warnings(caplog)
    assert len(warnings) == len(skipped)
    for name in skipped:
        assert sum(str(tmp_path / name) in m for m in warnings) == 1, name


_PU_DIRS = ("", "part1", "part2", "part1/deep", "part2/deep/er")
_PU_FILES = st.lists(
    st.tuples(
        st.sampled_from(_PU_DIRS),
        st.sampled_from(("spmsg{}.txt", "{}msg.txt", "{}legit.txt", "readme{}", ".x{}")),
        st.integers(0, 3),
        st.sampled_from((b"cheap pills offer", b"", b"\xff\xfe buy \x80 now", b"\x80")),
        st.booleans(),  # unreadable
    ),
    max_size=12,
    unique_by=lambda f: (f[0], f[1].format(f[2])),
)


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(deadline=None, max_examples=60)
@given(_PU_FILES, st.lists(st.sampled_from(_PU_DIRS[1:]), max_size=2))
def test_load_pu_keeps_or_names_every_file(files, empty_dirs):
    # Each regular file under the root becomes a document or is skipped with
    # a warning that names it. Only a readable file whose name matches a
    # pattern, directly inside a fold (or the root when it has no folds), is
    # a message.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        for sub in empty_dirs:
            (root / sub).mkdir(parents=True, exist_ok=True)
        unreadable = set()
        for sub, name, k, content, broken in files:
            path = root / sub / name.format(k)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content)
            if broken:
                unreadable.add(path)
        read_text = Path.read_text

        def read_or_fail(path, *args, **kwargs):
            if path in unreadable:
                raise PermissionError(f"denied: {path}")
            return read_text(path, *args, **kwargs)

        mp.setattr(Path, "read_text", read_or_fail)
        folds = {p for p in root.iterdir() if p.is_dir()} or {root}
        expected = {}
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.parent not in folds or path in unreadable:
                continue
            if "spmsg" in path.name:
                label = Label.SPAM
            elif "msg" in path.name:
                label = Label.LEGITIMATE
            else:
                continue
            text = path.read_bytes().decode("utf-8", errors="replace")
            doc_id = path.name if path.parent == root else f"{path.parent.name}/{path.name}"
            expected[doc_id] = (label, tuple(preprocess_text(text)))
        seen = [p for p in root.rglob("*") if p.is_file()]

        handler = _Warnings()
        logger = logging.getLogger("driftfilter.corpus")
        logger.addHandler(handler)
        try:
            c = load_pu(root)
        finally:
            logger.removeHandler(handler)
    assert {d.id: (d.label, d.tokens) for d in c.documents} == expected
    assert [d.arrival_index for d in c.documents] == list(range(len(c.documents)))
    kept = {root / d.id for d in c.documents}
    assert len(handler.messages) == len(seen) - len(kept)
    for path in seen:
        if path not in kept:
            assert any(str(path) in m for m in handler.messages), path


# One defect per kind: the pair or label marker it puts on a line, and the
# phrase its error names. Counts stay in 0-5: load_ecml expands each count
# into that many tokens.
_ECML_DEFECTS = {
    "label": (st.sampled_from(("0", "2", "+1", "--1", "1.0", "spam")), "label marker"),
    "no_colon": (st.integers(0, 99).map(str), "malformed pair"),
    "empty_id": (st.integers(0, 5).map(lambda c: f":{c}"), "malformed pair"),
    "non_integer": (
        st.sampled_from(("x", "1.5", "", "3a", "0x1")).map(lambda c: f"7:{c}"),
        "malformed count",
    ),
    "negative": (st.integers(1, 5).map(lambda c: f"7:-{c}"), "negative count"),
}
_ECML_LINE = st.one_of(
    st.just(""),
    st.builds(
        lambda label, pairs: " ".join([label] + [f"{i}:{c}" for i, c in pairs]),
        st.sampled_from(("1", "-1")),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 5)), max_size=5),
    ),
)


@st.composite
def _ecml_with_one_defect(draw):
    """Lines of a valid ecml file (blank ones included), one of them broken;
    returns the lines, the broken line's number and the expected phrase."""
    lines = draw(st.lists(_ECML_LINE, min_size=1, max_size=8))
    k = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(sorted(_ECML_DEFECTS)))
    token, phrase = _ECML_DEFECTS[kind]
    parts = draw(_ECML_LINE.filter(bool)).split()
    if kind == "label":
        parts[0] = draw(token)
    else:
        parts.insert(draw(st.integers(1, len(parts))), draw(token))
    lines[k] = " ".join(parts)
    return lines, k + 1, phrase


class TestLoadEcml:
    def test_line_expansion(self, tmp_path):
        path = tmp_path / "train.dat"
        path.write_text("1 12:3 47:1\n-1\n", encoding="utf-8")
        c = load_ecml(path)
        assert c.documents[0].tokens == ("12", "12", "12", "47")
        assert c.documents[0].label is Label.SPAM
        assert c.documents[1].tokens == ()
        assert c.documents[1].label is Label.LEGITIMATE

    def test_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain" / "t.ecml", tmp_path / "marked" / "t.ecml"
        for path in (plain, marked):
            path.parent.mkdir()
        plain.write_text("1 12:3\n-1 5:1\n", encoding="utf-8")
        marked.write_text("1 12:3\n-1 5:1\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf1 ")
        assert load_ecml(marked) == load_ecml(plain)

    def test_malformed_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1 12:x\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="bad.dat:1"):
            load_ecml(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("1 12:3\n-1 5:-2\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="bad.dat:2"):
            load_ecml(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("2 12:3\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="label"):
            load_ecml(path)

    @given(_ecml_with_one_defect())
    def test_one_defect_names_file_and_line(self, case):
        lines, line_no, phrase = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mail.dat"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(CorpusError) as raised:
                load_ecml(path)
        message = str(raised.value)
        assert message.startswith(f"{path}:{line_no}:")
        assert phrase in message


def _numbered_corpus(n):
    return make_corpus([
        ("spam" if i % 2 == 0 else "legit", [f"tok{i % 7}"]) for i in range(n)
    ])


class TestPartitionStream:
    def test_thirty_docs(self):
        part = partition_stream(_numbered_corpus(30), 1 / 3, 10)
        assert len(part.training) == 10
        assert [len(b) for b in part.test_batches] == [2] * 10

    def test_ten_docs_half(self):
        part = partition_stream(_numbered_corpus(10), 0.5, 1)
        assert len(part.training) == 5
        assert len(part.test_batches[0]) == 5

    def test_enron_sized(self):
        part = partition_stream(_numbered_corpus(5172), 1 / 3, 10)
        assert len(part.training) == math.ceil(5172 / 3) == 1724
        sizes = [len(b) for b in part.test_batches]
        assert sizes == [345] * 8 + [344] * 2

    def test_conservation(self):
        for n in (7, 30, 101):
            c = _numbered_corpus(n)
            part = partition_stream(c, 0.4, 3)
            total = len(part.training) + sum(len(b) for b in part.test_batches)
            assert total == len(c)

    def test_chronological_precedence(self):
        part = partition_stream(_numbered_corpus(30), 1 / 3, 5)
        max_train = max(d.arrival_index for d in part.training.documents)
        min_test = min(
            d.arrival_index for b in part.test_batches for d in b.documents
        )
        assert max_train < min_test

    def test_shuffled_deterministic(self):
        c = _numbered_corpus(40)
        p1 = partition_stream(c, 0.5, 4, chronological=False, seed=9)
        p2 = partition_stream(c, 0.5, 4, chronological=False, seed=9)
        assert [d.id for d in p1.training.documents] == [
            d.id for d in p2.training.documents
        ]
        p3 = partition_stream(c, 0.5, 4, chronological=False, seed=10)
        assert [d.id for d in p1.training.documents] != [
            d.id for d in p3.training.documents
        ]

    def test_too_many_batches(self):
        with pytest.raises(CorpusError, match="n_batches"):
            partition_stream(_numbered_corpus(10), 0.5, 6)

    @pytest.mark.parametrize("chronological", [True, False])
    def test_negative_seed_rejected(self, chronological):
        # random.Random seeds from |seed|, so -3 would shuffle as 3 does.
        with pytest.raises(CorpusError, match=r"^seed must be >= 0, got -3$"):
            partition_stream(_numbered_corpus(10), 0.5, 2, chronological, seed=-3)

    @pytest.mark.parametrize("source, target", [
        (0, 0),  # within the training set
        (0, 2),  # the training set and a batch
        (1, 3),  # two batches
    ])
    def test_shared_document_id_rejected(self, source, target):
        # Retraining sets are merged by id, so a shared id would silently
        # drop a document from them.
        part = partition_stream(_numbered_corpus(12), 1 / 3, 3)
        groups = [part.training, *part.test_batches]
        clash = groups[source].documents[-1].id
        docs = groups[target].documents
        groups[target] = LabeledCorpus((replace(docs[0], id=clash),) + docs[1:])
        with pytest.raises(CorpusError, match=f"document id '{clash}' appears twice"):
            StreamPartition(groups[0], tuple(groups[1:]))

    def test_batches_sorted(self):
        part = partition_stream(_numbered_corpus(30), 1 / 3, 5)
        for batch in part.test_batches:
            indices = [d.arrival_index for d in batch.documents]
            assert indices == sorted(indices)

    @given(
        st.integers(1, 60),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(1, 70),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_invariants(self, n, train_fraction, n_batches, chronological, seed):
        c = _numbered_corpus(n)
        n_train = math.ceil(train_fraction * n)
        if n_batches > n - n_train:
            with pytest.raises(CorpusError, match="n_batches"):
                partition_stream(c, train_fraction, n_batches, chronological, seed)
            return
        part = partition_stream(c, train_fraction, n_batches, chronological, seed)
        pieces = [part.training] + list(part.test_batches)
        ids = [d.id for piece in pieces for d in piece.documents]
        assert sorted(ids) == sorted(d.id for d in c.documents)  # each once
        for piece in pieces:
            indices = [d.arrival_index for d in piece.documents]
            assert indices == sorted(indices)
        if chronological:
            assert ids == [d.id for d in c.documents]
        assert len(part.training) == n_train
        sizes = [len(b) for b in part.test_batches]
        assert len(sizes) == n_batches
        assert max(sizes) - min(sizes) <= 1

    @given(
        st.one_of(
            st.floats(allow_nan=True).filter(lambda f: not 0 < f < 1),
            st.just(float("nan")),
        ),
        st.integers(-5, 0),
    )
    def test_bad_arguments_raise(self, train_fraction, n_batches):
        c = _numbered_corpus(10)
        with pytest.raises(CorpusError, match="train_fraction"):
            partition_stream(c, train_fraction, 2)
        with pytest.raises(CorpusError, match="n_batches"):
            partition_stream(c, 0.5, n_batches)
        with pytest.raises(CorpusError, match="empty corpus"):
            partition_stream(LabeledCorpus(()), 0.5, 2)


class TestSplitBatches:
    @given(st.integers(0, 60), st.integers(-3, 70))
    def test_invariants(self, n, n_batches):
        docs = list(_numbered_corpus(n).documents)
        if not 1 <= n_batches <= n:
            with pytest.raises(CorpusError, match="n_batches"):
                split_batches(docs, n_batches)
            return
        batches = split_batches(docs, n_batches)
        assert len(batches) == n_batches
        assert [d for b in batches for d in b.documents] == docs  # once, in order
        sizes = [len(b) for b in batches]
        assert max(sizes) - min(sizes) <= 1


def _phase_exclusive_vocab(stream, lo, hi):
    spam_tokens, legit_tokens = set(), set()
    for doc in stream.documents[lo:hi]:
        if doc.label is Label.SPAM:
            spam_tokens.update(doc.tokens)
        else:
            legit_tokens.update(doc.tokens)
    return spam_tokens - legit_tokens


class TestSynthDrift:
    def test_deterministic(self):
        a = synth_drift(5, vocab_size=120, docs_per_phase=40)
        b = synth_drift(5, vocab_size=120, docs_per_phase=40)
        assert a == b

    def test_overlap_one_keeps_spam_vocab(self):
        stream = synth_drift(3, vocab_size=120, docs_per_phase=100, overlap=1.0)
        first = _phase_exclusive_vocab(stream, 0, 100)
        second = _phase_exclusive_vocab(stream, 100, 200)
        assert first == second

    def test_overlap_zero_disjoint_spam_vocab(self):
        stream = synth_drift(3, vocab_size=120, docs_per_phase=100, overlap=0.0)
        first = _phase_exclusive_vocab(stream, 0, 100)
        second = _phase_exclusive_vocab(stream, 100, 200)
        assert first
        assert second
        assert not first & second

    def test_overlap_out_of_range(self):
        with pytest.raises(CorpusError, match="overlap"):
            synth_drift(1, overlap=1.5)

    def test_no_documents_per_phase(self):
        with pytest.raises(CorpusError, match="docs_per_phase must be >= 1, got 0"):
            synth_drift(1, docs_per_phase=0)

    def test_smallest_vocabulary_that_carves_pools(self):
        with pytest.raises(CorpusError, match="vocab_size=3 too small"):
            synth_drift(1, vocab_size=3, docs_per_phase=2)
        assert len(synth_drift(1, vocab_size=4, docs_per_phase=2).documents) == 4

    def test_negative_seed_rejected(self):
        # random.Random seeds from |seed|, so -3 would draw seed 3's stream.
        with pytest.raises(CorpusError, match=r"^seed must be >= 0, got -3$"):
            synth_drift(-3, vocab_size=50, docs_per_phase=20)
        assert len(synth_drift(0, vocab_size=50, docs_per_phase=20)) == 40

    def test_labels_balanced(self):
        stream = synth_drift(2, vocab_size=120, docs_per_phase=50)
        assert stream.n_spam == stream.n_legit == 50

    @given(
        st.integers(0, 2**64),
        st.integers(1, 5000) | st.integers(0, 12).map(lambda e: 2**e),
        st.integers(0, 60),
    )
    def test_draws_equal_random_choice(self, seed, size, count):
        pool = [f"t{i}" for i in range(size)]
        ours, theirs = random.Random(seed), random.Random(seed)
        assert corpus._draw(ours, pool, count) == [theirs.choice(pool) for _ in range(count)]
        assert ours.random() == theirs.random()


class TestEnronRoundTrip:
    def test_dump_and_reload(self, tmp_path):
        stream = synth_drift(11, vocab_size=120, docs_per_phase=30)
        write_enron_layout(stream, tmp_path / "dump")
        reloaded = load_enron(tmp_path / "dump")
        original = [(d.label, d.tokens) for d in stream.documents]
        loaded = [(d.label, d.tokens) for d in reloaded.documents]
        assert original == loaded
