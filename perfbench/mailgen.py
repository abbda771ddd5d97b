"""Seeded generator of an Enron-layout mail corpus for the `mail_sweep` workload.

Words are the package's stop list plus synthetic roots carrying English
suffixes (-ation, -ness, -izer, -fulness, ...), so tokenizing, stop-word
removal and Porter stemming all do real work, and several surface forms
conflate to one stem. Spam draws on a class vocabulary that is replaced
halfway through the stream (keeping a share of the old roots), so a model
trained on the chronological prefix goes stale and the six selectors reach
different accuracies. Same seed, same bytes.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import accumulate
from pathlib import Path

SUFFIXES = (
    "", "", "", "s", "ed", "ing", "er", "ly", "ation", "ness", "izer",
    "fulness", "ment", "ity", "ive", "ize", "al", "ous", "ational",
    "iveness", "ousness", "alism", "ement", "ance", "ence", "able", "ization",
)
_ONSETS = ("b", "br", "c", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k",
           "l", "m", "n", "p", "pl", "qu", "r", "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "oo")
_CODAS = ("b", "ck", "d", "g", "l", "lt", "m", "n", "nd", "p", "r", "rk", "st", "t", "x")


# Vocabulary sizes in roots, and shares of a document's words.
SHARED_ROOTS, HAM_ROOTS, SPAM_ROOTS = 1500, 600, 300
KEPT_SPAM_SHARE = 0.1  # share of spam roots that survive the shift
STOPWORD_SHARE = 0.4
CLASS_SHARE = 0.3      # words drawn from the class vocabulary
SPAM_HAM_SHARE = 0.2   # words spam borrows from the ham vocabulary


def _roots(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    roots = []
    while len(roots) < count:
        syllables = rng.choice((2, 2, 3))
        root = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables - 1)
        ) + rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
        if root not in taken:
            taken.add(root)
            roots.append(root)
    return roots


class _Pool:
    """Roots in rank order with Zipf-like frequencies; suffixes drawn uniformly."""

    def __init__(self, rng: random.Random, roots: list[str]):
        self.rng = rng
        self.roots = roots
        self.cum = list(accumulate(1.0 / (rank + 10) for rank in range(len(roots))))

    def draw(self, k: int) -> list[str]:
        roots = self.rng.choices(self.roots, cum_weights=self.cum, k=k)
        return [root + suffix for root, suffix in zip(roots, self.rng.choices(SUFFIXES, k=k))]


def generate(seed: int, stoplist, n_docs: int = 1500,
             words_per_doc: int = 250) -> list[tuple[str, str]]:
    """Return (relative path, text) pairs for every file, in arrival order."""
    rng = random.Random(seed)
    stops = sorted(stoplist)
    taken = set(stops)
    shared = _Pool(rng, _roots(rng, SHARED_ROOTS, taken))
    ham = _Pool(rng, _roots(rng, HAM_ROOTS, taken))
    old_spam_roots = _roots(rng, SPAM_ROOTS, taken)
    fresh = iter(_roots(rng, SPAM_ROOTS, taken))
    # Survivors are spread evenly over the frequency ranks, so the share of
    # spam mass that survives the shift does not depend on the seed.
    share = KEPT_SPAM_SHARE
    new_spam_roots = [
        root if math.ceil((rank + 1) * share) > math.ceil(rank * share) else next(fresh)
        for rank, root in enumerate(old_spam_roots)
    ]
    spam_before = _Pool(rng, old_spam_roots)
    spam_after = _Pool(rng, new_spam_roots)

    n_words = words_per_doc
    n_stop = round(STOPWORD_SHARE * n_words)
    n_class = round(CLASS_SHARE * n_words)
    files = []
    for arrival in range(n_docs):
        is_spam = arrival % 2 == 0  # balanced classes in both halves
        if is_spam:
            pool = spam_before if arrival < n_docs // 2 else spam_after
            n_ham = round(SPAM_HAM_SHARE * n_words)
            words = pool.draw(n_class) + ham.draw(n_ham)
        else:
            words = ham.draw(n_class)
        words += shared.draw(n_words - n_stop - len(words))
        words += rng.choices(stops, k=n_stop)
        rng.shuffle(words)
        files.append((
            f"{'spam' if is_spam else 'ham'}/{arrival:05d}.txt",
            _render(rng, words),
        ))
    return files


def _render(rng: random.Random, words: list[str]) -> str:
    # Mail-like text: a subject line, capitalized sentences, punctuation and
    # numbers, all of which the tokenizer must strip.
    subject, body = words[:6], words[6:]
    sentences = []
    pos = 0
    while pos < len(body):
        size = rng.randint(6, 16)
        sentence = body[pos:pos + size]
        pos += size
        if rng.random() < 0.2:
            sentence.insert(rng.randrange(len(sentence) + 1), str(rng.randrange(10, 9999)))
        sentences.append(sentence[0].capitalize() + " " + ", ".join(
            " ".join(sentence[1:][i:i + 5]) for i in range(0, len(sentence) - 1, 5)
        ) + rng.choice((".", ".", "!", "?")))
    return "Subject: " + " ".join(subject) + "\n\n" + " ".join(sentences) + "\n"


def digest(files) -> str:
    """sha256 over every (path, text) pair; names the corpus in run records."""
    h = hashlib.sha256()
    for path, text in files:
        h.update(path.encode("utf-8") + b"\0" + text.encode("utf-8") + b"\0")
    return h.hexdigest()


def materialize(files, root: Path) -> str:
    """Write the corpus under `root` unless it already holds these bytes."""
    expected = digest(files)
    stamp = root / "DIGEST"
    if stamp.is_file() and stamp.read_text(encoding="utf-8") == expected:
        return expected
    for sub in ("spam", "ham"):
        target = root / sub
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
    for path, text in files:
        (root / path).write_text(text, encoding="utf-8")
    stamp.write_text(expected, encoding="utf-8")
    return expected
