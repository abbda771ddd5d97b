import importlib.util
import random
from functools import cache
from pathlib import Path

import pytest

from driftfilter.corpus import Document, Label, LabeledCorpus, stopwords


def make_doc(i, label, tokens):
    if isinstance(label, str):
        label = Label.SPAM if label == "spam" else Label.LEGITIMATE
    return Document(id=f"d{i}", label=label, tokens=tuple(tokens), arrival_index=i)


def make_corpus(spec):
    """Build a corpus from [(label, tokens), ...]."""
    return LabeledCorpus(tuple(
        make_doc(i, label, tokens) for i, (label, tokens) in enumerate(spec)
    ))


def random_corpus(rng: random.Random, max_docs=50, max_terms=200):
    """Seeded random two-class corpus for oracle-equivalence checks."""
    n_terms = rng.randint(2, max_terms)
    vocab = [f"t{j:03d}" for j in range(n_terms)]
    n_docs = rng.randint(2, max_docs)
    spec = []
    for i in range(n_docs):
        if i == 0:
            label = "spam"
        elif i == 1:
            label = "legit"
        else:
            label = rng.choice(("spam", "legit"))
        length = rng.randint(1, 30)
        spec.append((label, [rng.choice(vocab) for _ in range(length)]))
    return make_corpus(spec)


@cache
def generated_mail(seed=3, n_docs=60, words_per_doc=120):
    """The texts of a small `perfbench/mailgen.py` corpus, in arrival order.
    The generator is loaded from its file, so `perfbench/` stays off sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "mailgen.py"
    spec = importlib.util.spec_from_file_location("mailgen", path)
    mailgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mailgen)
    files = mailgen.generate(seed, sorted(stopwords()), n_docs=n_docs,
                             words_per_doc=words_per_doc)
    return tuple(text for _, text in files)


@pytest.fixture
def tiny_separable():
    """Fully separable corpus: class-exclusive vocabularies."""
    spec = []
    for i in range(12):
        if i % 2 == 0:
            spec.append(("spam", [f"spamword{j}" for j in (i % 3, (i + 1) % 3, 2)]))
        else:
            spec.append(("legit", [f"goodword{j}" for j in (i % 3, (i + 2) % 3, 1)]))
    return make_corpus(spec)
