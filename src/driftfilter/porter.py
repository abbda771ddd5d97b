"""Porter's suffix-stripping stemmer for English.

Self-contained implementation of the classic five-step algorithm. Within
each step the longest matching suffix is selected first; once a suffix
matches, the step is consumed whether or not its measure condition lets
the rewrite fire (reference-implementation semantics).

Each word is classified once: its form holds `v` for a vowel and `c` for a
consonant, position by position, so the measure m of a stem of length k is
`form.count(b"vc", 0, k)` and `*v*` is a `b"v"` in its first k bytes. The
steps only cut suffixes and append replacements that hold no `y`, and a
letter's class depends only on the letters before it, so the form follows
the word by the same cuts and appends. `tests/oracles.py::porter_reference`
is the algorithm as published; `stem` must agree with it on every input.
"""

_V, _C, _Y = b"vcy"

# Byte classes: vowels are v, y is resolved from its left neighbour, and
# every other byte is a consonant (a non-ASCII character becomes `?`).
_CLASSES = bytes(_V if b in b"aeiou" else _Y if b == _Y else _C for b in range(256))


def _resolve_y(form: bytes) -> bytes:
    """Classify each y: a consonant at the start or after a vowel, else a
    vowel. Each round settles every y whose left neighbour is settled."""
    if form[0] == _Y:
        form = b"c" + form[1:]
    while _Y in form:
        form = form.replace(b"vy", b"vc").replace(b"cy", b"cv")
    return form


def _rule_table(rules):
    """Rules bucketed by the last two letters of their suffix, in their
    given order, each with the form of its replacement (no replacement
    holds a y).

    Every suffix has at least two letters, so only the bucket of a word's
    last two letters can match it, and the first match within that bucket
    is the first match of the whole tuple.
    """
    table = {}
    for suffix, replacement in rules:
        form = replacement.encode().translate(_CLASSES)
        table.setdefault(suffix[-2:], []).append((suffix, len(suffix), replacement, form))
    return {tail: tuple(bucket) for tail, bucket in table.items()}


# (suffix, replacement) pairs, longest suffix first within each step.
_STEP2 = _rule_table((
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"),
    ("tional", "tion"), ("biliti", "ble"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("iviti", "ive"), ("ousli", "ous"), ("entli", "ent"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"),
    ("eli", "e"),
))

_STEP3 = _rule_table((
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
))

_STEP4 = _rule_table((suffix, "") for suffix in (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
))


def stem(word: str) -> str:
    """Return the Porter stem of a lowercase alphabetic token.

    Words of length <= 2 are returned unchanged.
    """
    if len(word) <= 2:
        return word
    form = word.encode("ascii", "replace").translate(_CLASSES)
    if _Y in form:
        form = _resolve_y(form)

    # Step 1a: plurals.
    last = word[-1]
    if last == "s":
        if word.endswith(("sses", "ies")):
            word, form = word[:-2], form[:-2]
        elif word[-2] != "s":
            word, form = word[:-1], form[:-1]
        last = word[-1]

    # Step 1b: -eed, -ed, -ing.
    k = 0
    if last == "d":
        if word.endswith("eed"):
            if form.count(b"vc", 0, len(word) - 3):
                word, form = word[:-1], form[:-1]
        elif word[-2] == "e":
            k = len(word) - 2
    elif last == "g" and word.endswith("ing"):
        k = len(word) - 3
    if k and _V in form[:k]:
        word, form = word[:k], form[:k]
        last = word[-1]
        if word.endswith(("at", "bl", "iz")):
            word, form = word + "e", form + b"v"
        elif k >= 2 and last == word[-2] and form[-1] == _C and last not in "lsz":
            word, form = word[:-1], form[:-1]
        elif form.count(b"vc") == 1 and form.endswith(b"cvc") and last not in "wxy":
            word, form = word + "e", form + b"v"

    # Step 1c: y -> i after a vowel.
    if word[-1] == "y" and _V in form[:-1]:
        word, form = word[:-1] + "i", form[:-1] + b"v"

    # Steps 2 and 3: m > 0 rewrites.
    for suffix, n, replacement, replacement_form in _STEP2.get(word[-2:], ()):
        if word.endswith(suffix):
            k = len(word) - n
            if form.count(b"vc", 0, k):
                word, form = word[:k] + replacement, form[:k] + replacement_form
            break
    for suffix, n, replacement, replacement_form in _STEP3.get(word[-2:], ()):
        if word.endswith(suffix):
            k = len(word) - n
            if form.count(b"vc", 0, k):
                word, form = word[:k] + replacement, form[:k] + replacement_form
            break

    # Step 4: m > 1 removals; -ion only after s or t.
    for suffix, n, _, _ in _STEP4.get(word[-2:], ()):
        if word.endswith(suffix):
            k = len(word) - n
            if form.count(b"vc", 0, k) > 1 and (suffix != "ion" or word[k - 1] in "st"):
                word, form = word[:k], form[:k]
            break

    # Step 5: a final e, and a final ll.
    if word[-1:] == "e":
        k = len(word) - 1
        m = form.count(b"vc", 0, k)
        if m > 1 or (m == 1 and not (form.endswith(b"cvc", 0, k)
                                     and word[k - 1] not in "wxy")):
            word, form = word[:k], form[:k]
    if word.endswith("ll") and form.count(b"vc") > 1:
        word = word[:-1]
    return word
