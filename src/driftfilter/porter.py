"""Porter's suffix-stripping stemmer for English.

Self-contained implementation of the classic five-step algorithm. Within
each step the longest matching suffix is selected first; once a suffix
matches, the step is consumed whether or not its measure condition lets
the rewrite fire (reference-implementation semantics).
"""

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count VC sequences: the m of [C](VC){m}[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _is_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """The *o condition: ends consonant-vowel-consonant, last not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace_if(word, suffix, replacement, min_measure):
    """Strip suffix and append replacement when m(stem) > min_measure."""
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return _replace_if(word, "eed", "ee", 0)
    fired = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        fired = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        fired = word[:-3]
    if fired is None:
        return word
    word = fired
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs, longest suffix first within each step.
_STEP2_RULES = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"),
    ("tional", "tion"), ("biliti", "ble"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("iviti", "ive"), ("ousli", "ous"), ("entli", "ent"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
)


def _rule_table(rules):
    """Rules bucketed by the last letter of their suffix, in their given order.

    Only suffixes ending in a word's last letter can match it, so the first
    match within that bucket is the first match of the whole tuple.
    """
    table = {}
    for rule in rules:
        table.setdefault(rule[0][-1], []).append(rule)
    return {last: tuple(bucket) for last, bucket in table.items()}


_STEP2_TABLE = _rule_table(_STEP2_RULES)
_STEP3_TABLE = _rule_table(_STEP3_RULES)
_STEP4_TABLE = _rule_table((suffix, "") for suffix in _STEP4_SUFFIXES)


def _first_rule(table, word: str):
    """The first (suffix, replacement) rule of `table` that `word` ends with."""
    for rule in table.get(word[-1:], ()):
        if word.endswith(rule[0]):
            return rule
    return None


def _step2or3(table, word: str) -> str:
    rule = _first_rule(table, word)
    return word if rule is None else _replace_if(word, *rule, 0)


def _step4(word: str) -> str:
    rule = _first_rule(_STEP4_TABLE, word)
    if rule is None:
        return word
    suffix = rule[0]
    stem = word[: len(word) - len(suffix)]
    if suffix == "ion" and (not stem or stem[-1] not in "st"):
        return word
    if _measure(stem) > 1:
        return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Return the Porter stem of a lowercase alphabetic token.

    Words of length <= 2 are returned unchanged.
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2or3(_STEP2_TABLE, word)
    word = _step2or3(_STEP3_TABLE, word)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
