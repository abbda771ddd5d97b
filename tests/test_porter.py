import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import generated_mail
from driftfilter.porter import stem

# Hand-verified against the published algorithm's rule examples,
# traced through all five steps.
REFERENCE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("digitizer", "digit"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("sensibiliti", "sensibl"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("conformabli", "conform"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("gyroscopic", "gyroscop"),
    ("homologou", "homolog"),
    ("homologous", "homolog"),
    ("angulariti", "angular"),
    # Step 4: (m>1 and (*S or *T)) ION -> "".
    ("opinion", "opinion"),  # stem opin has m=2 but ends in n
    ("ion", "ion"),  # empty stem
]


def test_reference_vectors():
    for word, expected in REFERENCE:
        assert stem(word) == expected, f"{word}: {stem(word)} != {expected}"


def test_short_words_unchanged():
    for word in ("a", "is", "we", "by"):
        assert stem(word) == word


def test_stem_is_lowercase_alpha_safe():
    # Digit-bearing tokens pass through untouched (no suffix rules match).
    assert stem("sp0042") == "sp0042"
    assert stem("x99") == "x99"


# Every suffix a Porter step tests, and letters weighted to vowels and y,
# whose class depends on its left neighbour.
RULE_SUFFIXES = sorted(
    {suffix for suffix, _ in oracles._PORTER_STEP2 + oracles._PORTER_STEP3}
    | set(oracles._PORTER_STEP4)
    | {"sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz", "y", "e", "ll"}
)
ROOT_LETTERS = "aeiouyyybcdlnrstwxz"


SUFFIXED_WORDS = st.builds(
    lambda root, suffixes: root + "".join(suffixes),
    st.text(alphabet=ROOT_LETTERS, max_size=8),
    st.lists(st.sampled_from(RULE_SUFFIXES), min_size=1, max_size=3),
)


@settings(max_examples=300)
@given(st.lists(SUFFIXED_WORDS, max_size=20))
def test_matches_reference_on_rule_suffixes(words):
    for word in words:
        assert stem(word) == oracles.porter_reference(word), word


def test_matches_reference_on_short_roots():
    # Every root of up to three letters over consonants, vowels, w, x and
    # y: the letters whose class or role depends on their neighbours.
    for size in range(4):
        for letters in itertools.product("abeswxy", repeat=size):
            for suffix in RULE_SUFFIXES:
                word = "".join(letters) + suffix
                assert stem(word) == oracles.porter_reference(word), word


@settings(max_examples=500)
@given(st.one_of(st.text(), st.text(alphabet=ROOT_LETTERS + "İ\u212a\ufffdé9", max_size=12)))
def test_matches_reference_on_arbitrary_text(word):
    # Any character outside a-z counts as a consonant, non-ASCII included.
    assert stem(word) == oracles.porter_reference(word)


def test_matches_reference_on_generated_mail():
    words = set()
    for text in generated_mail():
        words.update(re.findall(r"[a-z0-9]+", text.lower()))
    assert len(words) > 1000
    for word in sorted(words):
        assert stem(word) == oracles.porter_reference(word), word
