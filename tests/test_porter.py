from driftfilter import porter
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

# Each step's rule table beside the tuple it is built from.
STEP_TABLES = (
    (porter._STEP2_TABLE, porter._STEP2_RULES),
    (porter._STEP3_TABLE, porter._STEP3_RULES),
    (porter._STEP4_TABLE, tuple((suffix, "") for suffix in porter._STEP4_SUFFIXES)),
)
ALL_SUFFIXES = sorted({rule[0] for _, rules in STEP_TABLES for rule in rules})


def _first_rule_by_scan(rules, word):
    return next((rule for rule in rules if word.endswith(rule[0])), None)


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


def test_bucketed_lookup_matches_linear_scan_on_rule_suffixes():
    for base in ("", "x", "rel", "conform", "sensibil", "ational"):
        for suffix in ALL_SUFFIXES:
            word = base + suffix
            for table, rules in STEP_TABLES:
                assert porter._first_rule(table, word) == _first_rule_by_scan(
                    rules, word
                ), word

