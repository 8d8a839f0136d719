"""The adjective/adverb tagger against the fuller tagger it replaced.

OracleLexiconTagger and its tables are the earlier `similekit.tagging`
code, copied unchanged except for the class name.  It also told nouns,
verbs, determiners, numbers and punctuation apart, which no caller read:
the pipeline only asks whether a token is ADJ or ADV.  The tests check
that the two taggers make that decision, and strip_terminal_modifier its
split, alike.
"""

import re

from hypothesis import given, strategies as st

from similekit.core import NotModifierFinal, strip_terminal_modifier
from similekit.tagging import LexiconTagger

MODIFIER_TAGS = ("ADJ", "ADV")


# ---------------------------------------------------------------------------
# Oracle: the earlier tagger, unchanged.

_ADJECTIVES = {
    "afraid", "ancient", "angry", "bad", "beautiful", "big", "bitter", "black",
    "blue", "bold", "bored", "brave", "bright", "broken", "busy", "calm", "careful",
    "catastrophic", "cheap", "clean", "clear", "clever", "cold", "cool",
    "crazy", "cruel", "curious", "dangerous", "dark", "dead", "deep",
    "delicate", "difficult", "dirty", "dry", "dull", "eager", "early", "easy",
    "ecstatic", "empty", "enormous", "evil", "fancy", "fascinated", "fast",
    "fierce", "fine", "firm", "flat", "fragile", "free", "fresh", "friendly",
    "full", "funny", "gentle", "glad", "golden", "good", "gorgeous", "great",
    "green", "grim", "happy", "hard", "heavy", "high", "hollow", "honest",
    "hot", "huge", "hungry", "invincible", "jolly", "kind", "large", "late",
    "lazy", "light", "little", "lonely", "long", "loud", "lovely", "low",
    "mad", "mighty", "miserable", "narrow", "neat", "nervous", "new", "nice",
    "noisy", "obscene", "odd", "old", "only", "pale", "patient", "peaceful",
    "perfect", "pink", "plain", "pleasant", "polite", "poor", "powerful",
    "pretty", "proud", "pure", "quick", "quiet", "rare", "raw", "red",
    "relaxed", "rich", "ripe", "rough", "round", "sad", "safe", "salty",
    "scared", "serious", "shallow", "sharp", "shiny", "short", "shy", "sick",
    "silent", "silly", "simple", "slow", "small", "smart", "smooth", "soft",
    "solid", "sore", "sour", "steady", "sticky", "stiff", "still", "strange",
    "strict", "strong", "stubborn", "sweet", "swift", "tall", "tame", "thick",
    "thin", "tidy", "tiny", "tired", "tough", "tricky", "true", "ugly",
    "unpleasant", "vast", "warm", "weak", "weary", "wet", "white", "wide",
    "wild", "wise", "wrong", "yellow", "young",
}

_ADVERBS = {
    "again", "almost", "already", "also", "always", "anywhere", "away",
    "everywhere", "far", "forever", "here", "indeed", "maybe",
    "never", "now", "nowhere", "often", "once", "perhaps", "quite", "rather",
    "seldom", "sometimes", "somewhere", "soon", "then", "there", "today",
    "together", "tomorrow", "too", "twice", "very", "well", "yesterday",
    "yet",
}

# -ly words that are adjectives, not adverbs.
_LY_ADJECTIVES = {
    "early", "friendly", "holy", "jolly", "lonely", "lovely", "only", "silly",
    "ugly", "burly", "curly", "deadly", "elderly", "lively", "oily",
}

_ADJ_SUFFIXES = (
    "ful", "ous", "ive", "able", "ible", "al", "ic", "ish", "less",
)

_CLOSED = {
    "DET": {"a", "an", "the", "this", "that", "these", "those", "some", "any",
            "each", "every", "no", "his", "her", "its", "my", "our", "their",
            "your"},
    "PRON": {"i", "you", "he", "she", "it", "we", "they", "me", "him", "them",
             "us", "who", "what", "which", "someone", "something"},
    "ADP": {"about", "above", "across", "after", "against", "around", "at",
            "before", "behind", "below", "beneath", "beside", "between", "by",
            "down", "during", "for", "from", "in", "inside", "into", "near",
            "of", "off", "on", "onto", "out", "over", "through", "to",
            "toward", "under", "up", "upon", "with", "without"},
    "CONJ": {"and", "because", "but", "if", "or", "nor", "so", "while",
             "although", "though", "unless", "until", "when", "where"},
    "VERB": {"am", "are", "be", "became", "become", "been", "being", "came",
             "come", "could", "did", "do", "does", "felt", "go", "goes",
             "got", "had", "has", "have", "is", "looked", "made", "make",
             "may", "might", "must", "ran", "run", "said", "saw", "say",
             "see", "seem", "seemed", "should", "sounded", "was", "were",
             "will", "would"},
}


class OracleLexiconTagger:
    """Lexicon lookup with suffix fallbacks; unknown words default to NOUN.

    Accuracy matters only at sentence-final positions, where the pipeline
    asks whether the token is a modifier; a conservative NOUN default means
    unknown words are never stripped or masked by mistake.
    """

    def __init__(self, extra_adjectives=(), extra_adverbs=()):
        self.adjectives = _ADJECTIVES | {w.lower() for w in extra_adjectives}
        self.adverbs = _ADVERBS | {w.lower() for w in extra_adverbs}

    def tag(self, token: str) -> str:
        if not token or not re.search(r"\w", token):
            return "PUNCT"
        low = token.lower()
        if low in self.adjectives or low in _LY_ADJECTIVES:
            return "ADJ"
        if low in self.adverbs:
            return "ADV"
        for pos, words in _CLOSED.items():
            if low in words:
                return pos
        if low.isdigit():
            return "NUM"
        if low.endswith("ly") and len(low) > 3:
            return "ADV"
        for suf in _ADJ_SUFFIXES:
            if low.endswith(suf) and len(low) > len(suf) + 2:
                return "ADJ"
        return "NOUN"


ORACLE = OracleLexiconTagger()
TAGGER = LexiconTagger()

LEXICON_WORDS = sorted(
    _ADJECTIVES | _ADVERBS | _LY_ADJECTIVES | set().union(*_CLOSED.values())
)
SUFFIXES = ("ly", *_ADJ_SUFFIXES)
# Each suffix after a stem of 0-4 letters: both sides of each length rule.
SUFFIX_WORDS = [stem + suf for suf in SUFFIXES for stem in ("", "s", "sm", "smo", "smot")]

# Letters (the suffix rules' "ly", "ous", ... included), digits, apostrophes
# and single punctuation marks, in any case.
tokens = st.one_of(
    st.text(alphabet="abcdefilnorsuvyABLY0123456789'", min_size=0, max_size=12),
    st.sampled_from([".", ",", "!", "?", ";", ":", "-", "'", '"', "(", ")", "…", "“", "”"]),
    st.sampled_from(LEXICON_WORDS).map(str.upper),
    st.tuples(st.sampled_from(LEXICON_WORDS), st.sampled_from(("", *SUFFIXES))).map("".join),
    st.tuples(st.text(alphabet="abflyAY'1", max_size=4), st.sampled_from(SUFFIXES)).map("".join),
)


def assert_same_decision(token):
    old, new = ORACLE.tag(token), TAGGER.tag(token)
    assert (old in MODIFIER_TAGS) == (new in MODIFIER_TAGS), (token, old, new)
    if new in MODIFIER_TAGS:
        assert new == old, token
    else:
        assert new == "X", token


def test_every_lexicon_and_closed_class_word():
    for word in LEXICON_WORDS + SUFFIX_WORDS:
        for token in (word, word.upper(), word.capitalize()):
            assert_same_decision(token)


@given(tokens)
def test_generated_tokens(token):
    assert_same_decision(token)


def split_or_refusal(text, tagger):
    try:
        s = strip_terminal_modifier(text, tagger)
    except NotModifierFinal:
        return NotModifierFinal
    return s.prefix, s.property, s.trailing


sentences = st.lists(
    st.one_of(tokens, st.sampled_from(LEXICON_WORDS)), min_size=0, max_size=8
).flatmap(lambda words: st.sampled_from(["", ".", "!", " ...", ",", "?\""]).map(
    lambda end: " ".join(words) + end))


@given(sentences)
def test_strip_terminal_modifier_splits_alike(text):
    assert split_or_refusal(text, TAGGER) == split_or_refusal(text, ORACLE)
