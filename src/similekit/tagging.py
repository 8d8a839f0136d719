"""Pluggable adjective/adverb tagging.

The pipeline only ever needs one decision: is a given token an adjective or
an adverb?  Anything with a `tag(token) -> str` method can be swapped in;
only the tags ADJ and ADV are read, and any other tag means "not a modifier".
The default tagger is a lexicon plus suffix heuristics, dependency-free.
"""

from __future__ import annotations

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


class LexiconTagger:
    """Lexicon lookup with suffix fallbacks: ADJ, ADV, or X for any other token.

    Accuracy matters only at sentence-final positions, where the pipeline
    asks whether the token is a modifier; an X default means unknown words
    are never stripped or masked by mistake.
    """

    def tag(self, token: str) -> str:
        low = token.lower()
        if low in _ADJECTIVES or low in _LY_ADJECTIVES:
            return "ADJ"
        if low in _ADVERBS or (low.endswith("ly") and len(low) > 3):
            return "ADV"
        for suf in _ADJ_SUFFIXES:
            if low.endswith(suf) and len(low) > len(suf) + 2:
                return "ADJ"
        return "X"


DEFAULT_TAGGER = LexiconTagger()
