"""Story post-processing: replace one literal sentence with a generated simile.

A story is embellished at most once: among sentences whose final content token
is an adjective or adverb, one is picked by seeded RNG and handed to any
generator with the shared literal-in signature.  Stories with no qualifying
sentence, and generator misses, pass through unchanged; a generator that
cannot strip the sentence's modifier is a warning, and any other generator
error ends the run.
"""

from __future__ import annotations

import random
import warnings
from typing import NamedTuple

from .core import (
    Checked,
    NotModifierFinal,
    read_records,
    split_sentences,
    string,
    strings,
    strip_terminal_modifier,
)
from .lm import GenerationConfig, generate


class _StoryFields(NamedTuple):
    title: str
    storyline: tuple[str, ...]
    sentences: tuple[str, ...]


class Story(Checked, _StoryFields):
    """A story: a string title; storyline and sentences are lists or tuples of strings,
    kept as tuples."""

    __slots__ = ()

    def __new__(cls, title, storyline, sentences):
        if not sentences:
            raise ValueError("a story needs at least one sentence")
        return tuple.__new__(cls, (string("title", title), tuple(strings("storyline", storyline)),
                                   tuple(strings("sentences", sentences))))


class EmbellishWarning(UserWarning):
    """The generator could not strip the sentence's modifier; the story was returned unchanged."""


def _qualifies(sentence: str, tagger) -> bool:
    try:
        strip_terminal_modifier(sentence, tagger)
        return True
    except NotModifierFinal:
        return False


def select_replaceable(story: Story, tagger, rng_seed: int) -> int | None:
    """Uniform seeded choice among modifier-final sentences; None when none qualify."""
    qualifying = [i for i, s in enumerate(story.sentences) if _qualifies(s, tagger)]
    if not qualifying:
        return None
    return qualifying[random.Random(rng_seed).randrange(len(qualifying))]


def embellish(story: Story, generator, tagger, seed: int) -> Story:
    """Replace the selected sentence with generator(sentence); unchanged on miss.

    generator is any literal-in callable returning the simile or None.  A
    NotModifierFinal from it is a warning and leaves the story unchanged;
    any other error propagates.
    """
    index = select_replaceable(story, tagger, seed)
    if index is None:
        return story
    try:
        simile = generator(story.sentences[index])
    except NotModifierFinal as exc:
        warnings.warn(f"generator failed ({exc}); story unchanged", EmbellishWarning,
                      stacklevel=2)
        return story
    if not simile:
        return story
    sentences = list(story.sentences)
    sentences[index] = simile
    return Story(title=story.title, storyline=story.storyline, sentences=tuple(sentences))


def generate_story(title: str, storyline_model, story_model, cfg: GenerationConfig) -> Story:
    """Two-step chain: title -> storyline keywords -> story sentences."""
    if not title or not title.strip():
        raise ValueError("title must be non-empty")
    storyline_text = generate(title, cfg, storyline_model).text
    storyline = tuple(storyline_text.split())
    story_text = generate(" ".join(storyline), cfg, story_model).text
    sentences = tuple(split_sentences(story_text))
    if not sentences:
        raise ValueError(f"story model produced no sentences for {title!r}")
    return Story(title=title, storyline=storyline, sentences=sentences)


# ---------------------------------------------------------------------------
# File formats


def read_stories_jsonl(path) -> list[Story]:
    return list(read_records(
        path, lambda rec: Story(rec.get("title", ""), rec.get("storyline", ()), rec["sentences"])))
