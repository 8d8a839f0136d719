"""Story embellishment: sentence selection, single replacement, passthrough."""

import pytest

from similekit.core import NotModifierFinal, write_jsonl
from similekit.story import (
    EmbellishWarning,
    Story,
    embellish,
    generate_story,
    read_stories_jsonl,
    select_replaceable,
)
from similekit.lm import GenerationConfig, TemplateNgramModel, TrainConfig
from similekit.tagging import DEFAULT_TAGGER


STORY = Story(
    title="The Flood",
    storyline=("river", "village", "night"),
    sentences=(
        "The rain began at dusk.",
        "By midnight the river was wild.",
        "Nobody slept in the village.",
    ),
)


def simile_generator(literal):
    return literal[:-1].rsplit(" ", 1)[0] + " like a hurricane."


class TestSelectReplaceable:
    def test_picks_the_only_qualifying_sentence(self):
        assert select_replaceable(STORY, DEFAULT_TAGGER, rng_seed=0) == 1

    def test_none_when_nothing_qualifies(self):
        story = Story("T", (), ("He saw a dog.", "They walked home."))
        assert select_replaceable(story, DEFAULT_TAGGER, rng_seed=0) is None

    def test_seed_determines_choice(self):
        story = Story(
            "T", (), ("The sea was calm.", "The sky was dark.", "The air felt cold.")
        )
        picks = {select_replaceable(story, DEFAULT_TAGGER, s) for s in range(30)}
        assert picks <= {0, 1, 2}
        assert len(picks) > 1
        for seed in range(10):
            assert select_replaceable(story, DEFAULT_TAGGER, seed) == select_replaceable(
                story, DEFAULT_TAGGER, seed
            )


class TestEmbellish:
    def test_replaces_exactly_one_sentence(self):
        out = embellish(STORY, simile_generator, DEFAULT_TAGGER, seed=0)
        diffs = [i for i, (a, b) in enumerate(zip(STORY.sentences, out.sentences)) if a != b]
        assert diffs == [1]
        assert out.sentences[1] == "By midnight the river was like a hurricane."
        assert out.title == STORY.title and out.storyline == STORY.storyline

    def test_unchanged_when_no_sentence_qualifies(self):
        story = Story("T", (), ("He saw a dog.",))
        assert embellish(story, simile_generator, DEFAULT_TAGGER, seed=0) is story

    def test_unchanged_on_generator_miss(self):
        assert embellish(STORY, lambda lit: None, DEFAULT_TAGGER, seed=0) is STORY

    def test_unchanged_with_warning_on_generator_failure(self):
        def unstrippable(literal):
            raise NotModifierFinal("final token tagged NOUN")

        with pytest.warns(EmbellishWarning):
            out = embellish(STORY, unstrippable, DEFAULT_TAGGER, seed=0)
        assert out is STORY

    def test_other_generator_error_propagates(self):
        def broken(literal):
            raise RuntimeError("model offline")

        with pytest.raises(RuntimeError, match="model offline"):
            embellish(STORY, broken, DEFAULT_TAGGER, seed=0)

    def test_deterministic_for_seed(self):
        story = Story(
            "T", (), ("The sea was calm.", "The sky was dark.", "The air felt cold.")
        )
        for seed in (0, 1, 7):
            a = embellish(story, simile_generator, DEFAULT_TAGGER, seed)
            b = embellish(story, simile_generator, DEFAULT_TAGGER, seed)
            assert a == b


class TestGenerateStory:
    @pytest.fixture()
    def models(self):
        storyline_model = TemplateNgramModel.train(
            [("The Flood", "The Flood river village night")], TrainConfig(seed=0)
        )
        story_model = TemplateNgramModel.train(
            [
                (
                    "The Flood river village night",
                    "The Flood river village night fell. The water rose. All was quiet.",
                )
            ],
            TrainConfig(seed=0),
        )
        return storyline_model, story_model

    def test_title_to_sentences(self, models):
        cfg = GenerationConfig(max_new_tokens=60, seed=0, top_k=1)
        story = generate_story("The Flood", *models, cfg)
        assert story.title == "The Flood"
        assert len(story.sentences) >= 1
        assert story.storyline

    def test_empty_title_rejected(self, models):
        cfg = GenerationConfig(max_new_tokens=10, seed=0)
        with pytest.raises(ValueError):
            generate_story("   ", *models, cfg)

    def test_story_needs_sentences(self):
        with pytest.raises(ValueError):
            Story("T", (), ())

    @pytest.mark.parametrize("build", [
        lambda: Story("T", (), "It was cold."),
        lambda: Story("T", "winter", ("It was cold.",)),
        lambda: Story("T", (), ("It was cold.", 7)),
        lambda: Story._make(["T", (), "It was cold."]),
        lambda: STORY._replace(storyline="river"),
    ])
    def test_lines_must_be_lists_of_strings(self, build):
        with pytest.raises(TypeError, match="must be a list of strings"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Story(["a"], (), ("It was cold.",)),
        lambda: Story(None, (), ("It was cold.",)),
        lambda: Story._make([5, (), ("It was cold.",)]),
        lambda: STORY._replace(title=("The Flood",)),
    ])
    def test_title_must_be_a_string(self, build):
        with pytest.raises(TypeError, match="'title' is .*, not a string"):
            build()


class TestStoryFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stories.jsonl"
        write_jsonl(map(Story._asdict, [STORY]), path)
        assert read_stories_jsonl(path) == [STORY]
