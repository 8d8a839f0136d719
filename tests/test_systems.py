"""The four generators: free decode, forced prefix, retrieval, mask-and-decode."""

import pytest
from hypothesis import given, settings, strategies as st

from similekit.core import NotModifierFinal, parse_simile
from similekit.evaluation import read_batch_jsonl
from similekit.knowledge import EMPTY_SYNONYMS, EdgeTableBackend, KnowledgeEdge, SynonymTable
from similekit.lm import (
    EmptyTrainingSet,
    GenerationConfig,
    ReferenceSeq2SeqBackend,
    TemplateNgramModel,
    TrainConfig,
)
from similekit.systems import (
    ABSENT_OUTPUT,
    MASK_TOKEN,
    baseline_metaphor_mask,
    baseline_prefix_forced,
    baseline_retrieval,
    mask_terminal_modifier,
    run_batch,
    scope_generate,
    train_metaphor_mask,
)
from similekit.tagging import DEFAULT_TAGGER


def cfg(**kw):
    base = dict(max_new_tokens=50, seed=0, top_k=5, temperature=0.7)
    base.update(kw)
    return GenerationConfig(**base)


def oracle_train_metaphor_mask(pairs, cfg, tagger, stats):
    """The list-based masking trainer: mask every source, then train on the list."""
    masked_pairs = []
    stats["skipped"] = 0
    for source, target in pairs:
        try:
            masked = mask_terminal_modifier(source, tagger)
        except NotModifierFinal:
            stats["skipped"] += 1
            continue
        masked_pairs.append((masked, target))
    if not masked_pairs:
        raise EmptyTrainingSet("no sources survive terminal-modifier masking")
    return TemplateNgramModel.train(masked_pairs, cfg)


sources = st.builds("{} {} {}{}".format, st.sampled_from(["The sky", "He", "A rock"]),
                    st.sampled_from(["was", "ran", "saw"]),
                    st.sampled_from(["blue", "quickly", "a dog", "hard", "the tree"]),
                    st.sampled_from([".", "!", ""]))
TARGETS = ["The sky was like a sea.", "He ran like a deer!", "A rock was like a wall."]


class TestScope:
    def test_free_decode(self, toy_model, toy_world):
        text = scope_generate(toy_world["holdout"][0], toy_model, cfg(seed=4))
        assert parse_simile(text) is not None

    def test_rejects_forced_prefix(self, toy_model):
        with pytest.raises(ValueError):
            scope_generate("The river seemed cold.", toy_model, cfg(forced_prefix="x"))

    def test_deterministic(self, toy_model, toy_world):
        lit = toy_world["holdout"][3]
        assert scope_generate(lit, toy_model, cfg(seed=9)) == scope_generate(
            lit, toy_model, cfg(seed=9)
        )


class TestPrefixForced:
    def test_output_starts_with_constructed_prefix(self, pretrained_model):
        out = baseline_prefix_forced(
            "The river seemed cold.", pretrained_model, cfg(), DEFAULT_TAGGER
        )
        assert out.startswith("The river seemed like a")

    def test_dangling_comma_removed(self, pretrained_model):
        # Stripping "bold" leaves "His plan was simple," ; the forced prefix
        # must not carry that comma into "like a".
        out = baseline_prefix_forced(
            "His plan was simple, bold.", pretrained_model, cfg(), DEFAULT_TAGGER
        )
        assert out.startswith("His plan was simple like a")

    def test_preservation_is_total(self, pretrained_model, toy_world):
        for lit in toy_world["holdout"]:
            out = baseline_prefix_forced(lit, pretrained_model, cfg(seed=2), DEFAULT_TAGGER)
            assert " like a" in out

    def test_unstrippable_literal_raises(self, pretrained_model):
        with pytest.raises(NotModifierFinal):
            baseline_prefix_forced("He saw a dog.", pretrained_model, cfg(), DEFAULT_TAGGER)


class TestRetrieval:
    BACKEND = EdgeTableBackend(
        [
            KnowledgeEdge("sunset", "beautiful", 3.0),
            KnowledgeEdge("rose", "beautiful", 2.0),
            KnowledgeEdge("oven", "hot", 2.0),
        ]
    )

    def test_known_property(self):
        out = baseline_retrieval(
            "The city was beautiful.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out == "The city was like a sunset."

    def test_trailing_punctuation_reattached(self):
        out = baseline_retrieval(
            "The city was beautiful!", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out == "The city was like a sunset!"

    def test_absent_property_returns_none(self):
        out = baseline_retrieval(
            "The city was fractal.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out is None

    def test_synonym_fallback(self):
        syns = SynonymTable({"gorgeous": ["beautiful"]})
        out = baseline_retrieval("The city was gorgeous.", self.BACKEND, syns, DEFAULT_TAGGER)
        assert out == "The city was like a sunset."

    def test_article_fixed_by_default(self):
        out = baseline_retrieval("The pie was hot.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER)
        assert out == "The pie was like a oven."

    def test_article_heuristic_opt_in(self):
        out = baseline_retrieval(
            "The pie was hot.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER,
            use_article_heuristic=True,
        )
        assert out == "The pie was like an oven."

    def test_empty_table(self):
        empty = EdgeTableBackend([])
        assert baseline_retrieval("It was hot.", empty, EMPTY_SYNONYMS, DEFAULT_TAGGER) is None


class TestMasking:
    def test_mask_and_unmask_round_trip(self):
        masked = mask_terminal_modifier("The city was beautiful.", DEFAULT_TAGGER)
        assert masked == f"The city was {MASK_TOKEN}."
        assert masked.replace(MASK_TOKEN, "beautiful", 1) == "The city was beautiful."

    def test_mask_requires_modifier_final(self):
        with pytest.raises(NotModifierFinal):
            mask_terminal_modifier("He saw a dog.", DEFAULT_TAGGER)

    def test_train_skips_unstrippable_sources(self):
        pairs = [
            ("The sky was blue.", "The sky was like a sea."),
            ("He saw a dog.", "He ran like a deer."),
        ]
        stats = {}
        model = train_metaphor_mask(
            pairs, TrainConfig(seed=0), ReferenceSeq2SeqBackend(), DEFAULT_TAGGER, stats
        )
        assert stats["skipped"] == 1
        assert model.drop_words >= 1

    def test_tagger_failure_propagates(self):
        class BrokenTagger:
            def tag(self, word):
                raise RuntimeError("tagger crashed")

        pairs = [("The sky was blue.", "The sky was like a sea.")]
        with pytest.raises(RuntimeError, match="tagger crashed"):
            train_metaphor_mask(pairs, TrainConfig(seed=0), ReferenceSeq2SeqBackend(),
                                BrokenTagger())

    def test_train_raises_when_nothing_survives(self):
        pairs = [("He saw a dog.", "He ran like a deer.")]
        with pytest.raises(EmptyTrainingSet):
            train_metaphor_mask(pairs, TrainConfig(seed=0), ReferenceSeq2SeqBackend(),
                                DEFAULT_TAGGER)

    @pytest.mark.parametrize("make", [list, lambda pairs: (pair for pair in pairs)],
                             ids=["list", "generator"])
    @pytest.mark.parametrize("pairs", [
        [],
        [("He saw a dog.", "He ran like a deer."), ("A tree.", "A tree like a tower.")],
    ], ids=["empty", "all-unmaskable"])
    def test_nothing_to_train_on_names_the_masking(self, make, pairs):
        stats = {}
        with pytest.raises(EmptyTrainingSet, match="no sources survive terminal-modifier masking"):
            train_metaphor_mask(make(pairs), TrainConfig(seed=0), ReferenceSeq2SeqBackend(),
                                DEFAULT_TAGGER, stats)
        assert stats == {"skipped": len(pairs)}

    @given(st.lists(st.tuples(sources, st.sampled_from(TARGETS)), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_streamed_masking_equals_the_list_oracle(self, pairs):
        stats, oracle_stats = {}, {}
        try:
            expected = oracle_train_metaphor_mask(pairs, TrainConfig(seed=3), DEFAULT_TAGGER,
                                                  oracle_stats)
        except EmptyTrainingSet:
            expected = None
        try:
            model = train_metaphor_mask((pair for pair in pairs), TrainConfig(seed=3),
                                        ReferenceSeq2SeqBackend(), DEFAULT_TAGGER, stats)
        except EmptyTrainingSet:
            model = None
        assert stats == oracle_stats
        assert (model is None) == (expected is None)
        if model is not None:
            assert vars(model) == vars(expected)

    def test_masked_decode_produces_similes(self, toy_pairs, toy_world):
        model = train_metaphor_mask(
            toy_pairs, TrainConfig(seed=6), ReferenceSeq2SeqBackend(), DEFAULT_TAGGER
        )
        out = baseline_metaphor_mask(toy_world["holdout"][0], model, cfg(seed=6), DEFAULT_TAGGER)
        assert "like a" in out
        assert MASK_TOKEN not in out


class TestRunBatch:
    def test_records_and_file(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        records = run_batch(
            ["The city was beautiful.", "The city was fractal."],
            "rtrvl",
            lambda lit: "The city was like a sunset." if "beautiful" in lit else None,
            seed=5,
            out_path=path,
        )
        assert records == read_batch_jsonl(path)
        assert records[0] == {
            "literal": "The city was beautiful.",
            "system": "rtrvl",
            "output": "The city was like a sunset.",
            "seed": 5,
        }
        assert records[1]["output"] == ABSENT_OUTPUT

    def test_order_preserved(self):
        literals = [f"Item {i} felt warm." for i in range(10)]
        records = run_batch(literals, "scope", lambda lit: lit.upper(), seed=1)
        assert [r["literal"] for r in records] == literals
